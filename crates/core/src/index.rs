//! Query-serving indexes over the recommendation store.
//!
//! The naive similarity step of Fig 4.5 flattens every profile and scores
//! every consumer on every query — O(consumers × terms) per request. This
//! module holds the derived structures [`crate::store::RecommendStore`]
//! maintains incrementally so the hot path only touches plausible
//! candidates:
//!
//! * [`FlatProfile`] — a profile's flattened term vector plus its
//!   precomputed norm, so neither is recomputed per query;
//! * [`ProfileIndex`] — the flat-profile cache, an interned "packed"
//!   mirror of every flat vector, and inverted term → consumers posting
//!   lists keyed by interned term id. Consumers sharing no term with the
//!   target score exactly `0.0` under every similarity method, so (for a
//!   non-negative neighbour floor) scoring only posting-list candidates
//!   is lossless;
//! * the similarity kernel ([`ProfileIndex::top_neighbours`]) that scores
//!   candidates over the packed vectors for both the exact and the ANN
//!   path, bitwise identical to [`crate::similarity::vector_similarity`];
//! * [`ItemSimCache`] — memoized item–item cosine similarities for
//!   item-based CF, invalidated wholesale whenever the ratings matrix
//!   version changes;
//! * a bounded top-k selector replicating the reference
//!   "sort by (score desc, id asc), truncate(k)" ranking without sorting
//!   the full candidate list.
//!
//! All structures are rebuildable from the store's primary data; they are
//! never serialized.

use crate::learning::ProfileDelta;
use crate::profile::{ConsumerId, Profile};
use crate::similarity::{Overlap, SimilarityConfig};
use ecp::terms::TermVector;
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, VecDeque};

/// A consumer profile flattened for similarity scoring: the namespaced
/// term vector of [`Profile::flatten`] plus its Euclidean norm.
#[derive(Debug, Clone, Default)]
pub struct FlatProfile {
    /// Flattened (category-namespaced) term vector.
    pub vector: TermVector,
    /// `vector.norm()`, precomputed.
    pub norm: f64,
}

impl FlatProfile {
    /// Flatten `profile` and precompute its norm.
    pub fn of(profile: &Profile) -> Self {
        let vector = profile.flatten();
        let norm = vector.norm();
        FlatProfile { vector, norm }
    }
}

/// Flat-profile cache plus its interned mirror: terms map to dense `u32`
/// ids (assigned on first sight, never recycled), each consumer's vector
/// is also kept as a contiguous `(term-id, weight)` array, and the
/// posting lists are indexed by term id — so neither candidate
/// generation nor scoring compares a string.
///
/// The packed arrays are kept in *term-string* order, the order of
/// [`TermVector::iter`], not in id order: the similarity kernel sums a
/// pair's shared terms in exactly the order
/// [`crate::similarity::vector_similarity`] does, so its f64 results are
/// bitwise identical to the reference scan.
#[derive(Debug, Clone, Default)]
pub struct ProfileIndex {
    entries: BTreeMap<u64, Entry>,
    vocab: Vocab,
    postings: Postings,
}

#[derive(Debug, Clone, Default)]
struct Entry {
    flat: FlatProfile,
    /// `flat.vector` interned: `(term-id, weight)` in term-string order.
    packed: Vec<(u32, f64)>,
}

impl Entry {
    /// Position of `term` in `packed` (`Err`: where it would go).
    fn position(&self, vocab: &Vocab, term: &str) -> Result<usize, usize> {
        self.packed
            .binary_search_by(|(t, _)| vocab.term(*t).cmp(term))
    }
}

/// The term interner: dense ids in both directions.
#[derive(Debug, Clone, Default)]
struct Vocab {
    ids: HashMap<String, u32>,
    terms: Vec<String>,
}

impl Vocab {
    fn intern(&mut self, term: &str) -> u32 {
        if let Some(id) = self.ids.get(term) {
            return *id;
        }
        let id = u32::try_from(self.terms.len()).expect("fewer than 2^32 distinct terms");
        self.ids.insert(term.to_string(), id);
        self.terms.push(term.to_string());
        id
    }

    fn get(&self, term: &str) -> Option<u32> {
        self.ids.get(term).copied()
    }

    fn term(&self, id: u32) -> &str {
        &self.terms[id as usize]
    }

    fn len(&self) -> usize {
        self.terms.len()
    }
}

/// Term id → consumers holding the term.
#[derive(Debug, Clone, Default)]
struct Postings {
    lists: Vec<BTreeSet<u64>>,
}

impl Postings {
    fn link(&mut self, term: u32, id: u64) {
        let t = term as usize;
        if self.lists.len() <= t {
            self.lists.resize_with(t + 1, BTreeSet::new);
        }
        self.lists[t].insert(id);
    }

    fn unlink(&mut self, term: u32, id: u64) {
        if let Some(list) = self.lists.get_mut(term as usize) {
            list.remove(&id);
        }
    }

    /// Union of the lists of `terms` into `out`, ascending, deduplicated.
    fn union_into(&self, terms: impl Iterator<Item = u32>, out: &mut Vec<u64>) {
        out.clear();
        for t in terms {
            if let Some(list) = self.lists.get(t as usize) {
                out.extend(list.iter().copied());
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

impl ProfileIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build an index over `profiles` from scratch.
    pub fn rebuild<'a, I>(profiles: I) -> Self
    where
        I: IntoIterator<Item = (u64, &'a Profile)>,
    {
        let mut index = ProfileIndex::new();
        for (id, profile) in profiles {
            index.update(id, profile);
        }
        index
    }

    /// Insert or refresh the entry for `id` after its profile changed.
    pub fn update(&mut self, id: u64, profile: &Profile) {
        self.unlink(id);
        let flat = FlatProfile::of(profile);
        let packed: Vec<(u32, f64)> = flat
            .vector
            .iter()
            .map(|(term, w)| (self.vocab.intern(term), w))
            .collect();
        for (term, _) in &packed {
            self.postings.link(*term, id);
        }
        self.entries.insert(id, Entry { flat, packed });
    }

    /// Apply a [`ProfileDelta`] from the incremental learning path: only
    /// the changed flat keys are touched in the vector, postings and
    /// packed mirror — O(changed terms × log profile) instead of a full
    /// re-flatten — and the norm is recomputed from the maintained
    /// vector, which keeps it bit-identical to a fresh
    /// [`FlatProfile::of`] (the maintained weights *are* the flatten
    /// output; only re-deriving them wholesale is skipped).
    pub fn apply_delta(&mut self, id: u64, delta: &ProfileDelta) {
        let ProfileIndex {
            entries,
            vocab,
            postings,
        } = self;
        let entry = entries.entry(id).or_default();
        let mut dirty = false;
        for (key, new_w) in delta.changes() {
            let old_w = entry.flat.vector.weight(key);
            if new_w > 0.0 {
                if old_w.to_bits() == new_w.to_bits() {
                    continue;
                }
                dirty = true;
                entry.flat.vector.set(key.clone(), new_w);
                match entry.position(vocab, key) {
                    Ok(pos) => entry.packed[pos].1 = new_w,
                    Err(pos) => {
                        let term = vocab.intern(key);
                        entry.packed.insert(pos, (term, new_w));
                        postings.link(term, id);
                    }
                }
            } else if old_w != 0.0 {
                dirty = true;
                entry.flat.vector.set(key.clone(), 0.0);
                if let Ok(pos) = entry.position(vocab, key) {
                    let (term, _) = entry.packed.remove(pos);
                    postings.unlink(term, id);
                }
            }
        }
        if dirty {
            entry.flat.norm = entry.flat.vector.norm();
        }
    }

    /// Drop the entry for `id` (profile removed from the store).
    pub fn remove(&mut self, id: u64) {
        self.unlink(id);
        self.entries.remove(&id);
    }

    fn unlink(&mut self, id: u64) {
        if let Some(old) = self.entries.get(&id) {
            for (term, _) in &old.packed {
                self.postings.unlink(*term, id);
            }
        }
    }

    /// Cached flat profile of `id`, if indexed.
    pub fn flat(&self, id: u64) -> Option<&FlatProfile> {
        self.entries.get(&id).map(|e| &e.flat)
    }

    /// Iterate `(consumer, flat profile)` in ascending id order.
    pub fn flats(&self) -> impl Iterator<Item = (u64, &FlatProfile)> {
        self.entries.iter().map(|(id, e)| (*id, &e.flat))
    }

    /// Consumers sharing at least one term with `target`, ascending,
    /// deduplicated — the only consumers that can score above zero.
    pub fn candidates(&self, target: &TermVector) -> Vec<u64> {
        let mut out = Vec::new();
        self.candidates_into(target, &mut out);
        out
    }

    /// [`ProfileIndex::candidates`] into a caller-owned scratch buffer:
    /// `out` is cleared, filled with the posting-list union, sorted and
    /// deduplicated. A reused buffer makes candidate generation
    /// allocation-free at steady state (`benches/query_hot_path.rs
    /// --assert-no-alloc` holds it to zero).
    pub fn candidates_into(&self, target: &TermVector, out: &mut Vec<u64>) {
        let terms = target.iter().filter_map(|(term, _)| self.vocab.get(term));
        self.postings.union_into(terms, out);
    }

    /// [`ProfileIndex::candidates_into`] for an indexed consumer, from
    /// its interned term ids (no string hashing); includes `id` itself.
    pub(crate) fn candidates_of(&self, id: u64, out: &mut Vec<u64>) {
        let terms = self.entries.get(&id).into_iter().flat_map(|e| &e.packed);
        self.postings.union_into(terms.map(|(t, _)| *t), out);
    }

    /// Number of indexed consumers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no consumer is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct indexed terms (non-empty posting lists).
    pub fn term_count(&self) -> usize {
        self.postings.lists.iter().filter(|l| !l.is_empty()).count()
    }

    /// The similarity kernel: score every id in `scratch.candidates`
    /// against consumer `target` under `config` and return the best `k`
    /// strictly above [`SimilarityConfig::neighbour_floor`], best first
    /// (score desc, id asc). The exact path (posting-list or full-scan
    /// candidates) and the ANN re-rank (LSH candidates) both score here.
    ///
    /// The target is scattered once into a dense slot table (term id →
    /// 1 + position in the target's term order); each candidate's packed
    /// pairs are walked in term-string order and looked up there. The
    /// shared terms thus reach the one [`Overlap`] measure in exactly
    /// the order [`crate::similarity::vector_similarity`] visits them,
    /// so every score is bitwise identical to the reference (summing in
    /// term-id order would not be). A warm sequential call allocates
    /// only its result.
    pub(crate) fn top_neighbours(
        &self,
        target: u64,
        config: &SimilarityConfig,
        k: usize,
        scratch: &mut KernelScratch,
    ) -> Vec<(ConsumerId, f64)> {
        let Some(target) = self.entries.get(&target) else {
            return Vec::new();
        };
        let KernelScratch {
            candidates,
            slots,
            overlap,
            top,
        } = scratch;
        if slots.len() < self.vocab.len() {
            slots.resize(self.vocab.len(), 0);
        }
        for (pos, (term, _)) in target.packed.iter().enumerate() {
            slots[*term as usize] = pos as u32 + 1;
        }
        let kernel = Kernel {
            index: self,
            target,
            slots,
            config,
        };
        top.start(k);
        kernel.score_all(candidates, overlap, top);
        for (term, _) in &target.packed {
            slots[*term as usize] = 0;
        }
        top.take()
    }
}

/// Reusable scratch of [`ProfileIndex::top_neighbours`]: the candidate
/// ids of the current query, the target's slot table, one pair's shared
/// terms and the top-k heap. The store keeps one behind a mutex so
/// steady-state queries do not allocate for any of them.
#[derive(Debug, Default)]
pub(crate) struct KernelScratch {
    /// Candidate ids to score (filled by the caller).
    pub(crate) candidates: Vec<u64>,
    /// Term id → 1 + position in the target's term order; 0 = absent.
    /// All zero between queries.
    slots: Vec<u32>,
    overlap: Overlap,
    top: TopK,
}

/// Candidates are scored in blocks of this many consumers under the
/// `parallel` feature; blocks fan out across cores and their results
/// merge in block order.
#[cfg(feature = "parallel")]
const KERNEL_BLOCK: usize = 64;

/// Fewer candidates than this are scored on the calling thread.
#[cfg(feature = "parallel")]
const PARALLEL_MIN_CANDIDATES: usize = 4 * KERNEL_BLOCK;

/// One query's read-only kernel state, shared by parallel blocks.
struct Kernel<'a> {
    index: &'a ProfileIndex,
    target: &'a Entry,
    slots: &'a [u32],
    config: &'a SimilarityConfig,
}

impl Kernel<'_> {
    /// Similarity of candidate `id` to the target if it is admitted
    /// (strictly above the neighbour floor).
    fn score(&self, id: u64, overlap: &mut Overlap) -> Option<f64> {
        let candidate = self.index.entries.get(&id)?;
        let target = &self.target.packed;
        overlap.clear();
        for (term, wb) in &candidate.packed {
            let slot = self.slots[*term as usize];
            if slot != 0 {
                overlap.push(target[slot as usize - 1].1, *wb, self.config);
            }
        }
        let (tn, cn) = (self.target.flat.norm, candidate.flat.norm);
        let s = overlap.score(
            target.len(),
            candidate.packed.len(),
            || tn * cn,
            self.config,
        );
        (s > self.config.neighbour_floor).then_some(s)
    }

    /// Offer every admitted candidate to `top`: on the calling thread,
    /// or under `parallel` for large candidate sets in blocks merged in
    /// block order (the result is the same either way).
    fn score_all(&self, candidates: &[u64], overlap: &mut Overlap, top: &mut TopK) {
        #[cfg(feature = "parallel")]
        if candidates.len() >= PARALLEL_MIN_CANDIDATES {
            let blocks: Vec<&[u64]> = candidates.chunks(KERNEL_BLOCK).collect();
            let scored = par_map(&blocks, |block| {
                let mut overlap = Overlap::default();
                block
                    .iter()
                    .filter_map(|id| Some((*id, self.score(*id, &mut overlap)?)))
                    .collect::<Vec<_>>()
            });
            for (id, score) in scored.into_iter().flatten() {
                top.offer(id, score);
            }
            return;
        }
        for id in candidates {
            if let Some(score) = self.score(*id, overlap) {
                top.offer(*id, score);
            }
        }
    }
}

/// Default [`ItemSimCache`] capacity — pairs, not bytes. At ~40 bytes a
/// pair this bounds the cache near 2.5 MB.
pub const ITEM_SIM_CACHE_CAPACITY: usize = 65_536;

/// Memoized item–item cosine similarities, keyed by
/// `(min(a, b), max(a, b), min_overlap)` — [`crate::itemcf::item_cosine`]
/// is symmetric, bitwise — valid only for one ratings-matrix version and
/// bounded in size: when a generation outgrows `capacity`, the oldest
/// inserted pairs are evicted FIFO. Evictions are tagged by cause —
/// `invalidated` (version roll dropped a still-fresh generation) vs
/// `capacity_evicted` (the bound pushed out live entries) — so telemetry
/// can tell "the matrix churns" from "the cache is too small".
#[derive(Debug, Clone)]
pub struct ItemSimCache {
    version: u64,
    sims: HashMap<(u64, u64, usize), Option<f64>>,
    /// Insertion order of the current generation, for FIFO eviction.
    order: VecDeque<(u64, u64, usize)>,
    capacity: usize,
    hits: u64,
    misses: u64,
    invalidated: u64,
    capacity_evicted: u64,
}

impl Default for ItemSimCache {
    fn default() -> Self {
        ItemSimCache {
            version: 0,
            sims: HashMap::new(),
            order: VecDeque::new(),
            capacity: ITEM_SIM_CACHE_CAPACITY,
            hits: 0,
            misses: 0,
            invalidated: 0,
            capacity_evicted: 0,
        }
    }
}

impl ItemSimCache {
    /// Cached similarity for `key`, if computed at `version`. A version
    /// mismatch clears the cache (the ratings matrix changed). Hit/miss
    /// tallies feed the telemetry registry's cache-effectiveness gauges.
    pub fn lookup(&mut self, version: u64, key: (u64, u64, usize)) -> Option<Option<f64>> {
        self.roll(version);
        let found = self.sims.get(&key).copied();
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    /// Lifetime `(hits, misses)` of [`ItemSimCache::lookup`]. Survives
    /// version rolls: effectiveness is a property of the workload, not of
    /// one matrix generation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Lifetime `(invalidated, capacity_evicted)` eviction tallies:
    /// entries dropped because their ratings-matrix generation rolled vs
    /// entries pushed out of a live generation by the capacity bound.
    pub fn eviction_stats(&self) -> (u64, u64) {
        (self.invalidated, self.capacity_evicted)
    }

    /// Change the capacity bound (pairs). Shrinking below the current
    /// population evicts FIFO immediately.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        self.enforce_capacity();
    }

    /// Record a computed similarity at `version`.
    pub fn insert(&mut self, version: u64, key: (u64, u64, usize), sim: Option<f64>) {
        self.roll(version);
        if self.sims.insert(key, sim).is_none() {
            self.order.push_back(key);
            self.enforce_capacity();
        }
    }

    fn enforce_capacity(&mut self) {
        while self.sims.len() > self.capacity {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            if self.sims.remove(&oldest).is_some() {
                self.capacity_evicted += 1;
            }
        }
    }

    fn roll(&mut self, version: u64) {
        if self.version != version {
            self.invalidated += self.sims.len() as u64;
            self.sims.clear();
            self.order.clear();
            self.version = version;
        }
    }

    /// Number of cached pairs (for tests and diagnostics).
    pub fn len(&self) -> usize {
        self.sims.len()
    }

    /// Whether the cache holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.sims.is_empty()
    }
}

/// One scored candidate during top-k selection. `Ord` is "better":
/// greater means higher score, ties broken towards the *smaller* id —
/// exactly the reference comparator
/// `sort_by(score desc, id asc)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RankEntry {
    pub id: u64,
    pub score: f64,
}

impl Ord for RankEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for RankEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for RankEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for RankEntry {}

/// Bounded best-k selector under the reference ordering
/// `sort_by(score desc, id asc); truncate(k)`: a min-heap of the `k`
/// best offered so far instead of a full sort. Output is identical to
/// the reference because the ordering is total over unique ids. The
/// heap's buffer is kept across queries.
#[derive(Debug, Default)]
pub(crate) struct TopK {
    k: usize,
    heap: BinaryHeap<Reverse<RankEntry>>,
}

impl TopK {
    /// Begin a selection of the best `k`.
    pub(crate) fn start(&mut self, k: usize) {
        self.k = k;
        self.heap.clear();
    }

    /// Consider one scored candidate.
    pub(crate) fn offer(&mut self, id: u64, score: f64) {
        let entry = RankEntry { id, score };
        if self.heap.len() < self.k {
            self.heap.push(Reverse(entry));
        } else if let Some(Reverse(worst)) = self.heap.peek() {
            if entry > *worst {
                self.heap.pop();
                self.heap.push(Reverse(entry));
            }
        }
    }

    /// The selection, best first; leaves the selector empty.
    pub(crate) fn take(&mut self) -> Vec<(ConsumerId, f64)> {
        let mut best: Vec<RankEntry> = self.heap.drain().map(|Reverse(e)| e).collect();
        best.sort_unstable_by(|a, b| b.cmp(a));
        best.into_iter()
            .map(|e| (ConsumerId(e.id), e.score))
            .collect()
    }
}

/// Map `f` over `items` on all available cores, preserving order — the
/// result is element-for-element identical to `items.iter().map(f)`.
/// Chunks are scored independently and concatenated in chunk order, so
/// the merge is deterministic.
#[cfg(feature = "parallel")]
pub(crate) fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if threads <= 1 || items.len() < 2 {
        return items.iter().map(&f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| scope.spawn(|| part.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for handle in handles {
            out.extend(handle.join().expect("par_map worker panicked"));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(pairs: &[(&str, &str, &str, f64)]) -> Profile {
        let mut p = Profile::new();
        for (cat, sub, term, w) in pairs {
            p.category_mut(cat).sub_mut(sub).set(*term, *w);
        }
        p
    }

    #[test]
    fn update_replaces_old_postings() {
        let mut index = ProfileIndex::new();
        index.update(1, &profile(&[("books", "prog", "rust", 1.0)]));
        assert_eq!(
            index.candidates(&index.flat(1).unwrap().vector.clone()),
            vec![1]
        );
        // profile drifts to a different term: the old posting must vanish
        index.update(1, &profile(&[("music", "jazz", "sax", 1.0)]));
        let old_term = TermVector::from_pairs([("books/prog/rust", 1.0)]);
        assert!(index.candidates(&old_term).is_empty());
        let new_term = TermVector::from_pairs([("music/jazz/sax", 1.0)]);
        assert_eq!(index.candidates(&new_term), vec![1]);
        assert_eq!(index.term_count(), 1);
    }

    #[test]
    fn remove_unlinks_everything() {
        let mut index = ProfileIndex::new();
        index.update(1, &profile(&[("books", "prog", "rust", 1.0)]));
        index.update(2, &profile(&[("books", "prog", "rust", 1.0)]));
        index.remove(1);
        assert!(index.flat(1).is_none());
        let term = TermVector::from_pairs([("books/prog/rust", 1.0)]);
        assert_eq!(index.candidates(&term), vec![2]);
        index.remove(2);
        assert!(index.is_empty());
        assert_eq!(index.term_count(), 0);
    }

    #[test]
    fn candidates_union_is_sorted_and_deduplicated() {
        let mut index = ProfileIndex::new();
        index.update(3, &profile(&[("b", "p", "x", 1.0), ("b", "p", "y", 1.0)]));
        index.update(1, &profile(&[("b", "p", "x", 1.0)]));
        index.update(2, &profile(&[("b", "p", "y", 1.0)]));
        let target = TermVector::from_pairs([("b/p/x", 1.0), ("b/p/y", 1.0)]);
        assert_eq!(index.candidates(&target), vec![1, 2, 3]);
    }

    #[test]
    fn flat_norm_matches_fresh_computation() {
        let p = profile(&[
            ("books", "prog", "rust", 2.0),
            ("music", "jazz", "sax", 0.5),
        ]);
        let flat = FlatProfile::of(&p);
        assert_eq!(flat.vector, p.flatten());
        assert_eq!(flat.norm.to_bits(), p.flatten().norm().to_bits());
    }

    #[test]
    fn top_k_matches_reference_sort() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..50 {
            let n = rng.gen_range(0..40usize);
            let scored: Vec<(u64, f64)> = (0..n)
                .map(|i| (i as u64, (rng.gen_range(0..5u32) as f64) / 4.0))
                .collect();
            for k in [0usize, 1, 3, 10, 100] {
                let mut reference = scored.clone();
                reference.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .unwrap_or(Ordering::Equal)
                        .then(a.0.cmp(&b.0))
                });
                reference.truncate(k);
                let mut top = TopK::default();
                top.start(k);
                for (id, score) in &scored {
                    top.offer(*id, *score);
                }
                let picked: Vec<(u64, f64)> =
                    top.take().into_iter().map(|(c, s)| (c.0, s)).collect();
                assert_eq!(picked, reference);
            }
        }
    }

    #[test]
    fn item_sim_cache_invalidates_on_version_change() {
        let mut cache = ItemSimCache::default();
        cache.insert(1, (1, 2, 2), Some(0.5));
        assert_eq!(cache.lookup(1, (1, 2, 2)), Some(Some(0.5)));
        // same version, unknown key
        assert_eq!(cache.lookup(1, (1, 3, 2)), None);
        // version moves on: everything is stale
        assert_eq!(cache.lookup(2, (1, 2, 2)), None);
        assert!(cache.is_empty());
        assert_eq!(cache.eviction_stats(), (1, 0));
    }

    #[test]
    fn item_sim_cache_capacity_evicts_fifo_and_tags_cause() {
        let mut cache = ItemSimCache::default();
        cache.set_capacity(2);
        cache.insert(1, (1, 2, 2), Some(0.1));
        cache.insert(1, (1, 3, 2), Some(0.2));
        cache.insert(1, (1, 4, 2), Some(0.3));
        // oldest pair went out by capacity, not invalidation
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(1, (1, 2, 2)), None);
        assert_eq!(cache.lookup(1, (1, 3, 2)), Some(Some(0.2)));
        assert_eq!(cache.eviction_stats(), (0, 1));
        // overwriting a live key must not double-count it in the order
        cache.insert(1, (1, 3, 2), Some(0.25));
        assert_eq!(cache.len(), 2);
        // a version roll tags the survivors as invalidated
        assert_eq!(cache.lookup(2, (1, 3, 2)), None);
        assert_eq!(cache.eviction_stats(), (2, 1));
    }

    #[test]
    fn candidates_into_reuses_buffer_and_matches_allocating_path() {
        let mut index = ProfileIndex::new();
        index.update(3, &profile(&[("b", "p", "x", 1.0), ("b", "p", "y", 1.0)]));
        index.update(1, &profile(&[("b", "p", "x", 1.0)]));
        index.update(2, &profile(&[("b", "p", "y", 1.0)]));
        let target = TermVector::from_pairs([("b/p/x", 1.0), ("b/p/y", 1.0)]);
        let mut scratch = vec![99, 98, 97];
        index.candidates_into(&target, &mut scratch);
        assert_eq!(scratch, index.candidates(&target));
        assert_eq!(scratch, vec![1, 2, 3]);
        // the buffer is reused, not reallocated, once warm
        let cap = scratch.capacity();
        index.candidates_into(&target, &mut scratch);
        assert_eq!(scratch.capacity(), cap);
    }

    #[test]
    fn apply_delta_tracks_full_update() {
        use crate::learning::ProfileDelta;
        let mut incremental = ProfileIndex::new();
        let mut full = ProfileIndex::new();
        let start = profile(&[("b", "p", "x", 1.0), ("b", "p", "y", 0.5)]);
        incremental.update(7, &start);
        full.update(7, &start);
        // drift: y strengthens, x vanishes, z appears
        let mut next = profile(&[("b", "p", "y", 0.9), ("b", "p", "z", 0.4)]);
        next.category_mut("b").terms.set("seed", 0.2);
        let delta = ProfileDelta::from_pairs([
            ("b/p/x".to_string(), 0.0),
            ("b/p/y".to_string(), 0.9),
            ("b/p/z".to_string(), 0.4),
            ("b//seed".to_string(), 0.2),
        ]);
        incremental.apply_delta(7, &delta);
        full.update(7, &next);
        let (a, b) = (incremental.flat(7).unwrap(), full.flat(7).unwrap());
        assert_eq!(a.vector, b.vector);
        assert_eq!(a.norm.to_bits(), b.norm.to_bits());
        assert_eq!(incremental.term_count(), full.term_count());
        let probe = TermVector::from_pairs([("b/p/x", 1.0)]);
        assert!(incremental.candidates(&probe).is_empty());
        let probe = TermVector::from_pairs([("b/p/z", 1.0)]);
        assert_eq!(incremental.candidates(&probe), vec![7]);
        // packed mirror stayed in sync, in term-string order
        let live = &incremental.entries[&7];
        let terms: Vec<&str> = live
            .packed
            .iter()
            .map(|(t, _)| incremental.vocab.term(*t))
            .collect();
        assert_eq!(terms, vec!["b//seed", "b/p/y", "b/p/z"]);
        let weights: Vec<f64> = live.packed.iter().map(|(_, w)| *w).collect();
        assert_eq!(weights, vec![0.2, 0.9, 0.4]);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        assert_eq!(par_map(&items, |x| x * 3 + 1), seq);
        let empty: Vec<u64> = Vec::new();
        assert!(par_map(&empty, |x| *x).is_empty());
    }
}
