//! The recommendation mechanism's working data: profiles, ratings,
//! catalog knowledge and sales — an in-memory view of UserDB.
//!
//! Every consumer behaviour flows through [`RecommendStore::record_event`],
//! which simultaneously (a) updates the consumer profile by the Fig 4.5
//! rule, (b) files an observational rating for CF, and (c) maintains the
//! sales ledger and purchase baskets used by the top-seller baseline and
//! the tied-sale extension.

use crate::ann::LshIndex;
use crate::index::{FlatProfile, ItemSimCache, KernelScratch, ProfileIndex};
use crate::learning::{BehaviorEvent, BehaviorKind, LearnerConfig, ProfileLearner};
use crate::profile::{ConsumerId, Profile};
use crate::ratings::RatingsMatrix;
use crate::similarity::SimilarityConfig;
use ecp::merchandise::{Catalog, ItemId, Merchandise};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Aggregated mechanism state the recommenders read.
///
/// Alongside the primary data the store maintains two derived
/// structures (see [`crate::index`]): a [`ProfileIndex`] kept in lock
/// step with `profiles` by every mutating method, and an [`ItemSimCache`]
/// memoizing item–item cosines per ratings-matrix version. Neither is
/// serialized — deserialization rebuilds the index from the profiles and
/// starts with a cold cache, so round-tripping a store preserves every
/// query answer.
#[derive(Debug, Default)]
pub struct RecommendStore {
    /// Profile learner applied on every event.
    pub learner: ProfileLearner,
    profiles: BTreeMap<u64, Profile>,
    ratings: RatingsMatrix,
    catalog: Catalog,
    sales: BTreeMap<u64, u32>,
    purchased: BTreeMap<u64, BTreeSet<u64>>,
    baskets: Vec<Vec<u64>>,
    index: ProfileIndex,
    item_sims: Mutex<ItemSimCache>,
    /// Lazily built LSH index for [`SimilarityConfig::ann`] queries,
    /// kept in lock step with `index` by the incremental update paths
    /// and invalidated (rebuilt on next ANN query) by wholesale ones.
    ann: Mutex<Option<LshIndex>>,
    /// Reusable similarity-kernel scratch (candidate ids, slot table,
    /// shared pairs, top-k heap) so steady-state neighbour queries
    /// allocate only their result.
    query_scratch: Mutex<KernelScratch>,
}

impl Clone for RecommendStore {
    fn clone(&self) -> Self {
        RecommendStore {
            learner: self.learner,
            profiles: self.profiles.clone(),
            ratings: self.ratings.clone(),
            catalog: self.catalog.clone(),
            sales: self.sales.clone(),
            purchased: self.purchased.clone(),
            baskets: self.baskets.clone(),
            index: self.index.clone(),
            item_sims: Mutex::new(self.item_sims.lock().clone()),
            ann: Mutex::new(self.ann.lock().clone()),
            query_scratch: Mutex::new(KernelScratch::default()),
        }
    }
}

// Manual serde impls: the JSON shape is exactly what the old derive
// produced for the seven data fields (PA snapshots embed this store), and
// the derived structures stay out of the payload.
impl Serialize for RecommendStore {
    fn serialize_value(&self) -> serde::value::Value {
        let mut m = serde::value::Map::new();
        m.insert("learner".to_string(), self.learner.serialize_value());
        m.insert("profiles".to_string(), self.profiles.serialize_value());
        m.insert("ratings".to_string(), self.ratings.serialize_value());
        m.insert("catalog".to_string(), self.catalog.serialize_value());
        m.insert("sales".to_string(), self.sales.serialize_value());
        m.insert("purchased".to_string(), self.purchased.serialize_value());
        m.insert("baskets".to_string(), self.baskets.serialize_value());
        serde::value::Value::Object(m)
    }
}

impl Deserialize for RecommendStore {
    fn deserialize_value(v: &serde::value::Value) -> Result<Self, serde::Error> {
        let m = serde::__expect_object(v, "RecommendStore")?;
        let profiles: BTreeMap<u64, Profile> = serde::__get_field(m, "RecommendStore", "profiles")?;
        let index = ProfileIndex::rebuild(profiles.iter().map(|(id, p)| (*id, p)));
        Ok(RecommendStore {
            learner: serde::__get_field(m, "RecommendStore", "learner")?,
            ratings: serde::__get_field(m, "RecommendStore", "ratings")?,
            catalog: serde::__get_field(m, "RecommendStore", "catalog")?,
            sales: serde::__get_field(m, "RecommendStore", "sales")?,
            purchased: serde::__get_field(m, "RecommendStore", "purchased")?,
            baskets: serde::__get_field(m, "RecommendStore", "baskets")?,
            profiles,
            index,
            item_sims: Mutex::new(ItemSimCache::default()),
            ann: Mutex::new(None),
            query_scratch: Mutex::new(KernelScratch::default()),
        })
    }
}

impl RecommendStore {
    /// Empty store with default learner configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty store with an explicit learner configuration.
    pub fn with_learner(config: LearnerConfig) -> Self {
        RecommendStore {
            learner: ProfileLearner::new(config),
            ..Self::default()
        }
    }

    /// Make an item known to the mechanism (from marketplace offers or
    /// seller catalogs).
    pub fn upsert_item(&mut self, item: Merchandise) {
        self.catalog.add(item);
    }

    /// Known catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Record one behaviour event against a known item: updates profile,
    /// ratings, and (for purchases and auction wins) the sales ledger.
    pub fn record_event(&mut self, consumer: ConsumerId, item: ItemId, kind: BehaviorKind) {
        let Some(merch) = self.catalog.get(item).cloned() else {
            return;
        };
        let event = BehaviorEvent::new(kind, merch.category, merch.terms);
        let profile = self.profiles.entry(consumer.0).or_default();
        // incremental path: the Fig 4.5 update reports its flat-index
        // footprint and only those entries are touched — no re-flatten,
        // cost O(changed terms) regardless of profile size
        let delta = self.learner.apply_indexed(profile, &event);
        self.index.apply_delta(consumer.0, &delta);
        if !delta.is_empty() {
            if let Some(lsh) = self.ann.get_mut().as_mut() {
                if let Some(flat) = self.index.flat(consumer.0) {
                    lsh.update(consumer.0, &flat.vector);
                }
            }
        }
        self.ratings.observe_behavior(consumer, item, kind);
        if matches!(kind, BehaviorKind::Purchase | BehaviorKind::AuctionWin) {
            *self.sales.entry(item.0).or_insert(0) += 1;
            self.purchased.entry(consumer.0).or_default().insert(item.0);
        }
    }

    /// Record a multi-item checkout basket (drives tied-sale mining).
    pub fn record_basket(&mut self, consumer: ConsumerId, items: &[ItemId]) {
        for item in items {
            self.record_event(consumer, *item, BehaviorKind::Purchase);
        }
        if items.len() > 1 {
            self.baskets.push(items.iter().map(|i| i.0).collect());
        }
    }

    /// Profile of `consumer`, if any behaviour was recorded.
    pub fn profile(&self, consumer: ConsumerId) -> Option<&Profile> {
        self.profiles.get(&consumer.0)
    }

    /// Insert or replace a profile wholesale (used when loading from
    /// UserDB).
    pub fn put_profile(&mut self, consumer: ConsumerId, profile: Profile) {
        self.index.update(consumer.0, &profile);
        if let Some(lsh) = self.ann.get_mut().as_mut() {
            if let Some(flat) = self.index.flat(consumer.0) {
                lsh.update(consumer.0, &flat.vector);
            }
        }
        self.profiles.insert(consumer.0, profile);
    }

    /// Iterate `(consumer, profile)`.
    pub fn profiles(&self) -> impl Iterator<Item = (ConsumerId, &Profile)> {
        self.profiles.iter().map(|(c, p)| (ConsumerId(*c), p))
    }

    /// Number of consumers with profiles.
    pub fn consumer_count(&self) -> usize {
        self.profiles.len()
    }

    /// The observational ratings matrix.
    pub fn ratings(&self) -> &RatingsMatrix {
        &self.ratings
    }

    /// Units sold of `item` (purchases + auction wins).
    pub fn units_sold(&self, item: ItemId) -> u32 {
        self.sales.get(&item.0).copied().unwrap_or(0)
    }

    /// Items `consumer` has purchased.
    pub fn purchased_by(&self, consumer: ConsumerId) -> BTreeSet<ItemId> {
        self.purchased
            .get(&consumer.0)
            .map(|s| s.iter().map(|i| ItemId(*i)).collect())
            .unwrap_or_default()
    }

    /// Best sellers as `(item, units)`, best first.
    pub fn top_sellers(&self, k: usize) -> Vec<(ItemId, u32)> {
        let mut ranked: Vec<(ItemId, u32)> =
            self.sales.iter().map(|(i, n)| (ItemId(*i), *n)).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }

    /// Recorded multi-item baskets (for association mining).
    pub fn baskets(&self) -> impl Iterator<Item = Vec<ItemId>> + '_ {
        self.baskets
            .iter()
            .map(|b| b.iter().map(|i| ItemId(*i)).collect())
    }

    /// Decay every profile's interest by `factor` and compact to the
    /// learner's term budget — the PA's periodic maintenance pass
    /// (drifting interests fade; empty profiles disappear).
    pub fn decay_all_profiles(&mut self, factor: f64) {
        let max_terms = self.learner.config.max_terms;
        for profile in self.profiles.values_mut() {
            for (_, cp) in profile.iter_mut_categories() {
                cp.terms.scale(factor);
                for v in cp.subs.values_mut() {
                    v.scale(factor);
                }
            }
            profile.compact(max_terms);
        }
        self.profiles.retain(|_, p| !p.is_empty());
        // every profile changed: rebuilding wholesale costs the same as
        // touching each entry and leaves no stale postings behind
        self.index = ProfileIndex::rebuild(self.profiles.iter().map(|(id, p)| (*id, p)));
        // every signature is stale too — rebuilt lazily on the next ANN
        // query
        *self.ann.get_mut() = None;
    }

    /// The query-serving profile index (flat-profile cache + posting
    /// lists), maintained in lock step with the profiles.
    pub fn profile_index(&self) -> &ProfileIndex {
        &self.index
    }

    /// Cached flattened profile (vector + norm) of `consumer`, if any.
    pub fn flat_profile(&self, consumer: ConsumerId) -> Option<&FlatProfile> {
        self.index.flat(consumer.0)
    }

    /// The `k` consumers most similar to `consumer`, best first —
    /// identical output, bit for bit, to running
    /// [`crate::similarity::nearest_neighbours`] over
    /// [`Self::profiles`] minus the consumer themself, but served from
    /// the index: only consumers sharing at least one flattened term
    /// with the target are scored (lossless, because zero-overlap pairs
    /// score exactly `0.0` under every method and the default
    /// `neighbour_floor` of `0.0` filters them), scoring runs on the
    /// interned packed vectors and cached norms (see
    /// [`ProfileIndex`]'s kernel), and the ranking uses a bounded top-k
    /// heap instead of a full sort. A negative
    /// [`SimilarityConfig::neighbour_floor`] admits zero-similarity
    /// candidates, so pruning would be lossy — that case scores every
    /// indexed consumer. With [`SimilarityConfig::ann`] set the
    /// candidates come from the LSH buckets instead; the same kernel
    /// scores them.
    pub fn nearest_neighbours(
        &self,
        consumer: ConsumerId,
        config: &SimilarityConfig,
        k: usize,
    ) -> Vec<(ConsumerId, f64)> {
        let Some(target) = self.index.flat(consumer.0) else {
            return Vec::new();
        };
        let mut scratch = self.query_scratch.lock();
        let candidates = &mut scratch.candidates;
        if config.neighbour_floor < 0.0 {
            // pruning (posting-list or LSH) is lossy here: score everyone
            candidates.clear();
            candidates.extend(self.index.flats().map(|(id, _)| id));
        } else if let Some(ann_cfg) = config.ann {
            self.with_ann(&ann_cfg, |lsh| {
                lsh.candidates(&target.vector, ann_cfg.probes, candidates);
            });
        } else {
            self.index.candidates_of(consumer.0, candidates);
        }
        candidates.retain(|id| *id != consumer.0);
        self.index
            .top_neighbours(consumer.0, config, k, &mut scratch)
    }

    /// Run `f` against the LSH index for `cfg`, building (or rebuilding,
    /// if the last build used different parameters) it from the flat
    /// cache first if needed.
    fn with_ann<R>(&self, cfg: &crate::ann::AnnConfig, f: impl FnOnce(&LshIndex) -> R) -> R {
        let mut guard = self.ann.lock();
        let stale = !guard.as_ref().is_some_and(|lsh| lsh.matches(cfg));
        if stale {
            let mut lsh = LshIndex::new(*cfg);
            for (id, flat) in self.index.flats() {
                lsh.update(id, &flat.vector);
            }
            *guard = Some(lsh);
        }
        f(guard.as_ref().expect("ANN index just ensured"))
    }

    /// Pre-build the LSH index for `config` (if `config.ann` is set) so
    /// the first query doesn't pay the build — benches and batch jobs.
    pub fn warm_ann(&self, config: &SimilarityConfig) {
        if let Some(ann_cfg) = config.ann {
            self.with_ann(&ann_cfg, |_| ());
        }
    }

    /// Reference full-scan neighbour search (flattens every profile per
    /// call). Kept for equivalence tests and benchmarks; prefer
    /// [`Self::nearest_neighbours`].
    pub fn nearest_neighbours_naive(
        &self,
        consumer: ConsumerId,
        config: &SimilarityConfig,
        k: usize,
    ) -> Vec<(ConsumerId, f64)> {
        let Some(profile) = self.profile(consumer) else {
            return Vec::new();
        };
        crate::similarity::nearest_neighbours(
            profile,
            self.profiles().filter(|(id, _)| *id != consumer),
            config,
            k,
        )
    }

    /// [`crate::itemcf::item_cosine`] served through the store's
    /// memoized cache. The cache key is the unordered item pair plus
    /// `min_overlap` (the cosine is symmetric), and the whole cache is
    /// dropped whenever the ratings matrix version moves — so the answer
    /// is always identical to recomputing from scratch.
    pub fn item_cosine_cached(&self, a: ItemId, b: ItemId, min_overlap: usize) -> Option<f64> {
        let key = (a.0.min(b.0), a.0.max(b.0), min_overlap);
        let version = self.ratings.version();
        let mut cache = self.item_sims.lock();
        if let Some(hit) = cache.lookup(version, key) {
            return hit;
        }
        let sim = crate::itemcf::item_cosine(&self.ratings, a, b, min_overlap);
        cache.insert(version, key, sim);
        sim
    }

    /// Number of item pairs currently memoized (tests and diagnostics).
    pub fn item_sim_cache_len(&self) -> usize {
        self.item_sims.lock().len()
    }

    /// Lifetime `(hits, misses)` of the item-similarity cache.
    pub fn item_sim_cache_stats(&self) -> (u64, u64) {
        self.item_sims.lock().stats()
    }

    /// Lifetime `(invalidated, capacity_evicted)` of the item-similarity
    /// cache — see [`ItemSimCache::eviction_stats`].
    pub fn item_sim_eviction_stats(&self) -> (u64, u64) {
        self.item_sims.lock().eviction_stats()
    }

    /// Bound the item-similarity cache to `capacity` pairs.
    pub fn set_item_sim_cache_capacity(&self, capacity: usize) {
        self.item_sims.lock().set_capacity(capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecp::merchandise::{CategoryPath, Money};
    use ecp::terms::TermVector;

    fn merch(id: u64, name: &str) -> Merchandise {
        Merchandise {
            id: ItemId(id),
            name: name.into(),
            category: CategoryPath::new("books", "programming"),
            terms: TermVector::from_pairs([(name.to_lowercase(), 1.0)]),
            list_price: Money::from_units(10),
            seller: 1,
        }
    }

    fn store_with_items(n: u64) -> RecommendStore {
        let mut s = RecommendStore::new();
        for id in 1..=n {
            s.upsert_item(merch(id, &format!("item{id}")));
        }
        s
    }

    #[test]
    fn record_event_touches_profile_ratings_and_sales() {
        let mut s = store_with_items(2);
        s.record_event(ConsumerId(1), ItemId(1), BehaviorKind::Purchase);
        assert!(s.profile(ConsumerId(1)).unwrap().total_interest() > 0.0);
        assert_eq!(s.ratings().rating(ConsumerId(1), ItemId(1)), Some(1.0));
        assert_eq!(s.units_sold(ItemId(1)), 1);
        assert!(s.purchased_by(ConsumerId(1)).contains(&ItemId(1)));
    }

    #[test]
    fn query_events_do_not_count_as_sales() {
        let mut s = store_with_items(1);
        s.record_event(ConsumerId(1), ItemId(1), BehaviorKind::Query);
        assert_eq!(s.units_sold(ItemId(1)), 0);
        assert!(s.purchased_by(ConsumerId(1)).is_empty());
        assert!(s.ratings().rating(ConsumerId(1), ItemId(1)).is_some());
    }

    #[test]
    fn unknown_item_events_are_ignored() {
        let mut s = store_with_items(1);
        s.record_event(ConsumerId(1), ItemId(99), BehaviorKind::Purchase);
        assert!(s.profile(ConsumerId(1)).is_none());
        assert_eq!(s.ratings().len(), 0);
    }

    #[test]
    fn top_sellers_rank_by_units() {
        let mut s = store_with_items(3);
        for _ in 0..3 {
            s.record_event(ConsumerId(1), ItemId(2), BehaviorKind::Purchase);
        }
        s.record_event(ConsumerId(1), ItemId(1), BehaviorKind::Purchase);
        let top = s.top_sellers(2);
        assert_eq!(top[0].0, ItemId(2));
        assert_eq!(top[0].1, 3);
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn baskets_record_only_multi_item_checkouts() {
        let mut s = store_with_items(3);
        s.record_basket(ConsumerId(1), &[ItemId(1)]);
        s.record_basket(ConsumerId(1), &[ItemId(2), ItemId(3)]);
        let baskets: Vec<Vec<ItemId>> = s.baskets().collect();
        assert_eq!(baskets.len(), 1);
        assert_eq!(baskets[0], vec![ItemId(2), ItemId(3)]);
        // all items still counted as purchases
        assert_eq!(s.units_sold(ItemId(1)), 1);
        assert_eq!(s.units_sold(ItemId(2)), 1);
    }

    #[test]
    fn put_profile_round_trips() {
        let mut s = RecommendStore::new();
        let mut p = Profile::new();
        p.category_mut("books").terms.set("x", 1.0);
        s.put_profile(ConsumerId(9), p.clone());
        assert_eq!(s.profile(ConsumerId(9)), Some(&p));
        assert_eq!(s.consumer_count(), 1);
        assert_eq!(s.profiles().count(), 1);
    }

    /// The incrementally maintained index must always equal a from-scratch
    /// rebuild of the current profiles.
    fn assert_index_fresh(s: &RecommendStore) {
        let rebuilt = crate::index::ProfileIndex::rebuild(s.profiles().map(|(c, p)| (c.0, p)));
        assert_eq!(s.profile_index().len(), rebuilt.len());
        assert_eq!(s.profile_index().term_count(), rebuilt.term_count());
        for (id, flat) in rebuilt.flats() {
            let live = s.profile_index().flat(id).expect("indexed consumer");
            assert_eq!(live.vector, flat.vector);
            assert_eq!(live.norm.to_bits(), flat.norm.to_bits());
        }
    }

    #[test]
    fn index_tracks_every_mutation_path() {
        let mut s = store_with_items(3);
        assert_index_fresh(&s);
        s.record_event(ConsumerId(1), ItemId(1), BehaviorKind::Purchase);
        s.record_event(ConsumerId(2), ItemId(2), BehaviorKind::Browse);
        assert_index_fresh(&s);
        let mut p = Profile::new();
        p.category_mut("garden").sub_mut("tools").set("spade", 2.0);
        s.put_profile(ConsumerId(1), p);
        assert_index_fresh(&s);
        s.decay_all_profiles(1e-12); // decays everyone to (near) nothing
        assert_index_fresh(&s);
        assert_eq!(s.consumer_count(), 0);
        assert!(s.profile_index().is_empty());
    }

    #[test]
    fn indexed_neighbours_match_reference_scan() {
        let mut s = store_with_items(3);
        for u in 1..=6u64 {
            s.record_event(ConsumerId(u), ItemId(1 + u % 3), BehaviorKind::Purchase);
            s.record_event(ConsumerId(u), ItemId(1 + (u + 1) % 3), BehaviorKind::Browse);
        }
        let cfg = crate::similarity::SimilarityConfig::default();
        for u in 1..=6u64 {
            assert_eq!(
                s.nearest_neighbours(ConsumerId(u), &cfg, 3),
                s.nearest_neighbours_naive(ConsumerId(u), &cfg, 3),
            );
        }
        assert!(s.nearest_neighbours(ConsumerId(999), &cfg, 3).is_empty());
    }

    #[test]
    fn ann_neighbours_are_a_subset_of_exact_with_matching_scores() {
        use crate::ann::AnnConfig;
        let mut s = store_with_items(6);
        for u in 1..=40u64 {
            s.record_event(ConsumerId(u), ItemId(1 + u % 6), BehaviorKind::Purchase);
            s.record_event(ConsumerId(u), ItemId(1 + (u + 1) % 6), BehaviorKind::Browse);
            s.record_event(ConsumerId(u), ItemId(1 + (u + 3) % 6), BehaviorKind::Query);
        }
        // generous parameters: few bits, many probes ⇒ near-exhaustive
        let ann = crate::similarity::SimilarityConfig {
            ann: Some(AnnConfig {
                bits: 2,
                tables: 8,
                probes: 2,
                seed: 5,
            }),
            ..crate::similarity::SimilarityConfig::default()
        };
        let exact = crate::similarity::SimilarityConfig::default();
        for u in 1..=40u64 {
            let approx = s.nearest_neighbours(ConsumerId(u), &ann, 10);
            let full = s.nearest_neighbours(ConsumerId(u), &exact, 40);
            for (id, score) in &approx {
                let reference = full
                    .iter()
                    .find(|(fid, _)| fid == id)
                    .unwrap_or_else(|| panic!("ANN neighbour {id} not in exact scan"));
                assert_eq!(
                    reference.1.to_bits(),
                    score.to_bits(),
                    "re-rank score drifted for {id}: {} vs {}",
                    reference.1,
                    score
                );
            }
            // determinism: asking twice gives the same answer
            assert_eq!(approx, s.nearest_neighbours(ConsumerId(u), &ann, 10));
        }
        // mutations keep the LSH in lock step with the flat cache:
        // feedback after the index is built must be reflected
        s.record_event(ConsumerId(41), ItemId(1), BehaviorKind::Purchase);
        s.record_event(ConsumerId(42), ItemId(1), BehaviorKind::Purchase);
        let nn = s.nearest_neighbours(ConsumerId(41), &ann, 40);
        assert!(
            nn.iter().any(|(id, _)| *id == ConsumerId(42)),
            "freshly added twin consumer must be findable via ANN"
        );
    }

    #[test]
    fn item_cosine_cache_hits_and_invalidates() {
        let mut s = store_with_items(2);
        for u in 1..=4u64 {
            s.record_event(ConsumerId(u), ItemId(1), BehaviorKind::Purchase);
            s.record_event(ConsumerId(u), ItemId(2), BehaviorKind::Purchase);
        }
        let fresh = crate::itemcf::item_cosine(s.ratings(), ItemId(1), ItemId(2), 2);
        assert_eq!(s.item_cosine_cached(ItemId(1), ItemId(2), 2), fresh);
        assert_eq!(s.item_sim_cache_len(), 1);
        // symmetric argument order hits the same entry
        assert_eq!(s.item_cosine_cached(ItemId(2), ItemId(1), 2), fresh);
        assert_eq!(s.item_sim_cache_len(), 1);
        // a new observation moves the ratings version: cache must refill
        s.record_event(ConsumerId(9), ItemId(1), BehaviorKind::Query);
        let updated = crate::itemcf::item_cosine(s.ratings(), ItemId(1), ItemId(2), 2);
        assert_eq!(s.item_cosine_cached(ItemId(1), ItemId(2), 2), updated);
        assert_eq!(s.item_sim_cache_len(), 1);
        assert_ne!(fresh, updated, "norm of item 1 changed with the new rater");
    }

    #[test]
    fn serde_round_trip_rebuilds_the_index() {
        let mut s = store_with_items(3);
        s.record_event(ConsumerId(1), ItemId(1), BehaviorKind::Purchase);
        s.record_event(ConsumerId(2), ItemId(2), BehaviorKind::AuctionWin);
        s.item_cosine_cached(ItemId(1), ItemId(2), 1); // warm the cache
        let back: RecommendStore =
            serde_json::from_value(serde_json::to_value(&s).unwrap()).unwrap();
        assert_index_fresh(&back);
        assert_eq!(back.consumer_count(), s.consumer_count());
        assert_eq!(back.ratings(), s.ratings());
        assert_eq!(
            back.item_sim_cache_len(),
            0,
            "cache starts cold after deserialize"
        );
        let cfg = crate::similarity::SimilarityConfig::default();
        assert_eq!(
            back.nearest_neighbours(ConsumerId(1), &cfg, 5),
            s.nearest_neighbours(ConsumerId(1), &cfg, 5),
        );
    }
}
