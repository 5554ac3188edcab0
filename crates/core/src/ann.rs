//! Approximate nearest-neighbour search over flattened profiles — the
//! million-user query tier.
//!
//! The exact posting-list path of [`crate::index::ProfileIndex`] scores
//! every consumer sharing at least one term with the target; with broad
//! shared vocabulary that candidate set grows linearly with the
//! population, so at 10^5–10^6 consumers candidate *scoring* becomes the
//! hot path. This module trades a measured sliver of recall for
//! sublinear candidate generation:
//!
//! * [`AnnConfig`] — the `SimilarityConfig::ann` knob: random-hyperplane
//!   LSH with tunable signature width (`bits`), table count (`tables`)
//!   and multiprobe depth (`probes`). Hash seeds derive from the platform
//!   seed (see [`AnnConfig::resolve_seed`]), so the whole structure is a
//!   deterministic function of `(profiles, config)`.
//! * [`LshIndex`] — multi-table signature buckets over the flat-profile
//!   cache, maintained incrementally: a Fig 4.5 feedback delta re-hashes
//!   the consumer's signature from the already-maintained flat vector
//!   (no re-flatten) and moves the consumer only between the buckets
//!   whose signature actually changed.
//!
//! The LSH index only generates candidates. They are re-ranked by the
//! same similarity kernel the exact path uses
//! ([`crate::index::ProfileIndex`]'s packed kernel: discard threshold,
//! `min_overlap`, the configured method, the neighbour floor), so every
//! ANN score is bitwise equal to the exact scan's score for that
//! consumer and ANN results are always a subset of the exact scan's
//! admitted candidates — the index can only *miss* neighbours, never
//! invent them. `tests/ann.rs` and the property suite hold it to a
//! measured recall floor.

use ecp::terms::TermVector;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Fixed fallback hash seed used when neither the config nor a platform
/// seed supplies one (`seed == 0`).
const DEFAULT_ANN_SEED: u64 = 0xabc0_4a11_5eed_0001;

/// Configuration of the approximate neighbour index — the
/// [`crate::similarity::SimilarityConfig::ann`] knob. `None` keeps the
/// exact posting-list scan; `Some` routes `nearest_neighbours`/`recommend` through the LSH
/// index transparently (the exact path remains the test oracle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnnConfig {
    /// Hyperplanes per table = signature bits (1..=32). More bits ⇒
    /// smaller buckets ⇒ faster queries, lower recall per table.
    pub bits: u8,
    /// Number of independent hash tables. More tables ⇒ higher recall,
    /// proportionally more memory and per-update hashing.
    pub tables: u8,
    /// Extra buckets probed per table at query time (single-bit flips of
    /// the signature, least-confident bit first). More probes ⇒ higher
    /// recall without extra tables.
    pub probes: u8,
    /// Hyperplane hash seed. `0` means "derive": the platform builders
    /// replace it with a value derived from the platform seed, and
    /// stand-alone stores fall back to a fixed constant — either way the
    /// index is deterministic.
    pub seed: u64,
}

impl Default for AnnConfig {
    fn default() -> Self {
        AnnConfig {
            bits: 16,
            tables: 8,
            probes: 8,
            seed: 0,
        }
    }
}

impl AnnConfig {
    /// The effective hyperplane seed: the explicit seed, or the fixed
    /// fallback when unset.
    pub fn resolved_seed(&self) -> u64 {
        if self.seed == 0 {
            DEFAULT_ANN_SEED
        } else {
            self.seed
        }
    }

    /// Derive the hash seed from a platform seed when none was set
    /// explicitly — same platform seed, same buckets.
    pub fn resolve_seed(mut self, platform_seed: u64) -> Self {
        if self.seed == 0 {
            let derived = splitmix64(platform_seed ^ DEFAULT_ANN_SEED);
            self.seed = if derived == 0 {
                DEFAULT_ANN_SEED
            } else {
                derived
            };
        }
        self
    }

    fn bits(&self) -> u32 {
        u32::from(self.bits).clamp(1, 32)
    }

    fn tables(&self) -> usize {
        usize::from(self.tables).max(1)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over the term bytes, mixed with the index seed — one string
/// hash per term, from which every table's hyperplane signs derive.
fn term_hash(seed: u64, term: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in term.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// 64 hyperplane component signs for `(term, table)` — bit `b` set means
/// hyperplane `b` has a `+1` component for this term, clear means `-1`.
fn sign_word(th: u64, table: usize) -> u64 {
    splitmix64(th ^ (table as u64).wrapping_mul(0xd1b5_4a32_d192_ed03))
}

/// Random-hyperplane LSH over flattened profile vectors: per table, a
/// consumer lands in the bucket keyed by the sign pattern of its vector
/// projected on `bits` pseudo-random ±1 hyperplanes. Cosine-similar
/// vectors agree on most signs and collide in at least one table with
/// high probability.
#[derive(Debug, Clone)]
pub(crate) struct LshIndex {
    cfg: AnnConfig,
    /// Per-consumer signature, one `u32` per table.
    sigs: HashMap<u64, Box<[u32]>>,
    /// Per-table `signature → consumers` buckets (unordered members —
    /// every read path sorts + dedups the union).
    buckets: Vec<HashMap<u32, Vec<u64>>>,
}

impl LshIndex {
    pub(crate) fn new(cfg: AnnConfig) -> Self {
        LshIndex {
            buckets: (0..cfg.tables()).map(|_| HashMap::new()).collect(),
            sigs: HashMap::new(),
            cfg,
        }
    }

    /// Whether this index was built for exactly `cfg` (including the
    /// resolved seed) — a mismatch forces a rebuild.
    pub(crate) fn matches(&self, cfg: &AnnConfig) -> bool {
        self.cfg.bits == cfg.bits
            && self.cfg.tables == cfg.tables
            && self.cfg.resolved_seed() == cfg.resolved_seed()
    }

    /// Number of indexed consumers.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Projections of `vector` on every table's hyperplanes, in table ×
    /// bit order. Iterates the vector in term order, so the result — and
    /// therefore every signature — is a pure function of `(vector, cfg)`:
    /// an incrementally maintained vector hashes bit-identically to a
    /// rebuilt one.
    fn projections(&self, vector: &TermVector) -> Vec<f64> {
        let bits = self.cfg.bits() as usize;
        let tables = self.cfg.tables();
        let seed = self.cfg.resolved_seed();
        let mut proj = vec![0.0f64; tables * bits];
        for (term, w) in vector.iter() {
            let th = term_hash(seed, term);
            for t in 0..tables {
                let signs = sign_word(th, t);
                let row = &mut proj[t * bits..(t + 1) * bits];
                for (b, p) in row.iter_mut().enumerate() {
                    if signs & (1u64 << b) != 0 {
                        *p += w;
                    } else {
                        *p -= w;
                    }
                }
            }
        }
        proj
    }

    fn signature_of(proj: &[f64], bits: usize, table: usize) -> u32 {
        let row = &proj[table * bits..(table + 1) * bits];
        let mut sig = 0u32;
        for (b, p) in row.iter().enumerate() {
            if *p >= 0.0 {
                sig |= 1 << b;
            }
        }
        sig
    }

    /// Insert or refresh `id` after its flat vector changed. The
    /// signature is re-hashed from the maintained vector (O(terms ×
    /// tables) integer mixing, no allocation beyond the projection
    /// scratch) and the consumer moves only between buckets whose
    /// signature actually changed.
    pub(crate) fn update(&mut self, id: u64, vector: &TermVector) {
        let bits = self.cfg.bits() as usize;
        let proj = self.projections(vector);
        let fresh: Vec<u32> = (0..self.cfg.tables())
            .map(|t| Self::signature_of(&proj, bits, t))
            .collect();
        match self.sigs.get_mut(&id) {
            Some(old) => {
                for (t, (o, n)) in old.iter_mut().zip(fresh.iter()).enumerate() {
                    if *o != *n {
                        remove_member(&mut self.buckets[t], *o, id);
                        self.buckets[t].entry(*n).or_default().push(id);
                        *o = *n;
                    }
                }
            }
            None => {
                for (t, sig) in fresh.iter().enumerate() {
                    self.buckets[t].entry(*sig).or_default().push(id);
                }
                self.sigs.insert(id, fresh.into_boxed_slice());
            }
        }
    }

    /// Drop `id` from every table. The store currently invalidates the
    /// whole LSH index on profile removal (only the wholesale decay pass
    /// removes profiles), so this is exercised by tests only.
    #[cfg(test)]
    pub(crate) fn remove(&mut self, id: u64) {
        if let Some(sigs) = self.sigs.remove(&id) {
            for (t, sig) in sigs.iter().enumerate() {
                remove_member(&mut self.buckets[t], *sig, id);
            }
        }
    }

    /// Union of the target's buckets across all tables, multiprobed:
    /// per table the primary bucket plus `probes` single-bit flips,
    /// least-confident (smallest |projection|) bit first. `out` is
    /// cleared and left sorted + deduplicated.
    pub(crate) fn candidates(&self, target: &TermVector, probes: u8, out: &mut Vec<u64>) {
        out.clear();
        let bits = self.cfg.bits() as usize;
        let proj = self.projections(target);
        let probes = usize::from(probes).min(bits);
        let mut flip_order: Vec<usize> = (0..bits).collect();
        for (t, table) in self.buckets.iter().enumerate() {
            let sig = Self::signature_of(&proj, bits, t);
            if let Some(members) = table.get(&sig) {
                out.extend_from_slice(members);
            }
            if probes > 0 {
                let row = &proj[t * bits..(t + 1) * bits];
                flip_order.sort_by(|a, b| {
                    row[*a]
                        .abs()
                        .partial_cmp(&row[*b].abs())
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(b))
                });
                for bit in flip_order.iter().take(probes) {
                    if let Some(members) = table.get(&(sig ^ (1 << bit))) {
                        out.extend_from_slice(members);
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

fn remove_member(table: &mut HashMap<u32, Vec<u64>>, sig: u32, id: u64) {
    if let Some(members) = table.get_mut(&sig) {
        if let Some(pos) = members.iter().position(|m| *m == id) {
            members.swap_remove(pos);
        }
        if members.is_empty() {
            table.remove(&sig);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_of(pairs: &[(&str, f64)]) -> TermVector {
        TermVector::from_pairs(pairs.iter().map(|(t, w)| (t.to_string(), *w)))
    }

    #[test]
    fn identical_vectors_share_every_signature() {
        let mut lsh = LshIndex::new(AnnConfig::default());
        let v = vec_of(&[("a", 1.0), ("b", 0.5)]);
        lsh.update(1, &v);
        lsh.update(2, &v);
        let mut out = Vec::new();
        lsh.candidates(&v, lsh.cfg.probes, &mut out);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn update_moves_only_changed_buckets() {
        let mut lsh = LshIndex::new(AnnConfig {
            bits: 8,
            tables: 4,
            probes: 0,
            seed: 7,
        });
        let before = vec_of(&[("a", 1.0)]);
        let after = vec_of(&[("zzz", 3.0)]);
        lsh.update(1, &before);
        let old_sigs = lsh.sigs.get(&1).unwrap().clone();
        lsh.update(1, &after);
        let new_sigs = lsh.sigs.get(&1).unwrap().clone();
        // membership is consistent: id 1 is reachable from `after`…
        let mut out = Vec::new();
        lsh.candidates(&after, lsh.cfg.probes, &mut out);
        assert_eq!(out, vec![1]);
        // …and no stale bucket still holds it
        for (t, table) in lsh.buckets.iter().enumerate() {
            for (sig, members) in table {
                if members.contains(&1) {
                    assert_eq!(*sig, new_sigs[t], "stale bucket in table {t}");
                }
            }
        }
        // sanity: the move was real for at least one table (different
        // vectors hash differently with overwhelming probability)
        assert_ne!(old_sigs, new_sigs);
    }

    #[test]
    fn remove_unlinks_every_table() {
        let mut lsh = LshIndex::new(AnnConfig::default());
        let v = vec_of(&[("a", 1.0)]);
        lsh.update(1, &v);
        lsh.remove(1);
        assert_eq!(lsh.len(), 0);
        let mut out = Vec::new();
        lsh.candidates(&v, lsh.cfg.probes, &mut out);
        assert!(out.is_empty());
        for table in &lsh.buckets {
            assert!(table.is_empty());
        }
    }

    #[test]
    fn incremental_signature_equals_rebuild() {
        // the same final vector must hash identically whether the index
        // saw it in one shot or through a chain of updates
        let cfg = AnnConfig {
            bits: 16,
            tables: 8,
            probes: 2,
            seed: 42,
        };
        let mut incremental = LshIndex::new(cfg);
        incremental.update(1, &vec_of(&[("a", 1.0)]));
        incremental.update(1, &vec_of(&[("a", 1.4), ("b", 0.2)]));
        let final_v = vec_of(&[("a", 0.9), ("b", 0.2), ("c", 3.0)]);
        incremental.update(1, &final_v);
        let mut fresh = LshIndex::new(cfg);
        fresh.update(1, &final_v);
        assert_eq!(
            incremental.sigs.get(&1).unwrap(),
            fresh.sigs.get(&1).unwrap()
        );
    }

    #[test]
    fn seed_resolution_derives_from_platform_seed() {
        let cfg = AnnConfig::default();
        assert_eq!(cfg.resolved_seed(), DEFAULT_ANN_SEED);
        let derived = cfg.resolve_seed(1234);
        assert_ne!(derived.seed, 0);
        assert_eq!(derived, AnnConfig::default().resolve_seed(1234));
        assert_ne!(derived.seed, AnnConfig::default().resolve_seed(1235).seed);
        // explicit seeds survive resolution
        let explicit = AnnConfig {
            seed: 99,
            ..AnnConfig::default()
        };
        assert_eq!(explicit.resolve_seed(1234).seed, 99);
    }

    #[test]
    fn similar_vectors_collide_more_than_dissimilar() {
        let cfg = AnnConfig {
            bits: 16,
            tables: 8,
            probes: 0,
            seed: 3,
        };
        let lsh = LshIndex::new(cfg);
        let target = vec_of(&[("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 1.0)]);
        let near = vec_of(&[("a", 1.1), ("b", 0.9), ("c", 1.0), ("d", 1.0)]);
        let far = vec_of(&[("x", 2.0), ("y", 0.1), ("z", 5.0)]);
        let bits = cfg.bits() as usize;
        let pt = lsh.projections(&target);
        let pn = lsh.projections(&near);
        let pf = lsh.projections(&far);
        let agree = |a: &[f64], b: &[f64]| {
            (0..cfg.tables())
                .filter(|t| {
                    LshIndex::signature_of(a, bits, *t) == LshIndex::signature_of(b, bits, *t)
                })
                .count()
        };
        assert!(agree(&pt, &pn) > agree(&pt, &pf));
    }
}
