//! Query-serving hot path: indexed store vs the reference full scan,
//! and the ANN tier vs the exact posting-list scan along a users axis.
//!
//! **Micro section** — synthetic stores at 1k / 10k / 100k consumers
//! (50 taste clusters, each with its own slice of the catalog, so
//! posting-list pruning has realistic selectivity), timing:
//!
//! * `HybridRecommender::recommend` (indexed) vs `recommend_naive`
//!   (full profile scan) — the acceptance metric;
//! * `RecommendStore::nearest_neighbours` vs the free-function scan;
//! * `ItemCfRecommender::recommend` (memoized cosines) vs
//!   `recommend_naive`.
//!
//! Naive variants are skipped at 100k consumers — a single full-scan
//! query at that size takes longer than the whole indexed series.
//!
//! **Scaling section** — stores populated from a streaming
//! [`workload::PopulationStream`] (resident generator state stays
//! O(clusters), so the builder never holds a million ground truths),
//! timing exact vs ANN `nearest_neighbours` at 10^4 / 10^5 consumers —
//! plus 10^6 when `QUERY_BENCH_FULL=1` — and printing measured
//! recall@10 per size (the numbers recorded in `BENCH_query.json`).
//!
//! **Allocation gate** — the binary runs under a counting allocator and
//! asserts that a warm `ProfileIndex::candidates_into` performs zero
//! allocations, and that a warm exact `RecommendStore::nearest_neighbours`
//! allocates as often on a 10^3-consumer store as on a 10^4-consumer one
//! (ten times the candidates): the similarity kernel reuses its scratch
//! and allocates nothing per candidate. Pass `--assert-no-alloc` to run
//! only this gate.

use abcrm_core::learning::BehaviorKind;
use abcrm_core::profile::ConsumerId;
use abcrm_core::recommend::{HybridRecommender, QueryContext, Recommender};
use abcrm_core::similarity::SimilarityConfig;
use abcrm_core::store::RecommendStore;
use abcrm_core::{AnnConfig, ItemCfRecommender, ProfileIndex};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecp::merchandise::{CategoryPath, ItemId, Merchandise, Money};
use ecp::terms::TermVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use workload::taxonomy::{Taxonomy, TaxonomySpec};
use workload::{generate_listings, CatalogSpec, PopulationSpec, PopulationStream};

// --- counting allocator (the no-alloc gate) ----------------------------

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Warm `candidates_into` must be allocation-free: after one sizing
/// pass, a thousand repeats on the reused scratch buffer may not touch
/// the allocator at all.
fn assert_candidates_no_alloc(store: &RecommendStore) {
    let index = ProfileIndex::rebuild(store.profiles().map(|(c, p)| (c.0, p)));
    let target = index
        .flat(1)
        .expect("probe consumer indexed")
        .vector
        .clone();
    let mut scratch = Vec::new();
    index.candidates_into(&target, &mut scratch); // size the buffer once
    assert!(!scratch.is_empty(), "probe consumer has candidates");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..1_000 {
        index.candidates_into(&target, &mut scratch);
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocs, 0,
        "warm candidates_into allocated {allocs} times over 1000 queries"
    );
    println!("no-alloc gate: 1000 warm candidates_into calls, 0 allocations");
}

/// Allocations of one warm exact `nearest_neighbours` call, averaged
/// over 100 repeats after a sizing call, plus the probe's candidate
/// count.
fn warm_nn_allocations(store: &RecommendStore) -> (u64, usize) {
    let cfg = SimilarityConfig::default();
    let probe = ConsumerId(1);
    let target = store
        .flat_profile(probe)
        .expect("probe consumer indexed")
        .vector
        .clone();
    let candidates = store.profile_index().candidates(&target).len();
    store.nearest_neighbours(probe, &cfg, 10); // size the scratch once
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..100 {
        store.nearest_neighbours(probe, &cfg, 10);
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (allocs / 100, candidates)
}

/// A warm exact `nearest_neighbours` must allocate the same number of
/// times whatever the candidate count: a per-candidate (or growing)
/// allocation would show as a higher count on the larger store.
fn assert_nn_allocations_flat(small: &RecommendStore, large: &RecommendStore) {
    let (small_allocs, small_candidates) = warm_nn_allocations(small);
    let (large_allocs, large_candidates) = warm_nn_allocations(large);
    assert!(
        large_candidates >= 5 * small_candidates,
        "larger store must score more candidates ({small_candidates} vs {large_candidates})"
    );
    assert_eq!(
        small_allocs, large_allocs,
        "warm nearest_neighbours allocated {small_allocs} times per call over \
         {small_candidates} candidates but {large_allocs} over {large_candidates}"
    );
    println!(
        "no-alloc gate: warm nearest_neighbours allocates {small_allocs} times per call \
         at {small_candidates} and at {large_candidates} candidates"
    );
}

// --- micro section: synthetic clustered store --------------------------

const CLUSTERS: u64 = 50;
const ITEMS_PER_CLUSTER: u64 = 20;
const EVENTS_PER_USER: u32 = 6;

fn merch(cluster: u64, slot: u64) -> Merchandise {
    let id = cluster * ITEMS_PER_CLUSTER + slot + 1;
    Merchandise {
        id: ItemId(id),
        name: format!("c{cluster}i{slot}"),
        category: CategoryPath::new(format!("cat{}", cluster % 10), format!("sub{cluster}")),
        terms: TermVector::from_pairs([
            (format!("c{cluster}t{}", slot % 8), 1.0),
            (format!("c{cluster}common"), 0.4),
        ]),
        list_price: Money::from_units(10 + id % 50),
        seller: 1,
    }
}

fn build_store(users: u64) -> RecommendStore {
    let mut store = RecommendStore::new();
    for cluster in 0..CLUSTERS {
        for slot in 0..ITEMS_PER_CLUSTER {
            store.upsert_item(merch(cluster, slot));
        }
    }
    let mut rng = StdRng::seed_from_u64(42);
    let kinds = [
        BehaviorKind::Browse,
        BehaviorKind::Query,
        BehaviorKind::Purchase,
    ];
    for user in 1..=users {
        let cluster = user % CLUSTERS;
        for _ in 0..EVENTS_PER_USER {
            let slot = rng.gen_range(0..ITEMS_PER_CLUSTER);
            let item = ItemId(cluster * ITEMS_PER_CLUSTER + slot + 1);
            let kind = kinds[rng.gen_range(0..kinds.len())];
            store.record_event(ConsumerId(user), item, kind);
        }
    }
    store
}

// --- scaling section: streamed population, exact vs ANN ----------------

/// Store populated from a [`PopulationStream`]: the generator derives
/// each consumer's events on demand, so builder memory beyond the store
/// itself stays O(clusters).
fn build_streamed_store(users: usize) -> RecommendStore {
    let taxonomy = Taxonomy::generate(TaxonomySpec {
        categories: 10,
        subs_per_category: 5,
        terms_per_sub: 12,
    });
    let mut rng = StdRng::seed_from_u64(7);
    let listings = generate_listings(
        &taxonomy,
        &CatalogSpec {
            items: 500,
            ..CatalogSpec::default()
        },
        1,
        &mut rng,
    );
    let spec = PopulationSpec {
        consumers: users,
        clusters: 50,
        leaves_per_cluster: 2,
        noise: 0.15,
    };
    let stream = PopulationStream::new(&spec, &listings, 0xCA7);
    let mut store = RecommendStore::new();
    for l in &listings {
        store.upsert_item(l.item.clone());
    }
    for i in 0..stream.len() {
        for (consumer, item, kind) in stream.events_of(i, 6) {
            store.record_event(consumer, item, kind);
        }
    }
    store
}

/// The graded ANN parameters: signature width grows with the
/// population (`bits = log2(users / 64)`, floor 8) so per-table buckets
/// hold ~64 consumers at every size — candidate volume, and therefore
/// query cost, stays roughly flat while the exact scan grows linearly.
/// Tables and probes match `tests/ann.rs`.
fn ann_config(users: usize) -> SimilarityConfig {
    let bits = ((users / 64).max(1).ilog2() as u8).max(8);
    SimilarityConfig {
        ann: Some(AnnConfig {
            bits,
            tables: 8,
            probes: 8,
            seed: 42,
        }),
        ..SimilarityConfig::default()
    }
}

/// Measured tie-tolerant recall@10 of the ANN path against the exact
/// scan over a 50-user sample.
fn measured_recall(store: &RecommendStore, users: usize) -> (f64, u64, u64) {
    let exact_cfg = SimilarityConfig::default();
    let ann_cfg = ann_config(users);
    let step = (users / 50).max(1);
    let (mut hit, mut total) = (0u64, 0u64);
    for user in (1..=users as u64).step_by(step) {
        let consumer = ConsumerId(user);
        let exact_top = store.nearest_neighbours(consumer, &exact_cfg, 10);
        let ann_top = store.nearest_neighbours(consumer, &ann_cfg, 10);
        total += exact_top.len() as u64;
        hit += exact_top
            .iter()
            .filter(|(c, s)| {
                ann_top
                    .iter()
                    .any(|(ac, asc)| ac == c || (asc - s).abs() < 1e-9)
            })
            .count() as u64;
    }
    (hit as f64 / total.max(1) as f64, hit, total)
}

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_scaling");
    group.sample_size(10);
    let exact_cfg = SimilarityConfig::default();
    let probe = ConsumerId(1);

    let mut sizes = vec![10_000usize, 100_000];
    if std::env::var("QUERY_BENCH_FULL").is_ok() {
        sizes.push(1_000_000);
    } else {
        println!("query_scaling: 10^6-consumer axis skipped (set QUERY_BENCH_FULL=1)");
    }
    for users in sizes {
        let ann_cfg = ann_config(users);
        let build_start = std::time::Instant::now();
        let store = build_streamed_store(users);
        let built = build_start.elapsed();
        let warm_start = std::time::Instant::now();
        store.warm_ann(&ann_cfg);
        let warmed = warm_start.elapsed();
        let bits = ann_cfg.ann.expect("ann configured").bits;
        println!(
            "query_scaling/{users}: store built in {built:.2?}, \
             ANN index ({bits} bits x 8 tables) built in {warmed:.2?}"
        );
        group.bench_with_input(BenchmarkId::new("nn_exact", users), &store, |b, s| {
            b.iter(|| s.nearest_neighbours(probe, &exact_cfg, 10));
        });
        group.bench_with_input(BenchmarkId::new("nn_ann", users), &store, |b, s| {
            b.iter(|| s.nearest_neighbours(probe, &ann_cfg, 10));
        });
        let (recall, hit, total) = measured_recall(&store, users);
        println!("query_scaling/{users}: recall@10 = {recall:.4} ({hit}/{total})");
    }
    group.finish();
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_hot_path");
    group.sample_size(10);
    let hybrid = HybridRecommender::default();
    let itemcf = ItemCfRecommender::default();
    let ctx = QueryContext::default();
    let probe = ConsumerId(1);

    for users in [1_000u64, 10_000, 100_000] {
        let store = build_store(users);
        if users == 10_000 {
            assert_candidates_no_alloc(&store);
        }
        let cfg = hybrid.similarity;
        group.bench_with_input(BenchmarkId::new("hybrid_indexed", users), &store, |b, s| {
            b.iter(|| hybrid.recommend(s, probe, &ctx, 10));
        });
        group.bench_with_input(BenchmarkId::new("nn_indexed", users), &store, |b, s| {
            b.iter(|| s.nearest_neighbours(probe, &cfg, 10));
        });
        group.bench_with_input(BenchmarkId::new("itemcf_cached", users), &store, |b, s| {
            b.iter(|| itemcf.recommend(s, probe, &ctx, 10));
        });
        if users <= 10_000 {
            group.bench_with_input(BenchmarkId::new("hybrid_naive", users), &store, |b, s| {
                b.iter(|| hybrid.recommend_naive(s, probe, &ctx, 10));
            });
            group.bench_with_input(BenchmarkId::new("nn_naive", users), &store, |b, s| {
                b.iter(|| s.nearest_neighbours_naive(probe, &cfg, 10));
            });
            group.bench_with_input(BenchmarkId::new("itemcf_naive", users), &store, |b, s| {
                b.iter(|| itemcf.recommend_naive(s, probe, &ctx, 10));
            });
        }
    }
    group.finish();
}

fn run(c: &mut Criterion) {
    if std::env::args().any(|a| a == "--assert-no-alloc") {
        let large = build_store(10_000);
        assert_candidates_no_alloc(&large);
        assert_nn_allocations_flat(&build_store(1_000), &large);
        return;
    }
    bench(c);
    bench_scaling(c);
}

criterion_group!(benches, run);
criterion_main!(benches);
