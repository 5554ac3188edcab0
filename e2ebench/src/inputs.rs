//! Workload shapes and the seeded inputs generated from them.
//!
//! Everything a pass feeds the platform is derived here from `--seed`:
//! the catalog, the consumer population, the history seeded at set-up
//! and the request plan (which consumer asks for which keyword, in which
//! order). The platform only ever sees these generated inputs.

use abcrm_core::learning::BehaviorKind;
use abcrm_core::profile::ConsumerId;
use ecp::merchandise::{ItemId, Merchandise};
use ecp::protocol::Listing;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use workload::catalog::{generate_listings, split_across_markets, CatalogSpec};
use workload::population::{Population, PopulationSpec};
use workload::taxonomy::{Taxonomy, TaxonomySpec};

/// Offers requested per marketplace, and the `k` of precision@k.
pub const MAX_RESULTS: usize = 5;
/// Share of the catalog, ranked by true affinity, that counts as
/// relevant to a consumer.
pub const RELEVANT_FRACTION: f64 = 0.2;
/// Marketplaces; the catalog is split round-robin over them.
const MARKETS: usize = 2;
/// Concurrent clients per `durable_buy` round.
pub const CLIENTS_PER_ROUND: usize = 8;
/// Keywords drawn per query. Several keywords fill most queries' offer
/// lists, so the work per query varies little from seed to seed.
const KEYWORDS_PER_QUERY: usize = 3;

/// The three named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One client cycling login → query → buy → logout over a small
    /// population: front door and scheduler bound.
    Sessions,
    /// Query-only traffic from a few logged-in consumers over a large
    /// seeded history: recommender bound.
    Recommend,
    /// Rounds of concurrent queries then direct buys on a durable
    /// 2-shard platform: WAL, migration and learning bound.
    DurableBuy,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::Sessions,
        Workload::Recommend,
        Workload::DurableBuy,
    ];

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sessions => "sessions",
            Workload::Recommend => "recommend",
            Workload::DurableBuy => "durable_buy",
        }
    }
}

/// Sizes of one pass of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Catalog items.
    pub items: usize,
    /// Consumers in the population.
    pub consumers: usize,
    /// Behaviour events seeded per consumer at set-up.
    pub history_per_consumer: usize,
    /// Consumers that issue requests (the rest only have history).
    pub active: usize,
    /// Front-door requests served per pass.
    pub requests: usize,
}

impl Shape {
    /// The measured shape of `workload`.
    pub fn of(workload: Workload) -> Shape {
        match workload {
            Workload::Sessions => Shape {
                items: 500,
                consumers: 200,
                history_per_consumer: 0,
                active: 200,
                requests: 200,
            },
            Workload::Recommend => Shape {
                items: 500,
                consumers: 1000,
                history_per_consumer: 8,
                active: 16,
                requests: 32,
            },
            Workload::DurableBuy => Shape {
                items: 500,
                consumers: 64,
                history_per_consumer: 0,
                active: 64,
                requests: 160,
            },
        }
    }

    /// A few requests of `workload`, for the smoke tests.
    #[cfg(test)]
    pub fn toy(workload: Workload) -> Shape {
        let full = Shape::of(workload);
        Shape {
            items: 60,
            consumers: full.consumers.min(40),
            active: full.active.min(16),
            history_per_consumer: full.history_per_consumer.min(3),
            requests: 32,
        }
    }
}

/// One query slot of the request plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Who asks.
    pub consumer: ConsumerId,
    /// The keywords they type.
    pub keywords: Vec<String>,
}

/// Everything a pass needs, generated from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The whole catalog.
    pub listings: Vec<Listing>,
    /// The catalog split over the marketplaces.
    pub per_market: Vec<Vec<Listing>>,
    /// The population with its ground truth.
    pub population: Population,
    /// Behaviour history seeded into the PA at set-up.
    pub history: Vec<(ConsumerId, Merchandise, BehaviorKind)>,
    /// Queries in the order they are issued. `sessions` follows each
    /// with a buy and a logout, `durable_buy` follows each round of
    /// queries with a round of buys, `recommend` only queries.
    pub queries: Vec<Query>,
}

/// Number of query slots a pass of `shape` issues for `workload`.
fn query_count(workload: Workload, shape: &Shape) -> usize {
    match workload {
        // login, query, buy, logout
        Workload::Sessions => shape.requests / 4,
        Workload::Recommend => shape.requests,
        // a round of queries, then a round of buys
        Workload::DurableBuy => shape.requests / 2,
    }
}

/// Queries per cycle of the workload's repeating work: a session, a
/// round of one query per active consumer, a round of concurrent clients.
fn queries_per_cycle(workload: Workload, shape: &Shape) -> usize {
    match workload {
        Workload::Sessions => 1,
        Workload::Recommend => shape.active,
        Workload::DurableBuy => CLIENTS_PER_ROUND,
    }
}

/// Generate the inputs of `workload` for `seed`. The same seed always
/// gives the same inputs.
pub fn generate(workload: Workload, shape: &Shape, seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x65_32_65_62_65_6e_63_68);
    let taxonomy = Taxonomy::generate(TaxonomySpec::default());
    let listings = generate_listings(
        &taxonomy,
        &CatalogSpec {
            items: shape.items,
            ..CatalogSpec::default()
        },
        1,
        &mut rng,
    );
    let population = Population::generate(
        &PopulationSpec {
            consumers: shape.consumers,
            clusters: 32,
            leaves_per_cluster: 2,
            noise: 0.15,
        },
        &listings,
        &mut rng,
    );
    let history = if shape.history_per_consumer > 0 {
        population.sample_history(&listings, shape.history_per_consumer, &mut rng)
    } else {
        Vec::new()
    };
    // active consumers are spread over the whole population
    let stride = (shape.consumers / shape.active.max(1)).max(1);
    let active: Vec<usize> = (0..shape.active).map(|i| i * stride).collect();
    let mut queries: Vec<Query> = (0..query_count(workload, shape))
        .map(|i| {
            let truth = &population.consumers[active[i % active.len()]];
            let mut keywords: Vec<String> = Vec::new();
            for _ in 0..KEYWORDS_PER_QUERY {
                let k = truth
                    .sample_keyword(&mut rng)
                    .expect("every consumer prefers at least one term");
                if !keywords.contains(&k) {
                    keywords.push(k);
                }
            }
            Query {
                consumer: truth.id,
                keywords,
            }
        })
        .collect();
    // the last decile of cycles re-issues the first decile's queries, so
    // flatness compares the same work served early and late
    let per_cycle = queries_per_cycle(workload, shape);
    let cycles = queries.len() / per_cycle;
    if cycles >= 2 {
        let decile = (cycles / 10).max(1) * per_cycle;
        let first = queries[..decile].to_vec();
        let n = queries.len();
        queries[n - decile..].clone_from_slice(&first);
    }
    let per_market = split_across_markets(listings.clone(), MARKETS);
    Inputs {
        listings,
        per_market,
        population,
        history,
        queries,
    }
}

/// Relevant items of every consumer that queries in `inputs`: the top
/// [`RELEVANT_FRACTION`] of the catalog by ground-truth affinity.
pub fn relevance(inputs: &Inputs) -> BTreeMap<ConsumerId, BTreeSet<ItemId>> {
    let mut out = BTreeMap::new();
    for q in &inputs.queries {
        out.entry(q.consumer).or_insert_with(|| {
            inputs
                .population
                .relevant_items(q.consumer, &inputs.listings, RELEVANT_FRACTION)
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            let shape = Shape::toy(w);
            let a = generate(w, &shape, 7);
            let b = generate(w, &shape, 7);
            let c = generate(w, &shape, 8);
            assert_eq!(a.queries, b.queries);
            assert_eq!(a.history, b.history);
            assert_ne!(a.queries, c.queries);
        }
    }

    #[test]
    fn the_last_decile_repeats_the_first() {
        for w in Workload::ALL {
            let shape = Shape::of(w);
            let q = generate(w, &shape, 5).queries;
            let per_cycle = queries_per_cycle(w, &shape);
            let decile = (q.len() / per_cycle / 10).max(1) * per_cycle;
            assert_eq!(q[..decile], q[q.len() - decile..], "{w:?}");
            if q.len() > 2 * decile {
                assert_ne!(q[..decile], q[decile..2 * decile], "{w:?}");
            }
        }
    }
}
