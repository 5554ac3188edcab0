//! Scale test: a larger domain (4 marketplaces, 200 items, 30 consumers)
//! exercising many interleaved workflows — the "consumer community"
//! service the Buyer Agent Server claims to provide (§3.2).

use abcrm::core::agents::msg::{BuyMode, ConsumerTask, ResponseBody};
use abcrm::core::profile::ConsumerId;
use abcrm::core::server::Platform;
use abcrm::workload::catalog::{generate_listings, split_across_markets, CatalogSpec};
use abcrm::workload::taxonomy::{Taxonomy, TaxonomySpec};
use agentsim::durable::DurabilityConfig;
use agentsim::payload::Payload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simdb::wal::{LogRecord, Wal};

fn big_platform(seed: u64) -> (Platform, Vec<String>) {
    big_platform_with(seed, None)
}

fn big_platform_with(seed: u64, durability: Option<DurabilityConfig>) -> (Platform, Vec<String>) {
    let taxonomy = Taxonomy::generate(TaxonomySpec {
        categories: 6,
        subs_per_category: 3,
        terms_per_sub: 10,
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let listings = generate_listings(
        &taxonomy,
        &CatalogSpec {
            items: 200,
            ..CatalogSpec::default()
        },
        1,
        &mut rng,
    );
    let names: Vec<String> = listings.iter().map(|l| l.item.name.clone()).collect();
    let mut builder = Platform::builder(seed).marketplaces(split_across_markets(listings, 4));
    if let Some(cfg) = durability {
        builder = builder.durability(cfg);
    }
    let platform = builder.build();
    (platform, names)
}

#[test]
fn thirty_consumers_run_interleaved_query_workflows() {
    let (mut p, names) = big_platform(1);
    for c in 1..=30u64 {
        p.login(ConsumerId(c));
    }
    assert_eq!(p.bsma_state().sessions().len(), 30);
    // baseline: the BSMA's own Fig 4.1 dispatch already counted one hop
    let migrations_before = p.world().metrics().migrations;
    // all 30 queries submitted before the world runs: 30 MBAs tour 4
    // marketplaces concurrently while 30 BRAs sit in stable storage
    for c in 1..=30u64 {
        let keyword = &names[(c as usize * 6) % names.len()];
        p.submit_task(
            ConsumerId(c),
            ConsumerTask::Query {
                keywords: vec![keyword.clone()],
                category: None,
                max_results: 5,
            },
        );
    }
    let responses = p.run_and_drain();
    let recommendations = responses
        .iter()
        .filter(|(_, r)| matches!(r, ResponseBody::Recommendations { .. }))
        .count();
    assert_eq!(
        recommendations, 30,
        "every consumer must get an answer: {responses:?}"
    );
    let m = p.world().metrics();
    // each MBA: 1 hop out + 3 between marketplaces + 1 home = 5
    assert_eq!(m.migrations - migrations_before, 30 * 5);
    assert_eq!(m.migrations_rejected, 0);
    assert_eq!(m.deactivations, 30);
    assert_eq!(m.activations, 30);
    assert_eq!(
        m.messages_dead_lettered, 0,
        "no message may fall on the floor"
    );
}

#[test]
fn mixed_workload_with_purchases_keeps_userdb_consistent() {
    let (mut p, names) = big_platform(2);
    for c in 1..=10u64 {
        p.login(ConsumerId(c));
    }
    let mut expected_tx = 0u32;
    for round in 0..3 {
        for c in 1..=10u64 {
            let keyword = &names[((c + round * 7) as usize) % names.len()];
            let responses = p.query(ConsumerId(c), &[keyword.as_str()], 3);
            // buy the first offer every other round
            if round % 2 == 0 {
                if let Some(ResponseBody::Recommendations { offers, .. }) = responses.first() {
                    if let Some(offer) = offers.first() {
                        let market = p
                            .markets()
                            .iter()
                            .position(|m| m.host == offer.marketplace)
                            .unwrap();
                        let bought = p.buy(ConsumerId(c), offer.item.id, market, BuyMode::Direct);
                        if matches!(bought.first(), Some(ResponseBody::Receipt { .. })) {
                            expected_tx += 1;
                        }
                    }
                }
            }
        }
    }
    let pa = p.pa_state();
    assert_eq!(pa.userdb().transaction_count() as u32, expected_tx);
    assert!(expected_tx > 0, "some purchases must have happened");
    // every consumer who queried has a persisted profile
    assert!(pa.userdb().profile_count() >= 10);
    // logout everyone; sessions drain
    for c in 1..=10u64 {
        p.logout(ConsumerId(c));
    }
    assert_eq!(p.bsma_state().sessions().len(), 0);
}

/// Bytes of the HttpA capsule records journalled by one login/logout
/// session, or `None` when a checkpoint truncated the log inside it.
fn httpa_wal_bytes_of_one_session(p: &mut Platform, consumer: ConsumerId) -> Option<usize> {
    let host = p.buyer_host();
    let before = p.world().durable_store(host).expect("durable").wal_len();
    let checkpoints = p.world().metrics().checkpoints;
    p.login(consumer);
    p.logout(consumer);
    if p.world().metrics().checkpoints != checkpoints {
        return None;
    }
    let store = p.world().durable_store(host).expect("durable");
    let wal = Wal::decode(&store.wal_bytes()).expect("live WAL decodes");
    let httpa = p.httpa().0;
    Some(
        wal.records()[before..]
            .iter()
            .filter(|r| matches!(r, LogRecord::Capsule { agent, .. } if *agent == httpa))
            .map(|r| serde_json::to_string(r).expect("record encodes").len())
            .sum(),
    )
}

/// The front door holds only in-flight requests: however many sessions it
/// has served, its state encodes to the same size and a session journals
/// the same HttpA bytes.
#[test]
fn front_door_state_stays_bounded_over_a_thousand_sessions() {
    let (mut p, _) = big_platform_with(3, Some(DurabilityConfig::default()));
    let consumer = ConsumerId(1);
    let mut served = 0;
    let mut probe = |p: &mut Platform, sessions: usize| {
        while served < sessions {
            p.login(consumer);
            p.logout(consumer);
            served += 1;
        }
        // the first checkpoint-free session from here
        let wal = loop {
            served += 1;
            if let Some(bytes) = httpa_wal_bytes_of_one_session(p, consumer) {
                break bytes;
            }
        };
        let state = Payload::from(p.world().snapshot_of(p.httpa()).expect("httpa active"));
        (state.encoded_len(), wal)
    };
    let (state_10, wal_10) = probe(&mut p, 10);
    let (state_1000, wal_1000) = probe(&mut p, 1_000);
    assert!(wal_10 > 0, "a durable HttpA journals its capsule");
    assert_eq!(state_10, state_1000, "HttpA state grew with history");
    assert_eq!(
        wal_10, wal_1000,
        "HttpA WAL bytes per session grew with history"
    );
}
