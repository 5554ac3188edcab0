//! Self-healing supervision suite (experiment E15): the platform under
//! faults that are **never manually healed** — every recovery in this
//! file is performed by the supervisor (heartbeat leases, automatic
//! failover, hang bouncing, restart budgets). No test calls
//! `restart_host` or `unhang_host`; grep this file to verify.
//!
//! Coverage:
//!
//! * supervision off ⇒ byte-identical traces and every new counter zero
//!   (the oracle that the subsystem is invisible until armed);
//! * buyer-host crash mid-buy ⇒ lease expiry ⇒ automatic failover onto a
//!   standby host, with the roaming MBA re-bound (`on_rehomed`) and the
//!   two-phase purchase settling exactly once;
//! * hung host (stuck-not-dead) ⇒ detected past the hang grace and
//!   bounced, stalled deliveries replayed, nothing lost;
//! * 32-seed supervised chaos sweep where crash and hang faults never
//!   heal on their own — every request still answered, no agent leaks;
//! * crash-looping host ⇒ restart budget exhausted ⇒ agents quarantined
//!   to dead-letters instead of being restored forever;
//! * DES ≡ ThreadWorld outcome-class equivalence for a crash-failover
//!   and a hang-bounce scenario;
//! * the file-backed WAL round-trips a durable store through a real
//!   process-style reopen.

use abcrm::core::agents::msg::{BuyMode, ConsumerTask, ResponseBody};
use abcrm::core::profile::ConsumerId;
use abcrm::core::server::{listing, Platform};
use abcrm::core::BackoffPolicy;
use agentsim::chaos::{ChaosConfig, ChaosEvent, ChaosPlan, Fault};
use agentsim::clock::SimDuration;
use agentsim::durable::{DurabilityConfig, DurableStore};
use agentsim::ids::HostId;
use agentsim::sim::Location;
use agentsim::supervise::SupervisionConfig;
use ecp::merchandise::ItemId;

const CONSUMER: ConsumerId = ConsumerId(1);
const CONSUMERS: [ConsumerId; 3] = [ConsumerId(1), ConsumerId(2), ConsumerId(3)];
const HORIZON_US: u64 = 8_000_000;

fn listings() -> Vec<Vec<ecp::protocol::Listing>> {
    vec![
        vec![
            listing(1, "Rust Book", "books", "programming", 30, &[("rust", 1.0)]),
            listing(2, "Go Book", "books", "programming", 25, &[("go", 1.0)]),
        ],
        vec![listing(
            11,
            "Systems Programming",
            "books",
            "programming",
            40,
            &[("rust", 0.8)],
        )],
    ]
}

/// Fast-detection supervision config so failover latency stays small
/// against the workflows' own 2s MBA watchdog.
fn quick_supervision() -> SupervisionConfig {
    SupervisionConfig {
        lease_interval_us: 100_000,
        lease_grace: 1,
        hang_grace_us: 200_000,
        restart_budget: 8,
        backoff_base_us: 50_000,
        backoff_max_us: 1_000_000,
    }
}

fn supervised_platform(seed: u64) -> Platform {
    Platform::builder(seed)
        .marketplaces(listings())
        .mba_timeout_us(2_000_000)
        .bra_retry(BackoffPolicy::new(200_000, 1_600_000, 3))
        .durability(DurabilityConfig::default())
        .supervision(quick_supervision())
        .build()
}

fn buy_task(p: &Platform) -> ConsumerTask {
    ConsumerTask::Buy {
        item: ItemId(1),
        market: p.markets()[0],
        mode: BuyMode::Direct,
    }
}

fn query_task() -> ConsumerTask {
    ConsumerTask::Query {
        keywords: vec!["rust".into()],
        category: None,
        max_results: 5,
    }
}

/// Units sold of `item` at marketplace 0 — the externally observable
/// purchase effect the exactly-once invariant is about.
fn units_sold(p: &Platform, item: ItemId) -> u32 {
    let snapshot = p
        .world()
        .snapshot_of(p.markets()[0].agent)
        .expect("marketplace active");
    let market: ecp::MarketplaceAgent = serde_json::from_value(snapshot).expect("state parses");
    market.units_sold(item)
}

// ---------------------------------------------------------------------
// oracle: supervision off ⇒ byte-identical, counters zero
// ---------------------------------------------------------------------

#[test]
fn supervision_off_keeps_traces_byte_identical_and_counters_zero() {
    let seed = 909;
    let build = |supervised: bool| {
        let mut b = Platform::builder(seed)
            .marketplaces(listings())
            .mba_timeout_us(2_000_000)
            .bra_retry(BackoffPolicy::new(200_000, 1_600_000, 3))
            .durability(DurabilityConfig::default());
        if supervised {
            b = b.supervision(SupervisionConfig::default());
        }
        b.build()
    };
    let mut plain = build(false);
    let mut supervised = build(true);
    for p in [&mut plain, &mut supervised] {
        p.login(CONSUMER);
        let task = buy_task(p);
        p.submit_task(CONSUMER, task);
        let wave = p.run_and_drain();
        assert!(wave
            .iter()
            .any(|(_, r)| matches!(r, ResponseBody::Receipt { .. })));
        p.query(CONSUMER, &["rust"], 5);
    }
    // a fault-free run never arms the detector: event-for-event identical
    assert_eq!(
        plain.world().trace().labels(),
        supervised.world().trace().labels(),
        "unarmed supervision must not perturb the workflow trace"
    );
    // every supervision counter is zero on both sides, and the full
    // metrics structs agree
    for p in [&plain, &supervised] {
        let m = p.world().metrics();
        assert_eq!(m.hangs_injected, 0);
        assert_eq!(m.hangs_detected, 0);
        assert_eq!(m.hosts_suspected, 0);
        assert_eq!(m.leases_expired, 0);
        assert_eq!(m.failovers, 0);
        assert_eq!(m.agents_rehomed, 0);
        assert_eq!(m.agents_retired, 0);
        assert_eq!(m.agents_quarantined, 0);
    }
    assert_eq!(
        plain.world().metrics(),
        supervised.world().metrics(),
        "unarmed supervision must be invisible in the metrics"
    );
}

// ---------------------------------------------------------------------
// crash ⇒ lease expiry ⇒ automatic failover (no restart_host anywhere)
// ---------------------------------------------------------------------

/// Probe run: drive the buy crash-free and report the sim-time of the
/// first trace event whose label contains `marker`. Supervision is
/// byte-invisible while unarmed, so the marker time transfers exactly.
fn probe_marker(seed: u64, marker: &str) -> agentsim::clock::SimTime {
    let mut p = supervised_platform(seed);
    p.login(CONSUMER);
    let task = buy_task(&p);
    p.submit_task(CONSUMER, task);
    let wave = p.run_and_drain();
    assert!(
        wave.iter()
            .any(|(_, r)| matches!(r, ResponseBody::Receipt { .. })),
        "probe run must complete cleanly: {wave:?}"
    );
    p.world()
        .trace()
        .events()
        .iter()
        .find(|e| e.label.contains(marker))
        .unwrap_or_else(|| panic!("marker {marker:?} not in probe trace"))
        .at
}

#[test]
fn buyer_crash_mid_buy_fails_over_automatically_and_settles_exactly_once() {
    let seed = 1101;
    // crash while the MBA is away at the marketplace (BRA deactivated):
    // failover must restore the buyer stack on a standby AND re-bind the
    // roaming MBA so the purchase still comes home
    let at = probe_marker(seed, "fig4.3/step08");
    let mut p = supervised_platform(seed);
    p.login(CONSUMER);
    let task = buy_task(&p);
    p.submit_task(CONSUMER, task);
    p.world_mut().run_until(at + SimDuration::from_micros(1));
    let buyer = p.buyer_host();
    p.world_mut().crash_host(buyer).unwrap();
    // no restart_host: the supervisor must notice the missed leases and
    // fail the host over on its own
    let wave = p.run_and_drain();
    let receipts = wave
        .iter()
        .filter(|(_, r)| matches!(r, ResponseBody::Receipt { .. }))
        .count();
    let errors = wave
        .iter()
        .filter(|(_, r)| matches!(r, ResponseBody::Error(_)))
        .count();
    assert_eq!(
        receipts + errors,
        1,
        "exactly one terminal reply expected, got {wave:?}"
    );
    assert_eq!(
        units_sold(&p, ItemId(1)),
        receipts as u32,
        "marketplace sales must match receipts (exactly-once through failover)"
    );

    let standby = p
        .world()
        .failover_of(buyer)
        .expect("supervisor ran a failover for the buyer host");
    let m = p.world().metrics();
    assert!(m.hosts_suspected >= 1, "{m:?}");
    assert!(m.leases_expired >= 1, "{m:?}");
    assert!(m.failovers >= 1, "{m:?}");
    assert!(m.hosts_recovered >= 1, "{m:?}");
    assert!(
        m.agents_rehomed >= 1,
        "the roaming MBA must be re-bound to the standby: {m:?}"
    );
    let labels = p.world().trace().labels().join("\n");
    assert!(labels.contains("lease expired"), "failover trace missing");
    assert!(labels.contains("mba: rehomed"), "rehome callback missing");

    // the recovered platform still serves, from the standby host
    let responses = p.query(CONSUMER, &["rust"], 5);
    assert!(matches!(
        &responses[0],
        ResponseBody::Recommendations { .. }
    ));
    let bsma = p.bsma_state();
    assert_eq!(bsma.roaming_mbas(), 0, "MBA registry must drain");
    for (_, bra) in bsma.sessions() {
        assert_eq!(
            p.world().location(*bra),
            Some(Location::Active(standby)),
            "BRA must end active on the standby host"
        );
    }
}

// ---------------------------------------------------------------------
// hang ⇒ detected past the grace ⇒ bounced, stalled deliveries replayed
// ---------------------------------------------------------------------

#[test]
fn hung_buyer_host_is_detected_and_bounced() {
    let seed = 1202;
    let mut p = supervised_platform(seed);
    p.login(CONSUMER);
    // wedge the buyer host just after login settles; the hang never
    // heals on its own (heal beyond any horizon)
    let buyer = p.buyer_host();
    let at_us = p.world().now().as_micros() + 50_000;
    let plan = ChaosPlan {
        seed,
        dup_probability: 0.0,
        reorder_probability: 0.0,
        max_jitter_us: 0,
        events: vec![ChaosEvent {
            at_us,
            heal_after_us: u64::MAX,
            fault: Fault::Hang { host: buyer },
        }],
    };
    p.install_chaos(&plan);
    // the query lands while the host is wedged: deliveries stall until
    // the supervisor bounces the host
    p.submit_task(CONSUMER, query_task());
    let wave = p.run_and_drain();
    assert_eq!(wave.len(), 1, "stalled query must still be answered");
    assert!(matches!(wave[0].1, ResponseBody::Recommendations { .. }));

    let m = p.world().metrics();
    assert_eq!(m.hangs_injected, 1, "{m:?}");
    assert!(
        m.hangs_detected >= 1,
        "supervisor must bounce the hang: {m:?}"
    );
    assert_eq!(
        m.failovers, 0,
        "a hang is bounced, never failed over: {m:?}"
    );
    let labels = p.world().trace().labels().join("\n");
    assert!(labels.contains("hung past grace, bouncing"));
    assert!(labels.contains("stalled deliveries replayed"));
}

// ---------------------------------------------------------------------
// 32-seed supervised sweep: chaos faults that never heal on their own
// ---------------------------------------------------------------------

/// One supervised chaos run. The plan's crash and hang events are made
/// permanent (`heal_after_us = MAX`), so the only path back to service is
/// the supervisor: failover for crashes, bouncing for hangs. The chaos
/// invariants still hold: every query answered (degraded allowed), no
/// leaked MBAs, quiescence.
fn run_supervised_seed(seed: u64) {
    let mut p = supervised_platform(seed);
    for consumer in CONSUMERS {
        p.login(consumer);
    }
    let buyer = p.buyer_host();
    let links: Vec<(HostId, HostId)> = p.markets().iter().map(|m| (buyer, m.host)).collect();
    let market_hosts: Vec<HostId> = p.markets().iter().map(|m| m.host).collect();
    let mut plan = ChaosPlan::generate(
        seed,
        &ChaosConfig::new(HORIZON_US, links, market_hosts.clone()).with_hangs(market_hosts),
    );
    for ev in &mut plan.events {
        if matches!(ev.fault, Fault::CrashHost { .. } | Fault::Hang { .. }) {
            ev.heal_after_us = u64::MAX;
        }
    }
    p.install_chaos(&plan);

    for consumer in CONSUMERS {
        p.submit_task(consumer, query_task());
    }
    let wave = p.run_and_drain();
    for consumer in CONSUMERS {
        let replies: Vec<_> = wave.iter().filter(|(c, _)| *c == consumer).collect();
        assert_eq!(
            replies.len(),
            1,
            "seed {seed}: consumer {consumer:?} expected exactly one reply, got {replies:?}; \
             repro plan: {plan}"
        );
        assert!(
            matches!(replies[0].1, ResponseBody::Recommendations { .. }),
            "seed {seed}: query reply must be Recommendations, got {:?}; repro plan: {plan}",
            replies[0].1
        );
    }

    // second wave against whatever the supervisor rebuilt
    for consumer in CONSUMERS {
        p.submit_task(consumer, query_task());
    }
    let wave = p.run_and_drain();
    for consumer in CONSUMERS {
        assert_eq!(
            wave.iter().filter(|(c, _)| *c == consumer).count(),
            1,
            "seed {seed} (post-heal): every query must be answered; repro plan: {plan}"
        );
    }

    p.world_mut().run_until_idle();
    let bsma = p.bsma_state();
    assert_eq!(
        bsma.roaming_mbas(),
        0,
        "seed {seed}: MBA registry not cleaned up; repro plan: {plan}"
    );
    for (consumer, bra) in bsma.sessions() {
        assert_eq!(
            p.world().location(*bra),
            Some(Location::Active(buyer)),
            "seed {seed}: BRA of consumer {consumer} stuck; repro plan: {plan}"
        );
    }
    let m = p.world().metrics();
    assert!(
        m.failovers <= m.leases_expired,
        "seed {seed}: a failover needs an expired lease first: {m:?}"
    );
    // a crash landing on an already-hung host clears the hang with the
    // host, so detection can trail injection — never exceed it
    assert!(
        m.hangs_detected <= m.hangs_injected,
        "seed {seed}: more bounces than hangs: {m:?}"
    );
}

#[test]
fn supervised_sweep_seeds_01_to_08() {
    for seed in 1..=8 {
        run_supervised_seed(seed);
    }
}

#[test]
fn supervised_sweep_seeds_09_to_16() {
    for seed in 9..=16 {
        run_supervised_seed(seed);
    }
}

#[test]
fn supervised_sweep_seeds_17_to_24() {
    for seed in 17..=24 {
        run_supervised_seed(seed);
    }
}

#[test]
fn supervised_sweep_seeds_25_to_32() {
    for seed in 25..=32 {
        run_supervised_seed(seed);
    }
}

/// Repro hook: `RESILIENCE_SEED=<n> cargo test --test resilience
/// repro_single_supervised_seed` replays one sweep entry.
#[test]
fn repro_single_supervised_seed() {
    if let Ok(seed) = std::env::var("RESILIENCE_SEED") {
        run_supervised_seed(seed.parse().expect("RESILIENCE_SEED must be a u64"));
    }
}

/// Buys under never-healing chaos settle exactly once: receipts + errors
/// equal requests, and the ledger never double-commits.
#[test]
fn buys_under_supervised_chaos_settle_exactly_once() {
    for seed in [201u64, 202, 203, 204] {
        let mut p = supervised_platform(seed);
        p.login(CONSUMER);
        let buyer = p.buyer_host();
        let links: Vec<(HostId, HostId)> = p.markets().iter().map(|m| (buyer, m.host)).collect();
        let market_hosts: Vec<HostId> = p.markets().iter().map(|m| m.host).collect();
        let mut plan = ChaosPlan::generate(
            seed,
            &ChaosConfig::new(HORIZON_US, links, market_hosts.clone()).with_hangs(market_hosts),
        );
        for ev in &mut plan.events {
            if matches!(ev.fault, Fault::CrashHost { .. } | Fault::Hang { .. }) {
                ev.heal_after_us = u64::MAX;
            }
        }
        p.install_chaos(&plan);
        let task = buy_task(&p);
        p.submit_task(CONSUMER, task);
        let wave = p.run_and_drain();
        let receipts = wave
            .iter()
            .filter(|(_, r)| matches!(r, ResponseBody::Receipt { .. }))
            .count();
        let errors = wave
            .iter()
            .filter(|(_, r)| matches!(r, ResponseBody::Error(_)))
            .count();
        assert_eq!(
            receipts + errors,
            1,
            "seed {seed}: receipts+errors must equal requests, got {wave:?}; repro plan: {plan}"
        );
        let recorded = p.pa_state().userdb().transaction_count();
        assert!(
            recorded <= 1,
            "seed {seed}: never a duplicated purchase ({recorded} recorded); repro plan: {plan}"
        );
    }
}

// ---------------------------------------------------------------------
// restart budget: crash-looping host ⇒ quarantine, not eternal restore
// ---------------------------------------------------------------------

#[test]
fn crash_looping_host_exhausts_restart_budget_and_quarantines_agents() {
    let seed = 1303;
    let mut p = Platform::builder(seed)
        .marketplaces(listings())
        .mba_timeout_us(2_000_000)
        .bra_retry(BackoffPolicy::new(200_000, 1_600_000, 3))
        .durability(DurabilityConfig::default())
        .supervision(SupervisionConfig {
            restart_budget: 1,
            ..quick_supervision()
        })
        .build();
    p.login(CONSUMER);
    p.query(CONSUMER, &["rust"], 5);

    // crash 1: the supervisor fails the buyer host over (restore #1, at
    // the budget)
    let buyer = p.buyer_host();
    p.world_mut().crash_host(buyer).unwrap();
    p.world_mut().run_until_idle();
    let standby = p
        .world()
        .failover_of(buyer)
        .expect("first crash fails over");
    let m = p.world().metrics().clone();
    assert!(m.failovers >= 1);
    assert_eq!(m.agents_quarantined, 0, "budget not exhausted yet: {m:?}");

    // crash 2 hits the standby: restore #2 exceeds the budget of 1, so
    // every capsule goes to dead-letters instead of being restored
    p.world_mut().crash_host(standby).unwrap();
    p.world_mut().run_until_idle();
    let m = p.world().metrics().clone();
    assert!(m.failovers >= 2, "{m:?}");
    assert!(
        m.agents_quarantined >= 4,
        "bsma + pa + httpa + bra all quarantined: {m:?}"
    );
    let sup = p.world().supervisor().expect("supervision enabled");
    assert!(sup.quarantined_count() >= 4);
    assert!(p
        .world()
        .trace()
        .labels()
        .iter()
        .any(|l| l.contains("quarantined (restart budget exhausted)")));
}

// ---------------------------------------------------------------------
// DES ≡ ThreadWorld outcome-class equivalence
// ---------------------------------------------------------------------

/// Outcome class of a supervised fault scenario, comparable across
/// runtimes: (request answered, supervisor recovered the host, anything
/// quarantined).
#[derive(Debug, PartialEq)]
struct Outcome {
    answered: bool,
    auto_recovered: bool,
    quarantined: bool,
}

mod runtime_equivalence {
    use super::*;
    use abcrm::core::agents::msg::{kinds as msgkinds, MarketRef, RoutedTask};
    use abcrm::core::agents::{register_all, Bsma, BsmaConfig, BuyerRecommendAgent, ProfileAgent};
    use abcrm::core::learning::LearnerConfig;
    use abcrm::core::similarity::SimilarityConfig;
    use abcrm::ecp::{MarketplaceAgent, SellerAgent};
    use agentsim::agent::{Agent, Ctx};
    use agentsim::ids::AgentId;
    use agentsim::message::Message;
    use agentsim::thread_net::ThreadWorldBuilder;
    use serde::{Deserialize, Serialize};
    use std::time::Duration;

    /// Stand-in for the HttpA front (same as the chaos suite).
    #[derive(Debug, Default, Serialize, Deserialize)]
    struct Probe;

    impl Agent for Probe {
        fn agent_type(&self) -> &'static str {
            "probe"
        }
        fn snapshot(&self) -> serde_json::Value {
            serde_json::json!(null)
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if let Some(target) = msg.payload.get("__send_to") {
                let to = AgentId(target.as_u64().unwrap());
                let inner = Message::new(msg.payload["kind"].as_str().unwrap())
                    .carrying(msg.payload.project("payload"));
                ctx.send(to, inner);
                return;
            }
            ctx.note(format!("probe-reply {}", msg.kind));
        }
    }

    fn instruction(to: AgentId, task: &RoutedTask) -> Message {
        Message::new("instr").carrying(serde_json::json!({
            "__send_to": to.0,
            "kind": msgkinds::BRA_TASK,
            "payload": serde_json::to_value(task).unwrap(),
        }))
    }

    fn query_routed() -> RoutedTask {
        RoutedTask {
            consumer: ConsumerId(1),
            task: super::query_task(),
            blocked_markets: Vec::new(),
        }
    }

    /// DES side: fault the buyer host, let the supervisor recover it,
    /// then ask a question and classify the outcome.
    fn des_outcome(fault: &str) -> Outcome {
        let mut p = supervised_platform(42);
        p.login(CONSUMER);
        let buyer = p.buyer_host();
        match fault {
            "crash" => {
                p.world_mut().crash_host(buyer).unwrap();
                // sends to a dead host are lost by design: let the
                // supervisor finish the failover before asking (the
                // thread side sleeps through its wall-clock lease the
                // same way)
                p.world_mut().run_until_idle();
            }
            _ => {
                let at_us = p.world().now().as_micros() + 10_000;
                let plan = ChaosPlan {
                    seed: 42,
                    dup_probability: 0.0,
                    reorder_probability: 0.0,
                    max_jitter_us: 0,
                    events: vec![ChaosEvent {
                        at_us,
                        heal_after_us: u64::MAX,
                        fault: Fault::Hang { host: buyer },
                    }],
                };
                p.install_chaos(&plan);
            }
        }
        // queries submitted while the host is down/wedged; only the
        // supervisor brings it back
        p.submit_task(CONSUMER, super::query_task());
        let wave = p.run_and_drain();
        let m = p.world().metrics();
        Outcome {
            answered: wave
                .iter()
                .any(|(_, r)| matches!(r, ResponseBody::Recommendations { .. })),
            auto_recovered: m.failovers >= 1 || m.hangs_detected >= 1,
            quarantined: m.agents_quarantined > 0,
        }
    }

    /// ThreadWorld side: the same scenario over real threads and
    /// wall-clock leases.
    fn thread_outcome(fault: &str) -> Outcome {
        let mut builder = ThreadWorldBuilder::new(42);
        register_all(builder.registry_mut());
        builder.registry_mut().register_serde::<Probe>("probe");
        builder
            .durability(DurabilityConfig::default())
            .supervision(SupervisionConfig {
                lease_interval_us: 50_000,
                lease_grace: 1,
                hang_grace_us: 100_000,
                restart_budget: 8,
                backoff_base_us: 50_000,
                backoff_max_us: 500_000,
            });
        let market_host = builder.add_host("m0");
        let seller_host = builder.add_host("seller");
        let buyer_host = builder.add_host("buyer-agent-server");
        let world = builder.start();

        let market_agent = world
            .create_agent(market_host, Box::new(MarketplaceAgent::new("m0")))
            .unwrap();
        let markets = vec![MarketRef {
            host: market_host,
            agent: market_agent,
        }];
        world
            .create_agent(
                seller_host,
                Box::new(SellerAgent::new(
                    1,
                    "s0",
                    vec![listing(
                        1,
                        "Rust Book",
                        "books",
                        "programming",
                        30,
                        &[("rust", 1.0)],
                    )],
                    vec![market_agent],
                )),
            )
            .unwrap();
        assert!(world.run_until_idle(Duration::from_secs(10)).is_idle());

        let retry = BackoffPolicy::new(100_000, 400_000, 1);
        let bsma = world
            .create_agent(
                buyer_host,
                Box::new(Bsma::new(BsmaConfig {
                    target: buyer_host,
                    markets: markets.clone(),
                    mba_timeout_us: 300_000,
                    bra_retry: retry,
                    ..BsmaConfig::default()
                })),
            )
            .unwrap();
        assert!(world.run_until_idle(Duration::from_secs(10)).is_idle());
        let pa = world
            .create_agent(
                buyer_host,
                Box::new(ProfileAgent::new(
                    LearnerConfig::default(),
                    SimilarityConfig::default(),
                )),
            )
            .unwrap();
        let probe = world.create_agent(buyer_host, Box::new(Probe)).unwrap();
        let bra = world
            .create_agent(
                buyer_host,
                Box::new(
                    BuyerRecommendAgent::new(ConsumerId(1), bsma, pa, probe, markets)
                        .with_mba_timeout_us(300_000)
                        .with_retry_policy(retry),
                ),
            )
            .unwrap();
        assert!(world.run_until_idle(Duration::from_secs(10)).is_idle());

        match fault {
            "crash" => {
                world.crash_host(buyer_host).unwrap();
                // leases run on wall time: give the supervisor room to
                // expire the lease and respawn the worker before asking
                std::thread::sleep(Duration::from_millis(400));
                assert!(world.run_until_idle(Duration::from_secs(30)).is_idle());
                world
                    .send_external(probe, instruction(bra, &query_routed()))
                    .unwrap();
            }
            _ => {
                world.hang_host(buyer_host).unwrap();
                // the query stalls in the wedged host's mailbox until the
                // supervisor bounces it — no unhang_host call
                world
                    .send_external(probe, instruction(bra, &query_routed()))
                    .unwrap();
            }
        }
        let status = world.run_until_idle(Duration::from_secs(60));
        assert!(status.is_idle(), "threaded world failed to drain: {status}");
        let (metrics, trace) = world.shutdown();
        let replies = trace.labels_with_prefix("probe-reply ");
        Outcome {
            answered: replies
                .iter()
                .any(|r| *r == format!("probe-reply {}", msgkinds::BRA_RESPONSE)),
            auto_recovered: metrics.failovers >= 1 || metrics.hangs_detected >= 1,
            quarantined: metrics.agents_quarantined > 0,
        }
    }

    #[test]
    fn crash_failover_outcome_class_matches_across_runtimes() {
        let des = des_outcome("crash");
        let thread = thread_outcome("crash");
        assert_eq!(
            des,
            Outcome {
                answered: true,
                auto_recovered: true,
                quarantined: false
            },
            "DES crash-failover outcome"
        );
        assert_eq!(des, thread, "runtimes must agree on the outcome class");
    }

    #[test]
    fn hang_bounce_outcome_class_matches_across_runtimes() {
        let des = des_outcome("hang");
        let thread = thread_outcome("hang");
        assert_eq!(
            des,
            Outcome {
                answered: true,
                auto_recovered: true,
                quarantined: false
            },
            "DES hang-bounce outcome"
        );
        assert_eq!(des, thread, "runtimes must agree on the outcome class");
    }
}

// ---------------------------------------------------------------------
// file-backed WAL: a durable store survives a real reopen
// ---------------------------------------------------------------------

#[test]
fn file_backed_store_round_trips_through_reopen() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("resilience");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("host-0.wal");
    let _ = std::fs::remove_file(&path);
    let mut snap = path.as_os_str().to_os_string();
    snap.push(".snap");
    let _ = std::fs::remove_file(std::path::PathBuf::from(snap));

    let cfg = DurabilityConfig {
        checkpoint_every: 0,
        sync_every: 1,
    };
    {
        let mut store = DurableStore::with_file(cfg, &path).unwrap();
        assert!(store.is_file_backed());
        store
            .put_capsule(7, serde_json::json!({"x": 1}), true)
            .unwrap();
        store
            .log_intent(42, serde_json::json!({"item": 1}))
            .unwrap();
        store
            .log_commit(42, serde_json::json!({"price": 30}))
            .unwrap();
        store.log_delta(9, serde_json::json!({"d": 1})).unwrap();
        // dropped without ceremony: a process exit
    }
    {
        let store = DurableStore::with_file(cfg, &path).unwrap();
        let state = store.state();
        assert_eq!(
            state.capsules.get(&7).unwrap().capsule.to_value().unwrap()["x"],
            1
        );
        assert!(matches!(
            state.intents.get(&42),
            Some(agentsim::durable::IntentState::Committed(_))
        ));
        assert_eq!(state.deltas_for(9).len(), 1);
        assert_eq!(store.wal_len(), 4, "the full log survived on disk");
    }
    // checkpoint writes the snapshot beside the log and truncates it;
    // reopening replays snapshot + empty log to the same state
    {
        let mut store = DurableStore::with_file(cfg, &path).unwrap();
        store.checkpoint(Vec::new()).unwrap();
        assert_eq!(store.wal_len(), 0);
    }
    {
        let store = DurableStore::with_file(cfg, &path).unwrap();
        assert_eq!(store.wal_len(), 0);
        assert_eq!(
            store
                .state()
                .capsules
                .get(&7)
                .unwrap()
                .capsule
                .to_value()
                .unwrap()["x"],
            1
        );
        assert!(matches!(
            store.state().intents.get(&42),
            Some(agentsim::durable::IntentState::Committed(_))
        ));
    }
}
