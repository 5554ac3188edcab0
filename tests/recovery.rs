//! Crash-point recovery matrix: durable platforms killed at every named
//! stage of the Fig 4.3 buy workflow, then restarted and driven to
//! quiescence (experiment E14).
//!
//! Each stage crashes the Buyer Agent Server host at a specific point of
//! the two-phase purchase protocol and asserts the two invariants the
//! durability layer promises:
//!
//! * **exactly-once observable purchase effects** — the marketplace's
//!   `units_sold` equals the number of receipts the consumer got, no
//!   matter how many retries or replays the crash provokes;
//! * **completion or clean abort** — the consumer always receives either
//!   a `Receipt` or an explicit `Error` naming the abort; silence and
//!   double-receipts are both failures.
//!
//! Crash points are targeted with a probe run: the same seed is first
//! run crash-free to record the sim-time of each workflow marker, then
//! re-run with `run_until(marker)` + `crash_host` + `restart_host`.
//! Determinism makes the two runs identical up to the crash.
//!
//! Stages covered (with the marker each anchors to):
//!
//! | stage                     | anchor                      | recovery path              |
//! |---------------------------|-----------------------------|----------------------------|
//! | pre-migration             | step04 profile request      | BRA re-requests profile    |
//! | at-marketplace            | step08 BRA deactivated      | MBA home-retry + watchdog  |
//! | post-intent / pre-commit  | step08 + lossy dispatch     | ledger "unknown" → retry   |
//! | post-commit / pre-return  | step09 + lossy return       | ledger "committed" → receipt |
//! | mid-profile-update        | after receipt               | PA delta replay            |

use abcrm::core::agents::msg::{BuyMode, ConsumerTask, ResponseBody};
use abcrm::core::profile::ConsumerId;
use abcrm::core::server::{listing, Platform, ShardedPlatform};
use abcrm::core::BackoffPolicy;
use agentsim::clock::{SimDuration, SimTime};
use agentsim::durable::DurabilityConfig;
use agentsim::net::LinkSpec;
use ecp::merchandise::ItemId;

const CONSUMER: ConsumerId = ConsumerId(1);

fn listings() -> Vec<Vec<ecp::protocol::Listing>> {
    vec![vec![
        listing(1, "Rust Book", "books", "programming", 30, &[("rust", 1.0)]),
        listing(2, "Go Book", "books", "programming", 25, &[("go", 1.0)]),
    ]]
}

fn durable_platform_with(seed: u64, retry: BackoffPolicy) -> Platform {
    Platform::builder(seed)
        .marketplaces(listings())
        .mba_timeout_us(2_000_000)
        .bra_retry(retry)
        .durability(DurabilityConfig::default())
        .build()
}

fn durable_platform(seed: u64) -> Platform {
    durable_platform_with(seed, BackoffPolicy::new(200_000, 1_600_000, 3))
}

fn buy_task(p: &Platform) -> ConsumerTask {
    ConsumerTask::Buy {
        item: ItemId(1),
        market: p.markets()[0],
        mode: BuyMode::Direct,
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

/// Probe run: drive the buy crash-free and report the sim-time of the
/// first trace event whose label contains `marker`.
fn probe_marker_with(seed: u64, retry: BackoffPolicy, marker: &str) -> SimTime {
    let mut p = durable_platform_with(seed, retry);
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

fn probe_marker(seed: u64, marker: &str) -> SimTime {
    probe_marker_with(seed, BackoffPolicy::new(200_000, 1_600_000, 3), marker)
}

/// The matrix invariant: exactly one terminal reply, and observable
/// sales equal to the number of receipts.
fn assert_exactly_once(p: &Platform, wave: &[(ConsumerId, ResponseBody)], stage: &str) {
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
        "{stage}: exactly one terminal reply expected, got {wave:?}"
    );
    assert_eq!(
        units_sold(p, ItemId(1)),
        receipts as u32,
        "{stage}: marketplace sales must match receipts (exactly-once)"
    );
}

// ---------------------------------------------------------------------
// stage 1: crash pre-migration (BRA waiting for the PA profile)
// ---------------------------------------------------------------------

#[test]
fn stage_pre_migration_crash_recovers_and_completes() {
    let seed = 101;
    let at = probe_marker(seed, "fig4.3/step04");
    let mut p = durable_platform(seed);
    p.login(CONSUMER);
    let task = buy_task(&p);
    p.submit_task(CONSUMER, task);
    p.world_mut().run_until(at + SimDuration::from_micros(1));
    let host = p.buyer_host();
    p.world_mut().crash_host(host).unwrap();
    p.world_mut().run_for(SimDuration::from_micros(100));
    p.world_mut().restart_host(host).unwrap();
    let wave = p.run_and_drain();
    assert_exactly_once(&p, &wave, "pre-migration");
    assert!(
        wave.iter()
            .any(|(_, r)| matches!(r, ResponseBody::Receipt { .. })),
        "a pre-migration crash must still complete the buy: {wave:?}"
    );
    let m = p.world().metrics();
    assert_eq!(m.hosts_recovered, 1);
    assert!(
        m.agents_recovered >= 4,
        "bsma + pa + httpa + bra restored: {m:?}"
    );
    assert!(m.wal_records_replayed > 0);
    // the BRA re-requested the profile rather than stalling
    assert!(p
        .world()
        .trace()
        .labels()
        .iter()
        .any(|l| l.contains("re-requesting profile")));
}

// ---------------------------------------------------------------------
// stage 2: crash at-marketplace (MBA away, BRA capsule in the store)
// ---------------------------------------------------------------------

#[test]
fn stage_at_marketplace_crash_mba_retries_home_until_restart() {
    let seed = 202;
    let dispatched = probe_marker(seed, "fig4.3/step08");
    let mut p = durable_platform(seed);
    p.login(CONSUMER);
    let task = buy_task(&p);
    p.submit_task(CONSUMER, task);
    // the MBA is in flight to the marketplace; the BRA is deactivated
    p.world_mut()
        .run_until(dispatched + SimDuration::from_micros(50));
    assert_eq!(p.world().metrics().deactivations, 1, "bra parked");
    let host = p.buyer_host();
    p.world_mut().crash_host(host).unwrap();
    // stay down long enough that the MBA's first return attempt finds
    // the host dead and has to back off
    p.world_mut().run_for(SimDuration::from_micros(500));
    p.world_mut().restart_host(host).unwrap();
    let wave = p.run_and_drain();
    assert_exactly_once(&p, &wave, "at-marketplace");
    assert!(
        wave.iter()
            .any(|(_, r)| matches!(r, ResponseBody::Receipt { .. })),
        "the roaming mba must deliver its result after the restart: {wave:?}"
    );
    let m = p.world().metrics();
    assert_eq!(m.hosts_recovered, 1);
    assert_eq!(m.purchases_committed, 1);
    assert_eq!(m.intents_logged, 1);
}

// ---------------------------------------------------------------------
// stage 3: crash post-intent / pre-commit (MBA lost before the market,
// ledger shows no commit → safe retry with the SAME intent)
// ---------------------------------------------------------------------

#[test]
fn stage_post_intent_crash_resolves_via_ledger_and_retries_same_intent() {
    let seed = 303;
    let dispatched = probe_marker(seed, "fig4.3/step08");
    let mut p = durable_platform(seed);
    p.login(CONSUMER);
    let market_host = p.markets()[0].host;
    let buyer_host = p.buyer_host();
    // the dispatch link eats the MBA: the intent is journalled but no
    // purchase ever happens at the marketplace
    p.world_mut().topology_mut().set_link_symmetric(
        buyer_host,
        market_host,
        LinkSpec::lan().lossy(1.0),
    );
    let task = buy_task(&p);
    p.submit_task(CONSUMER, task);
    p.world_mut()
        .run_until(dispatched + SimDuration::from_micros(50));
    p.world_mut().crash_host(buyer_host).unwrap();
    p.world_mut().run_for(SimDuration::from_micros(500));
    p.world_mut().restart_host(buyer_host).unwrap();
    // the outage that killed the MBA heals; the retry can go through
    p.world_mut()
        .topology_mut()
        .set_link_symmetric(buyer_host, market_host, LinkSpec::lan());
    let wave = p.run_and_drain();
    assert_exactly_once(&p, &wave, "post-intent");
    assert!(
        wave.iter()
            .any(|(_, r)| matches!(r, ResponseBody::Receipt { .. })),
        "ledger-unknown must lead to a retried, completed buy: {wave:?}"
    );
    let m = p.world().metrics();
    assert_eq!(
        m.intents_logged, 1,
        "the retry must reuse the journalled intent, not mint a second: {m:?}"
    );
    assert_eq!(m.purchases_committed, 1);
    assert_eq!(m.purchases_aborted, 0);
    assert!(m.retries >= 1, "the lost mba must have been retried: {m:?}");
    assert_eq!(
        m.intents_resolved_by_ledger, 0,
        "the commit came from the real second trip, not the ledger"
    );
}

#[test]
fn stage_post_intent_without_retries_aborts_cleanly() {
    let seed = 313;
    let retry = BackoffPolicy::none();
    let dispatched = probe_marker_with(seed, retry, "fig4.3/step08");
    let mut p = durable_platform_with(seed, retry);
    p.login(CONSUMER);
    let market_host = p.markets()[0].host;
    let buyer_host = p.buyer_host();
    p.world_mut().topology_mut().set_link_symmetric(
        buyer_host,
        market_host,
        LinkSpec::lan().lossy(1.0),
    );
    let task = buy_task(&p);
    p.submit_task(CONSUMER, task);
    p.world_mut()
        .run_until(dispatched + SimDuration::from_micros(50));
    p.world_mut().crash_host(buyer_host).unwrap();
    p.world_mut().run_for(SimDuration::from_micros(500));
    p.world_mut().restart_host(buyer_host).unwrap();
    p.world_mut()
        .topology_mut()
        .set_link_symmetric(buyer_host, market_host, LinkSpec::lan());
    let wave = p.run_and_drain();
    assert_exactly_once(&p, &wave, "post-intent abort");
    match &wave[0].1 {
        ResponseBody::Error(e) => assert!(
            e.contains("aborted") && e.contains("ledger"),
            "the abort must name the ledger check: {e}"
        ),
        other => panic!("retries exhausted must abort explicitly, got {other:?}"),
    }
    let m = p.world().metrics();
    assert_eq!(m.purchases_aborted, 1, "{m:?}");
    assert_eq!(m.purchases_committed, 0);
    assert_eq!(units_sold(&p, ItemId(1)), 0, "nothing was ever sold");
}

// ---------------------------------------------------------------------
// stage 4: crash post-commit / pre-return (sale recorded, MBA dies on
// the way home, ledger answers "committed" → receipt without re-buying)
// ---------------------------------------------------------------------

#[test]
fn stage_post_commit_crash_recovers_receipt_from_ledger() {
    let seed = 404;
    let at_market = probe_marker(seed, "fig4.3/step09");
    let mut p = durable_platform(seed);
    p.login(CONSUMER);
    let market_host = p.markets()[0].host;
    let buyer_host = p.buyer_host();
    let task = buy_task(&p);
    p.submit_task(CONSUMER, task);
    // let the MBA arrive and execute the buy, then cut the return path:
    // the sale is recorded at the marketplace but the MBA never gets home
    p.world_mut().run_until(at_market);
    p.world_mut().topology_mut().set_link_symmetric(
        buyer_host,
        market_host,
        LinkSpec::lan().lossy(1.0),
    );
    // crash the buyer host while the outcome is in doubt
    p.world_mut().run_for(SimDuration::from_micros(100_000));
    p.world_mut().crash_host(buyer_host).unwrap();
    p.world_mut().run_for(SimDuration::from_micros(50_000));
    p.world_mut().restart_host(buyer_host).unwrap();
    p.world_mut()
        .topology_mut()
        .set_link_symmetric(buyer_host, market_host, LinkSpec::lan());
    let wave = p.run_and_drain();
    assert_exactly_once(&p, &wave, "post-commit");
    match &wave[0].1 {
        ResponseBody::Receipt { item, channel, .. } => {
            assert_eq!(item.id, ItemId(1));
            assert!(
                channel.contains("ledger"),
                "the receipt must be marked as ledger-recovered: {channel}"
            );
        }
        other => panic!("a committed sale must produce a receipt, got {other:?}"),
    }
    assert_eq!(
        units_sold(&p, ItemId(1)),
        1,
        "the ledger answer must prevent a second purchase"
    );
    let m = p.world().metrics();
    assert_eq!(m.intents_resolved_by_ledger, 1, "{m:?}");
    assert_eq!(m.intents_logged, 1);
    assert_eq!(
        m.purchases_committed, 1,
        "the ledger resolution journals the commit exactly once"
    );
}

// ---------------------------------------------------------------------
// stage 5: crash mid/after profile update (receipt delivered, learned
// profile must survive via delta replay)
// ---------------------------------------------------------------------

#[test]
fn stage_profile_update_crash_replays_deltas() {
    let seed = 505;
    let mut p = durable_platform(seed);
    p.login(CONSUMER);
    let task = buy_task(&p);
    p.submit_task(CONSUMER, task);
    let wave = p.run_and_drain();
    assert_exactly_once(&p, &wave, "clean run");
    let interest_before = p
        .pa_state()
        .store()
        .profile(CONSUMER)
        .expect("profile learned")
        .total_interest();
    assert!(interest_before > 0.0);
    assert_eq!(p.pa_state().userdb().transaction_count(), 1);

    let host = p.buyer_host();
    p.world_mut().crash_host(host).unwrap();
    p.world_mut().run_for(SimDuration::from_micros(100));
    p.world_mut().restart_host(host).unwrap();
    p.world_mut().run_until_idle();

    // the learned profile came back from the journalled deltas
    let pa = p.pa_state();
    let interest_after = pa
        .store()
        .profile(CONSUMER)
        .expect("profile survives the crash")
        .total_interest();
    assert!(
        (interest_after - interest_before).abs() < 1e-9,
        "replayed profile must match the learned one: {interest_before} vs {interest_after}"
    );
    assert_eq!(
        pa.userdb().transaction_count(),
        1,
        "the transaction record is replayed exactly once"
    );
    assert_eq!(units_sold(&p, ItemId(1)), 1, "no replay-driven re-buy");
    let m = p.world().metrics();
    assert!(m.profile_deltas_replayed >= 1, "{m:?}");
    assert_eq!(m.purchases_committed, 1);

    // the platform is fully operational after recovery: a second,
    // different buy completes and learns on top of the replayed profile
    let wave = {
        p.submit_task(
            CONSUMER,
            ConsumerTask::Buy {
                item: ItemId(2),
                market: p.markets()[0],
                mode: BuyMode::Direct,
            },
        );
        p.run_and_drain()
    };
    assert!(
        wave.iter()
            .any(|(_, r)| matches!(r, ResponseBody::Receipt { .. })),
        "post-recovery buy must work: {wave:?}"
    );
    assert_eq!(units_sold(&p, ItemId(2)), 1);
    assert_eq!(p.pa_state().userdb().transaction_count(), 2);
}

// ---------------------------------------------------------------------
// dead-agent leak regression: capsules stranded by a crash must be
// restored, and the stable store must return to its quiescent baseline
// ---------------------------------------------------------------------

#[test]
fn crashed_capsules_are_restored_and_store_returns_to_baseline() {
    let seed = 606;
    let dispatched = probe_marker(seed, "fig4.3/step08");
    let mut p = durable_platform(seed);
    p.login(CONSUMER);
    let host = p.buyer_host();
    let baseline_bytes = p.world().stored_bytes(host);
    let baseline_count = p.world().stored_count(host);
    let task = buy_task(&p);
    p.submit_task(CONSUMER, task);
    p.world_mut()
        .run_until(dispatched + SimDuration::from_micros(50));
    // the BRA capsule is in the stable store right now; the crash strands
    // it and the recovery pass must bring it back (pre-durability this
    // was the dead-agent leak: the capsule was unreachable forever)
    assert!(p.world().stored_count(host) > baseline_count);
    p.world_mut().crash_host(host).unwrap();
    p.world_mut().run_for(SimDuration::from_micros(500));
    p.world_mut().restart_host(host).unwrap();
    let wave = p.run_and_drain();
    assert_exactly_once(&p, &wave, "leak regression");
    // at quiescence every recovered capsule has been re-activated or
    // consumed: the store is back to its pre-task baseline
    assert_eq!(
        p.world().stored_count(host),
        baseline_count,
        "no capsule may be stranded in the store after recovery"
    );
    assert_eq!(
        p.world().stored_bytes(host),
        baseline_bytes,
        "stored bytes must return to baseline after recovery"
    );
    // and the restored BRA still serves: a follow-up query answers
    let responses = p.query(CONSUMER, &["rust"], 5);
    assert!(
        matches!(&responses[0], ResponseBody::Recommendations { .. }),
        "recovered session must keep serving: {responses:?}"
    );
}

// ---------------------------------------------------------------------
// front-door rollback regression: a crash rolls the HttpA back to its
// last synced capsule, and replies after the restart must still reach
// the browser
// ---------------------------------------------------------------------

#[test]
fn replies_after_a_front_door_rollback_still_reach_the_browser() {
    let mut p = Platform::builder(808)
        .marketplaces(listings())
        .mba_timeout_us(2_000_000)
        .durability(DurabilityConfig {
            sync_every: 64,
            ..DurabilityConfig::default()
        })
        .build();
    p.login(CONSUMER);
    // the purchase records force a sync, which makes the HttpA capsule
    // journalled at that point durable
    let receipt = p.buy(CONSUMER, ItemId(1), 0, BuyMode::Direct);
    assert!(
        matches!(&receipt[..], [ResponseBody::Receipt { .. }]),
        "clean buy: {receipt:?}"
    );
    // these logins stay below the 64-record sync batch: a crash loses them
    for c in 2..=6 {
        assert_eq!(p.login(ConsumerId(c)), vec![ResponseBody::LoggedIn]);
    }
    let host = p.buyer_host();
    p.world_mut().crash_host(host).unwrap();
    p.world_mut().restart_host(host).unwrap();
    // the HttpA came back older than the replies already delivered; a
    // reply cursor kept over its state would now sit past every new reply
    let responses = p.query(CONSUMER, &["rust"], 5);
    assert!(
        !responses.is_empty(),
        "the query after the rollback must be answered"
    );
    assert_eq!(
        units_sold(&p, ItemId(1)),
        1,
        "the rollback must not repeat or lose the purchase"
    );
}

// ---------------------------------------------------------------------
// crash sweep: deterministic crash points swept across the whole buy
// window, every one exactly-once
// ---------------------------------------------------------------------

#[test]
fn crash_sweep_over_the_buy_window_is_exactly_once_everywhere() {
    for seed in 0..16u64 {
        // the ingress hops (HttpA → BSMA → BRA) are outside the durable
        // protocol — a request that never reached a BRA has no intent to
        // recover — so the sweep starts at the first BRA-owned stage
        let from = probe_marker(seed, "fig4.3/step04").as_micros();
        let to = probe_marker(seed, "fig4.3/step14").as_micros();
        let crash_at = from + (seed * 97) % (to - from + 1);
        let down_for = 200 + (seed * 53) % 800;

        let mut p = durable_platform(seed);
        p.login(CONSUMER);
        let task = buy_task(&p);
        p.submit_task(CONSUMER, task);
        p.world_mut().run_until(SimTime(crash_at));
        let host = p.buyer_host();
        p.world_mut().crash_host(host).unwrap();
        p.world_mut().run_for(SimDuration::from_micros(down_for));
        p.world_mut().restart_host(host).unwrap();
        let wave = p.run_and_drain();
        assert_exactly_once(&p, &wave, &format!("sweep seed {seed} crash@{crash_at}us"));
        let m = p.world().metrics();
        assert_eq!(m.hosts_recovered, 1, "seed {seed}: {m:?}");
        assert!(
            m.purchases_committed <= 1,
            "seed {seed}: at most one commit ever: {m:?}"
        );
    }
}

// ---------------------------------------------------------------------
// durability off: byte-identical traces, zero counters
// ---------------------------------------------------------------------

#[test]
fn durability_off_keeps_traces_byte_identical_and_counters_zero() {
    let seed = 707;
    let build_plain = || {
        Platform::builder(seed)
            .marketplaces(listings())
            .mba_timeout_us(2_000_000)
            .bra_retry(BackoffPolicy::new(200_000, 1_600_000, 3))
            .build()
    };
    let mut plain = build_plain();
    let mut durable = durable_platform(seed);

    for p in [&mut plain, &mut durable] {
        p.login(CONSUMER);
        let task = buy_task(p);
        p.submit_task(CONSUMER, task);
        let wave = p.run_and_drain();
        assert!(wave
            .iter()
            .any(|(_, r)| matches!(r, ResponseBody::Receipt { .. })));
        p.query(CONSUMER, &["rust"], 5);
    }

    // identical trace, event for event (journaling adds no trace noise)
    assert_eq!(
        plain.world().trace().labels(),
        durable.world().trace().labels(),
        "durability must not perturb the workflow trace"
    );
    // the plain platform has every durability counter at zero…
    let pm = plain.world().metrics().clone();
    assert_eq!(pm.wal_records_appended, 0);
    assert_eq!(pm.wal_records_replayed, 0);
    assert_eq!(pm.checkpoints, 0);
    assert_eq!(pm.hosts_recovered, 0);
    assert_eq!(pm.agents_recovered, 0);
    assert_eq!(pm.intents_logged, 0);
    assert_eq!(pm.purchases_committed, 0);
    assert_eq!(pm.purchases_aborted, 0);
    assert_eq!(pm.intents_resolved_by_ledger, 0);
    assert_eq!(pm.profile_deltas_logged, 0);
    assert_eq!(pm.profile_deltas_replayed, 0);
    // …and the durable run matches it on every legacy counter. The one
    // sanctioned difference besides the counters: a durable buy's MBA
    // carries its intent id on the wire, so migrated capsules are a few
    // bytes larger.
    let mut dm = durable.world().metrics().clone();
    dm.wal_records_appended = 0;
    dm.checkpoints = 0;
    dm.intents_logged = 0;
    dm.purchases_committed = 0;
    dm.profile_deltas_logged = 0;
    assert!(
        dm.migration_bytes >= pm.migration_bytes,
        "the intent id only ever adds bytes"
    );
    dm.migration_bytes = pm.migration_bytes;
    assert_eq!(pm, dm, "durability must be invisible outside its counters");
}

// ---------------------------------------------------------------------
// checkpointing bounds replay
// ---------------------------------------------------------------------

#[test]
fn checkpoints_bound_replay_cost() {
    let run = |checkpoint_every: usize| {
        let mut p = Platform::builder(808)
            .marketplaces(listings())
            .mba_timeout_us(2_000_000)
            .bra_retry(BackoffPolicy::new(200_000, 1_600_000, 3))
            .durability(DurabilityConfig {
                checkpoint_every,
                sync_every: 1,
            })
            .build();
        p.login(CONSUMER);
        for _ in 0..6 {
            p.query(CONSUMER, &["rust"], 5);
        }
        let host = p.buyer_host();
        p.world_mut().crash_host(host).unwrap();
        p.world_mut().run_for(SimDuration::from_micros(100));
        p.world_mut().restart_host(host).unwrap();
        p.world_mut().run_until_idle();
        let m = p.world().metrics().clone();
        // recovered platform still serves
        let responses = p.query(CONSUMER, &["rust"], 5);
        assert!(matches!(
            &responses[0],
            ResponseBody::Recommendations { .. }
        ));
        m
    };
    let without = run(0);
    let with = run(32);
    assert_eq!(without.checkpoints, 0);
    assert!(with.checkpoints >= 1, "{with:?}");
    assert!(
        with.wal_records_replayed < without.wal_records_replayed,
        "checkpointing must shrink the replayed log: {} vs {}",
        with.wal_records_replayed,
        without.wal_records_replayed
    );
}

// ---------------------------------------------------------------------
// marketplace host crash: the seller side recovers its sales and ledger
// ---------------------------------------------------------------------

/// Test buyer standing in for a visiting MBA: an `instr` message makes it
/// send the carried message to the marketplace; every other message it
/// receives is a marketplace answer and is recorded.
#[derive(Debug, Default, serde::Serialize, serde::Deserialize)]
struct MarketProbe {
    answers: Vec<(String, serde_json::Value)>,
}

impl agentsim::agent::Agent for MarketProbe {
    fn agent_type(&self) -> &'static str {
        "market-probe"
    }
    fn snapshot(&self) -> serde_json::Value {
        serde_json::to_value(self).unwrap()
    }
    fn on_message(&mut self, ctx: &mut agentsim::agent::Ctx<'_>, msg: agentsim::message::Message) {
        if msg.kind.as_str() == "instr" {
            let to = agentsim::ids::AgentId(msg.payload["to"].as_u64().unwrap());
            let kind = msg.payload["kind"].as_str().unwrap().to_string();
            let inner = agentsim::message::Message::new(kind).carrying(msg.payload.project("body"));
            ctx.send(to, inner);
            return;
        }
        self.answers
            .push((msg.kind.to_string(), msg.payload.to_value()));
    }
}

/// Send `body` as a `kind` message from `probe` to the marketplace and
/// return the answer it gets back.
fn ask_market<T: serde::Serialize>(
    p: &mut Platform,
    probe: agentsim::ids::AgentId,
    kind: &str,
    body: &T,
) -> (String, serde_json::Value) {
    let instr = agentsim::message::Message::new("instr").carrying(serde_json::json!({
        "to": p.markets()[0].agent.0,
        "kind": kind,
        "body": serde_json::to_value(body).unwrap(),
    }));
    p.world_mut().send_external(probe, instr).unwrap();
    p.world_mut().run_until_idle();
    let state: MarketProbe = serde_json::from_value(p.world().snapshot_of(probe).unwrap()).unwrap();
    state
        .answers
        .last()
        .cloned()
        .expect("the marketplace answered")
}

#[test]
fn marketplace_host_crash_keeps_sales_and_ledger() {
    let mut p = Platform::builder(909)
        .marketplaces(listings())
        .mba_timeout_us(2_000_000)
        .bra_retry(BackoffPolicy::new(200_000, 1_600_000, 3))
        // small: the market host recovers from a snapshot plus the log
        // written since
        .durability(DurabilityConfig {
            checkpoint_every: 2,
            sync_every: 1,
        })
        .build();
    p.world_mut()
        .registry_mut()
        .register_serde::<MarketProbe>("market-probe");
    let probe_host = p.world_mut().add_host("probe");
    let probe = p
        .world_mut()
        .create_agent(probe_host, Box::new(MarketProbe::default()))
        .unwrap();
    p.login(CONSUMER);
    let task = buy_task(&p);
    p.submit_task(CONSUMER, task);
    let wave = p.run_and_drain();
    assert_exactly_once(&p, &wave, "committed buy");
    assert_eq!(units_sold(&p, ItemId(1)), 1);
    let intents = &p
        .world()
        .durable_store(p.buyer_host())
        .expect("durable buyer host")
        .state()
        .intents;
    assert_eq!(intents.len(), 1, "{intents:?}");
    let intent = *intents.keys().next().unwrap();
    let market_host = p.markets()[0].host;
    let checkpoints = p.world().metrics().checkpoints;
    assert!(checkpoints >= 1, "the market host must have checkpointed");

    p.world_mut().crash_host(market_host).unwrap();
    p.world_mut().run_for(SimDuration::from_micros(100));
    p.world_mut().restart_host(market_host).unwrap();
    p.world_mut().run_until_idle();
    assert!(p.world().metrics().agents_recovered >= 1);
    assert_eq!(units_sold(&p, ItemId(1)), 1, "the sale survived the crash");

    let (kind, body) = ask_market(
        &mut p,
        probe,
        ecp::protocol::kinds::LEDGER_QUERY,
        &ecp::protocol::LedgerQuery { intent },
    );
    assert_eq!(kind, ecp::protocol::kinds::LEDGER_REPLY);
    let reply: ecp::protocol::LedgerReply = serde_json::from_value(body).unwrap();
    assert_eq!(reply.intent, intent);
    let committed = reply.committed.expect("the ledger still knows the intent");
    assert_eq!(committed.item.id, ItemId(1));

    // a buyer retrying under the same intent is answered from the ledger
    let (kind, body) = ask_market(
        &mut p,
        probe,
        ecp::protocol::kinds::BUY_REQUEST,
        &ecp::protocol::BuyRequest {
            item: ItemId(1),
            intent: Some(intent),
        },
    );
    assert_eq!(kind, ecp::protocol::kinds::BUY_CONFIRM);
    let confirm: ecp::protocol::BuyConfirm = serde_json::from_value(body).unwrap();
    assert_eq!(confirm, committed);
    assert_eq!(
        units_sold(&p, ItemId(1)),
        1,
        "the retry must not sell twice"
    );
}

// ---------------------------------------------------------------------
// sharded platforms: the same crash-and-recover path at 1, 2 and 4 shards
// ---------------------------------------------------------------------

#[test]
fn sharded_buy_survives_buyer_host_crash_at_1_2_4_shards() {
    for shards in [1usize, 2, 4] {
        let seed = 900 + shards as u64;
        let build = || {
            ShardedPlatform::builder(seed, shards)
                .marketplaces(listings())
                .mba_timeout_us(2_000_000)
                .bra_retry(BackoffPolicy::new(200_000, 1_600_000, 3))
                .durability(DurabilityConfig::default())
                .build()
        };
        // pick a consumer owned by the LAST shard so the crash exercises
        // a cross-shard trip whenever shards > 1
        let probe = build();
        let consumer = (1..10_000u64)
            .map(ConsumerId)
            .find(|c| probe.shard_of(*c) == shards - 1)
            .expect("hash covers the last shard");
        // probe the dispatch marker on a clean run
        let mut clean = build();
        clean.login(consumer);
        clean.submit_task(
            consumer,
            ConsumerTask::Buy {
                item: ItemId(1),
                market: clean.markets()[0],
                mode: BuyMode::Direct,
            },
        );
        let wave = clean.run_and_drain();
        assert!(
            wave.iter()
                .any(|(_, r)| matches!(r, ResponseBody::Receipt { .. })),
            "{shards}-shard probe run must complete: {wave:?}"
        );
        let dispatched = clean
            .world()
            .trace_events()
            .iter()
            .find(|e| e.label.contains("fig4.3/step08"))
            .expect("dispatch marker present")
            .at;

        let mut p = build();
        p.login(consumer);
        p.submit_task(
            consumer,
            ConsumerTask::Buy {
                item: ItemId(1),
                market: p.markets()[0],
                mode: BuyMode::Direct,
            },
        );
        p.world_mut()
            .run_until(dispatched + SimDuration::from_micros(50));
        let buyer_host = p.buyer_host(shards - 1);
        p.world_mut().crash_host(buyer_host).unwrap();
        p.world_mut()
            .run_until(dispatched + SimDuration::from_micros(550));
        p.world_mut().restart_host(buyer_host).unwrap();
        p.world_mut().run_until_idle();
        let wave = p.run_and_drain();
        let receipts = wave
            .iter()
            .filter(|(_, r)| matches!(r, ResponseBody::Receipt { .. }))
            .count();
        assert_eq!(receipts, 1, "{shards} shards: {wave:?}");
        let snapshot = p
            .world()
            .shard(0)
            .snapshot_of(p.markets()[0].agent)
            .expect("marketplace active");
        let market: ecp::MarketplaceAgent = serde_json::from_value(snapshot).expect("state parses");
        assert_eq!(
            market.units_sold(ItemId(1)),
            1,
            "{shards} shards: exactly one sale"
        );
        let m = p.metrics();
        assert_eq!(m.hosts_recovered, 1, "{shards} shards: {m:?}");
        assert_eq!(m.purchases_committed, 1, "{shards} shards: {m:?}");
    }
}

// ---------------------------------------------------------------------
// DES ≡ ThreadWorld: the same crash plan lands in the same outcome class
// on both runtimes
// ---------------------------------------------------------------------

/// The recovery outcome class both runtimes must agree on for the
/// buy → crash → restart → buy scenario.
#[derive(Debug, PartialEq, Eq)]
struct OutcomeClass {
    receipts: usize,
    intents_logged: u64,
    purchases_committed: u64,
    purchases_aborted: u64,
    hosts_recovered: u64,
}

/// Drive the scenario on the deterministic DES.
fn des_outcome(seed: u64) -> OutcomeClass {
    let mut p = durable_platform(seed);
    p.login(CONSUMER);
    let mut receipts = 0usize;
    for item in [ItemId(1), ItemId(2)] {
        p.submit_task(
            CONSUMER,
            ConsumerTask::Buy {
                item,
                market: p.markets()[0],
                mode: BuyMode::Direct,
            },
        );
        let wave = p.run_and_drain();
        receipts += wave
            .iter()
            .filter(|(_, r)| matches!(r, ResponseBody::Receipt { .. }))
            .count();
        if item == ItemId(1) {
            let host = p.buyer_host();
            p.world_mut().crash_host(host).unwrap();
            p.world_mut().run_for(SimDuration::from_micros(500));
            p.world_mut().restart_host(host).unwrap();
            p.world_mut().run_until_idle();
        }
    }
    let m = p.world().metrics();
    OutcomeClass {
        receipts,
        intents_logged: m.intents_logged,
        purchases_committed: m.purchases_committed,
        purchases_aborted: m.purchases_aborted,
        hosts_recovered: m.hosts_recovered,
    }
}

/// Drive the same scenario on real threads.
fn thread_outcome(seed: u64, workers: usize) -> OutcomeClass {
    use abcrm::core::agents::msg::{kinds as msgkinds, MarketRef, RoutedTask, SessionRequest};
    use abcrm::core::agents::{register_all, Bsma, BsmaConfig};
    use agentsim::message::Message;
    use agentsim::thread_net::ThreadWorldBuilder;
    use std::time::Duration;

    let mut builder = ThreadWorldBuilder::new(seed);
    builder
        .workers(workers)
        .durability(DurabilityConfig::default());
    register_all(builder.registry_mut());
    let market_host = builder.add_host("marketplace");
    let seller_host = builder.add_host("seller");
    let buyer_host = builder.add_host("buyer-agent-server");
    let world = builder.start();

    let market = world
        .create_agent(market_host, Box::new(ecp::MarketplaceAgent::new("m0")))
        .unwrap();
    world
        .create_agent(
            seller_host,
            Box::new(ecp::SellerAgent::new(
                1,
                "s0",
                listings().remove(0),
                vec![market],
            )),
        )
        .unwrap();
    assert!(world.run_until_idle(Duration::from_secs(10)).is_idle());

    let bsma = world
        .create_agent(
            buyer_host,
            Box::new(Bsma::new(BsmaConfig {
                target: buyer_host,
                markets: vec![MarketRef {
                    host: market_host,
                    agent: market,
                }],
                mba_timeout_us: 400_000, // 0.4s real time on this runtime
                durable: true,
                ..BsmaConfig::default()
            })),
        )
        .unwrap();
    assert!(world.run_until_idle(Duration::from_secs(10)).is_idle());

    world
        .send_external(
            bsma,
            Message::new(msgkinds::LOGIN)
                .with_payload(&SessionRequest { consumer: CONSUMER })
                .unwrap(),
        )
        .unwrap();
    assert!(world.run_until_idle(Duration::from_secs(10)).is_idle());

    for item in [ItemId(1), ItemId(2)] {
        world
            .send_external(
                bsma,
                Message::new(msgkinds::ROUTE_TASK)
                    .with_payload(&RoutedTask {
                        consumer: CONSUMER,
                        task: ConsumerTask::Buy {
                            item,
                            market: MarketRef {
                                host: market_host,
                                agent: market,
                            },
                            mode: BuyMode::Direct,
                        },
                        blocked_markets: Vec::new(),
                    })
                    .unwrap(),
            )
            .unwrap();
        assert!(
            world.run_until_idle(Duration::from_secs(30)).is_idle(),
            "buy of {item:?} quiesces"
        );
        if item == ItemId(1) {
            world.crash_host(buyer_host).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            world.restart_host(buyer_host).unwrap();
            assert!(
                world.run_until_idle(Duration::from_secs(30)).is_idle(),
                "recovery quiesces"
            );
        }
    }

    let (metrics, trace) = world.shutdown();
    let receipts = trace
        .labels()
        .iter()
        .filter(|l| l.contains("bra responds with receipt"))
        .count();
    OutcomeClass {
        receipts,
        intents_logged: metrics.intents_logged,
        purchases_committed: metrics.purchases_committed,
        purchases_aborted: metrics.purchases_aborted,
        hosts_recovered: metrics.hosts_recovered,
    }
}

#[test]
fn des_and_thread_world_recover_to_the_same_outcome_class() {
    let expected = OutcomeClass {
        receipts: 2,
        intents_logged: 2,
        purchases_committed: 2,
        purchases_aborted: 0,
        hosts_recovered: 1,
    };
    assert_eq!(des_outcome(1111), expected, "DES outcome");
    assert_eq!(thread_outcome(1111, 1), expected, "1-worker thread outcome");
}

#[test]
fn multi_worker_thread_world_recovers_the_same_outcome() {
    let expected = OutcomeClass {
        receipts: 2,
        intents_logged: 2,
        purchases_committed: 2,
        purchases_aborted: 0,
        hosts_recovered: 1,
    };
    assert_eq!(thread_outcome(2222, 3), expected, "3-worker thread outcome");
}
