//! E14 — crash recovery cost vs WAL size, with and without checkpoints.
//!
//! The series drives a durable Buyer Agent Server through growing
//! workloads (queries with a buy sprinkled in every eighth task, so the
//! log mixes capsule journals, profile deltas and two-phase purchase
//! records), crashes the host, and wall-times the `restart_host`
//! recovery pass. Each workload size runs twice: `checkpoint_every: 0`
//! (the WAL grows without bound) and `checkpoint_every: 32` (snapshot +
//! truncate), demonstrating that checkpointing bounds replay cost while
//! the un-checkpointed replay grows linearly with the workload.
//!
//! Criterion times the pure replay function (`DurableStore::replay_bytes`)
//! on synthetic logs of 1k and 10k records, plus the checkpointed
//! equivalent (fat snapshot + short log) of the 10k workload.
//!
//! `RECOVERY_BENCH_QUICK=1` shrinks the series for CI smoke runs.

use abcrm_core::agents::msg::{BuyMode, ConsumerTask, ResponseBody};
use abcrm_core::profile::ConsumerId;
use abcrm_core::server::{listing, Platform};
use agentsim::clock::SimDuration;
use agentsim::durable::{DurabilityConfig, DurableStore};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;

fn quick() -> bool {
    std::env::var("RECOVERY_BENCH_QUICK").is_ok()
}

fn build(seed: u64, checkpoint_every: usize) -> Platform {
    Platform::builder(seed)
        .marketplaces(vec![vec![
            listing(1, "Rust Book", "books", "programming", 30, &[("rust", 1.0)]),
            listing(2, "Go Book", "books", "programming", 25, &[("go", 1.0)]),
        ]])
        .mba_timeout_us(2_000_000)
        .durability(DurabilityConfig {
            checkpoint_every,
            sync_every: 1,
        })
        .build()
}

/// Drive `tasks` workflow tasks (a buy every eighth, queries otherwise)
/// and require every one of them to be answered.
fn drive(p: &mut Platform, consumers: u64, tasks: u64) {
    for i in 0..tasks {
        let consumer = ConsumerId(1 + i % consumers);
        if i % 8 == 7 {
            p.submit_task(
                consumer,
                ConsumerTask::Buy {
                    item: ecp::merchandise::ItemId(1 + (i % 2)),
                    market: p.markets()[0],
                    mode: BuyMode::Direct,
                },
            );
        } else {
            p.submit_task(
                consumer,
                ConsumerTask::Query {
                    keywords: vec!["rust".into()],
                    category: None,
                    max_results: 5,
                },
            );
        }
        let wave = p.run_and_drain();
        assert!(
            wave.iter()
                .all(|(_, r)| !matches!(r, ResponseBody::Error(_))),
            "workload task {i} failed: {wave:?}"
        );
    }
}

struct RunReport {
    wal_replayed: u64,
    checkpoints: u64,
    agents_recovered: u64,
    recovery_us: u64,
}

fn crash_and_recover(seed: u64, tasks: u64, checkpoint_every: usize) -> RunReport {
    let consumers = 4;
    let mut p = build(seed, checkpoint_every);
    for c in 1..=consumers {
        p.login(ConsumerId(c));
    }
    drive(&mut p, consumers, tasks);
    let host = p.buyer_host();
    p.world_mut().crash_host(host).unwrap();
    p.world_mut().run_for(SimDuration::from_micros(100));
    let started = Instant::now();
    p.world_mut().restart_host(host).unwrap();
    let recovery_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    p.world_mut().run_until_idle();
    // the recovered platform still serves
    let replies = p.query(ConsumerId(1), &["rust"], 5);
    assert!(
        replies
            .iter()
            .any(|r| matches!(r, ResponseBody::Recommendations { .. })),
        "recovered platform must serve: {replies:?}"
    );
    let m = p.world().metrics();
    RunReport {
        wal_replayed: m.wal_records_replayed,
        checkpoints: m.checkpoints,
        agents_recovered: m.agents_recovered,
        recovery_us,
    }
}

fn recovery_series() {
    let sizes: &[u64] = if quick() { &[8, 32] } else { &[8, 32, 128] };
    println!("E14 recovery: crash + restart after growing workloads, checkpoint_every 0 vs 32");
    let mut rows = Vec::new();
    for &tasks in sizes {
        for checkpoint_every in [0usize, 32] {
            let r = crash_and_recover(42, tasks, checkpoint_every);
            println!(
                "  tasks {tasks:>4}  checkpoint_every {checkpoint_every:>2}  \
                 replayed {:>5} records  checkpoints {:>3}  agents {:>2}  recovery {:>6}us",
                r.wal_replayed, r.checkpoints, r.agents_recovered, r.recovery_us
            );
            rows.push(serde_json::json!({
                "tasks": tasks,
                "checkpoint_every": checkpoint_every,
                "wal_records_replayed": r.wal_replayed,
                "checkpoints": r.checkpoints,
                "agents_recovered": r.agents_recovered,
                "recovery_wall_us": r.recovery_us,
            }));
        }
    }
    println!(
        "{}",
        serde_json::to_string_pretty(&serde_json::json!({ "series": rows })).unwrap()
    );
}

/// A synthetic store: `records` capsule/delta/purchase records over
/// `agents` agents, checkpointed every `checkpoint_every` records.
fn synthetic_store(records: u64, checkpoint_every: usize) -> DurableStore {
    let mut store = DurableStore::new(DurabilityConfig {
        checkpoint_every: 0,
        sync_every: 1,
    });
    let agents = 16;
    for i in 0..records {
        let agent = i % agents;
        match i % 5 {
            0 => store
                .put_capsule(
                    agent,
                    serde_json::json!({"id": agent, "state": {"seq": i, "interest": i as f64 / 7.0}}),
                    i % 2 == 0,
                )
                .unwrap(),
            1 => store
                .log_delta(agent, serde_json::json!({"term": format!("t{}", i % 50), "w": 0.3}))
                .unwrap(),
            // intent ids recycle like live BRA sequence numbers do, so
            // the intents table stays bounded the way a real host's is
            2 => store.log_intent(i % 64, serde_json::json!({"item": i % 4})).unwrap(),
            3 => store.log_commit((i - 1) % 64, serde_json::json!({"price": 30})).unwrap(),
            _ => store
                .put_capsule(agent, serde_json::json!({"id": agent, "state": {"seq": i}}), true)
                .unwrap(),
        }
        if checkpoint_every > 0 && (i + 1) % checkpoint_every as u64 == 0 {
            // the runtime hands checkpoint() fresh capsules of the
            // delta-policy agents it re-captures, absorbing their deltas
            let fresh = (0..agents)
                .map(|a| (a, serde_json::json!({"id": a, "state": {"seq": i}}).into()))
                .collect();
            store.checkpoint(fresh).expect("in-memory checkpoint");
        }
    }
    store
}

fn bench(c: &mut Criterion) {
    recovery_series();

    let mut group = c.benchmark_group("E14_recovery");
    group.sample_size(20);
    for records in [1_000u64, 10_000] {
        let store = synthetic_store(records, 0);
        let (snapshot, wal) = (store.snapshot_bytes(), store.wal_bytes());
        group.bench_function(format!("replay_{records}_records_no_checkpoint"), |b| {
            b.iter(|| {
                DurableStore::replay_bytes(&snapshot, &wal)
                    .unwrap()
                    .replayed
            });
        });
    }
    // same 10k-record workload, but checkpointed every 256: the replay
    // cost is the snapshot parse plus a short log tail
    let store = synthetic_store(10_000, 256);
    let (snapshot, wal) = (store.snapshot_bytes(), store.wal_bytes());
    group.bench_function("replay_10000_records_checkpointed_256", |b| {
        b.iter(|| {
            DurableStore::replay_bytes(&snapshot, &wal)
                .unwrap()
                .replayed
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
