//! File-backed WAL tests on real bytes: round-trips, torn-tail repair,
//! and a property test that truncates the on-disk log at every byte
//! offset and checks recovery always yields a clean prefix.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use simdb::file_wal::FileWal;
use simdb::wal::{LogRecord, Wal};
use simdb::DbError;
use std::io::Write;
use std::path::PathBuf;

fn put(key: &str, v: i64) -> LogRecord {
    LogRecord::Put {
        table: "t".into(),
        key: key.into(),
        value: serde_json::json!(v),
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("file_wal");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn append_then_open_round_trips() {
    let path = tmp("roundtrip.wal");
    let mut fw = FileWal::create(&path).unwrap();
    fw.append(&put("a", 1)).unwrap();
    fw.append(&put("b", 2)).unwrap();
    fw.sync().unwrap();
    drop(fw);
    let (fw2, wal) = FileWal::open(&path).unwrap();
    assert_eq!(fw2.len(), 2);
    assert_eq!(wal.records(), &[put("a", 1), put("b", 2)]);
}

#[test]
fn open_repairs_a_torn_tail() {
    let path = tmp("torn.wal");
    let mut fw = FileWal::create(&path).unwrap();
    fw.append(&put("a", 1)).unwrap();
    fw.sync().unwrap();
    drop(fw);
    let mut raw = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    raw.write_all(b"{\"Put\":{\"table\":\"t\",\"ke").unwrap();
    drop(raw);
    let (mut fw2, wal) = FileWal::open(&path).unwrap();
    assert_eq!(wal.len(), 1);
    // the file itself was repaired: appends continue a clean log
    fw2.append(&put("b", 2)).unwrap();
    fw2.sync().unwrap();
    drop(fw2);
    let (_, wal3) = FileWal::open(&path).unwrap();
    assert_eq!(wal3.records(), &[put("a", 1), put("b", 2)]);
}

#[test]
fn reset_rewrites_the_file() {
    let path = tmp("reset.wal");
    let mut fw = FileWal::create(&path).unwrap();
    fw.append(&put("a", 1)).unwrap();
    fw.append(&put("b", 2)).unwrap();
    let mut keep = Wal::new();
    keep.append(put("a", 1));
    fw.reset(&keep).unwrap();
    assert_eq!(fw.len(), 1);
    drop(fw);
    let (_, wal) = FileWal::open(&path).unwrap();
    assert_eq!(wal.records(), &[put("a", 1)]);
}

#[test]
fn open_missing_file_starts_empty() {
    let path = tmp("fresh-missing.wal");
    let _ = std::fs::remove_file(&path);
    let (fw, wal) = FileWal::open(&path).unwrap();
    assert!(fw.is_empty());
    assert!(wal.is_empty());
}

#[test]
fn mid_file_corruption_is_an_error() {
    let path = tmp("corrupt.wal");
    std::fs::write(&path, b"garbage\n{\"CapsuleGone\":{\"agent\":1}}\n").unwrap();
    match FileWal::open(&path) {
        Err(DbError::WalCorrupt { record, .. }) => assert_eq!(record, 0),
        other => panic!("expected WalCorrupt, got {other:?}"),
    }
}

/// Build a durability-flavoured record from drawn scalars: `sel` picks
/// the variant, the rest fill its fields.
fn record_from(sel: u64, id: u64, x: i64, s: &str) -> LogRecord {
    match sel % 5 {
        0 => LogRecord::Capsule {
            agent: id,
            capsule: serde_json::json!({ "x": x, "note": s }).into(),
            active: x % 2 == 0,
        },
        1 => LogRecord::CapsuleGone { agent: id },
        2 => LogRecord::PurchaseIntent {
            intent: id,
            detail: serde_json::json!({ "item": x }),
        },
        3 => LogRecord::PurchaseAbort {
            intent: id,
            reason: s.to_string(),
        },
        _ => LogRecord::ProfileDelta {
            agent: id,
            delta: serde_json::json!({ "note": s }).into(),
        },
    }
}

proptest! {
    /// Write N records to a real file, chop the file at an arbitrary byte
    /// offset (a crash mid-write), reopen: recovery must produce a clean
    /// prefix of what was written — every record whose bytes fully made
    /// it to disk survives, nothing bogus appears, and the repaired file
    /// accepts further appends.
    #[test]
    fn truncated_file_recovers_to_a_clean_prefix(
        specs in proptest::collection::vec(
            (0u64..5, 0u64..1000, -50i64..50, "[a-z ]{0,8}"),
            1..12,
        ),
        cut_frac in 0.0f64..1.0,
        case in 0u64..1_000_000,
    ) {
        let records: Vec<LogRecord> = specs
            .iter()
            .map(|(sel, id, x, s)| record_from(*sel, *id, *x, s))
            .collect();
        let path = tmp(&format!("prop-{case}.wal"));
        let mut fw = FileWal::create(&path).unwrap();
        // cumulative byte offset at which each record's line ends
        let mut ends = Vec::with_capacity(records.len());
        let mut total = 0usize;
        for r in &records {
            fw.append(r).unwrap();
            total += serde_json::to_string(r).unwrap().len() + 1;
            ends.push(total);
        }
        fw.sync().unwrap();
        drop(fw);

        // chop the file at an arbitrary byte offset
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = ((total as f64) * cut_frac) as u64;
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let expect = ends.iter().filter(|e| **e <= cut as usize).count();
        let (mut fw2, wal) = FileWal::open(&path).unwrap();
        // every fully-persisted record survives; at most the torn final
        // line (complete JSON missing its newline) may additionally parse
        prop_assert!(wal.len() >= expect);
        prop_assert!(wal.len() <= expect + 1);
        prop_assert_eq!(wal.records(), &records[..wal.len()]);

        // the repaired file keeps working
        fw2.append(&put("post", 1)).unwrap();
        fw2.sync().unwrap();
        drop(fw2);
        let (_, wal3) = FileWal::open(&path).unwrap();
        prop_assert_eq!(wal3.len(), wal.len() + 1);
        let _ = std::fs::remove_file(&path);
    }
}
