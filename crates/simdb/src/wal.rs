//! Write-ahead log.
//!
//! Every mutation of a [`crate::store::JsonStore`] is appended to the log
//! before it is applied. Recovery replays the log over the last snapshot,
//! so a crash between checkpoint and crash-point loses nothing. The
//! encoding is newline-delimited JSON, chosen for debuggability.
//!
//! Agent capsules and state deltas are the bulk of a durable runtime's
//! log, so their bodies travel as [`EncodedJson`]: serialized once, shared
//! by reference, and spliced verbatim into the log line.

use crate::error::{DbError, Result};
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::sync::Arc;

/// A JSON document encoded once and shared: clones bump a reference
/// count, and [`Wal::encode`] writes the bytes as they are. It holds the
/// compact encoding `Value`'s `Display` produces, so equal documents
/// compare equal byte for byte.
#[derive(Clone, PartialEq, Eq)]
pub struct EncodedJson(Arc<str>);

impl EncodedJson {
    /// Wrap text that is already compact JSON (e.g. the `Display` of a
    /// [`Value`]). Not checked; feeding anything else corrupts the log.
    pub fn from_encoded(json: String) -> Self {
        EncodedJson(json.into())
    }

    /// The encoded text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Encoded length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the encoding is empty (never, for a valid document).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Parse the document back into a value tree.
    ///
    /// # Errors
    ///
    /// [`DbError::Serialization`] if the text is not JSON.
    pub fn to_value(&self) -> Result<Value> {
        serde_json::from_str(&self.0).map_err(|e| DbError::Serialization(e.to_string()))
    }

    /// Parse the document into a typed value.
    ///
    /// # Errors
    ///
    /// [`DbError::Serialization`] if the text does not decode as `T`.
    pub fn parse<T: serde::de::DeserializeOwned>(&self) -> Result<T> {
        serde_json::from_str(&self.0).map_err(|e| DbError::Serialization(e.to_string()))
    }
}

impl From<&Value> for EncodedJson {
    fn from(value: &Value) -> Self {
        EncodedJson::from_encoded(value.to_string())
    }
}

impl From<Value> for EncodedJson {
    fn from(value: Value) -> Self {
        EncodedJson::from(&value)
    }
}

impl fmt::Debug for EncodedJson {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Display for EncodedJson {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Serialize for EncodedJson {
    /// The value-tree path (snapshots, generic `to_string`) re-parses the
    /// document; [`Wal::encode`] splices the bytes instead.
    fn serialize_value(&self) -> Value {
        self.to_value().unwrap_or(Value::Null)
    }
}

impl Deserialize for EncodedJson {
    fn deserialize_value(v: &Value) -> std::result::Result<Self, serde::Error> {
        Ok(EncodedJson::from(v))
    }
}

/// One logged mutation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LogRecord {
    /// Create an (empty) table.
    CreateTable {
        /// Table name.
        table: String,
    },
    /// Insert or replace the row at `key`.
    Put {
        /// Table name.
        table: String,
        /// Row key.
        key: String,
        /// Row contents.
        value: serde_json::Value,
    },
    /// Delete the row at `key`.
    Delete {
        /// Table name.
        table: String,
        /// Row key.
        key: String,
    },
    /// An agent capsule captured at a migration or lifecycle boundary.
    /// `active` distinguishes a running agent (journalled after a
    /// callback) from one deactivated into long-term storage.
    Capsule {
        /// Raw agent id (`AgentId.0`).
        agent: u64,
        /// The serialized `AgentCapsule` as produced by the runtime.
        capsule: EncodedJson,
        /// Whether the agent was active (vs deactivated) when logged.
        active: bool,
    },
    /// The agent left this host (dispatched away) or was disposed; any
    /// earlier capsule record for it no longer applies here.
    CapsuleGone {
        /// Raw agent id.
        agent: u64,
    },
    /// A purchase is about to be attempted. Logged before the buyer
    /// dispatches toward the marketplace; always forced to the synced
    /// prefix (fsync-on-intent).
    PurchaseIntent {
        /// Globally unique intent id (stable across retries).
        intent: u64,
        /// Free-form detail (consumer, item, market) for diagnostics.
        detail: serde_json::Value,
    },
    /// The purchase identified by `intent` definitely happened.
    PurchaseCommit {
        /// Intent id from the matching [`LogRecord::PurchaseIntent`].
        intent: u64,
        /// Outcome detail (item, price, channel).
        detail: serde_json::Value,
    },
    /// The purchase identified by `intent` definitely did not happen.
    PurchaseAbort {
        /// Intent id from the matching [`LogRecord::PurchaseIntent`].
        intent: u64,
        /// Why the purchase was abandoned.
        reason: String,
    },
    /// An incremental profile-update delta for a learning agent that
    /// journals deltas instead of whole capsules.
    ProfileDelta {
        /// Raw agent id of the profile owner (the journaling agent).
        agent: u64,
        /// The delta payload, replayed through `Agent::on_recovered`.
        delta: EncodedJson,
    },
}

impl LogRecord {
    /// Append this record's log line (its compact JSON plus `\n`) to
    /// `out`. Byte-identical to `serde_json::to_string(self)`; capsule and
    /// delta bodies are copied in as encoded rather than re-serialized.
    pub fn write_line(&self, out: &mut String) {
        use std::fmt::Write;
        // writing into a String cannot fail
        let _ = match self {
            LogRecord::Capsule {
                agent,
                capsule,
                active,
            } => writeln!(
                out,
                r#"{{"Capsule":{{"active":{active},"agent":{agent},"capsule":{capsule}}}}}"#
            ),
            LogRecord::ProfileDelta { agent, delta } => writeln!(
                out,
                r#"{{"ProfileDelta":{{"agent":{agent},"delta":{delta}}}}}"#
            ),
            // a LogRecord is a plain enum of strings/values; serialization
            // cannot fail
            other => writeln!(out, "{}", other.serialize_value()),
        };
    }
}

/// An append-only operation log.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Wal {
    records: Vec<LogRecord>,
}

impl Wal {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record.
    pub fn append(&mut self, record: LogRecord) {
        self.records.push(record);
    }

    /// Records in append order.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drop all records (after a checkpoint).
    pub fn truncate(&mut self) {
        self.records.clear();
    }

    /// Keep only the first `n` records, dropping the tail. Models the
    /// crash-time loss of an unsynced suffix: everything past the fsync
    /// watermark never reached stable storage. A prefix longer than the
    /// log is a no-op.
    pub fn retain_prefix(&mut self, n: usize) {
        self.records.truncate(n);
    }

    /// Serialize to newline-delimited JSON.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = String::new();
        for r in &self.records {
            r.write_line(&mut out);
        }
        out.into_bytes()
    }

    /// Decode a log previously produced by [`Wal::encode`]. Trailing
    /// partial lines (a torn write from a crash) are tolerated and
    /// truncated; corruption in the middle is an error.
    ///
    /// # Errors
    ///
    /// [`DbError::WalCorrupt`] if a non-final record fails to parse.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let text = String::from_utf8_lossy(bytes);
        let lines: Vec<&str> = text.split('\n').filter(|l| !l.is_empty()).collect();
        let mut records = Vec::with_capacity(lines.len());
        for (i, line) in lines.iter().enumerate() {
            match serde_json::from_str::<LogRecord>(line) {
                Ok(r) => records.push(r),
                Err(e) if i + 1 == lines.len() => {
                    // torn final record: drop it, the mutation was never
                    // acknowledged
                    let _ = e;
                    break;
                }
                Err(e) => {
                    return Err(DbError::WalCorrupt {
                        record: i,
                        reason: e.to_string(),
                    })
                }
            }
        }
        Ok(Wal { records })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn put(table: &str, key: &str, v: i64) -> LogRecord {
        LogRecord::Put {
            table: table.into(),
            key: key.into(),
            value: serde_json::json!(v),
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut wal = Wal::new();
        wal.append(LogRecord::CreateTable { table: "t".into() });
        wal.append(put("t", "a", 1));
        wal.append(LogRecord::Delete {
            table: "t".into(),
            key: "a".into(),
        });
        let decoded = Wal::decode(&wal.encode()).unwrap();
        assert_eq!(decoded, wal);
    }

    #[test]
    fn torn_final_record_is_dropped() {
        let mut wal = Wal::new();
        wal.append(put("t", "a", 1));
        wal.append(put("t", "b", 2));
        let mut bytes = wal.encode();
        // simulate crash mid-write of a third record
        bytes.extend_from_slice(b"{\"Put\":{\"table\":\"t\",\"ke");
        let decoded = Wal::decode(&bytes).unwrap();
        assert_eq!(decoded.len(), 2);
    }

    #[test]
    fn mid_log_corruption_is_an_error() {
        let mut wal = Wal::new();
        wal.append(put("t", "a", 1));
        let mut bytes = b"garbage-record\n".to_vec();
        bytes.extend_from_slice(&wal.encode());
        match Wal::decode(&bytes) {
            Err(DbError::WalCorrupt { record, .. }) => assert_eq!(record, 0),
            other => panic!("expected WalCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncate_empties_the_log() {
        let mut wal = Wal::new();
        wal.append(put("t", "a", 1));
        wal.truncate();
        assert!(wal.is_empty());
        assert_eq!(wal.encode(), b"");
    }

    #[test]
    fn empty_log_decodes_empty() {
        assert!(Wal::decode(b"").unwrap().is_empty());
    }

    #[test]
    fn durability_records_round_trip() {
        let mut wal = Wal::new();
        wal.append(LogRecord::Capsule {
            agent: 7,
            capsule: serde_json::json!({"state": {"x": 1}}).into(),
            active: true,
        });
        wal.append(LogRecord::PurchaseIntent {
            intent: 42,
            detail: serde_json::json!({"item": 3}),
        });
        wal.append(LogRecord::PurchaseCommit {
            intent: 42,
            detail: serde_json::json!({"price": 9.5}),
        });
        wal.append(LogRecord::PurchaseAbort {
            intent: 43,
            reason: "mba lost".into(),
        });
        wal.append(LogRecord::ProfileDelta {
            agent: 9,
            delta: serde_json::json!({"kind": "Purchase", "w": [0.5, -2]}).into(),
        });
        wal.append(LogRecord::CapsuleGone { agent: 7 });
        let decoded = Wal::decode(&wal.encode()).unwrap();
        assert_eq!(decoded, wal);
    }

    #[test]
    fn spliced_lines_match_the_serializer() {
        let records = [
            LogRecord::Capsule {
                agent: 7,
                capsule: serde_json::json!({"id": 7, "s": "a\"b", "f": 1.0}).into(),
                active: false,
            },
            LogRecord::ProfileDelta {
                agent: u64::MAX,
                delta: serde_json::json!([1, {"k": null}]).into(),
            },
            LogRecord::CapsuleGone { agent: 3 },
            put("t", "a", -1),
        ];
        for r in &records {
            let mut line = String::new();
            r.write_line(&mut line);
            assert_eq!(line, format!("{}\n", serde_json::to_string(r).unwrap()));
        }
    }

    #[test]
    fn encoded_json_round_trips_through_a_value() {
        let v = serde_json::json!({"b": [1.5, 2.0, -3], "a": "x\ny"});
        let e = EncodedJson::from(&v);
        assert_eq!(e.to_value().unwrap(), v);
        assert_eq!(EncodedJson::from(e.to_value().unwrap()), e);
    }

    #[test]
    fn retain_prefix_drops_the_tail() {
        let mut wal = Wal::new();
        wal.append(put("t", "a", 1));
        wal.append(put("t", "b", 2));
        wal.append(put("t", "c", 3));
        wal.retain_prefix(2);
        assert_eq!(wal.len(), 2);
        // longer than the log: no-op
        wal.retain_prefix(10);
        assert_eq!(wal.len(), 2);
    }
}
