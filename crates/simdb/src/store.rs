//! A durable multi-table JSON document store.
//!
//! [`JsonStore`] is the "database server" face of simdb: named tables of
//! JSON rows, every mutation logged to a [`Wal`], with snapshot +
//! log-replay recovery. The recommendation mechanism's `UserDB` and
//! `BSMDB` are instances of this store.
//!
//! ```
//! use simdb::store::JsonStore;
//!
//! # fn main() -> Result<(), simdb::error::DbError> {
//! let mut db = JsonStore::new("userdb");
//! db.create_table("profiles")?;
//! db.put("profiles", "u1", serde_json::json!({"category": "books"}))?;
//!
//! // crash...
//! let snapshot = db.snapshot();
//! let wal_bytes = db.wal_bytes();
//! let recovered = JsonStore::recover("userdb", &snapshot, &wal_bytes)?;
//! assert_eq!(recovered.get("profiles", "u1"), db.get("profiles", "u1"));
//! # Ok(())
//! # }
//! ```

use crate::error::{DbError, Result};
use crate::wal::{LogRecord, Wal};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

type Rows = BTreeMap<String, serde_json::Value>;

/// A field-path secondary index over one table: rows are indexed by the
/// stringified value at `field_path` (dot-separated for nesting, e.g.
/// `"consumer"` or `"item.id"`). The definition is plain data, so the
/// whole store — indexes included — stays serde-serializable and indexes
/// rebuild automatically on recovery.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct FieldIndex {
    field_path: String,
    /// index value -> row keys
    map: BTreeMap<String, std::collections::BTreeSet<String>>,
}

/// Stringify the value found at a dot-separated path inside a row, if
/// present. Strings index by their content; everything else by its JSON
/// text.
fn field_key(row: &serde_json::Value, field_path: &str) -> Option<String> {
    let mut v = row;
    for part in field_path.split('.') {
        v = v.get(part)?;
    }
    Some(match v {
        serde_json::Value::String(s) => s.clone(),
        other => other.to_string(),
    })
}

impl FieldIndex {
    fn insert(&mut self, key: &str, row: &serde_json::Value) {
        if let Some(ik) = field_key(row, &self.field_path) {
            self.map.entry(ik).or_default().insert(key.to_string());
        }
    }

    fn remove(&mut self, key: &str, row: &serde_json::Value) {
        if let Some(ik) = field_key(row, &self.field_path) {
            if let Some(set) = self.map.get_mut(&ik) {
                set.remove(key);
                if set.is_empty() {
                    self.map.remove(&ik);
                }
            }
        }
    }
}

/// Serializable snapshot contents (tables only; the WAL is separate).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct Snapshot {
    tables: BTreeMap<String, Rows>,
}

/// Multi-table JSON store with write-ahead logging.
///
/// The store itself is serde-serializable, so an agent can carry its
/// database as part of its migratable/deactivatable state — exactly how
/// the PA carries UserDB and the BSMA carries BSMDB in `abcrm-core`.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct JsonStore {
    name: String,
    tables: BTreeMap<String, Rows>,
    wal: Wal,
    /// (table, index name) -> index
    #[serde(default)]
    indexes: BTreeMap<String, BTreeMap<String, FieldIndex>>,
}

impl JsonStore {
    /// Create an empty store.
    pub fn new(name: impl Into<String>) -> Self {
        JsonStore {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Store name (e.g. `"userdb"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Create a table. Idempotent: creating an existing table is a no-op
    /// (and is not logged again).
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `Result` for forward compatibility.
    pub fn create_table(&mut self, table: &str) -> Result<()> {
        if !self.tables.contains_key(table) {
            self.wal.append(LogRecord::CreateTable {
                table: table.to_string(),
            });
            self.tables.insert(table.to_string(), Rows::new());
        }
        Ok(())
    }

    /// Insert or replace the row at `key`.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownTable`] if the table does not exist.
    pub fn put(&mut self, table: &str, key: &str, value: serde_json::Value) -> Result<()> {
        let rows = self
            .tables
            .get_mut(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))?;
        self.wal.append(LogRecord::Put {
            table: table.to_string(),
            key: key.to_string(),
            value: value.clone(),
        });
        let old = rows.insert(key.to_string(), value.clone());
        if let Some(table_indexes) = self.indexes.get_mut(table) {
            for index in table_indexes.values_mut() {
                if let Some(old) = &old {
                    index.remove(key, old);
                }
                index.insert(key, &value);
            }
        }
        Ok(())
    }

    /// Typed convenience over [`JsonStore::put`].
    ///
    /// # Errors
    ///
    /// [`DbError::Serialization`] if `value` cannot be serialized;
    /// [`DbError::UnknownTable`] if the table does not exist.
    pub fn put_typed<T: Serialize>(&mut self, table: &str, key: &str, value: &T) -> Result<()> {
        let v = serde_json::to_value(value).map_err(|e| DbError::Serialization(e.to_string()))?;
        self.put(table, key, v)
    }

    /// Row at `key`, if present.
    pub fn get(&self, table: &str, key: &str) -> Option<&serde_json::Value> {
        self.tables.get(table)?.get(key)
    }

    /// Typed convenience over [`JsonStore::get`]; `None` if the row is
    /// absent.
    ///
    /// # Errors
    ///
    /// [`DbError::Serialization`] if the stored row does not match `T`.
    pub fn get_typed<T: serde::de::DeserializeOwned>(
        &self,
        table: &str,
        key: &str,
    ) -> Result<Option<T>> {
        match self.get(table, key) {
            None => Ok(None),
            Some(v) => serde_json::from_value(v.clone())
                .map(Some)
                .map_err(|e| DbError::Serialization(e.to_string())),
        }
    }

    /// Delete the row at `key`. Returns whether a row was removed.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownTable`] if the table does not exist.
    pub fn delete(&mut self, table: &str, key: &str) -> Result<bool> {
        let rows = self
            .tables
            .get_mut(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))?;
        let removed = rows.remove(key);
        if let Some(old) = &removed {
            self.wal.append(LogRecord::Delete {
                table: table.to_string(),
                key: key.to_string(),
            });
            if let Some(table_indexes) = self.indexes.get_mut(table) {
                for index in table_indexes.values_mut() {
                    index.remove(key, old);
                }
            }
        }
        Ok(removed.is_some())
    }

    /// Register a field-path secondary index over `table`. Existing rows
    /// are indexed immediately; the index is maintained on every put and
    /// delete thereafter. Replaces any index of the same name.
    ///
    /// `field_path` is dot-separated for nested fields (`"item.id"`).
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownTable`] if the table does not exist.
    pub fn add_index(&mut self, table: &str, index: &str, field_path: &str) -> Result<()> {
        let rows = self
            .tables
            .get(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))?;
        let mut field_index = FieldIndex {
            field_path: field_path.to_string(),
            map: BTreeMap::new(),
        };
        for (key, row) in rows {
            field_index.insert(key, row);
        }
        self.indexes
            .entry(table.to_string())
            .or_default()
            .insert(index.to_string(), field_index);
        Ok(())
    }

    /// Row keys whose indexed field equals `value`, in key order.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownIndex`] if `index` was never registered on
    /// `table`.
    pub fn lookup(&self, table: &str, index: &str, value: &str) -> Result<Vec<&str>> {
        let field_index = self
            .indexes
            .get(table)
            .and_then(|m| m.get(index))
            .ok_or_else(|| DbError::UnknownIndex(format!("{table}.{index}")))?;
        Ok(field_index
            .map
            .get(value)
            .map(|set| set.iter().map(|s| s.as_str()).collect())
            .unwrap_or_default())
    }

    /// Rows (key + value) whose indexed field equals `value`.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownIndex`] if `index` was never registered on
    /// `table`.
    pub fn lookup_rows(
        &self,
        table: &str,
        index: &str,
        value: &str,
    ) -> Result<Vec<(&str, &serde_json::Value)>> {
        let keys = self.lookup(table, index, value)?;
        let rows = self
            .tables
            .get(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))?;
        Ok(keys
            .into_iter()
            .filter_map(|k| rows.get_key_value(k).map(|(k, v)| (k.as_str(), v)))
            .collect())
    }

    /// Iterate a table's rows in key order.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownTable`] if the table does not exist.
    pub fn scan(&self, table: &str) -> Result<impl Iterator<Item = (&str, &serde_json::Value)>> {
        let rows = self
            .tables
            .get(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))?;
        Ok(rows.iter().map(|(k, v)| (k.as_str(), v)))
    }

    /// Number of rows in a table (0 for unknown tables).
    pub fn table_len(&self, table: &str) -> usize {
        self.tables.get(table).map(|r| r.len()).unwrap_or(0)
    }

    /// Names of all tables, in order.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }

    /// Serialize the current table contents (not the WAL).
    pub fn snapshot(&self) -> Vec<u8> {
        let snap = Snapshot {
            tables: self.tables.clone(),
        };
        serde_json::to_vec(&snap).expect("snapshot serializes")
    }

    /// Current WAL bytes (what would be on disk).
    pub fn wal_bytes(&self) -> Vec<u8> {
        self.wal.encode()
    }

    /// Number of unflushed WAL records.
    pub fn wal_len(&self) -> usize {
        self.wal.len()
    }

    /// Drop the log without snapshotting the tables. For an embedded
    /// store whose owner already journals the rows itself (an agent's
    /// capsule or delta journal): the log would be a second copy that only
    /// grows.
    pub fn clear_log(&mut self) {
        self.wal.truncate();
    }

    /// Checkpoint: return a fresh snapshot and truncate the WAL.
    pub fn checkpoint(&mut self) -> Vec<u8> {
        let snap = self.snapshot();
        self.wal.truncate();
        snap
    }

    /// Rebuild a store from a snapshot plus a WAL tail.
    ///
    /// # Errors
    ///
    /// [`DbError::Serialization`] for an unreadable snapshot,
    /// [`DbError::WalCorrupt`] for a corrupt log,
    /// [`DbError::UnknownTable`] if the log references a table the
    /// snapshot+log never created.
    pub fn recover(name: impl Into<String>, snapshot: &[u8], wal_bytes: &[u8]) -> Result<Self> {
        let snap: Snapshot = if snapshot.is_empty() {
            Snapshot::default()
        } else {
            serde_json::from_slice(snapshot).map_err(|e| DbError::Serialization(e.to_string()))?
        };
        let mut store = JsonStore {
            name: name.into(),
            tables: snap.tables,
            ..Default::default()
        };
        let wal = Wal::decode(wal_bytes)?;
        for record in wal.records() {
            match record {
                LogRecord::CreateTable { table } => {
                    store.tables.entry(table.clone()).or_default();
                }
                LogRecord::Put { table, key, value } => {
                    let rows = store
                        .tables
                        .get_mut(table)
                        .ok_or_else(|| DbError::UnknownTable(table.clone()))?;
                    rows.insert(key.clone(), value.clone());
                }
                LogRecord::Delete { table, key } => {
                    let rows = store
                        .tables
                        .get_mut(table)
                        .ok_or_else(|| DbError::UnknownTable(table.clone()))?;
                    rows.remove(key);
                }
                // Durability records belong to a runtime DurableStore log,
                // not a table store; finding one here means the wrong log
                // was replayed against this snapshot.
                LogRecord::Capsule { .. }
                | LogRecord::CapsuleGone { .. }
                | LogRecord::PurchaseIntent { .. }
                | LogRecord::PurchaseCommit { .. }
                | LogRecord::PurchaseAbort { .. }
                | LogRecord::ProfileDelta { .. } => {
                    return Err(DbError::Serialization(
                        "durability record is not valid for a table store".into(),
                    ));
                }
            }
        }
        // Recovery replays history; the recovered WAL starts clean,
        // matching a checkpoint-on-recovery discipline.
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use serde_json::json;

    fn store_with_data() -> JsonStore {
        let mut db = JsonStore::new("test");
        db.create_table("t").unwrap();
        db.put("t", "a", json!(1)).unwrap();
        db.put("t", "b", json!({"x": [1, 2]})).unwrap();
        db
    }

    #[test]
    fn put_get_delete_round_trip() {
        let mut db = store_with_data();
        assert_eq!(db.get("t", "a"), Some(&json!(1)));
        assert!(db.delete("t", "a").unwrap());
        assert!(!db.delete("t", "a").unwrap());
        assert_eq!(db.get("t", "a"), None);
    }

    #[test]
    fn unknown_table_operations_error() {
        let mut db = JsonStore::new("test");
        assert!(matches!(
            db.put("nope", "k", json!(1)),
            Err(DbError::UnknownTable(_))
        ));
        assert!(matches!(
            db.delete("nope", "k"),
            Err(DbError::UnknownTable(_))
        ));
        assert!(db.scan("nope").is_err());
        assert_eq!(db.table_len("nope"), 0);
    }

    #[test]
    fn typed_put_get_round_trip() {
        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        struct P {
            age: u8,
        }
        let mut db = JsonStore::new("test");
        db.create_table("p").unwrap();
        db.put_typed("p", "u", &P { age: 30 }).unwrap();
        assert_eq!(db.get_typed::<P>("p", "u").unwrap(), Some(P { age: 30 }));
        assert_eq!(db.get_typed::<P>("p", "missing").unwrap(), None);
        // wrong type errors
        db.put("p", "bad", json!("a string")).unwrap();
        assert!(db.get_typed::<P>("p", "bad").is_err());
    }

    #[test]
    fn recovery_from_snapshot_plus_wal_replays_everything() {
        let mut db = store_with_data();
        let snapshot = db.checkpoint();
        // post-checkpoint mutations live only in the WAL
        db.put("t", "c", json!(3)).unwrap();
        db.delete("t", "a").unwrap();
        db.create_table("t2").unwrap();
        db.put("t2", "z", json!(9)).unwrap();
        let recovered = JsonStore::recover("test", &snapshot, &db.wal_bytes()).unwrap();
        assert_eq!(recovered.get("t", "c"), Some(&json!(3)));
        assert_eq!(recovered.get("t", "a"), None);
        assert_eq!(recovered.get("t", "b"), Some(&json!({"x": [1, 2]})));
        assert_eq!(recovered.get("t2", "z"), Some(&json!(9)));
        assert_eq!(
            recovered.wal_len(),
            0,
            "recovered store starts with a clean wal"
        );
    }

    #[test]
    fn recovery_from_empty_state_is_empty() {
        let db = JsonStore::recover("fresh", b"", b"").unwrap();
        assert!(db.table_names().is_empty());
    }

    #[test]
    fn recovery_with_torn_final_wal_record_drops_it() {
        let db = store_with_data();
        let mut wal = db.wal_bytes();
        wal.extend_from_slice(b"{\"Put\":{\"tab"); // torn write
        let recovered = JsonStore::recover("test", b"", &wal).unwrap();
        assert_eq!(recovered.get("t", "b"), Some(&json!({"x": [1, 2]})));
    }

    #[test]
    fn clear_log_keeps_the_tables() {
        let mut db = store_with_data();
        let snapshot = db.snapshot();
        db.clear_log();
        assert_eq!(db.wal_len(), 0);
        assert_eq!(db.snapshot(), snapshot);
        assert_eq!(db.get("t", "b"), Some(&json!({"x": [1, 2]})));
    }

    #[test]
    fn checkpoint_truncates_wal() {
        let mut db = store_with_data();
        assert!(db.wal_len() > 0);
        db.checkpoint();
        assert_eq!(db.wal_len(), 0);
    }

    #[test]
    fn scan_iterates_in_key_order() {
        let db = store_with_data();
        let keys: Vec<&str> = db.scan("t").unwrap().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b"]);
    }

    #[test]
    fn field_index_lookup_finds_rows_by_field() {
        let mut db = JsonStore::new("test");
        db.create_table("tx").unwrap();
        db.put("tx", "1", json!({"consumer": "u1", "amount": 5}))
            .unwrap();
        db.put("tx", "2", json!({"consumer": "u2", "amount": 7}))
            .unwrap();
        db.put("tx", "3", json!({"consumer": "u1", "amount": 9}))
            .unwrap();
        db.add_index("tx", "by-consumer", "consumer").unwrap();
        assert_eq!(
            db.lookup("tx", "by-consumer", "u1").unwrap(),
            vec!["1", "3"]
        );
        assert_eq!(
            db.lookup("tx", "by-consumer", "u9").unwrap(),
            Vec::<&str>::new()
        );
        let rows = db.lookup_rows("tx", "by-consumer", "u2").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1["amount"], json!(7));
    }

    #[test]
    fn field_index_is_maintained_on_put_and_delete() {
        let mut db = JsonStore::new("test");
        db.create_table("tx").unwrap();
        db.add_index("tx", "by-consumer", "consumer").unwrap();
        db.put("tx", "1", json!({"consumer": "u1"})).unwrap();
        assert_eq!(db.lookup("tx", "by-consumer", "u1").unwrap(), vec!["1"]);
        // overwrite moves the row under a new index value
        db.put("tx", "1", json!({"consumer": "u2"})).unwrap();
        assert!(db.lookup("tx", "by-consumer", "u1").unwrap().is_empty());
        assert_eq!(db.lookup("tx", "by-consumer", "u2").unwrap(), vec!["1"]);
        db.delete("tx", "1").unwrap();
        assert!(db.lookup("tx", "by-consumer", "u2").unwrap().is_empty());
    }

    #[test]
    fn field_index_supports_nested_paths_and_numbers() {
        let mut db = JsonStore::new("test");
        db.create_table("tx").unwrap();
        db.put("tx", "a", json!({"item": {"id": 7}})).unwrap();
        db.add_index("tx", "by-item", "item.id").unwrap();
        assert_eq!(db.lookup("tx", "by-item", "7").unwrap(), vec!["a"]);
        // rows missing the field are simply unindexed
        db.put("tx", "b", json!({"other": 1})).unwrap();
        assert_eq!(db.lookup("tx", "by-item", "7").unwrap(), vec!["a"]);
    }

    #[test]
    fn unknown_index_errors() {
        let mut db = JsonStore::new("test");
        db.create_table("tx").unwrap();
        assert!(matches!(
            db.lookup("tx", "nope", "x"),
            Err(DbError::UnknownIndex(_))
        ));
        assert!(matches!(
            db.add_index("ghost", "i", "f"),
            Err(DbError::UnknownTable(_))
        ));
    }

    #[test]
    fn create_table_is_idempotent() {
        let mut db = JsonStore::new("test");
        db.create_table("t").unwrap();
        let wal_before = db.wal_len();
        db.create_table("t").unwrap();
        assert_eq!(db.wal_len(), wal_before);
    }
}
