//! Per-host durable state: WAL-backed capsules, purchase intents and
//! state deltas, with checkpointing and crash recovery.
//!
//! A [`DurableStore`] models the stable storage a production host would
//! put under its agent runtime. Every capsule boundary (callback end,
//! deactivation, arrival), every two-phase purchase record and every
//! state delta is appended to a [`simdb::Wal`] using the durability
//! record variants; a `synced` watermark models the fsync point — on a
//! crash only the synced prefix survives, so the store can answer "what
//! would a real disk hold" without ever touching the filesystem.
//!
//! Journaling costs what changed, not the agent's whole size:
//! * capsule and delta bodies are [`EncodedJson`] — encoded once and
//!   shared by the materialized state, the in-memory log and the
//!   in-memory checkpoint, so no layer copies a value tree;
//! * a capsule whose bytes (and `active` flag) equal the agent's last
//!   journalled capsule appends nothing ([`DurableStore::put_capsule`]);
//!   the skipped write still counts toward `sync_every`, so the watermark
//!   and every crash outcome stay those of a log that wrote it;
//! * [`DurableStore::wants_capture`] is the one rule for when a runtime
//!   captures an agent: capsule-policy agents after every callback,
//!   delta-policy agents once as a baseline and then at a checkpoint only
//!   when their deltas since the last capture outweigh that capture.
//!
//! Policy, mirroring production databases:
//! * purchase records ([`LogRecord::PurchaseIntent`] /
//!   [`LogRecord::PurchaseCommit`] / [`LogRecord::PurchaseAbort`]) are
//!   **forced**: the watermark advances through them immediately
//!   (fsync-on-commit), so a logged intent is never lost;
//! * capsule and delta records batch: the watermark advances once
//!   `sync_every` unsynced records accumulate (1 = sync everything);
//! * a checkpoint keeps a clone of the materialized state as the
//!   snapshot (shared buffers, no encoding) and truncates the log,
//!   bounding replay cost. Snapshot bytes are produced only for a
//!   file-backed store or on request ([`DurableStore::snapshot_bytes`]).

use crate::agent::DurablePolicy;
use crate::metrics::Metrics;
use serde::{Deserialize, Serialize};
use simdb::file_wal::FileWal;
use simdb::wal::{LogRecord, Wal};
use simdb::{DbError, Result};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub use simdb::wal::EncodedJson;

/// Tuning knobs for per-host durability. Installed on a world via
/// `enable_durability`; absent = the host keeps no durable state and all
/// journaling actions are no-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DurabilityConfig {
    /// Checkpoint (snapshot + truncate) once this many records have been
    /// appended since the last checkpoint. 0 disables checkpointing.
    pub checkpoint_every: usize,
    /// Advance the fsync watermark once this many unsynced capsule/delta
    /// records accumulate. Purchase records always force a sync. 1 syncs
    /// every record.
    pub sync_every: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            checkpoint_every: 256,
            sync_every: 1,
        }
    }
}

/// A capsule as the durable store holds it: the encoded
/// [`crate::agent::AgentCapsule`] plus whether the agent was active or
/// deactivated when last journalled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapsuleRecord {
    /// Encoded `AgentCapsule` (id, type, state, home, permit).
    pub capsule: EncodedJson,
    /// `true` = running agent journalled at a callback boundary;
    /// `false` = deactivated into long-term storage.
    pub active: bool,
}

/// Resolution state of a logged purchase intent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum IntentState {
    /// Intent logged, outcome unknown — after a crash this must be
    /// resolved against the marketplace ledger before retrying.
    Pending(serde_json::Value),
    /// The purchase definitely happened.
    Committed(serde_json::Value),
    /// The purchase definitely did not happen.
    Aborted(String),
}

/// The materialized durable state of one host: what a recovery pass gets
/// back after replaying the WAL over the last snapshot.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DurableState {
    /// Last journalled capsule per agent (raw id), capsule- and
    /// delta-policy agents alike.
    pub capsules: BTreeMap<u64, CapsuleRecord>,
    /// Purchase intents keyed by intent id.
    pub intents: BTreeMap<u64, IntentState>,
    /// State deltas in log order: `(agent raw id, delta)`. An agent's
    /// deltas are dropped when a checkpoint re-captures it (the new
    /// capsule absorbs them); until then they ride along in snapshots.
    pub deltas: Vec<(u64, EncodedJson)>,
}

impl DurableState {
    /// Apply one log record to the materialized state.
    fn apply(&mut self, record: &LogRecord) -> Result<()> {
        match record {
            LogRecord::Capsule {
                agent,
                capsule,
                active,
            } => {
                self.capsules.insert(
                    *agent,
                    CapsuleRecord {
                        capsule: capsule.clone(),
                        active: *active,
                    },
                );
            }
            LogRecord::CapsuleGone { agent } => {
                self.capsules.remove(agent);
                self.deltas.retain(|(a, _)| a != agent);
            }
            LogRecord::PurchaseIntent { intent, detail } => {
                // an intent never downgrades a known outcome (idempotent
                // replay: a re-logged intent after a commit is a no-op)
                self.intents
                    .entry(*intent)
                    .or_insert_with(|| IntentState::Pending(detail.clone()));
            }
            LogRecord::PurchaseCommit { intent, detail } => {
                self.intents
                    .insert(*intent, IntentState::Committed(detail.clone()));
            }
            LogRecord::PurchaseAbort { intent, reason } => {
                // commit wins over a racing abort record on replay; a
                // committed purchase is never un-happened
                match self.intents.get(intent) {
                    Some(IntentState::Committed(_)) => {}
                    _ => {
                        self.intents
                            .insert(*intent, IntentState::Aborted(reason.clone()));
                    }
                }
            }
            LogRecord::ProfileDelta { agent, delta } => {
                self.deltas.push((*agent, delta.clone()));
            }
            LogRecord::CreateTable { .. } | LogRecord::Put { .. } | LogRecord::Delete { .. } => {
                return Err(DbError::Serialization(
                    "table record is not valid for a durable store".into(),
                ));
            }
        }
        Ok(())
    }

    /// Deltas logged for `agent`, in log order, decoded for
    /// [`crate::agent::Agent::on_recovered`].
    pub fn deltas_for(&self, agent: u64) -> Vec<serde_json::Value> {
        self.deltas
            .iter()
            .filter(|(a, _)| *a == agent)
            .filter_map(|(_, d)| d.to_value().ok())
            .collect()
    }

    /// Encoded bytes of the deltas held for `agent`.
    fn delta_bytes(&self, agent: u64) -> usize {
        self.deltas
            .iter()
            .filter(|(a, _)| *a == agent)
            .map(|(_, d)| d.len())
            .sum()
    }

    /// Intents still pending (logged, no commit or abort).
    pub fn pending_intents(&self) -> impl Iterator<Item = (u64, &serde_json::Value)> {
        self.intents.iter().filter_map(|(id, s)| match s {
            IntentState::Pending(d) => Some((*id, d)),
            _ => None,
        })
    }
}

/// Where a runtime stands when it asks [`DurableStore::wants_capture`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// A callback of an agent active on the host just returned.
    Callback,
    /// A checkpoint is about to be taken.
    Checkpoint,
}

/// Counters a [`DurableStore`] accumulates; merged into the world
/// [`Metrics`] by the owning runtime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurableCounters {
    /// WAL records appended (any kind).
    pub wal_records_appended: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Purchase intents logged.
    pub intents_logged: u64,
    /// Purchase commits logged.
    pub purchases_committed: u64,
    /// Purchase aborts logged.
    pub purchases_aborted: u64,
    /// State deltas logged.
    pub profile_deltas_logged: u64,
}

impl DurableCounters {
    /// Fold these counters into the world metrics.
    pub fn merge_into(&self, m: &mut Metrics) {
        m.wal_records_appended += self.wal_records_appended;
        m.checkpoints += self.checkpoints;
        m.intents_logged += self.intents_logged;
        m.purchases_committed += self.purchases_committed;
        m.purchases_aborted += self.purchases_aborted;
        m.profile_deltas_logged += self.profile_deltas_logged;
    }
}

/// What a recovery pass found: the materialized state plus how much log
/// had to be replayed to get there.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// Materialized durable state (synced prefix over last snapshot).
    pub state: DurableState,
    /// WAL records replayed over the snapshot.
    pub replayed: usize,
}

/// Real-file persistence side-car for a [`DurableStore`]: the WAL is
/// mirrored to `wal` record-for-record and the snapshot lands next to it
/// at `snap_path` on every checkpoint.
#[derive(Debug)]
struct FileBacking {
    wal: FileWal,
    snap_path: PathBuf,
}

/// The stable storage of one durable host.
#[derive(Debug)]
pub struct DurableStore {
    cfg: DurabilityConfig,
    /// Materialized state at the last checkpoint.
    snapshot: DurableState,
    wal: Wal,
    /// Fsync watermark: records `< synced` survive a crash.
    synced: usize,
    /// Writes (appended or skipped as unchanged) since the watermark
    /// last advanced; the watermark moves once this reaches `sync_every`.
    unsynced: usize,
    /// Materialized view of snapshot + full WAL (what a crash-free
    /// reader sees).
    state: DurableState,
    since_checkpoint: usize,
    counters: DurableCounters,
    /// Real-file mirror; `None` = purely simulated stable storage.
    file: Option<FileBacking>,
}

impl Clone for DurableStore {
    /// Clones are in-memory: the file backing (if any) stays with the
    /// original — two handles appending to one log would corrupt it.
    fn clone(&self) -> Self {
        DurableStore {
            cfg: self.cfg,
            snapshot: self.snapshot.clone(),
            wal: self.wal.clone(),
            synced: self.synced,
            unsynced: self.unsynced,
            state: self.state.clone(),
            since_checkpoint: self.since_checkpoint,
            counters: self.counters,
            file: None,
        }
    }
}

impl DurableStore {
    /// Empty store under `cfg`.
    pub fn new(cfg: DurabilityConfig) -> Self {
        DurableStore {
            cfg,
            snapshot: DurableState::default(),
            wal: Wal::new(),
            synced: 0,
            unsynced: 0,
            state: DurableState::default(),
            since_checkpoint: 0,
            counters: DurableCounters::default(),
            file: None,
        }
    }

    /// Open (or create) a store backed by real files: the WAL at `path`
    /// and the snapshot beside it at `{path}.snap`. Existing files are
    /// recovered — snapshot plus surviving log prefix, with a torn final
    /// record repaired — so a process restart resumes where the disk left
    /// off. Everything already on disk counts as synced.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] on filesystem failures; [`DbError::WalCorrupt`] /
    /// [`DbError::Serialization`] if the on-disk log or snapshot is
    /// corrupt beyond a torn tail.
    pub fn with_file(cfg: DurabilityConfig, path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let mut snap_os = path.as_os_str().to_os_string();
        snap_os.push(".snap");
        let snap_path = PathBuf::from(snap_os);
        let snapshot = match std::fs::read(&snap_path) {
            Ok(bytes) => decode_snapshot(&bytes)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => DurableState::default(),
            Err(e) => return Err(DbError::Io(e.to_string())),
        };
        let (file_wal, wal) = FileWal::open(path)?;
        let recovered = Self::replay(&snapshot, &wal)?;
        let synced = wal.len();
        Ok(DurableStore {
            cfg,
            snapshot,
            wal,
            synced,
            unsynced: 0,
            state: recovered.state,
            since_checkpoint: synced,
            counters: DurableCounters::default(),
            file: Some(FileBacking {
                wal: file_wal,
                snap_path,
            }),
        })
    }

    /// Whether this store mirrors to real files.
    pub fn is_file_backed(&self) -> bool {
        self.file.is_some()
    }

    /// The store's configuration.
    pub fn config(&self) -> DurabilityConfig {
        self.cfg
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> DurableCounters {
        self.counters
    }

    /// Reset the counters after they have been merged elsewhere.
    pub fn take_counters(&mut self) -> DurableCounters {
        std::mem::take(&mut self.counters)
    }

    /// Records currently in the WAL (snapshot excluded).
    pub fn wal_len(&self) -> usize {
        self.wal.len()
    }

    /// Records below the fsync watermark (these survive a crash).
    pub fn synced_len(&self) -> usize {
        self.synced
    }

    /// The live materialized state (snapshot + full WAL; crash-free view).
    pub fn state(&self) -> &DurableState {
        &self.state
    }

    /// Whether the runtime should capture `agent` (journalled under
    /// `policy`) now. Capsule-policy agents are captured after every
    /// callback and never at checkpoints (the log already holds their
    /// latest capsule). A delta-policy agent is captured once as a
    /// baseline, then again only at a checkpoint, and only once the deltas
    /// it logged since its last capture encode to at least that capture's
    /// size — so the capture cost is amortized over the deltas it saves
    /// replaying, and replay stays within about twice the live state.
    pub fn wants_capture(&self, agent: u64, policy: DurablePolicy, at: Boundary) -> bool {
        match policy {
            DurablePolicy::Capsule => at == Boundary::Callback,
            DurablePolicy::Deltas => match self.state.capsules.get(&agent) {
                None => true,
                Some(rec) => {
                    at == Boundary::Checkpoint && self.state.delta_bytes(agent) >= rec.capsule.len()
                }
            },
        }
    }

    fn append(&mut self, record: LogRecord, force_sync: bool) -> Result<()> {
        self.state.apply(&record)?;
        if let Some(f) = self.file.as_mut() {
            f.wal.append(&record)?;
        }
        self.wal.append(record);
        self.counters.wal_records_appended += 1;
        self.since_checkpoint += 1;
        self.count_write(force_sync)
    }

    /// Count one write toward the fsync batch, advancing the watermark
    /// when it is forced or the batch is full.
    fn count_write(&mut self, force_sync: bool) -> Result<()> {
        self.unsynced += 1;
        if force_sync || self.unsynced >= self.cfg.sync_every.max(1) {
            self.synced = self.wal.len();
            self.unsynced = 0;
            if let Some(f) = self.file.as_mut() {
                f.wal.sync()?;
            }
        }
        Ok(())
    }

    /// Journal an agent capsule (active or deactivated). Batched sync. A
    /// capsule identical to the agent's current one (same bytes, same
    /// `active`) appends nothing: replaying it would change no state. It
    /// still counts toward the sync batch, so the watermark advances
    /// exactly where it would have had the record been written.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] only on a file-backed store.
    pub fn put_capsule(
        &mut self,
        agent: u64,
        capsule: impl Into<EncodedJson>,
        active: bool,
    ) -> Result<()> {
        let capsule = capsule.into();
        let unchanged = self
            .state
            .capsules
            .get(&agent)
            .is_some_and(|r| r.active == active && r.capsule == capsule);
        if unchanged {
            return self.count_write(false);
        }
        self.append(
            LogRecord::Capsule {
                agent,
                capsule,
                active,
            },
            false,
        )
    }

    /// The agent left this host (dispatch away or dispose); forget it.
    /// Forced: a crash after a departure must never resurrect a second
    /// copy of an agent that is already travelling or disposed.
    ///
    /// # Errors
    ///
    /// See [`DurableStore::put_capsule`].
    pub fn remove_capsule(&mut self, agent: u64) -> Result<()> {
        self.append(LogRecord::CapsuleGone { agent }, true)
    }

    /// Log a purchase intent. Forced to the synced prefix immediately.
    ///
    /// # Errors
    ///
    /// See [`DurableStore::put_capsule`].
    pub fn log_intent(&mut self, intent: u64, detail: serde_json::Value) -> Result<()> {
        self.counters.intents_logged += 1;
        self.append(LogRecord::PurchaseIntent { intent, detail }, true)
    }

    /// Log a purchase commit. Forced.
    ///
    /// # Errors
    ///
    /// See [`DurableStore::put_capsule`].
    pub fn log_commit(&mut self, intent: u64, detail: serde_json::Value) -> Result<()> {
        self.counters.purchases_committed += 1;
        self.append(LogRecord::PurchaseCommit { intent, detail }, true)
    }

    /// Log a purchase abort. Forced.
    ///
    /// # Errors
    ///
    /// See [`DurableStore::put_capsule`].
    pub fn log_abort(&mut self, intent: u64, reason: String) -> Result<()> {
        self.counters.purchases_aborted += 1;
        self.append(LogRecord::PurchaseAbort { intent, reason }, true)
    }

    /// Log a state delta for a delta-policy agent. Batched sync.
    ///
    /// # Errors
    ///
    /// See [`DurableStore::put_capsule`].
    pub fn log_delta(&mut self, agent: u64, delta: impl Into<EncodedJson>) -> Result<()> {
        self.counters.profile_deltas_logged += 1;
        let delta = delta.into();
        self.append(LogRecord::ProfileDelta { agent, delta }, false)
    }

    /// Whether enough records have accumulated to warrant a checkpoint.
    pub fn should_checkpoint(&self) -> bool {
        self.cfg.checkpoint_every > 0 && self.since_checkpoint >= self.cfg.checkpoint_every
    }

    /// Checkpoint: fold `fresh_capsules` (live capsules of the agents
    /// [`DurableStore::wants_capture`] picked at this
    /// [`Boundary::Checkpoint`]) into the state and drop their absorbed
    /// deltas, keep the state as the new snapshot and truncate the WAL.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] only on a file-backed store, if writing the
    /// snapshot or truncating the log file fails; an in-memory checkpoint
    /// cannot fail. On a file-backed store the snapshot is written via
    /// temp-file + rename so it is never torn; a crash between the rename
    /// and the log truncation can replay pre-checkpoint records over the
    /// new snapshot (idempotent for capsules and intents, duplicating
    /// only deltas) — a bounded, documented window.
    pub fn checkpoint(&mut self, fresh_capsules: Vec<(u64, EncodedJson)>) -> Result<()> {
        for (agent, capsule) in fresh_capsules {
            self.state.capsules.insert(
                agent,
                CapsuleRecord {
                    capsule,
                    active: true,
                },
            );
            self.state.deltas.retain(|(a, _)| *a != agent);
        }
        self.snapshot = self.state.clone();
        self.wal.truncate();
        self.synced = 0;
        self.unsynced = 0;
        self.since_checkpoint = 0;
        self.counters.checkpoints += 1;
        if let Some(f) = self.file.as_mut() {
            let mut tmp_os = f.snap_path.as_os_str().to_os_string();
            tmp_os.push(".tmp");
            let tmp = PathBuf::from(tmp_os);
            std::fs::write(&tmp, encode_snapshot(&self.snapshot))
                .map_err(|e| DbError::Io(e.to_string()))?;
            std::fs::rename(&tmp, &f.snap_path).map_err(|e| DbError::Io(e.to_string()))?;
            f.wal.reset(&self.wal)?;
        }
        Ok(())
    }

    /// Crash the host: everything past the fsync watermark is lost, and
    /// the materialized state is rebuilt from the snapshot plus the
    /// surviving log prefix — exactly what recovery will see.
    ///
    /// # Errors
    ///
    /// [`DbError::Serialization`] if the surviving prefix does not replay
    /// (internal corruption); [`DbError::Io`] on a file-backed store.
    pub fn crash(&mut self) -> Result<()> {
        self.wal.retain_prefix(self.synced);
        self.unsynced = 0;
        if let Some(f) = self.file.as_mut() {
            // mirror the loss: the file keeps only the synced prefix
            f.wal.reset(&self.wal)?;
        }
        self.state = Self::replay(&self.snapshot, &self.wal)?.state;
        Ok(())
    }

    /// Recovery pass: materialize snapshot + WAL. On a store that has
    /// been [`DurableStore::crash`]ed this is the durable view; on a live
    /// store it equals [`DurableStore::state`].
    ///
    /// # Errors
    ///
    /// [`DbError::Serialization`] for a table record in the durability
    /// log; [`DbError::WalCorrupt`] never occurs here (the in-memory log
    /// is already decoded).
    pub fn recover(&self) -> Result<Recovered> {
        Self::replay(&self.snapshot, &self.wal)
    }

    fn replay(snapshot: &DurableState, wal: &Wal) -> Result<Recovered> {
        let mut state = snapshot.clone();
        for record in wal.records() {
            state.apply(record)?;
        }
        Ok(Recovered {
            state,
            replayed: wal.len(),
        })
    }

    /// Replay an encoded snapshot + WAL byte log into a state — the
    /// pure function the property tests exercise: `replay(snapshot,
    /// encode(log))` must equal direct application, be idempotent and
    /// tolerate any prefix truncation. An empty snapshot is the empty
    /// state.
    ///
    /// # Errors
    ///
    /// [`DbError::WalCorrupt`] for undecodable non-final records;
    /// [`DbError::Serialization`] for an unreadable snapshot or a table
    /// record in the log.
    pub fn replay_bytes(snapshot: &[u8], wal_bytes: &[u8]) -> Result<Recovered> {
        let wal = Wal::decode(wal_bytes)?;
        Self::replay(&decode_snapshot(snapshot)?, &wal)
    }

    /// Current WAL bytes (what would be on disk past the snapshot).
    pub fn wal_bytes(&self) -> Vec<u8> {
        self.wal.encode()
    }

    /// The snapshot from the last checkpoint, encoded (the empty state
    /// before one).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        encode_snapshot(&self.snapshot)
    }
}

fn encode_snapshot(state: &DurableState) -> Vec<u8> {
    // a DurableState is plain maps of strings/values; serialization
    // cannot fail
    serde_json::to_vec(state).unwrap_or_default()
}

fn decode_snapshot(bytes: &[u8]) -> Result<DurableState> {
    if bytes.is_empty() {
        return Ok(DurableState::default());
    }
    serde_json::from_slice(bytes).map_err(|e| DbError::Serialization(e.to_string()))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use serde_json::json;

    fn cfg(sync_every: usize) -> DurabilityConfig {
        DurabilityConfig {
            checkpoint_every: 0,
            sync_every,
        }
    }

    #[test]
    fn capsule_lifecycle_materializes() {
        let mut s = DurableStore::new(cfg(1));
        s.put_capsule(7, json!({"x": 1}), true).unwrap();
        s.put_capsule(7, json!({"x": 2}), false).unwrap();
        assert_eq!(
            s.state().capsules.get(&7).unwrap(),
            &CapsuleRecord {
                capsule: json!({"x": 2}).into(),
                active: false
            }
        );
        s.remove_capsule(7).unwrap();
        assert!(s.state().capsules.is_empty());
    }

    #[test]
    fn unsynced_tail_is_lost_on_crash_but_forced_records_survive() {
        let mut s = DurableStore::new(cfg(100)); // batch: nothing syncs on its own
        s.put_capsule(1, json!({"a": 1}), true).unwrap();
        s.log_intent(42, json!({"item": 3})).unwrap(); // forced: syncs the prefix
        s.put_capsule(2, json!({"b": 2}), true).unwrap(); // unsynced tail
        assert_eq!(s.synced_len(), 2);
        s.crash().unwrap();
        let rec = s.recover().unwrap();
        assert!(
            rec.state.capsules.contains_key(&1),
            "pre-intent capsule synced"
        );
        assert!(!rec.state.capsules.contains_key(&2), "unsynced tail lost");
        assert!(matches!(
            rec.state.intents.get(&42),
            Some(IntentState::Pending(_))
        ));
    }

    #[test]
    fn commit_wins_over_replayed_abort_and_intent_never_downgrades() {
        let mut st = DurableState::default();
        st.apply(&LogRecord::PurchaseIntent {
            intent: 1,
            detail: json!({}),
        })
        .unwrap();
        st.apply(&LogRecord::PurchaseCommit {
            intent: 1,
            detail: json!({"price": 2.0}),
        })
        .unwrap();
        st.apply(&LogRecord::PurchaseIntent {
            intent: 1,
            detail: json!({}),
        })
        .unwrap();
        st.apply(&LogRecord::PurchaseAbort {
            intent: 1,
            reason: "late".into(),
        })
        .unwrap();
        assert!(matches!(
            st.intents.get(&1),
            Some(IntentState::Committed(_))
        ));
    }

    #[test]
    fn checkpoint_truncates_and_recovery_still_sees_everything() {
        let mut s = DurableStore::new(DurabilityConfig {
            checkpoint_every: 3,
            sync_every: 1,
        });
        s.put_capsule(1, json!({"v": 1}), true).unwrap();
        s.log_intent(9, json!({})).unwrap();
        s.log_commit(9, json!({"ok": true})).unwrap();
        assert!(s.should_checkpoint());
        s.checkpoint(Vec::new()).unwrap();
        assert_eq!(s.wal_len(), 0);
        s.log_delta(5, json!({"d": 1})).unwrap();
        let rec = s.recover().unwrap();
        assert_eq!(rec.replayed, 1, "only post-checkpoint records replay");
        assert!(rec.state.capsules.contains_key(&1));
        assert!(matches!(
            rec.state.intents.get(&9),
            Some(IntentState::Committed(_))
        ));
        assert_eq!(rec.state.deltas_for(5), vec![json!({"d": 1})]);
    }

    #[test]
    fn checkpoint_absorbs_fresh_capsules_and_clears_their_deltas() {
        let mut s = DurableStore::new(cfg(1));
        s.log_delta(5, json!({"d": 1})).unwrap();
        s.checkpoint(vec![(5, json!({"full": true}).into())])
            .unwrap();
        let rec = s.recover().unwrap();
        assert!(rec.state.deltas_for(5).is_empty());
        assert_eq!(
            rec.state.capsules.get(&5).unwrap().capsule,
            json!({"full": true}).into()
        );
    }

    #[test]
    fn unchanged_capsule_appends_nothing_but_counts_toward_sync() {
        let mut s = DurableStore::new(cfg(2));
        s.put_capsule(1, json!({"v": 1}), true).unwrap();
        assert_eq!((s.wal_len(), s.synced_len()), (1, 0));
        // same bytes, same flag: skipped, but it fills the sync batch
        s.put_capsule(1, json!({"v": 1}), true).unwrap();
        assert_eq!((s.wal_len(), s.synced_len()), (1, 1));
        // a flag change is a change
        s.put_capsule(1, json!({"v": 1}), false).unwrap();
        assert_eq!(s.wal_len(), 2);
        assert_eq!(s.counters().wal_records_appended, 2);
        // after a departure the same capsule is new again
        s.remove_capsule(1).unwrap();
        s.put_capsule(1, json!({"v": 1}), false).unwrap();
        assert_eq!(s.wal_len(), 4);
    }

    #[test]
    fn capture_rule_amortizes_delta_agents_over_their_deltas() {
        let mut s = DurableStore::new(cfg(1));
        let (cb, cp) = (Boundary::Callback, Boundary::Checkpoint);
        assert!(s.wants_capture(1, DurablePolicy::Capsule, cb));
        assert!(!s.wants_capture(1, DurablePolicy::Capsule, cp));
        // no baseline yet: capture at either boundary
        assert!(s.wants_capture(2, DurablePolicy::Deltas, cb));
        assert!(s.wants_capture(2, DurablePolicy::Deltas, cp));
        let baseline = EncodedJson::from(json!({"big": "0123456789"}));
        s.put_capsule(2, baseline.clone(), true).unwrap();
        assert!(!s.wants_capture(2, DurablePolicy::Deltas, cb));
        assert!(!s.wants_capture(2, DurablePolicy::Deltas, cp));
        // deltas accumulate until they outweigh the baseline
        s.log_delta(2, json!(1)).unwrap();
        assert!(!s.wants_capture(2, DurablePolicy::Deltas, cp));
        while s.state().delta_bytes(2) < baseline.len() {
            s.log_delta(2, json!(12345)).unwrap();
        }
        assert!(s.wants_capture(2, DurablePolicy::Deltas, cp));
        assert!(!s.wants_capture(2, DurablePolicy::Deltas, cb));
    }

    #[test]
    fn deltas_not_recaptured_ride_along_in_the_snapshot() {
        let mut s = DurableStore::new(cfg(1));
        s.put_capsule(2, json!({"base": 1}), true).unwrap();
        s.log_delta(2, json!({"d": 1})).unwrap();
        s.log_intent(9, json!({})).unwrap();
        s.checkpoint(Vec::new()).unwrap();
        s.log_delta(2, json!({"d": 2})).unwrap();
        let rec = s.recover().unwrap();
        assert_eq!(rec.replayed, 1);
        assert_eq!(&rec.state, s.state());
        assert_eq!(
            rec.state.deltas_for(2),
            vec![json!({"d": 1}), json!({"d": 2})]
        );
        let bytes = DurableStore::replay_bytes(&s.snapshot_bytes(), &s.wal_bytes()).unwrap();
        assert_eq!(&bytes.state, s.state());
    }

    #[test]
    fn table_records_are_rejected() {
        let mut st = DurableState::default();
        assert!(st
            .apply(&LogRecord::CreateTable { table: "t".into() })
            .is_err());
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let mut s = DurableStore::new(cfg(1));
        s.log_intent(1, json!({})).unwrap();
        s.log_abort(1, "x".into()).unwrap();
        let c = s.take_counters();
        assert_eq!(c.wal_records_appended, 2);
        assert_eq!(c.intents_logged, 1);
        assert_eq!(c.purchases_aborted, 1);
        assert_eq!(s.counters().wal_records_appended, 0);
    }
}
