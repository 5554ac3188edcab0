//! Deterministic discrete-event world.
//!
//! [`SimWorld`] hosts agents on named hosts connected by a
//! [`Topology`]. All interaction — message delivery, migration, timers —
//! flows through a single event queue ordered by `(time, sequence)`, so a
//! given seed always produces the identical execution. This is the runtime
//! used by every benchmark; the thread-backed runtime in
//! [`crate::thread_net`] exercises the same [`Agent`] API on real
//! concurrency.
//!
//! # Example
//!
//! ```
//! use agentsim::prelude::*;
//! use serde::{Serialize, Deserialize};
//!
//! #[derive(Serialize, Deserialize)]
//! struct Echo;
//!
//! impl Agent for Echo {
//!     fn agent_type(&self) -> &'static str { "echo" }
//!     fn snapshot(&self) -> serde_json::Value { serde_json::json!(null) }
//!     fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
//!         ctx.note(format!("echoed {}", msg.kind));
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut world = SimWorld::new(7);
//! let host = world.add_host("solo");
//! let echo = world.create_agent(host, Box::new(Echo))?;
//! world.send_external(echo, Message::new("ping"))?;
//! world.run_until_idle();
//! assert_eq!(world.trace().labels(), vec!["echoed ping"]);
//! # Ok(())
//! # }
//! ```

use crate::agent::{Action, Agent, AgentCapsule, AgentRegistry, Ctx, FaultCounter};
use crate::chaos::{ChaosEvent, ChaosPlan, Fault};
use crate::clock::{SimDuration, SimTime};
use crate::durable::{Boundary, DurabilityConfig, DurableStore, EncodedJson};
use crate::error::{PlatformError, Result};
use crate::ids::{AgentId, HostId, MessageId};
use crate::intern::InternedStr;
use crate::message::Message;
use crate::metrics::Metrics;
use crate::net::Topology;
use crate::overload::{deadline_expired, EnqueueVerdict, MailboxConfig, MailboxState};
use crate::security::{Authenticator, TravelPermit};
use crate::storage::DeactivatedStore;
use crate::supervise::{RestoreDecision, SupervisionConfig, Supervisor, Verdict};
use crate::telemetry::{HopKind, SpanEventKind, Telemetry, TraceCtx};
use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};

/// Where an agent currently is, from the world's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// Live on a host, receiving messages.
    Active(HostId),
    /// Serialized in a host's stable store.
    Deactivated(HostId),
    /// Travelling between hosts.
    InTransit,
}

#[derive(Debug)]
enum EventKind {
    Deliver(Message),
    Arrive {
        capsule: AgentCapsule,
        dest: HostId,
    },
    Timer {
        agent: AgentId,
        tag: u64,
        trace: Option<TraceCtx>,
        deadline: Option<SimTime>,
    },
    /// Apply (`heal == false`) or heal (`heal == true`) the chaos plan's
    /// fault at `index`.
    Chaos {
        index: usize,
        heal: bool,
    },
    /// Run the supervision failure detector. Only ever scheduled while
    /// supervision is enabled *and* armed by an observation, so worlds
    /// without supervision stay byte-identical.
    SupervisionTick,
}

/// Live chaos-engine state derived from an installed [`ChaosPlan`].
struct ChaosState {
    dup_probability: f64,
    reorder_probability: f64,
    max_jitter_us: u64,
    events: Vec<ChaosEvent>,
    /// Last scheduled delivery per (sender, receiver) pair: jitter is
    /// clamped so per-pair FIFO order survives reordering (TCP-like).
    fifo: HashMap<(Option<AgentId>, AgentId), SimTime>,
    /// Message ids already delivered to an active agent; duplicate copies
    /// are suppressed at the receiver.
    delivered: HashSet<MessageId>,
}

#[derive(Debug)]
struct QueuedEvent {
    at: SimTime,
    /// Shard that scheduled the event (0 in unsharded worlds). Part of the
    /// ordering key so that same-time events from different shards have a
    /// deterministic total order regardless of heap insertion order.
    shard: u16,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.shard == other.shard && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.shard, self.seq).cmp(&(other.at, other.shard, other.seq))
    }
}

/// What a [`BoundaryItem`] carries across a shard boundary.
pub(crate) enum BoundaryPayload {
    /// A message for an agent owned by another shard.
    Deliver(Message),
    /// An agent migrating to a host owned by another shard.
    Arrive { capsule: AgentCapsule, dest: HostId },
}

/// One cross-shard handoff, exchanged between epochs by
/// [`crate::shard::ShardedSimWorld`]. The `(at, origin_shard, origin_seq)`
/// triple is the item's position in the global total order: the destination
/// shard enqueues it under exactly that key, so same-seed runs reproduce at
/// any shard count and independently of exchange iteration order.
pub(crate) struct BoundaryItem {
    pub(crate) at: SimTime,
    pub(crate) origin_shard: u16,
    pub(crate) origin_seq: u64,
    pub(crate) payload: BoundaryPayload,
}

/// Cross-shard routing state, present only in multi-shard runs (installed
/// by [`crate::shard::ShardedSimWorld`]). `None` — the default — keeps the
/// single-shard world byte-identical to the pre-sharding runtime: none of
/// the boundary paths below are ever taken.
struct BoundaryState {
    /// Minimum latency of a boundary crossing. At least the epoch window:
    /// this is what makes the conservative lock-step barrier safe (an item
    /// sent during an epoch can never land inside any shard's past).
    latency: SimDuration,
    /// Agents known to live on other shards: id → host they were last
    /// announced on (used for fault/latency lookups on the sending side).
    remote_agents: HashMap<AgentId, HostId>,
    /// Hosts owned by other shards.
    remote_hosts: HashSet<HostId>,
    /// Remote hosts currently crashed, mirrored between epochs so remote
    /// dispatches are refused synchronously like local ones.
    remote_down: HashSet<HostId>,
    /// Outgoing boundary items, drained by the coordinator between epochs.
    outbox: Vec<BoundaryItem>,
    /// Agents newly created on (or arrived at) this shard, to be announced
    /// to the other shards at the next epoch exchange.
    announce: Vec<(AgentId, HostId)>,
}

struct Host {
    name: String,
    active: HashMap<AgentId, Box<dyn Agent>>,
    store: DeactivatedStore,
    auth: Authenticator,
    /// Messages for deactivated agents, replayed on activation.
    pending: HashMap<AgentId, Vec<Message>>,
    /// Crashed by the chaos engine: refuses arrivals and deliveries until
    /// restarted. The authenticator survives (stable-storage semantics),
    /// so genuine returning agents still verify after a restart.
    crashed: bool,
    /// WAL-backed stable storage, present when durability is enabled on
    /// the world. Survives crashes (only the unsynced log tail is lost);
    /// replayed by the recovery pass on restart.
    durable: Option<DurableStore>,
    /// Wedged by a chaos hang fault: the host is up and accepts arrivals,
    /// but deliveries and timer callbacks stall into the buffers below
    /// until the hang heals or the supervisor bounces the host.
    hung: bool,
    /// Deliveries that landed while hung, replayed on heal/bounce.
    stalled: Vec<Message>,
    /// Timer callbacks that came due while hung, fired on heal/bounce.
    stalled_timers: Vec<(AgentId, u64, Option<TraceCtx>, Option<SimTime>)>,
}

/// Live self-healing state, present after [`SimWorld::enable_supervision`].
struct SupervisionState {
    supervisor: Supervisor,
    /// Whether a detector tick is currently scheduled. The detector is
    /// dormant (no events) until an observation arms it, and disarms again
    /// once nothing is being watched — otherwise `run_until_idle` would
    /// never drain.
    armed: bool,
    /// Hosts replaced by automatic failover: dead host → standby.
    failed_over: HashMap<HostId, HostId>,
    /// Agents whose home moved in a failover; arrivals of capsules still
    /// carrying the dead home are re-bound from this map.
    rehomed: HashMap<AgentId, HostId>,
    /// In-transit orphans marked for retirement: their home failed over
    /// with no restored owner, so they are dropped on arrival instead of
    /// leaking.
    retired: HashSet<AgentId>,
}

/// The deterministic discrete-event agent world.
///
/// See the [module documentation](self) for an example.
pub struct SimWorld {
    now: SimTime,
    seq: u64,
    events: BinaryHeap<Reverse<QueuedEvent>>,
    hosts: BTreeMap<HostId, Host>,
    locations: HashMap<AgentId, Location>,
    homes: HashMap<AgentId, HostId>,
    /// Permit currently carried by each travelling (or visiting) agent.
    permits: HashMap<AgentId, TravelPermit>,
    topology: Topology,
    registry: AgentRegistry,
    metrics: Metrics,
    trace: Trace,
    rng: StdRng,
    next_agent_id: u64,
    next_msg_id: u64,
    next_host_id: u32,
    /// Safety valve against runaway event loops.
    max_events: u64,
    processed_events: u64,
    /// Chaos engine state, present after [`SimWorld::install_chaos`].
    chaos: Option<ChaosState>,
    /// Telemetry sink (request tracing + metrics registry), off by default.
    telemetry: Telemetry,
    /// Handler span of the callback currently executing, threaded through
    /// nested callbacks by save/restore in [`SimWorld::run_callback`].
    current_trace: Option<TraceCtx>,
    /// Ambient request deadline of the callback currently executing,
    /// stamped onto everything it sends. Same save/restore discipline as
    /// `current_trace`.
    current_deadline: Option<SimTime>,
    /// Bounded-mailbox state, present after [`SimWorld::set_mailbox`].
    /// `None` keeps the unbounded pre-overload behaviour byte-identical.
    mailbox: Option<MailboxState>,
    /// Deadline budget minted for every [`SimWorld::send_external`]
    /// request, if configured.
    ingress_deadline: Option<SimDuration>,
    /// This world's shard index (0 in unsharded worlds); stamped onto every
    /// scheduled event as the middle component of the ordering key.
    shard: u16,
    /// Cross-shard routing state; `None` outside sharded runs.
    boundary: Option<BoundaryState>,
    /// Durability configuration, present after
    /// [`SimWorld::enable_durability`]. `None` — the default — keeps every
    /// journaling seam untaken: traces and metrics stay byte-identical to
    /// the pre-durability runtime.
    durability: Option<DurabilityConfig>,
    /// Self-healing supervision, present after
    /// [`SimWorld::enable_supervision`]. `None` — the default — schedules
    /// no detector events and takes no recovery seams: traces stay
    /// byte-identical and every supervision counter stays zero.
    supervision: Option<SupervisionState>,
    /// External outbox: every `(sender, message)` an agent emitted through
    /// [`Ctx::emit`], in emission order, until [`SimWorld::take_emitted`].
    emitted: Vec<(AgentId, Message)>,
}

impl SimWorld {
    /// Create a world with a LAN topology and the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Self::with_topology(seed, Topology::lan())
    }

    /// Create a world with an explicit topology.
    pub fn with_topology(seed: u64, topology: Topology) -> Self {
        SimWorld {
            now: SimTime::ZERO,
            seq: 0,
            events: BinaryHeap::new(),
            hosts: BTreeMap::new(),
            locations: HashMap::new(),
            homes: HashMap::new(),
            permits: HashMap::new(),
            topology,
            registry: AgentRegistry::new(),
            metrics: Metrics::new(),
            trace: Trace::new(),
            rng: StdRng::seed_from_u64(seed),
            next_agent_id: 1,
            next_msg_id: 1,
            next_host_id: 1,
            max_events: 50_000_000,
            processed_events: 0,
            chaos: None,
            telemetry: Telemetry::new(),
            current_trace: None,
            current_deadline: None,
            mailbox: None,
            ingress_deadline: None,
            shard: 0,
            boundary: None,
            durability: None,
            supervision: None,
            emitted: Vec::new(),
        }
    }

    /// Give every host (existing and future) a WAL-backed
    /// [`DurableStore`]: agent capsules are journalled at callback and
    /// lifecycle boundaries, purchase intents/commits and profile deltas
    /// land via the `Ctx::journal_*` family, and
    /// [`SimWorld::restart_host`] runs a replay-based recovery pass. Off
    /// by default (zero cost, byte-identical traces).
    pub fn enable_durability(&mut self, cfg: DurabilityConfig) {
        self.durability = Some(cfg);
        for h in self.hosts.values_mut() {
            if h.durable.is_none() {
                h.durable = Some(DurableStore::new(cfg));
            }
        }
    }

    /// The world's durability configuration, if enabled.
    pub fn durability(&self) -> Option<DurabilityConfig> {
        self.durability
    }

    /// Read access to a host's durable store (tests, benches).
    pub fn durable_store(&self, host: HostId) -> Option<&DurableStore> {
        self.hosts.get(&host)?.durable.as_ref()
    }

    /// Turn on the self-healing supervision layer: a crashed host is
    /// *suspected* after missing a heartbeat lease and automatically
    /// failed over to a standby (durable replay + roamer reclamation)
    /// once the lease expires; a hung host is bounced after the hang
    /// grace; crash-looping agents are quarantined once their restart
    /// budget runs out. Off by default — no detector events are
    /// scheduled, traces stay byte-identical, and every supervision
    /// counter stays zero.
    pub fn enable_supervision(&mut self, cfg: SupervisionConfig) {
        self.supervision = Some(SupervisionState {
            supervisor: Supervisor::new(cfg),
            armed: false,
            failed_over: HashMap::new(),
            rehomed: HashMap::new(),
            retired: HashSet::new(),
        });
    }

    /// The supervision policy engine, if enabled (tests, benches).
    pub fn supervisor(&self) -> Option<&Supervisor> {
        self.supervision.as_ref().map(|s| &s.supervisor)
    }

    /// Standby host that automatically replaced `host`, if the
    /// supervisor ran a failover for it.
    pub fn failover_of(&self, host: HostId) -> Option<HostId> {
        self.supervision
            .as_ref()
            .and_then(|s| s.failed_over.get(&host).copied())
    }

    /// Whether `host` is currently wedged by a chaos hang fault.
    pub fn host_hung(&self, host: HostId) -> bool {
        self.hosts.get(&host).map(|h| h.hung).unwrap_or(false)
    }

    /// Enforce a per-agent bounded mailbox with the given capacity and
    /// full-mailbox policy. Off by default (unbounded, byte-identical to
    /// the pre-overload behaviour).
    pub fn set_mailbox(&mut self, config: MailboxConfig) {
        self.mailbox = Some(MailboxState::new(Some(config)));
    }

    /// Highest mailbox depth observed so far (0 when bounded mailboxes
    /// are off).
    pub fn mailbox_max_depth(&self) -> usize {
        self.mailbox
            .as_ref()
            .map_or(0, MailboxState::max_depth_seen)
    }

    /// Mint an absolute deadline of `now + budget` on every request
    /// injected via [`SimWorld::send_external`]. `None` (the default)
    /// leaves requests deadline-free.
    pub fn set_ingress_deadline(&mut self, budget: Option<SimDuration>) {
        self.ingress_deadline = budget;
    }

    /// Register a host and return its id.
    pub fn add_host(&mut self, name: impl Into<String>) -> HostId {
        let id = HostId(self.next_host_id);
        self.next_host_id += 1;
        let secret = self.rng.gen();
        self.hosts.insert(
            id,
            Host {
                name: name.into(),
                active: HashMap::new(),
                store: DeactivatedStore::new(),
                auth: Authenticator::new(secret),
                pending: HashMap::new(),
                crashed: false,
                durable: self.durability.map(DurableStore::new),
                hung: false,
                stalled: Vec::new(),
                stalled_timers: Vec::new(),
            },
        );
        id
    }

    /// Mutable access to the agent factory registry.
    pub fn registry_mut(&mut self) -> &mut AgentRegistry {
        &mut self.registry
    }

    /// Shared access to the agent factory registry.
    pub fn registry(&self) -> &AgentRegistry {
        &self.registry
    }

    /// Mutable access to the topology (adjust links between runs).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// Create `agent` on `host` from outside the world (the operator's
    /// hand). `on_creation` runs immediately.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownHost`] if the host does not exist.
    pub fn create_agent(&mut self, host: HostId, agent: Box<dyn Agent>) -> Result<AgentId> {
        if !self.hosts.contains_key(&host) {
            return Err(PlatformError::UnknownHost(host));
        }
        let id = AgentId(self.next_agent_id);
        self.next_agent_id += 1;
        self.install_agent(host, id, agent, true);
        Ok(id)
    }

    /// Inject a message from outside the world (e.g. a simulated browser
    /// request entering the HttpA front). Delivered after the local delay.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownAgent`] if `to` has never been seen.
    pub fn send_external(&mut self, to: AgentId, mut msg: Message) -> Result<MessageId> {
        if !self.locations.contains_key(&to) {
            return Err(PlatformError::UnknownAgent(to));
        }
        msg.id = MessageId(self.next_msg_id);
        self.next_msg_id += 1;
        msg.from = None;
        msg.to = to;
        // Request ingress: mint the root span of a new trace (subject to
        // sampling) and open the first message hop under it.
        msg.trace = if self.telemetry.is_enabled() {
            self.telemetry.mint_root(&msg.kind, self.now).map(|root| {
                self.telemetry.child(
                    root,
                    HopKind::Message,
                    msg.kind.clone(),
                    None,
                    None,
                    self.now,
                )
            })
        } else {
            None
        };
        msg.deadline = self.ingress_deadline.map(|budget| self.now + budget);
        let id = msg.id;
        let delay = self.topology.local_delay();
        let at = self.now + delay;
        self.enqueue_deliver(at, msg);
        Ok(id)
    }

    /// Process a single event. Returns `false` when the queue is empty or
    /// the event budget is exhausted.
    pub fn step(&mut self) -> bool {
        if self.processed_events >= self.max_events {
            return false;
        }
        let Some(Reverse(event)) = self.events.pop() else {
            return false;
        };
        self.processed_events += 1;
        debug_assert!(event.at >= self.now, "event queue must be monotone");
        self.now = event.at;
        match event.kind {
            EventKind::Deliver(msg) => self.handle_deliver(msg),
            EventKind::Arrive { capsule, dest } => self.handle_arrival(capsule, dest),
            EventKind::Timer {
                agent,
                tag,
                trace,
                deadline,
            } => self.handle_timer(agent, tag, trace, deadline),
            EventKind::Chaos { index, heal } => self.handle_chaos(index, heal),
            EventKind::SupervisionTick => self.handle_supervision_tick(),
        }
        if self.durability.is_some() {
            self.maybe_checkpoint();
        }
        true
    }

    /// Checkpoint any durable store whose journal has grown past the
    /// configured threshold: fold the live capsules of delta-journalled
    /// agents into the state, snapshot it, and truncate the WAL. Bounds
    /// replay cost at recovery time.
    fn maybe_checkpoint(&mut self) {
        let hosts: Vec<HostId> = self.hosts.keys().copied().collect();
        for host in hosts {
            let due = self
                .hosts
                .get(&host)
                .and_then(|h| h.durable.as_ref())
                .is_some_and(DurableStore::should_checkpoint);
            if !due {
                continue;
            }
            // Delta-journalled agents only hit the WAL as deltas; capture
            // the ones whose deltas have outgrown their last capture so the
            // snapshot absorbs them and their replayed history is dropped.
            let mut fresh: Vec<(u64, EncodedJson)> = Vec::new();
            if let Some(h) = self.hosts.get(&host) {
                let Some(store) = h.durable.as_ref() else {
                    continue;
                };
                let mut ids: Vec<AgentId> = h
                    .active
                    .iter()
                    .filter(|(id, a)| {
                        store.wants_capture(id.0, a.durable_policy(), Boundary::Checkpoint)
                    })
                    .map(|(id, _)| *id)
                    .collect();
                ids.sort_unstable();
                for id in ids {
                    let Some(agent) = h.active.get(&id) else {
                        continue;
                    };
                    let home = self.homes.get(&id).copied().unwrap_or(host);
                    let permit = self.permits.get(&id).copied();
                    let capsule = AgentCapsule::capture(id, agent.as_ref(), home, permit);
                    fresh.push((id.0, capsule.to_json()));
                }
            }
            if let Some(store) = self.hosts.get_mut(&host).and_then(|h| h.durable.as_mut()) {
                // in-memory checkpoints cannot fail; the runtimes never
                // install file-backed stores
                let _ = store.checkpoint(fresh);
            }
            self.drain_durable_counters(host);
        }
    }

    /// Fold a host's durable-store counters into the world metrics.
    fn drain_durable_counters(&mut self, host: HostId) {
        if let Some(counters) = self
            .hosts
            .get_mut(&host)
            .and_then(|h| h.durable.as_mut())
            .map(DurableStore::take_counters)
        {
            counters.merge_into(&mut self.metrics);
        }
    }

    /// Journal the live capsule of an agent active on a durable host, if
    /// the store's capture rule wants it now (see
    /// [`DurableStore::wants_capture`]).
    fn journal_live_capsule(&mut self, host: HostId, id: AgentId) {
        let home = self.homes.get(&id).copied().unwrap_or(host);
        let permit = self.permits.get(&id).copied();
        let Some(h) = self.hosts.get_mut(&host) else {
            return;
        };
        let (Some(store), Some(agent)) = (h.durable.as_mut(), h.active.get(&id)) else {
            return;
        };
        if !store.wants_capture(id.0, agent.durable_policy(), Boundary::Callback) {
            return;
        }
        let capsule = AgentCapsule::capture(id, agent.as_ref(), home, permit);
        let _ = store.put_capsule(id.0, capsule.to_json(), true);
        self.drain_durable_counters(host);
    }

    /// Journal the removal of an agent's capsule from a host's durable
    /// store (departure or disposal — a crash deliberately does not).
    fn journal_capsule_gone(&mut self, host: HostId, id: AgentId) {
        if let Some(store) = self.hosts.get_mut(&host).and_then(|h| h.durable.as_mut()) {
            let _ = store.remove_capsule(id.0);
            self.drain_durable_counters(host);
        }
    }

    /// Run until no events remain. If request tracing recorded any spans,
    /// quiescence closes them all ([`Telemetry::finalize`]): every request
    /// whose work drained is complete by definition.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
        self.finalize_telemetry();
    }

    /// Close any open request spans at the current instant. Called by
    /// quiescence in [`SimWorld::run_until_idle`] and by the shard
    /// coordinator once the whole sharded world has drained.
    pub(crate) fn finalize_telemetry(&mut self) {
        if !self.telemetry.spans().is_empty() {
            let now = self.now;
            self.telemetry.finalize(now);
        }
    }

    /// Run until the clock reaches `deadline` or the queue drains.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(Reverse(ev)) = self.events.peek() {
            if ev.at > deadline {
                break;
            }
            if !self.step() {
                break;
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Run for `span` of simulated time from the current instant.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.now + span;
        self.run_until(deadline);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Accumulated counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The labelled event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable trace access (e.g. to clear between bench iterations).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// Hand over every `(sender, message)` emitted through [`Ctx::emit`]
    /// since the last call, in emission order, leaving the outbox empty.
    pub fn take_emitted(&mut self) -> Vec<(AgentId, Message)> {
        std::mem::take(&mut self.emitted)
    }

    /// The telemetry sink: request span trees and the metrics registry.
    /// Disabled by default; see [`SimWorld::enable_telemetry`].
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Mutable telemetry access (enable, set sampling, read registries).
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Turn on request tracing: every subsequent
    /// [`SimWorld::send_external`] mints a root span that follows the
    /// request through messages, handlers, migrations and timers.
    pub fn enable_telemetry(&mut self) {
        self.telemetry.enable();
    }

    /// Where `agent` currently is, if the world knows it.
    pub fn location(&self, agent: AgentId) -> Option<Location> {
        self.locations.get(&agent).copied()
    }

    /// Home host of `agent` (where it was created).
    pub fn home_of(&self, agent: AgentId) -> Option<HostId> {
        self.homes.get(&agent).copied()
    }

    /// Ids of agents active on `host`, sorted for determinism.
    pub fn agents_on(&self, host: HostId) -> Vec<AgentId> {
        let Some(h) = self.hosts.get(&host) else {
            return Vec::new();
        };
        let mut ids: Vec<AgentId> = h.active.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Number of active agents on `host`.
    pub fn active_count(&self, host: HostId) -> usize {
        self.hosts.get(&host).map(|h| h.active.len()).unwrap_or(0)
    }

    /// Bytes of deactivated capsules in `host`'s stable store.
    pub fn stored_bytes(&self, host: HostId) -> usize {
        self.hosts
            .get(&host)
            .map(|h| h.store.stored_bytes())
            .unwrap_or(0)
    }

    /// Number of deactivated agents stored on `host`.
    pub fn stored_count(&self, host: HostId) -> usize {
        self.hosts.get(&host).map(|h| h.store.len()).unwrap_or(0)
    }

    /// Host display name.
    pub fn host_name(&self, host: HostId) -> Option<&str> {
        self.hosts.get(&host).map(|h| h.name.as_str())
    }

    /// All host ids, in creation order.
    pub fn hosts(&self) -> Vec<HostId> {
        self.hosts.keys().copied().collect()
    }

    /// Count of failed return-authentications on `host`.
    pub fn auth_rejections(&self, host: HostId) -> u64 {
        self.hosts
            .get(&host)
            .map(|h| h.auth.rejections())
            .unwrap_or(0)
    }

    /// Snapshot of an *active* agent's state, for inspection in tests.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownAgent`] if the agent is not active anywhere.
    pub fn snapshot_of(&self, agent: AgentId) -> Result<serde_json::Value> {
        let Some(Location::Active(host)) = self.locations.get(&agent).copied() else {
            return Err(PlatformError::UnknownAgent(agent));
        };
        let h = self
            .hosts
            .get(&host)
            .ok_or(PlatformError::UnknownHost(host))?;
        let a = h
            .active
            .get(&agent)
            .ok_or(PlatformError::UnknownAgent(agent))?;
        Ok(a.snapshot())
    }

    /// Administratively deactivate an active agent (tests / operators).
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownAgent`] if not active.
    pub fn deactivate_agent(&mut self, agent: AgentId) -> Result<()> {
        match self.locations.get(&agent).copied() {
            Some(Location::Active(host)) => {
                self.do_deactivate(host, agent);
                Ok(())
            }
            Some(Location::Deactivated(_)) => Err(PlatformError::AgentDeactivated(agent)),
            _ => Err(PlatformError::UnknownAgent(agent)),
        }
    }

    /// Administratively activate a deactivated agent.
    ///
    /// # Errors
    ///
    /// [`PlatformError::AgentAlreadyActive`] if active;
    /// [`PlatformError::UnknownAgent`] if unknown.
    pub fn activate_agent(&mut self, agent: AgentId) -> Result<()> {
        match self.locations.get(&agent).copied() {
            Some(Location::Deactivated(host)) => self.do_activate(host, agent),
            Some(Location::Active(_)) => Err(PlatformError::AgentAlreadyActive(agent)),
            _ => Err(PlatformError::UnknownAgent(agent)),
        }
    }

    /// Install `plan` into the world: its faults are scheduled as ordinary
    /// events (apply at `at`, heal at `at + heal_after`) and the message
    /// duplication/reordering knobs take effect immediately. All chaos
    /// randomness is drawn from the world's own RNG, so an execution
    /// reproduces exactly from `(world seed, plan)`.
    pub fn install_chaos(&mut self, plan: &ChaosPlan) {
        for (index, ev) in plan.events.iter().enumerate() {
            self.schedule_at(ev.at(), EventKind::Chaos { index, heal: false });
            self.schedule_at(ev.heals_at(), EventKind::Chaos { index, heal: true });
        }
        self.chaos = Some(ChaosState {
            dup_probability: plan.dup_probability,
            reorder_probability: plan.reorder_probability,
            max_jitter_us: plan.max_jitter_us,
            events: plan.events.clone(),
            fifo: HashMap::new(),
            delivered: HashSet::new(),
        });
        self.trace.record(
            self.now,
            None,
            format!(
                "chaos: plan installed (seed {}, {} events)",
                plan.seed,
                plan.events.len()
            ),
        );
    }

    /// Crash `host`: every active agent and deactivated capsule on it is
    /// lost (the registry reconciles — their locations are forgotten), and
    /// the host refuses deliveries, arrivals and dispatches until
    /// [`SimWorld::restart_host`]. The authenticator survives, modelling
    /// secrets kept on stable storage.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownHost`] if the host does not exist.
    pub fn crash_host(&mut self, host: HostId) -> Result<()> {
        let h = self
            .hosts
            .get_mut(&host)
            .ok_or(PlatformError::UnknownHost(host))?;
        if h.crashed {
            return Ok(());
        }
        h.crashed = true;
        let mut lost: Vec<AgentId> = h.active.keys().copied().collect();
        h.active.clear();
        lost.extend(h.store.drain());
        h.pending.clear();
        // A crash while hung loses the stall buffers with the host.
        h.hung = false;
        let stalled_lost = h.stalled.len() as u64;
        h.stalled.clear();
        h.stalled_timers.clear();
        if let Some(store) = h.durable.as_mut() {
            // Stable storage survives the crash, minus the unsynced WAL
            // tail. The agents still count as lost here; the recovery
            // pass on restart is what brings them back.
            let _ = store.crash();
        }
        for id in &lost {
            self.locations.remove(id);
            self.permits.remove(id);
            if let Some(mb) = &mut self.mailbox {
                mb.forget(*id);
            }
        }
        self.metrics.host_crashes += 1;
        self.metrics.agents_lost_in_crash += lost.len() as u64;
        self.metrics.messages_lost += stalled_lost;
        self.trace.record(
            self.now,
            None,
            format!("chaos: {host} crashed ({} agents lost)", lost.len()),
        );
        let now_us = self.now.as_micros();
        if let Some(state) = self.supervision.as_mut() {
            state.supervisor.observe_hang_cleared(host);
            state.supervisor.observe_crash(host, now_us);
        }
        self.arm_supervision();
        Ok(())
    }

    /// Bring a crashed host back up (empty, but reachable again). With
    /// durability enabled the restart also runs the recovery pass:
    /// replay the WAL over the last snapshot, restore deactivated
    /// capsules into the host's store, rehydrate journalled active
    /// agents, and hand each its logged profile deltas via
    /// [`Agent::on_recovered`].
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownHost`] if the host does not exist.
    pub fn restart_host(&mut self, host: HostId) -> Result<()> {
        let h = self
            .hosts
            .get_mut(&host)
            .ok_or(PlatformError::UnknownHost(host))?;
        if h.crashed {
            h.crashed = false;
            let durable = h.durable.is_some();
            self.trace
                .record(self.now, None, format!("chaos: {host} restarted"));
            if durable {
                self.recover_host(host);
            }
            // A scripted/chaos heal cancels any pending automatic failover.
            if let Some(state) = self.supervision.as_mut() {
                state.supervisor.observe_restart(host);
            }
        }
        Ok(())
    }

    /// Replay a restarted host's durable store and restore its agents.
    fn recover_host(&mut self, host: HostId) {
        let recovered = match self
            .hosts
            .get(&host)
            .and_then(|h| h.durable.as_ref())
            .map(DurableStore::recover)
        {
            Some(Ok(r)) => r,
            Some(Err(e)) => {
                self.trace
                    .record(self.now, None, format!("recovery: {host} failed: {e}"));
                return;
            }
            None => return,
        };
        self.metrics.hosts_recovered += 1;
        self.metrics.wal_records_replayed += recovered.replayed as u64;
        let mut restored_active: Vec<AgentId> = Vec::new();
        let mut restored = 0u64;
        for (raw, rec) in &recovered.state.capsules {
            let id = AgentId(*raw);
            // Poison protection: an agent that keeps crash-looping through
            // recovery passes is quarantined to dead-letters instead of
            // being restored yet again.
            let decision = self
                .supervision
                .as_mut()
                .map(|s| s.supervisor.note_restore(id));
            if matches!(decision, Some(RestoreDecision::Quarantine)) {
                self.metrics.agents_quarantined += 1;
                self.trace.record(
                    self.now,
                    Some(id),
                    format!("supervisor: {id} quarantined (restart budget exhausted)"),
                );
                continue;
            }
            let capsule: AgentCapsule = match rec.capsule.parse() {
                Ok(c) => c,
                Err(e) => {
                    self.trace.record(
                        self.now,
                        None,
                        format!("recovery: {host} capsule for {id} unreadable: {e}"),
                    );
                    continue;
                }
            };
            let home = capsule.home;
            let permit = capsule.permit;
            if rec.active {
                match self.registry.rehydrate(&capsule) {
                    Ok(agent) => {
                        if let Some(h) = self.hosts.get_mut(&host) {
                            h.active.insert(id, agent);
                        }
                        self.locations.insert(id, Location::Active(host));
                        self.homes.insert(id, home);
                        if let Some(p) = permit {
                            self.permits.insert(id, p);
                        }
                        restored_active.push(id);
                        restored += 1;
                    }
                    Err(e) => {
                        self.trace.record(
                            self.now,
                            None,
                            format!("recovery: {host} cannot rehydrate {id}: {e}"),
                        );
                    }
                }
            } else {
                if let Some(h) = self.hosts.get_mut(&host) {
                    h.store.store(capsule);
                }
                self.locations.insert(id, Location::Deactivated(host));
                self.homes.insert(id, home);
                restored += 1;
            }
        }
        self.metrics.agents_recovered += restored;
        self.trace.record(
            self.now,
            None,
            format!(
                "recovery: {host} replayed {} wal records, restored {restored} agents",
                recovered.replayed
            ),
        );
        restored_active.sort_unstable();
        for id in restored_active {
            let deltas = recovered.state.deltas_for(id.0);
            self.metrics.profile_deltas_replayed += deltas.len() as u64;
            self.run_callback(id, None, "on_recovered", move |agent, ctx| {
                agent.on_recovered(ctx, &deltas);
            });
        }
    }

    /// Whether `host` is currently crashed.
    pub fn host_crashed(&self, host: HostId) -> bool {
        self.hosts.get(&host).map(|h| h.crashed).unwrap_or(false)
    }

    /// Ensure a supervision detector tick is scheduled. The detector is
    /// dormant (zero events, zero cost) until an observation arms it.
    fn arm_supervision(&mut self) {
        let interval = match self.supervision.as_mut() {
            Some(state) if !state.armed => {
                state.armed = true;
                state.supervisor.config().lease_interval_us
            }
            _ => return,
        };
        self.schedule(
            SimDuration::from_micros(interval),
            EventKind::SupervisionTick,
        );
    }

    /// Run the failure detector and execute its verdicts, then reschedule
    /// the next tick while anything is still being watched.
    fn handle_supervision_tick(&mut self) {
        let now_us = self.now.as_micros();
        let (verdicts, interval) = match self.supervision.as_mut() {
            Some(state) => (
                state.supervisor.tick(now_us),
                state.supervisor.config().lease_interval_us,
            ),
            None => return,
        };
        for verdict in verdicts {
            match verdict {
                Verdict::Suspect(host) => {
                    self.metrics.hosts_suspected += 1;
                    self.trace.record(
                        self.now,
                        None,
                        format!("supervisor: {host} suspected (missed heartbeat lease)"),
                    );
                }
                Verdict::FailOver(host) => {
                    self.metrics.leases_expired += 1;
                    self.trace.record(
                        self.now,
                        None,
                        format!("supervisor: {host} lease expired, starting failover"),
                    );
                    self.failover_host(host);
                }
                Verdict::BounceHang(host) => {
                    self.metrics.hangs_detected += 1;
                    self.trace.record(
                        self.now,
                        None,
                        format!("supervisor: {host} hung past grace, bouncing"),
                    );
                    self.heal_hang(host, true);
                }
            }
        }
        let watching = self
            .supervision
            .as_ref()
            .is_some_and(|s| s.supervisor.watching());
        if watching {
            self.schedule(
                SimDuration::from_micros(interval),
                EventKind::SupervisionTick,
            );
        } else if let Some(state) = self.supervision.as_mut() {
            state.armed = false;
        }
    }

    /// Automatic host failover: stand up a standby host, move the dead
    /// host's durable store onto it, re-run the replay/rehydrate recovery
    /// pass there unprompted, and reclaim every agent homed on the dead
    /// host — restored agents and roamers are re-bound to the standby
    /// ([`Agent::on_rehomed`]); orphaned roamers with no restored owner
    /// are retired instead of leaking.
    fn failover_host(&mut self, dead: HostId) {
        if !self.host_crashed(dead) {
            return; // healed since the lease expired; nothing to do
        }
        let base_name = self
            .hosts
            .get(&dead)
            .map(|h| h.name.clone())
            .unwrap_or_else(|| format!("{dead}"));
        let standby = self.add_host(format!("{base_name}+failover"));
        // Move (not copy) the durable store: the dead host must not be
        // able to resurrect a second copy of these agents if a scripted
        // heal restarts it later.
        let moved = self.hosts.get_mut(&dead).and_then(|h| h.durable.take());
        if let Some(store) = moved {
            if let Some(s) = self.hosts.get_mut(&standby) {
                s.durable = Some(store);
            }
        }
        self.metrics.failovers += 1;
        self.trace.record(
            self.now,
            None,
            format!("supervisor: {dead} failed over to {standby} ({base_name}+failover)"),
        );
        self.recover_host(standby);
        let restored_any = self
            .hosts
            .get(&standby)
            .map(|h| !h.active.is_empty() || !h.store.is_empty())
            .unwrap_or(false);
        let mut orphans: Vec<AgentId> = self
            .homes
            .iter()
            .filter(|(_, home)| **home == dead)
            .map(|(id, _)| *id)
            .collect();
        orphans.sort_unstable();
        for id in orphans {
            match self.locations.get(&id).copied() {
                Some(Location::Active(at)) if at == standby => {
                    // Restored by the recovery pass above: re-bound
                    // silently as part of the failover itself.
                    self.homes.insert(id, standby);
                    if let Some(state) = self.supervision.as_mut() {
                        state.rehomed.insert(id, standby);
                    }
                    self.run_callback(id, None, "on_rehomed", move |agent, ctx| {
                        agent.on_rehomed(ctx, standby)
                    });
                }
                Some(_) if restored_any => {
                    // A roamer whose owner came back on the standby:
                    // re-bind its lease-stamped home. In-transit agents
                    // get their callback on arrival via the rehomed map.
                    self.homes.insert(id, standby);
                    if let Some(state) = self.supervision.as_mut() {
                        state.rehomed.insert(id, standby);
                    }
                    self.metrics.agents_rehomed += 1;
                    self.trace.record(
                        self.now,
                        Some(id),
                        format!("supervisor: roaming {id} re-bound to {standby}"),
                    );
                    self.run_callback(id, None, "on_rehomed", move |agent, ctx| {
                        agent.on_rehomed(ctx, standby)
                    });
                }
                Some(Location::Active(at)) | Some(Location::Deactivated(at)) => {
                    // No owner restored on the standby: retire the orphan
                    // rather than leak it.
                    self.metrics.agents_retired += 1;
                    self.trace.record(
                        self.now,
                        Some(id),
                        format!("supervisor: orphan {id} retired (home {dead} lost)"),
                    );
                    self.do_dispose(at, id);
                }
                Some(Location::InTransit) => {
                    // Cannot be disposed mid-flight: dropped on arrival.
                    if let Some(state) = self.supervision.as_mut() {
                        state.retired.insert(id);
                    }
                }
                None => {
                    // Lost in the crash and not restored: drop the stale
                    // home entry so a later failover won't re-process it.
                    self.homes.remove(&id);
                }
            }
        }
        if let Some(state) = self.supervision.as_mut() {
            state.failed_over.insert(dead, standby);
        }
    }

    /// Wedge `host` (chaos hang fault): arrivals still land, but
    /// deliveries and timer callbacks stall until the hang heals or the
    /// supervisor bounces the host.
    fn apply_hang(&mut self, host: HostId) {
        let Some(h) = self.hosts.get_mut(&host) else {
            return;
        };
        if h.crashed || h.hung {
            return;
        }
        h.hung = true;
        self.metrics.hangs_injected += 1;
        self.trace.record(
            self.now,
            None,
            format!("chaos: {host} hung (deliveries stalling)"),
        );
        let now_us = self.now.as_micros();
        if let Some(state) = self.supervision.as_mut() {
            state.supervisor.observe_hang(host, now_us);
        }
        self.arm_supervision();
    }

    /// Un-wedge `host` and replay everything that stalled. `bounced`
    /// marks a supervisor-driven bounce rather than a scripted chaos heal.
    fn heal_hang(&mut self, host: HostId, bounced: bool) {
        let (stalled, timers) = {
            let Some(h) = self.hosts.get_mut(&host) else {
                return;
            };
            if !h.hung {
                return;
            }
            h.hung = false;
            (
                std::mem::take(&mut h.stalled),
                std::mem::take(&mut h.stalled_timers),
            )
        };
        let label = if bounced {
            format!(
                "supervisor: {host} bounced ({} stalled deliveries replayed)",
                stalled.len()
            )
        } else {
            format!(
                "chaos: {host} unhung ({} stalled deliveries replayed)",
                stalled.len()
            )
        };
        self.trace.record(self.now, None, label);
        if let Some(state) = self.supervision.as_mut() {
            state.supervisor.observe_hang_cleared(host);
        }
        for msg in stalled {
            let at = self.now + self.topology.local_delay();
            self.enqueue_deliver(at, msg);
        }
        for (agent, tag, trace, deadline) in timers {
            self.schedule_at(
                self.now,
                EventKind::Timer {
                    agent,
                    tag,
                    trace,
                    deadline,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // shard boundary (driven by crate::shard::ShardedSimWorld)
    // ------------------------------------------------------------------

    /// Turn this world into shard `shard` of a multi-shard run. Non-zero
    /// shards get disjoint id bases so agent/message/host ids are globally
    /// unique; shard 0 keeps the default bases, which is what makes the
    /// 1-shard configuration byte-identical to an unsharded world.
    pub(crate) fn enable_boundary(&mut self, shard: u16, latency: SimDuration) {
        self.shard = shard;
        if shard > 0 {
            self.next_agent_id = ((shard as u64) << 40) | 1;
            self.next_msg_id = ((shard as u64) << 40) | 1;
            self.next_host_id = ((shard as u32) << 24) | 1;
        }
        self.boundary = Some(BoundaryState {
            latency,
            remote_agents: HashMap::new(),
            remote_hosts: HashSet::new(),
            remote_down: HashSet::new(),
            outbox: Vec::new(),
            announce: Vec::new(),
        });
    }

    /// Make a host owned by another shard addressable from this one.
    pub(crate) fn register_remote_host(&mut self, host: HostId) {
        if let Some(b) = &mut self.boundary {
            b.remote_hosts.insert(host);
        }
    }

    /// Record (or refresh) the shard-external location of an agent.
    pub(crate) fn register_remote_agent(&mut self, agent: AgentId, host: HostId) {
        if let Some(b) = &mut self.boundary {
            b.remote_agents.insert(agent, host);
        }
    }

    /// Mirror a remote host's crashed/restarted state.
    pub(crate) fn set_remote_host_down(&mut self, host: HostId, down: bool) {
        if let Some(b) = &mut self.boundary {
            if down {
                b.remote_down.insert(host);
            } else {
                b.remote_down.remove(&host);
            }
        }
    }

    /// Time of the earliest queued event, if any.
    pub(crate) fn next_event_at(&self) -> Option<SimTime> {
        self.events.peek().map(|Reverse(e)| e.at)
    }

    /// Process every event strictly before `end` (one conservative epoch).
    /// The clock is left at the last processed event, not advanced to
    /// `end`, so a 1-shard epoch loop replays `run_until_idle` exactly.
    pub(crate) fn run_window(&mut self, end: SimTime) {
        while let Some(Reverse(ev)) = self.events.peek() {
            if ev.at >= end {
                break;
            }
            if !self.step() {
                break;
            }
        }
    }

    /// Advance the clock to the epoch end without processing anything.
    /// Called on every shard (busy or idle) at the inter-epoch barrier so
    /// shard clocks stay in lockstep: if an idle shard's clock lagged (or
    /// ran ahead), a later boundary item could land in its past. With
    /// lockstep, every pending event and every outbox item is stamped at
    /// or after the epoch end, so `now <= end <=` all future work.
    pub(crate) fn sync_clock(&mut self, to: SimTime) {
        if self.now < to {
            self.now = to;
        }
    }

    /// Take the boundary items produced during the last window.
    pub(crate) fn drain_outbox(&mut self) -> Vec<BoundaryItem> {
        self.boundary
            .as_mut()
            .map(|b| std::mem::take(&mut b.outbox))
            .unwrap_or_default()
    }

    /// Take the agent announcements produced during the last window.
    pub(crate) fn drain_announcements(&mut self) -> Vec<(AgentId, HostId)> {
        self.boundary
            .as_mut()
            .map(|b| std::mem::take(&mut b.announce))
            .unwrap_or_default()
    }

    /// Accept a boundary item routed here by the coordinator. The item is
    /// enqueued under its origin `(at, shard, seq)` key, so the resulting
    /// heap order is independent of exchange iteration order.
    pub(crate) fn inject_boundary(&mut self, item: BoundaryItem) {
        debug_assert!(
            item.at >= self.now,
            "boundary item must not land in this shard's past"
        );
        let at = item.at.max(self.now);
        let (shard, seq) = (item.origin_shard, item.origin_seq);
        match item.payload {
            BoundaryPayload::Deliver(msg) => {
                self.metrics.boundary_messages += 1;
                self.enqueue_deliver_keyed(at, Some((shard, seq)), msg);
            }
            BoundaryPayload::Arrive { capsule, dest } => {
                self.metrics.boundary_migrations += 1;
                if let Some(b) = &mut self.boundary {
                    // The agent is ours from injection on.
                    b.remote_agents.remove(&capsule.id);
                }
                self.events.push(Reverse(QueuedEvent {
                    at,
                    shard,
                    seq,
                    kind: EventKind::Arrive { capsule, dest },
                }));
            }
        }
    }

    /// Push an announcement for the other shards, if this world is sharded.
    fn announce(&mut self, id: AgentId, host: HostId) {
        if let Some(b) = &mut self.boundary {
            b.announce.push((id, host));
        }
    }

    /// Host an agent is known to occupy on another shard, if any.
    fn remote_host_of(&self, agent: AgentId) -> Option<HostId> {
        self.boundary
            .as_ref()
            .and_then(|b| b.remote_agents.get(&agent).copied())
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    fn schedule(&mut self, delay: SimDuration, kind: EventKind) {
        let at = self.now + delay;
        self.schedule_at(at, kind);
    }

    /// Schedule at an absolute time (clamped to now, keeping the queue
    /// monotone).
    fn schedule_at(&mut self, at: SimTime, kind: EventKind) {
        let at = at.max(self.now);
        let shard = self.shard;
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Reverse(QueuedEvent {
            at,
            shard,
            seq,
            kind,
        }));
    }

    /// Apply or heal the installed plan's fault at `index`.
    fn handle_chaos(&mut self, index: usize, heal: bool) {
        let Some(ev) = self
            .chaos
            .as_ref()
            .and_then(|c| c.events.get(index))
            .copied()
        else {
            return;
        };
        let label = match (ev.fault, heal) {
            (Fault::Partition { a, b }, false) => {
                self.topology.partition(a, b);
                format!("chaos: partition {a}-{b}")
            }
            (Fault::Partition { a, b }, true) => {
                self.topology.heal_partition(a, b);
                format!("chaos: heal partition {a}-{b}")
            }
            (Fault::LinkLoss { a, b, loss }, false) => {
                self.topology.set_fault_loss(a, b, loss);
                format!("chaos: link {a}-{b} loss {loss:.2}")
            }
            (Fault::LinkLoss { a, b, .. }, true) => {
                self.topology.clear_fault_loss(a, b);
                format!("chaos: heal link {a}-{b} loss")
            }
            (Fault::SlowLink { a, b, factor }, false) => {
                self.topology.set_slowdown(a, b, factor);
                format!("chaos: link {a}-{b} slowed {factor:.1}x")
            }
            (Fault::SlowLink { a, b, .. }, true) => {
                self.topology.clear_slowdown(a, b);
                format!("chaos: heal link {a}-{b} slowdown")
            }
            (Fault::CrashHost { host }, false) => {
                if self.hosts.contains_key(&host) {
                    let _ = self.crash_host(host);
                } else {
                    // Another shard owns the host; mirror its state so
                    // remote dispatches are refused while it is down.
                    self.set_remote_host_down(host, true);
                }
                return; // crash_host traces for itself
            }
            (Fault::CrashHost { host }, true) => {
                if self.hosts.contains_key(&host) {
                    let _ = self.restart_host(host);
                } else {
                    self.set_remote_host_down(host, false);
                }
                return; // restart_host traces for itself
            }
            (Fault::Hang { host }, false) => {
                // Stalling is enforced at the shard that owns the host;
                // other shards see nothing (the hung host still accepts
                // traffic, so there is no routing state to mirror).
                if self.hosts.contains_key(&host) {
                    self.apply_hang(host);
                }
                return; // apply_hang traces for itself
            }
            (Fault::Hang { host }, true) => {
                if self.hosts.contains_key(&host) {
                    self.heal_hang(host, false);
                }
                return; // heal_hang traces for itself
            }
        };
        self.trace.record(self.now, None, label);
    }

    fn install_agent(&mut self, host: HostId, id: AgentId, agent: Box<dyn Agent>, fresh: bool) {
        let h = self.hosts.get_mut(&host).expect("install on known host");
        h.active.insert(id, agent);
        self.locations.insert(id, Location::Active(host));
        if fresh {
            self.homes.insert(id, host);
            self.metrics.agents_created += 1;
            self.announce(id, host);
            self.run_callback(id, None, "on_creation", |agent, ctx| agent.on_creation(ctx));
        }
    }

    /// Run `f` against the (active) agent, then apply the actions it
    /// queued. When the triggering hop carries a trace context (`parent`),
    /// the callback runs under a fresh handler span named `name`, which
    /// becomes the parent of every hop the callback causes.
    fn run_callback<F>(&mut self, id: AgentId, parent: Option<TraceCtx>, name: &str, f: F)
    where
        F: FnOnce(&mut dyn Agent, &mut Ctx<'_>),
    {
        let Some(Location::Active(host)) = self.locations.get(&id).copied() else {
            return;
        };
        let Some(mut agent) = self.hosts.get_mut(&host).and_then(|h| h.active.remove(&id)) else {
            return;
        };
        let handler = parent.map(|p| {
            self.telemetry.child(
                p,
                HopKind::Handler,
                InternedStr::new(name),
                Some(id),
                Some(host),
                self.now,
            )
        });
        let saved = std::mem::replace(&mut self.current_trace, handler);
        // Nested callbacks (on_creation from a Create action, etc.) inherit
        // the caller's ambient deadline; event handlers overwrite it from
        // the carried value before calling in.
        let saved_deadline = self.current_deadline;
        let mut actions = Vec::new();
        {
            let mut ctx = Ctx::new(
                id,
                host,
                self.now,
                &mut self.rng,
                &mut actions,
                &mut self.next_agent_id,
            )
            .with_trace(handler)
            .with_deadline(self.current_deadline);
            f(agent.as_mut(), &mut ctx);
        }
        // Reinsert before applying actions so that actions targeting the
        // agent itself (deactivate_self, dispose_self, dispatch_self) see a
        // consistent world.
        if let Some(h) = self.hosts.get_mut(&host) {
            h.active.insert(id, agent);
        }
        self.apply_actions(id, host, actions);
        // Callback boundary = journaling boundary: if the agent is still
        // active here on a durable host, capture its (possibly mutated)
        // capsule so a crash replays it at this point.
        if self.durability.is_some() && self.locations.get(&id) == Some(&Location::Active(host)) {
            self.journal_live_capsule(host, id);
        }
        if let Some(h) = handler {
            let now = self.now;
            self.telemetry.end(h.span_id, now);
            if let Some(wall) = self
                .telemetry
                .span(h.span_id)
                .and_then(|s| s.wall_end_ns.map(|e| e.saturating_sub(s.wall_start_ns)))
            {
                self.telemetry
                    .registry_mut()
                    .observe("stage.handler_wall_ns", wall);
            }
        }
        self.current_trace = saved;
        self.current_deadline = saved_deadline;
    }

    fn apply_actions(&mut self, actor: AgentId, host: HostId, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send { to, msg } => self.do_send(host, to, msg),
                Action::Emit { msg } => self.emitted.push((actor, msg)),
                Action::Create { id, agent } => {
                    let h = self.hosts.get_mut(&host).expect("actor host exists");
                    h.active.insert(id, agent);
                    self.locations.insert(id, Location::Active(host));
                    self.homes.insert(id, host);
                    self.metrics.agents_created += 1;
                    self.announce(id, host);
                    let parent = self.current_trace;
                    self.run_callback(id, parent, "on_creation", |agent, ctx| {
                        agent.on_creation(ctx)
                    });
                }
                Action::CreateOfType {
                    id,
                    agent_type,
                    state,
                } => {
                    let capsule = AgentCapsule {
                        id,
                        agent_type,
                        state,
                        home: host,
                        permit: None,
                        trace: None,
                        deadline: None,
                    };
                    match self.registry.rehydrate(&capsule) {
                        Ok(agent) => {
                            let h = self.hosts.get_mut(&host).expect("actor host exists");
                            h.active.insert(id, agent);
                            self.locations.insert(id, Location::Active(host));
                            self.homes.insert(id, host);
                            self.metrics.agents_created += 1;
                            self.announce(id, host);
                            let parent = self.current_trace;
                            self.run_callback(id, parent, "on_creation", |agent, ctx| {
                                agent.on_creation(ctx)
                            });
                        }
                        Err(e) => {
                            self.trace.record(
                                self.now,
                                Some(actor),
                                format!("create-of-type failed for {id}: {e}"),
                            );
                        }
                    }
                }
                Action::DispatchSelf { dest } => self.do_dispatch(host, actor, dest),
                Action::CloneSelf { id } => self.do_clone(host, actor, id),
                Action::Retract { id, to } => match self.locations.get(&id).copied() {
                    Some(Location::Active(at)) => {
                        if at == to {
                            self.trace.record(
                                self.now,
                                Some(actor),
                                format!("retract ignored: {id} already at {to}"),
                            );
                        } else {
                            self.do_dispatch(at, id, to);
                        }
                    }
                    other => {
                        self.trace.record(
                            self.now,
                            Some(actor),
                            format!("retract failed: {id} not active ({other:?})"),
                        );
                    }
                },
                Action::Deactivate { id } => {
                    if self.locations.get(&id) == Some(&Location::Active(host)) {
                        self.do_deactivate(host, id);
                    } else {
                        self.trace.record(
                            self.now,
                            Some(actor),
                            format!("deactivate ignored: {id} not active on {host}"),
                        );
                    }
                }
                Action::Activate { id } => {
                    if self.locations.get(&id) == Some(&Location::Deactivated(host)) {
                        let _ = self.do_activate(host, id);
                    } else {
                        self.trace.record(
                            self.now,
                            Some(actor),
                            format!("activate ignored: {id} not stored on {host}"),
                        );
                    }
                }
                Action::Dispose { id } => self.do_dispose(host, id),
                Action::SetTimer { id, delay, tag } => {
                    // A pending timer is a hop of the request that armed
                    // it: span opens at arm, closes at fire.
                    let trace = self.current_trace.map(|p| {
                        self.telemetry.child(
                            p,
                            HopKind::Timer,
                            InternedStr::new("timer"),
                            Some(id),
                            Some(host),
                            self.now,
                        )
                    });
                    let deadline = self.current_deadline;
                    self.schedule(
                        delay,
                        EventKind::Timer {
                            agent: id,
                            tag,
                            trace,
                            deadline,
                        },
                    );
                }
                Action::SetDeadline { deadline } => self.current_deadline = deadline,
                Action::Note { label } => {
                    if let Some(tc) = self.current_trace {
                        self.telemetry.event(
                            tc.span_id,
                            SpanEventKind::Note,
                            label.clone(),
                            self.now,
                        );
                    }
                    self.trace.record(self.now, Some(actor), label);
                }
                Action::CountFault { counter } => {
                    let (kind, label) = match counter {
                        FaultCounter::Retry => {
                            self.metrics.retries += 1;
                            (SpanEventKind::Retry, "retry attempt")
                        }
                        FaultCounter::DegradedReply => {
                            self.metrics.degraded_replies += 1;
                            (SpanEventKind::Degraded, "degraded reply")
                        }
                        FaultCounter::Shed => {
                            self.metrics.requests_shed += 1;
                            (SpanEventKind::Shed, "request shed")
                        }
                        FaultCounter::BreakerRejection => {
                            self.metrics.breaker_rejections += 1;
                            (SpanEventKind::Breaker, "dispatch suppressed: circuit open")
                        }
                        FaultCounter::LedgerResolution => {
                            self.metrics.intents_resolved_by_ledger += 1;
                            (
                                SpanEventKind::Note,
                                "purchase resolved from marketplace ledger",
                            )
                        }
                    };
                    if let Some(tc) = self.current_trace {
                        self.telemetry.event(tc.span_id, kind, label, self.now);
                    }
                }
                Action::Observe { name, value } => {
                    if self.telemetry.is_enabled() {
                        self.telemetry.registry_mut().observe(name.as_str(), value);
                    }
                }
                Action::IncCounter { name, by } => {
                    if self.telemetry.is_enabled() {
                        self.telemetry.registry_mut().inc(name.as_str(), by);
                    }
                }
                Action::JournalIntent { intent, detail } => {
                    if let Some(store) = self.hosts.get_mut(&host).and_then(|h| h.durable.as_mut())
                    {
                        let _ = store.log_intent(intent, detail);
                        self.drain_durable_counters(host);
                    }
                }
                Action::JournalCommit { intent, detail } => {
                    if let Some(store) = self.hosts.get_mut(&host).and_then(|h| h.durable.as_mut())
                    {
                        let _ = store.log_commit(intent, detail);
                        self.drain_durable_counters(host);
                    }
                }
                Action::JournalAbort { intent, reason } => {
                    if let Some(store) = self.hosts.get_mut(&host).and_then(|h| h.durable.as_mut())
                    {
                        let _ = store.log_abort(intent, reason);
                        self.drain_durable_counters(host);
                    }
                }
                Action::JournalDelta { id, delta } => {
                    if let Some(store) = self.hosts.get_mut(&host).and_then(|h| h.durable.as_mut())
                    {
                        let _ = store.log_delta(id.0, delta);
                        self.drain_durable_counters(host);
                    }
                }
            }
        }
    }

    fn do_send(&mut self, from_host: HostId, to: AgentId, mut msg: Message) {
        msg.id = MessageId(self.next_msg_id);
        self.next_msg_id += 1;
        msg.deadline = self.current_deadline;
        // Every send is a fresh hop: any context the message already
        // carried names a hop that ended at its delivery (forwarded or
        // re-sent messages must not reuse a closed span).
        msg.trace = self.current_trace.map(|p| {
            self.telemetry.child(
                p,
                HopKind::Message,
                msg.kind.clone(),
                msg.from,
                Some(from_host),
                self.now,
            )
        });
        let to_host = match self.locations.get(&to) {
            Some(Location::Active(h)) | Some(Location::Deactivated(h)) => *h,
            Some(Location::InTransit) | None => {
                if let Some(remote) = self.remote_host_of(to) {
                    self.send_boundary_message(from_host, remote, msg);
                    return;
                }
                self.metrics.messages_dead_lettered += 1;
                self.telemetry.registry_mut().dead_letter(msg.kind.as_str());
                if let Some(tc) = msg.trace {
                    self.telemetry.event(
                        tc.span_id,
                        SpanEventKind::DeadLetter,
                        format!("{} to {} (unreachable)", msg.kind, to),
                        self.now,
                    );
                    self.telemetry.end(tc.span_id, self.now);
                }
                self.trace.record(
                    self.now,
                    msg.from,
                    format!("dead-letter: {} to {} (unreachable)", msg.kind, to),
                );
                return;
            }
        };
        let bytes = msg.wire_size();
        let loss = self.topology.loss(from_host, to_host);
        if loss > 0.0 && self.rng.gen::<f64>() < loss {
            self.metrics.messages_lost += 1;
            let chaos_fault = self.topology.fault_active(from_host, to_host);
            if chaos_fault {
                self.metrics.chaos_drops += 1;
            }
            if let Some(tc) = msg.trace {
                let label = if chaos_fault {
                    "dropped: chaos fault on link"
                } else {
                    "dropped: link loss"
                };
                self.telemetry
                    .event(tc.span_id, SpanEventKind::Chaos, label, self.now);
                self.telemetry.end(tc.span_id, self.now);
            }
            return;
        }
        if from_host != to_host {
            self.metrics.remote_message_bytes += bytes as u64;
        }
        let mut delay = self.topology.delivery_time(from_host, to_host, bytes);
        if self.chaos.is_none() {
            let at = self.now + delay;
            self.enqueue_deliver(at, msg);
            return;
        }
        let chaos = self.chaos.as_mut().expect("checked above");
        // Bounded reordering: extra jitter on some deliveries, clamped so
        // per-(sender, receiver)-pair FIFO order is preserved (TCP-like;
        // only cross-pair interleavings change).
        let mut jittered = false;
        if chaos.reorder_probability > 0.0 && self.rng.gen::<f64>() < chaos.reorder_probability {
            delay = delay + SimDuration(self.rng.gen_range(0..=chaos.max_jitter_us));
            self.metrics.chaos_delays += 1;
            jittered = true;
        }
        let key = (msg.from, msg.to);
        let mut at = self.now + delay;
        if let Some(&last) = chaos.fifo.get(&key) {
            at = at.max(last);
        }
        // Duplication: a second copy with the *same* message id, scheduled
        // at or after the original; the receiver suppresses it.
        let dup_at = if chaos.dup_probability > 0.0 && self.rng.gen::<f64>() < chaos.dup_probability
        {
            self.metrics.chaos_dupes += 1;
            Some(at + SimDuration(self.rng.gen_range(0..=chaos.max_jitter_us.max(1))))
        } else {
            None
        };
        chaos.fifo.insert(key, dup_at.unwrap_or(at));
        if let Some(tc) = msg.trace {
            if jittered {
                self.telemetry.event(
                    tc.span_id,
                    SpanEventKind::Chaos,
                    "reorder jitter injected",
                    self.now,
                );
            }
            if dup_at.is_some() {
                self.telemetry.event(
                    tc.span_id,
                    SpanEventKind::Chaos,
                    "duplicated by chaos",
                    self.now,
                );
            }
        }
        if let Some(dup_at) = dup_at {
            self.enqueue_deliver(dup_at, msg.clone());
        }
        self.enqueue_deliver(at, msg);
    }

    /// Hand a message to an agent owned by another shard: faults on the
    /// cross-shard link are rolled on the sending side (which owns the
    /// topology overlay for the pair), the hop span is ended here (span
    /// ids do not cross the boundary), and the item joins the outbox with
    /// a delivery time no earlier than the epoch end.
    fn send_boundary_message(&mut self, from_host: HostId, to_host: HostId, mut msg: Message) {
        let bytes = msg.wire_size();
        let loss = self.topology.loss(from_host, to_host);
        if loss > 0.0 && self.rng.gen::<f64>() < loss {
            self.metrics.messages_lost += 1;
            let chaos_fault = self.topology.fault_active(from_host, to_host);
            if chaos_fault {
                self.metrics.chaos_drops += 1;
            }
            if let Some(tc) = msg.trace {
                let label = if chaos_fault {
                    "dropped: chaos fault on link"
                } else {
                    "dropped: link loss"
                };
                self.telemetry
                    .event(tc.span_id, SpanEventKind::Chaos, label, self.now);
                self.telemetry.end(tc.span_id, self.now);
            }
            return;
        }
        self.metrics.remote_message_bytes += bytes as u64;
        if let Some(tc) = msg.strip_trace() {
            self.telemetry.event(
                tc.span_id,
                SpanEventKind::Boundary,
                format!("{} to {} crossed shard boundary", msg.kind, msg.to),
                self.now,
            );
            self.telemetry.end(tc.span_id, self.now);
        }
        let latency = self
            .boundary
            .as_ref()
            .map(|b| b.latency)
            .unwrap_or_default();
        let delay = self
            .topology
            .delivery_time(from_host, to_host, bytes)
            .max(latency);
        let at = self.now + delay;
        let seq = self.seq;
        self.seq += 1;
        let origin_shard = self.shard;
        if let Some(b) = &mut self.boundary {
            b.outbox.push(BoundaryItem {
                at,
                origin_shard,
                origin_seq: seq,
                payload: BoundaryPayload::Deliver(msg),
            });
        }
    }

    /// Dispatch an agent to a host owned by another shard. Mirrors the
    /// local [`SimWorld::do_dispatch`] step for step — refusal on
    /// partition/remote crash, `on_dispatch`, permit issue, loss roll —
    /// then ships the capsule through the outbox instead of the local
    /// event queue. The agent leaves this shard's directory eagerly so
    /// follow-up messages forward across the boundary.
    fn dispatch_boundary(&mut self, host: HostId, id: AgentId, dest: HostId) {
        if self.locations.get(&id) != Some(&Location::Active(host)) {
            return; // already departed or disposed this round
        }
        let down = self
            .boundary
            .as_ref()
            .is_some_and(|b| b.remote_down.contains(&dest));
        if self.topology.is_partitioned(host, dest) || down {
            self.metrics.chaos_drops += 1;
            if let Some(tc) = self.current_trace {
                self.telemetry.event(
                    tc.span_id,
                    SpanEventKind::Chaos,
                    format!("dispatch refused: {dest} unreachable"),
                    self.now,
                );
            }
            self.trace.record(
                self.now,
                Some(id),
                format!("dispatch refused: {dest} unreachable"),
            );
            let parent = self.current_trace;
            self.run_callback(id, parent, "on_dispatch_failed", move |agent, ctx| {
                agent.on_dispatch_failed(ctx, dest)
            });
            return;
        }
        let parent = self.current_trace;
        self.run_callback(id, parent, "on_dispatch", |agent, ctx| {
            agent.on_dispatch(ctx)
        });
        if self.locations.get(&id) != Some(&Location::Active(host)) {
            return;
        }
        let Some(agent) = self.hosts.get_mut(&host).and_then(|h| h.active.remove(&id)) else {
            return;
        };
        let home = self.homes.get(&id).copied().unwrap_or(host);
        let permit = if host == home {
            let h = self.hosts.get_mut(&host).expect("home host exists");
            let p = h.auth.issue(id);
            self.permits.insert(id, p);
            Some(p)
        } else {
            self.permits.get(&id).copied()
        };
        let mut capsule = AgentCapsule::capture(id, agent.as_ref(), home, permit);
        drop(agent);
        capsule.deadline = self.current_deadline;
        capsule.trace = self.current_trace.map(|p| {
            self.telemetry.child(
                p,
                HopKind::Migration,
                capsule.agent_type.clone(),
                Some(id),
                Some(host),
                self.now,
            )
        });
        self.journal_capsule_gone(host, id);
        // The migration hop ends at the boundary: span ids are shard-local.
        if let Some(tc) = capsule.strip_trace() {
            self.telemetry.event(
                tc.span_id,
                SpanEventKind::Boundary,
                format!("{id} crossed shard boundary to {dest}"),
                self.now,
            );
            self.telemetry.end(tc.span_id, self.now);
        }
        let bytes = capsule.wire_size();
        let loss = self.topology.loss(host, dest);
        if loss > 0.0 && self.rng.gen::<f64>() < loss {
            self.locations.remove(&id);
            self.permits.remove(&id);
            self.metrics.messages_lost += 1;
            if self.topology.fault_active(host, dest) {
                self.metrics.chaos_drops += 1;
            }
            self.trace.record(
                self.now,
                Some(id),
                format!("agent lost in transit to {dest}"),
            );
            return;
        }
        self.metrics.migration_bytes += bytes as u64;
        let latency = self
            .boundary
            .as_ref()
            .map(|b| b.latency)
            .unwrap_or_default();
        let delay = self.topology.delivery_time(host, dest, bytes).max(latency);
        let at = self.now + delay;
        // Departed for good as far as this shard is concerned: directory
        // entries move to the remote side so follow-up sends forward.
        self.locations.remove(&id);
        self.permits.remove(&id);
        self.register_remote_agent(id, dest);
        let seq = self.seq;
        self.seq += 1;
        let origin_shard = self.shard;
        if let Some(b) = &mut self.boundary {
            b.outbox.push(BoundaryItem {
                at,
                origin_shard,
                origin_seq: seq,
                payload: BoundaryPayload::Arrive { capsule, dest },
            });
        }
    }

    /// Schedule a delivery, consulting the bounded mailbox (if one is
    /// configured) for an admission verdict first. The mailbox is the
    /// single choke point for every path that ends in
    /// [`EventKind::Deliver`]: agent sends, external ingress, chaos
    /// duplicates, activation replays and boundary injections.
    fn enqueue_deliver(&mut self, at: SimTime, msg: Message) {
        self.enqueue_deliver_keyed(at, None, msg);
    }

    /// [`SimWorld::enqueue_deliver`] with an optional explicit ordering
    /// key. `None` mints a local `(shard, seq)` key lazily — only if the
    /// verdict actually schedules, preserving the unsharded sequence
    /// stream byte for byte. `Some` pins the origin key of a boundary
    /// item so injected deliveries keep their global total order.
    fn enqueue_deliver_keyed(&mut self, at: SimTime, key: Option<(u16, u64)>, msg: Message) {
        if self.mailbox.is_none() {
            self.schedule_deliver(at, key, msg);
            return;
        }
        let verdict = self
            .mailbox
            .as_mut()
            .expect("checked above")
            .on_enqueue(msg.to, msg.id);
        match verdict {
            EnqueueVerdict::Admit => self.schedule_deliver(at, key, msg),
            EnqueueVerdict::AdmitEvictingOldest => {
                self.metrics.mailbox_rejections += 1;
                self.trace.record(
                    self.now,
                    msg.from,
                    format!("mailbox full at {}: oldest queued message evicted", msg.to),
                );
                self.schedule_deliver(at, key, msg);
            }
            EnqueueVerdict::Reject => {
                self.metrics.mailbox_rejections += 1;
                if let Some(tc) = msg.trace {
                    self.telemetry.event(
                        tc.span_id,
                        SpanEventKind::Shed,
                        format!("shed: mailbox full at {}", msg.to),
                        self.now,
                    );
                    self.telemetry.end(tc.span_id, self.now);
                }
                self.trace.record(
                    self.now,
                    msg.from,
                    format!("mailbox full at {}: {} rejected", msg.to, msg.kind),
                );
            }
            EnqueueVerdict::Defer => {
                if let Some(tc) = msg.trace {
                    self.telemetry.event(
                        tc.span_id,
                        SpanEventKind::Note,
                        format!("mailbox full at {}: delivery deferred", msg.to),
                        self.now,
                    );
                }
                let mailbox = self.mailbox.as_mut().expect("mailbox present");
                mailbox.defer(msg);
            }
        }
        let max_depth = self
            .mailbox
            .as_ref()
            .map_or(0, MailboxState::max_depth_seen);
        if self.telemetry.is_enabled() {
            self.telemetry
                .registry_mut()
                .set_gauge("overload.mailbox_depth_max", max_depth as f64);
        }
    }

    /// Push an admitted delivery onto the heap, under the given origin key
    /// or a freshly minted local one.
    fn schedule_deliver(&mut self, at: SimTime, key: Option<(u16, u64)>, msg: Message) {
        match key {
            None => self.schedule_at(at, EventKind::Deliver(msg)),
            Some((shard, seq)) => {
                let at = at.max(self.now);
                self.events.push(Reverse(QueuedEvent {
                    at,
                    shard,
                    seq,
                    kind: EventKind::Deliver(msg),
                }));
            }
        }
    }

    fn handle_deliver(&mut self, mut msg: Message) {
        let to = msg.to;
        if let Some(mailbox) = &mut self.mailbox {
            let outcome = mailbox.on_consume(to, msg.id);
            if let Some(released) = outcome.released {
                // A deferred (block policy) message takes the freed slot;
                // it was already admitted, so schedule it directly.
                let at = self.now;
                self.schedule_at(at, EventKind::Deliver(released));
            }
            if outcome.tombstoned {
                if let Some(tc) = msg.trace {
                    self.telemetry.event(
                        tc.span_id,
                        SpanEventKind::Shed,
                        "evicted: mailbox overflow (reject-oldest)",
                        self.now,
                    );
                    self.telemetry.end(tc.span_id, self.now);
                }
                self.trace.record(
                    self.now,
                    msg.from,
                    format!("evicted from {}'s mailbox: {}", to, msg.kind),
                );
                return;
            }
        }
        if deadline_expired(msg.deadline, self.now) {
            self.metrics.deadline_drops += 1;
            if let Some(tc) = msg.trace {
                self.telemetry.event(
                    tc.span_id,
                    SpanEventKind::DeadlineExceeded,
                    format!("dropped: deadline passed before {} delivery", msg.kind),
                    self.now,
                );
                self.telemetry.end(tc.span_id, self.now);
            }
            self.trace.record(
                self.now,
                msg.from,
                format!("deadline exceeded: {} to {} dropped", msg.kind, to),
            );
            return;
        }
        match self.locations.get(&to).copied() {
            Some(Location::Active(host)) => {
                // A hung host accepts the connection but never drains it:
                // the delivery stalls (before duplicate suppression, so
                // the replayed copy is not mistaken for a chaos dupe).
                if self.hosts.get(&host).is_some_and(|h| h.hung) {
                    if let Some(tc) = msg.trace {
                        self.telemetry.event(
                            tc.span_id,
                            SpanEventKind::Note,
                            format!("stalled: {host} hung"),
                            self.now,
                        );
                    }
                    if let Some(h) = self.hosts.get_mut(&host) {
                        h.stalled.push(msg);
                    }
                    return;
                }
                // Receiver-side duplicate suppression: a chaos-injected
                // copy carries the original's id and is dropped here.
                if let Some(chaos) = &mut self.chaos {
                    if !chaos.delivered.insert(msg.id) {
                        self.metrics.dupes_suppressed += 1;
                        if let Some(tc) = msg.trace {
                            self.telemetry.event(
                                tc.span_id,
                                SpanEventKind::Chaos,
                                "duplicate suppressed at receiver",
                                self.now,
                            );
                        }
                        return;
                    }
                }
                self.metrics.messages_delivered += 1;
                let _ = host;
                if let Some(tc) = msg.trace {
                    if let Some(dur) = self.telemetry.end(tc.span_id, self.now) {
                        let reg = self.telemetry.registry_mut();
                        reg.observe("stage.transfer_us", dur);
                        reg.observe(&format!("latency_us.{}", msg.kind), dur);
                        reg.inc(&format!("delivered.{}", msg.kind), 1);
                    }
                }
                let parent = msg.trace;
                let kind = msg.kind.clone();
                self.current_deadline = msg.deadline;
                self.run_callback(to, parent, kind.as_str(), move |agent, ctx| {
                    agent.on_message(ctx, msg)
                });
                self.current_deadline = None;
            }
            Some(Location::Deactivated(host)) => {
                // Held until the agent is activated, like a mailbox; the
                // hop span stays open until the replayed copy lands.
                if let Some(tc) = msg.trace {
                    self.telemetry.event(
                        tc.span_id,
                        SpanEventKind::Note,
                        "parked: recipient deactivated",
                        self.now,
                    );
                }
                if let Some(h) = self.hosts.get_mut(&host) {
                    h.pending.entry(to).or_default().push(msg);
                }
            }
            Some(Location::InTransit) | None => {
                if let Some(remote) = self.remote_host_of(to) {
                    // The recipient moved to another shard after this
                    // delivery was queued: forward across the boundary
                    // instead of dead-lettering.
                    if let Some(tc) = msg.strip_trace() {
                        self.telemetry.event(
                            tc.span_id,
                            SpanEventKind::Boundary,
                            format!("{} to {} forwarded across shard boundary", msg.kind, to),
                            self.now,
                        );
                        self.telemetry.end(tc.span_id, self.now);
                    }
                    let latency = self
                        .boundary
                        .as_ref()
                        .map(|b| b.latency)
                        .unwrap_or_default();
                    let at = self.now + latency;
                    let seq = self.seq;
                    self.seq += 1;
                    let origin_shard = self.shard;
                    let _ = remote;
                    if let Some(b) = &mut self.boundary {
                        b.outbox.push(BoundaryItem {
                            at,
                            origin_shard,
                            origin_seq: seq,
                            payload: BoundaryPayload::Deliver(msg),
                        });
                    }
                    return;
                }
                self.metrics.messages_dead_lettered += 1;
                self.telemetry.registry_mut().dead_letter(msg.kind.as_str());
                if let Some(tc) = msg.trace {
                    self.telemetry.event(
                        tc.span_id,
                        SpanEventKind::DeadLetter,
                        format!("{} to {} (gone at delivery)", msg.kind, to),
                        self.now,
                    );
                    self.telemetry.end(tc.span_id, self.now);
                }
                self.trace.record(
                    self.now,
                    msg.from,
                    format!("dead-letter: {} to {} (gone at delivery)", msg.kind, to),
                );
            }
        }
    }

    /// Clone `actor` (active on `host`) under the fresh id `clone_id`.
    fn do_clone(&mut self, host: HostId, actor: AgentId, clone_id: AgentId) {
        let capsule = {
            let Some(h) = self.hosts.get(&host) else {
                return;
            };
            let Some(agent) = h.active.get(&actor) else {
                return;
            };
            AgentCapsule::capture(clone_id, agent.as_ref(), host, None)
        };
        match self.registry.rehydrate(&capsule) {
            Ok(copy) => {
                let h = self.hosts.get_mut(&host).expect("actor host exists");
                h.active.insert(clone_id, copy);
                self.locations.insert(clone_id, Location::Active(host));
                self.homes.insert(clone_id, host);
                self.metrics.agents_created += 1;
                self.announce(clone_id, host);
                let parent = self.current_trace;
                self.run_callback(clone_id, parent, "on_clone", |agent, ctx| {
                    agent.on_clone(ctx)
                });
            }
            Err(e) => {
                self.trace.record(
                    self.now,
                    Some(actor),
                    format!("clone failed for {actor}: {e}"),
                );
            }
        }
    }

    /// Administratively recall an active agent to `to` (operator-side
    /// `retract`).
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownAgent`] if not active anywhere;
    /// [`PlatformError::UnknownHost`] if `to` does not exist.
    pub fn retract_agent(&mut self, agent: AgentId, to: HostId) -> Result<()> {
        if !self.hosts.contains_key(&to) {
            return Err(PlatformError::UnknownHost(to));
        }
        match self.locations.get(&agent).copied() {
            Some(Location::Active(at)) => {
                if at != to {
                    self.do_dispatch(at, agent, to);
                }
                Ok(())
            }
            _ => Err(PlatformError::UnknownAgent(agent)),
        }
    }

    fn do_dispatch(&mut self, host: HostId, id: AgentId, dest: HostId) {
        if !self.hosts.contains_key(&dest) {
            let is_remote = self
                .boundary
                .as_ref()
                .is_some_and(|b| b.remote_hosts.contains(&dest));
            if is_remote {
                self.dispatch_boundary(host, id, dest);
                return;
            }
            self.trace.record(
                self.now,
                Some(id),
                format!("dispatch failed: unknown {dest}"),
            );
            return;
        }
        if self.locations.get(&id) != Some(&Location::Active(host)) {
            return; // already departed or disposed this round
        }
        // A partitioned or crashed destination refuses the dispatch
        // synchronously: the agent stays put and may route around it.
        if self.topology.is_partitioned(host, dest) || self.host_crashed(dest) {
            self.metrics.chaos_drops += 1;
            if let Some(tc) = self.current_trace {
                self.telemetry.event(
                    tc.span_id,
                    SpanEventKind::Chaos,
                    format!("dispatch refused: {dest} unreachable"),
                    self.now,
                );
            }
            self.trace.record(
                self.now,
                Some(id),
                format!("dispatch refused: {dest} unreachable"),
            );
            let parent = self.current_trace;
            self.run_callback(id, parent, "on_dispatch_failed", move |agent, ctx| {
                agent.on_dispatch_failed(ctx, dest)
            });
            return;
        }
        // Lifecycle callback before departure; its actions execute on the
        // origin host.
        let parent = self.current_trace;
        self.run_callback(id, parent, "on_dispatch", |agent, ctx| {
            agent.on_dispatch(ctx)
        });
        // The callback may have disposed or deactivated the agent.
        if self.locations.get(&id) != Some(&Location::Active(host)) {
            return;
        }
        let Some(agent) = self.hosts.get_mut(&host).and_then(|h| h.active.remove(&id)) else {
            return;
        };
        let home = self.homes.get(&id).copied().unwrap_or(host);
        let permit = if host == home {
            let h = self.hosts.get_mut(&host).expect("home host exists");
            let p = h.auth.issue(id);
            self.permits.insert(id, p);
            Some(p)
        } else {
            self.permits.get(&id).copied()
        };
        let mut capsule = AgentCapsule::capture(id, agent.as_ref(), home, permit);
        drop(agent); // the live instance stays behind and is destroyed
        capsule.deadline = self.current_deadline;
        // The travelling capsule is a migration hop of the request that
        // asked for the dispatch.
        capsule.trace = self.current_trace.map(|p| {
            self.telemetry.child(
                p,
                HopKind::Migration,
                capsule.agent_type.clone(),
                Some(id),
                Some(host),
                self.now,
            )
        });
        self.locations.insert(id, Location::InTransit);
        // The agent has left: its capsule is no longer this host's to
        // restore. Journalled (forced) so a crash cannot resurrect a
        // second copy of an agent that already departed.
        self.journal_capsule_gone(host, id);
        let bytes = capsule.wire_size();
        let loss = self.topology.loss(host, dest);
        if loss > 0.0 && self.rng.gen::<f64>() < loss {
            // The capsule is lost in transit: the agent is gone.
            self.locations.remove(&id);
            self.permits.remove(&id);
            self.metrics.messages_lost += 1;
            if self.topology.fault_active(host, dest) {
                self.metrics.chaos_drops += 1;
            }
            if let Some(tc) = capsule.trace {
                self.telemetry.event(
                    tc.span_id,
                    SpanEventKind::Chaos,
                    format!("agent lost in transit to {dest}"),
                    self.now,
                );
                self.telemetry.end(tc.span_id, self.now);
            }
            self.trace.record(
                self.now,
                Some(id),
                format!("agent lost in transit to {dest}"),
            );
            return;
        }
        self.metrics.migration_bytes += bytes as u64;
        let delay = self.topology.delivery_time(host, dest, bytes);
        self.schedule(delay, EventKind::Arrive { capsule, dest });
    }

    fn handle_arrival(&mut self, capsule: AgentCapsule, dest: HostId) {
        let id = capsule.id;
        // A crash while the capsule was in flight loses the agent.
        if self.host_crashed(dest) {
            self.locations.remove(&id);
            self.permits.remove(&id);
            self.metrics.agents_lost_in_crash += 1;
            self.metrics.chaos_drops += 1;
            if let Some(tc) = capsule.trace {
                self.telemetry.event(
                    tc.span_id,
                    SpanEventKind::Chaos,
                    format!("arrival failed: {dest} crashed; agent lost"),
                    self.now,
                );
                self.telemetry.end(tc.span_id, self.now);
            }
            self.trace.record(
                self.now,
                Some(id),
                format!("arrival failed: {dest} crashed; {id} lost"),
            );
            return;
        }
        // An orphan marked for retirement while in transit (its home
        // failed over with no restored owner) is dropped here rather
        // than leaked.
        if self
            .supervision
            .as_ref()
            .is_some_and(|s| s.retired.contains(&id))
        {
            if let Some(state) = self.supervision.as_mut() {
                state.retired.remove(&id);
            }
            self.locations.remove(&id);
            self.permits.remove(&id);
            self.metrics.agents_retired += 1;
            if let Some(tc) = capsule.trace {
                self.telemetry.end(tc.span_id, self.now);
            }
            self.trace.record(
                self.now,
                Some(id),
                format!("supervisor: orphan {id} retired on arrival at {dest}"),
            );
            return;
        }
        // Work past its deadline is cancelled rather than landed: the
        // requester has already been answered (or timed out) by now.
        if deadline_expired(capsule.deadline, self.now) {
            self.locations.remove(&id);
            self.permits.remove(&id);
            self.metrics.deadline_drops += 1;
            if let Some(tc) = capsule.trace {
                self.telemetry.event(
                    tc.span_id,
                    SpanEventKind::DeadlineExceeded,
                    format!("cancelled: deadline passed before arrival at {dest}"),
                    self.now,
                );
                self.telemetry.end(tc.span_id, self.now);
            }
            self.trace.record(
                self.now,
                Some(id),
                format!("deadline exceeded: {id} cancelled before arrival at {dest}"),
            );
            return;
        }
        // Returning home: the paper demands authentication (§4.1 p.2).
        if dest == capsule.home {
            let expects = self
                .hosts
                .get(&dest)
                .map(|h| h.auth.expects(id))
                .unwrap_or(false);
            if expects {
                let ok = match capsule.permit {
                    Some(permit) => self
                        .hosts
                        .get_mut(&dest)
                        .map(|h| h.auth.verify(id, &permit))
                        .unwrap_or(false),
                    None => {
                        if let Some(h) = self.hosts.get_mut(&dest) {
                            // no permit presented: count as a rejection
                            let bogus = TravelPermit {
                                agent: id,
                                nonce: 0,
                                mac: 0,
                            };
                            h.auth.verify(id, &bogus);
                        }
                        false
                    }
                };
                if !ok {
                    self.metrics.migrations_rejected += 1;
                    self.locations.remove(&id);
                    self.permits.remove(&id);
                    if let Some(tc) = capsule.trace {
                        self.telemetry.event(
                            tc.span_id,
                            SpanEventKind::Note,
                            format!("arrival rejected at {dest}: authentication failed"),
                            self.now,
                        );
                        self.telemetry.end(tc.span_id, self.now);
                    }
                    self.trace.record(
                        self.now,
                        Some(id),
                        format!("arrival rejected at {dest}: authentication failed"),
                    );
                    return;
                }
                self.permits.remove(&id);
            }
        } else if let Some(p) = capsule.permit {
            // Keep carrying the home permit while visiting foreign hosts.
            self.permits.insert(id, p);
        }
        match self.registry.rehydrate(&capsule) {
            Ok(agent) => {
                self.metrics.migrations += 1;
                let h = self.hosts.get_mut(&dest).expect("arrival host exists");
                h.active.insert(id, agent);
                self.locations.insert(id, Location::Active(dest));
                // A no-op for local migrations (already set at creation);
                // records the true home of cross-shard arrivals so their
                // later dispatches carry the right permit expectations.
                self.homes.insert(id, capsule.home);
                // A capsule that left before its home failed over still
                // carries the dead home: re-bind it from the rehome map.
                let rehome = self
                    .supervision
                    .as_ref()
                    .and_then(|s| s.rehomed.get(&id).copied())
                    .filter(|new_home| *new_home != capsule.home);
                if let Some(new_home) = rehome {
                    self.homes.insert(id, new_home);
                    self.run_callback(id, None, "on_rehomed", move |agent, ctx| {
                        agent.on_rehomed(ctx, new_home)
                    });
                }
                self.announce(id, dest);
                if let Some(tc) = capsule.trace {
                    if let Some(dur) = self.telemetry.end(tc.span_id, self.now) {
                        self.telemetry
                            .registry_mut()
                            .observe("stage.migration_us", dur);
                    }
                }
                self.current_deadline = capsule.deadline;
                self.run_callback(id, capsule.trace, "on_arrival", |agent, ctx| {
                    agent.on_arrival(ctx)
                });
                self.current_deadline = None;
            }
            Err(e) => {
                self.metrics.migrations_rejected += 1;
                self.locations.remove(&id);
                self.permits.remove(&id);
                if let Some(tc) = capsule.trace {
                    self.telemetry.event(
                        tc.span_id,
                        SpanEventKind::Note,
                        format!("arrival rejected at {dest}: {e}"),
                        self.now,
                    );
                    self.telemetry.end(tc.span_id, self.now);
                }
                self.trace.record(
                    self.now,
                    Some(id),
                    format!("arrival rejected at {dest}: {e}"),
                );
            }
        }
    }

    fn do_deactivate(&mut self, host: HostId, id: AgentId) {
        let parent = self.current_trace;
        self.run_callback(id, parent, "on_deactivation", |agent, ctx| {
            agent.on_deactivation(ctx)
        });
        // The callback may itself have changed the agent's state.
        if self.locations.get(&id) != Some(&Location::Active(host)) {
            return;
        }
        let Some(agent) = self.hosts.get_mut(&host).and_then(|h| h.active.remove(&id)) else {
            return;
        };
        let home = self.homes.get(&id).copied().unwrap_or(host);
        let capsule = AgentCapsule::capture(id, agent.as_ref(), home, None);
        let h = self.hosts.get_mut(&host).expect("host exists");
        if let Some(store) = h.durable.as_mut() {
            let _ = store.put_capsule(id.0, capsule.to_json(), false);
        }
        h.store.store(capsule);
        self.drain_durable_counters(host);
        self.locations.insert(id, Location::Deactivated(host));
        self.metrics.deactivations += 1;
    }

    fn do_activate(&mut self, host: HostId, id: AgentId) -> Result<()> {
        let capsule = {
            let h = self
                .hosts
                .get_mut(&host)
                .ok_or(PlatformError::UnknownHost(host))?;
            h.store.load(id).ok_or(PlatformError::UnknownAgent(id))?
        };
        let agent = match self.registry.rehydrate(&capsule) {
            Ok(a) => a,
            Err(e) => {
                // Put the capsule back: activation failed but the agent is
                // not lost.
                if let Some(h) = self.hosts.get_mut(&host) {
                    h.store.store(capsule);
                }
                return Err(e);
            }
        };
        let h = self.hosts.get_mut(&host).expect("host exists");
        h.active.insert(id, agent);
        self.locations.insert(id, Location::Active(host));
        self.metrics.activations += 1;
        let parent = self.current_trace;
        self.run_callback(id, parent, "on_activation", |agent, ctx| {
            agent.on_activation(ctx)
        });
        // Replay messages that arrived while deactivated.
        let pending = self
            .hosts
            .get_mut(&host)
            .and_then(|h| h.pending.remove(&id))
            .unwrap_or_default();
        for msg in pending {
            let delay = self.topology.local_delay();
            let at = self.now + delay;
            self.enqueue_deliver(at, msg);
        }
        Ok(())
    }

    fn do_dispose(&mut self, host: HostId, id: AgentId) {
        match self.locations.get(&id).copied() {
            Some(Location::Active(h)) if h == host => {
                let parent = self.current_trace;
                self.run_callback(id, parent, "on_disposal", |agent, ctx| {
                    agent.on_disposal(ctx)
                });
                if let Some(hh) = self.hosts.get_mut(&host) {
                    hh.active.remove(&id);
                    hh.pending.remove(&id);
                }
                self.locations.remove(&id);
                self.permits.remove(&id);
                if let Some(mb) = &mut self.mailbox {
                    mb.forget(id);
                }
                self.journal_capsule_gone(host, id);
                self.metrics.agents_disposed += 1;
            }
            Some(Location::Deactivated(h)) if h == host => {
                if let Some(hh) = self.hosts.get_mut(&host) {
                    hh.store.load(id);
                    hh.pending.remove(&id);
                }
                self.locations.remove(&id);
                if let Some(mb) = &mut self.mailbox {
                    mb.forget(id);
                }
                self.journal_capsule_gone(host, id);
                self.metrics.agents_disposed += 1;
            }
            _ => {
                self.trace.record(
                    self.now,
                    Some(id),
                    format!("dispose ignored: {id} not on {host}"),
                );
            }
        }
    }

    fn handle_timer(
        &mut self,
        agent: AgentId,
        tag: u64,
        trace: Option<TraceCtx>,
        deadline: Option<SimTime>,
    ) {
        if let Some(Location::Active(host)) = self.locations.get(&agent).copied() {
            // Wedged scheduler: the callback only fires once the hang
            // clears (heal or supervisor bounce).
            if self.hosts.get(&host).is_some_and(|h| h.hung) {
                if let Some(h) = self.hosts.get_mut(&host) {
                    h.stalled_timers.push((agent, tag, trace, deadline));
                }
                return;
            }
            self.metrics.timers_fired += 1;
            if let Some(tc) = trace {
                if let Some(dur) = self.telemetry.end(tc.span_id, self.now) {
                    self.telemetry
                        .registry_mut()
                        .observe("stage.timer_wait_us", dur);
                }
            }
            // Timers fire even past the deadline: a watchdog is often the
            // very thing that turns an expired request into a reply.
            self.current_deadline = deadline;
            self.run_callback(agent, trace, "on_timer", move |a, ctx| a.on_timer(ctx, tag));
            self.current_deadline = None;
        } else if let Some(tc) = trace {
            // Agent gone (disposed, migrated, crashed): the pending-timer
            // hop still closes.
            self.telemetry.end(tc.span_id, self.now);
        }
    }
}

impl std::fmt::Debug for SimWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimWorld")
            .field("now", &self.now)
            .field("hosts", &self.hosts.len())
            .field("agents", &self.locations.len())
            .field("queued_events", &self.events.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    /// Agent that counts messages and can be told to act via message kinds.
    #[derive(Debug, Default, Serialize, Deserialize)]
    struct Worker {
        count: u32,
    }

    impl Agent for Worker {
        fn agent_type(&self) -> &'static str {
            "worker"
        }
        fn snapshot(&self) -> serde_json::Value {
            serde_json::to_value(self).unwrap()
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            self.count += 1;
            match msg.kind.as_str() {
                "go" => {
                    let dest: u32 = msg.payload_as().unwrap();
                    ctx.dispatch_self(HostId(dest));
                }
                "sleep" => ctx.deactivate_self(),
                "die" => ctx.dispose_self(),
                "spawn" => {
                    ctx.create_agent(Box::new(Worker::default()));
                }
                "clone" => {
                    ctx.clone_self();
                }
                "retract" => {
                    let (agent, to): (u64, u32) = msg.payload_as().unwrap();
                    ctx.retract(AgentId(agent), HostId(to));
                }
                "ping" => {
                    ctx.reply(&msg, Message::new("pong"));
                }
                "sendto" => {
                    let target: u64 = msg.payload_as().unwrap();
                    ctx.send(AgentId(target), Message::new("ping"));
                }
                _ => {}
            }
        }
        fn on_arrival(&mut self, ctx: &mut Ctx<'_>) {
            ctx.note(format!("arrived at {}", ctx.host()));
        }
    }

    fn world_with_two_hosts() -> (SimWorld, HostId, HostId) {
        let mut w = SimWorld::new(42);
        w.registry_mut().register_serde::<Worker>("worker");
        let a = w.add_host("a");
        let b = w.add_host("b");
        (w, a, b)
    }

    #[test]
    fn external_message_is_delivered() {
        let (mut w, a, _) = world_with_two_hosts();
        let id = w.create_agent(a, Box::new(Worker::default())).unwrap();
        w.send_external(id, Message::new("hello")).unwrap();
        w.run_until_idle();
        assert_eq!(w.metrics().messages_delivered, 1);
        assert_eq!(w.snapshot_of(id).unwrap()["count"], 1);
    }

    #[test]
    fn send_to_unknown_agent_errors() {
        let (mut w, _, _) = world_with_two_hosts();
        assert!(matches!(
            w.send_external(AgentId(999), Message::new("x")),
            Err(PlatformError::UnknownAgent(_))
        ));
    }

    #[test]
    fn migration_moves_state_across_hosts() {
        let (mut w, a, b) = world_with_two_hosts();
        let id = w.create_agent(a, Box::new(Worker { count: 10 })).unwrap();
        w.send_external(id, Message::new("go").with_payload(&b.0).unwrap())
            .unwrap();
        w.run_until_idle();
        assert_eq!(w.location(id), Some(Location::Active(b)));
        // count incremented by the "go" message, preserved across the hop
        assert_eq!(w.snapshot_of(id).unwrap()["count"], 11);
        assert_eq!(w.metrics().migrations, 1);
        assert!(w.metrics().migration_bytes > 0);
        assert!(w.trace().find(&format!("arrived at {b}")).is_some());
    }

    #[test]
    fn round_trip_home_passes_authentication() {
        let (mut w, a, b) = world_with_two_hosts();
        let id = w.create_agent(a, Box::new(Worker::default())).unwrap();
        w.send_external(id, Message::new("go").with_payload(&b.0).unwrap())
            .unwrap();
        w.run_until_idle();
        assert_eq!(w.location(id), Some(Location::Active(b)));
        w.send_external(id, Message::new("go").with_payload(&a.0).unwrap())
            .unwrap();
        w.run_until_idle();
        assert_eq!(w.location(id), Some(Location::Active(a)));
        assert_eq!(w.metrics().migrations, 2);
        assert_eq!(w.metrics().migrations_rejected, 0);
        assert_eq!(w.auth_rejections(a), 0);
    }

    #[test]
    fn deactivate_then_activate_preserves_state_and_replays_mail() {
        let (mut w, a, _) = world_with_two_hosts();
        let id = w.create_agent(a, Box::new(Worker { count: 3 })).unwrap();
        w.send_external(id, Message::new("sleep")).unwrap();
        w.run_until_idle();
        assert_eq!(w.location(id), Some(Location::Deactivated(a)));
        assert_eq!(w.active_count(a), 0);
        assert!(w.stored_bytes(a) > 0);

        // message while asleep is held, not dead-lettered
        w.send_external(id, Message::new("while-asleep")).unwrap();
        w.run_until_idle();
        assert_eq!(w.metrics().messages_dead_lettered, 0);

        w.activate_agent(id).unwrap();
        w.run_until_idle();
        assert_eq!(w.location(id), Some(Location::Active(a)));
        // count = 3 + sleep msg + replayed msg
        assert_eq!(w.snapshot_of(id).unwrap()["count"], 5);
        assert_eq!(w.metrics().deactivations, 1);
        assert_eq!(w.metrics().activations, 1);
    }

    #[test]
    fn dispose_removes_agent_and_dead_letters_messages() {
        let (mut w, a, _) = world_with_two_hosts();
        let id = w.create_agent(a, Box::new(Worker::default())).unwrap();
        w.send_external(id, Message::new("die")).unwrap();
        w.run_until_idle();
        assert_eq!(w.location(id), None);
        assert_eq!(w.metrics().agents_disposed, 1);
        // further sends fail fast
        assert!(w.send_external(id, Message::new("x")).is_err());
    }

    #[test]
    fn spawned_agents_run_on_creation_and_count() {
        let (mut w, a, _) = world_with_two_hosts();
        let id = w.create_agent(a, Box::new(Worker::default())).unwrap();
        w.send_external(id, Message::new("spawn")).unwrap();
        w.run_until_idle();
        assert_eq!(w.metrics().agents_created, 2);
        assert_eq!(w.active_count(a), 2);
    }

    #[test]
    fn dispatch_to_unknown_host_is_a_noop_with_trace() {
        let (mut w, a, _) = world_with_two_hosts();
        let id = w.create_agent(a, Box::new(Worker::default())).unwrap();
        w.send_external(id, Message::new("go").with_payload(&999u32).unwrap())
            .unwrap();
        w.run_until_idle();
        assert_eq!(w.location(id), Some(Location::Active(a)));
        assert!(w
            .trace()
            .events()
            .iter()
            .any(|e| e.label.contains("dispatch failed")));
    }

    #[test]
    fn unregistered_type_is_rejected_on_arrival() {
        let mut w = SimWorld::new(1);
        // no registration at all
        let a = w.add_host("a");
        let b = w.add_host("b");
        let id = w.create_agent(a, Box::new(Worker::default())).unwrap();
        w.send_external(id, Message::new("go").with_payload(&b.0).unwrap())
            .unwrap();
        w.run_until_idle();
        assert_eq!(w.metrics().migrations_rejected, 1);
        assert_eq!(w.location(id), None);
    }

    #[test]
    fn lossy_link_can_lose_the_agent() {
        let mut w = SimWorld::new(3);
        w.registry_mut().register_serde::<Worker>("worker");
        let a = w.add_host("a");
        let b = w.add_host("b");
        w.topology_mut()
            .set_link_symmetric(a, b, crate::net::LinkSpec::lan().lossy(1.0));
        let id = w.create_agent(a, Box::new(Worker::default())).unwrap();
        w.send_external(id, Message::new("go").with_payload(&b.0).unwrap())
            .unwrap();
        w.run_until_idle();
        assert_eq!(
            w.location(id),
            None,
            "agent must be lost on a fully lossy link"
        );
        assert!(w
            .trace()
            .events()
            .iter()
            .any(|e| e.label.contains("lost in transit")));
    }

    #[test]
    fn clone_copies_state_under_a_fresh_id() {
        let (mut w, a, _) = world_with_two_hosts();
        let id = w.create_agent(a, Box::new(Worker { count: 6 })).unwrap();
        w.send_external(id, Message::new("clone")).unwrap();
        w.run_until_idle();
        assert_eq!(w.active_count(a), 2);
        let ids = w.agents_on(a);
        let clone_id = *ids.iter().find(|i| **i != id).unwrap();
        // the clone carries the original's state *after* the message that
        // triggered the clone (count was already incremented to 7)
        assert_eq!(w.snapshot_of(clone_id).unwrap()["count"], 7);
        // and evolves independently afterwards
        w.send_external(clone_id, Message::new("noop")).unwrap();
        w.run_until_idle();
        assert_eq!(w.snapshot_of(clone_id).unwrap()["count"], 8);
        assert_eq!(w.snapshot_of(id).unwrap()["count"], 7);
        assert_eq!(w.metrics().agents_created, 2);
    }

    #[test]
    fn clone_of_unregistered_type_fails_with_note() {
        let mut w = SimWorld::new(2);
        let a = w.add_host("a");
        let id = w.create_agent(a, Box::new(Worker::default())).unwrap();
        w.send_external(id, Message::new("clone")).unwrap();
        w.run_until_idle();
        assert_eq!(w.active_count(a), 1);
        assert!(w
            .trace()
            .events()
            .iter()
            .any(|e| e.label.contains("clone failed")));
    }

    #[test]
    fn retract_pulls_an_agent_back() {
        let (mut w, a, b) = world_with_two_hosts();
        let roamer = w.create_agent(a, Box::new(Worker::default())).unwrap();
        let manager = w.create_agent(a, Box::new(Worker::default())).unwrap();
        w.send_external(roamer, Message::new("go").with_payload(&b.0).unwrap())
            .unwrap();
        w.run_until_idle();
        assert_eq!(w.location(roamer), Some(Location::Active(b)));
        // the manager retracts the roamer home
        w.send_external(
            manager,
            Message::new("retract")
                .with_payload(&(roamer.0, a.0))
                .unwrap(),
        )
        .unwrap();
        w.run_until_idle();
        assert_eq!(w.location(roamer), Some(Location::Active(a)));
        assert_eq!(w.metrics().migrations, 2);
        assert_eq!(
            w.metrics().migrations_rejected,
            0,
            "retracted return passes auth"
        );
    }

    #[test]
    fn admin_retract_api_works_and_validates() {
        let (mut w, a, b) = world_with_two_hosts();
        let roamer = w.create_agent(a, Box::new(Worker::default())).unwrap();
        w.send_external(roamer, Message::new("go").with_payload(&b.0).unwrap())
            .unwrap();
        w.run_until_idle();
        w.retract_agent(roamer, a).unwrap();
        w.run_until_idle();
        assert_eq!(w.location(roamer), Some(Location::Active(a)));
        assert!(matches!(
            w.retract_agent(AgentId(999), a),
            Err(PlatformError::UnknownAgent(_))
        ));
        assert!(matches!(
            w.retract_agent(roamer, HostId(99)),
            Err(PlatformError::UnknownHost(_))
        ));
    }

    #[test]
    fn identical_seeds_produce_identical_traces() {
        fn run(seed: u64) -> (Vec<String>, u64) {
            let mut w = SimWorld::new(seed);
            w.registry_mut().register_serde::<Worker>("worker");
            let a = w.add_host("a");
            let b = w.add_host("b");
            let id = w.create_agent(a, Box::new(Worker::default())).unwrap();
            for _ in 0..5 {
                w.send_external(id, Message::new("ping")).unwrap();
            }
            w.send_external(id, Message::new("go").with_payload(&b.0).unwrap())
                .unwrap();
            w.run_until_idle();
            let labels = w.trace().labels().iter().map(|s| s.to_string()).collect();
            (labels, w.metrics().messages_delivered)
        }
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn run_until_respects_deadline() {
        let (mut w, a, _) = world_with_two_hosts();
        let id = w.create_agent(a, Box::new(Worker::default())).unwrap();
        w.send_external(id, Message::new("m")).unwrap();
        // local delay is 1us; deadline at 0 must not deliver
        w.run_until(SimTime(0));
        assert_eq!(w.metrics().messages_delivered, 0);
        w.run_until(SimTime(10));
        assert_eq!(w.metrics().messages_delivered, 1);
        assert_eq!(w.now(), SimTime(10));
    }

    #[test]
    fn timers_fire_in_order() {
        #[derive(Serialize, Deserialize)]
        struct Timed;
        impl Agent for Timed {
            fn agent_type(&self) -> &'static str {
                "timed"
            }
            fn on_creation(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(5), 2);
                ctx.set_timer(SimDuration::from_millis(1), 1);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
                ctx.note(format!("timer {tag}"));
            }
        }
        let mut w = SimWorld::new(1);
        let a = w.add_host("a");
        w.create_agent(a, Box::new(Timed)).unwrap();
        w.run_until_idle();
        assert_eq!(w.trace().labels(), vec!["timer 1", "timer 2"]);
        assert_eq!(w.metrics().timers_fired, 2);
    }

    #[test]
    fn remote_messages_pay_link_latency() {
        let (mut w, a, b) = world_with_two_hosts();
        w.topology_mut().set_link_symmetric(
            a,
            b,
            crate::net::LinkSpec::with_latency(SimDuration::from_millis(10)),
        );
        let ida = w.create_agent(a, Box::new(Worker::default())).unwrap();
        let idb = w.create_agent(b, Box::new(Worker::default())).unwrap();
        let before = w.now();
        // b sends "ping" to a (one 10ms hop), a replies "pong" (another)
        w.send_external(idb, Message::new("sendto").with_payload(&ida.0).unwrap())
            .unwrap();
        w.run_until_idle();
        assert!(
            w.now().since(before) >= SimDuration::from_millis(20),
            "two remote hops must cost at least 20ms, took {}",
            w.now().since(before)
        );
        assert!(w.metrics().remote_message_bytes > 0);
    }

    /// Satellite regression: same-time events from different shards must
    /// pop in `(time, shard, seq)` order no matter which was pushed first.
    #[test]
    fn same_time_cross_shard_events_order_by_shard_then_seq() {
        fn drain(order: &[(u16, u64)]) -> Vec<(u16, u64)> {
            let mut heap: BinaryHeap<Reverse<QueuedEvent>> = BinaryHeap::new();
            let at = SimTime::ZERO + SimDuration::from_micros(100);
            for &(shard, seq) in order {
                heap.push(Reverse(QueuedEvent {
                    at,
                    shard,
                    seq,
                    kind: EventKind::Timer {
                        agent: AgentId(1),
                        tag: 0,
                        trace: None,
                        deadline: None,
                    },
                }));
            }
            let mut popped = Vec::new();
            while let Some(Reverse(ev)) = heap.pop() {
                popped.push((ev.shard, ev.seq));
            }
            popped
        }
        let forward = drain(&[(0, 5), (1, 2), (0, 7), (1, 1), (2, 0)]);
        let backward = drain(&[(2, 0), (1, 1), (0, 7), (1, 2), (0, 5)]);
        assert_eq!(
            forward, backward,
            "heap order must not depend on enqueue order"
        );
        assert_eq!(forward, vec![(0, 5), (0, 7), (1, 1), (1, 2), (2, 0)]);
    }

    /// Satellite regression: a timer and a delivery scheduled for the same
    /// instant resolve the race identically run to run — the trace from
    /// enqueuing (timer, message) matches (message, timer).
    #[test]
    fn same_time_timer_and_delivery_race_is_deterministic() {
        fn run(send_first: bool) -> Vec<String> {
            let mut w = SimWorld::new(4242);
            w.registry_mut().register_serde::<Worker>("worker");
            let a = w.add_host("a");
            let id = w.create_agent(a, Box::new(Worker::default())).unwrap();
            // A "ping" delivery lands after local_delay (1µs); a timer with
            // the same 1µs delay fires at the identical instant.
            if send_first {
                w.send_external(id, Message::new("ping")).unwrap();
                w.schedule(
                    SimDuration::from_micros(1),
                    EventKind::Timer {
                        agent: id,
                        tag: 9,
                        trace: None,
                        deadline: None,
                    },
                );
            } else {
                w.schedule(
                    SimDuration::from_micros(1),
                    EventKind::Timer {
                        agent: id,
                        tag: 9,
                        trace: None,
                        deadline: None,
                    },
                );
                w.send_external(id, Message::new("ping")).unwrap();
            }
            w.run_until_idle();
            w.trace().labels().iter().map(|s| s.to_string()).collect()
        }
        // Enqueue order differs, so seq differs and the winner flips — but
        // each ordering is fully deterministic under (time, shard, seq).
        assert_eq!(run(true), run(true));
        assert_eq!(run(false), run(false));
    }

    /// Boundary-enabled shards mint ids from disjoint bases, so a merged
    /// sharded world never collides agent, message or host ids.
    #[test]
    fn boundary_shards_use_disjoint_id_bases() {
        let mut s0 = SimWorld::new(1);
        let mut s1 = SimWorld::new(1);
        s0.enable_boundary(0, SimDuration::from_micros(200));
        s1.enable_boundary(1, SimDuration::from_micros(200));
        let h0 = s0.add_host("a");
        let h1 = s1.add_host("a");
        assert_ne!(h0, h1);
        assert_eq!(h1, HostId((1 << 24) | 1));
        let a0 = s0.create_agent(h0, Box::new(Worker::default())).unwrap();
        let a1 = s1.create_agent(h1, Box::new(Worker::default())).unwrap();
        assert_ne!(a0, a1);
        assert_eq!(a1, AgentId((1 << 40) | 1));
        // shard 0 keeps the legacy bases: byte-identity with unsharded runs
        assert_eq!(h0, HostId(1));
        assert_eq!(a0, AgentId(1));
    }
}
