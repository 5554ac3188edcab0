//! Thread-backed runtime: one OS thread per host, crossbeam channels as
//! the network.
//!
//! The same [`Agent`] implementations that run on the deterministic
//! [`crate::sim::SimWorld`] run unchanged here on real concurrency. This
//! runtime exists to demonstrate that the platform API is runtime-agnostic
//! (and to catch accidental determinism assumptions in agent code); all
//! benchmarks use the DES world because wall-clock interleavings are not
//! reproducible.
//!
//! Unsupported relative to the DES world: link latency/loss modelling
//! (channels deliver as fast as the OS schedules) — timers are honoured via
//! real `thread::sleep`.

use crate::agent::{Action, Agent, AgentCapsule, AgentRegistry, Ctx, FaultCounter};
use crate::chaos::ChaosKnobs;
use crate::clock::SimTime;
use crate::durable::{Boundary, DurabilityConfig, DurableStore, EncodedJson};
use crate::error::{PlatformError, Result};
use crate::ids::{AgentId, HostId, MessageId};
use crate::intern::InternedStr;
use crate::message::Message;
use crate::metrics::Metrics;
use crate::overload::{deadline_expired, EnqueueVerdict, MailboxConfig, MailboxState};
use crate::security::{Authenticator, TravelPermit};
use crate::storage::DeactivatedStore;
use crate::supervise::{RestoreDecision, SupervisionConfig, Supervisor, Verdict};
use crate::telemetry::{HopKind, SpanEventKind, Telemetry, TraceCtx};
use crate::trace::Trace;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

enum Envelope {
    Deliver(Message),
    Arrive(AgentCapsule),
    Create {
        id: AgentId,
        agent: Box<dyn Agent>,
        /// Born by `clone_self` rather than `create`: the landing worker
        /// runs `on_clone` instead of `on_creation`.
        cloned: bool,
    },
    Timer {
        agent: AgentId,
        tag: u64,
        trace: Option<TraceCtx>,
        deadline: Option<SimTime>,
    },
    AdminDeactivate(AgentId),
    AdminActivate(AgentId),
    AdminDispose(AgentId),
    AdminRetract {
        agent: AgentId,
        to: HostId,
    },
    /// Chaos: wipe the host's agents and stores (the crash itself; the
    /// unreachability flag lives in [`Shared::chaos`]). Broadcast to every
    /// worker of the host.
    AdminCrash,
    /// Chaos: run the durable recovery pass after a restart (no-op without
    /// durability). Broadcast to every worker of the host.
    AdminRestart,
    /// Chaos: the host's hang cleared (heal or supervisor bounce) — replay
    /// every stalled envelope. Broadcast to every worker of the host.
    AdminResume,
    Shutdown,
}

impl Envelope {
    /// The agent that decides which worker of a host handles this
    /// envelope; `None` means broadcast to every worker.
    fn routing_agent(&self) -> Option<AgentId> {
        match self {
            Envelope::Deliver(msg) => Some(msg.to),
            Envelope::Arrive(capsule) => Some(capsule.id),
            Envelope::Create { id, .. } => Some(*id),
            Envelope::Timer { agent, .. } => Some(*agent),
            Envelope::AdminDeactivate(a)
            | Envelope::AdminActivate(a)
            | Envelope::AdminDispose(a) => Some(*a),
            Envelope::AdminRetract { agent, .. } => Some(*agent),
            Envelope::AdminCrash
            | Envelope::AdminRestart
            | Envelope::AdminResume
            | Envelope::Shutdown => None,
        }
    }

    /// A per-worker copy of a broadcast envelope. Only the unit-like
    /// admin broadcasts can be duplicated (agent-carrying envelopes are
    /// single-destination by construction).
    fn broadcast_copy(&self) -> Option<Envelope> {
        match self {
            Envelope::AdminCrash => Some(Envelope::AdminCrash),
            Envelope::AdminRestart => Some(Envelope::AdminRestart),
            Envelope::AdminResume => Some(Envelope::AdminResume),
            _ => None,
        }
    }
}

struct Shared {
    /// One sender per worker thread of each host. Envelopes route to
    /// `shard_of(routing_agent, workers)`; broadcasts go to every worker.
    routes: Mutex<HashMap<HostId, Vec<Sender<Envelope>>>>,
    /// Worker threads per host (1 = the classic one-thread-per-host mode).
    workers: usize,
    locations: Mutex<HashMap<AgentId, HostId>>,
    homes: Mutex<HashMap<AgentId, HostId>>,
    in_flight: AtomicI64,
    next_agent_id: AtomicU64,
    next_msg_id: AtomicU64,
    registry: AgentRegistry,
    trace: Mutex<Trace>,
    metrics: Mutex<Metrics>,
    epoch: Instant,
    /// Live fault switches (same vocabulary as the DES chaos plan).
    chaos: Mutex<ChaosKnobs>,
    /// Fast path: skip all chaos checks until a knob is first touched.
    chaos_on: AtomicBool,
    /// Dedicated RNG for chaos decisions, separate from the per-host
    /// agent RNGs so fault injection never perturbs agent randomness.
    chaos_rng: Mutex<StdRng>,
    /// Request tracing + latency registry (same engine as the DES world).
    telemetry: Mutex<Telemetry>,
    /// Fast path: skip telemetry locking entirely until tracing is enabled.
    telemetry_on: AtomicBool,
    /// Per-agent mailbox bookkeeping. Always present: with no configured
    /// bound it only tracks depths, which feed the stall diagnostics of
    /// [`ThreadWorld::run_until_idle`].
    mailbox: Mutex<MailboxState>,
    /// Messages held for deactivated agents, per agent (diagnostics).
    parked: Mutex<HashMap<AgentId, usize>>,
    /// Durability configuration; each worker of each host carries its own
    /// [`DurableStore`] for the agents it owns. `None` = durability off.
    durability: Option<DurabilityConfig>,
    /// Self-healing supervision policy engine, shared between the API
    /// surface (crash/hang observations) and the dedicated supervisor
    /// thread. `None` = supervision off (no extra thread, zero cost).
    supervision: Option<Mutex<Supervisor>>,
    /// Tells the supervisor thread to exit at shutdown.
    supervisor_stop: AtomicBool,
    /// External outbox: every `(sender, message)` emitted through
    /// [`Ctx::emit`], in the order host threads applied them, until
    /// [`ThreadWorld::take_emitted`].
    emitted: Mutex<Vec<(AgentId, Message)>>,
}

impl Shared {
    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_micros() as u64)
    }

    fn tracing(&self) -> bool {
        self.telemetry_on.load(Ordering::Relaxed)
    }

    /// Open a child span under `parent`, if tracing is on and the hop has
    /// a parent context at all.
    fn child_span(
        &self,
        parent: Option<TraceCtx>,
        kind: HopKind,
        name: InternedStr,
        agent: Option<AgentId>,
        host: Option<HostId>,
    ) -> Option<TraceCtx> {
        let p = parent?;
        let now = self.now();
        Some(self.telemetry.lock().child(p, kind, name, agent, host, now))
    }

    /// Emit an event on the span `tc` names, if any.
    fn span_event(&self, tc: Option<TraceCtx>, kind: SpanEventKind, label: impl Into<String>) {
        if let Some(tc) = tc {
            let now = self.now();
            self.telemetry.lock().event(tc.span_id, kind, label, now);
        }
    }

    /// Close the span `tc` names; returns its sim-time duration in µs.
    fn end_span(&self, tc: Option<TraceCtx>) -> Option<u64> {
        let tc = tc?;
        let now = self.now();
        self.telemetry.lock().end(tc.span_id, now)
    }

    /// Record a dead-lettered message in the registry and, when the hop is
    /// traced, annotate and close its span.
    fn dead_letter(&self, kind: &str, tc: Option<TraceCtx>, label: String) {
        let now = self.now();
        let mut t = self.telemetry.lock();
        t.registry_mut().dead_letter(kind);
        if let Some(tc) = tc {
            t.event(tc.span_id, SpanEventKind::DeadLetter, label, now);
            t.end(tc.span_id, now);
        }
    }

    /// Which worker of a host owns `agent`. Stable for an agent's whole
    /// lifetime, so per-worker state (store, permits, authenticator)
    /// always sees the same agent on the same thread.
    fn worker_of(&self, agent: AgentId) -> usize {
        crate::ids::shard_of(agent, self.workers)
    }

    fn send_envelope(&self, host: HostId, env: Envelope) -> bool {
        let routes = self.routes.lock();
        if let Some(txs) = routes.get(&host) {
            let worker = match env.routing_agent() {
                Some(agent) => self.worker_of(agent),
                None => {
                    // Broadcast (crash/restart): every worker handles its
                    // own slice of the host.
                    let mut ok = false;
                    for tx in txs.iter() {
                        let Some(copy) = env.broadcast_copy() else {
                            debug_assert!(false, "non-broadcastable envelope routed as broadcast");
                            return false;
                        };
                        self.in_flight.fetch_add(1, Ordering::SeqCst);
                        if tx.send(copy).is_ok() {
                            ok = true;
                        } else {
                            self.in_flight.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                    return ok;
                }
            };
            self.in_flight.fetch_add(1, Ordering::SeqCst);
            if txs[worker].send(env).is_ok() {
                return true;
            }
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
        false
    }

    /// Route a delivery through the bounded mailbox. Every path ending in
    /// [`Envelope::Deliver`] funnels through here — agent sends, external
    /// ingress, chaos duplicates and activation replays — so the bound and
    /// the depth gauge see all traffic.
    fn enqueue_deliver(&self, dest: HostId, msg: Message) -> bool {
        let verdict = self.mailbox.lock().on_enqueue(msg.to, msg.id);
        let sent = match verdict {
            EnqueueVerdict::Admit => self.send_envelope(dest, Envelope::Deliver(msg)),
            EnqueueVerdict::AdmitEvictingOldest => {
                self.metrics.lock().mailbox_rejections += 1;
                self.trace.lock().record(
                    self.now(),
                    msg.from,
                    format!("mailbox full at {}: oldest queued message evicted", msg.to),
                );
                self.send_envelope(dest, Envelope::Deliver(msg))
            }
            EnqueueVerdict::Reject => {
                self.metrics.lock().mailbox_rejections += 1;
                self.span_event(
                    msg.trace,
                    SpanEventKind::Shed,
                    format!("shed: mailbox full at {}", msg.to),
                );
                self.end_span(msg.trace);
                self.trace.lock().record(
                    self.now(),
                    msg.from,
                    format!("mailbox full at {}: {} rejected", msg.to, msg.kind),
                );
                true // handled by dropping; the route itself is fine
            }
            EnqueueVerdict::Defer => {
                self.span_event(
                    msg.trace,
                    SpanEventKind::Note,
                    format!("mailbox full at {}: delivery deferred", msg.to),
                );
                self.mailbox.lock().defer(msg);
                true
            }
        };
        if self.tracing() {
            let max_depth = self.mailbox.lock().max_depth_seen();
            self.telemetry
                .lock()
                .registry_mut()
                .set_gauge("overload.mailbox_depth_max", max_depth as f64);
        }
        sent
    }
}

/// Builder for a [`ThreadWorld`].
pub struct ThreadWorldBuilder {
    seed: u64,
    registry: AgentRegistry,
    host_names: Vec<String>,
    telemetry: bool,
    mailbox: Option<MailboxConfig>,
    workers: usize,
    durability: Option<DurabilityConfig>,
    supervision: Option<SupervisionConfig>,
}

impl ThreadWorldBuilder {
    /// Start building a thread world; `seed` feeds each host's RNG.
    pub fn new(seed: u64) -> Self {
        ThreadWorldBuilder {
            seed,
            registry: AgentRegistry::new(),
            host_names: Vec::new(),
            telemetry: false,
            mailbox: None,
            workers: 1,
            durability: None,
            supervision: None,
        }
    }

    /// Give every host worker a WAL-backed [`DurableStore`] so
    /// [`ThreadWorld::restart_host`] recovers journalled agents, purchase
    /// records and profile deltas. Off by default (zero cost).
    pub fn durability(&mut self, cfg: DurabilityConfig) -> &mut Self {
        self.durability = Some(cfg);
        self
    }

    /// Turn on the self-healing supervision layer: a dedicated supervisor
    /// thread runs the failure detector over wall time, automatically
    /// restarting crashed hosts (durable recovery on the respawned
    /// workers), bouncing hung hosts, and quarantining crash-looping
    /// agents. Off by default (no extra thread, byte-identical behaviour,
    /// all supervision counters zero).
    pub fn supervision(&mut self, cfg: SupervisionConfig) -> &mut Self {
        self.supervision = Some(cfg);
        self
    }

    /// Run each host on `n` worker threads instead of one (clamped to at
    /// least 1). Agents are sharded across a host's workers by id hash
    /// ([`crate::ids::shard_of`]), so each agent always runs on the same
    /// thread; envelopes route by their target agent. The default of 1 is
    /// exactly the classic one-thread-per-host runtime.
    pub fn workers(&mut self, n: usize) -> &mut Self {
        self.workers = n.max(1);
        self
    }

    /// Bound every agent's mailbox to `config.capacity` queued messages,
    /// applying `config.policy` past the bound. Off by default (unbounded
    /// channels, byte-identical to the pre-overload behaviour).
    pub fn mailbox(&mut self, config: MailboxConfig) -> &mut Self {
        self.mailbox = Some(config);
        self
    }

    /// Turn on request tracing and the latency registry (off by default;
    /// when off the runtime takes a lock-free fast path).
    pub fn enable_telemetry(&mut self) -> &mut Self {
        self.telemetry = true;
        self
    }

    /// Register an agent factory (same semantics as
    /// [`AgentRegistry::register_serde`]).
    pub fn register_serde<A>(&mut self, agent_type: &str) -> &mut Self
    where
        A: Agent + serde::de::DeserializeOwned + 'static,
    {
        self.registry.register_serde::<A>(agent_type);
        self
    }

    /// Direct registry access (for bulk registration helpers).
    pub fn registry_mut(&mut self) -> &mut AgentRegistry {
        &mut self.registry
    }

    /// Declare a host; ids are assigned in declaration order starting at 1.
    pub fn add_host(&mut self, name: impl Into<String>) -> HostId {
        self.host_names.push(name.into());
        HostId(self.host_names.len() as u32)
    }

    /// Spawn the worker threads (one per host per configured worker) and
    /// return the running world.
    pub fn start(self) -> ThreadWorld {
        let shared = Arc::new(Shared {
            routes: Mutex::new(HashMap::new()),
            workers: self.workers,
            locations: Mutex::new(HashMap::new()),
            homes: Mutex::new(HashMap::new()),
            in_flight: AtomicI64::new(0),
            next_agent_id: AtomicU64::new(1),
            next_msg_id: AtomicU64::new(1),
            registry: self.registry,
            trace: Mutex::new(Trace::new()),
            metrics: Mutex::new(Metrics::new()),
            epoch: Instant::now(),
            chaos: Mutex::new(ChaosKnobs::default()),
            chaos_on: AtomicBool::new(false),
            chaos_rng: Mutex::new(StdRng::seed_from_u64(self.seed ^ 0xc4a0_5c4a)),
            telemetry: Mutex::new({
                let mut t = Telemetry::new();
                if self.telemetry {
                    t.enable();
                }
                t
            }),
            telemetry_on: AtomicBool::new(self.telemetry),
            mailbox: Mutex::new(MailboxState::new(self.mailbox)),
            parked: Mutex::new(HashMap::new()),
            durability: self.durability,
            supervision: self.supervision.map(|cfg| Mutex::new(Supervisor::new(cfg))),
            supervisor_stop: AtomicBool::new(false),
            emitted: Mutex::new(Vec::new()),
        });
        let mut handles = Vec::new();
        let mut hosts = Vec::new();
        for (i, _name) in self.host_names.iter().enumerate() {
            let id = HostId(i as u32 + 1);
            hosts.push(id);
            let base_seed = self.seed.wrapping_add(i as u64 + 1);
            let mut txs = Vec::with_capacity(self.workers);
            for w in 0..self.workers {
                let (tx, rx) = unbounded();
                txs.push(tx);
                let shared2 = Arc::clone(&shared);
                // Worker 0 keeps the classic per-host seed so a 1-worker
                // world reproduces the old runtime exactly; extra workers
                // mix in their index.
                let seed = if w == 0 {
                    base_seed
                } else {
                    base_seed ^ crate::ids::splitmix64(w as u64)
                };
                handles.push(thread::spawn(move || host_loop(id, w, seed, rx, shared2)));
            }
            shared.routes.lock().insert(id, txs);
        }
        if shared.supervision.is_some() {
            let shared2 = Arc::clone(&shared);
            handles.push(thread::spawn(move || supervisor_loop(shared2)));
        }
        ThreadWorld {
            shared,
            handles,
            hosts,
        }
    }
}

/// A running thread-backed world.
///
/// Create via [`ThreadWorldBuilder`]; drive with
/// [`ThreadWorld::create_agent`] and [`ThreadWorld::send_external`]; wait
/// with [`ThreadWorld::run_until_idle`]; finish with
/// [`ThreadWorld::shutdown`].
pub struct ThreadWorld {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    hosts: Vec<HostId>,
}

impl ThreadWorld {
    /// Host ids in declaration order.
    pub fn hosts(&self) -> &[HostId] {
        &self.hosts
    }

    /// Create `agent` on `host`. Returns the id immediately; `on_creation`
    /// runs on the host thread.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownHost`] if the host does not exist.
    pub fn create_agent(&self, host: HostId, agent: Box<dyn Agent>) -> Result<AgentId> {
        let id = AgentId(self.shared.next_agent_id.fetch_add(1, Ordering::SeqCst));
        self.shared.locations.lock().insert(id, host);
        self.shared.homes.lock().insert(id, host);
        if !self.shared.send_envelope(
            host,
            Envelope::Create {
                id,
                agent,
                cloned: false,
            },
        ) {
            self.shared.locations.lock().remove(&id);
            return Err(PlatformError::UnknownHost(host));
        }
        Ok(id)
    }

    /// Inject an external message to `to`.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownAgent`] if the agent's location is unknown.
    pub fn send_external(&self, to: AgentId, mut msg: Message) -> Result<MessageId> {
        let host = {
            let locs = self.shared.locations.lock();
            locs.get(&to).copied()
        }
        .ok_or(PlatformError::UnknownAgent(to))?;
        msg.id = MessageId(self.shared.next_msg_id.fetch_add(1, Ordering::SeqCst));
        msg.from = None;
        msg.to = to;
        // An external message is a request entering the platform: mint the
        // root span and the first message hop under it.
        msg.trace = if self.shared.tracing() {
            let now = self.shared.now();
            let mut t = self.shared.telemetry.lock();
            t.mint_root(&msg.kind, now)
                .map(|root| t.child(root, HopKind::Message, msg.kind.clone(), None, None, now))
        } else {
            None
        };
        let id = msg.id;
        if !self.shared.enqueue_deliver(host, msg) {
            return Err(PlatformError::UnknownHost(host));
        }
        Ok(id)
    }

    /// Highest mailbox depth observed so far.
    pub fn mailbox_max_depth(&self) -> usize {
        self.shared.mailbox.lock().max_depth_seen()
    }

    /// Total messages currently parked for deactivated agents, summed
    /// across all agents. Disposing or crashing an agent must drop its
    /// contribution to zero — a nonzero value after the world quiesced
    /// with no deactivated agents left is a bookkeeping leak.
    pub fn parked_total(&self) -> usize {
        self.shared.parked.lock().values().sum()
    }

    /// Administratively deactivate / activate an agent (mirrors the DES
    /// world's admin API).
    pub fn deactivate_agent(&self, agent: AgentId) -> Result<()> {
        let host = self
            .shared
            .locations
            .lock()
            .get(&agent)
            .copied()
            .ok_or(PlatformError::UnknownAgent(agent))?;
        self.shared
            .send_envelope(host, Envelope::AdminDeactivate(agent));
        Ok(())
    }

    /// See [`ThreadWorld::deactivate_agent`].
    pub fn activate_agent(&self, agent: AgentId) -> Result<()> {
        let host = self
            .shared
            .locations
            .lock()
            .get(&agent)
            .copied()
            .ok_or(PlatformError::UnknownAgent(agent))?;
        self.shared
            .send_envelope(host, Envelope::AdminActivate(agent));
        Ok(())
    }

    /// Chaos: drop each remote message with probability `p` (clamped to
    /// `[0, 1]`). The DES equivalent is a fault-loss overlay.
    pub fn set_message_drop_probability(&self, p: f64) {
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
        self.shared.chaos.lock().drop_probability = p;
        self.shared.chaos_on.store(true, Ordering::SeqCst);
    }

    /// Chaos: duplicate each delivered message with probability `p`
    /// (clamped to `[0, 1]`); receivers suppress the second copy.
    pub fn set_duplication_probability(&self, p: f64) {
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
        self.shared.chaos.lock().dup_probability = p;
        self.shared.chaos_on.store(true, Ordering::SeqCst);
    }

    /// Chaos: hard-partition hosts `a` and `b` — messages between them
    /// drop and dispatches toward either side fail synchronously (the
    /// agent gets `on_dispatch_failed`).
    pub fn partition(&self, a: HostId, b: HostId) {
        self.shared.chaos.lock().partition(a, b);
        self.shared.chaos_on.store(true, Ordering::SeqCst);
    }

    /// Heal a partition installed by [`ThreadWorld::partition`].
    pub fn heal_partition(&self, a: HostId, b: HostId) {
        self.shared.chaos.lock().heal_partition(a, b);
    }

    /// Chaos: crash `host` — its agents and stored capsules are lost and
    /// it refuses traffic until [`ThreadWorld::restart_host`].
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownHost`] if the host does not exist.
    pub fn crash_host(&self, host: HostId) -> Result<()> {
        if !self.hosts.contains(&host) {
            return Err(PlatformError::UnknownHost(host));
        }
        {
            let mut knobs = self.shared.chaos.lock();
            knobs.crashed.insert(host);
            // A crash supersedes a hang: the stall buffers die with the
            // host's state (AdminCrash drops them).
            knobs.hung.remove(&host);
        }
        self.shared.chaos_on.store(true, Ordering::SeqCst);
        self.shared.send_envelope(host, Envelope::AdminCrash);
        if let Some(sup) = &self.shared.supervision {
            let now_us = self.shared.now().as_micros();
            let mut s = sup.lock();
            s.observe_hang_cleared(host);
            s.observe_crash(host, now_us);
        }
        Ok(())
    }

    /// Bring a crashed host back up (empty, but reachable again). With
    /// durability configured, each of the host's workers then runs the
    /// recovery pass over its durable store: journalled agents are
    /// restored and handed their logged profile deltas via
    /// [`Agent::on_recovered`].
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownHost`] if the host does not exist.
    pub fn restart_host(&self, host: HostId) -> Result<()> {
        if !self.hosts.contains(&host) {
            return Err(PlatformError::UnknownHost(host));
        }
        let was_crashed = self.shared.chaos.lock().crashed.remove(&host);
        if was_crashed {
            // A scripted heal cancels any pending automatic failover.
            if let Some(sup) = &self.shared.supervision {
                sup.lock().observe_restart(host);
            }
            if self.shared.durability.is_some() {
                self.shared.send_envelope(host, Envelope::AdminRestart);
            }
        }
        Ok(())
    }

    /// Chaos: wedge `host` — it stays reachable and accepts arrivals, but
    /// deliveries and timer callbacks stall (staying in flight) until
    /// [`ThreadWorld::unhang_host`] or a supervisor bounce. The DES
    /// equivalent is [`crate::chaos::Fault::Hang`].
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownHost`] if the host does not exist.
    pub fn hang_host(&self, host: HostId) -> Result<()> {
        if !self.hosts.contains(&host) {
            return Err(PlatformError::UnknownHost(host));
        }
        let newly = {
            let mut knobs = self.shared.chaos.lock();
            !knobs.crashed.contains(&host) && knobs.hung.insert(host)
        };
        if newly {
            self.shared.chaos_on.store(true, Ordering::SeqCst);
            self.shared.metrics.lock().hangs_injected += 1;
            self.shared.trace.lock().record(
                self.shared.now(),
                None,
                format!("chaos: {host} hung (deliveries stalling)"),
            );
            if let Some(sup) = &self.shared.supervision {
                let now_us = self.shared.now().as_micros();
                sup.lock().observe_hang(host, now_us);
            }
        }
        Ok(())
    }

    /// Heal a hang installed by [`ThreadWorld::hang_host`]: the host's
    /// stalled envelopes are replayed in order.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownHost`] if the host does not exist.
    pub fn unhang_host(&self, host: HostId) -> Result<()> {
        if !self.hosts.contains(&host) {
            return Err(PlatformError::UnknownHost(host));
        }
        // Clear the knob before broadcasting the resume so the replayed
        // envelopes are not parked again.
        let was_hung = self.shared.chaos.lock().hung.remove(&host);
        if was_hung {
            self.shared.trace.lock().record(
                self.shared.now(),
                None,
                format!("chaos: {host} unhung (stalled deliveries replaying)"),
            );
            if let Some(sup) = &self.shared.supervision {
                sup.lock().observe_hang_cleared(host);
            }
            self.shared.send_envelope(host, Envelope::AdminResume);
        }
        Ok(())
    }

    /// Whether `host` is currently wedged by a hang fault.
    pub fn host_hung(&self, host: HostId) -> bool {
        self.shared.chaos.lock().hung.contains(&host)
    }

    /// Hand over every `(sender, message)` emitted through [`Ctx::emit`]
    /// since the last call, leaving the outbox empty. Emissions from
    /// different hosts interleave in wall-clock order.
    pub fn take_emitted(&self) -> Vec<(AgentId, Message)> {
        std::mem::take(&mut *self.shared.emitted.lock())
    }

    /// Block until no envelopes are in flight (the world is quiescent) or
    /// `timeout` elapses. On timeout the returned [`DrainStatus`] carries
    /// a [`StallDiagnostic`] naming what is still queued where.
    pub fn run_until_idle(&self, timeout: Duration) -> DrainStatus {
        let deadline = Instant::now() + timeout;
        loop {
            if self.shared.in_flight.load(Ordering::SeqCst) == 0 {
                // settle: double-check after a short pause to avoid racing
                // a thread between dequeue and counter decrement
                thread::sleep(Duration::from_millis(2));
                if self.shared.in_flight.load(Ordering::SeqCst) == 0 {
                    return DrainStatus::Idle;
                }
            }
            if Instant::now() >= deadline {
                return DrainStatus::TimedOut(self.stall_diagnostic());
            }
            thread::sleep(Duration::from_micros(200));
        }
    }

    fn stall_diagnostic(&self) -> StallDiagnostic {
        let (queued, deferred) = {
            let mb = self.shared.mailbox.lock();
            (mb.depths(), mb.deferred())
        };
        let mut parked: Vec<(AgentId, usize)> = self
            .shared
            .parked
            .lock()
            .iter()
            .filter(|(_, n)| **n > 0)
            .map(|(a, n)| (*a, *n))
            .collect();
        parked.sort_unstable();
        StallDiagnostic {
            in_flight: self.shared.in_flight.load(Ordering::SeqCst),
            queued,
            parked,
            deferred,
        }
    }

    /// Stop all host threads and return the merged metrics and trace.
    pub fn shutdown(self) -> (Metrics, Trace) {
        let (metrics, trace, _) = self.shutdown_with_telemetry();
        (metrics, trace)
    }

    /// Stop all host threads and additionally return the finalized
    /// telemetry sink (span trees + latency registry).
    pub fn shutdown_with_telemetry(self) -> (Metrics, Trace, Telemetry) {
        self.shared.supervisor_stop.store(true, Ordering::SeqCst);
        {
            let routes = self.shared.routes.lock();
            for txs in routes.values() {
                for tx in txs {
                    let _ = tx.send(Envelope::Shutdown);
                }
            }
        }
        for handle in self.handles {
            let _ = handle.join();
        }
        let metrics = self.shared.metrics.lock().clone();
        let trace = self.shared.trace.lock().clone();
        let telemetry = {
            let now = self.shared.now();
            let mut t = self.shared.telemetry.lock();
            if !t.spans().is_empty() {
                t.finalize(now);
            }
            t.clone()
        };
        (metrics, trace, telemetry)
    }
}

/// Outcome of [`ThreadWorld::run_until_idle`].
#[derive(Debug)]
pub enum DrainStatus {
    /// The world quiesced: no envelopes in flight.
    Idle,
    /// The timeout elapsed with work still pending; the diagnostic names
    /// what is stuck where.
    TimedOut(StallDiagnostic),
}

impl DrainStatus {
    /// Whether the world quiesced before the timeout.
    pub fn is_idle(&self) -> bool {
        matches!(self, DrainStatus::Idle)
    }
}

impl fmt::Display for DrainStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrainStatus::Idle => write!(f, "idle"),
            DrainStatus::TimedOut(d) => d.fmt(f),
        }
    }
}

/// Why a [`ThreadWorld`] failed to quiesce: a snapshot of pending work
/// taken when [`ThreadWorld::run_until_idle`] timed out.
#[derive(Debug)]
pub struct StallDiagnostic {
    /// Envelopes sent but not yet handled.
    pub in_flight: i64,
    /// Nonzero queued (scheduled, unhandled) depths per agent.
    pub queued: Vec<(AgentId, usize)>,
    /// Messages held for deactivated agents, per agent.
    pub parked: Vec<(AgentId, usize)>,
    /// Messages deferred by a full blocking mailbox, per agent.
    pub deferred: Vec<(AgentId, usize)>,
}

impl fmt::Display for StallDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn fmt_depths(entries: &[(AgentId, usize)]) -> String {
            entries
                .iter()
                .map(|(a, n)| format!("{a}:{n}"))
                .collect::<Vec<_>>()
                .join(", ")
        }
        write!(
            f,
            "thread world failed to quiesce: {} envelopes in flight; \
             queued: [{}]; parked: [{}]; deferred: [{}]",
            self.in_flight,
            fmt_depths(&self.queued),
            fmt_depths(&self.parked),
            fmt_depths(&self.deferred),
        )
    }
}

struct HostState {
    id: HostId,
    /// This thread's worker index within the host (always 0 in the
    /// classic 1-worker mode).
    worker: usize,
    active: HashMap<AgentId, Box<dyn Agent>>,
    store: DeactivatedStore,
    auth: Authenticator,
    pending: HashMap<AgentId, Vec<Message>>,
    carried_permits: HashMap<AgentId, TravelPermit>,
    /// Message ids already delivered here; chaos-injected duplicates are
    /// suppressed against this set.
    seen: HashSet<MessageId>,
    rng: StdRng,
    /// Local id allocation window fetched in batches from the shared
    /// counter so `Ctx` keeps its simple `&mut u64` interface.
    id_cursor: u64,
    id_end: u64,
    /// Trace context of the callback currently running on this host's
    /// thread; parents every hop the callback causes. Saved/restored
    /// around nested callbacks by [`run_callback`].
    current_trace: Option<TraceCtx>,
    /// Ambient request deadline of the running callback, stamped onto
    /// everything it sends. Same save/restore discipline.
    current_deadline: Option<SimTime>,
    /// This worker's WAL-backed stable storage for the agents it owns;
    /// present when the world was built with durability.
    durable: Option<DurableStore>,
    /// Envelopes parked while the host is hung; each still holds an
    /// in-flight slot so `run_until_idle` blocks through the hang. Drained
    /// (replayed) by [`Envelope::AdminResume`], dropped by a crash.
    stalled: Vec<Envelope>,
}

const ID_BATCH: u64 = 1 << 16;

fn host_loop(id: HostId, worker: usize, seed: u64, rx: Receiver<Envelope>, shared: Arc<Shared>) {
    let mut host = HostState {
        id,
        worker,
        active: HashMap::new(),
        store: DeactivatedStore::new(),
        auth: Authenticator::new(seed ^ 0x5ee5_ee5e),
        pending: HashMap::new(),
        carried_permits: HashMap::new(),
        seen: HashSet::new(),
        rng: StdRng::seed_from_u64(seed),
        id_cursor: 0,
        id_end: 0,
        current_trace: None,
        current_deadline: None,
        durable: shared.durability.map(DurableStore::new),
        stalled: Vec::new(),
    };
    while let Ok(env) = rx.recv() {
        let shutdown = matches!(env, Envelope::Shutdown);
        handle_envelope(&mut host, env, &shared);
        if host.durable.is_some() {
            maybe_checkpoint(&mut host, &shared);
        }
        if !shutdown {
            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
        if shutdown {
            break;
        }
    }
}

/// Dedicated supervisor thread: runs the failure detector over wall time
/// and executes its verdicts — automatic restart of crashed hosts (the
/// workers never died, so a worker respawn is a broadcast
/// [`Envelope::AdminRestart`] recovery pass), bouncing of hung hosts, and
/// the suspected-host bookkeeping in between. Exits when
/// [`Shared::supervisor_stop`] is raised at shutdown.
fn supervisor_loop(shared: Arc<Shared>) {
    let poll = {
        let Some(sup) = shared.supervision.as_ref() else {
            return;
        };
        let interval = sup.lock().config().lease_interval_us;
        // Poll a few times per lease so detection latency stays well under
        // one interval while shutdown remains responsive.
        Duration::from_micros((interval / 4).clamp(1_000, 50_000))
    };
    loop {
        if shared.supervisor_stop.load(Ordering::SeqCst) {
            return;
        }
        thread::sleep(poll);
        let verdicts = {
            let Some(sup) = shared.supervision.as_ref() else {
                return;
            };
            let now_us = shared.now().as_micros();
            sup.lock().tick(now_us)
        };
        for verdict in verdicts {
            match verdict {
                Verdict::Suspect(host) => {
                    shared.metrics.lock().hosts_suspected += 1;
                    shared.trace.lock().record(
                        shared.now(),
                        None,
                        format!("supervisor: {host} suspected (missed heartbeat lease)"),
                    );
                }
                Verdict::FailOver(host) => {
                    // Re-check under the knob lock: a manual restart may
                    // have raced the verdict.
                    let still_down = shared.chaos.lock().crashed.remove(&host);
                    if !still_down {
                        continue;
                    }
                    {
                        let mut m = shared.metrics.lock();
                        m.leases_expired += 1;
                        m.failovers += 1;
                    }
                    shared.trace.lock().record(
                        shared.now(),
                        None,
                        format!("supervisor: {host} lease expired, failing over (worker respawn)"),
                    );
                    if shared.durability.is_some() {
                        shared.send_envelope(host, Envelope::AdminRestart);
                    }
                }
                Verdict::BounceHang(host) => {
                    let still_hung = shared.chaos.lock().hung.remove(&host);
                    if !still_hung {
                        continue;
                    }
                    shared.metrics.lock().hangs_detected += 1;
                    shared.trace.lock().record(
                        shared.now(),
                        None,
                        format!("supervisor: {host} hung past grace, bouncing"),
                    );
                    shared.send_envelope(host, Envelope::AdminResume);
                }
            }
        }
    }
}

/// Fold the worker's durable-store counters into the shared metrics.
fn drain_durable_counters(host: &mut HostState, shared: &Arc<Shared>) {
    if let Some(counters) = host.durable.as_mut().map(DurableStore::take_counters) {
        counters.merge_into(&mut shared.metrics.lock());
    }
}

/// Journal the live capsule of an agent this worker owns, if the store's
/// capture rule wants it now (see [`DurableStore::wants_capture`]).
fn journal_live_capsule(host: &mut HostState, shared: &Arc<Shared>, id: AgentId) {
    let (Some(store), Some(agent)) = (host.durable.as_mut(), host.active.get(&id)) else {
        return;
    };
    if !store.wants_capture(id.0, agent.durable_policy(), Boundary::Callback) {
        return;
    }
    let home = shared.homes.lock().get(&id).copied().unwrap_or(host.id);
    let permit = host.carried_permits.get(&id).copied();
    let capsule = AgentCapsule::capture(id, agent.as_ref(), home, permit);
    let _ = store.put_capsule(id.0, capsule.to_json(), true);
    drain_durable_counters(host, shared);
}

/// Journal the removal of an agent's capsule (departure or disposal).
fn journal_capsule_gone(host: &mut HostState, shared: &Arc<Shared>, id: AgentId) {
    if let Some(store) = host.durable.as_mut() {
        let _ = store.remove_capsule(id.0);
        drain_durable_counters(host, shared);
    }
}

/// Checkpoint this worker's durable store once its journal has grown past
/// the configured threshold (see the DES twin for the policy).
fn maybe_checkpoint(host: &mut HostState, shared: &Arc<Shared>) {
    if !host
        .durable
        .as_ref()
        .is_some_and(DurableStore::should_checkpoint)
    {
        return;
    }
    let Some(store) = host.durable.as_ref() else {
        return;
    };
    let mut ids: Vec<AgentId> = host
        .active
        .iter()
        .filter(|(id, a)| store.wants_capture(id.0, a.durable_policy(), Boundary::Checkpoint))
        .map(|(id, _)| *id)
        .collect();
    ids.sort_unstable();
    let mut fresh: Vec<(u64, EncodedJson)> = Vec::new();
    for id in ids {
        let Some(agent) = host.active.get(&id) else {
            continue;
        };
        let home = shared.homes.lock().get(&id).copied().unwrap_or(host.id);
        let permit = host.carried_permits.get(&id).copied();
        let capsule = AgentCapsule::capture(id, agent.as_ref(), home, permit);
        fresh.push((id.0, capsule.to_json()));
    }
    if let Some(store) = host.durable.as_mut() {
        // in-memory checkpoints cannot fail; the runtimes never install
        // file-backed stores
        let _ = store.checkpoint(fresh);
    }
    drain_durable_counters(host, shared);
}

/// Recovery pass for one worker of a restarted host: replay the durable
/// store and restore the agents this worker owns.
fn recover_worker(host: &mut HostState, shared: &Arc<Shared>) {
    let recovered = match host.durable.as_ref().map(DurableStore::recover) {
        Some(Ok(r)) => r,
        Some(Err(e)) => {
            shared.trace.lock().record(
                shared.now(),
                None,
                format!("recovery: {} failed: {e}", host.id),
            );
            return;
        }
        None => return,
    };
    {
        let mut m = shared.metrics.lock();
        if host.worker == 0 {
            m.hosts_recovered += 1;
        }
        m.wal_records_replayed += recovered.replayed as u64;
    }
    let mut restored_active: Vec<AgentId> = Vec::new();
    let mut restored = 0u64;
    for (raw, rec) in &recovered.state.capsules {
        let id = AgentId(*raw);
        // Poison protection: a crash-looping agent is quarantined to
        // dead-letters instead of being restored yet again.
        let decision = shared
            .supervision
            .as_ref()
            .map(|s| s.lock().note_restore(id));
        if matches!(decision, Some(RestoreDecision::Quarantine)) {
            shared.metrics.lock().agents_quarantined += 1;
            shared.trace.lock().record(
                shared.now(),
                Some(id),
                format!("supervisor: {id} quarantined (restart budget exhausted)"),
            );
            continue;
        }
        let capsule: AgentCapsule = match rec.capsule.parse() {
            Ok(c) => c,
            Err(e) => {
                shared.trace.lock().record(
                    shared.now(),
                    None,
                    format!("recovery: {} capsule for {id} unreadable: {e}", host.id),
                );
                continue;
            }
        };
        let home = capsule.home;
        let permit = capsule.permit;
        if rec.active {
            match shared.registry.rehydrate(&capsule) {
                Ok(agent) => {
                    host.active.insert(id, agent);
                    shared.locations.lock().insert(id, host.id);
                    shared.homes.lock().insert(id, home);
                    if let Some(p) = permit {
                        if home != host.id {
                            host.carried_permits.insert(id, p);
                        }
                    }
                    restored_active.push(id);
                    restored += 1;
                }
                Err(e) => {
                    shared.trace.lock().record(
                        shared.now(),
                        None,
                        format!("recovery: {} cannot rehydrate {id}: {e}", host.id),
                    );
                }
            }
        } else {
            host.store.store(capsule);
            shared.locations.lock().insert(id, host.id);
            shared.homes.lock().insert(id, home);
            restored += 1;
        }
    }
    shared.metrics.lock().agents_recovered += restored;
    if host.worker == 0 || restored > 0 {
        shared.trace.lock().record(
            shared.now(),
            None,
            format!(
                "recovery: {} replayed {} wal records, restored {restored} agents",
                host.id, recovered.replayed
            ),
        );
    }
    restored_active.sort_unstable();
    for id in restored_active {
        let deltas = recovered.state.deltas_for(id.0);
        shared.metrics.lock().profile_deltas_replayed += deltas.len() as u64;
        run_callback(host, shared, id, None, "on_recovered", move |a, ctx| {
            a.on_recovered(ctx, &deltas)
        });
    }
}

fn handle_envelope(host: &mut HostState, env: Envelope, shared: &Arc<Shared>) {
    let chaos_on = shared.chaos_on.load(Ordering::Relaxed);
    // A hung host accepts the connection but never drains it: deliveries
    // and timer callbacks park in the stall buffer. The extra in-flight
    // slot cancels the decrement in `host_loop`, so the envelope counts as
    // pending until a heal or supervisor bounce replays it.
    if chaos_on
        && matches!(env, Envelope::Deliver(_) | Envelope::Timer { .. })
        && shared.chaos.lock().hung.contains(&host.id)
    {
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        host.stalled.push(env);
        return;
    }
    match env {
        Envelope::Deliver(msg) => {
            // The scheduled delivery leaves the mailbox now, whatever its
            // fate; a freed slot may release a deferred message.
            let outcome = shared.mailbox.lock().on_consume(msg.to, msg.id);
            if let Some(released) = outcome.released {
                let dest = shared.locations.lock().get(&released.to).copied();
                match dest {
                    Some(h) => {
                        shared.send_envelope(h, Envelope::Deliver(released));
                    }
                    None => {
                        shared.metrics.lock().messages_dead_lettered += 1;
                        shared.dead_letter(
                            released.kind.as_str(),
                            released.trace,
                            format!("{} to {} (gone at release)", released.kind, released.to),
                        );
                    }
                }
            }
            if outcome.tombstoned {
                shared.span_event(
                    msg.trace,
                    SpanEventKind::Shed,
                    "evicted: mailbox overflow (reject-oldest)",
                );
                shared.end_span(msg.trace);
                return;
            }
            if deadline_expired(msg.deadline, shared.now()) {
                shared.metrics.lock().deadline_drops += 1;
                shared.span_event(
                    msg.trace,
                    SpanEventKind::DeadlineExceeded,
                    format!("dropped: deadline passed before {} delivery", msg.kind),
                );
                shared.end_span(msg.trace);
                shared.trace.lock().record(
                    shared.now(),
                    msg.from,
                    format!("deadline exceeded: {} to {} dropped", msg.kind, msg.to),
                );
                return;
            }
            if chaos_on && shared.chaos.lock().crashed.contains(&host.id) {
                let mut m = shared.metrics.lock();
                m.messages_lost += 1;
                m.chaos_drops += 1;
                drop(m);
                shared.span_event(
                    msg.trace,
                    SpanEventKind::Chaos,
                    "dropped: destination crashed",
                );
                shared.end_span(msg.trace);
                return;
            }
            let to = msg.to;
            if host.active.contains_key(&to) {
                if chaos_on && !host.seen.insert(msg.id) {
                    shared.metrics.lock().dupes_suppressed += 1;
                    shared.span_event(
                        msg.trace,
                        SpanEventKind::Chaos,
                        "duplicate suppressed at receiver",
                    );
                    return;
                }
                shared.metrics.lock().messages_delivered += 1;
                if let Some(dur) = shared.end_span(msg.trace) {
                    let mut t = shared.telemetry.lock();
                    let reg = t.registry_mut();
                    reg.observe("stage.transfer_us", dur);
                    reg.observe(&format!("latency_us.{}", msg.kind), dur);
                    reg.inc(&format!("delivered.{}", msg.kind), 1);
                }
                let parent = msg.trace;
                let kind = msg.kind.clone();
                host.current_deadline = msg.deadline;
                run_callback(host, shared, to, parent, kind.as_str(), move |a, ctx| {
                    a.on_message(ctx, msg)
                });
                host.current_deadline = None;
            } else if host.store.contains(to) {
                // Held until the agent is activated; the hop span stays
                // open until the replayed copy lands.
                shared.span_event(
                    msg.trace,
                    SpanEventKind::Note,
                    "parked: recipient deactivated",
                );
                host.pending.entry(to).or_default().push(msg);
                *shared.parked.lock().entry(to).or_insert(0) += 1;
            } else {
                shared.metrics.lock().messages_dead_lettered += 1;
                shared.dead_letter(
                    msg.kind.as_str(),
                    msg.trace,
                    format!("{} to {} (gone at delivery)", msg.kind, to),
                );
            }
        }
        Envelope::Arrive(capsule) => {
            if chaos_on && shared.chaos.lock().crashed.contains(&host.id) {
                shared.locations.lock().remove(&capsule.id);
                let mut m = shared.metrics.lock();
                m.agents_lost_in_crash += 1;
                m.chaos_drops += 1;
                drop(m);
                shared.span_event(
                    capsule.trace,
                    SpanEventKind::Chaos,
                    format!("arrival failed: {} crashed; agent lost", host.id),
                );
                shared.end_span(capsule.trace);
                shared.trace.lock().record(
                    shared.now(),
                    Some(capsule.id),
                    format!("arrival failed: {} crashed; {} lost", host.id, capsule.id),
                );
                return;
            }
            handle_arrival(host, capsule, shared)
        }
        Envelope::Create { id, agent, cloned } => {
            host.active.insert(id, agent);
            shared.metrics.lock().agents_created += 1;
            if cloned {
                run_callback(host, shared, id, None, "on_clone", |a, ctx| a.on_clone(ctx));
            } else {
                run_callback(host, shared, id, None, "on_creation", |a, ctx| {
                    a.on_creation(ctx)
                });
            }
        }
        Envelope::Timer {
            agent,
            tag,
            trace,
            deadline,
        } => {
            if host.active.contains_key(&agent) {
                shared.metrics.lock().timers_fired += 1;
                if let Some(dur) = shared.end_span(trace) {
                    shared
                        .telemetry
                        .lock()
                        .registry_mut()
                        .observe("stage.timer_wait_us", dur);
                }
                // Timers fire even past the deadline: a watchdog is often
                // the very thing that turns an expired request into a
                // reply.
                host.current_deadline = deadline;
                run_callback(host, shared, agent, trace, "on_timer", move |a, ctx| {
                    a.on_timer(ctx, tag)
                });
                host.current_deadline = None;
            } else {
                shared.end_span(trace);
            }
        }
        Envelope::AdminDeactivate(agent) => do_deactivate(host, shared, agent),
        Envelope::AdminActivate(agent) => do_activate(host, shared, agent),
        Envelope::AdminDispose(agent) => do_dispose(host, shared, agent),
        Envelope::AdminRetract { agent, to } => {
            if host.active.contains_key(&agent) {
                do_dispatch(host, shared, agent, to);
            }
        }
        Envelope::AdminCrash => {
            let mut lost: Vec<AgentId> = host.active.keys().copied().collect();
            host.active.clear();
            lost.extend(host.store.drain());
            host.pending.clear();
            host.seen.clear();
            host.carried_permits.clear();
            // A crash while hung loses the stall buffer with the host;
            // release the in-flight slots the parked envelopes held.
            let stalled = std::mem::take(&mut host.stalled);
            if !stalled.is_empty() {
                let mut m = shared.metrics.lock();
                for env in &stalled {
                    if matches!(env, Envelope::Deliver(_)) {
                        m.messages_lost += 1;
                    }
                }
                drop(m);
                shared
                    .in_flight
                    .fetch_sub(stalled.len() as i64, Ordering::SeqCst);
            }
            if let Some(store) = host.durable.as_mut() {
                // Stable storage survives, minus the unsynced WAL tail;
                // the agents still count as lost until recovery.
                let _ = store.crash();
            }
            {
                let mut locs = shared.locations.lock();
                for id in &lost {
                    locs.remove(id);
                }
            }
            {
                let mut mb = shared.mailbox.lock();
                let mut parked = shared.parked.lock();
                for id in &lost {
                    mb.forget(*id);
                    parked.remove(id);
                }
            }
            {
                let mut m = shared.metrics.lock();
                // The crash is broadcast to every worker of the host but
                // is one event; worker 0 owns the host-level bookkeeping.
                if host.worker == 0 {
                    m.host_crashes += 1;
                }
                m.agents_lost_in_crash += lost.len() as u64;
            }
            if host.worker == 0 {
                shared.trace.lock().record(
                    shared.now(),
                    None,
                    format!("chaos: {} crashed ({} agents lost)", host.id, lost.len()),
                );
            }
        }
        Envelope::AdminRestart => {
            if host.worker == 0 {
                shared.trace.lock().record(
                    shared.now(),
                    None,
                    format!("chaos: {} restarted", host.id),
                );
            }
            recover_worker(host, shared);
        }
        Envelope::AdminResume => {
            let stalled = std::mem::take(&mut host.stalled);
            if host.worker == 0 && !stalled.is_empty() {
                shared.trace.lock().record(
                    shared.now(),
                    None,
                    format!(
                        "chaos: {} resumed ({} stalled envelopes replayed)",
                        host.id,
                        stalled.len()
                    ),
                );
            }
            for env in stalled {
                // Replay through the normal path (a re-park if the host
                // hung again keeps the slot; otherwise release it).
                handle_envelope(host, env, shared);
                shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            }
        }
        Envelope::Shutdown => {}
    }
}

fn handle_arrival(host: &mut HostState, capsule: AgentCapsule, shared: &Arc<Shared>) {
    let id = capsule.id;
    // Work past its deadline is cancelled rather than landed: the
    // requester has already been answered (or timed out) by now.
    if deadline_expired(capsule.deadline, shared.now()) {
        shared.locations.lock().remove(&id);
        shared.metrics.lock().deadline_drops += 1;
        shared.span_event(
            capsule.trace,
            SpanEventKind::DeadlineExceeded,
            format!("cancelled: deadline passed before arrival at {}", host.id),
        );
        shared.end_span(capsule.trace);
        shared.trace.lock().record(
            shared.now(),
            Some(id),
            format!(
                "deadline exceeded: {id} cancelled before arrival at {}",
                host.id
            ),
        );
        return;
    }
    if capsule.home == host.id && host.auth.expects(id) {
        let ok = capsule
            .permit
            .map(|p| host.auth.verify(id, &p))
            .unwrap_or(false);
        if !ok {
            shared.metrics.lock().migrations_rejected += 1;
            shared.locations.lock().remove(&id);
            shared.span_event(
                capsule.trace,
                SpanEventKind::Note,
                format!("arrival rejected at {}: authentication failed", host.id),
            );
            shared.end_span(capsule.trace);
            shared.trace.lock().record(
                shared.now(),
                Some(id),
                format!("arrival rejected at {}: authentication failed", host.id),
            );
            return;
        }
    } else if let Some(p) = capsule.permit {
        host.carried_permits.insert(id, p);
    }
    match shared.registry.rehydrate(&capsule) {
        Ok(agent) => {
            {
                let mut m = shared.metrics.lock();
                m.migrations += 1;
                m.migration_bytes += capsule.wire_size() as u64;
            }
            host.active.insert(id, agent);
            shared.locations.lock().insert(id, host.id);
            if let Some(dur) = shared.end_span(capsule.trace) {
                shared
                    .telemetry
                    .lock()
                    .registry_mut()
                    .observe("stage.migration_us", dur);
            }
            host.current_deadline = capsule.deadline;
            run_callback(host, shared, id, capsule.trace, "on_arrival", |a, ctx| {
                a.on_arrival(ctx)
            });
            host.current_deadline = None;
        }
        Err(e) => {
            shared.metrics.lock().migrations_rejected += 1;
            shared.locations.lock().remove(&id);
            shared.span_event(
                capsule.trace,
                SpanEventKind::Note,
                format!("arrival rejected: {e}"),
            );
            shared.end_span(capsule.trace);
            shared
                .trace
                .lock()
                .record(shared.now(), Some(id), format!("arrival rejected: {e}"));
        }
    }
}

fn run_callback<F>(
    host: &mut HostState,
    shared: &Arc<Shared>,
    id: AgentId,
    parent: Option<TraceCtx>,
    name: &str,
    f: F,
) where
    F: FnOnce(&mut dyn Agent, &mut Ctx<'_>),
{
    let Some(mut agent) = host.active.remove(&id) else {
        return;
    };
    if host.id_end - host.id_cursor < 1024 {
        host.id_cursor = shared.next_agent_id.fetch_add(ID_BATCH, Ordering::SeqCst);
        host.id_end = host.id_cursor + ID_BATCH;
    }
    let handler = shared.child_span(
        parent,
        HopKind::Handler,
        InternedStr::new(name),
        Some(id),
        Some(host.id),
    );
    let saved = std::mem::replace(&mut host.current_trace, handler);
    // Nested callbacks inherit the caller's ambient deadline; envelope
    // handlers overwrite it from the carried value before calling in.
    let saved_deadline = host.current_deadline;
    let mut actions = Vec::new();
    {
        let mut ctx = Ctx::new(
            id,
            host.id,
            shared.now(),
            &mut host.rng,
            &mut actions,
            &mut host.id_cursor,
        )
        .with_trace(handler)
        .with_deadline(host.current_deadline);
        f(agent.as_mut(), &mut ctx);
    }
    host.active.insert(id, agent);
    apply_actions(host, shared, id, actions);
    // Callback boundary = journaling boundary (see the DES twin).
    if host.durable.is_some() && host.active.contains_key(&id) {
        journal_live_capsule(host, shared, id);
    }
    if let Some(h) = handler {
        let now = shared.now();
        let mut t = shared.telemetry.lock();
        t.end(h.span_id, now);
        if let Some(wall) = t
            .span(h.span_id)
            .and_then(|s| s.wall_end_ns.map(|e| e.saturating_sub(s.wall_start_ns)))
        {
            t.registry_mut().observe("stage.handler_wall_ns", wall);
        }
    }
    host.current_trace = saved;
    host.current_deadline = saved_deadline;
}

fn apply_actions(host: &mut HostState, shared: &Arc<Shared>, actor: AgentId, actions: Vec<Action>) {
    for action in actions {
        match action {
            Action::Send { to, mut msg } => {
                msg.id = MessageId(shared.next_msg_id.fetch_add(1, Ordering::SeqCst));
                msg.deadline = host.current_deadline;
                // Every send is a fresh hop: any context the message
                // already carried names a hop that ended at its delivery.
                msg.trace = shared.child_span(
                    host.current_trace,
                    HopKind::Message,
                    msg.kind.clone(),
                    msg.from,
                    Some(host.id),
                );
                let dest = shared.locations.lock().get(&to).copied();
                match dest {
                    Some(h) => {
                        let mut duplicate = false;
                        if shared.chaos_on.load(Ordering::Relaxed) {
                            let (blocked, drop_p, dup_p) = {
                                let knobs = shared.chaos.lock();
                                (
                                    knobs.blocks(host.id, h),
                                    knobs.drop_probability,
                                    knobs.dup_probability,
                                )
                            };
                            let dropped = blocked
                                || (h != host.id
                                    && drop_p > 0.0
                                    && shared.chaos_rng.lock().gen::<f64>() < drop_p);
                            if dropped {
                                let mut m = shared.metrics.lock();
                                m.messages_lost += 1;
                                m.chaos_drops += 1;
                                drop(m);
                                shared.span_event(
                                    msg.trace,
                                    SpanEventKind::Chaos,
                                    "dropped: chaos fault on link",
                                );
                                shared.end_span(msg.trace);
                                continue;
                            }
                            if dup_p > 0.0 && shared.chaos_rng.lock().gen::<f64>() < dup_p {
                                duplicate = true;
                                shared.metrics.lock().chaos_dupes += 1;
                                shared.span_event(
                                    msg.trace,
                                    SpanEventKind::Chaos,
                                    "duplicated by chaos",
                                );
                            }
                        }
                        if h != host.id {
                            shared.metrics.lock().remote_message_bytes += msg.wire_size() as u64;
                        }
                        if duplicate {
                            shared.enqueue_deliver(h, msg.clone());
                        }
                        shared.enqueue_deliver(h, msg);
                    }
                    None => {
                        shared.metrics.lock().messages_dead_lettered += 1;
                        shared.dead_letter(
                            msg.kind.as_str(),
                            msg.trace,
                            format!("{} to {} (unreachable)", msg.kind, to),
                        );
                    }
                }
            }
            Action::Create { id, agent } => {
                shared.locations.lock().insert(id, host.id);
                shared.homes.lock().insert(id, host.id);
                if shared.worker_of(id) != host.worker {
                    // The id hashes to a sibling worker: install it there,
                    // or every future envelope for it would miss.
                    shared.send_envelope(
                        host.id,
                        Envelope::Create {
                            id,
                            agent,
                            cloned: false,
                        },
                    );
                    continue;
                }
                host.active.insert(id, agent);
                shared.metrics.lock().agents_created += 1;
                let parent = host.current_trace;
                run_callback(host, shared, id, parent, "on_creation", |a, ctx| {
                    a.on_creation(ctx)
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
                    home: host.id,
                    permit: None,
                    trace: None,
                    deadline: None,
                };
                match shared.registry.rehydrate(&capsule) {
                    Ok(agent) => {
                        shared.locations.lock().insert(id, host.id);
                        shared.homes.lock().insert(id, host.id);
                        if shared.worker_of(id) != host.worker {
                            shared.send_envelope(
                                host.id,
                                Envelope::Create {
                                    id,
                                    agent,
                                    cloned: false,
                                },
                            );
                            continue;
                        }
                        host.active.insert(id, agent);
                        shared.metrics.lock().agents_created += 1;
                        let parent = host.current_trace;
                        run_callback(host, shared, id, parent, "on_creation", |a, ctx| {
                            a.on_creation(ctx)
                        });
                    }
                    Err(e) => {
                        shared.trace.lock().record(
                            shared.now(),
                            Some(actor),
                            format!("create-of-type failed for {id}: {e}"),
                        );
                    }
                }
            }
            Action::DispatchSelf { dest } => do_dispatch(host, shared, actor, dest),
            Action::CloneSelf { id } => {
                let Some(capsule) = host
                    .active
                    .get(&actor)
                    .map(|a| AgentCapsule::capture(id, a.as_ref(), host.id, None))
                else {
                    continue;
                };
                match shared.registry.rehydrate(&capsule) {
                    Ok(copy) => {
                        shared.locations.lock().insert(id, host.id);
                        shared.homes.lock().insert(id, host.id);
                        if shared.worker_of(id) != host.worker {
                            shared.send_envelope(
                                host.id,
                                Envelope::Create {
                                    id,
                                    agent: copy,
                                    cloned: true,
                                },
                            );
                            continue;
                        }
                        host.active.insert(id, copy);
                        shared.metrics.lock().agents_created += 1;
                        let parent = host.current_trace;
                        run_callback(host, shared, id, parent, "on_clone", |a, ctx| {
                            a.on_clone(ctx)
                        });
                    }
                    Err(e) => {
                        shared.trace.lock().record(
                            shared.now(),
                            Some(actor),
                            format!("clone failed for {actor}: {e}"),
                        );
                    }
                }
            }
            Action::Retract { id, to } => {
                let location = shared.locations.lock().get(&id).copied();
                match location {
                    Some(at) if at == host.id && shared.worker_of(id) == host.worker => {
                        do_dispatch(host, shared, id, to)
                    }
                    Some(at) => {
                        shared.send_envelope(at, Envelope::AdminRetract { agent: id, to });
                    }
                    None => {
                        shared.metrics.lock().messages_dead_lettered += 1;
                    }
                }
            }
            Action::Deactivate { id } => {
                if let Some(at) = forward_admin(host, shared, id) {
                    shared.send_envelope(at, Envelope::AdminDeactivate(id));
                } else {
                    do_deactivate(host, shared, id);
                }
            }
            Action::Activate { id } => {
                if let Some(at) = forward_admin(host, shared, id) {
                    shared.send_envelope(at, Envelope::AdminActivate(id));
                } else {
                    do_activate(host, shared, id);
                }
            }
            Action::Dispose { id } => {
                if let Some(at) = forward_admin(host, shared, id) {
                    shared.send_envelope(at, Envelope::AdminDispose(id));
                } else {
                    do_dispose(host, shared, id);
                }
            }
            Action::SetTimer { id, delay, tag } => {
                // A pending timer is a hop of the request that armed it:
                // span opens at arm, closes at fire.
                let trace = shared.child_span(
                    host.current_trace,
                    HopKind::Timer,
                    InternedStr::new("timer"),
                    Some(id),
                    Some(host.id),
                );
                let shared2 = Arc::clone(shared);
                let host_id = host.id;
                let deadline = host.current_deadline;
                shared.in_flight.fetch_add(1, Ordering::SeqCst);
                thread::spawn(move || {
                    thread::sleep(Duration::from_micros(delay.as_micros()));
                    // route to wherever the agent is now
                    let dest = shared2
                        .locations
                        .lock()
                        .get(&id)
                        .copied()
                        .unwrap_or(host_id);
                    shared2.send_envelope(
                        dest,
                        Envelope::Timer {
                            agent: id,
                            tag,
                            trace,
                            deadline,
                        },
                    );
                    shared2.in_flight.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Action::Emit { msg } => shared.emitted.lock().push((actor, msg)),
            Action::SetDeadline { deadline } => host.current_deadline = deadline,
            Action::Note { label } => {
                if host.current_trace.is_some() {
                    shared.span_event(host.current_trace, SpanEventKind::Note, label.clone());
                }
                shared.trace.lock().record(shared.now(), Some(actor), label);
            }
            Action::CountFault { counter } => {
                let (kind, label) = {
                    let mut m = shared.metrics.lock();
                    match counter {
                        FaultCounter::Retry => {
                            m.retries += 1;
                            (SpanEventKind::Retry, "retry attempt")
                        }
                        FaultCounter::DegradedReply => {
                            m.degraded_replies += 1;
                            (SpanEventKind::Degraded, "degraded reply")
                        }
                        FaultCounter::Shed => {
                            m.requests_shed += 1;
                            (SpanEventKind::Shed, "request shed")
                        }
                        FaultCounter::BreakerRejection => {
                            m.breaker_rejections += 1;
                            (SpanEventKind::Breaker, "dispatch suppressed: circuit open")
                        }
                        FaultCounter::LedgerResolution => {
                            m.intents_resolved_by_ledger += 1;
                            (
                                SpanEventKind::Note,
                                "purchase resolved from marketplace ledger",
                            )
                        }
                    }
                };
                shared.span_event(host.current_trace, kind, label);
            }
            Action::Observe { name, value } => {
                if shared.tracing() {
                    shared
                        .telemetry
                        .lock()
                        .registry_mut()
                        .observe(name.as_str(), value);
                }
            }
            Action::IncCounter { name, by } => {
                if shared.tracing() {
                    shared
                        .telemetry
                        .lock()
                        .registry_mut()
                        .inc(name.as_str(), by);
                }
            }
            Action::JournalIntent { intent, detail } => {
                if let Some(store) = host.durable.as_mut() {
                    let _ = store.log_intent(intent, detail);
                    drain_durable_counters(host, shared);
                }
            }
            Action::JournalCommit { intent, detail } => {
                if let Some(store) = host.durable.as_mut() {
                    let _ = store.log_commit(intent, detail);
                    drain_durable_counters(host, shared);
                }
            }
            Action::JournalAbort { intent, reason } => {
                if let Some(store) = host.durable.as_mut() {
                    let _ = store.log_abort(intent, reason);
                    drain_durable_counters(host, shared);
                }
            }
            Action::JournalDelta { id, delta } => {
                if let Some(store) = host.durable.as_mut() {
                    let _ = store.log_delta(id.0, delta);
                    drain_durable_counters(host, shared);
                }
            }
        }
    }
}

fn do_dispatch(host: &mut HostState, shared: &Arc<Shared>, id: AgentId, dest: HostId) {
    if !shared.routes.lock().contains_key(&dest) {
        shared.trace.lock().record(
            shared.now(),
            Some(id),
            format!("dispatch failed: unknown {dest}"),
        );
        return;
    }
    if !host.active.contains_key(&id) {
        return;
    }
    // Same semantics as the DES world: an unreachable (partitioned or
    // crashed) destination refuses the dispatch synchronously.
    if shared.chaos_on.load(Ordering::Relaxed) && shared.chaos.lock().blocks(host.id, dest) {
        shared.metrics.lock().chaos_drops += 1;
        shared.span_event(
            host.current_trace,
            SpanEventKind::Chaos,
            format!("dispatch refused: {dest} unreachable"),
        );
        shared.trace.lock().record(
            shared.now(),
            Some(id),
            format!("dispatch refused: {dest} unreachable"),
        );
        let parent = host.current_trace;
        run_callback(
            host,
            shared,
            id,
            parent,
            "on_dispatch_failed",
            move |a, ctx| a.on_dispatch_failed(ctx, dest),
        );
        return;
    }
    let parent = host.current_trace;
    run_callback(host, shared, id, parent, "on_dispatch", |a, ctx| {
        a.on_dispatch(ctx)
    });
    let Some(agent) = host.active.remove(&id) else {
        return;
    };
    let home = shared.homes.lock().get(&id).copied().unwrap_or(host.id);
    let permit = if host.id == home {
        Some(host.auth.issue(id))
    } else {
        host.carried_permits.remove(&id)
    };
    let mut capsule = AgentCapsule::capture(id, agent.as_ref(), home, permit);
    capsule.deadline = host.current_deadline;
    capsule.trace = shared.child_span(
        host.current_trace,
        HopKind::Migration,
        capsule.agent_type.clone(),
        Some(id),
        Some(host.id),
    );
    shared.locations.lock().remove(&id);
    // The agent has left this worker; forget its capsule (forced, so a
    // crash cannot resurrect a second copy).
    journal_capsule_gone(host, shared, id);
    shared.send_envelope(dest, Envelope::Arrive(capsule));
}

/// Whether an admin action (deactivate / activate / dispose) on `id` must
/// be forwarded to the worker that owns the agent instead of applied
/// inline; `Some(host)` names where to send it. With one worker per host
/// the answer is always "inline", which is exactly the classic runtime
/// (inline handlers no-op when the agent is not local).
fn forward_admin(host: &HostState, shared: &Arc<Shared>, id: AgentId) -> Option<HostId> {
    if shared.workers == 1 || shared.worker_of(id) == host.worker {
        return None;
    }
    shared.locations.lock().get(&id).copied()
}

fn do_dispose(host: &mut HostState, shared: &Arc<Shared>, id: AgentId) {
    let was_active = host.active.contains_key(&id);
    if !was_active && !host.store.contains(id) {
        return;
    }
    if was_active {
        let parent = host.current_trace;
        run_callback(host, shared, id, parent, "on_disposal", |a, ctx| {
            a.on_disposal(ctx)
        });
        host.active.remove(&id);
    } else {
        host.store.load(id);
    }
    // Messages parked while the agent was deactivated can never replay
    // now: dead-letter them (closing their still-open hop spans) rather
    // than leaking them — and their parked-depth gauge — forever.
    for msg in host.pending.remove(&id).unwrap_or_default() {
        shared.metrics.lock().messages_dead_lettered += 1;
        shared.dead_letter(
            msg.kind.as_str(),
            msg.trace,
            format!("{} to {} (recipient disposed while parked)", msg.kind, id),
        );
    }
    shared.locations.lock().remove(&id);
    shared.mailbox.lock().forget(id);
    shared.parked.lock().remove(&id);
    journal_capsule_gone(host, shared, id);
    shared.metrics.lock().agents_disposed += 1;
}

fn do_deactivate(host: &mut HostState, shared: &Arc<Shared>, id: AgentId) {
    if !host.active.contains_key(&id) {
        return;
    }
    let parent = host.current_trace;
    run_callback(host, shared, id, parent, "on_deactivation", |a, ctx| {
        a.on_deactivation(ctx)
    });
    let Some(agent) = host.active.remove(&id) else {
        return;
    };
    let home = shared.homes.lock().get(&id).copied().unwrap_or(host.id);
    let capsule = AgentCapsule::capture(id, agent.as_ref(), home, None);
    if let Some(store) = host.durable.as_mut() {
        let _ = store.put_capsule(id.0, capsule.to_json(), false);
        drain_durable_counters(host, shared);
    }
    host.store.store(capsule);
    shared.metrics.lock().deactivations += 1;
}

fn do_activate(host: &mut HostState, shared: &Arc<Shared>, id: AgentId) {
    let Some(capsule) = host.store.load(id) else {
        return;
    };
    match shared.registry.rehydrate(&capsule) {
        Ok(agent) => {
            host.active.insert(id, agent);
            shared.metrics.lock().activations += 1;
            let parent = host.current_trace;
            run_callback(host, shared, id, parent, "on_activation", |a, ctx| {
                a.on_activation(ctx)
            });
            let pending = host.pending.remove(&id).unwrap_or_default();
            shared.parked.lock().remove(&id);
            for msg in pending {
                shared.enqueue_deliver(host.id, msg);
            }
        }
        Err(_) => {
            host.store.store(capsule);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, Default, Serialize, Deserialize)]
    struct Hopper {
        hops: u32,
    }

    impl Agent for Hopper {
        fn agent_type(&self) -> &'static str {
            "hopper"
        }
        fn snapshot(&self) -> serde_json::Value {
            serde_json::to_value(self).unwrap()
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if msg.is("hop") {
                let dest: u32 = msg.payload_as().unwrap();
                ctx.dispatch_self(HostId(dest));
            }
        }
        fn on_arrival(&mut self, ctx: &mut Ctx<'_>) {
            self.hops += 1;
            ctx.note(format!(
                "hopper arrived at {} (hops={})",
                ctx.host(),
                self.hops
            ));
        }
    }

    #[test]
    fn threaded_world_delivers_and_migrates() {
        let mut builder = ThreadWorldBuilder::new(11);
        builder.register_serde::<Hopper>("hopper");
        let a = builder.add_host("a");
        let b = builder.add_host("b");
        let world = builder.start();
        let id = world.create_agent(a, Box::new(Hopper::default())).unwrap();
        world
            .send_external(id, Message::new("hop").with_payload(&b.0).unwrap())
            .unwrap();
        let status = world.run_until_idle(Duration::from_secs(5));
        assert!(status.is_idle(), "world must quiesce: {status}");
        let (metrics, trace) = world.shutdown();
        assert_eq!(metrics.migrations, 1);
        assert_eq!(metrics.migrations_rejected, 0);
        assert!(trace
            .events()
            .iter()
            .any(|e| e.label.contains("hopper arrived at host-2")));
    }

    #[test]
    fn threaded_round_trip_authenticates() {
        let mut builder = ThreadWorldBuilder::new(13);
        builder.register_serde::<Hopper>("hopper");
        let a = builder.add_host("a");
        let b = builder.add_host("b");
        let world = builder.start();
        let id = world.create_agent(a, Box::new(Hopper::default())).unwrap();
        world
            .send_external(id, Message::new("hop").with_payload(&b.0).unwrap())
            .unwrap();
        assert!(world.run_until_idle(Duration::from_secs(5)).is_idle());
        world
            .send_external(id, Message::new("hop").with_payload(&a.0).unwrap())
            .unwrap();
        assert!(world.run_until_idle(Duration::from_secs(5)).is_idle());
        let (metrics, _) = world.shutdown();
        assert_eq!(metrics.migrations, 2);
        assert_eq!(metrics.migrations_rejected, 0);
    }

    #[test]
    fn threaded_deactivate_activate_cycle() {
        let mut builder = ThreadWorldBuilder::new(17);
        builder.register_serde::<Hopper>("hopper");
        let a = builder.add_host("a");
        let world = builder.start();
        let id = world.create_agent(a, Box::new(Hopper { hops: 4 })).unwrap();
        assert!(world.run_until_idle(Duration::from_secs(5)).is_idle());
        world.deactivate_agent(id).unwrap();
        assert!(world.run_until_idle(Duration::from_secs(5)).is_idle());
        world.activate_agent(id).unwrap();
        assert!(world.run_until_idle(Duration::from_secs(5)).is_idle());
        let (metrics, _) = world.shutdown();
        assert_eq!(metrics.deactivations, 1);
        assert_eq!(metrics.activations, 1);
    }

    #[test]
    fn unknown_host_create_is_an_error() {
        let builder = ThreadWorldBuilder::new(1);
        let world = builder.start();
        assert!(world
            .create_agent(HostId(42), Box::new(Hopper::default()))
            .is_err());
        world.shutdown();
    }

    /// Clones itself once on request; the clone notes its arrival.
    #[derive(Debug, Default, Serialize, Deserialize)]
    struct Mitosis {
        generation: u32,
    }

    impl Agent for Mitosis {
        fn agent_type(&self) -> &'static str {
            "mitosis"
        }
        fn snapshot(&self) -> serde_json::Value {
            serde_json::to_value(self).unwrap()
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if msg.is("divide") {
                self.generation += 1;
                ctx.clone_self();
            }
        }
        fn on_clone(&mut self, ctx: &mut Ctx<'_>) {
            ctx.note(format!("clone born at generation {}", self.generation));
        }
    }

    #[test]
    fn threaded_clone_copies_state() {
        let mut builder = ThreadWorldBuilder::new(19);
        builder.register_serde::<Mitosis>("mitosis");
        let a = builder.add_host("a");
        let world = builder.start();
        let cell = world.create_agent(a, Box::new(Mitosis::default())).unwrap();
        world.send_external(cell, Message::new("divide")).unwrap();
        assert!(world.run_until_idle(Duration::from_secs(5)).is_idle());
        let (metrics, trace) = world.shutdown();
        assert_eq!(metrics.agents_created, 2, "original + clone");
        assert!(trace
            .events()
            .iter()
            .any(|e| e.label.contains("clone born at generation 1")));
    }

    /// Manager that retracts a named agent home on request.
    #[derive(Debug, Serialize, Deserialize)]
    struct Manager {
        target: AgentId,
        home: HostId,
    }

    impl Agent for Manager {
        fn agent_type(&self) -> &'static str {
            "manager"
        }
        fn snapshot(&self) -> serde_json::Value {
            serde_json::to_value(self).unwrap()
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if msg.is("recall") {
                ctx.retract(self.target, self.home);
            }
        }
    }

    #[test]
    fn threaded_retract_pulls_agent_home() {
        let mut builder = ThreadWorldBuilder::new(23);
        builder.register_serde::<Hopper>("hopper");
        builder.register_serde::<Manager>("manager");
        let a = builder.add_host("a");
        let b = builder.add_host("b");
        let world = builder.start();
        let hopper = world.create_agent(a, Box::new(Hopper::default())).unwrap();
        let manager = world
            .create_agent(
                a,
                Box::new(Manager {
                    target: hopper,
                    home: a,
                }),
            )
            .unwrap();
        world
            .send_external(hopper, Message::new("hop").with_payload(&b.0).unwrap())
            .unwrap();
        assert!(world.run_until_idle(Duration::from_secs(5)).is_idle());
        world
            .send_external(manager, Message::new("recall"))
            .unwrap();
        assert!(world.run_until_idle(Duration::from_secs(5)).is_idle());
        let (metrics, trace) = world.shutdown();
        assert_eq!(metrics.migrations, 2, "hop out + retracted home");
        assert_eq!(
            metrics.migrations_rejected, 0,
            "retraction passes authentication"
        );
        assert!(trace
            .events()
            .iter()
            .any(|e| e.label.contains("hopper arrived at host-1 (hops=2)")));
    }

    /// Janitor that deactivates or disposes a named target on request.
    #[derive(Debug, Serialize, Deserialize)]
    struct Janitor {
        target: AgentId,
    }

    impl Agent for Janitor {
        fn agent_type(&self) -> &'static str {
            "janitor"
        }
        fn snapshot(&self) -> serde_json::Value {
            serde_json::to_value(self).unwrap()
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if msg.is("hibernate") {
                ctx.deactivate(self.target);
            } else if msg.is("scrap") {
                ctx.dispose(self.target);
            } else if msg.is("wake") {
                ctx.activate(self.target);
            }
        }
    }

    /// Regression: disposing an agent while it is deactivated must drop
    /// its parked messages (dead-lettered, spans closed) instead of
    /// leaking them in the pending map and the parked-depth gauge.
    #[test]
    fn dispose_while_deactivated_dead_letters_parked_messages() {
        let mut builder = ThreadWorldBuilder::new(29);
        builder.register_serde::<Hopper>("hopper");
        builder.register_serde::<Janitor>("janitor");
        let a = builder.add_host("a");
        let world = builder.start();
        let hopper = world.create_agent(a, Box::new(Hopper::default())).unwrap();
        let janitor = world
            .create_agent(a, Box::new(Janitor { target: hopper }))
            .unwrap();
        assert!(world.run_until_idle(Duration::from_secs(5)).is_idle());
        world
            .send_external(janitor, Message::new("hibernate"))
            .unwrap();
        assert!(world.run_until_idle(Duration::from_secs(5)).is_idle());
        // These park: the recipient is deactivated.
        world.send_external(hopper, Message::new("nudge")).unwrap();
        world.send_external(hopper, Message::new("nudge")).unwrap();
        assert!(world.run_until_idle(Duration::from_secs(5)).is_idle());
        assert_eq!(world.parked_total(), 2, "both messages should be parked");
        world.send_external(janitor, Message::new("scrap")).unwrap();
        assert!(world.run_until_idle(Duration::from_secs(5)).is_idle());
        assert_eq!(world.parked_total(), 0, "dispose must clear parked depth");
        let (metrics, _) = world.shutdown();
        assert_eq!(metrics.deactivations, 1);
        assert_eq!(metrics.agents_disposed, 1);
        assert_eq!(
            metrics.messages_dead_lettered, 2,
            "parked messages dead-letter on dispose instead of leaking"
        );
    }

    #[test]
    fn multi_worker_world_migrates_and_authenticates() {
        let mut builder = ThreadWorldBuilder::new(31);
        builder.workers(4);
        builder.register_serde::<Hopper>("hopper");
        let a = builder.add_host("a");
        let b = builder.add_host("b");
        let world = builder.start();
        let mut ids = Vec::new();
        for _ in 0..16 {
            ids.push(world.create_agent(a, Box::new(Hopper::default())).unwrap());
        }
        for id in &ids {
            world
                .send_external(*id, Message::new("hop").with_payload(&b.0).unwrap())
                .unwrap();
        }
        assert!(world.run_until_idle(Duration::from_secs(10)).is_idle());
        for id in &ids {
            world
                .send_external(*id, Message::new("hop").with_payload(&a.0).unwrap())
                .unwrap();
        }
        assert!(world.run_until_idle(Duration::from_secs(10)).is_idle());
        let (metrics, _) = world.shutdown();
        assert_eq!(metrics.migrations, 32, "out and home for all 16");
        assert_eq!(
            metrics.migrations_rejected, 0,
            "permits verify on the worker that issued them"
        );
        assert_eq!(metrics.messages_dead_lettered, 0);
    }

    #[test]
    fn multi_worker_clone_lands_on_its_owning_worker() {
        let mut builder = ThreadWorldBuilder::new(37);
        builder.workers(4);
        builder.register_serde::<Mitosis>("mitosis");
        let a = builder.add_host("a");
        let world = builder.start();
        let mut cells = Vec::new();
        for _ in 0..8 {
            cells.push(world.create_agent(a, Box::new(Mitosis::default())).unwrap());
        }
        for cell in &cells {
            world.send_external(*cell, Message::new("divide")).unwrap();
        }
        assert!(world.run_until_idle(Duration::from_secs(10)).is_idle());
        let (metrics, trace) = world.shutdown();
        assert_eq!(metrics.agents_created, 16, "8 originals + 8 clones");
        assert_eq!(
            trace
                .events()
                .iter()
                .filter(|e| e.label.contains("clone born at generation 1"))
                .count(),
            8,
            "every clone ran on_clone wherever its id hashed to"
        );
    }

    #[test]
    fn multi_worker_admin_cycle_reaches_sibling_workers() {
        let mut builder = ThreadWorldBuilder::new(41);
        builder.workers(4);
        builder.register_serde::<Hopper>("hopper");
        builder.register_serde::<Janitor>("janitor");
        let a = builder.add_host("a");
        let world = builder.start();
        // Enough targets that some land on a different worker than their
        // janitor — that's the code path under test.
        let mut pairs = Vec::new();
        for _ in 0..8 {
            let h = world.create_agent(a, Box::new(Hopper::default())).unwrap();
            let j = world
                .create_agent(a, Box::new(Janitor { target: h }))
                .unwrap();
            pairs.push((h, j));
        }
        assert!(world.run_until_idle(Duration::from_secs(10)).is_idle());
        for (_, j) in &pairs {
            world.send_external(*j, Message::new("hibernate")).unwrap();
        }
        assert!(world.run_until_idle(Duration::from_secs(10)).is_idle());
        for (_, j) in &pairs {
            world.send_external(*j, Message::new("wake")).unwrap();
        }
        assert!(world.run_until_idle(Duration::from_secs(10)).is_idle());
        for (_, j) in &pairs {
            world.send_external(*j, Message::new("scrap")).unwrap();
        }
        assert!(world.run_until_idle(Duration::from_secs(10)).is_idle());
        let (metrics, _) = world.shutdown();
        assert_eq!(metrics.deactivations, 8);
        assert_eq!(metrics.activations, 8);
        assert_eq!(metrics.agents_disposed, 8);
    }
}
