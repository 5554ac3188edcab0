//! The Profile Agent (PA).
//!
//! §3.3: *"Each recommendation mechanism contains only one PA. PA stands
//! for creating or updating user profile. When consumer query, buy or
//! join auction PA will generate the newer consumer profile to record
//! consumer behavior."*
//!
//! The PA owns the UserDB (profiles + transactions) and the in-memory
//! [`RecommendStore`]; every behaviour recorded through [`kinds::PA_RECORD`]
//! runs the Fig 4.5 update and is persisted. [`kinds::PA_SIMILAR`] answers
//! with the consumer's profile, their nearest neighbours (Fig 4.5
//! similarity with threshold discard) and the neighbours' merchandise
//! preferences — the data the BRA turns into recommendation information.

use crate::agents::msg::{kinds, PaLoad, PaProfile, PaRecord, PaSimilar, PaSimilarReply};
use crate::learning::{BehaviorKind, LearnerConfig};
use crate::profile::Profile;
use crate::similarity::SimilarityConfig;
use crate::store::RecommendStore;
use crate::userdb::{TradeChannel, TransactionRecord, UserDb};
use agentsim::agent::{Agent, Ctx, DurablePolicy};
use agentsim::message::Message;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Agent-type tag of [`ProfileAgent`].
pub const PA_TYPE: &str = "pa";

/// Periodic profile-maintenance settings (§5.2 item 1, "improve the
/// profile algorithm"): every `interval_us` of simulated time the PA
/// decays all interest weights by `decay` and compacts profiles, so
/// abandoned interests fade out.
///
/// **Caution:** an enabled maintenance cycle re-arms its timer forever —
/// drive such worlds with `run_until`/`run_for`, not `run_until_idle`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MaintenanceConfig {
    /// Simulated microseconds between passes.
    pub interval_us: u64,
    /// Multiplicative decay per pass, in `(0, 1)`.
    pub decay: f64,
}

const MAINTENANCE_TIMER_TAG: u64 = u64::MAX;

/// One PA state change as a durable PA journals it. The live PA and
/// crash recovery both apply it through [`ProfileAgent::apply`].
#[derive(Debug, Serialize, Deserialize)]
enum PaDelta {
    /// A recorded behaviour: the Fig 4.5 profile update.
    Behaviour(PaRecord),
    /// A maintenance pass decaying every profile by this factor.
    Decay(f64),
}

/// The Profile Agent. Static on the Buyer Agent Server.
#[derive(Debug, Serialize, Deserialize)]
pub struct ProfileAgent {
    store: RecommendStore,
    userdb: UserDb,
    similarity: SimilarityConfig,
    #[serde(default)]
    maintenance: Option<MaintenanceConfig>,
    #[serde(default)]
    maintenance_passes: u32,
    /// Item-sim cache tallies already exported to the telemetry registry
    /// (the delta base, so counters stay exact across migrations).
    #[serde(default)]
    cache_hits_emitted: u64,
    #[serde(default)]
    cache_misses_emitted: u64,
    #[serde(default)]
    cache_invalidated_emitted: u64,
    #[serde(default)]
    cache_capacity_evicted_emitted: u64,
    /// Journal every recorded behaviour as a WAL delta instead of having
    /// the platform snapshot the (large) full PA capsule per callback.
    #[serde(default)]
    durable: bool,
}

impl ProfileAgent {
    /// Fresh PA with the given learner and similarity configuration.
    pub fn new(learner: LearnerConfig, similarity: SimilarityConfig) -> Self {
        ProfileAgent {
            store: RecommendStore::with_learner(learner),
            userdb: UserDb::new(),
            similarity,
            maintenance: None,
            maintenance_passes: 0,
            cache_hits_emitted: 0,
            cache_misses_emitted: 0,
            cache_invalidated_emitted: 0,
            cache_capacity_evicted_emitted: 0,
            durable: false,
        }
    }

    /// Journal behaviour records as durable deltas (replayed on crash
    /// recovery). Only meaningful on a world with durability enabled.
    pub fn with_durability(mut self) -> Self {
        self.durable = true;
        self
    }

    /// Enable the periodic interest-decay maintenance cycle.
    pub fn with_maintenance(mut self, maintenance: MaintenanceConfig) -> Self {
        self.maintenance = Some(maintenance);
        self
    }

    /// Maintenance passes executed so far.
    pub fn maintenance_passes(&self) -> u32 {
        self.maintenance_passes
    }

    /// Access the in-memory store (tests, offline seeding).
    pub fn store(&self) -> &RecommendStore {
        &self.store
    }

    /// Mutable store access (offline seeding of populations).
    pub fn store_mut(&mut self) -> &mut RecommendStore {
        &mut self.store
    }

    /// The UserDB.
    pub fn userdb(&self) -> &UserDb {
        &self.userdb
    }

    fn load_or_create(&mut self, consumer: crate::profile::ConsumerId) -> Profile {
        if let Some(p) = self.store.profile(consumer) {
            return p.clone();
        }
        // not in memory: try the durable store, else fresh
        let loaded = self
            .userdb
            .load_profile(consumer)
            .ok()
            .flatten()
            .unwrap_or_default();
        self.store.put_profile(consumer, loaded.clone());
        loaded
    }

    /// Apply `delta`, journalling it first when durable (write-ahead: the
    /// delta reaches the WAL before the update it describes can be
    /// observed by anyone).
    fn commit(&mut self, ctx: &mut Ctx<'_>, delta: PaDelta) {
        if self.durable {
            match serde_json::to_value(&delta) {
                Ok(value) => ctx.journal_delta(value),
                Err(e) => ctx.note(format!("pa: delta serialize failed: {e}")),
            }
        }
        self.apply(ctx, delta);
    }

    fn apply(&mut self, ctx: &mut Ctx<'_>, delta: PaDelta) {
        match delta {
            PaDelta::Behaviour(rec) => self.apply_record(ctx, rec),
            PaDelta::Decay(factor) => self.decay(ctx, factor),
        }
    }

    /// One maintenance pass: decay every profile and persist them.
    fn decay(&mut self, ctx: &mut Ctx<'_>, factor: f64) {
        self.store.decay_all_profiles(factor.clamp(0.0, 1.0));
        self.maintenance_passes += 1;
        ctx.note(format!(
            "pa maintenance pass {}: decayed all profiles by {factor:.2}",
            self.maintenance_passes
        ));
        // persist the decayed profiles (store and userdb are disjoint
        // fields, so the iterator borrow and the mutable save coexist)
        let store = &self.store;
        let userdb = &mut self.userdb;
        for (consumer, profile) in store.profiles() {
            if let Err(e) = userdb.save_profile(consumer, profile) {
                ctx.note(format!("pa: decayed profile persist failed: {e}"));
            }
        }
        userdb.clear_log();
    }

    fn apply_record(&mut self, ctx: &mut Ctx<'_>, rec: PaRecord) {
        self.store.upsert_item(rec.item.clone());
        self.store.record_event(rec.consumer, rec.item.id, rec.kind);
        // persist the updated profile (UserDB write — Fig 4.2 step 5 /
        // Fig 4.3 step 13 end up here)
        if let Some(p) = self.store.profile(rec.consumer) {
            let p = p.clone();
            if let Err(e) = self.userdb.save_profile(rec.consumer, &p) {
                ctx.note(format!("pa: profile persist failed: {e}"));
            }
        }
        if matches!(rec.kind, BehaviorKind::Purchase | BehaviorKind::AuctionWin) {
            let tx = TransactionRecord {
                consumer: rec.consumer,
                item: rec.item.id,
                price: rec.price.unwrap_or(rec.item.list_price),
                channel: match rec.kind {
                    BehaviorKind::AuctionWin => TradeChannel::Auction,
                    _ => TradeChannel::Direct,
                },
                at_us: rec.at_us,
            };
            if let Err(e) = self.userdb.record_transaction(&tx) {
                ctx.note(format!("pa: transaction persist failed: {e}"));
            }
        }
        // The PA's own journal (capsule + deltas) is UserDB's durable
        // copy; the store's embedded log would only grow with history.
        self.userdb.clear_log();
    }

    fn similar(&mut self, req: &PaSimilar) -> PaSimilarReply {
        // make the queried merchandise known
        for offer in &req.offers {
            self.store.upsert_item(offer.clone());
        }
        let profile = self.load_or_create(req.consumer);
        // load_or_create guarantees the consumer is in the store (and
        // thus the index), so the indexed search answers exactly what
        // the full profile scan would.
        let neighbours =
            self.store
                .nearest_neighbours(req.consumer, &self.similarity, req.k_neighbours);
        // similarity-weighted neighbour preferences
        let mut prefs: BTreeMap<u64, f64> = BTreeMap::new();
        let mut total_sim = 0.0;
        for (nid, sim) in &neighbours {
            total_sim += sim;
            for (item, rating) in self.store.ratings().user_ratings(*nid) {
                *prefs.entry(item.0).or_insert(0.0) += sim * rating;
            }
        }
        let owned = self.store.purchased_by(req.consumer);
        let mut neighbour_preferences: Vec<(ecp::merchandise::Merchandise, f64)> = prefs
            .into_iter()
            .filter_map(|(item, mut w)| {
                if total_sim > 0.0 {
                    w /= total_sim;
                }
                let id = ecp::merchandise::ItemId(item);
                if owned.contains(&id) {
                    return None;
                }
                self.store.catalog().get(id).map(|m| (m.clone(), w))
            })
            .collect();
        neighbour_preferences.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.id.cmp(&b.0.id))
        });
        neighbour_preferences.truncate(64);
        PaSimilarReply {
            consumer: req.consumer,
            profile,
            neighbours,
            neighbour_preferences,
        }
    }
}

impl Agent for ProfileAgent {
    fn agent_type(&self) -> &'static str {
        PA_TYPE
    }

    fn snapshot(&self) -> serde_json::Value {
        serde_json::to_value(self).expect("pa state serializes")
    }

    fn durable_policy(&self) -> DurablePolicy {
        if self.durable {
            DurablePolicy::Deltas
        } else {
            DurablePolicy::Capsule
        }
    }

    fn on_recovered(&mut self, ctx: &mut Ctx<'_>, deltas: &[serde_json::Value]) {
        // Replay every change journalled since the capsule in the
        // recovered state was captured. apply (not commit) so the replay
        // does not re-journal deltas the WAL already holds.
        let mut replayed = 0usize;
        for delta in deltas {
            match <PaDelta as Deserialize>::deserialize_value(delta) {
                Ok(delta) => {
                    self.apply(ctx, delta);
                    replayed += 1;
                }
                Err(e) => ctx.note(format!("pa: unreadable journalled delta skipped: {e}")),
            }
        }
        if replayed > 0 {
            ctx.note(format!(
                "pa: recovered, replayed {replayed} journalled changes"
            ));
        }
        if let Some(m) = self.maintenance {
            // the maintenance timer died with the host; re-arm the cycle
            ctx.set_timer(
                agentsim::clock::SimDuration::from_micros(m.interval_us),
                MAINTENANCE_TIMER_TAG,
            );
        }
    }

    fn on_creation(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(m) = self.maintenance {
            ctx.set_timer(
                agentsim::clock::SimDuration::from_micros(m.interval_us),
                MAINTENANCE_TIMER_TAG,
            );
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag != MAINTENANCE_TIMER_TAG {
            return;
        }
        let Some(m) = self.maintenance else {
            return;
        };
        self.commit(ctx, PaDelta::Decay(m.decay));
        ctx.set_timer(
            agentsim::clock::SimDuration::from_micros(m.interval_us),
            MAINTENANCE_TIMER_TAG,
        );
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        match msg.kind.as_str() {
            kinds::PA_LOAD => {
                if let Ok(req) = msg.payload_as::<PaLoad>() {
                    // Fig 4.2 step 5: the PA reads the profile from UserDB.
                    if req.figure == "fig4.2" {
                        ctx.note("fig4.2/step05 pa loads profile from userdb");
                    }
                    let profile = self.load_or_create(req.consumer);
                    let reply = Message::new(kinds::PA_PROFILE)
                        .with_payload(&PaProfile {
                            consumer: req.consumer,
                            profile,
                        })
                        .expect("profile serializes");
                    ctx.reply(&msg, reply);
                }
            }
            kinds::PA_RECORD => {
                if let Ok(rec) = msg.payload_as::<PaRecord>() {
                    self.commit(ctx, PaDelta::Behaviour(rec));
                }
            }
            kinds::PA_SIMILAR => {
                if let Ok(req) = msg.payload_as::<PaSimilar>() {
                    let reply_payload = self.similar(&req);
                    ctx.inc_counter("pa.similar_requests", 1);
                    ctx.observe("pa.neighbours_found", reply_payload.neighbours.len() as u64);
                    // export the item-sim cache effectiveness as deltas
                    let (hits, misses) = self.store.item_sim_cache_stats();
                    ctx.inc_counter(
                        "cache.item_sim.hits",
                        hits.saturating_sub(self.cache_hits_emitted),
                    );
                    ctx.inc_counter(
                        "cache.item_sim.misses",
                        misses.saturating_sub(self.cache_misses_emitted),
                    );
                    self.cache_hits_emitted = hits;
                    self.cache_misses_emitted = misses;
                    // eviction causes, so dashboards can tell matrix
                    // churn from an undersized cache
                    let (invalidated, capacity_evicted) = self.store.item_sim_eviction_stats();
                    ctx.inc_counter(
                        "cache.item_sim.invalidated",
                        invalidated.saturating_sub(self.cache_invalidated_emitted),
                    );
                    ctx.inc_counter(
                        "cache.item_sim.capacity_evicted",
                        capacity_evicted.saturating_sub(self.cache_capacity_evicted_emitted),
                    );
                    self.cache_invalidated_emitted = invalidated;
                    self.cache_capacity_evicted_emitted = capacity_evicted;
                    let reply = Message::new(kinds::PA_SIMILAR_REPLY)
                        .with_payload(&reply_payload)
                        .expect("similar reply serializes");
                    ctx.reply(&msg, reply);
                }
            }
            other => {
                ctx.note(format!("pa: unhandled kind {other}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ConsumerId;
    use agentsim::sim::SimWorld;
    use ecp::merchandise::{CategoryPath, ItemId, Merchandise, Money};
    use ecp::terms::TermVector;

    fn merch(id: u64, name: &str) -> Merchandise {
        Merchandise {
            id: ItemId(id),
            name: name.into(),
            category: CategoryPath::new("books", "programming"),
            terms: TermVector::from_pairs([(name.to_lowercase(), 1.0)]),
            list_price: Money::from_units(20),
            seller: 1,
        }
    }

    /// Captures replies for assertions.
    #[derive(Debug, Default, Serialize, Deserialize)]
    struct Sink {
        replies: Vec<(String, serde_json::Value)>,
    }

    impl Agent for Sink {
        fn agent_type(&self) -> &'static str {
            "sink"
        }
        fn snapshot(&self) -> serde_json::Value {
            serde_json::to_value(self).unwrap()
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if let Some(target) = msg.payload.get("__send_to") {
                let to = agentsim::ids::AgentId(target.as_u64().unwrap());
                let inner = Message::new(msg.payload["kind"].as_str().unwrap())
                    .carrying(msg.payload.project("payload"));
                ctx.send(to, inner);
                return;
            }
            self.replies
                .push((msg.kind.to_string(), msg.payload.to_value()));
        }
    }

    struct Fix {
        world: SimWorld,
        pa: agentsim::ids::AgentId,
        sink: agentsim::ids::AgentId,
    }

    fn fix() -> Fix {
        let mut world = SimWorld::new(11);
        let h = world.add_host("buyer-server");
        let pa = world
            .create_agent(
                h,
                Box::new(ProfileAgent::new(
                    LearnerConfig::default(),
                    SimilarityConfig::default(),
                )),
            )
            .unwrap();
        let sink = world.create_agent(h, Box::new(Sink::default())).unwrap();
        Fix { world, pa, sink }
    }

    fn send_to_pa<T: Serialize>(f: &mut Fix, kind: &str, payload: &T) {
        let mut msg = Message::new("instr");
        msg.payload = serde_json::json!({
            "__send_to": f.pa.0,
            "kind": kind,
            "payload": serde_json::to_value(payload).unwrap(),
        })
        .into();
        f.world.send_external(f.sink, msg).unwrap();
        f.world.run_until_idle();
    }

    fn sink_state(f: &Fix) -> Sink {
        serde_json::from_value(f.world.snapshot_of(f.sink).unwrap()).unwrap()
    }

    fn pa_state(f: &Fix) -> ProfileAgent {
        serde_json::from_value(f.world.snapshot_of(f.pa).unwrap()).unwrap()
    }

    #[test]
    fn pa_load_creates_fresh_profile() {
        let mut f = fix();
        send_to_pa(
            &mut f,
            kinds::PA_LOAD,
            &PaLoad {
                consumer: ConsumerId(1),
                figure: String::new(),
            },
        );
        let s = sink_state(&f);
        assert_eq!(s.replies.len(), 1);
        assert_eq!(s.replies[0].0, kinds::PA_PROFILE);
        let p: PaProfile = serde_json::from_value(s.replies[0].1.clone()).unwrap();
        assert!(p.profile.is_empty());
    }

    #[test]
    fn pa_record_updates_profile_and_persists() {
        let mut f = fix();
        send_to_pa(
            &mut f,
            kinds::PA_RECORD,
            &PaRecord {
                consumer: ConsumerId(1),
                item: merch(1, "rustbook"),
                kind: BehaviorKind::Purchase,
                price: Some(Money::from_units(18)),
                at_us: 42,
            },
        );
        let pa = pa_state(&f);
        assert!(pa.store().profile(ConsumerId(1)).unwrap().total_interest() > 0.0);
        assert_eq!(pa.userdb().profile_count(), 1);
        let txs = pa.userdb().transactions().unwrap();
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].price, Money::from_units(18));
    }

    #[test]
    fn pa_record_query_does_not_create_transaction() {
        let mut f = fix();
        send_to_pa(
            &mut f,
            kinds::PA_RECORD,
            &PaRecord {
                consumer: ConsumerId(1),
                item: merch(1, "rustbook"),
                kind: BehaviorKind::Query,
                price: None,
                at_us: 0,
            },
        );
        let pa = pa_state(&f);
        assert_eq!(pa.userdb().transaction_count(), 0);
        assert!(pa.store().profile(ConsumerId(1)).is_some());
    }

    #[test]
    fn pa_similar_finds_neighbours_and_their_preferences() {
        let mut f = fix();
        // consumer 2 and 3 share taste; 3 bought item 9 which 2 hasn't
        for c in [2u64, 3] {
            for i in [1u64, 2, 3] {
                send_to_pa(
                    &mut f,
                    kinds::PA_RECORD,
                    &PaRecord {
                        consumer: ConsumerId(c),
                        item: merch(i, &format!("rustbook{i}")),
                        kind: BehaviorKind::Purchase,
                        price: None,
                        at_us: 0,
                    },
                );
            }
        }
        send_to_pa(
            &mut f,
            kinds::PA_RECORD,
            &PaRecord {
                consumer: ConsumerId(3),
                item: merch(9, "rustbook9"),
                kind: BehaviorKind::Purchase,
                price: None,
                at_us: 0,
            },
        );
        send_to_pa(
            &mut f,
            kinds::PA_SIMILAR,
            &PaSimilar {
                consumer: ConsumerId(2),
                offers: vec![],
                k_neighbours: 5,
            },
        );
        let s = sink_state(&f);
        let reply: PaSimilarReply =
            serde_json::from_value(s.replies.last().unwrap().1.clone()).unwrap();
        assert!(
            !reply.neighbours.is_empty(),
            "consumer 3 should be a neighbour"
        );
        assert_eq!(reply.neighbours[0].0, ConsumerId(3));
        assert!(
            reply
                .neighbour_preferences
                .iter()
                .any(|(m, _)| m.id == ItemId(9)),
            "item 9 must appear among neighbour preferences"
        );
        // items consumer 2 already bought are excluded
        assert!(reply
            .neighbour_preferences
            .iter()
            .all(|(m, _)| m.id != ItemId(1)));
    }

    #[test]
    fn maintenance_cycle_decays_profiles_periodically() {
        use agentsim::clock::{SimDuration, SimTime};
        let mut world = SimWorld::new(12);
        let h = world.add_host("buyer-server");
        let pa = world
            .create_agent(
                h,
                Box::new(
                    ProfileAgent::new(LearnerConfig::default(), SimilarityConfig::default())
                        .with_maintenance(MaintenanceConfig {
                            interval_us: 1_000_000, // every simulated second
                            decay: 0.5,
                        }),
                ),
            )
            .unwrap();
        let sink = world.create_agent(h, Box::new(Sink::default())).unwrap();
        // seed one behaviour
        let mut msg = Message::new("instr");
        msg.payload = serde_json::json!({
            "__send_to": pa.0,
            "kind": kinds::PA_RECORD,
            "payload": serde_json::to_value(&PaRecord {
                consumer: ConsumerId(1),
                item: merch(1, "rustbook"),
                kind: BehaviorKind::Purchase,
                price: None,
                at_us: 0,
            }).unwrap(),
        })
        .into();
        world.send_external(sink, msg).unwrap();
        world.run_until(SimTime::ZERO + SimDuration::from_millis(100));
        let before: ProfileAgent = serde_json::from_value(world.snapshot_of(pa).unwrap()).unwrap();
        let interest_before = before
            .store()
            .profile(ConsumerId(1))
            .unwrap()
            .total_interest();
        // run past three maintenance intervals (never run_until_idle —
        // the cycle re-arms forever)
        world.run_until(SimTime::ZERO + SimDuration::from_micros(3_500_000));
        let after: ProfileAgent = serde_json::from_value(world.snapshot_of(pa).unwrap()).unwrap();
        assert_eq!(after.maintenance_passes(), 3);
        let interest_after = after
            .store()
            .profile(ConsumerId(1))
            .map(|p| p.total_interest())
            .unwrap_or(0.0);
        assert!(
            interest_after < interest_before * 0.2,
            "three 0.5 decays must shrink interest to 12.5%: {interest_before} -> {interest_after}"
        );
    }

    /// A durable PA journals its maintenance passes with its behaviour
    /// records, so a crash after a pass replays to the decayed state.
    #[test]
    fn durable_maintenance_passes_survive_a_crash() {
        use agentsim::clock::{SimDuration, SimTime};
        use agentsim::durable::DurabilityConfig;
        let mut world = SimWorld::new(13);
        world.registry_mut().register_serde::<ProfileAgent>(PA_TYPE);
        world.enable_durability(DurabilityConfig {
            checkpoint_every: 0,
            sync_every: 1,
        });
        let h = world.add_host("buyer-server");
        let pa = world
            .create_agent(
                h,
                Box::new(
                    ProfileAgent::new(LearnerConfig::default(), SimilarityConfig::default())
                        .with_maintenance(MaintenanceConfig {
                            interval_us: 1_000_000,
                            decay: 0.5,
                        })
                        .with_durability(),
                ),
            )
            .unwrap();
        let sink = world.create_agent(h, Box::new(Sink::default())).unwrap();
        let mut msg = Message::new("instr");
        msg.payload = serde_json::json!({
            "__send_to": pa.0,
            "kind": kinds::PA_RECORD,
            "payload": serde_json::to_value(&PaRecord {
                consumer: ConsumerId(1),
                item: merch(1, "rustbook"),
                kind: BehaviorKind::Purchase,
                price: None,
                at_us: 0,
            }).unwrap(),
        })
        .into();
        world.send_external(sink, msg).unwrap();
        world.run_until(SimTime::ZERO + SimDuration::from_micros(2_500_000));
        let live = world.snapshot_of(pa).unwrap();
        assert_eq!(world.metrics().profile_deltas_logged, 3);
        world.crash_host(h).unwrap();
        world.restart_host(h).unwrap();
        assert_eq!(world.snapshot_of(pa).unwrap(), live);
        let recovered: ProfileAgent = serde_json::from_value(live).unwrap();
        assert_eq!(recovered.maintenance_passes(), 2);
    }

    #[test]
    fn pa_similar_cold_consumer_gets_empty_neighbours() {
        let mut f = fix();
        send_to_pa(
            &mut f,
            kinds::PA_SIMILAR,
            &PaSimilar {
                consumer: ConsumerId(42),
                offers: vec![merch(1, "x")],
                k_neighbours: 5,
            },
        );
        let s = sink_state(&f);
        let reply: PaSimilarReply =
            serde_json::from_value(s.replies.last().unwrap().1.clone()).unwrap();
        assert!(reply.neighbours.is_empty());
        assert!(reply.profile.is_empty());
    }
}
