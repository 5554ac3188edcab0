//! One pass of a workload: set up a fresh platform from the seeded
//! inputs, serve the request plan closed-loop through the front door,
//! and check every response.
//!
//! An untraced pass uses only the platform's browser-level calls. A
//! traced pass serves the same plan but splits each front-door call
//! into its layer calls (send, `run_until_idle`, `run_and_drain`) and
//! records a span around each, then times the codec, recommender,
//! learner and WAL directly on the pass's own data.

use crate::gate::{Expect, Gate};
use crate::inputs::{self, Inputs, Shape, Workload, CLIENTS_PER_ROUND, MAX_RESULTS};
use crate::spans::Spans;
use abcrm_core::agents::msg::{
    kinds, BuyMode, ConsumerTask, FrontRequest, FrontRequestBody, FrontResponse, MarketRef,
    ResponseBody,
};
use abcrm_core::learning::{BehaviorEvent, BehaviorKind, LearnerConfig, ProfileLearner};
use abcrm_core::profile::{ConsumerId, Profile};
use abcrm_core::recommend::{HybridRecommender, QueryContext, Recommender};
use abcrm_core::server::{Platform, ShardedPlatform};
use abcrm_core::similarity::SimilarityConfig;
use abcrm_core::store::RecommendStore;
use agentsim::durable::DurabilityConfig;
use agentsim::message::Message;
use agentsim::metrics::Metrics;
use agentsim::payload::Payload;
use agentsim::sim::SimWorld;
use ecp::marketplace::MarketplaceAgent;
use ecp::merchandise::{ItemId, Merchandise};
use ecp::protocol::Offer;
use simdb::wal::{LogRecord, Wal};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

/// Shards of the `durable_buy` platform.
const SHARDS: usize = 2;
/// Neighbourhood size the recommender layer is timed with (the BRA's).
const K_NEIGHBOURS: usize = 10;
/// A traced `durable_buy` pass sizes the WAL every this many rounds.
const WAL_SAMPLE_EVERY: usize = 5;

/// What one pass measured.
#[derive(Debug)]
pub struct Pass {
    /// Catalog, population and platform build plus history seeding, s.
    pub setup_s: f64,
    /// Wall time inside the front-door calls alone, s (a `durable_buy`
    /// round is one call serving several requests).
    pub call_s: f64,
    /// Host wall time of the front-door call that served each request,
    /// in run order, ms.
    pub request_ms: Vec<f64>,
    /// Requests each front-door call serves (a `durable_buy` round serves
    /// several; its time is charged to each).
    pub requests_per_call: usize,
    /// Requests per unit of the workload's repeating work (a session, a
    /// query, a query round plus its buy round): flatness compares
    /// whole cycles, not single requests of different kinds.
    pub cycle: usize,
    /// precision@k of each query's recommendations.
    pub precision: Vec<f64>,
    /// Peak resident set during the pass, MiB.
    pub peak_rss_mb: f64,
    /// The pass's correctness checks.
    pub gate: Gate,
    /// Layer measurements, on a traced pass.
    pub traced: Option<Traced>,
}

/// Layer measurements of a traced pass.
#[derive(Debug, Default)]
pub struct Traced {
    /// Spans around the layer calls.
    pub spans: Spans,
    /// Counts and timings outside the spans.
    pub layers: Layers,
}

/// Per-layer counts of a traced pass (totals over the pass).
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Front-door requests served.
    pub requests: u64,
    /// Counter deltas over the serving phase.
    pub counts: Counts,
    /// Encoded size of the HttpA snapshot(s) at the end of the pass.
    pub httpa_state_bytes: u64,
    /// Encoded front-door request bytes.
    pub request_bytes: u64,
    /// Encoded front-door response bytes.
    pub response_bytes: u64,
    /// Responses encoded.
    pub responses: u64,
    /// Requests per shard.
    pub shard_requests: Vec<u64>,
    /// Queries answered, and the offers they carried.
    pub queries: u64,
    /// Offers in the query responses.
    pub offers: u64,
    /// Receipts returned.
    pub receipts: u64,
    /// Queries the recommender layer was timed on: one
    /// `nearest_neighbours` and one `HybridRecommender::recommend` call
    /// each.
    pub recommender_calls: u64,
    /// Total `nearest_neighbours` time, ns.
    pub neighbours_ns: u64,
    /// Total `recommend` time, ns.
    pub recommend_ns: u64,
    /// `apply_indexed` calls.
    pub learn_events: u64,
    /// Total `apply_indexed` time, ns.
    pub learn_ns: u64,
    /// Sum of the deltas' sizes (changed index terms).
    pub delta_terms: u64,
    /// WAL records sized from the logs at round ends.
    pub wal_sampled_records: u64,
    /// Their encoded bytes.
    pub wal_sampled_bytes: u64,
    /// Encoded bytes of the sampled `Capsule` records.
    pub wal_capsule_bytes: u64,
}

/// World counters the benchmark reads before and after serving.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Scheduler events dispatched: deliveries, dead letters, arrivals,
    /// rejected arrivals and timers.
    pub events: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Messages dead-lettered.
    pub dead_letters: u64,
    /// Payload bytes sent between hosts.
    pub remote_bytes: u64,
    /// Agent migrations.
    pub migrations: u64,
    /// Capsule bytes moved by migrations.
    pub migration_bytes: u64,
    /// Messages across a shard boundary.
    pub boundary_messages: u64,
    /// Migrations across a shard boundary.
    pub boundary_migrations: u64,
    /// WAL records appended.
    pub wal_records: u64,
    /// Durable checkpoints.
    pub checkpoints: u64,
}

impl Counts {
    fn of(m: &Metrics) -> Counts {
        Counts {
            events: m.messages_delivered
                + m.messages_dead_lettered
                + m.migrations
                + m.migrations_rejected
                + m.timers_fired,
            messages: m.messages_delivered,
            dead_letters: m.messages_dead_lettered,
            remote_bytes: m.remote_message_bytes,
            migrations: m.migrations,
            migration_bytes: m.migration_bytes,
            boundary_messages: m.boundary_messages,
            boundary_migrations: m.boundary_migrations,
            wal_records: m.wal_records_appended,
            checkpoints: m.checkpoints,
        }
    }

    fn since(self, before: Counts) -> Counts {
        Counts {
            events: self.events - before.events,
            messages: self.messages - before.messages,
            dead_letters: self.dead_letters - before.dead_letters,
            remote_bytes: self.remote_bytes - before.remote_bytes,
            migrations: self.migrations - before.migrations,
            migration_bytes: self.migration_bytes - before.migration_bytes,
            boundary_messages: self.boundary_messages - before.boundary_messages,
            boundary_migrations: self.boundary_migrations - before.boundary_migrations,
            wal_records: self.wal_records - before.wal_records,
            checkpoints: self.checkpoints - before.checkpoints,
        }
    }
}

/// A browser-level request.
#[derive(Debug, Clone)]
enum Req {
    Login,
    Logout,
    Query(Vec<String>),
    Buy(Offer),
}

fn market_of(markets: &[MarketRef], offer: &Offer) -> usize {
    markets
        .iter()
        .position(|m| m.host == offer.marketplace)
        .expect("offers come from known marketplaces")
}

fn query_task(keywords: &[String]) -> ConsumerTask {
    ConsumerTask::Query {
        keywords: keywords.to_vec(),
        category: None,
        max_results: MAX_RESULTS,
    }
}

fn buy_task(markets: &[MarketRef], offer: &Offer) -> ConsumerTask {
    ConsumerTask::Buy {
        item: offer.item.id,
        market: markets[market_of(markets, offer)],
        mode: BuyMode::Direct,
    }
}

fn body_of(markets: &[MarketRef], req: &Req) -> FrontRequestBody {
    match req {
        Req::Login => FrontRequestBody::Login,
        Req::Logout => FrontRequestBody::Logout,
        Req::Query(k) => FrontRequestBody::Task(query_task(k)),
        Req::Buy(o) => FrontRequestBody::Task(buy_task(markets, o)),
    }
}

/// State shared by the workload loops of one pass.
struct Driver {
    gate: Gate,
    relevant: BTreeMap<ConsumerId, BTreeSet<ItemId>>,
    request_ms: Vec<f64>,
    call_s: f64,
    precision: Vec<f64>,
    /// Behaviour the pass generated, as the PA records it: the top three
    /// offers of each query, and each purchase.
    events: Vec<(ConsumerId, Merchandise, BehaviorKind)>,
    traced: Option<Traced>,
    next_request: u64,
    /// `durable_buy` rounds served.
    rounds: usize,
}

impl Driver {
    /// Record one front-door call that served `n` requests.
    fn record(&mut self, n: usize, started: Instant) {
        let wall = started.elapsed().as_secs_f64();
        self.call_s += wall;
        self.request_ms.extend(std::iter::repeat_n(wall * 1e3, n));
    }

    /// One blocking front-door call on a [`Platform`].
    fn call(&mut self, p: &mut Platform, consumer: ConsumerId, req: Req) -> Vec<ResponseBody> {
        let id = self.next_request;
        self.next_request += 1;
        let request = FrontRequest {
            consumer,
            body: body_of(p.markets(), &req),
        };
        let t0 = Instant::now();
        let out = match &mut self.traced {
            None => match &req {
                Req::Login => p.login(consumer),
                Req::Logout => p.logout(consumer),
                Req::Query(k) => {
                    let k: Vec<&str> = k.iter().map(String::as_str).collect();
                    p.query(consumer, &k, MAX_RESULTS)
                }
                Req::Buy(o) => {
                    let market = market_of(p.markets(), o);
                    p.buy(consumer, o.item.id, market, BuyMode::Direct)
                }
            },
            Some(t) => {
                let root = t.spans.open("request", id, None);
                let msg = Message::new(kinds::FRONT_REQUEST)
                    .with_payload(&request)
                    .expect("front request serializes");
                let httpa = p.httpa();
                p.world_mut()
                    .send_external(httpa, msg)
                    .expect("httpa reachable");
                t.spans
                    .time("sim.run", id, Some(root), || p.world_mut().run_until_idle());
                let fresh = t
                    .spans
                    .time("server.drain", id, Some(root), || p.run_and_drain());
                t.spans.close(root);
                fresh
                    .into_iter()
                    .filter(|(c, _)| *c == consumer)
                    .map(|(_, b)| b)
                    .collect()
            }
        };
        self.record(1, t0);
        if let Some(t) = &mut self.traced {
            t.codec(id, std::slice::from_ref(&request), &out);
        }
        out
    }

    /// One closed-loop round on a [`ShardedPlatform`]: run the tasks
    /// submitted since the last round and drain every response.
    fn round(
        &mut self,
        p: &mut ShardedPlatform,
        requests: &[FrontRequest],
    ) -> Vec<(ConsumerId, ResponseBody)> {
        let id = self.next_request;
        self.next_request += requests.len() as u64;
        let t0 = Instant::now();
        let out = match &mut self.traced {
            None => p.run_and_drain(),
            Some(t) => {
                let root = t.spans.open("round", id, None);
                t.spans
                    .time("sim.run", id, Some(root), || p.world_mut().run_until_idle());
                let fresh = t
                    .spans
                    .time("server.drain", id, Some(root), || p.run_and_drain());
                t.spans.close(root);
                fresh
            }
        };
        self.record(requests.len(), t0);
        if let Some(t) = &mut self.traced {
            let bodies: Vec<ResponseBody> = out.iter().map(|(_, b)| b.clone()).collect();
            t.codec(id, requests, &bodies);
            self.rounds += 1;
            if self.rounds.is_multiple_of(WAL_SAMPLE_EVERY) {
                sample_wal(p, &mut t.layers);
            }
        }
        out
    }

    /// Check a query's response; score its recommendations and return
    /// the first offer.
    fn answered_query(
        &mut self,
        consumer: ConsumerId,
        responses: &[ResponseBody],
    ) -> Option<Offer> {
        let Some(ResponseBody::Recommendations {
            offers,
            recommendations,
            ..
        }) = self
            .gate
            .check(consumer, Expect::Recommendations, responses)
        else {
            return None;
        };
        let relevant = &self.relevant[&consumer];
        let hits = recommendations
            .iter()
            .filter(|r| relevant.contains(&r.item.id))
            .count();
        self.precision.push(hits as f64 / MAX_RESULTS as f64);
        if let Some(t) = &mut self.traced {
            t.layers.queries += 1;
            t.layers.offers += offers.len() as u64;
        }
        for o in offers.iter().take(3) {
            self.events
                .push((consumer, o.item.clone(), BehaviorKind::Query));
        }
        if offers.is_empty() {
            self.gate
                .violate(format!("consumer {}: query returned no offers", consumer.0));
        }
        offers.first().cloned()
    }

    /// Check a buy's response.
    fn bought(&mut self, consumer: ConsumerId, responses: &[ResponseBody]) {
        if let Some(ResponseBody::Receipt { item, .. }) =
            self.gate.check(consumer, Expect::Receipt, responses)
        {
            self.events
                .push((consumer, item.clone(), BehaviorKind::Purchase));
            if let Some(t) = &mut self.traced {
                t.layers.receipts += 1;
            }
        }
    }

    /// Every response of a round must answer one of its requests.
    fn no_strays(&mut self, out: &[(ConsumerId, ResponseBody)], requests: &[FrontRequest]) {
        for (c, _) in out {
            if !requests.iter().any(|r| r.consumer == *c) {
                self.gate
                    .violate(format!("consumer {}: response to no request", c.0));
            }
        }
    }
}

impl Traced {
    /// Time the payload codec on this call's own bodies: encode, size
    /// and decode every request and response.
    fn codec(&mut self, id: u64, requests: &[FrontRequest], responses: &[ResponseBody]) {
        let layers = &mut self.layers;
        self.spans.time("payload.codec", id, None, || {
            for r in requests {
                let p = Payload::encode(r).expect("request encodes");
                layers.request_bytes += p.encoded_len() as u64;
                black_box(p.typed::<FrontRequest>().expect("request decodes"));
            }
            for body in responses {
                let p = Payload::encode(&FrontResponse {
                    consumer: ConsumerId(0),
                    body: body.clone(),
                })
                .expect("response encodes");
                layers.response_bytes += p.encoded_len() as u64;
                layers.responses += 1;
                black_box(p.typed::<FrontResponse>().expect("response decodes"));
            }
        });
    }
}

/// Size every record in each durable host's log. Called every
/// [`WAL_SAMPLE_EVERY`] rounds: a checkpoint truncates the log well
/// within that many rounds, so no record is sized twice. The per-record
/// size of the sampled records is applied to the exact appended count.
fn sample_wal(p: &ShardedPlatform, layers: &mut Layers) {
    for k in 0..p.shard_count() {
        let shard = p.world().shard(k);
        for host in shard.hosts() {
            let Some(store) = shard.durable_store(host) else {
                continue;
            };
            let wal = Wal::decode(&store.wal_bytes()).expect("live WAL decodes");
            for r in wal.records() {
                let bytes = serde_json::to_string(r).expect("record encodes").len() as u64 + 1;
                layers.wal_sampled_records += 1;
                layers.wal_sampled_bytes += bytes;
                if matches!(r, LogRecord::Capsule { .. }) {
                    layers.wal_capsule_bytes += bytes;
                }
            }
        }
    }
}

/// Units sold per item over every marketplace of `world`.
fn units_sold(world: &SimWorld, markets: &[MarketRef], inputs: &Inputs) -> BTreeMap<ItemId, u32> {
    let mut sold = BTreeMap::new();
    for m in markets {
        let market: MarketplaceAgent =
            serde_json::from_value(world.snapshot_of(m.agent).expect("marketplace active"))
                .expect("marketplace state parses");
        for l in &inputs.listings {
            let n = market.units_sold(l.item.id);
            if n > 0 {
                *sold.entry(l.item.id).or_insert(0) += n;
            }
        }
    }
    sold
}

/// End-of-pass checks: receipts equal units sold, nothing dead-lettered.
fn settle(d: &mut Driver, sold: BTreeMap<ItemId, u32>, served: Counts) {
    if sold != d.gate.receipts {
        let receipts: u32 = d.gate.receipts.values().sum();
        let units: u32 = sold.values().sum();
        d.gate.violate(format!(
            "receipts ({receipts}) do not match units sold ({units}) item for item"
        ));
    }
    if served.dead_letters > 0 {
        d.gate
            .violate(format!("{} messages dead-lettered", served.dead_letters));
    }
}

/// Time the learner and the recommender on the pass's own behaviour,
/// on a store the benchmark builds itself.
fn time_recommender(d: &mut Driver, inputs: &Inputs, seed: u64) {
    let Some(t) = &mut d.traced else {
        return;
    };
    let layers = &mut t.layers;
    let events: Vec<&(ConsumerId, Merchandise, BehaviorKind)> =
        inputs.history.iter().chain(d.events.iter()).collect();
    let learner = ProfileLearner::new(LearnerConfig::default());
    let mut profiles: BTreeMap<ConsumerId, Profile> = BTreeMap::new();
    for (consumer, item, kind) in &events {
        let event = BehaviorEvent::new(*kind, item.category.clone(), item.terms.clone());
        let profile = profiles.entry(*consumer).or_default();
        let start = Instant::now();
        let delta = learner.apply_indexed(profile, &event);
        layers.learn_ns += start.elapsed().as_nanos() as u64;
        layers.learn_events += 1;
        layers.delta_terms += delta.len() as u64;
    }
    let mut store = RecommendStore::with_learner(LearnerConfig::default());
    for l in &inputs.listings {
        store.upsert_item(l.item.clone());
    }
    for (consumer, item, kind) in &events {
        store.record_event(*consumer, item.id, *kind);
    }
    let similarity = SimilarityConfig::default().with_ann_seed(seed);
    let recommender = HybridRecommender {
        k_neighbours: K_NEIGHBOURS,
        similarity,
        ..HybridRecommender::default()
    };
    for q in &inputs.queries {
        let start = Instant::now();
        black_box(store.nearest_neighbours(q.consumer, &similarity, K_NEIGHBOURS));
        layers.neighbours_ns += start.elapsed().as_nanos() as u64;
        let context = QueryContext::keywords(q.keywords.iter().map(String::as_str));
        let start = Instant::now();
        black_box(recommender.recommend(&store, q.consumer, &context, MAX_RESULTS));
        layers.recommend_ns += start.elapsed().as_nanos() as u64;
        layers.recommender_calls += 1;
    }
}

/// Restart the kernel's peak resident-set count (VmHWM) at the current
/// resident set, so that each pass reports its own peak. Where this is
/// not supported the count simply keeps the process's peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (VmHWM) since the last reset, MiB; 0 where the
/// kernel does not report it.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run one pass of `workload` at `shape`. A traced pass also measures
/// the layers.
pub fn pass(workload: Workload, shape: Shape, seed: u64, traced: bool) -> Pass {
    let mut d = Driver {
        gate: Gate::new(),
        relevant: BTreeMap::new(),
        request_ms: Vec::with_capacity(shape.requests),
        call_s: 0.0,
        precision: Vec::new(),
        events: Vec::new(),
        traced: traced.then(Traced::default),
        next_request: 0,
        rounds: 0,
    };
    reset_peak_rss();
    let (setup_s, inputs) = match workload {
        Workload::Sessions | Workload::Recommend => {
            let setup = Instant::now();
            let inputs = inputs::generate(workload, &shape, seed);
            let mut p = Platform::builder(seed)
                .marketplaces(inputs.per_market.clone())
                .build();
            if !inputs.history.is_empty() {
                p.seed_events(&inputs.history);
            }
            if workload == Workload::Recommend {
                let active: BTreeSet<ConsumerId> =
                    inputs.queries.iter().map(|q| q.consumer).collect();
                for c in active {
                    if p.login(c) != [ResponseBody::LoggedIn] {
                        d.gate
                            .violate(format!("set-up login of consumer {} failed", c.0));
                    }
                }
            }
            let setup_s = setup.elapsed().as_secs_f64();
            d.relevant = inputs::relevance(&inputs);
            let before = Counts::of(p.world().metrics());
            for q in &inputs.queries {
                let c = q.consumer;
                if workload == Workload::Sessions {
                    let r = d.call(&mut p, c, Req::Login);
                    d.gate.check(c, Expect::LoggedIn, &r);
                }
                let r = d.call(&mut p, c, Req::Query(q.keywords.clone()));
                let offer = d.answered_query(c, &r);
                if workload == Workload::Sessions {
                    if let Some(offer) = offer {
                        let r = d.call(&mut p, c, Req::Buy(offer));
                        d.bought(c, &r);
                    }
                    let r = d.call(&mut p, c, Req::Logout);
                    d.gate.check(c, Expect::LoggedOut, &r);
                }
            }
            let served = Counts::of(p.world().metrics()).since(before);
            let sold = units_sold(p.world(), p.markets(), &inputs);
            settle(&mut d, sold, served);
            if let Some(t) = &mut d.traced {
                t.layers.counts = served;
                t.layers.requests = d.request_ms.len() as u64;
                t.layers.httpa_state_bytes =
                    Payload::from(p.world().snapshot_of(p.httpa()).expect("httpa active"))
                        .encoded_len() as u64;
                t.layers.shard_requests = vec![t.layers.requests];
            }
            (setup_s, inputs)
        }
        Workload::DurableBuy => {
            let setup = Instant::now();
            let inputs = inputs::generate(workload, &shape, seed);
            let mut p = ShardedPlatform::builder(seed, SHARDS)
                .marketplaces(inputs.per_market.clone())
                .durability(DurabilityConfig::default())
                .build();
            let active: BTreeSet<ConsumerId> = inputs.queries.iter().map(|q| q.consumer).collect();
            for c in active {
                if p.login(c) != [ResponseBody::LoggedIn] {
                    d.gate
                        .violate(format!("set-up login of consumer {} failed", c.0));
                }
            }
            let setup_s = setup.elapsed().as_secs_f64();
            d.relevant = inputs::relevance(&inputs);
            let before = Counts::of(&p.metrics());
            for chunk in inputs.queries.chunks(CLIENTS_PER_ROUND) {
                let mut requests = Vec::new();
                for q in chunk {
                    let task = query_task(&q.keywords);
                    p.submit_task(q.consumer, task.clone());
                    requests.push(FrontRequest {
                        consumer: q.consumer,
                        body: FrontRequestBody::Task(task),
                    });
                }
                let out = d.round(&mut p, &requests);
                d.no_strays(&out, &requests);
                let mut buys = Vec::new();
                for q in chunk {
                    if let Some(offer) =
                        d.answered_query(q.consumer, &responses_of(&out, q.consumer))
                    {
                        buys.push((q.consumer, offer));
                    }
                }
                let mut requests = Vec::new();
                for (c, offer) in &buys {
                    let task = buy_task(p.markets(), offer);
                    p.submit_task(*c, task.clone());
                    requests.push(FrontRequest {
                        consumer: *c,
                        body: FrontRequestBody::Task(task),
                    });
                }
                let out = d.round(&mut p, &requests);
                d.no_strays(&out, &requests);
                for (c, _) in &buys {
                    d.bought(*c, &responses_of(&out, *c));
                }
            }
            let served = Counts::of(&p.metrics()).since(before);
            let sold = units_sold(p.world().shard(0), p.markets(), &inputs);
            settle(&mut d, sold, served);
            if let Some(t) = &mut d.traced {
                t.layers.counts = served;
                t.layers.requests = d.request_ms.len() as u64;
                for k in 0..p.shard_count() {
                    let httpa = p.bsma_state(k).httpa().expect("httpa created");
                    t.layers.httpa_state_bytes +=
                        Payload::from(p.world().shard(k).snapshot_of(httpa).expect("httpa active"))
                            .encoded_len() as u64;
                }
                // each query is followed by its buy
                t.layers.shard_requests = vec![0; p.shard_count()];
                for q in &inputs.queries {
                    t.layers.shard_requests[p.shard_of(q.consumer)] += 2;
                }
            }
            (setup_s, inputs)
        }
    };
    let peak_rss_mb = peak_rss_mb();
    time_recommender(&mut d, &inputs, seed);
    Pass {
        peak_rss_mb,
        setup_s,
        request_ms: d.request_ms,
        call_s: d.call_s,
        requests_per_call: match workload {
            Workload::DurableBuy => CLIENTS_PER_ROUND,
            _ => 1,
        },
        cycle: match workload {
            Workload::Sessions => 4,
            Workload::Recommend => shape.active,
            Workload::DurableBuy => 2 * CLIENTS_PER_ROUND,
        },
        precision: d.precision,
        gate: d.gate,
        traced: d.traced,
    }
}

fn responses_of(out: &[(ConsumerId, ResponseBody)], consumer: ConsumerId) -> Vec<ResponseBody> {
    out.iter()
        .filter(|(c, _)| *c == consumer)
        .map(|(_, b)| b.clone())
        .collect()
}
