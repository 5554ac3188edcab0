//! The Buyer Recommend Agent (BRA).
//!
//! §3.3: *"A BRA stands for online consumer. The main functions of BRA
//! are: (1) Loading Profiles. (2) Providing the assistance of merchandise
//! query and the other bargain functions. (3) Creating recommendation
//! information."*
//!
//! One BRA exists per logged-in consumer (§4.1 principle 1: created at
//! login, disposed at logout). On a task it loads the profile from the
//! PA, creates and dispatches an MBA, and is deactivated by the BSMA
//! while the MBA roams. When the MBA returns (and its result is replayed
//! to the reactivated BRA) the BRA asks the PA for similar users'
//! preferences and generates the recommendation information it sends back
//! through the HttpA.

use crate::agents::mba::{MbaTask, MobileBuyerAgent};
use crate::agents::msg::{
    kinds, BraResponse, ConsumerTask, MarketRef, MarketStatus, MbaLost, MbaRegister, MbaResult,
    PaLoad, PaProfile, PaRecord, PaSimilar, PaSimilarReply, RecommendedItem, ResponseBody,
    RoutedTask,
};
use crate::learning::BehaviorKind;
use crate::profile::{ConsumerId, Profile};
use crate::retry::BackoffPolicy;
use agentsim::agent::{Agent, Ctx};
use agentsim::clock::{SimDuration, SimTime};
use agentsim::ids::{AgentId, HostId, SHARD_ID_SHIFT};
use agentsim::message::Message;
use ecp::merchandise::Merchandise;
use ecp::protocol::{self as ecpk, BuyConfirm, LedgerQuery, LedgerReply, Offer};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Agent-type tag of [`BuyerRecommendAgent`].
pub const BRA_TYPE: &str = "bra";

/// Timer tag for re-dispatching an MBA after a backoff delay.
const RETRY_TAG: u64 = 0x42_52_41; // "BRA"

/// Task state the BRA is driving.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(clippy::enum_variant_names)] // Await* reads better than bare nouns
enum Pending {
    /// Waiting for the PA profile before dispatching the MBA.
    AwaitProfile { task: ConsumerTask },
    /// MBA dispatched; awaiting its result (arrives after reactivation).
    AwaitMba {
        task: ConsumerTask,
        /// The MBA whose result (or loss notice) we expect.
        mba: AgentId,
        /// Dispatch attempts so far (0 = first try).
        attempt: u32,
        /// Durable purchase-intent id (buy tasks under durability only).
        #[serde(default)]
        intent: Option<u64>,
    },
    /// Last MBA lost; backoff timer armed before the next dispatch.
    AwaitRetry {
        task: ConsumerTask,
        attempt: u32,
        /// Durable purchase-intent id carried unchanged into the retry.
        #[serde(default)]
        intent: Option<u64>,
    },
    /// Durable buy whose MBA was lost with the outcome in doubt; the
    /// marketplace ledger has been asked whether the intent committed.
    AwaitLedger {
        task: ConsumerTask,
        intent: u64,
        market: MarketRef,
        attempt: u32,
    },
    /// Offers in hand; awaiting the PA's similar-user data.
    AwaitSimilar {
        task: ConsumerTask,
        offers: Vec<Offer>,
        /// True when falling back to CF-only (no marketplace reached).
        degraded: bool,
        /// Marketplaces that produced no offers this task.
        unreachable: Vec<MarketRef>,
    },
}

/// The Buyer Recommend Agent.
#[derive(Debug, Serialize, Deserialize)]
pub struct BuyerRecommendAgent {
    consumer: ConsumerId,
    bsma: AgentId,
    pa: AgentId,
    httpa: AgentId,
    markets: Vec<MarketRef>,
    profile: Option<Profile>,
    pending: Option<Pending>,
    /// Weight of the collaborative term when ranking.
    collaborative_weight: f64,
    /// Neighbours requested from the PA.
    k_neighbours: usize,
    /// Microseconds before a roaming MBA is presumed lost.
    mba_timeout_us: u64,
    /// Recommendations produced over this session (for inspection).
    recommendations_made: u32,
    /// Backoff schedule for re-dispatching a lost MBA.
    #[serde(default)]
    retry: BackoffPolicy,
    /// Marketplaces the BSMA flagged as circuit-open for the current
    /// task; the MBA must skip them.
    #[serde(default)]
    blocked_markets: Vec<MarketRef>,
    /// True when the host journals state durably: buys carry a WAL-logged
    /// intent id and in-doubt outcomes are resolved against the
    /// marketplace ledger instead of failed outright.
    #[serde(default)]
    durable: bool,
    /// Purchase intents minted by this BRA so far (intent-id sequence).
    #[serde(default)]
    intents_minted: u64,
}

/// Bits of an intent id holding the minting BRA's shard, its
/// shard-local agent number and its sequence number (high to low).
const INTENT_SHARD_BITS: u32 = 8;
const INTENT_LOCAL_BITS: u32 = 32;
const INTENT_SEQ_BITS: u32 = 64 - INTENT_SHARD_BITS - INTENT_LOCAL_BITS;

/// The durable purchase-intent id of sequence number `seq` of BRA `bra`.
/// Agent ids are `shard << SHARD_ID_SHIFT | local`; the intent id packs
/// the shard into the top 8 bits, the shard-local number into the next
/// 32 and `seq` into the low 24, so ids from distinct BRAs or sequence
/// numbers never collide. `None` when a part does not fit (shard ≥ 256,
/// 2^32 agents created on one shard, or 2^24 purchases in one BRA's
/// session): the caller refuses the purchase instead of wrapping onto
/// an earlier id, which the marketplace ledger would dedup as a replay.
pub fn intent_id(bra: AgentId, seq: u64) -> Option<u64> {
    let shard = bra.0 >> SHARD_ID_SHIFT;
    let local = bra.0 & ((1 << SHARD_ID_SHIFT) - 1);
    let fits = |v: u64, bits: u32| v < 1 << bits;
    if !(fits(shard, INTENT_SHARD_BITS)
        && fits(local, INTENT_LOCAL_BITS)
        && fits(seq, INTENT_SEQ_BITS))
    {
        return None;
    }
    Some((shard << (INTENT_LOCAL_BITS + INTENT_SEQ_BITS)) | (local << INTENT_SEQ_BITS) | seq)
}

impl BuyerRecommendAgent {
    /// Create a BRA for `consumer`, wired to its server-side peers.
    pub fn new(
        consumer: ConsumerId,
        bsma: AgentId,
        pa: AgentId,
        httpa: AgentId,
        markets: Vec<MarketRef>,
    ) -> Self {
        BuyerRecommendAgent {
            consumer,
            bsma,
            pa,
            httpa,
            markets,
            profile: None,
            pending: None,
            collaborative_weight: 0.7,
            k_neighbours: 10,
            mba_timeout_us: 600_000_000, // 10 simulated minutes
            recommendations_made: 0,
            retry: BackoffPolicy::default(),
            blocked_markets: Vec::new(),
            durable: false,
            intents_minted: 0,
        }
    }

    /// Turn on the durable-purchase protocol (intent ids + ledger
    /// resolution). Only meaningful on a world with durability enabled.
    pub fn with_durability(mut self) -> Self {
        self.durable = true;
        self
    }

    /// Override the MBA re-dispatch backoff schedule.
    pub fn with_retry_policy(mut self, retry: BackoffPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Override the hybrid ranking weight (ablation knob).
    pub fn with_collaborative_weight(mut self, w: f64) -> Self {
        self.collaborative_weight = w.clamp(0.0, 1.0);
        self
    }

    /// Override the MBA loss timeout.
    pub fn with_mba_timeout_us(mut self, us: u64) -> Self {
        self.mba_timeout_us = us;
        self
    }

    fn respond(&mut self, ctx: &mut Ctx<'_>, body: ResponseBody) {
        // The reply itself must never be dropped as expired: a degraded
        // answer at (or just past) the deadline still beats silence, so
        // strip the deadline before the send stamps it.
        if ctx.deadline().is_some() {
            ctx.clear_deadline();
        }
        let msg = Message::new(kinds::BRA_RESPONSE)
            .with_payload(&BraResponse {
                consumer: self.consumer,
                body,
            })
            .expect("response serializes");
        ctx.send(self.httpa, msg);
    }

    fn start_task(&mut self, ctx: &mut Ctx<'_>, task: ConsumerTask, blocked: Vec<MarketRef>) {
        if self.pending.is_some() {
            self.respond(ctx, ResponseBody::Error("busy with a previous task".into()));
            return;
        }
        self.blocked_markets = blocked;
        // A buy/auction aimed at a circuit-open marketplace cannot
        // proceed at all: fail fast rather than loading a profile for a
        // dispatch that is already refused.
        if let ConsumerTask::Buy { market, .. } | ConsumerTask::Auction { market, .. } = &task {
            if self.blocked_markets.contains(market) {
                ctx.note(format!(
                    "bra: marketplace {} circuit open, refusing transaction",
                    market.agent
                ));
                self.respond(
                    ctx,
                    ResponseBody::Error("marketplace unavailable: circuit open".into()),
                );
                return;
            }
        }
        let fig = task.figure();
        ctx.note(format!("{fig}/step04 bra requests profile from pa"));
        let load = Message::new(kinds::PA_LOAD)
            .with_payload(&PaLoad {
                consumer: self.consumer,
                figure: fig.to_string(),
            })
            .expect("load serializes");
        ctx.send(self.pa, load);
        self.pending = Some(Pending::AwaitProfile { task });
    }

    /// Mint a fresh purchase-intent id ([`intent_id`] of this BRA's id
    /// and its next sequence number), or `None` once either would no
    /// longer fit — the sequence is not advanced then, so no id is ever
    /// reused.
    fn mint_intent(&mut self, bra: AgentId) -> Option<u64> {
        let seq = self.intents_minted + 1;
        let id = intent_id(bra, seq)?;
        self.intents_minted = seq;
        Some(id)
    }

    fn dispatch_mba(
        &mut self,
        ctx: &mut Ctx<'_>,
        task: ConsumerTask,
        attempt: u32,
        prior_intent: Option<u64>,
    ) {
        let fig = task.figure();
        // Durable buys carry a WAL-logged intent id so the marketplace
        // can dedupe a re-driven purchase. Minted once, before the first
        // dispatch (write-ahead); retries reuse it unchanged.
        let intent = match (&task, prior_intent) {
            (_, Some(i)) => Some(i),
            (ConsumerTask::Buy { item, market, .. }, None) if self.durable => {
                let Some(i) = self.mint_intent(ctx.self_id()) else {
                    // a wrapped id would alias an earlier purchase that
                    // the marketplace ledger then dedups as a replay
                    ctx.note("bra: purchase intent ids exhausted, refusing buy");
                    self.respond(
                        ctx,
                        ResponseBody::Error("purchase intent ids exhausted".into()),
                    );
                    return;
                };
                ctx.journal_intent(
                    i,
                    serde_json::json!({
                        "consumer": self.consumer,
                        "item": item,
                        "market": market.agent,
                    }),
                );
                Some(i)
            }
            _ => None,
        };
        let (mba_task, itinerary) = match &task {
            ConsumerTask::Query {
                keywords,
                category,
                max_results,
            } => (
                MbaTask::Query {
                    keywords: keywords.clone(),
                    category: category.clone(),
                    max_results: *max_results,
                },
                self.markets
                    .iter()
                    .filter(|m| !self.blocked_markets.contains(m))
                    .copied()
                    .collect(),
            ),
            ConsumerTask::Buy { item, market, mode } => (
                MbaTask::Buy {
                    item: *item,
                    mode: *mode,
                    intent,
                },
                vec![*market],
            ),
            ConsumerTask::Auction {
                item,
                market,
                limit,
            } => (
                MbaTask::Auction {
                    item: *item,
                    limit: *limit,
                },
                vec![*market],
            ),
        };
        if itinerary.is_empty() && !self.blocked_markets.is_empty() {
            // every marketplace is circuit-open: skip the doomed trip and
            // answer immediately from the cached profile (CF-only)
            ctx.note("bra: all marketplaces circuit open, degrading to cached-profile cf");
            let similar = Message::new(kinds::PA_SIMILAR)
                .with_payload(&PaSimilar {
                    consumer: self.consumer,
                    offers: Vec::new(),
                    k_neighbours: self.k_neighbours,
                })
                .expect("similar serializes");
            ctx.send(self.pa, similar);
            self.pending = Some(Pending::AwaitSimilar {
                task,
                offers: Vec::new(),
                degraded: true,
                unreachable: self.blocked_markets.clone(),
            });
            return;
        }
        let create_step = if fig == "fig4.2" { "step07" } else { "step06" };
        ctx.note(format!(
            "{fig}/{create_step} bra creates mba and assigns task"
        ));
        let mba = ctx.create_agent(Box::new(
            MobileBuyerAgent::new(
                ctx.host(),
                self.bsma,
                ctx.self_id(),
                self.consumer,
                mba_task,
                itinerary,
            )
            // give up on an unresponsive marketplace well before the BSMA
            // watchdog gives up on the whole trip
            .with_market_wait_us(self.mba_timeout_us / 4),
        ));
        let register_step = if fig == "fig4.2" { "step08" } else { "step07" };
        ctx.note(format!("{fig}/{register_step} bra registers mba with bsma"));
        let register = Message::new(kinds::MBA_REGISTER)
            .with_payload(&MbaRegister {
                mba,
                bra: ctx.self_id(),
                consumer: self.consumer,
                timeout_us: self.mba_timeout_us,
                figure: fig.to_string(),
            })
            .expect("register serializes");
        ctx.send(self.bsma, register);
        self.pending = Some(Pending::AwaitMba {
            task,
            mba,
            attempt,
            intent,
        });
    }

    /// Rank candidates: the paper's combination of similar users'
    /// preferences with the queried merchandise information and the
    /// consumer's own profile.
    /// `cw` is the collaborative weight for this reply — normally
    /// [`Self::collaborative_weight`], forced to 1.0 for a degraded
    /// CF-only reply where no fresh offers exist to content-rank.
    fn generate_recommendations(
        &self,
        offers: &[Offer],
        data: &PaSimilarReply,
        task: &ConsumerTask,
        k: usize,
        cw: f64,
    ) -> Vec<RecommendedItem> {
        let (keywords, category) = match task {
            ConsumerTask::Query {
                keywords, category, ..
            } => (keywords.clone(), category.clone()),
            _ => (Vec::new(), None),
        };
        let context = crate::recommend::QueryContext { keywords, category };
        // candidate pool: queried offers + neighbour preferences
        let mut pool: BTreeMap<u64, (Merchandise, f64)> = BTreeMap::new();
        for (m, w) in &data.neighbour_preferences {
            pool.insert(m.id.0, (m.clone(), *w));
        }
        for offer in offers {
            pool.entry(offer.item.id.0)
                .or_insert((offer.item.clone(), 0.0));
        }
        let n_neighbours = data.neighbours.len();
        let mut recs: Vec<RecommendedItem> = pool
            .into_values()
            .map(|(m, collab)| {
                let affinity = {
                    let a = data.profile.affinity(&m.category, &m.terms);
                    a / (1.0 + a)
                };
                let relevance = context.relevance(&m);
                let content = 0.5 * affinity + 0.5 * relevance;
                let score = cw * collab + (1.0 - cw) * content;
                // explanation: name the dominant signal
                let collab_part = cw * collab;
                let affinity_part = (1.0 - cw) * 0.5 * affinity;
                let relevance_part = (1.0 - cw) * 0.5 * relevance;
                let reason = if collab_part >= affinity_part && collab_part >= relevance_part {
                    format!("preferred by {n_neighbours} consumers with similar taste")
                } else if affinity_part >= relevance_part {
                    format!("matches your interest in {}", m.category)
                } else {
                    "matches your search".to_string()
                };
                RecommendedItem {
                    item: m,
                    score,
                    reason,
                }
            })
            .filter(|r| r.score > 0.0)
            .collect();
        recs.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.item.id.cmp(&b.item.id))
        });
        recs.truncate(k);
        recs
    }

    fn record_behavior(
        &self,
        ctx: &mut Ctx<'_>,
        item: &Merchandise,
        kind: BehaviorKind,
        price: Option<ecp::merchandise::Money>,
    ) {
        let record = Message::new(kinds::PA_RECORD)
            .with_payload(&PaRecord {
                consumer: self.consumer,
                item: item.clone(),
                kind,
                price,
                at_us: ctx.now().as_micros(),
            })
            .expect("record serializes");
        ctx.send(self.pa, record);
    }

    fn handle_mba_result(&mut self, ctx: &mut Ctx<'_>, from: Option<AgentId>, result: MbaResult) {
        // match non-destructively: a stale result from a superseded MBA
        // must not wipe whatever state the live attempt is in
        let (task, mba, intent) = match &self.pending {
            Some(Pending::AwaitMba {
                task, mba, intent, ..
            }) => (task.clone(), *mba, *intent),
            _ => {
                ctx.note("bra: unexpected mba result dropped");
                return;
            }
        };
        if from.is_some() && from != Some(mba) {
            // a superseded MBA (already retried or written off) made it
            // home after all; the live attempt's result is the one we want
            ctx.note("bra: stale result from superseded mba ignored");
            return;
        }
        self.pending = None;
        match result {
            MbaResult::Offers { offers, reports } => {
                // record the query behaviour against the top offers
                for offer in offers.iter().take(3) {
                    self.record_behavior(ctx, &offer.item, BehaviorKind::Query, None);
                }
                // partial-result tagging: marketplaces that never answered
                let unreachable: Vec<MarketRef> = reports
                    .iter()
                    .filter(|r| r.status != MarketStatus::Visited)
                    .map(|r| r.market)
                    .collect();
                let degraded = !reports.is_empty()
                    && !reports.iter().any(|r| r.status == MarketStatus::Visited);
                if degraded {
                    ctx.note("bra: no marketplace reachable, degrading to cached-profile cf");
                }
                let similar = Message::new(kinds::PA_SIMILAR)
                    .with_payload(&PaSimilar {
                        consumer: self.consumer,
                        offers: offers.iter().map(|o| o.item.clone()).collect(),
                        k_neighbours: self.k_neighbours,
                    })
                    .expect("similar serializes");
                ctx.send(self.pa, similar);
                self.pending = Some(Pending::AwaitSimilar {
                    task,
                    offers,
                    degraded,
                    unreachable,
                });
            }
            MbaResult::Bought {
                item,
                price,
                negotiated,
                rounds,
            } => {
                ctx.note("fig4.3/step13 bra records transaction and pa updates profile");
                if let Some(intent) = intent {
                    ctx.journal_commit(
                        intent,
                        serde_json::to_value(&BuyConfirm {
                            item: item.clone(),
                            price,
                        })
                        .unwrap_or(serde_json::Value::Null),
                    );
                }
                let kind = if negotiated {
                    BehaviorKind::Negotiate
                } else {
                    BehaviorKind::Purchase
                };
                // negotiation that closed a deal is still a purchase
                self.record_behavior(ctx, &item, BehaviorKind::Purchase, Some(price));
                if negotiated {
                    self.record_behavior(ctx, &item, kind, Some(price));
                }
                ctx.note("fig4.3/step14 bra responds with receipt");
                self.respond(
                    ctx,
                    ResponseBody::Receipt {
                        item,
                        price,
                        channel: if negotiated {
                            format!("negotiated in {rounds} rounds")
                        } else {
                            "direct".into()
                        },
                    },
                );
            }
            MbaResult::BuyFailed { reason, .. } => {
                ctx.note("fig4.3/step13 bra records failed trade");
                if let Some(intent) = intent {
                    // the marketplace definitively rejected/failed the buy,
                    // so the intent resolves to a clean abort
                    ctx.journal_abort(intent, reason.clone());
                }
                ctx.note("fig4.3/step14 bra responds with failure");
                self.respond(ctx, ResponseBody::Error(reason));
            }
            MbaResult::AuctionDone {
                item,
                won,
                price,
                bids,
            } => {
                ctx.note("fig4.3/step13 bra records auction outcome");
                if bids > 0 {
                    self.record_behavior(ctx, &item, BehaviorKind::Bid, None);
                }
                if won {
                    self.record_behavior(ctx, &item, BehaviorKind::AuctionWin, price);
                }
                ctx.note("fig4.3/step14 bra responds with auction result");
                self.respond(ctx, ResponseBody::AuctionResult { item, won, price });
            }
        }
    }
}

impl Agent for BuyerRecommendAgent {
    fn agent_type(&self) -> &'static str {
        BRA_TYPE
    }

    fn snapshot(&self) -> serde_json::Value {
        serde_json::to_value(self).expect("bra state serializes")
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        match msg.kind.as_str() {
            kinds::BRA_TASK => {
                if let Ok(routed) = msg.payload_as::<RoutedTask>() {
                    self.start_task(ctx, routed.task, routed.blocked_markets);
                }
            }
            kinds::PA_PROFILE => {
                let Ok(profile) = msg.payload_as::<PaProfile>() else {
                    return;
                };
                self.profile = Some(profile.profile);
                let task = match &self.pending {
                    Some(Pending::AwaitProfile { task }) => task.clone(),
                    _ => return, // stale profile; keep the live state
                };
                self.pending = None;
                let fig = task.figure();
                let step = if fig == "fig4.2" { "step06" } else { "step05" };
                ctx.note(format!("{fig}/{step} bra received profile"));
                self.dispatch_mba(ctx, task, 0, None);
            }
            kinds::MBA_RESULT => {
                if let Ok(result) = msg.payload_as::<MbaResult>() {
                    self.handle_mba_result(ctx, msg.from, result);
                }
            }
            kinds::PA_SIMILAR_REPLY => {
                let Ok(data) = msg.payload_as::<PaSimilarReply>() else {
                    return;
                };
                let (task, offers, degraded, unreachable) = match &self.pending {
                    Some(Pending::AwaitSimilar {
                        task,
                        offers,
                        degraded,
                        unreachable,
                    }) => (task.clone(), offers.clone(), *degraded, unreachable.clone()),
                    _ => return, // stale similar-reply; keep the live state
                };
                self.pending = None;
                ctx.note(
                    "fig4.2/step14 bra generates recommendation from similar users and offers",
                );
                self.profile = Some(data.profile.clone());
                let max = match &task {
                    ConsumerTask::Query { max_results, .. } => (*max_results).max(5),
                    _ => 5,
                };
                // a degraded reply has no fresh offers to content-rank, so
                // it leans entirely on the neighbours' preferences
                let cw = if degraded {
                    1.0
                } else {
                    self.collaborative_weight
                };
                let recommendations = self.generate_recommendations(&offers, &data, &task, max, cw);
                self.recommendations_made += 1;
                if degraded {
                    ctx.note("fig4.2/step15 bra responds with degraded cf-only recommendations");
                    ctx.count_degraded_reply();
                } else {
                    ctx.note("fig4.2/step15 bra responds with recommendations");
                }
                self.respond(
                    ctx,
                    ResponseBody::Recommendations {
                        offers,
                        recommendations,
                        degraded,
                        unreachable_markets: unreachable,
                    },
                );
            }
            kinds::MBA_LOST => {
                let Ok(lost) = msg.payload_as::<MbaLost>() else {
                    return;
                };
                let (task, mba, attempt, intent) = match &self.pending {
                    Some(Pending::AwaitMba {
                        task,
                        mba,
                        attempt,
                        intent,
                    }) => (task.clone(), *mba, *attempt, *intent),
                    _ => {
                        ctx.note(format!(
                            "bra: loss notice for {} with no task in flight",
                            lost.mba
                        ));
                        return;
                    }
                };
                if lost.mba != mba {
                    ctx.note(format!("bra: stale loss notice for {} ignored", lost.mba));
                    return;
                }
                self.pending = None;
                ctx.note(format!("bra: mba {mba} presumed lost"));
                // A durable buy whose MBA vanished has an unknown outcome:
                // the purchase may or may not have gone through. Ask the
                // marketplace ledger before deciding to retry or abort —
                // never blindly re-run a buy (at-most-once).
                if let (ConsumerTask::Buy { market, .. }, Some(intent)) = (&task, intent) {
                    let market = *market;
                    ctx.note(format!(
                        "bra: purchase intent {intent} in doubt, querying marketplace ledger"
                    ));
                    let query = Message::new(ecpk::kinds::LEDGER_QUERY)
                        .with_payload(&LedgerQuery { intent })
                        .expect("ledger query serializes");
                    ctx.send(market.agent, query);
                    self.pending = Some(Pending::AwaitLedger {
                        task,
                        intent,
                        market,
                        attempt,
                    });
                    return;
                }
                if attempt < self.retry.max_retries {
                    // clamp the retry to the request's remaining deadline
                    // budget: a retry that would land after the reply was
                    // due degrades instead. The loss notice travels
                    // deadline-free, so the budget arrives in its payload.
                    let budget = lost
                        .deadline_us
                        .map(|d| d.saturating_sub(ctx.now().as_micros()))
                        .or_else(|| ctx.remaining_us());
                    match self.retry.delay_within(attempt, budget) {
                        Some(delay) => {
                            ctx.note(format!(
                                "bra: retrying task in {delay}us (attempt {})",
                                attempt + 1
                            ));
                            ctx.count_retry();
                            // the retried dispatch still runs under the
                            // original request deadline
                            if let Some(d) = lost.deadline_us {
                                ctx.set_deadline(SimTime(d));
                            }
                            self.pending = Some(Pending::AwaitRetry {
                                task,
                                attempt: attempt + 1,
                                intent: None,
                            });
                            ctx.set_timer(SimDuration::from_micros(delay), RETRY_TAG);
                            return;
                        }
                        None => {
                            ctx.note("bra: no deadline budget for another dispatch, degrading now");
                        }
                    }
                }
                match &task {
                    ConsumerTask::Query { .. } => {
                        // retries exhausted: degrade to CF-only built from
                        // the cached profile rather than failing the query
                        ctx.note("bra: retries exhausted, degrading to cached-profile cf");
                        let similar = Message::new(kinds::PA_SIMILAR)
                            .with_payload(&PaSimilar {
                                consumer: self.consumer,
                                offers: Vec::new(),
                                k_neighbours: self.k_neighbours,
                            })
                            .expect("similar serializes");
                        ctx.send(self.pa, similar);
                        self.pending = Some(Pending::AwaitSimilar {
                            task,
                            offers: Vec::new(),
                            degraded: true,
                            unreachable: self.markets.clone(),
                        });
                    }
                    _ => {
                        // buys and auctions must not be blindly re-run once
                        // the outcome is unknown; fail them explicitly
                        self.respond(
                            ctx,
                            ResponseBody::Error("mobile buyer agent lost in transit".into()),
                        );
                    }
                }
            }
            ecpk::kinds::LEDGER_REPLY => {
                let Ok(reply) = msg.payload_as::<LedgerReply>() else {
                    return;
                };
                let (task, intent, attempt) = match &self.pending {
                    Some(Pending::AwaitLedger {
                        task,
                        intent,
                        attempt,
                        ..
                    }) => (task.clone(), *intent, *attempt),
                    _ => {
                        ctx.note("bra: stale ledger reply dropped");
                        return;
                    }
                };
                if reply.intent != intent {
                    ctx.note(format!(
                        "bra: ledger reply for foreign intent {}",
                        reply.intent
                    ));
                    return;
                }
                self.pending = None;
                match reply.committed {
                    Some(confirm) => {
                        // the lost MBA did complete the purchase before
                        // vanishing: honour it exactly once from the ledger
                        ctx.note(format!(
                            "bra: intent {intent} committed at marketplace, recovered from ledger"
                        ));
                        ctx.count_ledger_resolution();
                        ctx.journal_commit(
                            intent,
                            serde_json::to_value(&confirm).unwrap_or(serde_json::Value::Null),
                        );
                        self.record_behavior(
                            ctx,
                            &confirm.item,
                            BehaviorKind::Purchase,
                            Some(confirm.price),
                        );
                        self.respond(
                            ctx,
                            ResponseBody::Receipt {
                                item: confirm.item,
                                price: confirm.price,
                                channel: "recovered from marketplace ledger".into(),
                            },
                        );
                    }
                    None => {
                        // never committed: a retry under the same intent is
                        // safe (the ledger will dedupe a late duplicate)
                        if attempt < self.retry.max_retries {
                            let budget = ctx.remaining_us();
                            if let Some(delay) = self.retry.delay_within(attempt, budget) {
                                ctx.note(format!(
                                    "bra: intent {intent} not committed, retrying in {delay}us (attempt {})",
                                    attempt + 1
                                ));
                                ctx.count_retry();
                                self.pending = Some(Pending::AwaitRetry {
                                    task,
                                    attempt: attempt + 1,
                                    intent: Some(intent),
                                });
                                ctx.set_timer(SimDuration::from_micros(delay), RETRY_TAG);
                                return;
                            }
                        }
                        ctx.note(format!("bra: intent {intent} aborted after ledger check"));
                        ctx.journal_abort(
                            intent,
                            "mba lost; marketplace ledger shows no commit and retries exhausted",
                        );
                        self.respond(
                            ctx,
                            ResponseBody::Error(
                                "purchase aborted: buyer agent lost and marketplace ledger shows no commit"
                                    .into(),
                            ),
                        );
                    }
                }
            }
            other => {
                ctx.note(format!("bra: unhandled kind {other}"));
            }
        }
    }

    fn on_rehomed(&mut self, ctx: &mut Ctx<'_>, new_home: HostId) {
        // BRAs keep no host field of their own (peers are agent ids, and
        // MBA placement follows the BSMA's target) — just log the move.
        ctx.note(format!("bra: rehomed to failover host {new_home}"));
    }

    fn on_recovered(&mut self, ctx: &mut Ctx<'_>, _deltas: &[serde_json::Value]) {
        // The host died and came back: the WAL restored our state, but any
        // message already sent to a peer may have produced a reply that
        // died with the host, and armed timers are gone. Re-drive whatever
        // stage the task was in; every peer handler tolerates duplicates.
        match self.pending.clone() {
            Some(Pending::AwaitProfile { task }) => {
                ctx.note("bra: recovered mid profile-load, re-requesting profile");
                let load = Message::new(kinds::PA_LOAD)
                    .with_payload(&PaLoad {
                        consumer: self.consumer,
                        figure: task.figure().to_string(),
                    })
                    .expect("load serializes");
                ctx.send(self.pa, load);
            }
            Some(Pending::AwaitSimilar { offers, .. }) => {
                ctx.note("bra: recovered mid similar-query, re-requesting neighbours");
                let similar = Message::new(kinds::PA_SIMILAR)
                    .with_payload(&PaSimilar {
                        consumer: self.consumer,
                        offers: offers.iter().map(|o| o.item.clone()).collect(),
                        k_neighbours: self.k_neighbours,
                    })
                    .expect("similar serializes");
                ctx.send(self.pa, similar);
            }
            Some(Pending::AwaitRetry { .. }) => {
                // the backoff timer died with the host; re-arm it
                ctx.note("bra: recovered mid retry-backoff, re-arming dispatch timer");
                ctx.set_timer(SimDuration::from_micros(1_000), RETRY_TAG);
            }
            Some(Pending::AwaitLedger { intent, market, .. }) => {
                ctx.note(format!(
                    "bra: recovered mid ledger-query, re-querying intent {intent}"
                ));
                let query = Message::new(ecpk::kinds::LEDGER_QUERY)
                    .with_payload(&LedgerQuery { intent })
                    .expect("ledger query serializes");
                ctx.send(market.agent, query);
            }
            Some(Pending::AwaitMba { task, mba, .. }) => {
                // The MBA is out roaming (or lost). Normally the BSMA's
                // own recovery re-arms the watchdog, but if the crash hit
                // between MBA creation and registration the BSMA never
                // saw this trip — re-register so the watchdog exists.
                // The BSMA dedupes by MBA id, so this is a no-op when the
                // watch survived.
                ctx.note(format!(
                    "bra: recovered with mba {mba} outstanding, re-registering watch"
                ));
                let register = Message::new(kinds::MBA_REGISTER)
                    .with_payload(&MbaRegister {
                        mba,
                        bra: ctx.self_id(),
                        consumer: self.consumer,
                        timeout_us: self.mba_timeout_us,
                        figure: task.figure().to_string(),
                    })
                    .expect("register serializes");
                ctx.send(self.bsma, register);
            }
            None => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag != RETRY_TAG {
            return;
        }
        let Some(Pending::AwaitRetry {
            task,
            attempt,
            intent,
        }) = self.pending.take()
        else {
            return;
        };
        ctx.note(format!("bra: re-dispatching mba (attempt {attempt})"));
        self.dispatch_mba(ctx, task, attempt, intent);
    }

    fn on_disposal(&mut self, ctx: &mut Ctx<'_>) {
        ctx.note(format!("bra for {} terminated at logout", self.consumer));
    }
}

// Integration-style tests for the BRA live in the server module and the
// workspace `tests/` directory, where a full Buyer Agent Server exists;
// unit tests here cover the pure ranking logic.
#[cfg(test)]
mod tests {
    use super::*;
    use ecp::merchandise::{CategoryPath, ItemId, Money};
    use ecp::terms::TermVector;

    fn merch(id: u64, name: &str) -> Merchandise {
        Merchandise {
            id: ItemId(id),
            name: name.into(),
            category: CategoryPath::new("books", "programming"),
            terms: TermVector::from_pairs([(name.to_lowercase(), 1.0)]),
            list_price: Money::from_units(10),
            seller: 1,
        }
    }

    fn bra() -> BuyerRecommendAgent {
        BuyerRecommendAgent::new(ConsumerId(1), AgentId(2), AgentId(3), AgentId(4), vec![])
    }

    fn reply_with(prefs: Vec<(Merchandise, f64)>) -> PaSimilarReply {
        let mut profile = Profile::new();
        profile
            .category_mut("books")
            .sub_mut("programming")
            .set("rustbook1", 1.0);
        PaSimilarReply {
            consumer: ConsumerId(1),
            profile,
            neighbours: vec![(ConsumerId(2), 0.9)],
            neighbour_preferences: prefs,
        }
    }

    #[test]
    fn intent_ids_stay_unique_past_the_16_bit_sequence() {
        // the old `(bra << 16) | (seq & 0xFFFF)` split repeated seq 1's
        // id at seq 65,537, and the ledger deduped that buy as a replay
        for me in [AgentId(7), AgentId((3 << SHARD_ID_SHIFT) | 7)] {
            let mut b = bra();
            let mut seen = std::collections::HashSet::new();
            for seq in 1..=65_540u64 {
                let id = b.mint_intent(me).expect("fits");
                assert!(seen.insert(id), "intent {seq} of {me} repeated id {id:#x}");
            }
            assert_eq!(b.intents_minted, 65_540);
        }
    }

    #[test]
    fn intent_ids_refuse_instead_of_wrapping() {
        let mut b = bra();
        b.intents_minted = (1 << INTENT_SEQ_BITS) - 2;
        assert!(b.mint_intent(AgentId(7)).is_some());
        assert_eq!(b.mint_intent(AgentId(7)), None, "sequence exhausted");
        assert_eq!(b.intents_minted, (1 << INTENT_SEQ_BITS) - 1, "not advanced");
        for too_wide in [1 << 32, 256 << SHARD_ID_SHIFT] {
            let mut fresh = bra();
            assert_eq!(fresh.mint_intent(AgentId(too_wide)), None, "{too_wide:#x}");
            assert_eq!(fresh.intents_minted, 0);
        }
    }

    #[test]
    fn recommendations_prefer_neighbour_endorsed_items() {
        let b = bra();
        let offers = vec![Offer {
            item: merch(1, "rustbook1"),
            marketplace: agentsim::ids::HostId(1),
            price: Money::from_units(10),
        }];
        let data = reply_with(vec![(merch(2, "rustbook2"), 0.9)]);
        let task = ConsumerTask::Query {
            keywords: vec!["rustbook1".into()],
            category: None,
            max_results: 5,
        };
        let recs = b.generate_recommendations(&offers, &data, &task, 5, b.collaborative_weight);
        assert_eq!(recs.len(), 2);
        // neighbour-endorsed item 2 has collab 0.9; offer item 1 has high
        // content relevance. With cw=0.7, item 2 should lead.
        assert_eq!(recs[0].item.id, ItemId(2));
        assert!(recs[0].score > recs[1].score);
        // explanations name the dominant signal
        assert!(
            recs[0].reason.contains("similar taste"),
            "neighbour-driven item must say so: {}",
            recs[0].reason
        );
    }

    #[test]
    fn zero_collaborative_weight_makes_content_dominate() {
        let b = bra().with_collaborative_weight(0.0);
        let offers = vec![Offer {
            item: merch(1, "rustbook1"),
            marketplace: agentsim::ids::HostId(1),
            price: Money::from_units(10),
        }];
        let data = reply_with(vec![(merch(2, "unrelated-thing"), 0.99)]);
        let task = ConsumerTask::Query {
            keywords: vec!["rustbook1".into()],
            category: None,
            max_results: 5,
        };
        let recs = b.generate_recommendations(&offers, &data, &task, 5, b.collaborative_weight);
        assert_eq!(
            recs[0].item.id,
            ItemId(1),
            "pure content ranks the matching offer first"
        );
    }

    #[test]
    fn recommendations_truncate_at_k() {
        let b = bra();
        let data = reply_with(
            (1..=20)
                .map(|i| (merch(i, &format!("rustbook{i}")), 0.5))
                .collect(),
        );
        let task = ConsumerTask::Query {
            keywords: vec![],
            category: None,
            max_results: 20,
        };
        let recs = b.generate_recommendations(&[], &data, &task, 3, b.collaborative_weight);
        assert_eq!(recs.len(), 3);
    }

    #[test]
    fn bra_state_round_trips_serde() {
        let b = bra().with_collaborative_weight(0.4);
        let v = serde_json::to_value(&b).unwrap();
        let back: BuyerRecommendAgent = serde_json::from_value(v).unwrap();
        assert_eq!(back.consumer, ConsumerId(1));
        assert!((back.collaborative_weight - 0.4).abs() < 1e-12);
    }
}
