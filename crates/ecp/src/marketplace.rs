//! The Marketplace agent (MSA).
//!
//! Paper §3.2: *"Marketplace is a place that lets the Mobile Agent of the
//! Buyer and the Mobile Agent of the Seller trade with each other. And
//! provide kinds of trading services such as: information query,
//! negotiations, and auctions."*
//!
//! One [`MarketplaceAgent`] runs per marketplace host. Sellers push
//! listings via [`kinds::CATALOG_SYNC`]; visiting MBAs (or any agent)
//! query, buy, negotiate and bid via the [`crate::protocol`] messages. A
//! per-item sales ledger answers [`kinds::TOP_SELLERS`] — the
//! non-personalized baseline recommender of §2.3 ("top overall sellers on
//! a site") reads it.

use crate::auction::{AuctionOutcome, BidderId, DutchAuction, EnglishAuction, VickreyAuction};
use crate::merchandise::{ItemId, Merchandise};
use crate::negotiation::{SellerPolicy, SellerResponse, SellerSession};
use crate::protocol::{
    kinds, AuctionBid, AuctionClosed, AuctionJoin, AuctionOpen, AuctionStatus, BuyConfirm,
    BuyRequest, CatalogSync, DutchOpen, LedgerQuery, LedgerReply, Listing, NegotiateAccept,
    NegotiateCounter, NegotiateOffer, Offer, QueryRequest, QueryResponse, TopSellers,
    TopSellersList,
};
use agentsim::agent::{Agent, Ctx, DurablePolicy};
use agentsim::clock::SimDuration;
use agentsim::ids::AgentId;
use agentsim::message::Message;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Agent-type tag of [`MarketplaceAgent`].
pub const MARKETPLACE_TYPE: &str = "marketplace";

#[derive(Debug, Serialize, Deserialize)]
struct OpenNegotiation {
    buyer: AgentId,
    item: u64,
    session: SellerSession,
}

/// Either auction engine behind one listing.
#[derive(Debug, Serialize, Deserialize)]
enum AuctionEngine {
    /// Open ascending-price.
    English(EnglishAuction),
    /// Sealed-bid second-price.
    Sealed(VickreyAuction),
    /// Descending-price clock.
    Dutch(DutchAuction),
}

impl AuctionEngine {
    fn minimum_bid(&self) -> crate::merchandise::Money {
        match self {
            AuctionEngine::English(a) => a.minimum_bid(),
            AuctionEngine::Sealed(a) => a.reserve(),
            AuctionEngine::Dutch(a) => a.current_price(),
        }
    }

    fn leading_bid(&self) -> Option<crate::merchandise::Money> {
        match self {
            AuctionEngine::English(a) => a.leader().map(|(_, p)| p),
            AuctionEngine::Sealed(_) => None, // sealed bids stay sealed
            AuctionEngine::Dutch(_) => None,  // nobody is "leading" a clock
        }
    }

    fn is_sealed(&self) -> bool {
        matches!(self, AuctionEngine::Sealed(_))
    }

    fn is_closed(&self) -> bool {
        match self {
            AuctionEngine::English(a) => a.is_closed(),
            AuctionEngine::Sealed(a) => a.is_closed(),
            AuctionEngine::Dutch(a) => a.is_closed(),
        }
    }

    fn place_bid(
        &mut self,
        bidder: BidderId,
        amount: crate::merchandise::Money,
    ) -> Result<(), crate::auction::AuctionError> {
        match self {
            AuctionEngine::English(a) => a.place_bid(bidder, amount),
            AuctionEngine::Sealed(a) => a.place_bid(bidder, amount),
            AuctionEngine::Dutch(a) => a.place_bid(bidder, amount),
        }
    }

    fn close(&mut self) -> AuctionOutcome {
        match self {
            AuctionEngine::English(a) => a.close(),
            AuctionEngine::Sealed(a) => a.close(),
            AuctionEngine::Dutch(a) => a.close(),
        }
    }
}

/// Timer-tag bit distinguishing a Dutch price-drop tick from an auction
/// close deadline (both carry the item id in the low bits).
const DUTCH_TICK_BIT: u64 = 1 << 63;

#[derive(Debug, Serialize, Deserialize)]
struct OpenAuction {
    engine: AuctionEngine,
    joiners: BTreeSet<AgentId>,
    /// Tick interval for Dutch auctions (None otherwise).
    #[serde(default)]
    tick_us: Option<u64>,
}

/// One marketplace mutation. Every state change goes through
/// [`MarketplaceAgent::apply`]: the live handlers call it (journalling the
/// change first when durable) and crash recovery replays the journalled
/// changes through it, so the two paths cannot drift apart. Queries,
/// ledger lookups and rejected requests change nothing and are never
/// journalled.
#[derive(Debug, Serialize, Deserialize)]
enum Change {
    /// Seller listings pushed via [`kinds::CATALOG_SYNC`].
    Catalog(Vec<Listing>),
    /// A direct sale, ledgered under the buyer's intent if it has one.
    Sale(BuyRequest),
    /// One buyer offer in a negotiation.
    Negotiate {
        buyer: AgentId,
        offer: NegotiateOffer,
    },
    /// An English or sealed-bid auction opens.
    Open(AuctionOpen),
    /// A Dutch clock auction opens.
    OpenDutch(DutchOpen),
    /// A bidder joins an auction.
    Join { bidder: AgentId, item: ItemId },
    /// A bid is placed; the bidder joins the auction too.
    Bid { bidder: AgentId, bid: AuctionBid },
    /// A Dutch clock ticks down one step.
    Tick(u64),
    /// An auction closes and settles.
    Settle(u64),
}

/// What applying a [`Change`] produced: the live handler replies from
/// it, recovery ignores it.
enum Applied {
    /// Nothing to report.
    Done,
    /// The seller's answer to a negotiation offer.
    Negotiation(SellerResponse),
    /// Whether a bid was accepted.
    Bid(bool),
    /// Whether a Dutch clock dropped its price (`false`: floored out).
    Ticked(bool),
    /// A settled auction's joiners and outcome.
    Settled(BTreeSet<AgentId>, AuctionOutcome),
}

/// The marketplace service agent. Static; safe to snapshot.
#[derive(Debug, Serialize, Deserialize)]
pub struct MarketplaceAgent {
    name: String,
    listings: BTreeMap<u64, Listing>,
    sales: BTreeMap<u64, u32>,
    negotiations: Vec<OpenNegotiation>,
    auctions: BTreeMap<u64, OpenAuction>,
    /// Intent-keyed purchase ledger: the confirmation recorded for every
    /// sale that carried an intent id. A repeated [`kinds::BUY_REQUEST`]
    /// under a known intent resends the original confirmation instead of
    /// selling twice, and [`kinds::LEDGER_QUERY`] answers from it —
    /// together these give crashed buyers at-most-once purchases.
    #[serde(default)]
    ledger: BTreeMap<u64, BuyConfirm>,
    /// Journal every [`Change`] as a WAL delta instead of having the
    /// platform snapshot the whole catalog per callback.
    #[serde(default)]
    durable: bool,
}

impl MarketplaceAgent {
    /// Create an empty marketplace.
    pub fn new(name: impl Into<String>) -> Self {
        MarketplaceAgent {
            name: name.into(),
            listings: BTreeMap::new(),
            sales: BTreeMap::new(),
            negotiations: Vec::new(),
            auctions: BTreeMap::new(),
            ledger: BTreeMap::new(),
            durable: false,
        }
    }

    /// Journal state changes as durable deltas (replayed on crash
    /// recovery). Only meaningful on a world with durability enabled.
    pub fn with_durability(mut self) -> Self {
        self.durable = true;
        self
    }

    /// The ledger entry recorded for `intent`, if that purchase committed.
    pub fn ledger_entry(&self, intent: u64) -> Option<&BuyConfirm> {
        self.ledger.get(&intent)
    }

    /// Number of live listings.
    pub fn listing_count(&self) -> usize {
        self.listings.len()
    }

    /// Units sold of `item`.
    pub fn units_sold(&self, item: ItemId) -> u32 {
        self.sales.get(&item.0).copied().unwrap_or(0)
    }

    fn record_sale(&mut self, item: u64) {
        *self.sales.entry(item).or_insert(0) += 1;
    }

    /// Apply `change`, journalling it first when durable: the delta
    /// reaches the WAL before any reply it causes leaves.
    fn commit(&mut self, ctx: &mut Ctx<'_>, change: Change) -> Applied {
        if self.durable {
            match serde_json::to_value(&change) {
                Ok(delta) => ctx.journal_delta(delta),
                Err(e) => ctx.note(format!("marketplace: change serialize failed: {e}")),
            }
        }
        self.apply(change)
    }

    /// The one place marketplace state changes (see [`Change`]).
    fn apply(&mut self, change: Change) -> Applied {
        match change {
            Change::Catalog(listings) => {
                for listing in listings {
                    self.listings.insert(listing.item.id.0, listing);
                }
            }
            Change::Sale(req) => {
                if let Some(item) = self.merchandise(req.item).cloned() {
                    self.record_sale(req.item.0);
                    if let Some(intent) = req.intent {
                        let price = item.list_price;
                        self.ledger.insert(intent, BuyConfirm { item, price });
                    }
                }
            }
            Change::Negotiate { buyer, offer } => {
                let Some(listing) = self.listings.get(&offer.item.0) else {
                    return Applied::Done;
                };
                let policy = SellerPolicy {
                    list: listing.item.list_price,
                    reservation: listing.reservation,
                    concession: listing.concession,
                    strategy: Default::default(),
                };
                let item = listing.item.clone();
                let idx = self
                    .negotiations
                    .iter()
                    .position(|n| n.buyer == buyer && n.item == offer.item.0);
                let idx = match idx {
                    Some(i) => i,
                    None => {
                        self.negotiations.push(OpenNegotiation {
                            buyer,
                            item: offer.item.0,
                            session: SellerSession::open(policy),
                        });
                        self.negotiations.len() - 1
                    }
                };
                let response = self.negotiations[idx].session.respond(offer.offer);
                if let SellerResponse::Accept(price) = response {
                    self.negotiations.swap_remove(idx);
                    self.record_sale(offer.item.0);
                    if let Some(intent) = offer.intent {
                        self.ledger.insert(intent, BuyConfirm { item, price });
                    }
                }
                return Applied::Negotiation(response);
            }
            Change::Open(open) => {
                let engine = if open.sealed {
                    AuctionEngine::Sealed(VickreyAuction::open(open.item, open.reserve))
                } else {
                    AuctionEngine::English(EnglishAuction::open(
                        open.item,
                        open.reserve,
                        open.increment,
                    ))
                };
                self.auctions.insert(
                    open.item.0,
                    OpenAuction {
                        engine,
                        joiners: BTreeSet::new(),
                        tick_us: None,
                    },
                );
            }
            Change::OpenDutch(open) => {
                let engine = AuctionEngine::Dutch(DutchAuction::open(
                    open.item,
                    open.start,
                    open.floor,
                    open.decrement,
                ));
                self.auctions.insert(
                    open.item.0,
                    OpenAuction {
                        engine,
                        joiners: BTreeSet::new(),
                        tick_us: Some(open.tick_us),
                    },
                );
            }
            Change::Join { bidder, item } => {
                if let Some(entry) = self.auctions.get_mut(&item.0) {
                    entry.joiners.insert(bidder);
                }
            }
            Change::Bid { bidder, bid } => {
                let Some(entry) = self.auctions.get_mut(&bid.item.0) else {
                    return Applied::Done;
                };
                entry.joiners.insert(bidder);
                let placed = entry.engine.place_bid(BidderId(bidder.0), bid.amount);
                return Applied::Bid(placed.is_ok());
            }
            Change::Tick(item_key) => {
                if let Some(OpenAuction {
                    engine: AuctionEngine::Dutch(dutch),
                    ..
                }) = self.auctions.get_mut(&item_key)
                {
                    return Applied::Ticked(dutch.tick());
                }
            }
            Change::Settle(item_key) => {
                let Some(mut entry) = self.auctions.remove(&item_key) else {
                    return Applied::Done;
                };
                let outcome = entry.engine.close();
                if matches!(outcome, AuctionOutcome::Sold { .. }) {
                    self.record_sale(item_key);
                }
                return Applied::Settled(entry.joiners, outcome);
            }
        }
        Applied::Done
    }

    fn merchandise(&self, item: ItemId) -> Option<&Merchandise> {
        self.listings.get(&item.0).map(|l| &l.item)
    }

    fn answer_query(&self, ctx: &mut Ctx<'_>, msg: &Message, req: QueryRequest) {
        let mut scored: Vec<(&Listing, f64)> = self
            .listings
            .values()
            .filter(|l| {
                req.category
                    .as_ref()
                    .map(|c| &l.item.category == c)
                    .unwrap_or(true)
            })
            .map(|l| (l, l.item.keyword_score(&req.keywords)))
            .filter(|(l, s)| {
                *s > 0.0
                    || (req.keywords.is_empty() && req.category.is_some() && {
                        let _ = l;
                        true
                    })
            })
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.item.id.cmp(&b.0.item.id))
        });
        let offers: Vec<Offer> = scored
            .into_iter()
            .take(req.max_results)
            .map(|(l, _)| Offer {
                item: l.item.clone(),
                marketplace: ctx.host(),
                price: l.item.list_price,
            })
            .collect();
        let reply = Message::new(kinds::QUERY_RESPONSE)
            .with_payload(&QueryResponse { offers })
            .expect("query response serializes");
        ctx.reply(msg, reply);
    }

    fn handle_buy(&mut self, ctx: &mut Ctx<'_>, msg: &Message, req: BuyRequest) {
        // A retried buy under an already-committed intent must not sell
        // twice: resend the recorded confirmation instead.
        if let Some(confirm) = req.intent.and_then(|i| self.ledger.get(&i)).cloned() {
            ctx.note(format!(
                "marketplace {}: duplicate buy for intent {} answered from ledger",
                self.name,
                req.intent.unwrap_or(0)
            ));
            let reply = Message::new(kinds::BUY_CONFIRM)
                .with_payload(&confirm)
                .expect("buy confirm serializes");
            ctx.reply(msg, reply);
            return;
        }
        match self.merchandise(req.item).cloned() {
            Some(item) => {
                self.commit(ctx, Change::Sale(req));
                let price = item.list_price;
                let confirm = BuyConfirm { item, price };
                let reply = Message::new(kinds::BUY_CONFIRM)
                    .with_payload(&confirm)
                    .expect("buy confirm serializes");
                ctx.reply(msg, reply);
            }
            None => {
                ctx.reply(msg, Message::new(kinds::BUY_REJECT));
            }
        }
    }

    fn handle_ledger_query(&self, ctx: &mut Ctx<'_>, msg: &Message, query: LedgerQuery) {
        let reply = Message::new(kinds::LEDGER_REPLY)
            .with_payload(&LedgerReply {
                intent: query.intent,
                committed: self.ledger.get(&query.intent).cloned(),
            })
            .expect("ledger reply serializes");
        ctx.reply(msg, reply);
    }

    fn handle_negotiate(&mut self, ctx: &mut Ctx<'_>, msg: &Message, offer: NegotiateOffer) {
        let Some(buyer) = msg.from else {
            ctx.note("marketplace: negotiation from outside the world ignored");
            return;
        };
        if !self.listings.contains_key(&offer.item.0) {
            ctx.reply(msg, Message::new(kinds::NEGOTIATE_REJECT));
            return;
        }
        let Applied::Negotiation(response) = self.commit(ctx, Change::Negotiate { buyer, offer })
        else {
            return;
        };
        match response {
            SellerResponse::Accept(price) => {
                let item = self
                    .merchandise(offer.item)
                    .cloned()
                    .expect("listing checked above");
                let reply = Message::new(kinds::NEGOTIATE_ACCEPT)
                    .with_payload(&NegotiateAccept { item, price })
                    .expect("accept serializes");
                ctx.reply(msg, reply);
            }
            SellerResponse::Counter(ask) => {
                let reply = Message::new(kinds::NEGOTIATE_COUNTER)
                    .with_payload(&NegotiateCounter {
                        item: offer.item,
                        ask,
                    })
                    .expect("counter serializes");
                ctx.reply(msg, reply);
            }
        }
    }

    fn auction_status(&self, item: ItemId) -> Option<AuctionStatus> {
        self.auctions.get(&item.0).map(|a| AuctionStatus {
            item,
            minimum_bid: a.engine.minimum_bid(),
            leading_bid: a.engine.leading_bid(),
            open: !a.engine.is_closed(),
            sealed: a.engine.is_sealed(),
        })
    }

    fn handle_auction_open(&mut self, ctx: &mut Ctx<'_>, msg: &Message, open: AuctionOpen) {
        if self.merchandise(open.item).is_none() {
            ctx.reply(msg, Message::new(kinds::BID_REJECTED));
            return;
        }
        if self.auctions.contains_key(&open.item.0) {
            // one auction per item at a time
            if let Some(status) = self.auction_status(open.item) {
                let reply = Message::new(kinds::AUCTION_STATUS)
                    .with_payload(&status)
                    .expect("status serializes");
                ctx.reply(msg, reply);
            }
            return;
        }
        self.commit(ctx, Change::Open(open));
        ctx.set_timer(SimDuration::from_micros(open.duration_us), open.item.0);
        ctx.note(format!(
            "auction opened on {} ({})",
            open.item,
            if open.sealed { "sealed" } else { "english" }
        ));
        if let Some(status) = self.auction_status(open.item) {
            let reply = Message::new(kinds::AUCTION_STATUS)
                .with_payload(&status)
                .expect("status serializes");
            ctx.reply(msg, reply);
        }
    }

    fn handle_dutch_open(&mut self, ctx: &mut Ctx<'_>, msg: &Message, open: DutchOpen) {
        if self.merchandise(open.item).is_none() || self.auctions.contains_key(&open.item.0) {
            ctx.reply(msg, Message::new(kinds::BID_REJECTED));
            return;
        }
        self.commit(ctx, Change::OpenDutch(open));
        ctx.set_timer(
            SimDuration::from_micros(open.tick_us),
            open.item.0 | DUTCH_TICK_BIT,
        );
        ctx.note(format!("auction opened on {} (dutch)", open.item));
        if let Some(status) = self.auction_status(open.item) {
            let reply = Message::new(kinds::AUCTION_STATUS)
                .with_payload(&status)
                .expect("status serializes");
            ctx.reply(msg, reply);
        }
    }

    /// One Dutch clock tick: drop the price and tell the joiners, or
    /// settle unsold at the floor.
    fn dutch_tick(&mut self, ctx: &mut Ctx<'_>, item_key: u64) {
        // absent: sold (and settled) before this tick fired
        let ticking = matches!(
            self.auctions.get(&item_key),
            Some(OpenAuction { engine: AuctionEngine::Dutch(dutch), .. }) if !dutch.is_closed()
        );
        if !ticking {
            return;
        }
        if let Applied::Ticked(true) = self.commit(ctx, Change::Tick(item_key)) {
            let entry = &self.auctions[&item_key];
            let tick_us = entry.tick_us.unwrap_or(1_000_000);
            let joiners: Vec<AgentId> = entry.joiners.iter().copied().collect();
            let status = self.auction_status(ItemId(item_key)).expect("entry exists");
            for joiner in joiners {
                let notice = Message::new(kinds::AUCTION_STATUS)
                    .with_payload(&status)
                    .expect("status serializes");
                ctx.send(joiner, notice);
            }
            ctx.set_timer(SimDuration::from_micros(tick_us), item_key | DUTCH_TICK_BIT);
        } else {
            // floored out: settle unsold
            self.settle_auction(ctx, item_key);
        }
    }

    fn handle_auction_join(&mut self, ctx: &mut Ctx<'_>, msg: &Message, join: AuctionJoin) {
        let Some(from) = msg.from else {
            return;
        };
        if !self.auctions.contains_key(&join.item.0) {
            ctx.reply(msg, Message::new(kinds::BID_REJECTED));
            return;
        }
        self.commit(
            ctx,
            Change::Join {
                bidder: from,
                item: join.item,
            },
        );
        let status = self.auction_status(join.item).expect("entry exists");
        let reply = Message::new(kinds::AUCTION_STATUS)
            .with_payload(&status)
            .expect("status serializes");
        ctx.reply(msg, reply);
    }

    fn handle_auction_bid(&mut self, ctx: &mut Ctx<'_>, msg: &Message, bid: AuctionBid) {
        let Some(from) = msg.from else {
            return;
        };
        if !self.auctions.contains_key(&bid.item.0) {
            ctx.reply(msg, Message::new(kinds::BID_REJECTED));
            return;
        }
        let accepted = matches!(
            self.commit(ctx, Change::Bid { bidder: from, bid }),
            Applied::Bid(true)
        );
        let status = self.auction_status(bid.item).expect("entry exists");
        if !accepted {
            let reply = Message::new(kinds::BID_REJECTED)
                .with_payload(&status)
                .expect("status serializes");
            ctx.reply(msg, reply);
            return;
        }
        let entry = &self.auctions[&bid.item.0];
        let sealed = entry.engine.is_sealed();
        let joiners: Vec<AgentId> = entry.joiners.iter().copied().collect();
        let settled_by_bid = entry.engine.is_closed(); // Dutch: first taker wins
        let reply = Message::new(kinds::BID_ACCEPTED)
            .with_payload(&status)
            .expect("status serializes");
        ctx.reply(msg, reply);
        if settled_by_bid {
            self.settle_auction(ctx, bid.item.0);
            return;
        }
        // outbid notification (open auctions only — sealed bids are
        // secret): every other joiner learns the new price floor and may
        // counter-bid
        if !sealed {
            for joiner in joiners {
                if joiner != from {
                    let notice = Message::new(kinds::AUCTION_STATUS)
                        .with_payload(&status)
                        .expect("status serializes");
                    ctx.send(joiner, notice);
                }
            }
        }
    }

    fn settle_auction(&mut self, ctx: &mut Ctx<'_>, item_key: u64) {
        if !self.auctions.contains_key(&item_key) {
            return;
        }
        let Applied::Settled(joiners, outcome) = self.commit(ctx, Change::Settle(item_key)) else {
            return;
        };
        let Some(item) = self.merchandise(ItemId(item_key)).cloned() else {
            return;
        };
        ctx.note(format!("auction closed on {}", ItemId(item_key)));
        for joiner in &joiners {
            let you_won = matches!(
                outcome,
                AuctionOutcome::Sold { winner, .. } if winner == BidderId(joiner.0)
            );
            let notice = Message::new(kinds::AUCTION_CLOSED)
                .with_payload(&AuctionClosed {
                    item: item.clone(),
                    outcome,
                    you_won,
                })
                .expect("closed notice serializes");
            ctx.send(*joiner, notice);
        }
    }

    fn handle_top_sellers(&self, ctx: &mut Ctx<'_>, msg: &Message, req: TopSellers) {
        let mut ranked: Vec<(&Listing, u32)> = self
            .sales
            .iter()
            .filter_map(|(item, n)| self.listings.get(item).map(|l| (l, *n)))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.item.id.cmp(&b.0.item.id)));
        let items: Vec<(Merchandise, u32)> = ranked
            .into_iter()
            .take(req.k)
            .map(|(l, n)| (l.item.clone(), n))
            .collect();
        let reply = Message::new(kinds::TOP_SELLERS_LIST)
            .with_payload(&TopSellersList { items })
            .expect("top sellers serializes");
        ctx.reply(msg, reply);
    }
}

impl Agent for MarketplaceAgent {
    fn agent_type(&self) -> &'static str {
        MARKETPLACE_TYPE
    }

    fn snapshot(&self) -> serde_json::Value {
        serde_json::to_value(self).expect("marketplace state serializes")
    }

    fn durable_policy(&self) -> DurablePolicy {
        if self.durable {
            DurablePolicy::Deltas
        } else {
            DurablePolicy::Capsule
        }
    }

    fn on_recovered(&mut self, ctx: &mut Ctx<'_>, deltas: &[serde_json::Value]) {
        // apply, not commit: the WAL already holds these changes
        let mut replayed = 0usize;
        for delta in deltas {
            match <Change as serde::Deserialize>::deserialize_value(delta) {
                Ok(change) => {
                    self.apply(change);
                    replayed += 1;
                }
                Err(e) => ctx.note(format!(
                    "marketplace {}: unreadable journalled change skipped: {e}",
                    self.name
                )),
            }
        }
        if replayed > 0 {
            ctx.note(format!(
                "marketplace {}: recovered, replayed {replayed} journalled changes",
                self.name
            ));
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        match msg.kind.as_str() {
            kinds::CATALOG_SYNC => {
                if let Ok(sync) = msg.payload_as::<CatalogSync>() {
                    self.commit(ctx, Change::Catalog(sync.listings));
                    ctx.reply(&msg, Message::new(kinds::CATALOG_ACK));
                }
            }
            kinds::QUERY_REQUEST => {
                if let Ok(req) = msg.payload_as::<QueryRequest>() {
                    self.answer_query(ctx, &msg, req);
                }
            }
            kinds::BUY_REQUEST => {
                if let Ok(req) = msg.payload_as::<BuyRequest>() {
                    self.handle_buy(ctx, &msg, req);
                }
            }
            kinds::NEGOTIATE_OFFER => {
                if let Ok(offer) = msg.payload_as::<NegotiateOffer>() {
                    self.handle_negotiate(ctx, &msg, offer);
                }
            }
            kinds::AUCTION_OPEN => {
                if let Ok(open) = msg.payload_as::<AuctionOpen>() {
                    self.handle_auction_open(ctx, &msg, open);
                }
            }
            kinds::DUTCH_OPEN => {
                if let Ok(open) = msg.payload_as::<DutchOpen>() {
                    self.handle_dutch_open(ctx, &msg, open);
                }
            }
            kinds::AUCTION_JOIN => {
                if let Ok(join) = msg.payload_as::<AuctionJoin>() {
                    self.handle_auction_join(ctx, &msg, join);
                }
            }
            kinds::AUCTION_BID => {
                if let Ok(bid) = msg.payload_as::<AuctionBid>() {
                    self.handle_auction_bid(ctx, &msg, bid);
                }
            }
            kinds::TOP_SELLERS => {
                if let Ok(req) = msg.payload_as::<TopSellers>() {
                    self.handle_top_sellers(ctx, &msg, req);
                }
            }
            kinds::LEDGER_QUERY => {
                if let Ok(query) = msg.payload_as::<LedgerQuery>() {
                    self.handle_ledger_query(ctx, &msg, query);
                }
            }
            other => {
                ctx.note(format!("marketplace {}: unhandled kind {other}", self.name));
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag & DUTCH_TICK_BIT != 0 {
            self.dutch_tick(ctx, tag & !DUTCH_TICK_BIT);
        } else {
            self.settle_auction(ctx, tag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merchandise::{CategoryPath, Money};
    use crate::terms::TermVector;
    use agentsim::sim::SimWorld;

    fn listing(id: u64, name: &str, price: u64) -> Listing {
        Listing {
            item: Merchandise {
                id: ItemId(id),
                name: name.into(),
                category: CategoryPath::new("books", "programming"),
                terms: TermVector::from_pairs([(name.to_lowercase(), 1.0)]),
                list_price: Money::from_units(price),
                seller: 1,
            },
            reservation: Money::from_units(price * 7 / 10),
            concession: 0.1,
        }
    }

    /// Test probe: records the last reply it received.
    #[derive(Debug, Default, Serialize, Deserialize)]
    struct Probe {
        last_kind: Option<String>,
        last_payload: Option<serde_json::Value>,
        kinds_seen: Vec<String>,
    }

    impl Agent for Probe {
        fn agent_type(&self) -> &'static str {
            "probe"
        }
        fn snapshot(&self) -> serde_json::Value {
            serde_json::to_value(self).unwrap()
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if let Some(fwd) = msg.payload.get("__forward_to_market") {
                // instruction: send inner message to the marketplace
                let market = AgentId(fwd.as_u64().unwrap());
                let kind = msg.payload["kind"].as_str().unwrap().to_string();
                let inner = Message::new(kind).carrying(msg.payload.project("payload"));
                ctx.send(market, inner);
                return;
            }
            self.last_kind = Some(msg.kind.to_string());
            self.kinds_seen.push(msg.kind.to_string());
            self.last_payload = Some(msg.payload.to_value());
        }
    }

    struct Fixture {
        world: SimWorld,
        market: AgentId,
        market_host: agentsim::ids::HostId,
        probe: AgentId,
    }

    fn fixture() -> Fixture {
        fixture_with(None)
    }

    fn fixture_with(durability: Option<agentsim::durable::DurabilityConfig>) -> Fixture {
        let mut world = SimWorld::new(77);
        if let Some(cfg) = durability {
            world.enable_durability(cfg);
        }
        world
            .registry_mut()
            .register_serde::<MarketplaceAgent>(MARKETPLACE_TYPE);
        world.registry_mut().register_serde::<Probe>("probe");
        let mh = world.add_host("market");
        let bh = world.add_host("buyer");
        let mut m = MarketplaceAgent::new("m1");
        for (i, (name, price)) in [("Rust Book", 30u64), ("Go Book", 25), ("Cook Book", 20)]
            .iter()
            .enumerate()
        {
            m.listings
                .insert(i as u64 + 1, listing(i as u64 + 1, name, *price));
        }
        if durability.is_some() {
            m = m.with_durability();
        }
        let market = world.create_agent(mh, Box::new(m)).unwrap();
        let probe = world.create_agent(bh, Box::new(Probe::default())).unwrap();
        Fixture {
            world,
            market,
            market_host: mh,
            probe,
        }
    }

    /// Sends `kind`+`payload` from the probe to the market and runs idle.
    fn via_probe<T: Serialize>(f: &mut Fixture, kind: &str, payload: &T) {
        send_via_probe(f, kind, payload);
        f.world.run_until_idle();
    }

    /// Sends without draining the event queue (so pending timers, e.g. an
    /// auction deadline, do not fire); runs a bounded slice of time.
    fn via_probe_bounded<T: Serialize>(f: &mut Fixture, kind: &str, payload: &T) {
        send_via_probe(f, kind, payload);
        f.world
            .run_for(agentsim::clock::SimDuration::from_millis(10));
    }

    fn send_via_probe<T: Serialize>(f: &mut Fixture, kind: &str, payload: &T) {
        let instruction = serde_json::json!({
            "__forward_to_market": f.market.0,
            "kind": kind,
            "payload": serde_json::to_value(payload).unwrap(),
        });
        let mut msg = Message::new("instruction");
        msg.payload = instruction.into();
        f.world.send_external(f.probe, msg).unwrap();
    }

    fn probe_state(f: &Fixture) -> Probe {
        serde_json::from_value(f.world.snapshot_of(f.probe).unwrap()).unwrap()
    }

    #[test]
    fn query_returns_ranked_offers() {
        let mut f = fixture();
        via_probe(
            &mut f,
            kinds::QUERY_REQUEST,
            &QueryRequest {
                keywords: vec!["book".into()],
                category: None,
                max_results: 10,
            },
        );
        let p = probe_state(&f);
        assert_eq!(p.last_kind.as_deref(), Some(kinds::QUERY_RESPONSE));
        let resp: QueryResponse = serde_json::from_value(p.last_payload.unwrap()).unwrap();
        assert_eq!(resp.offers.len(), 3);
    }

    #[test]
    fn query_respects_category_and_limit() {
        let mut f = fixture();
        via_probe(
            &mut f,
            kinds::QUERY_REQUEST,
            &QueryRequest {
                keywords: vec!["book".into()],
                category: Some(CategoryPath::new("books", "programming")),
                max_results: 1,
            },
        );
        let p = probe_state(&f);
        let resp: QueryResponse = serde_json::from_value(p.last_payload.unwrap()).unwrap();
        assert_eq!(resp.offers.len(), 1);
    }

    #[test]
    fn buy_confirms_and_counts_sale() {
        let mut f = fixture();
        via_probe(
            &mut f,
            kinds::BUY_REQUEST,
            &BuyRequest {
                item: ItemId(1),
                intent: None,
            },
        );
        let p = probe_state(&f);
        assert_eq!(p.last_kind.as_deref(), Some(kinds::BUY_CONFIRM));
        let market: MarketplaceAgent =
            serde_json::from_value(f.world.snapshot_of(f.market).unwrap()).unwrap();
        assert_eq!(market.units_sold(ItemId(1)), 1);
    }

    #[test]
    fn buy_unknown_item_rejected() {
        let mut f = fixture();
        via_probe(
            &mut f,
            kinds::BUY_REQUEST,
            &BuyRequest {
                item: ItemId(999),
                intent: None,
            },
        );
        assert_eq!(
            probe_state(&f).last_kind.as_deref(),
            Some(kinds::BUY_REJECT)
        );
    }

    #[test]
    fn negotiation_low_offer_gets_counter_high_offer_accepted() {
        let mut f = fixture();
        via_probe(
            &mut f,
            kinds::NEGOTIATE_OFFER,
            &NegotiateOffer {
                item: ItemId(1),
                offer: Money::from_units(1),
                intent: None,
            },
        );
        assert_eq!(
            probe_state(&f).last_kind.as_deref(),
            Some(kinds::NEGOTIATE_COUNTER)
        );
        via_probe(
            &mut f,
            kinds::NEGOTIATE_OFFER,
            &NegotiateOffer {
                item: ItemId(1),
                offer: Money::from_units(30),
                intent: None,
            },
        );
        let p = probe_state(&f);
        assert_eq!(p.last_kind.as_deref(), Some(kinds::NEGOTIATE_ACCEPT));
        let accept: NegotiateAccept = serde_json::from_value(p.last_payload.unwrap()).unwrap();
        assert!(accept.price <= Money::from_units(30));
    }

    #[test]
    fn negotiation_unknown_item_rejected() {
        let mut f = fixture();
        via_probe(
            &mut f,
            kinds::NEGOTIATE_OFFER,
            &NegotiateOffer {
                item: ItemId(42),
                offer: Money::from_units(10),
                intent: None,
            },
        );
        assert_eq!(
            probe_state(&f).last_kind.as_deref(),
            Some(kinds::NEGOTIATE_REJECT)
        );
    }

    #[test]
    fn auction_full_cycle_with_winner_notification() {
        let mut f = fixture();
        via_probe_bounded(
            &mut f,
            kinds::AUCTION_OPEN,
            &AuctionOpen {
                item: ItemId(2),
                reserve: Money::from_units(10),
                increment: Money::from_units(1),
                duration_us: 1_000_000,
                sealed: false,
            },
        );
        assert_eq!(
            probe_state(&f).last_kind.as_deref(),
            Some(kinds::AUCTION_STATUS)
        );
        via_probe_bounded(
            &mut f,
            kinds::AUCTION_BID,
            &AuctionBid {
                item: ItemId(2),
                amount: Money::from_units(12),
            },
        );
        assert_eq!(
            probe_state(&f).last_kind.as_deref(),
            Some(kinds::BID_ACCEPTED)
        );
        // low bid rejected
        via_probe_bounded(
            &mut f,
            kinds::AUCTION_BID,
            &AuctionBid {
                item: ItemId(2),
                amount: Money::from_units(5),
            },
        );
        assert_eq!(
            probe_state(&f).last_kind.as_deref(),
            Some(kinds::BID_REJECTED)
        );
        // run past the deadline: timer fires, auction settles
        f.world.run_until_idle();
        let p = probe_state(&f);
        assert_eq!(p.last_kind.as_deref(), Some(kinds::AUCTION_CLOSED));
        let closed: AuctionClosed = serde_json::from_value(p.last_payload.unwrap()).unwrap();
        assert!(closed.you_won);
        assert_eq!(closed.outcome.price(), Some(Money::from_units(12)));
        let market: MarketplaceAgent =
            serde_json::from_value(f.world.snapshot_of(f.market).unwrap()).unwrap();
        assert_eq!(market.units_sold(ItemId(2)), 1);
    }

    #[test]
    fn sealed_auction_hides_bids_and_settles_second_price() {
        let mut f = fixture();
        via_probe_bounded(
            &mut f,
            kinds::AUCTION_OPEN,
            &AuctionOpen {
                item: ItemId(2),
                reserve: Money::from_units(10),
                increment: Money::from_units(0),
                duration_us: 1_000_000,
                sealed: true,
            },
        );
        let p = probe_state(&f);
        assert_eq!(p.last_kind.as_deref(), Some(kinds::AUCTION_STATUS));
        let status: AuctionStatus = serde_json::from_value(p.last_payload.unwrap()).unwrap();
        assert!(status.sealed);
        assert_eq!(status.leading_bid, None);
        // the probe seals a bid; status must still hide it
        via_probe_bounded(
            &mut f,
            kinds::AUCTION_BID,
            &AuctionBid {
                item: ItemId(2),
                amount: Money::from_units(40),
            },
        );
        let p = probe_state(&f);
        assert_eq!(p.last_kind.as_deref(), Some(kinds::BID_ACCEPTED));
        let status: AuctionStatus = serde_json::from_value(p.last_payload.unwrap()).unwrap();
        assert_eq!(status.leading_bid, None, "sealed bids must stay sealed");
        // duplicate sealed bid rejected
        via_probe_bounded(
            &mut f,
            kinds::AUCTION_BID,
            &AuctionBid {
                item: ItemId(2),
                amount: Money::from_units(50),
            },
        );
        assert_eq!(
            probe_state(&f).last_kind.as_deref(),
            Some(kinds::BID_REJECTED)
        );
        // sole sealed bidder wins at the reserve
        f.world.run_until_idle();
        let p = probe_state(&f);
        assert_eq!(p.last_kind.as_deref(), Some(kinds::AUCTION_CLOSED));
        let closed: AuctionClosed = serde_json::from_value(p.last_payload.unwrap()).unwrap();
        assert!(closed.you_won);
        assert_eq!(closed.outcome.price(), Some(Money::from_units(10)));
    }

    #[test]
    fn dutch_auction_ticks_down_and_floors_out_unsold() {
        let mut f = fixture();
        via_probe_bounded(
            &mut f,
            kinds::DUTCH_OPEN,
            &DutchOpen {
                item: ItemId(1),
                start: Money::from_units(20),
                floor: Money::from_units(10),
                decrement: Money::from_units(5),
                tick_us: 1_000_000,
            },
        );
        let p = probe_state(&f);
        assert_eq!(p.last_kind.as_deref(), Some(kinds::AUCTION_STATUS));
        let status: AuctionStatus = serde_json::from_value(p.last_payload.unwrap()).unwrap();
        assert_eq!(status.minimum_bid, Money::from_units(20));
        // join so we hear the price drops and the close
        via_probe_bounded(
            &mut f,
            kinds::AUCTION_JOIN,
            &AuctionJoin { item: ItemId(1) },
        );
        // a Dutch clock closes at the floor on its own, so running idle
        // is safe
        f.world.run_until_idle();
        let p = probe_state(&f);
        assert_eq!(p.last_kind.as_deref(), Some(kinds::AUCTION_CLOSED));
        let drops = p
            .kinds_seen
            .iter()
            .filter(|k| *k == kinds::AUCTION_STATUS)
            .count();
        assert!(
            drops >= 2,
            "price-drop broadcasts must have arrived: {drops}"
        );
        let closed: AuctionClosed = serde_json::from_value(p.last_payload.unwrap()).unwrap();
        assert_eq!(
            closed.outcome.price(),
            None,
            "nobody bid: unsold at the floor"
        );
    }

    #[test]
    fn dutch_auction_first_bid_settles_immediately() {
        let mut f = fixture();
        via_probe_bounded(
            &mut f,
            kinds::DUTCH_OPEN,
            &DutchOpen {
                item: ItemId(1),
                start: Money::from_units(20),
                floor: Money::from_units(10),
                decrement: Money::from_units(5),
                tick_us: 60_000_000, // slow clock: stays at $20
            },
        );
        via_probe_bounded(
            &mut f,
            kinds::AUCTION_BID,
            &AuctionBid {
                item: ItemId(1),
                amount: Money::from_units(25),
            },
        );
        let p = probe_state(&f);
        // accepted, then immediately closed at the clock price
        assert!(p.kinds_seen.contains(&kinds::BID_ACCEPTED.to_string()));
        assert_eq!(p.last_kind.as_deref(), Some(kinds::AUCTION_CLOSED));
        let closed: AuctionClosed = serde_json::from_value(p.last_payload.unwrap()).unwrap();
        assert!(closed.you_won);
        assert_eq!(
            closed.outcome.price(),
            Some(Money::from_units(20)),
            "winner pays the clock price, not the bid"
        );
        let market: MarketplaceAgent =
            serde_json::from_value(f.world.snapshot_of(f.market).unwrap()).unwrap();
        assert_eq!(market.units_sold(ItemId(1)), 1);
    }

    #[test]
    fn top_sellers_ranks_by_units() {
        let mut f = fixture();
        for _ in 0..3 {
            via_probe(
                &mut f,
                kinds::BUY_REQUEST,
                &BuyRequest {
                    item: ItemId(2),
                    intent: None,
                },
            );
        }
        via_probe(
            &mut f,
            kinds::BUY_REQUEST,
            &BuyRequest {
                item: ItemId(1),
                intent: None,
            },
        );
        via_probe(&mut f, kinds::TOP_SELLERS, &TopSellers { k: 2 });
        let p = probe_state(&f);
        assert_eq!(p.last_kind.as_deref(), Some(kinds::TOP_SELLERS_LIST));
        let list: TopSellersList = serde_json::from_value(p.last_payload.unwrap()).unwrap();
        assert_eq!(list.items.len(), 2);
        assert_eq!(list.items[0].0.id, ItemId(2));
        assert_eq!(list.items[0].1, 3);
    }

    /// Every kind of change a durable marketplace journals, replayed over
    /// its baseline capsule after a crash, rebuilds exactly the live
    /// state — and the host journals that baseline once, not a capsule per
    /// callback.
    #[test]
    fn durable_marketplace_replays_its_changes_to_the_live_state() {
        let mut f = fixture_with(Some(agentsim::durable::DurabilityConfig {
            checkpoint_every: 0,
            sync_every: 1,
        }));
        via_probe(
            &mut f,
            kinds::CATALOG_SYNC,
            &CatalogSync {
                seller: 1,
                listings: vec![listing(4, "Zig Book", 40)],
            },
        );
        via_probe(
            &mut f,
            kinds::BUY_REQUEST,
            &BuyRequest {
                item: ItemId(1),
                intent: Some(77),
            },
        );
        via_probe(
            &mut f,
            kinds::NEGOTIATE_OFFER,
            &NegotiateOffer {
                item: ItemId(2),
                offer: Money::from_units(5),
                intent: None,
            },
        );
        assert_eq!(
            probe_state(&f).last_kind.as_deref(),
            Some(kinds::NEGOTIATE_COUNTER)
        );
        via_probe_bounded(
            &mut f,
            kinds::AUCTION_OPEN,
            &AuctionOpen {
                item: ItemId(3),
                reserve: Money::from_units(10),
                increment: Money::from_units(1),
                duration_us: 60_000_000,
                sealed: false,
            },
        );
        via_probe_bounded(
            &mut f,
            kinds::AUCTION_BID,
            &AuctionBid {
                item: ItemId(3),
                amount: Money::from_units(12),
            },
        );
        via_probe_bounded(
            &mut f,
            kinds::DUTCH_OPEN,
            &DutchOpen {
                item: ItemId(4),
                start: Money::from_units(40),
                floor: Money::from_units(10),
                decrement: Money::from_units(5),
                tick_us: 4_000,
            },
        );
        via_probe_bounded(
            &mut f,
            kinds::AUCTION_JOIN,
            &AuctionJoin { item: ItemId(4) },
        );
        let live = f.world.snapshot_of(f.market).unwrap();
        let store = f.world.durable_store(f.market_host).unwrap();
        let wal = simdb::wal::Wal::decode(&store.wal_bytes()).unwrap();
        let capsules = wal
            .records()
            .iter()
            .filter(|r| matches!(r, simdb::wal::LogRecord::Capsule { .. }))
            .count();
        assert_eq!(capsules, 1, "only the baseline capsule is journalled");
        let deltas = store.state().deltas_for(f.market.0).len();
        assert!(deltas >= 8, "every change journals a delta: {deltas}");

        f.world.crash_host(f.market_host).unwrap();
        f.world.restart_host(f.market_host).unwrap();
        assert_eq!(f.world.snapshot_of(f.market).unwrap(), live);
        assert_eq!(f.world.metrics().profile_deltas_replayed, deltas as u64);
        let market: MarketplaceAgent = serde_json::from_value(live).unwrap();
        assert_eq!(market.units_sold(ItemId(1)), 1);
        assert!(market.ledger_entry(77).is_some());
    }
}
