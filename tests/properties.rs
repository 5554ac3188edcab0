//! Property-based tests over the core data structures and protocol
//! invariants (proptest).

use abcrm::core::learning::{BehaviorEvent, BehaviorKind, LearnerConfig, ProfileLearner};
use abcrm::core::profile::{ConsumerId, Profile};
use abcrm::core::ratings::RatingsMatrix;
use abcrm::core::similarity::{profile_similarity, SimilarityConfig};
use abcrm::ecp::auction::{BidderId, EnglishAuction, VickreyAuction};
use abcrm::ecp::merchandise::{CategoryPath, ItemId, Money};
use abcrm::ecp::negotiation::{negotiate, BuyerPolicy, Outcome, SellerPolicy};
use abcrm::ecp::terms::TermVector;
use abcrm::simdb::{JsonStore, Wal};
use proptest::prelude::*;

fn term_vector_strategy() -> impl Strategy<Value = TermVector> {
    proptest::collection::vec(("[a-f]{1,4}", 0.01f64..10.0), 0..8).prop_map(TermVector::from_pairs)
}

fn profile_strategy() -> impl Strategy<Value = Profile> {
    proptest::collection::vec(("[a-c]{1}", "[x-z]{1}", "[a-f]{1,4}", 0.01f64..5.0), 0..10).prop_map(
        |entries| {
            let mut p = Profile::new();
            for (cat, sub, term, w) in entries {
                p.category_mut(&cat).sub_mut(&sub).add(term, w);
            }
            p
        },
    )
}

proptest! {
    #[test]
    fn cosine_is_bounded_and_symmetric(a in term_vector_strategy(), b in term_vector_strategy()) {
        let ab = a.cosine(&b);
        let ba = b.cosine(&a);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&ab));
        prop_assert!((ab - ba).abs() < 1e-9);
        // self-similarity is 1 for non-empty vectors
        if !a.is_empty() {
            prop_assert!((a.cosine(&a) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn term_vector_weights_never_negative(
        ops in proptest::collection::vec(("[a-d]{1,2}", -5.0f64..5.0), 0..30)
    ) {
        let mut v = TermVector::new();
        for (t, delta) in ops {
            v.add(t, delta);
        }
        for (_, w) in v.iter() {
            prop_assert!(w > 0.0, "stored weights are strictly positive: {w}");
        }
    }

    #[test]
    fn profile_similarity_bounded_symmetric(a in profile_strategy(), b in profile_strategy()) {
        let cfg = SimilarityConfig::default();
        let ab = profile_similarity(&a, &b, &cfg);
        let ba = profile_similarity(&b, &a, &cfg);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&ab));
        prop_assert!((ab - ba).abs() < 1e-9);
    }

    #[test]
    fn learner_never_creates_unbounded_profiles(
        events in proptest::collection::vec(
            ("[a-c]{1}", "[x-z]{1}", proptest::collection::vec(("[a-f]{1,3}", 0.01f64..3.0), 1..5)),
            0..40,
        ),
        alpha in 0.01f64..1.0,
    ) {
        let learner = ProfileLearner::new(LearnerConfig { alpha, max_terms: 16, ..LearnerConfig::default() });
        let mut profile = Profile::new();
        for (cat, sub, terms) in events {
            let event = BehaviorEvent::new(
                BehaviorKind::Purchase,
                CategoryPath::new(cat, sub),
                TermVector::from_pairs(terms),
            );
            learner.apply(&mut profile, &event);
        }
        for (_, cp) in profile.iter() {
            prop_assert!(cp.terms.len() <= 16);
            for (_, sub) in cp.subs.iter() {
                prop_assert!(sub.len() <= 16);
            }
        }
        prop_assert!(profile.total_interest().is_finite());
    }

    #[test]
    fn negotiation_deals_respect_both_parties(
        list in 10u64..500,
        reservation_frac in 0.1f64..1.0,
        budget in 1u64..600,
        opening in 0.1f64..1.0,
        raise in 0.01f64..0.5,
        concession in 0.01f64..0.5,
    ) {
        let seller = SellerPolicy {
            list: Money::from_units(list),
            reservation: Money::from_units(list).scale(reservation_frac),
            concession,
            strategy: Default::default(),
        };
        let buyer = BuyerPolicy {
            budget: Money::from_units(budget),
            opening_fraction: opening,
            raise,
            max_rounds: 30,
        };
        match negotiate(seller, buyer) {
            Outcome::Deal { price, rounds } => {
                prop_assert!(price >= seller.reservation, "deal below reservation: {price}");
                prop_assert!(price <= buyer.budget, "deal above budget: {price}");
                prop_assert!(price <= seller.list, "deal above list: {price}");
                prop_assert!((1..=30).contains(&rounds));
            }
            Outcome::NoDeal { rounds } => {
                prop_assert!(rounds <= 30);
            }
        }
    }

    #[test]
    fn english_auction_winner_paid_a_valid_bid(
        reserve in 1u64..100,
        increment in 1u64..10,
        bids in proptest::collection::vec((1u64..20, 1u64..500), 0..30),
    ) {
        let mut auction = EnglishAuction::open(
            ItemId(1),
            Money::from_units(reserve),
            Money::from_units(increment),
        );
        let mut highest_accepted: Option<Money> = None;
        for (bidder, amount) in bids {
            let amount = Money::from_units(amount);
            if auction.place_bid(BidderId(bidder), amount).is_ok() {
                if let Some(prev) = highest_accepted {
                    prop_assert!(amount >= prev + Money::from_units(increment));
                }
                highest_accepted = Some(amount);
            }
        }
        match auction.close() {
            abcrm::ecp::auction::AuctionOutcome::Sold { price, .. } => {
                prop_assert_eq!(Some(price), highest_accepted);
                prop_assert!(price >= Money::from_units(reserve));
            }
            abcrm::ecp::auction::AuctionOutcome::Unsold => {
                prop_assert!(highest_accepted.is_none());
            }
        }
    }

    #[test]
    fn vickrey_price_never_exceeds_winning_bid(
        reserve in 1u64..100,
        bids in proptest::collection::vec((1u64..50, 1u64..500), 0..20),
    ) {
        let mut auction = VickreyAuction::open(ItemId(1), Money::from_units(reserve));
        let mut accepted: Vec<(BidderId, Money)> = Vec::new();
        for (bidder, amount) in bids {
            let amount = Money::from_units(amount);
            if auction.place_bid(BidderId(bidder), amount).is_ok() {
                accepted.push((BidderId(bidder), amount));
            }
        }
        match auction.close() {
            abcrm::ecp::auction::AuctionOutcome::Sold { winner, price } => {
                let winning_bid = accepted
                    .iter()
                    .find(|(b, _)| *b == winner)
                    .map(|(_, a)| *a)
                    .expect("winner placed a bid");
                let max_bid = accepted.iter().map(|(_, a)| *a).max().unwrap();
                prop_assert_eq!(winning_bid, max_bid, "highest bidder wins");
                prop_assert!(price <= winning_bid, "second-price never above the winning bid");
                prop_assert!(price >= Money::from_units(reserve));
            }
            abcrm::ecp::auction::AuctionOutcome::Unsold => {
                prop_assert!(accepted.is_empty());
            }
        }
    }

    #[test]
    fn ratings_observe_is_monotone_and_bounded(
        observations in proptest::collection::vec((1u64..10, 1u64..10, -1.0f64..2.0), 0..50)
    ) {
        let mut m = RatingsMatrix::new();
        for (user, item, rating) in observations {
            let before = m.rating(ConsumerId(user), ItemId(item));
            m.observe(ConsumerId(user), ItemId(item), rating);
            let after = m.rating(ConsumerId(user), ItemId(item)).unwrap();
            prop_assert!((0.0..=1.0).contains(&after));
            if let Some(b) = before {
                prop_assert!(after >= b, "ratings keep the strongest signal");
            }
        }
        prop_assert!((0.0..=1.0).contains(&m.sparsity()));
    }

    #[test]
    fn wal_encode_decode_round_trips(
        records in proptest::collection::vec(
            ("[a-z]{1,6}", "[a-z0-9]{1,8}", 0i64..1000),
            0..30,
        )
    ) {
        let mut wal = Wal::new();
        for (table, key, value) in &records {
            wal.append(abcrm::simdb::LogRecord::Put {
                table: table.clone(),
                key: key.clone(),
                value: serde_json::json!(value),
            });
        }
        let decoded = Wal::decode(&wal.encode()).unwrap();
        prop_assert_eq!(decoded, wal);
    }

    #[test]
    fn store_recovery_equals_live_state(
        ops in proptest::collection::vec(
            (0usize..3, "[a-c]{1}", "[a-d]{1,3}", 0i64..100),
            0..40,
        )
    ) {
        let mut live = JsonStore::new("t");
        for (op, table, key, value) in &ops {
            live.create_table(table).unwrap();
            match op {
                0 | 1 => live.put(table, key, serde_json::json!(value)).unwrap(),
                _ => {
                    let _ = live.delete(table, key).unwrap();
                }
            }
        }
        let recovered = JsonStore::recover("t", b"", &live.wal_bytes()).unwrap();
        for table in live.table_names() {
            let live_rows: Vec<_> = live.scan(table).unwrap().collect();
            let rec_rows: Vec<_> = recovered.scan(table).unwrap().collect();
            prop_assert_eq!(live_rows, rec_rows);
        }
    }

    #[test]
    fn money_scale_is_monotone_and_bounded(cents in 0u64..1_000_000, f in 0.0f64..4.0) {
        let m = Money(cents);
        let scaled = m.scale(f);
        if f <= 1.0 {
            prop_assert!(scaled <= m + Money(1)); // rounding slack
        }
        prop_assert!(scaled.cents() < u64::MAX);
    }

    #[test]
    fn payload_encoded_len_matches_serialization(tokens in proptest::collection::vec(0u64..u64::MAX, 1..48)) {
        let value = arbitrary_json(&tokens);
        let payload = Payload::from(value.clone());
        let text = serde_json::to_string(&value).unwrap();
        // the cached length is exact, stable, and consistent with the
        // materialized encoding
        prop_assert_eq!(payload.encoded_len(), text.len());
        prop_assert_eq!(payload.encoded_len(), text.len());
        prop_assert_eq!(&payload.encoded()[..], text.as_bytes());
        prop_assert_eq!(payload.encoded_len(), text.len());
    }

    #[test]
    fn capsule_wire_size_is_stable_and_matches_encoding(
        tokens in proptest::collection::vec(0u64..u64::MAX, 1..48),
        agent_type in "[a-z-]{1,12}",
    ) {
        let state = arbitrary_json(&tokens);
        let encoded = serde_json::to_string(&state).unwrap();
        let capsule = AgentCapsule {
            id: AgentId(1),
            agent_type: agent_type.as_str().into(),
            state: state.into(),
            home: HostId(0),
            permit: None,
            trace: None,
            deadline: None,
        };
        // wire_size no longer re-serializes: repeated calls agree with
        // each other and with encoded length + header
        let first = capsule.wire_size();
        prop_assert_eq!(first, 64 + agent_type.len() + encoded.len());
        for _ in 0..3 {
            prop_assert_eq!(capsule.wire_size(), first);
        }
        // clones share the cached encoding and report the same size
        let copy = capsule.state.clone();
        prop_assert_eq!(copy.encoded_len(), capsule.state.encoded_len());
        prop_assert_eq!(copy.encoded_len(), encoded.len());
    }
}

use abcrm::agentsim::agent::AgentCapsule;
use abcrm::agentsim::ids::{AgentId, HostId};
use abcrm::agentsim::payload::Payload;

// --- fault-model properties -------------------------------------------

proptest! {
    /// The retry schedule is a pure function of the attempt number:
    /// deterministic, monotone non-decreasing, and capped.
    #[test]
    fn backoff_is_deterministic_monotone_and_capped(
        base in 0u64..10_000_000,
        cap in 0u64..20_000_000,
        retries in 0u32..10,
        attempts in 0u32..80,
    ) {
        let policy = abcrm::core::BackoffPolicy::new(base, cap, retries);
        let twin = abcrm::core::BackoffPolicy::new(base, cap, retries);
        let mut prev = 0u64;
        for attempt in 0..attempts {
            let delay = policy.delay_us(attempt);
            prop_assert_eq!(delay, twin.delay_us(attempt), "deterministic");
            prop_assert!(delay <= cap, "capped: {delay} > {cap}");
            prop_assert!(delay >= prev, "monotone: {delay} < {prev} at attempt {attempt}");
            prev = delay;
        }
        // the round-tripped policy replays the same schedule
        let back: abcrm::core::BackoffPolicy =
            serde_json::from_str(&serde_json::to_string(&policy).unwrap()).unwrap();
        prop_assert_eq!(back.delay_us(attempts), policy.delay_us(attempts));
    }

    /// `LinkSpec::lossy` always stores a probability: any input — NaN,
    /// infinities, negatives, huge values — clamps into `[0, 1]`.
    #[test]
    fn link_loss_always_clamps_to_unit_interval(raw in -1.0e12f64..1.0e12, scale in 0.0f64..4.0) {
        for input in [
            raw,
            raw * scale,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            -1.0,
            2.0,
            f64::MIN_POSITIVE,
        ] {
            let spec = abcrm::agentsim::net::LinkSpec::lan().lossy(input);
            prop_assert!(
                (0.0..=1.0).contains(&spec.loss),
                "loss {} escaped [0,1] for input {input}", spec.loss
            );
        }
    }
}

// --- overload-protection properties -----------------------------------

proptest! {
    /// The circuit breaker is a deterministic FSM: identical event
    /// sequences produce identical states (and a serde round trip mid-run
    /// changes nothing); an Open breaker refuses dispatch until its
    /// cooldown elapses; a failure never closes the circuit.
    #[test]
    fn breaker_fsm_is_deterministic_and_open_refuses(
        window in 1usize..12,
        min_samples in 1usize..8,
        cooldown_us in 1u64..10_000,
        ops in proptest::collection::vec((0u8..3, 0u64..5_000), 1..60),
    ) {
        use abcrm::core::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
        let config = BreakerConfig {
            window,
            failure_threshold: 0.5,
            min_samples,
            cooldown_us,
        };
        let mut breaker = CircuitBreaker::new(config);
        let mut twin = CircuitBreaker::new(config);
        let mut now = 0u64;
        for (op, dt) in ops {
            now += dt;
            match op {
                0 => {
                    let before = breaker.state();
                    let allowed = breaker.allow(now);
                    prop_assert_eq!(allowed, twin.allow(now), "deterministic allow");
                    if before == BreakerState::Open && dt < cooldown_us && allowed {
                        // an Open breaker may only admit once a full
                        // cooldown has passed since it opened; dt alone
                        // can't prove that, but an instant re-allow after
                        // opening must fail
                        prop_assert!(now >= cooldown_us, "open breaker admitted too early");
                    }
                }
                1 => {
                    breaker.record_success(now);
                    twin.record_success(now);
                }
                _ => {
                    let before = breaker.state();
                    breaker.record_failure(now);
                    twin.record_failure(now);
                    prop_assert!(
                        !(before != BreakerState::Closed
                            && breaker.state() == BreakerState::Closed),
                        "a failure never closes the circuit"
                    );
                }
            }
            prop_assert_eq!(breaker.state(), twin.state(), "twin states agree");
            // serde round trip preserves the whole FSM
            let back: CircuitBreaker =
                serde_json::from_str(&serde_json::to_string(&breaker).unwrap()).unwrap();
            prop_assert_eq!(&back, &breaker);
        }
    }

    /// Deadline arithmetic never panics, never goes negative, and the
    /// expiry predicate is exactly `now > deadline` (a zero-latency hop
    /// at the deadline instant still delivers).
    #[test]
    fn deadline_arithmetic_saturates_and_expiry_is_strict(
        deadline in 0u64..u64::MAX,
        now in 0u64..u64::MAX,
    ) {
        use abcrm::agentsim::clock::SimTime;
        use abcrm::agentsim::overload::{deadline_expired, remaining_us};
        prop_assert_eq!(remaining_us(None, SimTime(now)), None);
        prop_assert!(!deadline_expired(None, SimTime(now)));
        let d = Some(SimTime(deadline));
        let rem = remaining_us(d, SimTime(now)).expect("a set deadline always yields a budget");
        prop_assert_eq!(rem, deadline.saturating_sub(now), "saturating, never negative");
        prop_assert_eq!(deadline_expired(d, SimTime(now)), now > deadline, "strictly past");
        if deadline_expired(d, SimTime(now)) {
            prop_assert_eq!(rem, 0, "an expired deadline has no budget left");
        }
    }

    /// A deadline-clamped retry never outlives the remaining budget: the
    /// schedule either fits strictly inside it or refuses outright.
    #[test]
    fn clamped_retries_fit_inside_the_budget(
        base in 0u64..1_000_000,
        cap in 0u64..2_000_000,
        attempt in 0u32..70,
        bounded in 0u8..2,
        budget in 0u64..2_000_000,
    ) {
        let remaining = (bounded == 1).then_some(budget);
        let policy = abcrm::core::BackoffPolicy::new(base, cap, 3);
        match policy.delay_within(attempt, remaining) {
            Some(delay) => {
                prop_assert_eq!(delay, policy.delay_us(attempt), "clamping never stretches");
                if let Some(rem) = remaining {
                    prop_assert!(delay < rem, "a scheduled retry lands before the reply is due");
                }
            }
            None => {
                let rem = remaining.expect("only a finite budget can refuse");
                prop_assert!(policy.delay_us(attempt) >= rem, "refusal only when it cannot fit");
            }
        }
    }
}

// --- query-tier properties (ANN index, incremental maintenance) -------

proptest! {
    /// The incremental index maintenance path (Fig 4.5 learning applied
    /// as a [`ProfileDelta`], folded in with `apply_delta`) is
    /// indistinguishable from rebuilding the whole index, no matter how
    /// feedback events, wholesale profile replacements and removals
    /// interleave: same consumers, same flat vectors (exact `==`), same
    /// norm *bits*, same posting-list answers.
    #[test]
    fn incremental_index_matches_rebuild_after_interleavings(
        ops in proptest::collection::vec(
            (
                1u64..6,
                0u8..8,
                "[a-c]{1}",
                "[x-z]{1}",
                proptest::collection::vec(("[a-f]{1,3}", 0.01f64..3.0), 1..5),
            ),
            1..40,
        ),
        decay in 0.8f64..1.0,
    ) {
        use abcrm::core::index::ProfileIndex;
        use std::collections::BTreeMap;

        let learner = ProfileLearner::new(LearnerConfig {
            decay,
            max_terms: 8,
            ..LearnerConfig::default()
        });
        let mut mirror: BTreeMap<u64, Profile> = BTreeMap::new();
        let mut index = ProfileIndex::new();
        for (id, op, cat, sub, terms) in ops {
            match op {
                // rare: the consumer is forgotten outright
                0 => {
                    mirror.remove(&id);
                    index.remove(id);
                }
                // occasional wholesale replacement (profile import)
                1 => {
                    let mut p = Profile::new();
                    for (t, w) in &terms {
                        p.category_mut(&cat).sub_mut(&sub).add(t.clone(), *w);
                    }
                    index.update(id, &p);
                    mirror.insert(id, p);
                }
                // the common case: one feedback event through the
                // incremental O(changed terms) path
                _ => {
                    let profile = mirror.entry(id).or_default();
                    let event = BehaviorEvent::new(
                        BehaviorKind::Purchase,
                        CategoryPath::new(cat, sub),
                        TermVector::from_pairs(terms),
                    );
                    let delta = learner.apply_indexed(profile, &event);
                    index.apply_delta(id, &delta);
                }
            }
        }
        let rebuilt = ProfileIndex::rebuild(mirror.iter().map(|(id, p)| (*id, p)));
        prop_assert_eq!(index.len(), rebuilt.len(), "consumer count drifted");
        prop_assert_eq!(index.term_count(), rebuilt.term_count(), "posting lists drifted");
        for (id, fresh) in rebuilt.flats() {
            let live = index.flat(id).expect("incrementally maintained entry exists");
            prop_assert_eq!(&live.vector, &fresh.vector, "flat vector drifted for {}", id);
            prop_assert_eq!(
                live.norm.to_bits(),
                fresh.norm.to_bits(),
                "cached norm drifted for {}", id
            );
            prop_assert_eq!(
                index.candidates(&fresh.vector),
                rebuilt.candidates(&fresh.vector),
                "candidate pruning drifted for {}", id
            );
        }
    }

    /// The ANN path never *invents* neighbours: with arbitrary LSH
    /// parameters, every `(consumer, score)` it returns also appears in
    /// the exact scan with the same score; repeated queries are
    /// deterministic. And with structurally exhaustive parameters (one
    /// table, one bit, one probe — the probe flips the only bit, so the
    /// two buckets together cover every consumer) recall@k is exactly
    /// 1.0 under tie-tolerant matching.
    #[test]
    fn ann_neighbours_subset_of_exact_and_exhaustive_probing_has_full_recall(
        events in proptest::collection::vec((1u64..12, 0u64..6), 1..60),
        bits in 1u8..5,
        tables in 1u8..4,
        probes in 0u8..3,
        seed in 0u64..1_000,
    ) {
        use abcrm::core::store::RecommendStore;
        use abcrm::core::AnnConfig;
        use abcrm::ecp::merchandise::{Merchandise, Money};
        use std::collections::HashMap;

        const CATS: [(&str, &str); 3] =
            [("books", "programming"), ("music", "jazz"), ("garden", "tools")];
        let mut store = RecommendStore::new();
        for id in 1..=6u64 {
            let (cat, sub) = CATS[(id % 3) as usize];
            store.upsert_item(Merchandise {
                id: ItemId(id),
                name: format!("item{id}"),
                category: CategoryPath::new(cat, sub),
                terms: TermVector::from_pairs([
                    (format!("item{id}"), 1.0),
                    (sub.to_string(), 0.4),
                ]),
                list_price: Money::from_units(10 + id),
                seller: 1,
            });
        }
        for &(user, item) in &events {
            store.record_event(
                ConsumerId(user),
                ItemId(1 + item),
                BehaviorKind::Purchase,
            );
        }

        let exact_cfg = SimilarityConfig::default();
        let ann_cfg = SimilarityConfig {
            ann: Some(AnnConfig { bits, tables, probes, seed }),
            ..SimilarityConfig::default()
        };
        // one bit, one table, one probe: the probe flips the only bit,
        // so candidates = both buckets = every consumer
        let exhaustive_cfg = SimilarityConfig {
            ann: Some(AnnConfig { bits: 1, tables: 1, probes: 1, seed }),
            ..SimilarityConfig::default()
        };
        for user in 1..12u64 {
            let consumer = ConsumerId(user);
            let exact_all = store.nearest_neighbours(consumer, &exact_cfg, 1_000);
            let exact: HashMap<u64, f64> =
                exact_all.iter().map(|(c, s)| (c.0, *s)).collect();

            let approx = store.nearest_neighbours(consumer, &ann_cfg, 1_000);
            prop_assert_eq!(
                &approx,
                &store.nearest_neighbours(consumer, &ann_cfg, 1_000),
                "ANN query is not deterministic for {}", user
            );
            for (c, s) in &approx {
                let reference = exact.get(&c.0);
                prop_assert!(
                    reference.is_some(),
                    "ANN invented neighbour {} (score {}) absent from the exact scan", c, s
                );
                prop_assert_eq!(
                    reference.unwrap().to_bits(),
                    s.to_bits(),
                    "ANN score {} for {} disagrees with exact {}", s, c, reference.unwrap()
                );
            }

            // tie-tolerant recall@10: every exact top-10 neighbour is
            // either returned by id or substituted by an equal-score tie
            let k = 10;
            let exact_top = store.nearest_neighbours(consumer, &exact_cfg, k);
            let ann_top = store.nearest_neighbours(consumer, &exhaustive_cfg, k);
            for (c, s) in &exact_top {
                prop_assert!(
                    ann_top.iter().any(|(ac, asc)| ac == c || (asc - s).abs() < 1e-9),
                    "exhaustive probing missed {} (score {}) for {}", c, s, user
                );
            }
        }
    }
}

proptest! {
    /// Durable purchase-intent ids from distinct `(BRA, sequence)`
    /// pairs never collide, on any shard; parts too wide for the id are
    /// refused rather than wrapped.
    #[test]
    fn intent_ids_never_collide_across_bras_and_sequences(
        a in (0u64..300, 0u64..1 << 33, 0u64..1 << 25),
        b in (0u64..300, 0u64..1 << 33, 0u64..1 << 25),
        near_wrap in 0u64..70_000,
    ) {
        use abcrm::agentsim::ids::{AgentId, SHARD_ID_SHIFT};
        use abcrm::core::agents::bra::intent_id;
        let bra = |(shard, local, _): (u64, u64, u64)| AgentId((shard << SHARD_ID_SHIFT) | local);
        let fits = |(shard, local, seq): (u64, u64, u64)| shard < 256 && local < 1 << 32 && seq < 1 << 24;
        // sequence numbers either side of the old 16-bit wrap
        let c = (a.0 % 256, a.1 & 0xFFFF_FFFF, near_wrap);
        let d = (c.0, c.1, near_wrap + 65_536);
        let pairs = [
            (a, b),
            (c, d),
            (a, (a.0, a.1, a.2 ^ 1)),
            (a, (a.0, a.1 ^ 1, a.2)),
            (a, (a.0 ^ 1, a.1, a.2)),
        ];
        for (x, y) in pairs {
            let (ix, iy) = (intent_id(bra(x), x.2), intent_id(bra(y), y.2));
            prop_assert_eq!(ix.is_some(), fits(x));
            prop_assert_eq!(iy.is_some(), fits(y));
            if let (Some(ix), Some(iy)) = (ix, iy) {
                prop_assert_eq!(ix == iy, x == y, "{:?} and {:?} share id {:#x}", x, y, ix);
            }
        }
    }
}

/// Terms of the summation-order property, and the magnitudes their
/// weights are drawn at: sums of products near 1e16, 1 and 1e-16 round
/// differently in different orders.
const ORDER_TERMS: [&str; 10] = [
    "apple", "bolt", "cedar", "dune", "ember", "fjord", "grove", "harp", "iris", "jade",
];
const ORDER_MAGNITUDES: [f64; 3] = [1e8, 1.0, 1e-8];

/// A profile over [`ORDER_TERMS`] from `(term, magnitude, mantissa,
/// sub-category)` draws.
fn order_profile(terms: &[(usize, usize, f64, usize)]) -> Profile {
    let mut p = Profile::new();
    for (t, m, w, sub) in terms {
        p.category_mut("c")
            .sub_mut(&format!("s{sub}"))
            .set(ORDER_TERMS[*t], ORDER_MAGNITUDES[*m] * w);
    }
    p
}

/// Every measure the summation-order property checks, with and without
/// the discard rule, plus the negative-floor full scan.
fn order_configs() -> Vec<SimilarityConfig> {
    use abcrm::core::similarity::SimilarityMethod;
    let mut configs = Vec::new();
    for method in [
        SimilarityMethod::Cosine,
        SimilarityMethod::Pearson,
        SimilarityMethod::Jaccard,
    ] {
        for discard_threshold in [Some(4.0), None] {
            configs.push(SimilarityConfig {
                method,
                discard_threshold,
                ..SimilarityConfig::default()
            });
        }
    }
    configs.push(SimilarityConfig {
        method: SimilarityMethod::Pearson,
        discard_threshold: None,
        neighbour_floor: -1.5,
        ..SimilarityConfig::default()
    });
    configs
}

proptest! {
    /// The indexed neighbour search sums each pair's shared terms in
    /// term-string order, the order of the reference scan — so its
    /// scores equal `nearest_neighbours_naive`'s bit for bit even when
    /// term ids were interned in non-lexicographic order and the
    /// weights mix magnitudes whose f64 sum depends on order. Checked
    /// after `put_profile`/`record_event` churn and again after
    /// `decay_all_profiles` (which re-interns every term). A kernel
    /// that summed in term-id order fails this.
    #[test]
    fn indexed_neighbours_sum_in_term_order_whatever_the_interning_order(
        puts in proptest::collection::vec(
            (
                1u64..8,
                proptest::collection::vec((0usize..10, 0usize..3, 1.0f64..2.0, 0usize..2), 1..8),
            ),
            1..14,
        ),
        events in proptest::collection::vec((1u64..8, 1u64..5, 0u8..3), 0..20),
        decay in 0.3f64..0.99,
    ) {
        use abcrm::core::store::RecommendStore;
        use abcrm::ecp::merchandise::{Merchandise, Money};

        let mut store = RecommendStore::new();
        // first sight interns a term: show them in reverse lexicographic
        // order so term-id order is the opposite of term-string order
        for t in (0..ORDER_TERMS.len()).rev() {
            store.put_profile(ConsumerId(99), order_profile(&[(t, 1, 1.0, 0)]));
        }
        for id in 1..=4u64 {
            let t = (id as usize * 3) % ORDER_TERMS.len();
            store.upsert_item(Merchandise {
                id: ItemId(id),
                name: format!("item{id}"),
                category: CategoryPath::new("c", format!("s{}", id % 2)),
                terms: TermVector::from_pairs([
                    (ORDER_TERMS[t], 1e8 * (1.0 + id as f64 / 7.0)),
                    (ORDER_TERMS[(t + 1) % ORDER_TERMS.len()], 1.0 + id as f64 / 3.0),
                    (ORDER_TERMS[(t + 5) % ORDER_TERMS.len()], 1e-8 * id as f64),
                ]),
                list_price: Money::from_units(10),
                seller: 1,
            });
        }
        let kinds = [BehaviorKind::Browse, BehaviorKind::Query, BehaviorKind::Purchase];
        for (consumer, terms) in &puts {
            store.put_profile(ConsumerId(*consumer), order_profile(terms));
        }
        for (consumer, item, kind) in &events {
            store.record_event(ConsumerId(*consumer), ItemId(*item), kinds[*kind as usize]);
        }
        let bits = |nn: Vec<(ConsumerId, f64)>| -> Vec<(u64, u64)> {
            nn.into_iter().map(|(c, s)| (c.0, s.to_bits())).collect()
        };
        for round in ["after churn", "after decay"] {
            for cfg in order_configs() {
                for consumer in (1..8u64).chain([99]) {
                    let c = ConsumerId(consumer);
                    prop_assert_eq!(
                        bits(store.nearest_neighbours(c, &cfg, 100)),
                        bits(store.nearest_neighbours_naive(c, &cfg, 100)),
                        "{} {:?}: consumer {}", round, cfg.method, consumer
                    );
                }
            }
            store.decay_all_profiles(decay);
        }
    }
}

/// Message duplication and bounded reordering are *masked* faults: the
/// dedupe layer and per-pair FIFO clamp mean an idempotent query returns
/// byte-identical recommendations with and without them. (Each case runs
/// two full platforms, so this is a hand-rolled sweep rather than a
/// 128-case `proptest!` block.)
mod dup_reorder_idempotence {
    use abcrm::agentsim::chaos::ChaosPlan;
    use abcrm::core::agents::msg::ResponseBody;
    use abcrm::core::profile::ConsumerId;
    use abcrm::core::server::{listing, Platform};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn platform(seed: u64) -> Platform {
        Platform::builder(seed)
            .marketplaces(vec![
                vec![
                    listing(1, "Rust Book", "books", "programming", 30, &[("rust", 1.0)]),
                    listing(2, "Go Book", "books", "programming", 25, &[("go", 1.0)]),
                ],
                vec![listing(
                    11,
                    "Systems Programming",
                    "books",
                    "programming",
                    40,
                    &[("rust", 0.8)],
                )],
            ])
            .mba_timeout_us(2_000_000)
            .build()
    }

    fn query_bytes(p: &mut Platform) -> Vec<String> {
        p.login(ConsumerId(1));
        p.query(ConsumerId(1), &["rust"], 5)
            .iter()
            .map(|r| {
                assert!(
                    matches!(
                        r,
                        ResponseBody::Recommendations {
                            degraded: false,
                            ..
                        }
                    ),
                    "dup/reorder alone must not degrade a reply: {r:?}"
                );
                serde_json::to_string(r).unwrap()
            })
            .collect()
    }

    #[test]
    fn dup_and_reorder_never_change_recommendation_bytes() {
        let mut params = StdRng::seed_from_u64(0xd0_0b1e);
        for case in 0..12u64 {
            let seed = params.gen_range(0u64..10_000);
            let dup = params.gen_range(0.0..1.0);
            let reorder = params.gen_range(0.0..1.0);
            let jitter = params.gen_range(1u64..5_000);
            let clean = query_bytes(&mut platform(seed));
            let mut mangled_world = platform(seed);
            // dup/reorder knobs only — no loss, no partitions, no crashes
            mangled_world.install_chaos(&ChaosPlan {
                seed,
                dup_probability: dup,
                reorder_probability: reorder,
                max_jitter_us: jitter,
                events: Vec::new(),
            });
            let mangled = query_bytes(&mut mangled_world);
            assert_eq!(
                clean, mangled,
                "case {case}: seed={seed} dup={dup} reorder={reorder} jitter={jitter}us \
                 changed the reply bytes"
            );
        }
    }
}

/// Deterministic arbitrary JSON tree from a token stream: each token picks
/// a node shape (scalars, strings with escapes, arrays, objects), so the
/// generated values cover every encoder arm without needing a recursive
/// strategy.
fn arbitrary_json(tokens: &[u64]) -> serde_json::Value {
    fn build(tokens: &mut std::slice::Iter<'_, u64>, depth: u32) -> serde_json::Value {
        let Some(&t) = tokens.next() else {
            return serde_json::Value::Null;
        };
        match t % if depth == 0 { 7 } else { 9 } {
            0 => serde_json::json!(null),
            1 => serde_json::json!(t % 2 == 0),
            2 => serde_json::json!(t),
            3 => serde_json::json!(-((t % 1_000_000) as i64)),
            4 => serde_json::json!((t as f64) / 7.0 - 1e15),
            5 => serde_json::json!((t % 1000) as f64),
            6 => {
                // strings exercising escapes, control chars and unicode
                let palette = ['a', '"', '\\', '\n', '\t', '\u{01}', 'ü', '✓'];
                let s: String = (0..t % 12)
                    .map(|i| palette[((t >> (i % 8)) % 8) as usize])
                    .collect();
                serde_json::json!(s)
            }
            7 => serde_json::Value::Array((0..t % 4).map(|_| build(tokens, depth - 1)).collect()),
            _ => {
                let mut map = serde_json::Map::new();
                for i in 0..t % 4 {
                    map.insert(format!("k{i}"), build(tokens, depth - 1));
                }
                serde_json::Value::Object(map)
            }
        }
    }
    build(&mut tokens.iter(), 3)
}

// --- durability / WAL replay properties -------------------------------

use abcrm::agentsim::agent::DurablePolicy;
use abcrm::agentsim::durable::{Boundary, DurabilityConfig, DurableStore, IntentState};
use abcrm::simdb::wal::LogRecord;

/// One durability op per tuple: `(kind, agent, intent, value)`.
fn durable_ops_strategy() -> impl Strategy<Value = Vec<(u8, u64, u64, i64)>> {
    proptest::collection::vec((0u8..8, 0u64..6, 0u64..24, 0i64..1000), 1..60)
}

fn apply_durable_op(store: &mut DurableStore, op: (u8, u64, u64, i64)) {
    let (kind, agent, intent, value) = op;
    let v = serde_json::json!({ "v": value });
    match kind {
        0 | 1 => store.put_capsule(agent, v, value % 2 == 0).unwrap(),
        2 => store.remove_capsule(agent).unwrap(),
        3 => store.log_intent(intent, v).unwrap(),
        4 => store.log_commit(intent, v).unwrap(),
        5 => store.log_abort(intent, format!("abort {value}")).unwrap(),
        6 => store.log_delta(agent, v).unwrap(),
        _ => {
            // agents 0..3 journal deltas; the store's capture rule picks
            // which of them this checkpoint re-captures — the others keep
            // their deltas in the snapshot
            let fresh = (0..3)
                .filter(|a| store.wants_capture(*a, DurablePolicy::Deltas, Boundary::Checkpoint))
                .map(|a| (a, serde_json::json!({ "captured": value }).into()))
                .collect();
            store.checkpoint(fresh).unwrap()
        }
    }
}

/// Durability ops, mostly capsules, over a tiny value domain so that
/// identical capsules repeat (kinds 7.. fold into capsule op 0).
fn repeating_ops_strategy() -> impl Strategy<Value = Vec<(u8, u64, u64, i64)>> {
    proptest::collection::vec((0u8..16, 0u64..2, 0u64..6, 0i64..2), 1..80)
}

/// What one op appends under a policy that writes every record, or
/// `None` for an op that appends nothing. Mirrors `apply_durable_op`
/// without its checkpoints; the bool says whether the record is forced.
fn logged_record(op: (u8, u64, u64, i64)) -> (LogRecord, bool) {
    let (kind, agent, intent, value) = op;
    let v = serde_json::json!({ "v": value });
    match kind {
        0 | 1 => (
            LogRecord::Capsule {
                agent,
                capsule: v.into(),
                active: value % 2 == 0,
            },
            false,
        ),
        2 => (LogRecord::CapsuleGone { agent }, true),
        3 => (LogRecord::PurchaseIntent { intent, detail: v }, true),
        4 => (LogRecord::PurchaseCommit { intent, detail: v }, true),
        5 => (
            LogRecord::PurchaseAbort {
                intent,
                reason: format!("abort {value}"),
            },
            true,
        ),
        _ => (
            LogRecord::ProfileDelta {
                agent,
                delta: v.into(),
            },
            false,
        ),
    }
}

proptest! {
    /// Recovery (snapshot + WAL replay) materializes exactly the live
    /// state, for any interleaving of capsule journals, removals,
    /// two-phase purchase records, profile deltas and checkpoints — and
    /// it is a pure function: recovering twice from the same bytes gives
    /// the same state.
    #[test]
    fn durable_replay_equals_live_state_for_any_interleaving(
        ops in durable_ops_strategy(),
        sync_every in 1usize..5,
    ) {
        let mut store = DurableStore::new(DurabilityConfig {
            checkpoint_every: 0,
            sync_every,
        });
        for op in ops {
            apply_durable_op(&mut store, op);
        }
        let first =
            DurableStore::replay_bytes(&store.snapshot_bytes(), &store.wal_bytes()).unwrap();
        prop_assert_eq!(&first.state, store.state(), "recovery diverged from live state");
        prop_assert_eq!(
            &store.recover().unwrap().state,
            store.state(),
            "in-memory recovery diverged from live state"
        );
        let second =
            DurableStore::replay_bytes(&store.snapshot_bytes(), &store.wal_bytes()).unwrap();
        prop_assert_eq!(first.state, second.state, "recovery is not a pure function");
    }

    /// A log torn at *any* record boundary still recovers (the fsync
    /// model only ever loses whole-record suffixes), and growing the
    /// surviving prefix never un-commits a purchase: once an intent is
    /// `Committed` at prefix `n`, it is `Committed` at every longer
    /// prefix.
    #[test]
    fn any_torn_log_prefix_recovers_and_never_loses_a_commit(
        ops in durable_ops_strategy(),
    ) {
        let mut store = DurableStore::new(DurabilityConfig {
            checkpoint_every: 0,
            sync_every: 1,
        });
        for op in ops {
            apply_durable_op(&mut store, op);
        }
        let snapshot = store.snapshot_bytes();
        let full = Wal::decode(&store.wal_bytes()).unwrap();
        let mut prev_committed: Vec<u64> = Vec::new();
        for n in 0..=full.len() {
            let mut prefix = full.clone();
            prefix.retain_prefix(n);
            let rec = DurableStore::replay_bytes(&snapshot, &prefix.encode())
                .unwrap_or_else(|e| panic!("prefix {n} failed to recover: {e:?}"));
            prop_assert_eq!(rec.replayed, n, "replayed record count at prefix {}", n);
            let committed: Vec<u64> = rec
                .state
                .intents
                .iter()
                .filter(|(_, s)| matches!(s, IntentState::Committed(_)))
                .map(|(id, _)| *id)
                .collect();
            for id in &prev_committed {
                prop_assert!(
                    committed.contains(id),
                    "intent {} committed at prefix {} was lost at prefix {}", id, n - 1, n
                );
            }
            prev_committed = committed;
        }
    }

    /// Crashing loses only the unsynced suffix: every *forced* record
    /// (intent, commit, abort — the two-phase purchase protocol) survives
    /// any crash, committed purchases stay committed, and crashing twice
    /// without new writes changes nothing.
    #[test]
    fn crash_preserves_every_forced_purchase_record(
        ops in durable_ops_strategy(),
        sync_every in 1usize..6,
    ) {
        let mut store = DurableStore::new(DurabilityConfig {
            checkpoint_every: 0,
            sync_every,
        });
        let mut forced_intents = std::collections::BTreeSet::new();
        let mut forced_commits = std::collections::BTreeSet::new();
        for op in ops {
            match op.0 {
                3 | 5 => {
                    forced_intents.insert(op.2);
                }
                4 => {
                    forced_intents.insert(op.2);
                    forced_commits.insert(op.2);
                }
                _ => {}
            }
            apply_durable_op(&mut store, op);
        }
        store.crash().unwrap();
        for id in &forced_commits {
            prop_assert!(
                matches!(store.state().intents.get(id), Some(IntentState::Committed(_))),
                "commit for intent {} was lost in the crash", id
            );
        }
        for id in &forced_intents {
            prop_assert!(
                store.state().intents.contains_key(id),
                "forced intent {} vanished in the crash", id
            );
        }
        let after = store.state().clone();
        store.crash().unwrap();
        prop_assert_eq!(store.state(), &after, "crash is not idempotent");
    }

    /// Skipping a capsule identical to the agent's current one changes no
    /// crash outcome: with identical capsules repeating under a batched
    /// sync, the state that survives a crash equals what survives of a
    /// log that wrote every record (and synced every `sync_every`).
    #[test]
    fn crash_preserves_what_a_log_writing_unchanged_capsules_keeps(
        ops in repeating_ops_strategy(),
    ) {
        let sync_every = 4;
        let mut store = DurableStore::new(DurabilityConfig {
            checkpoint_every: 0,
            sync_every,
        });
        let mut every_record = Wal::new();
        let mut synced = 0;
        for (kind, agent, intent, value) in ops {
            let op = (if kind >= 7 { 0 } else { kind }, agent, intent, value);
            apply_durable_op(&mut store, op);
            let (record, forced) = logged_record(op);
            every_record.append(record);
            if forced || every_record.len() - synced >= sync_every {
                synced = every_record.len();
            }
        }
        prop_assert!(store.wal_len() <= every_record.len());
        store.crash().unwrap();
        every_record.retain_prefix(synced);
        let expected = DurableStore::replay_bytes(b"", &every_record.encode()).unwrap();
        prop_assert_eq!(store.state(), &expected.state);
    }
}
