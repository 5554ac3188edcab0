//! The correctness gate: every request gets exactly one response of the
//! class its kind expects, and a digest of the response stream lets two
//! builds be compared for identical output.

use abcrm_core::agents::msg::ResponseBody;
use abcrm_core::profile::ConsumerId;
use ecp::merchandise::ItemId;
use std::collections::BTreeMap;

/// The response class a request must get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A login answers `LoggedIn`.
    LoggedIn,
    /// A logout answers `LoggedOut`.
    LoggedOut,
    /// A query answers `Recommendations`.
    Recommendations,
    /// A buy answers `Receipt`, or an `Error` that counts as failed.
    Receipt,
}

impl Expect {
    fn admits(self, body: &ResponseBody) -> bool {
        matches!(
            (self, body),
            (Expect::LoggedIn, ResponseBody::LoggedIn)
                | (Expect::LoggedOut, ResponseBody::LoggedOut)
                | (
                    Expect::Recommendations,
                    ResponseBody::Recommendations { .. }
                )
                | (Expect::Receipt, ResponseBody::Receipt { .. })
        )
    }
}

/// Accumulates the checks of one pass.
#[derive(Debug, Default)]
pub struct Gate {
    /// Requests checked.
    pub attempted: u64,
    /// Buys answered with an `Error`: counted, not a violation.
    pub failed: u64,
    /// Receipts per item, to compare with the marketplaces' sales.
    pub receipts: BTreeMap<ItemId, u32>,
    violations: Vec<String>,
    digest: u64,
}

#[cfg(test)]
thread_local! {
    /// Deliberately wrong expectations for the smoke test: while set,
    /// every request on this thread is expected to answer `LoggedOut` (a
    /// logout, `LoggedIn`).
    pub static SABOTAGE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

impl Gate {
    /// A fresh gate.
    pub fn new() -> Gate {
        Gate {
            digest: FNV_OFFSET,
            ..Gate::default()
        }
    }

    /// Check that `consumer`'s request got exactly one response, of class
    /// `expect`. Returns that response when it did.
    pub fn check<'a>(
        &mut self,
        consumer: ConsumerId,
        expect: Expect,
        responses: &'a [ResponseBody],
    ) -> Option<&'a ResponseBody> {
        self.attempted += 1;
        #[cfg(test)]
        let expect = match (SABOTAGE.get(), expect) {
            (false, e) => e,
            (true, Expect::LoggedOut) => Expect::LoggedIn,
            (true, _) => Expect::LoggedOut,
        };
        for body in responses {
            self.absorb(consumer, body);
        }
        let [body] = responses else {
            self.violate(format!(
                "consumer {}: expected one {expect:?} response, got {}",
                consumer.0,
                responses.len()
            ));
            return None;
        };
        if let ResponseBody::Receipt { item, .. } = body {
            *self.receipts.entry(item.id).or_insert(0) += 1;
        }
        if expect == Expect::Receipt && matches!(body, ResponseBody::Error(_)) {
            self.failed += 1;
            return Some(body);
        }
        if !expect.admits(body) {
            self.violate(format!(
                "consumer {}: expected {expect:?}, got {}",
                consumer.0,
                response_class(body)
            ));
            return None;
        }
        Some(body)
    }

    /// Record a violation found outside a single response.
    pub fn violate(&mut self, what: String) {
        self.violations.push(what);
    }

    /// Fold one response into the stream digest (FNV-1a over its JSON).
    fn absorb(&mut self, consumer: ConsumerId, body: &ResponseBody) {
        let line = format!(
            "{}:{}",
            consumer.0,
            serde_json::to_string(body).expect("response serializes")
        );
        for b in line.bytes() {
            self.digest = (self.digest ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Digest of every response seen, in order.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// `Ok` when nothing was violated, else every violation.
    pub fn verdict(&self) -> Result<(), String> {
        if self.violations.is_empty() {
            Ok(())
        } else {
            Err(self.violations.join("; "))
        }
    }
}

fn response_class(body: &ResponseBody) -> &'static str {
    match body {
        ResponseBody::LoggedIn => "LoggedIn",
        ResponseBody::LoggedOut => "LoggedOut",
        ResponseBody::Recommendations { .. } => "Recommendations",
        ResponseBody::Receipt { .. } => "Receipt",
        ResponseBody::AuctionResult { .. } => "AuctionResult",
        ResponseBody::Error(_) => "Error",
        ResponseBody::Overloaded { .. } => "Overloaded",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_class_and_missing_responses_are_violations() {
        let mut g = Gate::new();
        assert!(g
            .check(ConsumerId(1), Expect::LoggedIn, &[ResponseBody::LoggedIn])
            .is_some());
        assert!(g.verdict().is_ok());
        g.check(ConsumerId(1), Expect::LoggedOut, &[ResponseBody::LoggedIn]);
        g.check(ConsumerId(1), Expect::LoggedOut, &[]);
        assert!(g.verdict().is_err());
        assert_eq!(g.attempted, 3);
    }

    #[test]
    fn a_buy_error_is_counted_not_violated() {
        let mut g = Gate::new();
        g.check(
            ConsumerId(2),
            Expect::Receipt,
            &[ResponseBody::Error("sold out".into())],
        );
        assert_eq!(g.failed, 1);
        assert!(g.verdict().is_ok());
    }

    #[test]
    fn digest_follows_the_stream() {
        let mut a = Gate::new();
        let mut b = Gate::new();
        a.check(ConsumerId(1), Expect::LoggedIn, &[ResponseBody::LoggedIn]);
        b.check(ConsumerId(2), Expect::LoggedIn, &[ResponseBody::LoggedIn]);
        assert_ne!(a.digest(), b.digest());
    }
}
