//! The Http Agent (HttpA).
//!
//! §3.3: *"HttpA provides the Web interface, let users can use the
//! browser to use all service of Buyer Agent Server. HttpA can translate
//! the aglet message between Web interface and agent or mobile agent."*
//!
//! The "browser" is modelled as external messages injected with
//! [`agentsim::sim::SimWorld::send_external`]. Each answer leaves the
//! world as one [`kinds::FRONT_RESPONSE`] message carrying a
//! [`FrontResponse`], emitted through the world's external outbox
//! ([`Ctx::emit`]); the driving harness collects it with
//! [`agentsim::sim::SimWorld::take_emitted`] — the same
//! request/translate/respond path a servlet front would take. The HttpA
//! only translates: its state holds in-flight requests, never a history
//! of answers, so it stays the same size however long it serves.

use crate::admission::{AdmissionConfig, AdmissionGate, AdmissionVerdict, Priority};
use crate::agents::msg::{
    kinds, BraResponse, ConsumerTask, FrontRequest, FrontRequestBody, FrontResponse, ResponseBody,
    RoutedTask, SessionOpen, SessionRequest,
};
use crate::profile::ConsumerId;
use agentsim::agent::{Agent, Ctx};
use agentsim::clock::SimDuration;
use agentsim::ids::AgentId;
use agentsim::message::Message;
use serde::{Deserialize, Serialize};

/// Agent-type tag of [`HttpAgent`].
pub const HTTPA_TYPE: &str = "httpa";

/// The Http front agent.
#[derive(Debug, Serialize, Deserialize)]
pub struct HttpAgent {
    bsma: AgentId,
    /// Ingress admission gate; `None` (the default) admits everything.
    #[serde(default)]
    admission: Option<AdmissionGate>,
    /// End-to-end deadline minted for each admitted task (µs); 0 disables
    /// deadline propagation.
    #[serde(default)]
    deadline_us: u64,
    /// Tasks admitted but not yet answered: `(consumer, started_us)`.
    /// A watchdog timer per entry guarantees the browser always hears
    /// back, even if the request is dropped mid-pipeline.
    #[serde(default)]
    inflight: Vec<(ConsumerId, u64)>,
}

impl HttpAgent {
    /// Front agent wired to its BSMA.
    pub fn new(bsma: AgentId) -> Self {
        HttpAgent {
            bsma,
            admission: None,
            deadline_us: 0,
            inflight: Vec::new(),
        }
    }

    /// Enable admission control at the ingress.
    pub fn with_admission(mut self, config: AdmissionConfig) -> Self {
        self.admission = Some(AdmissionGate::new(config));
        self
    }

    /// Mint an end-to-end deadline of `deadline_us` for each admitted
    /// task (0 keeps deadlines off).
    pub fn with_deadline_us(mut self, deadline_us: u64) -> Self {
        self.deadline_us = deadline_us;
        self
    }

    /// Priority class of a front request: transactions are shed last,
    /// session management first.
    fn class_of(body: &FrontRequestBody) -> Priority {
        match body {
            FrontRequestBody::Task(ConsumerTask::Buy { .. })
            | FrontRequestBody::Task(ConsumerTask::Auction { .. }) => Priority::Transaction,
            FrontRequestBody::Task(ConsumerTask::Query { .. }) => Priority::Query,
            FrontRequestBody::Login | FrontRequestBody::Logout => Priority::Background,
        }
    }

    /// Drop `consumer` from the inflight set; true when it was there.
    fn settle(&mut self, consumer: ConsumerId) -> Option<u64> {
        let pos = self.inflight.iter().position(|(c, _)| *c == consumer)?;
        Some(self.inflight.remove(pos).1)
    }

    /// Answer the browser: emit `body` for `consumer` out of the world.
    fn respond(ctx: &mut Ctx<'_>, consumer: ConsumerId, body: ResponseBody) {
        let msg = Message::new(kinds::FRONT_RESPONSE)
            .with_payload(&FrontResponse { consumer, body })
            .expect("front response serializes");
        ctx.emit(msg);
    }
}

impl Agent for HttpAgent {
    fn agent_type(&self) -> &'static str {
        HTTPA_TYPE
    }

    fn snapshot(&self) -> serde_json::Value {
        serde_json::to_value(self).expect("httpa state serializes")
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        match msg.kind.as_str() {
            kinds::FRONT_REQUEST => {
                let Ok(req) = msg.payload_as::<FrontRequest>() else {
                    ctx.note("httpa: malformed front request");
                    return;
                };
                if let Some(gate) = &mut self.admission {
                    let class = Self::class_of(&req.body);
                    let verdict = gate.try_admit(ctx.now().as_micros(), class);
                    if let AdmissionVerdict::Shed { retry_after_us } = verdict {
                        ctx.count_shed();
                        ctx.note(format!(
                            "httpa: shed {class:?} request from consumer {} (retry in {retry_after_us} us)",
                            req.consumer.0
                        ));
                        Self::respond(
                            ctx,
                            req.consumer,
                            ResponseBody::Overloaded { retry_after_us },
                        );
                        return;
                    }
                }
                match req.body {
                    FrontRequestBody::Login => {
                        let login = Message::new(kinds::LOGIN)
                            .with_payload(&SessionRequest {
                                consumer: req.consumer,
                            })
                            .expect("login serializes");
                        ctx.send(self.bsma, login);
                    }
                    FrontRequestBody::Logout => {
                        let logout = Message::new(kinds::LOGOUT)
                            .with_payload(&SessionRequest {
                                consumer: req.consumer,
                            })
                            .expect("logout serializes");
                        ctx.send(self.bsma, logout);
                    }
                    FrontRequestBody::Task(task) => {
                        let fig = task.figure();
                        ctx.note(format!("{fig}/step01 buyer request received by httpa"));
                        ctx.note(format!("{fig}/step02 httpa forwards to bsma"));
                        if self.deadline_us > 0 {
                            // Stamp the deadline before the send so every
                            // downstream hop carries it, and arm a watchdog
                            // with slack so the browser always hears back
                            // even if the request dies mid-pipeline.
                            ctx.set_deadline(
                                ctx.now() + SimDuration::from_micros(self.deadline_us),
                            );
                            self.inflight.push((req.consumer, ctx.now().as_micros()));
                            ctx.set_timer(
                                SimDuration::from_micros(self.deadline_us + self.deadline_us / 2),
                                req.consumer.0,
                            );
                        }
                        let route = Message::new(kinds::ROUTE_TASK)
                            .with_payload(&RoutedTask {
                                consumer: req.consumer,
                                task,
                                blocked_markets: Vec::new(),
                            })
                            .expect("route serializes");
                        ctx.send(self.bsma, route);
                    }
                }
            }
            kinds::SESSION_OPEN => {
                if let Ok(open) = msg.payload_as::<SessionOpen>() {
                    Self::respond(ctx, open.consumer, ResponseBody::LoggedIn);
                }
            }
            kinds::SESSION_CLOSED => {
                if let Ok(req) = msg.payload_as::<SessionRequest>() {
                    Self::respond(ctx, req.consumer, ResponseBody::LoggedOut);
                }
            }
            kinds::NO_SESSION => {
                if let Ok(req) = msg.payload_as::<SessionRequest>() {
                    self.settle(req.consumer);
                    Self::respond(
                        ctx,
                        req.consumer,
                        ResponseBody::Error("not logged in".into()),
                    );
                }
            }
            kinds::BRA_RESPONSE => {
                if let Ok(resp) = msg.payload_as::<BraResponse>() {
                    if let Some(started_us) = self.settle(resp.consumer) {
                        ctx.observe(
                            "e2e.latency_us",
                            ctx.now().as_micros().saturating_sub(started_us),
                        );
                    }
                    Self::respond(ctx, resp.consumer, resp.body);
                }
            }
            other => {
                ctx.note(format!("httpa: unhandled kind {other}"));
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        // Deadline watchdog: the tag is the consumer id. A stale timer
        // (request already answered) is a no-op.
        let consumer = ConsumerId(tag);
        if self.settle(consumer).is_some() {
            ctx.note(format!(
                "httpa: request from consumer {tag} missed its deadline with no reply"
            ));
            Self::respond(
                ctx,
                consumer,
                ResponseBody::Error("request deadline exceeded".into()),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ConsumerId;

    #[test]
    fn httpa_state_round_trips() {
        let mut h = HttpAgent::new(AgentId(5)).with_deadline_us(700);
        h.inflight.push((ConsumerId(1), 42));
        let back: HttpAgent = serde_json::from_value(h.snapshot()).unwrap();
        assert_eq!(back.bsma, AgentId(5));
        assert_eq!(back.deadline_us, 700);
        assert_eq!(back.inflight, vec![(ConsumerId(1), 42)]);
    }
}
