//! The determinism twin: every threaded-runtime run is replayable on the
//! deterministic simulator substrate, bit-identically.
//!
//! A [`ThreadedRuntime`](crate::ThreadedRuntime) run is nondeterministic —
//! OS scheduling decides the delivery order. What it *records* is a
//! [`DeliveryTrace`]: the exact callback sequence it executed, with each
//! message identified by its sender's per-node send index rather than by
//! payload. Because [`Protocol`] automata are deterministic functions of
//! their callback sequence, [`DeliveryTrace::replay`] can re-execute the
//! run single-threaded on fresh nodes, re-deriving every payload, and the
//! resulting outputs and [`Metrics`] must equal the live run's exactly.
//! Any mismatch — a send index that was never emitted, a timer id that
//! differs, a delivery to a node the replay believes halted — is a
//! [`TwinError`], the signal that an automaton hides nondeterminism
//! (wall-clock reads, iteration-order-dependent emissions, shared mutable
//! state) that the simulator cannot reproduce.
//!
//! The trace stores *coordinates, not payloads*: ~3 words per event, so
//! tracing stays cheap enough to leave on for every benchmark run (the
//! `runtime_scale --ci-smoke` gate replays every cell nightly).

use std::collections::HashMap;

use swiper_core::EpochEvent;

use crate::host::{Callback, Effect, NodeHost};
use crate::metrics::Metrics;
use crate::sim::{NodeId, Protocol, RunReport};
use crate::MessageSize;

/// One recorded callback of a runtime run, in a causally consistent total
/// order (an event's record is appended before any of its effects become
/// visible to other nodes, so every `Deliver` appears after the record of
/// the callback that sent it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// `to` processed the message `from` emitted as its `send_ix`-th send.
    Deliver {
        /// Receiving node.
        to: NodeId,
        /// Sending node.
        from: NodeId,
        /// The sender's per-node send sequence number.
        send_ix: u64,
        /// Monotonic tick at delivery (the receiver's `ctx.now()`).
        at: u64,
    },
    /// `to`'s `timer_ix`-th armed timer fired.
    Timer {
        /// The node whose timer fired.
        to: NodeId,
        /// The node's per-node timer arm counter.
        timer_ix: u64,
        /// The timer id the automaton armed (cross-checked on replay).
        id: u64,
        /// Monotonic tick at firing.
        at: u64,
    },
    /// `to` processed the `epoch_ix`-th injected [`EpochEvent`].
    Epoch {
        /// The reconfigured node.
        to: NodeId,
        /// Index into the trace's epoch-event schedule.
        epoch_ix: usize,
        /// Monotonic tick at application.
        at: u64,
    },
}

/// The replayable record of one runtime run: per-node start times, the
/// causally ordered callback sequence, and the epoch events the run
/// injected.
#[derive(Debug, Clone)]
pub struct DeliveryTrace {
    pub(crate) n: usize,
    /// `ctx.now()` each node saw in `on_start`.
    pub(crate) start_at: Vec<u64>,
    pub(crate) events: Vec<TraceEvent>,
    pub(crate) epochs: Vec<EpochEvent>,
}

/// A divergence between a recorded runtime run and its simulator replay:
/// the trace references state the deterministic re-execution never
/// produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwinError {
    /// Position in the trace at which the replay diverged.
    pub at_event: usize,
    /// What the replay could not reproduce.
    pub reason: String,
}

impl std::fmt::Display for TwinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "twin replay diverged at trace event {}: {}", self.at_event, self.reason)
    }
}

impl std::error::Error for TwinError {}

/// Replay-side view of one node: its host, and the messages and timers
/// it has emitted, keyed by the same per-node indices the runtime
/// assigned.
struct ReplayNode<M> {
    host: NodeHost<dyn Protocol<Msg = M>>,
    sent: HashMap<u64, (NodeId, M)>,
    armed: HashMap<u64, u64>,
}

impl<M: Clone + MessageSize> ReplayNode<M> {
    fn call(&mut self, n: usize, at: u64, callback: Callback<'_, M>, metrics: &mut Metrics) {
        let (sent, armed) = (&mut self.sent, &mut self.armed);
        self.host.run(n, at, callback, metrics, |effect| match effect {
            Effect::Send { ix, to, msg } => {
                sent.insert(ix, (to, msg));
            }
            Effect::Timer { ix, id, .. } => {
                armed.insert(ix, id);
            }
        });
    }
}

impl DeliveryTrace {
    /// Number of nodes the trace was recorded over.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of recorded callbacks.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the run recorded no callbacks at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Re-executes the recorded run on fresh `nodes`, single-threaded and
    /// deterministic, and reports. The nodes must be constructed exactly
    /// as the live run's were (same configs, same seeds): the replay
    /// re-derives every payload from the automata themselves, so the
    /// returned outputs and metrics are bit-comparable with the live
    /// run's.
    ///
    /// # Errors
    ///
    /// [`TwinError`] when the trace references an emission the replay
    /// never produced — the bit-identity contract is violated.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the traced population.
    pub fn replay<M: Clone + MessageSize>(
        &self,
        nodes: Vec<Box<dyn Protocol<Msg = M>>>,
    ) -> Result<RunReport, TwinError> {
        assert_eq!(nodes.len(), self.n, "replay population must match the trace");
        let n = self.n;
        let mut metrics = Metrics::new(n);
        let mut state: Vec<ReplayNode<M>> = nodes
            .into_iter()
            .enumerate()
            .map(|(id, node)| ReplayNode {
                host: NodeHost::new(id, node),
                sent: HashMap::new(),
                armed: HashMap::new(),
            })
            .collect();
        let mut elapsed = 0u64;
        for (node, replayed) in state.iter_mut().enumerate() {
            replayed.call(n, self.start_at[node], Callback::Start, &mut metrics);
        }

        let mut events = 0u64;
        for (pos, ev) in self.events.iter().enumerate() {
            let err = |reason: String| TwinError { at_event: pos, reason };
            let (to, at, callback, what) = match *ev {
                TraceEvent::Deliver { to, from, send_ix, at } => {
                    let Some((dest, msg)) = state[from].sent.remove(&send_ix) else {
                        return Err(err(format!(
                            "node {to} expects send #{send_ix} from node {from}, \
                             which the replay never emitted"
                        )));
                    };
                    if dest != to {
                        return Err(err(format!(
                            "send #{send_ix} from node {from} was addressed to \
                             node {dest}, not node {to}"
                        )));
                    }
                    (to, at, Callback::Message { from, msg }, "delivery to")
                }
                TraceEvent::Timer { to, timer_ix, id, at } => {
                    let Some(armed) = state[to].armed.remove(&timer_ix) else {
                        return Err(err(format!(
                            "timer #{timer_ix} on node {to} was never armed in the replay"
                        )));
                    };
                    if armed != id {
                        return Err(err(format!(
                            "timer #{timer_ix} on node {to} was armed with id {armed}, \
                             the live run fired id {id}"
                        )));
                    }
                    (to, at, Callback::Timer { id }, "timer fire on")
                }
                TraceEvent::Epoch { to, epoch_ix, at } => {
                    let Some(event) = self.epochs.get(epoch_ix) else {
                        return Err(err(format!(
                            "epoch #{epoch_ix} is not in the trace's schedule"
                        )));
                    };
                    (to, at, Callback::Epoch(event), "reconfiguration of")
                }
            };
            if state[to].host.halted() {
                return Err(err(format!(
                    "{what} node {to}, which already halted in the replay"
                )));
            }
            elapsed = elapsed.max(at);
            // Reconfigurations are not events (the runtime does not count
            // them either).
            if !matches!(callback, Callback::Epoch(_)) {
                events += 1;
            }
            state[to].call(n, at, callback, &mut metrics);
        }

        Ok(RunReport {
            outputs: state.into_iter().map(|r| r.host.into_output()).collect(),
            elapsed,
            events,
            reconfigurations: self.epochs.len() as u64,
            metrics,
        })
    }
}
