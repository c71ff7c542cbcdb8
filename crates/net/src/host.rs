//! One node's host: the single place a callback's effects are applied.
//!
//! The simulator ([`Simulation`](crate::Simulation)), the threaded runtime
//! ([`ThreadedRuntime`](crate::ThreadedRuntime)) and the twin replay
//! ([`DeliveryTrace::replay`](crate::DeliveryTrace::replay)) all run their
//! [`Protocol`] automata through a [`NodeHost`]. The host owns the
//! automaton, its output latch, its halt flag and its per-node send and
//! timer counters, so the executors share one effect semantics by
//! construction. Each executor keeps only what is its own — the seeded
//! delay heap, the transport and credit machinery, the trace validation —
//! and receives every indexed send and timer through a sink closure.

use swiper_core::EpochEvent;

use crate::metrics::Metrics;
use crate::sim::{Context, NodeId, Protocol};
use crate::MessageSize;

/// A callback an executor asks a host to run.
pub(crate) enum Callback<'e, M> {
    /// [`Protocol::on_start`].
    Start,
    /// [`Protocol::on_message`]; counted as a delivery.
    Message { from: NodeId, msg: M },
    /// [`Protocol::on_timer`].
    Timer { id: u64 },
    /// [`Protocol::on_reconfigure`].
    Epoch(&'e EpochEvent),
}

/// One effect of a callback, tagged with the node's per-node counter —
/// the coordinate the determinism twin replays by.
pub(crate) enum Effect<M> {
    /// The node's `ix`-th send.
    Send { ix: u64, to: NodeId, msg: M },
    /// The node's `ix`-th armed timer: fire `id` after `delay` ticks.
    Timer { ix: u64, delay: u64, id: u64 },
}

/// A node automaton plus the per-node state every executor keeps for it.
pub(crate) struct NodeHost<P: ?Sized> {
    id: NodeId,
    output: Option<Vec<u8>>,
    halted: bool,
    sends: u64,
    timers: u64,
    node: Box<P>,
}

impl<P: Protocol + ?Sized> NodeHost<P> {
    pub(crate) fn new(id: NodeId, node: Box<P>) -> Self {
        NodeHost { id, output: None, halted: false, sends: 0, timers: 0, node }
    }

    pub(crate) fn id(&self) -> NodeId {
        self.id
    }

    pub(crate) fn halted(&self) -> bool {
        self.halted
    }

    pub(crate) fn into_output(self) -> Option<Vec<u8>> {
        self.output
    }

    /// Runs `callback` at tick `now` on a fresh context over an `n`-node
    /// population, then applies its effects: the first output ever
    /// produced is latched, a halt sticks, broadcasts expand to ascending
    /// recipients, and every send (recorded in `metrics`) and then every
    /// timer goes to `sink` in staging order with its per-node index. A
    /// halted node runs nothing and records nothing.
    pub(crate) fn run<F>(
        &mut self,
        n: usize,
        now: u64,
        callback: Callback<'_, P::Msg>,
        metrics: &mut Metrics,
        mut sink: F,
    ) where
        F: FnMut(Effect<P::Msg>),
    {
        if self.halted {
            return;
        }
        let mut ctx = Context::detached(self.id, n, now);
        match callback {
            Callback::Start => self.node.on_start(&mut ctx),
            Callback::Message { from, msg } => {
                metrics.record_delivery(self.id, msg.size_bytes());
                self.node.on_message(from, msg, &mut ctx);
            }
            Callback::Timer { id } => self.node.on_timer(id, &mut ctx),
            Callback::Epoch(event) => self.node.on_reconfigure(event, &mut ctx),
        }
        let Context { outbox, timers, output, halted, .. } = ctx;
        if self.output.is_none() {
            self.output = output;
        }
        self.halted |= halted;
        for delivery in outbox {
            delivery.expand(n, |to, msg| {
                metrics.record_send(self.id, msg.size_bytes());
                sink(Effect::Send { ix: self.sends, to, msg });
                self.sends += 1;
            });
        }
        for (delay, id) in timers {
            sink(Effect::Timer { ix: self.timers, delay, id });
            self.timers += 1;
        }
    }
}
