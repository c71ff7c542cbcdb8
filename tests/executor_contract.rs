//! The effect contract every executor must honour, pinned across all
//! three: the seeded [`Simulation`], the [`ThreadedRuntime`] (channel
//! transport, one and two workers) and the twin replay of the runtime's
//! [`DeliveryTrace`](swiper::net::DeliveryTrace).
//!
//! The probe automata are scripted so that every observable the contract
//! fixes — outputs, per-node send and delivery counters, the count of
//! applied reconfigurations — is independent of the delivery order, so
//! the executors must agree on them exactly.

use swiper::core::{TicketAssignment, TicketDelta, Weights};
use swiper::net::{
    Context, NodeId, Protocol, RunReport, SendNodes, Simulation, ThreadedRuntime,
};
use swiper::EpochEvent;

/// Message tags of the probe script.
const SELF: u64 = 1;
const UNICAST: u64 = 2;
const BROADCAST: u64 = 3;
const AFTER: u64 = 4;
const POKE: u64 = 5;
const PONG: u64 = 6;

/// Timer ids of the probe script.
const DELAY_ZERO: u64 = 10;
const HALT: u64 = 11;

/// One scripted node:
///
/// * `on_start` stages a self-send, a unicast to its successor, a
///   broadcast and a delay-0 timer;
/// * the delay-0 timer outputs whether it fired at least one tick after
///   the start, then self-sends `AFTER`, whose delivery outputs again —
///   the second output must lose to the first;
/// * node 0, once every message addressed to it has arrived, arms a
///   timer that halts it and pokes node 1, whose reply then reaches a
///   halted node.
struct Probe {
    started_at: u64,
    expected: usize,
    received: usize,
}

impl Probe {
    fn new(n: usize) -> Self {
        // Self-send, the predecessor's unicast, n broadcasts, `AFTER`.
        Probe { started_at: 0, expected: n + 3, received: 0 }
    }
}

impl Protocol for Probe {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Context<u64>) {
        self.started_at = ctx.now();
        let (me, n) = (ctx.me(), ctx.n());
        ctx.send(me, SELF);
        ctx.send((me + 1) % n, UNICAST);
        ctx.broadcast(BROADCAST);
        ctx.set_timer(0, DELAY_ZERO);
    }

    fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Context<u64>) {
        let (me, n) = (ctx.me(), ctx.n());
        match msg {
            SELF | AFTER => assert_eq!(from, me, "self-sends come from self"),
            UNICAST => assert_eq!(from, (me + n - 1) % n, "unicasts come from the predecessor"),
            BROADCAST => {}
            POKE => {
                ctx.send(from, PONG);
                return;
            }
            other => panic!("node {me} got unexpected message {other} from {from}"),
        }
        if msg == AFTER {
            ctx.output(b"second".to_vec());
        }
        self.received += 1;
        if me == 0 && self.received == self.expected {
            ctx.set_timer(0, HALT);
        }
    }

    fn on_timer(&mut self, id: u64, ctx: &mut Context<u64>) {
        match id {
            DELAY_ZERO => {
                let late_enough = ctx.now() > self.started_at;
                ctx.output(vec![b'T', u8::from(late_enough)]);
                let me = ctx.me();
                ctx.send(me, AFTER);
            }
            HALT => {
                ctx.halt();
                ctx.send(1, POKE);
            }
            other => panic!("unexpected timer {other}"),
        }
    }
}

fn probes(n: usize) -> SendNodes<u64> {
    (0..n).map(|_| Box::new(Probe::new(n)) as _).collect()
}

/// Drops the `Send` bound so the same constructors feed the simulator
/// and the replay.
fn desend<M>(nodes: SendNodes<M>) -> Vec<Box<dyn Protocol<Msg = M>>> {
    nodes.into_iter().map(|b| b as Box<dyn Protocol<Msg = M>>).collect()
}

/// Asserts `got` matches the simulator's report on everything the effect
/// contract fixes.
fn assert_same(label: &str, sim: &RunReport, got: &RunReport) {
    assert_eq!(got.outputs, sim.outputs, "{label}: outputs");
    assert_eq!(got.metrics, sim.metrics, "{label}: metrics");
    assert_eq!(got.reconfigurations, sim.reconfigurations, "{label}: reconfigurations");
}

#[test]
fn every_executor_applies_effects_identically() {
    let n = 3;
    let sim = Simulation::new(desend(probes(n)), 11).run();
    let timer_output = Some(vec![b'T', 1]);
    assert!(sim.outputs.iter().all(|o| *o == timer_output), "first output wins: {sim:?}");
    // Per node: self, unicast, n broadcasts, `AFTER`; plus POKE and PONG.
    assert_eq!(sim.metrics.total_messages(), (n * (n + 3) + 2) as u64);
    assert_eq!(sim.metrics.total_bytes(), sim.metrics.total_messages() * 8);
    // Only the PONG to the halted node 0 goes undelivered.
    assert_eq!(sim.metrics.delivered_messages(), sim.metrics.total_messages() - 1);

    for workers in [1, 2] {
        let full = ThreadedRuntime::new(probes(n)).with_workers(workers).run_traced();
        let label = format!("threaded, {workers} worker(s)");
        assert_same(&label, &sim, &full.report);
        assert_eq!(full.dropped, 1, "{label}: the PONG to the halted node is a drop");
        assert_eq!(
            full.report.metrics.total_messages(),
            full.report.metrics.delivered_messages() + full.dropped,
            "{label}: every sent message is delivered or drop-accounted"
        );
        let twin = full.trace.replay(desend(probes(n))).expect("twin replay must not diverge");
        assert_same(&format!("replay of {label}"), &sim, &twin);
    }
}

/// Outputs once a self-send emitted by its `on_reconfigure` arrives.
struct EpochEcho {
    seen: u8,
}

impl Protocol for EpochEcho {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Context<u64>) {
        let me = ctx.me();
        ctx.send(me, 0);
    }

    fn on_message(&mut self, _from: NodeId, msg: u64, ctx: &mut Context<u64>) {
        if msg == 1 {
            ctx.output(vec![self.seen]);
        }
    }

    fn on_reconfigure(&mut self, _event: &EpochEvent, ctx: &mut Context<u64>) {
        self.seen += 1;
        let me = ctx.me();
        ctx.send(me, 1);
    }
}

fn echoes() -> SendNodes<u64> {
    (0..2).map(|_| Box::new(EpochEcho { seen: 0 }) as _).collect()
}

fn unit_event() -> EpochEvent {
    let delta = TicketDelta::between(
        &TicketAssignment::new(vec![1, 1]),
        &TicketAssignment::new(vec![2, 1]),
    )
    .unwrap();
    let stake = Weights::new(vec![1, 1]).unwrap();
    EpochEvent::new(1, delta, &stake, stake.clone(), 0).unwrap()
}

/// A reconfiguration applies once the processed-event count reaches its
/// threshold — also when that count is only reached by the run's final
/// event — and the run continues on what `on_reconfigure` emits. The two
/// self-sends make a two-event run, so `at_event = 2` is that boundary
/// and `at_event = 3` is never reached.
#[test]
fn reconfiguration_at_the_final_event_count_applies_on_every_executor() {
    for at_event in 0..=3u64 {
        let applied = u64::from(at_event <= 2);
        let sim = Simulation::new(desend(echoes()), 5)
            .with_reconfiguration(at_event, unit_event())
            .run();
        assert_eq!(sim.reconfigurations, applied, "simulator at_event={at_event}");
        let expect = if applied == 1 { Some(vec![1]) } else { None };
        assert!(sim.outputs.iter().all(|o| *o == expect), "simulator at_event={at_event}");

        for workers in [1, 2] {
            let full = ThreadedRuntime::new(echoes())
                .with_workers(workers)
                .with_reconfiguration(at_event, unit_event())
                .run_traced();
            let label = format!("threaded, {workers} worker(s), at_event={at_event}");
            assert_same(&label, &sim, &full.report);
            let twin =
                full.trace.replay(desend(echoes())).expect("twin replay must not diverge");
            assert_same(&format!("replay of {label}"), &sim, &twin);
        }
    }
}
