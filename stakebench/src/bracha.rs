//! `blackbox-bracha-tezos`: one operation is one black-box-transformed
//! nominal Bracha broadcast of a 64-byte payload on the seeded simulator
//! with `DelayModel::Uniform(1, 20)`, a fresh delay seed per operation.
//! The chain replica's stake is solved once with WR(1/4, 1/3); the
//! heaviest parties other than the sender's owner stay silent as long as
//! their total stake stays below W/4.

use std::sync::Arc;

use swiper::net::adversary::Silent;
use swiper::net::{DelayModel, Protocol, Simulation};
use swiper::protocols::blackbox::{BlackBox, BlackBoxConfig, BlackBoxMsg};
use swiper::protocols::bracha::{BrachaConfig, BrachaMsg, BrachaNode};
use swiper::weights::Chain;
use swiper::{Ratio, Swiper, WeightRestriction, Weights};

use crate::checks::every_honest_party_delivered;
use crate::harness::{
    assemble, closed_loop, end_to_end, mix, overhead_pct, repeated_setup, timed, Aliases,
    OpOutcome, Opts, Report, PER_LAYER,
};
use crate::trace::{Layer, TimedProtocol, Tracer};

/// The broadcasting system.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Chain replica whose stake the parties hold.
    pub chain: Chain,
}

impl Size {
    /// The benchmark's size: the Tezos replica (n = 382).
    pub const FULL: Size = Size { chain: Chain::Tezos };
}

const ALIASES: Aliases = Aliases {
    op: "broadcast",
    latency: "broadcast_ms",
    rate: "broadcasts_per_s",
    cost: ("bytes_per_party", "bytes"),
};

/// Payload size, in bytes.
const PAYLOAD: usize = 64;
/// Operations after which the peak resident set size is read.
const RSS_AFTER: u64 = 5;
/// Set-up repetitions.
const SETUP_REPS: usize = 25;

/// The solved system every broadcast runs over.
pub struct System {
    config: BlackBoxConfig,
    /// Which parties are silent.
    pub silent: Vec<bool>,
    /// The sender's payload.
    pub payload: Vec<u8>,
}

/// Solves the replica's stake and picks the silent parties: the heaviest
/// parties other than the sender's owner, while their stake stays below
/// a quarter of the total.
pub fn system(size: Size, seed: u64) -> System {
    let w: Weights = size.chain.weights();
    let p = WeightRestriction::new(Ratio::of(1, 4), Ratio::of(1, 3)).expect("valid parameters");
    let sol = Swiper::new().solve_restriction(&w, &p).expect("solvable");
    let config = BlackBoxConfig::new(w.clone(), &sol.assignment, Ratio::of(1, 4));
    let owner = config.mapping().owner_of(0);
    let mut by_stake: Vec<usize> = (0..w.len()).filter(|&i| i != owner).collect();
    by_stake.sort_by_key(|&i| std::cmp::Reverse(w.get(i)));
    let mut silent = vec![false; w.len()];
    let mut held: u128 = 0;
    for i in by_stake {
        let next = held + u128::from(w.get(i));
        if 4 * next >= w.total() {
            break;
        }
        held = next;
        silent[i] = true;
    }
    let payload = (0..PAYLOAD as u64).map(|k| mix(seed, k) as u8).collect();
    System { config, silent, payload }
}

type Node = Box<dyn Protocol<Msg = BlackBoxMsg<BrachaMsg>>>;

/// The parties of one broadcast: virtual user 0 sends, silent parties
/// never speak, and with a tracer every black-box callback and every
/// Bracha callback inside it is a span.
fn nodes(sys: &System, tracer: Option<&Arc<Tracer>>) -> Vec<Node> {
    let bracha = BrachaConfig::nominal(sys.config.virtual_count());
    (0..sys.silent.len())
        .map(|party| -> Node {
            if sys.silent[party] {
                return Box::new(Silent::new());
            }
            let (bc, payload, t) = (bracha.clone(), sys.payload.clone(), tracer.cloned());
            let make = move |v: usize| {
                if v == 0 {
                    BrachaNode::sender(bc.clone(), 0, payload.clone())
                } else {
                    BrachaNode::new(bc.clone(), 0)
                }
            };
            match t {
                None => Box::new(BlackBox::new(sys.config.clone(), party, move |v, _| make(v))),
                Some(t) => {
                    let inner = Arc::clone(&t);
                    let bb = BlackBox::new(sys.config.clone(), party, move |v, _| {
                        TimedProtocol::new(make(v), Layer::Bracha, Arc::clone(&inner))
                    });
                    Box::new(TimedProtocol::new(bb, Layer::BlackBox, t))
                }
            }
        })
        .collect()
}

/// Per-pass counters read from each run report.
#[derive(Default)]
struct Counters {
    events: u64,
    ticks: u64,
}

/// Runs broadcast `i` (timed) and checks every honest delivery.
fn broadcast_op(
    sys: &System,
    seed: u64,
    i: u64,
    tracer: Option<&Arc<Tracer>>,
    c: &mut Counters,
) -> OpOutcome {
    let parties = nodes(sys, tracer);
    let sim =
        Simulation::new(parties, mix(seed, 1_000 + i)).with_delay(DelayModel::Uniform(1, 20));
    let (report, ms) = timed(|| match tracer {
        None => sim.run(),
        Some(t) => t.time(Layer::Sim, || sim.run()),
    });
    c.events += report.events;
    c.ticks += report.elapsed;
    let honest = sys.silent.iter().filter(|&&s| !s).count();
    OpOutcome {
        ms,
        ok: every_honest_party_delivered(&report.outputs, &sys.silent, &sys.payload),
        cost: report.metrics.delivered_bytes() as f64 / honest as f64,
    }
}

/// Runs the workload.
pub fn run(size: Size, opts: &Opts) -> Report {
    let (sys, setup_s) = repeated_setup(SETUP_REPS, || system(size, opts.seed));
    // Warm-up: one untimed, unchecked broadcast on its own delay seed.
    broadcast_op(&sys, opts.seed, u64::MAX - 1_000, None, &mut Counters::default());
    let mut report = Report::default();
    let silent = sys.silent.iter().filter(|&&s| s).count();
    report.notes.push(format!(
        "T = {} virtual users, {silent} silent parties of {}",
        sys.config.virtual_count(),
        sys.silent.len()
    ));
    if !opts.trace {
        let pass = closed_loop(opts.seconds, RSS_AFTER, |i| {
            broadcast_op(&sys, opts.seed, i, None, &mut Counters::default())
        });
        report.attempted = pass.attempted();
        report.failed = pass.failed;
        end_to_end(
            ALIASES,
            &pass.op_ms,
            pass.ops_per_s(),
            pass.cost(),
            setup_s,
            pass.rss_mb,
            &mut report,
        );
        return report;
    }

    let half = opts.seconds / 2.0;
    let untraced = closed_loop(half, RSS_AFTER, |i| {
        broadcast_op(&sys, opts.seed, i, None, &mut Counters::default())
    });
    let tracer = Tracer::new();
    let mut c = Counters::default();
    let traced = closed_loop(half, RSS_AFTER, |i| {
        tracer.set_op(i);
        broadcast_op(&sys, opts.seed, i, Some(&tracer), &mut c)
    });
    report.attempted = untraced.attempted() + traced.attempted();
    report.failed = untraced.failed + traced.failed;
    let ops = traced.attempted() as f64;
    let per_op = |x: f64| x / ops;
    let sim_self_ms = tracer.self_ms(Layer::Sim);
    report.metrics = assemble(
        &PER_LAYER,
        &[
            ("sim.self_ms", per_op(sim_self_ms)),
            ("sim.events", per_op(c.events as f64)),
            ("sim.ns_per_event", sim_self_ms * 1e6 / c.events.max(1) as f64),
            ("blackbox.self_ms", per_op(tracer.self_ms(Layer::BlackBox))),
            ("blackbox.virtual_users", sys.config.virtual_count() as f64),
            ("bracha.callback_ms", per_op(tracer.total_ms(Layer::Bracha))),
            ("bracha.ticks", per_op(c.ticks as f64)),
            ("trace.overhead_pct", overhead_pct(&untraced.op_ms, &traced.op_ms)),
        ],
    );
    crate::write_trace(&tracer, opts, &mut report);
    report
}
