//! `solve-cold-1m`: one operation is a cold `Swiper::solve_restriction`
//! of WR(1/3, 1/2) on a fresh seeded `gen::whale_mix` population. No
//! cache, certificate or warm hint is used: every solve gets a new
//! `FullOracle`.

use std::sync::Arc;

use swiper::core::FullOracle;
use swiper::weights::gen;
use swiper::{Ratio, Solution, Swiper, WeightRestriction, Weights};

use crate::checks::solution_holds;
use crate::harness::{
    assemble, closed_loop, end_to_end, mix, overhead_pct, repeated_setup, timed, Aliases,
    OpOutcome, Opts, Report, PER_LAYER,
};
use crate::trace::{Layer, TimedOracle, Tracer};

/// Population size of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Parties per population.
    pub n: usize,
}

impl Size {
    /// The benchmark's size: a million parties.
    pub const FULL: Size = Size { n: 1_000_000 };
}

const ALIASES: Aliases = Aliases {
    op: "solve",
    latency: "solve_ms",
    rate: "solves_per_s",
    cost: ("tickets_per_party", "tickets"),
};

/// Operations after which the peak resident set size is read.
const RSS_AFTER: u64 = 5;
/// Set-up repetitions.
const SETUP_REPS: usize = 5;

pub(crate) fn params() -> WeightRestriction {
    WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).expect("valid parameters")
}

/// The population of operation `i`: whales are 0.01% of parties (at
/// least 8), as in the repository's scaling sweep.
pub(crate) fn population(size: Size, seed: u64, i: u64) -> Weights {
    gen::whale_mix(size.n, (size.n / 10_000).max(8), mix(seed, i))
}

/// Counters one traced pass accumulates beside the spans.
#[derive(Default)]
struct Counters {
    candidates: u64,
    probes_saved: u64,
    cursor_advances: u64,
    checks: u64,
    dp_checks: u64,
}

/// Solves operation `i`'s population (with tracing when `tracer` is
/// set) and checks the result.
fn solve_op(
    w: &Weights,
    p: &WeightRestriction,
    tracer: Option<&Arc<Tracer>>,
    counters: &mut Counters,
) -> OpOutcome {
    let (sol, ms): (Solution, f64) = match tracer {
        None => timed(|| Swiper::new().solve_restriction(w, p).expect("solvable")),
        Some(t) => {
            let mut oracle = TimedOracle::new(FullOracle::new(), Arc::clone(t));
            let out = timed(|| {
                t.time(Layer::Solver, || {
                    Swiper::new().solve_restriction_with(&mut oracle, w, p).expect("solvable")
                })
            });
            let total = u64::try_from(out.0.total_tickets()).expect("total fits u64");
            t.time(Layer::Family, || {
                Swiper::new().restriction_family_member(w, p, total).expect("member exists")
            });
            counters.checks += oracle.checks;
            counters.dp_checks += oracle.dp_checks;
            out
        }
    };
    counters.candidates += sol.stats.candidates_checked;
    counters.probes_saved += sol.stats.probes_saved;
    counters.cursor_advances += sol.stats.cursor_advances;
    OpOutcome {
        ms,
        ok: solution_holds(w, &sol, p),
        cost: sol.total_tickets() as f64 / w.len() as f64,
    }
}

/// Runs the workload.
pub fn run(size: Size, opts: &Opts) -> Report {
    let p = params();
    // Set-up builds the first operation's population; it feeds that
    // operation.
    let (first, setup_s) = repeated_setup(SETUP_REPS, || population(size, opts.seed, 0));
    let mut first = Some(first);
    // Warm-up: one untimed, unchecked solve on a population of its own.
    let warm = population(size, opts.seed, u64::MAX);
    std::hint::black_box(Swiper::new().solve_restriction(&warm, &p).expect("solvable"));
    drop(warm);

    let mut input =
        |i: u64| -> Weights { first.take().unwrap_or_else(|| population(size, opts.seed, i)) };
    let mut report = Report::default();
    if !opts.trace {
        let pass = closed_loop(opts.seconds, RSS_AFTER, |i| {
            solve_op(&input(i), &p, None, &mut Counters::default())
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

    // Traced run: an untraced and a traced pass over the same inputs.
    let half = opts.seconds / 2.0;
    let mut inputs: Vec<Weights> = Vec::new();
    let untraced = closed_loop(half, RSS_AFTER, |i| {
        let w = input(i);
        let out = solve_op(&w, &p, None, &mut Counters::default());
        inputs.push(w);
        out
    });
    let tracer = Tracer::new();
    let mut c = Counters::default();
    let traced = closed_loop(half, RSS_AFTER, |i| {
        tracer.set_op(i);
        let w = match inputs.get(i as usize) {
            Some(w) => w.clone(),
            None => population(size, opts.seed, i),
        };
        solve_op(&w, &p, Some(&tracer), &mut c)
    });
    report.attempted = untraced.attempted() + traced.attempted();
    report.failed = untraced.failed + traced.failed;
    let ops = traced.attempted() as f64;
    let per_op = |x: f64| x / ops;
    report.metrics = assemble(
        &PER_LAYER,
        &[
            ("solver.self_ms", per_op(tracer.self_ms(Layer::Solver))),
            ("family.member_ms", per_op(tracer.total_ms(Layer::Family))),
            ("solver.candidates", per_op(c.candidates as f64)),
            ("solver.probes_saved", per_op(c.probes_saved as f64)),
            ("solver.cursor_advances", per_op(c.cursor_advances as f64)),
            ("oracle.bound_ms", per_op(tracer.total_ms(Layer::OracleBound))),
            ("oracle.checks", per_op(c.checks as f64)),
            (
                "oracle.bound_settled_ratio",
                (c.checks - c.dp_checks) as f64 / c.checks.max(1) as f64,
            ),
            ("knapsack.dp_ms", per_op(tracer.total_ms(Layer::OracleDp))),
            ("knapsack.dp_calls", per_op(c.dp_checks as f64)),
            ("trace.overhead_pct", overhead_pct(&untraced.op_ms, &traced.op_ms)),
        ],
    );
    crate::write_trace(&tracer, opts, &mut report);
    report
}
