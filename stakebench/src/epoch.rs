//! `epoch-algorand`: one operation is one `Reconfigurator::advance` with a
//! WR(1/3, 1/2) and a WQ(1/3, 1/4) track on a chain replica, after 5% of
//! the parties drifted by up to ±5% stake. Each epoch's snapshot drifts
//! from the replica itself, not from the previous epoch: a random walk
//! would carry the distribution far from the replica over a long run
//! (one whale crossing W/3 collapses the WR total to one ticket), so the
//! workload would change with the run length. The cold first epoch is
//! set-up; the timed operations are the warm epochs after it.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use swiper::weights::epoch::{churn_with, ChurnMode, Reconfigurator, Setting};
use swiper::weights::Chain;
use swiper::{
    Ratio, SolveStats, Swiper, VirtualUsers, WeightQualification, WeightRestriction, Weights,
};

use crate::checks::{qualification_holds, restriction_holds};
use crate::harness::{
    assemble, closed_loop, end_to_end, mix, overhead_pct, repeated_setup, timed, Aliases,
    OpOutcome, Opts, Report, PER_LAYER,
};
use crate::trace::{Layer, Tracer};

/// The replayed chain.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Chain replica the epochs start from.
    pub chain: Chain,
}

impl Size {
    /// The benchmark's size: the Algorand replica (n = 42,920).
    pub const FULL: Size = Size { chain: Chain::Algorand };
}

const ALIASES: Aliases = Aliases {
    op: "epoch",
    latency: "epoch_ms",
    rate: "epochs_per_s",
    cost: ("tickets_per_party", "WR tickets"),
};

/// Share of parties whose stake drifts each epoch, in percent.
const CHURN_PCT: usize = 5;
/// Largest per-party drift, in percent.
const DRIFT_PCT: u64 = 5;
/// Operations after which the peak resident set size is read.
const RSS_AFTER: u64 = 200;
/// Set-up repetitions.
const SETUP_REPS: usize = 9;

fn wr() -> WeightRestriction {
    WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).expect("valid parameters")
}

fn wq() -> WeightQualification {
    WeightQualification::new(Ratio::of(1, 3), Ratio::of(1, 4)).expect("valid parameters")
}

/// The operator's live state: the loop, the replica, the current
/// snapshot and one virtual-user mapping per track, spliced by each
/// epoch's deltas.
struct Live {
    reconf: Reconfigurator,
    base: Weights,
    snapshot: Weights,
    mappings: Vec<VirtualUsers>,
    rng: StdRng,
}

/// Builds the replica, runs the cold first epoch and maps its tickets.
fn bootstrap(size: Size, seed: u64) -> (Live, f64) {
    let w0 = size.chain.weights();
    let settings = vec![Setting::Restriction(wr()), Setting::Qualification(wq())];
    let mut reconf = Reconfigurator::new(Swiper::new(), settings);
    let (first, cold_ms) = timed(|| reconf.advance(&w0).expect("cold epoch solvable"));
    let mappings = first
        .solutions
        .iter()
        .map(|s| VirtualUsers::from_assignment(&s.assignment).expect("mapping fits"))
        .collect();
    let rng = StdRng::seed_from_u64(mix(seed, 1));
    let live = Live { reconf, base: w0.clone(), snapshot: w0, mappings, rng };
    (live, cold_ms)
}

/// Per-pass counters read from each epoch's outcome.
#[derive(Default)]
struct Counters {
    stats: SolveStats,
    delta_tickets: u128,
}

/// Drifts the snapshot, advances one epoch (timed), then splices the
/// deltas and checks every published assignment.
fn epoch_op(live: &mut Live, tracer: Option<&Arc<Tracer>>, c: &mut Counters) -> OpOutcome {
    let churned = (live.base.len() * CHURN_PCT).div_ceil(100);
    live.snapshot = churn_with(ChurnMode::Drift, &live.base, churned, DRIFT_PCT, &mut live.rng);
    let (outcome, ms) = timed(|| match tracer {
        None => live.reconf.advance(&live.snapshot),
        Some(t) => t.time(Layer::Epoch, || live.reconf.advance(&live.snapshot)),
    });
    let outcome = outcome.expect("epoch solvable");
    c.stats.absorb(&outcome.stats());
    let mut ok = restriction_holds(&live.snapshot, &outcome.solutions[0].assignment, &wr())
        && qualification_holds(&live.snapshot, &outcome.solutions[1].assignment, &wq());
    for (track, mapping) in live.mappings.iter_mut().enumerate() {
        let Some(delta) = outcome.delta(track) else {
            ok = false;
            continue;
        };
        c.delta_tickets += delta.joining() + delta.leaving();
        let spliced = match tracer {
            None => mapping.apply_delta(delta),
            Some(t) => t.time(Layer::ApplyDelta, || mapping.apply_delta(delta)),
        };
        ok &= spliced.is_ok()
            && VirtualUsers::from_assignment(&outcome.solutions[track].assignment)
                .is_ok_and(|fresh| fresh == *mapping);
    }
    let cost = outcome.solutions[0].total_tickets() as f64 / live.snapshot.len() as f64;
    OpOutcome { ms, ok, cost }
}

/// Runs the workload.
pub fn run(size: Size, opts: &Opts) -> Report {
    let (mut live, setup_s) = repeated_setup(SETUP_REPS, || bootstrap(size, opts.seed).0);
    // Warm-up: the first warm epoch is untimed and unchecked.
    epoch_op(&mut live, None, &mut Counters::default());
    let mut report = Report::default();
    if !opts.trace {
        let pass = closed_loop(opts.seconds, RSS_AFTER, |_| {
            epoch_op(&mut live, None, &mut Counters::default())
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

    // Traced run: both passes replay the same snapshot stream from a
    // fresh loop, warm-up epoch included; the set-up loop serves the
    // untraced pass.
    let half = opts.seconds / 2.0;
    let untraced =
        closed_loop(half, RSS_AFTER, |_| epoch_op(&mut live, None, &mut Counters::default()));
    let tracer = Tracer::new();
    let (mut traced_live, cold_ms) = bootstrap(size, opts.seed);
    epoch_op(&mut traced_live, None, &mut Counters::default());
    let mut c = Counters::default();
    let traced = closed_loop(half, RSS_AFTER, |i| {
        tracer.set_op(i);
        epoch_op(&mut traced_live, Some(&tracer), &mut c)
    });
    report.attempted = untraced.attempted() + traced.attempted();
    report.failed = untraced.failed + traced.failed;
    let ops = traced.attempted() as f64;
    let per_op = |x: f64| x / ops;
    let s = c.stats;
    let checks = s.cache_lookups() + s.certificate_skips + s.coarse_cert_hits;
    report.metrics = assemble(
        &PER_LAYER,
        &[
            ("solver.candidates", per_op(s.candidates_checked as f64)),
            ("solver.probes_saved", per_op(s.probes_saved as f64)),
            ("solver.cursor_advances", per_op(s.cursor_advances as f64)),
            ("knapsack.dp_calls", per_op(s.dp_invocations as f64)),
            ("epoch.dp_calls", per_op(s.dp_invocations as f64)),
            ("epoch.cert_skips", per_op(s.certificate_skips as f64)),
            ("epoch.coarse_cert_hits", per_op(s.coarse_cert_hits as f64)),
            ("epoch.cache_hits", per_op(s.cache_hits as f64)),
            (
                "epoch.cache_useful_ratio",
                (s.cache_hits + s.certificate_skips + s.coarse_cert_hits) as f64
                    / checks.max(1) as f64,
            ),
            ("epoch.cold_ms", cold_ms),
            ("virtual_users.apply_delta_ms", per_op(tracer.total_ms(Layer::ApplyDelta))),
            ("epoch.delta_tickets", per_op(c.delta_tickets as f64)),
            ("trace.overhead_pct", overhead_pct(&untraced.op_ms, &traced.op_ms)),
        ],
    );
    crate::write_trace(&tracer, opts, &mut report);
    report
}
