//! What every workload shares: run options, the closed loop, order
//! statistics, the metric lists and the result line.

use std::path::PathBuf;
use std::time::Instant;

/// Options of one benchmark run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Measured seconds (split evenly between the untraced and the traced
    /// pass when tracing).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub trace_path: Option<PathBuf>,
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A workload's result: counts, metrics and human-readable notes printed
/// before the result line.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted (warm-up excluded).
    pub attempted: u64,
    /// Operations whose correctness check failed.
    pub failed: u64,
    /// The metrics of this run: end-to-end untraced, per-layer traced.
    pub metrics: Vec<Metric>,
    /// Lines printed ahead of the result line.
    pub notes: Vec<String>,
}

/// End-to-end metrics: `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("ops_per_s", "1/s"),
    ("cost_per_party", "count"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`, in `BENCHMARK.json` order. A layer a
/// workload bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("solver.self_ms", "ms"),
    ("family.member_ms", "ms"),
    ("solver.candidates", "count"),
    ("solver.probes_saved", "count"),
    ("solver.cursor_advances", "count"),
    ("oracle.bound_ms", "ms"),
    ("oracle.checks", "count"),
    ("oracle.bound_settled_ratio", "ratio"),
    ("knapsack.dp_ms", "ms"),
    ("knapsack.dp_calls", "count"),
    ("epoch.dp_calls", "count"),
    ("epoch.cert_skips", "count"),
    ("epoch.coarse_cert_hits", "count"),
    ("epoch.cache_hits", "count"),
    ("epoch.cache_useful_ratio", "ratio"),
    ("epoch.cold_ms", "ms"),
    ("virtual_users.apply_delta_ms", "ms"),
    ("epoch.delta_tickets", "count"),
    ("sim.self_ms", "ms"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("blackbox.self_ms", "ms"),
    ("blackbox.virtual_users", "count"),
    ("bracha.callback_ms", "ms"),
    ("bracha.ticks", "count"),
    ("smr.callback_ms", "ms"),
    ("codec.encode_ms", "ms"),
    ("codec.decode_ms", "ms"),
    ("codec.bytes", "B"),
    ("transport.send_ms", "ms"),
    ("transport.recv_ms", "ms"),
    ("transport.send_full", "count"),
    ("transport.recv_hit_ratio", "ratio"),
    ("runtime.hop_us.p50", "us"),
    ("runtime.hop_us.tail", "us"),
    ("runtime.dropped", "count"),
    ("twin.replay_ms", "ms"),
    ("msgs_per_commit", "count"),
    ("bytes_per_commit", "B"),
    ("host.calib_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Builds the full metric list from `(name, value)` pairs: every listed
/// metric appears once, in list order, 0 where the workload did not set it.
///
/// # Panics
///
/// Panics on a name that is not in `list`.
pub fn assemble(list: &[(&'static str, &'static str)], values: &[(&str, f64)]) -> Vec<Metric> {
    for (name, _) in values {
        assert!(list.iter().any(|(n, _)| n == name), "unlisted metric {name}");
    }
    list.iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: values.iter().rev().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v),
        })
        .collect()
}

/// Median of `xs` (mean of the middle pair for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Samples per block of the tail estimate.
pub const TAIL_BLOCK: usize = 250;

/// The tail of `xs`. The samples are cut, in order, into blocks of
/// [`TAIL_BLOCK`] (a shorter remainder joins the last block); in each
/// block the tail is the highest sample with at least ten samples beyond
/// it, never below the block's median. The result is the median of the
/// block tails, so one stall of the host moves it less than a single
/// order statistic over the whole run. Returns `(value, percentile,
/// samples)`, the percentile being the share of its block at or below
/// the median block's tail.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    if xs.is_empty() {
        return (0.0, 0.0, 0);
    }
    let blocks = (xs.len() / TAIL_BLOCK).max(1);
    let mut tails: Vec<(f64, f64)> = (0..blocks)
        .map(|b| {
            let end = if b + 1 == blocks { xs.len() } else { (b + 1) * TAIL_BLOCK };
            let mut s = xs[b * TAIL_BLOCK..end].to_vec();
            s.sort_by(f64::total_cmp);
            let n = s.len();
            let ix = n.saturating_sub(11).max(n / 2);
            (s[ix], 100.0 * (ix + 1) as f64 / n as f64)
        })
        .collect();
    tails.sort_by(|a, b| a.0.total_cmp(&b.0));
    let values: Vec<f64> = tails.iter().map(|t| t.0).collect();
    (median(&values), tails[blocks / 2].1, xs.len())
}

/// One closed-loop operation's outcome.
#[derive(Debug, Clone, Copy)]
pub struct OpOutcome {
    /// Wall time of the timed interval, in milliseconds.
    pub ms: f64,
    /// Whether the correctness check passed.
    pub ok: bool,
    /// The workload's per-party cost of this operation.
    pub cost: f64,
}

/// The operations of one pass.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Timed interval of every operation, in milliseconds.
    pub op_ms: Vec<f64>,
    /// Operations whose check failed.
    pub failed: u64,
    /// Sum of per-operation costs.
    pub cost_sum: f64,
    /// Peak resident set size after a fixed number of operations, in MiB
    /// (see [`closed_loop`]).
    pub rss_mb: f64,
}

impl Pass {
    /// Operations run.
    pub fn attempted(&self) -> u64 {
        self.op_ms.len() as u64
    }

    /// Mean per-operation cost.
    pub fn cost(&self) -> f64 {
        self.cost_sum / self.op_ms.len().max(1) as f64
    }

    /// Operations per second of timed interval.
    pub fn ops_per_s(&self) -> f64 {
        let total_ms: f64 = self.op_ms.iter().sum();
        self.op_ms.len() as f64 * 1e3 / total_ms
    }
}

/// Runs `op(0)`, `op(1)`, ... one after another (each starts when the
/// previous one has been checked) until `seconds` of wall time have gone
/// by, and at least once. The peak resident set size is read once
/// `rss_after` operations completed (or at the end of a shorter pass), so
/// it measures a fixed amount of work however fast the host runs.
pub fn closed_loop(seconds: f64, rss_after: u64, mut op: impl FnMut(u64) -> OpOutcome) -> Pass {
    let start = Instant::now();
    let mut pass = Pass::default();
    for i in 0.. {
        let out = op(i);
        pass.op_ms.push(out.ms);
        pass.failed += u64::from(!out.ok);
        pass.cost_sum += out.cost;
        if i + 1 == rss_after {
            pass.rss_mb = peak_rss_mb();
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    if pass.attempted() < rss_after {
        pass.rss_mb = peak_rss_mb();
    }
    pass
}

/// Times `f`, in milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// Runs `setup` `reps` times, timing each, and returns the last result
/// with the median time in seconds.
pub fn repeated_setup<S>(reps: usize, mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let (s, ms) = timed(&mut setup);
        secs.push(ms / 1e3);
        last = Some(s);
    }
    (last.expect("at least one setup repetition"), median(&secs))
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 off Linux.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Mixes a workload seed with a stream index into an input seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The end-to-end names a workload's generic metrics stand for.
#[derive(Debug, Clone, Copy)]
pub struct Aliases {
    /// What one operation is.
    pub op: &'static str,
    /// Name of the per-operation latency.
    pub latency: &'static str,
    /// Name of the throughput.
    pub rate: &'static str,
    /// Name and unit of the per-party cost.
    pub cost: (&'static str, &'static str),
}

/// The end-to-end metrics of an untraced pass, plus one note per metric
/// under the workload's own name for it.
pub fn end_to_end(
    aliases: Aliases,
    op_ms: &[f64],
    ops_per_s: f64,
    cost: f64,
    setup_s: f64,
    rss: f64,
    report: &mut Report,
) {
    let (tail_ms, tail_pct, n) = tail(op_ms);
    let p50 = median(op_ms);
    report.metrics = assemble(
        &END_TO_END,
        &[
            ("op_ms.p50", p50),
            ("op_ms.tail", tail_ms),
            ("ops_per_s", ops_per_s),
            ("cost_per_party", cost),
            ("setup_s", setup_s),
            ("peak_rss_mb", rss),
        ],
    );
    let failed_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    report.notes.extend([
        format!("{}.p50 = {p50:.4} ms  (op_ms.p50, n = {n} {}s)", aliases.latency, aliases.op),
        format!(
            "{}.tail = {tail_ms:.4} ms  (op_ms.tail, p{tail_pct:.1} per block of at least {} samples, n = {n})",
            aliases.latency, TAIL_BLOCK
        ),
        format!("{} = {ops_per_s:.4} 1/s  (ops_per_s)", aliases.rate),
        format!("{} = {cost:.6} {}  (cost_per_party)", aliases.cost.0, aliases.cost.1),
        format!("setup_s = {setup_s:.6} s"),
        format!("peak_rss_mb = {rss:.1} MB (after a fixed number of {}s)", aliases.op),
        format!("failed_ratio = {failed_ratio} ({} of {})", report.failed, report.attempted),
    ]);
}

/// Tracing overhead: the traced pass's median operation against the
/// untraced pass's, in percent.
pub fn overhead_pct(untraced_ms: &[f64], traced_ms: &[f64]) -> f64 {
    (median(traced_ms) / median(untraced_ms) - 1.0) * 100.0
}

/// Renders the result line.
pub fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// A finite JSON number with every digit Rust prints for it.
fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    let s = format!("{v:?}");
    s.strip_suffix(".0").map_or(s.clone(), str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0, 100));
        // Two blocks of 250: one stall in the second block does not move
        // the median of the block tails past the stall-free block's.
        let mut long: Vec<f64> = (0..500).map(|i| f64::from(i % 250)).collect();
        long[400] = 1e9;
        assert_eq!(tail(&long).0, (239.0 + 240.0) / 2.0);
        let few: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&few).0, 3.0, "short runs fall back to the median sample");
        let even: Vec<f64> = (1..=6).map(f64::from).collect();
        assert!(tail(&even).0 >= median(&even), "the tail never reads below the median");
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn assemble_fills_every_listed_metric_once() {
        let m = assemble(&END_TO_END, &[("setup_s", 1.5)]);
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(m.iter().find(|m| m.name == "setup_s").map(|m| m.value), Some(1.5));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let report = Report {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric { name: "setup_s", value: 0.25, unit: "s" }],
            notes: Vec::new(),
        };
        assert_eq!(
            result_line(&report),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
