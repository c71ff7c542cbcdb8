//! Shared experiment plumbing for the table/figure binaries.
//!
//! Each binary under `src/bin/` regenerates one artifact of the paper's
//! evaluation on the substituted inputs listed under "Substitutions" in
//! `docs/ARCHITECTURE.md`; this library holds the parameter sets,
//! measurement records, table/CSV writers and the `BENCH_*.json` row
//! schemas they share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::{self, Write as _};
use std::fs;
use std::path::Path;

use swiper_core::{
    Mode, Ratio, Solution, Swiper, TicketAssignment, WeightQualification, WeightRestriction,
    WeightSeparation, Weights,
};

/// The WR/WQ parameter pairs of Table 2 (each WR pair `(aw, an)` is the
/// Theorem 2.2 mirror of the WQ pair `(1-aw, 1-an)` printed below it).
pub fn table2_wr_settings() -> Vec<(Ratio, Ratio)> {
    vec![
        (Ratio::of(1, 4), Ratio::of(1, 3)),
        (Ratio::of(1, 3), Ratio::of(3, 8)),
        (Ratio::of(1, 3), Ratio::of(1, 2)),
        (Ratio::of(2, 3), Ratio::of(3, 4)),
    ]
}

/// The WS parameter pairs of Table 2.
pub fn table2_ws_settings() -> Vec<(Ratio, Ratio)> {
    vec![
        (Ratio::of(1, 4), Ratio::of(1, 3)),
        (Ratio::of(1, 3), Ratio::of(1, 2)),
        (Ratio::of(2, 3), Ratio::of(3, 4)),
    ]
}

/// The `(alpha_w, alpha_n)` pairs tracked in the right-hand columns of
/// Figures 1–5.
pub fn figure_pairs() -> Vec<(Ratio, Ratio)> {
    table2_wr_settings()
}

/// Measurements of one solver run.
#[derive(Debug, Clone, Copy)]
pub struct SolveMeasurement {
    /// Total tickets allocated.
    pub total_tickets: u128,
    /// Largest per-party allocation.
    pub max_tickets: u64,
    /// Parties holding at least one ticket.
    pub holders: usize,
    /// The theoretical bound for the instance.
    pub bound: u64,
}

/// Runs Weight Restriction and extracts the figure metrics.
///
/// # Panics
///
/// Panics when the instance is infeasible (the harness constructs only
/// feasible ones).
pub fn measure_wr(
    weights: &Weights,
    alpha_w: Ratio,
    alpha_n: Ratio,
    mode: Mode,
) -> SolveMeasurement {
    let params = WeightRestriction::new(alpha_w, alpha_n).expect("feasible parameters");
    let sol = Swiper::with_mode(mode).solve_restriction(weights, &params).expect("solvable");
    measurement_of(&sol.assignment, sol.ticket_bound)
}

/// Runs Weight Qualification (via the Theorem 2.2 reduction).
///
/// # Panics
///
/// Panics when the instance is infeasible.
pub fn measure_wq(
    weights: &Weights,
    beta_w: Ratio,
    beta_n: Ratio,
    mode: Mode,
) -> SolveMeasurement {
    let params = WeightQualification::new(beta_w, beta_n).expect("feasible parameters");
    let sol = Swiper::with_mode(mode).solve_qualification(weights, &params).expect("solvable");
    measurement_of(&sol.assignment, sol.ticket_bound)
}

/// Runs Weight Separation.
///
/// # Panics
///
/// Panics when the instance is infeasible.
pub fn measure_ws(
    weights: &Weights,
    alpha: Ratio,
    beta: Ratio,
    mode: Mode,
) -> SolveMeasurement {
    let params = WeightSeparation::new(alpha, beta).expect("feasible parameters");
    let sol = Swiper::with_mode(mode).solve_separation(weights, &params).expect("solvable");
    measurement_of(&sol.assignment, sol.ticket_bound)
}

fn measurement_of(t: &TicketAssignment, bound: u64) -> SolveMeasurement {
    SolveMeasurement {
        total_tickets: t.total(),
        max_tickets: t.max_tickets(),
        holders: t.holders(),
        bound,
    }
}

impl From<&Solution> for SolveMeasurement {
    fn from(sol: &Solution) -> Self {
        measurement_of(&sol.assignment, sol.ticket_bound)
    }
}

/// Wall-clock floor below which timing rows are treated as noise and not
/// regression-gated.
pub const BENCH_WALL_FLOOR_MS: u128 = 250;

/// Percent by which a wall time at or above [`BENCH_WALL_FLOOR_MS`] may
/// exceed its baseline before the gate flags it.
pub const BENCH_WALL_TOL_PCT: u128 = 20;

/// Population size from which the overlay-beats-flooding economy gate
/// applies: below it the log-degree overlay and the mesh are too close
/// for the comparison to be meaningful.
pub const GOSSIP_ECONOMY_FLOOR_N: u128 = 256;

/// One value of a benchmark row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A label, e.g. a case, chain or protocol name.
    Text(String),
    /// A counter, size or measurement (`u128` so ticket totals fit).
    Num(u128),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Text(s) => f.write_str(s),
            Value::Num(v) => write!(f, "{v}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Num(v.into())
    }
}

impl From<u128> for Value {
    fn from(v: u128) -> Self {
        Value::Num(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Num(v as u128)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Num(v.into())
    }
}

/// What the regression gate does with one field of a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Part of the row identity: a baseline row pairs with the fresh row
    /// whose identity fields all agree.
    Id,
    /// Must equal the baseline (a seed-deterministic counter or status).
    Exact,
    /// Exact on rows whose text field `.0` is `.1`, informational on the
    /// others.
    ExactIf(&'static str, &'static str),
    /// Exact on rows whose text field `.0` is not `.1`, informational on
    /// the others.
    ExactUnless(&'static str, &'static str),
    /// Wall-clock milliseconds: regresses when both sides reach
    /// [`BENCH_WALL_FLOOR_MS`] and the fresh value exceeds the baseline by
    /// more than [`BENCH_WALL_TOL_PCT`] percent.
    Wall,
    /// Recorded, never gated.
    Info,
}

use Role::{Exact, ExactIf, ExactUnless, Id, Info, Wall};

/// One declared column of a schema.
#[derive(Debug, Clone, Copy)]
struct Field {
    /// Column name as written in the document.
    name: &'static str,
    /// Whether the column holds text (otherwise a number).
    text: bool,
    /// How the gate treats the column.
    role: Role,
}

const fn text(name: &'static str, role: Role) -> Field {
    Field { name, text: true, role }
}

const fn num(name: &'static str, role: Role) -> Field {
    Field { name, text: false, role }
}

/// A check every fresh row must pass, baseline or not: `Some(reason)`
/// when the row violates it.
type Invariant = fn(&Row) -> Option<String>;

/// The layout and regression gate of one `BENCH_*.json` document: a
/// schema header plus one row object per line, every row carrying every
/// declared field in declaration order. Line-oriented so plain `diff`
/// stays useful; hand-rolled because the vendored serde shim is
/// marker-only.
#[derive(Debug)]
pub struct Schema {
    /// Schema tag written into (and required from) the document.
    tag: &'static str,
    /// Benchmark family: the `bench` value every row starts with (part of
    /// the row identity) and the name the gate reports under.
    bench: &'static str,
    /// The columns after `bench`, in document order.
    fields: &'static [Field],
    /// Checks held against every fresh row.
    invariants: &'static [Invariant],
}

/// One row of a benchmark document: every field of its [`Schema`], in
/// declaration order. Built only by [`Schema::row`] and [`Schema::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row(Vec<(&'static str, Value)>);

impl Row {
    /// The value of field `key`; panics when the schema declares no such
    /// field.
    fn get(&self, key: &str) -> &Value {
        let field = self.0.iter().find(|(k, _)| *k == key);
        field.map(|(_, v)| v).unwrap_or_else(|| panic!("bench row has no field `{key}`"))
    }

    /// The numeric field `key`.
    ///
    /// # Panics
    ///
    /// Panics when the field is undeclared or holds text.
    pub fn num(&self, key: &str) -> u128 {
        match self.get(key) {
            Value::Num(v) => *v,
            Value::Text(_) => panic!("bench field `{key}` holds text"),
        }
    }

    /// The text field `key`.
    ///
    /// # Panics
    ///
    /// Panics when the field is undeclared or holds a number.
    pub fn text(&self, key: &str) -> &str {
        match self.get(key) {
            Value::Text(s) => s,
            Value::Num(_) => panic!("bench field `{key}` holds a number"),
        }
    }
}

/// `BENCH_solver.json`: the million-party solver sweep (`solver_scale`).
/// Counters are bit-deterministic for a given seed and code version;
/// wall time and RSS are environmental.
pub const SOLVER: Schema = Schema {
    tag: "swiper-bench-solver/v1",
    bench: "solver_scale",
    fields: &[
        // `cold` / `warm` / `certified`.
        text("case", Id),
        // Population size.
        num("n", Id),
        // Weight-generator seed: a row is reproducible from
        // `(bench, case, n, seed)` alone.
        num("seed", Info),
        num("wall_ms", Wall),
        // Total tickets allocated by the published solution.
        num("tickets", Exact),
        // Exact-DP invocations across the run.
        num("dp_invocations", Exact),
        // Checks settled by replaying a delta-stable certificate.
        num("certificate_skips", Exact),
        // Family members materialized and checked.
        num("candidates_checked", Exact),
        // Probes answered by the incremental family cursor reusing its
        // interval state instead of rebuilding candidates from scratch.
        num("cursor_advances", Exact),
        // Estimated probes the sampling-guided bracket avoided versus a
        // cold bisection of the full `[0, bound]` range.
        num("probes_saved", Exact),
        // Checks settled by a certificate stored under a nearby total
        // (coarse key); disjoint from `certificate_skips`.
        num("coarse_cert_hits", Exact),
        // Growth of the process peak RSS (`VmHWM`) across the cell's
        // measured phase, kB: a cell that fits inside an earlier cell's
        // peak reports 0, never an inherited peak; 0 without `/proc`.
        num("peak_rss_kb", Info),
    ],
    invariants: &[certificates_hit_at_scale],
};

/// The certified warm replay at n = 10⁶ must settle checks from
/// certificates: zero there means the coarse certificate index stopped
/// hitting at scale.
fn certificates_hit_at_scale(r: &Row) -> Option<String> {
    let settled = r.num("certificate_skips").saturating_add(r.num("coarse_cert_hits"));
    (r.text("case") == "certified" && r.num("n") == 1_000_000 && settled == 0).then(|| {
        "certified warm replay settled zero checks from certificates \
         (certificate_skips + coarse_cert_hits == 0): the coarse certificate index \
         stopped hitting at scale"
            .to_string()
    })
}

/// `BENCH_epochs.json`: chain × churn replays through the incremental
/// re-solve loop (`epochs`). The replay is seed-deterministic, so the
/// solver-work counters are exact.
pub const EPOCHS: Schema = Schema {
    tag: "swiper-bench-epochs/v1",
    bench: "epochs",
    fields: &[
        // Chain the snapshot stream replayed, e.g. `Aptos`.
        text("chain", Id),
        // Churned parties per epoch, percent of the population.
        num("churn_pct", Id),
        // Epochs replayed.
        num("epochs", Exact),
        // Epochs where the warm bracket settled on a different (equally
        // valid) local minimum than cold bisection — a legitimate degree
        // of freedom of the accelerated path, so never gated.
        num("bracket_divergence", Info),
        // Certificate skips across the replay (exact-total key).
        num("cert_skips", Exact),
        // Warm-pass DP invocations with certificates on.
        num("warm_dp", Exact),
        // Warm-pass DP invocations with certificates off.
        num("plain_dp", Exact),
        // Fresh cold-solve DP invocations (the no-machinery yardstick).
        num("cold_dp", Exact),
        // Verdict-cache hit rate over the replay, rounded percent.
        num("hit_rate_pct", Exact),
    ],
    invariants: &[],
};

/// `BENCH_runtime.json`: protocol chains driven to quiescence on the
/// threaded runtime and replay-checked against the simulator twin
/// (`runtime_scale`). Message counts, latency and RSS follow the OS
/// schedule and are informational.
pub const RUNTIME: Schema = Schema {
    tag: "swiper-bench-runtime/v1",
    bench: "runtime_scale",
    fields: &[
        // `bracha` / `aba` / `smr`.
        text("protocol", Id),
        // `channel` (in-process inboxes) or `socket` (loopback TCP through
        // the wire codecs): the two backends have separate trajectories.
        text("transport", Id),
        num("n", Id),
        // Worker threads the runtime ran with.
        num("workers", Id),
        num("wall_ms", Wall),
        // Protocol-level progress at quiescence (deliveries, decisions or
        // committed rounds), schedule-independent for an honest chain.
        num("commits", Exact),
        // Commit throughput, rounded per second.
        num("commits_per_sec", Info),
        // Messages delivered (schedule-dependent for halting protocols).
        num("msgs", Info),
        num("msgs_per_sec", Info),
        // Send→process latency percentiles, microseconds.
        num("p50_us", Info),
        num("p95_us", Info),
        num("p99_us", Info),
        // Resident set size sampled at quiescence (`VmRSS`, workers
        // joined, before the twin replay), kB; the process `VmHWM` peak
        // when `VmRSS` is unavailable.
        num("peak_rss_kb", Info),
        // 1 when the delivery trace replayed bit-identically on the
        // simulator twin; a flip means the determinism contract broke.
        num("twin_ok", Exact),
    ],
    invariants: &[],
};

/// `BENCH_gossip.json`: weighted Bracha over a dissemination backend on
/// one substrate (`gossip_scale`). Simulator rows are seed-deterministic,
/// so their counters are exact; threaded rows gate reach and twin status,
/// everything else being OS-schedule noise.
pub const GOSSIP: Schema = Schema {
    tag: "swiper-bench-gossip/v1",
    bench: "gossip_scale",
    fields: &[
        // `overlay` (partial-view gossip) or `fullmesh` (the flood
        // yardstick).
        text("backend", Id),
        // `sim` (seeded simulator), `threaded` or `socket` (runtime over
        // channels or loopback TCP).
        text("substrate", Id),
        num("n", Id),
        // Overlay view construction and delay-schedule seed.
        num("seed", Id),
        num("wall_ms", Wall),
        // Nodes that delivered the payload, percent of the population.
        num("reach_pct", Exact),
        // Maximum eager-hop count observed: rounds to full delivery.
        num("rounds", ExactIf("substrate", "sim")),
        // Messages sent (overlay control and data frames).
        num("msgs", ExactIf("substrate", "sim")),
        // Unique first-receipt payload deliveries across the fleet.
        num("deliveries", ExactIf("substrate", "sim")),
        // Messages per delivery, fixed-point ×100 (`1042` = 10.42).
        num("msgs_per_delivery_x100", ExactIf("substrate", "sim")),
        // The n²-flood yardstick in the same unit: `n` messages per
        // delivery.
        num("baseline_msgs_per_delivery", Info),
        // Mean active-view degree, fixed-point ×100.
        num("mean_degree_x100", ExactIf("substrate", "sim")),
        // Send→process latency percentiles, microseconds (0 on `sim`).
        num("p50_us", Info),
        num("p95_us", Info),
        num("p99_us", Info),
        // 1 when the delivery trace replayed bit-identically on the
        // simulator twin (`sim` rows write 1).
        num("twin_ok", ExactUnless("substrate", "sim")),
    ],
    invariants: &[reaches_everyone, overlay_beats_the_flood],
};

fn reaches_everyone(r: &Row) -> Option<String> {
    let reach = r.num("reach_pct");
    (reach != 100).then(|| format!("reach {reach}% != 100%"))
}

/// At `n >= `[`GOSSIP_ECONOMY_FLOOR_N`] overlay rows must spend strictly
/// fewer messages per delivery than the n²-flood baseline.
fn overlay_beats_the_flood(r: &Row) -> Option<String> {
    let (cost, flood) = (r.num("msgs_per_delivery_x100"), r.num("baseline_msgs_per_delivery"));
    let pricey = cost >= flood.saturating_mul(100);
    (r.text("backend") == "overlay" && r.num("n") >= GOSSIP_ECONOMY_FLOOR_N && pricey).then(
        || {
            format!(
                "msgs/delivery {}.{:02} does not beat the n²-flood baseline of {flood}",
                cost / 100,
                cost % 100
            )
        },
    )
}

/// Whether a wall time regressed: both sides at or above
/// [`BENCH_WALL_FLOOR_MS`] and the fresh one more than
/// [`BENCH_WALL_TOL_PCT`] percent over the baseline.
fn wall_regressed(was: u128, now: u128) -> bool {
    was >= BENCH_WALL_FLOOR_MS
        && now >= BENCH_WALL_FLOOR_MS
        && now.saturating_mul(100) > was.saturating_mul(100 + BENCH_WALL_TOL_PCT)
}

impl Schema {
    /// Builds a row from `(field, value)` pairs in any order; `bench` is
    /// implied by the schema.
    ///
    /// # Panics
    ///
    /// Panics when a declared field is missing, a field is undeclared or
    /// given twice, a value has the wrong kind, or text holds `"` or `\`.
    pub fn row<const N: usize>(&self, pairs: [(&str, Value); N]) -> Row {
        self.assemble(pairs).unwrap_or_else(|e| panic!("{} row: {e}", self.bench))
    }

    fn assemble<'k>(
        &self,
        pairs: impl IntoIterator<Item = (&'k str, Value)>,
    ) -> Result<Row, String> {
        let mut slots: Vec<Option<Value>> = vec![None; self.fields.len()];
        for (key, value) in pairs {
            let i = self.fields.iter().position(|f| f.name == key);
            let i = i.ok_or_else(|| format!("undeclared field `{key}`"))?;
            match &value {
                Value::Text(s) if !self.fields[i].text => {
                    return Err(format!("field `{key}`: `{s}` is not a number"));
                }
                Value::Num(_) if self.fields[i].text => {
                    return Err(format!("field `{key}`: expected text"));
                }
                Value::Text(s) if s.contains(['"', '\\']) => {
                    return Err(format!("field `{key}`: text must not hold `\"` or `\\`"));
                }
                _ => {}
            }
            if slots[i].replace(value).is_some() {
                return Err(format!("field `{key}` given twice"));
            }
        }
        let fields = self.fields.iter().zip(slots);
        fields
            .map(|(f, v)| {
                v.map(|v| (f.name, v)).ok_or_else(|| format!("missing field `{}`", f.name))
            })
            .collect::<Result<_, _>>()
            .map(Row)
    }

    fn header(&self) -> String {
        format!("{{\n  \"schema\": \"{}\",\n  \"rows\": [\n", self.tag)
    }

    /// Serializes rows as this schema's document.
    pub fn render(&self, rows: &[Row]) -> String {
        let mut out = self.header();
        for (i, row) in rows.iter().enumerate() {
            let _ = write!(out, "    {{\"bench\":\"{}\"", self.bench);
            for (key, value) in &row.0 {
                let _ = match value {
                    Value::Text(s) => write!(out, ",\"{key}\":\"{s}\""),
                    Value::Num(v) => write!(out, ",\"{key}\":{v}"),
                };
            }
            out.push_str(if i + 1 == rows.len() { "}\n" } else { "},\n" });
        }
        out + "  ]\n}\n"
    }

    /// Parses a document produced by [`Schema::render`]. Strict: every row
    /// must carry this schema's `bench` and exactly the declared fields,
    /// numbers must be plain `u128` digits.
    ///
    /// # Errors
    ///
    /// Returns a description, naming the row and field, of the first
    /// deviation.
    pub fn parse(&self, doc: &str) -> Result<Vec<Row>, String> {
        let body = doc
            .strip_prefix(self.header().as_str())
            .ok_or_else(|| format!("missing or unexpected schema header (want {})", self.tag))?
            .strip_suffix("  ]\n}\n")
            .ok_or("document does not end with the closed rows array")?;
        let lines: Vec<&str> = body.lines().collect();
        let open = format!("    {{\"bench\":\"{}\"", self.bench);
        let rows = lines.iter().enumerate().map(|(i, line)| {
            let close = if i + 1 == lines.len() { "}" } else { "}," };
            let fields = line.strip_prefix(open.as_str()).and_then(|l| l.strip_suffix(close));
            let fields =
                fields.ok_or_else(|| format!("row {}: want `{open}…{close}`", i + 1))?;
            self.parse_fields(fields).map_err(|e| format!("row {}: {e}", i + 1))
        });
        rows.collect()
    }

    fn parse_fields(&self, mut rest: &str) -> Result<Row, String> {
        let mut pairs = Vec::new();
        while let Some(tail) = rest.strip_prefix(",\"") {
            let (key, tail) = tail.split_once("\":").ok_or("malformed field")?;
            let (value, tail) = match tail.strip_prefix('"') {
                Some(t) => {
                    let (s, t) = t
                        .split_once('"')
                        .ok_or_else(|| format!("field `{key}`: unclosed text"))?;
                    (Value::Text(s.to_string()), t)
                }
                None => {
                    let (raw, t) = tail.split_at(tail.find(',').unwrap_or(tail.len()));
                    if raw.is_empty() || !raw.bytes().all(|b| b.is_ascii_digit()) {
                        return Err(format!("field `{key}`: `{raw}` is not a number"));
                    }
                    let v = raw
                        .parse()
                        .map_err(|_| format!("field `{key}`: {raw} out of range"))?;
                    (Value::Num(v), t)
                }
            };
            pairs.push((key, value));
            rest = tail;
        }
        if !rest.is_empty() {
            return Err(format!("malformed field list at `{rest}`"));
        }
        self.assemble(pairs)
    }

    /// `bench/` followed by the row's identity fields: text as is,
    /// numbers as `name=value`.
    fn id(&self, row: &Row) -> String {
        let mut id = self.bench.to_string();
        for (field, (key, value)) in self.fields.iter().zip(&row.0) {
            let _ = match (field.role, value) {
                (Id, Value::Text(s)) => write!(id, "/{s}"),
                (Id, Value::Num(v)) => write!(id, "/{key}={v}"),
                _ => Ok(()),
            };
        }
        id
    }

    /// Whether a fresh run produced a row with `row`'s identity.
    pub fn covers(&self, fresh: &[Row], row: &Row) -> bool {
        let id = self.id(row);
        fresh.iter().any(|r| self.id(r) == id)
    }

    /// Compares fresh rows against baseline rows by their fields' roles
    /// and holds every fresh row to the schema's invariants. Returns
    /// human-readable problems (empty = pass). Baseline rows missing from
    /// the fresh run are problems; extra fresh rows are not.
    pub fn diff(&self, baseline: &[Row], fresh: &[Row]) -> Vec<String> {
        let mut problems = Vec::new();
        for old in baseline {
            let id = self.id(old);
            let Some(new) = fresh.iter().find(|r| self.id(r) == id) else {
                problems.push(format!("row {id} missing from fresh run"));
                continue;
            };
            for (field, ((name, was), (_, now))) in
                self.fields.iter().zip(old.0.iter().zip(&new.0))
            {
                let exact = match field.role {
                    Exact => true,
                    ExactIf(key, value) => old.text(key) == value,
                    ExactUnless(key, value) => old.text(key) != value,
                    Id | Wall | Info => false,
                };
                if exact && was != now {
                    problems.push(format!("{id}: {name} changed {was} -> {now}"));
                }
                if field.role == Wall && wall_regressed(old.num(name), new.num(name)) {
                    let (was, now, tol) = (old.num(name), new.num(name), BENCH_WALL_TOL_PCT);
                    problems.push(format!("{id}: {name} regressed {was} -> {now} (> {tol}%)"));
                }
            }
        }
        for row in fresh {
            for check in self.invariants {
                if let Some(why) = check(row) {
                    problems.push(format!("{}: {why}", self.id(row)));
                }
            }
        }
        problems
    }

    /// Renders every field of `rows` as an aligned terminal table.
    pub fn table(&self, rows: &[Row]) -> String {
        let mut table = TextTable::new(self.fields.iter().map(|f| f.name).collect());
        for row in rows {
            table.row(row.0.iter().map(|(_, v)| v.to_string()).collect());
        }
        table.render()
    }

    /// The regression gate every sweep binary ends with: parses the `diff`
    /// baseline (if given) before anything is written, writes `fresh` to
    /// `out` (if given), diffs the baseline rows `in_scope` keeps against
    /// `fresh`, and prints each problem. Returns whether the gate passed.
    /// An unreadable or malformed baseline, and an `out` naming the
    /// baseline file itself, fail the gate without writing.
    pub fn gate(
        &self,
        fresh: &[Row],
        out: Option<&str>,
        diff: Option<&str>,
        in_scope: impl Fn(&Row) -> bool,
    ) -> bool {
        match self.check(fresh, out, diff, in_scope) {
            Err(e) => eprintln!("{}: {e}", self.bench),
            Ok((problems, _)) if !problems.is_empty() => {
                for p in &problems {
                    eprintln!("{}: REGRESSION: {p}", self.bench);
                }
            }
            Ok((_, compared)) => {
                println!("diff vs {}: clean ({compared} rows)", diff.unwrap_or("(none)"));
                return true;
            }
        }
        false
    }

    fn check(
        &self,
        fresh: &[Row],
        out: Option<&str>,
        diff: Option<&str>,
        in_scope: impl Fn(&Row) -> bool,
    ) -> Result<(Vec<String>, usize), String> {
        let mut baseline = Vec::new();
        if let Some(path) = diff {
            let doc = fs::read_to_string(path).map_err(|e| format!("baseline {path}: {e}"))?;
            baseline = self.parse(&doc).map_err(|e| format!("baseline {path}: {e}"))?;
            if out.is_some_and(|out| fs::canonicalize(out).ok() == fs::canonicalize(path).ok())
            {
                return Err(format!(
                    "--out and --diff both name {path}; refusing to overwrite the baseline"
                ));
            }
        }
        if let Some(out) = out {
            fs::write(out, self.render(fresh)).map_err(|e| format!("write {out}: {e}"))?;
            println!("wrote {out}");
        }
        baseline.retain(in_scope);
        Ok((self.diff(&baseline, fresh), baseline.len()))
    }
}

/// Peak resident set size of this process in kilobytes, from
/// `/proc/self/status` (`VmHWM`). Returns 0 when unavailable (non-Linux).
///
/// `VmHWM` is monotone over the process lifetime, so a multi-cell sweep
/// reports per-cell growth: sample before the measured phase and
/// subtract (`saturating_sub`), as the `peak_rss_kb` column of [`SOLVER`]
/// does.
pub fn peak_rss_kb() -> u64 {
    proc_status_kb("VmHWM:")
}

/// Current resident set size of this process in kilobytes, from
/// `/proc/self/status` (`VmRSS`). Returns 0 when unavailable (non-Linux).
///
/// Unlike [`peak_rss_kb`] this is *not* monotone: sampled at quiescence it
/// attributes the footprint a benchmark cell actually holds even when an
/// earlier, larger cell already raised the process high-water mark (the
/// `peak_rss_kb` column of [`RUNTIME`]).
pub fn current_rss_kb() -> u64 {
    proc_status_kb("VmRSS:")
}

fn proc_status_kb(key: &str) -> u64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else { return 0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// A minimal aligned-column table printer for terminal reports.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given header.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let mut cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(line, "| {:width$} ", c, width = widths[i]);
            }
            line.push('|');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let sep: String =
            widths.iter().map(|w| format!("|{}", "-".repeat(w + 2))).collect::<String>() + "|";
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Writes a CSV file (creating parent directories) from a header and rows.
///
/// # Panics
///
/// Panics on I/O errors — experiment harness semantics: fail loudly.
pub fn write_csv<P: AsRef<Path>>(path: P, header: &[&str], rows: &[Vec<String>]) {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).expect("create output directory");
    }
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    fs::write(path, out).expect("write csv");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_match_table2() {
        assert_eq!(table2_wr_settings().len(), 4);
        assert_eq!(table2_ws_settings().len(), 3);
        for (a, b) in table2_wr_settings() {
            assert!(a < b);
        }
        for (a, b) in table2_ws_settings() {
            assert!(a < b);
        }
    }

    #[test]
    fn measurements_are_consistent() {
        let w = Weights::new(vec![50, 30, 20, 10, 5]).unwrap();
        let m = measure_wr(&w, Ratio::of(1, 3), Ratio::of(1, 2), Mode::Full);
        assert!(m.total_tickets <= u128::from(m.bound));
        assert!(u128::from(m.max_tickets) <= m.total_tickets);
        assert!(m.holders <= 5);
    }

    /// Sets one field of a row, as a drifted or hand-edited run would.
    fn set(row: &mut Row, key: &str, value: impl Into<Value>) {
        row.0.iter_mut().find(|(k, _)| *k == key).expect("declared field").1 = value.into();
    }

    /// Adds `by` to one numeric field.
    fn bump(row: &mut Row, key: &str, by: u128) {
        let now = row.num(key);
        set(row, key, now + by);
    }

    fn row(case: &str, n: u64, wall: u64, dp: u64) -> Row {
        SOLVER.row([
            ("case", case.into()),
            ("n", n.into()),
            ("seed", 42u64.into()),
            ("wall_ms", wall.into()),
            ("tickets", 123_456_789_012_345_678_901u128.into()),
            ("dp_invocations", dp.into()),
            ("certificate_skips", 3u64.into()),
            ("candidates_checked", 40u64.into()),
            ("cursor_advances", 7u64.into()),
            ("probes_saved", 2u64.into()),
            ("coarse_cert_hits", 1u64.into()),
            ("peak_rss_kb", 10_000u64.into()),
        ])
    }

    #[test]
    fn bench_json_roundtrips() {
        let rows = vec![row("cold", 1000, 12, 5), row("certified", 1_000_000, 900, 0)];
        let doc = SOLVER.render(&rows);
        assert_eq!(SOLVER.parse(&doc).unwrap(), rows);
        assert!(SOLVER.parse("{}").is_err(), "schema tag is mandatory");
    }

    #[test]
    fn committed_baselines_rerender_byte_identically() {
        for (schema, doc) in [
            (SOLVER, include_str!("../../../BENCH_solver.json")),
            (EPOCHS, include_str!("../../../BENCH_epochs.json")),
            (RUNTIME, include_str!("../../../BENCH_runtime.json")),
            (GOSSIP, include_str!("../../../BENCH_gossip.json")),
        ] {
            assert_eq!(schema.render(&schema.parse(doc).unwrap()), doc, "{}", schema.tag);
        }
    }

    /// A one-row solver document whose row fields are `fields`.
    fn solver_doc(fields: &str) -> String {
        format!(
            "{{\n  \"schema\": \"{}\",\n  \"rows\": [\n    {{\"bench\":\"solver_scale\",{fields}}}\n  \
             ]\n}}\n",
            SOLVER.tag
        )
    }

    const SOLVER_FIELDS: &str = "\"case\":\"cold\",\"n\":1000,\"seed\":1001,\"wall_ms\":12,\
        \"tickets\":307,\"dp_invocations\":2,\"certificate_skips\":0,\"candidates_checked\":17,\
        \"cursor_advances\":0,\"probes_saved\":0,\"coarse_cert_hits\":0,\"peak_rss_kb\":100";

    fn parse_error(fields: &str) -> String {
        SOLVER.parse(&solver_doc(fields)).expect_err(fields)
    }

    #[test]
    fn parse_rejects_missing_undeclared_and_malformed_fields() {
        assert_eq!(SOLVER.parse(&solver_doc(SOLVER_FIELDS)).unwrap()[0].num("tickets"), 307);
        // Rows written before the accelerator counters existed no longer
        // read as zeros: a missing declared field is named.
        let legacy = SOLVER_FIELDS.replace(",\"cursor_advances\":0", "");
        assert!(parse_error(&legacy).contains("missing field `cursor_advances`"));
        let extra = format!("{SOLVER_FIELDS},\"bogus\":1");
        assert!(parse_error(&extra).contains("undeclared field `bogus`"));
        let twice = format!("{SOLVER_FIELDS},\"tickets\":307");
        assert!(parse_error(&twice).contains("`tickets` given twice"));
        for bad in ["\"n\":\"abc\"", "\"n\":12x", "\"n\":", "\"n\":-1"] {
            let e = parse_error(&SOLVER_FIELDS.replace("\"n\":1000", bad));
            assert!(e.contains("field `n`") && e.contains("not a number"), "{bad}: {e}");
        }
        let text_as_num = SOLVER_FIELDS.replace("\"case\":\"cold\"", "\"case\":7");
        assert!(parse_error(&text_as_num).contains("field `case`: expected text"));
        // 2⁶⁴ used to wrap to 0 in a u64 column; it now reads exactly, and
        // only a value beyond u128 is out of range.
        let wide = SOLVER_FIELDS.replace("\"n\":1000", "\"n\":18446744073709551616");
        assert_eq!(SOLVER.parse(&solver_doc(&wide)).unwrap()[0].num("n"), 1 << 64);
        let huge = "\"tickets\":340282366920938463463374607431768211456";
        let e = parse_error(&SOLVER_FIELDS.replace("\"tickets\":307", huge));
        assert!(e.contains("field `tickets`") && e.contains("out of range"), "{e}");
        // A row of another bench family is not a solver row.
        let doc = solver_doc(SOLVER_FIELDS).replace("solver_scale", "epochs");
        assert!(SOLVER.parse(&doc).is_err());
    }

    #[test]
    fn runtime_rows_without_a_transport_column_are_rejected() {
        let mut doc = RUNTIME.render(&[runtime_row("aba", 8, 2, 10)]);
        doc = doc.replace(",\"transport\":\"channel\"", "");
        let e = RUNTIME.parse(&doc).unwrap_err();
        assert!(e.contains("missing field `transport`"), "{e}");
    }

    #[test]
    #[should_panic(expected = "missing field `churn_pct`")]
    fn building_a_row_with_a_missing_field_panics() {
        let _ = EPOCHS.row([("chain", "aptos".into())]);
    }

    #[test]
    #[should_panic(expected = "undeclared field `bogus`")]
    fn building_a_row_with_an_undeclared_field_panics() {
        let _ = EPOCHS.row([("bogus", 1u64.into())]);
    }

    #[test]
    fn gate_refuses_to_overwrite_its_own_baseline() {
        let dir = std::env::temp_dir();
        let name = format!("swiper-bench-gate-{}.json", std::process::id());
        let path = dir.join(&name);
        let doc = SOLVER.render(&[row("cold", 1000, 12, 5)]);
        fs::write(&path, &doc).unwrap();
        let fresh = [row("cold", 1000, 12, 6)];
        let alias = dir.join(".").join(&name);
        for out in [&path, &alias] {
            let (out, diff) = (out.to_str().unwrap(), path.to_str().unwrap());
            let e = SOLVER.check(&fresh, Some(out), Some(diff), |_| true).unwrap_err();
            assert!(e.contains("refusing to overwrite"), "{e}");
            assert_eq!(fs::read_to_string(&path).unwrap(), doc, "baseline untouched");
        }
        // A distinct --out is written and the drift still reported.
        let other = dir.join(format!("swiper-bench-gate-out-{}.json", std::process::id()));
        let (out, diff) = (other.to_str().unwrap(), path.to_str().unwrap());
        let (problems, compared) =
            SOLVER.check(&fresh, Some(out), Some(diff), |_| true).unwrap();
        assert_eq!((problems.len(), compared), (1, 1), "{problems:?}");
        assert_eq!(fs::read_to_string(&other).unwrap(), SOLVER.render(&fresh));
        let _ = (fs::remove_file(&path), fs::remove_file(&other));
    }

    #[test]
    fn solver_rows_hold_the_certificate_hit_invariant_at_scale() {
        let mut cold = row("certified", 1_000_000, 900, 0);
        assert!(SOLVER.diff(&[], &[cold.clone()]).is_empty());
        set(&mut cold, "certificate_skips", 0u64);
        assert!(SOLVER.diff(&[], &[cold.clone()]).is_empty(), "coarse hits alone suffice");
        set(&mut cold, "coarse_cert_hits", 0u64);
        let problems = SOLVER.diff(&[], &[cold.clone()]);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("coarse_cert_hits"), "{problems:?}");
        // Below n = 10⁶, and on the other cases, the invariant is silent.
        set(&mut cold, "n", 100_000u64);
        assert!(SOLVER.diff(&[], &[cold]).is_empty());
        let mut warm = row("warm", 1_000_000, 900, 0);
        set(&mut warm, "certificate_skips", 0u64);
        set(&mut warm, "coarse_cert_hits", 0u64);
        assert!(SOLVER.diff(&[], &[warm]).is_empty());
    }

    #[test]
    fn bench_diff_gates_the_accelerator_counters_exactly() {
        let base = vec![row("warm", 1_000_000, 400, 0)];
        for field in ["cursor_advances", "probes_saved", "coarse_cert_hits"] {
            let mut drift = base.clone();
            bump(&mut drift[0], field, 1);
            let problems = SOLVER.diff(&base, &drift);
            assert_eq!(problems.len(), 1, "{field} must be exact-gated");
            assert!(problems[0].contains(field), "{problems:?}");
        }
    }

    #[test]
    fn bench_diff_gates_counters_exactly_and_wall_with_tolerance() {
        let base = vec![row("cold", 1000, 400, 5)];
        // Identical: clean.
        assert!(SOLVER.diff(&base, &base).is_empty());
        // Counter drift: flagged regardless of magnitude.
        let mut drift = base.clone();
        set(&mut drift[0], "dp_invocations", 6u64);
        assert_eq!(SOLVER.diff(&base, &drift).len(), 1);
        // Wall within tolerance: clean; beyond: flagged; below floor: noise.
        let mut slow = base.clone();
        set(&mut slow[0], "wall_ms", 470u64);
        assert!(SOLVER.diff(&base, &slow).is_empty());
        set(&mut slow[0], "wall_ms", 500u64);
        assert_eq!(SOLVER.diff(&base, &slow).len(), 1);
        let mut tiny = base.clone();
        set(&mut tiny[0], "wall_ms", 10u64);
        let mut tiny_slow = tiny.clone();
        set(&mut tiny_slow[0], "wall_ms", 100u64);
        assert!(SOLVER.diff(&tiny, &tiny_slow).is_empty());
        // Missing row: flagged.
        assert_eq!(SOLVER.diff(&base, &[]).len(), 1);
    }

    fn epochs_row(chain: &str, churn: u64, divergence: u64, skips: u64, dp: [u64; 3]) -> Row {
        EPOCHS.row([
            ("chain", chain.into()),
            ("churn_pct", churn.into()),
            ("epochs", 16u64.into()),
            ("bracket_divergence", divergence.into()),
            ("cert_skips", skips.into()),
            ("warm_dp", dp[0].into()),
            ("plain_dp", dp[1].into()),
            ("cold_dp", dp[2].into()),
            ("hit_rate_pct", (87 - churn).into()),
        ])
    }

    #[test]
    fn epochs_json_roundtrips() {
        let rows = vec![
            epochs_row("aptos", 1, 2, 40, [3, 9, 30]),
            epochs_row("tezos", 20, 0, 0, [12, 12, 31]),
        ];
        let doc = EPOCHS.render(&rows);
        assert_eq!(EPOCHS.parse(&doc).unwrap(), rows);
        assert!(EPOCHS.parse("{}").is_err(), "schema tag is mandatory");
        assert!(
            EPOCHS.parse(&SOLVER.render(&[])).is_err(),
            "solver documents must not pass as epochs documents"
        );
    }

    #[test]
    fn epochs_diff_gates_solver_counters_but_not_bracket_divergence() {
        let base = vec![epochs_row("aptos", 5, 2, 40, [3, 9, 30])];
        assert!(EPOCHS.diff(&base, &base).is_empty());
        // bracket_divergence is informational: free to drift.
        let mut bracket = base.clone();
        set(&mut bracket[0], "bracket_divergence", 7u64);
        assert!(EPOCHS.diff(&base, &bracket).is_empty());
        // The solver-work counters are exact.
        for field in ["epochs", "cert_skips", "warm_dp", "plain_dp", "cold_dp", "hit_rate_pct"]
        {
            let mut drift = base.clone();
            bump(&mut drift[0], field, 1);
            let problems = EPOCHS.diff(&base, &drift);
            assert_eq!(problems.len(), 1, "{field} must be exact-gated");
            assert!(problems[0].contains(field), "{problems:?}");
        }
        // Missing row: flagged.
        assert_eq!(EPOCHS.diff(&base, &[]).len(), 1);
    }

    fn gossip_row(backend: &str, substrate: &str, n: u64, seed: u64) -> Row {
        GOSSIP.row([
            ("backend", backend.into()),
            ("substrate", substrate.into()),
            ("n", n.into()),
            ("seed", seed.into()),
            ("wall_ms", 80u64.into()),
            ("reach_pct", 100u64.into()),
            ("rounds", 6u64.into()),
            ("msgs", 26_000u64.into()),
            ("deliveries", 2560u64.into()),
            ("msgs_per_delivery_x100", 1015u64.into()),
            ("baseline_msgs_per_delivery", n.into()),
            ("mean_degree_x100", 900u64.into()),
            ("p50_us", 0u64.into()),
            ("p95_us", 0u64.into()),
            ("p99_us", 0u64.into()),
            ("twin_ok", true.into()),
        ])
    }

    #[test]
    fn gossip_json_roundtrips() {
        let mut threaded = gossip_row("overlay", "threaded", 64, 5);
        set(&mut threaded, "p50_us", 40u64);
        set(&mut threaded, "p99_us", 900u64);
        let rows = vec![
            gossip_row("overlay", "sim", 256, 7),
            gossip_row("fullmesh", "sim", 64, 1),
            threaded,
        ];
        let doc = GOSSIP.render(&rows);
        assert_eq!(GOSSIP.parse(&doc).unwrap(), rows);
        assert!(GOSSIP.parse("{}").is_err(), "schema tag is mandatory");
        assert!(
            GOSSIP.parse(&SOLVER.render(&[])).is_err(),
            "solver documents must not pass as gossip documents"
        );
    }

    #[test]
    fn gossip_diff_gates_sim_counters_exactly_and_threaded_loosely() {
        let base = vec![gossip_row("overlay", "sim", 256, 7)];
        assert!(GOSSIP.diff(&base, &base).is_empty());
        // Simulator rows are seed-deterministic: any counter drift flags.
        let mut drift = base.clone();
        bump(&mut drift[0], "msgs", 1);
        assert_eq!(GOSSIP.diff(&base, &drift).len(), 1);
        let mut rounds = base.clone();
        bump(&mut rounds[0], "rounds", 1);
        assert_eq!(GOSSIP.diff(&base, &rounds).len(), 1);
        // Threaded rows: message counts are schedule noise, but reach and
        // the twin flag are exact.
        let tbase = vec![gossip_row("overlay", "threaded", 64, 5)];
        let mut tnoise = tbase.clone();
        set(&mut tnoise[0], "msgs", 1u64);
        set(&mut tnoise[0], "p99_us", 9999u64);
        bump(&mut tnoise[0], "rounds", 3);
        assert!(GOSSIP.diff(&tbase, &tnoise).is_empty());
        let mut twin = tbase.clone();
        set(&mut twin[0], "twin_ok", false);
        assert_eq!(GOSSIP.diff(&tbase, &twin).len(), 1);
        // Missing row: flagged.
        assert_eq!(GOSSIP.diff(&base, &[]).len(), 1);
    }

    #[test]
    fn gossip_diff_holds_fresh_rows_to_the_acceptance_invariants() {
        // Partial reach flags with or without a matching baseline row.
        let mut unreached = vec![gossip_row("overlay", "sim", 64, 1)];
        set(&mut unreached[0], "reach_pct", 98u64);
        assert_eq!(GOSSIP.diff(&[], &unreached).len(), 1);
        // Above the economy floor, overlay msgs/delivery must beat the
        // n²-flood yardstick of n…
        let mut pricey = vec![gossip_row("overlay", "sim", 256, 7)];
        set(&mut pricey[0], "msgs_per_delivery_x100", 256u64 * 100);
        let problems = GOSSIP.diff(&[], &pricey);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("baseline"), "{problems:?}");
        // …but small populations and the fullmesh yardstick itself are
        // exempt.
        let mut small = vec![gossip_row("overlay", "sim", 64, 1)];
        set(&mut small[0], "msgs_per_delivery_x100", 64u64 * 100);
        assert!(GOSSIP.diff(&[], &small).is_empty());
        let mut mesh = vec![gossip_row("fullmesh", "sim", 256, 7)];
        set(&mut mesh[0], "msgs_per_delivery_x100", 256u64 * 100);
        assert!(GOSSIP.diff(&[], &mesh).is_empty());
    }

    fn runtime_row(protocol: &str, n: u64, workers: u64, wall: u64) -> Row {
        RUNTIME.row([
            ("protocol", protocol.into()),
            ("transport", "channel".into()),
            ("n", n.into()),
            ("workers", workers.into()),
            ("wall_ms", wall.into()),
            ("commits", n.into()),
            ("commits_per_sec", 1000u64.into()),
            ("msgs", 5000u64.into()),
            ("msgs_per_sec", 90_000u64.into()),
            ("p50_us", 40u64.into()),
            ("p95_us", 200u64.into()),
            ("p99_us", 900u64.into()),
            ("peak_rss_kb", 20_000u64.into()),
            ("twin_ok", true.into()),
        ])
    }

    #[test]
    fn runtime_json_roundtrips() {
        let mut socket = runtime_row("bracha", 20, 1, 300);
        set(&mut socket, "transport", "socket");
        let rows =
            vec![runtime_row("bracha", 20, 1, 300), socket, runtime_row("smr", 10, 4, 800)];
        let doc = RUNTIME.render(&rows);
        assert_eq!(RUNTIME.parse(&doc).unwrap(), rows);
        assert!(RUNTIME.parse("{}").is_err(), "schema tag is mandatory");
        assert!(
            RUNTIME.parse(&SOLVER.render(&[])).is_err(),
            "solver documents must not pass as runtime documents"
        );
    }

    #[test]
    fn transport_is_part_of_the_row_identity() {
        // A socket row never matches a channel baseline (and vice versa):
        // the two backends have independent trajectories.
        let channel = vec![runtime_row("bracha", 20, 1, 300)];
        let mut socket = channel.clone();
        set(&mut socket[0], "transport", "socket");
        assert_eq!(RUNTIME.diff(&channel, &socket).len(), 1, "baseline row unmatched");
        let both = vec![channel[0].clone(), socket[0].clone()];
        assert!(RUNTIME.diff(&both, &both).is_empty());
    }

    #[test]
    fn runtime_diff_gates_commits_twin_and_wall() {
        let base = vec![runtime_row("aba", 20, 2, 400)];
        assert!(RUNTIME.diff(&base, &base).is_empty());
        // Schedule-dependent columns may drift freely.
        let mut drift = base.clone();
        set(&mut drift[0], "msgs", 9999u64);
        set(&mut drift[0], "p99_us", 1u64);
        set(&mut drift[0], "peak_rss_kb", 1u64);
        assert!(RUNTIME.diff(&base, &drift).is_empty());
        // Commits and the twin flag are exact.
        let mut commits = base.clone();
        set(&mut commits[0], "commits", 19u64);
        assert_eq!(RUNTIME.diff(&base, &commits).len(), 1);
        let mut twin = base.clone();
        set(&mut twin[0], "twin_ok", false);
        assert_eq!(RUNTIME.diff(&base, &twin).len(), 1);
        // Wall: tolerated within BENCH_WALL_TOL_PCT above the floor, noise
        // below it.
        let mut slow = base.clone();
        set(&mut slow[0], "wall_ms", 500u64);
        assert_eq!(RUNTIME.diff(&base, &slow).len(), 1);
        let mut tiny = base.clone();
        set(&mut tiny[0], "wall_ms", 10u64);
        let mut tiny_slow = tiny.clone();
        set(&mut tiny_slow[0], "wall_ms", 100u64);
        assert!(RUNTIME.diff(&tiny, &tiny_slow).is_empty());
        // Missing row: flagged.
        assert_eq!(RUNTIME.diff(&base, &[]).len(), 1);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["a", "bb"]);
        t.row(vec!["1", "2"]);
        t.row(vec!["333", "4"]);
        let s = t.render();
        assert!(s.contains("| a   | bb |"));
        assert!(s.lines().count() == 4);
    }
}
