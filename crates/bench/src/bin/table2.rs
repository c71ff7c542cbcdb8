//! Regenerates **Table 2**: tickets allocated by Swiper on the four chain
//! distributions, for the paper's WR/WQ and WS parameter settings, in full
//! and `--linear` mode (linear-mode surpluses printed in parentheses, as in
//! the paper).
//!
//! ```text
//! cargo run --release -p swiper-bench --bin table2
//! ```
//!
//! Our chain data are calibrated synthetic replicas (see "Substitutions"
//! in `docs/ARCHITECTURE.md`), so cells differ from the published ones;
//! the paper's numbers are printed alongside for shape comparison.
//!
//! The whole sweep — chains × (WR + WS settings) — is expressed as one
//! [`Instance`] batch per mode and handed to [`Swiper::solve_many`], which
//! fans the independent solves out across cores.

use swiper_bench::{table2_wr_settings, table2_ws_settings, SolveMeasurement, TextTable};
use swiper_core::{Instance, Mode, Swiper, WeightRestriction, WeightSeparation};
use swiper_weights::CHAINS;

/// The published Table 2 cells (full mode; linear surplus in parentheses
/// rendered separately), in the same row/column order we print.
const PAPER_WR: [[&str; 4]; 4] = [
    ["85", "235", "27", "110"],
    ["133", "425", "61 (+8)", "258 (+1)"],
    ["3091", "8233", "1533", "4691"],
    ["745", "13475", "293", "6258"],
];
const PAPER_WS: [[&str; 3]; 4] = [
    ["385", "98", "437 (+1)"],
    ["670", "233 (+2)", "811"],
    ["10485", "4838", "11858"],
    ["46009", "2188", "64189"],
];

fn main() {
    println!("Table 2 — tickets allocated by Swiper (synthetic chain replicas)\n");

    let wr_settings = table2_wr_settings();
    let ws_settings = table2_ws_settings();
    let columns = wr_settings.len() + ws_settings.len();

    // One instance per table cell, in row-major order.
    let mut instances: Vec<Instance> = Vec::with_capacity(CHAINS.len() * columns);
    for chain in CHAINS {
        let weights = chain.weights();
        for (aw, an) in &wr_settings {
            let params = WeightRestriction::new(*aw, *an).expect("feasible parameters");
            instances.push(Instance::restriction(weights.clone(), params));
        }
        for (a, b) in &ws_settings {
            let params = WeightSeparation::new(*a, *b).expect("feasible parameters");
            instances.push(Instance::separation(weights.clone(), params));
        }
    }
    let full: Vec<SolveMeasurement> = Swiper::with_mode(Mode::Full)
        .solve_many(&instances)
        .expect("solvable")
        .iter()
        .map(SolveMeasurement::from)
        .collect();
    let linear: Vec<SolveMeasurement> = Swiper::with_mode(Mode::Linear)
        .solve_many(&instances)
        .expect("solvable")
        .iter()
        .map(SolveMeasurement::from)
        .collect();

    let mut header: Vec<String> = vec!["system".into(), "n".into(), "W".into()];
    for (aw, an) in &wr_settings {
        header.push(format!("WR {aw}->{an}"));
    }
    for (a, b) in &ws_settings {
        header.push(format!("WS {a}|{b}"));
    }
    let mut table = TextTable::new(header);

    for (ci, chain) in CHAINS.iter().enumerate() {
        let weights = chain.weights();
        let mut cells: Vec<String> = vec![
            chain.name().to_string(),
            weights.len().to_string(),
            format!("{:.2e}", weights.total() as f64),
        ];
        for col in 0..columns {
            let idx = ci * columns + col;
            let surplus = linear[idx].total_tickets.saturating_sub(full[idx].total_tickets);
            let cell = if surplus > 0 {
                format!("{} (+{})", full[idx].total_tickets, surplus)
            } else {
                format!("{}", full[idx].total_tickets)
            };
            cells.push(cell);
        }
        table.row(cells);

        // Paper reference row for shape comparison.
        let mut paper: Vec<String> = vec![format!("  (paper)"), String::new(), String::new()];
        paper.extend(PAPER_WR[ci].iter().map(|s| s.to_string()));
        paper.extend(PAPER_WS[ci].iter().map(|s| s.to_string()));
        table.row(paper);
    }

    println!("{}", table.render());
    println!("note: WR cell `aw->an` doubles as WQ(1-aw, 1-an) by Theorem 2.2;");
    println!("      `(+k)` = extra tickets allocated by --linear mode.");
    println!("      Chain replicas are synthetic (docs/ARCHITECTURE.md, Substitutions):");
    println!("      compare shapes, not cells.");
}
