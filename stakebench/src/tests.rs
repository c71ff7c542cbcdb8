//! Self-tests: a tiny run of every workload, sabotage cases showing each
//! correctness check rejects a corrupted output, and agreement between
//! the metric lists here and `BENCHMARK.json`.

use swiper::net::{DelayModel, Protocol, Simulation};
use swiper::protocols::smr::{SmrMsg, SmrNode};
use swiper::weights::Chain;
use swiper::{Swiper, Weights};

use crate::checks::{every_honest_party_delivered, replicas_agree, solution_holds};
use crate::harness::{Opts, Report, END_TO_END, PER_LAYER};
use crate::{bracha, epoch, smr, solve, WORKLOADS};

fn opts(trace: bool) -> Opts {
    Opts { seed: 7, seconds: 0.0, trace, trace_path: None }
}

fn assert_clean(report: &Report, list: &[(&str, &str)]) {
    assert!(report.attempted >= 1, "no operation ran");
    assert_eq!(report.failed, 0, "a correctness check failed: {:?}", report.notes);
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    let want: Vec<&str> = list.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want);
    assert!(report.metrics.iter().all(|m| m.value.is_finite()));
}

const SMR_TINY: smr::Size = smr::Size { replicas: 4, rounds: 8, batch: 64 };

#[test]
fn tiny_solve_runs_clean_untraced_and_traced() {
    let size = solve::Size { n: 3_000 };
    assert_clean(&solve::run(size, &opts(false)), &END_TO_END);
    assert_clean(&solve::run(size, &opts(true)), &PER_LAYER);
}

#[test]
fn tiny_epoch_runs_clean_untraced_and_traced() {
    let size = epoch::Size { chain: Chain::Aptos };
    assert_clean(&epoch::run(size, &opts(false)), &END_TO_END);
    assert_clean(&epoch::run(size, &opts(true)), &PER_LAYER);
}

#[test]
fn tiny_bracha_runs_clean_untraced_and_traced() {
    let size = bracha::Size { chain: Chain::Aptos };
    assert_clean(&bracha::run(size, &opts(false)), &END_TO_END);
    assert_clean(&bracha::run(size, &opts(true)), &PER_LAYER);
}

#[test]
fn tiny_smr_runs_clean_untraced_and_traced() {
    assert_clean(&smr::run(SMR_TINY, &opts(false)), &END_TO_END);
    assert_clean(&smr::run(SMR_TINY, &opts(true)), &PER_LAYER);
}

#[test]
fn sabotage_one_ticket_short_of_the_local_minimum_is_rejected() {
    let size = solve::Size { n: 3_000 };
    let (w, p) = (solve::population(size, 7, 0), solve::params());
    let sol = Swiper::new().solve_restriction(&w, &p).expect("solvable");
    assert!(solution_holds(&w, &sol, &p));
    let total = u64::try_from(sol.total_tickets()).expect("fits");
    let mut short = sol.clone();
    short.assignment =
        Swiper::new().restriction_family_member(&w, &p, total - 1).expect("member exists");
    assert_eq!(short.total_tickets() + 1, sol.total_tickets());
    assert!(!solution_holds(&w, &short, &p), "a member below the local minimum passed");
}

#[test]
fn sabotage_a_replica_with_another_ledger_digest_is_rejected() {
    let w = Weights::new(vec![40, 30, 20, 10]).expect("positive");
    let nodes: Vec<Box<dyn Protocol<Msg = SmrMsg>>> =
        (0..4).map(|me| Box::new(SmrNode::new(me, w.clone(), 11, 5, 64)) as _).collect();
    let report = Simulation::new(nodes, 3).with_delay(DelayModel::Uniform(1, 9)).run();
    assert!(replicas_agree(&report.outputs, 5));
    let mut forked = report.outputs.clone();
    forked[2].as_mut().expect("replica committed")[8] ^= 1;
    assert!(!replicas_agree(&forked, 5), "a forked ledger passed");
    assert!(!replicas_agree(&report.outputs, 6), "a short ledger passed");
}

#[test]
fn sabotage_a_missing_honest_delivery_is_rejected() {
    let sys = bracha::system(bracha::Size { chain: Chain::Aptos }, 7);
    let outputs: Vec<Option<Vec<u8>>> =
        sys.silent.iter().map(|&s| (!s).then(|| sys.payload.clone())).collect();
    assert!(every_honest_party_delivered(&outputs, &sys.silent, &sys.payload));
    let honest = sys.silent.iter().position(|&s| !s).expect("an honest party");
    let mut missing = outputs.clone();
    missing[honest] = None;
    assert!(!every_honest_party_delivered(&missing, &sys.silent, &sys.payload));
    let mut wrong = outputs;
    wrong[honest] = Some(b"another payload".to_vec());
    assert!(!every_honest_party_delivered(&wrong, &sys.silent, &sys.payload));
}

#[test]
fn benchmark_json_lists_the_metrics_and_workloads_this_program_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed: Vec<&str> = doc
        .split("{\"name\": \"")
        .skip(1)
        .filter(|entry| entry.contains("\"why\""))
        .filter_map(|entry| entry.split('"').next())
        .collect();
    assert!(listed.len() >= 2, "BENCHMARK.json lists {listed:?}");
    for w in &listed {
        assert!(
            WORKLOADS.contains(w),
            "BENCHMARK.json names {w}, which this program cannot run"
        );
    }
    let units = doc.matches("\"unit\":").count();
    assert_eq!(units, END_TO_END.len() + PER_LAYER.len(), "BENCHMARK.json lists extra metrics");
}
