//! The stake-to-commit benchmark.
//!
//! ```text
//! cargo run --release --manifest-path stakebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `METRICS.md` for what each metric means on each):
//!
//! * `solve-cold-1m` — cold WR(1/3, 1/2) solves of fresh million-party
//!   populations;
//! * `epoch-algorand` — warm epoch advances on the Algorand replica;
//! * `blackbox-bracha-tezos` — black-box Bracha broadcasts on the Tezos
//!   replica with silent heavy parties;
//! * `smr-socket` — SMR rounds on the threaded runtime over loopback TCP.
//!
//! The seed determines every generated input. `--trace 0` runs the
//! operations untraced and prints the end-to-end metrics; `--trace 1`
//! runs an untraced and a traced pass over the same inputs, prints the
//! per-layer metrics and writes the spans under `.bench_trace/`. The last
//! line of standard output is the JSON result; the lines before it name
//! each metric as the workload knows it.

mod bracha;
mod calib;
mod checks;
mod epoch;
mod harness;
mod smr;
mod solve;
mod trace;

#[cfg(test)]
mod tests;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Opts, Report};

/// Workloads this program runs. `BENCHMARK.json` lists all but
/// `epoch-algorand` (see `METRICS.md`).
pub const WORKLOADS: [&str; 4] =
    ["solve-cold-1m", "epoch-algorand", "blackbox-bracha-tezos", "smr-socket"];

struct Args {
    workload: String,
    opts: Opts,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds: {value} is not a duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: want 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (want one of {WORKLOADS:?})"));
    }
    let seed = seed.ok_or("--seed is required")?;
    let trace = trace.unwrap_or(false);
    let trace_path =
        trace.then(|| PathBuf::from(format!(".bench_trace/{workload}-seed{seed}.jsonl")));
    let opts =
        Opts { seed, seconds: seconds.ok_or("--seconds is required")?, trace, trace_path };
    Ok(Args { workload, opts })
}

/// Runs one workload at its benchmark size.
fn run(workload: &str, opts: &Opts) -> Report {
    match workload {
        "solve-cold-1m" => solve::run(solve::Size::FULL, opts),
        "epoch-algorand" => epoch::run(epoch::Size::FULL, opts),
        "blackbox-bracha-tezos" => bracha::run(bracha::Size::FULL, opts),
        "smr-socket" => smr::run(smr::Size::FULL, opts),
        other => unreachable!("workload {other} was validated by parse_args"),
    }
}

/// Writes the traced pass's spans where the options say, noting the path
/// (or the failure) in the report.
pub fn write_trace(tracer: &trace::Tracer, opts: &Opts, report: &mut Report) {
    if let Some(path) = &opts.trace_path {
        match tracer.write(path) {
            Ok(()) => report.notes.push(format!("spans written to {}", path.display())),
            Err(e) => {
                report.notes.push(format!("spans not written to {}: {e}", path.display()))
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stakebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let calib_ms = calib::host_calib_ms();
    let mut report = run(&args.workload, &args.opts);
    if args.opts.trace {
        if let Some(m) = report.metrics.iter_mut().find(|m| m.name == "host.calib_ms") {
            m.value = calib_ms;
        }
    }
    println!(
        "# {} seed={} seconds={} trace={} workers={}",
        args.workload,
        args.opts.seed,
        args.opts.seconds,
        u8::from(args.opts.trace),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    println!("# host.calib_ms = {calib_ms:.4} ms (informational)");
    for note in &report.notes {
        println!("# {note}");
    }
    if args.opts.trace {
        for m in &report.metrics {
            println!("# {} = {} {}", m.name, m.value, m.unit);
        }
    }
    println!("{}", harness::result_line(&report));
    ExitCode::SUCCESS
}
