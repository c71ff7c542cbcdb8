//! `smr-socket`: one operation is one `SmrNode` round on a replica
//! cluster with mildly skewed stake and 4 KiB batches, run by the
//! `ThreadedRuntime` (one worker per available core) over loopback
//! `SocketTransport`. Rounds run in clusters of [`Size::rounds`]; each
//! cluster gets a fresh transport and a fresh session seed, and is
//! checked as a whole.
//!
//! Commit latency of round r runs from the moment r's leader commits
//! round r − 1 (which is when it proposes r) to the moment the (n − f)-th
//! replica commits r. Both moments are read from outside: a wrapper
//! around each replica reads `SmrNode::committed()` after every callback.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use swiper::net::{
    Context, NodeId, Protocol, SendNodes, SocketTransport, ThreadedRuntime, Transport,
    WireCodec, DEFAULT_LINK_CAPACITY,
};
use swiper::protocols::smr::{SmrMsg, SmrNode};
use swiper::protocols::wire::SmrCodec;
use swiper::{EpochEvent, Weights};

use crate::checks::{messages_conserved, replicas_agree, twin_matches};
use crate::harness::{
    assemble, end_to_end, median, mix, overhead_pct, peak_rss_mb, repeated_setup, Aliases,
    Opts, Report, PER_LAYER,
};
use crate::trace::{Count, Layer, TimedCodec, TimedProtocol, TimedTransport, Tracer};

/// The replicated cluster.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Replicas.
    pub replicas: usize,
    /// Rounds per cluster run.
    pub rounds: u64,
    /// Batch size, in bytes.
    pub batch: usize,
}

impl Size {
    /// The benchmark's size: 16 replicas, 4 KiB batches.
    pub const FULL: Size = Size { replicas: 16, rounds: 250, batch: 4096 };
}

const ALIASES: Aliases = Aliases {
    op: "round",
    latency: "commit_ms",
    rate: "commits_per_s",
    cost: ("bytes_per_party", "bytes per commit"),
};

/// Set-up repetitions.
const SETUP_REPS: usize = 25;

/// Mildly skewed stake, so the leader schedule is genuinely weighted.
fn stake(n: usize) -> Weights {
    Weights::new((0..n).map(|p| 10 + (p as u64 % 7)).collect()).expect("n > 0")
}

/// A replica that stamps the moment each of its commits became visible.
struct Observed {
    inner: TimedProtocol<SmrNode>,
    seen: u64,
    log: Arc<Mutex<Vec<Instant>>>,
}

impl Observed {
    fn observe(&mut self) {
        let committed = self.inner.inner().committed();
        if committed > self.seen {
            let now = Instant::now();
            let mut log = self.log.lock().expect("commit log poisoned");
            log.extend((self.seen..committed).map(|_| now));
            self.seen = committed;
        }
    }
}

impl Protocol for Observed {
    type Msg = SmrMsg;

    fn on_start(&mut self, ctx: &mut Context<SmrMsg>) {
        self.inner.on_start(ctx);
        self.observe();
    }

    fn on_message(&mut self, from: NodeId, msg: SmrMsg, ctx: &mut Context<SmrMsg>) {
        self.inner.on_message(from, msg, ctx);
        self.observe();
    }

    fn on_timer(&mut self, id: u64, ctx: &mut Context<SmrMsg>) {
        self.inner.on_timer(id, ctx);
        self.observe();
    }

    fn on_reconfigure(&mut self, event: &EpochEvent, ctx: &mut Context<SmrMsg>) {
        self.inner.on_reconfigure(event, ctx);
        self.observe();
    }
}

/// What one cluster run produced.
#[derive(Debug, Default)]
struct Cluster {
    /// Commit latency of rounds 1.. in milliseconds.
    commit_ms: Vec<f64>,
    /// Seconds from round 1's proposal to the last round's quorum commit.
    pipeline_s: f64,
    ok: bool,
    msgs: u64,
    bytes: u64,
    delivered_bytes: u64,
    hop_p50_us: u64,
    hop_p99_us: u64,
    dropped: u64,
}

/// Commit latencies from the per-replica commit logs.
fn latencies(size: Size, seed: u64, logs: &[Vec<Instant>]) -> (Vec<f64>, f64) {
    let n = size.replicas;
    let quorum = n - (n - 1) / 3;
    let probe = SmrNode::new(0, stake(n), seed, size.rounds, size.batch);
    let mut commit_ms = Vec::new();
    let mut first_start = None;
    let mut last_commit = None;
    if logs.iter().any(|l| l.len() < size.rounds as usize) {
        return (commit_ms, 0.0);
    }
    for r in 1..size.rounds as usize {
        let start = logs[probe.leader_of(r as u64)][r - 1];
        let mut at: Vec<Instant> = logs.iter().map(|l| l[r]).collect();
        at.sort();
        let commit = at[quorum - 1];
        commit_ms.push(commit.saturating_duration_since(start).as_secs_f64() * 1e3);
        first_start.get_or_insert(start);
        last_commit = Some(commit);
    }
    let pipeline_s = match (first_start, last_commit) {
        (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64(),
        _ => 0.0,
    };
    (commit_ms, pipeline_s)
}

/// Runs one cluster over `transport`, then checks it: every replica
/// committed every round to the same ledger, messages are conserved, the
/// wire decoded every frame, and the simulator replay matches.
fn cluster<C, T>(
    size: Size,
    seed: u64,
    socket: SocketTransport<SmrMsg, C>,
    transport: T,
    tracer: Option<&Arc<Tracer>>,
) -> Cluster
where
    C: WireCodec<SmrMsg>,
    T: Transport<SmrMsg>,
{
    let n = size.replicas;
    let w = stake(n);
    let logs: Vec<Arc<Mutex<Vec<Instant>>>> = (0..n)
        .map(|_| Arc::new(Mutex::new(Vec::with_capacity(size.rounds as usize))))
        .collect();
    let nodes: SendNodes<SmrMsg> = (0..n)
        .map(|me| {
            let node = SmrNode::new(me, w.clone(), seed, size.rounds, size.batch);
            Box::new(Observed {
                inner: TimedProtocol::maybe(node, Layer::Smr, tracer.cloned()),
                seen: 0,
                log: Arc::clone(&logs[me]),
            }) as _
        })
        .collect();
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let full = ThreadedRuntime::new(nodes)
        .with_workers(workers)
        .with_transport(transport)
        .run_traced();
    let logs: Vec<Vec<Instant>> = logs
        .iter()
        .map(|l| std::mem::take(&mut *l.lock().expect("commit log poisoned")))
        .collect();
    let (commit_ms, pipeline_s) = latencies(size, seed, &logs);

    let fresh: Vec<Box<dyn Protocol<Msg = SmrMsg>>> = (0..n)
        .map(|me| Box::new(SmrNode::new(me, w.clone(), seed, size.rounds, size.batch)) as _)
        .collect();
    let replay = match tracer {
        None => full.trace.replay(fresh),
        Some(t) => t.time(Layer::Twin, || full.trace.replay(fresh)),
    };
    let m = &full.report.metrics;
    Cluster {
        ok: commit_ms.len() + 1 == size.rounds as usize
            && replicas_agree(&full.report.outputs, size.rounds)
            && messages_conserved(m, full.dropped)
            && socket.decode_errors() == 0
            && twin_matches(&full.report, &replay),
        commit_ms,
        pipeline_s,
        msgs: m.total_messages(),
        bytes: m.total_bytes(),
        delivered_bytes: m.delivered_bytes(),
        hop_p50_us: full.latency.p50_us,
        hop_p99_us: full.latency.p99_us,
        dropped: full.dropped,
    }
}

/// The loopback wire of one cluster, untraced.
fn plain_socket(n: usize) -> SocketTransport<SmrMsg, SmrCodec> {
    SocketTransport::loopback(n).expect("bind loopback sockets")
}

/// Clusters run back to back until `seconds` have gone by.
#[derive(Debug, Default)]
struct Pass {
    clusters: Vec<Cluster>,
    attempted: u64,
    failed: u64,
    /// Peak resident set size after the first cluster, in MiB.
    rss_mb: f64,
}

impl Pass {
    fn commit_ms(&self) -> Vec<f64> {
        self.clusters.iter().flat_map(|c| c.commit_ms.iter().copied()).collect()
    }

    fn commits_per_s(&self) -> f64 {
        let rounds: usize = self.clusters.iter().map(|c| c.commit_ms.len()).sum();
        rounds as f64 / self.clusters.iter().map(|c| c.pipeline_s).sum::<f64>()
    }

    fn sum(&self, f: impl Fn(&Cluster) -> u64) -> f64 {
        self.clusters.iter().map(f).sum::<u64>() as f64
    }
}

fn run_pass(
    size: Size,
    opts: &Opts,
    seconds: f64,
    mut first: Option<SocketTransport<SmrMsg, SmrCodec>>,
    tracer: Option<&Arc<Tracer>>,
) -> Pass {
    let start = Instant::now();
    let mut pass = Pass::default();
    for k in 0.. {
        let seed = mix(opts.seed, 2_000 + k);
        let c = match tracer {
            None => {
                let socket = first.take().unwrap_or_else(|| plain_socket(size.replicas));
                cluster(size, seed, socket.clone(), socket, None)
            }
            Some(t) => {
                t.set_op(k);
                let codec = TimedCodec::new(SmrCodec, Arc::clone(t));
                let socket =
                    SocketTransport::with_codec(size.replicas, DEFAULT_LINK_CAPACITY, codec)
                        .expect("bind loopback sockets");
                let wire = TimedTransport::new(socket.clone(), Arc::clone(t));
                cluster(size, seed, socket, wire, Some(t))
            }
        };
        pass.attempted += size.rounds;
        if !c.ok {
            pass.failed += size.rounds;
        }
        pass.clusters.push(c);
        if k == 0 {
            pass.rss_mb = peak_rss_mb();
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    pass
}

/// Runs the workload.
pub fn run(size: Size, opts: &Opts) -> Report {
    let (first, setup_s) = repeated_setup(SETUP_REPS, || plain_socket(size.replicas));
    // Warm-up: one untimed, unchecked cluster on its own session seed.
    let warm = plain_socket(size.replicas);
    cluster(size, mix(opts.seed, u64::MAX), warm.clone(), warm, None);
    let mut report = Report::default();
    if !opts.trace {
        let pass = run_pass(size, opts, opts.seconds, Some(first), None);
        report.attempted = pass.attempted;
        report.failed = pass.failed;
        let cost =
            pass.sum(|c| c.delivered_bytes) / (size.replicas as f64 * pass.attempted as f64);
        let (ms, rate) = (pass.commit_ms(), pass.commits_per_s());
        end_to_end(ALIASES, &ms, rate, cost, setup_s, pass.rss_mb, &mut report);
        return report;
    }

    let half = opts.seconds / 2.0;
    let untraced = run_pass(size, opts, half, Some(first), None);
    let tracer = Tracer::new();
    let traced = run_pass(size, opts, half, None, Some(&tracer));
    report.attempted = untraced.attempted + traced.attempted;
    report.failed = untraced.failed + traced.failed;
    let commits = traced.attempted as f64;
    let per_commit = |x: f64| x / commits;
    let recv_calls = tracer.calls(Layer::Recv);
    report.metrics = assemble(
        &PER_LAYER,
        &[
            ("smr.callback_ms", per_commit(tracer.total_ms(Layer::Smr))),
            ("codec.encode_ms", per_commit(tracer.total_ms(Layer::Encode))),
            ("codec.decode_ms", per_commit(tracer.total_ms(Layer::Decode))),
            ("codec.bytes", per_commit(tracer.count(Count::CodecBytes) as f64)),
            ("transport.send_ms", per_commit(tracer.total_ms(Layer::Send))),
            ("transport.recv_ms", per_commit(tracer.total_ms(Layer::Recv))),
            ("transport.send_full", per_commit(tracer.count(Count::SendFull) as f64)),
            (
                "transport.recv_hit_ratio",
                tracer.count(Count::RecvHits) as f64 / recv_calls.max(1) as f64,
            ),
            (
                "runtime.hop_us.p50",
                median(
                    &traced.clusters.iter().map(|c| c.hop_p50_us as f64).collect::<Vec<_>>(),
                ),
            ),
            (
                "runtime.hop_us.tail",
                median(
                    &traced.clusters.iter().map(|c| c.hop_p99_us as f64).collect::<Vec<_>>(),
                ),
            ),
            ("runtime.dropped", per_commit(traced.sum(|c| c.dropped))),
            ("twin.replay_ms", per_commit(tracer.total_ms(Layer::Twin))),
            ("msgs_per_commit", per_commit(traced.sum(|c| c.msgs))),
            ("bytes_per_commit", per_commit(traced.sum(|c| c.bytes))),
            ("trace.overhead_pct", overhead_pct(&untraced.commit_ms(), &traced.commit_ms())),
        ],
    );
    crate::write_trace(&tracer, opts, &mut report);
    report
}
