//! Span recording and the timing decorators of the traced run.
//!
//! Every decorator here wraps one public seam of the library —
//! [`ValidityOracle`], [`Protocol`], [`WireCodec`] and [`Transport`] — and
//! records a span around each call into it, so the program is measured
//! from outside without changing its code. A span carries its layer, its
//! start and end (nanoseconds since the tracer was created), the layer of
//! the span that encloses it on the same thread, and the operation it
//! belongs to. Self time is a span's duration minus the part its child
//! spans cover; children are tracked with a per-thread stack, so nesting
//! (an encode inside a send, a Bracha callback inside a black-box
//! callback) is attributed without any cooperation from the callee.
//!
//! Per-layer totals are kept in atomics for every span. Individual spans
//! are kept in memory up to [`SPAN_CAP`] and written out when the run
//! ends.

use std::cell::RefCell;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use swiper::core::CoreError;
use swiper::net::{
    Context, Envelope, NodeId, Protocol, SendError, Transport, WireCodec, WireError,
};
use swiper::{CheckParams, EpochEvent, FamilyMember, SolveStats, ValidityOracle, Verdict};

/// Spans kept individually per run; totals keep counting past it.
const SPAN_CAP: usize = 100_000;

/// The layers the traced run times, one per seam call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One `Swiper::solve_restriction_with` call.
    Solver,
    /// An oracle check settled without the DP (bound cascade).
    OracleBound,
    /// An oracle check that reached the knapsack DP.
    OracleDp,
    /// One `Swiper::restriction_family_member` call.
    Family,
    /// One `Reconfigurator::advance` call.
    Epoch,
    /// One `VirtualUsers::apply_delta` call.
    ApplyDelta,
    /// One `Simulation::run` call.
    Sim,
    /// One callback of the black-box wrapper (outer automaton).
    BlackBox,
    /// One callback of a nominal Bracha automaton (inner automaton).
    Bracha,
    /// One callback of an SMR replica.
    Smr,
    /// One `WireCodec::encode` call.
    Encode,
    /// One `WireCodec::decode` call.
    Decode,
    /// One `Transport::try_send` call.
    Send,
    /// One `Transport::try_recv` call.
    Recv,
    /// One `DeliveryTrace::replay` call.
    Twin,
}

const LAYERS: [Layer; 15] = [
    Layer::Solver,
    Layer::OracleBound,
    Layer::OracleDp,
    Layer::Family,
    Layer::Epoch,
    Layer::ApplyDelta,
    Layer::Sim,
    Layer::BlackBox,
    Layer::Bracha,
    Layer::Smr,
    Layer::Encode,
    Layer::Decode,
    Layer::Send,
    Layer::Recv,
    Layer::Twin,
];

impl Layer {
    /// The name written into the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Solver => "core::solver",
            Layer::OracleBound => "core::oracle.bound",
            Layer::OracleDp => "core::knapsack.dp",
            Layer::Family => "core::family",
            Layer::Epoch => "weights::epoch",
            Layer::ApplyDelta => "core::virtual_users.apply_delta",
            Layer::Sim => "net::sim",
            Layer::BlackBox => "protocols::blackbox",
            Layer::Bracha => "protocols::bracha",
            Layer::Smr => "protocols::smr",
            Layer::Encode => "protocols::wire.encode",
            Layer::Decode => "protocols::wire.decode",
            Layer::Send => "net::socket.try_send",
            Layer::Recv => "net::socket.try_recv",
            Layer::Twin => "net::twin.replay",
        }
    }
}

/// Counters recorded at the same seams as the spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    /// Bytes the codec wrote.
    CodecBytes,
    /// `try_send` calls refused with `SendError::Full`.
    SendFull,
    /// `try_recv` calls that returned an envelope.
    RecvHits,
}

const COUNTS: usize = 3;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer the span timed.
    pub layer: Layer,
    /// The enclosing span's layer on the same thread, if any.
    pub parent: Option<Layer>,
    /// The operation the span belongs to.
    pub op: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
}

thread_local! {
    /// Open spans of this thread: the layer when known at entry, and the
    /// time its closed children covered so far.
    static STACK: RefCell<Vec<(Option<Layer>, u64)>> = const { RefCell::new(Vec::new()) };
}

/// An open span. Its layer is fixed at exit, so a decorator can classify
/// a call by what it turned out to do.
pub struct Open {
    start: Instant,
}

/// Per-layer totals plus the kept spans of one traced pass.
pub struct Tracer {
    origin: Instant,
    op: AtomicU64,
    total_ns: [AtomicU64; LAYERS.len()],
    self_ns: [AtomicU64; LAYERS.len()],
    calls: [AtomicU64; LAYERS.len()],
    counts: [AtomicU64; COUNTS],
    kept: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer with zeroed totals.
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            origin: Instant::now(),
            op: AtomicU64::new(0),
            total_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            self_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            calls: std::array::from_fn(|_| AtomicU64::new(0)),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            kept: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Marks the operation subsequent spans belong to.
    pub fn set_op(&self, op: u64) {
        self.op.store(op, Ordering::Relaxed);
    }

    /// Opens a span on the current thread whose layer is decided at exit.
    pub fn enter(&self) -> Open {
        STACK.with(|s| s.borrow_mut().push((None, 0)));
        Open { start: Instant::now() }
    }

    /// Closes the innermost open span of the current thread as `layer`.
    pub fn exit(&self, open: Open, layer: Layer) {
        let end = Instant::now();
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let (child_ns, parent) = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let (_, child_ns) = s.pop().expect("exit matches an enter on this thread");
            let parent = s.last_mut().and_then(|(parent_layer, parent_child_ns)| {
                *parent_child_ns += dur;
                *parent_layer
            });
            (child_ns, parent)
        });
        let ix = layer as usize;
        let self_ns = dur.saturating_sub(child_ns);
        self.total_ns[ix].fetch_add(dur, Ordering::Relaxed);
        self.self_ns[ix].fetch_add(self_ns, Ordering::Relaxed);
        self.calls[ix].fetch_add(1, Ordering::Relaxed);
        if self.kept.load(Ordering::Relaxed) < SPAN_CAP
            && self.kept.fetch_add(1, Ordering::Relaxed) < SPAN_CAP
        {
            let span = Span {
                layer,
                parent,
                op: self.op.load(Ordering::Relaxed),
                start_ns: open.start.duration_since(self.origin).as_nanos() as u64,
                end_ns: end.duration_since(self.origin).as_nanos() as u64,
                self_ns,
            };
            self.spans.lock().expect("span buffer poisoned").push(span);
        }
    }

    /// Times `f` as one span of `layer`.
    pub fn time<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let open = self.enter_as(layer);
        let r = f();
        self.exit(open, layer);
        r
    }

    /// [`Tracer::enter`] for a span whose layer is known up front, so its
    /// children can name it as their parent.
    fn enter_as(&self, layer: Layer) -> Open {
        STACK.with(|s| s.borrow_mut().push((Some(layer), 0)));
        Open { start: Instant::now() }
    }

    /// Adds `k` to a counter.
    pub fn add(&self, count: Count, k: u64) {
        self.counts[count as usize].fetch_add(k, Ordering::Relaxed);
    }

    /// Total span time of `layer`, in milliseconds.
    pub fn total_ms(&self, layer: Layer) -> f64 {
        self.total_ns[layer as usize].load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Self time of `layer`, in milliseconds.
    pub fn self_ms(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize].load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Spans recorded for `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize].load(Ordering::Relaxed)
    }

    /// A counter's value.
    pub fn count(&self, count: Count) -> u64 {
        self.counts[count as usize].load(Ordering::Relaxed)
    }

    /// Writes the kept spans, one JSON object per line, followed by one
    /// summary line per layer.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let spans = self.spans.lock().expect("span buffer poisoned");
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"layer\":\"{}\",\"parent\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.layer.name(),
                s.parent.map_or("null".to_string(), |p| format!("\"{}\"", p.name())),
                s.op,
                s.start_ns,
                s.end_ns,
                s.self_ns
            )?;
        }
        for layer in LAYERS {
            let ix = layer as usize;
            writeln!(
                out,
                "{{\"summary\":\"{}\",\"calls\":{},\"total_ns\":{},\"self_ns\":{}}}",
                layer.name(),
                self.calls[ix].load(Ordering::Relaxed),
                self.total_ns[ix].load(Ordering::Relaxed),
                self.self_ns[ix].load(Ordering::Relaxed)
            )?;
        }
        out.flush()
    }
}

/// Times every check of the wrapped oracle and classifies it by whether
/// the check reached the knapsack DP (read from the per-check stats
/// delta, which this wrapper drains and hands back on `take_stats`).
pub struct TimedOracle<O> {
    inner: O,
    tracer: Arc<Tracer>,
    stats: SolveStats,
    /// Checks seen.
    pub checks: u64,
    /// Checks that reached the DP.
    pub dp_checks: u64,
}

impl<O> TimedOracle<O> {
    /// Wraps `inner`.
    pub fn new(inner: O, tracer: Arc<Tracer>) -> Self {
        TimedOracle { inner, tracer, stats: SolveStats::default(), checks: 0, dp_checks: 0 }
    }
}

impl<O: ValidityOracle> ValidityOracle for TimedOracle<O> {
    fn check(
        &mut self,
        member: &FamilyMember<'_>,
        params: &CheckParams,
    ) -> Result<Verdict, CoreError> {
        let open = self.tracer.enter();
        let verdict = self.inner.check(member, params);
        let delta = self.inner.take_stats();
        let layer = if delta.dp_invocations > 0 { Layer::OracleDp } else { Layer::OracleBound };
        self.tracer.exit(open, layer);
        self.checks += 1;
        self.dp_checks += u64::from(delta.dp_invocations > 0);
        self.stats.absorb(&delta);
        verdict
    }

    fn take_stats(&mut self) -> SolveStats {
        std::mem::take(&mut self.stats)
    }
}

/// Times every callback of the wrapped automaton as one span of `layer`
/// (a pass-through without a tracer).
pub struct TimedProtocol<P> {
    inner: P,
    layer: Layer,
    tracer: Option<Arc<Tracer>>,
}

impl<P> TimedProtocol<P> {
    /// Wraps `inner`, attributing its callbacks to `layer`.
    pub fn new(inner: P, layer: Layer, tracer: Arc<Tracer>) -> Self {
        Self::maybe(inner, layer, Some(tracer))
    }

    /// Wraps `inner`, timing its callbacks only when `tracer` is set.
    pub fn maybe(inner: P, layer: Layer, tracer: Option<Arc<Tracer>>) -> Self {
        TimedProtocol { inner, layer, tracer }
    }

    /// The wrapped automaton.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn call<R>(&mut self, f: impl FnOnce(&mut P) -> R) -> R {
        match &self.tracer {
            Some(t) => t.time(self.layer, || f(&mut self.inner)),
            None => f(&mut self.inner),
        }
    }
}

impl<P: Protocol> Protocol for TimedProtocol<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Context<P::Msg>) {
        self.call(|p| p.on_start(ctx));
    }

    fn on_message(&mut self, from: NodeId, msg: P::Msg, ctx: &mut Context<P::Msg>) {
        self.call(|p| p.on_message(from, msg, ctx));
    }

    fn on_timer(&mut self, id: u64, ctx: &mut Context<P::Msg>) {
        self.call(|p| p.on_timer(id, ctx));
    }

    fn on_reconfigure(&mut self, event: &EpochEvent, ctx: &mut Context<P::Msg>) {
        self.call(|p| p.on_reconfigure(event, ctx));
    }
}

/// Times every encode and decode of the wrapped codec and counts the
/// bytes it writes.
pub struct TimedCodec<C> {
    inner: C,
    tracer: Arc<Tracer>,
}

impl<C> TimedCodec<C> {
    /// Wraps `inner`.
    pub fn new(inner: C, tracer: Arc<Tracer>) -> Self {
        TimedCodec { inner, tracer }
    }
}

impl<M, C: WireCodec<M>> WireCodec<M> for TimedCodec<C> {
    fn encode(&self, msg: &M, out: &mut Vec<u8>) {
        let before = out.len();
        self.tracer.time(Layer::Encode, || self.inner.encode(msg, out));
        self.tracer.add(Count::CodecBytes, (out.len() - before) as u64);
    }

    fn decode(&self, buf: &[u8]) -> Result<M, WireError> {
        self.tracer.time(Layer::Decode, || self.inner.decode(buf))
    }
}

/// Times every `try_send` and `try_recv` of the wrapped transport and
/// counts backpressure refusals and useful polls.
pub struct TimedTransport<T> {
    inner: T,
    tracer: Arc<Tracer>,
}

impl<T> TimedTransport<T> {
    /// Wraps `inner`.
    pub fn new(inner: T, tracer: Arc<Tracer>) -> Self {
        TimedTransport { inner, tracer }
    }
}

impl<M, T: Transport<M>> Transport<M> for TimedTransport<T> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn try_send(&self, env: Envelope<M>) -> Result<(), SendError<M>> {
        let sent = self.tracer.time(Layer::Send, || self.inner.try_send(env));
        if matches!(sent, Err(SendError::Full(_))) {
            self.tracer.add(Count::SendFull, 1);
        }
        sent
    }

    fn try_recv(&self, node: NodeId) -> Option<Envelope<M>> {
        let got = self.tracer.time(Layer::Recv, || self.inner.try_recv(node));
        if got.is_some() {
            self.tracer.add(Count::RecvHits, 1);
        }
        got
    }

    fn close(&self) {
        self.inner.close();
    }

    fn take_dropped(&self) -> u64 {
        self.inner.take_dropped()
    }
}
