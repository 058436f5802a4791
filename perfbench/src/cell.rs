//! One benchmark cell: a workload run against one (scheme × pool × allocator)
//! composition, set up, timed, and verified — in a process of its own.
//!
//! The cell drives the structures through their public API only: the
//! `ConcurrentMap`/`ConcurrentBag` traits, the structures' `new`/`len`, and the
//! `RecordManager`'s statistics.  Workers run a closed loop (each issues its next
//! operation only after the previous one returned).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use debra::{Allocator, Pool, PoolStats, Reclaimer, ReclaimerStats, RecordManager};
use lockfree_ds::{BstNode, ConcurrentBag, ConcurrentMap, ExternalBst, SkipList, SkipNode};
use smr_queue::{MsQueue, QueueNode};

use crate::gen::{value_of, Mix, Op, OpGen};
use crate::stats::{median, percentile, Reservoir};
use crate::trace::{self_times, Span, SpanBuf, TraceClock};
use crate::verify::{encode, verify_map, verify_queue, Consumer, MapTally, QueueLedger};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// External BST, 50% insert / 50% delete, uniform keys over 10^4, prefilled to half.
    BstUpdate,
    /// Skip list, 90% search / 5% insert / 5% delete, uniform keys over 2·10^5,
    /// prefilled to half.
    SkiplistRead,
    /// MS queue, 50% enqueue / 50% dequeue, prefilled, next to a pinned laggard that
    /// holds operations open for 5 ms windows.
    QueueStalled,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "bst_update" => Some(Workload::BstUpdate),
            "skiplist_read" => Some(Workload::SkiplistRead),
            "queue_stalled" => Some(Workload::QueueStalled),
            _ => None,
        }
    }

    fn mix(self) -> Mix {
        match self {
            Workload::BstUpdate | Workload::QueueStalled => Mix { insert_pct: 50, delete_pct: 50 },
            Workload::SkiplistRead => Mix { insert_pct: 5, delete_pct: 5 },
        }
    }

    fn key_range(self) -> u64 {
        match self {
            Workload::BstUpdate => 10_000,
            Workload::SkiplistRead => 200_000,
            // Keys are unused by the queue; the range only feeds the generator.
            Workload::QueueStalled => 1,
        }
    }

    /// The span names of operation kinds 0, 1 and 2.
    fn kind_names(self) -> [&'static str; 3] {
        match self {
            Workload::QueueStalled => ["ds.enq", "ds.deq", "ds.none"],
            _ => ["ds.insert", "ds.delete", "ds.search"],
        }
    }

    fn laggard_stall(self) -> Option<Duration> {
        (self == Workload::QueueStalled).then(|| Duration::from_millis(5))
    }
}

/// Values prefilled into the queue: deep enough that a 50/50 random walk of a few
/// million operations rarely drains it.
const QUEUE_PREFILL: u64 = 1 << 14;
/// Total bits of the queue's dequeue ledger (8 MiB), shared among its producers.
const QUEUE_LEDGER_BITS: u64 = 1 << 26;

/// The reclamation scheme of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    None,
    Debra,
    DebraPlus,
    Hp,
    Ebr,
    Ibr,
}

impl Scheme {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(Scheme::None),
            "debra" => Some(Scheme::Debra),
            "debra_plus" => Some(Scheme::DebraPlus),
            "hp" => Some(Scheme::Hp),
            "ebr" => Some(Scheme::Ebr),
            "ibr" => Some(Scheme::Ibr),
            _ => None,
        }
    }
}

/// The pool + allocator of a cell (the ladder's rungs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Memory {
    /// Bump allocator, no pool: reclaimed records are never reused.
    Bump,
    /// Bump allocator behind the per-thread `ThreadPool`.
    BumpPooled,
    /// The type-stable page pool (`smr-pagepool`).
    PagePool,
}

impl Memory {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "bump" => Some(Memory::Bump),
            "bump_pool" => Some(Memory::BumpPooled),
            "pagepool" => Some(Memory::PagePool),
            _ => None,
        }
    }
}

/// Everything a cell needs to know.
#[derive(Debug, Clone)]
pub struct CellCfg {
    pub workload: Workload,
    pub scheme: Scheme,
    pub memory: Memory,
    pub seed: u64,
    /// Worker threads (the laggard, if any, is extra).
    pub threads: usize,
    /// Length of the timed phase.
    pub millis: u64,
    /// Record spans (at a denser stride) and return them.
    pub traced: bool,
    /// Stop the timed phase early once the allocator has handed out this many bytes
    /// (bounds the never-reusing bump rungs).
    pub byte_cap: u64,
}

/// What a cell measured.
#[derive(Debug)]
pub struct CellOut {
    /// Operations run, the warm-up included.
    pub attempted: u64,
    /// Operations completed in the timed phase (the denominator of per-op counters).
    pub timed_ops: u64,
    pub verdict: Result<(), String>,
    /// Construction, prefill and worker (and laggard) registration.
    pub setup_s: f64,
    /// Median over segments of the completed-operation rate.
    pub mops: f64,
    /// Median over segments of the mean limbo size (retired, not yet freed record
    /// bytes) the poller saw in the segment.
    pub limbo_mean_bytes: f64,
    /// The sampled per-operation latencies (ns).
    pub latency: Vec<u32>,
    /// Reclaimer counters over the timed phase (the limbo high watermark is absolute).
    pub reclaim: ReclaimerStats,
    pub pool: PoolStats,
    /// Median self time of the sampled operation spans (traced cells): of every kind,
    /// and of the updates alone (insert and delete, or enqueue and dequeue).
    pub op_p50_ns: Option<u64>,
    pub update_p50_ns: Option<u64>,
    pub spans: Vec<Span>,
}

/// Shared per-cell control block.
struct Control {
    go: AtomicBool,
    /// Set once the warm-up is over: only then do workers record latency samples.
    measuring: AtomicBool,
    stop: AtomicBool,
    ready: AtomicUsize,
    counts: Vec<Padded>,
}

#[repr(align(128))]
struct Padded(AtomicU64);

impl Control {
    fn new(workers: usize) -> Self {
        Control {
            go: AtomicBool::new(false),
            measuring: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            ready: AtomicUsize::new(0),
            counts: (0..workers).map(|_| Padded(AtomicU64::new(0))).collect(),
        }
    }

    fn completed(&self) -> u64 {
        self.counts.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }

    fn wait_go(&self) {
        while !self.go.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    }
}

/// Views of the cell's Record Manager — its statistics and its laggard — as closures,
/// so the cell body needs no access to the manager's type parameters.
struct Gauges {
    reclaimer: Box<dyn Fn() -> ReclaimerStats + Send + Sync>,
    pool: Box<dyn Fn() -> PoolStats + Send + Sync>,
    alloc_bytes: Box<dyn Fn() -> u64 + Send + Sync>,
    /// Runs the laggard on the calling thread until the cell stops.
    laggard: LaggardFn,
}

type LaggardFn = Box<dyn Fn(&Control, Duration) + Send + Sync>;

impl Gauges {
    fn of<T, R, P, A>(manager: &Arc<RecordManager<T, R, P, A>>) -> Self
    where
        T: Send + 'static,
        R: Reclaimer<T>,
        P: Pool<T>,
        A: Allocator<T>,
    {
        let (m1, m2, m3, m4) =
            (Arc::clone(manager), Arc::clone(manager), Arc::clone(manager), Arc::clone(manager));
        Gauges {
            reclaimer: Box::new(move || m1.reclaimer().stats()),
            pool: Box::new(move || m2.pool().stats()),
            alloc_bytes: Box::new(move || m3.allocator().allocated_bytes()),
            laggard: Box::new(move |ctl, stall| laggard(&m4, ctl, stall)),
        }
    }
}

/// A registered participant that holds operations open for `stall`-long windows with
/// ~1 ms quiescent gaps, and responds to DEBRA+ neutralization by recovering and
/// re-entering — a preempted reader made deterministic.  It takes the manager's last
/// slot, which the structure's automatic slot leasing then skips.
fn laggard<T, R, P, A>(manager: &Arc<RecordManager<T, R, P, A>>, ctl: &Control, stall: Duration)
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    let mut lag = manager.register(manager.max_threads() - 1).expect("laggard thread slot");
    ctl.ready.fetch_add(1, Ordering::SeqCst);
    ctl.wait_go();
    while !ctl.stop.load(Ordering::Relaxed) {
        let _ = lag.leave_qstate();
        let window = Instant::now();
        while window.elapsed() < stall && !ctl.stop.load(Ordering::Relaxed) {
            if lag.check().is_err() {
                lag.begin_recovery();
                let _ = lag.leave_qstate();
            }
            std::thread::yield_now();
        }
        lag.enter_qstate();
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A structure under test, with the bookkeeping its verification needs.
trait Subject: Sync {
    type Handle;
    type Tally: Send;
    fn register(&self) -> Self::Handle;
    fn tally(&self, worker: usize) -> Self::Tally;
    fn exec(&self, handle: &mut Self::Handle, tally: &mut Self::Tally, op: Op);
    /// Checks the final state; called on the main thread after every worker stopped.
    fn verify(&self, tallies: Vec<Self::Tally>) -> Result<(), String>;
}

/// A map with a quiescent element count.
pub trait BenchMap: ConcurrentMap<u64, u64> {
    fn size(&self, handle: &mut Self::Handle) -> usize;
}

impl<R, P, A> BenchMap for ExternalBst<u64, u64, R, P, A>
where
    R: Reclaimer<BstNode<u64, u64>>,
    P: Pool<BstNode<u64, u64>>,
    A: Allocator<BstNode<u64, u64>>,
{
    fn size(&self, handle: &mut Self::Handle) -> usize {
        self.len(handle)
    }
}

impl<R, P, A> BenchMap for SkipList<u64, u64, R, P, A>
where
    R: Reclaimer<SkipNode<u64, u64>>,
    P: Pool<SkipNode<u64, u64>>,
    A: Allocator<SkipNode<u64, u64>>,
{
    fn size(&self, handle: &mut Self::Handle) -> usize {
        self.len(handle)
    }
}

struct MapSubject<M> {
    map: M,
    key_range: u64,
    prefilled: u64,
}

impl<M: BenchMap> MapSubject<M> {
    /// Inserts seeded random keys until half the key range is present.  The prefill
    /// handle is dropped before the workers start: an idle registered thread would hold
    /// back classic EBR, whose announcements persist between operations.
    fn prefill(map: M, seed: u64, key_range: u64) -> Self {
        let mut handle = map.register().expect("main thread slot");
        let handle = &mut handle;
        let mut keys =
            OpGen::new(seed, u64::MAX, Mix { insert_pct: 100, delete_pct: 0 }, key_range);
        let mut prefilled = 0;
        while prefilled < key_range / 2 {
            let k = keys.next_key();
            prefilled += map.insert(handle, k, value_of(k)) as u64;
        }
        MapSubject { map, key_range, prefilled }
    }
}

impl<M: BenchMap> Subject for MapSubject<M> {
    type Handle = M::Handle;
    type Tally = MapTally;

    fn register(&self) -> M::Handle {
        self.map.register().expect("map thread slot")
    }

    fn tally(&self, _worker: usize) -> MapTally {
        MapTally::default()
    }

    #[inline]
    fn exec(&self, h: &mut M::Handle, t: &mut MapTally, op: Op) {
        match op {
            Op::Insert(k) => t.inserted += self.map.insert(h, k, value_of(k)) as u64,
            Op::Delete(k) => t.deleted += self.map.remove(h, &k) as u64,
            Op::Search(k) => {
                if let Some(v) = self.map.get(h, &k) {
                    t.wrong_values += (v != value_of(k)) as u64;
                }
            }
        }
    }

    fn verify(&self, tallies: Vec<MapTally>) -> Result<(), String> {
        let h = &mut self.register();
        let mut sum = MapTally::default();
        tallies.iter().for_each(|t| sum.add(t));
        let len = self.map.size(h);
        let present: Vec<(u64, u64)> =
            (0..self.key_range).filter_map(|k| self.map.get(h, &k).map(|v| (k, v))).collect();
        verify_map(self.prefilled, &sum, len, &present)
    }
}

/// A bag with a quiescent element count.
pub trait BenchBag: ConcurrentBag<u64> {
    fn size(&self, handle: &mut Self::Handle) -> usize;
}

impl<R, P, A> BenchBag for MsQueue<u64, R, P, A>
where
    R: Reclaimer<QueueNode<u64>>,
    P: Pool<QueueNode<u64>>,
    A: Allocator<QueueNode<u64>>,
{
    fn size(&self, handle: &mut Self::Handle) -> usize {
        self.len(handle)
    }
}

/// Every worker both produces (producer index = worker index) and consumes; the
/// prefill is producer `workers`.
struct QueueSubject<Q> {
    queue: Q,
    ledger: QueueLedger,
    workers: usize,
}

struct QueueTally {
    producer: usize,
    pushed: u64,
    consumer: Consumer,
}

impl<Q: BenchBag> QueueSubject<Q> {
    fn prefill(queue: Q, workers: usize) -> Self {
        let handle = &mut queue.register().expect("main thread slot");
        let ledger = QueueLedger::new(workers + 1, QUEUE_LEDGER_BITS / (workers as u64 + 1));
        for seq in 0..QUEUE_PREFILL {
            queue.push(handle, encode(workers, seq));
        }
        QueueSubject { queue, ledger, workers }
    }
}

impl<Q: BenchBag> Subject for QueueSubject<Q> {
    type Handle = Q::Handle;
    type Tally = QueueTally;

    fn register(&self) -> Q::Handle {
        self.queue.register().expect("queue thread slot")
    }

    fn tally(&self, worker: usize) -> QueueTally {
        QueueTally { producer: worker, pushed: 0, consumer: Consumer::new(self.workers + 1) }
    }

    #[inline]
    fn exec(&self, h: &mut Q::Handle, t: &mut QueueTally, op: Op) {
        match op {
            // A producer that used up its ledger share stops producing (its enqueues
            // become no-ops); at the rates of a few cores this never happens.
            Op::Insert(_) if t.pushed < self.ledger.per_producer() => {
                self.queue.push(h, encode(t.producer, t.pushed));
                t.pushed += 1;
            }
            Op::Insert(_) => {}
            Op::Delete(_) | Op::Search(_) => {
                if let Some(v) = self.queue.pop(h) {
                    t.consumer.consume(&self.ledger, v);
                }
            }
        }
    }

    fn verify(&self, tallies: Vec<QueueTally>) -> Result<(), String> {
        let h = &mut self.register();
        let mut pushed: Vec<u64> = tallies.iter().map(|t| t.pushed).collect();
        pushed.push(QUEUE_PREFILL);
        let popped: u64 = tallies.iter().map(|t| t.consumer.popped).sum();
        let len = self.queue.size(h);
        let mut drain = Consumer::new(self.workers + 1);
        while let Some(v) = self.queue.pop(h) {
            drain.consume(&self.ledger, v);
        }
        let mut consumers: Vec<Consumer> = tallies.into_iter().map(|t| t.consumer).collect();
        consumers.push(drain);
        verify_queue(&self.ledger, &pushed, &consumers, popped, len)
    }
}

/// Operation-sampling strides (powers of two): one in `STRIDE` operations is timed —
/// the decision is made before the operation, so the sample is unbiased.  The traced
/// run samples four times as densely and also records a span per sampled operation.
const STRIDE: u64 = 32;
const TRACED_STRIDE: u64 = 8;
/// The timed phase is cut into this many equal segments; the rate and the limbo size
/// are medians over segments, so a short disturbance moves neither.
const SEGMENTS: u32 = 10;
/// The workload runs unmeasured for an eighth of the timed phase first, so the pool,
/// the caches and the reclaimer's epoch and neutralization rhythm reach steady state.
const WARMUP_DIVISOR: u32 = 8;
/// How often the main thread polls the limbo gauge and the allocator during the timed
/// phase (it sleeps in between and runs no operations).  A peak would be set by the
/// single longest scheduling hiccup of the run; the mean of polls is steady.
const POLL: Duration = Duration::from_millis(2);
/// Per-worker reservoir capacities.
const LATENCY_RESERVOIR: usize = 1 << 16;
const SPAN_RESERVOIR: usize = 1 << 14;

/// A worker's sampling state.
struct Recorder {
    mask: u64,
    phase: u64,
    clock: TraceClock,
    latency: Reservoir<u32>,
    spans: Option<SpanBuf>,
    names: [&'static str; 3],
    root: u64,
}

impl Recorder {
    #[inline]
    fn record(&mut self, kind: usize, op: u64, start: u64, end: u64) {
        self.latency.offer((end - start).min(u32::MAX as u64) as u32);
        if let Some(spans) = self.spans.as_mut() {
            let id = spans.fresh_id();
            spans.record(Span { name: self.names[kind], id, parent: self.root, op, start, end });
        }
    }
}

struct WorkerOut<T> {
    tally: T,
    ops: u64,
    rec: Recorder,
}

fn worker<S: Subject>(
    cfg: &CellCfg,
    subject: &S,
    ctl: &Control,
    w: usize,
    clock: TraceClock,
    root: u64,
) -> WorkerOut<S::Tally> {
    let mut h = subject.register();
    let mut tally = subject.tally(w);
    let mut gen = OpGen::new(cfg.seed, w as u64, cfg.workload.mix(), cfg.workload.key_range());
    let stride = if cfg.traced { TRACED_STRIDE } else { STRIDE };
    let mut rec = Recorder {
        mask: stride - 1,
        phase: (w as u64 * 7) & (stride - 1),
        clock,
        latency: Reservoir::new(LATENCY_RESERVOIR, cfg.seed ^ w as u64),
        spans: cfg.traced.then(|| SpanBuf::new(w as u64 + 1, SPAN_RESERVOIR)),
        names: cfg.workload.kind_names(),
        root,
    };
    ctl.ready.fetch_add(1, Ordering::SeqCst);
    ctl.wait_go();
    let mut ops = 0u64;
    loop {
        if ops & 63 == 0 {
            ctl.counts[w].0.store(ops, Ordering::Relaxed);
            if ctl.stop.load(Ordering::Relaxed) {
                break;
            }
        }
        let op = gen.next_op();
        if ops & rec.mask == rec.phase && ctl.measuring.load(Ordering::Relaxed) {
            let start = rec.clock.now();
            subject.exec(&mut h, &mut tally, op);
            let end = rec.clock.now();
            rec.record(op.kind(), ((w as u64) << 48) | ops, start, end);
        } else {
            subject.exec(&mut h, &mut tally, op);
        }
        ops += 1;
    }
    WorkerOut { tally, ops, rec }
}

/// Sets the cell up, runs the warm-up and the timed phase, and verifies the result.
fn run_cell<S: Subject>(cfg: &CellCfg, build: impl FnOnce() -> (S, Gauges)) -> CellOut {
    let t0 = Instant::now();
    let (subject, gauges) = build();
    let ctl = Control::new(cfg.threads);
    let clock = TraceClock::new();
    let mut spans = SpanBuf::new(0, 1);
    let root = spans.fresh_id();
    let stall = cfg.workload.laggard_stall();
    let mut setup_s = 0.0;
    let (mut rates, mut limbo) = (Vec::new(), Vec::new());
    let (outs, before, start_ns, timed_ops) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..cfg.threads)
            .map(|w| {
                let (subject, ctl) = (&subject, &ctl);
                s.spawn(move || worker(cfg, subject, ctl, w, clock, root))
            })
            .collect();
        let (gauges, ctl) = (&gauges, &ctl);
        let lag = stall.map(|stall| s.spawn(move || (gauges.laggard)(ctl, stall)));
        let expected = cfg.threads + lag.is_some() as usize;
        while ctl.ready.load(Ordering::SeqCst) < expected {
            std::thread::yield_now();
        }
        setup_s = t0.elapsed().as_secs_f64();
        ctl.go.store(true, Ordering::Release);
        std::thread::sleep(Duration::from_millis(cfg.millis) / WARMUP_DIVISOR);
        let before = (gauges.reclaimer)();
        let (start_ns, start) = (clock.now(), Instant::now());
        ctl.measuring.store(true, Ordering::Relaxed);
        let seg_len = Duration::from_millis(cfg.millis) / SEGMENTS;
        let first_ops = ctl.completed();
        let (mut prev_ops, mut prev_t) = (first_ops, start);
        let mut capped = false;
        for seg in 1..=SEGMENTS {
            let deadline = start + seg_len * seg;
            let (mut limbo_sum, mut polls) = (0u64, 0u64);
            while let Some(left) = deadline.checked_duration_since(Instant::now()) {
                std::thread::sleep(left.min(POLL));
                limbo_sum += (gauges.reclaimer)().limbo_bytes;
                polls += 1;
                if (gauges.alloc_bytes)() >= cfg.byte_cap {
                    capped = true;
                    break;
                }
            }
            let (done, now) = (ctl.completed(), Instant::now());
            rates.push((done - prev_ops) as f64 / (now - prev_t).as_secs_f64() / 1e6);
            limbo.push(limbo_sum as f64 / polls.max(1) as f64);
            (prev_ops, prev_t) = (done, now);
            if capped {
                break;
            }
        }
        ctl.stop.store(true, Ordering::SeqCst);
        let outs: Vec<WorkerOut<S::Tally>> =
            workers.into_iter().map(|h| h.join().expect("worker panicked")).collect();
        if let Some(lag) = lag {
            lag.join().expect("laggard panicked");
        }
        (outs, before, start_ns, prev_ops - first_ops)
    });
    spans.record(Span {
        name: "cell",
        id: root,
        parent: 0,
        op: 0,
        start: start_ns,
        end: clock.now(),
    });
    let reclaim = delta(&before, &(gauges.reclaimer)());
    let pool = (gauges.pool)();

    let attempted = outs.iter().map(|o| o.ops).sum();
    let latency: Vec<u32> =
        outs.iter().flat_map(|o| o.rec.latency.items().iter().copied()).collect();
    let mut spans = spans.into_spans();
    let mut tallies = Vec::new();
    for out in outs {
        tallies.push(out.tally);
        spans.extend(out.rec.spans.map(SpanBuf::into_spans).unwrap_or_default());
    }
    let own = self_times(&spans);
    let [update_a, update_b, _] = cfg.workload.kind_names();
    let p50_of = |keep: &dyn Fn(&str) -> bool| {
        let mut v: Vec<u32> = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name.starts_with("ds.") && keep(s.name))
            .map(|(_, &t)| t.min(u32::MAX as u64) as u32)
            .collect();
        v.sort_unstable();
        percentile(&v, 0.5).map(u64::from)
    };
    let op_p50_ns = p50_of(&|_| true);
    let update_p50_ns = p50_of(&|name| name == update_a || name == update_b);
    CellOut {
        attempted,
        timed_ops,
        verdict: subject.verify(tallies),
        setup_s,
        mops: median(&rates).unwrap_or(0.0),
        limbo_mean_bytes: median(&limbo).unwrap_or(0.0),
        latency,
        reclaim,
        pool,
        op_p50_ns,
        update_p50_ns,
        spans,
    }
}

/// Counter deltas over the timed phase; gauges and the high watermark as of the end.
fn delta(before: &ReclaimerStats, after: &ReclaimerStats) -> ReclaimerStats {
    ReclaimerStats {
        retired: after.retired - before.retired,
        reclaimed: after.reclaimed - before.reclaimed,
        epochs_advanced: after.epochs_advanced - before.epochs_advanced,
        signals_sent: after.signals_sent - before.signals_sent,
        operations: after.operations - before.operations,
        neutralized: after.neutralized - before.neutralized,
        epoch_stalls: after.epoch_stalls - before.epoch_stalls,
        ..*after
    }
}

/// Thread slots: the workers, the main thread's handle, and the laggard's reserved slot.
fn slots(cfg: &CellCfg) -> usize {
    cfg.threads + 1 + cfg.workload.laggard_stall().is_some() as usize
}

fn bst_cell<R, P, A>(cfg: &CellCfg) -> CellOut
where
    R: Reclaimer<BstNode<u64, u64>>,
    P: Pool<BstNode<u64, u64>>,
    A: Allocator<BstNode<u64, u64>>,
{
    run_cell(cfg, || {
        let manager = Arc::new(RecordManager::<BstNode<u64, u64>, R, P, A>::new(slots(cfg)));
        let map = ExternalBst::new(Arc::clone(&manager));
        let subject = MapSubject::prefill(map, cfg.seed, cfg.workload.key_range());
        (subject, Gauges::of(&manager))
    })
}

fn skiplist_cell<R, P, A>(cfg: &CellCfg) -> CellOut
where
    R: Reclaimer<SkipNode<u64, u64>>,
    P: Pool<SkipNode<u64, u64>>,
    A: Allocator<SkipNode<u64, u64>>,
{
    run_cell(cfg, || {
        let manager = Arc::new(RecordManager::<SkipNode<u64, u64>, R, P, A>::new(slots(cfg)));
        let map = SkipList::new(Arc::clone(&manager));
        let subject = MapSubject::prefill(map, cfg.seed, cfg.workload.key_range());
        (subject, Gauges::of(&manager))
    })
}

fn queue_cell<R, P, A>(cfg: &CellCfg) -> CellOut
where
    R: Reclaimer<QueueNode<u64>>,
    P: Pool<QueueNode<u64>>,
    A: Allocator<QueueNode<u64>>,
{
    run_cell(cfg, || {
        let manager = Arc::new(RecordManager::<QueueNode<u64>, R, P, A>::new(slots(cfg)));
        let queue = MsQueue::new(Arc::clone(&manager));
        let subject = QueueSubject::prefill(queue, cfg.threads);
        (subject, Gauges::of(&manager))
    })
}

macro_rules! by_memory {
    ($f:ident, $node:ty, $recl:ident, $cfg:expr) => {
        match $cfg.memory {
            Memory::Bump => {
                $f::<$recl<$node>, smr_alloc::NoPool<$node>, smr_alloc::BumpAllocator<$node>>($cfg)
            }
            Memory::BumpPooled => {
                $f::<$recl<$node>, smr_alloc::ThreadPool<$node>, smr_alloc::BumpAllocator<$node>>(
                    $cfg,
                )
            }
            Memory::PagePool => $f::<
                $recl<$node>,
                smr_pagepool::PagePool<$node>,
                smr_pagepool::PageAllocator<$node>,
            >($cfg),
        }
    };
}

macro_rules! by_scheme {
    ($f:ident, $node:ty, $cfg:expr) => {{
        use debra::{Debra, DebraPlus};
        use smr_baselines::{ClassicEbr, HazardPointers, NoReclaim};
        use smr_ibr::Ibr;
        match $cfg.scheme {
            Scheme::None => by_memory!($f, $node, NoReclaim, $cfg),
            Scheme::Debra => by_memory!($f, $node, Debra, $cfg),
            Scheme::DebraPlus => by_memory!($f, $node, DebraPlus, $cfg),
            Scheme::Hp => by_memory!($f, $node, HazardPointers, $cfg),
            Scheme::Ebr => by_memory!($f, $node, ClassicEbr, $cfg),
            Scheme::Ibr => by_memory!($f, $node, Ibr, $cfg),
        }
    }};
}

/// Runs one cell of `cfg`'s composition.
pub fn run(cfg: &CellCfg) -> CellOut {
    match cfg.workload {
        Workload::BstUpdate => by_scheme!(bst_cell, BstNode<u64, u64>, cfg),
        Workload::SkiplistRead => by_scheme!(skiplist_cell, SkipNode<u64, u64>, cfg),
        Workload::QueueStalled => by_scheme!(queue_cell, QueueNode<u64>, cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(workload: Workload, scheme: Scheme, memory: Memory) -> CellCfg {
        CellCfg {
            workload,
            scheme,
            memory,
            seed: 3,
            threads: 2,
            millis: 40,
            traced: true,
            byte_cap: 8 << 20,
        }
    }

    #[test]
    fn every_workload_runs_and_verifies() {
        for (workload, scheme, memory) in [
            (Workload::BstUpdate, Scheme::Hp, Memory::PagePool),
            (Workload::SkiplistRead, Scheme::Ibr, Memory::BumpPooled),
            (Workload::QueueStalled, Scheme::DebraPlus, Memory::PagePool),
            (Workload::QueueStalled, Scheme::None, Memory::Bump),
        ] {
            let out = run(&cfg(workload, scheme, memory));
            assert_eq!(out.verdict, Ok(()), "{workload:?} {scheme:?}");
            assert!(out.attempted > 0 && out.mops > 0.0);
            assert!(out.setup_s > 0.0);
            // The root span plus sampled operation spans, all under the root.
            assert!(out.spans.iter().filter(|s| s.parent != 0).count() > 10);
        }
    }
}
