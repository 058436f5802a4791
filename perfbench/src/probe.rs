//! Per-layer probes: the reclaimer, safe-layer and pool calls a data structure makes,
//! each driven in isolation on every worker thread at once and timed in spans around
//! batches of calls.
//!
//! | span | layer | calls per batch |
//! |---|---|---|
//! | `reclaim.pin` | reclaimer | `leave_qstate` + `enter_qstate` |
//! | `reclaim.protect` | reclaimer | `protect` of a record, inside one operation |
//! | `reclaim.retire` | reclaimer + pool | `allocate` + `retire`, 16 per operation bracket |
//! | `guard.pin` | safe layer | `DomainHandle::pin` + drop of the guard |
//! | `guard.protect` | safe layer | `Shield::protect` of a published link |
//! | `pool.alloc` | pool + allocator | `Guard::alloc` + `Guard::discard` |
//!
//! The `reclaim.*` phases share one Record Manager and the guard and pool phases a
//! `Domain` over another, both on the type-stable page pool, so the probes see the same
//! memory configuration as the gated cells.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use debra::{Atomic, Domain, Reclaimer, RecordManager};
use smr_pagepool::{PageAllocator, PagePool};

use crate::cell::Scheme;
use crate::stats::median;
use crate::trace::{self_times, Span, SpanBuf, TraceClock};

/// The record type the probes allocate: the size of a small map node.  Its payload is
/// never read; it only gives the record its size.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeRecord(#[allow(dead_code)] [u64; 6]);

/// Calls per batch span.
const BATCH: u64 = 1024;
/// Records allocated and retired per operation bracket in `reclaim.retire`.
const RETIRES_PER_OP: u64 = 16;

pub const PHASES: [&str; 6] = [
    "reclaim.pin",
    "reclaim.protect",
    "reclaim.retire",
    "guard.pin",
    "guard.protect",
    "pool.alloc",
];

/// Median nanoseconds per call of each phase, in [`PHASES`] order, plus every span.
#[derive(Debug)]
pub struct ProbeOut {
    pub ns_per_call: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
}

type Mgr<R> = RecordManager<ProbeRecord, R, PagePool<ProbeRecord>, PageAllocator<ProbeRecord>>;

/// Runs `batch` back to back until `budget` is spent, one span per batch under `parent`.
fn batches(
    spans: &mut SpanBuf,
    clock: TraceClock,
    name: &'static str,
    parent: u64,
    budget: Duration,
    mut batch: impl FnMut(),
) {
    let until = Instant::now() + budget;
    let mut n = 0;
    while Instant::now() < until {
        let start = clock.now();
        batch();
        let end = clock.now();
        let id = spans.fresh_id();
        spans.record(Span { name, id, parent, op: n, start, end });
        n += 1;
    }
}

fn probe_thread<R: Reclaimer<ProbeRecord>>(
    t: usize,
    raw: &Arc<Mgr<R>>,
    domain: &Domain<ProbeRecord, R, PagePool<ProbeRecord>, PageAllocator<ProbeRecord>>,
    barrier: &Barrier,
    clock: TraceClock,
    phase: Duration,
) -> Vec<Span> {
    let mut spans = SpanBuf::new(t as u64 + 1, 1 << 13);
    let root = spans.fresh_id();
    let root_start = clock.now();
    let rec = ProbeRecord::default();

    let mut h = raw.register(t).expect("probe thread slot");
    barrier.wait();
    batches(&mut spans, clock, PHASES[0], root, phase, || {
        for _ in 0..BATCH {
            let _ = h.leave_qstate();
            h.enter_qstate();
        }
    });
    barrier.wait();
    let target = h.allocate(rec);
    batches(&mut spans, clock, PHASES[1], root, phase, || {
        let _ = h.leave_qstate();
        for _ in 0..BATCH {
            let ok = h.protect(0, std::hint::black_box(target), || true);
            std::hint::black_box(ok);
        }
        h.unprotect(0);
        h.enter_qstate();
    });
    let _ = h.leave_qstate();
    // SAFETY: `target` was allocated by this thread and never shared with another
    // thread or linked anywhere, so no thread can reach it; it is retired once.
    unsafe { h.retire(target) };
    h.enter_qstate();
    barrier.wait();
    batches(&mut spans, clock, PHASES[2], root, phase, || {
        for _ in 0..BATCH / RETIRES_PER_OP {
            let _ = h.leave_qstate();
            for _ in 0..RETIRES_PER_OP {
                let r = h.allocate(rec);
                // SAFETY: as above — a private record, retired exactly once.
                unsafe { h.retire(r) };
            }
            h.enter_qstate();
        }
    });
    drop(h);

    let handle = domain.handle();
    barrier.wait();
    batches(&mut spans, clock, PHASES[3], root, phase, || {
        for _ in 0..BATCH {
            drop(std::hint::black_box(handle.pin()));
        }
    });
    let link = {
        let g = handle.pin();
        Atomic::from_owned(g.alloc(rec))
    };
    barrier.wait();
    batches(&mut spans, clock, PHASES[4], root, phase, || {
        let g = handle.pin();
        let mut shield = g.shield();
        for _ in 0..BATCH {
            std::hint::black_box(shield.protect(std::hint::black_box(&link)).is_ok());
        }
    });
    {
        let g = handle.pin();
        g.retire(link.load(Ordering::Acquire, &g));
    }
    barrier.wait();
    batches(&mut spans, clock, PHASES[5], root, phase, || {
        let g = handle.pin();
        for _ in 0..BATCH {
            let o = g.alloc(std::hint::black_box(rec));
            g.discard(o);
        }
    });
    let root_end = clock.now();
    spans.record(Span {
        name: "probe",
        id: root,
        parent: 0,
        op: 0,
        start: root_start,
        end: root_end,
    });
    spans.into_spans()
}

fn probe_scheme<R: Reclaimer<ProbeRecord>>(threads: usize, millis: u64) -> ProbeOut {
    let raw: Arc<Mgr<R>> = Arc::new(RecordManager::new(threads));
    let domain = Domain::new(threads);
    let barrier = Barrier::new(threads);
    let clock = TraceClock::new();
    let phase = Duration::from_millis(millis) / PHASES.len() as u32;
    let spans: Vec<Span> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..threads)
            .map(|t| {
                let (raw, domain, barrier) = (&raw, &domain, &barrier);
                s.spawn(move || probe_thread(t, raw, domain, barrier, clock, phase))
            })
            .collect();
        hs.into_iter().flat_map(|h| h.join().expect("probe thread panicked")).collect()
    });
    let own = self_times(&spans);
    let ns_per_call = PHASES
        .iter()
        .map(|&name| {
            let per_call: Vec<f64> = spans
                .iter()
                .zip(&own)
                .filter(|(s, _)| s.name == name)
                .map(|(_, &t)| t as f64 / BATCH as f64)
                .collect();
            (name, median(&per_call).unwrap_or(f64::NAN))
        })
        .collect();
    ProbeOut { ns_per_call, spans }
}

/// Probes `scheme` on `threads` threads for about `millis` milliseconds in total.
pub fn run(scheme: Scheme, threads: usize, millis: u64) -> ProbeOut {
    use debra::{Debra, DebraPlus};
    use smr_baselines::{ClassicEbr, HazardPointers, NoReclaim};
    use smr_ibr::Ibr;
    match scheme {
        Scheme::None => probe_scheme::<NoReclaim<ProbeRecord>>(threads, millis),
        Scheme::Debra => probe_scheme::<Debra<ProbeRecord>>(threads, millis),
        Scheme::DebraPlus => probe_scheme::<DebraPlus<ProbeRecord>>(threads, millis),
        Scheme::Hp => probe_scheme::<HazardPointers<ProbeRecord>>(threads, millis),
        Scheme::Ebr => probe_scheme::<ClassicEbr<ProbeRecord>>(threads, millis),
        Scheme::Ibr => probe_scheme::<Ibr<ProbeRecord>>(threads, millis),
    }
}
