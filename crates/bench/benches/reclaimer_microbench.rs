//! Criterion micro-benchmarks of the primitive reclaimer operations: the per-operation cost
//! (`leave_qstate`/`enter_qstate`) and the per-retired-record cost (`retire`) for each
//! scheme.  These are the O(1) costs the paper claims for DEBRA/DEBRA+ (Sections 4 and 5)
//! and the per-announcement fence that makes hazard pointers expensive.
//!
//! Besides the primitive costs, the run measures *whole-structure* rows per scheme:
//! single-threaded operations on the lock-free hash map under a uniform and under a
//! Zipfian key distribution (`hashmap_uniform` / `hashmap_zipf`), the safe-API skip list
//! and external BST as absolute per-scheme costs (`skiplist_guard`, `bst_guard`), and the
//! guard-overhead pair `list_raw` / `list_guard` — the same Harris–Michael list written
//! directly against `RecordManagerThread` (the raw baseline lives in this file) versus
//! the safe `Domain`/`Guard`/`Shield` port in `lockfree-ds`, quantifying what the safe
//! API costs (everything stays fully monomorphized, no `dyn` on the hot path; measured
//! parity per scheme is documented in `DESIGN.md` §5).  The bag-shaped structures
//! contribute `queue_guard`/`stack_guard` rows (alternating push/pop, so half the
//! measured operations exercise the scheme's full retire pipeline — the per-op
//! reclamation cost no map mix reaches; these rows run malloc with no pool, i.e. every
//! retire really reaches `free` and every push really reaches `malloc`).  The
//! allocation-pipeline comparison adds `list_guard_pagepool`, `queue_guard_pagepool` and
//! `stack_guard_pagepool`: the same workloads composed with `smr-pagepool` (type-stable
//! pages + per-thread magazines) instead of malloc, so the JSON tracks what killing
//! malloc on the retire→free path buys per scheme.
//!
//! Every row gets its Record Manager composition from the scheme × memory registry
//! (`smr_workloads::registry`).  The eighth scheme, VBR, is only machine-safe over
//! type-stable memory, so the registry runs *every* VBR row over the page pool (the other
//! schemes keep their row's memory configuration).  The `readheavy` family is the
//! headline announcement-free-read comparison — read-heavy (90/5/5) list and hash-map
//! rows under uniform and Zipf 0.99 keys, run for EBR and VBR only, both over the page
//! pool so the allocator cancels out of the ratio being published.
//!
//! Every (family × scheme) cell of the matrix runs in its *own child process*
//! (`BENCH_GROUP=family:scheme`, spawned automatically by the parent run): a fresh heap,
//! empty page stores and zeroed thread registries per cell, so no row's number depends
//! on the cells that ran before it.  A run whose children cannot be spawned fails.
//!
//! Besides the human-readable output, the run writes a machine-readable summary to
//! `BENCH_reclaimer.json` (override the path with the `BENCH_JSON` environment variable),
//! seeding the repository's benchmark trajectory:
//!
//! ```text
//! cargo bench -p smr-bench --bench reclaimer_microbench
//! ```
//!
//! Set `BENCH_SMOKE=1` for a fast schema-complete run (CI uses this: the point is that
//! every expected row exists, not that the numbers are stable).

use std::io::Write as _;
use std::ptr::NonNull;
use std::sync::Arc;

use criterion::Criterion;
use debra::{Allocator, CountingSink, Pool, Reclaimer, ReclaimerThread, RecordManager};
use lockfree_ds::{BstNode, ConcurrentBag, ConcurrentMap, ListNode, SkipNode};
use smr_hashmap::{HashMapNode, LockFreeHashMap};
use smr_queue::{QueueNode, StackNode};
use smr_workloads::workload::{
    KeyDistribution, Operation, OperationGenerator, OperationMix, WorkloadConfig,
};
use smr_workloads::{AllocatorKind, BagNode, Composition, MapNode, ReclaimerKind};

/// The raw-API Harris–Michael list: the hand-rolled protect/validate/check implementation
/// that `lockfree_ds::list` used before the guard layer existed, kept here verbatim (in
/// condensed form) as the `list_raw` baseline the `list_guard` rows are measured against.
mod raw_list {
    use std::ptr::NonNull;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use debra::{Allocator, Neutralized, Pool, Reclaimer, RecordManager, RecordManagerThread};

    const MARK: usize = 1;

    #[inline]
    fn ptr_of<T>(word: usize) -> *mut T {
        (word & !MARK) as *mut T
    }

    #[inline]
    fn is_marked(word: usize) -> bool {
        word & MARK != 0
    }

    pub struct RawNode<K, V> {
        key: K,
        /// Stored for layout parity with the real node; the benchmark never reads it.
        #[allow(dead_code)]
        value: V,
        next: AtomicUsize,
    }

    mod slots {
        pub const PREV: usize = 0;
        pub const CURR: usize = 1;
    }

    pub struct RawList<K, V, R, P, A>
    where
        K: Ord + Clone + Send + Sync + 'static,
        V: Clone + Send + Sync + 'static,
        R: Reclaimer<RawNode<K, V>>,
        P: Pool<RawNode<K, V>>,
        A: Allocator<RawNode<K, V>>,
    {
        head: AtomicUsize,
        manager: Arc<RecordManager<RawNode<K, V>, R, P, A>>,
    }

    pub type RawHandle<K, V, R, P, A> = RecordManagerThread<RawNode<K, V>, R, P, A>;

    impl<K, V, R, P, A> RawList<K, V, R, P, A>
    where
        K: Ord + Clone + Send + Sync + 'static,
        V: Clone + Send + Sync + 'static,
        R: Reclaimer<RawNode<K, V>>,
        P: Pool<RawNode<K, V>>,
        A: Allocator<RawNode<K, V>>,
    {
        pub fn new(manager: Arc<RecordManager<RawNode<K, V>, R, P, A>>) -> Self {
            RawList { head: AtomicUsize::new(0), manager }
        }

        fn link_of(&self, prev: Option<NonNull<RawNode<K, V>>>) -> &AtomicUsize {
            match prev {
                // SAFETY: `prev` is protected by the calling operation (epoch or HP).
                Some(p) => unsafe { &p.as_ref().next },
                None => &self.head,
            }
        }

        #[allow(clippy::type_complexity)]
        fn search(
            &self,
            handle: &mut RawHandle<K, V, R, P, A>,
            key: &K,
        ) -> Result<(Option<NonNull<RawNode<K, V>>>, usize), Neutralized> {
            'retry: loop {
                handle.check()?;
                let mut prev: Option<NonNull<RawNode<K, V>>> = None;
                let mut curr_word = self.head.load(Ordering::Acquire);
                loop {
                    handle.check()?;
                    let Some(curr) = NonNull::new(ptr_of::<RawNode<K, V>>(curr_word)) else {
                        return Ok((prev, curr_word));
                    };
                    // Announce, then validate the full link word (mark bit included).
                    let prev_link = self.link_of(prev);
                    let expected = curr_word;
                    let valid = handle.protect(slots::CURR, curr, || {
                        prev_link.load(Ordering::SeqCst) == expected
                    });
                    if !valid {
                        continue 'retry;
                    }
                    // SAFETY: protected above (epoch announcement or validated HP).
                    let curr_ref = unsafe { curr.as_ref() };
                    let next_word = curr_ref.next.load(Ordering::Acquire);
                    if is_marked(next_word) {
                        let unlink_to = next_word & !MARK;
                        match self.link_of(prev).compare_exchange(
                            curr_word,
                            unlink_to,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        ) {
                            Ok(_) => {
                                // SAFETY: unique unlink CAS winner retires exactly once.
                                unsafe { handle.retire(curr) };
                                curr_word = unlink_to;
                                continue;
                            }
                            Err(_) => continue 'retry,
                        }
                    }
                    if curr_ref.key >= *key {
                        return Ok((prev, curr_word));
                    }
                    let _ = handle.protect(slots::PREV, curr, || true);
                    prev = Some(curr);
                    curr_word = next_word;
                }
            }
        }

        fn insert_body(
            &self,
            handle: &mut RawHandle<K, V, R, P, A>,
            key: &K,
            value: &V,
        ) -> Result<bool, Neutralized> {
            loop {
                let (prev, curr_word) = self.search(handle, key)?;
                if let Some(curr) = NonNull::new(ptr_of::<RawNode<K, V>>(curr_word)) {
                    // SAFETY: protected by the search above.
                    if unsafe { &curr.as_ref().key } == key {
                        return Ok(false);
                    }
                }
                let node = handle.allocate(RawNode {
                    key: key.clone(),
                    value: value.clone(),
                    next: AtomicUsize::new(curr_word),
                });
                if let Err(e) = handle.check() {
                    // SAFETY: never published.
                    unsafe { handle.deallocate(node) };
                    return Err(e);
                }
                match self.link_of(prev).compare_exchange(
                    curr_word,
                    node.as_ptr() as usize,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return Ok(true),
                    Err(_) => {
                        // SAFETY: never published.
                        unsafe { handle.deallocate(node) };
                        continue;
                    }
                }
            }
        }

        fn remove_body(
            &self,
            handle: &mut RawHandle<K, V, R, P, A>,
            key: &K,
        ) -> Result<bool, Neutralized> {
            loop {
                let (prev, curr_word) = self.search(handle, key)?;
                let Some(curr) = NonNull::new(ptr_of::<RawNode<K, V>>(curr_word)) else {
                    return Ok(false);
                };
                // SAFETY: protected by the search above.
                let curr_ref = unsafe { curr.as_ref() };
                if &curr_ref.key != key {
                    return Ok(false);
                }
                let next_word = curr_ref.next.load(Ordering::Acquire);
                if is_marked(next_word) {
                    continue;
                }
                handle.check()?;
                if curr_ref
                    .next
                    .compare_exchange(
                        next_word,
                        next_word | MARK,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_err()
                {
                    continue;
                }
                if self
                    .link_of(prev)
                    .compare_exchange(
                        curr_word,
                        next_word & !MARK,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
                {
                    // SAFETY: unique unlink CAS winner.
                    unsafe { handle.retire(curr) };
                }
                return Ok(true);
            }
        }

        fn contains_body(
            &self,
            handle: &mut RawHandle<K, V, R, P, A>,
            key: &K,
        ) -> Result<bool, Neutralized> {
            let (_prev, curr_word) = self.search(handle, key)?;
            if let Some(curr) = NonNull::new(ptr_of::<RawNode<K, V>>(curr_word)) {
                // SAFETY: protected by the search above.
                let curr_ref = unsafe { curr.as_ref() };
                return Ok(
                    &curr_ref.key == key && !is_marked(curr_ref.next.load(Ordering::Acquire))
                );
            }
            Ok(false)
        }

        fn run_op<Out>(
            &self,
            handle: &mut RawHandle<K, V, R, P, A>,
            mut body: impl FnMut(&Self, &mut RawHandle<K, V, R, P, A>) -> Result<Out, Neutralized>,
        ) -> Out {
            loop {
                let _ = handle.leave_qstate();
                match body(self, handle) {
                    Ok(out) => {
                        handle.enter_qstate();
                        return out;
                    }
                    Err(Neutralized) => {
                        handle.r_unprotect_all();
                        handle.begin_recovery();
                    }
                }
            }
        }

        pub fn insert(&self, handle: &mut RawHandle<K, V, R, P, A>, key: K, value: V) -> bool {
            self.run_op(handle, |this, h| this.insert_body(h, &key, &value))
        }

        pub fn remove(&self, handle: &mut RawHandle<K, V, R, P, A>, key: &K) -> bool {
            self.run_op(handle, |this, h| this.remove_body(h, key))
        }

        pub fn contains(&self, handle: &mut RawHandle<K, V, R, P, A>, key: &K) -> bool {
            self.run_op(handle, |this, h| this.contains_body(h, key))
        }
    }

    impl<K, V, R, P, A> Drop for RawList<K, V, R, P, A>
    where
        K: Ord + Clone + Send + Sync + 'static,
        V: Clone + Send + Sync + 'static,
        R: Reclaimer<RawNode<K, V>>,
        P: Pool<RawNode<K, V>>,
        A: Allocator<RawNode<K, V>>,
    {
        fn drop(&mut self) {
            let mut alloc = self.manager.teardown_allocator();
            let mut word = *self.head.get_mut();
            while let Some(node) = NonNull::new(ptr_of::<RawNode<K, V>>(word)) {
                // SAFETY: exclusive access during drop.
                unsafe {
                    word = node.as_ref().next.load(Ordering::Relaxed);
                    debra::AllocatorThread::deallocate(&mut alloc, node);
                }
            }
        }
    }

    // SAFETY: shared state is atomics only; nodes are Send/Sync when K and V are.
    unsafe impl<K, V, R, P, A> Send for RawList<K, V, R, P, A>
    where
        K: Ord + Clone + Send + Sync + 'static,
        V: Clone + Send + Sync + 'static,
        R: Reclaimer<RawNode<K, V>>,
        P: Pool<RawNode<K, V>>,
        A: Allocator<RawNode<K, V>>,
    {
    }
    unsafe impl<K, V, R, P, A> Sync for RawList<K, V, R, P, A>
    where
        K: Ord + Clone + Send + Sync + 'static,
        V: Clone + Send + Sync + 'static,
        R: Reclaimer<RawNode<K, V>>,
        P: Pool<RawNode<K, V>>,
        A: Allocator<RawNode<K, V>>,
    {
    }
}

fn bench_scheme<R>(c: &mut Criterion, name: &str)
where
    R: Reclaimer<u64>,
{
    let global = Arc::new(R::new(2));
    let mut thread = R::register(&global, 0).expect("register");
    let mut sink = CountingSink::default();
    let mut record = Box::new(0u64);
    let record_ptr = NonNull::from(&mut *record);

    c.bench_function(format!("{name}/op_boundary"), |b| {
        b.iter(|| {
            let _ = thread.leave_qstate(&mut sink);
            thread.enter_qstate();
        })
    });

    c.bench_function(format!("{name}/protect"), |b| {
        let _ = thread.leave_qstate(&mut sink);
        b.iter(|| {
            criterion::black_box(thread.protect(0, record_ptr, || true));
            thread.unprotect(0);
        });
        thread.enter_qstate();
    });
}

/// `retire` cost is measured separately with heap records that the sink frees, so that
/// schemes which reclaim during the measurement (DEBRA with a tiny increment threshold,
/// HP scans, IBR's amortized interval scan) do not accumulate unbounded garbage.
fn bench_retire<R>(c: &mut Criterion, name: &str)
where
    R: Reclaimer<u64>,
{
    struct FreeSink;
    impl debra::ReclaimSink<u64> for FreeSink {
        fn accept(&mut self, record: NonNull<u64>) {
            // SAFETY: records below are leaked boxes reclaimed exactly once.
            unsafe { drop(Box::from_raw(record.as_ptr())) }
        }
    }

    let global = Arc::new(R::new(2));
    let mut thread = R::register(&global, 0).expect("register");
    let mut sink = FreeSink;
    c.bench_function(format!("{name}/retire"), |b| {
        b.iter(|| {
            let _ = thread.leave_qstate(&mut sink);
            let r = NonNull::from(Box::leak(Box::new(0u64)));
            // Tag the birth era like the Record Manager would (no-op for other schemes).
            thread.record_allocated(r);
            // SAFETY: the record is unreachable (never published anywhere).
            unsafe { thread.retire(r, &mut sink) };
            thread.enter_qstate();
        })
    });
}

/// The primitive rows over `u64` records: `op_boundary` and `protect` for every scheme,
/// `retire` for the bag- or batch-based epoch schemes.
struct Prim<'a> {
    c: &'a mut Criterion,
    kind: ReclaimerKind,
}

impl Composition<u64> for Prim<'_> {
    type Out = ();

    fn run<R: Reclaimer<u64>, P: Pool<u64>, A: Allocator<u64>>(self, _: AllocatorKind) {
        bench_scheme::<R>(self.c, self.kind.name());
        if matches!(
            self.kind,
            ReclaimerKind::Debra | ReclaimerKind::Ebr | ReclaimerKind::Ibr | ReclaimerKind::Vbr
        ) {
            bench_retire::<R>(self.c, self.kind.name());
        }
    }
}

/// Measures row `name/op`: one operation of the pre-generated stream `ops` per iteration.
fn bench_ops(
    c: &mut Criterion,
    name: &str,
    op: &str,
    ops: &[Operation],
    mut apply: impl FnMut(Operation) -> bool,
) {
    let mut i = 0usize;
    c.bench_function(format!("{name}/{op}"), |b| {
        b.iter(|| {
            let next = ops[i & 0xFFFF];
            i += 1;
            apply(next)
        })
    });
}

/// Whole-structure rows: single-threaded hash-map operations under the given key
/// distribution.  The structure is prefilled to half the key range so every operation
/// works on realistic chains; removes retire records, so the scheme's whole retire →
/// reclaim pipeline is in the measured path.
struct HashmapRow<'a> {
    c: &'a mut Criterion,
    name: &'a str,
    op: &'a str,
    mix: OperationMix,
    distribution: KeyDistribution,
    slots: usize,
}

impl Composition<HashMapNode<u64, u64>> for HashmapRow<'_> {
    type Out = ();

    fn run<R, P, A>(self, _: AllocatorKind)
    where
        R: Reclaimer<HashMapNode<u64, u64>>,
        P: Pool<HashMapNode<u64, u64>>,
        A: Allocator<HashMapNode<u64, u64>>,
    {
        let HashmapRow { c, name, op, mix, distribution, slots } = self;
        let cfg = WorkloadConfig {
            threads: 1,
            key_range: 1_024,
            mix,
            distribution,
            ..WorkloadConfig::default()
        };
        let manager: Arc<RecordManager<_, R, P, A>> = Arc::new(RecordManager::new(slots));
        let map = LockFreeHashMap::with_buckets(manager, 64);
        let mut handle = map.register().expect("register bench thread");
        let mut gen = OperationGenerator::new(&cfg, 0, 0xB17);
        let target = (cfg.key_range / 2) as usize;
        let mut inserted = 0usize;
        let mut attempts = 0u64;
        while inserted < target && attempts < cfg.key_range * 8 {
            if map.insert(&mut handle, gen.next_uniform_key(), attempts) {
                inserted += 1;
            }
            attempts += 1;
        }

        // Pre-generate the operation stream so the measured path contains only map work:
        // the Zipf sampler does transcendental math per draw, which would otherwise bias
        // the uniform-vs-zipf comparison these rows exist to make.
        let ops: Vec<Operation> = (0..65_536).map(|_| gen.next_op()).collect();
        bench_ops(c, name, op, &ops, |next| match next {
            Operation::Insert(k) => map.insert(&mut handle, k, k),
            Operation::Delete(k) => map.remove(&mut handle, &k),
            Operation::Search(k) => map.contains(&mut handle, &k),
        });
    }
}

/// Key range for the guard-overhead list rows: small enough that one operation is a short
/// traversal (so fixed per-operation costs — which is where the guard layer could add
/// overhead — are *not* drowned out by traversal memory stalls).
const LIST_KEY_RANGE: u64 = 256;

/// Registry capacity for the read-heavy comparison rows.  The other families register
/// two slots — classic EBR's best case, since its pin scans *every* announcement slot
/// on *every* operation.  A service actually serving read-heavy traffic registers one
/// slot per worker thread, and that Θ(registered-threads) scan is exactly the term the
/// announcement-free scheme deletes, so these rows size the registry like a real
/// process (one measuring thread, the rest idle — idle EBR slots read `IDLE` and cost
/// a cache-line load each, they never stall the epoch).  VBR's pin reads one global
/// clock word regardless of capacity.
const READHEAVY_SLOTS: usize = 16;

/// Key range for the read-heavy list rows.  Same reasoning as [`LIST_KEY_RANGE`], but
/// stricter: these rows compare per-operation reader cost *between schemes*, and under
/// a read-mostly Zipf mix the list equilibrates near-full, so at 256 keys the rows
/// degenerate into a traversal-memory-stall benchmark where the schemes' per-operation
/// terms vanish into noise.  64 keys keeps one search a short traversal in both
/// distributions.  (The long-traversal regime is not lost — the `hashmap`-vs-`list`
/// pair inside this family spans short chains to multi-node walks, and DESIGN.md § 10
/// records that per-node validation cost on long walks is the checkpoint-validated
/// port's known tax.)
const READHEAVY_KEY_RANGE: u64 = 64;

/// Key range for the skip list / BST rows: larger than the list's (the structures are
/// logarithmic, so per-operation fixed costs need more elements to stay visible without
/// the traversal dominating).
const TREE_KEY_RANGE: u64 = 1_024;

/// A single-threaded workload shared by every row that runs it: the same seed gives the
/// same pre-generated operation stream, so twin rows (`list_raw` / `list_guard`) see
/// byte-identical workloads.
fn workload(
    key_range: u64,
    mix: OperationMix,
    distribution: KeyDistribution,
) -> (WorkloadConfig, Vec<Operation>) {
    let cfg =
        WorkloadConfig { threads: 1, key_range, mix, distribution, ..WorkloadConfig::default() };
    let mut gen = OperationGenerator::new(&cfg, 0, 0x5EED);
    let ops: Vec<Operation> = (0..65_536).map(|_| gen.next_op()).collect();
    (cfg, ops)
}

/// A row over a shared [`workload`] on a safe-API map structure (`list_guard`,
/// `skiplist_guard`, `bst_guard`, ...).  The structure is prefilled with
/// `key_range * 4` uniform insert attempts — i.e. to *nearly the full* key range (~98%
/// occupancy), so the timed phase is remove-heavy churn over long traversals.
struct MapRow<'a> {
    c: &'a mut Criterion,
    name: &'a str,
    op: &'a str,
    cfg: &'a WorkloadConfig,
    ops: &'a [Operation],
    slots: usize,
}

fn map_row<'a>(
    c: &'a mut Criterion,
    name: &'a str,
    op: &'a str,
    (cfg, ops): &'a (WorkloadConfig, Vec<Operation>),
    slots: usize,
) -> MapRow<'a> {
    MapRow { c, name, op, cfg, ops, slots }
}

impl<T: MapNode> Composition<T> for MapRow<'_> {
    type Out = ();

    fn run<R: Reclaimer<T>, P: Pool<T>, A: Allocator<T>>(self, _: AllocatorKind) {
        let MapRow { c, name, op, cfg, ops, slots } = self;
        let map = T::build::<R, P, A>(Arc::new(RecordManager::new(slots)));
        let mut handle = map.register().expect("lease bench thread slot");
        let mut gen = OperationGenerator::new(cfg, 0, 0xB17);
        for _ in 0..cfg.key_range * 4 {
            let _ = map.insert(&mut handle, gen.next_uniform_key(), 0);
        }
        bench_ops(c, name, op, ops, |next| match next {
            Operation::Insert(k) => map.insert(&mut handle, k, k),
            Operation::Delete(k) => map.remove(&mut handle, &k),
            Operation::Search(k) => map.contains(&mut handle, &k),
        });
    }
}

/// `list_raw`: the hand-rolled list of [`raw_list`] driven directly through
/// `RecordManagerThread` — the pre-guard-layer baseline — over the same workload and
/// prefill as its `list_guard` twin.
struct RawListRow<'a>(MapRow<'a>);

type RawNode = raw_list::RawNode<u64, u64>;

impl Composition<RawNode> for RawListRow<'_> {
    type Out = ();

    fn run<R: Reclaimer<RawNode>, P: Pool<RawNode>, A: Allocator<RawNode>>(self, _: AllocatorKind) {
        let MapRow { c, name, op, cfg, ops, slots } = self.0;
        let manager: Arc<RecordManager<RawNode, R, P, A>> = Arc::new(RecordManager::new(slots));
        let list = raw_list::RawList::new(Arc::clone(&manager));
        let mut handle = manager.register(0).expect("register bench thread");
        let mut gen = OperationGenerator::new(cfg, 0, 0xB17);
        for _ in 0..cfg.key_range * 4 {
            let _ = list.insert(&mut handle, gen.next_uniform_key(), 0);
        }
        bench_ops(c, name, op, ops, |next| match next {
            Operation::Insert(k) => list.insert(&mut handle, k, k),
            Operation::Delete(k) => list.remove(&mut handle, &k),
            Operation::Search(k) => list.contains(&mut handle, &k),
        });
    }
}

/// Number of values in the bag before (and, in expectation, throughout) the measured
/// phase of the `queue_guard`/`stack_guard` rows.
const BAG_PREFILL: u64 = 256;

/// `queue_guard`/`stack_guard`: single-threaded alternating push/pop on the bag-shaped
/// safe-API structures.  Every second operation is a successful pop and therefore a
/// *retire*, so — unlike any map row at any mix — half the measured operations run the
/// scheme's full retire pipeline: this is the per-operation reclamation cost the
/// producer/consumer workloads stress at scale.  Every push allocates, so over the page
/// pool (`_pagepool` rows) these rows are where the allocation pipeline dominates.
struct BagRow<'a> {
    c: &'a mut Criterion,
    name: &'a str,
    op: &'a str,
}

impl<T: BagNode> Composition<T> for BagRow<'_> {
    type Out = ();

    fn run<R: Reclaimer<T>, P: Pool<T>, A: Allocator<T>>(self, _: AllocatorKind) {
        let bag = T::build::<R, P, A>(Arc::new(RecordManager::new(2)));
        let mut handle = bag.register().expect("lease bench thread slot");
        for i in 0..BAG_PREFILL {
            bag.push(&mut handle, i);
        }
        let mut i = 0u64;
        self.c.bench_function(format!("{}/{}", self.name, self.op), |b| {
            b.iter(|| {
                i += 1;
                if i & 1 == 0 {
                    bag.push(&mut handle, i);
                    true
                } else {
                    criterion::black_box(bag.pop(&mut handle)).is_some()
                }
            })
        });
    }
}

/// Benchmark families, each of which runs in its *own child process* per scheme (see
/// `main`).  The `readheavy` family runs only for EBR and VBR (see [`cell_exists`]).
const FAMILIES: [&str; 7] = ["list", "skiplist", "bst", "prim", "hashmap", "bags", "readheavy"];

/// Whether a (family × scheme) cell is part of the matrix.  The read-heavy family is
/// deliberately the EBR-vs-VBR pair only.
fn cell_exists(family: &str, kind: ReclaimerKind) -> bool {
    family != "readheavy" || matches!(kind, ReclaimerKind::Ebr | ReclaimerKind::Vbr)
}

/// Runs one (family × scheme) cell of the benchmark matrix.  Map rows run over malloc
/// with a per-thread pool; bag rows over malloc with *no* pool, since with a pool in
/// front `deallocate` never reaches the allocator and the row would measure pool
/// recycling, not the system allocation pipeline; `_pagepool` and `readheavy` rows over
/// the page pool.
fn run_group(c: &mut Criterion, family: &str, kind: ReclaimerKind) {
    use AllocatorKind::{PagePool, SystemNoPool, SystemWithPool};
    type ListGuardNode = ListNode<u64, u64>;
    let name = kind.name();
    match family {
        "list" => {
            // The pair runs in both orders and `merge_best` keeps the best run per row:
            // schemes that never free (None) grow the heap monotonically, so whichever
            // row is measured later sees a colder, wider heap.
            let wl = workload(LIST_KEY_RANGE, OperationMix::UPDATE_HEAVY, KeyDistribution::Uniform);
            kind.dispatch::<RawNode, _>(
                SystemWithPool,
                RawListRow(map_row(c, name, "list_raw", &wl, 2)),
            );
            kind.dispatch::<ListGuardNode, _>(
                SystemWithPool,
                map_row(c, name, "list_guard", &wl, 2),
            );
            kind.dispatch::<ListGuardNode, _>(
                SystemWithPool,
                map_row(c, name, "list_guard", &wl, 2),
            );
            kind.dispatch::<RawNode, _>(
                SystemWithPool,
                RawListRow(map_row(c, name, "list_raw", &wl, 2)),
            );
            kind.dispatch::<ListGuardNode, _>(
                PagePool,
                map_row(c, name, "list_guard_pagepool", &wl, 2),
            );
        }
        "skiplist" => {
            let wl = workload(TREE_KEY_RANGE, OperationMix::UPDATE_HEAVY, KeyDistribution::Uniform);
            kind.dispatch::<SkipNode<u64, u64>, _>(
                SystemWithPool,
                map_row(c, name, "skiplist_guard", &wl, 2),
            );
        }
        "bst" => {
            let wl = workload(TREE_KEY_RANGE, OperationMix::UPDATE_HEAVY, KeyDistribution::Uniform);
            kind.dispatch::<BstNode<u64, u64>, _>(
                SystemWithPool,
                map_row(c, name, "bst_guard", &wl, 2),
            );
        }
        // The primitive rows use neither pool nor allocator; the page pool is the one
        // memory configuration every scheme accepts as requested.
        "prim" => kind.dispatch::<u64, _>(PagePool, Prim { c, kind }),
        "hashmap" => {
            for (distribution, op) in [
                (KeyDistribution::Uniform, "hashmap_uniform"),
                (KeyDistribution::ZIPF_DEFAULT, "hashmap_zipf"),
            ] {
                let row = HashmapRow {
                    c,
                    name,
                    op,
                    mix: OperationMix::UPDATE_HEAVY,
                    distribution,
                    slots: 2,
                };
                kind.dispatch::<HashMapNode<u64, u64>, _>(SystemWithPool, row);
            }
        }
        "bags" => {
            for (memory, suffix) in [(SystemNoPool, ""), (PagePool, "_pagepool")] {
                let op = format!("queue_guard{suffix}");
                kind.dispatch::<QueueNode<u64>, _>(memory, BagRow { c, name, op: &op });
                let op = format!("stack_guard{suffix}");
                kind.dispatch::<StackNode<u64>, _>(memory, BagRow { c, name, op: &op });
            }
        }
        "readheavy" => {
            for (distribution, tag) in
                [(KeyDistribution::Uniform, "uniform"), (KeyDistribution::ZIPF_DEFAULT, "zipf")]
            {
                let wl = workload(READHEAVY_KEY_RANGE, OperationMix::READ_MOSTLY, distribution);
                let op = format!("list_raw_readheavy_{tag}");
                kind.dispatch::<RawNode, _>(
                    PagePool,
                    RawListRow(map_row(c, name, &op, &wl, READHEAVY_SLOTS)),
                );
                let op = format!("list_readheavy_{tag}");
                kind.dispatch::<ListGuardNode, _>(
                    PagePool,
                    map_row(c, name, &op, &wl, READHEAVY_SLOTS),
                );
                let op = format!("hashmap_readheavy_{tag}");
                let row = HashmapRow {
                    c,
                    name,
                    op: &op,
                    mix: OperationMix::READ_MOSTLY,
                    distribution,
                    slots: READHEAVY_SLOTS,
                };
                kind.dispatch::<HashMapNode<u64, u64>, _>(PagePool, row);
            }
        }
        other => panic!("unknown bench family `{other}` (expected one of {FAMILIES:?})"),
    }
}

/// One JSON row, independent of where it was measured (this process or a child).
#[derive(Clone)]
struct Row {
    name: String,
    ns_per_iter: f64,
    iters: u64,
}

/// Merges rows into `rows`, keeping the best (lowest ns) run per name.  Rows measured
/// more than once (the order-alternated raw/guard pairs) exist to cancel heap-growth
/// ordering bias, not to report it.
fn merge_best(rows: &mut Vec<Row>, incoming: impl IntoIterator<Item = Row>) {
    for r in incoming {
        match rows.iter_mut().find(|kept| kept.name == r.name) {
            Some(kept) => {
                if r.ns_per_iter < kept.ns_per_iter {
                    *kept = r;
                }
            }
            None => rows.push(r),
        }
    }
}

/// Serializes the rows as JSON (schema: `{"benchmarks": [{"name", "scheme", "op",
/// "ns_per_iter", "iters"}]}`), written without a JSON dependency on purpose.
fn write_json(rows: &[Row], path: &str) -> std::io::Result<()> {
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let (scheme, op) = r.name.split_once('/').unwrap_or((r.name.as_str(), ""));
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"scheme\": \"{}\", \"op\": \"{}\", \
             \"ns_per_iter\": {:.3}, \"iters\": {}}}{}\n",
            r.name,
            scheme,
            op,
            r.ns_per_iter,
            r.iters,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    let mut f = std::fs::File::create(path)?;
    f.write_all(out.as_bytes())
}

/// Parses the one-row-per-line JSON `write_json` produces back into rows (the parent
/// reads each child's output file with this; same minimal scan as `bench_schema_check`).
fn parse_json(text: &str) -> Vec<Row> {
    fn field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
        let tag = format!("\"{name}\": ");
        let start = line.find(&tag)? + tag.len();
        let rest = &line[start..];
        if let Some(stripped) = rest.strip_prefix('"') {
            let end = stripped.find('"')?;
            Some(&stripped[..end])
        } else {
            let end = rest
                .find(|ch: char| !(ch.is_ascii_digit() || ch == '.' || ch == '-' || ch == 'e'))
                .unwrap_or(rest.len());
            Some(&rest[..end])
        }
    }
    text.lines()
        .filter(|l| l.contains("\"name\""))
        .filter_map(|line| {
            Some(Row {
                name: field(line, "name")?.to_string(),
                ns_per_iter: field(line, "ns_per_iter")?.parse().ok()?,
                iters: field(line, "iters")?.parse().ok()?,
            })
        })
        .collect()
}

fn drain_criterion(c: &Criterion) -> Vec<Row> {
    c.results()
        .iter()
        .map(|r| Row { name: r.name.clone(), ns_per_iter: r.ns_per_iter, iters: r.iters })
        .collect()
}

fn make_criterion(smoke: bool) -> Criterion {
    let (sample, measure_ms, warmup_ms) = if smoke { (5, 40, 10) } else { (20, 1000, 300) };
    Criterion::default()
        .sample_size(sample)
        .measurement_time(std::time::Duration::from_millis(measure_ms))
        .warm_up_time(std::time::Duration::from_millis(warmup_ms))
        .configure_from_args()
}

/// Spawns one child process per (family × scheme) cell — `BENCH_GROUP=family:scheme` —
/// and merges their JSON outputs.  Fresh child state per cell is the point: every cell
/// starts on a young heap, empty page stores and zeroed thread registries, so no row's
/// number depends on which cells ran before it.  Returns `Err` if a child cannot be
/// spawned or its output read; a cell that *runs* and fails aborts the whole run.
fn run_isolated() -> std::io::Result<Vec<Row>> {
    let exe = std::env::current_exe()?;
    let mut rows: Vec<Row> = Vec::new();
    for (i, family) in FAMILIES.iter().enumerate() {
        for (j, kind) in ReclaimerKind::ALL.into_iter().enumerate() {
            if !cell_exists(family, kind) {
                continue;
            }
            let group = format!("{family}:{}", kind.name());
            let tmp = std::env::temp_dir().join(format!(
                "bench_group_{}_{}_{}.json",
                std::process::id(),
                i,
                j
            ));
            println!("--- {group} (fresh process) ---");
            let status = std::process::Command::new(&exe)
                .env("BENCH_GROUP", &group)
                .env("BENCH_JSON", &tmp)
                .status()?;
            if !status.success() {
                eprintln!("bench group {group} failed ({status}); aborting");
                let _ = std::fs::remove_file(&tmp);
                std::process::exit(1);
            }
            let text = std::fs::read_to_string(&tmp)?;
            let _ = std::fs::remove_file(&tmp);
            merge_best(&mut rows, parse_json(&text));
        }
    }
    Ok(rows)
}

/// Prints the headline read-heavy EBR-vs-VBR table — the announcement-free-read claim
/// as measured numbers, eyeballed in the nightly sweep's log (never a gate: ratios are
/// machine-dependent).  Both columns run over the page pool, so the allocator cancels
/// out and the ratio isolates the read-side protocol cost.
fn print_readheavy_comparison(rows: &[Row]) {
    let ns = |scheme: &str, op: &str| {
        rows.iter().find(|r| r.name == format!("{scheme}/{op}")).map(|r| r.ns_per_iter)
    };
    let ops = [
        "list_raw_readheavy_uniform",
        "list_readheavy_uniform",
        "hashmap_readheavy_uniform",
        "list_raw_readheavy_zipf",
        "list_readheavy_zipf",
        "hashmap_readheavy_zipf",
    ];
    println!(
        "\nread-heavy (90/5/5) EBR vs VBR, ns/op over the page pool, \
         {READHEAVY_SLOTS}-slot registry (lower is better):"
    );
    println!("  {:28} {:>10} {:>10} {:>9}", "op", "EBR", "VBR", "VBR/EBR");
    for op in ops {
        if let (Some(e), Some(v)) = (ns("EBR", op), ns("VBR", op)) {
            println!("  {op:28} {e:>10.1} {v:>10.1} {:>8.2}x", v / e);
        }
    }
}

fn main() {
    // Smoke mode (CI): every benchmark still runs — so the JSON schema is complete — but
    // with a minimal time budget.  The numbers are only good enough to be non-NaN.
    // Children inherit the variable from the parent's environment.
    let smoke = std::env::var("BENCH_SMOKE").map(|v| v == "1").unwrap_or(false);
    // Default to the workspace root (cargo bench runs with the package as cwd).
    let path = std::env::var("BENCH_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_reclaimer.json").into()
    });

    // Child mode: run exactly one (family × scheme) cell and write its rows.
    if let Ok(group) = std::env::var("BENCH_GROUP") {
        let (family, scheme) = group
            .split_once(':')
            .unwrap_or_else(|| panic!("BENCH_GROUP must be `family:scheme`, got `{group}`"));
        let kind = ReclaimerKind::from_name(scheme)
            .unwrap_or_else(|| panic!("unknown scheme `{scheme}` in BENCH_GROUP=`{group}`"));
        let mut criterion = make_criterion(smoke);
        run_group(&mut criterion, family, kind);
        let mut rows = Vec::new();
        merge_best(&mut rows, drain_criterion(&criterion));
        if let Err(e) = write_json(&rows, &path) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        return;
    }

    // Parent mode: one fresh child process per cell.
    let rows = match run_isolated() {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("cannot run the per-cell bench processes: {e}");
            std::process::exit(1);
        }
    };
    match write_json(&rows, &path) {
        Ok(()) => {
            print_readheavy_comparison(&rows);
            println!("\nwrote {path} ({} rows)", rows.len());
        }
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}
