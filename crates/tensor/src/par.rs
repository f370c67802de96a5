//! Deterministic parallel execution helpers shared by the whole stack.
//!
//! # Parallelism/determinism contract
//!
//! Every helper in this module partitions work into *fixed* units (rows,
//! samples, or fixed-size coordinate chunks) whose boundaries do not depend
//! on the number of worker threads. Each unit is computed independently and
//! results are merged in unit order on the calling thread, so every f32
//! produced under `FABFLIP_THREADS=1` is bitwise identical to the output at
//! any other thread count.
//!
//! The thread budget is resolved once per process, in priority order:
//! 1. [`set_max_threads`] (e.g. from a CLI flag),
//! 2. the `FABFLIP_THREADS` environment variable,
//! 3. `std::thread::available_parallelism()`.
//!
//! # Persistent worker pool
//!
//! Dispatches run on a lazily-initialized, process-wide pool of workers
//! parked on a condvar — no OS threads are spawned per dispatch. Workers
//! claim *fixed* blocks dynamically (an atomic cursor), which is safe under
//! the contract above: block boundaries are computed by the caller from the
//! problem shape and thread budget alone, each block's math is a pure
//! function of its block index, and merge order is by block index — so
//! which thread runs a block can never affect results. A panic inside any
//! block is caught, short-circuits the remaining blocks, and is re-thrown
//! on the calling thread once the dispatch has fully drained; workers
//! survive the panic and keep serving later dispatches. Shrinking the
//! budget via [`set_max_threads`] parks surplus workers at their next
//! dispatch — threads are never killed mid-job. Nested dispatches (from
//! inside a pool job) run serially on the current thread, which the
//! contract guarantees is bitwise-equivalent.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Fixed coordinate-chunk length used by chunked reductions (`vecops`).
/// Part of the determinism contract: changing it re-tiles the reductions
/// but still cannot change results, because chunks never split a single
/// coordinate's accumulation.
pub const CHUNK: usize = 4096;

/// Default ceiling on pool workers ever spawned, independent of how high
/// the budget is set. Workers park when idle, so the only cost of a
/// high-water mark is stack reservations. Many-core serving hosts can
/// raise (or lower) it with `FABFLIP_MAX_POOL_WORKERS`, clamped to the
/// detected core count — see [`max_pool_workers`].
const DEFAULT_MAX_POOL_WORKERS: usize = 64;

/// Cached resolved pool-worker cap (0 = not yet resolved).
static POOL_CAP: AtomicUsize = AtomicUsize::new(0);

/// Resolves the pool-worker cap from the `FABFLIP_MAX_POOL_WORKERS`
/// override and the detected core count. Pure, so the env/cores
/// interaction is unit-testable without process-global races: an explicit
/// positive override is honoured but clamped to `cores` (a cap above the
/// hardware can only oversubscribe), anything else falls back to the
/// default ceiling.
fn resolve_pool_cap(env: Option<&str>, cores: usize) -> usize {
    match env
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        Some(n) => n.min(cores.max(1)),
        None => DEFAULT_MAX_POOL_WORKERS,
    }
}

/// The process-wide cap on pool workers ever spawned, resolved once from
/// `FABFLIP_MAX_POOL_WORKERS` (clamped to detected cores) or the built-in
/// default of 64. Like [`max_threads`], the first reader wins and the
/// value is cached for the life of the process.
pub fn max_pool_workers() -> usize {
    let cached = POOL_CAP.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(DEFAULT_MAX_POOL_WORKERS);
    let n = resolve_pool_cap(
        std::env::var("FABFLIP_MAX_POOL_WORKERS").ok().as_deref(),
        cores,
    );
    POOL_CAP.store(n, Ordering::Relaxed);
    n
}

thread_local! {
    /// True while this thread is executing blocks of a pool job (as the
    /// dispatching caller or as a pool worker). Makes nested parallel
    /// helpers run serially instead of re-entering the pool.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Mutex lock that shrugs off poisoning: pool state stays consistent even
/// if a panic unwound through a lock holder (all critical sections are
/// panic-free bookkeeping).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Caps the worker threads used by all fabflip parallel helpers.
///
/// Call before any parallel work runs (the value is consulted on every
/// dispatch, but in-flight dispatches keep the count they started with).
/// Tests and benchmarks use it to pin a thread count; nested parallelism
/// needs no pin, since a dispatch from inside a pool job already runs
/// serially. Shrinking the budget never kills pool workers: surplus
/// workers simply stay parked.
pub fn set_max_threads(n: usize) {
    MAX_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// The current worker-thread budget (≥ 1). Inside a pool job this is
/// always 1: nested dispatches run serially on the current thread.
pub fn max_threads() -> usize {
    if IN_JOB.with(Cell::get) {
        return 1;
    }
    let cached = MAX_THREADS.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = std::env::var("FABFLIP_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    MAX_THREADS.store(n, Ordering::Relaxed);
    n
}

/// One in-flight dispatch: a borrowed block runner plus claim/panic
/// bookkeeping. Lives on the dispatching thread's stack for the duration
/// of the dispatch (see the safety argument on [`JobRef`]).
struct Job<'a> {
    run: &'a (dyn Fn(usize) + Sync),
    n_blocks: usize,
    /// Next unclaimed block index; `>= n_blocks` means exhausted.
    next: AtomicUsize,
    /// First panic payload observed in any block, re-thrown by the caller.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl Job<'_> {
    /// Claims and runs blocks until the cursor is exhausted. The first
    /// panic is parked in `self.panic` and short-circuits every block not
    /// yet claimed (their outputs would be discarded by the unwinding
    /// caller anyway).
    fn work(&self) {
        loop {
            let b = self.next.fetch_add(1, Ordering::Relaxed);
            if b >= self.n_blocks {
                break;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.run)(b))) {
                self.next.store(self.n_blocks, Ordering::Relaxed);
                let mut slot = lock(&self.panic);
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        }
    }
}

/// Type-erased pointer to a [`Job`] on a dispatcher's stack.
///
/// Safety argument: workers only dereference the pointer between
/// registering (`in_job += 1`, under the pool mutex, while the job is
/// published) and deregistering (`in_job -= 1`), and [`dispatch`] does not
/// return until it has unpublished the job *and* observed `in_job == 0`
/// for its epoch — so the pointee, and the closure it borrows, strictly
/// outlive every access. The lifetime is erased to `'static` only to give
/// the pointer a nameable type inside the global state.
#[derive(Clone, Copy)]
struct JobRef(*const Job<'static>);

// SAFETY(sync: JobRef): the dispatch protocol (type-level argument above)
// guarantees the pointee outlives all worker accesses, and `Job` itself is
// `Sync` (its closure is `Sync`, its bookkeeping is atomics + mutexes).
unsafe impl Send for JobRef {}

/// Pool bookkeeping, all guarded by one mutex.
struct PoolState {
    /// The currently published job, if any. At most one at a time:
    /// concurrent dispatchers queue on `done`.
    job: Option<JobRef>,
    /// Bumped on every publish so a worker never re-joins a job it has
    /// already finished helping with.
    epoch: u64,
    /// How many more workers may still join the current job. Set at
    /// publish time to `min(requested helpers, spawned)`; this is how a
    /// shrunken budget parks surplus workers without killing them.
    helper_slots: usize,
    /// Workers currently executing the published job's blocks.
    in_job: usize,
    /// Worker threads ever spawned (they never exit).
    spawned: usize,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signals parked workers that a job was published.
    work: Condvar,
    /// Signals dispatchers: job drained, or the pool is free for the next
    /// queued dispatch.
    done: Condvar,
}

fn pool() -> &'static PoolShared {
    static POOL: OnceLock<PoolShared> = OnceLock::new();
    POOL.get_or_init(|| PoolShared {
        state: Mutex::new(PoolState {
            job: None,
            epoch: 0,
            helper_slots: 0,
            in_job: 0,
            spawned: 0,
        }),
        work: Condvar::new(),
        done: Condvar::new(),
    })
}

/// Lazily tops the pool up to `wanted` workers (capped). Spawn failures
/// are tolerated: the dispatch simply runs with fewer helpers.
fn ensure_workers(shared: &'static PoolShared, wanted: usize) {
    let target = wanted.min(max_pool_workers());
    let mut st = lock(&shared.state);
    while st.spawned < target {
        let res = std::thread::Builder::new()
            // fabcheck::allow(alloc_on_hot_path): one-time worker spawn —
            // the pool tops up at most max_pool_workers() times per process.
            .name(format!("fabflip-par-{}", st.spawned))
            .spawn(move || worker_loop(shared));
        match res {
            Ok(_) => st.spawned += 1,
            Err(_) => break,
        }
    }
}

fn worker_loop(shared: &'static PoolShared) {
    let mut seen_epoch = 0u64;
    loop {
        let job_ref = {
            let mut st = lock(&shared.state);
            loop {
                match st.job {
                    Some(j) if st.epoch != seen_epoch && st.helper_slots > 0 => {
                        seen_epoch = st.epoch;
                        st.helper_slots -= 1;
                        st.in_job += 1;
                        break j;
                    }
                    _ => {
                        st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        };
        // SAFETY(sync: JobRef): this worker registered under the lock while
        // the job was published, so per the `JobRef` protocol the dispatcher
        // is blocked until we deregister below — the stack `Job` is alive.
        let job: &Job<'_> = unsafe { &*job_ref.0 };
        IN_JOB.with(|f| f.set(true));
        job.work();
        IN_JOB.with(|f| f.set(false));
        let mut st = lock(&shared.state);
        st.in_job -= 1;
        if st.in_job == 0 {
            shared.done.notify_all();
        }
    }
}

/// Runs `run(b)` for every `b in 0..n_blocks`, with up to `helpers` pool
/// workers assisting the calling thread. Block *boundaries* are fixed by
/// the caller; blocks are claimed dynamically, which cannot affect results
/// because each block's computation and merge slot depend only on its
/// index. Panics from any block propagate to the caller after the dispatch
/// has fully drained.
fn dispatch(n_blocks: usize, helpers: usize, run: &(dyn Fn(usize) + Sync)) {
    if n_blocks == 0 {
        return;
    }
    if helpers == 0 || n_blocks == 1 || IN_JOB.with(Cell::get) {
        let job = Job {
            run,
            n_blocks,
            next: AtomicUsize::new(0),
            panic: Mutex::new(None),
        };
        let was_in_job = IN_JOB.with(Cell::get);
        IN_JOB.with(|f| f.set(true));
        job.work();
        IN_JOB.with(|f| f.set(was_in_job));
        if let Some(payload) = lock(&job.panic).take() {
            resume_unwind(payload);
        }
        return;
    }
    let shared = pool();
    ensure_workers(shared, helpers);
    let job = Job {
        run,
        n_blocks,
        next: AtomicUsize::new(0),
        panic: Mutex::new(None),
    };
    let my_epoch;
    {
        let mut st = lock(&shared.state);
        // One job at a time: wait for any in-flight dispatch to fully
        // drain before publishing (its dispatcher wakes us via `done`).
        while st.job.is_some() || st.in_job > 0 {
            st = shared.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.job = Some(JobRef(std::ptr::from_ref(&job).cast::<Job<'static>>()));
        st.epoch = st.epoch.wrapping_add(1);
        my_epoch = st.epoch;
        st.helper_slots = helpers.min(st.spawned);
        shared.work.notify_all();
    }
    IN_JOB.with(|f| f.set(true));
    job.work();
    IN_JOB.with(|f| f.set(false));
    {
        let mut st = lock(&shared.state);
        st.job = None;
        st.helper_slots = 0;
        // Wait for registered workers to drain. If the epoch moved on, a
        // queued dispatcher already observed `in_job == 0` for our job and
        // published its own — ours is fully drained.
        while st.epoch == my_epoch && st.in_job > 0 {
            st = shared.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        // Wake dispatchers queued behind this job.
        shared.done.notify_all();
    }
    let payload = lock(&job.panic).take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Runs `f(i)` for `i in 0..n` across the thread budget and returns results
/// in index order. Work is split into one contiguous index block per
/// worker; since each `f(i)` depends only on `i`, the output is identical
/// to the serial `(0..n).map(f).collect()`.
pub fn map_collect<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = max_threads().min(n.max(1));
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let block = n.div_ceil(threads);
    let n_blocks = n.div_ceil(block);
    let slots: Vec<Mutex<Vec<R>>> = (0..n_blocks).map(|_| Mutex::new(Vec::new())).collect();
    dispatch(n_blocks, threads - 1, &|b| {
        let lo = b * block;
        let hi = ((b + 1) * block).min(n);
        let out: Vec<R> = (lo..hi).map(&f).collect();
        *lock(&slots[b]) = out;
    });
    slots
        .into_iter()
        .flat_map(|s| s.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect()
}

/// Base pointer of a slice being dispatched as disjoint per-block spans.
///
/// The allocation-free chunk dispatchers hand workers the slice's base
/// pointer plus arithmetic instead of a per-dispatch `Vec` of pre-split
/// subslices. Each block `b` reconstructs exactly the half-open item range
/// `[b · items_per_block, min((b+1) · items_per_block, len))`; ranges of
/// distinct blocks never overlap and the dispatch protocol keeps the
/// borrowed slice alive until every block has drained, so the reconstructed
/// `&mut` subslices are disjoint and valid.
struct SpanBase<T>(*mut T);

// SAFETY(sync: SpanBase<T>): the pointer is only used to carve disjoint
// per-block ranges of a slice that outlives the dispatch (type-level
// argument above), so moving it to a worker thread is sound for `T: Send`.
unsafe impl<T: Send> Send for SpanBase<T> {}

// SAFETY(sync: SpanBase<T>): workers share `&SpanBase` only to read the
// base address; every `&mut` subslice derived from it covers a
// block-exclusive range, so concurrent use cannot alias.
unsafe impl<T: Send> Sync for SpanBase<T> {}

impl<T> SpanBase<T> {
    /// The base address. A method (not field access) so closures capture
    /// the `Sync` wrapper rather than the bare pointer field.
    fn ptr(&self) -> *mut T {
        self.0
    }
}

/// Debug-only runtime verifier for the `fabcheck::claim(disjoint)` claims
/// below: a process-wide shadow registry of live `[lo, hi)` item ranges
/// keyed by base address. Every carve registers its range before the `&mut`
/// subslice exists and unregisters when the block finishes (RAII), so two
/// overlapping live ranges on the same base — i.e. a wrong disjointness
/// claim — panic at the faulty carve instead of silently aliasing. Release
/// builds compile the whole module (and its call sites) out.
#[cfg(debug_assertions)]
mod overlap {
    use super::lock;
    use std::sync::Mutex;

    /// Live spans as `(base_addr, lo, hi)` half-open item ranges.
    static LIVE: Mutex<Vec<(usize, usize, usize)>> = Mutex::new(Vec::new());

    /// Unregisters its span on drop, keyed by `(base, lo)` — unique among
    /// live entries because an equal key would have tripped the overlap
    /// assertion at registration.
    pub(super) struct Guard {
        base: usize,
        lo: usize,
    }

    /// Registers `[lo, hi)` on `base`, panicking if it overlaps any live
    /// range on the same base.
    pub(super) fn register(base: usize, lo: usize, hi: usize) -> Guard {
        let mut live = lock(&LIVE);
        for &(b, l, h) in live.iter() {
            // fabcheck::allow(panic_on_hot_path): debug-only verifier — the
            // panic IS the product (it flags a wrong disjointness claim).
            assert!(
                !(b == base && lo < h && l < hi),
                "span-disjointness violation: [{lo}, {hi}) overlaps live [{l}, {h}) on base {base:#x}"
            );
        }
        // fabcheck::allow(alloc_on_hot_path): debug-only shadow registry;
        // release builds compile this module out entirely.
        live.push((base, lo, hi));
        Guard { base, lo }
    }

    impl Drop for Guard {
        fn drop(&mut self) {
            let mut live = lock(&LIVE);
            if let Some(i) = live
                .iter()
                .position(|&(b, l, _)| b == self.base && l == self.lo)
            {
                live.remove(i);
            }
        }
    }
}

/// Splits `data` into consecutive `chunk_len`-sized pieces and runs
/// `f(chunk_index, chunk)` on each, in parallel. Chunk boundaries depend
/// only on `chunk_len`, so any per-chunk computation that is a pure
/// function of `(chunk_index, chunk)` yields thread-count-independent
/// results. Allocation-free: blocks are carved from the slice's base
/// pointer (see [`SpanBase`]) rather than collected up front.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n_chunks = data.len().div_ceil(chunk_len);
    let threads = max_threads().min(n_chunks.max(1));
    if threads <= 1 {
        for (idx, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(idx, chunk);
        }
        return;
    }
    // Hand each block a contiguous run of whole chunks.
    let chunks_per_worker = n_chunks.div_ceil(threads);
    let items_per_worker = chunks_per_worker * chunk_len;
    let len = data.len();
    let base = SpanBase(data.as_mut_ptr());
    dispatch(n_chunks.div_ceil(chunks_per_worker), threads - 1, &|b| {
        let lo = b * items_per_worker;
        let hi = (lo + items_per_worker).min(len);
        #[cfg(debug_assertions)]
        let _guard = overlap::register(base.ptr() as usize, lo, hi);
        // SAFETY(bound: lo <= hi && hi <= len): block `b`'s exclusive range
        // of `data`, held borrowed until all blocks drain (`SpanBase`);
        // `wrapping_add`, not `add`, dodges the `Tensor::add` name match.
        // fabcheck::claim(disjoint): `lo` strides by whole worker spans, so
        // blocks' `[lo, hi)` ranges partition `data` without overlap.
        let span = unsafe { std::slice::from_raw_parts_mut(base.ptr().wrapping_add(lo), hi - lo) };
        for (i, chunk) in span.chunks_mut(chunk_len).enumerate() {
            f(b * chunks_per_worker + i, chunk);
        }
    });
}

/// Zips fixed-size chunks of two slices and runs `f(chunk_index, a_chunk,
/// b_chunk)` on each pair, in parallel. Both slices must split into the
/// same number of chunks. Lets callers pair each work unit with its own
/// slice of a reusable output/scratch buffer (e.g. conv pairing each
/// sample's output with its im2col columns) without per-unit allocation.
pub fn for_each_chunk_pair_mut<T, U, F>(
    a: &mut [T],
    a_chunk_len: usize,
    b: &mut [U],
    b_chunk_len: usize,
    f: F,
) where
    T: Send,
    U: Send,
    F: Fn(usize, &mut [T], &mut [U]) + Sync,
{
    assert!(
        a_chunk_len > 0 && b_chunk_len > 0,
        "chunk lengths must be positive"
    );
    let n_chunks = a.len().div_ceil(a_chunk_len);
    assert_eq!(
        n_chunks,
        b.len().div_ceil(b_chunk_len),
        "paired slices must split into the same number of chunks"
    );
    let threads = max_threads().min(n_chunks.max(1));
    if threads <= 1 {
        for (idx, (ca, cb)) in a
            .chunks_mut(a_chunk_len)
            .zip(b.chunks_mut(b_chunk_len))
            .enumerate()
        {
            f(idx, ca, cb);
        }
        return;
    }
    let chunks_per_worker = n_chunks.div_ceil(threads);
    let (a_items, b_items) = (
        chunks_per_worker * a_chunk_len,
        chunks_per_worker * b_chunk_len,
    );
    let (a_len, b_len) = (a.len(), b.len());
    let base_a = SpanBase(a.as_mut_ptr());
    let base_b = SpanBase(b.as_mut_ptr());
    dispatch(n_chunks.div_ceil(chunks_per_worker), threads - 1, &|s| {
        let (a_lo, b_lo) = (s * a_items, s * b_items);
        let (a_hi, b_hi) = ((a_lo + a_items).min(a_len), (b_lo + b_items).min(b_len));
        #[cfg(debug_assertions)]
        let _guard_a = overlap::register(base_a.ptr() as usize, a_lo, a_hi);
        #[cfg(debug_assertions)]
        let _guard_b = overlap::register(base_b.ptr() as usize, b_lo, b_hi);
        // SAFETY(bound: a_lo <= a_hi && a_hi <= a_len): block `s`'s
        // exclusive range of `a`, alive for the whole dispatch (`SpanBase`).
        // fabcheck::claim(disjoint): `a_lo` strides by whole worker spans
        // (`s * a_items`), so blocks' `[a_lo, a_hi)` ranges are disjoint.
        let sa =
            unsafe { std::slice::from_raw_parts_mut(base_a.ptr().wrapping_add(a_lo), a_hi - a_lo) };
        // SAFETY(bound: b_lo <= b_hi && b_hi <= b_len): block `s`'s
        // exclusive range of `b`, alive for the whole dispatch (`SpanBase`).
        // fabcheck::claim(disjoint): `b_lo` strides by whole worker spans
        // (`s * b_items`), so blocks' `[b_lo, b_hi)` ranges are disjoint.
        let sb =
            unsafe { std::slice::from_raw_parts_mut(base_b.ptr().wrapping_add(b_lo), b_hi - b_lo) };
        for (i, (ca, cb)) in sa
            .chunks_mut(a_chunk_len)
            .zip(sb.chunks_mut(b_chunk_len))
            .enumerate()
        {
            f(s * chunks_per_worker + i, ca, cb);
        }
    });
}

/// The pre-pool dispatch path, kept as a measurable baseline: spawns one
/// scoped OS thread per block on every call, exactly as the helpers above
/// did before the persistent pool existed. Exists so the bench crate's
/// dispatch-overhead microbench (and CI's `--smoke` ratio check) can
/// quantify the pool's win against the code it replaced. Not for
/// production call sites — the fabcheck rule `thread-spawn-outside-par`
/// keeps per-dispatch spawning from reappearing anywhere else.
pub mod spawn_reference {
    use super::max_threads;

    /// [`super::for_each_chunk_mut`] with per-dispatch `thread::scope`
    /// spawning (the PR-1 implementation, verbatim).
    pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_len > 0, "chunk_len must be positive");
        let n_chunks = data.len().div_ceil(chunk_len);
        let threads = max_threads().min(n_chunks.max(1));
        if threads <= 1 {
            for (idx, chunk) in data.chunks_mut(chunk_len).enumerate() {
                f(idx, chunk);
            }
            return;
        }
        let chunks_per_worker = n_chunks.div_ceil(threads);
        let items_per_worker = chunks_per_worker * chunk_len;
        std::thread::scope(|scope| {
            for (w, span) in data.chunks_mut(items_per_worker).enumerate() {
                let f = &f;
                scope.spawn(move || {
                    for (i, chunk) in span.chunks_mut(chunk_len).enumerate() {
                        f(w * chunks_per_worker + i, chunk);
                    }
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_collect_matches_serial() {
        let par = map_collect(1000, |i| i * i);
        let ser: Vec<usize> = (0..1000).map(|i| i * i).collect();
        assert_eq!(par, ser);
    }

    #[test]
    fn for_each_chunk_mut_covers_every_chunk_once() {
        let mut data = vec![0u32; 10_000];
        for_each_chunk_mut(&mut data, 33, |idx, chunk| {
            for v in chunk.iter_mut() {
                *v += 1 + idx as u32;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, 1 + (i / 33) as u32, "element {i}");
        }
    }

    #[test]
    fn chunk_pair_visits_aligned_chunks() {
        let mut a: Vec<usize> = (0..600).collect();
        let mut b = vec![0usize; 200];
        // 600/6 == 200/2 == 100 chunks.
        for_each_chunk_pair_mut(&mut a, 6, &mut b, 2, |idx, ca, cb| {
            cb[0] = idx;
            cb[1] = ca[0];
        });
        for (i, pair) in b.chunks(2).enumerate() {
            assert_eq!(pair[0], i);
            assert_eq!(pair[1], i * 6);
        }
    }

    #[test]
    fn spawn_reference_matches_pool() {
        let mut pooled = vec![0u32; 5000];
        let mut spawned = vec![0u32; 5000];
        let body = |idx: usize, chunk: &mut [u32]| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (idx * 1000 + j) as u32;
            }
        };
        for_each_chunk_mut(&mut pooled, 77, body);
        spawn_reference::for_each_chunk_mut(&mut spawned, 77, body);
        assert_eq!(pooled, spawned);
    }

    #[test]
    fn thread_budget_is_positive() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn pool_cap_resolver_clamps_and_defaults() {
        // No override (or garbage): the built-in default, uncapped by
        // cores — lazy spawning never tops past actual dispatch demand.
        assert_eq!(resolve_pool_cap(None, 8), DEFAULT_MAX_POOL_WORKERS);
        assert_eq!(resolve_pool_cap(Some(""), 8), DEFAULT_MAX_POOL_WORKERS);
        assert_eq!(resolve_pool_cap(Some("lots"), 8), DEFAULT_MAX_POOL_WORKERS);
        assert_eq!(resolve_pool_cap(Some("0"), 8), DEFAULT_MAX_POOL_WORKERS);
        // An explicit override is honoured, clamped to detected cores.
        assert_eq!(resolve_pool_cap(Some("128"), 256), 128);
        assert_eq!(resolve_pool_cap(Some(" 96 "), 128), 96);
        assert_eq!(resolve_pool_cap(Some("1024"), 8), 8);
        assert_eq!(resolve_pool_cap(Some("2"), 8), 2);
        // Degenerate core detection still yields a positive cap.
        assert_eq!(resolve_pool_cap(Some("4"), 0), 1);
    }

    #[test]
    fn resolved_pool_cap_is_positive_and_stable() {
        let a = max_pool_workers();
        assert!(a >= 1);
        assert_eq!(max_pool_workers(), a, "first resolution is cached");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn overlap_registry_catches_aliasing_spans() {
        // Fake base addresses: the registry only compares, never derefs.
        let _a = overlap::register(0x1000, 0, 10);
        // Overlapping range on the same base must panic…
        let err = std::panic::catch_unwind(|| overlap::register(0x1000, 5, 15));
        assert!(err.is_err(), "overlapping span must be rejected");
        // …while disjoint ranges and other bases register fine, and the
        // rejected span left no stale entry behind.
        let _b = overlap::register(0x1000, 10, 20);
        let _c = overlap::register(0x2000, 5, 15);
        drop(_b);
        let _d = overlap::register(0x1000, 10, 20);
    }

    #[test]
    fn nested_dispatch_runs_serially_and_correctly() {
        let mut outer = vec![0u64; 64];
        for_each_chunk_mut(&mut outer, 8, |idx, chunk| {
            // A nested helper must not re-enter the pool; budget reads as 1.
            let inner = map_collect(4, |i| (idx * 4 + i) as u64);
            assert_eq!(max_threads(), 1);
            for (v, x) in chunk.iter_mut().zip(inner.iter().cycle()) {
                *v = *x;
            }
        });
        assert!(outer.iter().all(|&v| v < 32));
    }
}
