//! Data parallelism over one process-wide pool of parked helper threads,
//! replacing `rayon::par_iter`, plus a bounded MPMC [`channel`] for the
//! long-running serving subsystem.
//!
//! # The pool
//!
//! Every fan-out ([`par_map`], [`par_chunks_mut`], [`join`]) is one job of
//! `len` items, each run exactly once. The first fan-out that needs help
//! starts [`thread_count`]` - 1` helper threads; they live for the rest
//! of the process and park on a condvar between jobs, never spinning. A
//! fan-out posts its job to the helpers that are idle, then claims items
//! from the job's shared atomic index, as the helpers it woke do. Items go
//! to whichever thread is free next, so a helper that wakes late takes
//! fewer items instead of holding up the caller.
//!
//! When the caller finds no item left, it revokes every post no helper has
//! taken yet (the slot goes from the job's address back to idle with one
//! compare-and-swap), so it never waits for a thread that has not woken.
//! It waits only for helpers that did take the job, and it waits in a drop
//! guard, so a panic in one of the caller's own items cannot free the job
//! while a helper still reads it.
//!
//! A fan-out runs inline, on the calling thread alone, when it has one
//! item, when [`thread_count`] is 1, when it is issued from inside another
//! fan-out's item (nested), and, in effect, when every helper is busy with
//! other callers' jobs: nothing could be posted, so the caller claims
//! every item itself. Results come back in input order, and which thread
//! ran an item never changes what it computes.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Number of worker threads [`par_map`] will use: the machine's available
/// parallelism, overridable (e.g. for deterministic timing runs) with the
/// `SPARK_THREADS` environment variable.
///
/// Both are read once per process, at the first call, and cached: the
/// parallelism lookup reads cgroup files on Linux (tens of µs), and every
/// GEMM dispatch asks. Set `SPARK_THREADS` before the process starts;
/// changing it at run time has no effect.
pub fn thread_count() -> usize {
    static COUNT: OnceLock<usize> = OnceLock::new();
    *COUNT.get_or_init(|| {
        if let Ok(v) = std::env::var("SPARK_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Maps `f` over `items` on up to [`thread_count`] threads, preserving
/// input order in the output.
///
/// Each item is one unit of the pool's job (see the module docs): the
/// calling thread and the helpers it woke claim items one at a time, so
/// uneven items balance across threads. `f` must be `Sync` (shared by
/// reference across threads) and the item/result types must cross thread
/// boundaries. A panic in any item reaches the caller with its original
/// payload.
///
/// ```
/// use spark_util::par::par_map;
/// let squares = par_map(&[1u64, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    let slots = SyncPtr(out.as_mut_ptr());
    fan_out(items.len(), &|i| {
        let r = f(&items[i]);
        // SAFETY: `fan_out` runs each index below `items.len()` exactly
        // once, so no two threads write one slot, and `out` outlives the
        // call.
        unsafe { *slots.at(i) = Some(r) };
    });
    out.into_iter()
        .map(|r| r.expect("fan_out runs every item before it returns"))
        .collect()
}

/// Runs `f` over contiguous mutable chunks of `data` — each `chunk_len`
/// elements, the last possibly shorter — each chunk one item of the
/// pool's job, so a single chunk (or an empty slice) runs inline. The
/// callback receives the chunk index alongside the chunk, so workers can
/// recover their global offset (`index * chunk_len`). A panic in any chunk
/// reaches the caller.
///
/// The caller sizes the chunks: pass `data.len().div_ceil(workers)` to get
/// one chunk per worker.
///
/// This is the mutable-output counterpart of [`par_map`], used by the
/// tensor backend to fan a GEMM out over disjoint row blocks of the output
/// buffer.
///
/// ```
/// use spark_util::par::par_chunks_mut;
/// let mut v = vec![0u32; 10];
/// par_chunks_mut(&mut v, 4, |ci, chunk| {
///     for (off, x) in chunk.iter_mut().enumerate() {
///         *x = (ci * 4 + off) as u32;
///     }
/// });
/// assert_eq!(v, (0..10).collect::<Vec<u32>>());
/// ```
///
/// # Panics
///
/// Panics when `chunk_len` is zero.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "par_chunks_mut chunk_len must be positive");
    let len = data.len();
    let base = SyncPtr(data.as_mut_ptr());
    fan_out(len.div_ceil(chunk_len), &|ci| {
        let start = ci * chunk_len;
        // SAFETY: chunk `ci` is `start..start + chunk_len.min(len - start)`,
        // inside `data` and disjoint from every other chunk; `fan_out` runs
        // each index once, and `data` is borrowed mutably for the call.
        let chunk =
            unsafe { std::slice::from_raw_parts_mut(base.at(start), chunk_len.min(len - start)) };
        f(ci, chunk);
    });
}

/// Runs two independent closures and returns both results — the two-way
/// fork-join the simulator uses to overlap its short/long differencing
/// runs. The calling thread starts on `a` while an idle helper, if there
/// is one, takes `b`; a panic in either reaches the caller.
///
/// Runs sequentially when [`thread_count`] is 1 (e.g. `SPARK_THREADS=1`
/// for deterministic timing runs).
///
/// ```
/// use spark_util::par::join;
/// let (a, b) = join(|| 2 + 2, || "done");
/// assert_eq!((a, b), (4, "done"));
/// ```
pub fn join<RA, RB>(a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    let mut sides = [Side::A(a), Side::B(b)];
    par_chunks_mut(&mut sides, 1, |_, side| {
        side[0] = match std::mem::replace(&mut side[0], Side::Taken) {
            Side::A(f) => Side::RanA(f()),
            Side::B(f) => Side::RanB(f()),
            other => other,
        };
    });
    match sides {
        [Side::RanA(ra), Side::RanB(rb)] => (ra, rb),
        _ => unreachable!("par_chunks_mut runs every chunk before it returns"),
    }
}

/// One closure of [`join`], before and after it ran.
enum Side<FA, FB, RA, RB> {
    A(FA),
    B(FB),
    RanA(RA),
    RanB(RB),
    Taken,
}

/// A mutex whose data stays valid whatever a panicking holder was doing
/// (every critical section here is a single store or take).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A raw pointer the items of one fan-out share, each touching only its
/// own disjoint part of the pointee.
struct SyncPtr<T>(*mut T);

// SAFETY: the pointer is only dereferenced by `fan_out` items, each at
// indices no other item touches, so sharing it hands each `T` to one
// thread at a time, which `T: Send` allows.
unsafe impl<T: Send> Sync for SyncPtr<T> {}

impl<T> SyncPtr<T> {
    /// The pointer to element `i` (a method, so closures capture the
    /// whole `Sync` wrapper rather than its raw field).
    fn at(&self, i: usize) -> *mut T {
        self.0.wrapping_add(i)
    }
}

thread_local! {
    /// True on pool helpers, and on any thread while it runs the items of
    /// a fan-out: a fan-out issued there runs inline.
    static IN_FAN_OUT: Cell<bool> = const { Cell::new(false) };
}

/// A slot's `post` when its helper is waiting for work.
const IDLE: usize = 0;
/// A slot's `post` before its helper thread is running.
const CLOSED: usize = usize::MAX;
/// Tag bit set on a posted job's address once the helper has taken it
/// (a [`Job`] is word-aligned, so the bit is free).
const TAKEN: usize = 1;

/// One helper thread's mailbox.
struct Slot {
    /// [`IDLE`], [`CLOSED`], the address of a posted [`Job`], or that
    /// address with [`TAKEN`] set while the helper runs it. Only a caller
    /// moves it from `IDLE` to an address and from its own address back to
    /// `IDLE` (a revoke); only the helper sets `TAKEN` and clears a taken
    /// post. A job's address is unique while the job lives, so a revoke
    /// can never hit another caller's post.
    post: AtomicUsize,
    /// Guards the helper's check-then-wait on `post`, so a post made
    /// between the check and the wait still wakes it.
    lock: Mutex<()>,
    wake: Condvar,
}

/// One fan-out: `len` items of `work`, claimed through `next`. Lives on
/// the caller's stack; helpers reach it through the address in their slot.
struct Job<'a> {
    work: &'a (dyn Fn(usize) + Sync),
    len: usize,
    next: AtomicUsize,
    /// Helpers that took the job and have finished with it.
    done: Mutex<usize>,
    finished: Condvar,
    /// The first panic payload a helper caught.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job<'_> {
    /// Claims and runs items until none is left. Claims need only be
    /// unique, so `next` is `Relaxed`: an item's results reach the caller
    /// through the `done` mutex (helpers) or program order (the caller).
    fn drain(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                return;
            }
            (self.work)(i);
        }
    }

    /// Hands out no further items (the claimed ones still finish).
    fn stop(&self) {
        self.next.store(self.len, Ordering::Relaxed);
    }
}

/// The pool's helper slots, started at the first call. Only called when
/// [`thread_count`] exceeds 1.
fn helpers() -> &'static [Slot] {
    HELPERS.get_or_init(|| {
        let slots: &'static [Slot] = Box::leak(
            (1..thread_count())
                .map(|_| Slot {
                    post: AtomicUsize::new(CLOSED),
                    lock: Mutex::new(()),
                    wake: Condvar::new(),
                })
                .collect(),
        );
        for (i, slot) in slots.iter().enumerate() {
            // A helper that cannot be spawned leaves its slot CLOSED, so no
            // job is ever posted to it: the pool just has fewer helpers.
            let _ = std::thread::Builder::new()
                .name(format!("spark-par-{i}"))
                .spawn(move || slot.serve());
        }
        slots
    })
}

static HELPERS: OnceLock<&'static [Slot]> = OnceLock::new();

impl Slot {
    /// The helper thread's loop: take a posted job, drain it, report back.
    fn serve(&self) {
        IN_FAN_OUT.set(true);
        self.post.store(IDLE, Ordering::Release);
        loop {
            let addr = self.take();
            // SAFETY: `take` moved the post to TAKEN, which the caller can
            // no longer revoke, and the caller keeps the job alive until
            // this helper has counted itself into `done` below.
            let job = unsafe { &*(addr as *const Job<'_>) };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job.drain())) {
                job.stop();
                lock(&job.panic).get_or_insert(payload);
            }
            // Clear the post before reporting: once the caller has seen
            // `done` it may free the job, and a later job could then sit at
            // the same address; a stale TAKEN post would make that job's
            // caller wait for this helper forever.
            self.post.store(IDLE, Ordering::Release);
            let mut done = lock(&job.done);
            *done += 1;
            // Notify while holding the lock: after it is released the job
            // may be gone.
            job.finished.notify_one();
        }
    }

    /// Parks until a job is posted here and takes it; returns its address.
    fn take(&self) -> usize {
        loop {
            let mut guard = lock(&self.lock);
            let mut addr = self.post.load(Ordering::Acquire);
            while addr == IDLE {
                guard = self
                    .wake
                    .wait(guard)
                    .unwrap_or_else(PoisonError::into_inner);
                addr = self.post.load(Ordering::Acquire);
            }
            drop(guard);
            // The CAS fails when the caller revoked the post first.
            if self
                .post
                .compare_exchange(addr, addr | TAKEN, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return addr;
            }
        }
    }

    /// Posts the job at `addr` if this helper is idle.
    fn post(&self, addr: usize) -> bool {
        let posted = self
            .post
            .compare_exchange(IDLE, addr, Ordering::Release, Ordering::Relaxed)
            .is_ok();
        if posted {
            let _guard = lock(&self.lock);
            self.wake.notify_one();
        }
        posted
    }
}

/// Runs `work(i)` for every `i` in `0..len`, each exactly once, on the
/// calling thread and whichever pool helpers are idle (see the module
/// docs). Returns once every item has finished; a panic in an item
/// reaches the caller with its payload.
fn fan_out(len: usize, work: &(dyn Fn(usize) + Sync)) {
    let nested = IN_FAN_OUT.get();
    if len <= 1 || nested || thread_count() == 1 {
        (0..len).for_each(work);
        return;
    }
    let job = Job {
        work,
        len,
        next: AtomicUsize::new(0),
        done: Mutex::new(0),
        finished: Condvar::new(),
        panic: Mutex::new(None),
    };
    let addr = &job as *const Job<'_> as usize;
    let slots = helpers();
    let mut posted = 0;
    for slot in slots {
        if posted + 1 == len {
            break;
        }
        posted += usize::from(slot.post(addr));
    }
    {
        let _settle = Settle {
            job: &job,
            addr,
            slots,
            posted,
        };
        IN_FAN_OUT.set(true);
        let _inline = ResetInFanOut;
        job.drain();
    }
    if let Some(payload) = job
        .panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        resume_unwind(payload);
    }
}

/// Clears the caller's [`IN_FAN_OUT`] flag when its items are done or
/// one of them panicked.
struct ResetInFanOut;

impl Drop for ResetInFanOut {
    fn drop(&mut self) {
        IN_FAN_OUT.set(false);
    }
}

/// The caller's end of a posted job: on drop (normal or unwinding) it
/// revokes the posts no helper took and waits for the helpers that did.
struct Settle<'a> {
    job: &'a Job<'a>,
    addr: usize,
    slots: &'static [Slot],
    posted: usize,
}

impl Drop for Settle<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.job.stop();
        }
        if self.posted == 0 {
            return;
        }
        // Only this job's untaken posts hold exactly `addr`.
        let revoked = self
            .slots
            .iter()
            .filter(|slot| {
                slot.post
                    .compare_exchange(self.addr, IDLE, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            })
            .count();
        let taken = self.posted - revoked;
        let mut done = lock(&self.job.done);
        while *done < taken {
            done = self
                .job
                .finished
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Number of pool helpers this process has started (0 until the first
/// fan-out that needs help).
#[cfg(test)]
fn helpers_started() -> usize {
    HELPERS.get().map_or(0, |slots| slots.len())
}

/// Creates a bounded multi-producer multi-consumer channel of capacity
/// `capacity` — the backpressured job queue of the serving subsystem
/// (replaces `crossbeam-channel`).
///
/// Both halves are cloneable. [`Sender::send`] blocks while the queue is
/// full; [`Sender::try_send`] returns the value back instead, which is how
/// the server turns a full queue into an immediate 503 rather than an
/// unbounded backlog. [`Receiver::recv`] blocks until a value arrives or
/// every sender is gone.
///
/// ```
/// use spark_util::par::channel;
/// let (tx, rx) = channel(2);
/// tx.send(1).unwrap();
/// tx.send(2).unwrap();
/// assert!(tx.try_send(3).is_err()); // full
/// assert_eq!(rx.recv(), Some(1));
/// drop(tx);
/// assert_eq!(rx.recv(), Some(2));
/// assert_eq!(rx.recv(), None); // disconnected and drained
/// ```
///
/// # Panics
///
/// Panics when `capacity` is zero (a zero-capacity rendezvous channel is
/// not supported).
pub fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "channel capacity must be positive");
    let shared = Arc::new(Shared {
        state: Mutex::new(ChanState {
            queue: VecDeque::with_capacity(capacity),
            capacity,
            senders: 1,
            receivers: 1,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender(Arc::clone(&shared)), Receiver(shared))
}

struct ChanState<T> {
    queue: VecDeque<T>,
    capacity: usize,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    state: Mutex<ChanState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, ChanState<T>> {
        // A worker panicking mid-queue-op would poison the mutex; the queue
        // itself is always left consistent, so keep going.
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Error returned by [`Sender::try_send`], giving the value back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue held `capacity` values (backpressure).
    Full(T),
    /// Every receiver is gone; the value can never be delivered.
    Disconnected(T),
}

/// The sending half of a bounded [`channel`].
pub struct Sender<T>(Arc<Shared<T>>);

/// The receiving half of a bounded [`channel`].
pub struct Receiver<T>(Arc<Shared<T>>);

impl<T> Sender<T> {
    /// Blocks until there is room, then enqueues `value`. Returns the value
    /// back when every receiver is gone.
    ///
    /// # Errors
    ///
    /// Returns `Err(value)` when the channel is disconnected.
    pub fn send(&self, value: T) -> Result<(), T> {
        let mut s = self.0.lock();
        loop {
            if s.receivers == 0 {
                return Err(value);
            }
            if s.queue.len() < s.capacity {
                s.queue.push_back(value);
                drop(s);
                self.0.not_empty.notify_one();
                return Ok(());
            }
            s = match self.0.not_full.wait(s) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Enqueues `value` without blocking.
    ///
    /// # Errors
    ///
    /// [`TrySendError::Full`] when the queue is at capacity,
    /// [`TrySendError::Disconnected`] when every receiver is gone — both
    /// return the value to the caller.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut s = self.0.lock();
        if s.receivers == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        if s.queue.len() >= s.capacity {
            return Err(TrySendError::Full(value));
        }
        s.queue.push_back(value);
        drop(s);
        self.0.not_empty.notify_one();
        Ok(())
    }

    /// Number of values currently queued.
    pub fn len(&self) -> usize {
        self.0.lock().queue.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Receiver<T> {
    /// Blocks until a value arrives; `None` once every sender is gone and
    /// the queue is drained (so a plain `while let Some(v) = rx.recv()`
    /// drains gracefully on shutdown).
    pub fn recv(&self) -> Option<T> {
        let mut s = self.0.lock();
        loop {
            if let Some(v) = s.queue.pop_front() {
                drop(s);
                self.0.not_full.notify_one();
                return Some(v);
            }
            if s.senders == 0 {
                return None;
            }
            s = match self.0.not_empty.wait(s) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Dequeues without blocking; `None` when the queue is momentarily
    /// empty (regardless of sender liveness).
    pub fn try_recv(&self) -> Option<T> {
        let mut s = self.0.lock();
        let v = s.queue.pop_front();
        if v.is_some() {
            drop(s);
            self.0.not_full.notify_one();
        }
        v
    }

    /// Number of values currently queued.
    pub fn len(&self) -> usize {
        self.0.lock().queue.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.lock().senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.0.lock().receivers += 1;
        Receiver(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut s = self.0.lock();
        s.senders -= 1;
        let last = s.senders == 0;
        drop(s);
        if last {
            // Wake blocked receivers so they observe the disconnect.
            self.0.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut s = self.0.lock();
        s.receivers -= 1;
        let last = s.receivers == 0;
        drop(s);
        if last {
            // Wake blocked senders so they observe the disconnect.
            self.0.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn preserves_order() {
        let input: Vec<usize> = (0..1000).collect();
        let out = par_map(&input, |&x| x * 2);
        assert_eq!(out, input.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let none: Vec<u8> = vec![];
        assert!(par_map(&none, |&x| x).is_empty());
        assert_eq!(par_map(&[7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn uses_shared_state_immutably() {
        let table: Vec<u64> = (0..64).map(|i| i * i).collect();
        let out = par_map(&(0..64).collect::<Vec<usize>>(), |&i| table[i]);
        assert_eq!(out[5], 25);
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn par_chunks_mut_covers_every_element() {
        let mut v = vec![0usize; 103];
        par_chunks_mut(&mut v, 10, |ci, chunk| {
            for (off, x) in chunk.iter_mut().enumerate() {
                *x = ci * 10 + off + 1;
            }
        });
        assert_eq!(v, (1..=103).collect::<Vec<usize>>());
    }

    #[test]
    fn par_chunks_mut_single_chunk_and_empty() {
        let mut v = vec![1u8, 2, 3];
        par_chunks_mut(&mut v, 8, |ci, chunk| {
            assert_eq!(ci, 0);
            chunk.iter_mut().for_each(|x| *x += 1);
        });
        assert_eq!(v, vec![2, 3, 4]);
        let mut none: Vec<u8> = vec![];
        par_chunks_mut(&mut none, 4, |_, _| panic!("no chunks expected"));
    }

    #[test]
    fn par_map_keeps_input_order_when_chunks_finish_out_of_order() {
        // Earlier items sleep longer, so whenever a helper joins, later
        // items finish before earlier ones; the output stays in order.
        let input: Vec<u64> = (0..16).collect();
        let out = par_map(&input, |&x| {
            std::thread::sleep(std::time::Duration::from_millis(16 - x));
            x * 3
        });
        assert_eq!(out, input.iter().map(|&x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_mut_runs_every_chunk_index_once() {
        let mut v = vec![usize::MAX; 7];
        par_chunks_mut(&mut v, 2, |ci, chunk| {
            chunk.iter_mut().for_each(|x| *x = ci)
        });
        assert_eq!(v, vec![0, 0, 1, 1, 2, 2, 3]);
    }

    /// The panic payload `f` raised, as a string, or `None` if it returned.
    fn panic_message(f: impl FnOnce()) -> Option<String> {
        let payload = catch_unwind(AssertUnwindSafe(f)).err()?;
        let text = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()));
        Some(text.unwrap_or_default())
    }

    #[test]
    fn worker_panics_reach_the_caller_with_their_payload() {
        // The first item and the last, whichever thread claims them;
        // `a_panic_on_a_helper_reaches_the_caller` forces the helper case.
        let items: Vec<usize> = (0..8).collect();
        for bad in [0, 7] {
            let got = panic_message(|| {
                par_map(&items, |&x| {
                    if x == bad {
                        panic!("item {x} failed")
                    } else {
                        x
                    }
                });
            });
            assert_eq!(got.as_deref(), Some(format!("item {bad} failed").as_str()));
            let got = panic_message(|| {
                let mut v = items.clone();
                par_chunks_mut(&mut v, 2, |ci, _| {
                    if ci == bad / 2 {
                        panic!("chunk {ci} failed")
                    }
                });
            });
            assert_eq!(
                got.as_deref(),
                Some(format!("chunk {} failed", bad / 2).as_str())
            );
        }
        let got = panic_message(|| {
            join(|| 1, || -> u32 { panic!("b failed") });
        });
        assert_eq!(got.as_deref(), Some("b failed"));
        let got = panic_message(|| {
            join(|| -> u32 { panic!("a failed") }, || 2);
        });
        assert_eq!(got.as_deref(), Some("a failed"));
    }

    /// How long a caller-side test item waits for a helper to take the
    /// other item before it gives the attempt up.
    const HELPER_WAIT: Duration = Duration::from_millis(200);
    /// Attempts a test makes to get an item onto a helper: concurrent
    /// tests in this binary can keep the pool's helpers busy.
    const ATTEMPTS: usize = 25;

    /// A one-shot signal with a bounded wait.
    struct Signal(Mutex<bool>, Condvar);

    impl Signal {
        fn new() -> Self {
            Signal(Mutex::new(false), Condvar::new())
        }

        fn set(&self) {
            *lock(&self.0) = true;
            self.1.notify_all();
        }

        /// Waits up to `limit` for [`Signal::set`]; true if it was set.
        fn wait(&self, limit: Duration) -> bool {
            let guard = lock(&self.0);
            let (guard, _) = self
                .1
                .wait_timeout_while(guard, limit, |set| !*set)
                .unwrap_or_else(PoisonError::into_inner);
            *guard
        }
    }

    fn on_helper() -> bool {
        std::thread::current()
            .name()
            .is_some_and(|name| name.starts_with("spark-par-"))
    }

    /// Fans two items out until a helper runs one of them; true if one did
    /// within [`ATTEMPTS`].
    fn a_helper_takes_an_item() -> bool {
        (0..ATTEMPTS).any(|_| {
            let started = Signal::new();
            let ran = par_map(&[0u8, 1], |_| {
                if on_helper() {
                    started.set();
                    true
                } else {
                    started.wait(HELPER_WAIT);
                    false
                }
            });
            ran.contains(&true)
        })
    }

    #[test]
    fn a_panic_on_a_helper_reaches_the_caller() {
        if thread_count() < 2 {
            return;
        }
        // Only a helper's item panics, so any payload came from a helper.
        let caught = (0..ATTEMPTS).find_map(|_| {
            let started = Signal::new();
            panic_message(|| {
                par_map(&[0u8, 1], |_| {
                    if on_helper() {
                        started.set();
                        panic!("helper item failed");
                    }
                    started.wait(HELPER_WAIT);
                });
            })
        });
        assert_eq!(caught.as_deref(), Some("helper item failed"));
        let squares = par_map(&(0..64u64).collect::<Vec<_>>(), |&x| x * x);
        assert_eq!(squares, (0..64u64).map(|x| x * x).collect::<Vec<_>>());
        assert!(a_helper_takes_an_item(), "the pool lost its helper");
    }

    #[test]
    fn a_panic_on_the_caller_waits_for_the_running_helper() {
        if thread_count() < 2 {
            return;
        }
        for _ in 0..ATTEMPTS {
            let (started, release) = (Signal::new(), Signal::new());
            let helper_done = AtomicBool::new(false);
            let got = panic_message(|| {
                par_map(&[0u8, 1], |_| {
                    if on_helper() {
                        started.set();
                        release.wait(Duration::from_secs(10));
                        // Still running while the caller unwinds.
                        std::thread::sleep(Duration::from_millis(20));
                        helper_done.store(true, Ordering::SeqCst);
                    } else if started.wait(HELPER_WAIT) {
                        release.set();
                        panic!("caller item failed");
                    }
                });
            });
            if let Some(msg) = got {
                assert_eq!(msg, "caller item failed");
                assert!(
                    helper_done.load(Ordering::SeqCst),
                    "the caller unwound past a helper still running its job"
                );
                let squares = par_map(&(0..64u64).collect::<Vec<_>>(), |&x| x * x);
                assert_eq!(squares, (0..64u64).map(|x| x * x).collect::<Vec<_>>());
                assert!(a_helper_takes_an_item(), "the pool lost its helper");
                return;
            }
        }
        panic!("no helper took an item in {ATTEMPTS} attempts");
    }

    #[test]
    fn nested_fan_outs_match_the_serial_result() {
        let outer: Vec<u64> = (0..8).collect();
        let inner = |o: u64| -> (Vec<u64>, Vec<u64>, (u64, u64)) {
            let items: Vec<u64> = (0..50).map(|i| o * 100 + i).collect();
            let mapped = par_map(&items, |&x| x * x + 1);
            let mut chunks = vec![0u64; 33];
            par_chunks_mut(&mut chunks, 4, |ci, chunk| {
                for (off, x) in chunk.iter_mut().enumerate() {
                    *x = o + (ci * 4 + off) as u64;
                }
            });
            (mapped, chunks, join(|| o + 1, || o * 2))
        };
        let got = par_map(&outer, |&o| inner(o));
        let want: Vec<_> = outer
            .iter()
            .map(|&o| {
                let mapped = (0..50).map(|i| (o * 100 + i) * (o * 100 + i) + 1).collect();
                let chunks = (0..33).map(|i| o + i).collect();
                (mapped, chunks, (o + 1, o * 2))
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn concurrent_callers_each_get_their_own_results() {
        std::thread::scope(|scope| {
            for t in 0..8usize {
                scope.spawn(move || {
                    for call in 0..200usize {
                        if call % 2 == 0 {
                            let items: Vec<usize> =
                                (0..17).map(|i| t * 100_000 + call * 100 + i).collect();
                            let got = par_map(&items, |&x| x * 3 + t);
                            let want: Vec<usize> = items.iter().map(|&x| x * 3 + t).collect();
                            assert_eq!(got, want, "thread {t} call {call}");
                        } else {
                            let mut v = vec![0usize; 37];
                            par_chunks_mut(&mut v, 5, |ci, chunk| {
                                for (off, x) in chunk.iter_mut().enumerate() {
                                    *x = t * 1000 + call + ci * 5 + off;
                                }
                            });
                            let want: Vec<usize> = (0..37).map(|i| t * 1000 + call + i).collect();
                            assert_eq!(v, want, "thread {t} call {call}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn one_thread_never_starts_a_helper() {
        if thread_count() == 1 {
            assert_eq!(par_map(&[1, 2, 3], |&x| x * 2), vec![2, 4, 6]);
            let mut v = vec![0u8; 9];
            par_chunks_mut(&mut v, 2, |ci, chunk| chunk.fill(ci as u8));
            assert_eq!(v, vec![0, 0, 1, 1, 2, 2, 3, 3, 4]);
            assert_eq!(join(|| 1, || 2), (1, 2));
            assert_eq!(helpers_started(), 0);
            return;
        }
        // This process has helpers to start; run this same test again in a
        // child process with one thread, where the branch above holds.
        let exe = std::env::current_exe().expect("the test binary has a path");
        let out = std::process::Command::new(exe)
            .args([
                "par::tests::one_thread_never_starts_a_helper",
                "--exact",
                "--test-threads=1",
            ])
            .env("SPARK_THREADS", "1")
            .output()
            .expect("re-run the test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains("1 passed"),
            "the child ran no test: {stdout}"
        );
    }

    #[test]
    fn join_returns_both_results() {
        let data: Vec<u64> = (1..=100).collect();
        let (sum, max) = join(
            || data.iter().sum::<u64>(),
            || data.iter().copied().max().unwrap_or(0),
        );
        assert_eq!(sum, 5050);
        assert_eq!(max, 100);
    }

    #[test]
    fn channel_fifo_within_capacity() {
        let (tx, rx) = channel(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        assert_eq!(tx.len(), 4);
        assert!(matches!(tx.try_send(9), Err(TrySendError::Full(9))));
        for i in 0..4 {
            assert_eq!(rx.recv(), Some(i));
        }
        assert!(rx.try_recv().is_none());
    }

    #[test]
    fn channel_disconnect_semantics() {
        let (tx, rx) = channel::<u32>(2);
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(7)); // drains before reporting closed
        assert_eq!(rx.recv(), None);
        assert!(rx.try_recv().is_none());

        let (tx, rx) = channel::<u32>(2);
        drop(rx);
        assert_eq!(tx.send(1), Err(1));
        assert!(matches!(tx.try_send(2), Err(TrySendError::Disconnected(2))));
    }

    #[test]
    fn channel_blocking_send_unblocks_on_recv() {
        let (tx, rx) = channel(1);
        tx.send(0u32).unwrap();
        std::thread::scope(|scope| {
            let tx2 = tx.clone();
            let h = scope.spawn(move || tx2.send(1).is_ok());
            std::thread::sleep(std::time::Duration::from_millis(10));
            assert_eq!(rx.recv(), Some(0));
            assert!(h.join().unwrap());
            assert_eq!(rx.recv(), Some(1));
        });
    }

    #[test]
    fn channel_mpmc_delivers_every_value_once() {
        let (tx, rx) = channel::<usize>(8);
        let produced: usize = 4 * 250;
        let consumed = std::sync::atomic::AtomicUsize::new(0);
        let sum = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for p in 0..4 {
                let tx = tx.clone();
                scope.spawn(move || {
                    for i in 0..250 {
                        tx.send(p * 250 + i).unwrap();
                    }
                });
            }
            drop(tx);
            for _ in 0..3 {
                let rx = rx.clone();
                let consumed = &consumed;
                let sum = &sum;
                scope.spawn(move || {
                    while let Some(v) = rx.recv() {
                        consumed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        sum.fetch_add(v, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
            drop(rx);
        });
        assert_eq!(consumed.into_inner(), produced);
        assert_eq!(sum.into_inner(), (0..produced).sum::<usize>());
    }
}
