//! Scoped-thread data parallelism, replacing `rayon::par_iter` for the
//! embarrassingly parallel sweeps in `spark-bench`, plus a bounded MPMC
//! [`channel`] for the long-running serving subsystem.
//!
//! The experiment fan-outs are a handful of coarse work items (one model or
//! one design point each), so a static contiguous-chunk split over
//! `std::thread::scope` captures all the available speedup without a work
//! stealing runtime. Results come back in input order.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::{Arc, Condvar, Mutex, OnceLock};

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

/// Maps `f` over `items` on up to [`thread_count`] scoped threads,
/// preserving input order in the output.
///
/// Items are split into contiguous chunks, one per worker; each worker maps
/// its chunk independently. `f` must be `Sync` (shared by reference across
/// workers) and the item/result types must cross thread boundaries.
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
    let workers = thread_count().min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let mut results: Vec<Vec<R>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| scope.spawn(|| part.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        for h in handles {
            results.push(h.join().expect("par_map worker panicked"));
        }
    });
    results.into_iter().flatten().collect()
}

/// Runs `f` over contiguous mutable chunks of `data` — each `chunk_len`
/// elements, the last possibly shorter — spawning one scoped thread per
/// chunk when more than one chunk exists. The callback receives the chunk
/// index alongside the chunk, so workers can recover their global offset
/// (`index * chunk_len`).
///
/// The caller sizes the chunks: pass `data.len().div_ceil(workers)` to get
/// one chunk per worker. A single chunk (or an empty slice) runs inline on
/// the calling thread with no spawn.
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
    if data.is_empty() {
        return;
    }
    if data.len() <= chunk_len {
        f(0, data);
        return;
    }
    let f = &f;
    std::thread::scope(|scope| {
        for (ci, chunk) in data.chunks_mut(chunk_len).enumerate() {
            scope.spawn(move || f(ci, chunk));
        }
    });
}

/// Runs two independent closures on scoped threads and returns both
/// results — the two-way fork-join the simulator uses to overlap its
/// short/long differencing runs.
///
/// Falls back to sequential execution when [`thread_count`] is 1 (e.g.
/// `SPARK_THREADS=1` for deterministic timing runs).
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
    if thread_count() < 2 {
        return (a(), b());
    }
    std::thread::scope(|scope| {
        let hb = scope.spawn(b);
        let ra = a();
        (ra, hb.join().expect("join worker panicked"))
    })
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
