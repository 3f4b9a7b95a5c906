//! Work-conserving micro-batching.
//!
//! A [`Batcher`] owns one background thread and a bounded job channel.
//! Worker threads submit single inputs and block on a per-job [`Slot`];
//! the batcher thread coalesces whatever is queued into one call of the
//! batch function and fans the results back out. It never waits on a
//! timer:
//!
//! 1. Take the first job (blocking — an idle batcher costs nothing).
//! 2. Drain everything already queued, up to `max_batch`.
//! 3. Run the batch at once. Jobs that arrive while it runs queue up and
//!    become the next batch, so the batch function's own run time is the
//!    only coalescing window: zero at light load (a lone request runs as
//!    a batch of 1), full batches under heavy load.
//!
//! Shutdown is channel-drop driven: dropping the last [`Batcher`] handle
//! closes the channel, the thread drains remaining jobs, runs them, and
//! exits. No flags, no sentinel jobs.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spark_util::par::{channel, Sender};

/// One-shot response cell a submitting thread parks on.
pub struct Slot<R> {
    value: Mutex<Option<R>>,
    ready: Condvar,
}

impl<R> Slot<R> {
    fn new() -> Arc<Self> {
        Arc::new(Self { value: Mutex::new(None), ready: Condvar::new() })
    }

    fn fill(&self, result: R) {
        let mut guard = self.value.lock().unwrap_or_else(|e| e.into_inner());
        *guard = Some(result);
        self.ready.notify_all();
    }

    /// Blocks until the batcher fills the slot or `timeout` elapses.
    /// `None` means the batcher never delivered (it died or is wedged) —
    /// callers should answer 500, never hang the connection.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<R> {
        let deadline = Instant::now() + timeout;
        let mut guard = self.value.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if guard.is_some() {
                return guard.take();
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (g, _) = self
                .ready
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            guard = g;
        }
    }
}

struct Job<T, R> {
    input: T,
    slot: Arc<Slot<R>>,
}

/// Handle to a running batcher thread. Clone freely; the thread exits
/// once every handle is dropped and the queue drains.
pub struct Batcher<T, R> {
    tx: Sender<Job<T, R>>,
    handle: Arc<Mutex<Option<JoinHandle<()>>>>,
}

impl<T, R> Clone for Batcher<T, R> {
    fn clone(&self) -> Self {
        Self { tx: self.tx.clone(), handle: Arc::clone(&self.handle) }
    }
}

impl<T: Send + 'static, R: Send + 'static> Batcher<T, R> {
    /// Spawns the batcher thread.
    ///
    /// `run` maps a batch of inputs to a same-length vector of results,
    /// in order. `max_batch` caps coalescing; `queue` bounds the job
    /// channel (submitting past it blocks, propagating backpressure to
    /// the connection queue).
    ///
    /// # Errors
    ///
    /// Thread-spawn failure (resource exhaustion at startup).
    pub fn spawn(
        name: &str,
        max_batch: usize,
        queue: usize,
        run: impl Fn(Vec<T>) -> Vec<R> + Send + 'static,
    ) -> std::io::Result<Self> {
        let max_batch = max_batch.max(1);
        let (tx, rx) = channel::<Job<T, R>>(queue.max(1));
        let handle = std::thread::Builder::new()
            .name(format!("spark-batch-{name}"))
            .spawn(move || {
                while let Some(first) = rx.recv() {
                    let mut jobs = vec![first];
                    while jobs.len() < max_batch {
                        match rx.try_recv() {
                            Some(job) => jobs.push(job),
                            None => break,
                        }
                    }
                    let (inputs, slots): (Vec<T>, Vec<Arc<Slot<R>>>) =
                        jobs.into_iter().map(|j| (j.input, j.slot)).unzip();
                    let results = run(inputs);
                    debug_assert_eq!(results.len(), slots.len());
                    for (slot, result) in slots.iter().zip(results) {
                        slot.fill(result);
                    }
                }
            })?;
        Ok(Self { tx, handle: Arc::new(Mutex::new(Some(handle))) })
    }

    /// Queues one input. Blocks if the job channel is full. `None` means
    /// the batcher thread is gone (server shutting down).
    pub fn submit(&self, input: T) -> Option<Arc<Slot<R>>> {
        let slot = Slot::new();
        match self.tx.send(Job { input, slot: Arc::clone(&slot) }) {
            Ok(()) => Some(slot),
            Err(_) => None,
        }
    }

    /// Drops the sender and joins the batcher thread. Call on the last
    /// clone during shutdown; earlier calls just drop their sender.
    pub fn join(self) {
        let Self { tx, handle } = self;
        drop(tx);
        let taken = handle.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(h) = taken {
            // Only joinable once every other clone's sender is gone;
            // the last caller through here does the actual join.
            if Arc::strong_count(&handle) == 1 {
                h.join().ok();
            } else {
                *handle.lock().unwrap_or_else(|e| e.into_inner()) = Some(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    const WAIT: Duration = Duration::from_secs(10);

    /// Runs job 0 through a batcher whose first batch call blocks until
    /// released, queues `queued` more jobs behind it, releases it, and
    /// checks every result (`input + 1000`) landed in its own slot. The
    /// channels fix the interleaving, so the returned batches (the inputs
    /// of each batch call, in order) do not depend on timing.
    fn run_gated(name: &str, max_batch: usize, queued: u32) -> Vec<Vec<u32>> {
        let (started_tx, started) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let batches = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&batches);
        let b = Batcher::spawn(name, max_batch, 64, move |xs: Vec<u32>| {
            let first = {
                let mut log = log.lock().unwrap();
                log.push(xs.clone());
                log.len() == 1
            };
            if first {
                started_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            }
            xs.into_iter().map(|x| x + 1000).collect()
        })
        .unwrap();
        let mut slots = vec![b.submit(0).unwrap()];
        started.recv_timeout(WAIT).unwrap();
        slots.extend((1..=queued).map(|i| b.submit(i).unwrap()));
        release.send(()).unwrap();
        for (i, slot) in slots.into_iter().enumerate() {
            assert_eq!(slot.wait_timeout(WAIT), Some(i as u32 + 1000));
        }
        b.join();
        let batches = batches.lock().unwrap().clone();
        batches
    }

    #[test]
    fn lone_job_runs_as_a_batch_of_one() {
        assert_eq!(run_gated("lone", 8, 0), vec![vec![0]]);
    }

    #[test]
    fn jobs_queued_behind_a_running_batch_form_the_next_batch() {
        assert_eq!(run_gated("coalesce", 64, 5), vec![vec![0], vec![1, 2, 3, 4, 5]]);
    }

    #[test]
    fn max_batch_caps_coalescing() {
        assert_eq!(
            run_gated("cap", 4, 10),
            vec![vec![0], vec![1, 2, 3, 4], vec![5, 6, 7, 8], vec![9, 10]]
        );
    }

    #[test]
    fn join_drains_pending_jobs() {
        let b = Batcher::spawn("t4", 8, 64, |xs: Vec<u32>| xs).unwrap();
        let slots: Vec<_> = (0..8u32).map(|i| b.submit(i).unwrap()).collect();
        b.join();
        for (i, slot) in slots.into_iter().enumerate() {
            assert_eq!(slot.wait_timeout(WAIT), Some(i as u32));
        }
    }

    #[test]
    fn submit_after_join_reports_shutdown() {
        let b = Batcher::spawn("t5", 8, 64, |xs: Vec<u32>| xs).unwrap();
        let b2 = b.clone();
        b.join();
        b2.join();
        // Both handles joined: channel closed, submission must fail cleanly.
        let b3 = Batcher::<u32, u32> {
            tx: {
                let (tx, _rx) = channel(1);
                drop(_rx);
                tx
            },
            handle: Arc::new(Mutex::new(None)),
        };
        assert!(b3.submit(1).is_none());
    }
}
