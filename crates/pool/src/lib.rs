//! Shared thread-pool primitives for SPORES' concurrent components.
//!
//! Two shapes of parallelism recur in the workspace and each used to be
//! hand-rolled where it was needed:
//!
//! * [`scoped_map`] — a fork-join map over an indexed task set whose
//!   closures *borrow* caller data (`std::thread::scope`). This is what
//!   the saturation runner's parallel search phase uses: tasks share
//!   `&EGraph` and return per-task match buffers.
//! * [`WorkerPool`] — long-lived named worker threads draining a channel
//!   of owned jobs (`'static`). This is the optimizer service's request
//!   pool, extracted here so the workspace has one pool implementation
//!   instead of one per crate.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Run `f(0..tasks)` across up to `threads` scoped worker threads and
/// collect the results in task order.
///
/// Tasks are claimed from a shared atomic counter (work stealing), so an
/// uneven task-cost distribution still balances. With `threads <= 1` or
/// fewer than two tasks the map runs inline on the caller's thread —
/// zero spawn overhead, identical results — which is the hot path for
/// single-core hosts and tiny fan-outs.
///
/// A panicking task propagates the panic to the caller after all worker
/// threads have joined (the guarantee `std::thread::scope` provides).
pub fn scoped_map<T, F>(threads: usize, tasks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || tasks <= 1 {
        return (0..tasks).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    let workers = threads.min(tasks);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let ix = next.fetch_add(1, Ordering::Relaxed);
                if ix >= tasks {
                    break;
                }
                let out = f(ix);
                *slots[ix].lock().unwrap() = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every task index was claimed and completed")
        })
        .collect()
}

/// Why [`WorkerPool::try_submit`] did not enqueue a job. The job is
/// handed back in both cases so the caller can retry, run it inline, or
/// surface backpressure to its own caller.
#[derive(Debug)]
pub enum TrySubmitError<J> {
    /// The bounded queue is at capacity (backpressure signal).
    Full(J),
    /// The pool has shut down.
    Shutdown(J),
}

/// Long-lived worker threads draining a bounded channel of jobs.
///
/// Jobs are owned (`'static`) values; the handler runs on whichever
/// worker dequeues the job first. Dropping the pool closes the channel
/// and joins every worker, so queued jobs are drained before shutdown
/// completes.
///
/// * The queue holds at most [`WorkerPool::capacity`] jobs, making
///   [`WorkerPool::try_submit`] an explicit backpressure signal
///   ([`TrySubmitError::Full`]) instead of buffering without limit.
/// * [`WorkerPool::queue_depth`] reports jobs enqueued but not yet picked
///   up by a worker — the gauge a serving front-end exports.
/// * A panicking handler no longer kills its worker: the pool catches the
///   unwind, counts it ([`WorkerPool::handler_panics`]) and keeps the
///   thread serving. Handlers that must *resolve* per-job state (wake
///   waiters, release tickets) still need their own `catch_unwind`,
///   because the pool-level catch cannot know what a lost job was
///   supposed to signal.
pub struct WorkerPool<J: Send + 'static> {
    tx: Option<SyncSender<J>>,
    workers: Vec<JoinHandle<()>>,
    depth: Arc<AtomicUsize>,
    panics: Arc<AtomicU64>,
    capacity: usize,
}

impl<J: Send + 'static> WorkerPool<J> {
    /// Spawn `workers.max(1)` threads named `{name}-{i}` running
    /// `handler` on each received job, behind a queue of `capacity.max(1)`
    /// jobs: once full, [`WorkerPool::try_submit`] reports
    /// [`TrySubmitError::Full`].
    pub fn bounded<F>(name: &str, workers: usize, capacity: usize, handler: F) -> WorkerPool<J>
    where
        F: Fn(J) + Send + Sync + 'static,
    {
        let capacity = capacity.max(1);
        let (tx, rx) = sync_channel::<J>(capacity);
        let handler = Arc::new(handler);
        let rx = Arc::new(Mutex::new(rx));
        let depth = Arc::new(AtomicUsize::new(0));
        let panics = Arc::new(AtomicU64::new(0));
        let workers = (0..workers.max(1))
            .map(|i| {
                let handler = Arc::clone(&handler);
                let rx = Arc::clone(&rx);
                let depth = Arc::clone(&depth);
                let panics = Arc::clone(&panics);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || loop {
                        let job = {
                            // a worker that panicked *inside the recv
                            // lock* is impossible (handlers run after the
                            // guard drops), so a poisoned lock here means
                            // memory corruption elsewhere — recover the
                            // receiver rather than cascade the panic
                            let rx = rx.lock().unwrap_or_else(|p| p.into_inner());
                            match rx.recv() {
                                Ok(job) => job,
                                Err(_) => return, // all senders dropped: shutdown
                            }
                        };
                        depth.fetch_sub(1, Ordering::Relaxed);
                        // contain handler panics: the worker survives and
                        // keeps draining the queue
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler(job)));
                        if outcome.is_err() {
                            panics.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
            depth,
            panics,
            capacity,
        }
    }

    /// Enqueue a job without blocking. A full queue reports
    /// [`TrySubmitError::Full`] — the caller's backpressure signal.
    pub fn try_submit(&self, job: J) -> Result<(), TrySubmitError<J>> {
        self.depth.fetch_add(1, Ordering::Relaxed);
        let sent = match &self.tx {
            Some(tx) => tx.try_send(job).map_err(|e| match e {
                TrySendError::Full(job) => TrySubmitError::Full(job),
                TrySendError::Disconnected(job) => TrySubmitError::Shutdown(job),
            }),
            None => Err(TrySubmitError::Shutdown(job)),
        };
        if sent.is_err() {
            self.depth.fetch_sub(1, Ordering::Relaxed);
        }
        sent
    }

    /// Jobs submitted but not yet picked up by a worker.
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Queue capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Handler panics contained by the pool so far.
    pub fn handler_panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }
}

impl<J: Send + 'static> Drop for WorkerPool<J> {
    fn drop(&mut self) {
        // closing the channel ends the worker loops once the queue drains
        self.tx.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scoped_map_preserves_task_order() {
        let input: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 8] {
            let out = scoped_map(threads, input.len(), |i| input[i] * 3);
            let want: Vec<usize> = input.iter().map(|x| x * 3).collect();
            assert_eq!(out, want, "threads={threads}");
        }
    }

    #[test]
    fn scoped_map_borrows_caller_data_without_cloning() {
        let data = vec![String::from("a"); 64];
        let lens = scoped_map(4, data.len(), |i| data[i].len());
        assert_eq!(lens, vec![1; 64]);
        assert_eq!(data.len(), 64, "data survives the scope");
    }

    #[test]
    fn scoped_map_runs_every_task_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..37).map(|_| AtomicUsize::new(0)).collect();
        scoped_map(8, counters.len(), |i| {
            counters[i].fetch_add(1, Ordering::Relaxed)
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "task {i}");
        }
    }

    #[test]
    fn scoped_map_handles_empty_and_single_task() {
        let empty: Vec<usize> = scoped_map(8, 0, |i| i);
        assert!(empty.is_empty());
        assert_eq!(scoped_map(8, 1, |i| i + 41), vec![41]);
    }

    #[test]
    fn worker_pool_processes_all_jobs_before_shutdown() {
        let done = Arc::new(AtomicUsize::new(0));
        let pool = {
            let done = Arc::clone(&done);
            WorkerPool::bounded("test-pool", 3, 100, move |j: usize| {
                done.fetch_add(j, Ordering::Relaxed);
            })
        };
        assert_eq!(pool.workers(), 3);
        for j in 1..=100 {
            pool.try_submit(j).unwrap();
        }
        drop(pool); // joins workers, draining the queue
        assert_eq!(done.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn worker_pool_clamps_to_one_worker_and_one_slot() {
        let pool = WorkerPool::bounded("clamped", 0, 0, |_: ()| {});
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.capacity(), 1);
    }

    #[test]
    fn bounded_pool_reports_full_and_returns_the_job() {
        // one worker parked on a barrier job; capacity-2 queue
        let gate = Arc::new(std::sync::Barrier::new(2));
        let pool = {
            let gate = Arc::clone(&gate);
            WorkerPool::bounded("bounded", 1, 2, move |j: usize| {
                if j == 0 {
                    gate.wait(); // hold the worker until the test releases it
                }
            })
        };
        assert_eq!(pool.capacity(), 2);
        pool.try_submit(0).unwrap(); // worker picks this up and blocks
                                     // wait for the worker to actually dequeue job 0 so the queue
                                     // capacity below is deterministic
        while pool.queue_depth() > 0 {
            std::thread::yield_now();
        }
        pool.try_submit(1).unwrap();
        pool.try_submit(2).unwrap();
        match pool.try_submit(3) {
            Err(TrySubmitError::Full(job)) => assert_eq!(job, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(pool.queue_depth(), 2);
        gate.wait(); // release the worker; drop drains the queue
    }

    #[test]
    fn handler_panics_are_contained_and_counted() {
        let done = Arc::new(AtomicUsize::new(0));
        let pool = {
            let done = Arc::clone(&done);
            WorkerPool::bounded("panicky", 1, 10, move |j: usize| {
                if j.is_multiple_of(2) {
                    panic!("injected handler panic");
                }
                done.fetch_add(j, Ordering::Relaxed);
            })
        };
        for j in 0..10 {
            pool.try_submit(j).unwrap();
        }
        drop(pool); // drains the queue; panics must not kill the worker
        assert_eq!(done.load(Ordering::Relaxed), 1 + 3 + 5 + 7 + 9);
    }

    #[test]
    fn handler_panics_counter_increments() {
        let pool = WorkerPool::bounded("counted", 2, 10, |j: usize| {
            if j == 7 {
                panic!("boom");
            }
        });
        for j in 0..10 {
            pool.try_submit(j).unwrap();
        }
        // spin until the queue drains (workers survive panics)
        while pool.queue_depth() > 0 {
            std::thread::yield_now();
        }
        // the panicking job may still be mid-handler; poll briefly
        for _ in 0..1000 {
            if pool.handler_panics() == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(pool.handler_panics(), 1);
    }
}
