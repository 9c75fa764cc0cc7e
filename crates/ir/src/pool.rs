//! A persistent, lazily-initialized, std-only thread pool for the
//! fleet's worker loop, which runs whole modules.
//!
//! Spawning fresh scoped threads for every run would make small runs
//! *slower* in parallel than sequentially — thread creation dwarfs the
//! work. This pool spawns its workers once (on first use, via
//! `OnceLock`) and keeps them parked on a condvar between calls, so a
//! parallel run costs one lock/notify round instead of N
//! `clone`+`spawn`+`join`s.
//!
//! [`ThreadPool::run_scoped`] executes one closure from several workers
//! until it returns (callers hand out work items from a shared source
//! inside the closure). The calling thread participates too: a
//! `tasks == 1` request never touches the pool at all, and the caller
//! never sits idle while workers drain the queue. Borrowed (non-
//! `'static`) closures are supported by erasing the lifetime before
//! boxing; this is sound because `run_scoped` blocks until every
//! submitted task has signalled its completion latch, so the closure
//! strictly outlives all pool-side uses. Worker panics are caught,
//! counted, and re-raised on the caller after the latch settles —
//! the pool itself survives.
//!
//! Determinism is unaffected: the pool only runs closures that key their
//! results by work item; arrival order never reaches an output.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Renders a caught panic payload as a message: the `&str` / `String`
/// forms the standard `panic!` macros produce pass through verbatim,
/// anything else gets a placeholder. The fleet's quarantine reports
/// carry it.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

type Task = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    queue: Mutex<VecDeque<Task>>,
    ready: Condvar,
}

/// Completion latch for one `run_scoped` call.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

/// The persistent worker pool. Obtain the process-wide instance with
/// [`ThreadPool::global`].
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: usize,
}

impl ThreadPool {
    /// Spawns `workers` detached worker threads.
    fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        });
        for k in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("fence-pool-{k}"))
                .spawn(move || loop {
                    let task = {
                        let mut q = shared.queue.lock().unwrap();
                        loop {
                            if let Some(t) = q.pop_front() {
                                break t;
                            }
                            q = shared.ready.wait(q).unwrap();
                        }
                    };
                    task();
                })
                .expect("spawn pool worker");
        }
        ThreadPool { shared, workers }
    }

    /// The process-wide pool, created on first use with one worker per
    /// available core *minus the participating caller* — on a
    /// single-core machine the pool has zero workers and
    /// [`ThreadPool::run_scoped`] degrades to inline execution, so
    /// `parallel: true` costs nothing over sequential.
    pub fn global() -> &'static ThreadPool {
        static POOL: OnceLock<ThreadPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let n = std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
                .saturating_sub(1);
            ThreadPool::new(n)
        })
    }

    /// Runs `job` from up to `tasks` threads concurrently (pool workers
    /// plus the calling thread) and returns when every instance has
    /// finished. `job` is typically a worker loop pulling items from a
    /// shared source.
    ///
    /// Panics in any instance are re-raised here after all instances
    /// settle; the pool remains usable.
    pub fn run_scoped(&self, tasks: usize, job: &(dyn Fn() + Sync)) {
        // The caller is one of the instances; only the rest go to the pool.
        let pooled = tasks.clamp(1, self.workers + 1) - 1;
        if pooled == 0 {
            job();
            return;
        }
        let latch = Arc::new(Latch {
            remaining: Mutex::new(pooled),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        });
        // SAFETY: `run_scoped` does not return until the latch reports
        // every submitted task finished, so the borrow behind `job`
        // outlives all pool-side uses; the transmute only erases the
        // lifetime, not the type.
        let job_static: &'static (dyn Fn() + Sync) = unsafe { std::mem::transmute(job) };
        {
            let mut q = self.shared.queue.lock().unwrap();
            for _ in 0..pooled {
                let latch = Arc::clone(&latch);
                q.push_back(Box::new(move || {
                    if catch_unwind(AssertUnwindSafe(job_static)).is_err() {
                        latch.panicked.store(true, Ordering::Relaxed);
                    }
                    let mut r = latch.remaining.lock().unwrap();
                    *r -= 1;
                    if *r == 0 {
                        latch.done.notify_all();
                    }
                }));
            }
        }
        self.shared.ready.notify_all();
        // Participate, then wait for the pooled instances.
        let caller_result = catch_unwind(AssertUnwindSafe(job));
        {
            let mut r = latch.remaining.lock().unwrap();
            while *r > 0 {
                r = latch.done.wait(r).unwrap();
            }
        }
        if caller_result.is_err() || latch.panicked.load(Ordering::Relaxed) {
            if let Err(p) = caller_result {
                std::panic::resume_unwind(p);
            }
            panic!("thread-pool worker task panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_all_items_with_borrowed_state() {
        let pool = ThreadPool::global();
        let n = 1000usize;
        let next = AtomicUsize::new(0);
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.run_scoped(8, &|| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn single_task_runs_inline() {
        let pool = ThreadPool::global();
        let tid = std::thread::current().id();
        let ran_on = Mutex::new(None);
        pool.run_scoped(1, &|| {
            *ran_on.lock().unwrap() = Some(std::thread::current().id());
        });
        assert_eq!(*ran_on.lock().unwrap(), Some(tid));
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = ThreadPool::global();
        let once = AtomicBool::new(false);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_scoped(4, &|| {
                if !once.swap(true, Ordering::SeqCst) {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "panic re-raised on the caller");
        // The pool still works afterwards.
        let next = AtomicUsize::new(0);
        pool.run_scoped(4, &|| {
            next.fetch_add(1, Ordering::Relaxed);
        });
        assert!(next.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn panic_message_stringifies_non_str_payloads() {
        let payload = catch_unwind(|| std::panic::panic_any(42usize)).unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "non-string panic payload");
        let payload = catch_unwind(|| panic!("unit {} boom", 3)).unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "unit 3 boom");
    }

    #[test]
    fn reusable_across_many_calls() {
        let pool = ThreadPool::global();
        for round in 0..50usize {
            let next = AtomicUsize::new(0);
            let sum = AtomicUsize::new(0);
            pool.run_scoped(3, &|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= 10 {
                    break;
                }
                sum.fetch_add(i + round, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 45 + 10 * round);
        }
    }
}
