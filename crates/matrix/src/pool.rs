//! A small persistent thread pool for the executor's row-block loop.
//!
//! The vendored offline `rayon` stand-in is sequential, so data parallelism
//! inside one kernel needs its own mechanism.  [`ThreadPool`] hand-rolls the
//! same pattern the serving runtime (`dynasparse-serve`) uses for
//! request-level parallelism — plain `std::thread` workers parked on a
//! condvar — but at the *kernel* level: a [`ThreadPool::for_each_item`] call
//! hands the items of an iterator (a kernel's row blocks, each with its own
//! output rows and bookkeeping) to whichever participating thread claims
//! them next, the caller participates in the work, and the call returns only
//! when every item has been processed.
//!
//! Design points:
//!
//! * **One loop** — the dispatching executor runs every dense-output
//!   kernel's row blocks through `for_each_item` on [`ThreadPool::global`];
//!   the thread count is the only thing that varies.
//! * **Persistent** — workers are spawned once and reused across kernel
//!   invocations, so the steady-state hot path performs no thread spawns and
//!   no heap allocation beyond one `Arc` per fan-out.
//! * **Borrow-friendly** — the items and the closure may borrow the caller's
//!   stack (the output buffer of an `_into` kernel); a fan-out does not
//!   return while any worker can still observe the closure, which is what
//!   makes the internal lifetime transmute sound.
//! * **Degenerate-safe** — a pool of one thread (or a fan-out over 0 or 1
//!   items) runs inline on the caller's thread with no synchronization and
//!   no allocation, so single-core hosts pay nothing for the abstraction.
//!
//! [`ThreadPool::global`] is sized once per process from the
//! `DYNASPARSE_THREADS` environment variable, else from
//! `std::thread::available_parallelism`; a test that needs a particular size
//! runs in a child process.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// One fanned-out kernel invocation: a closure plus the claim/completion
/// counters that let every participating thread pull task indices until the
/// range is exhausted.
struct Job {
    /// The user closure, as a raw pointer because workers may hold the
    /// `Arc<Job>` slightly past the owning [`ThreadPool::run`] call (a raw
    /// pointer may dangle; a reference may not).  Soundness of dereferencing
    /// comes from `run` blocking until `remaining` hits zero, i.e. until no
    /// thread will touch `f` again.
    f: *const (dyn Fn(usize) + Sync),
    /// Next unclaimed task index.
    next: AtomicUsize,
    /// Total number of task indices.
    total: usize,
    /// Task executions not yet finished; `run` returns at zero.
    remaining: AtomicUsize,
    /// First captured panic payload; re-raised on the caller so the original
    /// assertion message/location is preserved.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

// SAFETY: the closure behind `f` is `Sync` (shared execution is safe) and is
// only dereferenced while the owning `run` call keeps it alive (see `work`);
// the counters are atomics.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and executes task indices until the range is exhausted.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                return;
            }
            // SAFETY: an index below `total` was claimed, so `remaining` has
            // not reached zero yet and the owning `run` call is still
            // blocked, keeping the closure alive.
            let f = unsafe { &*self.f };
            if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))) {
                let mut slot = self.panic.lock().expect("panic slot");
                slot.get_or_insert(payload);
            }
            self.remaining.fetch_sub(1, Ordering::Release);
        }
    }

    fn done(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }
}

struct Shared {
    /// Jobs waiting for (or being drained by) workers.  A job stays in the
    /// queue until some thread observes its index range exhausted.
    queue: Mutex<Vec<Arc<Job>>>,
    /// Signals workers that the queue changed or the pool is shutting down.
    bell: Condvar,
    shutdown: AtomicBool,
}

/// A persistent pool of worker threads executing row-parallel kernel bodies.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(pos) = queue
                    .iter()
                    .position(|j| j.next.load(Ordering::Relaxed) < j.total)
                {
                    break Some(Arc::clone(&queue[pos]));
                }
                // Drop exhausted jobs so their (transmuted) closures cannot
                // outlive the `run` call that owns them longer than needed.
                queue.retain(|j| !j.done());
                if shared.shutdown.load(Ordering::Relaxed) {
                    break None;
                }
                queue = shared.bell.wait(queue).expect("pool queue poisoned");
            }
        };
        match job {
            Some(job) => job.work(),
            None => return,
        }
    }
}

impl ThreadPool {
    /// Creates a pool that executes `run` bodies on `threads` threads in
    /// total: `threads - 1` background workers plus the calling thread.
    /// `threads <= 1` creates a pool that always runs inline.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Vec::new()),
            bell: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dynasparse-kernel-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("failed to spawn kernel pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            threads,
        }
    }

    /// The process-wide pool the dispatching kernels use, sized from
    /// `DYNASPARSE_THREADS` (if set) or `available_parallelism`.
    pub fn global() -> &'static ThreadPool {
        static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let threads = std::env::var("DYNASPARSE_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&t| t >= 1)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|p| p.get())
                        .unwrap_or(1)
                });
            ThreadPool::new(threads)
        })
    }

    /// Number of threads that participate in a fan-out (workers + caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes `f(0..tasks)` across the pool, returning when every index
    /// has been executed.  The closure may borrow the caller's stack; it is
    /// never observed after `run` returns.  Panics in `f` are surfaced as a
    /// panic on the caller once all indices finish.
    fn run(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        if self.workers.is_empty() || tasks == 1 {
            for i in 0..tasks {
                f(i);
            }
            return;
        }
        // `run` does not return before `remaining == 0`, i.e. before the
        // last `f(i)` call has finished; workers holding the Arc afterwards
        // only read the atomic counters, never the (then dangling) pointer.
        // SAFETY (lifetime erasure): the pointer is only dereferenced while
        // this call keeps the closure alive (see `Job::work`).
        let f_erased: *const (dyn Fn(usize) + Sync + 'static) =
            unsafe { std::mem::transmute(f as *const (dyn Fn(usize) + Sync)) };
        let job = Arc::new(Job {
            f: f_erased,
            next: AtomicUsize::new(0),
            total: tasks,
            remaining: AtomicUsize::new(tasks),
            panic: Mutex::new(None),
        });
        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            // A caller that finishes whole jobs before any worker wakes
            // would otherwise pile finished jobs up (and grow the queue's
            // allocation) until a worker next looks.
            queue.retain(|j| !j.done());
            queue.push(Arc::clone(&job));
        }
        self.shared.bell.notify_all();
        // The caller is a full participant: it claims indices like any
        // worker, then spin-waits the (short) tail where other workers are
        // finishing their last claimed index.
        job.work();
        let mut spins = 0u32;
        while !job.done() {
            // Short spin for the common sub-microsecond tail, then yield so
            // an oversubscribed host (serve workers sharing this pool) hands
            // the core to the worker still finishing its last chunk.
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        let payload = job.panic.lock().expect("panic slot").take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }

    /// Runs `f(item)` once for every item of `items` across the pool.  The
    /// items are claimed one at a time under a lock, so an iterator of
    /// disjoint `&mut` borrows (`chunks_mut`, or several of them zipped — an
    /// output row block together with its profile counter row) hands each
    /// participating thread its own exclusive pieces with no `unsafe`.
    pub fn for_each_item<I, F>(&self, items: I, f: F)
    where
        I: ExactSizeIterator + Send,
        F: Fn(I::Item) + Sync,
    {
        let tasks = items.len();
        if tasks <= 1 || self.workers.is_empty() {
            items.for_each(f);
            return;
        }
        let items = Mutex::new(items);
        self.run(tasks, &|_| {
            // The guard drops before `f` runs: a panicking `f` cannot poison
            // the iterator, and claiming never waits on kernel work.
            let item = items
                .lock()
                .expect("only the iterator's `next` runs under this lock")
                .next();
            if let Some(item) = item {
                f(item);
            }
        });
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.bell.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_pool_runs_everything_on_the_caller() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        assert!(pool.workers.is_empty());
        let hits = AtomicUsize::new(0);
        pool.run(17, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 17);
    }

    #[test]
    fn pooled_run_executes_each_index_exactly_once() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.threads(), 4);
        let counts: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..10 {
            pool.run(counts.len(), &|i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
        }
        for c in &counts {
            assert_eq!(c.load(Ordering::Relaxed), 10);
        }
    }

    #[test]
    fn chunked_run_covers_the_buffer_disjointly() {
        let pool = ThreadPool::new(3);
        let mut data = vec![0.0f32; 1003];
        pool.for_each_item(data.chunks_mut(64).enumerate(), |(i, chunk)| {
            for v in chunk.iter_mut() {
                *v += 1.0 + i as f32;
            }
        });
        for (k, &v) in data.iter().enumerate() {
            assert_eq!(v, 1.0 + (k / 64) as f32, "element {k}");
        }
    }

    #[test]
    fn pool_is_reusable_across_many_runs() {
        let pool = ThreadPool::new(2);
        let total = AtomicUsize::new(0);
        for round in 0..100 {
            pool.run(round % 7, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        let expected: usize = (0..100).map(|r| r % 7).sum();
        assert_eq!(total.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn task_panics_propagate_with_their_payload() {
        let pool = ThreadPool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                if i == 3 {
                    panic!("task 3 exploded");
                }
            });
        }))
        .expect_err("the task panic must surface on the caller");
        let msg = caught
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| caught.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("task 3 exploded"), "payload lost: {msg:?}");
        // The pool survives a panicked job.
        let hits = AtomicUsize::new(0);
        pool.run(4, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = ThreadPool::global() as *const ThreadPool;
        let b = ThreadPool::global() as *const ThreadPool;
        assert_eq!(a, b);
    }
}
