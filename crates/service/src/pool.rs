//! The execution layer: a fixed worker pool over an MPMC channel, with a
//! dynamic self-scheduling batch primitive for skewed workloads.
//!
//! * Single solves go through [`WorkerPool::execute`], which returns a
//!   one-shot receiver the connection handler can `recv_timeout` on —
//!   that is where per-request deadlines are enforced (a solve that blows
//!   its deadline keeps running to completion on the worker, but the
//!   handler answers `504` immediately and the result is discarded; jobs
//!   check their deadline *before* starting so an expired queue entry
//!   never occupies a worker).
//! * Batches (the sweep endpoint) go through [`WorkerPool::run_batch`]:
//!   `min(workers, items)` pool jobs share an atomic next-item counter, so
//!   per-item cost skew (near-saturation configs are far slower than
//!   light-load ones) never leaves a worker idle while another drags a
//!   long static chunk — the same scheduling argument as
//!   `lt_core::sweep::Schedule::Dynamic`, but on pool threads. Unlike
//!   that schedule, which claims runs of consecutive items so each
//!   worker's warm-start chain stays intact, a batch claims one item at a
//!   time: a sweep request is small (50 items, 1–2 ms of solving on a
//!   torus), and a worker left holding the last run costs more than the
//!   chain saves. On 5×10 AMVA grids over a 4×4 torus with 2 workers,
//!   10-item runs cut iterations per item from 25.6 to 23.5 but raised
//!   the median batch makespan from 1.14 to 1.26 ms (2-vCPU VM).
//! * A job that **panics** kills its worker thread, but not the pool: a
//!   drop guard armed around the job detects the unwind (via
//!   `std::thread::panicking`) and respawns a replacement worker, so
//!   capacity survives poisoned jobs. The dead job's one-shot sender is
//!   dropped unsent, which the handler observes as a disconnected
//!   receiver — the signal behind the structured `worker_lost` error and
//!   the bounded retry in `server.rs`. [`WorkerPool::workers_lost`]
//!   counts the casualties.
//! * [`WorkerPool::shutdown`] closes the channel and joins the workers;
//!   already-queued jobs are drained, not dropped (graceful shutdown).
//!
//! The MPMC channel is std's mpsc with the receiver behind a mutex — the
//! standard dependency-free construction; hold times are one queue pop.

use crate::sync::lock_ok;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// State shared by every worker thread — and needed by the respawn path,
/// which runs on a dying worker with no `&WorkerPool` in reach.
struct PoolShared {
    rx: Mutex<Receiver<Job>>,
    completed: AtomicU64,
    workers_lost: AtomicU64,
    /// Cleared by [`WorkerPool::shutdown`]; a worker dying during
    /// shutdown is not replaced.
    open: AtomicBool,
    /// Handles of respawned replacement workers, joined at shutdown.
    respawned: Mutex<Vec<JoinHandle<()>>>,
    next_worker_id: AtomicUsize,
}

/// A fixed pool of named worker threads.
pub struct WorkerPool {
    sender: Mutex<Option<Sender<Job>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    shared: Arc<PoolShared>,
    workers: usize,
    submitted: AtomicU64,
}

/// Why a batch run did not return results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchError {
    /// The deadline expired before every item finished.
    TimedOut,
    /// The pool is shutting down and accepted no work.
    ShuttingDown,
}

/// Armed around each job: if the job unwinds, the guard drops while the
/// thread is panicking and spawns a replacement worker.
struct RespawnGuard {
    shared: Arc<PoolShared>,
    armed: bool,
}

impl RespawnGuard {
    fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if !self.armed || !std::thread::panicking() {
            return;
        }
        self.shared.workers_lost.fetch_add(1, Ordering::Relaxed);
        if !self.shared.open.load(Ordering::SeqCst) {
            return;
        }
        let shared = Arc::clone(&self.shared);
        let id = shared.next_worker_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(handle) = std::thread::Builder::new()
            .name(format!("latencyd-worker-{id}"))
            .spawn(move || worker_loop(&shared))
        {
            lock_ok(&self.shared.respawned).push(handle);
        }
        // A failed respawn leaves the pool one worker short; remaining
        // workers keep draining the shared queue, so no job is stranded.
    }
}

fn worker_loop(shared: &Arc<PoolShared>) {
    loop {
        // Take the next job; exit when the channel is closed *and*
        // drained.
        // lt-lint: allow(LT10, idle-worker parking: the recv ends when shutdown() drops the sender, which closes the channel)
        let job = match lock_ok(&shared.rx).recv() {
            Ok(job) => job,
            Err(_) => break,
        };
        let guard = RespawnGuard {
            shared: Arc::clone(shared),
            armed: true,
        };
        job();
        guard.disarm();
        shared.completed.fetch_add(1, Ordering::Relaxed);
    }
}

impl WorkerPool {
    /// Spawn `workers` threads (at least 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = channel::<Job>();
        let shared = Arc::new(PoolShared {
            rx: Mutex::new(rx),
            completed: AtomicU64::new(0),
            workers_lost: AtomicU64::new(0),
            open: AtomicBool::new(true),
            respawned: Mutex::new(Vec::new()),
            next_worker_id: AtomicUsize::new(workers),
        });
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("latencyd-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    // lt-lint: allow(LT01, startup fail-fast: a pool that cannot spawn its workers cannot serve at all)
                    .expect("spawn worker thread"),
            );
        }
        WorkerPool {
            sender: Mutex::new(Some(tx)),
            handles: Mutex::new(handles),
            shared,
            workers,
            submitted: AtomicU64::new(0),
        }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Jobs accepted so far.
    pub fn jobs_submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Jobs fully executed so far.
    pub fn jobs_completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Relaxed)
    }

    /// Worker threads killed by panicking jobs (each was replaced while
    /// the pool was open).
    pub fn workers_lost(&self) -> u64 {
        self.shared.workers_lost.load(Ordering::Relaxed)
    }

    /// Whether the pool still accepts work ([`shutdown`] not yet called).
    ///
    /// [`shutdown`]: WorkerPool::shutdown
    pub fn is_open(&self) -> bool {
        self.shared.open.load(Ordering::SeqCst)
    }

    /// Queue a job. Returns `false` (job not queued) after [`shutdown`].
    ///
    /// [`shutdown`]: WorkerPool::shutdown
    pub fn submit<F: FnOnce() + Send + 'static>(&self, f: F) -> bool {
        let guard = lock_ok(&self.sender);
        match guard.as_ref() {
            Some(tx) if tx.send(Box::new(f)).is_ok() => {
                self.submitted.fetch_add(1, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Run `f` on the pool and get a one-shot receiver for its result.
    /// If the caller stops listening (deadline), the worker's send fails
    /// silently and the result is discarded. If the job panics, the
    /// sender drops unsent and the receiver reports disconnection — the
    /// caller's signal that the worker was lost mid-job.
    pub fn execute<T, F>(&self, f: F) -> Option<Receiver<T>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (tx, rx) = channel();
        if self.submit(move || {
            // lt-lint: allow(LT07, best effort: a send failure means the handler gave up on the deadline; the result is discarded by design)
            let _ = tx.send(f());
        }) {
            Some(rx)
        } else {
            None
        }
    }

    /// Run `f(0..n)` across the pool with dynamic (atomic-counter)
    /// scheduling, preserving item order in the result. Blocks until all
    /// items finish or `deadline` passes; on timeout the remaining items
    /// are cancelled (claimed-but-running items finish and are discarded).
    pub fn run_batch<T, F>(&self, n: usize, deadline: Instant, f: F) -> Result<Vec<T>, BatchError>
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        if n == 0 {
            return Ok(Vec::new());
        }
        struct BatchState<T, F> {
            next: AtomicUsize,
            results: Mutex<Vec<Option<T>>>,
            tasks_left: AtomicUsize,
            done_tx: Mutex<Option<Sender<()>>>,
            cancelled: AtomicBool,
            f: F,
            n: usize,
        }
        let (done_tx, done_rx) = channel();
        let tasks = self.workers.min(n);
        let mut results = Vec::with_capacity(n);
        results.resize_with(n, || None);
        let state = Arc::new(BatchState {
            next: AtomicUsize::new(0),
            results: Mutex::new(results),
            tasks_left: AtomicUsize::new(tasks),
            done_tx: Mutex::new(Some(done_tx)),
            cancelled: AtomicBool::new(false),
            f,
            n,
        });

        fn finish_task<T, F>(state: &BatchState<T, F>) {
            if state.tasks_left.fetch_sub(1, Ordering::AcqRel) == 1 {
                if let Some(tx) = lock_ok(&state.done_tx).take() {
                    // lt-lint: allow(LT07, best effort: the batch caller may have timed out and dropped the done receiver)
                    let _ = tx.send(());
                }
            }
        }

        let mut any_submitted = false;
        for _ in 0..tasks {
            let task_state = Arc::clone(&state);
            let ok = self.submit(move || {
                loop {
                    if task_state.cancelled.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = task_state.next.fetch_add(1, Ordering::Relaxed);
                    if i >= task_state.n {
                        break;
                    }
                    let value = (task_state.f)(i);
                    lock_ok(&task_state.results)[i] = Some(value);
                }
                finish_task(&task_state);
            });
            if ok {
                any_submitted = true;
            } else {
                // A failed submit counts as an instantly finished task so
                // the done signal still fires once the live tasks drain.
                finish_task(&state);
            }
        }
        if !any_submitted {
            return Err(BatchError::ShuttingDown);
        }

        let wait = deadline.saturating_duration_since(Instant::now());
        match done_rx.recv_timeout(wait) {
            Ok(()) => {
                let mut slots = lock_ok(&state.results);
                let out: Vec<T> = slots
                    .iter_mut()
                    .map(|s| s.take())
                    .collect::<Option<_>>()
                    // lt-lint: allow(LT01, invariant: the done signal only fires after every index was claimed and its slot written)
                    .expect("all batch slots filled by completed tasks");
                Ok(out)
            }
            Err(RecvTimeoutError::Timeout) => {
                state.cancelled.store(true, Ordering::Relaxed);
                Err(BatchError::TimedOut)
            }
            Err(RecvTimeoutError::Disconnected) => {
                // All tasks finished via failed-submit path without results.
                Err(BatchError::ShuttingDown)
            }
        }
    }

    /// Close the queue and join the workers — original and respawned.
    /// Queued jobs are drained first (graceful). Idempotent.
    pub fn shutdown(&self) {
        self.shared.open.store(false, Ordering::SeqCst);
        lock_ok(&self.sender).take();
        let handles: Vec<_> = lock_ok(&self.handles).drain(..).collect();
        for h in handles {
            // lt-lint: allow(LT07, best effort: a worker that already died panicking has nothing left to report at join)
            // lt-lint: allow(LT10, bounded: the sender was taken above, so every worker's recv fails and its loop exits)
            let _ = h.join();
        }
        // Replacement workers spawned by RespawnGuard; a drain during the
        // joins above could have added more, so loop until empty.
        loop {
            let respawned: Vec<_> = lock_ok(&self.shared.respawned).drain(..).collect();
            if respawned.is_empty() {
                break;
            }
            for h in respawned {
                // lt-lint: allow(LT07, best effort: a worker that already died panicking has nothing left to report at join)
                // lt-lint: allow(LT10, bounded: respawned workers see the closed channel immediately and exit)
                let _ = h.join();
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How long an idle handler thread parks before retiring. Bursts reuse
/// warm threads; a quiet service shrinks back to zero handlers.
const HANDLER_IDLE_PARK: Duration = Duration::from_secs(10);

/// State shared by handler threads; split from [`HandlerPool`] so
/// detached threads can outlive the pool handle.
struct HandlerShared {
    rx: Mutex<Receiver<Job>>,
    /// Threads currently parked on (or queued for) the receiver.
    idle: AtomicUsize,
    /// Threads alive right now (parked or running a job).
    live: AtomicUsize,
    /// Jobs sent but not yet claimed by a thread; incremented before
    /// the send, decremented by the receiver, so the spawn decision in
    /// [`HandlerPool::offload`] can compare demand against idle supply
    /// instead of trusting a single stale idle snapshot.
    queued: AtomicUsize,
    /// Threads ever spawned (growth diagnostic).
    spawned: AtomicU64,
    next_id: AtomicUsize,
}

/// The blocking-work pool behind the connection reactor.
///
/// Reactor threads must never block, so everything that might —
/// solver dispatch waiting on deadlines, cluster forwards, injected
/// latency sleeps — is offloaded here. Unlike [`WorkerPool`] (fixed
/// size, sized to CPUs, runs compute), this pool is *elastic*: threads
/// are spawned only when a job arrives and no thread is idle, parked
/// threads retire after `HANDLER_IDLE_PARK`, and growth is capped so
/// a request flood degrades into queueing (and admission-control sheds)
/// rather than thread explosion. Thread count tracks *active* requests,
/// which admission control already bounds — connection count no longer
/// implies thread count.
///
/// Jobs carry their own reply path (the reactor completion handle), so
/// the pool never joins or waits on them: `shutdown` closes the queue
/// and lets live threads drain and retire on their own.
pub struct HandlerPool {
    sender: Mutex<Option<Sender<Job>>>,
    shared: Arc<HandlerShared>,
    cap: usize,
}

fn handler_loop(shared: &Arc<HandlerShared>) {
    loop {
        shared.idle.fetch_add(1, Ordering::SeqCst);
        let job = lock_ok(&shared.rx).recv_timeout(HANDLER_IDLE_PARK);
        shared.idle.fetch_sub(1, Ordering::SeqCst);
        match job {
            Ok(job) => {
                shared.queued.fetch_sub(1, Ordering::SeqCst);
                job();
            }
            Err(RecvTimeoutError::Disconnected) => {
                shared.live.fetch_sub(1, Ordering::SeqCst);
                return;
            }
            Err(RecvTimeoutError::Timeout) => {
                // Retire — but re-check the queue after announcing the
                // retirement: an offload racing this timeout may have
                // seen this thread as idle and skipped spawning.
                shared.live.fetch_sub(1, Ordering::SeqCst);
                match lock_ok(&shared.rx).try_recv() {
                    Ok(job) => {
                        shared.live.fetch_add(1, Ordering::SeqCst);
                        shared.queued.fetch_sub(1, Ordering::SeqCst);
                        job();
                    }
                    Err(_) => return,
                }
            }
        }
    }
}

impl HandlerPool {
    /// A pool that grows on demand up to `cap` threads (at least 1).
    pub fn new(cap: usize) -> HandlerPool {
        let (tx, rx) = channel::<Job>();
        HandlerPool {
            sender: Mutex::new(Some(tx)),
            shared: Arc::new(HandlerShared {
                rx: Mutex::new(rx),
                idle: AtomicUsize::new(0),
                live: AtomicUsize::new(0),
                queued: AtomicUsize::new(0),
                spawned: AtomicU64::new(0),
                next_id: AtomicUsize::new(0),
            }),
            cap: cap.max(1),
        }
    }

    /// Threads alive right now.
    pub fn live_threads(&self) -> usize {
        self.shared.live.load(Ordering::SeqCst)
    }

    /// Threads ever spawned (retired ones included).
    pub fn threads_spawned(&self) -> u64 {
        self.shared.spawned.load(Ordering::Relaxed)
    }

    /// Queue a blocking job, growing the pool if every thread is busy.
    ///
    /// Never blocks and never runs the job inline (the caller is a
    /// reactor thread). A job that cannot run — queue closed by
    /// [`shutdown`], or thread spawn failed with no live thread left —
    /// is *dropped*; jobs respond through an owned completion handle
    /// whose drop path answers `503`, so a dropped job is a structured
    /// refusal, not a hung connection.
    ///
    /// [`shutdown`]: HandlerPool::shutdown
    pub fn offload<F: FnOnce() + Send + 'static>(&self, f: F) {
        {
            let guard = lock_ok(&self.sender);
            let Some(tx) = guard.as_ref() else {
                return; // drops f; its completion handle answers 503
            };
            // Count the job before sending so the receiver's decrement
            // can never observe it missing.
            self.shared.queued.fetch_add(1, Ordering::SeqCst);
            if tx.send(Box::new(f)).is_err() {
                self.shared.queued.fetch_sub(1, Ordering::SeqCst);
                return;
            }
        }
        // Spawn when demand exceeds idle supply. Two offloads racing a
        // single idle thread both counted their jobs first, so the
        // second sees queued == 2 > idle == 1 and spawns — the stale
        // single-snapshot check (`idle > 0`) would have let both skip,
        // stranding one job until the busy handler finished. Over-spawn
        // in the other direction is harmless: the extra thread parks
        // and retires on the idle timeout.
        if self.shared.queued.load(Ordering::SeqCst) <= self.shared.idle.load(Ordering::SeqCst)
            || self.shared.live.load(Ordering::SeqCst) >= self.cap
        {
            return; // idle threads cover the queue, or the cap says wait
        }
        self.shared.live.fetch_add(1, Ordering::SeqCst);
        let shared = Arc::clone(&self.shared);
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        match std::thread::Builder::new()
            .name(format!("latencyd-handler-{id}"))
            .spawn(move || handler_loop(&shared))
        {
            Ok(_) => {
                // Detached by design: handlers retire via idle timeout
                // or queue closure; nothing ever joins them.
                self.shared.spawned.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.shared.live.fetch_sub(1, Ordering::SeqCst);
                if self.shared.live.load(Ordering::SeqCst) == 0 {
                    // No thread will ever drain the queue: reclaim and
                    // drop everything queued (each drop answers 503).
                    while lock_ok(&self.shared.rx).try_recv().is_ok() {
                        self.shared.queued.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
        }
    }

    /// Close the queue. Parked threads see the disconnect and retire;
    /// busy threads finish their job first. Idempotent, never blocks.
    pub fn shutdown(&self) {
        lock_ok(&self.sender).take();
    }
}

impl Drop for HandlerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn execute_returns_result() {
        let pool = WorkerPool::new(2);
        let rx = pool.execute(|| 21 * 2).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 42);
        assert_eq!(pool.jobs_submitted(), 1);
    }

    #[test]
    fn run_batch_preserves_order_under_skew() {
        let pool = WorkerPool::new(4);
        let deadline = Instant::now() + Duration::from_secs(30);
        let out = pool
            .run_batch(100, deadline, |i| {
                if i % 9 == 0 {
                    std::thread::sleep(Duration::from_millis(2));
                }
                i * 3
            })
            .unwrap();
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn run_batch_empty() {
        let pool = WorkerPool::new(2);
        let out: Vec<u32> = pool
            .run_batch(0, Instant::now() + Duration::from_secs(1), |_| 0u32)
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn run_batch_times_out_instead_of_hanging() {
        let pool = WorkerPool::new(2);
        let started = Instant::now();
        let deadline = Instant::now() + Duration::from_millis(30);
        let err = pool
            .run_batch(64, deadline, |_| {
                std::thread::sleep(Duration::from_millis(20));
            })
            .unwrap_err();
        assert_eq!(err, BatchError::TimedOut);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "timeout must fire promptly"
        );
        // Cancellation means the pool drains quickly despite 64 items.
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let pool = WorkerPool::new(1);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..20 {
            let c = Arc::clone(&counter);
            assert!(pool.submit(move || {
                c.fetch_add(1, Ordering::Relaxed);
            }));
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 20, "graceful drain");
        assert!(!pool.submit(|| {}), "no work accepted after shutdown");
        assert!(pool.execute(|| 1).is_none());
        assert!(!pool.is_open());
    }

    #[test]
    fn run_batch_after_shutdown_reports_shutting_down() {
        let pool = WorkerPool::new(2);
        pool.shutdown();
        let err = pool
            .run_batch(4, Instant::now() + Duration::from_secs(1), |i| i)
            .unwrap_err();
        assert_eq!(err, BatchError::ShuttingDown);
    }

    #[test]
    fn concurrency_actually_happens() {
        // 4 workers, 4 jobs of 50ms each: wall time well under 4 * 50ms.
        let pool = WorkerPool::new(4);
        let t0 = Instant::now();
        let rxs: Vec<_> = (0..4)
            .map(|_| {
                pool.execute(|| std::thread::sleep(Duration::from_millis(50)))
                    .unwrap()
            })
            .collect();
        for rx in rxs {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert!(
            t0.elapsed() < Duration::from_millis(150),
            "jobs must overlap: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn panicking_job_disconnects_its_receiver_and_respawns_the_worker() {
        let pool = WorkerPool::new(1);
        let rx = pool
            .execute(|| -> u32 { crate::fault::detonate() })
            .unwrap();
        // The sender dropped unsent: the handler-side signal of a lost
        // worker.
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(5)),
            Err(RecvTimeoutError::Disconnected)
        ));
        // The single worker was replaced: the pool still executes jobs.
        let rx = pool.execute(|| 7u32).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 7);
        assert_eq!(pool.workers_lost(), 1);
        assert!(pool.is_open());
    }

    #[test]
    fn pool_survives_repeated_worker_deaths() {
        let pool = WorkerPool::new(2);
        for round in 0..5u32 {
            let rx = pool
                .execute(|| -> u32 { crate::fault::detonate() })
                .unwrap();
            assert!(rx.recv_timeout(Duration::from_secs(5)).is_err());
            let rx = pool.execute(move || round * 10).unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), round * 10);
        }
        // Only after shutdown (which joins every worker, original and
        // respawned) is the loss counter guaranteed final: the surviving
        // worker can answer the follow-up job before a dying worker's
        // drop guard has finished counting itself.
        pool.shutdown();
        assert_eq!(pool.workers_lost(), 5);
    }
}
