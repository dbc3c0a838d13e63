//! Parallel parameter sweeps.
//!
//! The evaluation regenerates surfaces over hundreds of configurations;
//! each solve is independent, so OS threads (std scoped threads — no extra
//! dependencies) are all that is needed. Two schedules are offered:
//!
//! * [`Schedule::Static`] — contiguous chunks, one per core. Lowest
//!   overhead; right for near-uniform per-item costs.
//! * [`Schedule::Dynamic`] — an atomic counter that idle threads claim
//!   short contiguous runs of items from (work-stealing-style
//!   self-scheduling). Right for *skewed* costs: a sweep mixing
//!   near-saturation configs (hundreds of solver iterations) with
//!   light-load ones (a handful) keeps every core busy until the tail
//!   instead of letting one chunk dominate wall time. A run is a quarter
//!   of a thread's share, not one item: every claim starts a new warm
//!   chain, since a worker's next item is seeded from the item it solved
//!   last. Claiming single items strided each worker's chain and cost
//!   24–31% more solver iterations on the Figure-4 grid at 2 and 4
//!   threads; runs keep it within 10% whatever order the runs are claimed
//!   in (`tests/warm_sweep.rs`).
//!
//! Both preserve item order in the output.
//!
//! [`solve_sweep`] layers warm-start propagation on top: each worker
//! thread carries a [`SweepSeed`] and a [`SolverWorkspace`], so every
//! point after a worker's first is seeded from the previous solution on
//! that worker and solved through reused scratch memory. Results match
//! cold solves within solver tolerance regardless of schedule or thread
//! count (asserted in `tests/warm_sweep.rs`).
//!
//! The thread count can be pinned with the `LT_SWEEP_THREADS` environment
//! variable (useful for reproducible benches on shared CI runners); it is
//! clamped to `[1, items.len()]` and invalid values fall back to
//! [`std::thread::available_parallelism`].

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::analysis::{solve_seeded, SolverChoice, SweepSeed};
use crate::error::Result;
use crate::metrics::PerformanceReport;
use crate::mva::{SolverOptions, SolverWorkspace};
use crate::params::SystemConfig;

/// Environment variable overriding the sweep thread count.
pub const SWEEP_THREADS_ENV: &str = "LT_SWEEP_THREADS";

/// [`Schedule::Dynamic`] hands each thread about this many claims: fewer
/// cut fewer warm chains, more even out skewed item costs. At 4 a worker
/// idles at most one run (a quarter of its share) at the tail.
const CLAIMS_PER_THREAD: usize = 4;

/// How [`parallel_map_with`] assigns items to threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Contiguous per-thread chunks, fixed up front.
    #[default]
    Static,
    /// Threads claim the next short run of unprocessed items from a
    /// shared atomic counter, so fast items don't wait behind slow ones.
    Dynamic,
}

/// Apply `f` to every item, in parallel, preserving order
/// ([`Schedule::Static`]).
pub fn parallel_map<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    parallel_map_with(items, Schedule::Static, f)
}

/// Apply `f` to every item, in parallel with the chosen schedule,
/// preserving order. Honors the `LT_SWEEP_THREADS` override.
pub fn parallel_map_with<I, T, F>(items: &[I], schedule: Schedule, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    parallel_map_with_state(items, schedule, || (), move |item, ()| f(item))
}

/// [`parallel_map_with`] with per-thread mutable state: each worker thread
/// builds one `S` via `init` and threads it through every item it
/// processes, in claim order. This is the substrate for warm-start
/// propagation — the state carries the previous solution (and reusable
/// solver scratch) from one sweep point to the next on the same worker.
pub fn parallel_map_with_state<I, T, S, G, F>(
    items: &[I],
    schedule: Schedule,
    init: G,
    f: F,
) -> Vec<T>
where
    I: Sync,
    T: Send,
    G: Fn() -> S + Sync,
    F: Fn(&I, &mut S) -> T + Sync,
{
    run_sweep(items, schedule, None, init, f)
}

/// Parse an `LT_SWEEP_THREADS` value: a positive integer, else `None`.
fn parse_threads(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&t| t > 0)
}

/// Resolve the worker-thread count: an explicit request wins, then a valid
/// `LT_SWEEP_THREADS` value, then `fallback` (the machine parallelism);
/// the result is clamped to `[1, items]`.
fn threads_for(
    requested: Option<usize>,
    raw_env: Option<&str>,
    items: usize,
    fallback: usize,
) -> usize {
    requested
        .or_else(|| raw_env.and_then(parse_threads))
        .unwrap_or(fallback)
        .clamp(1, items.max(1))
}

/// The shared sweep executor behind [`parallel_map_with_state`] and
/// [`solve_sweep`]. `threads` pins the worker count (tests and benches);
/// `None` defers to `LT_SWEEP_THREADS` / available parallelism.
fn run_sweep<I, T, S, G, F>(
    items: &[I],
    schedule: Schedule,
    threads: Option<usize>,
    init: G,
    f: F,
) -> Vec<T>
where
    I: Sync,
    T: Send,
    G: Fn() -> S + Sync,
    F: Fn(&I, &mut S) -> T + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let fallback = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    let env = std::env::var(SWEEP_THREADS_ENV).ok();
    let threads = threads_for(threads, env.as_deref(), items.len(), fallback);
    if threads <= 1 {
        let mut state = init();
        return items.iter().map(|item| f(item, &mut state)).collect();
    }
    match schedule {
        Schedule::Static => {
            let chunk = items.len().div_ceil(threads);
            let mut out: Vec<Option<T>> = Vec::with_capacity(items.len());
            out.resize_with(items.len(), || None);
            std::thread::scope(|scope| {
                let f = &f;
                let init = &init;
                for (item_chunk, out_chunk) in items.chunks(chunk).zip(out.chunks_mut(chunk)) {
                    scope.spawn(move || {
                        let mut state = init();
                        for (item, slot) in item_chunk.iter().zip(out_chunk.iter_mut()) {
                            *slot = Some(f(item, &mut state));
                        }
                    });
                }
            });
            out.into_iter()
                // lt-lint: allow(LT01, invariant: the chunk zip above writes every slot exactly once)
                .map(|v| v.expect("all chunks filled"))
                .collect()
        }
        Schedule::Dynamic => {
            // Each thread claims a run of `chunk` consecutive items at a
            // time and collects (index, result) pairs locally; results are
            // placed into order after the join, so no slot sharing is
            // needed.
            let chunk = (items.len() / (threads * CLAIMS_PER_THREAD)).max(1);
            let next = AtomicUsize::new(0);
            let mut out: Vec<Option<T>> = Vec::with_capacity(items.len());
            out.resize_with(items.len(), || None);
            let per_thread: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
                let f = &f;
                let init = &init;
                let next = &next;
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(move || {
                            let mut state = init();
                            let mut local = Vec::new();
                            loop {
                                let start = next.fetch_add(chunk, Ordering::Relaxed);
                                if start >= items.len() {
                                    break;
                                }
                                let run = &items[start..(start + chunk).min(items.len())];
                                for (i, item) in run.iter().enumerate() {
                                    local.push((start + i, f(item, &mut state)));
                                }
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    // lt-lint: allow(LT01, join() only fails if a worker panicked; re-raising that panic is the contract)
                    .map(|h| h.join().expect("sweep worker panicked"))
                    .collect()
            });
            for (i, v) in per_thread.into_iter().flatten() {
                out[i] = Some(v);
            }
            out.into_iter()
                // lt-lint: allow(LT01, invariant: the atomic counter hands every index to exactly one worker)
                .map(|v| v.expect("all items claimed"))
                .collect()
        }
    }
}

/// Controls for [`solve_sweep`].
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Solver run at every point.
    pub choice: SolverChoice,
    /// Convergence controls forwarded to the solver.
    pub solver: SolverOptions,
    /// How points are assigned to worker threads.
    pub schedule: Schedule,
    /// Warm-start each point from the previous solution on the same
    /// worker. `false` forces every point to solve cold (the baseline the
    /// cold-vs-warm benches and tests compare against).
    pub warm: bool,
    /// Pin the worker-thread count (tests/benches). `None` defers to
    /// `LT_SWEEP_THREADS`, then to the machine parallelism.
    pub threads: Option<usize>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            choice: SolverChoice::Auto,
            solver: SolverOptions::default(),
            schedule: Schedule::Dynamic,
            warm: true,
            threads: None,
        }
    }
}

/// What a [`solve_sweep`] run did, beyond the per-point reports.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Per-point results, in input order.
    pub reports: Vec<Result<PerformanceReport>>,
    /// Points that solved from a warm seed.
    pub warm_hits: u64,
    /// Points that solved cold.
    pub cold_solves: u64,
    /// Total solver iterations over all successful points — the
    /// convergence-cost figure the warm-vs-cold acceptance test compares.
    pub total_iterations: u64,
}

/// Solve every configuration of a sweep in parallel with per-worker
/// warm-start propagation and workspace reuse.
///
/// Each worker thread owns a ([`SweepSeed`], [`SolverWorkspace`]) pair:
/// points solved consecutively on a worker seed each other (in claim
/// order, so [`Schedule::Dynamic`] feeds warm starts along each claimed
/// run of points too), and all scratch memory is reused across the
/// worker's points. Warm starts never change which answers come back — only how
/// many iterations they cost — so the reports agree with a cold sweep
/// within solver tolerance for any schedule and thread count.
pub fn solve_sweep(cfgs: &[SystemConfig], opts: &SweepOptions) -> SweepOutcome {
    let per = run_sweep(
        cfgs,
        opts.schedule,
        opts.threads,
        || (SweepSeed::new(), SolverWorkspace::new()),
        |cfg, (seed, ws)| {
            if !opts.warm {
                seed.invalidate();
            }
            let before = (seed.warm_hits, seed.cold_solves);
            let rep = solve_seeded(cfg, opts.choice, opts.solver, seed, ws);
            (
                (seed.warm_hits - before.0, seed.cold_solves - before.1),
                rep,
            )
        },
    );
    let mut outcome = SweepOutcome {
        reports: Vec::with_capacity(per.len()),
        warm_hits: 0,
        cold_solves: 0,
        total_iterations: 0,
    };
    for ((warm, cold), rep) in per {
        outcome.warm_hits += warm;
        outcome.cold_solves += cold;
        if let Ok(r) = &rep {
            outcome.total_iterations += r.iterations as u64;
        }
        outcome.reports.push(rep);
    }
    outcome
}

/// Cartesian product of two parameter axes, row-major (`a` outer).
pub fn grid<A: Clone, B: Clone>(a: &[A], b: &[B]) -> Vec<(A, B)> {
    let mut out = Vec::with_capacity(a.len() * b.len());
    for x in a {
        for y in b {
            out.push((x.clone(), y.clone()));
        }
    }
    out
}

/// Evenly spaced floating-point axis: `n` points from `lo` to `hi`
/// inclusive (`n >= 2`), or just `[lo]` when `n == 1`.
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 1);
    if n == 1 {
        return vec![lo];
    }
    let step = (hi - lo) / (n - 1) as f64;
    (0..n).map(|i| lo + step * i as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_map_matches_sequential_on_solves() {
        use crate::analysis::solve;
        use crate::params::SystemConfig;
        let cfgs: Vec<_> = (1..=6)
            .map(|n| SystemConfig::paper_default().with_n_threads(n))
            .collect();
        let par = parallel_map(&cfgs, |c| solve(c).unwrap().u_p);
        let seq: Vec<_> = cfgs.iter().map(|c| solve(c).unwrap().u_p).collect();
        assert_eq!(par, seq);
    }

    /// Tiny deterministic LCG for cost skew in the property test (no rand
    /// dependency).
    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    #[test]
    fn dynamic_schedule_preserves_order_and_matches_sequential() {
        // Property test over random skewed workloads: some items cost ~100x
        // others, mimicking near-saturation vs light-load solves.
        let mut seed = 0xC0FFEE;
        for trial in 0..8 {
            let n = 1 + (lcg(&mut seed) % 257) as usize;
            let items: Vec<u64> = (0..n).map(|_| lcg(&mut seed)).collect();
            let work = |&x: &u64| -> u64 {
                // Skewed cost: busy-loop length depends on the item.
                let spin = if x % 7 == 0 { 2000 } else { 20 };
                let mut acc = x;
                for _ in 0..spin {
                    acc = acc.wrapping_mul(31).wrapping_add(7);
                }
                acc
            };
            let seq: Vec<u64> = items.iter().map(work).collect();
            let dyn_out = parallel_map_with(&items, Schedule::Dynamic, work);
            assert_eq!(dyn_out, seq, "trial {trial}, n = {n}");
            let static_out = parallel_map_with(&items, Schedule::Static, work);
            assert_eq!(static_out, seq, "trial {trial}, n = {n}");
        }
    }

    #[test]
    fn dynamic_schedule_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map_with(&empty, Schedule::Dynamic, |&x| x).is_empty());
        assert_eq!(
            parallel_map_with(&[9u32], Schedule::Dynamic, |&x| x * 2),
            vec![18]
        );
    }

    #[test]
    fn dynamic_schedule_matches_on_solves() {
        use crate::analysis::solve;
        use crate::params::SystemConfig;
        let cfgs: Vec<_> = (1..=6)
            .map(|n| SystemConfig::paper_default().with_n_threads(n))
            .collect();
        let dynamic = parallel_map_with(&cfgs, Schedule::Dynamic, |c| solve(c).unwrap().u_p);
        let seq: Vec<_> = cfgs.iter().map(|c| solve(c).unwrap().u_p).collect();
        assert_eq!(dynamic, seq);
    }

    #[test]
    fn thread_override_parses_clamps_and_falls_back() {
        // Valid values win over the fallback and are clamped to the item
        // count; invalid values are ignored.
        assert_eq!(threads_for(None, Some("3"), 100, 8), 3);
        assert_eq!(threads_for(None, Some(" 2 "), 100, 8), 2, "whitespace ok");
        assert_eq!(threads_for(None, Some("64"), 10, 8), 10, "clamped to items");
        assert_eq!(threads_for(None, Some("1"), 0, 8), 1, "empty sweep floor");
        for invalid in ["0", "-2", "abc", "", "1.5"] {
            assert_eq!(threads_for(None, Some(invalid), 100, 8), 8, "{invalid:?}");
        }
        assert_eq!(threads_for(None, None, 100, 8), 8, "unset env");
        // An explicit request beats both the env and the fallback.
        assert_eq!(threads_for(Some(5), Some("3"), 100, 8), 5);
        assert_eq!(threads_for(Some(500), None, 10, 8), 10, "request clamped");
    }

    #[test]
    fn env_override_is_read_by_the_executor() {
        // Count distinct per-thread states to observe the worker count.
        use std::collections::HashSet;
        use std::sync::atomic::AtomicUsize;
        std::env::set_var(SWEEP_THREADS_ENV, "2");
        let items: Vec<u32> = (0..64).collect();
        let counter = AtomicUsize::new(0);
        let out = parallel_map_with_state(
            &items,
            Schedule::Dynamic,
            || counter.fetch_add(1, Ordering::Relaxed),
            |&x, state| (x, *state),
        );
        std::env::remove_var(SWEEP_THREADS_ENV);
        let states: HashSet<usize> = out.iter().map(|&(_, s)| s).collect();
        assert!(states.len() <= 2, "LT_SWEEP_THREADS=2 but saw {states:?}");
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn per_thread_state_follows_claim_order() {
        // Single-threaded: the state must visit items in order, proving the
        // worker threads its state through consecutive items.
        let items: Vec<usize> = (0..20).collect();
        let out =
            parallel_map_with_state(&items, Schedule::Static, Vec::<usize>::new, |&x, seen| {
                seen.push(x);
                seen.len()
            });
        // With any partitioning, each item's position within its worker's
        // claim sequence is monotone along the chunk.
        assert_eq!(out.len(), 20);
        assert!(out.iter().all(|&n| n >= 1));
    }

    #[test]
    fn solve_sweep_warm_matches_cold() {
        use crate::params::SystemConfig;
        let cfgs: Vec<_> = (1..=6)
            .map(|n| SystemConfig::paper_default().with_n_threads(n))
            .collect();
        let cold = solve_sweep(
            &cfgs,
            &SweepOptions {
                warm: false,
                threads: Some(1),
                ..SweepOptions::default()
            },
        );
        let warm = solve_sweep(
            &cfgs,
            &SweepOptions {
                warm: true,
                threads: Some(1),
                ..SweepOptions::default()
            },
        );
        assert_eq!(cold.warm_hits, 0);
        assert_eq!(cold.cold_solves, 6);
        assert!(warm.warm_hits >= 5, "warm hits: {}", warm.warm_hits);
        for (c, w) in cold.reports.iter().zip(&warm.reports) {
            let (c, w) = (c.as_ref().unwrap(), w.as_ref().unwrap());
            assert!((c.u_p - w.u_p).abs() < 1e-6, "{} vs {}", c.u_p, w.u_p);
        }
    }

    #[test]
    fn grid_is_row_major() {
        let g = grid(&[1, 2], &["a", "b", "c"]);
        assert_eq!(g.len(), 6);
        assert_eq!(g[0], (1, "a"));
        assert_eq!(g[2], (1, "c"));
        assert_eq!(g[3], (2, "a"));
    }

    #[test]
    fn linspace_endpoints() {
        let v = linspace(0.0, 1.0, 5);
        assert_eq!(v.len(), 5);
        assert!((v[0] - 0.0).abs() < 1e-15);
        assert!((v[4] - 1.0).abs() < 1e-15);
        assert!((v[2] - 0.5).abs() < 1e-15);
        assert_eq!(linspace(3.0, 9.0, 1), vec![3.0]);
    }
}
