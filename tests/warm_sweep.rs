//! Warm-start effectiveness over the paper's Figure-4 grid: seeding each
//! sweep point from its predecessor must cut total solver iterations by
//! at least 1.5x while agreeing with cold answers within tolerance, for
//! every schedule and thread count.

use lt_core::analysis::SolverChoice;
use lt_core::mva::SolverOptions;
use lt_core::prelude::*;
use lt_core::sweep::{solve_sweep, Schedule, SweepOptions};

/// The Figure-4 axes (threads per processor x remote-access probability
/// on the default 4x4 torus), ordered so consecutive points are nearest
/// neighbors: for each p_remote, walk the full thread axis.
fn figure4_grid() -> Vec<SystemConfig> {
    let mut cfgs = Vec::new();
    for i in 0..18 {
        let p = 0.05 + 0.05 * i as f64;
        for n_t in 1..=20usize {
            cfgs.push(
                SystemConfig::paper_default()
                    .with_n_threads(n_t)
                    .with_p_remote(p),
            );
        }
    }
    cfgs
}

/// Figure sweeps converge to plotting accuracy: 1e-6 on the queue
/// residual puts u_p well below line width on any figure, and the
/// shorter convergence tail is where warm starts pay off most.
fn figure_solver() -> SolverOptions {
    SolverOptions {
        tolerance: 1e-6,
        ..SolverOptions::default()
    }
}

fn opts(warm: bool, threads: usize, schedule: Schedule) -> SweepOptions {
    SweepOptions {
        choice: SolverChoice::Amva,
        solver: figure_solver(),
        warm,
        threads: Some(threads),
        schedule,
    }
}

#[test]
fn warm_sweep_cuts_iterations_by_at_least_1_5x() {
    let cfgs = figure4_grid();
    let cold = solve_sweep(&cfgs, &opts(false, 1, Schedule::Dynamic));
    let warm = solve_sweep(&cfgs, &opts(true, 1, Schedule::Dynamic));
    assert_eq!(cold.cold_solves, cfgs.len() as u64);
    assert_eq!(cold.warm_hits, 0);
    assert!(
        warm.warm_hits >= cfgs.len() as u64 - 1,
        "all but the first point must warm-start (hits={})",
        warm.warm_hits
    );
    println!(
        "cold {} iters, warm {} iters, ratio {:.2}",
        cold.total_iterations,
        warm.total_iterations,
        cold.total_iterations as f64 / warm.total_iterations as f64
    );
    assert!(
        warm.total_iterations * 3 <= cold.total_iterations * 2,
        "warm sweep must cut total iterations by >= 1.5x (cold={} warm={})",
        cold.total_iterations,
        warm.total_iterations
    );
    for (c, w) in cold.reports.iter().zip(&warm.reports) {
        let (c, w) = (c.as_ref().unwrap(), w.as_ref().unwrap());
        assert!(
            (c.u_p - w.u_p).abs() < 1e-5,
            "warm and cold disagree beyond solver tolerance: {} vs {}",
            c.u_p,
            w.u_p
        );
    }
}

#[test]
fn warm_sweep_agrees_across_schedules_and_thread_counts() {
    let cfgs: Vec<SystemConfig> = figure4_grid().into_iter().step_by(7).collect();
    let baseline = solve_sweep(&cfgs, &opts(false, 1, Schedule::Static));
    for schedule in [Schedule::Static, Schedule::Dynamic] {
        for threads in [1usize, 2, 4] {
            let out = solve_sweep(&cfgs, &opts(true, threads, schedule));
            assert_eq!(out.reports.len(), cfgs.len());
            for (i, (b, w)) in baseline.reports.iter().zip(&out.reports).enumerate() {
                let (b, w) = (b.as_ref().unwrap(), w.as_ref().unwrap());
                assert!(
                    (b.u_p - w.u_p).abs() < 1e-5,
                    "{schedule:?}/{threads} threads, point {i}: {} vs {}",
                    b.u_p,
                    w.u_p
                );
                assert!(
                    w.u_p.is_finite() && w.u_p > 0.0 && w.u_p <= 1.0 + 1e-12,
                    "point {i} utilization out of range: {}",
                    w.u_p
                );
            }
        }
    }
}

/// The dynamic schedule claims runs of consecutive points, so each
/// worker's warm chain is cut once per run instead of at every point:
/// at 2 and 4 threads the sweep spends at most 10% more solver iterations
/// than one thread walking the whole chain. (Claiming single points cost
/// 24–31% more.) The bound holds for any order in which the runs are
/// claimed, so the count does not depend on thread timing.
#[test]
fn dynamic_schedule_keeps_warm_chains_intact() {
    let cfgs = figure4_grid();
    let single = solve_sweep(&cfgs, &opts(true, 1, Schedule::Dynamic));
    for threads in [2usize, 4] {
        let out = solve_sweep(&cfgs, &opts(true, threads, Schedule::Dynamic));
        println!(
            "{threads} threads: {} iterations against {} on one thread",
            out.total_iterations, single.total_iterations
        );
        assert!(
            out.total_iterations * 10 <= single.total_iterations * 11,
            "{threads} threads spent {} iterations, one thread {}",
            out.total_iterations,
            single.total_iterations
        );
        for (i, (a, b)) in single.reports.iter().zip(&out.reports).enumerate() {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert!(
                (a.u_p - b.u_p).abs() < 1e-5,
                "{threads} threads, point {i}: {} vs {}",
                a.u_p,
                b.u_p
            );
        }
    }
}
