//! Sweep benchmarks: cold vs warm-started grid evaluation over the
//! paper's Figure-4 axes (threads per processor × remote-access
//! probability on the 4×4 torus).
//!
//! Besides wall time, the warm/cold *iteration* totals are published as
//! counters in `BENCH.json` — they are the machine-independent form of
//! the warm-start win (wall clock varies with the host; the iteration
//! ratio does not).

use lt_bench::{criterion_group, criterion_main, report_counter, BenchmarkId, Criterion};
use lt_core::analysis::SolverChoice;
use lt_core::mva::SolverOptions;
use lt_core::prelude::*;
use lt_core::sweep::{solve_sweep, Schedule, SweepOptions};
use std::time::Duration;

/// The Figure-4 grid: n_t × p_remote over the paper's default machine,
/// ordered so consecutive points are nearest neighbors (thread axis
/// inner) — the ordering the warm chain exploits.
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

fn sweep_opts(warm: bool, threads: usize) -> SweepOptions {
    SweepOptions {
        choice: SolverChoice::Amva,
        // Plotting accuracy, matching tests/warm_sweep.rs.
        solver: SolverOptions {
            tolerance: 1e-6,
            ..SolverOptions::default()
        },
        warm,
        threads: Some(threads),
        schedule: Schedule::Dynamic,
    }
}

fn static_opts(threads: usize) -> SweepOptions {
    SweepOptions {
        schedule: Schedule::Static,
        ..sweep_opts(true, threads)
    }
}

fn bench_cold_vs_warm(c: &mut Criterion) {
    let cfgs = figure4_grid();
    let mut group = c.benchmark_group("sweep-figure4");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for (label, warm) in [("cold", false), ("warm", true)] {
        group.bench_with_input(BenchmarkId::new(label, "1-thread"), &cfgs, |b, cfgs| {
            b.iter(|| solve_sweep(cfgs, &sweep_opts(warm, 1)).total_iterations)
        });
    }
    // The machine-independent trajectory: total solver iterations over
    // the full grid, cold and warm, plus the reduction ratio.
    let cold = solve_sweep(&cfgs, &sweep_opts(false, 1));
    let warm = solve_sweep(&cfgs, &sweep_opts(true, 1));
    report_counter(
        "sweep-figure4",
        "cold-iterations",
        cold.total_iterations as f64,
    );
    report_counter(
        "sweep-figure4",
        "warm-iterations",
        warm.total_iterations as f64,
    );
    if warm.total_iterations > 0 {
        report_counter(
            "sweep-figure4",
            "iteration-reduction",
            cold.total_iterations as f64 / warm.total_iterations as f64,
        );
    }
    report_counter("sweep-figure4", "warm-hits", warm.warm_hits as f64);
    group.finish();
}

fn bench_warm_scaling(c: &mut Criterion) {
    let cfgs = figure4_grid();
    let mut group = c.benchmark_group("sweep-threads");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("warm", format!("{threads}-threads")),
            &cfgs,
            |b, cfgs| b.iter(|| solve_sweep(cfgs, &sweep_opts(true, threads)).total_iterations),
        );
        // Each claim of the dynamic schedule starts a new warm chain, so
        // the iteration total shows what a thread count costs in solver
        // work apart from how the host runs the threads.
        report_counter(
            "sweep-threads",
            &format!("warm-iterations-{threads}-threads"),
            solve_sweep(&cfgs, &sweep_opts(true, threads)).total_iterations as f64,
        );
    }
    // Two contiguous halves: the intact chain, but one thread gets the
    // heavier half of the grid.
    group.bench_with_input(BenchmarkId::new("static", "2-threads"), &cfgs, |b, cfgs| {
        b.iter(|| solve_sweep(cfgs, &static_opts(2)).total_iterations)
    });
    report_counter(
        "sweep-threads",
        "static-iterations-2-threads",
        solve_sweep(&cfgs, &static_opts(2)).total_iterations as f64,
    );
    group.finish();
}

criterion_group!(sweeps, bench_cold_vs_warm, bench_warm_scaling);
criterion_main!(sweeps);
