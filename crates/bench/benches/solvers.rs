//! Solver micro-benchmarks: network construction and the four MVA
//! solvers across machine sizes and populations, and the Auto ladder's
//! per-rung kernel table.

use lt_bench::{criterion_group, criterion_main, report_counter, BenchmarkId, Criterion};
use lt_core::analysis::{solve_network, solve_network_in, SolverChoice};
use lt_core::metrics::report;
use lt_core::mva::{amva, SolverOptions};
use lt_core::prelude::*;
use lt_core::qn::build::build_network;
use lt_core::topology::Topology;
use std::time::{Duration, Instant};

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("build-network");
    group.measurement_time(Duration::from_secs(2));
    for k in [4usize, 8, 10] {
        let cfg = SystemConfig::paper_default().with_topology(Topology::torus(k));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("k{k}")),
            &cfg,
            |b, cfg| b.iter(|| build_network(cfg).unwrap().net.n_stations()),
        );
    }
    group.finish();
}

fn bench_solvers_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver-scaling");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for k in [4usize, 8, 10] {
        let cfg = SystemConfig::paper_default().with_topology(Topology::torus(k));
        let mms = build_network(&cfg).unwrap();
        group.bench_with_input(
            BenchmarkId::new("symmetric-amva", format!("k{k}")),
            &mms,
            |b, mms| {
                b.iter(|| {
                    solve_network(mms, SolverChoice::SymmetricAmva)
                        .unwrap()
                        .iterations
                })
            },
        );
        // The multi-class solver itself: `SolverChoice::Amva` would take
        // the class-0 path on these tori.
        group.bench_with_input(
            BenchmarkId::new("general-amva", format!("k{k}")),
            &mms,
            |b, mms| b.iter(|| amva::solve(&mms.net).unwrap().iterations),
        );
    }
    group.finish();
}

fn bench_solver_accuracy_tier(c: &mut Criterion) {
    // Exact vs approximations on a small instance where all run.
    let cfg = SystemConfig::paper_default()
        .with_topology(Topology::torus(2))
        .with_n_threads(4)
        .with_p_remote(0.5);
    let mms = build_network(&cfg).unwrap();
    let mut group = c.benchmark_group("solver-tier-2x2");
    group.measurement_time(Duration::from_secs(2));
    for (name, choice) in [
        ("exact", SolverChoice::Exact),
        ("amva", SolverChoice::Amva),
        ("linearizer", SolverChoice::Linearizer),
        ("symmetric", SolverChoice::SymmetricAmva),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| solve_network(&mms, choice).unwrap().throughput[0])
        });
    }
    group.finish();
}

fn bench_priority_heuristic(c: &mut Criterion) {
    let cfg = SystemConfig::paper_default().with_p_remote(0.5);
    let mms = build_network(&cfg).unwrap();
    let mut group = c.benchmark_group("priority-amva");
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("shadow-server", |b| {
        b.iter(|| lt_core::mva::priority::solve(&mms).unwrap().throughput[0])
    });
    group.bench_function("plain-amva-baseline", |b| {
        b.iter(|| amva::solve(&mms.net).unwrap().throughput[0])
    });
    group.finish();
}

fn bench_workspace_reuse(c: &mut Criterion) {
    // The allocation-free path: one warmed SolverWorkspace reused across
    // solves vs a fresh workspace (and its allocations) per solve.
    let mut group = c.benchmark_group("workspace-reuse");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    for k in [4usize, 8] {
        let cfg = SystemConfig::paper_default().with_topology(Topology::torus(k));
        let mms = build_network(&cfg).unwrap();
        group.bench_with_input(
            BenchmarkId::new("fresh-workspace", format!("k{k}")),
            &mms,
            |b, mms| {
                b.iter(|| {
                    amva::solve_in(
                        &mms.net,
                        Default::default(),
                        None,
                        &mut SolverWorkspace::new(),
                    )
                    .unwrap()
                    .iterations
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("pooled-workspace", format!("k{k}")),
            &mms,
            |b, mms| {
                let mut ws = SolverWorkspace::new();
                b.iter(|| {
                    amva::solve_in(&mms.net, Default::default(), None, &mut ws)
                        .unwrap()
                        .iterations
                })
            },
        );
    }
    group.finish();
}

fn bench_tolerance_index(c: &mut Criterion) {
    let cfg = SystemConfig::paper_default();
    let mut group = c.benchmark_group("tolerance-index");
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("network", |b| {
        b.iter(|| {
            tolerance_index(&cfg, IdealSpec::ZeroSwitchDelay)
                .unwrap()
                .index
        })
    });
    group.bench_function("memory", |b| {
        b.iter(|| {
            tolerance_index(&cfg, IdealSpec::ZeroMemoryDelay)
                .unwrap()
                .index
        })
    });
    group.finish();
}

/// The 48 configs of one torus size in latbench's solve-cold mix:
/// `n_t` 1–12 × `S`, `L` ∈ {1, 2}, at `p_remote` 0.3 and `p_sw` 0.5.
fn ladder_configs(k: usize) -> Vec<SystemConfig> {
    let base = SystemConfig::paper_default()
        .with_topology(Topology::torus(k))
        .with_p_remote(0.3)
        .with_pattern(AccessPattern::geometric(0.5));
    let mut cfgs = Vec::with_capacity(48);
    for n_t in 1..=12 {
        for (s, l) in [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (2.0, 2.0)] {
            cfgs.push(
                base.with_n_threads(n_t)
                    .with_switch_delay(s)
                    .with_memory_latency(l),
            );
        }
    }
    cfgs
}

fn bench_auto_ladder(c: &mut Criterion) {
    // What a cache miss costs latencyd, one row per Auto rung: build,
    // solve with Auto on a pooled workspace, and report. 2×2 runs exact
    // MVA, 4×4 the Linearizer, 6×6 and 8×8 symmetric AMVA.
    let mut group = c.benchmark_group("auto-ladder");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let opts = SolverOptions::default();
    for k in [2usize, 4, 6, 8] {
        let cfgs = ladder_configs(k);
        let mut ws = SolverWorkspace::new();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("k{k}")),
            &cfgs,
            |b, cfgs| {
                b.iter(|| {
                    cfgs.iter()
                        .map(|cfg| {
                            let mms = build_network(cfg).unwrap();
                            let sol =
                                solve_network_in(&mms, SolverChoice::Auto, opts, None, &mut ws)
                                    .unwrap();
                            report(&mms, &sol).u_p
                        })
                        .sum::<f64>()
                })
            },
        );
        // One pass timed by phase: the kernel table's mean µs per config.
        let mut phases = [Duration::ZERO; 3];
        for cfg in &cfgs {
            let t0 = Instant::now();
            let mms = build_network(cfg).unwrap();
            let t1 = Instant::now();
            let sol = solve_network_in(&mms, SolverChoice::Auto, opts, None, &mut ws).unwrap();
            let t2 = Instant::now();
            lt_bench::black_box(report(&mms, &sol));
            let t3 = Instant::now();
            phases[0] += t1 - t0;
            phases[1] += t2 - t1;
            phases[2] += t3 - t2;
        }
        for (phase, total) in ["build", "solve", "report"].iter().zip(phases) {
            report_counter(
                "auto-ladder",
                &format!("k{k}-{phase}-us"),
                total.as_secs_f64() * 1e6 / cfgs.len() as f64,
            );
        }
    }
    group.finish();
}

criterion_group!(
    solvers,
    bench_build,
    bench_solvers_scaling,
    bench_solver_accuracy_tier,
    bench_priority_heuristic,
    bench_workspace_reuse,
    bench_tolerance_index,
    bench_auto_ladder
);
criterion_main!(solvers);
