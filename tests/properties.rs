//! Property-based tests over randomized model instances.
//!
//! These pin the invariants the whole stack rests on: conservation laws,
//! bounds, monotonicities, and solver cross-agreement, for *arbitrary*
//! parameter combinations rather than the hand-picked ones in unit tests.
//!
//! Cases are drawn from a seeded in-repo generator ([`lt_desim::SimRng`])
//! instead of `proptest` (unavailable offline): every run exercises the
//! same deterministic case set, and a failing case prints its full
//! configuration for direct reproduction.

use lt_core::analysis::{solve_network, SolverChoice};
use lt_core::prelude::*;
use lt_core::qn::build::build_network;
use lt_core::topology::Topology;
use lt_desim::SimRng;

/// Deterministic sampler of random-but-valid torus configurations.
struct ConfigGen {
    rng: SimRng,
}

impl ConfigGen {
    fn new(seed: u64) -> Self {
        ConfigGen {
            rng: SimRng::new(seed),
        }
    }

    fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.rng.uniform01()
    }

    fn int_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.rng.uniform01() * (hi - lo + 1) as f64) as usize % (hi - lo + 1)
    }

    fn next(&mut self) -> SystemConfig {
        let k = self.int_in(2, 5);
        let pattern = match self.int_in(0, 2) {
            0 => AccessPattern::geometric(self.in_range(0.05, 1.0)),
            1 => AccessPattern::geometric_per_module(self.in_range(0.05, 1.0)),
            _ => AccessPattern::Uniform,
        };
        SystemConfig {
            workload: WorkloadParams {
                n_threads: self.int_in(1, 12),
                runlength: self.in_range(0.25, 8.0),
                context_switch: 0.0,
                p_remote: self.in_range(0.0, 1.0),
                pattern,
            },
            arch: ArchParams {
                topology: Topology::torus(k),
                memory_latency: self.in_range(0.0, 4.0),
                switch_delay: self.in_range(0.0, 2.0),
                memory_ports: 1,
            },
        }
    }
}

/// Run `check` over `cases` generated configurations, reporting the failing
/// configuration (proptest-style) on panic.
fn for_each_config(seed: u64, cases: usize, mut check: impl FnMut(&SystemConfig)) {
    let mut gen = ConfigGen::new(seed);
    for case in 0..cases {
        let cfg = gen.next();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(&cfg)));
        if let Err(panic) = result {
            eprintln!("failing case #{case}: {cfg:?}");
            std::panic::resume_unwind(panic);
        }
    }
}

/// U_p is a utilization: in (0, 1]; throughput identities hold.
#[test]
fn utilization_bounds_and_identities() {
    for_each_config(0xA11CE, 64, |cfg| {
        let rep = solve(cfg).unwrap();
        assert!(rep.u_p > 0.0);
        assert!(rep.u_p <= 1.0 + 1e-9);
        assert!((rep.u_p - rep.lambda_proc * cfg.workload.runlength).abs() < 1e-9);
        assert!((rep.lambda_net - rep.lambda_proc * cfg.workload.p_remote).abs() < 1e-9);
        assert!(
            rep.l_obs >= cfg.arch.memory_latency - 1e-9,
            "queueing cannot shorten service: L_obs {} < L {}",
            rep.l_obs,
            cfg.arch.memory_latency
        );
    });
}

/// Queue lengths conserve each class's population.
#[test]
fn population_conservation() {
    for_each_config(0xB0B, 64, |cfg| {
        let mms = build_network(cfg).unwrap();
        let sol = solve_network(&mms, SolverChoice::Auto).unwrap();
        assert!(sol.population_residual(&mms.net) < 1e-6);
    });
}

/// The symmetric fast path and the general solver agree everywhere.
#[test]
fn symmetric_equals_general() {
    for_each_config(0xC0FFEE, 64, |cfg| {
        let mms = build_network(cfg).unwrap();
        let a = solve_network(&mms, SolverChoice::SymmetricAmva).unwrap();
        let b = lt_core::mva::amva::solve(&mms.net).unwrap();
        for (x, y) in a.throughput.iter().zip(&b.throughput) {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    });
}

/// The Linearizer's translation-symmetric path agrees with its general
/// path on every torus shape it takes (square and rectangular, one or two
/// memory ports, n_t = 1 emptying class 0 of N − 1₀ included), and
/// networks without the symmetry take the general path bit for bit.
#[test]
fn symmetric_linearizer_equals_general() {
    use lt_core::analysis::solve_network_in;
    use lt_core::metrics::report;
    use lt_core::mva::{linearizer, MvaSolution, SolverOptions};
    let opts = SolverOptions::default();
    let mut ws = SolverWorkspace::new();
    let mut solve_both = |cfg: &SystemConfig| {
        let mms = build_network(cfg).unwrap();
        let sym = solve_network_in(&mms, SolverChoice::Linearizer, opts, None, &mut ws).unwrap();
        let gen = linearizer::solve_in(&mms.net, opts, None, &mut ws).unwrap();
        (mms, sym, gen)
    };

    let tori = [
        Topology::torus(2),
        Topology::torus(3),
        Topology::torus(4),
        Topology::torus(5),
        Topology::rect_torus(2, 3),
        Topology::rect_torus(3, 4),
    ];
    let mut gen = ConfigGen::new(0x11AE);
    for case in 0..36 {
        let pattern = if gen.int_in(0, 1) == 0 {
            AccessPattern::geometric(gen.in_range(0.05, 1.0))
        } else {
            AccessPattern::Uniform
        };
        // The first pass over the shapes pins n_t = 1.
        let n_t = if case < tori.len() {
            1
        } else {
            gen.int_in(1, 12)
        };
        let mut cfg = SystemConfig::paper_default()
            .with_topology(tori[case % tori.len()])
            .with_n_threads(n_t)
            .with_memory_ports(gen.int_in(1, 2))
            .with_p_remote(gen.in_range(0.0, 0.9))
            .with_pattern(pattern);
        cfg.arch.switch_delay = gen.int_in(1, 2) as f64;
        cfg.arch.memory_latency = gen.int_in(1, 2) as f64;
        let (mms, sym, general) = solve_both(&cfg);
        let (a, b) = (report(&mms, &sym), report(&mms, &general));
        for (name, x, y) in [
            ("u_p", a.u_p, b.u_p),
            ("s_obs", a.s_obs, b.s_obs),
            ("l_obs", a.l_obs, b.l_obs),
            ("lambda_net", a.lambda_net, b.lambda_net),
        ] {
            let rel = (x - y).abs() / y.abs().max(1e-300);
            assert!(rel < 1e-9, "case #{case} {cfg:?}: {name} {x} vs {y}");
        }
        for (i, (x, y)) in sym.queue.iter().zip(&general.queue).enumerate() {
            for (st, (q, r)) in x.iter().zip(y).enumerate() {
                assert!(
                    (q - r).abs() < 1e-8,
                    "case #{case} {cfg:?}: class {i} station {st}: {q} vs {r}"
                );
            }
        }
    }

    // No translation symmetry: the general path runs, bit for bit.
    let same = |a: &MvaSolution, b: &MvaSolution| {
        a.throughput == b.throughput
            && a.queue == b.queue
            && a.wait == b.wait
            && a.iterations == b.iterations
    };
    for cfg in [
        SystemConfig::paper_default()
            .with_topology(Topology::mesh(3))
            .with_n_threads(5),
        SystemConfig::paper_default()
            .with_topology(Topology::torus(3))
            .with_pattern(AccessPattern::hot_spot(0.3))
            .with_n_threads(4),
    ] {
        let (_, sym, general) = solve_both(&cfg);
        assert!(same(&sym, &general), "{cfg:?} left the general path");
    }
}

/// Every class's `(em, ei, eo, d_avg)` computed class by class from
/// `Topology::route` and `AccessPattern::remote_probs`, in the summation
/// order the network build uses for the classes it routes.
type VisitRows = (Vec<Vec<f64>>, Vec<Vec<f64>>, Vec<Vec<f64>>, Vec<f64>);

fn per_class_rows(cfg: &SystemConfig) -> VisitRows {
    let topo = cfg.arch.topology;
    let p = topo.nodes();
    let p_remote = cfg.workload.p_remote;
    let mut em = vec![vec![0.0; p]; p];
    let mut ei = vec![vec![0.0; p]; p];
    let mut eo = vec![vec![0.0; p]; p];
    let mut d_avg = vec![0.0; p];
    for i in 0..p {
        em[i][i] = 1.0 - p_remote;
        if p_remote <= 0.0 {
            continue;
        }
        let q = cfg.workload.pattern.remote_probs(&topo, i);
        eo[i][i] = p_remote;
        for j in (0..p).filter(|&j| j != i && q[j] > 0.0) {
            let weight = p_remote * q[j];
            em[i][j] = weight;
            eo[i][j] += weight;
            d_avg[i] += q[j] * topo.distance(i, j) as f64;
            for n in topo.route(i, j).into_iter().chain(topo.route(j, i)) {
                ei[i][n] += weight;
            }
        }
    }
    (em, ei, eo, d_avg)
}

/// The scalar measures of a report, by name.
fn report_scalars(rep: &PerformanceReport) -> [(&'static str, f64); 14] {
    let u = rep.utilization;
    [
        ("u_p", rep.u_p),
        ("lambda_proc", rep.lambda_proc),
        ("lambda_net", rep.lambda_net),
        ("s_obs", rep.s_obs),
        ("l_obs", rep.l_obs),
        ("l_obs_local", rep.l_obs_local),
        ("l_obs_remote", rep.l_obs_remote),
        ("network_time_per_cycle", rep.network_time_per_cycle),
        ("d_avg", rep.d_avg),
        ("system_throughput", rep.system_throughput),
        ("util.processor", u.processor),
        ("util.memory", u.memory),
        ("util.in_switch", u.in_switch),
        ("util.out_switch", u.out_switch),
    ]
}

/// The same measures as per-class means over every class of the
/// solution, the way a report without the class-0 shortcut takes them.
fn per_class_means(
    mms: &lt_core::qn::build::MmsNetwork,
    sol: &lt_core::mva::MvaSolution,
) -> [(&'static str, f64); 14] {
    let (p, c) = (mms.idx.p, mms.net.n_classes());
    let r = mms.cfg.workload.runlength;
    let p_remote = mms.cfg.workload.p_remote;
    let (mut lambda, mut l_obs, mut l_local, mut l_remote) = (0.0, 0.0, 0.0, 0.0);
    let (mut net_cycle, mut d_avg) = (0.0, 0.0);
    for i in 0..c {
        lambda += sol.throughput[i];
        let (mut obs, mut remote) = (0.0, 0.0);
        for j in (0..p).filter(|&j| mms.em[i][j] > 0.0) {
            let mut w = sol.wait[i][mms.idx.mem(j)];
            if mms.idx.has_memory_delay {
                w += sol.wait[i][mms.idx.mem_delay(j)];
            }
            obs += w * mms.em[i][j];
            if j == i {
                l_local += w;
            } else {
                remote += w * mms.em[i][j];
            }
        }
        if p_remote > 0.0 {
            l_remote += remote / p_remote;
        }
        l_obs += obs;
        let mut cycle = 0.0;
        for j in 0..p {
            if mms.ei[i][j] > 0.0 {
                cycle += sol.wait[i][mms.idx.insw(j)] * mms.ei[i][j];
            }
            if mms.eo[i][j] > 0.0 {
                cycle += sol.wait[i][mms.idx.outsw(j)] * mms.eo[i][j];
            }
        }
        net_cycle += cycle;
        d_avg += mms.d_avg[i];
    }
    let cf = c as f64;
    let util = |station: &dyn Fn(usize) -> usize| {
        (0..p).fold(0.0, |acc, j| acc + sol.utilization(&mms.net, station(j))) / p as f64
    };
    let lambda_proc = lambda / cf;
    let per_cycle = net_cycle / cf;
    [
        ("u_p", lambda_proc * r),
        ("lambda_proc", lambda_proc),
        ("lambda_net", lambda_proc * p_remote),
        (
            "s_obs",
            if p_remote > 0.0 {
                per_cycle / (2.0 * p_remote)
            } else {
                0.0
            },
        ),
        ("l_obs", l_obs / cf),
        ("l_obs_local", l_local / cf),
        ("l_obs_remote", l_remote / cf),
        ("network_time_per_cycle", per_cycle),
        ("d_avg", d_avg / cf),
        (
            "system_throughput",
            sol.throughput.iter().map(|&x| x * r).sum(),
        ),
        ("util.processor", util(&|j| mms.idx.proc(j))),
        ("util.memory", util(&|j| mms.idx.mem(j))),
        ("util.in_switch", util(&|j| mms.idx.insw(j))),
        ("util.out_switch", util(&|j| mms.idx.outsw(j))),
    ]
}

/// `|a − b| ≤ tol · |b|`: relative, and exact where `b` is 0.
fn within(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * b.abs()
}

/// The symmetry-native model core: on tori the network build routes
/// class 0 and translates it, the report reads class 0, and exact MVA
/// keeps one table row per orbit of population vectors. Class 0 is built
/// exactly as the per-class path builds it, every other class and every
/// measure agrees with the per-class path, and meshes and hot-spot
/// patterns take the per-class path bit for bit.
#[test]
fn class0_core_matches_the_per_class_path() {
    use lt_core::analysis::solve_network_in;
    use lt_core::metrics::report;
    use lt_core::mva::{exact, SolverOptions};
    let opts = SolverOptions::default();
    let mut ws = SolverWorkspace::new();
    let tori = [
        Topology::torus(2),
        Topology::torus(3),
        Topology::rect_torus(2, 3),
        Topology::torus(4),
        Topology::torus(6),
    ];
    let mut gen = ConfigGen::new(0xC1A55);
    for case in 0..40 {
        let p_sw = gen.in_range(0.05, 1.0);
        let pattern = match gen.int_in(0, 2) {
            0 => AccessPattern::geometric(p_sw),
            1 => AccessPattern::geometric_per_module(p_sw),
            _ => AccessPattern::Uniform,
        };
        let topo = tori[case % tori.len()];
        // 2×2 stays where the unreduced lattice is cheap in a debug build;
        // the first pass pins n_t = 1 so 2×3 and 3×3 get their exact check.
        let n_t = match (case < tori.len(), topo.nodes()) {
            (true, _) => 1,
            (false, 4) => gen.int_in(1, 6),
            _ => gen.int_in(1, 12),
        };
        let p_remote = if case == 0 {
            0.0
        } else {
            gen.in_range(0.0, 0.9)
        };
        let cfg = SystemConfig::paper_default()
            .with_topology(topo)
            .with_n_threads(n_t)
            .with_memory_ports(gen.int_in(1, 2))
            .with_p_remote(p_remote)
            .with_pattern(pattern)
            .with_switch_delay(gen.int_in(1, 2) as f64)
            .with_memory_latency(gen.int_in(1, 2) as f64);
        let mms = build_network(&cfg).unwrap();
        assert!(mms.is_symmetric());

        let (em, ei, eo, d_avg) = per_class_rows(&cfg);
        assert!(
            mms.em[0] == em[0] && mms.ei[0] == ei[0] && mms.eo[0] == eo[0],
            "case #{case} {cfg:?}: class 0 rows differ from the per-class build"
        );
        assert_eq!(mms.d_avg[0], d_avg[0], "case #{case} {cfg:?}: d_avg[0]");
        for (name, built, reference) in [
            ("em", &mms.em, &em),
            ("ei", &mms.ei, &ei),
            ("eo", &mms.eo, &eo),
        ] {
            for (i, (row, want)) in built.iter().zip(reference).enumerate() {
                for (j, (&x, &y)) in row.iter().zip(want).enumerate() {
                    assert!(
                        (x - y).abs() <= 1e-15 * y.abs().max(1.0),
                        "case #{case} {cfg:?}: {name}[{i}][{j}] {x} vs {y}"
                    );
                }
            }
        }
        for (i, (&x, &y)) in mms.d_avg.iter().zip(&d_avg).enumerate() {
            assert!(
                (x - y).abs() <= 1e-15 * y.abs().max(1.0),
                "case #{case} {cfg:?}: d_avg[{i}] {x} vs {y}"
            );
        }

        let sol = solve_network_in(&mms, SolverChoice::Auto, opts, None, &mut ws).unwrap();
        let rep = report(&mms, &sol);
        for ((name, x), (_, y)) in report_scalars(&rep)
            .into_iter()
            .zip(per_class_means(&mms, &sol))
        {
            assert!(
                within(x, y, 1e-12),
                "case #{case} {cfg:?}: {name} {x} vs {y}"
            );
        }
        assert_eq!(rep.u_p_per_class.len(), mms.net.n_classes());
        for (&x, &lam) in rep.u_p_per_class.iter().zip(&sol.throughput) {
            let y = lam * cfg.workload.runlength;
            assert!(
                within(x, y, 1e-12),
                "case #{case} {cfg:?}: u_p_per_class {x} vs {y}"
            );
        }

        // Orbit-reduced exact MVA against the unreduced recursion.
        if (topo.nodes() == 4 && n_t <= 6) || (topo.nodes() <= 9 && n_t == 1) {
            let reduced = solve_network_in(&mms, SolverChoice::Exact, opts, None, &mut ws).unwrap();
            let plain = exact::solve(&mms.net).unwrap();
            for (what, a, b) in [
                (
                    "throughput",
                    vec![reduced.throughput.clone()],
                    vec![plain.throughput.clone()],
                ),
                ("wait", reduced.wait.clone(), plain.wait.clone()),
                ("queue", reduced.queue.clone(), plain.queue.clone()),
            ] {
                for (i, (x, y)) in a.iter().flatten().zip(b.iter().flatten()).enumerate() {
                    assert!(
                        within(*x, *y, 1e-12),
                        "case #{case} {cfg:?}: exact {what}[{i}] {x} vs {y}"
                    );
                }
            }
        }
    }

    // No translation symmetry: every class is routed, and the report is
    // the per-class mean, bit for bit.
    for cfg in [
        SystemConfig::paper_default()
            .with_topology(Topology::mesh(3))
            .with_n_threads(3)
            .with_p_remote(0.4),
        SystemConfig::paper_default()
            .with_topology(Topology::torus(3))
            .with_pattern(AccessPattern::hot_spot(0.3))
            .with_n_threads(3)
            .with_memory_ports(2),
    ] {
        let mms = build_network(&cfg).unwrap();
        assert!(!mms.is_symmetric());
        let (em, ei, eo, d_avg) = per_class_rows(&cfg);
        assert!(
            mms.em == em && mms.ei == ei && mms.eo == eo && mms.d_avg == d_avg,
            "{cfg:?}: build left the per-class path"
        );
        let sol = solve_network_in(&mms, SolverChoice::Auto, opts, None, &mut ws).unwrap();
        let rep = report(&mms, &sol);
        for ((name, x), (_, y)) in report_scalars(&rep)
            .into_iter()
            .zip(per_class_means(&mms, &sol))
        {
            assert_eq!(x.to_bits(), y.to_bits(), "{cfg:?}: {name} {x} vs {y}");
        }
        let per_class: Vec<f64> = sol
            .throughput
            .iter()
            .map(|&x| x * cfg.workload.runlength)
            .collect();
        assert_eq!(rep.u_p_per_class, per_class, "{cfg:?}");
    }
}

/// `SolverChoice::Amva` on a torus runs Bard–Schweitzer over class 0's
/// row and expands it by translation. Cold, it reproduces the general
/// multi-class solver to rounding: the same measures within 1e-11, every
/// queue entry within 1e-11, the same iteration count, and diagnostics
/// that still say `amva`. Meshes and hot-spot patterns take the general
/// path bit for bit, and a warm chain shaped like latencyd's sweep batch
/// stays within latbench's 1e-7 band of cold general solves.
#[test]
fn class0_amva_matches_general_amva() {
    use lt_core::analysis::{solve_network_in, solve_seeded, SweepSeed};
    use lt_core::metrics::report;
    use lt_core::mva::{amva, SolverOptions};
    let opts = SolverOptions::default();
    let mut ws = SolverWorkspace::new();
    let measures = |r: &PerformanceReport| [r.u_p, r.s_obs, r.l_obs, r.lambda_net];
    let tori = [
        Topology::torus(2),
        Topology::torus(3),
        Topology::rect_torus(2, 3),
        Topology::torus(4),
        Topology::torus(6),
    ];
    let mut gen = ConfigGen::new(0xA3FA);
    for case in 0..40 {
        let p_sw = gen.in_range(0.05, 1.0);
        let pattern = match case % 3 {
            0 => AccessPattern::geometric(p_sw),
            1 => AccessPattern::geometric_per_module(p_sw),
            _ => AccessPattern::Uniform,
        };
        let p_remote = if case == 0 {
            0.0
        } else {
            gen.in_range(0.0, 0.9)
        };
        let cfg = SystemConfig::paper_default()
            .with_topology(tori[case % tori.len()])
            .with_n_threads(gen.int_in(1, 12))
            .with_memory_ports(gen.int_in(1, 2))
            .with_p_remote(p_remote)
            .with_pattern(pattern)
            .with_switch_delay(gen.in_range(0.5, 2.0))
            .with_memory_latency(gen.in_range(0.5, 2.0));
        let mms = build_network(&cfg).unwrap();
        assert!(mms.is_symmetric());
        let sol = solve_network_in(&mms, SolverChoice::Amva, opts, None, &mut ws).unwrap();
        let general = amva::solve_in(&mms.net, opts, None, &mut ws).unwrap();
        let m = mms.net.n_stations();
        assert_eq!(sol.diagnostics.solver, "amva", "case #{case} {cfg:?}");
        assert!(
            sol.diagnostics.max_residual_index.is_some_and(|i| i < m),
            "case #{case} {cfg:?}: max_residual_index {:?} outside class 0's row",
            sol.diagnostics.max_residual_index
        );
        assert_eq!(
            sol.iterations, general.iterations,
            "case #{case} {cfg:?}: iteration counts"
        );
        for (x, y) in measures(&report(&mms, &sol))
            .into_iter()
            .zip(measures(&report(&mms, &general)))
        {
            assert!(within(x, y, 1e-11), "case #{case} {cfg:?}: {x} vs {y}");
        }
        for (i, (x, y)) in sol
            .queue
            .iter()
            .flatten()
            .zip(general.queue.iter().flatten())
            .enumerate()
        {
            assert!(
                (x - y).abs() <= 1e-11,
                "case #{case} {cfg:?}: queue entry {i} {x} vs {y}"
            );
        }
    }

    for cfg in [
        SystemConfig::paper_default()
            .with_topology(Topology::mesh(3))
            .with_n_threads(3)
            .with_p_remote(0.4),
        SystemConfig::paper_default()
            .with_topology(Topology::torus(3))
            .with_pattern(AccessPattern::hot_spot(0.3))
            .with_n_threads(3)
            .with_memory_ports(2),
    ] {
        let mms = build_network(&cfg).unwrap();
        assert!(!mms.is_symmetric());
        let sol = solve_network_in(&mms, SolverChoice::Amva, opts, None, &mut ws).unwrap();
        let general = amva::solve_in(&mms.net, opts, None, &mut ws).unwrap();
        assert!(
            sol.throughput == general.throughput
                && sol.queue == general.queue
                && sol.wait == general.wait
                && sol.diagnostics.max_residual_index == general.diagnostics.max_residual_index
                && sol.iterations == general.iterations,
            "{cfg:?}: left the general path"
        );
    }

    // Two 5×10 (p_remote × n_t) sweeps over a 4×4 torus, their items
    // alternating between two seeds as two pool workers take them.
    let mut seeds = [SweepSeed::new(), SweepSeed::new()];
    let mut worker_ws = [SolverWorkspace::new(), SolverWorkspace::new()];
    let mut item = 0;
    for (s, l) in [(1.3, 1.7), (1.8, 1.2)] {
        let base = SystemConfig::paper_default()
            .with_switch_delay(s)
            .with_memory_latency(l)
            .with_pattern(AccessPattern::geometric(0.45));
        for p_remote in [0.1, 0.2, 0.3, 0.4, 0.5] {
            for n_t in 1..=10 {
                let cfg = base.with_p_remote(p_remote).with_n_threads(n_t);
                let w = item % 2;
                let warm = solve_seeded(
                    &cfg,
                    SolverChoice::Amva,
                    opts,
                    &mut seeds[w],
                    &mut worker_ws[w],
                )
                .unwrap();
                let mms = build_network(&cfg).unwrap();
                let cold = report(
                    &mms,
                    &amva::solve_in(&mms.net, opts, None, &mut ws).unwrap(),
                );
                for (x, y) in measures(&warm).into_iter().zip(measures(&cold)) {
                    assert!(within(x, y, 1e-7), "item {item} {cfg:?}: {x} vs {y}");
                }
                item += 1;
            }
        }
    }
    assert!(seeds.iter().all(|s| s.warm_hits > 0));
}

/// Adding threads never reduces utilization (closed PF networks are
/// monotone in per-class population). Pinned to one explicit solver:
/// the Auto ladder may cross an accuracy tier between n_t and n_t + 2,
/// and a tier change can step U_p by more than the monotonicity slack.
#[test]
fn u_p_monotone_in_threads() {
    for_each_config(0xD00D, 64, |cfg| {
        let less = solve_with(cfg, SolverChoice::Amva).unwrap().u_p;
        let more = solve_with(
            &cfg.with_n_threads(cfg.workload.n_threads + 2),
            SolverChoice::Amva,
        )
        .unwrap()
        .u_p;
        assert!(more >= less - 1e-6, "n_t+2 dropped U_p: {less} -> {more}");
    });
}

/// Station utilizations are bounded by 1.
#[test]
fn station_utilizations_bounded() {
    for_each_config(0xE66, 64, |cfg| {
        let mms = build_network(cfg).unwrap();
        let sol = solve_network(&mms, SolverChoice::Auto).unwrap();
        for m in 0..mms.net.n_stations() {
            let u = sol.utilization(&mms.net, m);
            assert!(u <= 1.0 + 1e-6, "station {m} utilization {u}");
        }
    });
}

/// The bottleneck bound really bounds the solved utilization.
#[test]
fn bottleneck_bound_holds() {
    for_each_config(0xF00, 64, |cfg| {
        let bound = lt_core::bottleneck::analyze(cfg).unwrap().u_p_upper_bound;
        let u_p = solve(cfg).unwrap().u_p;
        assert!(u_p <= bound + 1e-6, "U_p {u_p} exceeds bound {bound}");
    });
}

/// Visit-ratio structure: memory visits sum to 1, switch visits follow
/// the distance identity (Section 4.2 of DESIGN.md).
#[test]
fn visit_ratio_identities() {
    for_each_config(0x1234, 64, |cfg| {
        let mms = build_network(cfg).unwrap();
        for i in 0..cfg.nodes() {
            let em: f64 = mms.em[i].iter().sum();
            assert!((em - 1.0).abs() < 1e-9);
            let eo: f64 = mms.eo[i].iter().sum();
            assert!((eo - 2.0 * cfg.workload.p_remote).abs() < 1e-9);
            let ei: f64 = mms.ei[i].iter().sum();
            assert!((ei - 2.0 * cfg.workload.p_remote * mms.d_avg[i]).abs() < 1e-9);
        }
    });
}

/// Tolerance of an already-ideal subsystem is exactly 1, and zones
/// classify consistently.
#[test]
fn tolerance_fixed_point() {
    for_each_config(0x5678, 64, |cfg| {
        let ideal = IdealSpec::ZeroSwitchDelay.ideal_config(cfg);
        let t = tolerance_index(&ideal, IdealSpec::ZeroSwitchDelay).unwrap();
        assert!((t.index - 1.0).abs() < 1e-9);
        assert_eq!(t.zone, ToleranceZone::Tolerated);
    });
}

/// Exact MVA vs AMVA on tiny instances: within the approximation's
/// known few-percent band.
#[test]
fn amva_tracks_exact_on_small_instances() {
    let mut gen = ConfigGen::new(0x9999);
    for _ in 0..16 {
        let cfg = SystemConfig::paper_default()
            .with_topology(Topology::torus(2))
            .with_n_threads(gen.int_in(1, 3))
            .with_p_remote(gen.in_range(0.0, 1.0))
            .with_runlength(gen.in_range(0.5, 4.0));
        let exact = solve_with(&cfg, SolverChoice::Exact).unwrap().u_p;
        let amva = solve_with(&cfg, SolverChoice::Amva).unwrap().u_p;
        assert!(
            (amva - exact).abs() / exact < 0.08,
            "{cfg:?}: exact {exact} vs amva {amva}"
        );
    }
}

/// The degradation ladder's last rung is honest: on small instances the
/// M/M/S isolation bounds bracket the exact solution, and the bounds
/// report ([`lt_core::analysis::bounds_report`] — what a fully degraded
/// solve answers with) sits inside that bracket, tagged `bounds`.
#[test]
fn bounds_fallback_brackets_exact_utilization() {
    use lt_core::analysis::bounds_report;
    use lt_core::bounds::mms_isolation_bounds;
    use lt_core::metrics::Fidelity;
    let mut gen = ConfigGen::new(0xB0D5);
    for case in 0..24 {
        let cfg = SystemConfig::paper_default()
            .with_topology(Topology::torus(2))
            .with_n_threads(gen.int_in(1, 4))
            .with_p_remote(gen.in_range(0.0, 1.0))
            .with_runlength(gen.in_range(0.5, 4.0));
        let exact = solve_with(&cfg, SolverChoice::Exact).unwrap().u_p;
        let b = mms_isolation_bounds(&cfg).unwrap();
        assert!(
            b.lower - 1e-9 <= exact && exact <= b.upper + 1e-9,
            "case #{case} {cfg:?}: exact U_p {exact} escapes bracket [{}, {}]",
            b.lower,
            b.upper
        );
        let rep = bounds_report(&cfg).unwrap();
        assert_eq!(rep.fidelity, Fidelity::Bounds, "case #{case}");
        assert!(
            rep.u_p >= b.lower - 1e-9 && rep.u_p <= b.upper.min(1.0) + 1e-9,
            "case #{case} {cfg:?}: bounds answer {} outside its own bracket",
            rep.u_p
        );
        assert!(rep.u_p > 0.0 && rep.u_p <= 1.0 + 1e-9, "case #{case}");
    }
}

/// Hot-spot patterns (asymmetric) still satisfy the global invariants
/// through the general solver path.
#[test]
fn hotspot_configs_are_sane() {
    let mut gen = ConfigGen::new(0xABCD);
    for _ in 0..16 {
        let p_hot = gen.in_range(0.0, 1.0);
        let cfg = SystemConfig::paper_default()
            .with_pattern(AccessPattern::hot_spot(p_hot))
            .with_p_remote(gen.in_range(0.05, 0.9))
            .with_n_threads(gen.int_in(1, 8));
        let mms = build_network(&cfg).unwrap();
        let sol = solve_network(&mms, SolverChoice::Auto).unwrap();
        assert!(sol.population_residual(&mms.net) < 1e-6, "{cfg:?}");
        let rep = lt_core::metrics::report(&mms, &sol);
        assert!(rep.u_p > 0.0 && rep.u_p <= 1.0 + 1e-9, "{cfg:?}");
        // The hot memory is the most utilized memory module.
        if p_hot > 0.2 {
            let hot_util = sol.utilization(&mms.net, mms.idx.mem(0));
            for j in 1..cfg.nodes() {
                assert!(
                    hot_util >= sol.utilization(&mms.net, mms.idx.mem(j)) - 1e-9,
                    "{cfg:?}"
                );
            }
        }
    }
}

/// Flatten a solution's class-by-station queue matrix into the layout
/// the solvers accept as a warm start.
fn flatten_queue(sol: &lt_core::mva::MvaSolution) -> Vec<f64> {
    sol.queue.iter().flatten().copied().collect()
}

/// Warm starts are hints, not correctness inputs: seeding any iterative
/// solver with a *neighboring* configuration's solution (one more thread
/// per processor) must reproduce the cold answer within solver tolerance,
/// across randomized `n_t`, `R`, `L`, `S`, and `p_remote`.
#[test]
fn warm_start_agrees_with_cold_for_every_solver() {
    use lt_core::mva::{amva, linearizer, symmetric, SolverOptions};
    for_each_config(0x5EED, 32, |cfg| {
        let mms = build_network(cfg).unwrap();
        let neighbor = build_network(&cfg.with_n_threads(cfg.workload.n_threads + 1)).unwrap();
        let opts = SolverOptions::default();
        let mut ws = SolverWorkspace::new();

        let amva_seed = flatten_queue(&amva::solve_in(&neighbor.net, opts, None, &mut ws).unwrap());
        let cold = amva::solve_in(&mms.net, opts, None, &mut ws).unwrap();
        let warm = amva::solve_in(&mms.net, opts, Some(&amva_seed), &mut ws).unwrap();
        for (x, y) in cold.throughput.iter().zip(&warm.throughput) {
            assert!((x - y).abs() < 1e-6, "amva: cold {x} vs warm {y}");
        }

        let cold = linearizer::solve_in(&mms.net, opts, None, &mut ws).unwrap();
        let warm = linearizer::solve_in(&mms.net, opts, Some(&amva_seed), &mut ws).unwrap();
        for (x, y) in cold.throughput.iter().zip(&warm.throughput) {
            assert!((x - y).abs() < 1e-6, "linearizer: cold {x} vs warm {y}");
        }

        let sym_seed = flatten_queue(&symmetric::solve_in(&neighbor, opts, None, &mut ws).unwrap());
        let cold = symmetric::solve_in(&mms, opts, None, &mut ws).unwrap();
        let warm = symmetric::solve_in(&mms, opts, Some(&sym_seed), &mut ws).unwrap();
        for (x, y) in cold.throughput.iter().zip(&warm.throughput) {
            assert!((x - y).abs() < 1e-6, "symmetric: cold {x} vs warm {y}");
        }

        // A nonsense guess (wrong length, negative, non-finite) is
        // ignored, never an error or a different answer.
        for bad in [
            vec![1.0; 3],
            vec![-1.0; mms.net.n_classes() * mms.net.n_stations()],
            vec![f64::NAN; mms.net.n_classes() * mms.net.n_stations()],
        ] {
            let sol = amva::solve_in(&mms.net, opts, Some(&bad), &mut ws).unwrap();
            for (x, y) in cold.throughput.iter().zip(&sol.throughput) {
                assert!((x - y).abs() < 1e-6, "bad warm hint changed the answer");
            }
        }
    });
}

/// One [`SolverWorkspace`] reused across dissimilar model shapes and
/// solvers never panics, never leaks state between solves (answers are
/// bitwise identical to fresh-workspace solves), and stops allocating
/// once it has seen every shape.
#[test]
fn workspace_reuse_across_shapes_is_clean() {
    use lt_core::analysis::solve_network_in;
    use lt_core::mva::{amva, linearizer, symmetric, SolverOptions};
    let mut gen = ConfigGen::new(0xCAFE);
    // Dissimilar shapes: station count and populations both vary, and the
    // torus shapes include rectangular and two-port ones.
    let mut shapes: Vec<SystemConfig> = (0..10).map(|_| gen.next()).collect();
    shapes.push(
        SystemConfig::paper_default()
            .with_topology(Topology::rect_torus(2, 3))
            .with_memory_ports(2)
            .with_n_threads(3),
    );
    shapes.push(SystemConfig::paper_default().with_memory_ports(2));
    // Exact MVA keeps its orbit index and lattice table in the workspace:
    // two 2×2 lattices of different size and a 2×3 torus.
    let exact_shapes = [
        SystemConfig::paper_default()
            .with_topology(Topology::torus(2))
            .with_n_threads(3),
        SystemConfig::paper_default()
            .with_topology(Topology::torus(2))
            .with_n_threads(6)
            .with_memory_ports(2),
        SystemConfig::paper_default()
            .with_topology(Topology::rect_torus(2, 3))
            .with_n_threads(2),
    ];
    let opts = SolverOptions::default();
    let mut shared = SolverWorkspace::new();

    let check_pass = |shared: &mut SolverWorkspace| {
        for cfg in &shapes {
            let mms = build_network(cfg).unwrap();
            let a = amva::solve_in(&mms.net, opts, None, shared).unwrap();
            let b = amva::solve_in(&mms.net, opts, None, &mut SolverWorkspace::new()).unwrap();
            assert_eq!(a.throughput, b.throughput, "amva leaked state: {cfg:?}");
            let a = linearizer::solve_in(&mms.net, opts, None, shared).unwrap();
            let b =
                linearizer::solve_in(&mms.net, opts, None, &mut SolverWorkspace::new()).unwrap();
            assert_eq!(a.throughput, b.throughput, "linearizer leaked: {cfg:?}");
            let a = symmetric::solve_in(&mms, opts, None, shared).unwrap();
            let b = symmetric::solve_in(&mms, opts, None, &mut SolverWorkspace::new()).unwrap();
            assert_eq!(a.throughput, b.throughput, "symmetric leaked: {cfg:?}");
            // The translation-symmetric paths of the Linearizer and AMVA,
            // as latencyd runs them on pooled workspaces.
            for choice in [SolverChoice::Linearizer, SolverChoice::Amva] {
                let a = solve_network_in(&mms, choice, opts, None, shared).unwrap();
                let b = solve_network_in(&mms, choice, opts, None, &mut SolverWorkspace::new())
                    .unwrap();
                assert!(
                    a.throughput == b.throughput && a.queue == b.queue && a.wait == b.wait,
                    "symmetric {choice:?} leaked: {cfg:?}"
                );
            }
        }
        for cfg in &exact_shapes {
            let mms = build_network(cfg).unwrap();
            let ex = SolverChoice::Exact;
            let a = solve_network_in(&mms, ex, opts, None, shared).unwrap();
            let b = solve_network_in(&mms, ex, opts, None, &mut SolverWorkspace::new()).unwrap();
            assert!(
                a.throughput == b.throughput && a.queue == b.queue && a.wait == b.wait,
                "exact leaked: {cfg:?}"
            );
        }
    };

    check_pass(&mut shared);
    let after_first = shared.allocations();
    assert!(after_first > 0, "first pass must have grown the workspace");
    check_pass(&mut shared);
    assert_eq!(
        shared.allocations(),
        after_first,
        "revisiting known shapes must not allocate"
    );
}

/// The Petri-net engine conserves tokens for arbitrary closed MMS
/// configurations (short run).
#[test]
fn stpn_conserves_threads() {
    use lt_stpn::mms::{simulate, SimSettings};
    let mut gen = ConfigGen::new(0xFEED);
    for _ in 0..16 {
        let p_remote = gen.in_range(0.0, 1.0);
        let cfg = SystemConfig::paper_default()
            .with_topology(Topology::torus(2))
            .with_n_threads(gen.int_in(1, 6))
            .with_p_remote(p_remote);
        let seed = gen.int_in(0, 1000) as u64;
        // The run completing without panic exercises every internal
        // conservation assert; λ identities double-check the accounting.
        let res = simulate(
            &cfg,
            &SimSettings {
                horizon: 2_000.0,
                warmup: 200.0,
                batches: 2,
                seed,
                ..SimSettings::default()
            },
        );
        assert!(res.u_p.mean > 0.0 && res.u_p.mean <= 1.0 + 1e-9, "{cfg:?}");
        assert!(
            (res.lambda_net.mean - p_remote * res.lambda_proc.mean).abs()
                < 0.15 * res.lambda_proc.mean.max(1e-6) + 1e-6,
            "{cfg:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Cluster partition-tolerance invariants (ring replica sets, link-fault
// determinism). These exercise lt-service's pure pieces — no sockets.

#[test]
fn replica_sets_are_distinct_live_nodes_of_the_requested_size() {
    use lt_service::cluster::ring::HashRing;

    let mut gen = ConfigGen::new(0xEC0);
    for nodes in 1..=7usize {
        let ids: Vec<String> = (0..nodes).map(|i| format!("node-{i}")).collect();
        let ring = HashRing::build(&ids);
        for _ in 0..40 {
            let cfg = gen.next();
            let key = lt_core::wire::canonical_solve_key(&cfg, SolverChoice::Auto);
            for r in 1..=4usize {
                let set = ring.replicas_of(&key, r);
                assert_eq!(set.len(), r.min(nodes), "nodes={nodes} r={r} key={key}");
                let mut dedup = set.clone();
                dedup.sort_unstable();
                dedup.dedup();
                assert_eq!(dedup.len(), set.len(), "duplicate replica: {set:?}");
                assert!(set.iter().all(|n| ids.iter().any(|id| id == n)));
                assert_eq!(Some(set[0]), ring.owner_of(&key), "owner leads the set");
            }
        }
    }
}

#[test]
fn replica_sets_are_stable_under_single_node_departure() {
    use lt_service::cluster::ring::HashRing;

    // Consistent hashing's contract, lifted to replica sets: removing
    // one node must not disturb any replica set that did not contain
    // it. (Those that did lose only the departed member's slot.)
    let ids: Vec<String> = (0..6).map(|i| format!("node-{i}")).collect();
    let full = HashRing::build(&ids);
    let departed = "node-3";
    let survivors: Vec<String> = ids.iter().filter(|id| *id != departed).cloned().collect();
    let shrunk = HashRing::build(&survivors);

    let mut gen = ConfigGen::new(0xDEA);
    let mut unaffected = 0usize;
    for _ in 0..120 {
        let cfg = gen.next();
        let key = lt_core::wire::canonical_solve_key(&cfg, SolverChoice::Auto);
        let before = full.replicas_of(&key, 3);
        let after = shrunk.replicas_of(&key, 3);
        if before.iter().all(|n| *n != departed) {
            assert_eq!(before, after, "set without the departed node moved: {key}");
            unaffected += 1;
        } else {
            // The surviving members keep their relative order.
            let kept: Vec<&&str> = before.iter().filter(|n| **n != departed).collect();
            assert!(
                kept.iter().zip(&after).all(|(b, a)| **b == *a),
                "survivors reshuffled: {before:?} -> {after:?}"
            );
        }
    }
    assert!(unaffected > 0, "the sample never missed node-3; widen it");
}

#[test]
fn link_fault_schedules_are_a_pure_function_of_the_seed() {
    use lt_service::{ChaosNet, LinkDecision, LinkFaultSpec};
    use std::time::Duration;

    let spec = |seed: u64| LinkFaultSpec {
        seed,
        drop_prob: 0.2,
        delay_prob: 0.2,
        delay: Duration::from_millis(7),
        duplicate_prob: 0.2,
    };
    let links = [("a", "b"), ("b", "a"), ("a", "c"), ("c", "b")];
    let draw = |net: &ChaosNet| -> Vec<LinkDecision> {
        // Interleave links to prove per-link streams are independent of
        // global draw order (each link keeps its own message counter).
        (0..64)
            .flat_map(|_| links.iter().map(|(s, d)| net.decide(s, d)))
            .collect()
    };

    let first = draw(&ChaosNet::new(spec(42)));
    let second = draw(&ChaosNet::new(spec(42)));
    assert_eq!(first, second, "same seed must replay bitwise-identically");
    assert!(
        first.iter().any(|d| *d != LinkDecision::Deliver),
        "the sampled schedule never fired a fault; probabilities too low"
    );

    let other = draw(&ChaosNet::new(spec(43)));
    assert_ne!(
        first, other,
        "different seeds must give different schedules"
    );

    // And the schedule of one link is untouched by traffic on others:
    // drawing a->b alone matches the a->b subsequence drawn interleaved.
    let solo = ChaosNet::new(spec(42));
    let alone: Vec<LinkDecision> = (0..64).map(|_| solo.decide("a", "b")).collect();
    let interleaved: Vec<LinkDecision> = first.chunks(links.len()).map(|round| round[0]).collect();
    assert_eq!(alone, interleaved);
}
