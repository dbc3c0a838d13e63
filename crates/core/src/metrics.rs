//! Derived performance measures (paper Section 2, Equations 1–3).
//!
//! All figures in the paper are stated for one (representative) processor of
//! the SPMD system; [`PerformanceReport`] therefore carries the per-class
//! mean. On a symmetric network ([`MmsNetwork::is_symmetric`]: a torus with
//! a translation-invariant pattern) every class is a translation of class
//! 0, so [`report`] reads class 0's row once and it stands for every class,
//! as in the paper. On the mesh and hot-spot extensions the same loops walk
//! every class, the mean is over genuinely different classes, and the
//! per-class vector is exposed too.

use crate::mva::{MvaSolution, SolverDiagnostics};
use crate::qn::build::MmsNetwork;

/// How trustworthy a [`PerformanceReport`] is — which rung of the
/// degradation ladder produced it (see [`crate::analysis::solve_degraded`]).
///
/// Serving layers use this to distinguish a full-fidelity answer from a
/// fallback produced under failure or load shedding; the wire format and
/// the solution-cache key carry the label so a degraded answer can never
/// masquerade as (or be cached as) an exact one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fidelity {
    /// Exact MVA solved the requested model: no approximation error.
    Exact,
    /// A convergent approximate solver (AMVA / Linearizer / symmetric)
    /// solved the requested model. This is the normal full-fidelity
    /// answer for systems past the exact-MVA budget.
    #[default]
    Approximate,
    /// Only an asymptotic/bottleneck bounds estimate was produced: the
    /// scalar measures are the midpoint of a guaranteed bracket, not a
    /// solved model.
    Bounds,
    /// The requested solver failed and a weaker rung of the ladder
    /// answered instead: a real solution, but not of the solver asked for.
    Degraded,
}

impl Fidelity {
    /// Stable wire label (`exact | approximate | bounds | degraded`).
    pub fn label(self) -> &'static str {
        match self {
            Fidelity::Exact => "exact",
            Fidelity::Approximate => "approximate",
            Fidelity::Bounds => "bounds",
            Fidelity::Degraded => "degraded",
        }
    }

    /// Parse a wire label back into a fidelity.
    pub fn from_label(s: &str) -> Option<Fidelity> {
        match s {
            "exact" => Some(Fidelity::Exact),
            "approximate" => Some(Fidelity::Approximate),
            "bounds" => Some(Fidelity::Bounds),
            "degraded" => Some(Fidelity::Degraded),
            _ => None,
        }
    }

    /// Whether this is a full-fidelity answer to the requested solve
    /// (exact or a converged approximation), as opposed to a fallback.
    pub fn is_full(self) -> bool {
        matches!(self, Fidelity::Exact | Fidelity::Approximate)
    }

    /// All fidelities, in ladder order (highest first).
    pub const ALL: [Fidelity; 4] = [
        Fidelity::Exact,
        Fidelity::Approximate,
        Fidelity::Bounds,
        Fidelity::Degraded,
    ];
}

/// Mean utilization of each subsystem kind (fraction of time busy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubsystemUtilization {
    /// Processors (includes context-switch overhead when `C > 0`).
    pub processor: f64,
    /// Memory modules (queueing part only, under multi-port memory).
    pub memory: f64,
    /// Inbound switches.
    pub in_switch: f64,
    /// Outbound switches.
    pub out_switch: f64,
}

/// The paper's performance measures for one model solution.
#[derive(Debug, Clone, PartialEq)]
pub struct PerformanceReport {
    /// Processor utilization `U_p = λ_i · R` (Equation 3) — useful work
    /// only; context-switch time is excluded.
    pub u_p: f64,
    /// Rate `λ_i` at which a processor issues memory accesses
    /// (thread-cycle completions per time unit).
    pub lambda_proc: f64,
    /// Message rate to the network `λ_net = λ_i · p_remote` (Equation 2).
    pub lambda_net: f64,
    /// Observed one-way network latency per **remote** access: round-trip
    /// switch residence divided by 2. Unloaded limit `(d_avg + 1) · S`.
    /// Zero when `p_remote = 0`.
    pub s_obs: f64,
    /// Observed memory latency `L_obs` per access (local and remote mixed
    /// with their probabilities), queueing included.
    pub l_obs: f64,
    /// Observed memory latency of *local* accesses only.
    pub l_obs_local: f64,
    /// Observed memory latency of *remote* accesses only (0 when
    /// `p_remote = 0`).
    pub l_obs_remote: f64,
    /// The literal Equation 1 quantity: total switch residence accumulated
    /// per thread cycle, `Σ_j (w_in·ei + w_out·eo)` — i.e. the round trip
    /// weighted by `p_remote`.
    pub network_time_per_cycle: f64,
    /// Average remote-access hop distance.
    pub d_avg: f64,
    /// Aggregate system throughput `Σ_i U_p,i` (the paper's `P · U_p` for
    /// symmetric systems; plotted in Figure 10a).
    pub system_throughput: f64,
    /// Mean subsystem utilizations.
    pub utilization: SubsystemUtilization,
    /// `U_p` for every class (all equal on a torus).
    pub u_p_per_class: Vec<f64>,
    /// Solver iterations (0 for exact MVA). Mirrors
    /// `diagnostics.iterations`.
    pub iterations: usize,
    /// How the solve behaved: which solver ran, residual/damping traces,
    /// wall time, extrapolation count.
    pub diagnostics: SolverDiagnostics,
    /// Which rung of the degradation ladder produced this report.
    pub fidelity: Fidelity,
}

/// Extract the paper's measures from a solved MMS network.
///
/// Walks class 0 alone on a symmetric network and every class otherwise;
/// see the module docs. `u_p_per_class` has one entry per class either way.
pub fn report(mms: &MmsNetwork, sol: &MvaSolution) -> PerformanceReport {
    let p = mms.idx.p;
    let classes = mms.net.n_classes();
    let walked = if mms.is_symmetric() { 1 } else { classes };
    let r = mms.cfg.workload.runlength;
    let p_remote = mms.cfg.workload.p_remote;

    let mut lambda_sum = 0.0;
    let mut l_obs_sum = 0.0;
    let mut l_local_sum = 0.0;
    let mut l_remote_sum = 0.0;
    let mut net_cycle_sum = 0.0;
    let mut d_avg_sum = 0.0;
    for i in 0..walked {
        let lam = sol.throughput[i];
        lambda_sum += lam;
        let mut l_obs = 0.0;
        let mut l_remote = 0.0;
        for j in 0..p {
            let em = mms.em[i][j];
            if em > 0.0 {
                let mut w = sol.wait[i][mms.idx.mem(j)];
                if mms.idx.has_memory_delay {
                    w += sol.wait[i][mms.idx.mem_delay(j)];
                }
                l_obs += w * em;
                if j == i {
                    l_local_sum += w;
                } else {
                    l_remote += w * em;
                }
            }
        }
        if p_remote > 0.0 {
            l_remote_sum += l_remote / p_remote;
        }
        l_obs_sum += l_obs;
        let mut net_cycle = 0.0;
        for j in 0..p {
            if mms.ei[i][j] > 0.0 {
                net_cycle += sol.wait[i][mms.idx.insw(j)] * mms.ei[i][j];
            }
            if mms.eo[i][j] > 0.0 {
                net_cycle += sol.wait[i][mms.idx.outsw(j)] * mms.eo[i][j];
            }
        }
        net_cycle_sum += net_cycle;
        d_avg_sum += mms.d_avg[i];
    }
    // Class 0's value repeated on a symmetric network.
    let u_p_per_class: Vec<f64> = (0..classes)
        .map(|i| sol.throughput[i % walked] * r)
        .collect();

    let cf = walked as f64;
    let lambda_proc = lambda_sum / cf;
    let network_time_per_cycle = net_cycle_sum / cf;
    let s_obs = if p_remote > 0.0 {
        network_time_per_cycle / (2.0 * p_remote)
    } else {
        0.0
    };

    // Subsystem utilizations, averaged over nodes: the walked classes'
    // load on every node of a kind, divided by the number walked. With
    // every class walked that is the mean over the `P = C` nodes; with
    // class 0 alone it is class 0's load on the whole kind, which by
    // symmetry equals the load of all classes on any one node.
    let station = |st: usize| -> f64 {
        let s = mms.net.stations[st].service;
        sol.throughput[..walked]
            .iter()
            .enumerate()
            .map(|(i, &lam)| lam * mms.net.visits[i][st] * s)
            .sum()
    };
    let mut util = SubsystemUtilization {
        processor: 0.0,
        memory: 0.0,
        in_switch: 0.0,
        out_switch: 0.0,
    };
    for j in 0..p {
        util.processor += station(mms.idx.proc(j));
        util.memory += station(mms.idx.mem(j));
        util.in_switch += station(mms.idx.insw(j));
        util.out_switch += station(mms.idx.outsw(j));
    }
    util.processor /= cf;
    util.memory /= cf;
    util.in_switch /= cf;
    util.out_switch /= cf;

    PerformanceReport {
        u_p: lambda_proc * r,
        lambda_proc,
        lambda_net: lambda_proc * p_remote,
        s_obs,
        l_obs: l_obs_sum / cf,
        l_obs_local: l_local_sum / cf,
        l_obs_remote: l_remote_sum / cf,
        network_time_per_cycle,
        d_avg: d_avg_sum / cf,
        system_throughput: u_p_per_class.iter().sum(),
        utilization: util,
        u_p_per_class,
        iterations: sol.iterations,
        fidelity: if sol.diagnostics.solver == "exact-mva" {
            Fidelity::Exact
        } else {
            Fidelity::Approximate
        },
        diagnostics: sol.diagnostics.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mva::symmetric;
    use crate::params::SystemConfig;
    use crate::qn::build::build_network;

    fn solve_report(cfg: &SystemConfig) -> PerformanceReport {
        let mms = build_network(cfg).unwrap();
        let sol = symmetric::solve(&mms).unwrap();
        report(&mms, &sol)
    }

    #[test]
    fn u_p_is_bounded_and_positive() {
        let rep = solve_report(&SystemConfig::paper_default());
        assert!(rep.u_p > 0.0 && rep.u_p <= 1.0 + 1e-9, "U_p = {}", rep.u_p);
        assert!((rep.u_p - rep.lambda_proc * 1.0).abs() < 1e-12);
    }

    #[test]
    fn lambda_net_is_p_remote_fraction() {
        let cfg = SystemConfig::paper_default();
        let rep = solve_report(&cfg);
        assert!((rep.lambda_net - rep.lambda_proc * 0.2).abs() < 1e-12);
    }

    #[test]
    fn s_obs_approaches_unloaded_latency_with_one_thread_low_traffic() {
        // A single thread and nearly-zero remote probability: switch queues
        // are empty, so S_obs -> (d_avg + 1) * S.
        let cfg = SystemConfig::paper_default()
            .with_n_threads(1)
            .with_p_remote(1e-6);
        let rep = solve_report(&cfg);
        let unloaded = (rep.d_avg + 1.0) * 1.0;
        assert!(
            (rep.s_obs - unloaded).abs() < 1e-3,
            "S_obs {} vs unloaded {unloaded}",
            rep.s_obs
        );
    }

    #[test]
    fn l_obs_approaches_memory_latency_when_idle() {
        let cfg = SystemConfig::paper_default()
            .with_n_threads(1)
            .with_p_remote(0.0)
            .with_runlength(1e6);
        let rep = solve_report(&cfg);
        assert!((rep.l_obs - 1.0).abs() < 1e-3, "L_obs = {}", rep.l_obs);
    }

    #[test]
    fn l_obs_splits_recombine() {
        // L_obs = (1 - p) * L_local + p * L_remote.
        let cfg = SystemConfig::paper_default().with_p_remote(0.4);
        let rep = solve_report(&cfg);
        let mix = 0.6 * rep.l_obs_local + 0.4 * rep.l_obs_remote;
        assert!((rep.l_obs - mix).abs() < 1e-9, "{} vs {}", rep.l_obs, mix);
        assert!(rep.l_obs_remote > 0.0);
    }

    #[test]
    fn zero_remote_has_no_network_terms() {
        let rep = solve_report(&SystemConfig::paper_default().with_p_remote(0.0));
        assert_eq!(rep.s_obs, 0.0);
        assert_eq!(rep.network_time_per_cycle, 0.0);
        assert_eq!(rep.lambda_net, 0.0);
        assert_eq!(rep.utilization.in_switch, 0.0);
    }

    #[test]
    fn system_throughput_is_p_times_u_p_on_torus() {
        let cfg = SystemConfig::paper_default();
        let rep = solve_report(&cfg);
        assert!((rep.system_throughput - 16.0 * rep.u_p).abs() < 1e-6);
    }

    #[test]
    fn utilizations_are_fractions() {
        let rep = solve_report(&SystemConfig::paper_default().with_p_remote(0.8));
        for u in [
            rep.utilization.processor,
            rep.utilization.memory,
            rep.utilization.in_switch,
            rep.utilization.out_switch,
        ] {
            assert!((0.0..=1.0 + 1e-9).contains(&u), "utilization {u}");
        }
    }

    #[test]
    fn more_threads_never_hurt_u_p() {
        let cfg = SystemConfig::paper_default();
        let mut prev = 0.0;
        for n_t in [1, 2, 4, 8, 16] {
            let rep = solve_report(&cfg.with_n_threads(n_t));
            assert!(rep.u_p >= prev - 1e-9, "U_p must be monotone in n_t");
            prev = rep.u_p;
        }
    }

    #[test]
    fn fidelity_labels_round_trip() {
        for f in Fidelity::ALL {
            assert_eq!(Fidelity::from_label(f.label()), Some(f));
        }
        assert_eq!(Fidelity::from_label("bogus"), None);
        assert!(Fidelity::Exact.is_full() && Fidelity::Approximate.is_full());
        assert!(!Fidelity::Bounds.is_full() && !Fidelity::Degraded.is_full());
    }

    #[test]
    fn report_fidelity_follows_the_solver() {
        let rep = solve_report(&SystemConfig::paper_default());
        assert_eq!(rep.fidelity, Fidelity::Approximate, "symmetric AMVA");
    }

    #[test]
    fn s_obs_grows_with_threads_below_saturation() {
        // Paper: "a linear increase in S_obs occurs with n_t".
        let cfg = SystemConfig::paper_default().with_p_remote(0.4);
        let s4 = solve_report(&cfg.with_n_threads(4)).s_obs;
        let s12 = solve_report(&cfg.with_n_threads(12)).s_obs;
        assert!(s12 > s4);
    }
}
