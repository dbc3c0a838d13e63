//! Mean Value Analysis solvers for multi-class closed queueing networks.
//!
//! * [`exact`] — the exact multi-class MVA recursion over the population
//!   lattice. Cost grows as `∏(N_i + 1)`, so it is only practical for small
//!   systems (the paper makes the same point with its 63,504-state
//!   example); the Auto ladder runs it as rung 0 when the lattice is small.
//! * [`convolution`] — Buzen's normalization-constant algorithm
//!   (single class), an independent exact solver cross-checking the MVA
//!   recursion.
//! * [`load_dependent`] — exact single-class MVA with queue-dependent
//!   rates (true `M/M/c` memory modules), quantifying the Seidmann
//!   approximation exactly.
//! * [`amva`] — the Bard–Schweitzer approximate MVA, the algorithm of the
//!   paper's Figure 3. This is the workhorse solver.
//! * [`linearizer`] — the Chandy–Neuse Linearizer, a higher-order
//!   approximation: Auto rung 1 for medium systems (the paper's 4×4 torus)
//!   and the last-resort rung 4. On tori it solves one reduced network per
//!   outer sweep and derives the rest by translation.
//! * [`symmetric`] — an `O(M)`-per-iteration specialization of
//!   Bard–Schweitzer exploiting the SPMD translation symmetry of the MMS on
//!   a torus.
//! * [`priority`] — a shadow-server heuristic for the EM-4-style
//!   local-priority memory extension (Section 7 discussion).
//!
//! All solvers return an [`MvaSolution`].

pub mod amva;
pub mod convolution;
pub mod exact;
pub mod fixed_point;
pub mod linearizer;
pub mod load_dependent;
pub mod priority;
pub mod symmetric;
pub mod workspace;

pub use fixed_point::SolverDiagnostics;
pub use workspace::SolverWorkspace;

use crate::qn::ClosedNetwork;

/// Convergence controls for the iterative solvers (consumed by the shared
/// damped fixed-point driver in [`fixed_point`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverOptions {
    /// Fixed-point tolerance on the max-norm of queue-length changes.
    pub tolerance: f64,
    /// Iteration budget before giving up with
    /// [`crate::LtError::NoConvergence`].
    pub max_iterations: usize,
    /// Initial under-relaxation factor `α` (`x ← x + α·(G(x) − x)`);
    /// 1 is the undamped Jacobi step.
    pub damping_initial: f64,
    /// Floor for the adaptive damping factor. Oscillation detection halves
    /// `α` down to (at most) this value.
    pub damping_min: f64,
    /// Enable geometric (Aitken-style) extrapolation when the residual
    /// decays at a stable ratio.
    pub extrapolation: bool,
    /// Maximum number of per-iteration entries kept in the residual and
    /// damping traces of [`SolverDiagnostics`] (and in
    /// [`crate::LtError::NoConvergence`] on failure).
    pub trace_cap: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            tolerance: 1e-10,
            max_iterations: 100_000,
            damping_initial: 1.0,
            damping_min: 0.02,
            extrapolation: true,
            trace_cap: 64,
        }
    }
}

impl SolverOptions {
    /// A more conservative variant used by the Auto escalation ladder when
    /// a solve fails: start half-damped, allow heavier damping, and double
    /// the iteration budget.
    pub fn tightened(&self) -> Self {
        SolverOptions {
            damping_initial: (self.damping_initial * 0.25).max(self.damping_min),
            damping_min: (self.damping_min * 0.25).max(1e-4),
            max_iterations: self.max_iterations.saturating_mul(2),
            ..*self
        }
    }
}

/// The solution of a closed queueing network.
#[derive(Debug, Clone, PartialEq)]
pub struct MvaSolution {
    /// `throughput[i]`: class-`i` cycle rate at its reference station
    /// (visits with ratio 1 per unit time).
    pub throughput: Vec<f64>,
    /// `wait[i][m]`: mean residence time (queueing + service) of a class-`i`
    /// customer per visit to station `m`.
    pub wait: Vec<Vec<f64>>,
    /// `queue[i][m]`: mean number of class-`i` customers at station `m`.
    pub queue: Vec<Vec<f64>>,
    /// Iterations used (0 for the exact solver). Mirrors
    /// `diagnostics.iterations`.
    pub iterations: usize,
    /// How the solve behaved: residual/damping traces, wall time, the
    /// hardest-to-converge station.
    pub diagnostics: SolverDiagnostics,
}

impl MvaSolution {
    /// Total mean queue length at station `m` over all classes.
    pub fn total_queue(&self, m: usize) -> f64 {
        self.queue.iter().map(|row| row[m]).sum()
    }

    /// Mean cycle time of class `i` (time between reference-station visits):
    /// `N_i / λ_i`.
    pub fn cycle_time(&self, net: &ClosedNetwork, class: usize) -> f64 {
        net.populations[class] as f64 / self.throughput[class]
    }

    /// Utilization of station `m`: `Σ_i λ_i · e_{i,m} · s_m`.
    pub fn utilization(&self, net: &ClosedNetwork, m: usize) -> f64 {
        let s = net.stations[m].service;
        self.throughput
            .iter()
            .enumerate()
            .map(|(i, &lam)| lam * net.visits[i][m] * s)
            .sum()
    }

    /// Sanity invariant: per-class queue lengths sum to the population.
    /// Returns the largest violation over classes (useful in tests).
    pub fn population_residual(&self, net: &ClosedNetwork) -> f64 {
        let mut worst: f64 = 0.0;
        for (i, &n) in net.populations.iter().enumerate() {
            let total: f64 = self.queue[i].iter().sum();
            worst = worst.max((total - n as f64).abs());
        }
        worst
    }
}

/// Initial queue-length guess shared by the iterative solvers: each class's
/// population spread over the stations it visits, proportionally to its
/// service demand there (uniform over visited stations if all demands are
/// zero).
pub(crate) fn initial_queue(net: &ClosedNetwork) -> Vec<Vec<f64>> {
    let m = net.n_stations();
    let mut flat = vec![0.0; net.n_classes() * m];
    initial_queue_flat(net, &mut flat);
    flat.chunks(m).map(|row| row.to_vec()).collect()
}

/// [`initial_queue`] written into a caller-provided flat `c * m` buffer —
/// the allocation-free form used by the workspace-backed solver entries.
pub(crate) fn initial_queue_flat(net: &ClosedNetwork, out: &mut [f64]) {
    let c = net.n_classes();
    let m = net.n_stations();
    debug_assert_eq!(out.len(), c * m);
    for i in 0..c {
        let row = &mut out[i * m..(i + 1) * m];
        let pop = net.populations[i] as f64;
        let total_demand: f64 = (0..m).map(|s| net.demand(i, s)).sum();
        if total_demand > 0.0 {
            for (s, q) in row.iter_mut().enumerate() {
                *q = pop * net.demand(i, s) / total_demand;
            }
        } else {
            let visited = net.visits[i].iter().filter(|&&v| v > 0.0).count();
            let share = pop / visited as f64;
            for (s, q) in row.iter_mut().enumerate() {
                *q = if net.visits[i][s] > 0.0 { share } else { 0.0 };
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::qn::{ClosedNetwork, Station};

    /// Analytic solution of the cyclic single-class two-station network
    /// (M/M/1-like closed loop) used as ground truth: with demands `d0, d1`
    /// and population `n`, the throughput is
    /// `X(n) = (1 - ρ^n...)`; computed here by the exact single-class MVA
    /// recursion which is trivially correct.
    pub fn single_class_reference(demands: &[f64], n: usize) -> f64 {
        let mut q = vec![0.0; demands.len()];
        let mut x = 0.0;
        for pop in 1..=n {
            let waits: Vec<f64> = demands
                .iter()
                .zip(&q)
                .map(|(d, nq)| d * (1.0 + nq))
                .collect();
            let cycle: f64 = waits.iter().sum();
            x = pop as f64 / cycle;
            for (m, w) in waits.iter().enumerate() {
                q[m] = x * w;
            }
        }
        x
    }

    pub fn two_station(n: usize, s0: f64, s1: f64) -> ClosedNetwork {
        ClosedNetwork {
            stations: vec![Station::queueing("a", s0), Station::queueing("b", s1)],
            populations: vec![n],
            visits: vec![vec![1.0, 1.0]],
        }
    }
}
