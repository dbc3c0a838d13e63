//! High-level solve entry points tying together network construction,
//! solver selection, and metric extraction.

use crate::bounds::mms_isolation_bounds;
use crate::error::{LtError, Result};
use crate::metrics::{report, Fidelity, PerformanceReport, SubsystemUtilization};
use crate::mva::{
    amva, exact, linearizer, priority, symmetric, MvaSolution, SolverDiagnostics, SolverOptions,
    SolverWorkspace,
};
use crate::params::SystemConfig;
use crate::qn::build::{build_network, MmsNetwork};
use std::time::Duration;

/// Which solver to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverChoice {
    /// Accuracy-aware escalation ladder: exact MVA when the population
    /// lattice is small, the Linearizer for medium systems (its
    /// higher-order arrival estimate tracks memory contention that
    /// Bard–Schweitzer underestimates), symmetric/general AMVA for large
    /// ones. Iterative rungs that fail to converge are retried with
    /// [`SolverOptions::tightened`] before the ladder moves on.
    #[default]
    Auto,
    /// The `O(M)`-per-iteration symmetric Bard–Schweitzer
    /// (torus only).
    SymmetricAmva,
    /// General multi-class Bard–Schweitzer (the paper's Figure 3).
    Amva,
    /// Chandy–Neuse Linearizer (translation-symmetric on tori with a
    /// translation-invariant pattern, general otherwise).
    Linearizer,
    /// Exact multi-class MVA (small populations only).
    Exact,
}

/// Auto rung 0 budget: run exact MVA when the lattice table
/// (`∏(N_i + 1) · M` entries) stays below this.
const AUTO_EXACT_ENTRIES: u128 = 500_000;

/// Auto rung 1 budget: run the Linearizer when its per-sweep cost proxy
/// `C² · M` stays below this. Covers the paper's 4×4 torus with one
/// memory port (`M = 4P = 64`, so `16² · 64 = 16_384`) where
/// Bard–Schweitzer visibly underestimates memory contention, while a 5×5
/// torus (`25² · 100 = 62_500`) already falls through to the O(M)
/// symmetric solver. The proxy is the general path's cost; on tori the
/// translation-symmetric path is cheaper still, but the rung boundaries
/// stay where they are.
const AUTO_LINEARIZER_COST: usize = 32_000;

/// Solve an already-built MMS network with the chosen solver.
pub fn solve_network(mms: &MmsNetwork, choice: SolverChoice) -> Result<MvaSolution> {
    solve_network_with(mms, choice, SolverOptions::default())
}

/// [`solve_network`] with explicit convergence controls.
pub fn solve_network_with(
    mms: &MmsNetwork,
    choice: SolverChoice,
    opts: SolverOptions,
) -> Result<MvaSolution> {
    solve_network_in(mms, choice, opts, None, &mut SolverWorkspace::new())
}

/// [`solve_network_with`] with an optional warm start and caller-owned
/// scratch memory — the entry used by sweep drivers and `latencyd`.
///
/// `warm` is a flattened class-major queue matrix (`c * m`), typically the
/// solution of a neighboring parameter point; it seeds every *iterative*
/// rung the chosen solver runs (the exact solver ignores it, but keeps
/// its lattice table in `ws`). Guesses with
/// the wrong shape or non-finite entries are silently discarded — a warm
/// start may change iteration counts, never the converged answer beyond
/// solver tolerance.
pub fn solve_network_in(
    mms: &MmsNetwork,
    choice: SolverChoice,
    opts: SolverOptions,
    warm: Option<&[f64]>,
    ws: &mut SolverWorkspace,
) -> Result<MvaSolution> {
    match choice {
        SolverChoice::Auto => solve_auto(mms, opts, warm, ws),
        SolverChoice::SymmetricAmva => symmetric::solve_in(mms, opts, warm, ws),
        SolverChoice::Amva => amva::solve_in(&mms.net, opts, warm, ws),
        SolverChoice::Linearizer => linearizer::solve_mms_in(mms, opts, warm, ws),
        SolverChoice::Exact => exact::solve_mms_in(mms, ws),
    }
}

/// The [`SolverChoice::Auto`] escalation ladder.
fn solve_auto(
    mms: &MmsNetwork,
    opts: SolverOptions,
    warm: Option<&[f64]>,
    ws: &mut SolverWorkspace,
) -> Result<MvaSolution> {
    let net = &mms.net;
    let m = net.n_stations();
    let mut lattice: u128 = 1;
    for &n in &net.populations {
        lattice = lattice.saturating_mul(n as u128 + 1);
    }
    let entries = lattice.saturating_mul(m as u128);
    let c = net.n_classes();
    let linearizer_cost = c.saturating_mul(c).saturating_mul(m);

    // Iterations burned by rungs that failed before the one that succeeded.
    let mut wasted = SolverDiagnostics::direct("auto");

    // Rung 0: exact MVA when the lattice is cheap — no approximation error,
    // no convergence concerns.
    if entries <= AUTO_EXACT_ENTRIES {
        match exact::solve_mms_in(mms, ws) {
            Ok(sol) => return Ok(absorb_wasted(sol, &wasted)),
            Err(LtError::ProblemTooLarge { .. }) => {}
            Err(e) => return Err(e),
        }
    }

    // Rung 1: Linearizer for medium systems.
    if linearizer_cost <= AUTO_LINEARIZER_COST {
        match retrying(
            &mut wasted,
            opts,
            |o, ws| linearizer::solve_mms_in(mms, o, warm, ws),
            ws,
        ) {
            Ok(sol) => return Ok(absorb_wasted(sol, &wasted)),
            Err(LtError::NoConvergence { .. }) => {}
            Err(e) => return Err(e),
        }
    }

    // Rung 2: symmetric O(M) AMVA on vertex-transitive topologies.
    if mms.is_symmetric() {
        match retrying(
            &mut wasted,
            opts,
            |o, ws| symmetric::solve_in(mms, o, warm, ws),
            ws,
        ) {
            Ok(sol) => return Ok(absorb_wasted(sol, &wasted)),
            Err(LtError::NoConvergence { .. }) => {}
            Err(e) => return Err(e),
        }
    }

    // Rung 3: general AMVA.
    let last_err = match retrying(
        &mut wasted,
        opts,
        |o, ws| amva::solve_in(net, o, warm, ws),
        ws,
    ) {
        Ok(sol) => return Ok(absorb_wasted(sol, &wasted)),
        Err(e @ LtError::NoConvergence { .. }) => e,
        Err(e) => return Err(e),
    };

    // Rung 4, last resort: a heavily damped Linearizer even past its cost
    // budget (only reached when every cheaper rung failed to converge).
    if linearizer_cost > AUTO_LINEARIZER_COST {
        match linearizer::solve_mms_in(mms, opts.tightened(), warm, ws) {
            Ok(sol) => return Ok(absorb_wasted(sol, &wasted)),
            Err(LtError::NoConvergence { .. }) => {}
            Err(e) => return Err(e),
        }
    }

    Err(last_err)
}

/// Run `f(opts, ws)`; on [`LtError::NoConvergence`] retry once with
/// [`SolverOptions::tightened`]. The iterations of every attempt that
/// fails to converge, the retry included, are recorded as wasted.
fn retrying<F>(
    wasted: &mut SolverDiagnostics,
    opts: SolverOptions,
    mut f: F,
    ws: &mut SolverWorkspace,
) -> Result<MvaSolution>
where
    F: FnMut(SolverOptions, &mut SolverWorkspace) -> Result<MvaSolution>,
{
    match f(opts, ws) {
        Err(LtError::NoConvergence { iterations, .. }) => {
            wasted.iterations += iterations;
            let retry = f(opts.tightened(), ws);
            if let Err(LtError::NoConvergence { iterations, .. }) = &retry {
                wasted.iterations += iterations;
            }
            retry
        }
        other => other,
    }
}

/// Fold iterations spent by failed ladder rungs into the winning solution.
fn absorb_wasted(mut sol: MvaSolution, wasted: &SolverDiagnostics) -> MvaSolution {
    sol.diagnostics.absorb(wasted);
    sol.iterations = sol.diagnostics.iterations;
    sol
}

/// Build, solve (auto solver), and extract the paper's measures.
pub fn solve(cfg: &SystemConfig) -> Result<PerformanceReport> {
    solve_with(cfg, SolverChoice::Auto)
}

/// [`solve`] with an explicit solver choice.
pub fn solve_with(cfg: &SystemConfig, choice: SolverChoice) -> Result<PerformanceReport> {
    let mms = build_network(cfg)?;
    let sol = solve_network(&mms, choice)?;
    Ok(report(&mms, &sol))
}

/// Warm-start state carried between consecutive solves of a sweep.
///
/// A seed holds the flattened queue matrices of the last two successful
/// solves on the same worker and the running warm/cold counters that
/// surface in `latencyd`'s `/metrics`. Sweep drivers keep one seed per
/// worker thread: neighboring grid points have nearby fixed points, so
/// seeding each solve from its predecessors cuts iteration counts
/// without changing converged answers (the solvers re-iterate to the
/// same tolerance from any start).
///
/// The offered guess is sharpened in two ways beyond a plain copy:
///
/// * **Population scaling** — each class row is rescaled by the ratio of
///   the new class population to the stored one, so a step along the
///   thread axis conserves the new population exactly instead of being
///   one customer short.
/// * **Secant extrapolation** — with two stored solutions the seed is
///   `2·q_prev − q_prev2` (clamped at zero), which tracks the solution's
///   drift along a uniformly stepped parameter axis to second order.
///
/// Both are hints only: a seed that turns out to be poor costs extra
/// iterations, never a different answer, and a warm-started convergence
/// failure is retried cold by [`solve_seeded`].
#[derive(Debug, Default)]
pub struct SweepSeed {
    /// Flattened `c * m` queue matrix of the most recent solution.
    state: Vec<f64>,
    /// Per-class populations `state` was solved at.
    pops: Vec<f64>,
    /// The solution before `state` (same layout), for extrapolation.
    older: Vec<f64>,
    /// Per-class populations `older` was solved at.
    older_pops: Vec<f64>,
    /// How many stored solutions are valid: 0, 1 (`state`), or 2.
    depth: u8,
    /// Scratch the offered guess is assembled into.
    guess: Vec<f64>,
    /// Solves that started from a usable seed.
    pub warm_hits: u64,
    /// Solves that started cold (no seed, shape mismatch, or a warm
    /// attempt that had to be retried cold).
    pub cold_solves: u64,
}

impl SweepSeed {
    /// A fresh, cold seed.
    pub fn new() -> Self {
        SweepSeed::default()
    }

    /// Drop the stored solutions (the counters survive). Used when a warm
    /// attempt fails, or by sweeps running in deliberate cold mode.
    pub fn invalidate(&mut self) {
        self.depth = 0;
    }

    /// Assemble the warm-start guess for a network with the given
    /// per-class `populations` into the internal scratch and return it,
    /// or `None` when nothing stored matches the shape.
    fn prepare(&mut self, populations: &[usize], m: usize) -> Option<&[f64]> {
        let c = populations.len();
        let len = c * m;
        if self.depth == 0 || self.state.len() != len || self.pops.len() != c {
            return None;
        }
        if self.pops.iter().any(|&n| n <= 0.0) {
            return None;
        }
        self.guess.clear();
        self.guess.reserve(len);
        let use_secant = self.depth >= 2
            && self.older.len() == len
            && self.older_pops.len() == c
            && self.older_pops.iter().all(|&n| n > 0.0);
        for (i, &pop) in populations.iter().enumerate() {
            let n_new = pop as f64;
            let scale_a = n_new / self.pops[i];
            let row_a = &self.state[i * m..(i + 1) * m];
            if use_secant {
                let scale_b = n_new / self.older_pops[i];
                let row_b = &self.older[i * m..(i + 1) * m];
                self.guess.extend(
                    row_a
                        .iter()
                        .zip(row_b)
                        .map(|(a, b)| (2.0 * a * scale_a - b * scale_b).max(0.0)),
                );
            } else {
                self.guess.extend(row_a.iter().map(|a| a * scale_a));
            }
        }
        Some(&self.guess[..])
    }

    /// Adopt a solution as the next warm start (rotates the stored pair,
    /// reusing both buffers).
    fn store(&mut self, sol: &MvaSolution, populations: &[usize]) {
        std::mem::swap(&mut self.state, &mut self.older);
        std::mem::swap(&mut self.pops, &mut self.older_pops);
        self.state.clear();
        for row in &sol.queue {
            self.state.extend_from_slice(row);
        }
        self.pops.clear();
        self.pops.extend(populations.iter().map(|&n| n as f64));
        self.depth = match self.depth {
            0 => 1,
            _ => 2,
        };
    }
}

/// Build, solve, and extract measures, warm-started from `seed` and
/// running through `ws`.
///
/// On success the seed is updated to the new solution. If a *warm-started*
/// attempt fails recoverably (no convergence), the seed is invalidated and
/// the solve retried cold before any error is reported — a stale seed must
/// never make a point fail that would have succeeded cold, and a degraded
/// ladder must not be entered because of a bad hint.
pub fn solve_seeded(
    cfg: &SystemConfig,
    choice: SolverChoice,
    opts: SolverOptions,
    seed: &mut SweepSeed,
    ws: &mut SolverWorkspace,
) -> Result<PerformanceReport> {
    let mms = build_network(cfg)?;
    let m = mms.net.n_stations();
    let warm_used;
    let attempt = {
        let warm = seed.prepare(&mms.net.populations, m);
        warm_used = warm.is_some();
        solve_network_in(&mms, choice, opts, warm, ws)
    };
    let sol = match attempt {
        Ok(sol) => {
            if warm_used {
                seed.warm_hits += 1;
            } else {
                seed.cold_solves += 1;
            }
            sol
        }
        Err(e) if warm_used && recoverable(&e) => {
            seed.invalidate();
            seed.cold_solves += 1;
            solve_network_in(&mms, choice, opts, None, ws)?
        }
        Err(e) => {
            seed.invalidate();
            return Err(e);
        }
    };
    seed.store(&sol, &mms.net.populations);
    Ok(report(&mms, &sol))
}

/// Controls for [`solve_degraded`]: when to abandon the requested solver
/// and how much wall-clock budget remains.
#[derive(Debug, Clone, Copy, Default)]
pub struct DegradePolicy {
    /// Do not run the requested solver at all (circuit breaker open, or a
    /// fault-injection hook forcing the failure path); go straight to the
    /// fallback rungs.
    pub skip_primary: bool,
    /// Remaining deadline budget, if the caller enforces one. Below
    /// [`MIN_SOLVE_BUDGET`] the ladder answers from bounds immediately
    /// rather than risk blowing the deadline inside an iterative solver.
    pub remaining: Option<Duration>,
}

/// Remaining budget under which [`solve_degraded`] skips every solver and
/// answers from the (microseconds-cheap) bounds estimate.
pub const MIN_SOLVE_BUDGET: Duration = Duration::from_millis(25);

/// Fallback rungs tried, in order, when `choice` fails. `Auto` has no
/// rungs: it is already a ladder, so when it fails only bounds remain.
fn fallback_rungs(choice: SolverChoice) -> &'static [SolverChoice] {
    match choice {
        SolverChoice::Auto => &[],
        SolverChoice::Exact => &[SolverChoice::Linearizer, SolverChoice::Amva],
        SolverChoice::Linearizer => &[SolverChoice::Amva],
        SolverChoice::SymmetricAmva => &[SolverChoice::Amva],
        SolverChoice::Amva => &[SolverChoice::Linearizer],
    }
}

/// Whether an error is recoverable by falling down the ladder (solver
/// gave up), as opposed to a property of the request itself.
fn recoverable(e: &LtError) -> bool {
    matches!(
        e,
        LtError::NoConvergence { .. } | LtError::ProblemTooLarge { .. }
    )
}

/// The graceful-degradation ladder: requested solver → weaker solvers →
/// bounds estimate.
///
/// Every success is tagged with its [`Fidelity`]: full fidelity when the
/// requested solver answered, [`Fidelity::Degraded`] when a fallback rung
/// did, [`Fidelity::Bounds`] when only the asymptotic/bottleneck estimate
/// remained. Unrecoverable errors (invalid config, degenerate model)
/// surface immediately — degrading cannot fix a bad request.
pub fn solve_degraded(
    cfg: &SystemConfig,
    choice: SolverChoice,
    policy: DegradePolicy,
) -> Result<PerformanceReport> {
    solve_degraded_in(
        cfg,
        choice,
        policy,
        &mut SweepSeed::new(),
        &mut SolverWorkspace::new(),
    )
}

/// [`solve_degraded`] with a warm-start seed and caller-owned scratch —
/// the entry `latencyd` runs on its pooled per-worker state.
///
/// Every rung (primary and fallbacks) solves through [`solve_seeded`], so
/// a usable seed warms whichever rung actually runs and the seed tracks
/// the solution that ultimately succeeded. Fidelity tagging is identical
/// to [`solve_degraded`]; warm starts cannot change which rung answers,
/// because a warm-started convergence failure is retried cold before the
/// ladder moves on.
pub fn solve_degraded_in(
    cfg: &SystemConfig,
    choice: SolverChoice,
    policy: DegradePolicy,
    seed: &mut SweepSeed,
    ws: &mut SolverWorkspace,
) -> Result<PerformanceReport> {
    let opts = SolverOptions::default();
    if policy.remaining.is_some_and(|left| left < MIN_SOLVE_BUDGET) {
        return bounds_report(cfg);
    }
    if !policy.skip_primary {
        match solve_seeded(cfg, choice, opts, seed, ws) {
            Ok(rep) => return Ok(rep),
            Err(e) if recoverable(&e) => {}
            Err(e) => return Err(e),
        }
    }
    for &rung in fallback_rungs(choice) {
        match solve_seeded(cfg, rung, opts, seed, ws) {
            Ok(mut rep) => {
                rep.fidelity = Fidelity::Degraded;
                return Ok(rep);
            }
            Err(e) if recoverable(&e) => {}
            Err(e) => return Err(e),
        }
    }
    bounds_report(cfg)
}

/// A [`Fidelity::Bounds`] report synthesized from
/// [`mms_isolation_bounds`]: `U_p` is the midpoint of the guaranteed
/// bracket (clamped to a physical utilization), throughput figures follow
/// from it, and the queueing observables that bounds cannot see are zero.
pub fn bounds_report(cfg: &SystemConfig) -> Result<PerformanceReport> {
    let mms = build_network(cfg)?;
    let b = mms_isolation_bounds(cfg)?;
    let upper = b.upper.min(1.0);
    let lower = b.lower.min(upper);
    let u_p = 0.5 * (lower + upper);
    let r = cfg.workload.runlength;
    let lambda_proc = if r > 0.0 { u_p / r } else { 0.0 };
    let classes = mms.net.n_classes();
    let d_avg = mms.d_avg.iter().sum::<f64>() / classes as f64;
    Ok(PerformanceReport {
        u_p,
        lambda_proc,
        lambda_net: lambda_proc * cfg.workload.p_remote,
        s_obs: 0.0,
        l_obs: 0.0,
        l_obs_local: 0.0,
        l_obs_remote: 0.0,
        network_time_per_cycle: 0.0,
        d_avg,
        system_throughput: u_p * classes as f64,
        utilization: SubsystemUtilization {
            processor: u_p,
            memory: 0.0,
            in_switch: 0.0,
            out_switch: 0.0,
        },
        u_p_per_class: vec![u_p; classes],
        iterations: 0,
        fidelity: Fidelity::Bounds,
        diagnostics: SolverDiagnostics::direct("bounds"),
    })
}

/// Solve a machine whose memory modules serve local accesses with priority
/// (EM-4 style) — the shadow-server heuristic of [`crate::mva::priority`].
/// This models a *different machine* than [`solve`], not a different
/// solver, hence the separate entry point.
pub fn solve_priority(cfg: &SystemConfig) -> Result<PerformanceReport> {
    let mms = build_network(cfg)?;
    let sol = priority::solve(&mms)?;
    Ok(report(&mms, &sol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn auto_picks_linearizer_on_paper_default() {
        // The 4x4 torus sits in the Linearizer cost budget; Auto must use
        // the higher-order solver there (Bard–Schweitzer underestimates
        // memory contention by several percent on this machine).
        let cfg = SystemConfig::paper_default();
        let a = solve_with(&cfg, SolverChoice::Auto).unwrap();
        let l = solve_with(&cfg, SolverChoice::Linearizer).unwrap();
        assert_eq!(a.diagnostics.solver, "linearizer");
        assert_eq!(a.u_p, l.u_p);
    }

    #[test]
    fn torus_linearizer_needs_at_most_a_quarter_of_the_general_iterations() {
        // The translation-symmetric path replaces the C + 1 O(C·M) solves
        // of each outer sweep by one O(C·M) and one O(M) solve; the
        // iteration counters pin that saving without timing anything.
        let mms = build_network(&SystemConfig::paper_default()).unwrap();
        let symmetric = solve_network(&mms, SolverChoice::Linearizer).unwrap();
        let general = linearizer::solve(&mms.net).unwrap();
        assert!(
            symmetric.diagnostics.iterations * 4 <= general.diagnostics.iterations,
            "symmetric {} vs general {} iterations",
            symmetric.diagnostics.iterations,
            general.diagnostics.iterations
        );
    }

    #[test]
    fn retrying_counts_both_failed_attempts_as_wasted() {
        // The first attempt has 7 iterations, the tightened retry 14; both
        // fail, and both must be counted.
        let mut wasted = SolverDiagnostics::direct("auto");
        let opts = SolverOptions {
            max_iterations: 7,
            ..SolverOptions::default()
        };
        let err = retrying(
            &mut wasted,
            opts,
            |o, _| {
                Err(LtError::NoConvergence {
                    solver: "test",
                    iterations: o.max_iterations,
                    residual: 1.0,
                    trace: Vec::new(),
                })
            },
            &mut SolverWorkspace::new(),
        )
        .unwrap_err();
        assert!(matches!(err, LtError::NoConvergence { iterations: 14, .. }));
        assert_eq!(wasted.iterations, 21);
    }

    #[test]
    fn auto_picks_exact_on_tiny_lattices() {
        let cfg = SystemConfig::paper_default()
            .with_topology(Topology::torus(2))
            .with_n_threads(2);
        let rep = solve(&cfg).unwrap();
        assert_eq!(rep.diagnostics.solver, "exact-mva");
        let exact = solve_with(&cfg, SolverChoice::Exact).unwrap();
        assert_eq!(rep.u_p, exact.u_p);
    }

    #[test]
    fn auto_falls_back_to_symmetric_on_large_tori() {
        // 8x8 torus: C²·M is past the Linearizer budget, topology is
        // vertex-transitive, so the O(M) symmetric solver runs.
        let cfg = SystemConfig::paper_default().with_topology(Topology::torus(8));
        let rep = solve(&cfg).unwrap();
        assert_eq!(rep.diagnostics.solver, "symmetric-amva");
        assert!(rep.u_p > 0.0 && rep.u_p <= 1.0);
    }

    #[test]
    fn auto_falls_back_to_general_on_mesh() {
        let cfg = SystemConfig::paper_default().with_topology(Topology::mesh(3));
        let rep = solve(&cfg).unwrap();
        assert!(rep.u_p > 0.0 && rep.u_p <= 1.0);
    }

    #[test]
    fn solvers_agree_on_small_system() {
        // 2x2 torus, 2 threads: exact MVA is affordable (3^4 = 81 states),
        // and the approximations should be within a few percent.
        let cfg = SystemConfig::paper_default()
            .with_topology(Topology::torus(2))
            .with_n_threads(2)
            .with_p_remote(0.5);
        let e = solve_with(&cfg, SolverChoice::Exact).unwrap().u_p;
        for choice in [
            SolverChoice::Amva,
            SolverChoice::SymmetricAmva,
            SolverChoice::Linearizer,
        ] {
            let u = solve_with(&cfg, choice).unwrap().u_p;
            let rel = (u - e).abs() / e;
            assert!(rel < 0.05, "{choice:?}: U_p {u} vs exact {e}");
        }
    }

    #[test]
    fn linearizer_at_least_as_accurate_as_amva_on_mms() {
        let cfg = SystemConfig::paper_default()
            .with_topology(Topology::torus(2))
            .with_n_threads(3)
            .with_p_remote(0.4);
        let e = solve_with(&cfg, SolverChoice::Exact).unwrap().u_p;
        let a = solve_with(&cfg, SolverChoice::Amva).unwrap().u_p;
        let l = solve_with(&cfg, SolverChoice::Linearizer).unwrap().u_p;
        assert!((l - e).abs() <= (a - e).abs() + 1e-9);
    }

    #[test]
    fn invalid_config_is_reported() {
        let cfg = SystemConfig::paper_default().with_p_remote(2.0);
        assert!(solve(&cfg).is_err());
    }

    #[test]
    fn degraded_solve_is_full_fidelity_when_primary_succeeds() {
        let cfg = SystemConfig::paper_default();
        let rep = solve_degraded(&cfg, SolverChoice::Auto, DegradePolicy::default()).unwrap();
        assert!(rep.fidelity.is_full(), "{:?}", rep.fidelity);
        assert_eq!(rep.u_p, solve(&cfg).unwrap().u_p);
    }

    #[test]
    fn skipping_primary_falls_to_a_tagged_rung() {
        let cfg = SystemConfig::paper_default();
        let policy = DegradePolicy {
            skip_primary: true,
            remaining: None,
        };
        let rep = solve_degraded(&cfg, SolverChoice::Linearizer, policy).unwrap();
        assert_eq!(rep.fidelity, Fidelity::Degraded);
        assert_eq!(rep.diagnostics.solver, "amva", "Linearizer falls to AMVA");
        assert!(rep.u_p > 0.0 && rep.u_p <= 1.0);
    }

    #[test]
    fn skipping_auto_answers_from_bounds() {
        let cfg = SystemConfig::paper_default();
        let policy = DegradePolicy {
            skip_primary: true,
            remaining: None,
        };
        let rep = solve_degraded(&cfg, SolverChoice::Auto, policy).unwrap();
        assert_eq!(rep.fidelity, Fidelity::Bounds);
        assert_eq!(rep.diagnostics.solver, "bounds");
    }

    #[test]
    fn exhausted_budget_answers_from_bounds() {
        let cfg = SystemConfig::paper_default();
        let policy = DegradePolicy {
            skip_primary: false,
            remaining: Some(Duration::from_millis(1)),
        };
        let rep = solve_degraded(&cfg, SolverChoice::Exact, policy).unwrap();
        assert_eq!(rep.fidelity, Fidelity::Bounds);
    }

    #[test]
    fn bounds_report_brackets_the_exact_solution() {
        let cfg = SystemConfig::paper_default()
            .with_topology(Topology::torus(2))
            .with_n_threads(2);
        let exact = solve_with(&cfg, SolverChoice::Exact).unwrap().u_p;
        let b = crate::bounds::mms_isolation_bounds(&cfg).unwrap();
        let rep = bounds_report(&cfg).unwrap();
        assert!(b.contains(exact), "{b:?} misses exact {exact}");
        assert!(
            rep.u_p >= b.lower - 1e-12 && rep.u_p <= b.upper.min(1.0) + 1e-12,
            "midpoint {} outside {b:?}",
            rep.u_p
        );
        assert!((rep.lambda_proc - rep.u_p / cfg.workload.runlength).abs() < 1e-12);
        assert_eq!(rep.u_p_per_class.len(), 4);
    }

    #[test]
    fn degrading_cannot_fix_a_bad_request() {
        let cfg = SystemConfig::paper_default().with_p_remote(2.0);
        let policy = DegradePolicy {
            skip_primary: true,
            remaining: None,
        };
        assert!(solve_degraded(&cfg, SolverChoice::Auto, policy).is_err());
    }

    #[test]
    fn sweep_seed_scales_populations_and_extrapolates() {
        let mut seed = SweepSeed::new();
        let mut ws = SolverWorkspace::new();
        for n_t in [4usize, 5] {
            let cfg = SystemConfig::paper_default().with_n_threads(n_t);
            solve_seeded(
                &cfg,
                SolverChoice::Amva,
                SolverOptions::default(),
                &mut seed,
                &mut ws,
            )
            .unwrap();
        }
        assert_eq!(seed.cold_solves, 1, "first point has nothing to seed from");
        assert_eq!(seed.warm_hits, 1, "second point must warm-start");

        // With two stored solutions the guess for n_t = 6 is the
        // population-scaled secant; each class row of a closed-network
        // queue matrix sums to its population, so the guess must conserve
        // the *new* population (up to the clamp at zero).
        let cfg = SystemConfig::paper_default().with_n_threads(6);
        let mms = build_network(&cfg).unwrap();
        let m = mms.net.n_stations();
        let pops = mms.net.populations.clone();
        let guess = seed.prepare(&pops, m).unwrap().to_vec();
        assert_eq!(guess.len(), pops.len() * m);
        for (i, row) in guess.chunks(m).enumerate() {
            assert!(row.iter().all(|q| q.is_finite() && *q >= 0.0));
            let total: f64 = row.iter().sum();
            let want = pops[i] as f64;
            assert!(
                (total - want).abs() < 0.5,
                "class {i} guess sums to {total}, population is {want}"
            );
        }
    }

    #[test]
    fn sweep_seed_offers_nothing_when_stale_or_mismatched() {
        let mut seed = SweepSeed::new();
        let mut ws = SolverWorkspace::new();
        let cfg = SystemConfig::paper_default();
        let mms = build_network(&cfg).unwrap();
        let m = mms.net.n_stations();
        let pops = mms.net.populations.clone();

        // Nothing stored yet.
        assert!(seed.prepare(&pops, m).is_none());

        solve_seeded(
            &cfg,
            SolverChoice::Amva,
            SolverOptions::default(),
            &mut seed,
            &mut ws,
        )
        .unwrap();
        assert!(seed.prepare(&pops, m).is_some());

        // A different station count or class count must not be seeded
        // from the stored shape.
        assert!(seed.prepare(&pops, m + 1).is_none());
        assert!(seed.prepare(&pops[..pops.len() - 1], m).is_none());

        // Invalidation drops the stored state but keeps the counters.
        let before = (seed.warm_hits, seed.cold_solves);
        seed.invalidate();
        assert!(seed.prepare(&pops, m).is_none());
        assert_eq!((seed.warm_hits, seed.cold_solves), before);
    }
}
