//! Damped successive-substitution driver shared by the iterative MVA
//! solvers, with convergence diagnostics.
//!
//! Every approximate-MVA solver in this crate is a fixed point `x = G(x)`
//! over (a flattening of) the mean queue lengths. The bare Jacobi iteration
//! `x ← G(x)` oscillates or stalls near saturation — exactly the operating
//! points the paper's headline claims are evaluated at (`p_remote ≥ 0.9`,
//! large `n_t`). This module centralizes the remedy:
//!
//! * **Adaptive under-relaxation**: updates are `x ← x + α·(G(x) − x)`.
//!   The damping factor `α` starts at [`SolverOptions::damping_initial`]
//!   and is halved whenever the iteration oscillates (successive update
//!   directions oppose each other) or the residual grows; it recovers
//!   multiplicatively after a streak of monotone progress, never exceeding
//!   1 nor dropping below [`SolverOptions::damping_min`].
//! * **Geometric extrapolation**: when the residual decays at a stable
//!   geometric rate `ρ`, the remaining distance to the fixed point is
//!   `≈ δ/(1 − ρ)`; periodically the update is boosted by that factor
//!   (Aitken-style), cutting long linear-convergence tails.
//! * **Diagnostics**: every solve returns a [`SolverDiagnostics`] with the
//!   residual/damping trace tail, the station of maximum residual, the
//!   wall time, and the extrapolation count. On failure,
//!   [`LtError::NoConvergence`] carries the same trace tail so
//!   non-convergence is debuggable instead of opaque.
//!
//! Iterates are clamped at zero: the state components are mean queue
//! lengths, and a negative excursion (possible under extrapolation) would
//! otherwise feed a nonsensical negative queue back into `G`.

use std::time::{Duration, Instant};

use crate::error::{LtError, Result};
use crate::mva::SolverOptions;

/// How a fixed-point solve behaved, attached to every
/// [`crate::mva::MvaSolution`] and surfaced in
/// [`crate::metrics::PerformanceReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolverDiagnostics {
    /// Solver name ("amva", "symmetric-amva", "linearizer", ...).
    pub solver: &'static str,
    /// Total iterations performed (summed over inner solves for
    /// multi-stage solvers such as the Linearizer, and over ladder retries
    /// in [`crate::analysis::SolverChoice::Auto`]).
    pub iterations: usize,
    /// Whether the final solve met its tolerance (direct solvers report
    /// `true` with zero iterations).
    pub converged: bool,
    /// Max-norm residual at the last iteration (0 for direct solvers).
    pub final_residual: f64,
    /// Tail of the per-iteration residual trace (most recent last,
    /// at most [`SolverOptions::trace_cap`] entries).
    pub residual_trace: Vec<f64>,
    /// Damping factor used at each traced iteration (parallel to
    /// `residual_trace`).
    pub damping_trace: Vec<f64>,
    /// Flattened state index with the largest residual at the last
    /// iteration — for the MVA solvers this identifies the station (and
    /// class) that is hardest to converge, typically the bottleneck. On a
    /// torus with a translation-invariant pattern `symmetric-amva`,
    /// `amva` and `linearizer` iterate over class 0 only, so there it
    /// indexes class 0's station row (`< M`).
    pub max_residual_index: Option<usize>,
    /// Number of geometric-extrapolation boosts applied.
    pub extrapolations: usize,
    /// Wall-clock time spent in the solve.
    pub wall_time: Duration,
}

impl SolverDiagnostics {
    /// Diagnostics of a non-iterative (direct) solver: converged by
    /// construction, nothing to trace.
    pub fn direct(solver: &'static str) -> Self {
        SolverDiagnostics {
            solver,
            iterations: 0,
            converged: true,
            final_residual: 0.0,
            residual_trace: Vec::new(),
            damping_trace: Vec::new(),
            max_residual_index: None,
            extrapolations: 0,
            wall_time: Duration::ZERO,
        }
    }

    /// Fold an earlier stage's diagnostics into this one (used by the
    /// Linearizer's inner solves and the Auto ladder's retries): iteration
    /// counts, wall time, and extrapolations accumulate; the trace and
    /// convergence state of `self` — the *final* solve — are kept.
    pub fn absorb(&mut self, earlier: &SolverDiagnostics) {
        self.iterations += earlier.iterations;
        self.extrapolations += earlier.extrapolations;
        self.wall_time += earlier.wall_time;
    }
}

/// Push onto a bounded trace, dropping the oldest entry once `cap` is
/// reached.
fn push_capped(trace: &mut Vec<f64>, value: f64, cap: usize) {
    if cap == 0 {
        return;
    }
    if trace.len() == cap {
        trace.remove(0);
    }
    trace.push(value);
}

/// Solve `x = G(x)` by damped successive substitution.
///
/// `x` holds the initial guess on entry and the solution on success. The
/// `step` closure evaluates `G` — reading the current iterate and writing
/// the image into its second argument — and may fail with a structured
/// error (e.g. a zero cycle time), which aborts the solve immediately.
///
/// On success the final state is the *image* `G(x)` of the last iterate,
/// so invariants that hold exactly for images (population conservation:
/// `Σ_m n_m = λ·Σ e·w`-style identities) hold exactly for the returned
/// state, and any outputs the closure captured on its last call (waits,
/// throughputs) are consistent with it.
pub fn solve_fixed_point<F>(
    solver: &'static str,
    x: &mut [f64],
    opts: &SolverOptions,
    step: F,
) -> Result<SolverDiagnostics>
where
    F: FnMut(&[f64], &mut [f64]) -> Result<()>,
{
    let mut image = Vec::new();
    let mut prev_delta = Vec::new();
    solve_fixed_point_in(solver, x, opts, &mut image, &mut prev_delta, step)
}

/// [`solve_fixed_point`] with caller-provided scratch for the image and the
/// previous update direction — the allocation-free entry used by solvers
/// running through a [`crate::mva::SolverWorkspace`].
///
/// Both buffers are resized to `x.len()` and zero-filled on entry (the
/// oscillation detector needs `prev_delta` to start at zero), which reuses
/// existing capacity and therefore allocates nothing once the buffers have
/// seen the shape. The per-iteration loop allocates nothing at all; only
/// the bounded diagnostic traces (at most [`SolverOptions::trace_cap`]
/// entries, reserved up front) are allocated per solve because they are
/// returned to the caller inside [`SolverDiagnostics`].
pub fn solve_fixed_point_in<F>(
    solver: &'static str,
    x: &mut [f64],
    opts: &SolverOptions,
    image: &mut Vec<f64>,
    prev_delta: &mut Vec<f64>,
    mut step: F,
) -> Result<SolverDiagnostics>
where
    F: FnMut(&[f64], &mut [f64]) -> Result<()>,
{
    let start = Instant::now();
    let n = x.len();
    image.clear();
    image.resize(n, 0.0);
    prev_delta.clear();
    prev_delta.resize(n, 0.0);
    let trace_reserve = opts.trace_cap.min(opts.max_iterations);
    let mut alpha = opts
        .damping_initial
        .clamp(opts.damping_min.max(f64::MIN_POSITIVE), 1.0);
    // lt-lint: allow(LT04, seed: any finite first residual must compare as an improvement)
    let mut prev_residual = f64::INFINITY;
    let mut improve_streak = 0usize;
    let mut residual_trace = Vec::with_capacity(trace_reserve);
    let mut damping_trace = Vec::with_capacity(trace_reserve);
    let mut extrapolations = 0usize;
    // lt-lint: allow(LT04, sentinel meaning "no iteration ran yet"; overwritten or reported in NoConvergence)
    let mut residual = f64::INFINITY;
    let mut max_index = None;

    for iteration in 1..=opts.max_iterations {
        step(x, image)?;

        // Residual (max norm), its argmax, and the oscillation signal: the
        // inner product of successive update directions turning negative
        // means the iteration is overshooting back and forth.
        residual = 0.0;
        let mut direction_dot = 0.0;
        for i in 0..n {
            let d = image[i] - x[i];
            // NaN fails every comparison, so it must be caught explicitly
            // or the max-norm would silently skip it.
            if !d.is_finite() {
                // lt-lint: allow(LT04, deliberate poison marker: caught below and turned into a structured error)
                residual = f64::NAN;
                max_index = Some(i);
                break;
            }
            if d.abs() > residual {
                residual = d.abs();
                max_index = Some(i);
            }
            direction_dot += d * prev_delta[i];
        }
        if !residual.is_finite() {
            return Err(LtError::DegenerateModel(format!(
                "{solver}: non-finite residual at iteration {iteration} \
                 (the iteration map produced NaN or infinity)"
            )));
        }
        push_capped(&mut residual_trace, residual, opts.trace_cap);
        push_capped(&mut damping_trace, alpha, opts.trace_cap);

        if residual < opts.tolerance {
            // Adopt the image: identities that hold for G(x) hold exactly.
            x.copy_from_slice(image);
            return Ok(SolverDiagnostics {
                solver,
                iterations: iteration,
                converged: true,
                final_residual: residual,
                residual_trace,
                damping_trace,
                max_residual_index: max_index,
                extrapolations,
                wall_time: start.elapsed(),
            });
        }

        // Adapt the damping factor.
        if direction_dot < 0.0 || residual > prev_residual {
            alpha = (alpha * 0.5).max(opts.damping_min);
            improve_streak = 0;
        } else {
            improve_streak += 1;
            if improve_streak >= 4 {
                alpha = (alpha * 1.25).min(1.0);
                improve_streak = 0;
            }
        }

        // Geometric extrapolation: with a stable decay ratio ρ the distance
        // to the fixed point is ≈ δ/(1 − ρ); apply the boost sparingly so a
        // misestimated ρ cannot destabilize the iteration (the damping
        // logic above recovers on the next step if it does).
        let mut boost = 1.0;
        if opts.extrapolation && iteration % 8 == 0 && residual_trace.len() >= 3 {
            let t = &residual_trace[residual_trace.len() - 3..];
            if t[1] > 0.0 && t[0] > 0.0 {
                let r1 = t[2] / t[1];
                let r0 = t[1] / t[0];
                // A stable ratio < 1 (within half a percent over two
                // steps) marks clean geometric decay — including the slow
                // tails (ρ → 1) where the boost matters most.
                if r1 < 1.0 && (r1 - r0).abs() < 0.005 {
                    boost = (1.0 / (1.0 - r1)).min(500.0);
                    extrapolations += 1;
                }
            }
        }

        let scale = alpha * boost;
        for i in 0..n {
            let d = image[i] - x[i];
            prev_delta[i] = d;
            x[i] = (x[i] + scale * d).max(0.0);
        }
        prev_residual = residual;
    }

    Err(LtError::NoConvergence {
        solver,
        iterations: opts.max_iterations,
        residual,
        trace: residual_trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> SolverOptions {
        SolverOptions::default()
    }

    #[test]
    fn converges_on_contraction() {
        // x = 0.5 x + 1 -> fixed point 2.
        let mut x = vec![0.0];
        let d = solve_fixed_point("test", &mut x, &opts(), |x, g| {
            g[0] = 0.5 * x[0] + 1.0;
            Ok(())
        })
        .unwrap();
        assert!((x[0] - 2.0).abs() < 1e-8);
        assert!(d.converged);
        assert!(d.iterations > 0);
        assert!(!d.residual_trace.is_empty());
        assert_eq!(d.residual_trace.len(), d.damping_trace.len());
    }

    #[test]
    fn damping_tames_oscillation() {
        // x = 2.4 - 1.4 x has fixed point 1 but |G'| = 1.4 > 1: undamped
        // Jacobi diverges; the adaptive damping must still find it.
        let mut x = vec![0.0];
        let d = solve_fixed_point("test", &mut x, &opts(), |x, g| {
            g[0] = 2.4 - 1.4 * x[0];
            Ok(())
        })
        .unwrap();
        assert!((x[0] - 1.0).abs() < 1e-8, "x = {}", x[0]);
        assert!(d.converged);
        assert!(
            d.damping_trace.iter().any(|&a| a < 1.0),
            "damping must have engaged: {:?}",
            d.damping_trace
        );
    }

    #[test]
    fn extrapolation_accelerates_slow_contraction() {
        // Slow geometric convergence (ρ = 0.999): extrapolation should keep
        // the iteration count far below the undamped ~ln(tol)/ln(ρ) ≈ 23k.
        let run = |extrapolation: bool| {
            let mut x = vec![0.0];
            let o = SolverOptions {
                extrapolation,
                ..SolverOptions::default()
            };
            let d = solve_fixed_point("test", &mut x, &o, |x, g| {
                g[0] = 0.999 * x[0] + 0.001;
                Ok(())
            })
            .unwrap();
            assert!((x[0] - 1.0).abs() < 1e-7, "x = {}", x[0]);
            d
        };
        let with = run(true);
        let without = run(false);
        assert!(with.extrapolations > 0);
        assert!(
            with.iterations * 10 < without.iterations,
            "extrapolation {} vs plain {}",
            with.iterations,
            without.iterations
        );
    }

    #[test]
    fn budget_exhaustion_reports_trace() {
        let o = SolverOptions {
            tolerance: 0.0, // unattainable
            max_iterations: 7,
            ..SolverOptions::default()
        };
        let mut x = vec![0.0];
        let err = solve_fixed_point("test", &mut x, &o, |x, g| {
            g[0] = 0.5 * x[0] + 1.0;
            Ok(())
        })
        .unwrap_err();
        match err {
            LtError::NoConvergence {
                solver,
                iterations,
                trace,
                ..
            } => {
                assert_eq!(solver, "test");
                assert_eq!(iterations, 7);
                assert_eq!(trace.len(), 7, "full trace below the cap");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn trace_is_capped() {
        let o = SolverOptions {
            tolerance: 0.0,
            max_iterations: 200,
            trace_cap: 16,
            ..SolverOptions::default()
        };
        let mut x = vec![0.0];
        let err = solve_fixed_point("test", &mut x, &o, |x, g| {
            g[0] = 0.5 * x[0] + 1.0;
            Ok(())
        })
        .unwrap_err();
        match err {
            LtError::NoConvergence { trace, .. } => assert_eq!(trace.len(), 16),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn step_errors_abort_immediately() {
        let mut x = vec![0.0];
        let err = solve_fixed_point("test", &mut x, &opts(), |_, _| {
            Err(LtError::DegenerateModel("boom".into()))
        })
        .unwrap_err();
        assert!(matches!(err, LtError::DegenerateModel(_)));
    }

    #[test]
    fn non_finite_image_is_structured_error() {
        let mut x = vec![0.0];
        let err = solve_fixed_point("test", &mut x, &opts(), |_, g| {
            g[0] = f64::NAN;
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, LtError::DegenerateModel(_)), "{err:?}");
    }

    #[test]
    fn direct_diagnostics_are_converged_and_empty() {
        let d = SolverDiagnostics::direct("exact-mva");
        assert!(d.converged);
        assert_eq!(d.iterations, 0);
        assert!(d.residual_trace.is_empty());
    }

    #[test]
    fn absorb_accumulates_counters() {
        let mut a = SolverDiagnostics::direct("a");
        a.iterations = 10;
        let mut b = SolverDiagnostics::direct("b");
        b.iterations = 5;
        b.extrapolations = 2;
        a.absorb(&b);
        assert_eq!(a.iterations, 15);
        assert_eq!(a.extrapolations, 2);
        assert_eq!(a.solver, "a");
    }
}
