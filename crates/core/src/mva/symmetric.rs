//! Symmetric Bard–Schweitzer solver for the MMS on a torus.
//!
//! Under the SPMD assumption every class is a translation of class 0, so in
//! equilibrium the class-`j` queue at station `(kind, v)` equals the
//! class-0 queue at `(kind, v − j)`. Two consequences collapse the fixed
//! point to class-0 variables only:
//!
//! 1. The *total* queue at any station of a given kind is the same for all
//!    nodes: `T_kind = Σ_u n₀[(kind, u)]`.
//! 2. The Schweitzer arriving-customer estimate for class 0 becomes
//!    `T_kind − n₀[m]/n_t`.
//!
//! Each iteration is `O(M)` instead of `O(C·M)`, and the symmetry holds
//! *exactly* instead of only up to convergence tolerance. The expanded
//! solution is generated by translating class 0.
//!
//! One function, `solve_class0_in`, runs this solve for two callers and
//! takes the name the diagnostics report: `symmetric-amva` ([`solve_in`])
//! and `amva` on a symmetric network (`amva::solve_mms_in`, the entry
//! [`crate::analysis::SolverChoice::Amva`] runs), so a request for the
//! paper's Figure 3 solver on a torus costs `O(M)` per iteration and
//! still answers as `amva`. The class-0 step and the class-0 → all-classes
//! expansion are also shared with the Linearizer's translation-symmetric
//! path (see [`crate::mva::linearizer`]), whose full-population solves
//! are this fixed point plus a per-station correction row.

use crate::error::{LtError, Result};
use crate::mva::fixed_point::{solve_fixed_point_in, SolverDiagnostics};
use crate::mva::workspace::{usable_warm, Scratch, SolverWorkspace};
use crate::mva::{MvaSolution, SolverOptions};
use crate::num::exactly_zero;
use crate::qn::build::MmsNetwork;
use crate::qn::translation::Translation;
use crate::qn::Discipline;

/// Solve with default options.
pub fn solve(mms: &MmsNetwork) -> Result<MvaSolution> {
    solve_with(mms, SolverOptions::default())
}

/// Solve with explicit convergence controls. Fails with
/// [`LtError::Unsupported`] when the topology is not vertex-transitive.
pub fn solve_with(mms: &MmsNetwork, opts: SolverOptions) -> Result<MvaSolution> {
    solve_in(mms, opts, None, &mut SolverWorkspace::new())
}

/// Solve with explicit convergence controls, an optional warm start, and
/// caller-owned scratch memory. Fails with [`LtError::Unsupported`] when
/// the topology is not vertex-transitive.
///
/// The fixed point is over the class-0 queue row only, so `warm` may be
/// either that row (`m` entries) or a full flattened `c * m` class-major
/// queue matrix — in the latter case the class-0 prefix is used. A guess
/// with the wrong length or any non-finite/negative entry is ignored in
/// favor of the demand-proportional cold start (warm starts are hints, not
/// correctness inputs; the answer agrees with a cold solve within solver
/// tolerance either way).
pub fn solve_in(
    mms: &MmsNetwork,
    opts: SolverOptions,
    warm: Option<&[f64]>,
    ws: &mut SolverWorkspace,
) -> Result<MvaSolution> {
    if !mms.is_symmetric() {
        return Err(LtError::Unsupported(
            "symmetric solver requires a vertex-transitive topology (torus)".into(),
        ));
    }
    solve_class0_in("symmetric-amva", mms, opts, warm, ws)
}

/// The class-0 Bard–Schweitzer solve behind [`solve_in`] and, on
/// symmetric networks, [`crate::mva::amva::solve_mms_in`]; `solver` is
/// the name its diagnostics and errors carry. The caller has checked
/// [`MmsNetwork::is_symmetric`]. `warm` follows [`solve_in`]'s contract.
pub(crate) fn solve_class0_in(
    solver: &'static str,
    mms: &MmsNetwork,
    opts: SolverOptions,
    warm: Option<&[f64]>,
    ws: &mut SolverWorkspace,
) -> Result<MvaSolution> {
    let net = &mms.net;
    net.validate()?;
    let m = net.n_stations();

    let Scratch {
        state: n0,
        image,
        prev_delta,
        wait: w0,
        totals,
        ..
    } = ws.scratch(1, m, false);
    seed_class0(mms, warm, n0);
    let (diagnostics, lambda) = class0_fixed_point(
        solver,
        mms,
        &opts,
        None,
        Class0 {
            n0,
            image,
            prev_delta,
            w0,
            t_kind: totals,
        },
    )?;

    let translation = Translation::new(&mms.cfg.arch.topology);
    Ok(MvaSolution {
        throughput: vec![lambda; net.n_classes()],
        wait: translation.expand(w0),
        queue: translation.expand(n0),
        iterations: diagnostics.iterations,
        diagnostics,
    })
}

/// Mutable views a class-0 fixed point runs on. `n0` and `w0` hold one
/// class row (`m` entries); `t_kind` needs one entry per station kind
/// (`m / p`) and may be longer.
pub(crate) struct Class0<'a> {
    /// Class-0 queue row: the initial guess on entry, the solution after.
    pub n0: &'a mut [f64],
    /// Fixed-point image scratch.
    pub image: &'a mut Vec<f64>,
    /// Previous update direction scratch.
    pub prev_delta: &'a mut Vec<f64>,
    /// Class-0 residence times, consistent with `n0` after the solve.
    pub w0: &'a mut [f64],
    /// Per-kind total queue scratch.
    pub t_kind: &'a mut [f64],
}

/// Write class 0's initial queue row into `n0` (`m` entries): the class-0
/// prefix of a full `c * m` warm guess, a bare class-0 row, or (cold) the
/// population spread proportionally to demand.
pub(crate) fn seed_class0(mms: &MmsNetwork, warm: Option<&[f64]>, n0: &mut [f64]) {
    let net = &mms.net;
    let (c, m) = (net.n_classes(), net.n_stations());
    let n_t = net.populations[0] as f64;
    let warm_row = usable_warm(warm, m).or_else(|| {
        warm.filter(|w| w.len() == c * m)
            .and_then(|w| usable_warm(Some(&w[..m]), m))
    });
    match warm_row {
        Some(row) => n0.copy_from_slice(row),
        None => {
            let total_demand: f64 = (0..m).map(|st| net.demand(0, st)).sum();
            for (st, q) in n0.iter_mut().enumerate() {
                *q = if total_demand > 0.0 {
                    n_t * net.demand(0, st) / total_demand
                } else {
                    n_t / m as f64
                };
            }
        }
    }
}

/// The class-0 fixed point of a translation-symmetric network; returns
/// the diagnostics and the (common) per-class throughput.
///
/// Without `correction` the arriving-customer estimate at a queueing
/// station is Bard–Schweitzer's `T_kind − n₀/n_t`. With it, the
/// Linearizer's per-station row is added and the estimate clamped at zero,
/// exactly as in the Linearizer's general core.
pub(crate) fn class0_fixed_point(
    solver: &'static str,
    mms: &MmsNetwork,
    opts: &SolverOptions,
    correction: Option<&[f64]>,
    bufs: Class0<'_>,
) -> Result<(SolverDiagnostics, f64)> {
    let net = &mms.net;
    let p = mms.idx.p;
    let m = net.n_stations();
    let n_t = net.populations[0] as f64;
    let e0 = &net.visits[0];
    let Class0 {
        n0,
        image,
        prev_delta,
        w0,
        t_kind,
    } = bufs;
    let t_kind = &mut t_kind[..m / p];
    let mut lambda = 0.0;

    let diagnostics = solve_fixed_point_in(solver, n0, opts, image, prev_delta, |n0, next| {
        // Per-kind totals (identical at every node of the kind).
        t_kind.iter_mut().for_each(|t| *t = 0.0);
        for (st, &v) in n0.iter().enumerate() {
            t_kind[st / p] += v;
        }

        let mut cycle = 0.0;
        for st in 0..m {
            let e = e0[st];
            if exactly_zero(e) {
                w0[st] = 0.0;
                continue;
            }
            let s = net.stations[st].service;
            w0[st] = match (net.stations[st].discipline, correction) {
                (Discipline::Delay, _) => s,
                (Discipline::Queueing, None) => s * (1.0 + t_kind[st / p] - n0[st] / n_t),
                (Discipline::Queueing, Some(row)) => {
                    let seen = t_kind[st / p] - n0[st] / n_t + row[st];
                    s * (1.0 + seen.max(0.0))
                }
            };
            cycle += e * w0[st];
        }
        if cycle <= 0.0 {
            return Err(LtError::DegenerateModel(format!(
                "{solver}: zero total service demand (cycle time 0); \
                 throughput is undefined"
            )));
        }
        lambda = n_t / cycle;

        for st in 0..m {
            next[st] = if exactly_zero(e0[st]) {
                0.0
            } else {
                lambda * e0[st] * w0[st]
            };
        }
        Ok(())
    })?;
    Ok((diagnostics, lambda))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mva::amva;
    use crate::params::SystemConfig;
    use crate::qn::build::build_network;
    use crate::topology::Topology;
    use crate::workload::AccessPattern;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn matches_general_amva_on_default_system() {
        let mms = build_network(&SystemConfig::paper_default()).unwrap();
        let sym = solve(&mms).unwrap();
        let gen = amva::solve(&mms.net).unwrap();
        for i in 0..mms.net.n_classes() {
            assert_close(sym.throughput[i], gen.throughput[i], 1e-7);
            for st in 0..mms.net.n_stations() {
                assert_close(sym.wait[i][st], gen.wait[i][st], 1e-6);
                assert_close(sym.queue[i][st], gen.queue[i][st], 1e-6);
            }
        }
    }

    #[test]
    fn matches_general_amva_across_parameters() {
        for (k, n_t, p_remote, pattern) in [
            (2usize, 4usize, 0.5, AccessPattern::Uniform),
            (3, 2, 0.8, AccessPattern::geometric(0.3)),
            (4, 16, 0.1, AccessPattern::geometric_per_module(0.7)),
        ] {
            let cfg = SystemConfig::paper_default()
                .with_topology(Topology::torus(k))
                .with_n_threads(n_t)
                .with_p_remote(p_remote)
                .with_pattern(pattern);
            let mms = build_network(&cfg).unwrap();
            let sym = solve(&mms).unwrap();
            let gen = amva::solve(&mms.net).unwrap();
            assert_close(sym.throughput[0], gen.throughput[0], 1e-6);
        }
    }

    #[test]
    fn warm_start_accepts_class0_row_and_full_matrix() {
        let mms = build_network(&SystemConfig::paper_default()).unwrap();
        let mut ws = SolverWorkspace::new();
        let cold = solve(&mms).unwrap();
        let row = cold.queue[0].clone();
        let full: Vec<f64> = cold.queue.concat();
        for guess in [row, full] {
            let warm = solve_in(&mms, SolverOptions::default(), Some(&guess), &mut ws).unwrap();
            assert_close(warm.throughput[0], cold.throughput[0], 1e-8);
            assert!(
                warm.iterations < cold.iterations,
                "warm {} vs cold {}",
                warm.iterations,
                cold.iterations
            );
        }
    }

    #[test]
    fn rejects_mesh() {
        let cfg = SystemConfig::paper_default().with_topology(Topology::mesh(4));
        let mms = build_network(&cfg).unwrap();
        match solve(&mms) {
            Err(LtError::Unsupported(_)) => {}
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn population_conservation() {
        let mms = build_network(&SystemConfig::paper_default()).unwrap();
        let sym = solve(&mms).unwrap();
        assert!(sym.population_residual(&mms.net) < 1e-6);
    }

    #[test]
    fn multi_port_memory_supported() {
        let cfg = SystemConfig::paper_default().with_memory_ports(4);
        let mms = build_network(&cfg).unwrap();
        let sym = solve(&mms).unwrap();
        let gen = amva::solve(&mms.net).unwrap();
        assert_close(sym.throughput[0], gen.throughput[0], 1e-6);
    }
}
