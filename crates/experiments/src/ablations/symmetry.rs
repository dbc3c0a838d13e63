//! Symmetric-solver ablation: the `O(M)`-per-iteration translation-
//! symmetric Bard–Schweitzer against the general multi-class solver —
//! agreement (must be exact up to convergence tolerance) and speed.

use crate::ctx::Ctx;
use crate::output::{fnum, Table};
use lt_core::analysis::{solve_network, SolverChoice};
use lt_core::error::Result;
use lt_core::mva::amva;
use lt_core::prelude::*;
use lt_core::qn::build::build_network;
use lt_core::topology::Topology;
use std::time::Instant;

/// One size point.
pub struct SymmetryPoint {
    /// PEs per dimension.
    pub k: usize,
    /// max |ΔU_p| between solvers.
    pub u_p_delta: f64,
    /// Wall time of the general solver (µs).
    pub general_us: f64,
    /// Wall time of the symmetric solver (µs).
    pub symmetric_us: f64,
}

/// Compare across machine sizes.
pub fn sweep(ctx: &Ctx) -> Result<Vec<SymmetryPoint>> {
    let ks: Vec<usize> = ctx.pick(vec![2, 4, 6, 8, 10], vec![2, 4]);
    ks.iter()
        .map(|&k| {
            let cfg = SystemConfig::paper_default().with_topology(Topology::torus(k));
            let mms = build_network(&cfg)?;
            let r = cfg.workload.runlength;

            // `SolverChoice::Amva` runs the class-0 path on a torus too, so
            // the general side calls the multi-class solver directly.
            let start = Instant::now();
            let general = amva::solve(&mms.net)?;
            let general_us = start.elapsed().as_secs_f64() * 1e6;

            let start = Instant::now();
            let symmetric = solve_network(&mms, SolverChoice::SymmetricAmva)?;
            let symmetric_us = start.elapsed().as_secs_f64() * 1e6;

            let delta = general
                .throughput
                .iter()
                .zip(&symmetric.throughput)
                .map(|(a, b)| (a - b).abs() * r)
                .fold(0.0, f64::max);
            Ok(SymmetryPoint {
                k,
                u_p_delta: delta,
                general_us,
                symmetric_us,
            })
        })
        .collect()
}

/// Generate the report.
pub fn run(ctx: &Ctx) -> Result<String> {
    let pts = sweep(ctx)?;
    let mut t = Table::new(vec![
        "k",
        "P",
        "max |dU_p|",
        "general us",
        "symmetric us",
        "speedup",
    ]);
    for p in &pts {
        t.row(vec![
            p.k.to_string(),
            (p.k * p.k).to_string(),
            format!("{:.2e}", p.u_p_delta),
            fnum(p.general_us, 0),
            fnum(p.symmetric_us, 0),
            fnum(p.general_us / p.symmetric_us, 1),
        ]);
    }
    let csv_note = ctx.save_csv("ablation_symmetry", &t);
    Ok(format!(
        "Symmetric AMVA fast path vs general multi-class AMVA.\n\n{}\n{csv_note}\n",
        t.render()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solvers_agree_to_tolerance() {
        let ctx = Ctx::quick_temp();
        for p in sweep(&ctx).unwrap() {
            assert!(p.u_p_delta < 1e-6, "k={}: delta {}", p.k, p.u_p_delta);
        }
    }

    #[test]
    fn symmetric_is_faster_at_scale() {
        // At k >= 4 the class count is 16+; the O(M) iteration wins.
        let ctx = Ctx::quick_temp();
        let pts = sweep(&ctx).unwrap();
        let k4 = pts.iter().find(|p| p.k == 4).unwrap();
        assert!(
            k4.symmetric_us < k4.general_us,
            "symmetric {} vs general {}",
            k4.symmetric_us,
            k4.general_us
        );
    }

    #[test]
    fn report_renders() {
        let ctx = Ctx::quick_temp();
        assert!(run(&ctx).unwrap().contains("speedup"));
    }
}
