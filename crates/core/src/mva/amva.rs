//! Bard–Schweitzer approximate MVA — the algorithm of the paper's Figure 3.
//!
//! The arrival theorem is approximated by estimating the queue seen by an
//! arriving class-`i` customer as the equilibrium queue with one class-`i`
//! customer removed *proportionally*:
//!
//! ```text
//! Q_m(N − 1_i) ≈ Σ_{j≠i} n_{j,m}(N) + ((N_i − 1)/N_i) · n_{i,m}(N)
//!              =  Q_m(N) − n_{i,m}(N)/N_i
//! ```
//!
//! followed by the usual MVA step. The fixed point is computed by the
//! shared damped successive-substitution driver
//! ([`crate::mva::fixed_point`]): the underlying Jacobi map preserves class
//! symmetry exactly along the trajectory (the damping factor is a scalar,
//! so damped trajectories stay symmetric too), while adaptive
//! under-relaxation keeps it from oscillating near saturation.
//!
//! [`solve`], [`solve_with`] and [`solve_in`] iterate over every
//! class-station pair, `O(C·M)` per iteration, on any network. An MMS
//! network on a torus with a translation-invariant pattern
//! ([`MmsNetwork::is_symmetric`]) has every class a node translation of
//! class 0, and the Jacobi map keeps that symmetry, so `solve_mms_in`,
//! the entry [`crate::analysis::SolverChoice::Amva`] runs, iterates there
//! over class 0's row alone with the fixed point of
//! [`crate::mva::symmetric`], `O(M)` per iteration, and expands the answer
//! by translation.
//! Its diagnostics still say `amva`; their `max_residual_index` then
//! indexes class 0's station row.

use crate::error::{LtError, Result};
use crate::mva::fixed_point::solve_fixed_point_in;
use crate::mva::symmetric::solve_class0_in;
use crate::mva::workspace::{usable_warm, Scratch, SolverWorkspace};
use crate::mva::{initial_queue_flat, MvaSolution, SolverOptions};
use crate::num::exactly_zero;
use crate::qn::build::MmsNetwork;
use crate::qn::{ClosedNetwork, Discipline};

/// Solve with default options.
pub fn solve(net: &ClosedNetwork) -> Result<MvaSolution> {
    solve_with(net, SolverOptions::default())
}

/// Solve with explicit convergence controls.
pub fn solve_with(net: &ClosedNetwork, opts: SolverOptions) -> Result<MvaSolution> {
    solve_in(net, opts, None, &mut SolverWorkspace::new())
}

/// Solve an MMS network through the class-0 fixed point when
/// [`MmsNetwork::is_symmetric`] holds, and through the general
/// [`solve_in`] otherwise.
///
/// On the class-0 path `warm` may be a class-0 row (`m` entries) or a
/// full `c * m` matrix, whose class-0 prefix is used — the same contract
/// as [`crate::mva::symmetric::solve_in`]. The answer agrees with the
/// general path within solver tolerance.
pub(crate) fn solve_mms_in(
    mms: &MmsNetwork,
    opts: SolverOptions,
    warm: Option<&[f64]>,
    ws: &mut SolverWorkspace,
) -> Result<MvaSolution> {
    if mms.is_symmetric() {
        solve_class0_in("amva", mms, opts, warm, ws)
    } else {
        solve_in(&mms.net, opts, warm, ws)
    }
}

/// Solve with explicit convergence controls, an optional warm start, and
/// caller-owned scratch memory.
///
/// `warm` is a flattened class-major queue-length guess (`c * m` entries,
/// `warm[i * m + st]`), typically the solution of a neighboring parameter
/// point; it is used only if its length matches and every entry is a
/// finite, non-negative number, otherwise the solver falls back to the
/// demand-proportional cold start. Because the damped fixed point iterates
/// to the same tolerance from any starting point in the feasible region,
/// a warm start changes the iteration count, not the answer (agreement is
/// within solver tolerance; asserted by `tests/properties.rs`).
///
/// On a workspace that has already seen this model shape the solve path
/// performs zero heap allocations apart from the solution vectors and
/// bounded diagnostic traces it returns.
pub fn solve_in(
    net: &ClosedNetwork,
    opts: SolverOptions,
    warm: Option<&[f64]>,
    ws: &mut SolverWorkspace,
) -> Result<MvaSolution> {
    net.validate()?;
    let c = net.n_classes();
    let m = net.n_stations();

    let Scratch {
        state,
        image,
        prev_delta,
        wait,
        throughput,
        totals,
        ..
    } = ws.scratch(c, m, false);

    // Flattened class-by-station queue matrix for the driver: warm start
    // when a usable guess was supplied, demand-proportional otherwise.
    match usable_warm(warm, c * m) {
        Some(w) => state.copy_from_slice(w),
        None => initial_queue_flat(net, state),
    }

    let diagnostics =
        solve_fixed_point_in("amva", state, &opts, image, prev_delta, |queue, next| {
            totals.iter_mut().for_each(|t| *t = 0.0);
            for i in 0..c {
                for (t, &v) in totals.iter_mut().zip(&queue[i * m..(i + 1) * m]) {
                    *t += v;
                }
            }

            for i in 0..c {
                let row = &queue[i * m..(i + 1) * m];
                let wait_i = &mut wait[i * m..(i + 1) * m];
                let pop = net.populations[i] as f64;
                let mut cycle = 0.0;
                for st in 0..m {
                    let e = net.visits[i][st];
                    if exactly_zero(e) {
                        wait_i[st] = 0.0;
                        continue;
                    }
                    let s = net.stations[st].service;
                    let w = match net.stations[st].discipline {
                        Discipline::Queueing => {
                            let seen = totals[st] - row[st] / pop;
                            s * (1.0 + seen)
                        }
                        Discipline::Delay => s,
                    };
                    wait_i[st] = w;
                    cycle += e * w;
                }
                if cycle <= 0.0 {
                    return Err(LtError::DegenerateModel(format!(
                        "amva: class {i} has zero total service demand \
                     (cycle time 0); its throughput is undefined"
                    )));
                }
                let lam = pop / cycle;
                throughput[i] = lam;
                for st in 0..m {
                    let e = net.visits[i][st];
                    next[i * m + st] = if exactly_zero(e) {
                        0.0
                    } else {
                        lam * e * wait_i[st]
                    };
                }
            }
            Ok(())
        })?;

    let queue: Vec<Vec<f64>> = state.chunks(m).map(|row| row.to_vec()).collect();
    let wait: Vec<Vec<f64>> = wait.chunks(m).map(|row| row.to_vec()).collect();
    Ok(MvaSolution {
        throughput: throughput.clone(),
        wait,
        queue,
        iterations: diagnostics.iterations,
        diagnostics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mva::exact;
    use crate::mva::testutil::two_station;
    use crate::qn::{ClosedNetwork, Station};

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn single_customer_is_exact() {
        // Bard–Schweitzer is exact for N = 1 (the customer sees an empty
        // network: Q(N − 1) = 0 exactly).
        let net = two_station(1, 1.0, 2.0);
        let a = solve(&net).unwrap();
        let e = exact::solve(&net).unwrap();
        assert_close(a.throughput[0], e.throughput[0], 1e-9);
    }

    #[test]
    fn close_to_exact_single_class() {
        for n in [2usize, 4, 8, 16] {
            let net = two_station(n, 1.0, 2.0);
            let a = solve(&net).unwrap();
            let e = exact::solve(&net).unwrap();
            let rel = (a.throughput[0] - e.throughput[0]).abs() / e.throughput[0];
            assert!(rel < 0.05, "n={n}: relative error {rel}");
        }
    }

    #[test]
    fn close_to_exact_two_class() {
        let net = ClosedNetwork {
            stations: vec![
                Station::queueing("a", 1.0),
                Station::queueing("b", 0.5),
                Station::delay("z", 3.0),
            ],
            populations: vec![4, 6],
            visits: vec![vec![1.0, 2.0, 1.0], vec![1.0, 0.5, 1.0]],
        };
        let a = solve(&net).unwrap();
        let e = exact::solve(&net).unwrap();
        for i in 0..2 {
            let rel = (a.throughput[i] - e.throughput[i]).abs() / e.throughput[i];
            // Bard–Schweitzer is a first-order approximation; ~6% on this
            // deliberately unbalanced two-class network is its known range.
            assert!(rel < 0.08, "class {i}: relative error {rel}");
        }
        assert_close(a.population_residual(&net), 0.0, 1e-6);
    }

    #[test]
    fn preserves_class_symmetry() {
        // Identical classes must come out identical (the damped Jacobi
        // trajectory is symmetric bit-for-bit: scalar damping).
        let net = ClosedNetwork {
            stations: vec![Station::queueing("a", 1.0), Station::queueing("b", 2.0)],
            populations: vec![5, 5, 5],
            visits: vec![vec![1.0, 1.0]; 3],
        };
        let a = solve(&net).unwrap();
        assert_eq!(a.throughput[0], a.throughput[1]);
        assert_eq!(a.throughput[1], a.throughput[2]);
    }

    #[test]
    fn zero_service_stations_contribute_nothing() {
        let net = ClosedNetwork {
            stations: vec![Station::queueing("a", 1.0), Station::queueing("ideal", 0.0)],
            populations: vec![6],
            visits: vec![vec![1.0, 5.0]],
        };
        let a = solve(&net).unwrap();
        assert_close(a.wait[0][1], 0.0, 1e-12);
        // Single station of demand 1 with N=6: X = min(1, ...) -> 1.
        assert_close(a.throughput[0], 1.0, 1e-6);
    }

    #[test]
    fn all_zero_demands_are_a_structured_error() {
        // Every station the class visits has zero service: the cycle time
        // is 0 and throughput undefined. Must not produce inf/NaN.
        let net = ClosedNetwork {
            stations: vec![Station::queueing("a", 0.0), Station::queueing("b", 0.0)],
            populations: vec![4],
            visits: vec![vec![1.0, 1.0]],
        };
        match solve(&net) {
            Err(LtError::DegenerateModel(msg)) => {
                assert!(msg.contains("zero total service demand"), "{msg}")
            }
            other => panic!("expected DegenerateModel, got {other:?}"),
        }
    }

    #[test]
    fn bottleneck_throughput_bound_holds() {
        // Asymptotically X <= 1/max demand.
        let net = two_station(50, 1.0, 0.25);
        let a = solve(&net).unwrap();
        assert!(a.throughput[0] <= 1.0 + 1e-9);
        assert!(a.throughput[0] > 0.98);
    }

    #[test]
    fn reports_iteration_count_and_diagnostics() {
        let net = two_station(8, 1.0, 1.0);
        let a = solve(&net).unwrap();
        assert!(a.iterations > 0);
        assert!(a.diagnostics.converged);
        assert_eq!(a.diagnostics.solver, "amva");
        assert_eq!(a.diagnostics.iterations, a.iterations);
        assert!(!a.diagnostics.residual_trace.is_empty());
        assert!(a.diagnostics.final_residual < 1e-10);
    }

    #[test]
    fn warm_start_matches_cold_with_fewer_iterations_and_no_allocations() {
        let net = two_station(12, 1.0, 2.0);
        let mut ws = SolverWorkspace::new();
        let cold = solve_in(&net, SolverOptions::default(), None, &mut ws).unwrap();
        let allocs_after_first = ws.allocations();
        let guess: Vec<f64> = cold.queue.concat();
        let warm = solve_in(&net, SolverOptions::default(), Some(&guess), &mut ws).unwrap();
        assert!((warm.throughput[0] - cold.throughput[0]).abs() < 1e-8);
        assert!(
            warm.iterations < cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
        assert_eq!(
            ws.allocations(),
            allocs_after_first,
            "second same-shape solve must not grow the workspace"
        );
    }

    #[test]
    fn invalid_warm_start_falls_back_to_cold() {
        let net = two_station(6, 1.0, 2.0);
        let cold = solve(&net).unwrap();
        // Wrong length and non-finite entries must both be ignored.
        for bad in [vec![1.0; 3], vec![f64::NAN, 1.0, 1.0, 1.0]] {
            let sol = solve_in(
                &net,
                SolverOptions::default(),
                Some(&bad),
                &mut SolverWorkspace::new(),
            )
            .unwrap();
            assert_eq!(sol.iterations, cold.iterations, "must match the cold path");
            assert!((sol.throughput[0] - cold.throughput[0]).abs() < 1e-12);
        }
    }

    #[test]
    fn respects_iteration_budget() {
        let net = two_station(8, 1.0, 1.0);
        let err = solve_with(
            &net,
            SolverOptions {
                tolerance: 0.0, // unattainable
                max_iterations: 3,
                ..SolverOptions::default()
            },
        )
        .unwrap_err();
        match err {
            LtError::NoConvergence {
                solver,
                iterations,
                trace,
                ..
            } => {
                assert_eq!(solver, "amva");
                assert_eq!(iterations, 3);
                assert_eq!(trace.len(), 3, "trace must cover every iteration");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}
