//! The Chandy–Neuse **Linearizer** approximate MVA.
//!
//! Bard–Schweitzer assumes the *fraction* of class-`j` customers at each
//! station is unchanged when one class-`i` customer is removed. Linearizer
//! instead estimates the first-order deviation of those fractions,
//!
//! ```text
//! F_{j,m}(i) = n_{j,m}(N − 1_i)/(N_j − δ_ij)  −  n_{j,m}(N)/N_j ,
//! ```
//!
//! by actually solving the `C` reduced-population networks with a
//! Schweitzer-style core, then refeeding the deviations. Two to three outer
//! refinements typically bring the solution within a fraction of a percent
//! of exact MVA — at roughly `C + 1` times the cost of Bard–Schweitzer per
//! refinement. It is rung 1 of the Auto ladder (medium systems, the
//! paper's 4×4 torus among them) and its last-resort rung 4.
//!
//! **Translation-symmetric path** (`solve_mms_in`, the entry
//! [`crate::analysis::SolverChoice::Linearizer`] runs). On a torus with a
//! translation-invariant access pattern every class is a node translation
//! of class 0, and so is every reduced network: `N − 1_i` is `N − 1_0`
//! moved by `i`, hence `F_{j,(kind,v)}(i) = F_{j−i,(kind,v−i)}(0)`. Each
//! outer sweep then solves only `N − 1_0` with the general core, fills the
//! deviation table from its one row `F(0)` by translation, and runs the
//! full-population solve as the symmetric solver's `O(M)` class-0 fixed
//! point ([`crate::mva::symmetric`]) plus the Linearizer's per-station
//! correction row. A sweep costs one `O(C·M)` and one `O(M)` solve instead
//! of `C + 1` `O(C·M)` solves. Its diagnostics come from the class-0 solve,
//! so `max_residual_index` indexes class 0's station row, as it does for
//! `symmetric-amva`.

use crate::error::{LtError, Result};
use crate::mva::fixed_point::{solve_fixed_point_in, SolverDiagnostics};
use crate::mva::symmetric::{class0_fixed_point, seed_class0, Class0};
use crate::mva::workspace::{usable_warm, Scratch, SolverWorkspace};
use crate::mva::{MvaSolution, SolverOptions};
use crate::num::exactly_zero;
use crate::qn::build::MmsNetwork;
use crate::qn::translation::Translation;
use crate::qn::{ClosedNetwork, Discipline};

/// Number of outer refinement sweeps (the literature standard is 2–3).
pub const OUTER_SWEEPS: usize = 3;

/// Solve with default options.
pub fn solve(net: &ClosedNetwork) -> Result<MvaSolution> {
    solve_with(net, SolverOptions::default())
}

/// The model tables flattened for the inner fixed point: nested
/// `Vec<Vec<_>>` indexing in the hot loop costs more than the arithmetic.
/// The slices borrow the workspace's table buffers.
struct Flat<'a> {
    c: usize,
    m: usize,
    /// `visits[i * m + st]`.
    visits: &'a [f64],
    /// `service[st]`.
    service: &'a [f64],
    /// `queueing[st]`: true for FCFS queueing stations, false for delay.
    queueing: &'a [bool],
}

/// How an inner core solve is seeded.
enum Init<'a> {
    /// Demand-proportional spread of the population.
    Cold,
    /// Copy of a previous flattened solution.
    Warm(&'a [f64]),
    /// Copy of a previous solution with one class's row rescaled — used to
    /// seed the `N − 1_i` reduced-population solves from the full solution.
    WarmScaled {
        queue: &'a [f64],
        class: usize,
        scale: f64,
    },
}

/// The per-solve mutable buffers threaded through every inner core solve,
/// split out of the [`SolverWorkspace`] once per solve.
struct CoreBufs<'a> {
    state: &'a mut Vec<f64>,
    image: &'a mut Vec<f64>,
    prev_delta: &'a mut Vec<f64>,
    wait: &'a mut Vec<f64>,
    throughput: &'a mut Vec<f64>,
    totals: &'a mut Vec<f64>,
    base: &'a mut Vec<f64>,
}

/// The workspace sized for one Linearizer solve and split into the
/// core's flat model tables and buffers, the deviation table `F`, and the
/// `aux` snapshot of the full-population solution.
struct Split<'a> {
    flat: Flat<'a>,
    bufs: CoreBufs<'a>,
    fractions: &'a mut Vec<f64>,
    aux: &'a mut Vec<f64>,
}

/// Size `ws` for `net`, copy the model tables in, and split it.
fn split<'a>(net: &ClosedNetwork, ws: &'a mut SolverWorkspace) -> Split<'a> {
    let (c, m) = (net.n_classes(), net.n_stations());
    let Scratch {
        state,
        image,
        prev_delta,
        wait,
        throughput,
        totals,
        base,
        visits,
        service,
        queueing,
        fractions,
        aux,
    } = ws.scratch(c, m, true);
    for (dst, row) in visits.chunks_mut(m).zip(&net.visits) {
        dst.copy_from_slice(row);
    }
    for (dst, st) in service.iter_mut().zip(&net.stations) {
        *dst = st.service;
    }
    for (dst, st) in queueing.iter_mut().zip(&net.stations) {
        *dst = st.discipline == Discipline::Queueing;
    }
    Split {
        flat: Flat {
            c,
            m,
            visits,
            service,
            queueing,
        },
        bufs: CoreBufs {
            state,
            image,
            prev_delta,
            wait,
            throughput,
            totals,
            base,
        },
        fractions,
        aux,
    }
}

/// Solve with explicit convergence controls.
pub fn solve_with(net: &ClosedNetwork, opts: SolverOptions) -> Result<MvaSolution> {
    solve_in(net, opts, None, &mut SolverWorkspace::new())
}

/// Solve an MMS network through the translation-symmetric path when
/// [`MmsNetwork::is_symmetric`] holds (torus, translation-invariant
/// pattern), and through the general [`solve_in`] otherwise.
///
/// On the symmetric path `warm` may be a class-0 row (`m` entries) or a
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
        solve_symmetric_in(mms, opts, warm, ws)
    } else {
        solve_in(&mms.net, opts, warm, ws)
    }
}

/// Solve with explicit convergence controls, an optional warm start, and
/// caller-owned scratch memory.
///
/// `warm` is a flattened class-major queue-length guess (`c * m` entries)
/// seeding the *first* full-population core solve; the outer refinement
/// sweeps already warm-start their inner solves internally. A guess with
/// the wrong length or any non-finite/negative entry is ignored in favor
/// of the cold start; either way the refined answer agrees with a cold
/// solve within solver tolerance. With a workspace that has seen the
/// shape, the inner fixed-point loops allocate nothing.
pub fn solve_in(
    net: &ClosedNetwork,
    opts: SolverOptions,
    warm: Option<&[f64]>,
    ws: &mut SolverWorkspace,
) -> Result<MvaSolution> {
    net.validate()?;
    let c = net.n_classes();
    let m = net.n_stations();
    let full: Vec<usize> = net.populations.clone();

    let Split {
        flat,
        mut bufs,
        fractions,
        aux,
    } = split(net, ws);

    // Fraction-deviation table `F[(i·C + j)·M + st]` (zeroed by `scratch`):
    // deviation of class `j` at station `st` caused by removing one
    // class-`i` customer.
    let first_init = match usable_warm(warm, c * m) {
        Some(w) => Init::Warm(w),
        None => Init::Cold,
    };
    let mut sol_full = core(&flat, &full, fractions, opts, first_init, &mut bufs)?;
    // Iteration/extrapolation/wall-time totals over *all* inner solves (the
    // full-population one plus every reduced-population one), folded into
    // the final solution's diagnostics at the end.
    let mut spent = sol_full.diagnostics.clone();

    let mut pop_reduced = full.clone();
    let mut reduced: Vec<Option<MvaSolution>> = Vec::with_capacity(c);
    for _sweep in 0..OUTER_SWEEPS {
        // Warm start every inner solve of this sweep from the current
        // full-population solution — the reduced networks differ by one
        // customer, so their fixed points are close. `aux` keeps that
        // snapshot while `bufs.state` is overwritten by the inner solves.
        for (dst, row) in aux.chunks_mut(m).zip(&sol_full.queue) {
            dst.copy_from_slice(row);
        }

        // Solve each N − 1_i with the current deviation estimates.
        reduced.clear();
        for i in 0..c {
            if full[i] == 0 {
                reduced.push(None);
                continue;
            }
            pop_reduced[i] -= 1;
            if pop_reduced.iter().all(|&n| n == 0) {
                pop_reduced[i] += 1;
                reduced.push(None);
                continue;
            }
            let init = Init::WarmScaled {
                queue: &aux[..],
                class: i,
                scale: pop_reduced[i] as f64 / full[i] as f64,
            };
            let sol_i = core(&flat, &pop_reduced, fractions, opts, init, &mut bufs);
            pop_reduced[i] += 1;
            let sol_i = sol_i?;
            spent.absorb(&sol_i.diagnostics);
            reduced.push(Some(sol_i));
        }
        // Update the deviations.
        for i in 0..c {
            let Some(sol_i) = &reduced[i] else { continue };
            for j in 0..c {
                deviation_row(
                    &mut fractions[(i * c + j) * m..(i * c + j + 1) * m],
                    &sol_i.queue[j],
                    &sol_full.queue[j],
                    full[j],
                    full[j] - usize::from(i == j),
                );
            }
        }
        sol_full = core(
            &flat,
            &full,
            fractions,
            opts,
            Init::Warm(&aux[..]),
            &mut bufs,
        )?;
        spent.absorb(&sol_full.diagnostics);
    }
    // Keep the final solve's traces/convergence; report cumulative effort.
    total_effort(&mut sol_full.diagnostics, &spent);
    sol_full.iterations = spent.iterations;
    Ok(sol_full)
}

/// The translation-symmetric Linearizer described in the module docs; the
/// caller has checked [`MmsNetwork::is_symmetric`].
fn solve_symmetric_in(
    mms: &MmsNetwork,
    opts: SolverOptions,
    warm: Option<&[f64]>,
    ws: &mut SolverWorkspace,
) -> Result<MvaSolution> {
    let net = &mms.net;
    net.validate()?;
    let c = net.n_classes();
    let m = net.n_stations();
    let full = &net.populations;
    let translation = Translation::new(&mms.cfg.arch.topology);

    let Split {
        flat,
        mut bufs,
        fractions,
        aux,
    } = split(net, ws);

    // The class-0 iterate of the full-population solves lives in
    // `state[..m]`, their correction row in `base[..m]` — zero until the
    // first deviations are known, and rewritten after every reduced solve
    // (the core rebuilds all of `base` on entry).
    seed_class0(mms, warm, &mut bufs.state[..m]);
    let (mut last, mut lambda) = full_class0(mms, opts, &mut bufs)?;
    let mut spent = last.clone();

    let mut pop_reduced = full.clone();
    pop_reduced[0] = full[0].saturating_sub(1);
    let reduced_empty = pop_reduced.iter().all(|&n| n == 0);
    let scale = pop_reduced[0] as f64 / full[0] as f64;
    for sweep in 0..OUTER_SWEEPS {
        // The current full solution for every class: it warms N − 1_0 and
        // enters the deviations.
        for (i, row) in aux.chunks_mut(m).enumerate() {
            translation.row_into(i, &bufs.state[..m], row);
        }
        if !reduced_empty {
            if sweep > 0 {
                translate_deviations(&translation, fractions, c, m);
            }
            let init = Init::WarmScaled {
                queue: &aux[..],
                class: 0,
                scale,
            };
            let sol_0 = core(&flat, &pop_reduced, fractions, opts, init, &mut bufs)?;
            spent.absorb(&sol_0.diagnostics);
            for j in 0..c {
                deviation_row(
                    &mut fractions[j * m..(j + 1) * m],
                    &sol_0.queue[j],
                    &aux[j * m..(j + 1) * m],
                    full[j],
                    pop_reduced[j],
                );
            }
            correction_row(fractions, full, 0, m, &mut bufs.base[..m]);
        }
        bufs.state[..m].copy_from_slice(&aux[..m]);
        (last, lambda) = full_class0(mms, opts, &mut bufs)?;
        spent.absorb(&last);
    }
    total_effort(&mut last, &spent);
    Ok(MvaSolution {
        throughput: vec![lambda; c],
        wait: translation.expand(&bufs.wait[..m]),
        queue: translation.expand(&bufs.state[..m]),
        iterations: spent.iterations,
        diagnostics: last,
    })
}

/// One full-population solve of the symmetric path: the class-0 fixed
/// point from the guess in `state[..m]`, corrected by `base[..m]`.
fn full_class0(
    mms: &MmsNetwork,
    opts: SolverOptions,
    bufs: &mut CoreBufs<'_>,
) -> Result<(SolverDiagnostics, f64)> {
    let m = mms.net.n_stations();
    let CoreBufs {
        state,
        image,
        prev_delta,
        wait,
        totals,
        base,
        ..
    } = bufs;
    class0_fixed_point(
        "linearizer",
        mms,
        &opts,
        Some(&base[..m]),
        Class0 {
            n0: &mut state[..m],
            image,
            prev_delta,
            w0: &mut wait[..m],
            t_kind: totals,
        },
    )
}

/// Give the final inner solve's diagnostics (traces, convergence) the
/// cumulative effort of every inner solve.
fn total_effort(last: &mut SolverDiagnostics, spent: &SolverDiagnostics) {
    last.iterations = spent.iterations;
    last.extrapolations = spent.extrapolations;
    last.wall_time = spent.wall_time;
}

/// One row of the deviation table: class `j`'s queue fraction at every
/// station with one customer removed (`reduced`, `nj_reduced` customers)
/// minus the same fraction at full population (`full`, `nj_full`).
fn deviation_row(
    out: &mut [f64],
    reduced: &[f64],
    full: &[f64],
    nj_full: usize,
    nj_reduced: usize,
) {
    let (nj_full, nj_reduced) = (nj_full as f64, nj_reduced as f64);
    for ((f, &red), &whole) in out.iter_mut().zip(reduced).zip(full) {
        let frac_full = if nj_full > 0.0 { whole / nj_full } else { 0.0 };
        let frac_red = if nj_reduced > 0.0 {
            red / nj_reduced
        } else {
            0.0
        };
        *f = frac_red - frac_full;
    }
}

/// Fill `F(i)` for every class `i > 0` from the row `F(0)` (the first
/// `c · m` entries of `fractions`) by node translation:
/// `F(i)[j][(kind, v)] = F(0)[j − i][(kind, v − i)]`.
fn translate_deviations(translation: &Translation, fractions: &mut [f64], c: usize, m: usize) {
    let (f0, rest) = fractions.split_at_mut(c * m);
    for (i, fi) in (1..c).zip(rest.chunks_mut(c * m)) {
        let shift = translation.class(i);
        for (out, &src) in fi.chunks_mut(m).zip(shift) {
            translation.row_into(i, &f0[src * m..(src + 1) * m], out);
        }
    }
}

/// Class `i`'s arriving-customer correction at population `pop`:
/// `out[st] = Σ_j N_j·F_{i,j,st} − F_{i,i,st}`, the `δ_ij` term only for a
/// populated class `i` (an empty class `j` contributes nothing).
fn correction_row(fractions: &[f64], pop: &[usize], i: usize, m: usize, out: &mut [f64]) {
    let c = pop.len();
    out.iter_mut().for_each(|b| *b = 0.0);
    for (j, &n) in pop.iter().enumerate() {
        let nj = n as f64;
        if exactly_zero(nj) {
            continue;
        }
        let f = &fractions[(i * c + j) * m..(i * c + j + 1) * m];
        for (b, &fj) in out.iter_mut().zip(f) {
            *b += nj * fj;
        }
    }
    if pop[i] > 0 {
        let f = &fractions[(i * c + i) * m..(i * c + i + 1) * m];
        for (b, &fi) in out.iter_mut().zip(f) {
            *b -= fi;
        }
    }
}

/// Schweitzer-style fixed point at population `pop`, with arriving-customer
/// queue estimates corrected by the `fractions` table.
///
/// The corrected estimate `Σ_j (N_j − δ_ij)(n_{j,st}/N_j + F_{i,j,st})`
/// expands to `T_st − n_{i,st}/N_i + base_{i,st}` with
/// `T_st = Σ_j n_{j,st}` and `base_{i,st} = Σ_j N_j·F_{i,j,st} − F_{i,i,st}`
/// — `base` is constant for the whole solve, so each iteration is `O(C·M)`
/// instead of `O(C²·M)`.
fn core(
    flat: &Flat,
    pop: &[usize],
    fractions: &[f64],
    opts: SolverOptions,
    init: Init<'_>,
    bufs: &mut CoreBufs<'_>,
) -> Result<MvaSolution> {
    let (c, m) = (flat.c, flat.m);
    let CoreBufs {
        state,
        image,
        prev_delta,
        wait,
        throughput,
        totals,
        base,
    } = bufs;

    match init {
        Init::Warm(warm) => state.copy_from_slice(warm),
        Init::WarmScaled {
            queue,
            class,
            scale,
        } => {
            state.copy_from_slice(queue);
            for q in &mut state[class * m..(class + 1) * m] {
                *q *= scale;
            }
        }
        Init::Cold => {
            // Cold start: population spread proportionally to demand.
            for i in 0..c {
                let demand = |st: usize| flat.visits[i * m + st] * flat.service[st];
                let total: f64 = (0..m).map(demand).sum();
                let p = pop[i] as f64;
                for st in 0..m {
                    state[i * m + st] = if total > 0.0 {
                        p * demand(st) / total
                    } else {
                        0.0
                    };
                }
            }
        }
    }

    // `base` is constant for the whole solve (see above) and reused across
    // core solves, so it is rebuilt for every class here.
    for (i, row) in base.chunks_mut(m).enumerate() {
        correction_row(fractions, pop, i, m, row);
    }

    let diagnostics = solve_fixed_point_in(
        "linearizer",
        state,
        &opts,
        image,
        prev_delta,
        |queue, next| {
            totals.iter_mut().for_each(|t| *t = 0.0);
            for i in 0..c {
                for (t, &v) in totals.iter_mut().zip(&queue[i * m..(i + 1) * m]) {
                    *t += v;
                }
            }

            for i in 0..c {
                if pop[i] == 0 {
                    for st in 0..m {
                        next[i * m + st] = 0.0;
                        wait[i * m + st] = 0.0;
                    }
                    throughput[i] = 0.0;
                    continue;
                }
                let row = &queue[i * m..(i + 1) * m];
                let base_i = &base[i * m..(i + 1) * m];
                let visits_i = &flat.visits[i * m..(i + 1) * m];
                let inv_ni = 1.0 / pop[i] as f64;
                let mut cycle = 0.0;
                let wait_i = &mut wait[i * m..(i + 1) * m];
                for st in 0..m {
                    let e = visits_i[st];
                    if exactly_zero(e) {
                        wait_i[st] = 0.0;
                        continue;
                    }
                    let s = flat.service[st];
                    let w = if flat.queueing[st] {
                        let seen = totals[st] - row[st] * inv_ni + base_i[st];
                        s * (1.0 + seen.max(0.0))
                    } else {
                        s
                    };
                    wait_i[st] = w;
                    cycle += e * w;
                }
                if cycle <= 0.0 {
                    return Err(LtError::DegenerateModel(format!(
                        "linearizer: class {i} has zero total service demand \
                         (cycle time 0); its throughput is undefined"
                    )));
                }
                let lam = pop[i] as f64 / cycle;
                throughput[i] = lam;
                for st in 0..m {
                    let e = visits_i[st];
                    next[i * m + st] = if exactly_zero(e) {
                        0.0
                    } else {
                        lam * e * wait_i[st]
                    };
                }
            }
            Ok(())
        },
    )?;

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
    use crate::mva::testutil::two_station;
    use crate::mva::{amva, exact};
    use crate::params::SystemConfig;
    use crate::qn::build::build_network;
    use crate::qn::{ClosedNetwork, Station};

    fn rel_err(a: f64, b: f64) -> f64 {
        (a - b).abs() / b.abs()
    }

    #[test]
    fn exact_for_single_customer() {
        let net = two_station(1, 1.0, 2.0);
        let l = solve(&net).unwrap();
        let e = exact::solve(&net).unwrap();
        assert!(rel_err(l.throughput[0], e.throughput[0]) < 1e-8);
    }

    #[test]
    fn more_accurate_than_schweitzer_single_class() {
        // The canonical demonstration: moderate population, unbalanced
        // demands — Linearizer should at least match Schweitzer's error.
        let net = two_station(6, 1.0, 2.0);
        let e = exact::solve(&net).unwrap().throughput[0];
        let s = amva::solve(&net).unwrap().throughput[0];
        let l = solve(&net).unwrap().throughput[0];
        assert!(
            rel_err(l, e) <= rel_err(s, e) + 1e-12,
            "linearizer {l} vs schweitzer {s} vs exact {e}"
        );
        assert!(rel_err(l, e) < 0.01);
    }

    #[test]
    fn more_accurate_than_schweitzer_multiclass() {
        let net = ClosedNetwork {
            stations: vec![
                Station::queueing("a", 1.0),
                Station::queueing("b", 0.5),
                Station::queueing("c", 2.0),
            ],
            populations: vec![3, 5],
            visits: vec![vec![1.0, 2.0, 0.4], vec![1.0, 0.3, 1.0]],
        };
        let e = exact::solve(&net).unwrap();
        let s = amva::solve(&net).unwrap();
        let l = solve(&net).unwrap();
        let err_s: f64 = (0..2)
            .map(|i| rel_err(s.throughput[i], e.throughput[i]))
            .sum();
        let err_l: f64 = (0..2)
            .map(|i| rel_err(l.throughput[i], e.throughput[i]))
            .sum();
        assert!(err_l < err_s, "linearizer {err_l} vs schweitzer {err_s}");
        assert!(err_l < 0.02);
    }

    #[test]
    fn population_conservation() {
        let net = ClosedNetwork {
            stations: vec![Station::queueing("a", 1.0), Station::delay("z", 2.0)],
            populations: vec![4, 2],
            visits: vec![vec![1.0, 1.0], vec![2.0, 1.0]],
        };
        let l = solve(&net).unwrap();
        assert!(l.population_residual(&net) < 1e-6);
    }

    #[test]
    fn symmetric_path_matches_general_on_paper_default() {
        let mms = build_network(&SystemConfig::paper_default()).unwrap();
        let mut ws = SolverWorkspace::new();
        let sym = solve_mms_in(&mms, SolverOptions::default(), None, &mut ws).unwrap();
        let gen = solve(&mms.net).unwrap();
        assert_eq!(sym.diagnostics.solver, "linearizer");
        assert!(sym.diagnostics.max_residual_index < Some(mms.net.n_stations()));
        for i in 0..mms.net.n_classes() {
            assert!(rel_err(sym.throughput[i], gen.throughput[i]) < 1e-9);
            for (a, b) in sym.queue[i].iter().zip(&gen.queue[i]) {
                assert!((a - b).abs() < 1e-8, "class {i}: {a} vs {b}");
            }
        }
        assert!(sym.population_residual(&mms.net) < 1e-9);
    }

    #[test]
    fn handles_population_one_classes() {
        // Removing the single customer of a class empties the class; the
        // reduced network must be solvable (guards against div-by-zero).
        let net = ClosedNetwork {
            stations: vec![Station::queueing("a", 1.0), Station::queueing("b", 1.5)],
            populations: vec![1, 1],
            visits: vec![vec![1.0, 1.0], vec![1.0, 2.0]],
        };
        let l = solve(&net).unwrap();
        let e = exact::solve(&net).unwrap();
        for i in 0..2 {
            assert!(rel_err(l.throughput[i], e.throughput[i]) < 0.02);
        }
    }
}
