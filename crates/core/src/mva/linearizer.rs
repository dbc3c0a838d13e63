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
//! The core sweeps the classes **Gauss–Seidel**: class `i`'s step sees
//! the new rows of classes `0..i` in the per-station totals. The fixed
//! point is Jacobi's (an unchanged iterate gives unchanged totals), and
//! it is reached in fewer iterations, as each class's update reaches the
//! classes after it within the same step.
//!
//! **Translation-symmetric path** (`solve_mms_in`, the entry
//! [`crate::analysis::SolverChoice::Linearizer`] runs). On a torus with a
//! translation-invariant access pattern every class is a node translation
//! of class 0, and so is every reduced network: `N − 1_i` is `N − 1_0`
//! moved by `i`, hence `F_{j,(kind,v)}(i) = F_{j−i,(kind,v−i)}(0)`. Each
//! outer sweep then solves only `N − 1_0` with the general core and keeps
//! only its row `F(0)`. The core's correction rows read `F(i)` through
//! the translation: with `N' = N − 1_0` and `S = Σ_j F(0)[j]`,
//!
//! ```text
//! base_i = row_into(i, n_t·S − F(0)[0 − i] − [N'_i > 0]·F(0)[0]) ,
//! ```
//!
//! `O(M)` per class. The full-population solve is the symmetric solver's
//! `O(M)` class-0 fixed point ([`crate::mva::symmetric`]) plus the
//! correction row `n_t·S − F(0)[0]`. A sweep costs one `O(C·M)` and one
//! `O(M)` solve instead of `C + 1` `O(C·M)` solves, and it reads only
//! class 0's visit row. Its diagnostics come from the class-0 solve, so
//! `max_residual_index` indexes class 0's station row, as it does for
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
/// split out of the [`SolverWorkspace`] once per solve. A core solve
/// reads its correction rows from `base` and leaves its solution in
/// `state` (queues), `wait` and `throughput`.
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

/// Size `ws` for `net`, copy the model tables in, and split it. With a
/// `translation` (the symmetric path) the deviation table holds `F(0)`
/// only and every visit row is translated from class 0's; otherwise it
/// holds every `F(i)` and the rows are copied.
fn split<'a>(
    net: &ClosedNetwork,
    translation: Option<&Translation>,
    ws: &'a mut SolverWorkspace,
) -> Split<'a> {
    let (c, m) = (net.n_classes(), net.n_stations());
    let deviations = if translation.is_some() {
        c * m
    } else {
        c * c * m
    };
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
    } = ws.scratch(c, m, Some(deviations));
    match translation {
        Some(translation) => {
            for (i, dst) in visits.chunks_mut(m).enumerate() {
                translation.row_into(i, &net.visits[0], dst);
            }
        }
        None => {
            for (dst, row) in visits.chunks_mut(m).zip(&net.visits) {
                dst.copy_from_slice(row);
            }
        }
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
    let full = &net.populations;

    let Split {
        flat,
        mut bufs,
        fractions,
        aux,
    } = split(net, None, ws);

    // Fraction-deviation table `F[(i·C + j)·M + st]` (zeroed by `scratch`):
    // deviation of class `j` at station `st` caused by removing one
    // class-`i` customer. A sweep's reduced solves all read the previous
    // sweep's table, so the new deviations collect in `pending` until the
    // sweep's last reduced solve.
    let mut pending = vec![0.0; c * c * m];
    let first_init = match usable_warm(warm, c * m) {
        Some(w) => Init::Warm(w),
        None => Init::Cold,
    };
    fill_base(fractions, full, m, bufs.base);
    let mut last = core(&flat, full, opts, first_init, &mut bufs)?;
    // Iteration/extrapolation/wall-time totals over *all* inner solves (the
    // full-population one plus every reduced-population one), folded into
    // the final solution's diagnostics at the end.
    let mut spent = last.clone();

    let mut pop_reduced = full.clone();
    for _sweep in 0..OUTER_SWEEPS {
        // Warm start every inner solve of this sweep from the current
        // full-population solution — the reduced networks differ by one
        // customer, so their fixed points are close. `aux` keeps that
        // snapshot while `bufs.state` is overwritten by the inner solves.
        aux.copy_from_slice(bufs.state);

        // Solve each N − 1_i with the current deviation estimates.
        for i in 0..c {
            pop_reduced[i] -= 1;
            if pop_reduced.iter().all(|&n| n == 0) {
                pop_reduced[i] += 1;
                continue;
            }
            fill_base(fractions, &pop_reduced, m, bufs.base);
            let init = Init::WarmScaled {
                queue: &aux[..],
                class: i,
                scale: pop_reduced[i] as f64 / full[i] as f64,
            };
            spent.absorb(&core(&flat, &pop_reduced, opts, init, &mut bufs)?);
            for j in 0..c {
                deviation_row(
                    &mut pending[(i * c + j) * m..(i * c + j + 1) * m],
                    &bufs.state[j * m..(j + 1) * m],
                    &aux[j * m..(j + 1) * m],
                    full[j],
                    pop_reduced[j],
                );
            }
            pop_reduced[i] += 1;
        }
        fractions.copy_from_slice(&pending);
        fill_base(fractions, full, m, bufs.base);
        last = core(&flat, full, opts, Init::Warm(&aux[..]), &mut bufs)?;
        spent.absorb(&last);
    }
    // Keep the final solve's traces/convergence; report cumulative effort.
    total_effort(&mut last, &spent);
    Ok(MvaSolution {
        throughput: bufs.throughput.clone(),
        wait: bufs.wait.chunks(m).map(<[f64]>::to_vec).collect(),
        queue: bufs.state.chunks(m).map(<[f64]>::to_vec).collect(),
        iterations: spent.iterations,
        diagnostics: last,
    })
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
    net.validate_class0()?;
    let c = net.n_classes();
    let m = net.n_stations();
    let full = &net.populations;
    let translation = Translation::new(&mms.cfg.arch.topology);

    let Split {
        flat,
        mut bufs,
        fractions,
        aux,
    } = split(net, Some(&translation), ws);

    // `fractions` holds `F(0)`, row `j` at `[j·M, (j + 1)·M)`, zero until
    // the first reduced solve. The class-0 iterate of the full-population
    // solves lives in `state[..m]`, their correction row in `base[..m]`;
    // the core rebuilds all of `base` before each reduced solve.
    seed_class0(mms, warm, &mut bufs.state[..m]);
    let (mut last, mut lambda) = full_class0(mms, opts, &mut bufs)?;
    let mut spent = last.clone();

    let mut pop_reduced = full.clone();
    pop_reduced[0] = full[0].saturating_sub(1);
    let reduced_empty = pop_reduced.iter().all(|&n| n == 0);
    let scale = pop_reduced[0] as f64 / full[0] as f64;
    for _sweep in 0..OUTER_SWEEPS {
        // The current full solution for every class: it warms N − 1_0 and
        // enters the deviations.
        for (i, row) in aux.chunks_mut(m).enumerate() {
            translation.row_into(i, &bufs.state[..m], row);
        }
        if !reduced_empty {
            translated_base(
                &translation,
                fractions,
                &pop_reduced,
                bufs.totals,
                bufs.base,
            );
            let init = Init::WarmScaled {
                queue: &aux[..],
                class: 0,
                scale,
            };
            spent.absorb(&core(&flat, &pop_reduced, opts, init, &mut bufs)?);
            for j in 0..c {
                deviation_row(
                    &mut fractions[j * m..(j + 1) * m],
                    &bufs.state[j * m..(j + 1) * m],
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

/// Every class's correction row at population `pop` from the full
/// `C²·M` deviation table: `O(C²·M)`.
fn fill_base(fractions: &[f64], pop: &[usize], m: usize, base: &mut [f64]) {
    for (i, row) in base.chunks_mut(m).enumerate() {
        correction_row(fractions, pop, i, m, row);
    }
}

/// Every class's correction row at the symmetric path's `pop = N − 1_0`
/// from `F(0)` alone, through the translation (module docs): `O(M)` per
/// class. `sum` (`M` entries) receives `S = Σ_j F(0)[j]`.
fn translated_base(
    translation: &Translation,
    f0: &[f64],
    pop: &[usize],
    sum: &mut [f64],
    base: &mut [f64],
) {
    let m = sum.len();
    let p = translation.nodes();
    let n_t = (pop[0] + 1) as f64;
    sum.iter_mut().for_each(|s| *s = 0.0);
    for row in f0.chunks(m) {
        for (s, &f) in sum.iter_mut().zip(row) {
            *s += f;
        }
    }
    let own = &f0[..m];
    for (i, out) in base.chunks_mut(m).enumerate() {
        // `F(i)[j]` is `F(0)[j − i]` translated by `i`; `j = 0` is the
        // class one customer short, and `F(i)[i]` is `F(0)[0]`.
        let shift = translation.class(i);
        let short = &f0[shift[0] * m..(shift[0] + 1) * m];
        let own_weight = if pop[i] > 0 { 1.0 } else { 0.0 };
        for (((dst, s), f_short), f_own) in out
            .chunks_mut(p)
            .zip(sum.chunks(p))
            .zip(short.chunks(p))
            .zip(own.chunks(p))
        {
            for (d, &u) in dst.iter_mut().zip(shift) {
                *d = n_t * s[u] - f_short[u] - own_weight * f_own[u];
            }
        }
    }
}

/// Schweitzer-style fixed point at population `pop`, with arriving-customer
/// queue estimates corrected by the rows the caller left in `bufs.base`.
///
/// The corrected estimate `Σ_j (N_j − δ_ij)(n_{j,st}/N_j + F_{i,j,st})`
/// expands to `T_st − n_{i,st}/N_i + base_{i,st}` with
/// `T_st = Σ_j n_{j,st}` and `base_{i,st} = Σ_j N_j·F_{i,j,st} − F_{i,i,st}`
/// — `base` is constant for the whole solve, so each iteration is `O(C·M)`
/// instead of `O(C²·M)`. The classes are swept Gauss–Seidel: once class
/// `i`'s new row is written, `T` takes it in place of the old one, so
/// the classes after it see it (an empty class's row leaves `T`). The
/// solution stays in `bufs.state`, `bufs.wait` and `bufs.throughput`.
fn core(
    flat: &Flat,
    pop: &[usize],
    opts: SolverOptions,
    init: Init<'_>,
    bufs: &mut CoreBufs<'_>,
) -> Result<SolverDiagnostics> {
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

    solve_fixed_point_in(
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
                let row = &queue[i * m..(i + 1) * m];
                let next_i = &mut next[i * m..(i + 1) * m];
                let wait_i = &mut wait[i * m..(i + 1) * m];
                if pop[i] == 0 {
                    next_i.iter_mut().for_each(|q| *q = 0.0);
                    wait_i.iter_mut().for_each(|w| *w = 0.0);
                    throughput[i] = 0.0;
                    for (t, &q) in totals.iter_mut().zip(row) {
                        *t -= q;
                    }
                    continue;
                }
                let base_i = &base[i * m..(i + 1) * m];
                let visits_i = &flat.visits[i * m..(i + 1) * m];
                let inv_ni = 1.0 / pop[i] as f64;
                let mut cycle = 0.0;
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
                    let q = if exactly_zero(e) {
                        0.0
                    } else {
                        lam * e * wait_i[st]
                    };
                    next_i[st] = q;
                    totals[st] += q - row[st];
                }
            }
            Ok(())
        },
    )
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

    /// `translated_base` against the `C²·M` fill it replaces: the table
    /// `F(i)[j][(kind, v)] = F(0)[j − i][(kind, v − i)]` written out with
    /// `Topology::untranslate`, then `correction_row` for every class.
    #[test]
    fn translated_base_matches_the_full_table_fill() {
        use crate::topology::Topology;
        let mut seed = 0x5eed_u64;
        let mut unit = || {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for (topo, kinds) in [
            (Topology::torus(3), 4),
            (Topology::torus(4), 4),
            (Topology::rect_torus(3, 4), 5),
        ] {
            let (c, translation) = (topo.nodes(), Translation::new(&topo));
            let m = kinds * c;
            let f0: Vec<f64> = (0..c * m).map(|_| unit()).collect();
            let mut table = vec![0.0; c * c * m];
            for i in 0..c {
                for j in 0..c {
                    let src = topo.untranslate(j, i);
                    for st in 0..m {
                        let (kind, v) = (st / c, st % c);
                        table[(i * c + j) * m + st] =
                            f0[src * m + kind * c + topo.untranslate(v, i)];
                    }
                }
            }
            for n_t in [1usize, 2, 7] {
                let mut pop = vec![n_t; c];
                pop[0] -= 1;
                let mut want = vec![0.0; c * m];
                fill_base(&table, &pop, m, &mut want);
                let (mut sum, mut got) = (vec![0.0; m], vec![0.0; c * m]);
                translated_base(&translation, &f0, &pop, &mut sum, &mut got);
                for (k, (x, y)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        (x - y).abs() <= 1e-14 * y.abs(),
                        "{topo:?} n_t={n_t} entry {k}: {x} vs {y}"
                    );
                }
            }
        }
    }

    /// The Gauss–Seidel core's iteration counts on three loaded 4×4
    /// configurations, against the Jacobi core it replaced (364, 312 and
    /// 404 total iterations; 286, 236 and 262 with Gauss–Seidel).
    #[test]
    fn gauss_seidel_cuts_iterations_on_loaded_4x4_tori() {
        let base = SystemConfig::paper_default().with_switch_delay(2.0);
        for (cfg, jacobi) in [
            (base.with_n_threads(12).with_p_remote(0.5), 364),
            (base.with_n_threads(6).with_p_remote(0.45), 312),
            (base.with_n_threads(8).with_p_remote(0.55), 404),
        ] {
            let mms = build_network(&cfg).unwrap();
            let sol = solve_mms_in(
                &mms,
                SolverOptions::default(),
                None,
                &mut SolverWorkspace::new(),
            )
            .unwrap();
            assert!(
                sol.iterations * 10 <= jacobi * 9,
                "{cfg:?}: {} iterations against Jacobi's {jacobi}",
                sol.iterations
            );
        }
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
