//! Exact multi-class Mean Value Analysis.
//!
//! The recursion of Reiser & Lavenberg: for population vector `n`,
//!
//! ```text
//! w_{i,m}(n) = s_m · (1 + Q_m(n − 1_i))      (queueing stations)
//! w_{i,m}(n) = s_m                            (delay stations)
//! λ_i(n)     = n_i / Σ_m e_{i,m} w_{i,m}(n)
//! Q_m(n)     = Σ_i λ_i(n) e_{i,m} w_{i,m}(n)
//! ```
//!
//! Only the *total* queue length `Q_m` per station has to be memoized for
//! every population vector `≤ N`, because service times are
//! class-independent (the product-form condition for FCFS stations). The
//! state space is `∏(N_i + 1)`, enumerated in mixed-radix order so every
//! `n − 1_i` precedes `n`.
//!
//! **Orbit reduction.** On a symmetric MMS network (a torus with a
//! translation-invariant pattern, [`MmsNetwork::is_symmetric`]) moving
//! every class and every station by node `g` maps the network onto
//! itself, so `Q_{g(m)}(g·n) = Q_m(n)`. The table then keeps one row per
//! orbit `{g·n}` of population vectors, computed at the orbit's
//! lowest-ranked member: each predecessor `n − 1_i` of that member has a
//! lower rank, and so has its own orbit's representative, whose row is
//! therefore already there. A per-rank index names every population
//! vector's representative row and the translation that maps the
//! representative onto it; the row is read through that translation's
//! station permutation. On a 2×2 torus at `n_t = 12` that is 7,267 rows
//! for 28,561 lattice points. A network without the symmetry runs the same
//! recursion under the identity group: one row per lattice point.
//!
//! The index and the table live in the caller's [`SolverWorkspace`] on
//! the path the Auto ladder and [`crate::analysis::SolverChoice::Exact`]
//! run; [`solve`] uses a fresh one. The entry budget
//! ([`DEFAULT_ENTRY_LIMIT`], and the Auto ladder's own) counts the
//! unreduced lattice, so which inputs succeed does not depend on the
//! symmetry.

use crate::error::{LtError, Result};
use crate::mva::{MvaSolution, SolverDiagnostics, SolverWorkspace};
use crate::num::exactly_zero;
use crate::qn::build::MmsNetwork;
use crate::qn::translation::Translation;
use crate::qn::{ClosedNetwork, Discipline};

/// Hard ceiling on `states × stations` table entries (~1.6 GiB of f64 at
/// the default). Exceeding it yields [`LtError::ProblemTooLarge`].
pub const DEFAULT_ENTRY_LIMIT: u128 = 200_000_000;

/// Solve a network exactly. Fails with [`LtError::ProblemTooLarge`] when the
/// population lattice would exceed [`DEFAULT_ENTRY_LIMIT`] table entries.
pub fn solve(net: &ClosedNetwork) -> Result<MvaSolution> {
    solve_with_limit(net, DEFAULT_ENTRY_LIMIT)
}

/// [`solve`] with an explicit entry budget.
pub fn solve_with_limit(net: &ClosedNetwork, entry_limit: u128) -> Result<MvaSolution> {
    let group = Group::identity(net.n_classes(), net.n_stations());
    solve_grouped(net, &group, entry_limit, &mut SolverWorkspace::new())
}

/// Solve an MMS network exactly through caller-owned scratch memory,
/// folding the lattice by node translation when
/// [`MmsNetwork::is_symmetric`] holds. Agrees with [`solve`] on
/// `mms.net` up to summation order.
pub(crate) fn solve_mms_in(mms: &MmsNetwork, ws: &mut SolverWorkspace) -> Result<MvaSolution> {
    let net = &mms.net;
    let group = if mms.is_symmetric() {
        Group::translations(&Translation::new(&mms.cfg.arch.topology), net.n_stations())
    } else {
        Group::identity(net.n_classes(), net.n_stations())
    };
    let sol = solve_grouped(net, &group, DEFAULT_ENTRY_LIMIT, ws);
    ws.trim_lattice();
    sol
}

/// A symmetry group of the network, as permutations. Element `g` moves a
/// population vector `n` to `g·n` with `(g·n)_j = n[class(g)[j]]`, and
/// `Q_st(g·n) = Q_{station(g)[st]}(n)`. Element 0 is the identity.
struct Group {
    order: usize,
    c: usize,
    m: usize,
    /// `classes[g * c + j]`.
    classes: Vec<usize>,
    /// `stations[g * m + st]`.
    stations: Vec<usize>,
}

impl Group {
    /// The trivial group: every lattice point is its own orbit.
    fn identity(c: usize, m: usize) -> Self {
        Group {
            order: 1,
            c,
            m,
            classes: (0..c).collect(),
            stations: (0..m).collect(),
        }
    }

    /// The node translations of a symmetric MMS network with `m`
    /// stations: classes are nodes, and station `(kind, v)` reads the
    /// representative's `(kind, v − g)`.
    fn translations(translation: &Translation, m: usize) -> Self {
        let p = translation.nodes();
        let mut classes = Vec::with_capacity(p * p);
        let mut stations = Vec::with_capacity(p * m);
        for g in 0..p {
            let shift = translation.class(g);
            classes.extend_from_slice(shift);
            stations.extend((0..m).map(|st| st - st % p + shift[st % p]));
        }
        Group {
            order: p,
            c: p,
            m,
            classes,
            stations,
        }
    }

    fn class(&self, g: usize) -> &[usize] {
        &self.classes[g * self.c..(g + 1) * self.c]
    }

    fn station(&self, g: usize) -> &[usize] {
        &self.stations[g * self.m..(g + 1) * self.m]
    }
}

/// Index entry of a lattice point not yet reached by any orbit.
const UNSEEN: (u32, u32) = (u32::MAX, u32::MAX);

/// Step a mixed-radix counter to the next rank.
fn advance(digits: &mut [usize], radices: &[usize]) {
    for (d, &r) in digits.iter_mut().zip(radices) {
        *d += 1;
        if *d < r {
            return;
        }
        *d = 0;
    }
}

/// The recursion of the module docs over the orbits of `group`.
fn solve_grouped(
    net: &ClosedNetwork,
    group: &Group,
    entry_limit: u128,
    ws: &mut SolverWorkspace,
) -> Result<MvaSolution> {
    net.validate()?;
    let c = net.n_classes();
    let m = net.n_stations();
    // The station tables flat: `visits[i * m + st]`, and per station its
    // service time and whether it queues.
    let visits = net.visits.concat();
    let service: Vec<f64> = net.stations.iter().map(|st| st.service).collect();
    let queueing: Vec<bool> = net
        .stations
        .iter()
        .map(|st| st.discipline == Discipline::Queueing)
        .collect();

    // Mixed-radix layout over the population lattice.
    let radices: Vec<usize> = net.populations.iter().map(|&n| n + 1).collect();
    let mut states: u128 = 1;
    for &r in &radices {
        states = states.saturating_mul(r as u128);
    }
    let entries = states.saturating_mul(m as u128);
    // The index stores ranks as u32; a lattice past that could not be
    // tabulated in memory anyway.
    if entries > entry_limit || states > u128::from(u32::MAX) {
        return Err(LtError::ProblemTooLarge {
            states,
            limit: entry_limit,
        });
    }
    let states = states as usize;

    // strides[i] = product of radices[..i]; rank(n) = Σ n_i · strides[i].
    let mut strides = vec![1usize; c];
    for i in 1..c {
        strides[i] = strides[i - 1] * radices[i - 1];
    }

    // Orbit index: walking ranks upward, the first member of an orbit met
    // is its lowest-ranked one, which becomes the representative and
    // registers every image g·n under its row.
    let index = ws.orbit_index(states, UNSEEN);
    let mut digits = vec![0usize; c];
    let mut rows: u32 = 0;
    for rank in 0..states {
        if rank > 0 {
            advance(&mut digits, &radices);
        }
        if index[rank] != UNSEEN {
            continue;
        }
        for g in 0..group.order {
            let image: usize = group
                .class(g)
                .iter()
                .zip(&strides)
                .map(|(&src, &stride)| digits[src] * stride)
                .sum();
            if index[image] == UNSEEN {
                index[image] = (rows, g as u32);
            }
        }
        rows += 1;
    }

    // Q[row][m] = total mean queue length at station m for that orbit.
    let (index, q) = ws.lattice_table(rows as usize * m);
    let lookup = |rank: usize| {
        let (row, g) = index[rank];
        (row as usize * m, group.station(g as usize))
    };
    digits.fill(0);
    let mut wait_scratch = vec![0.0f64; m];

    // Throughputs at the full population, filled when rank == states - 1.
    let mut lambda = vec![0.0f64; c];

    for (rank, &(row, g)) in index.iter().enumerate().skip(1) {
        advance(&mut digits, &radices);
        if g != 0 {
            continue; // an image of a representative already tabulated
        }
        let (done, current) = q.split_at_mut(row as usize * m);
        let current = &mut current[..m];
        // Accumulate Q_m(n) = Σ_i λ_i e w over classes present.
        // First compute λ_i and w_{i,m} for each class with n_i > 0.
        for i in 0..c {
            if digits[i] == 0 {
                continue;
            }
            // Q(n − 1_i), read through its representative.
            let (prev_base, shift) = lookup(rank - strides[i]);
            let prev = &done[prev_base..prev_base + m];
            let visits_i = &visits[i * m..(i + 1) * m];
            let mut cycle = 0.0;
            for st in 0..m {
                let e = visits_i[st];
                if exactly_zero(e) {
                    wait_scratch[st] = 0.0;
                    continue;
                }
                let s = service[st];
                let w = if queueing[st] {
                    s * (1.0 + prev[shift[st]])
                } else {
                    s
                };
                wait_scratch[st] = w;
                cycle += e * w;
            }
            if cycle <= 0.0 {
                return Err(LtError::DegenerateModel(format!(
                    "exact MVA: class {i} has zero total service demand \
                     (cycle time 0); its throughput is undefined"
                )));
            }
            let lam = digits[i] as f64 / cycle;
            if rank == states - 1 {
                lambda[i] = lam;
            }
            for st in 0..m {
                let e = visits_i[st];
                if e > 0.0 {
                    current[st] += lam * e * wait_scratch[st];
                }
            }
        }
    }

    // Recover per-class waits and queues at the full population N.
    let full = states - 1;
    let mut wait = vec![vec![0.0; m]; c];
    let mut queue = vec![vec![0.0; m]; c];
    for i in 0..c {
        let (prev_base, shift) = lookup(full - strides[i]);
        let prev = &q[prev_base..prev_base + m];
        for st in 0..m {
            let e = visits[i * m + st];
            if exactly_zero(e) {
                continue;
            }
            let s = service[st];
            let w = if queueing[st] {
                s * (1.0 + prev[shift[st]])
            } else {
                s
            };
            wait[i][st] = w;
            queue[i][st] = lambda[i] * e * w;
        }
    }

    Ok(MvaSolution {
        throughput: lambda,
        wait,
        queue,
        iterations: 0,
        diagnostics: SolverDiagnostics::direct("exact-mva"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mva::testutil::{single_class_reference, two_station};
    use crate::qn::{ClosedNetwork, Station};

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn single_class_matches_reference_recursion() {
        for n in [1usize, 2, 5, 12] {
            for (s0, s1) in [(1.0, 1.0), (1.0, 3.0), (0.5, 2.5)] {
                let net = two_station(n, s0, s1);
                let sol = solve(&net).unwrap();
                let x = single_class_reference(&[s0, s1], n);
                assert_close(sol.throughput[0], x, 1e-12);
                assert_close(sol.population_residual(&net), 0.0, 1e-9);
            }
        }
    }

    #[test]
    fn single_customer_sees_no_queueing() {
        // With N = 1 the customer never queues: cycle = Σ demands.
        let net = two_station(1, 1.0, 2.0);
        let sol = solve(&net).unwrap();
        assert_close(sol.throughput[0], 1.0 / 3.0, 1e-12);
        assert_close(sol.wait[0][0], 1.0, 1e-12);
        assert_close(sol.wait[0][1], 2.0, 1e-12);
    }

    #[test]
    fn balanced_network_closed_form() {
        // Balanced single-class network with M identical stations of
        // demand d: X(n) = n / (d (n + M - 1)).
        let m_stations = 3usize;
        let d = 2.0;
        let n = 7usize;
        let net = ClosedNetwork {
            stations: (0..m_stations)
                .map(|i| Station::queueing(format!("s{i}"), d))
                .collect(),
            populations: vec![n],
            visits: vec![vec![1.0; m_stations]],
        };
        let sol = solve(&net).unwrap();
        let expect = n as f64 / (d * (n as f64 + m_stations as f64 - 1.0));
        assert_close(sol.throughput[0], expect, 1e-12);
    }

    #[test]
    fn delay_station_acts_as_pure_latency() {
        // One queueing station (demand 1) + one delay station (demand z):
        // the classic machine-repairman: X(n) satisfies MVA with w_delay=z.
        let net = ClosedNetwork {
            stations: vec![Station::queueing("q", 1.0), Station::delay("think", 4.0)],
            populations: vec![3],
            visits: vec![vec![1.0, 1.0]],
        };
        let sol = solve(&net).unwrap();
        // Hand recursion: n=1: w=(1,4), X=1/5, q=(0.2,0.8)
        // n=2: w=(1.2,4), X=2/5.2, q=(0.4615..,3.0769../4->) ...
        let mut qq = 0.0;
        let mut x = 0.0;
        for pop in 1..=3 {
            let w0 = 1.0 + qq;
            let cyc = w0 + 4.0;
            x = pop as f64 / cyc;
            qq = x * w0;
        }
        assert_close(sol.throughput[0], x, 1e-12);
        assert_close(sol.wait[0][1], 4.0, 1e-12);
    }

    #[test]
    fn two_class_symmetric_classes_get_equal_throughput() {
        // Two classes sharing two stations symmetrically.
        let net = ClosedNetwork {
            stations: vec![Station::queueing("a", 1.0), Station::queueing("b", 1.0)],
            populations: vec![2, 2],
            visits: vec![vec![1.0, 1.0], vec![1.0, 1.0]],
        };
        let sol = solve(&net).unwrap();
        assert_close(sol.throughput[0], sol.throughput[1], 1e-12);
        assert_close(sol.population_residual(&net), 0.0, 1e-9);
    }

    #[test]
    fn two_class_asymmetric_loads() {
        // Class 0 hammers station a, class 1 hammers station b; both also
        // visit the other station lightly. Verify conservation + ordering.
        let net = ClosedNetwork {
            stations: vec![Station::queueing("a", 1.0), Station::queueing("b", 1.0)],
            populations: vec![3, 1],
            visits: vec![vec![1.0, 0.1], vec![0.1, 1.0]],
        };
        let sol = solve(&net).unwrap();
        assert!(sol.throughput[1] > 0.0);
        assert_close(sol.population_residual(&net), 0.0, 1e-9);
        // Class 0 queues mostly at a.
        assert!(sol.queue[0][0] > sol.queue[0][1]);
    }

    #[test]
    fn utilization_never_exceeds_one() {
        let net = two_station(20, 1.0, 0.3);
        let sol = solve(&net).unwrap();
        assert!(sol.utilization(&net, 0) <= 1.0 + 1e-9);
        assert!(sol.utilization(&net, 0) > 0.99, "saturated bottleneck");
    }

    #[test]
    fn refuses_oversized_lattices() {
        let net = ClosedNetwork {
            stations: vec![Station::queueing("a", 1.0)],
            populations: vec![1000, 1000, 1000, 1000],
            visits: vec![vec![1.0]; 4],
        };
        match solve(&net) {
            Err(LtError::ProblemTooLarge { .. }) => {}
            other => panic!("expected ProblemTooLarge, got {other:?}"),
        }
    }
}
