//! Construction of the MMS closed queueing network (paper Section 2).
//!
//! Station layout for a `P`-node machine (indices into
//! [`ClosedNetwork::stations`]):
//!
//! * `0   .. P`   — processors (`proc[j]`), service `R + C`,
//! * `P   .. 2P`  — memory modules (`mem[j]`), service `L` (or `L/c` with
//!   `c` memory ports, plus a compensating delay station — the Seidmann
//!   transformation),
//! * `2P  .. 3P`  — inbound switches (`in[j]`), service `S`,
//! * `3P  .. 4P`  — outbound switches (`out[j]`), service `S`,
//! * `4P  .. 5P`  — only when `memory_ports > 1`: per-node delay stations
//!   absorbing the non-queueing part of a multi-port memory's service.
//!
//! Classes: one per processor, population `n_t`. Class `i`'s reference
//! station is `proc[i]` (visit ratio 1), so the MVA throughput `λ_i` is the
//! rate at which processor `i` completes thread activations — the paper's
//! rate of memory-access issues.
//!
//! Visit ratios per thread cycle of class `i`:
//!
//! * `em[i][j]` — memory `j`: `1 − p_remote` locally, `p_remote · q_i(j)`
//!   remotely (`Σ_j em[i][j] = 1`).
//! * `eo[i][j]` — outbound switch `j`: the request leaves through
//!   `out[i]` (`eo[i][i] = p_remote`) and the response through `out[j]`
//!   (`eo[i][j] = em[i][j]`, `j ≠ i`) — the paper's observation that every
//!   remote access passing `out[j]` is served by memory `j`.
//! * `ei[i][j]` — inbound switch `j`: the number of times routes `i→m`
//!   (request) and `m→i` (response) *enter* node `j`, weighted by
//!   `em[i][m]`. A round trip over distance `h` makes `2h` inbound and `2`
//!   outbound visits, i.e. `2(h+1)` switch services — the `2(d_avg+1)·S`
//!   term of the paper's Equation 5.
//!
//! On a symmetric network ([`MmsNetwork::is_symmetric`]: a torus with a
//! translation-invariant pattern) class `i` is class 0 moved by node `i`,
//! so only class 0 is routed; the other classes' `em`/`ei`/`eo` rows and
//! `d_avg` are copied from class 0's through one tabulated node
//! translation (`crate::qn::translation`). Meshes and hot-spot patterns
//! run the same routing loop for every class. Either way class 0's rows
//! are computed the same way, so they do not depend on the symmetry.

use crate::error::Result;
use crate::num::exactly_zero;
use crate::params::SystemConfig;
use crate::qn::translation::Translation;
use crate::qn::{ClosedNetwork, Station};
use crate::topology::NodeId;

/// What role a station plays in the MMS network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StationKind {
    /// Multithreaded processor at a node.
    Processor(NodeId),
    /// Memory module at a node.
    Memory(NodeId),
    /// Inbound network switch at a node.
    InSwitch(NodeId),
    /// Outbound network switch at a node.
    OutSwitch(NodeId),
    /// Residual delay of a multi-ported memory (extension only).
    MemoryDelay(NodeId),
}

/// Index arithmetic for the fixed station layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StationIndex {
    /// Number of nodes.
    pub p: usize,
    /// Whether the `mem-delay` block exists.
    pub has_memory_delay: bool,
}

impl StationIndex {
    /// Station index of `proc[node]`.
    pub fn proc(&self, node: NodeId) -> usize {
        node
    }
    /// Station index of `mem[node]`.
    pub fn mem(&self, node: NodeId) -> usize {
        self.p + node
    }
    /// Station index of `in[node]`.
    pub fn insw(&self, node: NodeId) -> usize {
        2 * self.p + node
    }
    /// Station index of `out[node]`.
    pub fn outsw(&self, node: NodeId) -> usize {
        3 * self.p + node
    }
    /// Station index of `mem-delay[node]` (only if `has_memory_delay`).
    pub fn mem_delay(&self, node: NodeId) -> usize {
        debug_assert!(self.has_memory_delay);
        4 * self.p + node
    }
    /// Total number of stations.
    pub fn count(&self) -> usize {
        if self.has_memory_delay {
            5 * self.p
        } else {
            4 * self.p
        }
    }
    /// Classify a raw station index.
    ///
    /// # Panics
    ///
    /// On an index at or past [`StationIndex::count`]. The message
    /// distinguishes an index in the `mem-delay` block of a layout *without*
    /// that block (a layout mix-up) from a plainly out-of-range index.
    pub fn kind(&self, station: usize) -> StationKind {
        let (block, node) = (station / self.p, station % self.p);
        match block {
            0 => StationKind::Processor(node),
            1 => StationKind::Memory(node),
            2 => StationKind::InSwitch(node),
            3 => StationKind::OutSwitch(node),
            4 if self.has_memory_delay => StationKind::MemoryDelay(node),
            // lt-lint: allow(LT01, documented programmer-error panic: layout mix-up, split from out-of-range in PR 1)
            4 => panic!(
                "station index {station} addresses the mem-delay block, but this \
                 layout has no memory-delay stations (memory_ports <= 1); \
                 valid indices are 0..{}",
                self.count()
            ),
            // lt-lint: allow(LT01, documented programmer-error panic: station index out of range)
            _ => panic!(
                "station index {station} out of range for {} stations \
                 (p = {}, has_memory_delay = {})",
                self.count(),
                self.p,
                self.has_memory_delay
            ),
        }
    }
}

/// The MMS network: the generic [`ClosedNetwork`] plus the MMS-specific
/// bookkeeping (visit-ratio blocks, index map, per-class `d_avg`) that the
/// metric extraction in [`crate::metrics`] needs.
#[derive(Debug, Clone)]
pub struct MmsNetwork {
    /// The configuration this network was built from.
    pub cfg: SystemConfig,
    /// Solver-facing network.
    pub net: ClosedNetwork,
    /// Station index arithmetic.
    pub idx: StationIndex,
    /// `em[class][node]`: memory visit ratios.
    pub em: Vec<Vec<f64>>,
    /// `ei[class][node]`: inbound-switch visit ratios.
    pub ei: Vec<Vec<f64>>,
    /// `eo[class][node]`: outbound-switch visit ratios.
    pub eo: Vec<Vec<f64>>,
    /// Average remote-access distance per class.
    pub d_avg: Vec<f64>,
}

impl MmsNetwork {
    /// Whether every class sees an identical (translated) network, enabling
    /// the symmetric solver fast path: the topology must be
    /// vertex-transitive *and* the access pattern translation invariant.
    pub fn is_symmetric(&self) -> bool {
        is_symmetric(&self.cfg)
    }
}

/// [`MmsNetwork::is_symmetric`] of the network `cfg` builds.
fn is_symmetric(cfg: &SystemConfig) -> bool {
    cfg.arch.topology.is_vertex_transitive() && cfg.workload.pattern.is_translation_invariant()
}

/// Build the MMS closed queueing network from a validated configuration.
pub fn build_network(cfg: &SystemConfig) -> Result<MmsNetwork> {
    cfg.validate()?;
    let topo = cfg.arch.topology;
    let p = topo.nodes();
    let ports = cfg.arch.memory_ports;
    let has_memory_delay = ports > 1;
    let idx = StationIndex {
        p,
        has_memory_delay,
    };

    // --- stations -------------------------------------------------------
    // One block of `p` stations per kind, named by kind: the index tells
    // the nodes apart, so a build formats no names.
    let mut stations = Vec::with_capacity(idx.count());
    let mut push_kind = |station: Station| stations.extend((0..p).map(|_| station.clone()));
    push_kind(Station::queueing("proc", cfg.workload.processor_service()));
    // Seidmann transformation for c-port memory: a queueing station with
    // service L/c plus a delay station with service L(c-1)/c. For c = 1
    // this degenerates to the plain L queueing station.
    let l = cfg.arch.memory_latency;
    push_kind(Station::queueing("mem", l / ports as f64));
    let s = cfg.arch.switch_delay;
    push_kind(Station::queueing("in", s));
    push_kind(Station::queueing("out", s));
    if has_memory_delay {
        let residual = l * (ports as f64 - 1.0) / ports as f64;
        push_kind(Station::delay("mem-delay", residual));
    }

    // --- visit ratios ----------------------------------------------------
    // Route class 0 only when the other classes are its translations, and
    // every class otherwise.
    let translation = is_symmetric(cfg).then(|| Translation::new(&topo));
    let routed = if translation.is_some() { 1 } else { p };
    let mut em = vec![vec![0.0; p]; p];
    let mut ei = vec![vec![0.0; p]; p];
    let mut eo = vec![vec![0.0; p]; p];
    let mut d_avg = vec![0.0; p];
    for i in 0..routed {
        d_avg[i] = route_class(cfg, i, &mut em[i], &mut ei[i], &mut eo[i]);
    }
    if let Some(translation) = &translation {
        for rows in [&mut em, &mut ei, &mut eo] {
            let (row0, rest) = rows.split_at_mut(1);
            for (i, row) in rest.iter_mut().enumerate() {
                translation.row_into(i + 1, &row0[0], row);
            }
        }
        let d0 = d_avg[0];
        d_avg.fill(d0);
    }

    // --- assemble the visits matrix --------------------------------------
    let mut visits = vec![vec![0.0; idx.count()]; p];
    for i in 0..p {
        visits[i][idx.proc(i)] = 1.0;
        for j in 0..p {
            visits[i][idx.mem(j)] = em[i][j];
            visits[i][idx.insw(j)] = ei[i][j];
            visits[i][idx.outsw(j)] = eo[i][j];
            if has_memory_delay {
                visits[i][idx.mem_delay(j)] = em[i][j];
            }
        }
    }

    let net = ClosedNetwork {
        stations,
        populations: vec![cfg.workload.n_threads; p],
        visits,
    };
    // The translated rows are as valid as class 0's.
    if translation.is_some() {
        net.validate_class0()?;
    } else {
        net.validate()?;
    }
    Ok(MmsNetwork {
        cfg: cfg.clone(),
        net,
        idx,
        em,
        ei,
        eo,
        d_avg,
    })
}

/// Fill class `i`'s memory, inbound- and outbound-switch visit rows and
/// return its average remote-access distance. The rows arrive zeroed.
fn route_class(
    cfg: &SystemConfig,
    i: NodeId,
    em: &mut [f64],
    ei: &mut [f64],
    eo: &mut [f64],
) -> f64 {
    let topo = cfg.arch.topology;
    let p_remote = cfg.workload.p_remote;
    em[i] = 1.0 - p_remote;
    let mut d_avg = 0.0;
    if p_remote > 0.0 {
        let q = cfg.workload.pattern.remote_probs(&topo, i);
        eo[i] = p_remote;
        for j in 0..q.len() {
            if j == i || exactly_zero(q[j]) {
                continue;
            }
            let weight = p_remote * q[j];
            em[j] = weight;
            eo[j] += weight;
            d_avg += q[j] * topo.distance(i, j) as f64;
            // Request i -> j: inbound switch of every node entered.
            for &n in &topo.route(i, j) {
                ei[n] += weight;
            }
            // Response j -> i: likewise, ending at in[i].
            for &n in &topo.route(j, i) {
                ei[n] += weight;
            }
        }
    }
    d_avg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SystemConfig;
    use crate::topology::Topology;
    use crate::workload::AccessPattern;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn kind_covers_every_valid_index() {
        for has_memory_delay in [false, true] {
            let idx = StationIndex {
                p: 3,
                has_memory_delay,
            };
            for st in 0..idx.count() {
                let _ = idx.kind(st); // must not panic
            }
            assert_eq!(idx.kind(idx.mem(2)), StationKind::Memory(2));
        }
    }

    #[test]
    #[should_panic(expected = "no memory-delay stations")]
    fn kind_names_the_missing_mem_delay_block() {
        // Index 4p..5p without the mem-delay block: a layout mix-up, not a
        // generic out-of-range — the message must say so.
        let idx = StationIndex {
            p: 3,
            has_memory_delay: false,
        };
        idx.kind(4 * 3 + 1);
    }

    #[test]
    #[should_panic(expected = "out of range for 15 stations")]
    fn kind_reports_true_out_of_range() {
        let idx = StationIndex {
            p: 3,
            has_memory_delay: true,
        };
        idx.kind(5 * 3);
    }

    #[test]
    fn memory_visits_sum_to_one() {
        let mms = build_network(&SystemConfig::paper_default()).unwrap();
        for i in 0..mms.cfg.nodes() {
            assert_close(mms.em[i].iter().sum::<f64>(), 1.0, 1e-12);
        }
    }

    #[test]
    fn outbound_visits_sum_to_twice_p_remote() {
        let cfg = SystemConfig::paper_default();
        let mms = build_network(&cfg).unwrap();
        for i in 0..cfg.nodes() {
            assert_close(
                mms.eo[i].iter().sum::<f64>(),
                2.0 * cfg.workload.p_remote,
                1e-12,
            );
        }
    }

    #[test]
    fn inbound_visits_sum_to_twice_p_remote_d_avg() {
        let cfg = SystemConfig::paper_default();
        let mms = build_network(&cfg).unwrap();
        for i in 0..cfg.nodes() {
            assert_close(
                mms.ei[i].iter().sum::<f64>(),
                2.0 * cfg.workload.p_remote * mms.d_avg[i],
                1e-12,
            );
        }
    }

    #[test]
    fn d_avg_matches_pattern_value() {
        let cfg = SystemConfig::paper_default();
        let mms = build_network(&cfg).unwrap();
        let expect = cfg.workload.pattern.d_avg(&cfg.arch.topology, 0);
        assert_close(mms.d_avg[0], expect, 1e-12);
        assert_close(mms.d_avg[0], 1.7333333333, 1e-6);
    }

    #[test]
    fn local_only_workload_has_no_switch_visits() {
        let cfg = SystemConfig::paper_default().with_p_remote(0.0);
        let mms = build_network(&cfg).unwrap();
        for i in 0..cfg.nodes() {
            assert!(mms.ei[i].iter().all(|&v| v == 0.0));
            assert!(mms.eo[i].iter().all(|&v| v == 0.0));
            assert_close(mms.em[i][i], 1.0, 1e-12);
        }
    }

    #[test]
    fn visits_are_translation_invariant_on_torus() {
        let cfg = SystemConfig::paper_default();
        let topo = cfg.arch.topology;
        let mms = build_network(&cfg).unwrap();
        for i in 0..cfg.nodes() {
            for j in 0..cfg.nodes() {
                // class i at node j == class 0 at node (j - i).
                let base = topo.untranslate(j, i);
                assert_close(mms.em[i][j], mms.em[0][base], 1e-12);
                assert_close(mms.ei[i][j], mms.ei[0][base], 1e-12);
                assert_close(mms.eo[i][j], mms.eo[0][base], 1e-12);
            }
        }
    }

    #[test]
    fn uniform_pattern_balances_switch_load() {
        let cfg = SystemConfig::paper_default().with_pattern(AccessPattern::Uniform);
        let mms = build_network(&cfg).unwrap();
        // Total inbound load per switch (summed over classes) must be equal
        // by symmetry of the torus + uniform pattern + invariant routing.
        let p = cfg.nodes();
        let mut totals = vec![0.0; p];
        for i in 0..p {
            #[allow(clippy::needless_range_loop)]
            for j in 0..p {
                totals[j] += mms.ei[i][j];
            }
        }
        for j in 1..p {
            assert_close(totals[j], totals[0], 1e-9);
        }
    }

    #[test]
    fn station_count_and_kinds() {
        let cfg = SystemConfig::paper_default();
        let mms = build_network(&cfg).unwrap();
        assert_eq!(mms.net.n_stations(), 64);
        assert_eq!(mms.idx.kind(0), StationKind::Processor(0));
        assert_eq!(mms.idx.kind(16), StationKind::Memory(0));
        assert_eq!(mms.idx.kind(35), StationKind::InSwitch(3));
        assert_eq!(mms.idx.kind(63), StationKind::OutSwitch(15));
    }

    #[test]
    fn multi_port_memory_adds_delay_block() {
        let cfg = SystemConfig::paper_default().with_memory_ports(2);
        let mms = build_network(&cfg).unwrap();
        assert_eq!(mms.net.n_stations(), 80);
        let mem = &mms.net.stations[mms.idx.mem(0)];
        assert_close(mem.service, 0.5, 1e-12);
        let delay = &mms.net.stations[mms.idx.mem_delay(0)];
        assert_close(delay.service, 0.5, 1e-12);
        assert_eq!(delay.discipline, crate::qn::Discipline::Delay);
    }

    #[test]
    fn mesh_topology_builds() {
        let cfg = SystemConfig::paper_default().with_topology(Topology::mesh(3));
        let mms = build_network(&cfg).unwrap();
        assert!(!mms.is_symmetric());
        for i in 0..cfg.with_topology(Topology::mesh(3)).nodes() {
            assert_close(mms.em[i].iter().sum::<f64>(), 1.0, 1e-12);
        }
    }
}
