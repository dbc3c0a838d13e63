//! Node translations of a torus, tabulated once per use.
//!
//! The paper's SPMD machine is a torus on which every processor runs the
//! same program, and it reports every measure for one representative
//! processor (Section 2). With a translation-invariant access pattern
//! ([`crate::qn::build::MmsNetwork::is_symmetric`]) the whole MMS network
//! has that symmetry: class `i` sees at node `v` exactly what class 0 sees
//! at node `v − i`. So class 0's values determine every class's, and
//! [`Translation`] is the table that copies them: the network build
//! ([`crate::qn::build`]) routes class 0 only and translates its rows,
//! exact MVA ([`crate::mva::exact`]) keeps one table row per orbit of
//! population vectors and reads the others through a translation, and the
//! symmetric Bard–Schweitzer and Linearizer paths
//! ([`crate::mva::symmetric`], [`crate::mva::linearizer`]) expand their
//! class-0 solution to every class.

use crate::topology::Topology;

/// The `P` translations of a `P`-node torus: `class(i)[v]` is `v − i`,
/// the node whose class-0 value class `i` sees at node `v`. Classes are
/// nodes, so `class(i)[j]` is also class `j` as seen from class `i`, and
/// row `i` read as a permutation maps node `v` back along translation `i`.
pub(crate) struct Translation {
    p: usize,
    table: Vec<usize>,
}

impl Translation {
    /// Tabulate the translations of a torus (`topo` must be
    /// vertex-transitive). Each dimension of `v − i` is a rotation of
    /// `0..k`, so the `P²` table is written without the divisions
    /// [`Topology::untranslate`] spends per entry.
    pub(crate) fn new(topo: &Topology) -> Self {
        debug_assert!(topo.is_vertex_transitive(), "translation requires a torus");
        let (kx, ky) = (topo.k(), topo.ky());
        let p = kx * ky;
        let mut table = Vec::with_capacity(p * p);
        for iy in 0..ky {
            for ix in 0..kx {
                for y in (ky - iy..ky).chain(0..ky - iy) {
                    table.extend((kx - ix..kx).chain(0..kx - ix).map(|x| y * kx + x));
                }
            }
        }
        Translation { p, table }
    }

    /// Number of nodes (and classes, and translations).
    pub(crate) fn nodes(&self) -> usize {
        self.p
    }

    /// The `p`-entry translation row of class `i`.
    pub(crate) fn class(&self, i: usize) -> &[usize] {
        &self.table[i * self.p..(i + 1) * self.p]
    }

    /// Class `i`'s row from class 0's, block by block: entry `(kind, v)`
    /// gets class 0's value at `(kind, v − i)`. Serves station rows
    /// (`kind` = processor, memory, switch…) and bare `p`-entry node rows
    /// alike.
    pub(crate) fn row_into(&self, i: usize, row0: &[f64], out: &mut [f64]) {
        let shift = self.class(i);
        for (dst, src) in out.chunks_mut(self.p).zip(row0.chunks(self.p)) {
            for (d, &u) in dst.iter_mut().zip(shift) {
                *d = src[u];
            }
        }
    }

    /// Expand a class-0 row to every class.
    pub(crate) fn expand(&self, row0: &[f64]) -> Vec<Vec<f64>> {
        (0..self.p)
            .map(|i| {
                let mut row = vec![0.0; row0.len()];
                self.row_into(i, row0, &mut row);
                row
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_untranslate() {
        for topo in [
            Topology::torus(1),
            Topology::torus(2),
            Topology::torus(5),
            Topology::rect_torus(2, 3),
            Topology::ring(4),
        ] {
            let t = Translation::new(&topo);
            assert_eq!(t.nodes(), topo.nodes());
            for i in 0..topo.nodes() {
                for v in 0..topo.nodes() {
                    assert_eq!(
                        t.class(i)[v],
                        topo.untranslate(v, i),
                        "{topo:?} i={i} v={v}"
                    );
                }
            }
        }
    }

    #[test]
    fn row_into_translates_every_block() {
        let t = Translation::new(&Topology::rect_torus(3, 1));
        // Two blocks of three nodes: class 1 sees at node v what class 0
        // sees at v − 1.
        let row0 = [1.0, 2.0, 3.0, 10.0, 20.0, 30.0];
        let mut out = [0.0; 6];
        t.row_into(1, &row0, &mut out);
        assert_eq!(out, [3.0, 1.0, 2.0, 30.0, 10.0, 20.0]);
        assert_eq!(t.expand(&row0)[0], row0.to_vec());
    }
}
