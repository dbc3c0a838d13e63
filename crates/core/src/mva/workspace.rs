//! Reusable scratch memory for the iterative MVA solvers.
//!
//! Every iterative solver in this crate is a fixed point over a flat
//! row-major queue-length vector, and every iteration needs the same small
//! set of scratch arrays (the iterate's image, the previous update
//! direction, per-station totals, per-class waits). Allocating those on
//! each solve is invisible for a one-off call but dominates small-model
//! latency in `latencyd` and in parameter sweeps, where the same shapes are
//! solved thousands of times.
//!
//! A [`SolverWorkspace`] owns all of those buffers and hands them to a
//! solver via `SolverWorkspace::scratch`. Buffers are `clear()` +
//! `resize()`d to the requested shape, so:
//!
//! * the solver always sees zeroed, correctly-sized scratch (no stale state
//!   can leak between solves, even across dissimilar model shapes), and
//! * once the workspace has seen the largest shape, subsequent solves
//!   perform **zero heap allocations** in the solve path — the fixed-point
//!   loop itself allocates nothing after the first iteration even on a
//!   cold workspace.
//!
//! Ownership rules (see DESIGN.md §11): a workspace is single-threaded
//! scratch — it is `Send` but deliberately not shared (`&mut` access only).
//! Sweep drivers create one per worker thread; `latencyd` pools one per
//! pool worker. Nothing read out of a solve aliases the workspace: solvers
//! copy results into freshly allocated [`crate::mva::MvaSolution`] fields.
//!
//! The [`SolverWorkspace::allocations`] counter records how many times any
//! buffer actually had to grow. Perf tests assert it stays flat across
//! repeated same-shape solves — the machine-checkable form of the
//! "allocation-free hot loop" claim — and a debug assertion via
//! [`SolverWorkspace::debug_assert_warm_for`] lets hot paths opt into
//! crashing (in debug builds) if a shape unexpectedly forces a grow.

/// Reusable scratch buffers for the iterative MVA solvers. See the module
/// docs for the ownership and reuse rules.
#[derive(Debug, Default)]
pub struct SolverWorkspace {
    /// Flattened iterate (class-major queue lengths), `c * m`.
    state: Vec<f64>,
    /// Image `G(x)` scratch for the fixed-point driver.
    image: Vec<f64>,
    /// Previous update direction for the driver's oscillation detector.
    prev_delta: Vec<f64>,
    /// Flat per-class residence times, `wait[i * m + st]`.
    wait: Vec<f64>,
    /// Per-class throughputs, `c`.
    throughput: Vec<f64>,
    /// Per-station (or per-kind) queue totals, `m`.
    totals: Vec<f64>,
    /// Linearizer `base` correction table, `c * m`.
    base: Vec<f64>,
    /// Flat visit-ratio table, `c * m` (Linearizer).
    visits: Vec<f64>,
    /// Per-station service times, `m` (Linearizer).
    service: Vec<f64>,
    /// Per-station queueing-discipline flags, `m` (Linearizer).
    queueing: Vec<bool>,
    /// Fraction-deviation table `F[(i·C + j)·M + st]`, `c * c * m`
    /// (Linearizer).
    fractions: Vec<f64>,
    /// Saved full-population solution used to warm reduced solves, `c * m`
    /// (Linearizer).
    aux: Vec<f64>,
    /// Number of times any buffer had to grow its capacity.
    grows: u64,
}

/// Mutable views over a workspace's buffers, sized for one solve. Obtained
/// from [`SolverWorkspace::scratch`]; the borrow splitting lets a solver
/// move `state`/`image`/`prev_delta` into the fixed-point driver while its
/// step closure captures `wait`/`throughput`/`totals` independently.
pub(crate) struct Scratch<'a> {
    pub state: &'a mut Vec<f64>,
    pub image: &'a mut Vec<f64>,
    pub prev_delta: &'a mut Vec<f64>,
    pub wait: &'a mut Vec<f64>,
    pub throughput: &'a mut Vec<f64>,
    pub totals: &'a mut Vec<f64>,
    pub base: &'a mut Vec<f64>,
    pub visits: &'a mut Vec<f64>,
    pub service: &'a mut Vec<f64>,
    pub queueing: &'a mut Vec<bool>,
    pub fractions: &'a mut Vec<f64>,
    pub aux: &'a mut Vec<f64>,
}

/// Zero-fill `buf` to exactly `len` entries, counting a grow when the
/// existing capacity was insufficient. `clear` + `resize` never shrinks
/// capacity, so a warm buffer is reused allocation-free.
fn ensure_f64(buf: &mut Vec<f64>, len: usize, grows: &mut u64) {
    if buf.capacity() < len {
        *grows += 1;
    }
    buf.clear();
    buf.resize(len, 0.0);
}

/// Boolean twin of [`ensure_f64`].
fn ensure_bool(buf: &mut Vec<bool>, len: usize, grows: &mut u64) {
    if buf.capacity() < len {
        *grows += 1;
    }
    buf.clear();
    buf.resize(len, false);
}

impl SolverWorkspace {
    /// An empty workspace. Buffers grow lazily on first use.
    pub fn new() -> Self {
        SolverWorkspace::default()
    }

    /// How many times any internal buffer had to grow. Flat across repeated
    /// solves of shapes the workspace has already seen — tests assert this
    /// to pin the allocation-free hot path.
    pub fn allocations(&self) -> u64 {
        self.grows
    }

    /// Debug-build guard: panics if a `c`-class, `m`-station solve through
    /// this workspace would still need to grow a buffer (i.e. the workspace
    /// is not yet warm for that shape). No-op in release builds.
    pub fn debug_assert_warm_for(&self, c: usize, m: usize) {
        debug_assert!(
            self.state.capacity() >= c * m
                && self.image.capacity() >= c * m
                && self.prev_delta.capacity() >= c * m
                && self.wait.capacity() >= c * m
                && self.throughput.capacity() >= c
                && self.totals.capacity() >= m,
            "SolverWorkspace not warm for shape c={c}, m={m}"
        );
    }

    /// Size every buffer for a `c`-class, `m`-station solve and hand out
    /// disjoint mutable views. All buffers come back zeroed, so no state
    /// leaks between solves. `tables` additionally sizes the
    /// Linearizer-only buffers (`base`, `visits`, `service`, `queueing`,
    /// `fractions`, `aux`); other solvers skip them so a workspace used
    /// only for Bard–Schweitzer never pays the `c²·m` table.
    pub(crate) fn scratch(&mut self, c: usize, m: usize, tables: bool) -> Scratch<'_> {
        let n = c * m;
        let g = &mut self.grows;
        ensure_f64(&mut self.state, n, g);
        ensure_f64(&mut self.image, n, g);
        ensure_f64(&mut self.prev_delta, n, g);
        ensure_f64(&mut self.wait, n, g);
        ensure_f64(&mut self.throughput, c, g);
        ensure_f64(&mut self.totals, m, g);
        if tables {
            ensure_f64(&mut self.base, n, g);
            ensure_f64(&mut self.visits, n, g);
            ensure_f64(&mut self.service, m, g);
            ensure_bool(&mut self.queueing, m, g);
            ensure_f64(&mut self.fractions, c * n, g);
            ensure_f64(&mut self.aux, n, g);
        }
        Scratch {
            state: &mut self.state,
            image: &mut self.image,
            prev_delta: &mut self.prev_delta,
            wait: &mut self.wait,
            throughput: &mut self.throughput,
            totals: &mut self.totals,
            base: &mut self.base,
            visits: &mut self.visits,
            service: &mut self.service,
            queueing: &mut self.queueing,
            fractions: &mut self.fractions,
            aux: &mut self.aux,
        }
    }
}

/// Validate a caller-supplied warm start: usable only if it has exactly the
/// expected length and every entry is a finite, non-negative queue length.
/// Anything else falls back to a cold start rather than erroring — a warm
/// start is an optimization hint, never a correctness input.
pub(crate) fn usable_warm(warm: Option<&[f64]>, len: usize) -> Option<&[f64]> {
    warm.filter(|w| w.len() == len && w.iter().all(|q| q.is_finite() && *q >= 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_sizes_and_zeroes() {
        let mut ws = SolverWorkspace::new();
        {
            let s = ws.scratch(3, 4, true);
            assert_eq!(s.state.len(), 12);
            assert_eq!(s.throughput.len(), 3);
            assert_eq!(s.totals.len(), 4);
            assert_eq!(s.fractions.len(), 36);
            s.state.iter_mut().for_each(|v| *v = 7.0);
        }
        // Re-scratch at the same shape: zeroed again, no growth.
        let before = ws.allocations();
        let s = ws.scratch(3, 4, true);
        assert!(s.state.iter().all(|&v| v == 0.0));
        assert_eq!(ws.allocations(), before);
    }

    #[test]
    fn growth_is_counted_once_per_shape_increase() {
        let mut ws = SolverWorkspace::new();
        ws.scratch(2, 2, false);
        let after_small = ws.allocations();
        assert!(after_small > 0);
        // Same shape: flat.
        ws.scratch(2, 2, false);
        assert_eq!(ws.allocations(), after_small);
        // Bigger shape: grows again.
        ws.scratch(4, 8, false);
        let after_big = ws.allocations();
        assert!(after_big > after_small);
        // Smaller shape afterwards: capacity retained, still flat.
        ws.scratch(2, 2, false);
        ws.scratch(3, 5, false);
        assert_eq!(ws.allocations(), after_big);
    }

    #[test]
    fn warm_guard_rejects_bad_inputs() {
        let good = [0.5, 1.5, 0.0];
        assert!(usable_warm(Some(&good), 3).is_some());
        assert!(usable_warm(Some(&good), 4).is_none(), "length mismatch");
        assert!(usable_warm(None, 3).is_none());
        let negative = [0.5, -0.1, 0.0];
        assert!(usable_warm(Some(&negative), 3).is_none());
        let non_finite = [0.5, f64::INFINITY, 0.0];
        assert!(usable_warm(Some(&non_finite), 3).is_none());
    }
}
