//! The seeded request generator.
//!
//! Every input the benchmark sends is a pure function of
//! `(seed, stream, index)`, built with the benchmark's own SplitMix64 and
//! its own JSON formatting, so one seed gives a byte-identical request
//! stream no matter what the server's parsers or random-number code do.
//! The server only ever sees the generated bodies.
//!
//! Single-solve configs are stratified: each block of [`COLD_BLOCK`]
//! consecutive requests visits every (torus size, thread count, `S`, `L`)
//! cell exactly once in a seeded order, and `p_remote`/`p_sw` are drawn as
//! a Latin hypercube over the block. Every seed therefore sends the same
//! mix of Auto-ladder rungs and model sizes, which keeps run-to-run spread
//! down, while the continuous jitter makes every config distinct.

use lt_core::prelude::{AccessPattern, SystemConfig, Topology};

/// Torus sizes `k` of the single-solve workloads: 2×2 solves exactly,
/// 4×4 with the Linearizer, 6×6 and 8×8 with symmetric AMVA.
pub const K_VALUES: [usize; 4] = [2, 4, 6, 8];
/// Threads per processor range over `1..=NT_MAX`.
pub const NT_MAX: usize = 12;
/// Switch delay `S` and memory latency `L` take these values.
pub const SL_VALUES: [f64; 2] = [1.0, 2.0];
/// Cells of one stratified block: every (k, n_t, S, L) combination.
pub const COLD_BLOCK: usize = K_VALUES.len() * NT_MAX * SL_VALUES.len() * SL_VALUES.len();
/// `p_remote` of single solves lies in `[P_REMOTE_LO, P_REMOTE_HI)`.
pub const P_REMOTE_LO: f64 = 0.05;
/// Upper end of the single-solve `p_remote` range.
pub const P_REMOTE_HI: f64 = 0.55;
/// `p_sw` of every generated config lies in `[P_SW_LO, P_SW_HI)`.
pub const P_SW_LO: f64 = 0.3;
/// Upper end of the `p_sw` range.
pub const P_SW_HI: f64 = 0.7;
/// Distinct configs behind `solve-cached`.
pub const CACHED_CONFIGS: usize = 64;
/// Requests of the `solve-cold` warm-up (part of set-up).
pub const COLD_WARMUP: usize = 8;
/// Torus size of the `sweep-grid` base config.
pub const SWEEP_K: usize = 4;
/// The sweep grid's `p_remote` axis (outer, slow).
pub const SWEEP_P_REMOTE: [f64; 5] = [0.1, 0.2, 0.3, 0.4, 0.5];
/// The sweep grid's `n_threads` axis (inner, fast): `1..=SWEEP_NT_MAX`.
pub const SWEEP_NT_MAX: usize = 10;
/// Items per sweep request.
pub const SWEEP_ITEMS: usize = SWEEP_P_REMOTE.len() * SWEEP_NT_MAX;

/// Independent random streams: the same index on two streams yields
/// unrelated draws, so no warm-up config can reappear in a timed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// The timed `solve-cold` requests.
    Cold = 1,
    /// Set-up warm-up requests of `solve-cold` and `sweep-grid`.
    Warmup = 2,
    /// The 64 `solve-cached` configs.
    CachedSet = 3,
    /// Which cached config each timed `solve-cached` request asks for.
    CachedPick = 4,
    /// The timed `sweep-grid` requests.
    Sweep = 5,
    /// Which answers the post-run correctness gate decodes.
    Sample = 6,
}

/// SplitMix64 (Steele, Lea & Flood 2014): tiny, fast, and fixed forever
/// here, so the input stream never depends on another crate's generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// The generator for draw `index` of `stream` under `seed`.
    pub fn at(seed: u64, stream: Stream, index: u64) -> Rng {
        Rng(mix(mix(mix(seed) ^ stream as u64) ^ index))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2^-50).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// One generated machine: a `k × k` torus with the paper's `R = 1`,
/// `C = 0`, one memory port, and a geometric remote-access pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// Torus side.
    pub k: usize,
    /// Threads per processor.
    pub n_threads: usize,
    /// Probability an access is remote.
    pub p_remote: f64,
    /// Geometric locality parameter.
    pub p_sw: f64,
    /// Per-switch routing delay `S`.
    pub switch_delay: f64,
    /// Memory access time `L`.
    pub memory_latency: f64,
}

impl Model {
    /// The same machine as an `lt_core` config, for reference solves.
    pub fn config(&self) -> SystemConfig {
        SystemConfig::paper_default()
            .with_topology(Topology::torus(self.k))
            .with_n_threads(self.n_threads)
            .with_p_remote(self.p_remote)
            .with_pattern(AccessPattern::geometric(self.p_sw))
            .with_switch_delay(self.switch_delay)
            .with_memory_latency(self.memory_latency)
    }

    /// The wire-format config object. Rust's `{}` prints the shortest
    /// decimal that reads back to the same `f64`, so the server decodes
    /// exactly [`Model::config`].
    pub fn json(&self) -> String {
        format!(
            "{{\"workload\":{{\"n_threads\":{},\"runlength\":1,\"context_switch\":0,\
             \"p_remote\":{},\"pattern\":{{\"kind\":\"geometric\",\"p_sw\":{}}}}},\
             \"arch\":{{\"topology\":{{\"kind\":\"torus\",\"k\":{}}},\
             \"memory_latency\":{},\"switch_delay\":{},\"memory_ports\":1}}}}",
            self.n_threads,
            self.p_remote,
            self.p_sw,
            self.k,
            self.memory_latency,
            self.switch_delay
        )
    }

    /// A `POST /v1/solve` body for this machine with the Auto solver.
    pub fn solve_body(&self) -> String {
        format!("{{\"config\":{},\"solver\":\"auto\"}}", self.json())
    }
}

/// The machine in stratified cell `cell` of a block, with `p_remote` and
/// `p_sw` placed in strata `pr_rank`/`psw_rank` of `strata`.
fn stratified(cell: usize, pr_rank: usize, psw_rank: usize, strata: usize, r: &mut Rng) -> Model {
    let per_k = NT_MAX * SL_VALUES.len() * SL_VALUES.len();
    let rest = cell % per_k;
    Model {
        k: K_VALUES[cell / per_k],
        n_threads: 1 + rest / (SL_VALUES.len() * SL_VALUES.len()),
        switch_delay: SL_VALUES[(rest / SL_VALUES.len()) % SL_VALUES.len()],
        memory_latency: SL_VALUES[rest % SL_VALUES.len()],
        p_remote: P_REMOTE_LO
            + (P_REMOTE_HI - P_REMOTE_LO) * (pr_rank as f64 + r.unit()) / strata as f64,
        p_sw: P_SW_LO + (P_SW_HI - P_SW_LO) * (psw_rank as f64 + r.unit()) / strata as f64,
    }
}

/// Request `index` of a stratified single-solve stream.
pub fn cold_model(seed: u64, stream: Stream, index: usize) -> Model {
    let (block, j) = (index / COLD_BLOCK, index % COLD_BLOCK);
    // Three permutations per block: cells, p_remote strata, p_sw strata.
    let mut b = Rng::at(seed, stream, (1 << 40) | block as u64);
    let cells = b.permutation(COLD_BLOCK);
    let pr = b.permutation(COLD_BLOCK);
    let psw = b.permutation(COLD_BLOCK);
    stratified(
        cells[j],
        pr[j],
        psw[j],
        COLD_BLOCK,
        &mut Rng::at(seed, stream, index as u64),
    )
}

/// The `solve-cold` warm-up: one machine per torus size at 4 and 8
/// threads with `S = L = 1` and light remote traffic, so its cost (part
/// of `setup_s`) barely depends on the seed. Drawn from the warm-up
/// stream, never from the timed one.
pub fn warmup_models(seed: u64) -> Vec<Model> {
    (0..COLD_WARMUP)
        .map(|i| {
            let mut r = Rng::at(seed, Stream::Warmup, i as u64);
            Model {
                k: K_VALUES[i % K_VALUES.len()],
                n_threads: if i < K_VALUES.len() { 4 } else { 8 },
                p_remote: 0.1 + 0.05 * r.unit(),
                p_sw: 0.45 + 0.1 * r.unit(),
                switch_delay: 1.0,
                memory_latency: 1.0,
            }
        })
        .collect()
}

/// Largest `n_t` of the 2×2 machines in the `solve-cached` set.
pub const CACHED_K2_NT_MAX: usize = 6;

/// The 64 `solve-cached` machines: 16 per torus size, each size taking
/// every thread count once plus seeded extras (so the report sizes, which
/// set the cost of a hit, and the prewarm's solver work barely depend on
/// the seed), with `S`, `L` and a Latin hypercube over `p_remote`/`p_sw`
/// from the seed. The 2×2 machines stop at [`CACHED_K2_NT_MAX`] threads:
/// their exact-MVA tables grow as `(n_t + 1)^4`, and a 64-solve prewarm is
/// too short for peak memory to settle once tables of several MB are in
/// play, whereas a 2×2 report costs the same to serve at any `n_t`.
pub fn cached_models(seed: u64) -> Vec<Model> {
    let mut b = Rng::at(seed, Stream::CachedSet, 1 << 40);
    let pr = b.permutation(CACHED_CONFIGS);
    let psw = b.permutation(CACHED_CONFIGS);
    let per_k = COLD_BLOCK / K_VALUES.len();
    let sl = SL_VALUES.len() * SL_VALUES.len();
    (0..CACHED_CONFIGS)
        .map(|j| {
            let mut r = Rng::at(seed, Stream::CachedSet, j as u64);
            let k_index = j % K_VALUES.len();
            let nt_max = if K_VALUES[k_index] == 2 {
                CACHED_K2_NT_MAX
            } else {
                NT_MAX
            };
            let t = j / K_VALUES.len();
            let nt = if t < nt_max { t } else { r.below(nt_max) };
            let cell = k_index * per_k + nt * sl + r.below(sl);
            stratified(cell, pr[j], psw[j], CACHED_CONFIGS, &mut r)
        })
        .collect()
}

/// Which cached config timed `solve-cached` request `index` asks for.
pub fn cached_pick(seed: u64, index: usize) -> usize {
    Rng::at(seed, Stream::CachedPick, index as u64).below(CACHED_CONFIGS)
}

/// The base machine of sweep request `index`: a 4×4 torus whose `S`, `L`
/// and `p_sw` are drawn per request, so no grid point of one request
/// shares a cache key with another request's.
pub fn sweep_base(seed: u64, stream: Stream, index: usize) -> Model {
    let mut r = Rng::at(seed, stream, index as u64);
    Model {
        k: SWEEP_K,
        n_threads: 1,
        p_remote: SWEEP_P_REMOTE[0],
        p_sw: P_SW_LO + (P_SW_HI - P_SW_LO) * r.unit(),
        switch_delay: 1.0 + r.unit(),
        memory_latency: 1.0 + r.unit(),
    }
}

/// The grid items of a sweep over `base`, in the server's row-major
/// expansion order (`p_remote` outer, `n_threads` inner).
pub fn sweep_items(base: &Model) -> Vec<Model> {
    SWEEP_P_REMOTE
        .iter()
        .flat_map(|&p| {
            (1..=SWEEP_NT_MAX).map(move |n| Model {
                p_remote: p,
                n_threads: n,
                ..base.clone()
            })
        })
        .collect()
}

/// A `POST /v1/sweep` body: the 5×10 (`p_remote` × `n_threads`) grid over
/// `base`, solved with the paper's Figure 3 AMVA.
pub fn sweep_body(base: &Model) -> String {
    let p: Vec<String> = SWEEP_P_REMOTE.iter().map(|v| v.to_string()).collect();
    let n: Vec<String> = (1..=SWEEP_NT_MAX).map(|v| v.to_string()).collect();
    format!(
        "{{\"base\":{},\"grid\":[{{\"param\":\"workload.p_remote\",\"values\":[{}]}},\
         {{\"param\":\"workload.n_threads\",\"values\":[{}]}}],\"solver\":\"amva\"}}",
        base.json(),
        p.join(","),
        n.join(",")
    )
}

/// `count` distinct indices below `range`, drawn from the sample stream:
/// which answers the post-run gate decodes and re-solves.
pub fn sample_indices(seed: u64, range: usize, count: usize) -> Vec<usize> {
    let mut picks = Rng::at(seed, Stream::Sample, 0).permutation(range);
    picks.truncate(count);
    picks.sort_unstable();
    picks
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn cold_stream(seed: u64, n: usize) -> Vec<String> {
        (0..n)
            .map(|i| cold_model(seed, Stream::Cold, i).solve_body())
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(cold_stream(7, 400), cold_stream(7, 400));
        assert_ne!(cold_stream(7, 400), cold_stream(8, 400));
        let sweeps = |seed| -> Vec<String> {
            (0..20)
                .map(|i| sweep_body(&sweep_base(seed, Stream::Sweep, i)))
                .collect()
        };
        assert_eq!(sweeps(3), sweeps(3));
        assert_ne!(sweeps(3), sweeps(4));
        let cached = |seed| -> Vec<String> {
            let set = cached_models(seed);
            (0..200)
                .map(|i| set[cached_pick(seed, i)].solve_body())
                .collect()
        };
        assert_eq!(cached(11), cached(11));
        assert_ne!(cached(11), cached(12));
    }

    #[test]
    fn cold_configs_validate_stay_in_range_and_never_repeat() {
        for seed in [1, 2, 99] {
            let mut keys = HashSet::new();
            for i in 0..5 * COLD_BLOCK {
                let m = cold_model(seed, Stream::Cold, i);
                m.config().validate().expect("generated config validates");
                assert!(K_VALUES.contains(&m.k));
                assert!((1..=NT_MAX).contains(&m.n_threads));
                assert!((P_REMOTE_LO..P_REMOTE_HI).contains(&m.p_remote), "{m:?}");
                assert!((P_SW_LO..P_SW_HI).contains(&m.p_sw), "{m:?}");
                assert!(SL_VALUES.contains(&m.switch_delay));
                assert!(SL_VALUES.contains(&m.memory_latency));
                assert!(keys.insert(m.solve_body()), "repeated config at {i}");
            }
            for m in warmup_models(seed) {
                assert!(keys.insert(m.solve_body()), "warm-up config reused");
            }
        }
    }

    #[test]
    fn every_block_visits_every_cell_once() {
        let mut cells = HashSet::new();
        for i in COLD_BLOCK..2 * COLD_BLOCK {
            let m = cold_model(5, Stream::Cold, i);
            let bits = (m.switch_delay.to_bits(), m.memory_latency.to_bits());
            assert!(cells.insert((m.k, m.n_threads, bits)));
        }
        assert_eq!(cells.len(), COLD_BLOCK);
    }

    #[test]
    fn cached_and_sweep_configs_validate_and_stay_in_range() {
        for seed in [1, 2, 99] {
            let set = cached_models(seed);
            assert_eq!(set.len(), CACHED_CONFIGS);
            let distinct: HashSet<String> = set.iter().map(Model::solve_body).collect();
            assert_eq!(distinct.len(), CACHED_CONFIGS);
            for k in K_VALUES {
                let of_k: Vec<&Model> = set.iter().filter(|m| m.k == k).collect();
                assert_eq!(of_k.len(), 16);
                let nt_max = if k == 2 { CACHED_K2_NT_MAX } else { NT_MAX };
                for nt in 1..=nt_max {
                    assert!(
                        of_k.iter().any(|m| m.n_threads == nt),
                        "k={k} lacks n_t={nt}"
                    );
                }
                assert!(of_k.iter().all(|m| m.n_threads <= nt_max));
            }
            for m in &set {
                m.config().validate().expect("cached config validates");
                assert!((P_REMOTE_LO..P_REMOTE_HI).contains(&m.p_remote));
                assert!((1..=NT_MAX).contains(&m.n_threads));
            }
            for i in 0..50 {
                let base = sweep_base(seed, Stream::Sweep, i);
                let items = sweep_items(&base);
                assert_eq!(items.len(), SWEEP_ITEMS);
                for m in items {
                    m.config().validate().expect("sweep item validates");
                    assert!((1.0..2.0).contains(&m.switch_delay));
                    assert!((1.0..2.0).contains(&m.memory_latency));
                    assert!(m.n_threads <= SWEEP_NT_MAX && m.p_remote <= 0.5);
                }
            }
        }
    }

    #[test]
    fn sample_indices_are_distinct_sorted_and_in_range() {
        let s = sample_indices(3, 384, 24);
        assert_eq!(s.len(), 24);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.iter().all(|&i| i < 384));
        assert_eq!(s, sample_indices(3, 384, 24));
    }
}
