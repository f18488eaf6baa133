//! Classic random-graph models: Erdős–Rényi, R-MAT, Barabási–Albert.

use crate::builder::GraphBuilder;
use crate::csr::{Csr, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// G(n, m): `m` edges sampled uniformly among unordered pairs.
///
/// Duplicate samples and self-loops are redrawn, so the result has exactly
/// `m` edges whenever `m <= n(n-1)/2`.
pub fn erdos_renyi_gnm(n: u32, m: u64, seed: u64) -> Csr {
    assert!(n >= 2 || m == 0, "need at least 2 vertices for edges");
    let max_m = n as u64 * (n as u64 - 1) / 2;
    assert!(m <= max_m, "m={m} exceeds max {max_m} for n={n}");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut seen = rustc_hash::FxHashSet::default();
    seen.reserve(m as usize);
    let mut b = GraphBuilder::with_num_vertices(n);
    while (seen.len() as u64) < m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if seen.insert(key) {
            b.add_edge(key.0, key.1);
        }
    }
    b.build()
}

/// Parameters of the R-MAT recursive edge sampler.
#[derive(Clone, Copy, Debug)]
pub struct RmatParams {
    /// Probability of the top-left quadrant.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
    // d = 1 - a - b - c
}

impl RmatParams {
    /// The Graph500 parameters (a=0.57, b=0.19, c=0.19): heavy skew typical of
    /// social networks and web crawls.
    pub fn graph500() -> Self {
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
    }

    /// Milder skew (a=0.45), for co-purchasing / citation style networks.
    pub fn mild() -> Self {
        RmatParams {
            a: 0.45,
            b: 0.22,
            c: 0.22,
        }
    }
}

/// Edges per parallel R-MAT work item. Fixed — never derived from the
/// thread count — so the edge stream is byte-identical at any pool size.
const RMAT_CHUNK: u64 = 1 << 16;

/// The SplitMix64 increment of the `rand` shim's `SmallRng`
/// (`state += PHI` per draw), which makes per-chunk seed derivation a
/// closed form: the RNG state after `k` draws from seed `s` is
/// `s + k * PHI`. [`stream_seed`] exploits that to hand each R-MAT chunk
/// the exact stream position the serial sampler would have reached, so the
/// parallel generator is byte-identical to the serial one — not merely
/// pool-size invariant. `gen::tests::rmat_parallel_matches_serial_oracle`
/// pins this; if the shim is ever swapped for upstream `rand` (whose
/// `SmallRng` has no closed-form jump), that test fails loudly and chunk
/// seeding must be re-derived.
const SPLITMIX_PHI: u64 = 0x9e37_79b9_7f4a_7c15;

/// Seed whose `SmallRng` stream continues `seed`'s stream after
/// `draws_consumed` calls to `next_u64` (see [`SPLITMIX_PHI`]).
fn stream_seed(seed: u64, draws_consumed: u64) -> u64 {
    seed.wrapping_add(draws_consumed.wrapping_mul(SPLITMIX_PHI))
}

/// Samples `m` R-MAT edge slots from one RNG stream, skipping self-loops.
/// Exactly `scale` draws are consumed per slot (no rejection), which is
/// what makes the chunk seed derivation in [`rmat`] exact.
fn rmat_sample_edges(
    scale: u32,
    m: u64,
    params: RmatParams,
    chunk_seed: u64,
) -> Vec<(VertexId, VertexId)> {
    let mut rng = SmallRng::seed_from_u64(chunk_seed);
    let mut out = Vec::with_capacity(m as usize);
    // Quadrant q = number of cumulative thresholds at or below r: 0 (a),
    // 1 (b), 2 (c) or 3 (d). Its high bit extends u, its low bit v. Counting
    // comparisons instead of branching on them avoids a mispredict per level.
    let (t1, t2, t3) = (
        params.a,
        params.a + params.b,
        params.a + params.b + params.c,
    );
    for _ in 0..m {
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..scale {
            let r: f64 = rng.gen();
            let q = (r >= t1) as u32 + (r >= t2) as u32 + (r >= t3) as u32;
            u = u << 1 | q >> 1;
            v = v << 1 | q & 1;
        }
        if u != v {
            out.push((u, v));
        }
    }
    out
}

/// R-MAT graph with `2^scale` vertices and ~`m` undirected edges.
///
/// Self-loops and duplicates are dropped during normalization, so the final
/// edge count is slightly below `m` — matching how R-MAT is used in practice.
///
/// Edge sampling fans out over [`RMAT_CHUNK`]-sized chunks, each seeded at
/// its exact position in the serial draw stream (see [`SPLITMIX_PHI`]), so
/// the output is byte-identical to [`rmat_serial`] and to itself at every
/// rayon pool size — golden traces pinned on R-MAT inputs stay valid.
pub fn rmat(scale: u32, m: u64, params: RmatParams, seed: u64) -> Csr {
    assert!((1..=30).contains(&scale), "scale out of range");
    let n: u32 = 1 << scale;
    let starts: Vec<u64> = (0..m).step_by(RMAT_CHUNK as usize).collect();
    let chunks: Vec<Vec<(VertexId, VertexId)>> = starts
        .into_par_iter()
        .map(|start| {
            let len = RMAT_CHUNK.min(m - start);
            let draws_consumed = start.wrapping_mul(scale as u64);
            rmat_sample_edges(scale, len, params, stream_seed(seed, draws_consumed))
        })
        .collect();
    let mut b = GraphBuilder::with_num_vertices(n);
    for c in chunks {
        b.extend_edges(c);
    }
    b.build()
}

/// The original single-stream R-MAT sampler, retained as the differential
/// oracle for the chunked [`rmat`] (and for the `ingest` criterion group).
pub fn rmat_serial(scale: u32, m: u64, params: RmatParams, seed: u64) -> Csr {
    assert!((1..=30).contains(&scale), "scale out of range");
    let n: u32 = 1 << scale;
    let mut b = GraphBuilder::with_num_vertices(n);
    b.extend_edges(rmat_sample_edges(scale, m, params, seed));
    b.build()
}

/// Barabási–Albert preferential attachment: each new vertex attaches to
/// `m_per_node` existing vertices chosen proportionally to degree.
///
/// Produces power-law degree tails and `k_max ≈ m_per_node`, the classic
/// model for collaboration and citation networks. Note the minimum degree is
/// `m_per_node`, which empties every k-shell below it; use
/// [`preferential_attachment`] with an attachment-count *range* for
/// realistic low-degree tails.
pub fn barabasi_albert(n: u32, m_per_node: u32, seed: u64) -> Csr {
    preferential_attachment(n, m_per_node..=m_per_node, seed)
}

/// Preferential attachment with a per-vertex attachment count drawn
/// uniformly from `m_range` — degrees then span from `m_range.start()`
/// upward, populating every k-shell like real co-purchase/citation networks
/// do (plain BA leaves all shells below `m` empty, which concentrates the
/// entire peeling into one round).
pub fn preferential_attachment(n: u32, m_range: std::ops::RangeInclusive<u32>, seed: u64) -> Csr {
    let (m_lo, m_hi) = (*m_range.start(), *m_range.end());
    assert!(m_lo >= 1);
    assert!(n > m_hi, "need n > max attachment count");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_num_vertices(n);
    // `endpoints` holds one entry per edge endpoint: sampling uniformly from
    // it is sampling proportional to degree.
    let mut endpoints: Vec<VertexId> = Vec::with_capacity(2 * n as usize * m_hi as usize);
    // Seed with a small clique on the first m_hi + 1 vertices.
    let seed_n = m_hi + 1;
    for u in 0..seed_n {
        for v in (u + 1)..seed_n {
            b.add_edge(u, v);
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for v in seed_n..n {
        let m = rng.gen_range(m_lo..=m_hi);
        let mut chosen = rustc_hash::FxHashSet::default();
        while (chosen.len() as u32) < m {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            chosen.insert(t);
        }
        for &t in &chosen {
            b.add_edge(v, t);
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnm_exact_edge_count() {
        let g = erdos_renyi_gnm(100, 500, 1);
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_edges(), 500);
    }

    #[test]
    fn gnm_deterministic() {
        assert_eq!(erdos_renyi_gnm(50, 100, 5), erdos_renyi_gnm(50, 100, 5));
        assert_ne!(erdos_renyi_gnm(50, 100, 5), erdos_renyi_gnm(50, 100, 6));
    }

    #[test]
    fn gnm_dense_limit() {
        let g = erdos_renyi_gnm(5, 10, 2);
        assert_eq!(g.num_edges(), 10); // complete K5
    }

    #[test]
    #[should_panic(expected = "exceeds max")]
    fn gnm_rejects_impossible_m() {
        let _ = erdos_renyi_gnm(4, 7, 0);
    }

    #[test]
    fn rmat_shape() {
        let g = rmat(10, 5_000, RmatParams::graph500(), 42);
        assert_eq!(g.num_vertices(), 1024);
        // some loss to dedup/self-loops, but most edges survive
        assert!(g.num_edges() > 3_000, "got {}", g.num_edges());
        // skew: max degree far above average
        let avg = 2.0 * g.num_edges() as f64 / 1024.0;
        assert!(g.max_degree() as f64 > 4.0 * avg);
    }

    #[test]
    fn rmat_deterministic() {
        let p = RmatParams::mild();
        assert_eq!(rmat(8, 1000, p, 9), rmat(8, 1000, p, 9));
    }

    /// The chunked parallel sampler continues the exact serial draw stream
    /// (SplitMix64 jump-ahead), so `rmat` ≡ `rmat_serial` even when `m`
    /// spans several chunks. If this fails, the `rand` shim's `SmallRng`
    /// state recurrence no longer matches [`SPLITMIX_PHI`].
    #[test]
    fn rmat_parallel_matches_serial_oracle() {
        let p = RmatParams::graph500();
        // single chunk
        assert_eq!(rmat(9, 2_000, p, 7), rmat_serial(9, 2_000, p, 7));
        // several chunks (3 × RMAT_CHUNK worth of edge slots)
        let m = 3 * RMAT_CHUNK + 1_234;
        assert_eq!(rmat(12, m, p, 41), rmat_serial(12, m, p, 41));
    }

    #[test]
    fn rmat_identical_across_pool_sizes() {
        let p = RmatParams::graph500();
        let m = 2 * RMAT_CHUNK + 17;
        let baseline = rmat(11, m, p, 5);
        for threads in [1usize, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let g = pool.install(|| rmat(11, m, p, 5));
            assert_eq!(g, baseline, "pool size {threads}");
        }
    }

    #[test]
    fn ba_degrees() {
        let g = barabasi_albert(500, 4, 11);
        assert_eq!(g.num_vertices(), 500);
        // every non-seed vertex has degree >= m_per_node
        for v in 5..500 {
            assert!(g.degree(v) >= 4);
        }
        // hubs exist
        assert!(g.max_degree() > 20);
    }

    #[test]
    fn ba_deterministic() {
        assert_eq!(barabasi_albert(200, 3, 7), barabasi_albert(200, 3, 7));
    }
}
