//! Synthetic graph generators.
//!
//! The paper evaluates on 20 public datasets (Table I) spanning web crawls,
//! social networks, collaboration networks, a co-purchasing network and an
//! internet topology. Those inputs are multi-gigabyte downloads; this suite
//! substitutes *seeded synthetic stand-ins* whose shape parameters (average
//! degree, degree skew, core-number regime, category-typical structure) mirror
//! each dataset at reduced scale — see DESIGN.md for the substitution table.
//!
//! All generators are deterministic for a fixed seed and produce normalized
//! simple undirected [`Csr`](crate::Csr) graphs.

mod basic;
mod collab;
mod random;
mod skew;
pub mod temporal;
mod web;

pub use basic::{complete, complete_bipartite, cycle, grid, path, star};
pub use collab::overlapping_cliques;
pub use random::{
    barabasi_albert, erdos_renyi_gnm, preferential_attachment, rmat, rmat_serial, RmatParams,
};
pub use skew::power_law_hubs;
pub use web::web_crawl;

/// Version of the generator algorithms' *output* (not their API). Part of
/// every dataset cache key ([`crate::cache`]): bump it whenever any
/// generator's byte output changes for a fixed seed, so stale cached CSRs
/// regenerate instead of silently serving the old graphs.
pub const GEN_VERSION: u32 = 1;

use crate::csr::{Csr, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Returns `g` with an additional clique planted on `size` random vertices.
///
/// A clique of `size` vertices has core number `size - 1`, so this guarantees
/// `k_max >= size - 1`; it is how dataset stand-ins pin the paper's
/// high-`k_max` regimes (e.g. `indochina-2004`'s nested-crawl core) without
/// materializing billion-edge inputs.
pub fn plant_clique(g: &Csr, size: u32, seed: u64) -> Csr {
    let n = g.num_vertices();
    assert!(size <= n, "clique size {size} exceeds |V|={n}");
    let mut members = clique_members(n, size, seed);
    members.sort_unstable();
    // `g` is already a normalized simple CSR, so only the members' lists
    // change: each becomes the sorted, deduplicated union of its old list
    // and the other members. Merging those lists directly is O(arcs +
    // size²) and skips a full [`GraphBuilder`] round trip;
    // `plant_clique_matches_builder` pins bit-equality against it.
    let size = members.len();
    let mut offsets = Vec::with_capacity(n as usize + 1);
    offsets.push(0u64);
    let mut neighbors = Vec::with_capacity(g.num_arcs() as usize + size * size);
    let mut next_member = 0;
    for u in 0..n {
        let old = g.neighbors(u);
        if members.get(next_member) == Some(&u) {
            next_member += 1;
            let (mut i, mut j) = (0, 0);
            while i < old.len() && j < size {
                let (a, b) = (old[i], members[j]);
                if a <= b {
                    neighbors.push(a);
                    i += 1;
                    j += usize::from(a == b);
                } else {
                    if b != u {
                        neighbors.push(b);
                    }
                    j += 1;
                }
            }
            neighbors.extend_from_slice(&old[i..]);
            neighbors.extend(members[j..].iter().filter(|&&w| w != u));
        } else {
            neighbors.extend_from_slice(old);
        }
        offsets.push(neighbors.len() as u64);
    }
    Csr::from_parts_unchecked(offsets, neighbors)
}

/// Reservoir-samples `size` distinct vertices of `0..n` (unsorted).
fn clique_members(n: u32, size: u32, seed: u64) -> Vec<VertexId> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut members: Vec<VertexId> = (0..size).collect();
    for v in size..n {
        let j = rng.gen_range(0..=v as usize);
        if j < size as usize {
            members[j] = v;
        }
    }
    members
}

/// Relabels vertices with a seeded random permutation.
///
/// Synthetic generators (BA, R-MAT, planted structures) correlate vertex ID
/// with degree — hubs get low IDs — which real datasets do only weakly.
/// Since GPU peeling partitions work by ID stripes (Algorithm 2's
/// grid-stride scan), that artificial correlation would concentrate whole
/// hub neighborhoods into single thread blocks; the dataset registry
/// therefore relabels every stand-in.
pub fn relabel(g: &Csr, seed: u64) -> Csr {
    let n = g.num_vertices();
    let mut rng = SmallRng::seed_from_u64(seed);
    // Fisher–Yates permutation: perm[old] = new
    let mut perm: Vec<VertexId> = (0..n).collect();
    for i in (1..n as usize).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    // `g` is already a normalized simple CSR and `perm` is a bijection, so
    // the relabeled graph's unique normalized form is just
    // `sorted(perm[neighbors(u)])` placed at `perm[u]` — build it directly
    // instead of re-normalizing all `2|E|` endpoints through
    // [`GraphBuilder`]. `relabel_matches_builder` pins bit-equality against
    // the builder path.
    let mut offsets = vec![0u64; n as usize + 1];
    for u in 0..n {
        offsets[perm[u as usize] as usize + 1] = g.degree(u) as u64;
    }
    for i in 0..n as usize {
        offsets[i + 1] += offsets[i];
    }
    let mut neighbors = vec![0u32; g.num_arcs() as usize];
    for u in 0..n {
        let nu = perm[u as usize] as usize;
        let list = &mut neighbors[offsets[nu] as usize..offsets[nu + 1] as usize];
        for (slot, &v) in list.iter_mut().zip(g.neighbors(u)) {
            *slot = perm[v as usize];
        }
        list.sort_unstable();
    }
    Csr::from_parts_unchecked(offsets, neighbors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use proptest::prelude::*;

    #[test]
    fn relabel_preserves_structure() {
        let g = erdos_renyi_gnm(300, 900, 5);
        let r = relabel(&g, 9);
        assert_eq!(r.num_vertices(), g.num_vertices());
        assert_eq!(r.num_edges(), g.num_edges());
        let mut d1 = g.degrees();
        let mut d2 = r.degrees();
        d1.sort_unstable();
        d2.sort_unstable();
        assert_eq!(d1, d2);
        // deterministic and (overwhelmingly) not identity
        assert_eq!(relabel(&g, 9), r);
        assert_ne!(r, g);
    }

    #[test]
    fn relabel_matches_builder() {
        // The direct CSR construction must be bit-identical to pushing the
        // permuted edge list back through the normalizing builder.
        let g = erdos_renyi_gnm(500, 2000, 5);
        let g = plant_clique(&g, 16, 6);
        let seed = 9u64;
        let direct = relabel(&g, seed);
        // Oracle: re-derive the same permutation and re-normalize.
        let n = g.num_vertices();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut perm: Vec<VertexId> = (0..n).collect();
        for i in (1..n as usize).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let mut b = GraphBuilder::with_num_vertices(n);
        for (u, v) in g.edges() {
            b.add_edge(perm[u as usize], perm[v as usize]);
        }
        assert_eq!(direct, b.build());
    }

    /// Oracle for [`plant_clique`]: the same members, with `g`'s edges plus
    /// every clique pair pushed through the normalizing builder.
    fn plant_clique_via_builder(g: &Csr, size: u32, seed: u64) -> Csr {
        let n = g.num_vertices();
        let members = clique_members(n, size, seed);
        let mut b = GraphBuilder::with_num_vertices(n);
        b.extend_edges(g.edges());
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                b.add_edge(members[i], members[j]);
            }
        }
        b.build()
    }

    #[test]
    fn plant_clique_matches_builder() {
        // Dense enough that many members are already adjacent.
        let dense = complete(12);
        assert_eq!(plant_clique(&dense, 7, 3), dense);
        let g = erdos_renyi_gnm(40, 500, 2);
        assert_eq!(plant_clique(&g, 15, 4), plant_clique_via_builder(&g, 15, 4));
        // size == n: the whole graph becomes a clique.
        let g = erdos_renyi_gnm(30, 60, 5);
        let all = plant_clique(&g, 30, 6);
        assert_eq!(all, plant_clique_via_builder(&g, 30, 6));
        assert_eq!(all, complete(30));
        // size == 2: a single edge, possibly already present.
        for seed in 0..20 {
            assert_eq!(
                plant_clique(&g, 2, seed),
                plant_clique_via_builder(&g, 2, seed)
            );
        }
        // Degenerate sizes and an edgeless input with isolated vertices.
        let empty = Csr::empty(9);
        for size in [0, 1, 9] {
            assert_eq!(
                plant_clique(&empty, size, 7),
                plant_clique_via_builder(&empty, size, 7)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn plant_clique_matches_builder_on_random_graphs(
            n in 2u32..300,
            density in 0.0f64..1.0,
            size_frac in 0.0f64..1.0,
            seed in 0u64..u64::MAX,
        ) {
            let max_m = n as u64 * (n as u64 - 1) / 2;
            let m = ((max_m.min(3_000)) as f64 * density) as u64;
            let g = erdos_renyi_gnm(n, m, seed);
            let size = (n as f64 * size_frac) as u32;
            prop_assert_eq!(
                plant_clique(&g, size, seed ^ 1),
                plant_clique_via_builder(&g, size, seed ^ 1)
            );
        }
    }

    #[test]
    fn plant_clique_guarantees_dense_core() {
        let g = erdos_renyi_gnm(200, 400, 7);
        let g = plant_clique(&g, 12, 8);
        // Count vertices with degree >= 11; at least the 12 members qualify.
        let hot = (0..g.num_vertices()).filter(|&v| g.degree(v) >= 11).count();
        assert!(
            hot >= 12,
            "expected >=12 vertices of degree >=11, got {hot}"
        );
    }

    #[test]
    fn plant_clique_is_deterministic() {
        let g = erdos_renyi_gnm(100, 150, 3);
        let a = plant_clique(&g, 8, 9);
        let b = plant_clique(&g, 8, 9);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn plant_clique_rejects_oversize() {
        let g = erdos_renyi_gnm(10, 9, 1);
        let _ = plant_clique(&g, 11, 2);
    }
}
