//! Normalizing graph builder.
//!
//! Every algorithm in the suite assumes a *simple undirected* graph with
//! densely indexed vertex IDs, exactly like the paper ("Some graphs are
//! directed and we make them undirected by ignoring the edge direction";
//! non-dense IDs go through ID recoding as preprocessing). The builder
//! performs that normalization: it symmetrizes, deduplicates, and drops
//! self-loops.
//!
//! [`GraphBuilder::build`] is a serial counting sort: degree count →
//! prefix sum → scatter of both arc directions → per-list sort + dedup,
//! compacted in place.

use crate::csr::{Csr, VertexId};

/// Accumulates edges and produces a normalized [`Csr`].
///
/// The vertex universe is `0..=max_id_seen` unless [`GraphBuilder::with_num_vertices`]
/// pinned it larger (isolated trailing vertices are allowed).
#[derive(Default, Clone, Debug)]
pub struct GraphBuilder {
    edges: Vec<(VertexId, VertexId)>,
    min_vertices: u32,
}

impl GraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty builder that will produce at least `n` vertices even if the
    /// trailing ones are isolated.
    pub fn with_num_vertices(n: u32) -> Self {
        GraphBuilder {
            edges: Vec::new(),
            min_vertices: n,
        }
    }

    /// Pre-allocates for `m` edges.
    pub fn with_capacity(m: usize) -> Self {
        GraphBuilder {
            edges: Vec::with_capacity(m),
            min_vertices: 0,
        }
    }

    /// Records the undirected edge `{u, v}`. Self-loops and duplicates are
    /// accepted here and removed at [`GraphBuilder::build`] time.
    #[inline]
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        self.edges.push((u, v));
    }

    /// Records many edges at once.
    pub fn extend_edges<I: IntoIterator<Item = (VertexId, VertexId)>>(&mut self, it: I) {
        self.edges.extend(it);
    }

    /// Number of raw (pre-normalization) edges recorded so far.
    pub fn raw_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Builds the normalized CSR: undirected, no self-loops, no duplicate
    /// edges, sorted adjacency lists.
    pub fn build(self) -> Csr {
        let _span = kcore_gpusim::hostprof::global().map(|hp| hp.span("ingest/csr_build"));
        let GraphBuilder {
            edges,
            min_vertices,
        } = self;
        let n = edges
            .iter()
            .map(|&(u, v)| u.max(v) + 1)
            .max()
            .unwrap_or(0)
            .max(min_vertices) as usize;

        // Counting-sort style CSR construction: count, prefix, scatter.
        // Both arc directions are materialized; dedup happens per-list after
        // sorting, then offsets are re-compacted.
        let mut count = vec![0u64; n + 1];
        for &(u, v) in &edges {
            if u != v {
                count[u as usize + 1] += 1;
                count[v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            count[i + 1] += count[i];
        }
        let mut cursor = count.clone();
        let total = count[n] as usize;
        let mut adj = vec![0 as VertexId; total];
        for &(u, v) in &edges {
            if u != v {
                adj[cursor[u as usize] as usize] = v;
                cursor[u as usize] += 1;
                adj[cursor[v as usize] as usize] = u;
                cursor[v as usize] += 1;
            }
        }
        drop(edges);

        // Sort + dedup each list, compacting in place.
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let mut write = 0usize;
        for v in 0..n {
            let (s, e) = (count[v] as usize, count[v + 1] as usize);
            adj[s..e].sort_unstable();
            let mut prev: Option<VertexId> = None;
            for i in s..e {
                let u = adj[i];
                if prev != Some(u) {
                    adj[write] = u;
                    write += 1;
                    prev = Some(u);
                }
            }
            offsets.push(write as u64);
        }
        adj.truncate(write);
        adj.shrink_to_fit();
        Csr::from_parts_unchecked(offsets, adj)
    }
}

/// Convenience: builds a normalized graph directly from an edge slice.
pub fn from_edges(n: u32, edges: &[(VertexId, VertexId)]) -> Csr {
    let mut b = GraphBuilder::with_num_vertices(n);
    b.extend_edges(edges.iter().copied());
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drops_self_loops_and_duplicates() {
        let g = from_edges(3, &[(0, 1), (1, 0), (0, 1), (1, 1), (2, 2), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(2), 1);
    }

    #[test]
    fn symmetrizes_directed_input() {
        let g = from_edges(2, &[(0, 1)]);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn respects_min_vertices() {
        let g = from_edges(10, &[(0, 1)]);
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(9), 0);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn adjacency_sorted() {
        let g = from_edges(5, &[(3, 0), (3, 4), (3, 1), (3, 2)]);
        assert_eq!(g.neighbors(3), &[0, 1, 2, 4]);
    }

    #[test]
    fn result_passes_full_validation() {
        let g = from_edges(6, &[(0, 1), (5, 2), (2, 0), (4, 1), (1, 0), (3, 3)]);
        let v = crate::csr::Csr::new(g.offsets().to_vec(), g.neighbor_array().to_vec());
        assert!(v.is_ok());
    }

    /// Builds `edges` over `n` vertices and compares against a CSR spelled
    /// out by hand as `(offsets, neighbors)`.
    fn assert_builds_to(n: u32, edges: &[(u32, u32)], offsets: &[u64], neighbors: &[u32]) {
        let g = from_edges(n, edges);
        assert_eq!(g.offsets(), offsets, "offsets of {edges:?}");
        assert_eq!(g.neighbor_array(), neighbors, "neighbors of {edges:?}");
    }

    #[test]
    fn only_self_loops_build_edgeless_graph() {
        assert_builds_to(0, &[(0, 0)], &[0, 0], &[]);
        assert_builds_to(3, &[(2, 2), (2, 2), (0, 0)], &[0, 0, 0, 0], &[]);
    }

    #[test]
    fn duplicates_collapse_to_one_edge() {
        // {0,1} three times, {1,2} twice, plus a self-loop on 1.
        let edges = [(0, 1), (0, 1), (1, 2), (1, 1), (0, 1), (1, 2)];
        assert_builds_to(3, &edges, &[0, 1, 3, 4], &[1, 0, 2, 1]);
    }

    #[test]
    fn both_orientations_collapse_to_one_edge() {
        // {0,2}, {1,3} and {2,3}, each given in both orientations.
        let edges = [(0, 2), (2, 0), (3, 1), (1, 3), (2, 3), (3, 2)];
        assert_builds_to(4, &edges, &[0, 1, 2, 4, 6], &[2, 3, 0, 3, 1, 2]);
    }

    #[test]
    fn directed_only_input_is_symmetrized() {
        // A directed 4-cycle 0->1->2->3->0 plus the chord 0->2; no reverse
        // arc is ever given.
        let edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)];
        assert_builds_to(
            5,
            &edges,
            &[0, 3, 5, 8, 10, 10],
            &[1, 2, 3, 0, 2, 0, 1, 3, 0, 2],
        );
    }
}
