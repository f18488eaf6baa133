//! Edge cases of matching-round maintenance (`kcore_gpu::dynamic`): a
//! batch's net updates run as vertex-disjoint rounds, each repaired by one
//! joint, level-aware traversal. After every batch the engine's host
//! cores, device cores and device MCD counters must equal both the CPU
//! incremental oracle (`kcore_cpu::incremental`) and a from-scratch BZ
//! peel. The hand-built graphs pin the cases where a round-wide repair
//! could go wrong: edges that raise cores only together, a hub that must
//! rise twice, and one round spanning three levels.

use kcore::cpu::{bz, incremental::DynamicGraph, CoreAlgorithm};
use kcore::gpu::{BatchPath, BatchReport, DynamicConfig, DynamicCore, SimOptions};
use kcore::gpusim::LaunchConfig;
use kcore::graph::{builder::from_edges, Csr, EdgeUpdate};
use proptest::prelude::*;

fn engine_cfg() -> DynamicConfig {
    DynamicConfig {
        launch: LaunchConfig {
            blocks: 4,
            threads_per_block: 64,
        },
        ..DynamicConfig::default()
    }
}

fn clique(vs: &[u32]) -> Vec<(u32, u32)> {
    vs.iter()
        .enumerate()
        .flat_map(|(i, &u)| vs[i + 1..].iter().map(move |&v| (u, v)))
        .collect()
}

/// Drives `batches` through a fresh engine over `g`, checking it against
/// the CPU oracle and BZ after each; returns the reports and final cores.
fn run(g: &Csr, batches: &[Vec<EdgeUpdate>]) -> (Vec<BatchReport>, Vec<u32>) {
    let mut dc = DynamicCore::from_csr(&SimOptions::default(), g, engine_cfg()).unwrap();
    let mut oracle = DynamicGraph::from_csr(g);
    let mut reps = Vec::new();
    for (bi, batch) in batches.iter().enumerate() {
        let rep = dc.apply_batch(batch).unwrap();
        oracle.apply_batch(batch);
        let truth = bz::Bz.run(&oracle.to_csr());
        assert_eq!(oracle.cores(), &truth[..], "batch {bi}: oracle vs BZ");
        assert_eq!(dc.cores(), &truth[..], "batch {bi}: host cores vs BZ");
        assert_eq!(dc.device_cores(), truth, "batch {bi}: device cores vs BZ");
        assert_eq!(dc.device_mcd(), oracle.mcd(), "batch {bi}: device MCD");
        reps.push(rep);
    }
    (reps, dc.cores().to_vec())
}

fn inserts(edges: &[(u32, u32)]) -> Vec<EdgeUpdate> {
    edges
        .iter()
        .map(|&(u, v)| EdgeUpdate::Insert(u, v))
        .collect()
}

fn deletes(edges: &[(u32, u32)]) -> Vec<EdgeUpdate> {
    edges
        .iter()
        .map(|&(u, v)| EdgeUpdate::Delete(u, v))
        .collect()
}

#[test]
fn disjoint_inserts_that_raise_cores_only_together_share_a_round() {
    // Paths 0-1-2-3 and 4-5-6-7 (all core 1). Either new edge alone leaves
    // a path; both close an 8-cycle and lift all eight vertices to 2.
    let g = from_edges(8, &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]);
    let (reps, cores) = run(&g, &[inserts(&[(3, 4), (7, 0)])]);
    assert_eq!(reps[0].rounds, 1);
    assert_eq!(reps[0].changed, 8);
    assert_eq!(cores, vec![2; 8]);
}

#[test]
fn a_hub_lifted_twice_splits_into_two_rounds() {
    // K5 on 1..=5 (core 4); hub 0 hangs on 1 and 2 (core 2). Two more
    // clique neighbors lift the hub by 2 — beyond what one round may
    // change, so the shared endpoint forces two rounds.
    let mut edges = clique(&[1, 2, 3, 4, 5]);
    edges.extend([(0, 1), (0, 2)]);
    let g = from_edges(6, &edges);
    let (reps, cores) = run(&g, &[inserts(&[(0, 3), (0, 4)])]);
    assert_eq!(reps[0].rounds, 2);
    assert_eq!(cores[0], 4);
}

#[test]
fn one_insert_round_spans_three_levels() {
    // Round {(5,0), (6,8), (7,11)} has roots at levels 1, 2 and 3, and the
    // level-2 evictee x = 6 neighbors the level-1 candidate c1 = 5 and the
    // level-3 candidate c2 = 7:
    // * K5 on 0..=4 (core 4);
    // * c1 = 5, a pendant on x, rises to 2 through (5,0) — only while x,
    //   its other supporter, is never decremented out of its count;
    // * x = 6 (core 2: neighbors c1, c2, 1) joins the triangle {8, 9, 10}
    //   through (6,8); the triangle cannot reach core 3, so x is evicted;
    // * c2 = 7 (core 3: neighbors x, 2, 3, 4) meets the K4 {11..=14}
    //   through (7,11); the K4's eviction leaves c2 exactly three
    //   supporters above its level, one short of rising — counting x
    //   would lift it.
    let mut edges = clique(&[0, 1, 2, 3, 4]);
    edges.extend(clique(&[8, 9, 10]));
    edges.extend(clique(&[11, 12, 13, 14]));
    edges.extend([(5, 6), (6, 7), (6, 1), (7, 2), (7, 3), (7, 4)]);
    let g = from_edges(15, &edges);
    let before = bz::Bz.run(&g);
    assert_eq!(before[5..8], [1, 2, 3]);
    let (reps, cores) = run(&g, &[inserts(&[(5, 0), (6, 8), (7, 11)])]);
    assert_eq!(reps[0].rounds, 1);
    assert_eq!(reps[0].pruned_inserts, 0);
    assert_eq!(cores[5..8], [2, 2, 3]);
}

#[test]
fn one_delete_round_spans_three_levels() {
    // Round {(5,6), (7,0), (8,9)} has roots at levels 1, 2 and 3, and the
    // level-2 evictee x = 7 neighbors the level-1 candidate c1 = 5 and the
    // level-3 candidate c2 = 8:
    // * K5 on 0..=4 (core 4), K4 on 9..=12 (core 3);
    // * c1 = 5 loses its pendant 6 and keeps core 1 through x alone;
    // * x = 7 (core 2: neighbors c1, 0, c2) loses 0 and drops to 1;
    // * c2 = 8 (core 3: neighbors x, 1, 2, 3, 9) loses 9 and keeps core 3
    //   with exactly three supporters; x never counted toward it.
    let mut edges = clique(&[0, 1, 2, 3, 4]);
    edges.extend(clique(&[9, 10, 11, 12]));
    edges.extend([
        (5, 6),
        (5, 7),
        (7, 0),
        (7, 8),
        (8, 1),
        (8, 2),
        (8, 3),
        (8, 9),
    ]);
    let g = from_edges(13, &edges);
    let before = bz::Bz.run(&g);
    assert_eq!(before[5..9], [1, 1, 2, 3]);
    let (reps, cores) = run(&g, &[deletes(&[(5, 6), (7, 0), (8, 9)])]);
    assert_eq!(reps[0].rounds, 1);
    assert_eq!(cores[5..9], [1, 0, 1, 3]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Small dense graphs and 64-update batches: endpoints repeat within a
    /// batch (multi-round batches) and cores spread over many levels
    /// (multi-level rounds). GPU ≡ CPU oracle ≡ BZ after every batch.
    #[test]
    fn dense_multi_round_batches_match_the_oracles(
        n in 8u32..=40,
        density in 2u32..6,
        seed in 0u64..u64::MAX,
        raw_ops in proptest::collection::vec((0u32..2, 0u32..40, 0u32..40), 192),
    ) {
        let mut state = seed | 1;
        let edges: Vec<(u32, u32)> = (0..n * density * 2)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state % n as u64) as u32, ((state >> 32) % n as u64) as u32)
            })
            .collect();
        let g = from_edges(n, &edges);
        let ops: Vec<EdgeUpdate> = raw_ops
            .into_iter()
            .map(|(kind, u, v)| {
                let (u, v) = (u % n, v % n);
                if kind == 0 {
                    EdgeUpdate::Insert(u, v)
                } else {
                    EdgeUpdate::Delete(u, v)
                }
            })
            .collect();
        let batches: Vec<Vec<EdgeUpdate>> = ops.chunks(64).map(<[_]>::to_vec).collect();
        let (reps, _) = run(&g, &batches);
        for rep in reps.iter().filter(|r| r.path == BatchPath::Maintained) {
            prop_assert!(rep.rounds >= 1 && rep.rounds <= rep.net_inserts + rep.net_deletes);
        }
    }
}
