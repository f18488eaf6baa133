//! Integration tests for edge-partitioned sharded decomposition (DESIGN.md
//! "Sharded decomposition"): the sharded path must equal BZ on adversarial
//! graphs, be bit-identical at any rayon pool size, agree across both
//! execution paths at several shard counts, and match a checked-in golden
//! that pins every worker's per-phase counters plus the exchange volume.
//! Two clock invariants tie the fleet clock to the single-device engine: a
//! one-shard run costs exactly what `peel::decompose` costs, and so does
//! each half of a disjoint union split one copy per device.
//!
//! After an *intentional* change to the sharded kernels or the exchange
//! protocol, regenerate the golden file:
//!
//! ```bash
//! KCORE_BLESS=1 cargo test --test multi_shard
//! ```

use kcore::cpu::{self, CoreAlgorithm};
use kcore::gpu::{
    decompose, decompose_multi, decompose_multi_fleet, ExecPath, FleetRun, MultiGpuConfig,
    MultiGpuRun, PeelConfig, SimOptions,
};
use kcore::gpusim::{Counters, LaunchConfig, TRACE_SCHEMA_VERSION};
use kcore::graph::{builder, gen, Csr, Partition, PartitionStrategy};
use proptest::prelude::*;
use serde::Serialize;
use std::path::PathBuf;

fn small_cfg(p: usize, strategy: PartitionStrategy) -> MultiGpuConfig {
    MultiGpuConfig {
        num_gpus: p,
        partition: strategy,
        peel: PeelConfig {
            launch: LaunchConfig {
                blocks: 8,
                threads_per_block: 64,
            },
            buf_capacity: 4_096,
            ..PeelConfig::default()
        },
        ..MultiGpuConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Exec-path oracle on the sharded path
// ---------------------------------------------------------------------------

/// Fused ≡ Reference on every worker, at several shard counts and under
/// both partitioners — the sharded extension of the `fastpath_diff`
/// oracle: identical cores, worker fingerprints and simulated times.
#[test]
fn exec_paths_agree_at_all_shard_counts() {
    let g = gen::web_crawl(2_000, 9, 0.55, 4_500, 21);
    let truth = cpu::bz::Bz.run(&g);
    for strategy in [
        PartitionStrategy::BalancedArcs,
        PartitionStrategy::DegreeAware,
    ] {
        for p in [2usize, 4, 8] {
            let runs: Vec<MultiGpuRun> = [ExecPath::Fused, ExecPath::Reference]
                .iter()
                .map(|&ep| {
                    let mut cfg = small_cfg(p, strategy);
                    cfg.peel = cfg.peel.with_exec_path(ep);
                    decompose_multi(&g, &cfg, &SimOptions::default()).unwrap()
                })
                .collect();
            for (run, name) in runs.iter().zip(["fused", "reference"]) {
                assert_eq!(run.core, truth, "{name} p={p} {}", strategy.name());
            }
            assert_eq!(runs[0].sub_rounds, runs[1].sub_rounds);
            assert_eq!(runs[0].exchanged_bytes, runs[1].exchanged_bytes);
            assert_eq!(runs[0].worker_fingerprints, runs[1].worker_fingerprints);
            assert_eq!(runs[0].total_ms.to_bits(), runs[1].total_ms.to_bits());
        }
    }
}

// ---------------------------------------------------------------------------
// Clock invariants against the single-device engine
// ---------------------------------------------------------------------------

/// One shard has no ghosts and no peer to wait for: the sharded run must
/// charge exactly what `peel::decompose` charges, to the bit, on both
/// execution paths.
#[test]
fn one_shard_costs_exactly_the_single_device_run() {
    let graphs = [
        gen::web_crawl(1_500, 8, 0.5, 3_000, 5),
        gen::power_law_hubs(1_200, 2_400, 4, 0.3, 11),
        kcore::graph::fig1_graph(),
    ];
    for g in &graphs {
        for ep in [ExecPath::Fused, ExecPath::Reference] {
            let mut cfg = small_cfg(1, PartitionStrategy::BalancedArcs);
            cfg.peel = cfg.peel.with_exec_path(ep);
            let single = decompose(g, &cfg.peel, &SimOptions::default()).unwrap();
            let sharded = decompose_multi(g, &cfg, &SimOptions::default()).unwrap();
            assert_eq!(sharded.core, single.core);
            assert_eq!(sharded.exchanged_bytes, 0);
            assert_eq!(
                sharded.total_ms.to_bits(),
                single.report.total_ms.to_bits(),
                "{ep:?}: sharded p=1 {} ms vs single device {} ms",
                sharded.total_ms,
                single.report.total_ms
            );
        }
    }
}

/// G ⊎ G split one copy per device: the two devices do identical work in
/// lockstep and share nothing, so the fleet exchanges 0 bytes and charges
/// exactly G's single-device time — no clock error can hide behind
/// exchange traffic.
#[test]
fn disjoint_union_costs_exactly_one_copy() {
    let g = gen::web_crawl(1_000, 8, 0.5, 2_000, 3);
    let n = g.num_vertices();
    let edges: Vec<(u32, u32)> = g
        .edges()
        .flat_map(|(u, v)| [(u, v), (u + n, v + n)])
        .collect();
    let union = builder::from_edges(2 * n, &edges);
    let cfg = small_cfg(2, PartitionStrategy::BalancedArcs);
    let part = Partition::build(&union, 2, cfg.partition);
    assert!(
        (0..2 * n).all(|v| part.owner_of(v) == (v >= n) as usize),
        "the balanced partition must put one copy on each device"
    );
    for ep in [ExecPath::Fused, ExecPath::Reference] {
        let cfg = MultiGpuConfig {
            peel: cfg.peel.with_exec_path(ep),
            ..cfg
        };
        let single = decompose(&g, &cfg.peel, &SimOptions::default()).unwrap();
        let fr = decompose_multi_fleet(&union, &cfg, &SimOptions::default(), "union").unwrap();
        assert_eq!(fr.run.core[..n as usize], single.core[..]);
        assert_eq!(fr.run.core[n as usize..], single.core[..]);
        assert_eq!(fr.run.exchanged_bytes, 0);
        assert_eq!(fr.run.border_packets, 0);
        assert_eq!(
            fr.run.total_ms.to_bits(),
            single.report.total_ms.to_bits(),
            "{ep:?}: G ⊎ G on 2 devices {} ms vs G on one {} ms",
            fr.run.total_ms,
            single.report.total_ms
        );
        fr.fleet.check_well_formed().unwrap();
    }
}

// ---------------------------------------------------------------------------
// Pool-size determinism on adversarial graphs
// ---------------------------------------------------------------------------

/// Runs the same sharded decomposition under rayon pools of 1, 2, and 8
/// threads and asserts the outputs are bit-identical: core vector, worker
/// trace JSONs, exchange volume, sub-round count, simulated time.
fn assert_pool_invariant(g: &Csr, cfg: &MultiGpuConfig) -> MultiGpuRun {
    let traced = || decompose_multi_fleet(g, cfg, &SimOptions::default(), "pools").unwrap();
    let FleetRun {
        run: base,
        traces: base_traces,
        ..
    } = traced();
    let base_json: Vec<String> = base_traces.iter().map(|t| t.to_json()).collect();
    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let FleetRun { run, traces, .. } = pool.install(traced);
        assert_eq!(run.core, base.core, "core diverged at pool {threads}");
        assert_eq!(run.sub_rounds, base.sub_rounds);
        assert_eq!(run.exchanged_bytes, base.exchanged_bytes);
        assert_eq!(run.worker_fingerprints, base.worker_fingerprints);
        assert_eq!(
            run.total_ms.to_bits(),
            base.total_ms.to_bits(),
            "simulated time diverged at pool {threads}"
        );
        let json: Vec<String> = traces.iter().map(|t| t.to_json()).collect();
        assert_eq!(json, base_json, "worker traces diverged at pool {threads}");
    }
    base
}

#[test]
fn adversarial_graphs_match_bz_at_all_pool_sizes() {
    // Hubs whose neighborhoods straddle every shard border, a path whose
    // single shell must cascade through each border in turn, and a clique
    // union with isolated vertices where some shards go idle early.
    let cases: Vec<(Csr, usize)> = vec![
        (gen::power_law_hubs(1_200, 2_400, 4, 0.3, 11), 4),
        (gen::path(600), 5),
        (gen::overlapping_cliques(400, 60, 3..=8, 13), 3),
    ];
    for (g, p) in &cases {
        let truth = cpu::bz::Bz.run(g);
        for strategy in [
            PartitionStrategy::BalancedArcs,
            PartitionStrategy::DegreeAware,
        ] {
            let run = assert_pool_invariant(g, &small_cfg(*p, strategy));
            assert_eq!(run.core, truth, "p={p} {}", strategy.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random graphs, random shard counts, both partitioners: sharded ≡ BZ.
    #[test]
    fn sharded_matches_bz(seed in 0u64..10_000, p in 1usize..9, degree_aware in any::<bool>()) {
        let g = gen::erdos_renyi_gnm(300 + (seed % 7) as u32 * 50, 900 + seed % 1_000, seed);
        let strategy = if degree_aware {
            PartitionStrategy::DegreeAware
        } else {
            PartitionStrategy::BalancedArcs
        };
        let run = decompose_multi(&g, &small_cfg(p, strategy), &SimOptions::default()).unwrap();
        prop_assert_eq!(run.core, cpu::bz::Bz.run(&g));
    }
}

// ---------------------------------------------------------------------------
// Checked-in golden for the sharded run
// ---------------------------------------------------------------------------

/// Timing-free projection of a sharded run: per-worker per-phase launch
/// counts and counters plus the run-level merge invariants. Pins the whole
/// distributed execution — a lost exchange, an extra sub-round, or a
/// mischarged kernel fails CI even when the core vector is still right.
#[derive(Serialize)]
struct GoldenMulti {
    schema_version: u32,
    sub_rounds: u32,
    rounds: u32,
    exchanged_bytes: u64,
    per_device_peak_bytes: Vec<u64>,
    workers: Vec<GoldenWorker>,
}

#[derive(Serialize)]
struct GoldenWorker {
    fingerprint: String,
    phases: Vec<GoldenPhase>,
}

#[derive(Serialize)]
struct GoldenPhase {
    phase: &'static str,
    launches: u64,
    h2d_bytes: u64,
    d2h_bytes: u64,
    counters: Counters,
}

#[test]
fn sharded_run_matches_checked_in_golden() {
    let g = gen::rmat(9, 2_000, gen::RmatParams::graph500(), 7);
    let cfg = MultiGpuConfig {
        num_gpus: 4,
        peel: PeelConfig::default().with_launch(LaunchConfig {
            blocks: 16,
            threads_per_block: 128,
        }),
        ..MultiGpuConfig::default()
    };
    let FleetRun { run, traces, .. } =
        decompose_multi_fleet(&g, &cfg, &SimOptions::default(), "golden").unwrap();
    assert_eq!(run.core, cpu::bz::Bz.run(&g));
    let golden = GoldenMulti {
        schema_version: TRACE_SCHEMA_VERSION,
        sub_rounds: run.sub_rounds,
        rounds: run.rounds,
        exchanged_bytes: run.exchanged_bytes,
        per_device_peak_bytes: run.per_device_peak_bytes.clone(),
        workers: traces
            .iter()
            .map(|t| GoldenWorker {
                fingerprint: format!("{:#018x}", t.counters_fingerprint()),
                phases: t
                    .phases
                    .iter()
                    .map(|p| GoldenPhase {
                        phase: p.phase,
                        launches: p.launches,
                        h2d_bytes: p.h2d_bytes,
                        d2h_bytes: p.d2h_bytes,
                        counters: p.counters,
                    })
                    .collect(),
            })
            .collect(),
    };
    let got = serde_json::to_string_pretty(&golden).unwrap();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/multi_rmat9.json");
    if std::env::var("KCORE_BLESS").is_ok() {
        std::fs::write(&path, &got).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {} ({e}); run with KCORE_BLESS=1 to create it",
            path.display()
        )
    });
    let want_schema = kcore_bench::regress::parse_json(&want)
        .ok()
        .and_then(|v| {
            kcore_bench::regress::get(&v, "schema_version").and_then(kcore_bench::regress::as_u64)
        })
        .unwrap_or(1);
    assert_eq!(
        want_schema, TRACE_SCHEMA_VERSION as u64,
        "golden blessed under trace schema {want_schema}, current is {TRACE_SCHEMA_VERSION}; \
         refusing to diff across schemas — regenerate with KCORE_BLESS=1"
    );
    assert_eq!(
        got,
        want,
        "sharded execution diverged from {}; if the change is intentional, \
         regenerate with KCORE_BLESS=1",
        path.display()
    );
}
