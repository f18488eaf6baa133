//! Regenerates the **dynamic maintenance table** (ROADMAP item 1, the
//! paper's §VI motivation): sustained updates/sec of the batched GPU
//! maintenance engine on R-MAT edge churn, against the only strategy the
//! paper's systems offer an evolving graph — a full from-scratch re-peel
//! after every update.
//!
//! For each batch size the whole churn stream is replayed through a fresh
//! [`DynamicCore`] and the *simulated* milliseconds are summed; the
//! baseline is the average simulated cost of a full peel sampled at evenly
//! spaced points of the same stream (graph size barely moves, so the
//! sample mean is representative). The measured maintenance/re-peel
//! **crossover** — the net batch size at which one re-peel becomes cheaper
//! than round-based maintenance — is derived from the largest-batch run's
//! cost per *net* update (the unit [`DynamicConfig::crossover`] counts) and
//! reported next to the engine's configured fallback threshold. Each row
//! also splits its simulated time into launch overhead, PCIe transfers and
//! kernel work, summed from the run's per-phase trace rollups.
//!
//! `--check` additionally verifies the final core numbers of every run
//! against a from-scratch BZ peel of the final graph, asserts that the
//! per-phase trace time equals the summed batch reports and that no
//! maintained batch reads back more than twice or launches more than five
//! kernels per matching round, and drives oracle-checked smoke batches:
//! disjoint pairs (one round) and a hub star (one round per edge), each
//! inserted and then deleted (at full scale also the ≥ 10x acceptance
//! bar); `KCORE_SMOKE=1` shrinks the workload to CI size.

use kcore_bench::{print_table, save_json};
use kcore_cpu::{bz, incremental::DynamicGraph, CoreAlgorithm};
use kcore_gpu::{BatchPath, DynamicConfig, DynamicCore, PeelConfig};
use kcore_gpusim::{LaunchConfig, SimOptions, Trace, TransferDir};
use kcore_graph::{gen, EdgeUpdate};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    batch_size: usize,
    /// Net updates the engine applied (accepted, after cancellation).
    net: usize,
    /// Matching rounds the maintained batches ran.
    rounds: usize,
    sim_ms: f64,
    /// `sim_ms` split: launch overhead, PCIe transfers, kernel work.
    launch_ms: f64,
    transfer_ms: f64,
    work_ms: f64,
    updates_per_sec: f64,
    speedup_vs_repeel: f64,
    batches: usize,
    repeeled_batches: usize,
    pruned_inserts: usize,
    candidates: u64,
    changed: u64,
}

#[derive(Serialize)]
struct Table {
    scale: u32,
    num_vertices: u32,
    num_edges: u64,
    updates: usize,
    repeel_avg_ms: f64,
    baseline_updates_per_sec: f64,
    /// Measured: net updates at which one full re-peel costs less than
    /// maintenance (derived from the largest-batch run's cost per
    /// net update).
    crossover_updates: u64,
    /// [`DynamicConfig::auto_crossover`] on the same measurements — what the
    /// engine would pick as its fallback threshold if tuned from this run.
    auto_crossover: usize,
    /// Configured: net-update count at which the engine falls back.
    configured_crossover: usize,
    rows: Vec<Row>,
}

/// Launch overhead, transfer and kernel-work ms summed over a trace's
/// phases.
fn sim_split(t: &Trace) -> [f64; 3] {
    t.phases.iter().fold([0.0; 3], |[l, x, w], p| {
        [
            l + p.launch_overhead_ms,
            x + p.transfer_ms,
            w + p.kernel_ms - p.launch_overhead_ms,
        ]
    })
}

/// Deterministic xorshift32 churn over in-range endpoints; duplicate
/// inserts and absent deletes occur naturally and are rejected identically
/// by engine and oracle.
fn churn_ops(n: u32, count: usize, mut state: u32) -> Vec<EdgeUpdate> {
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        state
    };
    (0..count)
        .map(|_| {
            let u = rng() % n;
            let v = rng() % n;
            if rng() % 2 == 0 {
                EdgeUpdate::Insert(u, v)
            } else {
                EdgeUpdate::Delete(u, v)
            }
        })
        .collect()
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let smoke = std::env::var_os("KCORE_SMOKE").is_some();
    // Smoke: a CI-sized graph; full: the acceptance workload (rmat-16).
    let (scale, m, updates, samples) = if smoke {
        (9u32, 2_000u64, 256usize, 4usize)
    } else {
        (16u32, 262_144u64, 4_096usize, 6usize)
    };
    let launch = LaunchConfig {
        blocks: 16,
        threads_per_block: 128,
    };
    let peel_cfg = PeelConfig::default().with_launch(launch);
    let dyn_cfg = DynamicConfig {
        launch,
        peel: peel_cfg,
        ..DynamicConfig::default()
    };

    eprintln!("[table_dynamic] generating rmat-{scale} ({m} edge samples)");
    let g = gen::rmat(scale, m, gen::RmatParams::graph500(), 7);
    let n = g.num_vertices();
    let ops = churn_ops(n, updates, 0x1234_5678);

    // Oracle replay: snapshots for the sampled re-peel baseline and the
    // ground truth for --check.
    let mut oracle = DynamicGraph::from_csr(&g);
    let stride = (updates / samples).max(1);
    let mut repeel_ms = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        oracle.apply_batch(std::slice::from_ref(op));
        if i % stride == stride - 1 {
            let snap = oracle.to_csr();
            let run = kcore_gpu::decompose(&snap, &peel_cfg, &SimOptions::default())
                .expect("baseline peel");
            eprintln!(
                "[table_dynamic] re-peel sample at update {}: {:.3} ms",
                i + 1,
                run.report.total_ms
            );
            repeel_ms.push(run.report.total_ms);
        }
    }
    let repeel_avg_ms = repeel_ms.iter().sum::<f64>() / repeel_ms.len() as f64;
    let baseline_ups = 1_000.0 / repeel_avg_ms;
    let truth = bz::Bz.run(&oracle.to_csr());

    let batch_sizes = [1usize, 16, 64, 256, 1024];
    let mut rows = Vec::new();
    for &bs in &batch_sizes {
        let mut dc = DynamicCore::from_csr(&SimOptions::default(), &g, dyn_cfg.clone())
            .expect("engine init");
        let before = sim_split(&dc.ctx_mut().trace("init"));
        let mut sim_ms = 0.0;
        let mut net = 0usize;
        let mut rounds = 0usize;
        let mut batches = 0usize;
        let mut repeeled = 0usize;
        let mut pruned = 0usize;
        let mut candidates = 0u64;
        let mut changed = 0u64;
        for batch in ops.chunks(bs) {
            let (l0, t0) = (dc.ctx().launches().len(), dc.ctx().transfers().len());
            let rep = dc.apply_batch(batch).expect("apply_batch");
            let d2h = dc.ctx().transfers()[t0..]
                .iter()
                .filter(|t| t.dir == TransferDir::DeviceToHost)
                .count();
            let launches = dc.ctx().launches().len() - l0;
            if check && rep.path == BatchPath::Maintained {
                assert!(
                    d2h <= 2,
                    "batch size {bs}: a maintained batch read back {d2h} times (budget 2)"
                );
                assert!(
                    launches <= 5 * rep.rounds,
                    "batch size {bs}: {launches} launches for {} rounds (budget 5 per round)",
                    rep.rounds
                );
            }
            sim_ms += rep.sim_ms;
            net += rep.net_inserts + rep.net_deletes;
            rounds += rep.rounds;
            batches += 1;
            repeeled += usize::from(rep.path == BatchPath::Repeeled);
            pruned += rep.pruned_inserts;
            candidates += rep.candidates;
            changed += rep.changed;
        }
        let after = sim_split(&dc.ctx_mut().trace("run"));
        let [launch_ms, transfer_ms, work_ms] = [0, 1, 2].map(|i| after[i] - before[i]);
        if check {
            // Two independent accumulations of the same clock: the trace's
            // per-phase kernel and transfer time, and the batches' reports.
            let traced = launch_ms + transfer_ms + work_ms;
            assert!(
                (traced - sim_ms).abs() <= 1e-9 * sim_ms.max(1.0),
                "batch size {bs}: phases sum to {traced} ms, batch reports to {sim_ms} ms"
            );
        }
        let ups = updates as f64 * 1_000.0 / sim_ms;
        eprintln!(
            "[table_dynamic] batch {bs}: {sim_ms:.3} ms, {ups:.0} upd/s ({:.1}x)",
            ups / baseline_ups
        );
        if check {
            assert_eq!(
                dc.cores(),
                &truth[..],
                "batch size {bs}: maintained cores diverge from from-scratch BZ"
            );
        }
        rows.push(Row {
            batch_size: bs,
            net,
            rounds,
            sim_ms,
            launch_ms,
            transfer_ms,
            work_ms,
            updates_per_sec: ups,
            speedup_vs_repeel: ups / baseline_ups,
            batches,
            repeeled_batches: repeeled,
            pruned_inserts: pruned,
            candidates,
            changed,
        });
    }

    // Measured crossover: maintenance cost per net update (what the
    // engine's crossover counts; rejected and cancelled updates are free)
    // from the largest-batch run (best amortization) vs one full re-peel.
    let last = rows.last().unwrap();
    let per_net_update_ms = last.sim_ms / last.net as f64;
    let crossover_updates = (repeel_avg_ms / per_net_update_ms).ceil() as u64;
    // The engine-side derivation of the same break-even point.
    let auto_crossover = DynamicConfig::auto_crossover(repeel_avg_ms, per_net_update_ms);

    let headers: Vec<String> = [
        "Batch", "net", "rounds", "sim ms", "launch", "xfer", "work", "upd/s", "vs peel",
        "repeels", "pruned", "cand", "changed",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut txt: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.batch_size.to_string(),
                r.net.to_string(),
                r.rounds.to_string(),
                format!("{:.2}", r.sim_ms),
                format!("{:.2}", r.launch_ms),
                format!("{:.2}", r.transfer_ms),
                format!("{:.2}", r.work_ms),
                format!("{:.0}", r.updates_per_sec),
                format!("{:.1}x", r.speedup_vs_repeel),
                r.repeeled_batches.to_string(),
                r.pruned_inserts.to_string(),
                r.candidates.to_string(),
                r.changed.to_string(),
            ]
        })
        .collect();
    txt.push(vec![
        "re-peel".into(),
        "-".into(),
        "-".into(),
        format!("{repeel_avg_ms:.2}"),
        "-".into(),
        "-".into(),
        "-".into(),
        format!("{baseline_ups:.0}"),
        "1.0x".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    println!(
        "\nDYNAMIC MAINTENANCE — rmat-{scale} ({} vertices, {} edges), {} updates\n",
        n,
        oracle.to_csr().num_edges(),
        updates
    );
    print_table(&headers, &txt);
    println!(
        "\nbaseline: full re-peel avg {repeel_avg_ms:.2} ms over {} samples",
        repeel_ms.len()
    );
    println!(
        "crossover: one re-peel ≈ {crossover_updates} maintained net updates \
         (auto_crossover would set {auto_crossover}); the configured default \
         stays at {} net updates/batch, not re-tuned from this run",
        dyn_cfg.crossover
    );
    println!("sim ms = launch overhead + transfers (xfer) + kernel work, from per-phase traces");

    let best = rows
        .iter()
        .map(|r| r.speedup_vs_repeel)
        .fold(0.0f64, f64::max);
    save_json(
        "table_dynamic",
        &Table {
            scale,
            num_vertices: n,
            num_edges: oracle.to_csr().num_edges(),
            updates,
            repeel_avg_ms,
            baseline_updates_per_sec: baseline_ups,
            crossover_updates,
            auto_crossover,
            configured_crossover: dyn_cfg.crossover,
            rows,
        },
    );

    if check {
        // The derived fallback threshold must sit exactly at the measured
        // break-even point: re-peel pays off at `auto_crossover` updates
        // and not one sooner.
        assert!(
            per_net_update_ms * auto_crossover as f64 >= repeel_avg_ms,
            "auto_crossover {auto_crossover} below break-even \
             (per net update {per_net_update_ms:.4} ms, re-peel {repeel_avg_ms:.4} ms)"
        );
        assert!(
            per_net_update_ms * ((auto_crossover - 1) as f64) < repeel_avg_ms,
            "auto_crossover {auto_crossover} is not minimal \
             (per net update {per_net_update_ms:.4} ms, re-peel {repeel_avg_ms:.4} ms)"
        );
        assert_eq!(
            auto_crossover as u64, crossover_updates,
            "engine-derived crossover diverges from the table's measured one"
        );
        // The ci.sh dynamic smoke proper: a pure-insert batch followed by a
        // pure-delete batch of the same edges, oracle-checked after each —
        // once over disjoint pairs (a single matching round), once over a
        // hub star, whose shared endpoint forces one round per edge.
        let disjoint: Vec<(u32, u32)> = (0..32u32).map(|i| (i, i + n / 2)).collect();
        let star: Vec<(u32, u32)> = (1..=32u32).map(|i| (0, i)).collect();
        for (what, pairs, round_per_edge) in
            [("disjoint", disjoint, false), ("hub star", star, true)]
        {
            let mut dc = DynamicCore::from_csr(&SimOptions::default(), &g, dyn_cfg.clone())
                .expect("smoke engine init");
            let mut orc = DynamicGraph::from_csr(&g);
            for mk in [
                EdgeUpdate::Insert as fn(u32, u32) -> EdgeUpdate,
                EdgeUpdate::Delete as fn(u32, u32) -> EdgeUpdate,
            ] {
                let batch: Vec<EdgeUpdate> = pairs.iter().map(|&(u, v)| mk(u, v)).collect();
                let rep = dc.apply_batch(&batch).expect("smoke batch");
                orc.apply_batch(&batch);
                let net = rep.net_inserts + rep.net_deletes;
                let want = if round_per_edge { net } else { net.min(1) };
                assert_eq!(rep.rounds, want, "{what} smoke batch: {net} net updates");
                assert_eq!(
                    dc.cores(),
                    orc.cores(),
                    "{what} smoke batch diverges from oracle"
                );
                assert_eq!(
                    dc.cores(),
                    &bz::Bz.run(&orc.to_csr())[..],
                    "{what} smoke batch diverges from from-scratch BZ"
                );
            }
        }
        if smoke {
            eprintln!("[table_dynamic] check OK (smoke scale; best speedup {best:.1}x)");
        } else {
            assert!(
                best >= 10.0,
                "acceptance: batched maintenance must sustain ≥ 10x updates/sec over \
                 per-update re-peel at batch ≤ 1024 (best {best:.1}x)"
            );
            eprintln!("[table_dynamic] check OK (best speedup {best:.1}x ≥ 10x)");
        }
    }
}
