//! Multi-GPU k-core decomposition — the paper's §VII future work, built out
//! as real edge-partitioned sharding.
//!
//! > "we can partition a graph among worker GPUs running our kernels, but
//! > degree updates of border vertices would be aggregated afterwards, which
//! > can be computed at a master GPU. Moreover, the updates may cause new
//! > border vertices to be in k-shell, so more than one round may be needed
//! > to compute a k-shell."
//!
//! Design implemented here (see DESIGN.md "Sharded decomposition"):
//!
//! * the graph is split by a [`Partition`] (balanced-arcs ranges or the
//!   degree-aware hub-splitting strategy) into per-shard **local-ID
//!   compacted CSRs**: each worker device holds only its owned rows, its
//!   ghost table, and its share of the arcs — O(owned + ghosts) residency,
//!   not the old O(|V|)-per-worker replicated arrays;
//! * every worker runs the **real scan/loop peel kernels** from [`peel`]
//!   over its shard, on whichever [`ExecPath`] the config selects, executed
//!   concurrently on the rayon pool;
//! * ghost vertices use the **sentinel-accumulator protocol**: their `deg`
//!   slots are pinned at [`GHOST_BASE`], so the unmodified loop kernel's
//!   decrement-and-recover arithmetic simply counts border decrements in
//!   the slot (a ghost can never scan-match `k`, never crosses `k + 1`, and
//!   never dips below the recover floor). After the local loops drain, the
//!   host reads each slot's delta, resets it, and ships `(vertex, delta)`
//!   packets through the master to the owners;
//! * owners apply aggregated border decrements with a floor at `k`; a
//!   vertex landing exactly on `k` is seeded into the owner's next
//!   sub-round (the paper's "new border vertices in the k-shell") via a
//!   seed launch that rebuilds the per-block frontier, followed by a
//!   loop-only launch — never a re-scan;
//! * **peeled-ghost notices**: in the same exchange, each owner reports the
//!   border vertices that reached `deg ≤ k` since its last report, through
//!   the master, to exactly the shards holding them as ghosts (the
//!   partition's holder lists). A holder pins that ghost's slot at `k`, so
//!   the unmodified loop kernel's `deg[u] > k` probe skips it — exactly as
//!   one device skips a peeled neighbour — instead of shipping decrements
//!   the owner's floor would discard. The drain skips pinned slots;
//! * sub-rounds repeat until the exchange produces no seeds.
//!
//! **One clock.** Devices run concurrently and meet at barriers: after each
//! sub-round, after the pack kernels and after the apply kernels, every
//! device idles until the slowest arrives, so all device clocks agree and
//! the fleet clock is the device clock. A sub-round charges its largest
//! per-device delta; an exchange its slowest pack kernel, two link hops
//! (each `pcie_latency_s` plus bytes over `link_bandwidth`) and its slowest
//! apply kernel. One device never waits and has no ghosts, so a one-shard
//! run charges exactly what [`peel::decompose`] charges.
//!
//! **Determinism.** The merge order is fixed: drains and notices happen in
//! shard index order, updates are aggregated owner-major by ascending
//! global vertex ID, and owner lookup is the O(1) partition map. Worker
//! kernels run on private contexts whose engine is pool-size-independent,
//! so traces, counters, `total_ms` and `exchanged_bytes` are bit-identical
//! at any rayon pool size — `tests/multi_shard.rs` pins this.

use crate::config::{ExecPath, PeelConfig};
use crate::peel;
use kcore_gpusim::{
    BlockCtx, BufferId, ExchangeTrace, FleetMemStats, FleetTrace, FlowEdge, GpuContext,
    KernelError, RoundTrace, SimError, SimOptions, SizeClass, SubRoundSlice, Timeline, Trace,
};
use kcore_graph::{Csr, Partition, PartitionStrategy};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

/// Sentinel base value for ghost `deg` slots. Large enough that a ghost can
/// never equal the round's `k` (scan), cross `k + 1` (frontier append), or
/// fall to the recover floor: a slot absorbs at most one decrement per
/// incident arc per run, and `|V| < 2^30` is asserted up front. A pinned
/// slot holds a core (`≤ k < 2^30`), so the drain tells the two apart by
/// value.
const GHOST_BASE: u32 = 0x7FFF_FFFF;

/// Configuration of a multi-GPU run.
#[derive(Debug, Clone, Copy)]
pub struct MultiGpuConfig {
    /// Number of worker GPUs (each gets its own simulated device).
    pub num_gpus: usize,
    /// Kernel configuration used by every worker (including the
    /// [`ExecPath`]).
    pub peel: PeelConfig,
    /// Vertex-to-shard assignment strategy.
    pub partition: PartitionStrategy,
    /// Inter-GPU link bandwidth, bytes/s (PCIe peer-to-peer ≈ 10 GB/s on
    /// the paper-era platform; NVLink would be ~40 GB/s). Each hop's fixed
    /// latency is the device cost model's `pcie_latency_s`: a peer copy is
    /// a PCIe transaction, and that term scales with the graph like every
    /// other fixed cost.
    pub link_bandwidth: f64,
}

impl Default for MultiGpuConfig {
    fn default() -> Self {
        MultiGpuConfig {
            num_gpus: 4,
            peel: PeelConfig::default(),
            partition: PartitionStrategy::BalancedArcs,
            link_bandwidth: 10e9,
        }
    }
}

/// Result of a multi-GPU decomposition.
#[derive(Debug, Clone)]
pub struct MultiGpuRun {
    /// Per-vertex core numbers.
    pub core: Vec<u32>,
    /// `max_v core(v)`.
    pub k_max: u32,
    /// Peeling rounds (`k_max + 1`).
    pub rounds: u32,
    /// Total sub-rounds across all rounds (> rounds when k-shells span
    /// partition borders).
    pub sub_rounds: u32,
    /// Execution path the worker kernels ran on.
    pub exec_path: ExecPath,
    /// Simulated wall time on the fleet clock, ms: every barrier charges
    /// the slowest device's delta, every exchange its kernels plus the
    /// link hops.
    pub total_ms: f64,
    /// Sum of worker device peaks, bytes.
    pub total_peak_mem_bytes: u64,
    /// Each worker device's peak, bytes, in shard order.
    pub per_device_peak_bytes: Vec<u64>,
    /// Each worker trace's counters fingerprint, in shard order.
    pub worker_fingerprints: Vec<u64>,
    /// Bytes exchanged between devices over the whole run.
    pub exchanged_bytes: u64,
    /// Exchanges that actually carried border packets or notices
    /// (informational observability rollup — never feeds the cost model).
    pub exchange_rounds: u64,
    /// Total worker→master border packets over the run (informational).
    pub border_packets: u64,
}

/// A traced fleet run: the result plus every observability artifact the
/// fleet layer derives — per-device traces/timelines and the
/// [`FleetTrace`] ledger. Everything here observes the same run; none of it
/// perturbs `total_ms`, fingerprints, or `exchanged_bytes`.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// The decomposition result, bit-identical to [`decompose_multi`].
    pub run: MultiGpuRun,
    /// Per-worker traces, shard order.
    pub traces: Vec<Trace>,
    /// Per-worker SM timelines, shard order — feed
    /// [`FleetTrace::merged_chrome_json`].
    pub timelines: Vec<Timeline>,
    /// The fleet ledger: exchange flows, sub-round slices, critical path.
    pub fleet: FleetTrace,
}

/// One worker: a device context holding its shard's peel working set.
struct Worker {
    ctx: GpuContext,
    st: peel::DeviceState,
    n_owned: usize,
    /// Exchange staging buffer (ledger residency for packets and notices).
    d_xfer: Option<BufferId>,
    /// Device copy of the shard's holder lists, read by the pack kernel.
    d_holders: Option<BufferId>,
    /// Cumulative `gpu_count` readback = owned vertices removed so far.
    count: u64,
    /// Border seeds (local IDs, ascending) for the next sub-round.
    seeds: Vec<u32>,
    /// Owned border vertices (local IDs, ascending) not yet reported to
    /// their holders.
    unreported: Vec<u32>,
    /// Ghost indices whose slots still accumulate decrements: not pinned.
    live_ghosts: Vec<u32>,
}

/// Runs the distributed decomposition. `opts.device_capacity_bytes` is the
/// capacity of *each* worker device.
pub fn decompose_multi(
    g: &Csr,
    cfg: &MultiGpuConfig,
    opts: &SimOptions,
) -> Result<MultiGpuRun, SimError> {
    decompose_multi_impl(g, cfg, opts, None, true).map(|(run, ..)| run)
}

/// [`decompose_multi`] with the full fleet observability layer: the run,
/// the per-worker traces (shard order, for golden pinning and per-device
/// memstats inspection) and timelines, and the [`FleetTrace`] ledger
/// (exchange flows, sub-round slices, per-round critical path). The run
/// itself — `total_ms`, fingerprints, `exchanged_bytes` — is bit-identical
/// to [`decompose_multi`]; the fleet layer only observes.
pub fn decompose_multi_fleet(
    g: &Csr,
    cfg: &MultiGpuConfig,
    opts: &SimOptions,
    label: impl Into<String>,
) -> Result<FleetRun, SimError> {
    let (run, traces, rounds, timelines) =
        decompose_multi_impl(g, cfg, opts, Some(label.into()), true)?;
    let (label, timelines, setup_ms, result_ms) = timelines.expect("fleet capture requested");
    let fleet = FleetTrace::new(
        label,
        setup_ms,
        result_ms,
        run.total_ms,
        run.exchanged_bytes,
        rounds,
        traces.clone(),
    );
    Ok(FleetRun {
        run,
        traces,
        timelines,
        fleet,
    })
}

/// Fleet-capture payload threaded out of the impl when a label is given:
/// `(label, per-worker timelines, setup_ms, result_ms)`.
type FleetCapture = (String, Vec<Timeline>, f64, f64);

/// Everything `decompose_multi_impl` produces: the run, per-worker traces,
/// the per-round ledger, and the optional fleet capture.
type MultiImplOutput = (
    MultiGpuRun,
    Vec<Trace>,
    Vec<RoundTrace>,
    Option<FleetCapture>,
);

/// The engine. `notices: false` switches peeled-ghost notices off, for the
/// tests that measure what they save.
fn decompose_multi_impl(
    g: &Csr,
    cfg: &MultiGpuConfig,
    opts: &SimOptions,
    fleet_label: Option<String>,
    notices: bool,
) -> Result<MultiImplOutput, SimError> {
    assert!(cfg.num_gpus >= 1);
    let n = g.num_vertices() as usize;
    if n == 0 {
        return Ok((
            MultiGpuRun {
                core: Vec::new(),
                k_max: 0,
                rounds: 0,
                sub_rounds: 0,
                exec_path: cfg.peel.exec_path,
                total_ms: 0.0,
                total_peak_mem_bytes: 0,
                per_device_peak_bytes: Vec::new(),
                worker_fingerprints: Vec::new(),
                exchanged_bytes: 0,
                exchange_rounds: 0,
                border_packets: 0,
            },
            Vec::new(),
            Vec::new(),
            fleet_label.map(|label| (label, Vec::new(), 0.0, 0.0)),
        ));
    }
    assert!(n < (1 << 30), "ghost sentinel headroom requires |V| < 2^30");
    // Orchestration runs on the host across worker contexts, so its spans
    // land on the process-global profiler rather than any one context's.
    let prof = kcore_gpusim::hostprof::global();
    let _run_span = prof.map(|hp| hp.span("multi_gpu/decompose"));

    // ---- partition & load shards ----------------------------------------
    let partition_span = prof.map(|hp| hp.span("multi_gpu/partition"));
    let part = Partition::build(g, cfg.num_gpus, cfg.partition);
    let mut workers = build_workers(&part, cfg, opts)?;
    if !notices {
        workers.iter_mut().for_each(|w| w.unreported.clear());
    }
    let setup_ms = barrier(&mut workers)? * 1e3;
    drop(partition_span);

    let mut exchanged_bytes = 0u64;
    let mut sub_rounds = 0u32;
    let mut rounds = 0u32;
    let mut k = 0u32;
    let mut removed = 0u64;
    // Update scratch, reused across exchanges.
    let mut updates: Vec<(u32, u32)> = Vec::new();
    // Fleet ledger: one entry per peel round. Observability only — it
    // records the fleet clock's advances, it never drives them.
    let mut round_log: Vec<RoundTrace> = Vec::new();

    let rounds_span = prof.map(|hp| hp.span("multi_gpu/rounds"));
    while removed < n as u64 {
        rounds += 1;
        let mut slices: Vec<SubRoundSlice> = Vec::new();
        let mut exchanges: Vec<ExchangeTrace> = Vec::new();
        // Sub-round 0: every worker scans its shard for the k-shell and
        // drains the resulting cascade — the real kernels, concurrently.
        sub_rounds += 1;
        let slice = run_workers(&mut workers, 0, |w| {
            peel::run_scan_loop(&mut w.ctx, k, &w.st, &cfg.peel)?;
            sync_worker(w);
            Ok(())
        })?;
        slices.push(slice);

        // Border sub-rounds: exchange ghost decrements, seed owners, run
        // loop-only launches, until an exchange produces no seeds.
        loop {
            let (any_seeds, ledger) = exchange(
                &mut workers,
                &part,
                k,
                cfg,
                opts.cost.pcie_latency_s,
                &mut updates,
                &mut exchanged_bytes,
                slices.len() as u32 - 1,
            )?;
            exchanges.push(ledger);
            if !any_seeds {
                break;
            }
            sub_rounds += 1;
            let slice = run_workers(&mut workers, slices.len() as u32, |w| {
                if w.seeds.is_empty() {
                    return Ok(());
                }
                let seeds = std::mem::take(&mut w.seeds);
                seed_frontier(&mut w.ctx, &w.st, &cfg.peel, &seeds)?;
                peel::run_loop_only(&mut w.ctx, k, &w.st, &cfg.peel)?;
                sync_worker(w);
                Ok(())
            })?;
            slices.push(slice);
        }

        round_log.push(RoundTrace {
            k,
            sub_rounds: slices.len() as u32,
            slices,
            exchanges,
        });
        removed = workers.iter().map(|w| w.count).sum();
        k += 1;
        if k as usize > n + 1 {
            return Err(SimError::Kernel(KernelError::Other(format!(
                "sharded peeling did not converge: k={k} exceeds |V|={n} (removed={removed})"
            ))));
        }
    }
    drop(rounds_span);

    // ---- gather results ---------------------------------------------------
    // Owned deg ranges have converged to the core numbers, exactly as in
    // the single-device run; ghost slots still hold the sentinel.
    let mut core = vec![0u32; n];
    let mut result_ms = 0.0f64;
    let result_start_ms = workers[0].ctx.elapsed_ms();
    for (wi, w) in workers.iter_mut().enumerate() {
        w.ctx.set_phase("Result");
        let owned_core = w.ctx.dtoh_range(w.st.d_deg, 0, w.n_owned);
        for (l, &v) in part.shards[wi].owned.iter().enumerate() {
            core[v as usize] = owned_core[l];
        }
        peel::free_device(&mut w.ctx, &w.st);
        for x in [w.d_xfer, w.d_holders].into_iter().flatten() {
            w.ctx.device.free(x);
        }
        result_ms = result_ms.max(w.ctx.elapsed_ms() - result_start_ms);
    }
    // With one device no barrier ever waits, so this is its own clock —
    // bit-identical to `peel::decompose`'s `total_ms`.
    let total_ms = barrier(&mut workers)? * 1e3;

    // Timelines are captured before `trace()` only when the fleet layer
    // asked; both are pure derivations, so the traced path is unchanged.
    let fleet_capture = fleet_label.map(|label| {
        let timelines: Vec<Timeline> = workers
            .iter()
            .enumerate()
            .map(|(wi, w)| w.ctx.timeline(format!("worker{wi}")))
            .collect();
        (label, timelines, setup_ms, result_ms)
    });
    let traces: Vec<Trace> = workers
        .iter_mut()
        .enumerate()
        .map(|(wi, w)| w.ctx.trace(format!("worker{wi}")))
        .collect();
    let per_device_peak_bytes: Vec<u64> =
        workers.iter().map(|w| w.ctx.device.peak_bytes()).collect();
    let k_max = core.iter().copied().max().unwrap_or(0);
    let exchange_rounds = round_log
        .iter()
        .flat_map(|r| &r.exchanges)
        .filter(|e| e.bytes > 0)
        .count() as u64;
    let border_packets = round_log
        .iter()
        .flat_map(|r| &r.exchanges)
        .map(|e| e.packets_out)
        .sum();
    Ok((
        MultiGpuRun {
            core,
            k_max,
            rounds,
            sub_rounds,
            exec_path: cfg.peel.exec_path,
            total_ms,
            total_peak_mem_bytes: per_device_peak_bytes.iter().sum(),
            worker_fingerprints: traces.iter().map(|t| t.counters_fingerprint()).collect(),
            per_device_peak_bytes,
            exchanged_bytes,
            exchange_rounds,
            border_packets,
        },
        traces,
        round_log,
        fleet_capture,
    ))
}

/// Loads every shard onto its own device: the local-ID CSR through
/// [`peel::load_device`] (ghost `deg` slots pinned at [`GHOST_BASE`]) plus
/// the exchange staging buffer. Allocation names and order per worker match
/// the single-device run — memstats on a worker context shows only
/// shard-local sizes.
fn build_workers(
    part: &Partition,
    cfg: &MultiGpuConfig,
    opts: &SimOptions,
) -> Result<Vec<Worker>, SimError> {
    let mut workers = Vec::with_capacity(part.num_shards());
    for shard in &part.shards {
        let mut ctx = opts.context();
        let offsets32: Vec<u32> = shard.csr.offsets().iter().map(|&o| o as u32).collect();
        let mut deg = shard.csr.degrees();
        for d in deg[shard.num_owned()..].iter_mut() {
            *d = GHOST_BASE;
        }
        let st = peel::load_device(
            &mut ctx,
            &offsets32,
            shard.csr.neighbor_array(),
            &deg,
            &cfg.peel,
        )?;
        // Staging room for one exchange's worth of (vertex, delta) packets
        // (at most one per ghost) and notices (at most one per holder
        // entry), plus the holder lists. Batch-class: both are border
        // properties, not |V|/|E|-linear ones.
        let mut border_alloc = |name: &str, len: usize| {
            (len > 0)
                .then(|| ctx.alloc_tagged(name, len, SizeClass::Batch))
                .transpose()
        };
        let d_xfer = border_alloc("mgpu.xfer", 2 * shard.ghosts.len() + shard.holders.len())?;
        let d_holders = border_alloc("mgpu.holders", shard.holders.len())?;
        workers.push(Worker {
            ctx,
            st,
            n_owned: shard.num_owned(),
            d_xfer,
            d_holders,
            count: 0,
            seeds: Vec::new(),
            unreported: (0..shard.num_owned() as u32)
                .filter(|&l| !shard.holders_of(l as usize).is_empty())
                .collect(),
            live_ghosts: (0..shard.ghosts.len() as u32).collect(),
        });
    }
    Ok(workers)
}

/// The fleet barrier: every device idles until the slowest one arrives, so
/// all clocks agree afterwards. Returns that fleet clock, seconds. A lone
/// device never waits.
fn barrier(workers: &mut [Worker]) -> Result<f64, SimError> {
    let t = workers
        .iter()
        .map(|w| w.ctx.elapsed_s())
        .fold(0.0, f64::max);
    for w in workers.iter_mut() {
        w.ctx.wait_until_s(t)?;
    }
    Ok(t)
}

/// Runs `f` on every worker concurrently (order-preserving rayon map) from
/// a common fleet clock, then barriers. The [`SubRoundSlice`] records each
/// device's delta and charges the largest one (first argmax bounds it).
/// Each worker only ever touches its own context, so every field is
/// bit-identical at any pool size.
fn run_workers(
    workers: &mut [Worker],
    sub_round: u32,
    f: impl Fn(&mut Worker) -> Result<(), SimError> + Sync,
) -> Result<SubRoundSlice, SimError> {
    let start_ms = workers[0].ctx.elapsed_ms();
    let mut observed: Vec<(usize, Result<f64, SimError>)> = workers
        .par_iter_mut()
        .enumerate()
        .map(|(i, w)| vec![(i, f(w).map(|()| w.ctx.elapsed_ms() - start_ms))])
        .reduce(Vec::new, |mut a, mut b| {
            a.append(&mut b);
            a
        });
    // Reduction order is unspecified; shard order is restored by index so
    // every ledger field is pool-size-independent.
    observed.sort_by_key(|&(i, _)| i);
    let mut slice = SubRoundSlice {
        sub_round,
        charged_ms: 0.0,
        start_ms,
        device_ms: Vec::with_capacity(workers.len()),
        bounding_device: 0,
    };
    for (d, r) in observed {
        let delta = r?;
        if delta > slice.charged_ms {
            slice.charged_ms = delta;
            slice.bounding_device = d;
        }
        slice.device_ms.push(delta);
    }
    barrier(workers)?;
    Ok(slice)
}

/// The synchronizing `gpu_count` readback (Algorithm 1 line 8) on one
/// worker, plus the frontier observability sample.
fn sync_worker(w: &mut Worker) {
    let before_sync = w.count;
    w.ctx.set_phase("Sync");
    w.count = w.ctx.dtoh_word(w.st.d_count, 0) as u64;
    w.ctx
        .sample_counter("frontier", (w.count - before_sync) as f64);
}

/// One border exchange. Every worker drains its live ghost accumulator
/// slots into `(vertex, delta)` packets for the owners, and reports its
/// border vertices that reached `deg ≤ k` since its last report as
/// peeled-ghost notices for their holders. Both ride worker → master →
/// receiver; owners apply packets with the floor-at-`k` rule and seed the
/// vertices that crossed into the k-shell, holders pin the noticed ghost
/// slots at `k` so the loop kernel skips them from then on, exactly as one
/// device skips a peeled neighbour. The exchange starts and ends on a
/// fleet barrier: the pack kernels run concurrently, the link hops follow
/// the slowest packer, the apply kernels follow the hops. Returns whether
/// any seeds were produced, and the [`ExchangeTrace`] of the flows, the
/// cost split and the fleet-clock advance. An exchange that carries
/// nothing costs nothing.
#[allow(clippy::too_many_arguments)]
fn exchange(
    workers: &mut [Worker],
    part: &Partition,
    k: u32,
    cfg: &MultiGpuConfig,
    latency_s: f64,
    updates: &mut Vec<(u32, u32)>,
    exchanged_bytes: &mut u64,
    after_sub_round: u32,
) -> Result<(bool, ExchangeTrace), SimError> {
    let num = workers.len();
    let start_ms = workers[0].ctx.elapsed_ms();
    let mut ledger = ExchangeTrace {
        after_sub_round,
        charged_ms: 0.0,
        pack_ms: 0.0,
        hop1_ms: 0.0,
        hop2_ms: 0.0,
        apply_ms: 0.0,
        pack_bounding_device: 0,
        apply_bounding_device: 0,
        packets_out: 0,
        packets_aggregated: 0,
        notices: 0,
        bytes: 0,
        seeds: 0,
        seeds_per_device: vec![0; num],
        flows: Vec::new(),
    };
    // Shard-pair (packets, notices) for the flow ledger, keyed (from, to)
    // — a BTreeMap so the flow order is deterministic.
    let mut pairs: BTreeMap<(usize, usize), (u64, u64)> = BTreeMap::new();
    // Ghost slots each holder pins at `k`, in report order.
    let mut pins: Vec<Vec<u32>> = vec![Vec::new(); num];
    // Per-device launch-record indices backing the flow edges.
    let mut pack_seq: Vec<Option<usize>> = vec![None; num];
    let mut apply_seq: Vec<Option<usize>> = vec![None; num];
    // ---- drain + notices + pack, shard index order -----------------------
    updates.clear();
    for (wi, w) in workers.iter_mut().enumerate() {
        let shard = &part.shards[wi];
        let (mut touched, mut noticed) = (0u64, 0u64);
        {
            // Host peeks of device memory (free, like any host inspection
            // of simulator memory). Live ghost slots: delta = GHOST_BASE −
            // slot, then the slot resets to the sentinel for the next
            // sub-round; a slot pinned since the last drain leaves the
            // live list for good.
            let deg = w.ctx.device.buffer(w.st.d_deg);
            let n_owned = w.n_owned;
            w.live_ghosts.retain(|&gi| {
                let slot = &deg[n_owned + gi as usize];
                let val = slot.load(Ordering::Relaxed);
                if val <= k {
                    return false;
                }
                if val != GHOST_BASE {
                    let gv = shard.ghosts[gi as usize];
                    updates.push((gv, GHOST_BASE - val));
                    slot.store(GHOST_BASE, Ordering::Relaxed);
                    touched += 1;
                    pairs.entry((wi, part.owner_of(gv))).or_default().0 += 1;
                }
                true
            });
            // Owned border vertices that reached deg ≤ k: one notice per
            // holder, each reported once.
            w.unreported.retain(|&l| {
                if deg[l as usize].load(Ordering::Relaxed) > k {
                    return true;
                }
                for h in shard.holders_of(l as usize) {
                    pins[h.shard as usize].push(h.local);
                    pairs.entry((wi, h.shard as usize)).or_default().1 += 1;
                    noticed += 1;
                }
                false
            });
        }
        if touched + noticed > 0 {
            ledger.packets_out += touched;
            ledger.notices += noticed;
            // Pack kernel: gather the touched (vertex, delta) pairs and the
            // noticed vertices' holder entries into the xfer staging buffer
            // — sparse slot and holder-list reads, coalesced writes.
            let [pkt, ntc] = [touched, noticed].map(|x| share(x, cfg.peel.launch.blocks));
            w.ctx.set_phase("Exchange");
            w.ctx.launch("mgpu_pack", cfg.peel.launch, move |blk| {
                blk.charge_sector(pkt + ntc);
                blk.charge_tx(BlockCtx::coalesced_tx(2 * pkt + ntc));
                Ok(())
            })?;
            pack_seq[wi] = Some(w.ctx.launches().len() - 1);
            let delta = w.ctx.elapsed_ms() - start_ms;
            if delta > ledger.pack_ms {
                ledger.pack_ms = delta;
                ledger.pack_bounding_device = wi;
            }
        }
    }
    if updates.is_empty() && ledger.notices == 0 {
        return Ok((false, ledger));
    }

    // ---- master aggregation, owner-major then ascending global ID --------
    // Owner-major order gives every owner one contiguous bucket, so one
    // apply launch per receiver, whatever the partitioner.
    updates.sort_unstable_by_key(|&(v, _)| (part.owner_of(v), v));
    let mut aggregated: Vec<(u32, u32)> = Vec::with_capacity(updates.len());
    for &(v, d) in updates.iter() {
        match aggregated.last_mut() {
            Some((lv, ld)) if *lv == v => *ld += d,
            _ => aggregated.push((v, d)),
        }
    }
    let mut buckets: Vec<&[(u32, u32)]> = vec![&[]; num];
    for bucket in aggregated.chunk_by(|a, b| part.owner_of(a.0) == part.owner_of(b.0)) {
        buckets[part.owner_of(bucket[0].0)] = bucket;
    }
    // A packet is (vertex, delta), 8 bytes; the master dedups, so the
    // second hop carries the aggregated packets. A notice is the vertex
    // alone, 4 bytes, forwarded unchanged. Both hops start once the
    // slowest packer is done (two hops, as the paper sketches).
    ledger.packets_aggregated = aggregated.len() as u64;
    let hop_bytes = |packets: u64| packets * 8 + ledger.notices * 4;
    let (hop1_bytes, hop2_bytes) = (
        hop_bytes(ledger.packets_out),
        hop_bytes(ledger.packets_aggregated),
    );
    ledger.bytes = hop1_bytes + hop2_bytes;
    *exchanged_bytes += ledger.bytes;
    let hop1_s = latency_s + hop1_bytes as f64 / cfg.link_bandwidth;
    let hop2_s = latency_s + hop2_bytes as f64 / cfg.link_bandwidth;
    let hops_end_s = barrier(workers)? + hop1_s + hop2_s;
    for w in workers.iter_mut() {
        w.ctx.wait_until_s(hops_end_s)?;
    }
    ledger.hop1_ms = hop1_s * 1e3;
    ledger.hop2_ms = hop2_s * 1e3;

    // ---- apply, shard index order -----------------------------------------
    let apply_start_ms = workers[0].ctx.elapsed_ms();
    let mut any_seeds = false;
    for (wi, w) in workers.iter_mut().enumerate() {
        let (bucket, pinned) = (buckets[wi], &pins[wi]);
        if bucket.is_empty() && pinned.is_empty() {
            continue;
        }
        // Apply kernel: coalesced packet and notice reads, random-access
        // deg probes, one atomic per applied decrement, one store per pin.
        let [pkt, ntc] =
            [bucket.len() as u64, pinned.len() as u64].map(|x| share(x, cfg.peel.launch.blocks));
        w.ctx.set_phase("Exchange");
        w.ctx.launch("mgpu_apply", cfg.peel.launch, move |blk| {
            blk.charge_tx(BlockCtx::coalesced_tx(2 * pkt + ntc));
            blk.charge_sector(pkt + ntc);
            blk.counters.global_atomics += pkt;
            Ok(())
        })?;
        apply_seq[wi] = Some(w.ctx.launches().len() - 1);
        let deg = w.ctx.device.buffer(w.st.d_deg);
        for &(gv, cnt) in bucket {
            let lv = part.local_id[gv as usize] as usize;
            let cur = deg[lv].load(Ordering::Relaxed);
            // Floor at k (Fig. 6 Case-1 recovery, host side): removed
            // vertices sit at their core (≤ k) and are untouched.
            let applicable = cur.saturating_sub(k).min(cnt);
            if applicable > 0 {
                deg[lv].store(cur - applicable, Ordering::Relaxed);
                // Seed only on the crossing itself, so a vertex already
                // waiting in a seed list is not re-seeded later.
                if cur - applicable == k {
                    w.seeds.push(lv as u32);
                    any_seeds = true;
                    ledger.seeds += 1;
                    ledger.seeds_per_device[wi] += 1;
                }
            }
        }
        // The owner's copy sits at k now, so every later decrement from
        // this shard would floor to nothing: pin the ghost where the loop
        // kernel's `deg[u] > k` probe skips it.
        for &slot in pinned {
            deg[slot as usize].store(k, Ordering::Relaxed);
        }
        let delta = w.ctx.elapsed_ms() - apply_start_ms;
        if delta > ledger.apply_ms {
            ledger.apply_ms = delta;
            ledger.apply_bounding_device = wi;
        }
    }
    // Flow edges: every pair that shipped anything has a pack launch on the
    // shipper and — because the master forwards every aggregated packet to
    // its owner and every notice to its holder — an apply launch on the
    // receiver.
    ledger.flows = pairs
        .into_iter()
        .map(|((from, to), (packets, notices))| FlowEdge {
            from_device: from,
            to_device: to,
            packets,
            notices,
            bytes: packets * 8 + notices * 4,
            pack_launch_seq: pack_seq[from].expect("shipper ran a pack launch"),
            apply_launch_seq: apply_seq[to].expect("receiver ran an apply launch"),
        })
        .collect();
    ledger.charged_ms = barrier(workers)? * 1e3 - start_ms;
    Ok((any_seeds, ledger))
}

/// Per-block share of `items` spread over `blocks`: 0 for no items, else
/// `items / blocks + 1`.
fn share(items: u64, blocks: u32) -> u64 {
    if items == 0 {
        0
    } else {
        items / blocks as u64 + 1
    }
}

/// Injects border seeds (local IDs) into the per-block frontier buffers for
/// a loop-only launch: each block takes the seeds its scan would have
/// found (`(v / blk_dim) mod blocks`), and **every** block rewrites its
/// `buf_e` tail — a block with no seeds must clear the stale tail left by
/// the previous launch, or the loop kernel would re-consume garbage.
fn seed_frontier(
    ctx: &mut GpuContext,
    st: &peel::DeviceState,
    cfg: &PeelConfig,
    seeds: &[u32],
) -> Result<(), SimError> {
    ctx.set_phase("Seed");
    let cap = st.cap;
    let d_buf = st.d_buf;
    let d_buf_e = st.d_buf_e;
    ctx.launch("mgpu_seed", cfg.launch, |blk| {
        let dev = blk.device;
        let b = blk.block_idx as usize;
        let blocks = blk.cfg.blocks as usize;
        let blk_dim = blk.cfg.threads_per_block as usize;
        let bufb = &dev.buffer(d_buf)[b * cap..(b + 1) * cap];
        // Broadcast read of the seed list (coalesced).
        blk.charge_tx(BlockCtx::coalesced_tx(seeds.len() as u64));
        let mut e = 0usize;
        for &v in seeds {
            if (v as usize / blk_dim) % blocks == b {
                if e >= cap {
                    return Err(KernelError::BufferOverflow {
                        what: format!("block {b}: seed injection filled buffer (capacity {cap})"),
                    });
                }
                bufb[e].store(v, Ordering::Relaxed);
                e += 1;
            }
        }
        if e > 0 {
            blk.charge_tx(BlockCtx::coalesced_tx(e as u64));
        }
        blk.gwrite(&dev.buffer(d_buf_e)[b], e as u32);
        Ok(())
    })?;
    Ok(())
}

/// Per-shard memory snapshots of the setup state (graph arrays + scratch +
/// exchange staging), without running the decomposition — the fit-table
/// path of the `table_scale` bench. Each device's [`kcore_gpusim::MemStats`]
/// carries its shard-local workload dims for per-shard extrapolation.
pub fn shard_memstats(
    g: &Csr,
    cfg: &MultiGpuConfig,
    opts: &SimOptions,
) -> Result<FleetMemStats, SimError> {
    let part = Partition::build(g, cfg.num_gpus, cfg.partition);
    let workers = build_workers(&part, cfg, opts)?;
    Ok(FleetMemStats::new(
        workers.iter().map(|w| w.ctx.memstats()).collect(),
    ))
}

/// Convenience: single-device reference via [`peel::decompose`] for
/// comparing against the distributed run.
pub fn single_gpu_ms(g: &Csr, cfg: &PeelConfig, opts: &SimOptions) -> Result<f64, SimError> {
    Ok(peel::decompose(g, cfg, opts)?.report.total_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcore_cpu::CoreAlgorithm;
    use kcore_gpusim::LaunchConfig;
    use kcore_graph::gen;

    fn cfg(p: usize) -> MultiGpuConfig {
        MultiGpuConfig {
            num_gpus: p,
            peel: PeelConfig {
                launch: LaunchConfig {
                    blocks: 8,
                    threads_per_block: 128,
                },
                buf_capacity: 8_192,
                ..PeelConfig::default()
            },
            ..MultiGpuConfig::default()
        }
    }

    fn check(g: &Csr, p: usize) {
        let run = decompose_multi(g, &cfg(p), &SimOptions::default()).unwrap();
        let expect = kcore_cpu::bz::Bz.run(g);
        assert_eq!(run.core, expect, "{p} GPUs");
        assert_eq!(run.k_max, expect.iter().copied().max().unwrap_or(0));
    }

    #[test]
    fn fig1_on_various_gpu_counts() {
        let g = kcore_graph::fig1_graph();
        for p in [1, 2, 3, 4, 8] {
            check(&g, p);
        }
    }

    #[test]
    fn random_graphs() {
        for seed in 0..3 {
            let g = gen::erdos_renyi_gnm(400, 1_600, seed);
            check(&g, 4);
        }
    }

    #[test]
    fn skewed_and_structured() {
        check(&gen::power_law_hubs(1_000, 2_000, 2, 0.2, 6), 4);
        check(&gen::complete(30), 3);
        check(&gen::path(200), 5);
    }

    #[test]
    fn border_shells_need_extra_sub_rounds() {
        // A path crosses every partition border, so its single 1-shell
        // cascade must bounce between workers: sub_rounds > rounds.
        let g = gen::path(400);
        let run = decompose_multi(&g, &cfg(4), &SimOptions::default()).unwrap();
        assert_eq!(run.core, vec![1; 400]);
        assert!(
            run.sub_rounds > run.rounds,
            "{} !> {}",
            run.sub_rounds,
            run.rounds
        );
        assert!(run.exchanged_bytes > 0);
    }

    #[test]
    fn one_gpu_needs_no_exchange() {
        let g = gen::erdos_renyi_gnm(300, 900, 1);
        let run = decompose_multi(&g, &cfg(1), &SimOptions::default()).unwrap();
        assert_eq!(run.exchanged_bytes, 0);
        assert_eq!(run.sub_rounds, run.rounds);
    }

    #[test]
    fn more_gpus_than_vertices() {
        let g = gen::complete(3);
        let run = decompose_multi(&g, &cfg(16), &SimOptions::default()).unwrap();
        assert_eq!(run.core, vec![2, 2, 2]);
        // shard count clamps to |V|
        assert_eq!(run.per_device_peak_bytes.len(), 3);
    }

    #[test]
    fn empty_graph() {
        let run = decompose_multi(&Csr::empty(0), &cfg(2), &SimOptions::default()).unwrap();
        assert!(run.core.is_empty());
        assert!(run.worker_fingerprints.is_empty());
    }

    #[test]
    fn degree_aware_partition_with_non_uniform_shards() {
        // Satellite regression: hub-splitting produces non-uniform,
        // non-contiguous shards; border seeds must still land on the right
        // owner through the O(1) partition map.
        let g = gen::power_law_hubs(1_500, 3_000, 5, 0.3, 17);
        let part = Partition::build(&g, 3, PartitionStrategy::DegreeAware);
        let sizes: Vec<usize> = part.shards.iter().map(|s| s.num_owned()).collect();
        assert!(sizes.windows(2).any(|w| w[0] != w[1]), "sizes {sizes:?}");
        let c = MultiGpuConfig {
            partition: PartitionStrategy::DegreeAware,
            num_gpus: 3,
            ..cfg(3)
        };
        let run = decompose_multi(&g, &c, &SimOptions::default()).unwrap();
        assert_eq!(run.core, kcore_cpu::bz::Bz.run(&g));
    }

    #[test]
    fn worker_residency_is_shard_local() {
        // Tentpole memory contract: each worker's ledger holds only
        // shard-local allocations — no full-|V| arrays on any device.
        let g = gen::erdos_renyi_gnm(1_200, 6_000, 9);
        let FleetRun { run, traces, .. } =
            decompose_multi_fleet(&g, &cfg(4), &SimOptions::default(), "gnm").unwrap();
        assert_eq!(run.core, kcore_cpu::bz::Bz.run(&g));
        let part = Partition::build(&g, 4, PartitionStrategy::BalancedArcs);
        assert_eq!(traces.len(), 4);
        for (t, shard) in traces.iter().zip(&part.shards) {
            let deg = t
                .memstats
                .allocations
                .iter()
                .find(|a| a.name == "deg")
                .expect("worker has a deg allocation");
            assert_eq!(
                deg.elems as usize,
                shard.num_local(),
                "deg must be shard-sized"
            );
            assert!(shard.num_local() < g.num_vertices() as usize);
            let nbrs = t
                .memstats
                .allocations
                .iter()
                .find(|a| a.name == "neighbors")
                .unwrap();
            assert_eq!(nbrs.elems, shard.owned_arcs);
        }
        // per-device peaks sum to the reported fleet total
        assert_eq!(
            run.per_device_peak_bytes.iter().sum::<u64>(),
            run.total_peak_mem_bytes
        );
    }

    #[test]
    fn exec_paths_agree_on_sharded_run() {
        let g = gen::web_crawl(1_000, 8, 0.5, 2_000, 3);
        let base = cfg(2);
        let runs: Vec<MultiGpuRun> = [ExecPath::Fused, ExecPath::Reference]
            .iter()
            .map(|&ep| {
                let c = MultiGpuConfig {
                    peel: base.peel.with_exec_path(ep),
                    ..base
                };
                decompose_multi(&g, &c, &SimOptions::default()).unwrap()
            })
            .collect();
        assert_eq!(runs[0].core, runs[1].core);
        assert_eq!(runs[0].exchanged_bytes, runs[1].exchanged_bytes);
        assert_eq!(runs[0].sub_rounds, runs[1].sub_rounds);
        assert_eq!(runs[0].worker_fingerprints, runs[1].worker_fingerprints);
        assert_eq!(runs[0].total_ms.to_bits(), runs[1].total_ms.to_bits());
    }

    #[test]
    fn fleet_capture_observes_and_never_charges() {
        // The fleet path must return the *same run* as the untraced one —
        // total_ms to the bit, identical fingerprints and exchange volume —
        // while its ledger holds the clock laws (check_well_formed).
        let g = gen::path(400);
        let base = decompose_multi(&g, &cfg(4), &SimOptions::default()).unwrap();
        let fr = decompose_multi_fleet(&g, &cfg(4), &SimOptions::default(), "path400").unwrap();
        assert_eq!(fr.run.total_ms.to_bits(), base.total_ms.to_bits());
        assert_eq!(fr.run.worker_fingerprints, base.worker_fingerprints);
        assert_eq!(fr.run.exchanged_bytes, base.exchanged_bytes);
        let fps: Vec<u64> = fr.traces.iter().map(|t| t.counters_fingerprint()).collect();
        assert_eq!(fps, base.worker_fingerprints);
        fr.fleet.check_well_formed().unwrap();
        assert_eq!(fr.fleet.rounds.len(), fr.run.rounds as usize);
        // path(400) over 4 shards bounces its 1-shell across borders
        assert!(fr.run.border_packets > 0);
        assert!(fr.run.exchange_rounds > 0);
        let ledger_bytes: u64 = fr
            .fleet
            .rounds
            .iter()
            .flat_map(|r| &r.exchanges)
            .map(|e| e.bytes)
            .sum();
        assert_eq!(ledger_bytes, fr.run.exchanged_bytes);
        // every round has a named bounding resource
        for c in &fr.fleet.critical_path {
            assert_ne!(c.bound, "idle");
            assert!(c.bounding_resource.starts_with("device") || c.bounding_resource == "link");
        }
        // the merged perfetto export renders and carries link flow events
        let json = fr.fleet.merged_chrome_json(&fr.timelines);
        assert!(json.contains("Fleet links"));
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("border cascades"));
    }

    #[test]
    fn one_gpu_fleet_has_no_flows() {
        let g = gen::erdos_renyi_gnm(300, 900, 1);
        let fr = decompose_multi_fleet(&g, &cfg(1), &SimOptions::default(), "er").unwrap();
        fr.fleet.check_well_formed().unwrap();
        assert_eq!(fr.run.border_packets, 0);
        assert_eq!(fr.run.exchange_rounds, 0);
        assert!(fr
            .fleet
            .rounds
            .iter()
            .all(|r| r.exchanges.iter().all(|e| e.flows.is_empty())));
    }

    #[test]
    fn pool_sizes_are_bit_identical() {
        // A path bounces one shell across every border; the hub graph's
        // borders carry packets and notices in most rounds.
        for g in [
            gen::path(400),
            gen::power_law_hubs(1_200, 2_400, 4, 0.3, 11),
        ] {
            let fleet = || decompose_multi_fleet(&g, &cfg(4), &SimOptions::default(), "pools");
            let base = fleet().unwrap();
            assert!(base.run.border_packets > 0);
            for threads in [1usize, 2, 8] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let run = pool.install(|| decompose_multi(&g, &cfg(4), &SimOptions::default()));
                let run = run.unwrap();
                assert_eq!(run.core, base.run.core, "pool {threads}");
                assert_eq!(run.worker_fingerprints, base.run.worker_fingerprints);
                assert_eq!(run.exchanged_bytes, base.run.exchanged_bytes);
                assert_eq!(run.border_packets, base.run.border_packets);
                assert_eq!(run.sub_rounds, base.run.sub_rounds);
                assert_eq!(run.total_ms.to_bits(), base.run.total_ms.to_bits());
                let fr = pool.install(fleet).unwrap();
                assert_eq!(fr.fleet.to_json(), base.fleet.to_json(), "pool {threads}");
            }
        }
    }

    /// Border packets of one run, with or without peeled-ghost notices.
    fn run_notices(g: &Csr, c: &MultiGpuConfig, notices: bool) -> (MultiGpuRun, Vec<RoundTrace>) {
        let (run, _, rounds, _) =
            decompose_multi_impl(g, c, &SimOptions::default(), None, notices).unwrap();
        (run, rounds)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// Notice coverage: at every shard count, under both partitioners
        /// and on both execution paths, a run with notices peels exactly
        /// the BZ cores and never ships more border packets than the same
        /// run without them.
        #[test]
        fn notices_keep_cores_and_never_add_packets(seed in 0u64..10_000) {
            let g = gen::power_law_hubs(600 + (seed % 5) as u32 * 100, 1_800, 3, 0.3, seed);
            let truth = kcore_cpu::bz::Bz.run(&g);
            for p in [2usize, 3, 4, 8] {
                for partition in [PartitionStrategy::BalancedArcs, PartitionStrategy::DegreeAware] {
                    for ep in [ExecPath::Fused, ExecPath::Reference] {
                        let c = MultiGpuConfig {
                            partition,
                            peel: cfg(p).peel.with_exec_path(ep),
                            ..cfg(p)
                        };
                        let (with, rounds) = run_notices(&g, &c, true);
                        let (without, _) = run_notices(&g, &c, false);
                        let what = format!("p={p} {partition:?} {ep:?}");
                        proptest::prop_assert_eq!(&with.core, &truth, "{}", what);
                        proptest::prop_assert_eq!(&without.core, &truth, "{}", what);
                        proptest::prop_assert!(
                            with.border_packets <= without.border_packets,
                            "{}: {} packets with notices, {} without",
                            what, with.border_packets, without.border_packets
                        );
                        let notices: u64 =
                            rounds.iter().flat_map(|r| &r.exchanges).map(|e| e.notices).sum();
                        proptest::prop_assert!(notices > 0, "{}: no notices sent", what);
                    }
                }
            }
        }
    }
}
