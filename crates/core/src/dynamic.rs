//! Batched dynamic k-core maintenance on the simulated GPU.
//!
//! Where [`crate::peel`] recomputes every core number from scratch, this
//! module *maintains* them under a stream of [`EdgeUpdate`] batches, using
//! the locality theorems of the incremental k-core literature (see
//! DESIGN.md, "Dynamic maintenance: locality theorems and the batch
//! contract"):
//!
//! * after inserting or deleting one edge `{u, v}` with
//!   `K = min(core(u), core(v))`, only vertices with core number exactly
//!   `K` that are reachable from the affected endpoints through core-`K`
//!   vertices (the *K-subcore*) can change, and by at most 1;
//! * a deleted core-`K` vertex `v` keeps its core iff it retains at least
//!   `K` neighbors of (new) core `>= K` — its MCD;
//! * an insertion can only raise cores if some root endpoint `w` has
//!   `PCD(w) > K`, which gives a prune that retires such insertions
//!   without any traversal.
//!
//! Batches are *net-effect* processed: cores are a function of the final
//! graph only, so cancelling insert/delete pairs are elided, duplicates and
//! self-loops rejected, and the surviving updates split into **matching
//! rounds** — vertex-disjoint sets of only deletes or only inserts, deletes
//! first. Inserting or deleting a matching changes every core by at most 1
//! (Jin et al., TPDS 2018), so one joint subcore search and cascade repairs
//! a whole round, with each vertex working at its own *level* (its core at
//! round start). The rounds are kernelized on [`kcore_gpusim`] with the
//! same block-granularity frontier buffers, ballot compaction and
//! plan/commit wave steps as the peel kernels — traces are bit-identical
//! at any rayon pool size. Past [`DynamicConfig::crossover`] net updates
//! the engine falls back to a from-scratch [`peel::decompose_in`], which is
//! cheaper than massed traversals.
//!
//! A maintained batch is device resident: each round is five back-to-back
//! kernels with no host round trip. The structural kernel splices the
//! round's edges; the subcore search seeds from the roots the staged
//! `[u, v]` pairs name, PCD-pruning insert roots; the cascade, commit and
//! MCD refresh follow. MCD counters stay exact on the device: the
//! structural kernel applies the endpoint deltas and the refresh recomputes
//! the changed vertices and their neighbors before the next round reads
//! them. The host syncs once per batch, reading back the batch counters
//! and a change log of `(vertex, new core)` pairs.

use crate::config::PeelConfig;
use crate::peel;
use kcore_gpusim::scan::ballot_scan_offsets;
use kcore_gpusim::{
    BlockCtx, BufferId, Coalescing, GpuContext, KernelError, LaunchConfig, SharedArray, SimError,
    SimOptions, SizeClass,
};
use kcore_graph::{Csr, EdgeUpdate};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU32, Ordering};

/// Tuning knobs of the dynamic engine.
#[derive(Debug, Clone)]
pub struct DynamicConfig {
    /// Kernel launch geometry for the traversal/counter kernels.
    pub launch: LaunchConfig,
    /// Per-block frontier buffer capacity in words; `0` = auto (`n.max(64)`,
    /// which can never overflow because subcore frontiers are deduplicated).
    pub buf_capacity: usize,
    /// Device staging capacity in *updates* per structural H2D copy; larger
    /// batches are processed in chunks of this many net updates.
    pub batch_capacity: usize,
    /// Net-update count at and above which the engine abandons maintenance
    /// and re-peels from scratch.
    pub crossover: usize,
    /// Spare adjacency slots per vertex in the device CSR; exhausting a
    /// vertex's slots triggers a full rebuild (counted in the report).
    pub slack: u32,
    /// Configuration for the embedded from-scratch peel (initialisation and
    /// the crossover fallback).
    pub peel: PeelConfig,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            launch: LaunchConfig {
                blocks: 8,
                threads_per_block: 128,
            },
            buf_capacity: 0,
            batch_capacity: 1024,
            crossover: 4096,
            slack: 8,
            peel: PeelConfig::default(),
        }
    }
}

impl DynamicConfig {
    /// Derives the maintenance/re-peel crossover from measured costs: the
    /// smallest net-update count at which one from-scratch peel
    /// (`repeel_ms`) is no more expensive than per-edge maintenance at
    /// `per_update_ms` per *net* update (the unit [`Self::crossover`]
    /// counts) — i.e. `ceil(repeel_ms / per_update_ms)`.
    ///
    /// Degenerate inputs keep the engine on a sane path: a non-positive
    /// `per_update_ms` (maintenance is free or unmeasured) disables the
    /// fallback (`usize::MAX`), a non-positive `repeel_ms` makes every
    /// non-empty batch re-peel (`1`).
    pub fn auto_crossover(repeel_ms: f64, per_update_ms: f64) -> usize {
        if per_update_ms <= 0.0 || !per_update_ms.is_finite() {
            return usize::MAX;
        }
        if repeel_ms <= 0.0 || !repeel_ms.is_finite() {
            return 1;
        }
        let ratio = (repeel_ms / per_update_ms).ceil();
        if ratio >= usize::MAX as f64 {
            usize::MAX
        } else {
            (ratio as usize).max(1)
        }
    }

    /// [`Self::auto_crossover`] applied in place.
    pub fn with_auto_crossover(mut self, repeel_ms: f64, per_update_ms: f64) -> Self {
        self.crossover = Self::auto_crossover(repeel_ms, per_update_ms);
        self
    }
}

/// Which path [`DynamicCore::apply_batch`] took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPath {
    /// Every accepted update cancelled out (or none were accepted).
    Noop,
    /// Theorem-backed maintenance, one joint traversal per matching round.
    Maintained,
    /// Net updates reached [`DynamicConfig::crossover`]: from-scratch peel.
    Repeeled,
}

/// Per-batch outcome and work accounting.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Insertions accepted during classification (edge absent at that point
    /// of the batch sequence).
    pub accepted_inserts: usize,
    /// Deletions accepted during classification.
    pub accepted_deletes: usize,
    /// Updates rejected: self-loops, out-of-range endpoints, duplicate
    /// inserts, deletes of absent edges.
    pub rejected: usize,
    /// Insertions surviving net-effect cancellation.
    pub net_inserts: usize,
    /// Deletions surviving net-effect cancellation.
    pub net_deletes: usize,
    /// The processing path taken.
    pub path: BatchPath,
    /// Matching rounds the maintained batch ran, one five-kernel pipeline
    /// each (`0` unless maintained).
    pub rounds: usize,
    /// Subcore candidates summed over the batch's rounds; a round's
    /// candidates are the union of its roots' subcores.
    pub candidates: u64,
    /// Total vertices whose core number changed.
    pub changed: u64,
    /// Insertions whose every root the PCD prune retired, so that they seed
    /// no traversal.
    pub pruned_inserts: usize,
    /// Lifetime adjacency rebuilds (slack exhaustion) so far.
    pub rebuilds: u64,
    /// Simulated milliseconds this batch cost.
    pub sim_ms: f64,
}

// `dyn.meta` word layout. Each round's structural kernel zeroes the round
// cursors (`M_CAND`, `M_DIRTY`); the batch's first one also zeroes the
// batch counters (`M_PRUNED` ..), which the host reads back once, at batch
// end.

/// Candidate-list cursor (`dyn.cand`).
const M_CAND: usize = 0;
/// MCD refresh-list cursor (`dyn.dirty`).
const M_DIRTY: usize = 1;
/// Batch counter: insertions retired by the PCD prune.
const M_PRUNED: usize = 2;
/// Batch counter: subcore candidates, 64-bit (low word, high word).
const M_CANDIDATES: usize = 3;
/// Batch counter: core changes, 64-bit; the low word is the `dyn.log`
/// cursor.
const M_CHANGED: usize = 5;
const META_WORDS: usize = 7;

/// Copyable bundle of everything the kernels need.
#[derive(Clone, Copy)]
struct DynParams {
    bufcap: usize,
    /// `dyn.log` capacity in `(vertex, new core)` pairs.
    logcap: usize,
    d_off: BufferId,
    d_len: BufferId,
    d_adj: BufferId,
    d_core: BufferId,
    d_mcd: BufferId,
    d_flag: BufferId,
    d_evic: BufferId,
    d_sup: BufferId,
    d_cand: BufferId,
    d_dirty: BufferId,
    d_log: BufferId,
    d_meta: BufferId,
    d_buf: BufferId,
    d_batch: BufferId,
}

/// GPU-resident dynamically-maintained k-core decomposition.
///
/// Owns a [`GpuContext`]; the graph lives on the device as a slack-padded
/// CSR (`dyn.offset` / `dyn.len` / `dyn.adj`) beside the core numbers
/// (`dyn.core`) and MCD counters (`dyn.mcd`). A host adjacency mirror
/// validates updates and rebuilds the padding when slack runs out.
pub struct DynamicCore {
    ctx: GpuContext,
    cfg: DynamicConfig,
    n: usize,
    /// Host mirror: sorted adjacency lists, kept exactly in sync with the
    /// device CSR (up to within-list order, which the device's swap-remove
    /// deletes permute).
    adj: Vec<Vec<u32>>,
    core_host: Vec<u32>,
    /// Per-vertex device slot capacity (degree + slack at last build).
    cap: Vec<u32>,
    arcs: u64,
    rebuilds: u64,
    p: DynParams,
}

impl DynamicCore {
    /// Builds the engine over `g`: runs a full on-device peel for the
    /// initial core numbers, uploads the padded CSR and derives the MCD
    /// counters with a device kernel.
    pub fn from_csr(opts: &SimOptions, g: &Csr, cfg: DynamicConfig) -> Result<Self, SimError> {
        let n = g.num_vertices() as usize;
        let mut ctx = opts.context();
        let (core_host, _rounds) = peel::decompose_in(&mut ctx, g, &cfg.peel)?;
        let adj: Vec<Vec<u32>> = (0..n as u32).map(|v| g.neighbors(v).to_vec()).collect();

        ctx.set_phase("DynInit");
        ctx.set_workload_dims(n as u64, g.num_arcs());
        let (d_off, d_len, d_adj, cap) = build_device_csr(&mut ctx, &adj, cfg.slack.max(1))?;
        let pad = n.max(1);
        let core_padded: Vec<u32> = if n == 0 { vec![0] } else { core_host.clone() };
        let d_core = ctx.htod_tagged("dyn.core", &core_padded, SizeClass::PerVertex)?;
        let d_mcd = ctx.alloc_tagged("dyn.mcd", pad, SizeClass::PerVertex)?;
        let d_flag = ctx.alloc_tagged("dyn.flag", pad, SizeClass::PerVertex)?;
        let d_evic = ctx.alloc_tagged("dyn.evic", pad, SizeClass::PerVertex)?;
        let d_sup = ctx.alloc_tagged("dyn.sup", pad, SizeClass::PerVertex)?;
        let d_cand = ctx.alloc_tagged("dyn.cand", pad, SizeClass::PerVertex)?;
        let d_dirty = ctx.alloc_tagged("dyn.dirty", pad, SizeClass::PerVertex)?;
        let d_meta = ctx.alloc_tagged("dyn.meta", META_WORDS, SizeClass::Fixed)?;
        let bufcap = if cfg.buf_capacity == 0 {
            n.max(64)
        } else {
            cfg.buf_capacity
        };
        let d_buf = ctx.alloc_tagged(
            "dyn.buf",
            cfg.launch.blocks as usize * bufcap,
            SizeClass::Fixed,
        )?;
        let logcap = cfg.batch_capacity.max(1);
        let d_batch = ctx.alloc_tagged("dyn.batch", 2 * logcap, SizeClass::Batch)?;
        let d_log = ctx.alloc_tagged("dyn.log", 2 * logcap, SizeClass::Batch)?;

        let p = DynParams {
            bufcap,
            logcap,
            d_off,
            d_len,
            d_adj,
            d_core,
            d_mcd,
            d_flag,
            d_evic,
            d_sup,
            d_cand,
            d_dirty,
            d_log,
            d_meta,
            d_buf,
            d_batch,
        };
        let mut this = DynamicCore {
            ctx,
            cfg,
            n,
            adj,
            core_host,
            cap,
            arcs: g.num_arcs(),
            rebuilds: 0,
            p,
        };
        if n > 0 {
            this.ctx.set_phase("DynMcd");
            this.run_mcd_full()?;
        }
        Ok(this)
    }

    /// An engine over `n` isolated vertices (the streaming-from-nothing
    /// entry point).
    pub fn new(opts: &SimOptions, n: usize, cfg: DynamicConfig) -> Result<Self, SimError> {
        Self::from_csr(opts, &Csr::empty(n), cfg)
    }

    /// Applies one batch of updates and returns what happened.
    ///
    /// Classification is host-side and sequential: each update is validated
    /// against the state the *prefix* of the batch leaves behind (so
    /// `Insert(a,b), Delete(a,b)` both count as accepted and then cancel).
    /// Surviving net updates are split into matching rounds (deletes
    /// first), staged to the device round by round in
    /// [`DynamicConfig::batch_capacity`]-sized chunks and repaired with one
    /// theorem-backed traversal per round — or, past
    /// [`DynamicConfig::crossover`], by one from-scratch peel. A maintained
    /// batch syncs once, at its end: one copy of the batch counters and one
    /// of the change log.
    pub fn apply_batch(&mut self, updates: &[EdgeUpdate]) -> Result<BatchReport, SimError> {
        let _batch_span = self.ctx.host_span("dynamic/batch");
        let t0 = self.ctx.elapsed_ms();
        let mut rep = BatchReport {
            accepted_inserts: 0,
            accepted_deletes: 0,
            rejected: 0,
            net_inserts: 0,
            net_deletes: 0,
            path: BatchPath::Noop,
            rounds: 0,
            candidates: 0,
            changed: 0,
            pruned_inserts: 0,
            rebuilds: self.rebuilds,
            sim_ms: 0.0,
        };
        let classify_span = self.ctx.host_span("dynamic/classify");
        self.ctx.set_phase("DynClassify");
        let n = self.n as u32;
        // Presence of each touched edge after the batch prefix seen so far.
        let mut pending: BTreeMap<(u32, u32), bool> = BTreeMap::new();
        for up in updates {
            let (x, y) = up.endpoints();
            if x == y || x >= n || y >= n {
                rep.rejected += 1;
                continue;
            }
            let key = up.key();
            let present = pending
                .get(&key)
                .copied()
                .unwrap_or_else(|| has_adj(&self.adj, key.0, key.1));
            if up.is_insert() {
                if present {
                    rep.rejected += 1;
                } else {
                    pending.insert(key, true);
                    rep.accepted_inserts += 1;
                }
            } else if present {
                pending.insert(key, false);
                rep.accepted_deletes += 1;
            } else {
                rep.rejected += 1;
            }
        }
        let mut net_del: Vec<(u32, u32)> = Vec::new();
        let mut net_ins: Vec<(u32, u32)> = Vec::new();
        for (&(u, v), &fin) in &pending {
            if fin == has_adj(&self.adj, u, v) {
                continue; // cancelled out
            }
            if fin {
                net_ins.push((u, v));
            } else {
                net_del.push((u, v));
            }
        }
        rep.net_inserts = net_ins.len();
        rep.net_deletes = net_del.len();

        drop(classify_span);
        let net = net_del.len() + net_ins.len();
        if net == 0 {
            rep.path = BatchPath::Noop;
        } else if net >= self.cfg.crossover {
            rep.path = BatchPath::Repeeled;
            let _repeel_span = self.ctx.host_span("dynamic/repeel");
            self.repeel(&net_del, &net_ins)?;
        } else {
            rep.path = BatchPath::Maintained;
            let _maintain_span = self.ctx.host_span("dynamic/maintain");
            let rounds = matching_rounds(&net_del, &net_ins);
            // Round by round, so each round is a contiguous slice of a
            // staged chunk; a round cut by a chunk boundary runs as two.
            let staged: Vec<(usize, u32, u32)> = rounds
                .iter()
                .enumerate()
                .flat_map(|(r, (_, edges))| edges.iter().map(move |&(u, v)| (r, u, v)))
                .collect();
            for chunk in staged.chunks(self.cfg.batch_capacity.max(1)) {
                self.ctx.set_phase("DynStruct");
                let words: Vec<u32> = chunk.iter().flat_map(|&(_, u, v)| [u, v]).collect();
                self.ctx.htod_into(self.p.d_batch, 0, &words)?;
                let mut lo = 0;
                for round in chunk.chunk_by(|a, b| a.0 == b.0) {
                    let insert = rounds[round[0].0].0;
                    self.enqueue_round(lo, round, insert, rep.rounds == 0)?;
                    rep.rounds += 1;
                    lo += round.len();
                }
            }
        }
        self.ctx.set_phase("DynSync");
        if rep.path == BatchPath::Maintained {
            self.sync_batch(&mut rep);
        }
        self.ctx.set_workload_dims(self.n as u64, self.arcs);
        rep.rebuilds = self.rebuilds;
        rep.sim_ms = self.ctx.elapsed_ms() - t0;
        Ok(rep)
    }

    // -- accessors ----------------------------------------------------------

    /// Current core numbers (host mirror; equal to the device array).
    pub fn cores(&self) -> &[u32] {
        &self.core_host
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of directed arcs currently stored.
    pub fn num_arcs(&self) -> u64 {
        self.arcs
    }

    /// Lifetime adjacency rebuild count (slack exhaustion).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// The owned simulation context (trace/report access).
    pub fn ctx(&self) -> &GpuContext {
        &self.ctx
    }

    /// Mutable context access (phase labelling around the engine).
    pub fn ctx_mut(&mut self) -> &mut GpuContext {
        &mut self.ctx
    }

    /// The engine's configuration.
    pub fn config(&self) -> &DynamicConfig {
        &self.cfg
    }

    /// Copies the device core array back (charged D2H). Differential tests
    /// use this to pin host mirror ≡ device state.
    pub fn device_cores(&mut self) -> Vec<u32> {
        if self.n == 0 {
            return Vec::new();
        }
        self.ctx.dtoh_range(self.p.d_core, 0, self.n)
    }

    /// Copies the device MCD array back (charged D2H).
    pub fn device_mcd(&mut self) -> Vec<u32> {
        if self.n == 0 {
            return Vec::new();
        }
        self.ctx.dtoh_range(self.p.d_mcd, 0, self.n)
    }

    // -- per-update processing ---------------------------------------------

    /// Mirrors one round — staged at `[lo, lo + ops.len())` of the chunk —
    /// on the host, then enqueues its five kernels: structural splice,
    /// PCD-pruned subcore search, support + eviction cascade, commit, MCD
    /// refresh. Nothing is read back. A round gains each vertex at most one
    /// arc, so one slack check before the splice covers it. `first` marks
    /// the batch's first round, whose structural kernel zeroes the batch
    /// counters.
    fn enqueue_round(
        &mut self,
        lo: usize,
        ops: &[(usize, u32, u32)],
        insert: bool,
        first: bool,
    ) -> Result<(), SimError> {
        self.ctx.set_phase("DynStruct");
        let full = |v: u32| self.adj[v as usize].len() as u32 == self.cap[v as usize];
        if insert && ops.iter().any(|&(_, a, b)| full(a) || full(b)) {
            self.rebuilds += 1;
            self.rebuild_adjacency()?;
        }
        for &(_, a, b) in ops {
            let (ai, bi) = (a as usize, b as usize);
            if insert {
                add_adj(&mut self.adj[ai], b);
                add_adj(&mut self.adj[bi], a);
                self.arcs += 2;
            } else {
                del_adj(&mut self.adj[ai], b);
                del_adj(&mut self.adj[bi], a);
                self.arcs -= 2;
            }
        }
        let hi = lo + ops.len();
        let p = self.p;
        let cfg = self.cfg.launch;
        let name = if insert {
            "dyn_edge_ins"
        } else {
            "dyn_edge_del"
        };
        self.ctx
            .launch(name, cfg, |blk| k_edge(blk, &p, lo, hi, insert, first))?;
        self.ctx.set_phase("DynSubcore");
        self.ctx.launch_stepped(
            "dyn_subcore",
            cfg,
            |blk| bfs_init(blk, &p, lo, hi, insert),
            |blk, st| {
                let plan = plan_wave(blk, st, &p, false)?;
                bfs_commit(blk, st, plan, &p, !insert)
            },
        )?;
        self.ctx.set_phase("DynCascade");
        self.ctx.launch_stepped(
            "dyn_cascade",
            cfg,
            |blk| casc_init(blk, &p, insert),
            |blk, st| {
                let plan = plan_wave(blk, st, &p, true)?;
                casc_commit(blk, st, plan, &p, insert)
            },
        )?;
        self.ctx.set_phase("DynCommit");
        self.ctx
            .launch("dyn_commit", cfg, |blk| k_commit(blk, &p, insert))?;
        self.ctx.set_phase("DynMcd");
        self.ctx.launch_stepped(
            "dyn_mcd",
            cfg,
            |blk| refresh_claim(blk, &p, insert),
            |blk, _| refresh_mcd(blk, &p),
        )
    }

    /// The maintained batch's only readbacks: the batch counters, then the
    /// change log — or, if it overflowed, the whole core array — applied in
    /// log order so `core_host` ends equal to `dyn.core`.
    fn sync_batch(&mut self, rep: &mut BatchReport) {
        let c = self.ctx.dtoh_range(self.p.d_meta, M_PRUNED, META_WORDS);
        let wide = |at: usize| u64::from(c[at - M_PRUNED]) | u64::from(c[at + 1 - M_PRUNED]) << 32;
        rep.pruned_inserts = c[0] as usize;
        rep.candidates = wide(M_CANDIDATES);
        rep.changed = wide(M_CHANGED);
        if rep.changed == 0 {
            return;
        }
        if rep.changed <= self.p.logcap as u64 {
            let log = self
                .ctx
                .dtoh_range(self.p.d_log, 0, 2 * rep.changed as usize);
            for pair in log.chunks_exact(2) {
                self.core_host[pair[0] as usize] = pair[1];
            }
        } else {
            self.core_host = self.ctx.dtoh_range(self.p.d_core, 0, self.n);
        }
    }

    /// Crossover fallback: apply the net updates to the mirror, re-peel the
    /// whole graph on-device, rebuild the padded CSR and refresh every MCD.
    fn repeel(&mut self, net_del: &[(u32, u32)], net_ins: &[(u32, u32)]) -> Result<(), SimError> {
        for &(u, v) in net_del {
            del_adj(&mut self.adj[u as usize], v);
            del_adj(&mut self.adj[v as usize], u);
            self.arcs -= 2;
        }
        for &(u, v) in net_ins {
            add_adj(&mut self.adj[u as usize], v);
            add_adj(&mut self.adj[v as usize], u);
            self.arcs += 2;
        }
        self.ctx.set_phase("DynRepeel");
        let csr = self.mirror_csr();
        let (core, _rounds) = peel::decompose_in(&mut self.ctx, &csr, &self.cfg.peel)?;
        self.core_host = core;
        self.ctx.set_phase("DynRepeel");
        self.rebuild_adjacency()?;
        if self.n > 0 {
            self.ctx.htod_into(self.p.d_core, 0, &self.core_host)?;
            self.ctx.set_phase("DynMcd");
            self.run_mcd_full()?;
        }
        Ok(())
    }

    fn run_mcd_full(&mut self) -> Result<(), SimError> {
        let p = self.p;
        let count = self.n;
        self.ctx
            .launch("dyn_mcd", self.cfg.launch, move |blk| k_mcd(blk, &p, count))
    }

    /// Frees and re-uploads the padded device CSR from the mirror with fresh
    /// slack. Core/MCD/flag buffers are untouched.
    fn rebuild_adjacency(&mut self) -> Result<(), SimError> {
        self.ctx.device.free(self.p.d_adj);
        self.ctx.device.free(self.p.d_len);
        self.ctx.device.free(self.p.d_off);
        let (d_off, d_len, d_adj, cap) =
            build_device_csr(&mut self.ctx, &self.adj, self.cfg.slack.max(1))?;
        self.p.d_off = d_off;
        self.p.d_len = d_len;
        self.p.d_adj = d_adj;
        self.cap = cap;
        Ok(())
    }

    /// The mirror as a validated [`Csr`] (repeel input, test oracle).
    fn mirror_csr(&self) -> Csr {
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut neighbors: Vec<u32> = Vec::with_capacity(self.arcs as usize);
        let mut cur = 0u64;
        offsets.push(0u64);
        for l in &self.adj {
            neighbors.extend_from_slice(l);
            cur += l.len() as u64;
            offsets.push(cur);
        }
        Csr::new(offsets, neighbors).expect("dynamic mirror is a valid simple graph")
    }
}

// ---------------------------------------------------------------------------
// Host-side adjacency mirror helpers
// ---------------------------------------------------------------------------

/// Splits a batch's net updates into matching rounds `(insert, edges)`:
/// first-fit over `net_del`, then `net_ins` — each edge joins the earliest
/// round of its kind that touches neither endpoint. Delete rounds precede
/// insert rounds, no round shares a vertex between two edges, and the
/// output is a function of the (sorted) input alone.
fn matching_rounds(net_del: &[(u32, u32)], net_ins: &[(u32, u32)]) -> Vec<(bool, Vec<(u32, u32)>)> {
    let mut rounds = Vec::new();
    for (insert, edges) in [(false, net_del), (true, net_ins)] {
        let base = rounds.len();
        let mut used: Vec<HashSet<u32>> = Vec::new();
        for &(u, v) in edges {
            let r = match used.iter().position(|s| !s.contains(&u) && !s.contains(&v)) {
                Some(r) => r,
                None => {
                    used.push(HashSet::new());
                    rounds.push((insert, Vec::new()));
                    used.len() - 1
                }
            };
            used[r].extend([u, v]);
            rounds[base + r].1.push((u, v));
        }
    }
    rounds
}

fn has_adj(adj: &[Vec<u32>], u: u32, v: u32) -> bool {
    adj[u as usize].binary_search(&v).is_ok()
}

fn add_adj(list: &mut Vec<u32>, v: u32) {
    if let Err(i) = list.binary_search(&v) {
        list.insert(i, v);
    }
}

fn del_adj(list: &mut Vec<u32>, v: u32) {
    if let Ok(i) = list.binary_search(&v) {
        list.remove(i);
    }
}

/// Builds the slack-padded device CSR from the mirror: per-vertex capacity
/// `deg + slack`, live length in `dyn.len`, unused pad slots zeroed.
/// Returns the three buffers plus the capacity vector.
fn build_device_csr(
    ctx: &mut GpuContext,
    adj: &[Vec<u32>],
    slack: u32,
) -> Result<(BufferId, BufferId, BufferId, Vec<u32>), SimError> {
    let n = adj.len();
    let mut off: Vec<u32> = Vec::with_capacity(n + 1);
    let mut len: Vec<u32> = Vec::with_capacity(n.max(1));
    let mut cap: Vec<u32> = Vec::with_capacity(n);
    let mut cur = 0u64;
    off.push(0);
    for l in adj {
        let c = l.len() as u32 + slack;
        cap.push(c);
        len.push(l.len() as u32);
        cur += c as u64;
        assert!(
            cur < u32::MAX as u64,
            "padded adjacency exceeds 32-bit indexing"
        );
        off.push(cur as u32);
    }
    let mut flat = vec![0u32; (cur as usize).max(1)];
    for (v, l) in adj.iter().enumerate() {
        let o = off[v] as usize;
        flat[o..o + l.len()].copy_from_slice(l);
    }
    if len.is_empty() {
        len.push(0);
    }
    let d_off = ctx.htod_tagged("dyn.offset", &off, SizeClass::PerVertex)?;
    let d_len = ctx.htod_tagged("dyn.len", &len, SizeClass::PerVertex)?;
    let d_adj = ctx.htod_tagged("dyn.adj", &flat, SizeClass::PerArc)?;
    Ok((d_off, d_len, d_adj, cap))
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

/// Walks `v`'s live adjacency in 32-lane chunks — charging the
/// offset/length sector pair and each chunk's coalesced load — and hands
/// each chunk's neighbor ids to `f`.
fn walk_adj<'a>(
    blk: &mut BlockCtx<'a>,
    p: &DynParams,
    v: usize,
    mut f: impl FnMut(&mut BlockCtx<'a>, &[usize]),
) {
    let dev = blk.device;
    let adjb = dev.buffer(p.d_adj);
    blk.charge_sector(2); // off[v] + len[v] (distinct arrays)
    let o = dev.buffer(p.d_off)[v].load(Ordering::Relaxed) as usize;
    let oe = o + dev.buffer(p.d_len)[v].load(Ordering::Relaxed) as usize;
    let mut idxs = [0usize; 32];
    let mut chunk = o;
    while chunk < oe {
        let cnt = (oe - chunk).min(32);
        blk.sync_warp();
        blk.charge_tx(BlockCtx::coalesced_tx(cnt as u64));
        for (t, x) in idxs[..cnt].iter_mut().enumerate() {
            *x = adjb[chunk + t].load(Ordering::Relaxed) as usize;
        }
        f(blk, &idxs[..cnt]);
        chunk += cnt;
    }
}

/// `mcd(v) = |{u ∈ N(v) : core(u) >= core(v)}|`.
fn mcd_of(blk: &mut BlockCtx<'_>, p: &DynParams, v: usize) -> u32 {
    let core = blk.device.buffer(p.d_core);
    let cv = blk.gread(&core[v]);
    let mut m = 0u32;
    walk_adj(blk, p, v, |blk, idxs| {
        let mut cs = [0u32; 32];
        blk.gather(core, idxs, &mut cs, Coalescing::Classified);
        m += cs[..idxs.len()].iter().filter(|&&c| c >= cv).count() as u32;
        blk.charge_instr(1);
    });
    m
}

/// `PCD(r) = |{x ∈ N(r) : core(x) > k ∨ (core(x) == k ∧ mcd(x) > k)}|` —
/// the neighbors that could still support `r` at core `k + 1`.
fn pcd_of(blk: &mut BlockCtx<'_>, p: &DynParams, r: usize, k: u32) -> u32 {
    let dev = blk.device;
    let (core, mcd) = (dev.buffer(p.d_core), dev.buffer(p.d_mcd));
    let mut pcd = 0u32;
    walk_adj(blk, p, r, |blk, idxs| {
        let mut cs = [0u32; 32];
        let mut ms = [0u32; 32];
        blk.gather(core, idxs, &mut cs, Coalescing::Classified);
        blk.gather(mcd, idxs, &mut ms, Coalescing::Classified);
        pcd += (0..idxs.len())
            .filter(|&t| cs[t] > k || (cs[t] == k && ms[t] > k))
            .count() as u32;
        blk.charge_instr(1);
    });
    pcd
}

/// Insertion support of candidate `v` at level `k = core(v)`: `|{x ∈ N(v) :
/// core(x) > k ∨ (core(x) == k ∧ flag(x))}|` — neighbors already above `k`
/// or fellow candidates of its level.
fn support_of(blk: &mut BlockCtx<'_>, p: &DynParams, v: usize, k: u32) -> u32 {
    let dev = blk.device;
    let (core, flag) = (dev.buffer(p.d_core), dev.buffer(p.d_flag));
    let mut m = 0u32;
    walk_adj(blk, p, v, |blk, idxs| {
        let mut cs = [0u32; 32];
        let mut fs = [0u32; 32];
        blk.gather(core, idxs, &mut cs, Coalescing::Classified);
        blk.gather(flag, idxs, &mut fs, Coalescing::Classified);
        m += (0..idxs.len())
            .filter(|&t| cs[t] > k || (cs[t] == k && fs[t] != 0))
            .count() as u32;
        blk.charge_instr(1);
    });
    m
}

/// Full MCD counter kernel: vertex `i` striped over blocks.
fn k_mcd(blk: &mut BlockCtx<'_>, p: &DynParams, count: usize) -> Result<(), KernelError> {
    let mcd = blk.device.buffer(p.d_mcd);
    for v in (blk.block_idx as usize..count).step_by(blk.cfg.blocks as usize) {
        let m = mcd_of(blk, p, v);
        blk.gwrite(&mcd[v], m);
    }
    Ok(())
}

/// Adds `x` to the 64-bit counter `meta[at]` (low word), `meta[at + 1]`
/// (high word) and returns the old low word.
fn add_wide(blk: &mut BlockCtx<'_>, meta: &[AtomicU32], at: usize, x: u32) -> u32 {
    let old = blk.atomic_add(&meta[at], x);
    if old.checked_add(x).is_none() {
        blk.atomic_add(&meta[at + 1], 1);
    }
    old
}

/// Structural kernel, the first of every round: stripes the round's ops
/// `[lo, hi)` of the staging buffer over the blocks. Each op splices both
/// adjacency directions of its `[u, v]` (append for insert, swap-remove for
/// delete) and applies the endpoint MCD deltas against the current cores.
/// The ops are vertex-disjoint, so no two blocks touch one list or counter.
/// Block 0 zeroes the round cursors and, on the batch's `first` round, the
/// batch counters.
fn k_edge(
    blk: &mut BlockCtx<'_>,
    p: &DynParams,
    lo: usize,
    hi: usize,
    insert: bool,
    first: bool,
) -> Result<(), KernelError> {
    let dev = blk.device;
    let batch = dev.buffer(p.d_batch);
    let off = dev.buffer(p.d_off);
    let lenb = dev.buffer(p.d_len);
    let adjb = dev.buffer(p.d_adj);
    let core = dev.buffer(p.d_core);
    let mcd = dev.buffer(p.d_mcd);
    let meta = dev.buffer(p.d_meta);
    if blk.block_idx == 0 {
        let end = if first { META_WORDS } else { M_PRUNED };
        for w in &meta[..end] {
            blk.gwrite(w, 0);
        }
    }
    for i in (lo + blk.block_idx as usize..hi).step_by(blk.cfg.blocks as usize) {
        blk.charge_sector(1); // the op's adjacent [u, v] pair
        let u = batch[2 * i].load(Ordering::Relaxed);
        let v = batch[2 * i + 1].load(Ordering::Relaxed);
        let cu = blk.gread(&core[u as usize]);
        let cv = blk.gread(&core[v as usize]);
        for &(a, b, ca, cb) in &[(u, v, cu, cv), (v, u, cv, cu)] {
            let a = a as usize;
            blk.charge_sector(2); // off[a] + len[a]
            let o = off[a].load(Ordering::Relaxed) as usize;
            let l = lenb[a].load(Ordering::Relaxed) as usize;
            if insert {
                blk.gwrite(&adjb[o + l], b);
                blk.gwrite(&lenb[a], l as u32 + 1);
            } else {
                // Linear probe for `b`, 32-lane chunks, early exit per chunk.
                let mut found = usize::MAX;
                let mut chunk = o;
                let oe = o + l;
                while chunk < oe {
                    let cend = (chunk + 32).min(oe);
                    blk.sync_warp();
                    blk.charge_tx(BlockCtx::coalesced_tx((cend - chunk) as u64));
                    blk.charge_instr(1);
                    for j in chunk..cend {
                        if adjb[j].load(Ordering::Relaxed) == b {
                            found = j;
                        }
                    }
                    if found != usize::MAX {
                        break;
                    }
                    chunk = cend;
                }
                if found == usize::MAX {
                    return Err(KernelError::Other(format!(
                        "delete of edge {a}-{b} absent on device"
                    )));
                }
                let last = o + l - 1;
                if found != last {
                    let w = blk.gread(&adjb[last]);
                    blk.gwrite(&adjb[found], w);
                }
                blk.gwrite(&lenb[a], l as u32 - 1);
            }
            // Endpoint MCD delta: b (dis)appears in N(a) and counts iff
            // core(b) >= core(a).
            if cb >= ca {
                if insert {
                    blk.atomic_add(&mcd[a], 1);
                } else {
                    blk.atomic_sub(&mcd[a], 1);
                }
            }
        }
    }
    Ok(())
}

/// Per-block state of the stepped traversal kernels: shared `[s, e]` and
/// the wave's planned appendees, each with its level.
struct TravState {
    se: SharedArray,
    planned: Vec<[u32; 2]>,
}

/// The plan→commit handoff: `None` retires the block, `Some((s, batch))`
/// consumes `batch` frontier entries from floor `s`.
type TravPlan = Option<(u64, u64)>;

fn overflow(b: u32, what: &str, cap: usize) -> KernelError {
    KernelError::BufferOverflow {
        what: format!("block {b}: {what} frontier exceeds capacity {cap}"),
    }
}

/// This block's slice of the frontier buffers.
fn frontier<'a>(blk: &BlockCtx<'a>, p: &DynParams) -> &'a [AtomicU32] {
    let b = blk.block_idx as usize;
    &blk.device.buffer(p.d_buf)[b * p.bufcap..(b + 1) * p.bufcap]
}

/// Appends `x` to this block's frontier `bufb` at cursor `e`.
fn push(
    blk: &mut BlockCtx<'_>,
    bufb: &[AtomicU32],
    e: &mut u32,
    x: usize,
    what: &str,
) -> Result<(), KernelError> {
    if *e as usize >= bufb.len() {
        return Err(overflow(blk.block_idx, what, bufb.len()));
    }
    blk.gwrite(&bufb[*e as usize], x as u32);
    *e += 1;
    Ok(())
}

/// Subcore visit: test-sets `x`'s visited flag; a first visit appends `x`
/// to the candidate list (cursor `M_CAND`) and this block's frontier. For
/// deletions (`seed_mcd`) it seeds `sup[x] = mcd[x]` — for a core-`k`
/// vertex MCD *is* the deletion-cascade support.
fn visit(
    blk: &mut BlockCtx<'_>,
    p: &DynParams,
    e: &mut u32,
    x: usize,
    seed_mcd: bool,
) -> Result<(), KernelError> {
    let dev = blk.device;
    if blk.atomic_add(&dev.buffer(p.d_flag)[x], 1) != 0 {
        return Ok(());
    }
    let slot = blk.atomic_add(&dev.buffer(p.d_meta)[M_CAND], 1) as usize;
    blk.gwrite(&dev.buffer(p.d_cand)[slot], x as u32);
    if seed_mcd {
        let m = blk.gread(&dev.buffer(p.d_mcd)[x]);
        blk.gwrite(&dev.buffer(p.d_sup)[x], m);
    }
    push(blk, frontier(blk, p), e, x, "subcore")
}

/// Subcore search, init phase (serial, block order): stripes the round's
/// ops `[lo, hi)` over blocks and seeds the search from each op's roots,
/// its endpoints at `K = min(core(u), core(v))`. The staged pairs are the
/// round's root list: `core` is immutable until commit. A delete at
/// `K = 0` cannot lower a core and seeds nothing. An insert root seeds
/// only if `PCD(r) > K` against the round's post-splice structure and
/// MCDs; an insert none of whose roots seeds counts as pruned.
fn bfs_init(
    blk: &mut BlockCtx<'_>,
    p: &DynParams,
    lo: usize,
    hi: usize,
    insert: bool,
) -> Result<TravState, KernelError> {
    let dev = blk.device;
    let (batch, core, meta) = (
        dev.buffer(p.d_batch),
        dev.buffer(p.d_core),
        dev.buffer(p.d_meta),
    );
    let se = blk.shared_alloc(2)?;
    let mut e = 0u32;
    for i in (lo + blk.block_idx as usize..hi).step_by(blk.cfg.blocks as usize) {
        blk.charge_sector(1); // the op's adjacent [u, v] pair
        let u = batch[2 * i].load(Ordering::Relaxed) as usize;
        let v = batch[2 * i + 1].load(Ordering::Relaxed) as usize;
        let (cu, cv) = (blk.gread(&core[u]), blk.gread(&core[v]));
        let k = cu.min(cv);
        let mut seeded = false;
        for (r, c) in [(u, cu), (v, cv)] {
            if c != k {
                continue;
            }
            let live = if insert {
                pcd_of(blk, p, r, k) > k
            } else {
                k > 0
            };
            if live {
                visit(blk, p, &mut e, r, !insert)?;
                seeded = true;
            }
        }
        if insert && !seeded {
            blk.atomic_add(&meta[M_PRUNED], 1);
        }
    }
    blk.sh_write(se, 0, 0);
    blk.sh_write(se, 1, e);
    Ok(TravState {
        se,
        planned: Vec::new(),
    })
}

/// Plan half of both traversals: reads this wave's frontier slice and
/// walks each vertex `v`'s adjacency, ballot-compacting the neighbors at
/// `v`'s level (`core(x) == core(v)`) — for the cascade (`candidates`),
/// only the fellow candidates among them (`flag(x) != 0`). Reads only
/// buffers that are immutable during the launch; every write is commit's.
fn plan_wave(
    blk: &mut BlockCtx<'_>,
    st: &mut TravState,
    p: &DynParams,
    candidates: bool,
) -> Result<TravPlan, KernelError> {
    let bufb = frontier(blk, p);
    let (core, flag) = (blk.device.buffer(p.d_core), blk.device.buffer(p.d_flag));
    blk.sync_threads();
    let s = blk.sh_read(st.se, 0) as u64;
    let e = blk.sh_read(st.se, 1) as u64;
    if s == e {
        blk.sync_threads();
        return Ok(None);
    }
    let warps = blk.num_warps() as u64;
    let batch = warps.min(e - s);
    blk.sync_threads();
    blk.charge_instr(warps);
    st.planned.clear();
    for w in 0..batch {
        let v = blk.gread_dependent(&bufb[(s + w) as usize]) as usize;
        let level = blk.gread(&core[v]);
        walk_adj(blk, p, v, |blk, idxs| {
            let mut cs = [0u32; 32];
            let mut fs = [1u32; 32];
            blk.gather(core, idxs, &mut cs, Coalescing::Classified);
            if candidates {
                blk.gather(flag, idxs, &mut fs, Coalescing::Classified);
            }
            let mut bits = 0u32;
            for t in 0..idxs.len() {
                if cs[t] == level && fs[t] != 0 {
                    bits |= 1 << t;
                }
            }
            let (_offs, total) = ballot_scan_offsets(blk, bits);
            if total > 0 {
                for (t, &x) in idxs.iter().enumerate() {
                    if bits >> t & 1 == 1 {
                        st.planned.push([x as u32, level]);
                    }
                }
            }
        });
    }
    Ok(Some((s, batch)))
}

/// Subcore search, commit half: visits each planned neighbor.
fn bfs_commit(
    blk: &mut BlockCtx<'_>,
    st: &mut TravState,
    plan: TravPlan,
    p: &DynParams,
    seed_mcd: bool,
) -> Result<bool, KernelError> {
    let Some((s, batch)) = plan else {
        return Ok(false);
    };
    let mut e = blk.sh_peek(st.se, 1);
    for idx in 0..st.planned.len() {
        visit(blk, p, &mut e, st.planned[idx][0] as usize, seed_mcd)?;
    }
    blk.sh_poke(st.se, 1, e);
    blk.sh_write(st.se, 0, (s + batch) as u32);
    Ok(true)
}

/// The cascade's eviction threshold at level `k`: a deletion evicts below
/// `k` (the evictee will drop to `k - 1`), an insertion below `k + 1` (a
/// survivor will rise to `k + 1`).
fn threshold(insert: bool, k: u32) -> u32 {
    k + u32::from(insert)
}

/// Evicts `x`: marks it and appends it to this block's frontier. Its core
/// is untouched until commit, so every level comparison of the cascade
/// reads round-start cores.
fn evict(blk: &mut BlockCtx<'_>, p: &DynParams, e: &mut u32, x: usize) -> Result<(), KernelError> {
    blk.gwrite(&blk.device.buffer(p.d_evic)[x], 1);
    push(blk, frontier(blk, p), e, x, "cascade")
}

/// Eviction cascade, init phase (serial, block order): stripes the
/// candidate list over blocks and evicts every candidate whose support is
/// already below its level's threshold. An insertion computes that support
/// here ([`support_of`]): `core` and `flag` are immutable during its
/// cascade, and every block finishes this lap before the first wave
/// evicts. A deletion's support was seeded from MCD by the subcore search.
fn casc_init(
    blk: &mut BlockCtx<'_>,
    p: &DynParams,
    insert: bool,
) -> Result<TravState, KernelError> {
    let dev = blk.device;
    let cand = dev.buffer(p.d_cand);
    let sup = dev.buffer(p.d_sup);
    let core = dev.buffer(p.d_core);
    let se = blk.shared_alloc(2)?;
    let cand_n = blk.gread(&dev.buffer(p.d_meta)[M_CAND]) as usize;
    let mut e = 0u32;
    for i in (blk.block_idx as usize..cand_n).step_by(blk.cfg.blocks as usize) {
        let v = blk.gread(&cand[i]) as usize;
        let k = blk.gread(&core[v]);
        let sv = if insert {
            let s = support_of(blk, p, v, k);
            blk.gwrite(&sup[v], s);
            s
        } else {
            blk.gread(&sup[v])
        };
        if sv < threshold(insert, k) {
            evict(blk, p, &mut e, v)?;
        }
    }
    blk.sh_write(se, 0, 0);
    blk.sh_write(se, 1, e);
    Ok(TravState {
        se,
        planned: Vec::new(),
    })
}

/// Eviction cascade, commit half: decrements each planned un-evicted
/// candidate's support — only an evictee of the candidate's own level ever
/// counted toward it; a decrement from exactly the threshold evicts. An
/// un-evicted candidate always has `sup >= thresh >= 1`, so the decrement
/// cannot underflow.
fn casc_commit(
    blk: &mut BlockCtx<'_>,
    st: &mut TravState,
    plan: TravPlan,
    p: &DynParams,
    insert: bool,
) -> Result<bool, KernelError> {
    let Some((s, batch)) = plan else {
        return Ok(false);
    };
    let dev = blk.device;
    let sup = dev.buffer(p.d_sup);
    let evic = dev.buffer(p.d_evic);
    let mut e = blk.sh_peek(st.se, 1);
    for idx in 0..st.planned.len() {
        let [x, k] = st.planned[idx];
        let x = x as usize;
        if blk.gread(&evic[x]) != 0 {
            continue;
        }
        let thresh = threshold(insert, k);
        let old = blk.atomic_sub(&sup[x], 1);
        debug_assert!(old >= thresh, "support underflow on un-evicted candidate");
        if old == thresh {
            evict(blk, p, &mut e, x)?;
        }
    }
    blk.sh_poke(st.se, 1, e);
    blk.sh_write(st.se, 0, (s + batch) as u32);
    Ok(true)
}

/// Whether candidate `v` changed core: an insertion's survivors rose, a
/// deletion's evictees dropped.
fn changed(blk: &mut BlockCtx<'_>, p: &DynParams, v: usize, insert: bool) -> bool {
    (blk.gread(&blk.device.buffer(p.d_evic)[v]) == 0) == insert
}

/// Commit kernel: moves every changed candidate one level — an
/// insertion's survivors up, a deletion's evictees down — and appends it to
/// the batch's change log (`dyn.log`, cursor = the batch's changed counter;
/// changes past the log's capacity are counted but not stored). Zeroes each
/// candidate's support, which the MCD refresh reuses as its claim mark;
/// block 0 adds the round's candidate count to the batch counter. Plain
/// launch: stripes are block-disjoint.
fn k_commit(blk: &mut BlockCtx<'_>, p: &DynParams, insert: bool) -> Result<(), KernelError> {
    let dev = blk.device;
    let cand = dev.buffer(p.d_cand);
    let sup = dev.buffer(p.d_sup);
    let core = dev.buffer(p.d_core);
    let log = dev.buffer(p.d_log);
    let meta = dev.buffer(p.d_meta);
    let cand_n = blk.gread(&meta[M_CAND]);
    if blk.block_idx == 0 && cand_n > 0 {
        add_wide(blk, meta, M_CANDIDATES, cand_n);
    }
    for i in (blk.block_idx as usize..cand_n as usize).step_by(blk.cfg.blocks as usize) {
        let v = blk.gread(&cand[i]) as usize;
        if changed(blk, p, v, insert) {
            let k = blk.gread(&core[v]);
            let c = if insert { k + 1 } else { k - 1 };
            blk.gwrite(&core[v], c);
            let slot = add_wide(blk, meta, M_CHANGED, 1) as usize;
            if slot < p.logcap {
                blk.gwrite(&log[2 * slot], v as u32);
                blk.gwrite(&log[2 * slot + 1], c);
            }
        }
        blk.gwrite(&sup[v], 0);
    }
    Ok(())
}

/// Claims `x` for the MCD refresh: the first claim (support word `0 → 1`)
/// appends it to `dyn.dirty`.
fn claim(blk: &mut BlockCtx<'_>, p: &DynParams, x: usize) {
    let dev = blk.device;
    if blk.atomic_add(&dev.buffer(p.d_sup)[x], 1) == 0 {
        let slot = blk.atomic_add(&dev.buffer(p.d_meta)[M_DIRTY], 1) as usize;
        blk.gwrite(&dev.buffer(p.d_dirty)[slot], x as u32);
    }
}

/// MCD refresh, init phase (serial, block order): every changed candidate
/// claims itself and its neighbors — exactly the vertices whose MCD a set
/// of core changes can disturb — onto the deduplicated refresh list
/// (cursor `M_DIRTY`). Every block claims before any block recomputes.
fn refresh_claim(blk: &mut BlockCtx<'_>, p: &DynParams, insert: bool) -> Result<(), KernelError> {
    let dev = blk.device;
    let cand = dev.buffer(p.d_cand);
    let cand_n = blk.gread(&dev.buffer(p.d_meta)[M_CAND]) as usize;
    for i in (blk.block_idx as usize..cand_n).step_by(blk.cfg.blocks as usize) {
        let v = blk.gread(&cand[i]) as usize;
        if changed(blk, p, v, insert) {
            claim(blk, p, v);
            walk_adj(blk, p, v, |blk, idxs| {
                for &x in idxs {
                    claim(blk, p, x);
                }
            });
        }
    }
    Ok(())
}

/// MCD refresh, the one wave: recomputes MCD over this block's stripe of
/// the refresh list and drops the claims, then clears the stripe's
/// candidate flags and eviction marks — every per-round array is zero
/// again for the next round.
fn refresh_mcd(blk: &mut BlockCtx<'_>, p: &DynParams) -> Result<bool, KernelError> {
    let dev = blk.device;
    let (cand, dirty, meta) = (
        dev.buffer(p.d_cand),
        dev.buffer(p.d_dirty),
        dev.buffer(p.d_meta),
    );
    let (b, blocks) = (blk.block_idx as usize, blk.cfg.blocks as usize);
    let dirty_n = blk.gread(&meta[M_DIRTY]) as usize;
    for i in (b..dirty_n).step_by(blocks) {
        let x = blk.gread(&dirty[i]) as usize;
        let m = mcd_of(blk, p, x);
        blk.gwrite(&dev.buffer(p.d_mcd)[x], m);
        blk.gwrite(&dev.buffer(p.d_sup)[x], 0);
    }
    let cand_n = blk.gread(&meta[M_CAND]) as usize;
    for i in (b..cand_n).step_by(blocks) {
        let v = blk.gread(&cand[i]) as usize;
        blk.gwrite(&dev.buffer(p.d_flag)[v], 0);
        blk.gwrite(&dev.buffer(p.d_evic)[v], 0);
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcore_cpu::{bz, CoreAlgorithm};
    use kcore_graph::{fig1_graph, gen};

    fn small_cfg() -> DynamicConfig {
        DynamicConfig {
            launch: LaunchConfig {
                blocks: 4,
                threads_per_block: 64,
            },
            ..DynamicConfig::default()
        }
    }

    /// Re-peels the mirror from scratch with the CPU oracle and checks the
    /// host cores, the device cores and the device MCD all agree with it.
    fn assert_consistent(dc: &mut DynamicCore) {
        let g = dc.mirror_csr();
        let expect = bz::Bz.run(&g);
        assert_eq!(dc.cores(), &expect[..], "host cores diverge from oracle");
        assert_eq!(dc.device_cores(), expect, "device cores diverge from host");
        let mcd_expect: Vec<u32> = (0..g.num_vertices())
            .map(|v| {
                g.neighbors(v)
                    .iter()
                    .filter(|&&u| expect[u as usize] >= expect[v as usize])
                    .count() as u32
            })
            .collect();
        assert_eq!(dc.device_mcd(), mcd_expect, "device MCD diverges");
    }

    #[test]
    fn auto_crossover_is_pinned_between_measured_bounds() {
        // The derived crossover c is the break-even point: maintaining
        // c-1 updates is strictly cheaper than a re-peel, maintaining c
        // is not.
        for &(repeel_ms, per_update_ms) in &[
            (12.0, 3.0),
            (12.5, 3.0),
            (0.4, 3.0),
            (5000.0, 0.07),
            (1.0, 1.0),
        ] {
            let c = DynamicConfig::auto_crossover(repeel_ms, per_update_ms);
            assert!(c >= 1);
            assert!(
                per_update_ms * c as f64 >= repeel_ms,
                "re-peel must pay off at the crossover: {per_update_ms} * {c} < {repeel_ms}"
            );
            assert!(
                per_update_ms * ((c - 1) as f64) < repeel_ms,
                "crossover is not minimal: {per_update_ms} * {} >= {repeel_ms}",
                c - 1
            );
        }
    }

    #[test]
    fn auto_crossover_degenerate_inputs() {
        assert_eq!(DynamicConfig::auto_crossover(10.0, 0.0), usize::MAX);
        assert_eq!(DynamicConfig::auto_crossover(10.0, -1.0), usize::MAX);
        assert_eq!(DynamicConfig::auto_crossover(10.0, f64::NAN), usize::MAX);
        assert_eq!(DynamicConfig::auto_crossover(0.0, 1.0), 1);
        assert_eq!(DynamicConfig::auto_crossover(-3.0, 1.0), 1);
        assert_eq!(DynamicConfig::auto_crossover(f64::INFINITY, 1.0), 1);
        let cfg = DynamicConfig::default().with_auto_crossover(12.0, 3.0);
        assert_eq!(cfg.crossover, 4);
    }

    #[test]
    fn insert_and_delete_round_trip_on_fig1() {
        let mut dc =
            DynamicCore::from_csr(&SimOptions::default(), &fig1_graph(), small_cfg()).unwrap();
        assert_eq!(dc.cores(), &kcore_graph::fig1_core_numbers()[..]);
        assert_consistent(&mut dc);

        // Pendants 9 (on the 3-clique side) and 10 (on the ring) both have
        // core 1; the new edge gives each a second core->=2 neighbor, so
        // both rise to 2.
        let rep = dc
            .apply_batch(&[EdgeUpdate::Insert(9, 10)])
            .expect("insert");
        assert_eq!(rep.path, BatchPath::Maintained);
        assert_eq!((rep.net_inserts, rep.net_deletes, rep.rejected), (1, 0, 0));
        assert_eq!(dc.cores()[9], 2);
        assert_eq!(dc.cores()[10], 2);
        assert_consistent(&mut dc);

        // Deleting it restores the original decomposition.
        let rep = dc
            .apply_batch(&[EdgeUpdate::Delete(10, 9)])
            .expect("delete");
        assert_eq!(rep.path, BatchPath::Maintained);
        assert_eq!(rep.changed, 2);
        assert_eq!(dc.cores(), &kcore_graph::fig1_core_numbers()[..]);
        assert_consistent(&mut dc);
    }

    #[test]
    fn rejected_updates_and_noop_batches() {
        let mut dc =
            DynamicCore::from_csr(&SimOptions::default(), &fig1_graph(), small_cfg()).unwrap();
        // self-loop, out-of-range, duplicate insert, absent delete
        let rep = dc
            .apply_batch(&[
                EdgeUpdate::Insert(3, 3),
                EdgeUpdate::Insert(0, 99),
                EdgeUpdate::Insert(0, 1),
                EdgeUpdate::Delete(9, 10),
            ])
            .unwrap();
        assert_eq!(rep.path, BatchPath::Noop);
        assert_eq!(rep.rejected, 4);
        assert_eq!(rep.accepted_inserts + rep.accepted_deletes, 0);
        assert_eq!(dc.cores(), &kcore_graph::fig1_core_numbers()[..]);

        // Accepted but net-cancelling: insert then delete the same edge.
        let rep = dc
            .apply_batch(&[EdgeUpdate::Insert(9, 10), EdgeUpdate::Delete(9, 10)])
            .unwrap();
        assert_eq!(rep.path, BatchPath::Noop);
        assert_eq!((rep.accepted_inserts, rep.accepted_deletes), (1, 1));
        assert_eq!(rep.net_inserts + rep.net_deletes, 0);
        assert_consistent(&mut dc);
    }

    #[test]
    fn insert_between_isolated_vertices_from_empty() {
        let mut dc = DynamicCore::new(&SimOptions::default(), 6, small_cfg()).unwrap();
        assert_eq!(dc.cores(), &[0; 6]);
        let rep = dc.apply_batch(&[EdgeUpdate::Insert(0, 1)]).unwrap();
        assert_eq!(rep.path, BatchPath::Maintained);
        assert_eq!(dc.cores()[..2], [1, 1]);
        assert_consistent(&mut dc);
        // Build a triangle: third edge raises all three to core 2.
        dc.apply_batch(&[EdgeUpdate::Insert(1, 2), EdgeUpdate::Insert(2, 0)])
            .unwrap();
        assert_eq!(dc.cores()[..3], [2, 2, 2]);
        assert_consistent(&mut dc);
    }

    #[test]
    fn pcd_prune_retires_rise_free_insertions() {
        // Two disjoint edges 0-1 and 2-3 (all cores 1). Joining them into a
        // path with {1, 2} changes nothing: every vertex keeps core 1, and
        // both roots have PCD <= 1 (each endpoint's only fellow core-1
        // neighbor with mcd > 1 is the other root), so the prune retires
        // the insertion without any traversal.
        let mut b = kcore_graph::GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let g = b.build();
        let mut dc = DynamicCore::from_csr(&SimOptions::default(), &g, small_cfg()).unwrap();
        let rep = dc.apply_batch(&[EdgeUpdate::Insert(1, 2)]).unwrap();
        assert_eq!(rep.path, BatchPath::Maintained);
        assert_eq!(rep.changed, 0);
        assert_eq!(rep.candidates, 0, "prune must fire before any traversal");
        assert_eq!(rep.pruned_inserts, 1, "PCD prune should retire this");
        assert_eq!(dc.cores(), &[1, 1, 1, 1]);
        assert_consistent(&mut dc);

        // Pendant-to-pendant in fig1 *does* rise (each gains a second
        // core->=2 neighbor) — the prune must let it through.
        let mut dc =
            DynamicCore::from_csr(&SimOptions::default(), &fig1_graph(), small_cfg()).unwrap();
        let rep = dc.apply_batch(&[EdgeUpdate::Insert(9, 11)]).unwrap();
        assert_eq!(rep.pruned_inserts, 0);
        assert_eq!(rep.changed, 2);
        assert_consistent(&mut dc);
    }

    #[test]
    fn crossover_forces_repeel() {
        let cfg = DynamicConfig {
            crossover: 1,
            ..small_cfg()
        };
        let mut dc = DynamicCore::from_csr(&SimOptions::default(), &fig1_graph(), cfg).unwrap();
        let rep = dc.apply_batch(&[EdgeUpdate::Insert(9, 10)]).unwrap();
        assert_eq!(rep.path, BatchPath::Repeeled);
        assert_eq!(dc.cores()[9], 2);
        assert_consistent(&mut dc);
    }

    #[test]
    fn slack_exhaustion_triggers_rebuild() {
        let cfg = DynamicConfig {
            slack: 1,
            ..small_cfg()
        };
        let mut dc = DynamicCore::new(&SimOptions::default(), 12, cfg).unwrap();
        // Grow a star around vertex 0: each insert raises deg(0) by one,
        // exhausting the 1-slot slack repeatedly.
        for v in 1..12u32 {
            dc.apply_batch(&[EdgeUpdate::Insert(0, v)]).unwrap();
        }
        assert!(dc.rebuilds() > 0, "slack 1 must force rebuilds");
        assert_eq!(dc.cores(), &[1; 12]);
        assert_consistent(&mut dc);
    }

    #[test]
    fn mixed_churn_matches_oracle_on_random_graph() {
        let g = gen::erdos_renyi_gnm(60, 140, 11);
        let mut dc = DynamicCore::from_csr(&SimOptions::default(), &g, small_cfg()).unwrap();
        assert_consistent(&mut dc);
        // Deterministic xorshift edge churn, applied in small mixed batches.
        let mut state = 0x2545_f491u32;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        for round in 0..12 {
            let mut batch = Vec::new();
            for _ in 0..9 {
                let u = rng() % 60;
                let v = rng() % 60;
                if rng() % 2 == 0 {
                    batch.push(EdgeUpdate::Insert(u, v));
                } else {
                    batch.push(EdgeUpdate::Delete(u, v));
                }
            }
            let rep = dc.apply_batch(&batch).expect("batch");
            assert_eq!(
                rep.accepted_inserts + rep.accepted_deletes + rep.rejected,
                batch.len(),
                "round {round}: classification must account for every update"
            );
            assert_consistent(&mut dc);
        }
    }

    #[test]
    fn batch_equals_singles_equals_repeel() {
        // One batch, the same updates one-at-a-time, and a crossover=0
        // repeel must all land in the identical final state.
        let g = gen::erdos_renyi_gnm(40, 80, 3);
        let updates = [
            EdgeUpdate::Insert(0, 1),
            EdgeUpdate::Insert(1, 2),
            EdgeUpdate::Insert(2, 0),
            EdgeUpdate::Delete(3, 4),
            EdgeUpdate::Insert(5, 6),
            EdgeUpdate::Delete(0, 1),
        ];
        let run = |batched: bool, crossover: usize| -> Vec<u32> {
            let cfg = DynamicConfig {
                crossover,
                ..small_cfg()
            };
            let mut dc = DynamicCore::from_csr(&SimOptions::default(), &g, cfg).unwrap();
            if batched {
                dc.apply_batch(&updates).unwrap();
            } else {
                for u in updates {
                    dc.apply_batch(std::slice::from_ref(&u)).unwrap();
                }
            }
            assert_consistent(&mut dc);
            dc.cores().to_vec()
        };
        let a = run(true, usize::MAX);
        let b = run(false, usize::MAX);
        let c = run(true, 1);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn maintained_batches_stay_within_the_sync_budget() {
        // Mixed churn: random-pair inserts interleaved with deletes of the
        // base graph's own edges, so both traversal directions run.
        let g = gen::erdos_renyi_gnm(120, 360, 5);
        let edges: Vec<(u32, u32)> = (0..g.num_vertices())
            .flat_map(|u| g.neighbors(u).iter().map(move |&v| (u, v)))
            .filter(|&(u, v)| u < v)
            .collect();
        let mut state = 0x9e37_79b9u32;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        let ops: Vec<EdgeUpdate> = (0..192)
            .map(|i| {
                if i % 2 == 0 {
                    EdgeUpdate::Insert(rng() % 120, rng() % 120)
                } else {
                    let (u, v) = edges[rng() as usize % edges.len()];
                    EdgeUpdate::Delete(u, v)
                }
            })
            .collect();
        let capacity = 16;
        let mut log_overflows = 0;
        for bs in [1usize, 16, 64] {
            let cfg = DynamicConfig {
                batch_capacity: capacity,
                crossover: usize::MAX,
                ..small_cfg()
            };
            let mut dc = DynamicCore::from_csr(&SimOptions::default(), &g, cfg).unwrap();
            let (mut deletes, mut traversals) = (0, 0);
            for (bi, batch) in ops.chunks(bs).enumerate() {
                let (l0, t0, r0) = (
                    dc.ctx().launches().len(),
                    dc.ctx().transfers().len(),
                    dc.rebuilds(),
                );
                let rep = dc.apply_batch(batch).unwrap();
                let net = rep.net_inserts + rep.net_deletes;
                deletes += rep.net_deletes;
                traversals += usize::from(rep.candidates > 0);
                log_overflows += usize::from(rep.changed > capacity as u64);
                let new = &dc.ctx().transfers()[t0..];
                let h2d = new
                    .iter()
                    .filter(|t| t.dir == kcore_gpusim::TransferDir::HostToDevice)
                    .count();
                let d2h = new.len() - h2d;
                let rebuild_uploads = 3 * (dc.rebuilds() - r0) as usize;
                let launches = dc.ctx().launches().len() - l0;
                let what = format!("batch size {bs}, batch {bi} ({net} net)");
                assert_ne!(rep.path, BatchPath::Repeeled, "{what}");
                assert!(
                    h2d <= net.div_ceil(capacity) + rebuild_uploads,
                    "{what}: {h2d} H2D copies"
                );
                assert!(d2h <= 2, "{what}: {d2h} D2H copies");
                assert!(rep.rounds <= net, "{what}: {} rounds", rep.rounds);
                assert!(
                    launches <= 5 * rep.rounds,
                    "{what}: {launches} launches for {} rounds",
                    rep.rounds
                );
                assert_consistent(&mut dc);
            }
            assert!(
                deletes > 0 && traversals > 0,
                "the stream must exercise both paths"
            );
        }
        // Some batches change more cores than the log holds: the full
        // core readback must keep the host mirror exact too.
        assert!(log_overflows > 0, "no batch overflowed the change log");
    }

    #[test]
    fn random_pair_batches_run_in_at_most_two_rounds() {
        // 64 random pairs touch 128 of 16 384 vertices: a shared endpoint
        // is rare, a vertex shared three ways rarer still.
        let n = 1 << 14;
        let g = gen::erdos_renyi_gnm(n, 2 * n as u64, 17);
        let mut dc = DynamicCore::from_csr(&SimOptions::default(), &g, small_cfg()).unwrap();
        let mut state = 0x1234_5678u32;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        for bi in 0..4 {
            let batch: Vec<EdgeUpdate> = (0..64)
                .map(|_| EdgeUpdate::Insert(rng() % n, rng() % n))
                .collect();
            let rep = dc.apply_batch(&batch).unwrap();
            assert_eq!(rep.path, BatchPath::Maintained);
            assert!(rep.net_inserts >= 60, "batch {bi}: {rep:?}");
            assert!(rep.rounds <= 2, "batch {bi}: {} rounds", rep.rounds);
        }
        assert_consistent(&mut dc);
    }

    #[test]
    fn matching_rounds_are_vertex_disjoint_single_kind_and_first_fit() {
        // A hub star, a path and random pairs over few vertices: every
        // kind of conflict, in sorted order like `apply_batch`'s net sets.
        let mut state = 0x2545_f491u32;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        let mut sorted = |mut e: Vec<(u32, u32)>| {
            e.extend((0..40).map(|_| (rng() % 24, rng() % 24)));
            e.retain(|&(u, v)| u != v);
            let mut e: Vec<(u32, u32)> = e.into_iter().map(|(u, v)| (u.min(v), u.max(v))).collect();
            e.sort_unstable();
            e.dedup();
            e
        };
        let net_del = sorted((1..6).map(|i| (i, i + 1)).collect());
        let net_ins = sorted((1..9).map(|i| (0, 30 + i)).collect());
        let rounds = matching_rounds(&net_del, &net_ins);
        assert_eq!(
            rounds,
            matching_rounds(&net_del, &net_ins),
            "not deterministic"
        );
        let deletes = rounds.iter().take_while(|(ins, _)| !ins).count();
        assert!(
            rounds[deletes..].iter().all(|(ins, _)| *ins),
            "a delete round follows an insert round"
        );
        assert!(deletes > 1 && rounds.len() - deletes >= 8, "too few rounds");
        for (kind, input) in [(false, &net_del), (true, &net_ins)] {
            let of_kind: Vec<&Vec<(u32, u32)>> = rounds
                .iter()
                .filter(|(ins, _)| *ins == kind)
                .map(|(_, e)| e)
                .collect();
            let mut flat: Vec<(u32, u32)> =
                of_kind.iter().flat_map(|e| e.iter().copied()).collect();
            flat.sort_unstable();
            assert_eq!(&flat, input, "rounds must partition the net updates");
            let touches = |e: &[(u32, u32)], x: u32| e.iter().any(|&(a, b)| a == x || b == x);
            for (r, edges) in of_kind.iter().enumerate() {
                assert!(!edges.is_empty());
                for (i, &(u, v)) in edges.iter().enumerate() {
                    assert!(
                        !touches(&edges[..i], u) && !touches(&edges[..i], v),
                        "round {r} shares a vertex"
                    );
                    // First fit: every earlier round of the kind blocks it.
                    for earlier in &of_kind[..r] {
                        assert!(touches(earlier, u) || touches(earlier, v));
                    }
                }
            }
        }
        assert!(matching_rounds(&[], &[]).is_empty());
    }

    #[test]
    fn device_mirror_divergence_is_an_error_not_a_crash() {
        let g = fig1_graph();
        let mut dc = DynamicCore::from_csr(&SimOptions::default(), &g, small_cfg()).unwrap();
        // Empty vertex 0's device adjacency behind the mirror's back: the
        // mirror still accepts the delete, the device cannot find the edge.
        dc.ctx.device.buffer(dc.p.d_len)[0].store(0, Ordering::Relaxed);
        let err = dc
            .apply_batch(&[EdgeUpdate::Delete(0, g.neighbors(0)[0])])
            .unwrap_err();
        assert!(
            matches!(err, SimError::Kernel(KernelError::Other(_))),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn empty_engine_rejects_everything() {
        let mut dc = DynamicCore::new(&SimOptions::default(), 0, small_cfg()).unwrap();
        let rep = dc
            .apply_batch(&[EdgeUpdate::Insert(0, 1), EdgeUpdate::Delete(2, 3)])
            .unwrap();
        assert_eq!(rep.path, BatchPath::Noop);
        assert_eq!(rep.rejected, 2);
        assert!(dc.cores().is_empty());
        assert!(dc.device_cores().is_empty());
    }
}
