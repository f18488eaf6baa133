//! Conservation laws the traced run asserts on the counters the program
//! exports. A violation fails the run: the parts a number is split into
//! must tile it.

use kcore_gpusim::{HostBucket, HostProfile, RoundCritical, Trace};

/// Relative tolerance for sums of f64 parts accumulated in another order.
const REL_EPS: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_EPS * a.abs().max(b.abs()).max(1e-12)
}

/// Host seconds per [`HostBucket`], summed over a profile's phases, in
/// [`HostBucket::ALL`] order.
pub fn bucket_seconds(p: &HostProfile) -> [f64; 7] {
    let mut out = [0.0; 7];
    for (slot, b) in out.iter_mut().zip(HostBucket::ALL) {
        *slot = p.phases.iter().map(|ph| ph.bucket_s(b)).sum();
    }
    out
}

/// Host law: one call's buckets plus `unattributed` equal the call's wall
/// time measured from outside, with `unattributed ≥ 0`. Returns the
/// unattributed seconds.
pub fn unattributed_s(what: &str, wall_s: f64, buckets_s: &[f64]) -> Result<f64, String> {
    let attributed: f64 = buckets_s.iter().sum();
    if buckets_s.iter().any(|b| !b.is_finite() || *b < 0.0) {
        return Err(format!("{what}: a host bucket is negative or not finite"));
    }
    let rest = wall_s - attributed;
    if rest < 0.0 {
        return Err(format!(
            "{what}: host buckets attribute {attributed:.6} s, more than the call's \
             {wall_s:.6} s wall time"
        ));
    }
    Ok(rest)
}

/// Simulated time of one phase rollup: its kernels plus its transfers.
pub fn phase_ms(p: &kcore_gpusim::PhaseSummary) -> f64 {
    p.kernel_ms + p.transfer_ms
}

/// Sim law: a trace's phase rollups sum to the simulated total it reports
/// for the same run.
pub fn phases_tile(what: &str, trace: &Trace, sim_ms: f64) -> Result<(), String> {
    let sum: f64 = trace.phases.iter().map(phase_ms).sum();
    if close(sum, sim_ms) {
        Ok(())
    } else {
        Err(format!(
            "{what}: phase rollups sum to {sum} ms, the run reports {sim_ms} ms"
        ))
    }
}

/// Sim law for deltas: the per-phase growth between two snapshots of one
/// context sums to the simulated time charged in between.
pub fn phase_deltas_tile(what: &str, parts_ms: &[f64], charged_ms: f64) -> Result<(), String> {
    let sum: f64 = parts_ms.iter().sum();
    if close(sum, charged_ms) {
        Ok(())
    } else {
        Err(format!(
            "{what}: phase deltas sum to {sum} ms, the batches report {charged_ms} ms"
        ))
    }
}

/// Fleet critical-path components of a whole run, `[compute, cascade,
/// exchange, link]` ms, summed over rounds.
pub fn fleet_components_ms(path: &[RoundCritical]) -> [f64; 4] {
    let mut c = [0.0; 4];
    for r in path {
        c[0] += r.compute_ms;
        c[1] += r.cascade_ms;
        c[2] += r.exchange_kernel_ms;
        c[3] += r.link_ms;
    }
    c
}

/// Fleet law: every round's shares sum to 1 (or are all 0 for an empty
/// round), and so do the run-level shares derived from the components.
/// Returns the run-level shares.
pub fn fleet_shares(what: &str, path: &[RoundCritical]) -> Result<[f64; 4], String> {
    for r in path {
        let s = r.compute_share + r.cascade_share + r.exchange_share + r.link_share;
        let parts = r.compute_ms + r.cascade_ms + r.exchange_kernel_ms + r.link_ms;
        let want = if parts > 0.0 { 1.0 } else { 0.0 };
        if !close(s, want) {
            return Err(format!("{what}: round k={} shares sum to {s}", r.k));
        }
    }
    let c = fleet_components_ms(path);
    let total: f64 = c.iter().sum();
    if total <= 0.0 {
        return Err(format!("{what}: the fleet critical path is empty"));
    }
    let shares = c.map(|x| x / total);
    let s: f64 = shares.iter().sum();
    if !close(s, 1.0) {
        return Err(format!("{what}: run shares sum to {s}"));
    }
    Ok(shares)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcore_gpusim::{HostPhase, HOSTPROF_SCHEMA_VERSION};

    fn profile(dispatch_s: f64, plan_s: f64) -> HostProfile {
        HostProfile {
            schema_version: HOSTPROF_SCHEMA_VERSION,
            label: "synthetic".into(),
            total_s: 1.0,
            host_allocs: 0,
            host_alloc_bytes: 0,
            phases: vec![HostPhase {
                phase: "Loop".into(),
                launches: 3,
                allocs: 0,
                dispatch_s,
                plan_parallel_s: plan_s,
                commit_serial_s: 0.0,
                arena_s: 0.0,
                scheduler_wait_s: 0.0,
                transfer_s: 0.0,
                fused_step_s: 0.0,
                util_samples: 0,
                avg_busy_workers: 0.0,
                pool_threads: 1,
            }],
            threads: Vec::new(),
            events: Vec::new(),
        }
    }

    #[test]
    fn host_law_accepts_a_consistent_profile() {
        let b = bucket_seconds(&profile(0.2, 0.3));
        let rest = unattributed_s("ok", 0.6, &b).unwrap();
        assert!((rest - 0.1).abs() < 1e-12);
    }

    #[test]
    fn host_law_rejects_a_broken_profile() {
        // buckets claim 0.9 s inside a call that took 0.6 s
        let b = bucket_seconds(&profile(0.4, 0.5));
        let err = unattributed_s("broken", 0.6, &b).unwrap_err();
        assert!(err.contains("more than the call's"), "{err}");
        // a negative bucket is broken too, even if the sum fits
        let mut neg = bucket_seconds(&profile(0.1, 0.1));
        neg[3] = -0.05;
        assert!(unattributed_s("negative", 0.6, &neg).is_err());
    }

    fn round(k: u32, parts: [f64; 4], shares: [f64; 4]) -> RoundCritical {
        RoundCritical {
            k,
            sub_rounds: 1,
            charged_ms: parts.iter().sum(),
            compute_ms: parts[0],
            cascade_ms: parts[1],
            exchange_kernel_ms: parts[2],
            link_ms: parts[3],
            compute_share: shares[0],
            cascade_share: shares[1],
            exchange_share: shares[2],
            link_share: shares[3],
            bound: "compute",
            bounding_resource: "device0".into(),
        }
    }

    #[test]
    fn fleet_law() {
        let good = [
            round(0, [2.0, 1.0, 1.0, 0.0], [0.5, 0.25, 0.25, 0.0]),
            round(1, [0.0; 4], [0.0; 4]),
        ];
        let s = fleet_shares("good", &good).unwrap();
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((s[0] - 0.5).abs() < 1e-12);
        let bad = [round(0, [2.0, 1.0, 1.0, 0.0], [0.5, 0.25, 0.5, 0.0])];
        assert!(fleet_shares("bad", &bad).is_err());
        assert!(fleet_shares("empty", &[]).is_err());
    }

    #[test]
    fn sim_law_on_deltas() {
        assert!(phase_deltas_tile("ok", &[1.0, 2.5, 0.5], 4.0).is_ok());
        assert!(phase_deltas_tile("short", &[1.0, 2.5], 4.0).is_err());
    }

    #[test]
    fn sim_law_on_a_real_trace() {
        let g = kcore_graph::gen::rmat(8, 1_500, kcore_graph::gen::RmatParams::graph500(), 3);
        let mut ctx = kcore_gpusim::SimOptions::default().context();
        kcore_gpu::decompose_in(&mut ctx, &g, &kcore_gpu::PeelConfig::ours()).unwrap();
        let total = ctx.elapsed_ms();
        let trace = ctx.trace("t");
        assert!(phases_tile("real", &trace, total).is_ok());
        assert!(phases_tile("off", &trace, total * 1.01).is_err());
    }
}
