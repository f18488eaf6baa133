//! Golden-trace regression tests for the profiling subsystem (DESIGN.md
//! "Profiling & traces").
//!
//! The simulator is deterministic by construction: every quantity in a
//! trace is *simulated* (no wall-clock reads), the peeling loop's wave
//! shuffle is seeded, and the launch engine is serial regardless of thread
//! count. These tests pin that property down three ways:
//!
//! 1. the same program on the same graph yields a **bit-identical** trace
//!    JSON across two captures in one process;
//! 2. the trace is identical across rayon thread-pool sizes (1, 2, 4);
//! 3. the per-phase counters match a checked-in golden file, so an
//!    accidental change to kernel accounting (a lost `charge_tx`, a phase
//!    mislabel, a different launch count) fails CI even if the result
//!    vector is still correct.
//!
//! After an *intentional* accounting change, regenerate the golden file:
//!
//! ```bash
//! KCORE_BLESS=1 cargo test --test golden_trace
//! ```

use kcore_bench::regress;
use kcore_gpu::PeelConfig;
use kcore_gpusim::{Counters, SimOptions, Timeline, Trace, TRACE_SCHEMA_VERSION};
use kcore_graph::gen;
use serde::Serialize;
use std::path::PathBuf;

/// One full peel of a small, seeded R-MAT graph with per-block counters on.
/// A reduced grid keeps each simulated run fast; the launch geometry is part
/// of the fingerprint, so the golden pins it too.
fn capture_both(label: &str) -> (Trace, Timeline) {
    let g = gen::rmat(9, 2_000, gen::RmatParams::graph500(), 7);
    let cfg = PeelConfig::default().with_launch(kcore_gpusim::LaunchConfig {
        blocks: 16,
        threads_per_block: 128,
    });
    let mut ctx = SimOptions::default().context();
    ctx.set_block_profiling(true);
    kcore_gpu::decompose_in(&mut ctx, &g, &cfg).unwrap();
    let timeline = ctx.timeline(label);
    (ctx.trace(label), timeline)
}

fn capture(label: &str) -> Trace {
    capture_both(label).0
}

#[test]
fn trace_is_bit_identical_across_runs() {
    let a = capture("run");
    let b = capture("run");
    assert_eq!(a.counters_fingerprint(), b.counters_fingerprint());
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn trace_is_identical_across_thread_pool_sizes() {
    let reference = capture("pool");
    let reference_json = reference.to_json();
    for threads in [1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let t = pool.install(|| capture("pool"));
        assert_eq!(
            t.counters_fingerprint(),
            reference.counters_fingerprint(),
            "fingerprint diverged with {threads} rayon threads"
        );
        assert_eq!(
            t.to_json(),
            reference_json,
            "trace diverged with {threads} rayon threads"
        );
    }
}

/// The timing-free projection of a trace that the golden file stores:
/// per-phase launch counts and summed counters, plus the fingerprint over
/// the full launch/transfer sequence. Timing is excluded on purpose so the
/// golden survives cost-*constant* recalibration but catches any change to
/// what the kernels actually do.
#[derive(Serialize)]
struct Golden {
    schema_version: u32,
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

fn golden_of(trace: &Trace) -> String {
    let g = Golden {
        schema_version: trace.schema_version,
        fingerprint: format!("{:#018x}", trace.counters_fingerprint()),
        phases: trace
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
    };
    serde_json::to_string_pretty(&g).unwrap()
}

/// Schema version a golden file was blessed under. Files from before the
/// field existed count as schema 1 (the PR 1 trace layout).
fn golden_schema(text: &str) -> u64 {
    regress::parse_json(text)
        .ok()
        .and_then(|v| regress::get(&v, "schema_version").and_then(regress::as_u64))
        .unwrap_or(1)
}

/// Compares a freshly captured golden projection against a checked-in one.
/// A golden blessed under a *different* trace schema is refused outright —
/// a cross-schema byte diff would bury the real problem ("re-bless") under
/// pages of field noise.
fn compare_golden(got: &str, want: &str) -> Result<(), String> {
    let want_schema = golden_schema(want);
    if want_schema != TRACE_SCHEMA_VERSION as u64 {
        return Err(format!(
            "golden file was blessed under trace schema {want_schema}, current schema is \
             {TRACE_SCHEMA_VERSION}; refusing to diff across schemas — regenerate with \
             KCORE_BLESS=1"
        ));
    }
    if got != want {
        return Err(
            "per-phase counters diverged from the golden file; if the accounting change \
             is intentional, regenerate with KCORE_BLESS=1"
                .into(),
        );
    }
    Ok(())
}

#[test]
fn trace_matches_checked_in_golden() {
    let got = golden_of(&capture("golden"));
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/peel_rmat9.json");
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
    if let Err(why) = compare_golden(&got, &want) {
        panic!("{}: {why}", path.display());
    }
}

#[test]
fn mismatched_schema_versions_are_refused_not_diffed() {
    let got = r#"{"schema_version": 3, "fingerprint": "0x0", "phases": []}"#;
    // identical content except for the version: must refuse, not pass
    let stale = r#"{"schema_version": 99, "fingerprint": "0x0", "phases": []}"#;
    let err = compare_golden(got, stale).unwrap_err();
    assert!(err.contains("schema 99"), "unexpected message: {err}");
    assert!(err.contains("refusing"), "unexpected message: {err}");
    // a pre-versioning golden (no schema_version field) counts as schema 1
    let legacy = r#"{"fingerprint": "0x0", "phases": []}"#;
    let err = compare_golden(got, legacy).unwrap_err();
    assert!(err.contains("schema 1"), "unexpected message: {err}");
    // same schema, same bytes: accepted
    assert!(compare_golden(got, got).is_ok());
}

// ---------------------------------------------------------------------------
// Memory observability (memstats) determinism
// ---------------------------------------------------------------------------

/// The memstats snapshot embedded in a trace is itself golden-pinned: the
/// full JSON (ledger, phase watermarks, transfer rollup, peak live set) is
/// byte-identical across runs and rayon pool sizes, and its transfer totals
/// agree with the trace totals the `peel_rmat9.json` golden pins.
#[test]
fn memstats_matches_checked_in_golden() {
    let trace = capture("memstats-golden");
    // internal consistency with the trace this snapshot rode in on
    assert_eq!(trace.memstats.h2d_bytes, trace.totals.h2d_bytes);
    assert_eq!(trace.memstats.d2h_bytes, trace.totals.d2h_bytes);
    let got = trace.memstats.to_json();

    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let again = pool
            .install(|| capture("memstats-golden"))
            .memstats
            .to_json();
        assert_eq!(again, got, "memstats diverged with {threads} rayon threads");
    }

    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/peel_rmat9_memstats.json");
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
    // memstats has its own schema version; refuse cross-schema diffs the
    // same way compare_golden does for traces
    let want_schema = golden_schema(&want);
    assert_eq!(
        want_schema,
        kcore_gpusim::MEMSTATS_SCHEMA_VERSION as u64,
        "golden memstats blessed under schema {want_schema}, current is {}; \
         refusing to diff across schemas — regenerate with KCORE_BLESS=1",
        kcore_gpusim::MEMSTATS_SCHEMA_VERSION
    );
    assert_eq!(
        got,
        want,
        "memstats diverged from {}; if the memory-accounting change is \
         intentional, regenerate with KCORE_BLESS=1",
        path.display()
    );
}

// ---------------------------------------------------------------------------
// Timeline / Perfetto export determinism
// ---------------------------------------------------------------------------

/// FNV-1a over the full Perfetto JSON, so the golden pins every byte of the
/// export without checking in the (large) event stream itself.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The checked-in projection of the SM timeline: event population counts
/// plus a hash of the exact Chrome trace-event JSON bytes.
#[derive(Serialize)]
struct GoldenTimeline {
    schema_version: u32,
    sm_count: u32,
    spans: usize,
    transfers: usize,
    counter_points: usize,
    perfetto_json_fnv1a: String,
}

fn golden_timeline_of(tl: &Timeline) -> String {
    let g = GoldenTimeline {
        schema_version: tl.schema_version,
        sm_count: tl.sm_count,
        spans: tl.spans.len(),
        transfers: tl.transfers.len(),
        counter_points: tl.counters.len(),
        perfetto_json_fnv1a: format!("{:#018x}", fnv1a(tl.to_chrome_json().as_bytes())),
    };
    serde_json::to_string_pretty(&g).unwrap()
}

#[test]
fn perfetto_json_is_byte_identical_across_runs_and_pool_sizes() {
    let reference = capture_both("timeline").1.to_chrome_json();
    assert_eq!(reference, capture_both("timeline").1.to_chrome_json());
    for threads in [1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let json = pool.install(|| capture_both("timeline").1.to_chrome_json());
        assert_eq!(
            json, reference,
            "Perfetto export diverged with {threads} rayon threads"
        );
    }
}

#[test]
fn timeline_matches_checked_in_golden() {
    let got = golden_timeline_of(&capture_both("timeline-golden").1);
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/peel_rmat9_timeline.json");
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
    if let Err(why) = compare_golden(&got, &want) {
        panic!("{}: {why}", path.display());
    }
}
