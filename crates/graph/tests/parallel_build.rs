//! Differential tests: the parallel ingestion paths must be *bit-identical*
//! to their serial oracles at every rayon pool size.
//!
//! This is the determinism contract the whole suite leans on (golden
//! traces, counter fingerprints, recorded bench snapshots and the binary
//! dataset cache all assume the ingested graphs do not depend on host
//! parallelism). Two paths are pinned here:
//!
//! * `gen::rmat` (chunked parallel sampler) vs `gen::rmat_serial`;
//! * `io::parse_edge_list_bytes` (chunked parallel tokenizer) vs the
//!   streaming `io::parse_edge_list`.

use kcore_graph::{gen, io};

/// Runs `f` inside dedicated rayon pools of 1, 2 and 8 threads and checks
/// every pool produces the same value as the caller's pool.
fn assert_pool_invariant<T: PartialEq + std::fmt::Debug + Send>(f: impl Fn() -> T + Sync) {
    let reference = f();
    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let got = pool.install(&f);
        assert_eq!(got, reference, "pool size {threads} diverged");
    }
}

/// Chunked parallel R-MAT equals the single-stream serial sampler, across
/// pool sizes, for a multi-chunk edge count.
#[test]
fn rmat_multi_chunk_pool_invariant() {
    let (scale, m, seed) = (12u32, 100_000u64, 0xDEAD_BEEF_u64);
    let serial = gen::rmat_serial(scale, m, gen::RmatParams::graph500(), seed);
    assert_pool_invariant(|| gen::rmat(scale, m, gen::RmatParams::graph500(), seed));
    assert_eq!(
        gen::rmat(scale, m, gen::RmatParams::graph500(), seed),
        serial
    );
}

/// Parallel in-memory parse == streaming parse (same graph AND same
/// recoder table), across pool sizes, on an input large enough to span
/// multiple parse chunks (> 2 MiB of text).
#[test]
fn parse_bytes_matches_streaming_parse() {
    let mut text = String::from("# big synthetic edge list\n");
    let mut state = 7u64;
    while text.len() < (2 << 20) + 4_096 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        let u = state >> 40;
        let v = (state >> 17) & 0xFFFF;
        // Sprinkle comments and blank lines through the body.
        match state % 37 {
            0 => text.push_str("% konect comment\n"),
            1 => text.push('\n'),
            _ => text.push_str(&format!("{u}\t{v}\n")),
        }
    }
    // Recoders compare by their full dense-ID -> external-ID table.
    fn table(rec: &kcore_graph::recode::Recoder) -> Vec<u64> {
        (0..rec.len() as u32)
            .map(|i| rec.decode(i).unwrap())
            .collect()
    }
    let streamed = io::parse_edge_list(text.as_bytes()).unwrap();
    assert_pool_invariant(|| {
        let (g, rec) = io::parse_edge_list_bytes(text.as_bytes()).unwrap();
        (g, table(&rec))
    });
    let (g, rec) = io::parse_edge_list_bytes(text.as_bytes()).unwrap();
    assert_eq!(g, streamed.0);
    assert_eq!(table(&rec), table(&streamed.1));
}

/// Malformed lines report the same 1-based line number on both parse
/// paths, including when the bad line sits in a late parallel chunk.
#[test]
fn parse_bytes_reports_same_error_line() {
    let mut text = String::new();
    for i in 0..200_000u64 {
        text.push_str(&format!("{} {}\n", i, i + 1));
    }
    assert!(text.len() > (1 << 20), "must exercise the parallel path");
    text.push_str("not an edge\n");
    let bad_line = 200_001;
    // A >1-thread pool forces the chunked tokenizer (on a single-threaded
    // pool `parse_edge_list_bytes` legitimately delegates to streaming).
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    for result in [
        io::parse_edge_list(text.as_bytes()),
        pool.install(|| io::parse_edge_list_bytes(text.as_bytes())),
    ] {
        match result {
            Err(io::IoError::Parse { line_no, line }) => {
                assert_eq!(line_no, bad_line);
                assert_eq!(line, "not an edge");
            }
            other => panic!("expected parse error, got {:?}", other.map(|_| ())),
        }
    }
}
