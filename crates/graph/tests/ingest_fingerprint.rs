//! Byte fingerprints of the ingested stand-in graphs.
//!
//! Every golden trace, counter fingerprint, recorded bench snapshot and
//! cache entry assumes the generators emit the same bytes for a fixed seed
//! ([`gen::GEN_VERSION`]). This test pins that directly, independent of any
//! builder or sampler implementation: each value is FNV-1a 64 over the full
//! [`Csr::write_binary`] byte stream (header + payload). A generator change
//! that moves any byte fails here, and must bump `GEN_VERSION` and re-record
//! the constants.
//!
//! The smoke subset runs in every `cargo test`; the full-size stand-ins are
//! `#[ignore]`d and meant for release builds:
//! `cargo test --release -p kcore-graph --test ingest_fingerprint -- --ignored`.

use kcore_graph::datasets::{self, Dataset};
use kcore_graph::{gen, Csr};

/// FNV-1a 64 over the KCSR encoding of `g`.
fn fingerprint(g: &Csr) -> u64 {
    let mut bytes = Vec::new();
    g.write_binary(&mut bytes).unwrap();
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn check(name: &str, g: &Csr, expected: u64) {
    let got = fingerprint(g);
    assert_eq!(
        got, expected,
        "{name}: fingerprint {got:016x}, expected {expected:016x}"
    );
}

fn dataset(name: &str) -> Dataset {
    datasets::registry()
        .into_iter()
        .chain(datasets::scaled_up_variants())
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("no dataset {name}"))
}

#[test]
fn smoke_subset_fingerprints() {
    let expected = [
        ("amazon0601", 0xf3ff_b5a8_fede_c24c_u64),
        ("wiki-Talk", 0x0b65_3735_3089_4b49),
        ("web-Google", 0xc367_28eb_3814_16b2),
    ];
    let smoke = datasets::smoke_subset();
    assert_eq!(smoke.len(), expected.len());
    for (d, (name, fp)) in smoke.iter().zip(expected) {
        assert_eq!(d.name, name);
        check(name, &d.generate(), fp);
    }
}

#[test]
#[ignore = "full-size stand-ins; run with --release -- --ignored"]
fn soc_livejournal1_fingerprint() {
    check(
        "soc-LiveJournal1",
        &dataset("soc-LiveJournal1").generate(),
        0x3dc9_dc63_7c64_9538,
    );
}

#[test]
#[ignore = "full-size stand-ins; run with --release -- --ignored"]
fn com_orkut_fingerprint() {
    check(
        "com-Orkut",
        &dataset("com-Orkut").generate(),
        0x08e6_a461_c6e7_bb21,
    );
}

#[test]
#[ignore = "full-size stand-ins; run with --release -- --ignored"]
fn uk_2005_fingerprint() {
    check(
        "uk-2005",
        &dataset("uk-2005").generate(),
        0x052e_1c86_6dfb_54cc,
    );
}

#[test]
#[ignore = "full-size stand-ins; run with --release -- --ignored"]
fn com_orkut_2x_fingerprint() {
    check(
        "com-Orkut@2x",
        &dataset("com-Orkut@2x").generate(),
        0x532e_6ff9_f55e_1ee4,
    );
}

#[test]
#[ignore = "full-size stand-ins; run with --release -- --ignored"]
fn rmat_16_fingerprint() {
    let g = gen::rmat(16, 262_144, gen::RmatParams::graph500(), 7);
    check("rmat(16, 262144, graph500, 7)", &g, 0x99ec_4a5c_4c51_d8eb);
}
