//! The metric registry, the percentile rule, the operation tally and the
//! one-line JSON result the benchmark prints last.
//!
//! Every metric the benchmark can report is declared here once, with its
//! unit; `BENCHMARK.json` at the repository root lists the same names and
//! `run.py` refuses a result whose metric set differs from it.

use std::collections::BTreeMap;

/// One reportable metric: a name in the `[A-Za-z0-9_.-]` charset and a unit.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Untraced metrics every workload reports (`--trace 0`). Host throughput
/// is not among them: co-tenant load on a shared machine moves it by up to
/// 30% between runs (README.md), more than any bound the gate allows, so it
/// is reported by the traced run instead.
pub const END_TO_END: &[MetricDef] =
    &[m("setup_s", "s"), m("sim_ms", "ms"), m("peak_rss_mb", "MB")];

/// The static-peel stand-ins; `peel.call_ms.<name>` exists for each.
pub const STATIC_DATASETS: [&str; 3] = ["soc-LiveJournal1", "com-Orkut", "uk-2005"];

/// Per-layer metrics of the traced run (`--trace 1`). A layer the workload
/// does not run reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // host throughput of the untraced half
    m("medges_per_s", "Medges/s"),
    // set-up layers
    m("graph.generate_ms", "ms"),
    m("cpu.bz_ms", "ms"),
    m("cpu.replay_ms", "ms"),
    m("dynamic.build_ms", "ms"),
    m("graph.partition_ms", "ms"),
    // host buckets of the simulator engine, per unit of work
    m("gpusim.dispatch_ms", "ms"),
    m("gpusim.plan_parallel_ms", "ms"),
    m("gpusim.commit_serial_ms", "ms"),
    m("gpusim.arena_ms", "ms"),
    m("gpusim.scheduler_wait_ms", "ms"),
    m("gpusim.transfer_ms", "ms"),
    m("gpusim.fused_step_ms", "ms"),
    m("gpusim.unattributed_ms", "ms"),
    m("gpusim.launches", "count"),
    m("gpusim.host_us_per_launch", "us"),
    m("proc.user_s", "s"),
    m("proc.sys_s", "s"),
    // single-device peel
    m("peel.call_ms.soc-LiveJournal1", "ms"),
    m("peel.call_ms.com-Orkut", "ms"),
    m("peel.call_ms.uk-2005", "ms"),
    m("peel.sim.setup_ms", "ms"),
    m("peel.sim.scan_ms", "ms"),
    m("peel.sim.loop_ms", "ms"),
    m("peel.sim.sync_ms", "ms"),
    m("peel.sim.result_ms", "ms"),
    m("peel.global_atomics", "count"),
    m("peel.global_sectors", "count"),
    // dynamic maintenance
    m("dynamic.updates_per_s", "1/s"),
    m("dynamic.batch_ms_p50", "ms"),
    m("dynamic.batch_ms_p90", "ms"),
    m("dynamic.batch_samples", "count"),
    m("dynamic.sim.classify_ms", "ms"),
    m("dynamic.sim.struct_ms", "ms"),
    m("dynamic.sim.subcore_ms", "ms"),
    m("dynamic.sim.cascade_ms", "ms"),
    m("dynamic.sim.commit_ms", "ms"),
    m("dynamic.sim.support_ms", "ms"),
    m("dynamic.sim.prune_ms", "ms"),
    m("dynamic.sim.sync_ms", "ms"),
    m("dynamic.candidates", "count"),
    m("dynamic.changed", "count"),
    m("dynamic.changed_per_candidate", "ratio"),
    m("dynamic.pruned_inserts", "count"),
    m("dynamic.rejected", "count"),
    m("dynamic.rebuilds", "count"),
    m("dynamic.repeeled_batches", "count"),
    // sharded multi-device peel
    m("multi_gpu.call_ms", "ms"),
    m("multi_gpu.sub_rounds", "count"),
    m("multi_gpu.exchange_rounds", "count"),
    m("multi_gpu.border_packets", "count"),
    m("multi_gpu.exchanged_bytes", "bytes"),
    m("multi_gpu.max_device_peak_mb", "MB"),
    m("multi_gpu.share.compute", "frac"),
    m("multi_gpu.share.cascade", "frac"),
    m("multi_gpu.share.exchange", "frac"),
    m("multi_gpu.share.link", "frac"),
    m("multi_gpu.speedup_vs_single", "ratio"),
    m("multi_gpu.p1_over_single", "ratio"),
    // the benchmark's own observer effect
    m("trace_overhead_frac", "frac"),
];

/// Whether `name` is a legal metric or workload name: starts with an ASCII
/// letter or digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The `q`-quantile (0 < q < 1) of `samples` by the nearest-rank rule, but
/// only when at least ten samples lie beyond it; `None` otherwise, so a
/// percentile is never reported from its own few worst samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile must lie in (0, 1)");
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize; // 1-based nearest rank
    if rank == 0 || n - rank < 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of a non-empty sample (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Operations attempted and failed. A wrong result and a simulator error
/// both count as failed; nothing is dropped.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation's outcome.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records a core-number result against the truth; a mismatch or an
    /// error is a failure. Returns whether it passed.
    pub fn check_cores<E: std::fmt::Display>(
        &mut self,
        what: &str,
        got: Result<&[u32], E>,
        truth: &[u32],
    ) -> bool {
        let ok = match got {
            Ok(core) if core == truth => true,
            Ok(core) => {
                let bad = core.iter().zip(truth).filter(|(a, b)| a != b).count()
                    + core.len().abs_diff(truth.len());
                eprintln!("perfbench: {what}: {bad} core numbers differ from the truth");
                false
            }
            Err(e) => {
                eprintln!("perfbench: {what}: {e}");
                false
            }
        };
        self.record(ok);
        ok
    }
}

/// Metric values collected by a run, keyed by registry name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Sets a registered metric. Panics on an unregistered name: a typo
    /// would otherwise silently report 0.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the registry"));
        self.values.insert(def.name, value);
    }

    /// Renders the result line: exactly `correct` (no operation failed),
    /// `attempted`, `failed` and `metrics`, the latter holding every metric
    /// of `defs`. A metric
    /// of `defs` that was never set is an error for the end-to-end set and
    /// 0 for per-layer metrics (the layer did not run). Non-finite values
    /// are an error.
    pub fn result_line(
        &self,
        defs: &[MetricDef],
        require_all: bool,
        tally: Tally,
    ) -> Result<String, String> {
        let mut parts = Vec::with_capacity(defs.len());
        for d in defs {
            if !valid_name(d.name) {
                return Err(format!("metric name {:?} is outside the charset", d.name));
            }
            let v = match self.values.get(d.name).copied() {
                Some(v) => v,
                None if require_all => return Err(format!("metric {} was not measured", d.name)),
                None => 0.0,
            };
            if !v.is_finite() {
                return Err(format!("metric {} is not finite ({v})", d.name));
            }
            parts.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(v),
                d.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.failed == 0,
            tally.attempted,
            tally.failed,
            parts.join(", ")
        ))
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives (`1` stays `1`, never `1.0e0`).
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s == "-0" {
        "0".into()
    } else {
        s
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_charset() {
        assert!(valid_name("peel.call_ms.com-Orkut"));
        assert!(valid_name("setup_s"));
        assert!(valid_name("2x"));
        assert!(!valid_name("com-Orkut@2x"), "@ is outside the charset");
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"), "must start with a letter or digit");
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn registry_names_are_valid_unique_and_declared() {
        let manifest = include_str!("../../BENCHMARK.json");
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "{} is not a valid name", d.name);
            assert!(seen.insert(d.name), "{} is registered twice", d.name);
            assert!(
                !d.unit.is_empty() && d.unit.len() <= 16,
                "{}: bad unit {:?}",
                d.name,
                d.unit
            );
            let decl = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            assert!(
                manifest.contains(&decl),
                "BENCHMARK.json does not declare {decl}"
            );
        }
        for ds in STATIC_DATASETS {
            assert!(seen.contains(format!("peel.call_ms.{ds}").as_str()));
        }
        // and nothing is declared that the registry does not know
        assert_eq!(manifest.matches("\"name\": ").count(), seen.len() + 3);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        // 99 samples: rank 90, only 9 beyond it
        assert_eq!(percentile(&xs[..99], 0.9), None);
        // the median needs 20 samples
        assert_eq!(percentile(&xs[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&xs[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        // order of the input does not matter
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 0.9), Some(90.0));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn corrupted_truth_counts_as_failure() {
        let mut t = Tally::default();
        let truth = vec![1, 2, 2];
        assert!(t.check_cores::<String>("ok", Ok(&[1, 2, 2]), &truth));
        assert!(!t.check_cores::<String>("wrong", Ok(&[1, 2, 3]), &truth));
        assert!(!t.check_cores::<String>("short", Ok(&[1, 2]), &truth));
        assert!(!t.check_cores("err", Err("simulated OOM"), &truth));
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 3
            }
        );
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.set("setup_s", 12.25);
        m.set("sim_ms", 3.0);
        m.set("peak_rss_mb", 100.0);
        let t = Tally {
            attempted: 7,
            failed: 0,
        };
        let line = m.result_line(END_TO_END, true, t).unwrap();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 12.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"sim_ms\": {\"value\": 3, \"unit\": \"ms\"}"));
        // a missing end-to-end metric is an error, a missing layer reads 0
        let empty = Metrics::default();
        assert!(empty.result_line(END_TO_END, true, t).is_err());
        let layers = empty.result_line(PER_LAYER, false, t).unwrap();
        assert!(layers.contains("\"cpu.bz_ms\": {\"value\": 0, \"unit\": \"ms\"}"));
        let mut nan = Metrics::default();
        nan.set("cpu.bz_ms", f64::NAN);
        assert!(nan.result_line(PER_LAYER, false, t).is_err());
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn unregistered_metric_panics() {
        Metrics::default().set("no.such.metric", 1.0);
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
