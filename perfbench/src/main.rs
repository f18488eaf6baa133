//! The repository benchmark: drives the static, dynamic and sharded k-core
//! engines through their public entry points, times each call from
//! outside, checks every result, and prints one JSON result line.
//!
//! ```text
//! perfbench --workload <static-peel|dynamic-churn|sharded-p4> --seed <n>
//!           --seconds <s> --trace <0|1> [--commit <sha>]
//! perfbench --list
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of an untraced run;
//! `--trace 1` reports the per-layer metrics of a traced run. See
//! README.md for the workloads and the map from layer to end-to-end
//! metric. `run.py` builds this binary and runs it in a clean environment.

mod laws;
mod metrics;
mod sys;
mod workloads;

use metrics::{json_str, median, percentile, Metrics, Tally, END_TO_END, PER_LAYER};
use std::time::Instant;
use workloads::{Inputs, LayerSums, SetupLayers, Unit, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--commit <sha>]\n       perfbench --list",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut commit = "unknown".to_string();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v:?}")),
                })
            }
            "--commit" => commit = value()?.clone(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        commit,
    })
}

/// Prints every metric by name with its unit.
fn list() {
    println!("end-to-end metrics (--trace 0):");
    for d in END_TO_END {
        println!("  {:<34} {}", d.name, d.unit);
    }
    println!("per-layer metrics (--trace 1):");
    for d in PER_LAYER {
        println!("  {:<34} {}", d.name, d.unit);
    }
}

fn fingerprint(a: &Args) -> String {
    format!(
        "{{\"fingerprint\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"nproc\": {}, \"rayon_threads\": {}, \"cpu_model\": {}, \
         \"commit\": {}}}}}",
        a.workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        sys::nproc(),
        rayon::current_num_threads(),
        json_str(&sys::cpu_model()),
        json_str(&a.commit),
    )
}

/// Repeats units of work until `seconds` have passed (at least one unit).
/// With `peaks`, the heap is trimmed before each unit (outside its timed
/// calls) and the unit's RSS high-water growth over that start, MiB, is
/// recorded.
fn run_for(
    seconds: f64,
    inputs: &Inputs,
    tally: &mut Tally,
    mut layers: Option<&mut LayerSums>,
    mut peaks: Option<&mut Vec<f64>>,
) -> Result<Vec<Unit>, String> {
    let start = Instant::now();
    let mut units = Vec::new();
    loop {
        let rss0 = match peaks {
            Some(_) => {
                sys::trim_heap();
                sys::reset_peak_rss()?;
                sys::rss_mb()?
            }
            None => 0.0,
        };
        units.push(workloads::run_unit(inputs, tally, layers.as_deref_mut())?);
        if let Some(p) = peaks.as_deref_mut() {
            p.push(sys::peak_rss_mb()? - rss0);
        }
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(units);
        }
    }
}

/// The unit's simulated time, which must repeat bit-exactly on every unit
/// (a unit that differs counts as one failed operation).
fn repeated_sim_ms(units: &[Unit], tally: &mut Tally) -> f64 {
    let first = units[0].sim_ms;
    for (i, u) in units.iter().enumerate().skip(1) {
        let same = u.sim_ms.to_bits() == first.to_bits();
        if !same {
            eprintln!(
                "perfbench: unit {i} simulated {} ms, unit 0 {first} ms",
                u.sim_ms
            );
        }
        tally.record(same);
    }
    first
}

/// Median throughput over units, million edges (or updates) per second.
fn medges_per_s(units: &[Unit]) -> f64 {
    let rates: Vec<f64> = units.iter().map(|u| u.edges / u.host_s / 1e6).collect();
    median(&rates)
}

fn untraced(a: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        // drop the previous inputs first: a set-up never holds two input sets
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(workloads::setup(
            a.workload,
            a.seed,
            &mut SetupLayers::default(),
        ));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    check_setup(&inputs, tally);
    // Each unit's peak is its RSS high-water growth over a trimmed heap.
    // The absolute RSS is bimodal: where the allocator happened to place the
    // set-up's live data moves it by 16 MB between processes of one seed.
    let mut peaks = Vec::new();
    let units = run_for(a.seconds, &inputs, tally, None, Some(&mut peaks))?;
    m.set("setup_s", median(&setup_s));
    m.set("sim_ms", repeated_sim_ms(&units, tally));
    m.set("peak_rss_mb", median(&peaks));
    let list = |xs: &mut dyn Iterator<Item = f64>| {
        xs.map(|x| format!("{x:.3}")).collect::<Vec<_>>().join(" ")
    };
    eprintln!(
        "perfbench: set-ups {} s; {} units: Medges/s {}; peak growth MB {}",
        list(&mut setup_s.iter().copied()),
        units.len(),
        list(&mut units.iter().map(|u| u.edges / u.host_s / 1e6)),
        list(&mut peaks.iter().copied()),
    );
    Ok(m)
}

/// Records dynamic-churn's set-up checks, one operation each.
fn check_setup(inputs: &Inputs, tally: &mut Tally) {
    if let Inputs::Dynamic(d) = inputs {
        for &(what, ok) in &d.setup_checks {
            if !ok {
                eprintln!("perfbench: set-up check failed: {what}");
            }
            tally.record(ok);
        }
    }
}

fn traced(a: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let mut setup_layers = SetupLayers::default();
    let inputs = workloads::setup(a.workload, a.seed, &mut setup_layers);
    setup_layers.report(&mut m);
    check_setup(&inputs, tally);

    // Half the time untraced (the baseline for the overhead and the clean
    // call latencies), half traced.
    let cpu0 = sys::cpu_times_s()?;
    let plain = run_for(a.seconds / 2.0, &inputs, tally, None, None)?;
    let cpu1 = sys::cpu_times_s()?;
    let mut layers = LayerSums::default();
    let traced = run_for(a.seconds / 2.0, &inputs, tally, Some(&mut layers), None)?;
    let per_unit = |x: f64| x / layers.units.max(1) as f64;
    let n_plain = plain.len() as f64;
    m.set("proc.user_s", (cpu1.0 - cpu0.0) / n_plain);
    m.set("proc.sys_s", (cpu1.1 - cpu0.1) / n_plain);
    m.set("medges_per_s", medges_per_s(&plain));
    let unit_s = |us: &[Unit]| median(&us.iter().map(|u| u.host_s).collect::<Vec<_>>());
    m.set(
        "trace_overhead_frac",
        unit_s(&traced) / unit_s(&plain) - 1.0,
    );

    let bucket_names = [
        "gpusim.dispatch_ms",
        "gpusim.plan_parallel_ms",
        "gpusim.commit_serial_ms",
        "gpusim.arena_ms",
        "gpusim.scheduler_wait_ms",
        "gpusim.transfer_ms",
        "gpusim.fused_step_ms",
        "gpusim.unattributed_ms",
    ];
    for (name, s) in bucket_names.iter().zip(layers.buckets_s) {
        m.set(name, per_unit(s) * 1e3);
    }
    m.set("gpusim.launches", per_unit(layers.launches as f64));
    if layers.launches > 0 {
        m.set(
            "gpusim.host_us_per_launch",
            layers.host_s / layers.launches as f64 * 1e6,
        );
    }

    match &inputs {
        Inputs::Static(ins) => {
            for (i, input) in ins.iter().enumerate() {
                let calls: Vec<f64> = plain.iter().map(|u| u.calls_s[i] * 1e3).collect();
                m.set(&format!("peel.call_ms.{}", input.name), median(&calls));
            }
            for (metric, phase) in [
                ("peel.sim.setup_ms", "Setup"),
                ("peel.sim.scan_ms", "Scan"),
                ("peel.sim.loop_ms", "Loop"),
                ("peel.sim.sync_ms", "Sync"),
                ("peel.sim.result_ms", "Result"),
            ] {
                m.set(metric, per_unit(layers.phase(phase)));
            }
            m.set(
                "peel.global_atomics",
                per_unit(layers.global_atomics as f64),
            );
            m.set(
                "peel.global_sectors",
                per_unit(layers.global_sectors as f64),
            );
        }
        Inputs::Dynamic(_) => {
            let batches: Vec<f64> = plain
                .iter()
                .flat_map(|u| u.calls_s.iter().map(|s| s * 1e3))
                .collect();
            m.set("dynamic.batch_samples", batches.len() as f64);
            m.set(
                "dynamic.batch_ms_p50",
                percentile(&batches, 0.5).ok_or("too few batches for p50")?,
            );
            m.set(
                "dynamic.batch_ms_p90",
                percentile(&batches, 0.9).ok_or("too few batches for p90")?,
            );
            m.set("dynamic.updates_per_s", medges_per_s(&plain) * 1e6);
            for (metric, phase) in [
                ("dynamic.sim.classify_ms", "DynClassify"),
                ("dynamic.sim.struct_ms", "DynStruct"),
                ("dynamic.sim.subcore_ms", "DynSubcore"),
                ("dynamic.sim.cascade_ms", "DynCascade"),
                ("dynamic.sim.commit_ms", "DynCommit"),
                ("dynamic.sim.support_ms", "DynSupport"),
                ("dynamic.sim.prune_ms", "DynPrune"),
                ("dynamic.sim.sync_ms", "DynSync"),
            ] {
                m.set(metric, per_unit(layers.phase(phase)));
            }
            let names = [
                "dynamic.candidates",
                "dynamic.changed",
                "dynamic.pruned_inserts",
                "dynamic.rejected",
                "dynamic.rebuilds",
                "dynamic.repeeled_batches",
            ];
            for (name, c) in names.iter().zip(layers.dyn_counts) {
                m.set(name, per_unit(c as f64));
            }
            let (cand, changed) = (layers.dyn_counts[0], layers.dyn_counts[1]);
            if cand > 0 {
                m.set(
                    "dynamic.changed_per_candidate",
                    changed as f64 / cand as f64,
                );
            }
        }
        Inputs::Sharded(input) => {
            let extras = workloads::sharded_extras(input, tally)?;
            m.set("graph.partition_ms", extras.partition_s * 1e3);
            let calls: Vec<f64> = plain.iter().map(|u| u.host_s * 1e3).collect();
            m.set("multi_gpu.call_ms", median(&calls));
            let obs = layers.multi.ok_or("no traced sharded call succeeded")?;
            m.set("multi_gpu.sub_rounds", obs.sub_rounds as f64);
            m.set("multi_gpu.exchange_rounds", obs.exchange_rounds as f64);
            m.set("multi_gpu.border_packets", obs.border_packets as f64);
            m.set("multi_gpu.exchanged_bytes", obs.exchanged_bytes as f64);
            m.set(
                "multi_gpu.max_device_peak_mb",
                obs.max_device_peak_bytes as f64 / (1u64 << 20) as f64,
            );
            for (name, s) in [
                "multi_gpu.share.compute",
                "multi_gpu.share.cascade",
                "multi_gpu.share.exchange",
                "multi_gpu.share.link",
            ]
            .iter()
            .zip(obs.shares)
            {
                m.set(name, s);
            }
            m.set(
                "multi_gpu.speedup_vs_single",
                extras.single_ms / obs.total_ms,
            );
            m.set("multi_gpu.p1_over_single", extras.p1_ms / extras.single_ms);
        }
    }
    eprintln!(
        "perfbench: {} untraced + {} traced units",
        plain.len(),
        traced.len()
    );
    Ok(m)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--list") {
        list();
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    println!("{}", fingerprint(&args));
    let mut tally = Tally::default();
    let (measured, defs, require_all) = if args.trace {
        (traced(&args, &mut tally), PER_LAYER, false)
    } else {
        (untraced(&args, &mut tally), END_TO_END, true)
    };
    // A broken conservation law or a failed measurement ends the run
    // without a result.
    let line = measured.and_then(|m| m.result_line(defs, require_all, tally));
    match line {
        Ok(line) => {
            println!("{line}");
            if tally.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
