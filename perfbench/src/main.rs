//! The repo benchmark. Run from the repository root:
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload wire-tiny --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (and writes the run's spans as Chrome trace-event JSON under
//! `perfbench/out/`). The last stdout line is the result object; progress
//! and health reports go to stderr. See `perfbench/README.md`.

mod gen;
mod inproc;
mod load;
mod probes;
mod report;
mod suite;
mod trace;
mod util;
mod wire;

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;

use report::{result_json, Metrics, Tally};
use wire::Kind;

pub const WORKLOADS: [&str; 4] = ["wire-tiny", "wire-churn", "wire-heavy", "lib-suite"];

/// End-to-end metrics, every workload, `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("goodput_rps", "1/s"),
    ("p50_us", "us"),
    ("p50_us_hi", "us"),
    ("knee_rps", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, every workload, `--trace 1`; a layer the workload
/// does not reach reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("wire.parse_ns", "ns"),
        ("wire.overhead_us", "us"),
        ("shard.submit_ns_p50", "ns"),
        ("shard.submit_ns_p99", "ns"),
        ("placement.decide_ns", "ns"),
        ("placement.shed_ratio", "ratio"),
        ("placement.reject_ratio", "ratio"),
        ("placement.imbalance", "ratio"),
        ("cache.hit_ratio", "ratio"),
        ("cache.compiles", "count"),
        ("spec.compile_ns_p50", "ns"),
        ("spec.compile_ns_p99", "ns"),
        ("service.reject_ns", "ns"),
        ("admit.wait_p50_us", "us"),
        ("admit.wait_p99_us", "us"),
        ("admit.core_ns", "ns"),
        ("service.backpressure_waits", "count"),
        ("handle.wake_ns", "ns"),
        ("pool.steal_ratio", "ratio"),
        ("pool.steals", "count"),
        ("injector.pushes", "count"),
        ("injector.pops", "count"),
        ("injector.full_waits", "count"),
        ("core.tasks", "count"),
        ("core.supersteps", "count"),
        ("core.merges", "count"),
        ("core.steals", "count"),
        ("core.block_fill", "ratio"),
        ("simd.lane_occupancy", "ratio"),
        ("simd.utilization", "ratio"),
        ("obs.trace_overhead", "ratio"),
        ("trace.conservation_gap_ns", "ns"),
        ("span.queue.self_us", "us"),
        ("span.parse.self_us", "us"),
        ("span.tenant.self_us", "us"),
        ("span.submit.self_us", "us"),
        ("span.wait.self_us", "us"),
        ("span.render.self_us", "us"),
        ("span.request.self_us", "us"),
        ("open.p50_us", "us"),
        ("open.p99_us", "us"),
        ("open.p50_us_hi", "us"),
        ("open.p99_us_hi", "us"),
        ("open.knee_rps", "1/s"),
        ("open.samples", "count"),
        ("gen.lag_p50_us", "us"),
        ("gen.lag_p99_us", "us"),
        ("gen.nproc", "count"),
        ("gen.loadavg1", "load"),
        ("p99_us", "us"),
        ("p99_us_hi", "us"),
        ("samples.p99", "count"),
        ("fail_ratio", "ratio"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for program in suite::PROGRAMS {
        for (_, kind) in suite::KINDS {
            v.push((format!("core.run_ms.{program}.{kind}"), "ms"));
        }
    }
    for (program, _, _) in gen::heavy_menu() {
        for tier in ["scalar", "simd"] {
            v.push((format!("tier.run_ms.{program}.{tier}"), "ms"));
        }
    }
    v
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => seconds = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (one of {WORKLOADS:?})"));
    }
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} out of range (0, 60]"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn wire_kind(workload: &str) -> Option<Kind> {
    match workload {
        "wire-tiny" => Some(Kind::Tiny),
        "wire-churn" => Some(Kind::Churn),
        "wire-heavy" => Some(Kind::Heavy),
        _ => None,
    }
}

fn run(args: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    if !args.trace {
        let m = match wire_kind(&args.workload) {
            Some(kind) => wire::run(kind, args.seed, args.seconds, tally)?,
            None => suite::run(args.seed, args.seconds, tally)?,
        };
        // Report in the fixed order, and insist every metric is there.
        let mut out = Metrics::default();
        for (name, unit) in END_TO_END {
            let &(_, v, u) =
                m.0.iter().find(|(n, _, _)| n == name).ok_or(format!("metric {name} missing"))?;
            debug_assert_eq!(u, unit);
            out.put(name, v, unit);
        }
        return Ok(out);
    }
    let mut layers: HashMap<String, f64> = HashMap::new();
    let spans = match wire_kind(&args.workload) {
        Some(kind) => wire::run_traced(kind, args.seed, args.seconds, tally, &mut layers)?,
        None => suite::run_traced(args.seed, args.seconds, tally, &mut layers)?,
    };
    layers.insert("gen.nproc".into(), util::nproc() as f64);
    layers.insert("gen.loadavg1".into(), util::loadavg1());
    layers.insert("fail_ratio".into(), (tally.failed + tally.wrong) as f64 / tally.attempted.max(1) as f64);
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/{}-seed{}.trace.json", args.workload, args.seed);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace::chrome_json(&spans)))
        .map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("perfbench: {} spans written to {path}", spans.len());
    let names = per_layer();
    for k in layers.keys() {
        if !names.iter().any(|(n, _)| n == k) {
            return Err(format!("layer metric {k} is not in the per-layer list"));
        }
    }
    let mut out = Metrics::default();
    for (name, unit) in names {
        let v = layers.get(&name).copied().unwrap_or(0.0);
        out.put(name, v, unit);
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // A wedged server must not hang the caller: give up well inside the
    // 180 s a run may take. Detached on purpose: it only ever ends the
    // process.
    let limit = Duration::from_secs_f64(args.seconds * 2.0 + 60.0).min(Duration::from_secs(170));
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: watchdog: run exceeded {limit:?}, aborting");
        std::process::exit(4);
    });
    // Fix the CPU count (the pools' and shards' sizes, the client count)
    // before pinning narrows what the process sees; see `pin_to_one_cpu`.
    util::nproc();
    if !load::pin_to_one_cpu() {
        eprintln!("perfbench: could not pin the process to one CPU");
        return ExitCode::from(3);
    }
    let mut tally = Tally::default();
    match run(&args, &mut tally) {
        Ok(metrics) => {
            let correct = tally.wrong == 0;
            eprintln!(
                "perfbench: {} attempted={} correct={} failed={} wrong={}",
                args.workload, tally.attempted, tally.correct, tally.failed, tally.wrong
            );
            println!("{}", result_json(correct, &tally, &metrics));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(3)
        }
    }
}
