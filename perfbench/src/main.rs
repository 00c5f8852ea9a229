//! perfbench — end-to-end and per-layer benchmark of SilverVale.
//!
//! ```text
//! perfbench --workload <reproduce|figures|index|evaluate|serve_hot|all>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.  Untraced runs report
//! the end-to-end metrics; `--trace 1` reports the per-layer metrics.
//! Exits non-zero when any output check fails.  See `README.md`.

mod attrib;
mod evaluate;
mod harness;
mod host;
mod index;
mod reproduce;
mod serve_hot;
mod served;
mod stats;

use harness::{Config, Report};
use reproduce::Scope;
use std::process::ExitCode;

const WORKLOADS: [&str; 5] = ["reproduce", "figures", "index", "evaluate", "serve_hot"];

/// Every per-layer metric a traced run reports, with its unit.  Metrics
/// a workload does not exercise read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("svlang.compile_ms", "ms"),
    ("svlang.nodes_per_s", "1/s"),
    ("svlang.preprocess_ms", "ms"),
    ("svlang.lex_ms", "ms"),
    ("svlang.parse_ms", "ms"),
    ("svlang.normalise_ms", "ms"),
    ("svlang.inline_ms", "ms"),
    ("svir.lower_ms", "ms"),
    ("svir.ir_nodes", "count"),
    ("svtree.pack_ms", "ms"),
    ("svtree.unpack_ms", "ms"),
    ("svtree.pack_bytes", "bytes"),
    ("svexec.run_ms", "ms"),
    ("svexec.runs", "count"),
    ("svport.gen_ms", "ms"),
    ("svport.gate_pass_ratio", "ratio"),
    ("svport.unique_ratio", "ratio"),
    ("svdist.ted_ms", "ms"),
    ("svdist.dp_cells", "count"),
    ("svdist.cells_per_s", "1/s"),
    ("svdist.decompositions", "count"),
    ("svdist.lcs_ms", "ms"),
    ("svmetrics.matrix_ms", "ms"),
    ("svmetrics.pairs", "count"),
    ("svcluster.cluster_ms", "ms"),
    ("svperf.chart_ms", "ms"),
    ("svpar.core_busy_ratio", "ratio"),
    ("svserve.queue_wait_us_p50", "us"),
    ("svserve.queue_wait_us_p99", "us"),
    ("svserve.exec_us_p50", "us"),
    ("svserve.exec_us_p99", "us"),
    ("svserve.wire_us_p50", "us"),
    ("svserve.reply_bytes", "bytes"),
    ("svserve.cache_hit_ratio", "ratio"),
    ("svserve.dedup_ratio", "ratio"),
    ("svserve.pool_busy_ratio", "ratio"),
    ("svserve.exec_ms", "ms"),
    ("svserve.server_wire_ms", "ms"),
    ("svserve.client_wire_ms", "ms"),
    ("silvervale.index_ms", "ms"),
    ("bench.glue_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("traced_wall_ms", "ms"),
    ("svtrace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds needs a number")?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    Ok(args)
}

fn run_one(name: &str, cfg: &Config) -> Report {
    match name {
        "reproduce" => harness::run(&mut reproduce::Reproduce::new(Scope::All), cfg),
        "figures" => harness::run(&mut reproduce::Reproduce::new(Scope::Small), cfg),
        "index" => harness::run(&mut index::Index::new(cfg), cfg),
        "evaluate" => harness::run(&mut evaluate::Evaluate::new(cfg), cfg),
        "serve_hot" => harness::run(&mut serve_hot::ServeHot::new(cfg), cfg),
        _ => unreachable!("workload names are validated"),
    }
}

fn json_line(rep: &Report) -> String {
    let metrics: Vec<String> = rep
        .metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        rep.failed == 0,
        rep.attempted.max(1),
        rep.failed,
        metrics.join(",")
    )
}

/// `--workload all`: run each workload in its own child process (so
/// peak RSS and warm state stay per workload) and summarise.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in WORKLOADS {
        println!("==== {name}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                println!("{name}: exit {s}");
                ok = false;
            }
            Err(e) => {
                println!("{name}: cannot start: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <reproduce|figures|index|evaluate|serve_hot|all> [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let workdir = std::path::PathBuf::from(".perfbench_tmp").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&workdir) {
        eprintln!("perfbench: cannot create {}: {e}", workdir.display());
        return ExitCode::FAILURE;
    }
    // Services open their artifact stores in the temp directory; keep
    // them inside the working directory.
    match std::fs::canonicalize(&workdir) {
        Ok(abs) => std::env::set_var("TMPDIR", abs),
        Err(e) => {
            eprintln!("perfbench: cannot resolve {}: {e}", workdir.display());
            return ExitCode::FAILURE;
        }
    }
    let cfg = Config { seed: args.seed, seconds: args.seconds, trace: args.trace };
    println!(
        "workload: {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let rep = run_one(&args.workload, &cfg);
    let _ = std::fs::remove_dir_all(&workdir);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    // After the run: the bandwidth probe's arrays must not raise the
    // run's peak RSS, which the workload has already read.
    println!("host: {}", host::fingerprint());
    for n in &rep.notes {
        println!("{}", n.trim_end());
    }
    for (n, v, u) in &rep.metrics {
        println!("  {n:<28} {v:>16.6} {u}");
    }
    println!("ops attempted={} failed={}", rep.attempted, rep.failed);
    for f in &rep.failures {
        println!("FAILED: {f}");
    }
    println!("{}", json_line(&rep));
    if rep.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
