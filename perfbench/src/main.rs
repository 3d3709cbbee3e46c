//! End-to-end and per-layer benchmark of the KISS checker and its
//! daemon. See README.md in this directory for the metrics, the
//! workloads and why each was chosen.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-warm|serve-cold> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. The exit code is 0 only when every answer matched its
//! reference.

mod explore;
mod gen;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use stats::{metric, Metric, Phase};

const USAGE: &str = "usage: perfbench --workload <serve-warm|serve-cold> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Where runs keep their scratch files, relative to the repository root.
const OUT_DIR: &str = "perfbench/out";

pub struct RunCfg {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Scratch directory of this run (sockets, journals); removed at exit.
    pub run_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub spans_path: PathBuf,
}

/// What a workload measured.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub phase: Phase,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Anything that makes the run incorrect beyond a counted mismatch:
    /// a failed set-up check, a lost connection, a replay that disagrees
    /// with the timed run.
    pub problems: Vec<String>,
}

/// Serve-layer metrics.
pub struct ServeLayers {
    pub decode_ms: f64,
    pub cache_key_ms: f64,
    pub encode_ms: f64,
    pub frame_kb: f64,
    pub lookup_us: f64,
    pub insert_us: f64,
    pub hit_ratio: f64,
    pub shard_contended_ratio: f64,
    pub journal_bytes_per_entry: f64,
    pub overhead_p50_ms: f64,
    pub overhead_p90_ms: f64,
    pub queue_peak: f64,
    pub shed: f64,
}

/// Every per-layer metric, in one order for every workload. The parallel
/// leg's two read 0 until serve-cold's explore leg overlays them.
pub fn per_layer(common: Vec<Metric>, serve: &ServeLayers, overhead_pct: f64) -> Vec<Metric> {
    let mut all = common;
    all.extend([
        metric("serve.decode_ms", "ms", serve.decode_ms),
        metric("serve.cache_key_ms", "ms", serve.cache_key_ms),
        metric("serve.encode_ms", "ms", serve.encode_ms),
        metric("serve.frame_kb", "KB", serve.frame_kb),
        metric("serve.lookup_us", "us", serve.lookup_us),
        metric("serve.insert_us", "us", serve.insert_us),
        metric("serve.hit_ratio", "ratio", serve.hit_ratio),
        metric(
            "serve.shard_contended_ratio",
            "ratio",
            serve.shard_contended_ratio,
        ),
        metric(
            "serve.journal_bytes_per_entry",
            "B",
            serve.journal_bytes_per_entry,
        ),
        metric("serve.overhead_p50_ms", "ms", serve.overhead_p50_ms),
        metric("serve.overhead_p90_ms", "ms", serve.overhead_p90_ms),
        metric("serve.queue_peak", "count", serve.queue_peak),
        metric("serve.shed", "count", serve.shed),
        metric("seq.spec_ratio", "ratio", 0.0),
        metric("seq.par_wall_ratio", "ratio", 0.0),
        metric("trace.overhead_pct", "%", overhead_pct),
    ]);
    all
}

/// Replaces the values of `layers` that `from` measures too.
pub fn overlay(layers: &mut [Metric], from: Vec<Metric>) {
    for m in from {
        if let Some(slot) = layers.iter_mut().find(|l| l.name == m.name) {
            slot.value = m.value;
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&RunCfg) -> std::io::Result<Outcome> = match args.workload.as_str() {
        "serve-warm" => serve::serve_warm,
        "serve-cold" => serve::serve_cold,
        other => {
            eprintln!("perfbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = Path::new(OUT_DIR);
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        run_dir: out.join(format!("{}-{}", args.workload, std::process::id())),
        spans_path: out.join(format!("spans-{}.jsonl", args.workload)),
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.run_dir) {
        eprintln!(
            "perfbench: cannot create {} (run from the repository root): {e}",
            cfg.run_dir.display()
        );
        return ExitCode::FAILURE;
    }
    let result = run(&cfg);
    let _ = std::fs::remove_dir_all(&cfg.run_dir);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let tally = outcome.phase.tally;
    let windows = &outcome.phase.windows;
    let fewest = windows
        .iter()
        .map(|w| w.latencies_ms.len())
        .min()
        .unwrap_or(0);
    println!(
        "{} seed {}: {} ops in {} windows of {:.3} s in all (the smallest holds {fewest} ops, \
         so its p90 has {} samples beyond it); {} set-ups; {} failed ({} verdict mismatches)",
        args.workload,
        args.seed,
        outcome.phase.ops(),
        windows.len(),
        windows.iter().map(|w| w.wall_s).sum::<f64>(),
        fewest / 10,
        outcome.setup_s.len(),
        tally.failed,
        tally.mismatched
    );
    let rates: Vec<String> = windows
        .iter()
        .map(|w| format!("{:.1}", w.latencies_ms.len() as f64 / w.wall_s))
        .collect();
    println!("ops/s per window: {}", rates.join(" "));
    let setups: Vec<String> = outcome
        .setup_s
        .iter()
        .map(|s| format!("{:.2}", s * 1e3))
        .collect();
    println!("set-ups in ms: {}", setups.join(" "));
    let metrics = if args.trace {
        outcome.layers
    } else {
        stats::end_to_end(&outcome.setup_s, &outcome.phase)
    };
    for m in &metrics {
        println!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for p in &outcome.problems {
        println!("problem: {p}");
    }
    let correct = tally.mismatched == 0 && outcome.problems.is_empty();
    println!("{}", stats::result_json(correct, &tally, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
