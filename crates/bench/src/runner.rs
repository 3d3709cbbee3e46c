//! Shared command-line handling for the table experiment binaries.
//!
//! `table1` and `table2` accept the same resource-bound and resumption
//! knobs, mirroring the paper's per-check bound (20 minutes of CPU /
//! 800 MB of memory, §6):
//!
//! ```text
//! --timeout <secs>     wall-clock deadline per field check
//! --max-steps <n>      step budget per field check
//! --max-states <n>     state budget per field check
//! --mem-limit <mb>     approximate memory cap per field check
//! --retries <n>        escalating retries for inconclusive checks
//! --jobs <n>           worker threads for field checks (default: all cores)
//! --journal <path>     journal completed (driver, field) checks here
//! --resume             reuse the journal from a killed run
//! --trace-out <path>   write a JSONL event trace of the whole run
//! --metrics <path>     write the aggregated run report as JSON
//! --progress           render a throttled heartbeat on stderr
//! ```
//!
//! `--resume` without `--journal` uses the binary's default journal
//! path. `--journal` without `--resume` starts fresh, truncating any
//! stale journal at that path first so old outcomes cannot leak into a
//! new run. With both `--journal` and `--metrics`, each session's
//! report is appended to the journal and the metrics file holds the
//! *merged* report, so a `--resume`d run reports whole-corpus totals.

use std::time::Duration;

use kiss_core::sigint::install_sigint_cancel;
use kiss_core::supervisor::Supervisor;
use kiss_drivers::table::default_budget;
use kiss_drivers::Journal;
use kiss_obs::{Aggregator, Event, Heartbeat, JsonlSink, Obs, Observer, RunReport};
use kiss_seq::{Budget, CancelToken};

/// Parsed experiment options.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Per-field base budget after all flags are applied.
    pub budget: Budget,
    /// Escalating retries for inconclusive checks (0 = off).
    pub retries: u32,
    /// Worker threads for field checks (1 = serial).
    pub jobs: usize,
    /// Journal path, if journaling was requested.
    pub journal: Option<String>,
    /// Whether to reuse an existing journal instead of truncating it.
    pub resume: bool,
    /// JSONL event-trace path, if requested.
    pub trace_out: Option<String>,
    /// Run-report path, if requested.
    pub metrics: Option<String>,
    /// Whether to render a heartbeat on stderr.
    pub progress: bool,
}

impl RunOptions {
    /// Parses `args` (without the program name). `default_journal` is
    /// the path `--resume` uses when `--journal` is absent. Returns a
    /// usage message on malformed input.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        default_journal: &str,
    ) -> Result<RunOptions, String> {
        let mut budget = default_budget();
        let mut retries = 0u32;
        let mut jobs = default_jobs();
        let mut journal: Option<String> = None;
        let mut resume = false;
        let mut trace_out: Option<String> = None;
        let mut metrics: Option<String> = None;
        let mut progress = false;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--timeout" => {
                    let secs: u64 = parse_value(&arg, args.next())?;
                    budget = budget.with_deadline(Duration::from_secs(secs));
                }
                "--max-steps" => budget.max_steps = parse_value(&arg, args.next())?,
                "--max-states" => budget.max_states = parse_value(&arg, args.next())?,
                "--mem-limit" => {
                    let mb: usize = parse_value(&arg, args.next())?;
                    budget = budget.with_mem_limit(mb.saturating_mul(1 << 20));
                }
                "--retries" => retries = parse_value(&arg, args.next())?,
                "--jobs" => {
                    jobs = parse_value(&arg, args.next())?;
                    if jobs == 0 {
                        return Err(format!("--jobs needs at least 1\n{USAGE}"));
                    }
                }
                "--journal" => {
                    journal =
                        Some(args.next().ok_or_else(|| format!("{arg} needs a path"))?)
                }
                "--resume" => resume = true,
                "--trace-out" => {
                    trace_out =
                        Some(args.next().ok_or_else(|| format!("{arg} needs a path"))?)
                }
                "--metrics" => {
                    metrics =
                        Some(args.next().ok_or_else(|| format!("{arg} needs a path"))?)
                }
                "--progress" => progress = true,
                other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
            }
        }
        if resume && journal.is_none() {
            journal = Some(default_journal.to_string());
        }
        Ok(RunOptions {
            budget,
            retries,
            jobs,
            journal,
            resume,
            trace_out,
            metrics,
            progress,
        })
    }

    /// Builds the supervisor these options describe: SIGINT is wired to
    /// its cancellation token (so ^C finishes the current field check,
    /// then winds down through the journal/report paths) and `obs`
    /// receives the per-check lifecycle events.
    pub fn supervisor(&self, obs: Obs) -> Supervisor {
        let cancel = CancelToken::new();
        install_sigint_cancel(cancel.clone());
        Supervisor::new(self.budget)
            .with_retries(self.retries)
            .with_cancel(cancel)
            .with_observer(obs)
    }

    /// Builds the observer pipeline these options describe. Returns
    /// `Obs::off()` (engine hooks compile to no-ops) when no
    /// observability flag was given; otherwise an [`Aggregator`] always
    /// rides along so the run can be summarised.
    pub fn build_obs(&self) -> std::io::Result<(Obs, Option<Aggregator>)> {
        if self.trace_out.is_none() && self.metrics.is_none() && !self.progress {
            return Ok((Obs::off(), None));
        }
        let mut sinks: Vec<Box<dyn Observer>> = Vec::new();
        if let Some(path) = &self.trace_out {
            sinks.push(Box::new(JsonlSink::create(path)?));
        }
        let agg = Aggregator::new();
        sinks.push(Box::new(agg.clone()));
        if self.progress {
            sinks.push(Box::new(Heartbeat::stderr()));
        }
        Ok((Obs::multi(sinks), Some(agg)))
    }

    /// Finishes an observed run: merges this session's report with any
    /// earlier sessions stored in the journal, appends this session's
    /// report to the journal (cancelled checks are excluded, so a
    /// `--resume`d run counts them exactly once), writes the merged
    /// report to `--metrics`, and emits the final `RunSummary` event.
    /// Returns the merged report, or `None` when observability is off.
    pub fn finish_observed(
        &self,
        obs: &Obs,
        agg: Option<&Aggregator>,
        journal: Option<&mut Journal>,
    ) -> std::io::Result<Option<RunReport>> {
        let Some(agg) = agg else { return Ok(None) };
        let session = agg.resumable_report();
        let merged = match &journal {
            Some(j) => j.merged_report(&session),
            None => session.clone(),
        };
        if let Some(j) = journal {
            j.record_report(&session)?;
        }
        if let Some(path) = &self.metrics {
            std::fs::write(path, format!("{}\n", merged.to_json()))?;
        }
        obs.emit(|_| Event::RunSummary { report: merged.clone() });
        Ok(Some(merged))
    }

    /// Opens the journal these options describe, truncating a stale one
    /// unless `--resume` asked to keep it. `None` when journaling is
    /// off.
    pub fn open_journal(&self) -> std::io::Result<Option<Journal>> {
        let Some(path) = &self.journal else { return Ok(None) };
        if !self.resume && std::path::Path::new(path).exists() {
            std::fs::remove_file(path)?;
        }
        let journal = Journal::open(path)?;
        if self.resume && !journal.is_empty() {
            eprintln!("resuming: {} completed field checks found in {path}", journal.len());
        }
        Ok(Some(journal))
    }
}

const USAGE: &str = "options: --timeout <secs> --max-steps <n> --max-states <n> \
                     --mem-limit <mb> --retries <n> --jobs <n> --journal <path> \
                     --resume --trace-out <path> --metrics <path> --progress";

/// The default for `--jobs`: every available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
    value.parse().map_err(|_| format!("{flag}: cannot parse `{value}`\n{USAGE}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunOptions, String> {
        RunOptions::parse(args.iter().map(|s| s.to_string()), "default.journal")
    }

    #[test]
    fn defaults_match_the_experiment_budget() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts.budget, default_budget());
        assert_eq!(opts.retries, 0);
        assert!(opts.journal.is_none());
        assert!(!opts.resume);
    }

    #[test]
    fn flags_shape_the_budget() {
        let opts = parse(&[
            "--timeout", "1200", "--max-steps", "42", "--max-states", "7", "--mem-limit", "800",
            "--retries", "3",
        ])
        .unwrap();
        assert_eq!(opts.budget.max_wall, Some(Duration::from_secs(1200)));
        assert_eq!(opts.budget.max_steps, 42);
        assert_eq!(opts.budget.max_states, 7);
        assert_eq!(opts.budget.max_mem_bytes, Some(800 << 20));
        assert_eq!(opts.retries, 3);
    }

    #[test]
    fn resume_defaults_the_journal_path() {
        let opts = parse(&["--resume"]).unwrap();
        assert_eq!(opts.journal.as_deref(), Some("default.journal"));
        assert!(opts.resume);
        let opts = parse(&["--resume", "--journal", "mine.log"]).unwrap();
        assert_eq!(opts.journal.as_deref(), Some("mine.log"));
    }

    #[test]
    fn observability_flags_parse_and_default_off() {
        let off = parse(&[]).unwrap();
        assert!(off.trace_out.is_none() && off.metrics.is_none() && !off.progress);
        let (obs, agg) = off.build_obs().unwrap();
        assert!(!obs.is_enabled() && agg.is_none());

        let on = parse(&["--trace-out", "t.jsonl", "--metrics", "m.json", "--progress"]).unwrap();
        assert_eq!(on.trace_out.as_deref(), Some("t.jsonl"));
        assert_eq!(on.metrics.as_deref(), Some("m.json"));
        assert!(on.progress);
    }

    #[test]
    fn malformed_input_is_a_usage_error() {
        assert!(parse(&["--timeout"]).is_err());
        assert!(parse(&["--max-steps", "many"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn jobs_defaults_to_available_parallelism_and_rejects_zero() {
        assert_eq!(parse(&[]).unwrap().jobs, default_jobs());
        assert!(default_jobs() >= 1);
        assert_eq!(parse(&["--jobs", "4"]).unwrap().jobs, 4);
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--jobs", "several"]).is_err());
    }

    #[test]
    fn fresh_journal_truncates_stale_records() {
        let mut path = std::env::temp_dir();
        path.push(format!("kiss-runner-test-{}.log", std::process::id()));
        let path_str = path.to_str().unwrap().to_string();
        std::fs::write(&path, "v1\tdrv\t0\trace\n").unwrap();

        let stale = RunOptions::parse(
            ["--resume".to_string(), "--journal".to_string(), path_str.clone()],
            "unused",
        )
        .unwrap();
        assert_eq!(stale.open_journal().unwrap().unwrap().len(), 1);

        let fresh =
            RunOptions::parse(["--journal".to_string(), path_str], "unused").unwrap();
        assert_eq!(fresh.open_journal().unwrap().unwrap().len(), 0);
        std::fs::remove_file(&path).unwrap();
    }
}
