//! Append-only journal of per-field check outcomes.
//!
//! A full corpus run is hundreds of supervised checks; if the process
//! is killed halfway (machine reclaimed, ^C, OOM), re-running from
//! scratch wastes everything already computed. `table1`/`table2` (and
//! any caller of
//! [`crate::table::check_corpus_supervised`]) append one line per
//! completed `(driver, field)` pair; `--resume` replays the journal and
//! skips those pairs.
//!
//! The format is a deliberately trivial line-oriented text format —
//! one record per line, tab-separated, versioned:
//!
//! ```text
//! v1\t<driver>\t<field-index>\t<outcome>
//! ```
//!
//! where `<outcome>` is `race`, `norace`, `inconclusive:<reason>`,
//! `crashed:<cause>`, or `failed:<cause>`. Causes have control
//! characters replaced by spaces so they stay single-line. A torn final
//! line (the process died mid-write) is ignored on load, as is any
//! line that fails to parse: a journal can only *under*-report
//! completed work, never corrupt a resumed run.
//!
//! A second record type carries observability state across sessions:
//!
//! ```text
//! v1report\t<RunReport as one-line JSON>
//! ```
//!
//! Each session of a corpus run appends the
//! [`RunReport`] covering the checks *it* performed;
//! a resumed run merges the stored reports with its own so the final
//! metrics match an uninterrupted run. Parsers that only know `v1`
//! skip these lines (the tag differs), and vice versa.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

use kiss_obs::RunReport;
use kiss_seq::BoundReason;

use crate::table::FieldOutcome;

/// A resumable record of completed per-field checks.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    completed: HashMap<(String, usize), FieldOutcome>,
    reports: Vec<RunReport>,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path` and loads every
    /// well-formed record already in it.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        let mut completed = HashMap::new();
        let mut reports = Vec::new();
        if path.exists() {
            let reader = BufReader::new(File::open(&path)?);
            for line in reader.lines() {
                let line = line?;
                if let Some(json) = line.strip_prefix("v1report\t") {
                    // A malformed report line is dropped like any other
                    // garbage: metrics under-report, results stay intact.
                    reports.extend(RunReport::from_json(json));
                } else if let Some(((driver, field), outcome)) = parse_line(&line) {
                    completed.insert((driver, field), outcome);
                }
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Journal { path, file, completed, reports })
    }

    /// The journal's location on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of completed `(driver, field)` records loaded or written.
    pub fn len(&self) -> usize {
        self.completed.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.completed.is_empty()
    }

    /// The recorded outcome for a `(driver, field)` pair, if any.
    pub fn lookup(&self, driver: &str, field: usize) -> Option<FieldOutcome> {
        self.completed.get(&(driver.to_string(), field)).cloned()
    }

    /// Appends a record and flushes it to disk immediately, so a kill
    /// right after a slow check loses at most the in-flight field.
    pub fn record(
        &mut self,
        driver: &str,
        field: usize,
        outcome: &FieldOutcome,
    ) -> std::io::Result<()> {
        writeln!(
            self.file,
            "v1\t{}\t{}\t{}",
            sanitize(driver),
            field,
            encode_outcome(outcome)
        )?;
        self.file.flush()?;
        self.completed.insert((driver.to_string(), field), outcome.clone());
        Ok(())
    }

    /// Appends one session's [`RunReport`] and flushes it, so a
    /// `--resume` of a later session can account for this session's
    /// checks in its merged metrics.
    pub fn record_report(&mut self, report: &RunReport) -> std::io::Result<()> {
        writeln!(self.file, "v1report\t{}", report.to_json())?;
        self.file.flush()?;
        self.reports.push(report.clone());
        Ok(())
    }

    /// The per-session reports loaded from (or written to) the journal,
    /// in order.
    pub fn reports(&self) -> &[RunReport] {
        &self.reports
    }

    /// All stored reports merged with `current` — the metrics of the
    /// whole (possibly multi-session) run. Only reports loaded at
    /// [`Journal::open`] are merged, so record `current` *after*
    /// asking for the merge.
    pub fn merged_report(&self, current: &RunReport) -> RunReport {
        let mut merged = RunReport::default();
        for r in &self.reports {
            merged.merge(r);
        }
        merged.merge(current);
        merged
    }
}

/// Replaces tabs, newlines, and other control characters so arbitrary
/// causes cannot break the line format.
fn sanitize(s: &str) -> String {
    s.chars().map(|c| if c.is_control() || c == '\t' { ' ' } else { c }).collect()
}

fn encode_outcome(outcome: &FieldOutcome) -> String {
    match outcome {
        FieldOutcome::Race => "race".to_string(),
        FieldOutcome::NoRace => "norace".to_string(),
        FieldOutcome::Inconclusive(reason) => format!("inconclusive:{}", reason.as_str()),
        FieldOutcome::Crashed { cause } => format!("crashed:{}", sanitize(cause)),
        FieldOutcome::Failed { cause } => format!("failed:{}", sanitize(cause)),
    }
}

fn decode_outcome(s: &str) -> Option<FieldOutcome> {
    if s == "race" {
        return Some(FieldOutcome::Race);
    }
    if s == "norace" {
        return Some(FieldOutcome::NoRace);
    }
    if let Some(reason) = s.strip_prefix("inconclusive:") {
        return BoundReason::parse(reason).map(FieldOutcome::Inconclusive);
    }
    if let Some(cause) = s.strip_prefix("crashed:") {
        return Some(FieldOutcome::Crashed { cause: cause.to_string() });
    }
    if let Some(cause) = s.strip_prefix("failed:") {
        return Some(FieldOutcome::Failed { cause: cause.to_string() });
    }
    None
}

fn parse_line(line: &str) -> Option<((String, usize), FieldOutcome)> {
    let mut parts = line.splitn(4, '\t');
    if parts.next()? != "v1" {
        return None;
    }
    let driver = parts.next()?.to_string();
    let field: usize = parts.next()?.parse().ok()?;
    let outcome = decode_outcome(parts.next()?)?;
    Some(((driver, field), outcome))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("kiss-journal-test-{}-{name}.log", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn all_outcomes() -> Vec<FieldOutcome> {
        vec![
            FieldOutcome::Race,
            FieldOutcome::NoRace,
            FieldOutcome::Inconclusive(BoundReason::Steps),
            FieldOutcome::Inconclusive(BoundReason::Deadline),
            FieldOutcome::Crashed { cause: "index out of bounds: len 3".to_string() },
            FieldOutcome::Failed { cause: "race spec `x` did not resolve".to_string() },
        ]
    }

    #[test]
    fn outcomes_round_trip_through_reopen() {
        let path = tmp_path("roundtrip");
        {
            let mut j = Journal::open(&path).unwrap();
            for (i, o) in all_outcomes().iter().enumerate() {
                j.record("drv", i, o).unwrap();
            }
        }
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), all_outcomes().len());
        for (i, o) in all_outcomes().iter().enumerate() {
            assert_eq!(j.lookup("drv", i).as_ref(), Some(o), "field {i}");
        }
        assert_eq!(j.lookup("other", 0), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_and_garbage_lines_are_ignored() {
        let path = tmp_path("torn");
        std::fs::write(
            &path,
            "v1\tdrv\t0\trace\n\
             not a journal line\n\
             v0\tdrv\t1\tnorace\n\
             v1\tdrv\tnot-a-number\trace\n\
             v1\tdrv\t2\tinconclusive:bogus-reason\n\
             v1\tdrv\t3\tnora",
        )
        .unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(j.lookup("drv", 0), Some(FieldOutcome::Race));
        assert_eq!(j.lookup("drv", 3), None, "torn final line must not count");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn causes_with_control_characters_stay_single_line() {
        let path = tmp_path("sanitize");
        let nasty = FieldOutcome::Crashed { cause: "line1\nline2\ttabbed".to_string() };
        {
            let mut j = Journal::open(&path).unwrap();
            j.record("drv", 0, &nasty).unwrap();
            j.record("drv", 1, &FieldOutcome::Race).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "{text:?}");
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.lookup("drv", 0), Some(FieldOutcome::Crashed { cause: "line1 line2 tabbed".to_string() }));
        assert_eq!(j.lookup("drv", 1), Some(FieldOutcome::Race));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reports_round_trip_and_merge_across_reopen() {
        let path = tmp_path("reports");
        let mut session1 = RunReport::default();
        session1.observe(&kiss_obs::CheckMetrics {
            check: "drv/0".into(),
            engine: "explicit".into(),
            verdict: "pass".into(),
            steps: 100,
            states: 40,
            wall_ms: 3,
            ..kiss_obs::CheckMetrics::default()
        });
        {
            let mut j = Journal::open(&path).unwrap();
            j.record("drv", 0, &FieldOutcome::NoRace).unwrap();
            j.record_report(&session1).unwrap();
        }
        let j = Journal::open(&path).unwrap();
        // Report lines do not leak into field records, and vice versa.
        assert_eq!(j.len(), 1);
        assert_eq!(j.reports(), &[session1.clone()]);
        let mut session2 = RunReport::default();
        session2.observe(&kiss_obs::CheckMetrics {
            check: "drv/1".into(),
            engine: "explicit".into(),
            verdict: "race".into(),
            steps: 50,
            states: 20,
            wall_ms: 2,
            ..kiss_obs::CheckMetrics::default()
        });
        let merged = j.merged_report(&session2);
        assert_eq!(merged.checks, 2);
        assert_eq!(merged.outcomes["pass"], 1);
        assert_eq!(merged.outcomes["race"], 1);
        assert_eq!(merged.engines["explicit"].steps, 150);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn old_format_report_is_dropped_but_field_records_resume() {
        let path = tmp_path("old-report");
        // A report line from before the serving and robustness fields
        // existed: it no longer parses, so it is dropped like garbage.
        std::fs::write(
            &path,
            "v1\tdrv\t0\trace\n\
             v1report\t{\"checks\":2,\"retries\":0,\"outcomes\":{\"race\":1,\"pass\":1},\
             \"bound_reasons\":{},\"engines\":{\"explicit\":{\"checks\":2,\"steps\":7,\
             \"states\":3,\"wall_ms\":2}},\"wall_ms\":2,\"durations_ms\":[1,1]}\n\
             v1\tdrv\t1\tnorace\n\
             v1\tdrv\t2\tinconclusive:steps\n",
        )
        .unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 3);
        assert_eq!(j.lookup("drv", 0), Some(FieldOutcome::Race));
        assert_eq!(j.lookup("drv", 1), Some(FieldOutcome::NoRace));
        assert_eq!(
            j.lookup("drv", 2),
            Some(FieldOutcome::Inconclusive(BoundReason::Steps))
        );
        assert!(j.reports().is_empty(), "the old report must be dropped");
        assert_eq!(j.merged_report(&RunReport::default()), RunReport::default());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn later_records_override_earlier_ones() {
        let path = tmp_path("override");
        {
            let mut j = Journal::open(&path).unwrap();
            j.record("drv", 0, &FieldOutcome::Inconclusive(BoundReason::Steps)).unwrap();
            j.record("drv", 0, &FieldOutcome::Race).unwrap();
        }
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.lookup("drv", 0), Some(FieldOutcome::Race));
        std::fs::remove_file(&path).unwrap();
    }
}
