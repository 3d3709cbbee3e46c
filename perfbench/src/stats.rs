//! Percentiles, failure accounting, process counters, and the result
//! line.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it. It always
/// returns a measured sample, never an interpolation between two modes.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Why an op did not count as a success.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpResult {
    Ok,
    /// The program answered `error`, `overloaded` or `crashed`, or the
    /// exchange hit an I/O error or timeout.
    Failed,
    /// The program answered a verdict that differs from the reference.
    Mismatch,
}

/// Classifies one answer against its reference verdict.
pub fn classify(verdict: &str, expected: &str) -> OpResult {
    match verdict {
        "error" | "overloaded" | "crashed" => OpResult::Failed,
        v if v == expected => OpResult::Ok,
        _ => OpResult::Mismatch,
    }
}

/// Attempted and failed ops. A mismatch is a failure too, and also
/// makes the run incorrect.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub mismatched: u64,
}

impl Tally {
    pub fn record(&mut self, result: OpResult) {
        self.attempted += 1;
        match result {
            OpResult::Ok => {}
            OpResult::Failed => self.failed += 1,
            OpResult::Mismatch => {
                self.failed += 1;
                self.mismatched += 1;
            }
        }
    }

    pub fn fail_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// Process CPU time (all threads, user + system) in milliseconds, from
/// `/proc/self/stat`. The kernel reports it in USER_HZ ticks, which
/// Linux fixes at 100 per second for this file.
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields resume after its `)`.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // utime and stime are fields 14 and 15 of the file, 12 and 13 here.
    (ticks(11) + ticks(12)) as f64 * 10.0
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restarts the peak-RSS count from the current resident set, so that
/// `peak_rss_mb` leaves out the transient peak of generating inputs
/// (the whole driver corpus is ~20 MB of source text). Kernels without
/// this control keep counting from the start; the figure then includes
/// the generator, equally on every run.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Wall and CPU time, with pauses for generator work (encoding the
/// next chunk of frames) taken out of both.
struct Clock {
    wall: Duration,
    cpu_ms: f64,
    since: Option<(Instant, f64)>,
}

impl Clock {
    fn new() -> Clock {
        Clock {
            wall: Duration::ZERO,
            cpu_ms: 0.0,
            since: None,
        }
    }

    fn resume(&mut self) {
        self.since = Some((Instant::now(), process_cpu_ms()));
    }

    fn pause(&mut self) {
        if let Some((t0, c0)) = self.since.take() {
            self.wall += t0.elapsed();
            self.cpu_ms += process_cpu_ms() - c0;
        }
    }

    fn wall(&self) -> Duration {
        self.wall + self.since.map_or(Duration::ZERO, |(t0, _)| t0.elapsed())
    }
}

/// A window closes once it has run this long...
const WINDOW: Duration = Duration::from_secs(3);
/// ...and holds this many ops, so its p90 has ten samples beyond it.
const WINDOW_MIN_OPS: usize = 100;

/// The ops of one window.
pub struct Window {
    pub latencies_ms: Vec<f64>,
    pub wall_s: f64,
    pub cpu_ms: f64,
}

/// Records a timed phase as a run of windows. The end-to-end figures
/// are medians of per-window values: this machine's CPU is shared, and
/// a stretch of seconds in which a neighbour takes it then moves a
/// window or two rather than the result.
pub struct Recorder {
    limit: Duration,
    window: Duration,
    min_ops: usize,
    clock: Clock,
    closed: Duration,
    current: Vec<f64>,
    windows: Vec<Window>,
    tally: Tally,
}

impl Recorder {
    /// A recorder that is done after `seconds` of closed windows. The
    /// clock starts running.
    pub fn start(seconds: u64) -> Recorder {
        Recorder::with_window(Duration::from_secs(seconds), WINDOW, WINDOW_MIN_OPS)
    }

    fn with_window(limit: Duration, window: Duration, min_ops: usize) -> Recorder {
        let mut clock = Clock::new();
        clock.resume();
        Recorder {
            limit,
            window,
            min_ops,
            clock,
            closed: Duration::ZERO,
            current: Vec::new(),
            windows: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// Stops the clock for generator work.
    pub fn pause(&mut self) {
        self.clock.pause();
    }

    pub fn resume(&mut self) {
        self.clock.resume();
    }

    /// One answered op.
    pub fn record(&mut self, latency_ms: f64, result: OpResult) {
        self.current.push(latency_ms);
        self.tally.record(result);
    }

    /// One op that got no answer (an I/O error or timeout).
    pub fn lost(&mut self) {
        self.tally.record(OpResult::Failed);
    }

    /// Closes the current window if it is full, and says whether it did.
    pub fn close_if_full(&mut self) -> bool {
        let full = self.current.len() >= self.min_ops && self.clock.wall() >= self.window;
        if full {
            self.close();
        }
        full
    }

    fn close(&mut self) {
        self.clock.pause();
        self.closed += self.clock.wall;
        self.windows.push(Window {
            latencies_ms: std::mem::take(&mut self.current),
            wall_s: self.clock.wall.as_secs_f64(),
            cpu_ms: self.clock.cpu_ms,
        });
        self.clock = Clock::new();
        self.clock.resume();
    }

    /// Whether the closed windows cover the run's length.
    pub fn done(&self) -> bool {
        self.closed >= self.limit
    }

    /// Ends the phase. A partial window is kept only when no window
    /// closed (a run cut short by a lost connection).
    pub fn finish(mut self) -> Phase {
        if self.windows.is_empty() && !self.current.is_empty() {
            self.close();
        }
        Phase {
            windows: self.windows,
            tally: self.tally,
        }
    }
}

/// The windows and counts of one timed phase.
pub struct Phase {
    pub windows: Vec<Window>,
    pub tally: Tally,
}

impl Phase {
    pub fn ops(&self) -> usize {
        self.windows.iter().map(|w| w.latencies_ms.len()).sum()
    }

    /// The median over windows of `f`.
    fn median_of(&self, f: impl Fn(&Window) -> f64) -> f64 {
        median(&self.windows.iter().map(f).collect::<Vec<f64>>())
    }
}

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    // JSON has no NaN or infinity; a ratio over nothing reads as 0. An
    // empty float sum is -0.0, which `+ 0.0` turns into 0.
    Metric {
        name,
        unit,
        value: if value.is_finite() { value + 0.0 } else { 0.0 },
    }
}

/// The end-to-end metrics every workload reports.
pub fn end_to_end(setup_s: &[f64], phase: &Phase) -> Vec<Metric> {
    let quantile = |p: f64| {
        move |w: &Window| {
            let mut sorted = w.latencies_ms.clone();
            sorted.sort_by(f64::total_cmp);
            percentile(&sorted, p)
        }
    };
    vec![
        metric("setup_s", "s", median(setup_s)),
        metric(
            "ops_per_s",
            "1/s",
            phase.median_of(|w| w.latencies_ms.len() as f64 / w.wall_s),
        ),
        metric("p50_ms", "ms", phase.median_of(quantile(50.0))),
        metric("p90_ms", "ms", phase.median_of(quantile(90.0))),
        metric(
            "cpu_ms_per_op",
            "ms",
            phase.median_of(|w| w.cpu_ms / w.latencies_ms.len() as f64),
        ),
        metric("peak_rss_mb", "MB", peak_rss_mb()),
        metric("ok_rate", "ratio", 1.0 - phase.tally.fail_rate()),
    ]
}

/// The result line: the last line of standard output.
pub fn result_json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 50.0), 5.0);
        assert_eq!(percentile(&ten, 90.0), 9.0);
        assert_eq!(percentile(&ten, 100.0), 10.0);
        assert_eq!(percentile(&ten, 0.0), 1.0);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 90.0), 18.0);
        assert_eq!(percentile(&twenty, 91.0), 19.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Two modes of equal weight: the median is a sample of the
        // lower mode, never a value between them.
        let bimodal = [1.0, 1.0, 1.0, 9.0, 9.0, 9.0];
        assert_eq!(percentile(&bimodal, 50.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tally_counts_failures_and_mismatches() {
        let mut t = Tally::default();
        for (verdict, expected) in [
            ("race", "race"),
            ("pass", "race"),
            ("error", "pass"),
            ("overloaded", "pass"),
            ("crashed", "crashed"),
            ("inconclusive", "inconclusive"),
        ] {
            t.record(classify(verdict, expected));
        }
        t.record(OpResult::Failed);
        assert_eq!(
            t,
            Tally {
                attempted: 7,
                failed: 5,
                mismatched: 1
            }
        );
        assert!((t.fail_rate() - 5.0 / 7.0).abs() < 1e-12);
        assert_eq!(Tally::default().fail_rate(), 0.0);
    }

    #[test]
    fn recorder_closes_full_windows_and_takes_medians() {
        let ms = Duration::from_millis(1);
        let mut rec = Recorder::with_window(30 * ms, 2 * ms, 3);
        let (mut ops, mut closes): (u32, usize) = (0, 0);
        while !rec.done() {
            std::thread::sleep(ms);
            ops += 1;
            rec.record(f64::from(ops % 4), OpResult::Ok);
            closes += usize::from(rec.close_if_full());
        }
        rec.lost();
        let phase = rec.finish();
        assert!(phase.windows.len() >= 2, "{} windows", phase.windows.len());
        assert_eq!(closes, phase.windows.len());
        assert!(phase.windows.iter().all(|w| w.latencies_ms.len() >= 3));
        assert!(phase.windows.iter().all(|w| w.wall_s >= 0.002));
        assert_eq!(phase.ops(), ops as usize);
        assert_eq!(
            phase.tally,
            Tally {
                attempted: u64::from(ops) + 1,
                failed: 1,
                mismatched: 0
            }
        );
        let metrics = end_to_end(&[0.5, 0.1, 0.3], &phase);
        assert_eq!(metrics[0].value, 0.3, "setup_s is the median set-up");
        assert!(
            metrics[1].value > 0.0 && metrics[1].value <= 1000.0,
            "at most one op per ms"
        );

        // A run cut short before any window closed keeps what it has.
        let mut cut = Recorder::with_window(Duration::from_secs(60), Duration::from_secs(60), 3);
        cut.record(2.0, OpResult::Ok);
        let phase = cut.finish();
        assert_eq!(phase.windows.len(), 1);
        assert_eq!(phase.ops(), 1);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let t = Tally {
            attempted: 3,
            failed: 0,
            mismatched: 0,
        };
        let line = result_json(
            true,
            &t,
            &[metric("p50_ms", "ms", 1.25), metric("x", "ratio", f64::NAN)],
        );
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"p50_ms\":{\"value\":1.25,\"unit\":\"ms\"},\"x\":{\"value\":0,\"unit\":\"ratio\"}}}"
        );
    }

    #[test]
    fn process_counters_read_proc() {
        let before = process_cpu_ms();
        let mut x = 0u64;
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(60) {
            x = x.wrapping_add(std::hint::black_box(1));
        }
        assert!(x > 0);
        assert!(process_cpu_ms() > before);
        assert!(peak_rss_mb() > 0.0);
    }
}
