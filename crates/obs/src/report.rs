//! The aggregated run report: what a whole corpus run (or a single
//! `kissc` invocation) did, in numbers.

use std::collections::BTreeMap;

use crate::event::CheckMetrics;
use crate::json::{quoted, Json};
use crate::metrics::Histogram;

/// Nearest-rank percentile over an unsorted sample; `None` when empty.
fn nearest_rank(xs: &[u64], p: u32) -> Option<u64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_unstable();
    let rank = (p.min(100) as usize * sorted.len()).div_ceil(100);
    Some(sorted[rank.saturating_sub(1)])
}

/// Per-engine totals inside a [`RunReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineTotals {
    /// Checks whose final attempt ran on this engine.
    pub checks: u64,
    /// Steps executed (final attempts).
    pub steps: u64,
    /// Distinct states recorded (final attempts).
    pub states: u64,
    /// Bytes held by the engines' state stores (final attempts,
    /// summed).
    pub store_bytes: u64,
    /// Wall-clock milliseconds spent.
    pub wall_ms: u64,
}

/// Aggregated metrics over many checks. Built incrementally by
/// [`RunReport::observe`], merged across resumed sessions by
/// [`RunReport::merge`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Checks finished.
    pub checks: u64,
    /// Total escalation retries spent.
    pub retries: u64,
    /// Verdict histogram (`pass`, `race`, `inconclusive`, ...).
    pub outcomes: BTreeMap<String, u64>,
    /// Which budget axis ended each inconclusive check.
    pub bound_reasons: BTreeMap<String, u64>,
    /// Totals per engine kind.
    pub engines: BTreeMap<String, EngineTotals>,
    /// Summed per-check wall time in milliseconds. (Not elapsed run
    /// time: checks may overlap in a future parallel executor.)
    pub wall_ms: u64,
    /// Every check's wall time, for percentiles. Unsorted.
    pub durations_ms: Vec<u64>,
    /// Serve-mode requests received (cache hits + cache misses +
    /// requests shed).
    pub requests: u64,
    /// Requests answered straight from the result cache.
    pub cache_hits: u64,
    /// Requests that missed (or bypassed) the cache and ran a check.
    pub cache_misses: u64,
    /// Receive-to-answer request latencies, as a constant-memory
    /// log-bucket histogram (millisecond samples).
    pub request_latency: Histogram,
    /// Requests rejected with a typed `overloaded` response because the
    /// queue stayed full for the whole admission wait. Counted in
    /// `requests` but in neither cache bucket.
    pub requests_shed: u64,
    /// Failpoints fired (kiss-fault injections observed).
    pub faults_injected: u64,
    /// Client-side reconnect/resubmit attempts after failures.
    pub client_retries: u64,
}

impl RunReport {
    /// Folds one finished check into the report.
    pub fn observe(&mut self, m: &CheckMetrics) {
        self.checks += 1;
        self.retries += m.retries;
        *self.outcomes.entry(m.verdict.clone()).or_default() += 1;
        if let Some(reason) = &m.bound_reason {
            *self.bound_reasons.entry(reason.clone()).or_default() += 1;
        }
        let engine = self.engines.entry(m.engine.clone()).or_default();
        engine.checks += 1;
        engine.steps += m.steps;
        engine.states += m.states;
        engine.store_bytes += m.store_bytes;
        engine.wall_ms += m.wall_ms;
        self.wall_ms += m.wall_ms;
        self.durations_ms.push(m.wall_ms);
    }

    /// Adds `other`'s totals into `self` — used by `--resume` to
    /// combine the reports of earlier sessions with the current one.
    pub fn merge(&mut self, other: &RunReport) {
        self.checks += other.checks;
        self.retries += other.retries;
        for (k, v) in &other.outcomes {
            *self.outcomes.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.bound_reasons {
            *self.bound_reasons.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.engines {
            let e = self.engines.entry(k.clone()).or_default();
            e.checks += v.checks;
            e.steps += v.steps;
            e.states += v.states;
            e.store_bytes += v.store_bytes;
            e.wall_ms += v.wall_ms;
        }
        self.wall_ms += other.wall_ms;
        self.durations_ms.extend_from_slice(&other.durations_ms);
        self.requests += other.requests;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.request_latency.merge(&other.request_latency);
        self.requests_shed += other.requests_shed;
        self.faults_injected += other.faults_injected;
        self.client_retries += other.client_retries;
    }

    /// Steps summed across engines.
    pub fn total_steps(&self) -> u64 {
        self.engines.values().map(|e| e.steps).sum()
    }

    /// States summed across engines.
    pub fn total_states(&self) -> u64 {
        self.engines.values().map(|e| e.states).sum()
    }

    /// Aggregate search throughput in states per second; `None` when no
    /// measurable time was spent.
    pub fn states_per_sec(&self) -> Option<f64> {
        if self.wall_ms == 0 {
            return None;
        }
        Some(self.total_states() as f64 * 1000.0 / self.wall_ms as f64)
    }

    /// Nearest-rank duration percentile (`p` in 0..=100) in
    /// milliseconds; `None` when no checks were recorded.
    pub fn percentile_ms(&self, p: u32) -> Option<u64> {
        nearest_rank(&self.durations_ms, p)
    }

    /// Request-latency percentile estimate (`p` in 0..=100) in
    /// milliseconds, from the log-bucket histogram — within one bucket
    /// of the exact nearest-rank value. `None` when no requests were
    /// recorded.
    pub fn request_percentile_ms(&self, p: u32) -> Option<u64> {
        self.request_latency.quantile(p)
    }

    /// Whether two runs did the same *deterministic* work: identical
    /// check counts, retry counts, outcome histograms, bound reasons,
    /// and per-engine step/state totals. Timing fields (wall clock,
    /// durations, throughput) are deliberately excluded.
    pub fn counts_match(&self, other: &RunReport) -> bool {
        self.checks == other.checks
            && self.retries == other.retries
            && self.outcomes == other.outcomes
            && self.bound_reasons == other.bound_reasons
            && self.engines.len() == other.engines.len()
            && self.engines.iter().all(|(k, e)| {
                other.engines.get(k).is_some_and(|o| {
                    e.checks == o.checks && e.steps == o.steps && e.states == o.states
                })
            })
    }

    /// JSON encoding, parseable by [`RunReport::from_json`].
    pub fn to_json(&self) -> String {
        let map = |m: &BTreeMap<String, u64>| {
            let fields: Vec<String> =
                m.iter().map(|(k, v)| format!("{}:{v}", quoted(k))).collect();
            format!("{{{}}}", fields.join(","))
        };
        let engines: Vec<String> = self
            .engines
            .iter()
            .map(|(k, e)| {
                format!(
                    "{}:{{\"checks\":{},\"steps\":{},\"states\":{},\
                     \"store_bytes\":{},\"wall_ms\":{}}}",
                    quoted(k),
                    e.checks,
                    e.steps,
                    e.states,
                    e.store_bytes,
                    e.wall_ms,
                )
            })
            .collect();
        let durations: Vec<String> = self.durations_ms.iter().map(u64::to_string).collect();
        format!(
            "{{\"checks\":{},\"retries\":{},\"outcomes\":{},\"bound_reasons\":{},\
             \"engines\":{{{}}},\"wall_ms\":{},\"durations_ms\":[{}],\
             \"requests\":{},\"cache_hits\":{},\"cache_misses\":{},\"request_latency\":{},\
             \"requests_shed\":{},\"faults_injected\":{},\"client_retries\":{}}}",
            self.checks,
            self.retries,
            map(&self.outcomes),
            map(&self.bound_reasons),
            engines.join(","),
            self.wall_ms,
            durations.join(","),
            self.requests,
            self.cache_hits,
            self.cache_misses,
            self.request_latency.to_json(),
            self.requests_shed,
            self.faults_injected,
            self.client_retries,
        )
    }

    /// Parses [`RunReport::to_json`] output; `None` on malformed input.
    pub fn from_json(text: &str) -> Option<RunReport> {
        let v = Json::parse(text)?;
        Self::from_value(&v)
    }

    /// Builds a report from an already-parsed JSON value (e.g. the
    /// `report` member of a `run_summary` trace event).
    pub fn from_value(v: &Json) -> Option<RunReport> {
        let counts = |key: &str| -> Option<BTreeMap<String, u64>> {
            v.get(key)?
                .as_obj()?
                .iter()
                .map(|(k, n)| Some((k.clone(), n.as_u64()?)))
                .collect()
        };
        let engines = v
            .get("engines")?
            .as_obj()?
            .iter()
            .map(|(k, e)| {
                Some((
                    k.clone(),
                    EngineTotals {
                        checks: e.get("checks")?.as_u64()?,
                        steps: e.get("steps")?.as_u64()?,
                        states: e.get("states")?.as_u64()?,
                        store_bytes: e.get("store_bytes")?.as_u64()?,
                        wall_ms: e.get("wall_ms")?.as_u64()?,
                    },
                ))
            })
            .collect::<Option<BTreeMap<_, _>>>()?;
        Some(RunReport {
            checks: v.get("checks")?.as_u64()?,
            retries: v.get("retries")?.as_u64()?,
            outcomes: counts("outcomes")?,
            bound_reasons: counts("bound_reasons")?,
            engines,
            wall_ms: v.get("wall_ms")?.as_u64()?,
            durations_ms: v
                .get("durations_ms")?
                .as_arr()?
                .iter()
                .map(Json::as_u64)
                .collect::<Option<Vec<_>>>()?,
            requests: v.get("requests")?.as_u64()?,
            cache_hits: v.get("cache_hits")?.as_u64()?,
            cache_misses: v.get("cache_misses")?.as_u64()?,
            request_latency: Histogram::from_value(v.get("request_latency")?)?,
            requests_shed: v.get("requests_shed")?.as_u64()?,
            faults_injected: v.get("faults_injected")?.as_u64()?,
            client_retries: v.get("client_retries")?.as_u64()?,
        })
    }

    /// Multi-line human rendering for end-of-run output.
    pub fn render(&self) -> String {
        let hist = |m: &BTreeMap<String, u64>| {
            m.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
        };
        let mut out = format!(
            "run report: {} checks, {} retries, {} ms checking time\n",
            self.checks, self.retries, self.wall_ms
        );
        out.push_str(&format!("  outcomes  : {}\n", hist(&self.outcomes)));
        if !self.bound_reasons.is_empty() {
            out.push_str(&format!("  bounds    : {}\n", hist(&self.bound_reasons)));
        }
        for (name, e) in &self.engines {
            out.push_str(&format!(
                "  engine    : {name}: {} checks, {} steps, {} states, \
                 {} store bytes, {} ms\n",
                e.checks, e.steps, e.states, e.store_bytes, e.wall_ms
            ));
        }
        if let Some(sps) = self.states_per_sec() {
            out.push_str(&format!("  throughput: {sps:.0} states/s\n"));
        }
        if let (Some(p50), Some(p90), Some(p99)) =
            (self.percentile_ms(50), self.percentile_ms(90), self.percentile_ms(99))
        {
            out.push_str(&format!("  durations : p50={p50}ms p90={p90}ms p99={p99}ms\n"));
        }
        if self.requests > 0 || self.requests_shed > 0 {
            let rate = if self.requests > 0 {
                self.cache_hits as f64 * 100.0 / self.requests as f64
            } else {
                0.0
            };
            let shed = if self.requests_shed > 0 {
                format!(", {} shed", self.requests_shed)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "  serving   : {} requests, {} cache hits, {} misses ({rate:.0}% hit-rate){shed}\n",
                self.requests, self.cache_hits, self.cache_misses
            ));
            if let (Some(p50), Some(p90), Some(p99)) = (
                self.request_percentile_ms(50),
                self.request_percentile_ms(90),
                self.request_percentile_ms(99),
            ) {
                out.push_str(&format!("  latency   : p50={p50}ms p90={p90}ms p99={p99}ms\n"));
            }
        }
        if self.faults_injected > 0 || self.client_retries > 0 {
            out.push_str(&format!(
                "  faults    : {} injected, {} client retries\n",
                self.faults_injected, self.client_retries
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(verdict: &str, engine: &str, steps: u64, wall_ms: u64) -> CheckMetrics {
        CheckMetrics {
            check: "drv/0".into(),
            engine: engine.into(),
            verdict: verdict.into(),
            steps,
            states: steps / 2,
            wall_ms,
            bound_reason: (verdict == "inconclusive").then(|| "steps".to_string()),
            ..CheckMetrics::default()
        }
    }

    #[test]
    fn observe_accumulates_histograms_and_engine_totals() {
        let mut r = RunReport::default();
        r.observe(&metric("pass", "explicit", 100, 4));
        r.observe(&metric("race", "explicit", 50, 2));
        r.observe(&metric("inconclusive", "summary", 10, 1));
        assert_eq!(r.checks, 3);
        assert_eq!(r.outcomes["pass"], 1);
        assert_eq!(r.outcomes["race"], 1);
        assert_eq!(r.bound_reasons["steps"], 1);
        assert_eq!(r.engines["explicit"].checks, 2);
        assert_eq!(r.engines["explicit"].steps, 150);
        assert_eq!(r.total_steps(), 160);
        assert_eq!(r.wall_ms, 7);
    }

    #[test]
    fn merge_equals_observing_everything_in_one_report() {
        let ms = [
            metric("pass", "explicit", 100, 4),
            metric("race", "bfs", 30, 9),
            metric("inconclusive", "summary", 7, 1),
        ];
        let mut whole = RunReport::default();
        ms.iter().for_each(|m| whole.observe(m));
        let mut first = RunReport::default();
        first.observe(&ms[0]);
        let mut rest = RunReport::default();
        rest.observe(&ms[1]);
        rest.observe(&ms[2]);
        first.merge(&rest);
        assert_eq!(first, whole);
        assert!(first.counts_match(&whole));
    }

    #[test]
    fn counts_match_ignores_timing_but_not_work() {
        let mut a = RunReport::default();
        a.observe(&metric("pass", "explicit", 100, 4));
        let mut b = RunReport::default();
        b.observe(&metric("pass", "explicit", 100, 900)); // same work, slower
        assert!(a.counts_match(&b));
        let mut c = RunReport::default();
        c.observe(&metric("pass", "explicit", 101, 4)); // different work
        assert!(!a.counts_match(&c));
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let mut r = RunReport::default();
        r.observe(&metric("pass", "explicit", 100, 4));
        r.observe(&metric("inconclusive", "summary", 10, 11));
        let back = RunReport::from_json(&r.to_json()).expect("round trip");
        assert_eq!(back, r);
        assert_eq!(RunReport::from_json("not json"), None);
        assert_eq!(RunReport::from_json("{\"checks\":1}"), None);
    }

    #[test]
    fn reports_without_store_bytes_do_not_parse() {
        // A report missing a field is malformed, not an old format:
        // the journal drops it and keeps every field record.
        let old = "{\"checks\":1,\"retries\":0,\"outcomes\":{\"pass\":1},\
                   \"bound_reasons\":{},\"engines\":{\"explicit\":{\"checks\":1,\
                   \"steps\":7,\"states\":3,\"wall_ms\":2}},\"wall_ms\":2,\
                   \"durations_ms\":[2]}";
        assert_eq!(RunReport::from_json(old), None);
    }

    #[test]
    fn store_bytes_accumulate_per_engine() {
        let mut r = RunReport::default();
        let mut m = metric("pass", "bfs", 100, 4);
        m.store_bytes = 1024;
        r.observe(&m);
        r.observe(&m);
        assert_eq!(r.engines["bfs"].store_bytes, 2048);
        assert!(r.render().contains("store bytes"));
        let back = RunReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back.engines["bfs"].store_bytes, 2048);
    }

    #[test]
    fn reports_carrying_speculative_steps_still_parse() {
        // Reports written while exploration could run in parallel carry
        // a per-engine `speculative_steps` gauge; resumed journals must
        // still read them.
        let mut r = RunReport::default();
        r.observe(&metric("pass", "bfs", 100, 4));
        let json = r.to_json();
        assert!(!json.contains("speculative"), "{json}");
        let old = json.replace("\"store_bytes\":0,", "\"store_bytes\":0,\"speculative_steps\":130,");
        assert!(old.contains("\"speculative_steps\":130"), "{old}");
        assert_eq!(RunReport::from_json(&old), Some(r));
    }

    #[test]
    fn serving_fields_round_trip_merge_and_render() {
        let r = RunReport {
            requests: 4,
            cache_hits: 3,
            cache_misses: 1,
            request_latency: Histogram::from_samples([1, 2, 3, 40]),
            ..RunReport::default()
        };
        let back = RunReport::from_json(&r.to_json()).expect("round trip");
        assert_eq!(back, r);
        // Exact nearest-rank p50 is 2; the histogram answers with 2's
        // bucket bound (within one bucket).
        assert_eq!(back.request_percentile_ms(50), Some(3));
        let mut merged = RunReport::default();
        merged.merge(&r);
        merged.merge(&r);
        assert_eq!(merged.requests, 8);
        assert_eq!(merged.cache_hits, 6);
        assert_eq!(merged.request_latency.count(), 8);
        let text = r.render();
        assert!(text.contains("4 requests"));
        assert!(text.contains("75% hit-rate"));
        assert!(text.contains("latency"));
        assert!(!RunReport::default().render().contains("serving"));
        // A report without the serving fields does not parse, and
        // neither does one carrying a per-sample `request_ms` array in
        // place of the histogram.
        let old = "{\"checks\":0,\"retries\":0,\"outcomes\":{},\"bound_reasons\":{},\
                   \"engines\":{},\"wall_ms\":0,\"durations_ms\":[]}";
        assert_eq!(RunReport::from_json(old), None);
        let sampled = "{\"checks\":0,\"retries\":0,\"outcomes\":{},\"bound_reasons\":{},\
                       \"engines\":{},\"wall_ms\":0,\"durations_ms\":[],\
                       \"requests\":4,\"cache_hits\":3,\"cache_misses\":1,\
                       \"request_ms\":[1,2,3,40]}";
        assert_eq!(RunReport::from_json(sampled), None);
    }

    #[test]
    fn robustness_fields_round_trip_merge_and_render() {
        let r = RunReport {
            requests: 9,
            cache_hits: 4,
            cache_misses: 2,
            requests_shed: 3,
            faults_injected: 5,
            client_retries: 2,
            ..RunReport::default()
        };
        let back = RunReport::from_json(&r.to_json()).expect("round trip");
        assert_eq!(back, r);
        let mut merged = RunReport::default();
        merged.merge(&r);
        merged.merge(&r);
        assert_eq!(merged.requests_shed, 6);
        assert_eq!(merged.faults_injected, 10);
        assert_eq!(merged.client_retries, 4);
        let text = r.render();
        assert!(text.contains("3 shed"));
        assert!(text.contains("5 injected, 2 client retries"));
        assert!(!RunReport::default().render().contains("faults"));
        // A report without the robustness counters does not parse.
        let old = "{\"checks\":0,\"retries\":0,\"outcomes\":{},\"bound_reasons\":{},\
                   \"engines\":{},\"wall_ms\":0,\"durations_ms\":[],\
                   \"requests\":1,\"cache_hits\":1,\"cache_misses\":0,\
                   \"request_latency\":{\"count\":1,\"buckets\":[[1,1]]}}";
        assert_eq!(RunReport::from_json(old), None);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut r = RunReport::default();
        for ms in [10u64, 20, 30, 40] {
            r.observe(&metric("pass", "explicit", 1, ms));
        }
        assert_eq!(r.percentile_ms(50), Some(20));
        assert_eq!(r.percentile_ms(100), Some(40));
        assert_eq!(r.percentile_ms(0), Some(10));
        assert_eq!(RunReport::default().percentile_ms(50), None);
    }

    #[test]
    fn throughput_needs_measurable_time() {
        let mut r = RunReport::default();
        r.observe(&metric("pass", "explicit", 100, 0));
        assert_eq!(r.states_per_sec(), None);
        r.observe(&metric("pass", "explicit", 100, 100));
        assert_eq!(r.states_per_sec(), Some(1000.0));
        assert!(r.render().contains("throughput"));
    }
}
