//! Metrics: gauges and log-bucket histograms, all atomics-only so hot
//! paths record without locks.
//!
//! Two layers:
//!
//! - [`Histogram`] is a plain, mergeable value type with fixed
//!   power-of-two buckets. It replaces stored-sample percentile
//!   vectors (which grow without bound) in [`crate::RunReport`]:
//!   recording is O(1), merging is per-bucket addition, and memory is
//!   a constant 65 words no matter how many samples arrive.
//! - [`AtomicHistogram`] and [`Gauge`] are the live, shared
//!   counterparts a long-running service embeds in its own state.
//!   Histograms are sharded across [`SHARDS`] bucket arrays (one
//!   picked per thread) so concurrent recorders do not contend on a
//!   cache line; a snapshot merges the shards back into a
//!   [`Histogram`].
//!
//! The cost discipline matches `kiss-fault`'s idle failpoint: one
//! recording is a relaxed `fetch_add` on a thread-local shard — no
//! locks, no allocation, no ordering stronger than `Relaxed`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::json::Json;

/// Bucket count: bucket 0 holds the value 0, bucket `i` (1..=64) holds
/// values whose bit width is `i`, i.e. the range `[2^(i-1), 2^i - 1]`.
pub const BUCKETS: usize = 65;

/// Shard count for [`AtomicHistogram`] (threads spread across these).
pub const SHARDS: usize = 8;

/// The bucket index a value lands in.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The largest value bucket `i` can hold (its representative for
/// quantile estimation). Bucket 0 represents exactly 0.
pub fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A fixed log-bucket histogram of `u64` samples.
///
/// Quantile estimates return the containing bucket's upper bound, so
/// an estimate is never below the exact nearest-rank value and never
/// more than one bucket (a factor of two) above it.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    // Boxed so the values embedding a histogram (reports, events)
    // stay pointer-sized rather than carrying 520 bytes inline.
    buckets: Box<[u64; BUCKETS]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: Box::new([0; BUCKETS]) }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("p50", &self.quantile(50))
            .field("p99", &self.quantile(99))
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// A histogram over the given samples.
    pub fn from_samples(samples: impl IntoIterator<Item = u64>) -> Histogram {
        let mut h = Histogram::new();
        for s in samples {
            h.record(s);
        }
        h
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
    }

    /// Adds `other`'s buckets into `self`. Merging is associative and
    /// commutative: any grouping of partial histograms yields the same
    /// result as recording every sample into one.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&c| c == 0)
    }

    /// Nearest-rank quantile estimate (`p` in 0..=100): the upper
    /// bound of the bucket holding the rank-`p` sample. `None` when
    /// empty. The estimate is >= the exact nearest-rank percentile and
    /// < twice it (same bucket).
    pub fn quantile(&self, p: u32) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((p.min(100) as u64 * total).div_ceil(100)).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_bound(i));
            }
        }
        None
    }

    /// The non-empty buckets as `(index, count)` pairs.
    pub fn nonzero(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    /// One-line JSON encoding: `{"count":N,"buckets":[[i,c],...]}`
    /// (sparse — only non-empty buckets appear).
    pub fn to_json(&self) -> String {
        let pairs: Vec<String> =
            self.nonzero().iter().map(|(i, c)| format!("[{i},{c}]")).collect();
        format!("{{\"count\":{},\"buckets\":[{}]}}", self.count(), pairs.join(","))
    }

    /// Parses [`Histogram::to_json`] output; `None` on malformed input
    /// or out-of-range bucket indices.
    pub fn from_value(v: &Json) -> Option<Histogram> {
        let mut h = Histogram::new();
        for pair in v.get("buckets")?.as_arr()? {
            let pair = pair.as_arr()?;
            if pair.len() != 2 {
                return None;
            }
            let i = pair[0].as_u64()? as usize;
            if i >= BUCKETS {
                return None;
            }
            h.buckets[i] = h.buckets[i].checked_add(pair[1].as_u64()?)?;
        }
        Some(h)
    }
}

/// An up/down gauge that also remembers its high-water mark.
#[derive(Default)]
pub struct Gauge {
    value: AtomicU64,
    peak: AtomicU64,
}

impl Gauge {
    /// Sets the current value (peak tracks the maximum ever set).
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
        self.peak.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds one and updates the peak.
    #[inline]
    pub fn inc(&self) {
        let now = self.value.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Subtracts one (saturating at zero).
    #[inline]
    pub fn dec(&self) {
        let _ = self.value.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(1))
        });
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The high-water mark.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Picks this thread's shard once and caches it.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SHARD.with(|s| *s)
}

/// A sharded, lock-free histogram: each thread records into its own
/// bucket array (relaxed `fetch_add`), and [`AtomicHistogram::snapshot`]
/// merges the shards.
pub struct AtomicHistogram {
    shards: Box<[[AtomicU64; BUCKETS]]>,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            shards: (0..SHARDS)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
        }
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> AtomicHistogram {
        AtomicHistogram::default()
    }

    /// Records one sample: one relaxed `fetch_add` on this thread's
    /// shard.
    #[inline]
    pub fn record(&self, value: u64) {
        self.shards[shard_index()][bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Merges every shard into a plain [`Histogram`].
    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        for shard in self.shards.iter() {
            for (i, c) in shard.iter().enumerate() {
                h.buckets[i] += c.load(Ordering::Relaxed);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_value_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(64), u64::MAX);
        // Every value's bucket bound is >= the value and < 2x it.
        for v in [1u64, 2, 3, 5, 17, 1000, 1 << 40] {
            let bound = bucket_bound(bucket_of(v));
            assert!(bound >= v);
            assert!(bound / 2 < v, "{v} -> {bound}");
        }
    }

    #[test]
    fn quantiles_track_nearest_rank_within_one_bucket() {
        let samples = [1u64, 2, 3, 40];
        let h = Histogram::from_samples(samples);
        assert_eq!(h.count(), 4);
        // Exact nearest-rank p50 is 2; the estimate is 2's bucket bound.
        assert_eq!(h.quantile(50), Some(bucket_bound(bucket_of(2))));
        assert_eq!(h.quantile(100), Some(bucket_bound(bucket_of(40))));
        assert_eq!(h.quantile(0), Some(bucket_bound(bucket_of(1))));
        assert_eq!(Histogram::new().quantile(50), None);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut a = Histogram::from_samples([0u64, 1, 7]);
        let b = Histogram::from_samples([7u64, 900, u64::MAX]);
        let whole = Histogram::from_samples([0u64, 1, 7, 7, 900, u64::MAX]);
        a.merge(&b);
        assert_eq!(a, whole);
        assert_eq!(a.count(), 6);
    }

    #[test]
    fn json_round_trips_and_rejects_garbage() {
        let h = Histogram::from_samples([0u64, 1, 1, 63, 64, 1 << 50]);
        let text = h.to_json();
        let back = Histogram::from_value(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, h);
        assert!(text.contains("\"count\":6"));
        for bad in [
            "{}",
            "{\"buckets\":[[65,1]]}",
            "{\"buckets\":[[1]]}",
            "{\"buckets\":[1,2]}",
        ] {
            assert_eq!(Histogram::from_value(&Json::parse(bad).unwrap()), None, "{bad}");
        }
        assert!(Histogram::new().to_json().contains("\"count\":0"));
    }

    #[test]
    fn atomic_histogram_merges_across_threads() {
        let h = AtomicHistogram::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..100u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count(), 400);
    }

    #[test]
    fn gauge_tracks_value_and_peak() {
        let g = Gauge::default();
        g.inc();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 2);
        assert_eq!(g.peak(), 3);
        g.set(10);
        assert_eq!(g.peak(), 10);
        g.set(1);
        assert_eq!(g.get(), 1);
        assert_eq!(g.peak(), 10);
        g.dec();
        g.dec(); // saturates at zero
        assert_eq!(g.get(), 0);
    }
}
