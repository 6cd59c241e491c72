//! Global counter / histogram registry.
//!
//! Counters are process-global named `u64` accumulators (`par.steals`,
//! `codec.serialize.bytes`, `trace.dropped`, …). Histograms are log₂-
//! bucketed latency/size distributions answering p50/p95/p99 without
//! storing samples. Both are registered on first use and live for the
//! process lifetime (`Box::leak`), so the hot path is a single atomic
//! `fetch_add` on a `&'static`.
//!
//! Counter and bucket bumps use `Relaxed`: they are pure accumulators —
//! nobody reads a counter to synchronize with the work it counts, and
//! every cross-thread handoff of real data goes through a lock or join.
//! gpf-lint's `relaxed-ordering` rule admits `Relaxed` here only with an
//! adjacent `// ordering:` justification, and the gpf-check model tests
//! exercise the registry under the schedule explorer to back the claim.

use gpf_check::shim::atomic::{AtomicU64, Ordering};
use gpf_check::shim::sync::{Mutex, MutexGuard, OnceLock};
use std::collections::BTreeMap;

/// A named monotonic counter.
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `v`.
    pub fn add(&self, v: u64) {
        // ordering: Relaxed — a pure accumulator; the RMW is atomic and no
        // other memory is published through the counter.
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: Relaxed — readers that need the count to include a
        // worker's bumps already synchronize with that worker (scope join).
        self.0.load(Ordering::Relaxed)
    }
}

pub(crate) const BUCKETS: usize = 65;

/// A log₂-bucketed histogram: bucket `0` holds value `0`, bucket `k`
/// (k ≥ 1) holds values in `[2^(k-1), 2^k)`.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    fn new() -> Self {
        Self { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    pub(crate) fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Lower bound of a bucket's value range (the quantile representative).
    fn bucket_floor(idx: usize) -> u64 {
        if idx == 0 {
            0
        } else {
            1u64 << (idx - 1)
        }
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        // ordering: Relaxed — bucket counts are pure accumulators.
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Merge a locally accumulated histogram in one pass — at most one
    /// RMW per non-empty bucket instead of one per sample.
    pub fn merge(&self, local: &LocalHistogram) {
        for (idx, &n) in local.buckets.iter().enumerate() {
            if n > 0 {
                // ordering: Relaxed — bucket counts are pure accumulators.
                self.buckets[idx].fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Merge a raw bucket-count array sharing [`LocalHistogram`]'s layout
    /// (the tracking allocator's thread-local flush path, which cannot
    /// afford a `LocalHistogram` round-trip per sample).
    pub(crate) fn merge_raw(&self, buckets: &[u64; BUCKETS]) {
        for (idx, &n) in buckets.iter().enumerate() {
            if n > 0 {
                // ordering: Relaxed — bucket counts are pure accumulators.
                self.buckets[idx].fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        // ordering: Relaxed — quantile readers tolerate in-flight samples;
        // exact reads happen after the recording threads are joined.
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Approximate `q`-quantile (0.0..=1.0): the lower bound of the bucket
    /// containing the q-th sample. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        // ordering: Relaxed — see count().
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64 * q.clamp(0.0, 1.0)).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_floor(idx);
            }
        }
        Self::bucket_floor(BUCKETS - 1)
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

type CounterMap = BTreeMap<&'static str, &'static Counter>;
type HistogramMap = BTreeMap<&'static str, &'static Histogram>;

fn counter_registry() -> &'static Mutex<CounterMap> {
    static REG: OnceLock<Mutex<CounterMap>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn histogram_registry() -> &'static Mutex<HistogramMap> {
    static REG: OnceLock<Mutex<HistogramMap>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
}

/// The counter registered under `name` (created on first use).
pub fn counter(name: &'static str) -> &'static Counter {
    let mut reg = lock(counter_registry());
    reg.entry(name).or_insert_with(|| Box::leak(Box::new(Counter(AtomicU64::new(0)))))
}

/// A plain (non-atomic) histogram for batching samples on a hot path:
/// record locally, then [`Histogram::merge`] once. Bucket layout is
/// identical to [`Histogram`], so merging preserves every count exactly.
pub struct LocalHistogram {
    buckets: [u64; BUCKETS],
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalHistogram {
    /// A zeroed local histogram.
    pub fn new() -> Self {
        Self { buckets: [0; BUCKETS] }
    }

    /// Record one sample locally (no atomics).
    pub fn record(&mut self, v: u64) {
        self.buckets[Histogram::bucket_of(v)] += 1;
    }
}

/// The histogram registered under `name` (created on first use).
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut reg = lock(histogram_registry());
    reg.entry(name).or_insert_with(|| Box::leak(Box::new(Histogram::new())))
}

/// Snapshot of every registered counter, sorted by name.
pub fn counters_snapshot() -> Vec<(&'static str, u64)> {
    lock(counter_registry()).iter().map(|(n, c)| (*n, c.get())).collect()
}

/// Summary of one histogram.
#[derive(Debug, Clone, Copy)]
pub struct HistogramSummary {
    /// Sample count.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// Snapshot of every registered histogram, sorted by name.
pub fn histograms_snapshot() -> Vec<(&'static str, HistogramSummary)> {
    lock(histogram_registry())
        .iter()
        .map(|(n, h)| {
            (*n, HistogramSummary { count: h.count(), p50: h.p50(), p95: h.p95(), p99: h.p99() })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_by_name() {
        let c = counter("test.counters.accumulate");
        let before = c.get();
        c.add(3);
        counter("test.counters.accumulate").add(4);
        assert_eq!(c.get(), before + 7);
    }

    #[test]
    fn local_histogram_merge_matches_direct_records() {
        let samples = [0u64, 1, 2, 3, 7, 8, 1024, u64::MAX, 1024, 0];
        let direct = histogram("test.counters.hist.direct");
        let merged = histogram("test.counters.hist.merged");
        let mut local = LocalHistogram::new();
        for &v in &samples {
            direct.record(v);
            local.record(v);
        }
        merged.merge(&local);
        assert_eq!(direct.count(), merged.count());
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(direct.quantile(q), merged.quantile(q));
        }
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.p50(), 1);
        // The 1000 sample lands in bucket [512, 1024).
        assert_eq!(h.quantile(1.0), 512);
        assert_eq!(h.p99(), 512);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn snapshot_contains_registered_names() {
        counter("test.snapshot.presence").add(1);
        histogram("test.snapshot.hist").record(5);
        assert!(counters_snapshot().iter().any(|(n, _)| *n == "test.snapshot.presence"));
        assert!(histograms_snapshot().iter().any(|(n, s)| *n == "test.snapshot.hist" && s.count >= 1));
    }
}
