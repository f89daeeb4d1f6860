//! Metrics registry: monotonic counters, point-in-time gauges, and log2
//! histograms.
//!
//! Counter and histogram names are dotted paths whose first segment is
//! the stage family (`frontend`, `pta`, `seg`, `detect`, `smt`, `bench`);
//! the stats serializer groups by that prefix so the exported document
//! mirrors the paper's stage decomposition. Names are stored in
//! `BTreeMap`s, so export order — and therefore the serialized bytes —
//! is deterministic.
//!
//! Counters are cumulative and only ever added to; **gauges** are
//! point-in-time values (worker-pool size, queue depth, open sessions)
//! that are *set*, never summed — re-snapshotting a gauge can never
//! inflate it the way repeated `counter_add` calls would.
//!
//! The canonical export ([`MetricsRegistry::stats_json`] with
//! `canonical = true`) zeroes every counter/histogram value whose key
//! ends in `_ns`, zeroes **every** gauge (a point-in-time reading is
//! inherently not reproducible across runs or worker counts), and omits
//! run metadata, producing bytes that are identical across thread
//! counts; the non-canonical form keeps real values.

use crate::json::{Arr, Obj};
use std::collections::BTreeMap;

/// Number of log2 buckets. Bucket `i` holds values whose bit length is
/// `i`, i.e. `[2^(i-1), 2^i)` for `i >= 1` and `{0}` for bucket 0; with
/// 64 buckets every `u64` is representable exactly by bit length.
pub const HIST_BUCKETS: usize = 64;

/// A fixed-bucket log2 histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Upper bound (inclusive representative) of bucket `i`: the largest
    /// value that lands in it. Percentiles report this bound. The last
    /// physical bucket is the overflow bucket — bit-length-64 samples
    /// clamp into it — so its bound is `u64::MAX`.
    fn bucket_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= HIST_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v).min(HIST_BUCKETS - 1)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Estimated `q`-quantile (`0.0..=1.0`): the upper bound of the
    /// bucket containing the `ceil(q * count)`-th sample. Returns 0 for
    /// an empty histogram; the top quantile is clamped to [`max`].
    ///
    /// [`max`]: Histogram::max
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Iterates the non-empty buckets as `(inclusive upper bound,
    /// count)` pairs in ascending bound order — the shape a Prometheus
    /// `_bucket{le=...}` exposition needs.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n != 0)
            .map(|(i, &n)| (Self::bucket_bound(i), n))
    }

    /// Adds another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// JSON summary. With `canonical`, the value-derived fields (which
    /// for `_ns` histograms vary run to run) are zeroed, keeping only the
    /// sample count.
    pub fn summary_json(&self, canonical: bool) -> String {
        let mut o = Obj::new();
        o.u64("count", self.count);
        if canonical {
            o.u64("sum", 0)
                .u64("p50", 0)
                .u64("p95", 0)
                .u64("p99", 0)
                .u64("max", 0);
        } else {
            o.u64("sum", self.sum)
                .u64("p50", self.p50())
                .u64("p95", self.p95())
                .u64("p99", self.p99())
                .u64("max", self.max);
        }
        o.finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Named monotonic counters, point-in-time gauges, and histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to counter `name` (created at 0 on first use).
    pub fn counter_add(&mut self, name: &str, v: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += v,
            None => {
                self.counters.insert(name.to_string(), v);
            }
        }
    }

    /// Reads counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to its current point-in-time value. Unlike
    /// [`MetricsRegistry::counter_add`], setting is idempotent: taking
    /// two snapshots of the same state writes the same value twice
    /// instead of doubling it.
    pub fn gauge_set(&mut self, name: &str, v: u64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Reads gauge `name` (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Iterates gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Records a sample into histogram `name`, allocating the name only
    /// the first time.
    pub fn hist_record(&mut self, name: &str, v: u64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.record(v),
            None => self
                .histograms
                .entry(name.to_string())
                .or_default()
                .record(v),
        }
    }

    /// Looks up a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// Absorbs another registry (counters summed, histograms merged,
    /// gauges overwritten — the other registry's reading is the newer
    /// point-in-time value).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// The `"stages"` object: counters grouped by first dot-segment, each
    /// stage an object of the remaining key path → value. With
    /// `canonical`, any counter whose name ends in `_ns` is zeroed.
    fn stages_json(&self, canonical: bool) -> String {
        let mut stages: BTreeMap<&str, Vec<(&str, u64)>> = BTreeMap::new();
        for (name, &v) in &self.counters {
            let (stage, rest) = name.split_once('.').unwrap_or(("misc", name.as_str()));
            let v = if canonical && rest.ends_with("_ns") {
                0
            } else {
                v
            };
            stages.entry(stage).or_default().push((rest, v));
        }
        let mut o = Obj::new();
        for (stage, entries) in stages {
            let mut s = Obj::new();
            for (k, v) in entries {
                s.u64(k, v);
            }
            o.raw(stage, &s.finish());
        }
        o.finish()
    }

    /// The `"gauges"` object: a flat name → value map. With `canonical`
    /// every value is zeroed — gauges are point-in-time readings, so
    /// only their *names* are reproducible across runs.
    fn gauges_json(&self, canonical: bool) -> String {
        let mut o = Obj::new();
        for (name, &v) in &self.gauges {
            o.u64(name, if canonical { 0 } else { v });
        }
        o.finish()
    }

    /// The `"histograms"` object.
    fn histograms_json(&self, canonical: bool) -> String {
        let mut o = Obj::new();
        for (name, h) in &self.histograms {
            let canon = canonical && name.ends_with("_ns");
            o.raw(name, &h.summary_json(canon));
        }
        o.finish()
    }

    /// The full stats document:
    ///
    /// ```json
    /// {"schema":"pinpoint-stats-v1","run":{...},"stages":{...},
    ///  "gauges":{...},"histograms":{...},"queries":[...]}
    /// ```
    ///
    /// `run_meta` fields (thread count etc.) and `queries` rows come from
    /// the caller; pass `canonical = true` to zero timings and omit run
    /// metadata so the bytes are thread-count invariant.
    pub fn stats_json(
        &self,
        run_meta: &[(&str, u64)],
        queries_json: Option<&str>,
        canonical: bool,
    ) -> String {
        let mut o = Obj::new();
        o.str("schema", "pinpoint-stats-v1");
        if !canonical {
            let mut run = Obj::new();
            for (k, v) in run_meta {
                run.u64(k, *v);
            }
            o.raw("run", &run.finish());
        }
        o.raw("stages", &self.stages_json(canonical));
        o.raw("gauges", &self.gauges_json(canonical));
        o.raw("histograms", &self.histograms_json(canonical));
        if let Some(q) = queries_json {
            o.raw("queries", q);
        } else {
            o.raw("queries", &Arr::new().finish());
        }
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_by_bit_length() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn percentiles_track_bucket_bounds() {
        let mut h = Histogram::new();
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.max(), 1000);
        // p50: 5th sample is a 1 → bucket 1, bound 1.
        assert_eq!(h.p50(), 1);
        // p95: 10th sample (ceil(0.95*10)=10) is 1000 → bucket 10, bound
        // 1023, clamped to max.
        assert_eq!(h.p95(), 1000);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(Histogram::new().p50(), 0);
    }

    #[test]
    fn zero_samples_land_in_bucket_zero() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p95(), 0);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn histogram_merge_is_sum() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(7);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 112);
        assert_eq!(a.max(), 100);
    }

    #[test]
    fn registry_groups_by_stage_prefix() {
        let mut m = MetricsRegistry::new();
        m.counter_add("pta.pruned", 3);
        m.counter_add("pta.kept", 9);
        m.counter_add("smt.queries", 2);
        m.counter_add("smt.solve_ns", 12345);
        let doc = m.stats_json(&[("threads", 4)], None, false);
        assert!(doc.contains(r#""schema":"pinpoint-stats-v1""#));
        assert!(doc.contains(r#""run":{"threads":4}"#));
        assert!(doc.contains(r#""pta":{"kept":9,"pruned":3}"#));
        assert!(doc.contains(r#""smt":{"queries":2,"solve_ns":12345}"#));
        let canon = m.stats_json(&[("threads", 4)], None, true);
        assert!(!canon.contains("\"run\""));
        assert!(canon.contains(r#""solve_ns":0"#));
        assert!(canon.contains(r#""queries":2"#));
    }

    #[test]
    fn empty_histogram_summaries_are_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!((h.p50(), h.p95(), h.p99(), h.max()), (0, 0, 0, 0));
        assert_eq!(h.buckets().count(), 0, "no non-empty buckets");
        assert_eq!(
            h.summary_json(false),
            r#"{"count":0,"sum":0,"p50":0,"p95":0,"p99":0,"max":0}"#
        );
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let mut h = Histogram::new();
        h.record(37);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 37, "q={q}");
        }
        assert_eq!(h.buckets().collect::<Vec<_>>(), vec![(63, 1)]);
    }

    #[test]
    fn overflow_bucket_holds_u64_max() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(1);
        // Bit length 64 lands in the last bucket, whose bound is MAX.
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.p99(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX, "sum saturates instead of wrapping");
        let (bound, n) = h.buckets().last().unwrap();
        assert_eq!((bound, n), (u64::MAX, 2));
    }

    #[test]
    fn gauges_are_set_not_summed() {
        let mut m = MetricsRegistry::new();
        m.gauge_set("server.workers", 4);
        m.gauge_set("server.workers", 4);
        m.gauge_set("server.queue_depth", 7);
        assert_eq!(m.gauge("server.workers"), 4, "re-setting never inflates");
        assert_eq!(m.gauge("absent"), 0);
        let doc = m.stats_json(&[], None, false);
        assert!(
            doc.contains(r#""gauges":{"server.queue_depth":7,"server.workers":4}"#),
            "{doc}"
        );
        // Canonical zeroes every gauge: point-in-time readings are not
        // reproducible across runs or worker counts, only their names.
        let canon = m.stats_json(&[], None, true);
        assert!(
            canon.contains(r#""gauges":{"server.queue_depth":0,"server.workers":0}"#),
            "{canon}"
        );
    }

    #[test]
    fn merge_overwrites_gauges_with_newer_reading() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.gauge_set("server.sessions_open", 9);
        b.gauge_set("server.sessions_open", 2);
        a.merge(&b);
        assert_eq!(a.gauge("server.sessions_open"), 2);
    }

    #[test]
    fn registry_merge_sums_counters() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.counter_add("detect.sources", 1);
        b.counter_add("detect.sources", 2);
        b.hist_record("smt.query_ns", 64);
        a.merge(&b);
        assert_eq!(a.counter("detect.sources"), 3);
        assert_eq!(a.histogram("smt.query_ns").unwrap().count(), 1);
    }
}
