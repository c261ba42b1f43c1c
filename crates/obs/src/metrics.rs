//! Metrics: counters, gauges, log₂-binned histograms, and a name-interning
//! registry.
//!
//! All handles are cheap `Arc`-backed clones around relaxed atomics, so worker
//! threads bump the same underlying cells without coordination and a snapshot
//! is a plain relaxed read. Metrics deliberately have no feedback path into
//! decode logic: nothing in this module is read by a decoder.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::{JsonValue, Record};

/// Number of histogram bins: bin 0 holds the value `0`, bin `b >= 1` holds
/// values in `[2^(b-1), 2^b)`, so 65 bins cover the full `u64` range.
pub const HISTOGRAM_BINS: usize = 65;

/// The histogram bin a value falls in (`0` for zero, else `floor(log2(v))+1`).
pub fn bin_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The smallest value that lands in `bin` (0-based; `bin < HISTOGRAM_BINS`).
pub fn bin_lower_bound(bin: usize) -> u64 {
    if bin == 0 {
        0
    } else {
        1u64 << (bin - 1)
    }
}

/// A monotonically increasing counter (relaxed atomic, clone-to-share).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge (byte sizes, node counts).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds to the value (for gauges that aggregate several parts).
    #[inline]
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    bins: [AtomicU64; HISTOGRAM_BINS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A log₂-binned histogram of `u64` samples (latencies in ns, sizes).
///
/// Recording is three relaxed `fetch_add`s — cheap enough for per-batch (and
/// even per-shot) hot paths. Snapshots merge associatively and commutatively,
/// so per-worker views can be combined in any order.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramCore {
            bins: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.0.bins[bin_index(value)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bins and totals.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bins: self
                .0
                .bins
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
        }
    }
}

/// An owned, mergeable copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bin sample counts; `bins[b]` counts values in
    /// `[bin_lower_bound(b), bin_lower_bound(b + 1))`.
    pub bins: Vec<u64>,
    /// Total number of recorded samples.
    pub count: u64,
    /// Sum of all recorded samples (wrapping only past `u64::MAX`).
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (the identity element for [`merge`](Self::merge)).
    pub fn empty() -> Self {
        HistogramSnapshot {
            bins: vec![0; HISTOGRAM_BINS],
            count: 0,
            sum: 0,
        }
    }

    /// Records a sample directly into the snapshot (test/reference use).
    pub fn record(&mut self, value: u64) {
        self.bins[bin_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
    }

    /// Element-wise merge. Associative and commutative: merging per-worker
    /// snapshots in any order or grouping yields the same result.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Whether the snapshot holds no samples. An empty snapshot has no
    /// quantiles — [`quantile`](Self::quantile) is `None` for every `q`
    /// — so call sites that would otherwise print a bogus `0` bound
    /// must either guard on this or spell out their `unwrap_or`
    /// default.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `q`-quantile of the recorded samples, as the **inclusive
    /// upper bound** of the log₂ bin holding the ⌈q·count⌉-th smallest
    /// sample — a conservative (never underestimating) SLO read, exact
    /// to within the bin's factor-of-two resolution. `q` is clamped to
    /// `[0, 1]`; returns `None` when the histogram is empty (guard with
    /// [`is_empty`](Self::is_empty) — there is no meaningful 0 bound to
    /// report for zero samples).
    ///
    /// This is how the serve/bench harnesses turn the `serve.e2e_ns`
    /// histogram into p50/p99/p999 latency numbers.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.bins.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(if b + 1 < HISTOGRAM_BINS {
                    bin_lower_bound(b + 1) - 1
                } else {
                    u64::MAX
                });
            }
        }
        Some(u64::MAX)
    }

    /// JSON form: `{"count":..,"sum":..,"bins":{"<bin>":<n>,..}}` with only
    /// non-empty bins listed (keys are bin indices).
    pub fn to_json(&self) -> JsonValue {
        let bins: Vec<(String, JsonValue)> = self
            .bins
            .iter()
            .enumerate()
            .filter(|(_, &n)| n != 0)
            .map(|(b, &n)| (b.to_string(), JsonValue::U64(n)))
            .collect();
        Record::new()
            .field("count", self.count)
            .field("sum", self.sum)
            .field("bins", JsonValue::Object(bins))
            .into_value()
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A name-interning registry of metrics.
///
/// `counter`/`gauge`/`histogram` are get-or-create: asking for the same name
/// twice returns a handle to the same underlying cell, which is what lets the
/// decoder a BER sweep builds for each point keep accumulating into the
/// counters the previous point's decoder created. Clones share the same map.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-create the counter named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.lock().expect("registry lock");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get-or-create the gauge named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.lock().expect("registry lock");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get-or-create the histogram named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.inner.lock().expect("registry lock");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// A point-in-time snapshot of every metric, sorted by name.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let map = self.inner.lock().expect("registry lock");
        RegistrySnapshot {
            metrics: map
                .iter()
                .map(|(name, metric)| {
                    let snap = match metric {
                        Metric::Counter(c) => MetricSnapshot::Counter(c.get()),
                        Metric::Gauge(g) => MetricSnapshot::Gauge(g.get()),
                        Metric::Histogram(h) => MetricSnapshot::Histogram(h.snapshot()),
                    };
                    (name.clone(), snap)
                })
                .collect(),
        }
    }
}

/// One metric's value inside a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricSnapshot {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram contents.
    Histogram(HistogramSnapshot),
}

/// A point-in-time copy of a [`Registry`], sorted by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// `(name, value)` pairs in ascending name order.
    pub metrics: Vec<(String, MetricSnapshot)>,
}

impl RegistrySnapshot {
    fn find(&self, name: &str) -> Option<&MetricSnapshot> {
        self.metrics
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.metrics[i].1)
    }

    /// The counter named `name`, or 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        match self.find(name) {
            Some(MetricSnapshot::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// The gauge named `name`, or 0 when absent.
    pub fn gauge(&self, name: &str) -> u64 {
        match self.find(name) {
            Some(MetricSnapshot::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// The histogram named `name`, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.find(name) {
            Some(MetricSnapshot::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// JSON form: an object keyed by metric name, each value tagged with its
    /// `kind`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(
            self.metrics
                .iter()
                .map(|(name, metric)| {
                    let value = match metric {
                        MetricSnapshot::Counter(v) => Record::new()
                            .field("kind", "counter")
                            .field("value", *v)
                            .into_value(),
                        MetricSnapshot::Gauge(v) => Record::new()
                            .field("kind", "gauge")
                            .field("value", *v)
                            .into_value(),
                        MetricSnapshot::Histogram(h) => {
                            let mut rec = Record::new().field("kind", "histogram");
                            if let JsonValue::Object(fields) = h.to_json() {
                                for (k, v) in fields {
                                    rec.push(&k, v);
                                }
                            }
                            rec.into_value()
                        }
                    };
                    (name.clone(), value)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_edges() {
        assert_eq!(bin_index(0), 0);
        assert_eq!(bin_index(1), 1);
        assert_eq!(bin_index(2), 2);
        assert_eq!(bin_index(3), 2);
        assert_eq!(bin_index(4), 3);
        assert_eq!(bin_index(u64::MAX), 64);
        for b in 0..HISTOGRAM_BINS {
            assert_eq!(bin_index(bin_lower_bound(b)), b);
            if b > 0 {
                assert_eq!(bin_index(bin_lower_bound(b) - 1), b - 1);
            }
        }
    }

    #[test]
    fn registry_interns_by_name() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.snapshot().counter("x"), 3);
        // A clone of the registry sees the same cell.
        let c = reg.clone().counter("x");
        c.inc();
        assert_eq!(a.get(), 4);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn registry_rejects_kind_clash() {
        let reg = Registry::new();
        let _ = reg.counter("x");
        let _ = reg.gauge("x");
    }

    #[test]
    fn empty_snapshot_has_no_quantiles() {
        // Regression: an empty snapshot must be explicit about having
        // no quantiles (None for every q), never a bogus 0 bound.
        let empty = HistogramSnapshot::empty();
        assert!(empty.is_empty());
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(empty.quantile(q), None);
        }
        let mut h = HistogramSnapshot::empty();
        h.record(1);
        assert!(!h.is_empty());
        assert_eq!(h.quantile(0.5), Some(1));
    }

    #[test]
    fn quantiles_report_bin_upper_bounds() {
        assert_eq!(HistogramSnapshot::empty().quantile(0.5), None);
        let mut h = HistogramSnapshot::empty();
        // 99 fast samples in bin [64,128), one slow one in [4096,8192).
        for _ in 0..99 {
            h.record(100);
        }
        h.record(5000);
        assert_eq!(h.quantile(0.0), Some(127));
        assert_eq!(h.quantile(0.5), Some(127));
        // Nearest-rank p99 of 100 samples is the 99th smallest — still fast.
        assert_eq!(h.quantile(0.99), Some(127));
        // Only the maximum lands in the slow bin.
        assert_eq!(h.quantile(0.995), Some(8191));
        assert_eq!(h.quantile(1.0), Some(8191));
        // Quantiles are monotone in q.
        let mut last = 0;
        for q in [0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!(v >= last);
            last = v;
        }
        // The top bin saturates rather than overflowing.
        let mut top = HistogramSnapshot::empty();
        top.record(u64::MAX);
        assert_eq!(top.quantile(0.5), Some(u64::MAX));
    }

    #[test]
    fn histogram_counts_and_merge() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 7, 1024] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1033);
        assert_eq!(snap.bins.iter().sum::<u64>(), 5);
        assert_eq!(snap.bins[bin_index(7)], 1);
        assert_eq!(snap.bins[bin_index(1)], 2);

        let mut a = snap.clone();
        let mut b = HistogramSnapshot::empty();
        b.record(7);
        a.merge(&b);
        let mut c = b.clone();
        c.merge(&snap);
        assert_eq!(a, c);
    }
}
