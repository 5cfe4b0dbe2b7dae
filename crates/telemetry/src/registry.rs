//! Named metrics registry: counters, gauges, latency histograms.
//!
//! Metric names follow `subsystem.verb.unit` (e.g. `store.put.count`,
//! `cache.hit.count`, `op.read.latency_ns`). Handles are `Arc`s
//! resolved once and then updated lock-free; the registry maps are
//! only locked on handle resolution and on [`Registry::snapshot`].

use crate::hist::{HistogramSnapshot, LatencyHistogram};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Monotone event counter with saturating (never wrapping) adds.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(n))
            });
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Signed instantaneous value (queue depths, resident entries).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Keep the larger of the current value and `v` (a high-water mark).
    pub fn raise(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Point-in-time value of one metric in a [`Registry::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramSnapshot),
}

/// One registry per simulated deployment; every subsystem resolves its
/// handles from the same instance so `snapshot()` sees the whole stack.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<LatencyHistogram>>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolve (creating on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.counters.lock();
        Arc::clone(m.entry(name.to_string()).or_default())
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.gauges.lock();
        Arc::clone(m.entry(name.to_string()).or_default())
    }

    pub fn histogram(&self, name: &str) -> Arc<LatencyHistogram> {
        let mut m = self.histograms.lock();
        Arc::clone(m.entry(name.to_string()).or_default())
    }

    /// Preregister one histogram per entry in `names`, registered as
    /// `{name}{suffix}` for every one of `suffixes` (one histogram under
    /// each of those names), and return a lock-free handle set indexed
    /// like `names`. Hot paths that record into a fixed family of
    /// histograms (e.g. one per Vfs op) resolve their handles once
    /// instead of taking the registry lock per record.
    pub fn histogram_set(&self, names: &[&str], suffixes: &[&str]) -> HistogramSet {
        let (suffix, aliases) = suffixes.split_first().expect("at least one suffix");
        let mut m = self.histograms.lock();
        let hists = names
            .iter()
            .map(|name| {
                let hist = Arc::clone(m.entry(format!("{name}{suffix}")).or_default());
                for alias in aliases {
                    m.insert(format!("{name}{alias}"), Arc::clone(&hist));
                }
                hist
            })
            .collect();
        HistogramSet { hists }
    }

    /// All metrics, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let mut out: Vec<(String, MetricValue)> = Vec::new();
        for (k, v) in self.counters.lock().iter() {
            out.push((k.clone(), MetricValue::Counter(v.get())));
        }
        for (k, v) in self.gauges.lock().iter() {
            out.push((k.clone(), MetricValue::Gauge(v.get())));
        }
        for (k, v) in self.histograms.lock().iter() {
            out.push((k.clone(), MetricValue::Histogram(v.snapshot())));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// An immutable bundle of histogram handles resolved once from a
/// [`Registry`] (see [`Registry::histogram_set`]). Lookups never lock.
#[derive(Debug)]
pub struct HistogramSet {
    hists: Vec<Arc<LatencyHistogram>>,
}

impl HistogramSet {
    /// The preregistered histogram at `index` in the set's names.
    ///
    /// # Panics
    /// Panics when `index` is past the names passed to
    /// [`Registry::histogram_set`] — the set is meant for fixed,
    /// compile-time families of names, so an unknown index is a bug.
    pub fn get(&self, index: usize) -> &Arc<LatencyHistogram> {
        self.hists
            .get(index)
            .unwrap_or_else(|| panic!("histogram #{index} was not preregistered"))
    }

    /// Number of preregistered histograms.
    pub fn len(&self) -> usize {
        self.hists.len()
    }

    pub fn is_empty(&self) -> bool {
        self.hists.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_at_u64_max() {
        let c = Counter::default();
        c.add(u64::MAX - 1);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        c.add(12345);
        assert_eq!(c.get(), u64::MAX, "counter pins at u64::MAX");
    }

    #[test]
    fn handles_are_shared_by_name() {
        let r = Registry::new();
        let a = r.counter("store.put.count");
        let b = r.counter("store.put.count");
        a.add(3);
        b.add(4);
        assert_eq!(r.counter("store.put.count").get(), 7);
    }

    #[test]
    fn histogram_set_shares_registry_handles() {
        let r = Registry::new();
        let set = r.histogram_set(&["op.read", "op.write"], &[".latency_ns", ".ack_ns"]);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        set.get(0).record(7);
        // The set's handle and a later registry resolution are the same
        // histogram, under every suffix.
        assert_eq!(r.histogram("op.read.latency_ns").snapshot().count(), 1);
        assert!(Arc::ptr_eq(
            &r.histogram("op.read.latency_ns"),
            &r.histogram("op.read.ack_ns")
        ));
        r.histogram("op.write.ack_ns").record(3);
        assert_eq!(set.get(1).snapshot().count(), 1);
        // A second resolution of the family hands back the same handles.
        let again = r.histogram_set(&["op.read", "op.write"], &[".latency_ns", ".ack_ns"]);
        assert!(Arc::ptr_eq(set.get(1), again.get(1)));
        assert_eq!(r.snapshot().len(), 4);
    }

    #[test]
    #[should_panic(expected = "was not preregistered")]
    fn histogram_set_rejects_unknown_names() {
        let r = Registry::new();
        let set = r.histogram_set(&["op.read"], &[".latency_ns"]);
        let _ = set.get(1);
    }

    #[test]
    fn snapshot_is_sorted_across_kinds() {
        let r = Registry::new();
        r.counter("z.last.count").inc();
        r.histogram("m.middle.latency_ns").record(5);
        r.gauge("a.first.depth").set(-2);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec!["a.first.depth", "m.middle.latency_ns", "z.last.count"]
        );
        assert_eq!(snap[0].1, MetricValue::Gauge(-2));
        assert_eq!(snap[2].1, MetricValue::Counter(1));
        match &snap[1].1 {
            MetricValue::Histogram(h) => assert_eq!(h.count(), 1),
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}
