//! Phase throughput accounting for the benchmark harness.

use crate::{Nanos, SEC};
use parking_lot::Mutex;

/// Collects per-client completion spans for one benchmark phase and turns
/// them into an aggregate throughput, the way mdtest reports it: total
/// operations divided by the phase makespan (first start to last finish).
#[derive(Debug, Default)]
pub struct ThroughputMeter {
    inner: Mutex<MeterInner>,
}

/// Raw samples kept before the meter switches from exact order
/// statistics to reservoir sampling. Sized so every committed bench
/// phase (≤ 100k ops at default scales) stays exact to the nanosecond,
/// while a 16k-client scaling run recording millions of per-op
/// latencies holds at most ~2 MiB instead of growing without bound.
pub const SAMPLE_CAP: usize = 262_144;

#[derive(Debug, Default)]
struct MeterInner {
    ops: u64,
    start: Option<Nanos>,
    end: Nanos,
    /// Recorded per-op latencies: every sample raw up to the cap, a
    /// uniform reservoir (Algorithm R) beyond it. Exact percentiles for
    /// phases where many ops share one deterministic cost would
    /// otherwise collapse p50 and p99 onto the same log-linear bucket
    /// upper bound; the reservoir keeps that exactness below the cap
    /// and bounds host memory above it.
    lat: Vec<Nanos>,
    /// Total samples recorded (may exceed `lat.len()` once capped).
    lat_count: u64,
    /// Exact running sum and max, independent of sampling.
    lat_sum: u128,
    lat_max: Nanos,
    /// SplitMix64 state for reservoir replacement. Fixed seed: with a
    /// deterministic record order (the event engine's), the sampled
    /// percentiles are reproducible run to run.
    rng: u64,
}

const RESERVOIR_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ThroughputMeter {
    pub fn new() -> Self {
        let meter = Self::default();
        meter.inner.lock().rng = RESERVOIR_SEED;
        meter
    }

    /// Record one client's span: it performed `ops` operations between
    /// virtual times `start` and `end`, with optional per-op latencies.
    pub fn record_span(&self, ops: u64, start: Nanos, end: Nanos) {
        let mut inner = self.inner.lock();
        inner.ops += ops;
        inner.start = Some(inner.start.map_or(start, |s| s.min(start)));
        inner.end = inner.end.max(end);
    }

    /// Record one operation's latency. The first [`SAMPLE_CAP`] samples
    /// are kept raw; beyond that each new sample replaces a uniformly
    /// chosen reservoir slot with probability cap/n (Algorithm R), so
    /// the retained set stays a uniform sample of everything recorded.
    pub fn record_latency(&self, lat: Nanos) {
        let mut inner = self.inner.lock();
        inner.lat_count += 1;
        inner.lat_sum += lat as u128;
        inner.lat_max = inner.lat_max.max(lat);
        if inner.lat.len() < SAMPLE_CAP {
            inner.lat.push(lat);
        } else {
            let n = inner.lat_count;
            let j = splitmix(&mut inner.rng) % n;
            if (j as usize) < SAMPLE_CAP {
                inner.lat[j as usize] = lat;
            }
        }
    }

    /// Total latency samples recorded (including ones the reservoir has
    /// since replaced).
    pub fn latency_samples(&self) -> u64 {
        self.inner.lock().lat_count
    }

    /// Whether percentiles will be reservoir estimates rather than
    /// exact order statistics.
    pub fn is_sampled(&self) -> bool {
        self.inner.lock().lat_count as usize > SAMPLE_CAP
    }

    /// Finish the phase and produce its result. Percentiles are exact
    /// order statistics (nearest-rank) while at most [`SAMPLE_CAP`]
    /// latencies were recorded, and nearest-rank estimates over the
    /// uniform reservoir beyond that; mean and max are always exact.
    pub fn finish(&self, name: impl Into<String>) -> PhaseResult {
        let mut inner = self.inner.lock();
        let start = inner.start.unwrap_or(0);
        let makespan = inner.end.saturating_sub(start);
        inner.lat.sort_unstable();
        let lat = &inner.lat;
        let n = lat.len();
        let pct = |q: f64| -> Nanos {
            if n == 0 {
                return 0;
            }
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            lat[rank - 1]
        };
        let mean = if inner.lat_count == 0 {
            0.0
        } else {
            inner.lat_sum as f64 / inner.lat_count as f64
        };
        PhaseResult {
            name: name.into(),
            ops: inner.ops,
            makespan,
            latency_mean: mean,
            latency_p50: pct(0.50),
            latency_p90: pct(0.90),
            latency_p99: pct(0.99),
            latency_p999: pct(0.999),
            latency_max: inner.lat_max,
        }
    }
}

/// One benchmark phase's aggregate result. Latency percentiles are
/// exact (nearest-rank) order statistics in virtual nanoseconds over
/// whatever per-op latencies were recorded (all zero when none were),
/// with p50 ≤ p90 ≤ p99 ≤ p999 ≤ max.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseResult {
    pub name: String,
    pub ops: u64,
    /// Virtual makespan of the phase.
    pub makespan: Nanos,
    pub latency_mean: f64,
    pub latency_p50: Nanos,
    pub latency_p90: Nanos,
    pub latency_p99: Nanos,
    pub latency_p999: Nanos,
    pub latency_max: Nanos,
}

impl PhaseResult {
    /// Aggregate throughput in operations per virtual second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.ops as f64 * SEC as f64 / self.makespan as f64
    }

    /// Bandwidth in MiB per virtual second given bytes moved.
    pub fn bandwidth_mib_s(&self, bytes: u64) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        bytes as f64 / (1024.0 * 1024.0) * SEC as f64 / self.makespan as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_computes_makespan_throughput() {
        let m = ThroughputMeter::new();
        // Two clients: [0, 2s] with 100 ops and [1s, 3s] with 50 ops.
        m.record_span(100, 0, 2 * SEC);
        m.record_span(50, SEC, 3 * SEC);
        let r = m.finish("create");
        assert_eq!(r.ops, 150);
        assert_eq!(r.makespan, 3 * SEC);
        assert!((r.ops_per_sec() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_computation() {
        let m = ThroughputMeter::new();
        m.record_span(1, 0, SEC);
        let r = m.finish("write");
        let bw = r.bandwidth_mib_s(1024 * 1024 * 100);
        assert!((bw - 100.0).abs() < 1e-9);
    }

    #[test]
    fn zero_makespan_throughput_is_zero() {
        let m = ThroughputMeter::new();
        m.record_span(10, 5, 5);
        let r = m.finish("noop");
        assert_eq!(r.ops_per_sec(), 0.0);
        assert_eq!(r.bandwidth_mib_s(100), 0.0);
    }

    #[test]
    fn meter_reports_ordered_latency_percentiles() {
        let m = ThroughputMeter::new();
        m.record_span(1000, 0, SEC);
        for i in 1..=1000u64 {
            m.record_latency(i * 1_000);
        }
        let r = m.finish("read");
        assert_eq!(r.latency_p50, 500_000, "exact nearest-rank p50");
        assert_eq!(r.latency_p90, 900_000);
        assert_eq!(r.latency_p99, 990_000);
        assert_eq!(r.latency_p999, 999_000);
        assert_eq!(r.latency_max, 1_000_000);
    }

    #[test]
    fn exact_percentiles_do_not_quantize() {
        // The old log-linear summary reported the bucket's upper bound:
        // 1000 identical 50 µs ops came back as p50 = p99 = 51_199 ns.
        // Exact order statistics return the recorded value itself.
        let m = ThroughputMeter::new();
        m.record_span(1000, 0, SEC);
        for _ in 0..1000 {
            m.record_latency(50_000);
        }
        let r = m.finish("create");
        assert_eq!(r.latency_p50, 50_000);
        assert_eq!(r.latency_p99, 50_000);
        assert_eq!(r.latency_max, 50_000);
        assert!((r.latency_mean - 50_000.0).abs() < 1e-9);
    }

    #[test]
    fn reservoir_bounds_memory_and_stays_accurate() {
        // 4x the cap: retained samples never exceed SAMPLE_CAP, mean
        // and max stay exact, and percentile estimates of a uniform
        // ramp stay within 1% of truth.
        let m = ThroughputMeter::new();
        let total = (SAMPLE_CAP * 4) as u64;
        m.record_span(total, 0, SEC);
        for i in 1..=total {
            m.record_latency(i);
        }
        assert!(m.is_sampled());
        assert_eq!(m.latency_samples(), total);
        assert!(m.inner.lock().lat.len() <= SAMPLE_CAP);
        let r = m.finish("hot");
        assert_eq!(r.latency_max, total, "max is exact");
        assert!((r.latency_mean - (total + 1) as f64 / 2.0).abs() < 1e-3);
        for (q, v) in [(0.50, r.latency_p50), (0.99, r.latency_p99)] {
            let truth = (q * total as f64) as u64;
            let err = (v as f64 - truth as f64).abs() / total as f64;
            assert!(err < 0.01, "p{q}: estimate {v} vs truth {truth}");
        }
        assert!(r.latency_p50 <= r.latency_p90);
        assert!(r.latency_p90 <= r.latency_p99);
        assert!(r.latency_p99 <= r.latency_p999);
        assert!(r.latency_p999 <= r.latency_max);
    }

    #[test]
    fn reservoir_is_deterministic() {
        let run = || {
            let m = ThroughputMeter::new();
            m.record_span(1, 0, SEC);
            for i in 0..(SAMPLE_CAP as u64 + 50_000) {
                m.record_latency(i.wrapping_mul(0x9E37_79B9) % 1_000_000);
            }
            m.finish("x")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn below_cap_stays_exact() {
        let m = ThroughputMeter::new();
        m.record_span(100, 0, SEC);
        for i in 1..=100u64 {
            m.record_latency(i);
        }
        assert!(!m.is_sampled());
        let r = m.finish("cold");
        assert_eq!(r.latency_p50, 50);
        assert_eq!(r.latency_p99, 99);
        assert_eq!(r.latency_max, 100);
    }

    #[test]
    fn no_latencies_means_zero_percentiles() {
        let m = ThroughputMeter::new();
        m.record_span(10, 0, SEC);
        let r = m.finish("stat");
        assert_eq!(r.latency_p50, 0);
        assert_eq!(r.latency_p99, 0);
        assert_eq!(r.latency_max, 0);
    }
}
