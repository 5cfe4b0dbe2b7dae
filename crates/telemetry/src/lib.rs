//! Virtual-time telemetry for the ArkFS workspace.
//!
//! One [`Telemetry`] instance per simulated deployment bundles a
//! [`Registry`] of named counters/gauges/latency histograms, a
//! [`Tracer`] of causally-linked virtual-time spans exportable as
//! Chrome `trace_event` JSON (open in `chrome://tracing` or
//! Perfetto), and a [`FlightRecorder`] of recent structured events
//! for post-mortem debugging. All ride the simulation's virtual
//! clock: stamps are virtual nanoseconds supplied by callers, so a
//! given workload produces a deterministic trace, deterministic
//! histograms, and a deterministic flight log.
//!
//! Causal tracing: [`ctx`] carries a per-op [`TraceCtx`] through the
//! stack (ambient thread-local + RPC envelope), [`critpath`] walks
//! completed traces and attributes each op's ack latency to named
//! pipeline segments.

#![forbid(unsafe_code)]

pub mod critpath;
pub mod ctx;
pub mod flight;
pub mod hist;
pub mod json;
pub mod registry;
pub mod trace;

pub use ctx::{CtxGuard, TraceCtx};
pub use flight::{FlightDumpGuard, FlightEvent, FlightRecorder};
pub use hist::{bucket_bounds, bucket_index, HistogramSnapshot, LatencyHistogram, BUCKETS};
pub use registry::{Counter, Gauge, HistogramSet, MetricValue, Registry};
pub use trace::{
    merged_chrome_trace, SpanEvent, Tracer, BATCH_TID, PID_CLIENT, PID_LEASE, PID_META, PID_STORE,
};

use std::sync::Arc;

/// Shared telemetry handle: the registry, the span tracer, and the
/// flight recorder.
#[derive(Debug, Default)]
pub struct Telemetry {
    pub registry: Registry,
    pub tracer: Tracer,
    pub flight: FlightRecorder,
}

impl Telemetry {
    /// Fresh instance with the default process labels; tracing and
    /// flight recording start disabled.
    pub fn new() -> Arc<Self> {
        let t = Telemetry::default();
        t.tracer.name_process(PID_CLIENT, "clients");
        t.tracer.name_process(PID_STORE, "object store");
        t.tracer.name_process(PID_META, "metadata");
        t.tracer.name_process(PID_LEASE, "lease managers");
        Arc::new(t)
    }

    /// Publish the bounded-ring loss counters into the registry —
    /// `trace.dropped.count` (tracer ring overwrote unexported spans)
    /// and `trace.truncated.count` (flight recorder ring overwrote
    /// unexported events) — so registry snapshots (the `ablate`
    /// table) surface silent data loss. Call before snapshotting.
    pub fn publish_ring_losses(&self) {
        self.registry.counter("trace.dropped.count").add(
            self.tracer
                .dropped()
                .saturating_sub(self.registry.counter("trace.dropped.count").get()),
        );
        self.registry.counter("trace.truncated.count").add(
            self.flight
                .truncated()
                .saturating_sub(self.registry.counter("trace.truncated.count").get()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_losses_publish_idempotently() {
        let tel = Telemetry::new();
        tel.tracer.set_enabled(true);
        // Overflow a tiny flight ring via the default-capacity tracer?
        // Use the flight recorder directly: capacity is large, so force
        // the counters through publish twice and check idempotence.
        tel.publish_ring_losses();
        assert_eq!(tel.registry.counter("trace.dropped.count").get(), 0);
        tel.publish_ring_losses();
        assert_eq!(tel.registry.counter("trace.dropped.count").get(), 0);
        assert_eq!(tel.registry.counter("trace.truncated.count").get(), 0);
    }
}
