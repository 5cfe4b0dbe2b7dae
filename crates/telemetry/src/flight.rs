//! Flight recorder: a bounded per-track ring of recent structured
//! events — op begin/end, retries, NotLeader redirects, lease
//! handoffs, commit rollbacks — kept cheap enough to leave on, and
//! dumped as JSON when something goes wrong (panic, property-test
//! failure) or on demand (`cli obs dump`).
//!
//! Tracks are keyed by client/node id. Each event carries the ambient
//! [`TraceCtx`] trace id, so a flight-recorder dump cross-references
//! the span graph of the same run. The disabled path is a single
//! relaxed atomic load, mirroring [`crate::Tracer`].

use crate::ctx::{self};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Default per-track ring capacity.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// One structured flight-recorder event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Virtual-time stamp (nanoseconds).
    pub t: u64,
    /// Event kind, e.g. `op.begin`, `lease.redirect`, `commit.retry`.
    pub kind: &'static str,
    /// Kind-specific scalar (op count, redirect target, retry seq, …).
    pub code: i64,
    /// Free-form label; `Cow` so hot sites pass statics without
    /// allocating.
    pub detail: Cow<'static, str>,
    /// Trace of the op in flight when the event fired (0 = none).
    pub trace_id: u64,
}

#[derive(Debug, Default)]
struct Ring {
    buf: VecDeque<FlightEvent>,
}

/// Bounded multi-track structured event recorder.
#[derive(Debug)]
pub struct FlightRecorder {
    enabled: AtomicBool,
    capacity: usize,
    tracks: Mutex<BTreeMap<u32, Ring>>,
    /// Events overwritten by ring bounds before being dumped.
    truncated: AtomicU64,
}

impl FlightRecorder {
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_FLIGHT_CAPACITY)
    }

    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0);
        FlightRecorder {
            enabled: AtomicBool::new(false),
            capacity,
            tracks: Mutex::new(BTreeMap::new()),
            truncated: AtomicU64::new(0),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Cheap gate; the disabled path of [`FlightRecorder::record`] is
    /// this one relaxed load.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record one event on `track` (client/node id), stamping the
    /// ambient trace id. No-op while disabled.
    pub fn record(
        &self,
        track: u32,
        t: u64,
        kind: &'static str,
        code: i64,
        detail: impl Into<Cow<'static, str>>,
    ) {
        if !self.enabled() {
            return;
        }
        let ev = FlightEvent {
            t,
            kind,
            code,
            detail: detail.into(),
            trace_id: ctx::current().trace_id,
        };
        let mut tracks = self.tracks.lock();
        let ring = tracks.entry(track).or_default();
        if ring.buf.len() == self.capacity {
            ring.buf.pop_front();
            self.truncated.fetch_add(1, Ordering::Relaxed);
        }
        ring.buf.push_back(ev);
    }

    /// Events overwritten by ring bounds so far.
    pub fn truncated(&self) -> u64 {
        self.truncated.load(Ordering::Relaxed)
    }

    /// Retained events as `(track, event)`, ordered by track then
    /// recording order (deterministic for a deterministic run).
    pub fn events(&self) -> Vec<(u32, FlightEvent)> {
        let tracks = self.tracks.lock();
        tracks
            .iter()
            .flat_map(|(&track, ring)| ring.buf.iter().map(move |ev| (track, ev.clone())))
            .collect()
    }

    /// Deterministic JSON dump of every retained event, for panic
    /// handlers and `cli obs dump`.
    pub fn dump_json(&self) -> String {
        use std::fmt::Write;
        let events = self.events();
        let mut out = String::with_capacity(events.len() * 96 + 64);
        out.push_str("{\"flightEvents\":[");
        for (i, (track, ev)) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"track\":{track},\"t\":{},\"kind\":\"{}\",\"code\":{},\"detail\":\"",
                ev.t, ev.kind, ev.code
            );
            crate::json::escape(&mut out, &ev.detail);
            let _ = write!(out, "\",\"trace\":{}}}", ev.trace_id);
        }
        let _ = write!(out, "],\"truncated\":{}}}", self.truncated());
        out
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

/// Dumps a flight recorder to stderr if the current thread is
/// panicking when the guard drops — wrap test bodies (especially
/// property tests, whose failures unwind through shrinking) so the
/// recent event history survives the failure.
pub struct FlightDumpGuard<'a> {
    recorder: &'a FlightRecorder,
    label: &'static str,
}

impl<'a> FlightDumpGuard<'a> {
    pub fn new(recorder: &'a FlightRecorder, label: &'static str) -> Self {
        FlightDumpGuard { recorder, label }
    }
}

impl Drop for FlightDumpGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "--- flight recorder dump ({}) ---\n{}",
                self.label,
                self.recorder.dump_json()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{CtxGuard, TraceCtx};

    #[test]
    fn disabled_recorder_records_nothing() {
        let f = FlightRecorder::new();
        f.record(1, 10, "op.begin", 0, "create");
        assert!(f.events().is_empty());
        f.set_enabled(true);
        f.record(1, 10, "op.begin", 0, "create");
        assert_eq!(f.events().len(), 1);
    }

    #[test]
    fn ring_truncates_oldest_and_counts() {
        let f = FlightRecorder::with_capacity(2);
        f.set_enabled(true);
        for i in 0..5i64 {
            f.record(3, i as u64, "op.begin", i, "x");
        }
        let evs = f.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].1.code, 3);
        assert_eq!(evs[1].1.code, 4);
        assert_eq!(f.truncated(), 3);
    }

    #[test]
    fn events_carry_ambient_trace_id() {
        let f = FlightRecorder::new();
        f.set_enabled(true);
        f.record(1, 0, "op.begin", 0, "free");
        {
            let _g = CtxGuard::install(TraceCtx::root(55, true));
            f.record(1, 5, "lease.redirect", 2, "leader=2");
        }
        let evs = f.events();
        assert_eq!(evs[0].1.trace_id, 0);
        assert_eq!(evs[1].1.trace_id, 55);
    }

    #[test]
    fn dump_json_shape_is_deterministic() {
        let f = FlightRecorder::new();
        f.set_enabled(true);
        f.record(2, 7, "commit.retry", 1, "dir=9 \"quoted\"");
        let json = f.dump_json();
        assert!(json.starts_with("{\"flightEvents\":["));
        assert!(json.contains(
            "{\"track\":2,\"t\":7,\"kind\":\"commit.retry\",\"code\":1,\
             \"detail\":\"dir=9 \\\"quoted\\\"\",\"trace\":0}"
        ));
        assert!(json.ends_with("],\"truncated\":0}"));
        assert_eq!(f.dump_json(), f.dump_json());
    }
}
