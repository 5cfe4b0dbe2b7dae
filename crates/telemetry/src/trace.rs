//! Virtual-time span tracer with Chrome `trace_event` export.
//!
//! Spans are complete events (`ph: "X"`) stamped with virtual
//! start/end nanoseconds and grouped onto tracks keyed by
//! `(pid, tid)`: pid identifies a subsystem (see the `PID_*`
//! constants), tid a timeline within it (client id, shard index, …).
//! Each track is a bounded ring — when full, the oldest span is
//! dropped and counted — so tracing is safe to leave on for arbitrary
//! run lengths. Virtual nanoseconds map to Chrome's microsecond `ts`
//! field as `ns / 1000` with three decimals, so Perfetto renders the
//! virtual timeline losslessly.
//!
//! Recording is gated on an atomic enable flag; when disabled (the
//! default) `record` is a single relaxed load.
//!
//! Spans are causally linked: every record call attaches the ambient
//! [`TraceCtx`] (see [`crate::ctx`]) installed by the originating
//! client op, so a store PUT or lease grant recorded deep in the
//! stack carries the `trace_id` of the op that caused it. Head-based
//! sampling ([`Tracer::set_sample_every`]) keeps traced runs
//! deterministic: whether an op is sampled depends only on its
//! per-client sequence number, never on wall clock or RNG state.

use crate::ctx::{self, TraceCtx};
use crate::json;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Track group for client-side operation spans (tid = client node id).
pub const PID_CLIENT: u32 = 1;
/// Track group for object store spans (tid = shard index or [`BATCH_TID`]).
pub const PID_STORE: u32 = 2;
/// Track group for metadata spans (tid = directory ino low bits).
pub const PID_META: u32 = 3;
/// Track group for lease-manager spans.
pub const PID_LEASE: u32 = 4;
/// Synthetic tid under [`PID_STORE`] carrying whole-batch spans
/// (`store.get_many`, …) as opposed to per-shard service spans.
pub const BATCH_TID: u32 = u32::MAX;

/// Default per-track ring capacity.
pub const DEFAULT_TRACK_CAPACITY: usize = 16 * 1024;

/// One completed span on a `(pid, tid)` track, in virtual nanoseconds.
///
/// `name` is a `Cow` so the hot path (every call site in the stack
/// passes a `&'static str`) records without allocating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    pub pid: u32,
    pub tid: u32,
    pub name: Cow<'static, str>,
    pub cat: &'static str,
    pub start: u64,
    pub end: u64,
    /// Trace of the originating client op (0 = uncorrelated span).
    pub trace_id: u64,
    /// Enclosing span id; 0 marks the trace's root span.
    pub parent_span: u64,
    /// Recorded on the asynchronous durability path: a follow-from
    /// link, excluded from the op's ack critical path.
    pub follows: bool,
}

#[derive(Debug, Default)]
struct Track {
    buf: VecDeque<SpanEvent>,
}

/// Number of independent track-map locks. Tracks hash onto stripes by
/// `(pid, tid)`, so concurrent recorders (clients, shards) rarely
/// contend on the same mutex.
const STRIPES: usize = 64;

fn stripe_of(pid: u32, tid: u32) -> usize {
    let h = ((pid as u64) << 32 | tid as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (h >> 58) as usize % STRIPES
}

/// Bounded multi-track span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    /// Head-based sampling period: 0 records every span, N > 0 records
    /// only spans whose ambient [`TraceCtx`] carries the SAMPLED flag
    /// (set by the op allocator on every Nth op per client).
    sample_every: AtomicU64,
    capacity: usize,
    stripes: Vec<Mutex<BTreeMap<(u32, u32), Track>>>,
    process_names: Mutex<BTreeMap<u32, String>>,
    dropped: AtomicU64,
}

impl Tracer {
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_TRACK_CAPACITY)
    }

    /// `capacity` bounds each `(pid, tid)` ring.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0);
        Tracer {
            enabled: AtomicBool::new(false),
            sample_every: AtomicU64::new(0),
            capacity,
            stripes: (0..STRIPES).map(|_| Mutex::new(BTreeMap::new())).collect(),
            process_names: Mutex::new(BTreeMap::new()),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Cheap gate for callers that want to skip stamping entirely.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Head-based sampling period: with `every == 0` (the default)
    /// every span records; with `every == N > 0` only spans whose
    /// ambient [`TraceCtx`] is head-sampled record. The per-op
    /// sampling decision is made by the op allocator from its op
    /// sequence number (`seq % N == 0`), so it is deterministic across
    /// runs and independent of workload RNG streams.
    pub fn set_sample_every(&self, every: u64) {
        self.sample_every.store(every, Ordering::Relaxed);
    }

    /// Current sampling period (see [`Tracer::set_sample_every`]).
    pub fn sample_every(&self) -> u64 {
        self.sample_every.load(Ordering::Relaxed)
    }

    /// Label a pid group in the exported trace (`process_name` metadata).
    pub fn name_process(&self, pid: u32, name: &str) {
        self.process_names.lock().insert(pid, name.to_string());
    }

    /// Record one completed span, causally attached to the calling
    /// thread's ambient [`TraceCtx`]. No-op while disabled; one
    /// relaxed load on the disabled path.
    pub fn record(
        &self,
        pid: u32,
        tid: u32,
        name: impl Into<Cow<'static, str>>,
        cat: &'static str,
        start: u64,
        end: u64,
    ) {
        if !self.enabled() {
            return;
        }
        self.push(ctx::current(), pid, tid, name.into(), cat, start, end);
    }

    /// Record one completed span under an *explicit* context instead
    /// of the ambient one — used where the causal owner differs from
    /// the currently executing op (e.g. the follow-from durability
    /// span of a journal stamp landed by another op's group commit).
    #[allow(clippy::too_many_arguments)]
    pub fn record_with_ctx(
        &self,
        ctx: TraceCtx,
        pid: u32,
        tid: u32,
        name: impl Into<Cow<'static, str>>,
        cat: &'static str,
        start: u64,
        end: u64,
    ) {
        if !self.enabled() {
            return;
        }
        self.push(ctx, pid, tid, name.into(), cat, start, end);
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &self,
        ctx: TraceCtx,
        pid: u32,
        tid: u32,
        name: Cow<'static, str>,
        cat: &'static str,
        start: u64,
        end: u64,
    ) {
        // With sampling active, only head-sampled contexts record;
        // context-free spans (setup paths outside any op) are skipped
        // too, keeping sampled span volume strictly bounded.
        if self.sample_every() > 0 && !ctx.sampled() {
            return;
        }
        let ev = SpanEvent {
            pid,
            tid,
            name,
            cat,
            start,
            end: end.max(start),
            trace_id: ctx.trace_id,
            parent_span: if ctx.is_none() { 0 } else { ctx.parent_span },
            follows: ctx.background(),
        };
        let mut tracks = self.stripes[stripe_of(pid, tid)].lock();
        let track = tracks.entry((pid, tid)).or_default();
        if track.buf.len() == self.capacity {
            track.buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        track.buf.push_back(ev);
    }

    /// Spans dropped to ring bounds so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// All retained spans, deterministically ordered by
    /// `(pid, tid, start, end, name)`.
    pub fn events(&self) -> Vec<SpanEvent> {
        let mut out: Vec<SpanEvent> = Vec::new();
        for stripe in &self.stripes {
            let tracks = stripe.lock();
            out.extend(tracks.values().flat_map(|t| t.buf.iter().cloned()));
        }
        out.sort_by(|a, b| {
            (a.pid, a.tid, a.start, a.end, &a.name).cmp(&(b.pid, b.tid, b.start, b.end, &b.name))
        });
        out
    }

    /// Registered `pid → process name` labels.
    pub fn process_names(&self) -> BTreeMap<u32, String> {
        self.process_names.lock().clone()
    }

    /// Chrome `trace_event` JSON for this tracer's spans.
    pub fn chrome_trace(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(events.len() * 96 + 64);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        render_group(&mut out, &mut first, &self.process_names(), &events, 0);
        out.push_str("]}");
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Merge several tracers (e.g. one per benchmarked system) into one
/// Chrome trace, remapping pids so the groups don't collide; each
/// process is labelled `"{label} {process}"`.
pub fn merged_chrome_trace(groups: &[(&str, &Tracer)]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (gi, (label, tracer)) in groups.iter().enumerate() {
        let base = (gi as u32) * 16;
        let events = tracer.events();
        let mut names = tracer.process_names();
        for ev in &events {
            names
                .entry(ev.pid)
                .or_insert_with(|| format!("pid{}", ev.pid));
        }
        let named: BTreeMap<u32, String> = names
            .into_iter()
            .map(|(pid, name)| (pid, format!("{label} {name}")))
            .collect();
        out.reserve(events.len() * 96);
        render_group(&mut out, &mut first, &named, &events, base);
    }
    out.push_str("]}");
    out
}

/// `ns / 1000` appended with three decimals: Chrome `ts`/`dur` are
/// microseconds, and three decimals keep nanosecond precision.
fn push_micros(out: &mut String, ns: u64) {
    use std::fmt::Write;
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

/// Append one group's `process_name` metadata and span events to the
/// shared `traceEvents` array body (everything between `[` and `]`).
fn render_group(
    out: &mut String,
    first: &mut bool,
    process_names: &BTreeMap<u32, String>,
    events: &[SpanEvent],
    pid_base: u32,
) {
    use std::fmt::Write;
    for (pid, name) in process_names {
        if !*first {
            out.push(',');
        }
        *first = false;
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"",
            pid_base + pid
        );
        json::escape(out, name);
        out.push_str("\"}}");
    }
    for ev in events {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str("{\"ph\":\"X\",\"name\":\"");
        json::escape(out, &ev.name);
        out.push_str("\",\"cat\":\"");
        json::escape(out, ev.cat);
        out.push_str("\",\"ts\":");
        push_micros(out, ev.start);
        out.push_str(",\"dur\":");
        push_micros(out, ev.end - ev.start);
        let _ = write!(out, ",\"pid\":{},\"tid\":{}", pid_base + ev.pid, ev.tid);
        // Causal linkage rides in `args` so uncorrelated spans keep the
        // legacy shape byte for byte.
        if ev.trace_id != 0 {
            let _ = write!(
                out,
                ",\"args\":{{\"trace\":{},\"parent\":{},\"follows\":{}}}",
                ev.trace_id, ev.parent_span, ev.follows
            );
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        t.record(PID_CLIENT, 0, "op.read", "op", 0, 10);
        assert!(t.events().is_empty());
        t.set_enabled(true);
        t.record(PID_CLIENT, 0, "op.read", "op", 0, 10);
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let t = Tracer::with_capacity(2);
        t.set_enabled(true);
        for i in 0..5u64 {
            t.record(PID_STORE, 7, format!("s{i}"), "store", i * 10, i * 10 + 1);
        }
        let evs = t.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "s3");
        assert_eq!(evs[1].name, "s4");
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn events_are_deterministically_ordered() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.record(PID_STORE, 1, "b", "store", 50, 60);
        t.record(PID_CLIENT, 2, "c", "op", 0, 100);
        t.record(PID_CLIENT, 1, "a", "op", 10, 20);
        t.record(PID_CLIENT, 1, "a0", "op", 10, 15);
        let keys: Vec<(u32, u32, u64)> =
            t.events().iter().map(|e| (e.pid, e.tid, e.start)).collect();
        assert_eq!(keys, vec![(1, 1, 10), (1, 1, 10), (1, 2, 0), (2, 1, 50)]);
        // Ties broken by (end, name): shorter span first.
        assert_eq!(t.events()[0].name, "a0");
    }

    #[test]
    fn nested_spans_stay_within_parent() {
        // Concurrent timelines: four "clients" record parent + child
        // spans with deterministic virtual stamps from different
        // threads; the export must be identical regardless of thread
        // interleaving.
        let t = std::sync::Arc::new(Tracer::new());
        t.set_enabled(true);
        let mut handles = Vec::new();
        for tid in 0..4u32 {
            let t = std::sync::Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let base = tid as u64 * 1_000;
                t.record(PID_CLIENT, tid, "op.read", "op", base, base + 100);
                t.record(PID_CLIENT, tid, "cache.miss", "cache", base + 10, base + 90);
                t.record(
                    PID_CLIENT,
                    tid,
                    "store.get_many",
                    "store",
                    base + 20,
                    base + 80,
                );
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let evs = t.events();
        assert_eq!(evs.len(), 12);
        for tid in 0..4u32 {
            let per: Vec<&SpanEvent> = evs.iter().filter(|e| e.tid == tid).collect();
            let parent = per.iter().find(|e| e.name == "op.read").unwrap();
            for child in per.iter().filter(|e| e.name != "op.read") {
                assert!(child.start >= parent.start && child.end <= parent.end);
            }
        }
        // Deterministic stamps ⇒ byte-identical export across runs.
        assert_eq!(t.chrome_trace(), t.chrome_trace());
    }

    #[test]
    fn chrome_trace_shape() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.name_process(PID_CLIENT, "clients");
        t.record(PID_CLIENT, 3, "op.write", "op", 1_234, 5_678);
        let json = t.chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"args\":{\"name\":\"clients\"}"));
        assert!(json.contains("\"ph\":\"X\",\"name\":\"op.write\",\"cat\":\"op\",\"ts\":1.234,\"dur\":4.444,\"pid\":1,\"tid\":3"));
    }

    #[test]
    fn ambient_ctx_attaches_to_recorded_spans() {
        use crate::ctx::{CtxGuard, TraceCtx};
        let t = Tracer::new();
        t.set_enabled(true);
        t.record(PID_CLIENT, 1, "op.free", "op", 0, 5);
        {
            let _g = CtxGuard::install(TraceCtx::root(99, true));
            t.record(PID_STORE, 2, "shard.write", "store", 1, 4);
            let _bg = CtxGuard::install(TraceCtx::root(99, true).as_background());
            t.record(PID_META, 3, "journal.commit", "meta", 2, 6);
        }
        let evs = t.events();
        let free = evs.iter().find(|e| e.name == "op.free").unwrap();
        assert_eq!(
            (free.trace_id, free.parent_span, free.follows),
            (0, 0, false)
        );
        let store = evs.iter().find(|e| e.name == "shard.write").unwrap();
        assert_eq!(
            (store.trace_id, store.parent_span, store.follows),
            (99, 99, false)
        );
        let meta = evs.iter().find(|e| e.name == "journal.commit").unwrap();
        assert!(meta.follows);
        assert_eq!(meta.trace_id, 99);
        // Causal linkage shows up in the export args.
        let json = t.chrome_trace();
        assert!(json.contains("\"args\":{\"trace\":99,\"parent\":99,\"follows\":true}"));
    }

    #[test]
    fn sampling_gates_unsampled_and_ctx_free_spans() {
        use crate::ctx::{CtxGuard, TraceCtx};
        let t = Tracer::new();
        t.set_enabled(true);
        t.set_sample_every(16);
        assert_eq!(t.sample_every(), 16);
        // No ambient ctx: skipped while sampling is active.
        t.record(PID_CLIENT, 1, "op.skip", "op", 0, 5);
        {
            // Unsampled ctx: skipped too.
            let _g = CtxGuard::install(TraceCtx::root(5, false));
            t.record(PID_CLIENT, 1, "op.unsampled", "op", 0, 5);
        }
        {
            let _g = CtxGuard::install(TraceCtx::root(6, true));
            t.record(PID_CLIENT, 1, "op.kept", "op", 0, 5);
        }
        let evs = t.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].name, "op.kept");
        // Explicit-ctx record respects the same gate.
        t.record_with_ctx(TraceCtx::root(7, false), PID_META, 1, "d", "meta", 0, 1);
        t.record_with_ctx(TraceCtx::root(8, true), PID_META, 1, "e", "meta", 0, 1);
        assert_eq!(t.events().len(), 2);
    }

    #[test]
    fn merged_trace_remaps_pids() {
        let a = Tracer::new();
        a.set_enabled(true);
        a.name_process(PID_CLIENT, "clients");
        a.record(PID_CLIENT, 0, "op.read", "op", 0, 10);
        let b = Tracer::new();
        b.set_enabled(true);
        b.record(PID_STORE, 1, "shard.read", "store", 5, 9);
        let json = merged_chrome_trace(&[("arkfs", &a), ("s3fs", &b)]);
        assert!(json.contains("\"name\":\"arkfs clients\""));
        assert!(json.contains("\"pid\":1,"));
        assert!(json.contains("\"pid\":18,")); // second group: base 16 + PID_STORE
        assert!(json.contains("\"name\":\"s3fs pid2\""));
        assert!(json.ends_with("]}"));
    }
}
