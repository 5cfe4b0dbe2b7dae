//! Harness-side tracing. Spans are recorded from the benchmark's own
//! files, around the calls into the system: run → phase → op → `Vfs`
//! call. They stay in memory until the run ends; the traced run is
//! never used for an end-to-end number.

use crate::stats::nearest_rank;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that caused this one (`NO_PARENT` for the run).
    pub parent: u32,
    /// One id per op, shared by the op span and its `Vfs` calls; 0 above
    /// op level.
    pub trace: u64,
    /// Host nanoseconds since the recorder was made.
    pub h0: u64,
    pub h1: u64,
    /// The calling client's virtual clock at start and end.
    pub v0: u64,
    pub v1: u64,
}

/// Single-threaded span sink: every workload issues its ops from one
/// driver thread, so a `RefCell` is all the synchronisation needed.
pub struct Recorder {
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    current: Cell<u32>,
    trace: Cell<u64>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            current: Cell::new(NO_PARENT),
            trace: Cell::new(0),
        }
    }
}

impl Recorder {
    fn host_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a child of the innermost open span.
    pub fn open(&self, name: &'static str, v_now: u64) -> u32 {
        let mut spans = self.spans.borrow_mut();
        let idx = spans.len() as u32;
        spans.push(Span {
            name,
            parent: self.current.get(),
            trace: self.trace.get(),
            h0: self.host_ns(),
            h1: 0,
            v0: v_now,
            v1: v_now,
        });
        self.current.set(idx);
        idx
    }

    pub fn close(&self, idx: u32, v_now: u64) {
        let h1 = self.host_ns();
        let mut spans = self.spans.borrow_mut();
        let s = &mut spans[idx as usize];
        s.h1 = h1;
        s.v1 = v_now;
        self.current.set(s.parent);
    }

    /// Open an op-level span under its own trace id.
    pub fn open_op(&self, name: &'static str, trace: u64, v_now: u64) -> u32 {
        self.trace.set(trace);
        self.open(name, v_now)
    }

    pub fn close_op(&self, idx: u32, v_now: u64) {
        self.close(idx, v_now);
        self.trace.set(0);
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Host self time of every span: its duration minus the part of that
/// interval its children cover. Children of one parent never overlap
/// here (one driver thread), so the cover is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.h1.saturating_sub(s.h0)).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.h1.saturating_sub(s.h0));
        }
    }
    own
}

/// Ascending host and virtual durations per span name.
pub fn durations_by_name(spans: &[Span]) -> BTreeMap<&'static str, (Vec<u64>, Vec<u64>)> {
    let mut out: BTreeMap<&'static str, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0.push(s.h1.saturating_sub(s.h0));
        e.1.push(s.v1.saturating_sub(s.v0));
    }
    for (h, v) in out.values_mut() {
        h.sort_unstable();
        v.sort_unstable();
    }
    out
}

pub fn p50(sorted: &[u64]) -> f64 {
    nearest_rank(sorted, 0.5) as f64
}

/// Chrome trace-event JSON ("X" events, microsecond timestamps). Each
/// event carries name, start, duration, and in `args` the span id, the
/// parent span id, the op's trace id and the virtual interval. Only the
/// first `limit` spans are written: a run records a few hundred
/// thousand, more than a trace viewer opens.
pub fn chrome_trace(spans: &[Span], limit: usize) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().take(limit).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{},\"parent\":{},\"trace\":{},\"v_start_ns\":{},\"v_end_ns\":{}}}}}",
            s.name,
            s.h0 as f64 / 1e3,
            s.h1.saturating_sub(s.h0) as f64 / 1e3,
            i,
            parent,
            s.trace,
            s.v0,
            s.v1
        );
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"spans_recorded\":{},\"spans_written\":{}}}}}\n",
        spans.len(),
        spans.len().min(limit)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, h0: u64, h1: u64) -> Span {
        Span {
            name,
            parent,
            trace: 0,
            h0,
            h1,
            v0: 0,
            v1: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("run", NO_PARENT, 0, 1000),
            span("phase", 0, 100, 900),
            span("op", 1, 100, 400),
            span("vfs.create", 2, 150, 350),
            span("op", 1, 500, 800),
        ];
        assert_eq!(self_times(&spans), vec![200, 200, 100, 200, 300]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 1000);
    }

    #[test]
    fn recorder_links_parents_and_traces() {
        let r = Recorder::default();
        let run = r.open("run", 0);
        let op = r.open_op("op.create", 77, 10);
        let call = r.open("vfs.create", 10);
        r.close(call, 25);
        r.close_op(op, 30);
        r.close(run, 30);
        let spans = r.into_spans();
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!((spans[1].parent, spans[1].trace), (0, 77));
        assert_eq!((spans[2].parent, spans[2].trace), (1, 77));
        assert_eq!((spans[2].v0, spans[2].v1), (10, 25));
        assert_eq!(spans[0].trace, 0);
        assert!(spans.iter().all(|s| s.h1 >= s.h0));
        let json = chrome_trace(&spans, 2);
        assert!(json.contains("\"name\":\"op.create\"") && json.contains("\"trace\":77"));
        assert!(json.contains("\"spans_recorded\":3") && json.contains("\"spans_written\":2"));
        assert!(!json.contains("vfs.create"));
    }

    #[test]
    fn durations_group_and_sort() {
        let spans = vec![
            span("a", NO_PARENT, 0, 30),
            span("a", 0, 5, 15),
            span("b", 0, 20, 21),
        ];
        let d = durations_by_name(&spans);
        assert_eq!(d["a"].0, vec![10, 30]);
        assert_eq!(p50(&d["a"].0), 10.0);
        assert_eq!(d["b"].0, vec![1]);
    }
}
