//! One benchmark run: rounds of one workload for a fixed time (or a
//! fixed count), reduced to the end-to-end metrics (tracing off) or the
//! per-layer metrics (traced rounds, then the probes).
//!
//! Round `k` draws its inputs from `mix(seed, k)`, and a run reports the
//! median over its rounds. Repeating one input instead would make a
//! run's virtual metrics exact for its seed, but then they differ from
//! seed to seed by what one draw differs: between ten seeds the
//! inter-quartile spread of `v_query_kops` is 6.1 % on `fio_seq` (the
//! slowest of eight clients' 64 random reads sets it) and 2.5 % on
//! `zipf_create`, against 0.8 % and 0.6 % for the median over a run's
//! 10-27 draws (README, "Measured spread").

use crate::gen::mix;
use crate::metrics::{
    median_of, per_layer, round_counts, round_end_to_end, span_values, Values, END_TO_END,
};
use crate::probes::{self, Effort};
use crate::procfs;
use crate::spans::{chrome_trace, Recorder, Span};
use crate::stats::median;
use crate::workloads::{round, Observe, Round, Sizes, Workload};
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// How long a run keeps starting rounds.
#[derive(Debug, Clone, Copy)]
pub enum Length {
    /// Until this much host time has passed (the `--seconds` contract).
    Time(Duration),
    /// Exactly this many rounds, so that virtual metrics repeat bit for
    /// bit between the suite's repetitions.
    Rounds(u32),
}

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub length: Length,
    pub trace: bool,
    pub sizes: Sizes,
    /// Where a traced run writes its Chrome trace.
    pub trace_dir: std::path::PathBuf,
}

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub rounds: u32,
    pub metrics: Vec<Metric>,
}

/// Spans written to a trace file; a round records ten times as many.
const TRACE_FILE_SPANS: usize = 50_000;

#[derive(Default)]
struct Totals {
    attempted: u64,
    failed: u64,
}

impl Totals {
    fn add(&mut self, r: &Round) {
        self.attempted += r.ops();
        self.failed += r.failed();
    }
}

/// Rounds continue while at least half of the next one fits the time.
fn keep_going(length: Length, started: Instant, done: usize, last: Duration) -> bool {
    match length {
        Length::Rounds(n) => done < n as usize,
        Length::Time(limit) => started.elapsed() + last / 2 < limit,
    }
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    if args.trace {
        run_traced(args)
    } else {
        run_plain(args)
    }
}

fn run_plain(args: &RunArgs) -> Result<RunResult, String> {
    let started = Instant::now();
    let mut totals = Totals::default();
    let mut per_round: Vec<Values> = Vec::new();
    loop {
        let t = Instant::now();
        let seed = mix(args.seed, per_round.len() as u64, 0xB0);
        let r = round(args.workload, &args.sizes, seed, &Observe::default())?;
        totals.add(&r);
        per_round.push(round_end_to_end(&r));
        drop(r);
        if !keep_going(args.length, started, per_round.len(), t.elapsed()) {
            break;
        }
    }
    let mut values = median_of(&per_round);
    let peak = procfs::peak_rss_bytes().map_err(|e| e.to_string())?;
    values.insert("peak_rss_mib".into(), peak as f64 / (1 << 20) as f64);
    let metrics = END_TO_END
        .iter()
        .map(|m| Metric {
            name: m.name.to_string(),
            unit: m.unit,
            value: values.get(m.name).copied().unwrap_or(0.0),
        })
        .collect();
    Ok(RunResult {
        correct: totals.failed == 0,
        attempted: totals.attempted,
        failed: totals.failed,
        rounds: per_round.len() as u32,
        metrics,
    })
}

/// Rounds alternating untraced and traced, then the probes. The traced
/// rounds give the per-layer numbers; the untraced ones are the base of
/// `trace.overhead_frac` and of `proc.rss_bytes_per_file`.
fn run_traced(args: &RunArgs) -> Result<RunResult, String> {
    let started = Instant::now();
    let rss_at_start = procfs::rss_bytes().map_err(|e| e.to_string())?;
    let mut totals = Totals::default();
    let (mut plain_kops, mut traced_kops) = (Vec::new(), Vec::new());
    let mut per_round: Vec<Values> = Vec::new();
    let last_spans: Vec<Span>;
    // Resident growth over the first round, per file it holds at its
    // peak. Read before any span is recorded and before the probes run,
    // so the peak is the workload's; later rounds reuse the heap.
    let mut rss_per_file = None;
    loop {
        let t = Instant::now();
        let seed = mix(args.seed, per_round.len() as u64, 0xB0);
        let r = round(args.workload, &args.sizes, seed, &Observe::default())?;
        totals.add(&r);
        plain_kops.push(round_end_to_end(&r)["host_kops"]);
        if rss_per_file.is_none() {
            let peak = procfs::peak_rss_bytes().map_err(|e| e.to_string())?;
            rss_per_file = Some(peak.saturating_sub(rss_at_start) as f64 / r.files.max(1) as f64);
        }
        drop(r);

        let rec = Rc::new(Recorder::default());
        let obs = Observe {
            rec: Some(Rc::clone(&rec)),
            sys_trace: true,
        };
        let r = round(args.workload, &args.sizes, seed, &obs)?;
        drop(obs);
        totals.add(&r);
        traced_kops.push(round_end_to_end(&r)["host_kops"]);
        let mut v = round_counts(&r);
        drop(r);
        let spans = Rc::try_unwrap(rec)
            .map_err(|_| "a client outlived its round and still holds the recorder")?
            .into_spans();
        v.extend(span_values(&spans, args.workload == Workload::TcpHard));
        per_round.push(v);
        if !keep_going(args.length, started, per_round.len(), t.elapsed()) {
            last_spans = spans;
            break;
        }
    }
    let mut values = median_of(&per_round);
    values.insert(
        "proc.rss_bytes_per_file".into(),
        rss_per_file.unwrap_or(0.0),
    );
    values.insert(
        "trace.overhead_frac".into(),
        1.0 - median(&traced_kops) / median(&plain_kops),
    );
    values.extend(
        probes::run_all(Effort::QUICK)?
            .into_iter()
            .map(|p| (p.name.to_string(), p.median)),
    );

    std::fs::create_dir_all(&args.trace_dir)
        .and_then(|()| {
            let path = args
                .trace_dir
                .join(format!("trace-{}.json", args.workload.name()));
            std::fs::write(path, chrome_trace(&last_spans, TRACE_FILE_SPANS))
        })
        .map_err(|e| format!("writing the trace under {}: {e}", args.trace_dir.display()))?;

    let metrics = per_layer()
        .into_iter()
        .map(|m| Metric {
            value: values.get(&m.name).copied().unwrap_or(0.0),
            name: m.name,
            unit: m.unit,
        })
        .collect();
    Ok(RunResult {
        correct: totals.failed == 0,
        attempted: totals.attempted,
        failed: totals.failed,
        rounds: per_round.len() as u32 * 2,
        metrics,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // Rust prints the shortest digits that read back as the same f64.
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line of the contract: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(r: &RunResult) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct, r.attempted, r.failed
    );
    for (i, m) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn args(workload: Workload, trace: bool, dir: &std::path::Path) -> RunArgs {
        RunArgs {
            workload,
            seed: 11,
            length: Length::Rounds(1),
            trace,
            sizes: Sizes::SMOKE,
            trace_dir: dir.to_path_buf(),
        }
    }

    #[test]
    fn a_plain_run_prints_every_end_to_end_metric_and_none_is_zero() {
        let dir = std::env::temp_dir();
        let r = run(&args(Workload::MdtestHard, false, &dir)).unwrap();
        assert!(r.correct && r.failed == 0 && r.attempted > 0);
        let parsed = json::parse(&result_line(&r)).unwrap();
        let metrics = parsed.get("metrics").unwrap();
        for m in &END_TO_END {
            let v = metrics
                .get(m.name)
                .unwrap_or_else(|| panic!("{} missing", m.name));
            assert!(
                v.get("value").unwrap().as_f64().unwrap() > 0.0,
                "{} is 0",
                m.name
            );
            assert_eq!(v.get("unit").unwrap().as_str().unwrap(), m.unit);
        }
        assert_eq!(metrics.as_object().unwrap().len(), END_TO_END.len());
        assert_eq!(parsed.as_object().unwrap().len(), 4);
    }

    #[test]
    fn a_traced_run_prints_every_per_layer_metric_and_writes_a_trace() {
        let dir = std::env::temp_dir().join(format!("arkfs-benchmark-test-{}", std::process::id()));
        let r = run(&args(Workload::TcpHard, true, &dir)).unwrap();
        assert!(r.correct, "failed {}", r.failed);
        let parsed = json::parse(&result_line(&r)).unwrap();
        let metrics = parsed.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), per_layer().len());
        let value = |name: &str| {
            metrics
                .iter()
                .find(|(k, _)| k == name)
                .unwrap()
                .1
                .get("value")
                .unwrap()
                .as_f64()
                .unwrap()
        };
        assert!(value("tcp.fwd.host_p50_us") > value("tcp.local.host_p50_us"));
        assert!(value("rpc.frames_per_op") >= 1.0);
        assert!(value("vfs.create.host_p50_ns") > 0.0);
        let trace = std::fs::read_to_string(dir.join("trace-tcp_hard.json")).unwrap();
        let events = json::parse(&trace).unwrap();
        let first = &events.get("traceEvents").unwrap().as_array().unwrap()[0];
        for key in ["name", "ts", "dur"] {
            assert!(first.get(key).is_some(), "{key}");
        }
        for key in ["span", "parent", "trace"] {
            assert!(first.get("args").unwrap().get(key).is_some(), "{key}");
        }
        std::fs::remove_dir_all(dir).unwrap();
    }
}
