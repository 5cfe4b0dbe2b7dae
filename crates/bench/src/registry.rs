//! The figure registry: what a figure *is* — its name, the shape the
//! paper claims for it, its scales, its artifacts and its metric keys —
//! declared once per figure as a [`Figure`] row.
//!
//! A row's [`Metric`] list is read by both sides of a `BENCH_*.json`
//! document: [`Run::record`] expands it into the keys a run emits and
//! [`check_bench`] expands it into the keys a document must (or may)
//! carry, so emit and schema cannot disagree and adding a metric to a
//! figure is one more entry in its row.

use arkfs_simkit::PhaseResult;
use arkfs_telemetry::json::{self, Value};
use arkfs_telemetry::{critpath, merged_chrome_trace, Telemetry, Tracer};
use std::path::Path;
use std::sync::Arc;

/// Version of the `BENCH_*.json` document layout. Consumers should
/// reject documents with an unknown version; purely additive metric
/// fields do not bump it. v3 adds critical-path attribution metrics
/// (`<phase>_cp_<segment>_ns`, from the causal tracing layer) to
/// benches that run traced. v4 adds fig9's required
/// `leader_rpcs_per_create`.
pub const BENCH_SCHEMA_VERSION: u64 = 4;

/// How big a figure runs. What `files` counts is the row's business
/// (total files, files per client, dataset members per process).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// `ARKFS_BENCH_FILES`.
    pub files: u64,
    /// `ARKFS_BENCH_PROCS`: benchmark processes.
    pub procs: usize,
    /// `ARKFS_BENCH_CLIENTS`: the largest point of a client-count sweep.
    pub clients: usize,
    /// MiB each fio process writes and reads back; the row's, no
    /// variable sets it.
    pub mib: u64,
    /// `ARKFS_BENCH_FULL`: paper-scale data sizes (slow, memory-heavy).
    pub full: bool,
}

impl Scale {
    /// The row's default scale — its full scale under `ARKFS_BENCH_FULL`
    /// — with `ARKFS_BENCH_{FILES,PROCS,CLIENTS}` overriding one field
    /// each. A value that does not parse is an error naming the
    /// variable, not a silent run at the default scale.
    pub fn from_env(fig: &Figure, env: impl Fn(&str) -> Option<String>) -> Result<Scale, String> {
        let base = match env("ARKFS_BENCH_FULL") {
            Some(_) => fig.full,
            None => fig.scale,
        };
        let count = |key: &str, default: u64| match env(key) {
            Some(v) => v.parse().map_err(|_| format!("{key}={v:?} is not a count")),
            None => Ok(default),
        };
        Ok(Scale {
            files: count("ARKFS_BENCH_FILES", base.files)?,
            procs: count("ARKFS_BENCH_PROCS", base.procs as u64)? as usize,
            clients: count("ARKFS_BENCH_CLIENTS", base.clients as u64)? as usize,
            ..base
        })
    }
}

/// One row of the registry.
#[derive(Clone, Copy)]
pub struct Figure {
    /// `arkfs-bench run <name>`; the document is `BENCH_<name>.json`.
    pub name: &'static str,
    /// The shape the paper (or, beyond the paper, this repo) claims.
    pub claim: &'static str,
    pub scale: Scale,
    pub full: Scale,
    /// Stems of the `results/<stem>.txt` tables the run writes.
    pub tables: &'static [&'static str],
    /// The keys of every record of `BENCH_<name>.json`, in document
    /// order; empty for a figure that writes tables only.
    pub metrics: &'static [Metric],
    pub run: fn(&mut Run) -> Result<(), String>,
    /// The claimed shape as a check on the emitted records and the
    /// run's config; evaluated after a run has saved its artifacts, and
    /// by `check`.
    pub shape: Shape,
}

/// A claimed shape: the records and the run's config pass or fail it.
pub type Shape = fn(&[Record], &[(&str, f64)]) -> Result<(), String>;

/// What a record carries, declaratively. `phase` names a
/// [`PhaseResult`]; `op` the `op.<op>.*` telemetry histograms behind it.
#[derive(Debug, Clone, Copy)]
pub enum Metric {
    /// `<phase>_ops_s`.
    Rate(&'static str),
    /// `<phase>_mib_s`, over [`Sample::bytes`].
    Bandwidth(&'static str),
    /// `<phase>_{p50,p99,max}_ns`, ordered.
    Latency(&'static str),
    /// `<phase>_ack_{p50,p99}_ns`: only systems whose client decouples
    /// ack from durability (ArkFS) carry the pair; both or neither,
    /// ordered. The ack percentiles are the exact phase order statistics
    /// (the return to the caller is the ack).
    Ack(&'static str, &'static str),
    /// `<phase>_durable_{p50,p99}_ns`, optional like [`Metric::Ack`]:
    /// from `op.<op>.durable_ns`, stamped when the sealed batch lands on
    /// the object store.
    Durable(&'static str, &'static str),
    /// The key, read from this registry counter when the record is made.
    Counter(&'static str, &'static str),
    /// The key; the run supplies the value in [`Sample::given`].
    Given(&'static str),
    /// [`Metric::Given`], strictly increasing over the records: the X
    /// axis of a scaling curve.
    Axis(&'static str),
    /// `<phase>_cp_<segment>_ns` per [`critpath::SEGMENTS`] entry plus
    /// `<phase>_cp_total_ns`, from sampled causal traces: all or
    /// nothing, segments summing to at most the total. `true`: every
    /// record must carry the group; `false`: traced runs only.
    CritPath(&'static str, bool),
}

fn rate_key(phase: &str) -> String {
    format!("{phase}_ops_s")
}

/// `<phase>_<side><q>_ns` for each quantile `q`.
fn quantile_keys(phase: &str, side: &str, quantiles: &[&str]) -> Vec<String> {
    let key = |q: &&str| format!("{phase}_{side}{q}_ns");
    quantiles.iter().map(key).collect()
}

/// The critical-path group's keys: one per segment, then the total.
fn critpath_keys(phase: &str) -> Vec<String> {
    quantile_keys(
        phase,
        "cp_",
        &[&critpath::SEGMENTS[..], &["total"]].concat(),
    )
}

/// The keys one metric puts in a record, in document order, and the
/// rules their values obey. Emit and check both start from this.
struct Keys {
    keys: Vec<String>,
    /// The keys may be absent — all of them, never some.
    optional: bool,
    /// Values must not decrease in key order (p50 ≤ p99 ≤ max).
    ordered: bool,
    /// All values but the last sum to at most the last.
    summed: bool,
}

impl Metric {
    fn keys(&self) -> Keys {
        let plain = |keys| Keys {
            keys,
            optional: false,
            ordered: false,
            summed: false,
        };
        let quantiles = |optional, keys| Keys {
            optional,
            ordered: true,
            ..plain(keys)
        };
        match *self {
            Metric::Rate(p) => plain(vec![rate_key(p)]),
            Metric::Bandwidth(p) => plain(vec![format!("{p}_mib_s")]),
            Metric::Latency(p) => quantiles(false, quantile_keys(p, "", &["p50", "p99", "max"])),
            Metric::Ack(p, _) => quantiles(true, quantile_keys(p, "ack_", &["p50", "p99"])),
            Metric::Durable(p, _) => quantiles(true, quantile_keys(p, "durable_", &["p50", "p99"])),
            Metric::Counter(key, _) | Metric::Given(key) | Metric::Axis(key) => {
                plain(vec![key.to_string()])
            }
            Metric::CritPath(p, required) => Keys {
                optional: !required,
                summed: true,
                ..plain(critpath_keys(p))
            },
        }
    }

    /// This metric's values for `s`, one per key; `None` when the
    /// system has no such (optional) measurement.
    fn values(&self, s: &Sample) -> Option<Vec<f64>> {
        let telemetry = || s.telemetry.expect("the row declares telemetry metrics");
        let phase = |name: &str| {
            let found = s.phases.iter().find(|p| p.name == name);
            found
                .unwrap_or_else(|| panic!("the row declares phase {name:?}; the run measured none"))
        };
        // The non-empty `op.<op>.<side>_ns` histogram, if the system has one.
        let histogram = |op: &str, side: &str| {
            let hist = s
                .telemetry?
                .registry
                .histogram(&format!("op.{op}.{side}_ns"));
            (hist.count() > 0).then(|| hist.snapshot())
        };
        let nanos = |values: &[u64]| Some(values.iter().map(|&v| v as f64).collect());
        match *self {
            Metric::Rate(p) => Some(vec![phase(p).ops_per_sec()]),
            Metric::Bandwidth(p) => Some(vec![phase(p).bandwidth_mib_s(s.bytes)]),
            Metric::Latency(p) => {
                let ph = phase(p);
                nanos(&[ph.latency_p50, ph.latency_p99, ph.latency_max])
            }
            Metric::Ack(p, op) => {
                histogram(op, "ack")?;
                nanos(&[phase(p).latency_p50, phase(p).latency_p99])
            }
            Metric::Durable(_, op) => {
                let h = histogram(op, "durable")?;
                nanos(&[h.quantile(0.5), h.quantile(0.99)])
            }
            Metric::Counter(_, counter) => nanos(&[telemetry().registry.counter(counter).get()]),
            Metric::Given(key) | Metric::Axis(key) => {
                let given = s.given.iter().find(|(k, _)| *k == key);
                let (_, v) = given.unwrap_or_else(|| panic!("the run gave no value for {key:?}"));
                Some(vec![*v])
            }
            Metric::CritPath(p, required) => {
                let aggs = critpath::aggregate(&telemetry().tracer.events());
                let n = critpath::SEGMENTS.len();
                match aggs.get(&format!("op.{p}")) {
                    Some(a) => Some(
                        (0..n)
                            .map(|i| a.mean_seg(i))
                            .chain([a.mean_total()])
                            .collect(),
                    ),
                    None => required.then(|| vec![0.0; n + 1]),
                }
            }
        }
    }

    /// Validate this metric's keys in `rec`, pushing every key it
    /// accounts for onto `claimed`.
    fn check(&self, rec: &Record, claimed: &mut Vec<String>) -> Result<(), String> {
        let Keys {
            keys,
            optional,
            ordered,
            summed,
        } = self.keys();
        let values: Vec<f64> = keys.iter().filter_map(|k| rec.get(k)).collect();
        if values.is_empty() && optional {
            return Ok(());
        }
        if let Some(missing) = keys.iter().find(|k| rec.get(k).is_none()) {
            let partial = match values.len() {
                0 => String::new(),
                n => format!(
                    " ({n} of its group of {} are there: all or nothing)",
                    keys.len()
                ),
            };
            return Err(format!("missing key {missing}{partial}"));
        }
        if let Some(i) = values.windows(2).position(|w| ordered && w[0] > w[1]) {
            let (lo, hi) = (&keys[i], &keys[i + 1]);
            return Err(format!(
                "percentiles unordered: {lo}={} > {hi}={}",
                values[i],
                values[i + 1]
            ));
        }
        if let (true, Some((total, parts))) = (summed, values.split_last()) {
            let sum: f64 = parts.iter().sum();
            // The analyzer charges every interval of the root window to
            // exactly one segment, so the means agree up to fp rounding.
            if sum > total + 1e-6 * total.max(1.0) + 1e-3 {
                let total_key = keys.last().expect("split_last");
                return Err(format!("segments sum to {sum} > {total_key}={total}"));
            }
        }
        claimed.extend(keys);
        Ok(())
    }
}

/// What one record is measured from.
#[derive(Default)]
pub struct Sample<'a> {
    pub phases: &'a [PhaseResult],
    /// Bytes moved per phase, for [`Metric::Bandwidth`].
    pub bytes: u64,
    pub telemetry: Option<&'a Telemetry>,
    pub given: &'a [(&'static str, f64)],
}

/// One measured series in a benchmark: a system under test plus its
/// metric values, grouped by sub-figure/phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub group: String,
    pub system: String,
    pub metrics: Vec<(String, f64)>,
}

impl Record {
    pub fn get(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// `<phase>_ops_s` (0 when the record has none).
    pub fn rate(&self, phase: &str) -> f64 {
        self.get(&rate_key(phase)).unwrap_or(0.0)
    }

    /// `<phase>_p99_ns`, or with `side` = `"durable_"` the durable
    /// p99 (0 when the record has none).
    pub fn p99(&self, phase: &str, side: &str) -> f64 {
        let key = quantile_keys(phase, side, &["p99"]);
        self.get(&key[0]).unwrap_or(0.0)
    }

    /// The phase's critical-path group: mean ns per
    /// [`critpath::SEGMENTS`] entry, and the mean total.
    pub fn critpath(&self, phase: &str) -> Option<(Vec<f64>, f64)> {
        let keys = critpath_keys(phase);
        let mut values = keys
            .iter()
            .map(|k| self.get(k))
            .collect::<Option<Vec<f64>>>()?;
        let total = values.pop()?;
        Some((values, total))
    }
}

/// One run of a figure: the row, the resolved inputs, and what the run
/// has produced so far.
pub struct Run<'a> {
    pub fig: &'a Figure,
    pub scale: Scale,
    /// `--trace <path>`: run traced and write a Chrome trace there.
    pub trace: Option<&'a str>,
    /// `results/<stem>.txt` contents, in first-use order.
    pub tables: Vec<(&'static str, Vec<String>)>,
    pub config: Vec<(&'static str, f64)>,
    pub records: Vec<Record>,
    /// The deployments [`Run::trace_on`] switched on, by label.
    traced: Vec<(String, Arc<Telemetry>)>,
}

impl<'a> Run<'a> {
    pub fn new(fig: &'a Figure, scale: Scale, trace: Option<&'a str>) -> Self {
        Run {
            fig,
            scale,
            trace,
            tables: Vec::new(),
            config: Vec::new(),
            records: Vec::new(),
            traced: Vec::new(),
        }
    }

    /// Under `--trace`: record `telemetry`'s spans — every op, or a
    /// deterministic one in `sample_every` per client — and give the
    /// deployment a process group of its own in the trace `save` writes.
    pub fn trace_on(&mut self, label: &str, telemetry: &Arc<Telemetry>, sample_every: Option<u64>) {
        if self.trace.is_some() {
            if let Some(every) = sample_every {
                telemetry.tracer.set_sample_every(every);
            }
            telemetry.tracer.set_enabled(true);
            self.traced.push((label.to_string(), Arc::clone(telemetry)));
        }
    }

    /// Print `line` and append it to `results/<stem>.txt`.
    pub fn line(&mut self, stem: &'static str, line: String) {
        println!("{line}");
        if !self.tables.iter().any(|(s, _)| *s == stem) {
            self.tables.push((stem, Vec::new()));
        }
        let (_, lines) = self
            .tables
            .iter_mut()
            .find(|(s, _)| *s == stem)
            .expect("just pushed");
        lines.push(line);
    }

    /// Print an aligned table and append it to `results/<stem>.txt`.
    pub fn table(
        &mut self,
        stem: &'static str,
        title: &str,
        header: &[&str],
        rows: &[Vec<String>],
    ) {
        for line in format_table(title, header, rows) {
            self.line(stem, line);
        }
        println!();
    }

    /// Add one record, its metrics expanded from the row's list.
    pub fn record(&mut self, group: &str, system: &str, sample: &Sample) {
        let mut metrics = Vec::new();
        for m in self.fig.metrics {
            if let Some(values) = m.values(sample) {
                let keys = m.keys().keys;
                assert_eq!(keys.len(), values.len(), "{m:?}");
                metrics.extend(keys.into_iter().zip(values));
            }
        }
        self.records.push(Record {
            group: group.to_string(),
            system: system.to_string(),
            metrics,
        });
    }

    /// The `BENCH_<name>.json` document.
    pub fn bench_json(&self) -> String {
        let rows: Vec<String> = (self.records.iter())
            .map(|r| {
                let fields = vec![
                    ("group".to_string(), Value::Str(r.group.clone())),
                    ("system".to_string(), Value::Str(r.system.clone())),
                    ("metrics".to_string(), Value::nums(&r.metrics)),
                ];
                format!("    {}", Value::Obj(fields))
            })
            .collect();
        format!(
            "{{\n  \"bench\": {},\n  \"schema\": {BENCH_SCHEMA_VERSION},\n  \"config\": {},\n  \
             \"results\": [\n{}\n  ]\n}}\n",
            Value::Str(self.fig.name.to_string()),
            Value::nums(&self.config),
            rows.join(",\n")
        )
    }

    /// Write the artifacts under `dir`. A failed write fails the run: a
    /// regeneration that cannot write must not pass for a clean tree.
    pub fn save(&self, dir: &Path) -> Result<(), String> {
        let write = |path: std::path::PathBuf, text: String| {
            std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
            Ok::<(), String>(())
        };
        let results = dir.join("results");
        std::fs::create_dir_all(&results)
            .map_err(|e| format!("create {}: {e}", results.display()))?;
        for (stem, lines) in &self.tables {
            write(results.join(format!("{stem}.txt")), lines.join("\n") + "\n")?;
        }
        if !self.fig.metrics.is_empty() {
            write(
                dir.join(format!("BENCH_{}.json", self.fig.name)),
                self.bench_json(),
            )?;
        }
        // One merged Chrome `trace_event` document — load it in
        // chrome://tracing or https://ui.perfetto.dev.
        if let (Some(path), false) = (self.trace, self.traced.is_empty()) {
            let groups: Vec<(&str, &Tracer)> = (self.traced.iter())
                .map(|(label, tel)| (label.as_str(), &tel.tracer))
                .collect();
            write(path.into(), merged_chrome_trace(&groups))?;
        }
        Ok(())
    }
}

/// An aligned results table as lines.
pub fn format_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> Vec<String> {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut lines = Vec::new();
    lines.push(format!("== {title} =="));
    let fmt_row = |cells: Vec<String>| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    lines.push(fmt_row(header.iter().map(|s| s.to_string()).collect()));
    lines.push("-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    for row in rows {
        lines.push(fmt_row(row.clone()));
    }
    lines
}

/// Format ops/sec as kops with sensible precision.
pub fn kops(v: f64) -> String {
    format!("{:.2}", v / 1000.0)
}

/// Validate a `BENCH_*.json` document against its row of `rows` and
/// evaluate the row's shape check. Strict both ways: a record fails on
/// a *missing* key (a phase lost its percentiles) and on an *unknown*
/// one (a metric no row declares). Errors name the record.
pub fn check_bench(rows: &[Figure], text: &str) -> Result<(), String> {
    let doc = json::parse(text)?;
    let top: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
    if top != ["bench", "schema", "config", "results"] {
        return Err(format!(
            "top-level keys {top:?}, expected bench, schema, config, results"
        ));
    }
    let schema = doc.get("schema").and_then(Value::as_num);
    if schema != Some(BENCH_SCHEMA_VERSION as f64) {
        return Err(format!(
            "schema version {schema:?}, expected {BENCH_SCHEMA_VERSION}"
        ));
    }
    let bench = doc
        .get("bench")
        .and_then(Value::as_str)
        .ok_or("bench: not a string")?;
    let fig = (rows
        .iter()
        .find(|f| f.name == bench && !f.metrics.is_empty()))
    .ok_or(format!(
        "unknown bench '{bench}': no registry row writes it"
    ))?;
    let config = doc.get("config").filter(|c| matches!(c, Value::Obj(_)));
    let config = (config.ok_or("config: not an object")?.fields().iter())
        .map(|(key, value)| match value.as_num() {
            Some(v) => Ok((key.as_str(), v)),
            None => Err(format!("config.{key}: not a number")),
        })
        .collect::<Result<Vec<_>, String>>()?;
    let results = doc
        .get("results")
        .and_then(Value::as_arr)
        .ok_or("results: not an array")?;
    if results.is_empty() {
        return Err("results: empty".to_string());
    }
    let mut records = Vec::new();
    for (i, result) in results.iter().enumerate() {
        let system = result.get("system").and_then(Value::as_str).unwrap_or("?");
        let rec = record_of(result).and_then(|rec| {
            let mut claimed = Vec::new();
            fig.metrics
                .iter()
                .try_for_each(|m| m.check(&rec, &mut claimed))?;
            match rec.metrics.iter().find(|(k, _)| !claimed.contains(k)) {
                Some((k, _)) => Err(format!("unknown key {k}")),
                None => Ok(rec),
            }
        });
        records.push(rec.map_err(|e| format!("results[{i}] ({system}): {e}"))?);
    }
    for m in fig.metrics {
        if let Metric::Axis(key) = m {
            let mut prev = 0.0;
            for (i, v) in records.iter().filter_map(|r| r.get(key)).enumerate() {
                if v <= prev {
                    return Err(format!(
                        "results[{i}]: {key} must be strictly increasing ({v} after {prev})"
                    ));
                }
                prev = v;
            }
        }
    }
    (fig.shape)(&records, &config).map_err(|e| format!("shape: {e}"))
}

fn record_of(result: &Value) -> Result<Record, String> {
    let keys: Vec<&str> = result.fields().iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["group", "system", "metrics"] {
        return Err(format!("keys {keys:?}, expected group, system, metrics"));
    }
    let text = |key| {
        result
            .get(key)
            .and_then(Value::as_str)
            .ok_or(format!("{key}: not a string"))
    };
    let metric = |(key, value): &(String, Value)| match value.as_num() {
        Some(v) if v >= 0.0 => Ok((key.clone(), v)),
        Some(v) => Err(format!("{key}={v} is negative")),
        None => Err(format!("{key} is not a number")),
    };
    let metrics = result.get("metrics").filter(|m| matches!(m, Value::Obj(_)));
    Ok(Record {
        group: text("group")?.to_string(),
        system: text("system")?.to_string(),
        metrics: (metrics.ok_or("metrics: not an object")?.fields().iter())
            .map(metric)
            .collect::<Result<_, _>>()?,
    })
}

/// Validate a Chrome `trace_event` document written with `--trace`.
pub fn check_trace(text: &str) -> Result<(), String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("traceEvents: not an array")?;
    let mut complete = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let at = |what: &str| format!("traceEvents[{i}]: {what}");
        let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_num);
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| at("missing ph"))?;
        for key in ["pid", "tid"] {
            num(ev, key).ok_or_else(|| at(&format!("missing numeric {key}")))?;
        }
        match ph {
            "M" => {}
            "X" => {
                complete += 1;
                (ev.get("name").and_then(Value::as_str))
                    .ok_or_else(|| at("X event without name"))?;
                for key in ["ts", "dur"] {
                    num(ev, key).ok_or_else(|| at(&format!("X event missing {key}")))?;
                }
                // Spans from causally-traced ops carry an args object
                // linking them to the originating client op. Untraced
                // spans omit it; when present it must be well-formed.
                if let Some(args) = ev.get("args") {
                    for key in ["trace", "parent"] {
                        num(args, key).ok_or_else(|| at(&format!("args missing numeric {key}")))?;
                    }
                    if !matches!(args.get("follows"), Some(Value::Bool(_))) {
                        return Err(at("args missing boolean follows"));
                    }
                }
            }
            other => return Err(at(&format!("unexpected ph '{other}'"))),
        }
    }
    if complete == 0 {
        return Err("no complete ('X') span events (was tracing enabled?)".to_string());
    }
    Ok(())
}
