//! Validate the committed `BENCH_*.json` regression baselines against
//! the versioned schema, and (optionally) a Chrome `trace_event` JSON
//! produced with `--trace`.
//!
//! ```text
//! schema-check [--trace <trace.json>] [BENCH_fig4.json ...]
//! ```
//!
//! With no file arguments, checks `BENCH_fig4.json`, `BENCH_fig5.json`,
//! `BENCH_fig6.json`, `BENCH_fig8.json` and `BENCH_fig9.json` in the
//! working directory. The check is strict
//! both ways: a document fails on *missing* fields (a phase lost its
//! percentiles) and on *unknown* fields (someone added a metric without
//! extending this checker and, if needed, bumping the schema version).
//! Latency percentiles must be ordered: p50 <= p99 <= max.
//!
//! Some metrics are *optional*: the ack/durable latency split is only
//! reported by systems whose client decouples ack from durability
//! (ArkFS), so baselines legitimately omit those keys. Optional keys
//! come in p50/p99 pairs that must appear together and be ordered.
//!
//! Schema v3 adds critical-path attribution groups
//! (`<phase>_cp_<segment>_ns` + `<phase>_cp_total_ns`, derived from
//! sampled causal traces). A cp group is all-or-nothing per phase: if
//! any key appears, all must, every value must be non-negative, and the
//! segment means must sum to the total mean (within fp tolerance). The
//! group is *required* for fig9 (the knee attribution depends on it)
//! and optional for fig8 (only emitted on traced runs).
//!
//! Schema v4 adds `leader_rpcs_per_create` to every fig9 record: the
//! forwarded ops all leaders served per create (resolution, the create,
//! its close), non-negative. Additive since (no version bump):
//! `lease_manager_busy`, the busiest lease manager's busy share of the
//! create phase, and `lease_manager_forgotten_ns`, the busy time the
//! managers' timelines dropped past their interval bound.

use arkfs_bench::BENCH_SCHEMA_VERSION;
use std::collections::BTreeSet;

// ---- minimal JSON parser (no external deps) ----------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn parse(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing data"));
        }
        Ok(v)
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_lit("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.eat_lit("false").map(|_| Json::Bool(false)),
            Some(b'n') => self.eat_lit("null").map(|_| Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("unexpected character")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid utf-8"))?,
                    );
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }
}

fn parse(text: &str) -> Result<Json, String> {
    Parser::new(text).parse()
}

// ---- bench schema -------------------------------------------------------

/// The exact metric keys every record of a bench must carry.
fn expected_metrics(bench: &str) -> Option<Vec<String>> {
    let lat = |phase: &str| {
        vec![
            format!("{phase}_p50_ns"),
            format!("{phase}_p99_ns"),
            format!("{phase}_max_ns"),
        ]
    };
    let mut keys: Vec<String> = Vec::new();
    match bench {
        "fig4" => {
            for phase in ["create", "stat", "delete"] {
                keys.push(format!("{phase}_ops_s"));
                keys.extend(lat(phase));
            }
        }
        "fig5" => {
            for phase in ["write", "stat", "read", "delete"] {
                keys.push(format!("{phase}_ops_s"));
                keys.extend(lat(phase));
            }
            keys.push("read_errors".to_string());
        }
        "fig6" => {
            for phase in ["write", "read"] {
                keys.push(format!("{phase}_mib_s"));
                keys.extend(lat(phase));
            }
        }
        // fig8 also carries one `sealed_depth_p<i>` gauge per partition,
        // validated per record against its own `partitions` metric (the
        // key set varies across records of one document).
        "fig8" => {
            keys.push("partitions".to_string());
            keys.push("create_ops_s".to_string());
            keys.extend(lat("create"));
            keys.push("partition_splits".to_string());
            keys.push("partition_handoffs".to_string());
            keys.push("lease_handoff_failed".to_string());
        }
        // fig9 is the event-engine scaling curve: one record per client
        // count, each carrying the saturation telemetry for that point.
        "fig9" => {
            keys.push("clients".to_string());
            keys.push("create_ops_s".to_string());
            keys.extend(lat("create"));
            keys.push("lease_acquires".to_string());
            keys.push("lease_retries".to_string());
            keys.push("lease_redirects".to_string());
            keys.push("journal_flights".to_string());
            keys.push("partition_splits".to_string());
            keys.push("leader_rpcs_per_create".to_string());
            keys.push("lease_manager_busy".to_string());
            keys.push("lease_manager_forgotten_ns".to_string());
        }
        _ => return None,
    }
    Some(keys)
}

/// Optional metric keys, as (p50, p99) pairs: only systems exposing
/// the ack/durable split (ArkFS) carry them. Each pair is
/// all-or-nothing and must be ordered p50 <= p99. Stat mutates
/// nothing, so it has an ack pair but no durable pair.
fn optional_metric_pairs(bench: &str) -> Vec<(String, String)> {
    let mut pairs = Vec::new();
    if bench == "fig4" {
        for phase in ["create", "stat", "delete"] {
            pairs.push((format!("{phase}_ack_p50_ns"), format!("{phase}_ack_p99_ns")));
        }
        for phase in ["create", "delete"] {
            pairs.push((
                format!("{phase}_durable_p50_ns"),
                format!("{phase}_durable_p99_ns"),
            ));
        }
    }
    if bench == "fig8" || bench == "fig9" {
        pairs.push(("create_ack_p50_ns".into(), "create_ack_p99_ns".into()));
        pairs.push((
            "create_durable_p50_ns".into(),
            "create_durable_p99_ns".into(),
        ));
    }
    pairs
}

/// Critical-path segments, mirroring `telemetry::critpath::SEGMENTS`.
const CP_SEGMENTS: [&str; 6] = [
    "lease_wait",
    "partition_route",
    "lane_queue",
    "seal_flush",
    "store_io",
    "client_cpu",
];

/// Phases that may carry a critical-path attribution group, and whether
/// the group is mandatory for this bench.
fn cp_phases(bench: &str) -> &'static [(&'static str, bool)] {
    match bench {
        // fig9's knee attribution is computed from these, so every
        // record must carry the full group.
        "fig9" => &[("create", true)],
        // fig8 emits the group only when run with `--trace`.
        "fig8" => &[("create", false)],
        _ => &[],
    }
}

fn cp_keys(bench: &str) -> Vec<String> {
    let mut keys = Vec::new();
    for (phase, _) in cp_phases(bench) {
        for seg in CP_SEGMENTS {
            keys.push(format!("{phase}_cp_{seg}_ns"));
        }
        keys.push(format!("{phase}_cp_total_ns"));
    }
    keys
}

/// Validate one record's cp groups: all-or-nothing per phase,
/// non-negative values, and segment means summing to the total mean.
fn check_cp_groups(bench: &str, metrics: &Json, i: usize, system: &str) -> Result<(), String> {
    for (phase, required) in cp_phases(bench) {
        let seg_keys: Vec<String> = CP_SEGMENTS
            .iter()
            .map(|seg| format!("{phase}_cp_{seg}_ns"))
            .collect();
        let total_key = format!("{phase}_cp_total_ns");
        let present = seg_keys
            .iter()
            .chain(std::iter::once(&total_key))
            .filter(|k| metrics.get(k).is_some())
            .count();
        if present == 0 {
            if *required {
                return Err(format!(
                    "results[{i}] ({system}): {phase} critical-path group missing \
                     (required for {bench})"
                ));
            }
            continue;
        }
        if present != seg_keys.len() + 1 {
            return Err(format!(
                "results[{i}] ({system}): {phase} critical-path group is partial \
                 ({present} of {} keys); cp keys are all-or-nothing",
                seg_keys.len() + 1
            ));
        }
        let num = |key: &str| -> Result<f64, String> {
            metrics
                .get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("results[{i}] ({system}): {key} is not a number"))
        };
        let total = num(&total_key)?;
        let mut sum = 0.0;
        for key in &seg_keys {
            let v = num(key)?;
            if v < 0.0 {
                return Err(format!("results[{i}] ({system}): {key}={v} is negative"));
            }
            sum += v;
        }
        if total < 0.0 {
            return Err(format!(
                "results[{i}] ({system}): {total_key}={total} is negative"
            ));
        }
        // The analyzer charges every interval of the root window to
        // exactly one segment, so the means agree up to fp rounding.
        let tolerance = 1e-6 * total.max(1.0) + 1e-3;
        if sum > total + tolerance {
            return Err(format!(
                "results[{i}] ({system}): {phase} cp segments sum to {sum} \
                 > total {total}"
            ));
        }
    }
    Ok(())
}

/// Phases whose percentiles must be ordered p50 <= p99 <= max.
fn latency_phases(bench: &str) -> &'static [&'static str] {
    match bench {
        "fig4" => &["create", "stat", "delete"],
        "fig5" => &["write", "stat", "read", "delete"],
        "fig6" => &["write", "read"],
        "fig8" => &["create"],
        "fig9" => &["create"],
        _ => &[],
    }
}

fn check_bench_doc(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read: {e}"))?;
    let doc = parse(&text)?;

    let top: BTreeSet<&str> = doc.keys().into_iter().collect();
    let want: BTreeSet<&str> = ["bench", "schema", "config", "results"].into();
    if top != want {
        return Err(format!("top-level keys {top:?}, expected {want:?}"));
    }
    let schema = doc
        .get("schema")
        .and_then(Json::as_num)
        .ok_or("schema: not a number")?;
    if schema != BENCH_SCHEMA_VERSION as f64 {
        return Err(format!(
            "schema version {schema}, expected {BENCH_SCHEMA_VERSION}"
        ));
    }
    let bench = doc
        .get("bench")
        .and_then(Json::as_str)
        .ok_or("bench: not a string")?;
    let expected = expected_metrics(bench)
        .ok_or_else(|| format!("unknown bench '{bench}' — extend schema-check"))?;
    let expected: BTreeSet<&str> = expected.iter().map(String::as_str).collect();
    let pairs = optional_metric_pairs(bench);
    let cp = cp_keys(bench);
    let mut optional: BTreeSet<&str> = pairs
        .iter()
        .flat_map(|(a, b)| [a.as_str(), b.as_str()])
        .collect();
    // cp keys are exempt from the unknown-key check; their presence
    // rules (all-or-nothing, required for fig9) are enforced per record
    // by `check_cp_groups`.
    optional.extend(cp.iter().map(String::as_str));

    for (key, value) in match doc.get("config") {
        Some(Json::Obj(fields)) => fields.iter(),
        _ => return Err("config: not an object".to_string()),
    } {
        if value.as_num().is_none() {
            return Err(format!("config.{key}: not a number"));
        }
    }

    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("results: not an array")?;
    if results.is_empty() {
        return Err("results: empty".to_string());
    }
    for (i, rec) in results.iter().enumerate() {
        let rkeys: BTreeSet<&str> = rec.keys().into_iter().collect();
        let rwant: BTreeSet<&str> = ["group", "system", "metrics"].into();
        if rkeys != rwant {
            return Err(format!("results[{i}] keys {rkeys:?}, expected {rwant:?}"));
        }
        let system = rec.get("system").and_then(Json::as_str).unwrap_or("?");
        let metrics = rec.get("metrics").ok_or("metrics missing")?;
        let mkeys: BTreeSet<&str> = metrics.keys().into_iter().collect();
        // fig8 carries one sealed-depth gauge per partition; the record's
        // own `partitions` metric says how many this record must have.
        let per_record: Vec<String> = if bench == "fig8" {
            let parts = metrics
                .get("partitions")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("results[{i}] ({system}): partitions missing"))?;
            (0..parts as usize)
                .map(|p| format!("sealed_depth_p{p}"))
                .collect()
        } else {
            Vec::new()
        };
        let mut expected = expected.clone();
        expected.extend(per_record.iter().map(String::as_str));
        let missing: Vec<&&str> = expected.difference(&mkeys).collect();
        let unknown: Vec<&&str> = mkeys
            .difference(&expected)
            .filter(|k| !optional.contains(*k))
            .collect();
        if !missing.is_empty() || !unknown.is_empty() {
            return Err(format!(
                "results[{i}] ({system}): missing {missing:?}, unknown {unknown:?}"
            ));
        }
        let num = |key: &str| -> Result<f64, String> {
            metrics
                .get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("results[{i}] ({system}): {key} is not a number"))
        };
        for phase in latency_phases(bench) {
            let p50 = num(&format!("{phase}_p50_ns"))?;
            let p99 = num(&format!("{phase}_p99_ns"))?;
            let max = num(&format!("{phase}_max_ns"))?;
            if !(p50 <= p99 && p99 <= max) {
                return Err(format!(
                    "results[{i}] ({system}): {phase} percentiles unordered: \
                     p50={p50} p99={p99} max={max}"
                ));
            }
        }
        for (lo, hi) in &pairs {
            let p50 = metrics.get(lo).and_then(Json::as_num);
            let p99 = metrics.get(hi).and_then(Json::as_num);
            match (p50, p99) {
                (None, None) => {}
                (Some(p50), Some(p99)) => {
                    if p50 > p99 {
                        return Err(format!("results[{i}] ({system}): {lo}={p50} > {hi}={p99}"));
                    }
                }
                _ => {
                    return Err(format!(
                        "results[{i}] ({system}): {lo} and {hi} must appear together"
                    ));
                }
            }
        }
        check_cp_groups(bench, metrics, i, system)?;
    }
    // fig9 is a scaling curve: one record per client count, strictly
    // increasing, so consumers can treat the results array as the X axis.
    if bench == "fig9" {
        let mut prev = 0.0f64;
        for (i, rec) in results.iter().enumerate() {
            let rpcs = rec
                .get("metrics")
                .and_then(|m| m.get("leader_rpcs_per_create"))
                .and_then(Json::as_num);
            if !rpcs.is_some_and(|v| v >= 0.0) {
                return Err(format!(
                    "results[{i}]: leader_rpcs_per_create {rpcs:?} is not a non-negative number"
                ));
            }
            let clients = rec
                .get("metrics")
                .and_then(|m| m.get("clients"))
                .and_then(Json::as_num)
                .ok_or_else(|| format!("results[{i}]: clients missing"))?;
            if clients <= prev {
                return Err(format!(
                    "results[{i}]: client counts must be strictly increasing \
                     ({clients} after {prev})"
                ));
            }
            prev = clients;
        }
    }
    Ok(())
}

// ---- Chrome trace -------------------------------------------------------

fn check_trace_doc(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read: {e}"))?;
    let doc = parse(&text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("traceEvents: not an array")?;
    if events.is_empty() {
        return Err("traceEvents: empty (was tracing enabled?)".to_string());
    }
    let mut complete = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("traceEvents[{i}]: missing ph"))?;
        for key in ["pid", "tid"] {
            if ev.get(key).and_then(Json::as_num).is_none() {
                return Err(format!("traceEvents[{i}]: missing numeric {key}"));
            }
        }
        match ph {
            "X" => {
                complete += 1;
                if ev.get("name").and_then(Json::as_str).is_none() {
                    return Err(format!("traceEvents[{i}]: X event without name"));
                }
                for key in ["ts", "dur"] {
                    if ev.get(key).and_then(Json::as_num).is_none() {
                        return Err(format!("traceEvents[{i}]: X event missing {key}"));
                    }
                }
                // Spans from causally-traced ops carry an args object
                // linking them to the originating client op. It is
                // optional (untraced spans omit it), but when present
                // must be well-formed.
                if let Some(args) = ev.get("args") {
                    for key in ["trace", "parent"] {
                        if args.get(key).and_then(Json::as_num).is_none() {
                            return Err(format!("traceEvents[{i}]: args missing numeric {key}"));
                        }
                    }
                    if !matches!(args.get("follows"), Some(Json::Bool(_))) {
                        return Err(format!("traceEvents[{i}]: args missing boolean follows"));
                    }
                }
            }
            "M" => {}
            other => return Err(format!("traceEvents[{i}]: unexpected ph '{other}'")),
        }
    }
    if complete == 0 {
        return Err("no complete ('X') span events".to_string());
    }
    Ok(())
}

fn main() {
    let mut benches: Vec<String> = Vec::new();
    let mut traces: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace" {
            traces.extend(args.next());
        } else if let Some(p) = a.strip_prefix("--trace=") {
            traces.push(p.to_string());
        } else {
            benches.push(a);
        }
    }
    if benches.is_empty() && traces.is_empty() {
        benches = [
            "BENCH_fig4.json",
            "BENCH_fig5.json",
            "BENCH_fig6.json",
            "BENCH_fig8.json",
            "BENCH_fig9.json",
        ]
        .map(String::from)
        .to_vec();
    }

    let mut failed = false;
    for path in &benches {
        match check_bench_doc(path) {
            Ok(()) => println!("{path}: OK"),
            Err(e) => {
                println!("{path}: FAIL: {e}");
                failed = true;
            }
        }
    }
    for path in &traces {
        match check_trace_doc(path) {
            Ok(()) => println!("{path}: OK (trace)"),
            Err(e) => {
                println!("{path}: FAIL: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
