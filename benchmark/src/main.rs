//! `arkfs-benchmark`: the repo's two-clock benchmark. See `README.md`.
//!
//! ```text
//! run      --workload W --seed N (--seconds S | --rounds R) --trace 0|1 [--smoke] [--out DIR]
//! suite    [--seed N] [--reps R] [--only W] [--smoke] [--out DIR]
//! layers
//! compare  A.json B.json
//! manifest
//! ```

mod compare;
mod gen;
mod json;
mod metrics;
mod ops;
mod probes;
mod procfs;
mod run;
mod spans;
mod stats;
mod suite;
mod tcp;
mod workloads;

use run::{Length, RunArgs};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Sizes, Workload};

/// What one measured run lasts when the driver does not say.
const RUN_SECONDS: u64 = 20;

/// `--key value` pairs and bare flags after the subcommand.
struct Args {
    rest: Vec<String>,
}

impl Args {
    fn value(&mut self, key: &str) -> Result<Option<String>, String> {
        let Some(i) = self.rest.iter().position(|a| a == key) else {
            return Ok(None);
        };
        if i + 1 >= self.rest.len() {
            return Err(format!("{key} needs a value"));
        }
        self.rest.remove(i);
        Ok(Some(self.rest.remove(i)))
    }

    fn number<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, String> {
        self.value(key)?
            .map(|v| {
                let parsed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16).ok().map(|n| n.to_string()),
                    None => Some(v.clone()),
                };
                parsed
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("{key}: `{v}` is not a number"))
            })
            .transpose()
    }

    fn flag(&mut self, key: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| a != key);
        self.rest.len() != before
    }

    fn workload(&mut self, key: &str) -> Result<Option<Workload>, String> {
        self.value(key)?
            .map(|v| Workload::parse(&v).ok_or_else(|| format!("unknown workload `{v}`")))
            .transpose()
    }

    fn done(self) -> Result<(), String> {
        match self.rest.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument `{extra}`")),
        }
    }
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes::SMOKE
    } else {
        Sizes::FULL
    }
}

fn default_out() -> PathBuf {
    PathBuf::from("benchmark/out")
}

fn cmd_run(mut a: Args) -> Result<ExitCode, String> {
    let workload = a.workload("--workload")?.ok_or("run needs --workload")?;
    let seed = a.number("--seed")?.unwrap_or(gen::DEFAULT_SEED);
    let trace = match a.number::<u8>("--trace")? {
        None | Some(0) => false,
        Some(1) => true,
        Some(n) => return Err(format!("--trace takes 0 or 1, not {n}")),
    };
    // `--rounds` is how the suite asks its children for runs whose
    // virtual metrics repeat exactly.
    let length = match (a.number::<f64>("--seconds")?, a.number("--rounds")?) {
        (Some(_), Some(_)) => return Err("give --seconds or --rounds, not both".into()),
        (_, Some(r)) => Length::Rounds(r),
        (s, None) => {
            let s = s.unwrap_or(RUN_SECONDS as f64);
            if !(s > 0.0 && s <= 3600.0) {
                return Err(format!("--seconds {s} is out of range"));
            }
            Length::Time(Duration::from_secs_f64(s))
        }
    };
    let smoke = a.flag("--smoke");
    let trace_dir = a.value("--out")?.map_or_else(default_out, PathBuf::from);
    a.done()?;
    let result = run::run(&RunArgs {
        workload,
        seed,
        length,
        trace,
        sizes: sizes(smoke),
        trace_dir,
    })?;
    eprintln!(
        "{}: {} rounds, {} ops attempted, {} failed",
        workload.name(),
        result.rounds,
        result.attempted,
        result.failed
    );
    println!("{}", run::result_line(&result));
    Ok(ExitCode::SUCCESS)
}

fn cmd_suite(mut a: Args) -> Result<ExitCode, String> {
    let smoke = a.flag("--smoke");
    let args = suite::SuiteArgs {
        seed: a.number("--seed")?.unwrap_or(gen::DEFAULT_SEED),
        reps: a.number("--reps")?.unwrap_or(if smoke { 2 } else { 5 }),
        smoke,
        only: a.workload("--only")?,
        out_dir: a.value("--out")?.map_or_else(default_out, PathBuf::from),
    };
    a.done()?;
    if args.reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    suite::suite(&args)?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_layers(a: Args) -> Result<ExitCode, String> {
    a.done()?;
    let results = probes::run_all(probes::Effort::FULL)?;
    let mut line = String::from("{\"probes\": [");
    for (i, p) in results.iter().enumerate() {
        eprintln!(
            "{:<32} {:>12.2} {}  (q1 {:.2}, q3 {:.2}, {} batches of {} calls)",
            p.name, p.median, p.unit, p.q1, p.q3, p.batches, p.iters
        );
        let _ = write!(
            line,
            "{}{{\"metric\": \"{}\", \"unit\": \"{}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
            if i == 0 { "" } else { ", " },
            p.name, p.unit, p.median, p.q1, p.q3, p.batches
        );
    }
    println!("{line}]}}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(a: Args) -> Result<ExitCode, String> {
    let load = |path: &str| -> Result<json::Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let [pa, pb] = a.rest.as_slice() else {
        return Err("compare needs two result files".into());
    };
    let report = compare::compare(&load(pa)?, &load(pb)?)?;
    for line in &report.lines {
        println!("{line}");
    }
    println!("{} worse, {} unresolved", report.worse, report.unresolved);
    Ok(if report.worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Why each workload exists, with its sizes per round (`Sizes::FULL`).
const WHY: [(Workload, &str); 6] = [
    (Workload::MdtestEasy, "Fig. 4: 16 clients create, stat, unlink 96000 empty files in private dirs. Local-leader fast path (metatable, journal, commit lanes, prt); control for lease, RPC and data-path changes."),
    (Workload::ZipfCreate, "fig9 point: 4096 clients, Zipf(0.9) over 256 shared dirs, 65536 creates then stat of own files; the hot dirs are led by late engine actors. Lease redirects, forwarding, bus and engine dominate."),
    (Workload::ZipfHotLead, "zipf_create with the first touch mirrored: the engine's first actor leads the hottest dir. The slow regime of fig9's committed seed, a third fewer creates/s: ROADMAP item 3 must show here."),
    (Workload::MdtestHard, "Fig. 5: 16 clients, 16 shared dirs, 16000 files of 3901 B: create+write+close, stat, open+read+close, unlink, bytes verified. The one engine workload mixing metadata with small-object data."),
    (Workload::FioSeq, "Fig. 6a: 8 clients x 32 MiB in 128 KiB requests, 12 MiB cache, 8 MiB read-ahead: seq write+fsync, seq read, random read of a quarter. Cache, read-ahead and ranged store I/O; metadata idle."),
    (Workload::TcpHard, "Wall clock over loopback TCP: one driver runs the mdtest-hard mix on 3200 files, half in a dir led by the peer (every op forwarded), half local-lead (store I/O over TCP). wire, tcp, remote."),
];

/// `BENCHMARK.json`, generated so that it cannot disagree with the code.
fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (w, why)) in WHY.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": {}}}{}",
            w.name(),
            json::quote(why),
            if i + 1 < WHY.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in metrics::END_TO_END.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
            m.name,
            m.unit,
            m.better,
            m.bound,
            if i + 1 < metrics::END_TO_END.len() {
                ","
            } else {
                ""
            }
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = metrics::per_layer();
    for (i, m) in layers.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
            m.name,
            m.unit,
            m.better,
            if i + 1 < layers.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = if argv.is_empty() {
        String::new()
    } else {
        argv.remove(0)
    };
    let args = Args { rest: argv };
    let outcome = match cmd.as_str() {
        "run" => cmd_run(args),
        "suite" => cmd_suite(args),
        "layers" => cmd_layers(args),
        "compare" => cmd_compare(args),
        "manifest" => args.done().map(|()| {
            print!("{}", manifest());
            ExitCode::SUCCESS
        }),
        other => Err(format!(
            "unknown command `{other}`; one of run, suite, layers, compare, manifest"
        )),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("arkfs-benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `arkfs-benchmark manifest`"
        );
        let j = json::parse(&committed).unwrap();
        let keys: Vec<&str> = j
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        for w in j.get("workloads").unwrap().as_array().unwrap() {
            let why = w.get("why").unwrap().as_str().unwrap();
            assert!(why.chars().count() <= 200 && !why.contains('\n'), "{why}");
            assert!(Workload::parse(w.get("name").unwrap().as_str().unwrap()).is_some());
        }
        assert!(committed.len() < 64 * 1024);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| Args {
            rest: s.split_whitespace().map(String::from).collect(),
        };
        let mut a = args("--seed 0xF19 --smoke --workload fio_seq");
        assert_eq!(a.number::<u64>("--seed").unwrap(), Some(0xF19));
        assert!(a.flag("--smoke") && !a.flag("--smoke"));
        assert_eq!(a.workload("--workload").unwrap(), Some(Workload::FioSeq));
        a.done().unwrap();
        assert!(args("--seed").number::<u64>("--seed").is_err());
        assert!(args("--seed x").number::<u64>("--seed").is_err());
        assert!(args("--workload nope").workload("--workload").is_err());
        assert!(args("stray").done().is_err());
    }
}
