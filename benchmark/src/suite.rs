//! The whole benchmark in one go: every workload R times (each run a
//! fresh child process of this binary, workloads interleaved across the
//! repetitions), then one traced run per workload, which also runs the
//! layer probes; then the checks, the table and `results.json`.

use crate::json::{self, Json};
use crate::probes;
use crate::stats::quartiles;
use crate::workloads::{Workload, ALL};
use std::fmt::Write as _;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

pub struct SuiteArgs {
    pub seed: u64,
    pub reps: u32,
    pub smoke: bool,
    pub only: Option<Workload>,
    pub out_dir: PathBuf,
}

/// A child that has not finished by then is killed and reported.
const WATCHDOG: Duration = Duration::from_secs(120);

/// Rounds of every untraced child run. A fixed count, not a time, so
/// that the virtual metrics of two repetitions are medians over the
/// same inputs and must agree bit for bit.
fn child_rounds(smoke: bool) -> u32 {
    if smoke {
        1
    } else {
        5
    }
}

/// Run this binary with `args`; its last stdout line, parsed.
fn child(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let what = args.join(" ");
    let mut proc = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn `{what}`: {e}"))?;
    // Drain stdout on a thread so a chatty child cannot block on the pipe.
    let mut pipe = proc.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        pipe.read_to_string(&mut text).map(|_| text)
    });
    let started = Instant::now();
    let status = loop {
        match proc.try_wait().map_err(|e| format!("wait `{what}`: {e}"))? {
            Some(status) => break status,
            None if started.elapsed() > WATCHDOG => {
                let _ = proc.kill();
                let _ = proc.wait();
                let _ = reader.join();
                return Err(format!("`{what}` still ran after {WATCHDOG:?}: killed"));
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let text = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?
        .map_err(|e| format!("read stdout of `{what}`: {e}"))?;
    if !status.success() {
        return Err(format!("`{what}` exited with {status}"));
    }
    let last = text
        .lines()
        .last()
        .ok_or_else(|| format!("`{what}` printed nothing"))?;
    json::parse(last).map_err(|e| format!("`{what}`: {e}"))
}

struct RunOut {
    attempted: f64,
    failed: f64,
    /// (name, unit, value) in report order.
    metrics: Vec<(String, String, f64)>,
}

fn run_child(w: Workload, a: &SuiteArgs, trace: bool) -> Result<RunOut, String> {
    let mut args: Vec<String> = ["run", "--workload", w.name(), "--seed"]
        .map(String::from)
        .to_vec();
    args.push(a.seed.to_string());
    args.extend([
        "--rounds".to_string(),
        if trace { 1 } else { child_rounds(a.smoke) }.to_string(),
    ]);
    args.extend(["--trace".to_string(), u8::from(trace).to_string()]);
    args.extend(["--out".to_string(), a.out_dir.display().to_string()]);
    if a.smoke {
        args.push("--smoke".to_string());
    }
    let j = child(&args)?;
    let num = |k: &str| {
        j.get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("{}: no {k}", w.name()))
    };
    if j.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{}: outputs are wrong ({} of {} ops failed)",
            w.name(),
            num("failed")?,
            num("attempted")?
        ));
    }
    let metrics = j
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("no metrics object")?
        .iter()
        .map(|(name, m)| {
            Some((
                name.clone(),
                m.get("unit")?.as_str()?.to_string(),
                m.get("value")?.as_f64()?,
            ))
        })
        .collect::<Option<_>>()
        .ok_or("a metric lacks unit or value")?;
    Ok(RunOut {
        attempted: num("attempted")?,
        failed: num("failed")?,
        metrics,
    })
}

/// Which clock a unit is on.
pub fn clock(unit: &str) -> &'static str {
    if unit.starts_with('v') || unit.contains("/v") {
        "virtual"
    } else if ["B/op", "B/file", "ratio", "count", "1/kop", "1/op"].contains(&unit) {
        "count"
    } else {
        "host"
    }
}

/// Virtual times and counts must repeat bit for bit on the engine.
fn exact(unit: &str) -> bool {
    clock(unit) != "host"
}

pub fn suite(a: &SuiteArgs) -> Result<(), String> {
    let started = Instant::now();
    let workloads: Vec<Workload> = ALL
        .into_iter()
        .filter(|w| a.only.is_none_or(|o| o == *w))
        .collect();
    std::fs::create_dir_all(&a.out_dir).map_err(|e| format!("{}: {e}", a.out_dir.display()))?;

    // runs[w][rep]
    let mut runs: Vec<Vec<RunOut>> = workloads.iter().map(|_| Vec::new()).collect();
    for rep in 0..a.reps {
        for (i, &w) in workloads.iter().enumerate() {
            let t = Instant::now();
            runs[i].push(run_child(w, a, false)?);
            eprintln!(
                "rep {}/{} {:<13} {:.1}s",
                rep + 1,
                a.reps,
                w.name(),
                t.elapsed().as_secs_f64()
            );
        }
    }
    let mut traced = Vec::new();
    for &w in &workloads {
        let t = Instant::now();
        traced.push(run_child(w, a, true)?);
        eprintln!(
            "traced    {:<13} {:.1}s",
            w.name(),
            t.elapsed().as_secs_f64()
        );
    }

    // Virtual time is a function of the inputs: the repetitions of an
    // engine workload must agree bit for bit.
    for (w, reps) in workloads.iter().zip(&runs) {
        if !w.on_engine() {
            continue;
        }
        for (k, (name, unit, first)) in reps[0].metrics.iter().enumerate() {
            if exact(unit)
                && reps
                    .iter()
                    .any(|r| r.metrics[k].2.to_bits() != first.to_bits())
            {
                let seen: Vec<f64> = reps.iter().map(|r| r.metrics[k].2).collect();
                return Err(format!(
                    "{} @ {}: not bit-identical across repetitions: {seen:?}",
                    name,
                    w.name()
                ));
            }
        }
    }

    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "\"schema\": 1, \"seed\": {}, \"reps\": {}, \"rounds\": {}, \"sizes\": \"{}\",",
        a.seed,
        a.reps,
        child_rounds(a.smoke),
        if a.smoke { "smoke" } else { "full" }
    );
    println!(
        "\n== end to end: {} repetitions of {} rounds, seed {:#x} ==",
        a.reps,
        child_rounds(a.smoke),
        a.seed
    );
    println!(
        "{:<13} {:<20} {:<8} {:<8} {:>14} {:>14} {:>14} {:>3}",
        "workload", "metric", "unit", "clock", "median", "q1", "q3", "n"
    );
    out.push_str("\"end_to_end\": [\n");
    let mut first_row = true;
    for (w, reps) in workloads.iter().zip(&runs) {
        for (k, (name, unit, _)) in reps[0].metrics.iter().enumerate() {
            let values: Vec<f64> = reps.iter().map(|r| r.metrics[k].2).collect();
            let (q1, med, q3) = quartiles(&values);
            println!(
                "{:<13} {:<20} {:<8} {:<8} {:>14.6} {:>14.6} {:>14.6} {:>3}",
                w.name(),
                name,
                unit,
                clock(unit),
                med,
                q1,
                q3,
                values.len()
            );
            let _ = write!(
                out,
                "{}{{\"workload\": \"{}\", \"metric\": \"{}\", \"unit\": \"{}\", \"clock\": \"{}\", \"n\": {}, \"median\": {med}, \"q1\": {q1}, \"q3\": {q3}, \"values\": {values:?}}}",
                if first_row { "" } else { ",\n" },
                w.name(), name, unit, clock(unit), values.len()
            );
            first_row = false;
        }
    }
    out.push_str("\n],\n\"fail\": [\n");
    println!(
        "\n{:<13} {:>12} {:>8} {:>10}",
        "workload", "attempted", "failed", "fail_frac"
    );
    for (i, (w, reps)) in workloads.iter().zip(&runs).enumerate() {
        let attempted: f64 = reps.iter().map(|r| r.attempted).sum();
        let failed: f64 = reps.iter().map(|r| r.failed).sum();
        println!(
            "{:<13} {attempted:>12} {failed:>8} {:>10.6}",
            w.name(),
            failed / attempted.max(1.0)
        );
        let _ = write!(
            out,
            "{}{{\"workload\": \"{}\", \"attempted\": {attempted}, \"failed\": {failed}}}",
            if i == 0 { "" } else { ",\n" },
            w.name()
        );
    }

    // One probe sample per traced run: the quartiles are over them.
    println!("\n== layer probes (host ns per call unless the unit says otherwise) ==");
    println!(
        "{:<32} {:<5} {:>12} {:>12} {:>12} {:>3}",
        "probe", "unit", "median", "q1", "q3", "n"
    );
    out.push_str("\n],\n\"probes\": [\n");
    let is_probe = |name: &str| probes::NAMES.contains(&name);
    let mut first_row = true;
    for (k, (name, unit, _)) in traced[0].metrics.iter().enumerate() {
        if !is_probe(name) {
            continue;
        }
        let values: Vec<f64> = traced.iter().map(|t| t.metrics[k].2).collect();
        let (q1, med, q3) = quartiles(&values);
        let n = values.len();
        println!("{name:<32} {unit:<5} {med:>12.2} {q1:>12.2} {q3:>12.2} {n:>3}");
        let _ = write!(
            out,
            "{}{{\"metric\": \"{name}\", \"unit\": \"{unit}\", \"median\": {med}, \"q1\": {q1}, \"q3\": {q3}, \"n\": {n}}}",
            if first_row { "" } else { ",\n" },
        );
        first_row = false;
    }

    println!("\n== traced run, one per workload (n = 1 run; 0 = layer not exercised) ==");
    print!("{:<28} {:<8}", "metric", "unit");
    for w in &workloads {
        print!(" {:>13}", w.name());
    }
    println!();
    out.push_str("\n],\n\"per_layer\": [\n");
    let mut first_row = true;
    for (k, (name, unit, _)) in traced[0].metrics.iter().enumerate() {
        if is_probe(name) {
            continue; // shown above
        }
        print!("{name:<28} {unit:<8}");
        for (w, t) in workloads.iter().zip(&traced) {
            print!(" {:>13.4}", t.metrics[k].2);
            let _ = write!(
                out,
                "{}{{\"workload\": \"{}\", \"metric\": \"{name}\", \"unit\": \"{unit}\", \"value\": {}}}",
                if first_row { "" } else { ",\n" },
                w.name(),
                t.metrics[k].2
            );
            first_row = false;
        }
        println!();
    }
    out.push_str("\n]\n}\n");
    let path = a.out_dir.join("results.json");
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "\nall outputs correct; wrote {} and {}/trace-<workload>.json in {:.0}s",
        path.display(),
        a.out_dir.display(),
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    #[test]
    fn units_name_their_clock() {
        for m in &END_TO_END {
            let want = match m.name {
                n if n.starts_with("v_") => "virtual",
                "store_bytes_per_op" => "count",
                _ => "host",
            };
            assert_eq!(clock(m.unit), want, "{}", m.name);
        }
        assert!(exact("B/op") && exact("vus") && !exact("kops/s") && !exact("MiB"));
    }
}
