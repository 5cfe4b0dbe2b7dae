//! The figure harness's one binary, over the registry in
//! `arkfs_bench::FIGURES`. Run it from the repository root: artifacts
//! (`results/*.txt`, `BENCH_*.json`) land in the working directory.
//!
//! ```text
//! arkfs-bench run <fig>... [--trace <path>]   run figures, write their artifacts
//! arkfs-bench regen [--check]                 run every figure; refresh EXPERIMENTS.md
//! arkfs-bench check [files] [--trace <path>]  validate BENCH_*.json / Chrome traces
//! ```
//!
//! `regen` runs each row as a child of this executable, so a figure's
//! peak memory (4.3 GiB for table2) is returned before the next one starts.
//! With `--check` it then fails if any committed artifact — including
//! EXPERIMENTS.md's measured blocks — differs from what was regenerated
//! or is not committed at all: every figure is virtual-time
//! deterministic, so a difference means code changed a figure without
//! `regen` being re-run.

use arkfs_bench::{check_bench, check_trace, figure, Run, Scale, FIGURES};
use std::path::Path;
use std::process::Command;

const EXPERIMENTS: &str = "EXPERIMENTS.md";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut traces = Vec::new();
    while let Some(i) = args.iter().position(|a| a.starts_with("--trace")) {
        let flag = args.remove(i);
        match flag.strip_prefix("--trace=") {
            Some(path) => traces.push(path.to_string()),
            None if flag == "--trace" && i < args.len() => traces.push(args.remove(i)),
            None => usage(),
        }
    }
    let outcome = match args.split_first() {
        Some((cmd, figs)) if cmd == "run" && !figs.is_empty() && traces.len() <= 1 => {
            let trace = traces.first().map(String::as_str);
            figs.iter().try_for_each(|name| run(name, trace))
        }
        Some((cmd, flags)) if cmd == "regen" && traces.is_empty() => match flags {
            [] => regen(false),
            [flag] if flag == "--check" => regen(true),
            _ => usage(),
        },
        Some((cmd, files)) if cmd == "check" => check(files, &traces),
        _ => usage(),
    };
    if let Err(e) = outcome {
        eprintln!("arkfs-bench: {e}");
        std::process::exit(1);
    }
}

fn usage() -> ! {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    eprintln!(
        "usage: arkfs-bench run <fig>... [--trace <path>]\n       \
         arkfs-bench regen [--check]\n       \
         arkfs-bench check [BENCH_*.json ...] [--trace <trace.json>]...\n\
         figures: {}",
        names.join(" ")
    );
    std::process::exit(2);
}

fn run(name: &str, trace: Option<&str>) -> Result<(), String> {
    let fig = figure(name).ok_or_else(|| format!("no figure named '{name}'"))?;
    let scale = Scale::from_env(fig, |key| std::env::var(key).ok())?;
    eprintln!("{}\n", fig.claim);
    let started = std::time::Instant::now();
    let mut run = Run::new(fig, scale, trace);
    (fig.run)(&mut run)?;
    run.save(Path::new("."))?;
    // The figure's host cost, for the log only (the process's peak
    // resident set so far): no artifact carries a host number.
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let peak = status.lines().find_map(|l| l.strip_prefix("VmHWM:"));
    let (secs, peak) = (started.elapsed().as_secs_f64(), peak.map_or("?", str::trim));
    eprintln!("{name}: {secs:.1} s wall, VmHWM {peak}");
    (fig.shape)(&run.records, &run.config)
        .map_err(|e| format!("{name}: claimed shape does not hold: {e}"))
}

fn regen(check: bool) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    for fig in FIGURES {
        eprintln!("regen: running {}", fig.name);
        let status = Command::new(&exe).args(["run", fig.name]).status();
        match status.map_err(|e| format!("{}: failed to start: {e}", fig.name))? {
            s if s.success() => {}
            s => return Err(format!("{} exited with {s}", fig.name)),
        }
    }
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"));
    let mut doc = read(EXPERIMENTS)?;
    for stem in FIGURES.iter().flat_map(|f| f.tables) {
        if let Some(spliced) = splice(&doc, stem, &read(&format!("results/{stem}.txt"))?) {
            doc = spliced;
        }
    }
    std::fs::write(EXPERIMENTS, doc).map_err(|e| format!("write {EXPERIMENTS}: {e}"))?;
    if !check {
        return Ok(());
    }
    // `status` rather than `diff`: an artifact nobody committed is
    // drift too.
    let artifacts = ["BENCH_*.json", "results", EXPERIMENTS];
    let git = |args: &[&str]| {
        let out = Command::new("git")
            .args(args)
            .args(["--"])
            .args(artifacts)
            .output();
        out.map_err(|e| format!("git {}: {e}", args[0]))
    };
    let status = git(&["status", "--porcelain"])?;
    if !status.status.success() {
        return Err(format!(
            "git status failed: {}",
            String::from_utf8_lossy(&status.stderr)
        ));
    }
    if !status.stdout.is_empty() {
        eprint!("{}", String::from_utf8_lossy(&git(&["diff"])?.stdout));
        return Err(format!(
            "committed artifacts differ from regenerated output; re-run `arkfs-bench regen` and \
             commit:\n{}",
            String::from_utf8_lossy(&status.stdout)
        ));
    }
    eprintln!("regen: committed artifacts match regenerated output");
    Ok(())
}

/// `doc` with the block between `<!-- BEGIN stem -->` and
/// `<!-- END stem -->` replaced by `table` as a fenced block; `None`
/// when the document has no such markers.
fn splice(doc: &str, stem: &str, table: &str) -> Option<String> {
    let begin = format!("<!-- BEGIN {stem} -->\n");
    let start = doc.find(&begin)? + begin.len();
    let end = start + doc[start..].find(&format!("<!-- END {stem} -->"))?;
    Some(format!(
        "{}```text\n{table}```\n{}",
        &doc[..start],
        &doc[end..]
    ))
}

fn check(files: &[String], traces: &[String]) -> Result<(), String> {
    let committed = || {
        let emitting = FIGURES.iter().filter(|f| !f.metrics.is_empty());
        emitting.map(|f| format!("BENCH_{}.json", f.name)).collect()
    };
    let files = match files.is_empty() && traces.is_empty() {
        true => committed(),
        false => files.to_vec(),
    };
    let mut failed = 0;
    let mut report = |path: &str, kind: &str, validate: &dyn Fn(&str) -> Result<(), String>| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read: {e}"));
        match text.and_then(|text| validate(&text)) {
            Ok(()) => println!("{path}: OK{kind}"),
            Err(e) => {
                println!("{path}: FAIL: {e}");
                failed += 1;
            }
        }
    };
    for path in &files {
        report(path, "", &|text| check_bench(FIGURES, text));
    }
    for path in traces {
        report(path, " (trace)", &check_trace);
    }
    match failed {
        0 => Ok(()),
        n => Err(format!("{n} document(s) failed")),
    }
}

#[cfg(test)]
mod tests {
    use super::splice;

    #[test]
    fn splice_replaces_only_the_marked_block() {
        let doc = "intro\n<!-- BEGIN fig4 -->\nstale\n<!-- END fig4 -->\nprose\n";
        let spliced = splice(doc, "fig4", "== t ==\nrow\n").unwrap();
        assert_eq!(
            spliced,
            "intro\n<!-- BEGIN fig4 -->\n```text\n== t ==\nrow\n```\n<!-- END fig4 -->\nprose\n"
        );
        // Idempotent, and a stem without markers is left alone.
        assert_eq!(splice(&spliced, "fig4", "== t ==\nrow\n"), Some(spliced));
        assert_eq!(splice(doc, "fig5", "x"), None);
    }
}
