//! The `arkfs-bench` binary as a process: inputs it cannot parse and
//! artifacts it cannot write fail the run, and what it writes does not
//! depend on the process it ran in.

use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

fn run_table1(dir: &std::path::Path, env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_arkfs-bench"))
        .args(["run", "table1"])
        .current_dir(dir)
        .envs(env.iter().copied())
        .output()
        .expect("spawn arkfs-bench")
}

#[test]
fn a_run_that_cannot_write_or_parse_its_inputs_exits_nonzero() {
    let dir = std::env::temp_dir().join(format!("arkfs-bench-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let ok = run_table1(&dir, &[]);
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    assert!(dir.join("results/table1.txt").is_file());

    let bad_env = run_table1(&dir, &[("ARKFS_BENCH_FILES", "8k")]);
    assert_eq!(bad_env.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&bad_env.stderr).contains("ARKFS_BENCH_FILES=\"8k\""));

    // `results` is a file: the table cannot be written.
    std::fs::remove_dir_all(dir.join("results")).unwrap();
    std::fs::write(dir.join("results"), "in the way").unwrap();
    let blocked = run_table1(&dir, &[]);
    assert_eq!(blocked.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&blocked.stderr).contains("results"));

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Same inputs, same bits, in any process: CI-scale fig5 run twice at
/// once, in processes whose environments differ in size, writes the same
/// BENCH and trace bytes. std's hasher is seeded per process, so a map
/// iterated in hash order where the order reaches virtual time breaks it.
#[test]
fn fig5_is_byte_identical_across_processes() {
    let base = std::env::temp_dir().join(format!("arkfs-bench-det-{}", std::process::id()));
    let runs: Vec<(PathBuf, Child)> = [0, 4096]
        .into_iter()
        .map(|pad| {
            let dir = base.join(pad.to_string());
            std::fs::create_dir_all(&dir).unwrap();
            let child = Command::new(env!("CARGO_BIN_EXE_arkfs-bench"))
                .args(["run", "fig5", "--trace", "trace.json"])
                .current_dir(&dir)
                .envs([("ARKFS_BENCH_FILES", "8000"), ("ARKFS_BENCH_PROCS", "8")])
                .env("ARKFS_BENCH_PAD", "x".repeat(pad))
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn arkfs-bench");
            (dir, child)
        })
        .collect();
    let outputs: Vec<[Vec<u8>; 2]> = (runs.into_iter())
        .map(|(dir, child)| {
            let out = child.wait_with_output().unwrap();
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
            ["BENCH_fig5.json", "trace.json"].map(|f| std::fs::read(dir.join(f)).unwrap())
        })
        .collect();
    assert!(outputs[0][0] == outputs[1][0], "BENCH_fig5.json differs");
    assert!(outputs[0][1] == outputs[1][1], "trace.json differs");
    std::fs::remove_dir_all(&base).unwrap();
}
