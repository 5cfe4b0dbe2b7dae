//! The `arkfs-bench` binary's exit codes: inputs it cannot parse and
//! artifacts it cannot write fail the run.

use std::process::{Command, Output};

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
