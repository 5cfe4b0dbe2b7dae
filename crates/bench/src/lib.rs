//! The figure harness: every figure and table of the paper's
//! evaluation (§IV), declared once in a registry ([`figures::FIGURES`])
//! that the one `arkfs-bench` binary runs, emits, schema-checks and
//! regenerates from.
//!
//! Scale inputs (environment variables; each row of the registry
//! declares its own defaults):
//! * `ARKFS_BENCH_FILES` — file count (total, or per client in the
//!   client-count sweeps; scaled down from the paper's 1 M).
//! * `ARKFS_BENCH_PROCS` — mdtest/fio/tar process count.
//! * `ARKFS_BENCH_CLIENTS` — largest client count of a sweep.
//! * `ARKFS_BENCH_FULL=1` — paper-scale parameters (slow, memory-heavy).

mod ablate;
pub mod figures;
pub mod fleet;
pub mod registry;

pub use figures::{figure, FIGURES};
pub use fleet::{ark_fleet, ceph_fleet, goofys_fleet, marfs_fleet, s3fs_fleet, System};
pub use registry::{check_bench, check_trace, Figure, Metric, Record, Run, Sample, Scale};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{format_table, BENCH_SCHEMA_VERSION};
    use arkfs::ArkConfig;
    use arkfs_baselines::MountType;
    use arkfs_telemetry::json::{self, Value};
    use arkfs_vfs::Credentials;

    #[test]
    fn fleet_builders_produce_working_clients() {
        let ctx = Credentials::root();
        for system in [
            ark_fleet(2, ArkConfig::test_tiny(), false),
            ceph_fleet(2, 1, MountType::Kernel, 64, false),
            marfs_fleet(2, 64),
            s3fs_fleet(2, 64, false),
            goofys_fleet(2, 64, 256, false),
        ] {
            assert_eq!(system.clients.len(), 2);
            system.clients[0]
                .mkdir(&ctx, "/probe", 0o755)
                .unwrap_or_else(|e| panic!("{}: {e}", system.name));
            assert!(
                system.clients[1].stat(&ctx, "/probe").is_ok(),
                "{}",
                system.name
            );
        }
    }

    #[test]
    fn env_scale_defaults() {
        let env = |vars: &'static [(&str, &str)]| {
            move |key: &str| {
                vars.iter()
                    .find(|(k, _)| *k == key)
                    .map(|(_, v)| v.to_string())
            }
        };
        // fig1 and fig7 count files per client: their full scale is not
        // fig4's million.
        for (name, files) in [("fig1", 2000), ("fig7", 2000), ("fig4", 1_000_000)] {
            let fig = figure(name).unwrap();
            assert_eq!(Scale::from_env(fig, env(&[])), Ok(fig.scale));
            let full = Scale::from_env(fig, env(&[("ARKFS_BENCH_FULL", "1")])).unwrap();
            assert_eq!((full, full.files), (fig.full, files));
        }
        let fig9 = figure("fig9").unwrap();
        let ci = env(&[
            ("ARKFS_BENCH_FILES", "16384"),
            ("ARKFS_BENCH_CLIENTS", "1024"),
        ]);
        let want = Scale {
            files: 16_384,
            clients: 1024,
            ..fig9.scale
        };
        assert_eq!(Scale::from_env(fig9, ci), Ok(want));
        for (key, value) in [
            ("ARKFS_BENCH_FILES", "8k"),
            ("ARKFS_BENCH_PROCS", ""),
            ("ARKFS_BENCH_CLIENTS", "-1"),
        ] {
            let one = move |k: &str| (k == key).then(|| value.to_string());
            let err = Scale::from_env(fig9, one).unwrap_err();
            assert_eq!(err, format!("{key}={value:?} is not a count"));
        }
    }

    #[test]
    fn table_printer_aligns() {
        let rows = [vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]];
        let lines = format_table("t", &["a", "long-header"], &rows);
        assert_eq!(
            lines,
            [
                "== t ==",
                "  a  long-header",
                "-".repeat(18).as_str(),
                "  1            2",
                "333            4"
            ]
        );
    }

    #[test]
    fn bench_json_is_well_formed() {
        let mut run = Run::new(figure("fig4").unwrap(), figure("fig4").unwrap().scale, None);
        run.config = vec![("procs", 16.0)];
        run.records.push(Record {
            group: "a\"b".to_string(),
            system: "ArkFS".to_string(),
            metrics: vec![
                ("write_ops_s".to_string(), 1234.5),
                ("bad".to_string(), f64::NAN),
            ],
        });
        let text = run.bench_json();
        let doc = json::parse(&text).expect("well-formed");
        assert_eq!(doc.get("bench"), Some(&Value::Str("fig4".into())));
        assert_eq!(
            doc.get("schema"),
            Some(&Value::Num(BENCH_SCHEMA_VERSION as f64))
        );
        assert_eq!(doc.get("config"), Some(&Value::nums(&[("procs", 16.0)])));
        let rec = &doc.get("results").and_then(Value::as_arr).unwrap()[0];
        assert_eq!(rec.get("group"), Some(&Value::Str("a\"b".into())));
        let metrics = rec.get("metrics").unwrap();
        assert_eq!(metrics.get("write_ops_s"), Some(&Value::Num(1234.5)));
        // Non-finite metrics must become null.
        assert_eq!(metrics.get("bad"), Some(&Value::Null));
    }
}
