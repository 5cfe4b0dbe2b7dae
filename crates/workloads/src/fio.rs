//! fio-style large-file sequential I/O (§IV-B, Figure 6).
//!
//! "We run fio with 32 processes and each process writes and then reads a
//! 32GB file using 128KB request size [...] At the end of the file
//! writing, each fio process calls fsync() [...] and drops the cache
//! entries of written files."
//!
//! File sizes are scaled down by default so the harness fits in memory;
//! bandwidth *ratios* are preserved because the virtual-time model
//! charges per byte.
//!
//! Each process is one resumable op generator — create/fsync/close are
//! [`Op::Unmetered`] so only the data requests land in the latency
//! distribution, exactly what the old hand-interleaved loop metered.

use crate::client::{barrier, SimClient};
use crate::drive::run_ops;
use crate::ops::{gen_iter, Op, OpGen};
use arkfs_simkit::{PhaseResult, ThroughputMeter};
use arkfs_vfs::{Credentials, FsError, FsResult};
use std::sync::Arc;

/// fio parameters.
#[derive(Debug, Clone)]
pub struct FioConfig {
    /// Bytes per file (per process). Paper: 32 GiB; scaled by default.
    pub file_size: u64,
    /// Request size (paper: 128 KiB).
    pub request_size: usize,
}

impl Default for FioConfig {
    fn default() -> Self {
        FioConfig {
            file_size: 64 * 1024 * 1024,
            request_size: 128 * 1024,
        }
    }
}

/// Write and read bandwidth of one fio run.
#[derive(Debug, Clone)]
pub struct FioResult {
    pub write: PhaseResult,
    pub read: PhaseResult,
    /// Total bytes moved per phase.
    pub bytes: u64,
}

impl FioResult {
    pub fn write_mib_s(&self) -> f64 {
        self.write.bandwidth_mib_s(self.bytes)
    }

    pub fn read_mib_s(&self) -> f64 {
        self.read.bandwidth_mib_s(self.bytes)
    }
}

fn ctx() -> Credentials {
    Credentials::root()
}

fn run_fio_phase(
    clients: &[Arc<dyn SimClient>],
    name: &str,
    gen_of: impl Fn(usize) -> Box<dyn OpGen>,
) -> FsResult<PhaseResult> {
    let meter = ThroughputMeter::new();
    let starts: Vec<u64> = clients.iter().map(|c| c.port().now()).collect();
    let gens: Vec<Box<dyn OpGen>> = (0..clients.len()).map(&gen_of).collect();
    let report = run_ops(clients, gens, Some(&meter));
    if report.total_errors() > 0 {
        return Err(FsError::Io(format!(
            "fio {name} phase: {} ops failed",
            report.total_errors()
        )));
    }
    for (i, c) in clients.iter().enumerate() {
        // One span per process: fio reports bandwidth, not ops/s.
        meter.record_span(1, starts[i], c.port().now());
    }
    barrier(clients);
    Ok(meter.finish(name))
}

/// Run the fio workload over the fleet.
pub fn fio(clients: &[Arc<dyn SimClient>], cfg: &FioConfig) -> FsResult<FioResult> {
    assert!(!clients.is_empty());
    assert!(cfg.request_size > 0 && cfg.file_size > 0);
    clients[0].mkdir(&ctx(), "/fio", 0o755)?;
    let file_size = cfg.file_size;
    let req = cfg.request_size;
    let bytes = file_size * clients.len() as u64;
    let requests = file_size.div_ceil(req as u64);

    // WRITE phase: sequential writes, interleaved across processes in
    // virtual-time order, then fsync and drop caches.
    let write = run_fio_phase(clients, "write", |i| {
        let open = std::iter::once(Op::Unmetered(Box::new(Op::OpenCreate {
            path: format!("/fio/job{i}.bin"),
        })));
        let writes = (0..requests).map(move |j| {
            let off = j * req as u64;
            Op::Write {
                off,
                len: req.min((file_size - off) as usize),
                fill: 0x5A,
            }
        });
        let finish = [Op::Fsync, Op::Close, Op::DropCaches]
            .map(|op| Op::Unmetered(Box::new(op)))
            .into_iter();
        gen_iter(open.chain(writes).chain(finish))
    })?;

    // READ phase: sequential reads of the same files, interleaved.
    let read = run_fio_phase(clients, "read", |i| {
        let open = std::iter::once(Op::Unmetered(Box::new(Op::Open {
            path: format!("/fio/job{i}.bin"),
        })));
        let reads = (0..requests).map(move |j| Op::Read {
            off: j * req as u64,
            len: req,
            eof: file_size,
        });
        let close = std::iter::once(Op::Unmetered(Box::new(Op::Close)));
        gen_iter(open.chain(reads).chain(close))
    })?;

    Ok(FioResult { write, read, bytes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arkfs::{ArkCluster, ArkConfig};
    use arkfs_objstore::{ClusterConfig, ObjectCluster};

    fn ark_fleet(n: usize) -> Vec<Arc<dyn SimClient>> {
        let store = Arc::new(ObjectCluster::new(ClusterConfig::test_tiny()));
        let cluster = ArkCluster::new(ArkConfig::test_tiny(), store);
        (0..n)
            .map(|_| cluster.client() as Arc<dyn SimClient>)
            .collect()
    }

    #[test]
    fn fio_reports_positive_bandwidth() {
        let fleet = ark_fleet(2);
        let cfg = FioConfig {
            file_size: 4096,
            request_size: 256,
        };
        let result = fio(&fleet, &cfg).unwrap();
        assert_eq!(result.bytes, 8192);
        assert!(result.write_mib_s() > 0.0);
        assert!(result.read_mib_s() > 0.0);
        // Files really exist with the right size.
        let st = fleet[0]
            .stat(&Credentials::root(), "/fio/job0.bin")
            .unwrap();
        assert_eq!(st.size, 4096);
    }

    #[test]
    fn fio_is_deterministic_on_the_engine() {
        let run = || {
            let fleet = ark_fleet(4);
            let cfg = FioConfig {
                file_size: 8192,
                request_size: 512,
            };
            let r = fio(&fleet, &cfg).unwrap();
            (r.write, r.read)
        };
        assert_eq!(run(), run());
    }
}
