//! A miniature `tar` implementation over the [`Vfs`] trait (ustar
//! format), plus the paper's two archiving scenarios (§IV-D):
//!
//! 1. **Archiving** — the dataset is read from the burst-buffer/EBS tier,
//!    stored as a tar file on campaign storage, then extracted and
//!    categorized there.
//! 2. **Unarchiving** — the extracted dataset is re-packed into a tar
//!    file and moved back toward the burst buffer.

use crate::client::{barrier, SimClient};
use crate::dataset::DatasetSpec;
use arkfs_simkit::{Actor, BandwidthResource, Engine, Nanos, ThroughputMeter, SEC};
use arkfs_vfs::{Credentials, DirEntry, FileHandle, FsError, FsResult, OpenFlags, Vfs};
use std::sync::Arc;

const BLOCK: usize = 512;

/// Serialize one ustar header block.
fn header_block(name: &str, size: u64) -> FsResult<[u8; BLOCK]> {
    let mut h = [0u8; BLOCK];
    let name_bytes = name.as_bytes();
    if name_bytes.len() > 100 {
        return Err(FsError::NameTooLong);
    }
    h[..name_bytes.len()].copy_from_slice(name_bytes);
    h[100..107].copy_from_slice(b"0000644"); // mode
    h[108..115].copy_from_slice(b"0000000"); // uid
    h[116..123].copy_from_slice(b"0000000"); // gid
    let size_field = format!("{size:011o}");
    h[124..124 + size_field.len()].copy_from_slice(size_field.as_bytes());
    h[136..147].copy_from_slice(b"00000000000"); // mtime
    h[156] = b'0'; // typeflag: regular file
    h[257..262].copy_from_slice(b"ustar");
    h[263..265].copy_from_slice(b"00");
    // Checksum: computed with the checksum field filled with spaces.
    h[148..156].copy_from_slice(b"        ");
    let sum: u64 = h.iter().map(|&b| b as u64).sum();
    let chk = format!("{sum:06o}\0 ");
    h[148..156].copy_from_slice(chk.as_bytes());
    Ok(h)
}

/// Parse a ustar header block. `Ok(None)` means an all-zero end block.
fn parse_header(block: &[u8]) -> FsResult<Option<(String, u64)>> {
    if block.len() < BLOCK {
        return Err(FsError::Io("short tar header".into()));
    }
    if block.iter().all(|&b| b == 0) {
        return Ok(None);
    }
    // Verify the checksum.
    let stored = std::str::from_utf8(&block[148..156])
        .map_err(|_| FsError::Io("bad tar checksum field".into()))?;
    let stored = u64::from_str_radix(stored.trim_end_matches(['\0', ' ']).trim(), 8)
        .map_err(|_| FsError::Io("bad tar checksum".into()))?;
    let mut sum: u64 = block[..BLOCK].iter().map(|&b| b as u64).sum();
    for &b in &block[148..156] {
        sum = sum - b as u64 + b' ' as u64;
    }
    if sum != stored {
        return Err(FsError::Io("tar checksum mismatch".into()));
    }
    let name_end = block[..100].iter().position(|&b| b == 0).unwrap_or(100);
    let name = std::str::from_utf8(&block[..name_end])
        .map_err(|_| FsError::Io("bad tar name".into()))?
        .to_string();
    let size_str =
        std::str::from_utf8(&block[124..135]).map_err(|_| FsError::Io("bad tar size".into()))?;
    let size = u64::from_str_radix(size_str.trim_matches(['\0', ' ']), 8)
        .map_err(|_| FsError::Io("bad tar size".into()))?;
    Ok(Some((name, size)))
}

/// Streaming tar writer into an open Vfs file.
pub struct TarWriter<'a> {
    fs: &'a dyn Vfs,
    ctx: &'a Credentials,
    fh: FileHandle,
    offset: u64,
}

impl<'a> TarWriter<'a> {
    /// Create `path` and start writing a tar stream into it.
    pub fn create(fs: &'a dyn Vfs, ctx: &'a Credentials, path: &str) -> FsResult<Self> {
        let fh = fs.create(ctx, path, 0o644)?;
        Ok(TarWriter {
            fs,
            ctx,
            fh,
            offset: 0,
        })
    }

    fn put(&mut self, data: &[u8]) -> FsResult<()> {
        let mut off = 0usize;
        while off < data.len() {
            let n = self
                .fs
                .write(self.ctx, self.fh, self.offset, &data[off..])?;
            if n == 0 {
                return Err(FsError::Io("short tar write".into()));
            }
            off += n;
            self.offset += n as u64;
        }
        Ok(())
    }

    /// Append one member file.
    pub fn add_file(&mut self, name: &str, data: &[u8]) -> FsResult<()> {
        let header = header_block(name, data.len() as u64)?;
        self.put(&header)?;
        self.put(data)?;
        let pad = (BLOCK - data.len() % BLOCK) % BLOCK;
        if pad > 0 {
            self.put(&vec![0u8; pad])?;
        }
        Ok(())
    }

    /// Write the end-of-archive marker and close the file.
    pub fn finish(mut self) -> FsResult<u64> {
        self.put(&[0u8; 2 * BLOCK])?;
        let total = self.offset;
        self.fs.close(self.ctx, self.fh)?;
        Ok(total)
    }
}

/// Streaming tar reader from an open Vfs file.
pub struct TarReader<'a> {
    fs: &'a dyn Vfs,
    ctx: &'a Credentials,
    fh: FileHandle,
    offset: u64,
}

impl<'a> TarReader<'a> {
    pub fn open(fs: &'a dyn Vfs, ctx: &'a Credentials, path: &str) -> FsResult<Self> {
        let fh = fs.open(ctx, path, OpenFlags::RDONLY)?;
        Ok(TarReader {
            fs,
            ctx,
            fh,
            offset: 0,
        })
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> FsResult<()> {
        let mut off = 0usize;
        while off < buf.len() {
            let n = self
                .fs
                .read(self.ctx, self.fh, self.offset, &mut buf[off..])?;
            if n == 0 {
                return Err(FsError::Io("unexpected tar EOF".into()));
            }
            off += n;
            self.offset += n as u64;
        }
        Ok(())
    }

    /// Next member: `(name, contents)`, or `None` at end of archive.
    pub fn next_entry(&mut self) -> FsResult<Option<(String, Vec<u8>)>> {
        let mut header = [0u8; BLOCK];
        self.read_exact(&mut header)?;
        let Some((name, size)) = parse_header(&header)? else {
            return Ok(None);
        };
        let mut data = vec![0u8; size as usize];
        self.read_exact(&mut data)?;
        let pad = (BLOCK - size as usize % BLOCK) % BLOCK;
        if pad > 0 {
            let mut skip = vec![0u8; pad];
            self.read_exact(&mut skip)?;
        }
        Ok(Some((name, data)))
    }

    pub fn close(self) -> FsResult<()> {
        self.fs.close(self.ctx, self.fh)
    }
}

/// Parameters of the §IV-D archiving scenarios.
#[derive(Debug, Clone)]
pub struct ArchiveConfig {
    /// Per-process dataset shape.
    pub dataset: DatasetSpec,
    /// Burst-buffer/EBS sequential bandwidth shared by all processes
    /// (paper: 1 GB/s).
    pub ebs_bw: u64,
}

impl Default for ArchiveConfig {
    fn default() -> Self {
        ArchiveConfig {
            dataset: DatasetSpec::ms_coco(),
            ebs_bw: 1_000_000_000,
        }
    }
}

/// Elapsed virtual times of the two scenarios (Table II rows).
#[derive(Debug, Clone)]
pub struct ArchiveResult {
    pub archive_ns: Nanos,
    pub unarchive_ns: Nanos,
    pub dataset_bytes: u64,
}

impl ArchiveResult {
    pub fn archive_secs(&self) -> f64 {
        self.archive_ns as f64 / SEC as f64
    }

    pub fn unarchive_secs(&self) -> f64 {
        self.unarchive_ns as f64 / SEC as f64
    }
}

/// Where one process stands in the two scenarios. One engine step
/// moves one member file, or one 1 MiB read towards the burst buffer.
enum Stage<'a> {
    /// About to start scenario 1.
    Archive,
    /// Scenario 1: the dataset goes from the burst-buffer tier into the
    /// tar on campaign storage, starting at this member.
    Pack(TarWriter<'a>, usize),
    /// Scenario 1: the tar is extracted and categorized.
    Extract(TarReader<'a>),
    /// Scenario 1 done; about to start scenario 2.
    Unarchive,
    /// Scenario 2: the extracted files are re-packed into a tar,
    /// starting at this entry.
    Repack(TarWriter<'a>, Vec<DirEntry>, usize),
    /// Scenario 2: the tar (handle, size) is streamed back to the burst
    /// buffer, starting at this offset.
    Stream(FileHandle, u64, u64),
    Done,
}

/// One archiving process: the engine's actor.
struct Process<'a> {
    index: usize,
    client: &'a dyn SimClient,
    creds: &'a Credentials,
    spec: &'a DatasetSpec,
    sizes: &'a [u64],
    ebs: &'a BandwidthResource,
    meter: &'a ThroughputMeter,
    start: Nanos,
    stage: Stage<'a>,
    error: Option<FsError>,
}

impl<'a> Process<'a> {
    fn out_dir(&self) -> String {
        format!("/campaign/extracted-p{}", self.index)
    }

    /// The scenario-1 tar, or the scenario-2 tar headed back.
    fn tar_path(&self, back: bool) -> String {
        let prefix = if back { "back-" } else { "" };
        format!("/campaign/{prefix}p{}.tar", self.index)
    }

    /// Pull `bytes` through the shared burst-buffer tier.
    fn ebs_transfer(&self, bytes: u64) {
        let port = self.client.port();
        port.wait_until(self.ebs.transfer(port.now(), bytes));
    }

    /// Close a scenario: its span goes on the meter and the engine run
    /// ends for this process.
    fn end_scenario(&mut self, next: Stage<'a>) -> bool {
        self.meter
            .record_span(1, self.start, self.client.port().now());
        self.stage = next;
        false
    }

    /// One step. `Ok(false)` at the end of a scenario.
    fn advance(&mut self) -> FsResult<bool> {
        let (fs, creds): (&'a dyn Vfs, _) = (self.client, self.creds);
        match std::mem::replace(&mut self.stage, Stage::Done) {
            Stage::Archive => {
                self.start = self.client.port().now();
                let tar = TarWriter::create(fs, creds, &self.tar_path(false))?;
                self.stage = Stage::Pack(tar, 0);
            }
            Stage::Pack(mut tar, next) if next < self.sizes.len() => {
                let size = self.sizes[next];
                self.ebs_transfer(size);
                tar.add_file(&self.spec.name(next), &self.spec.content(next, size))?;
                self.stage = Stage::Pack(tar, next + 1);
            }
            Stage::Pack(tar, _) => {
                tar.finish()?;
                fs.mkdir(creds, &self.out_dir(), 0o755)?;
                let reader = TarReader::open(fs, creds, &self.tar_path(false))?;
                self.stage = Stage::Extract(reader);
            }
            Stage::Extract(mut reader) => match reader.next_entry()? {
                Some((name, data)) => {
                    let path = format!("{}/{name}", self.out_dir());
                    arkfs_vfs::write_file(fs, creds, &path, &data)?;
                    self.stage = Stage::Extract(reader);
                }
                None => {
                    reader.close()?;
                    fs.sync_all(creds)?;
                    return Ok(self.end_scenario(Stage::Unarchive));
                }
            },
            Stage::Unarchive => {
                self.start = self.client.port().now();
                let entries = fs.readdir(creds, &self.out_dir())?;
                let tar = TarWriter::create(fs, creds, &self.tar_path(true))?;
                self.stage = Stage::Repack(tar, entries, 0);
            }
            Stage::Repack(mut tar, entries, next) if next < entries.len() => {
                let name = &entries[next].name;
                let data = arkfs_vfs::read_file(fs, creds, &format!("{}/{name}", self.out_dir()))?;
                tar.add_file(name, &data)?;
                self.stage = Stage::Repack(tar, entries, next + 1);
            }
            Stage::Repack(tar, ..) => {
                tar.finish()?;
                let size = fs.stat(creds, &self.tar_path(true))?.size;
                let fh = fs.open(creds, &self.tar_path(true), OpenFlags::RDONLY)?;
                self.stage = Stage::Stream(fh, size, 0);
            }
            Stage::Stream(fh, size, off) => {
                let mut buf = vec![0u8; 1 << 20];
                let n = if off < size {
                    fs.read(creds, fh, off, &mut buf)?
                } else {
                    0
                };
                if n == 0 {
                    fs.close(creds, fh)?;
                    return Ok(self.end_scenario(Stage::Done));
                }
                self.ebs_transfer(n as u64);
                self.stage = Stage::Stream(fh, size, off + n as u64);
            }
            Stage::Done => return Ok(false),
        }
        Ok(true)
    }
}

impl Actor for Process<'_> {
    fn now(&self) -> Nanos {
        self.client.port().now()
    }

    fn step(&mut self) -> bool {
        self.advance().unwrap_or_else(|e| {
            self.error = Some(e);
            self.stage = Stage::Done;
            false
        })
    }
}

/// Drive every process through one scenario on the engine; returns the
/// scenario's virtual makespan.
fn run_scenario(procs: &mut [Process<'_>], meter: &ThroughputMeter, name: &str) -> FsResult<Nanos> {
    Engine::run(procs);
    match procs.iter_mut().find_map(|p| p.error.take()) {
        Some(e) => Err(e),
        None => Ok(meter.finish(name).makespan),
    }
}

/// Run both scenarios over the fleet; each process handles its own copy
/// of the dataset, as in the paper (32 processes × one MS-COCO each).
pub fn archive_scenario(
    clients: &[Arc<dyn SimClient>],
    cfg: &ArchiveConfig,
) -> FsResult<ArchiveResult> {
    assert!(!clients.is_empty());
    let creds = Credentials::root();
    clients[0].mkdir(&creds, "/campaign", 0o755)?;
    let ebs = BandwidthResource::new("ebs", cfg.ebs_bw);
    let sizes = cfg.dataset.sizes();
    let (archive, unarchive) = (ThroughputMeter::new(), ThroughputMeter::new());
    let mut procs: Vec<Process> = clients
        .iter()
        .enumerate()
        .map(|(index, client)| Process {
            index,
            client: client.as_ref(),
            creds: &creds,
            spec: &cfg.dataset,
            sizes: &sizes,
            ebs: &ebs,
            meter: &archive,
            start: 0,
            stage: Stage::Archive,
            error: None,
        })
        .collect();
    let archive_ns = run_scenario(&mut procs, &archive, "archive")?;
    barrier(clients);
    for p in &mut procs {
        p.meter = &unarchive;
    }
    let unarchive_ns = run_scenario(&mut procs, &unarchive, "unarchive")?;
    Ok(ArchiveResult {
        archive_ns,
        unarchive_ns,
        dataset_bytes: cfg.dataset.total_bytes() * clients.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arkfs::{ArkCluster, ArkConfig};
    use arkfs_objstore::{ClusterConfig, ObjectCluster};
    use arkfs_vfs::read_file;

    fn ark_fleet(n: usize) -> Vec<Arc<dyn SimClient>> {
        let store = Arc::new(ObjectCluster::new(ClusterConfig::test_tiny()));
        let cluster = ArkCluster::new(ArkConfig::test_tiny(), store);
        (0..n)
            .map(|_| cluster.client() as Arc<dyn SimClient>)
            .collect()
    }

    #[test]
    fn header_roundtrip() {
        let h = header_block("dir/file.jpg", 12345).unwrap();
        let parsed = parse_header(&h).unwrap().unwrap();
        assert_eq!(parsed, ("dir/file.jpg".to_string(), 12345));
        // Zero block is end-of-archive.
        assert_eq!(parse_header(&[0u8; BLOCK]).unwrap(), None);
        // Corruption detected.
        let mut bad = h;
        bad[0] ^= 0xFF;
        assert!(parse_header(&bad).is_err());
        // Overlong names rejected.
        assert_eq!(
            header_block(&"x".repeat(101), 0).err(),
            Some(FsError::NameTooLong)
        );
    }

    #[test]
    fn tar_write_and_extract_roundtrip() {
        let fleet = ark_fleet(1);
        let c = &fleet[0];
        let ctx = Credentials::root();
        let files: Vec<(String, Vec<u8>)> = (0..5)
            .map(|i| (format!("f{i}.bin"), vec![i as u8; 100 + i * 37]))
            .collect();
        {
            let mut tar = TarWriter::create(&**c, &ctx, "/a.tar").unwrap();
            for (name, data) in &files {
                tar.add_file(name, data).unwrap();
            }
            let total = tar.finish().unwrap();
            assert_eq!(total % BLOCK as u64, 0);
        }
        let mut reader = TarReader::open(&**c, &ctx, "/a.tar").unwrap();
        let mut got = Vec::new();
        while let Some(entry) = reader.next_entry().unwrap() {
            got.push(entry);
        }
        reader.close().unwrap();
        assert_eq!(got, files);
    }

    #[test]
    fn archive_scenario_end_to_end() {
        let fleet = ark_fleet(2);
        let cfg = ArchiveConfig {
            dataset: DatasetSpec::scaled(20, 256, 5),
            ebs_bw: 1_000_000_000,
        };
        let result = archive_scenario(&fleet, &cfg).unwrap();
        assert!(result.archive_ns > 0);
        assert!(result.unarchive_ns > 0);
        assert!(result.dataset_bytes > 0);
        // The extracted dataset is really there and correct.
        let ctx = Credentials::root();
        let spec = &cfg.dataset;
        let sizes = spec.sizes();
        let sample = read_file(
            &*fleet[0],
            &ctx,
            &format!("/campaign/extracted-p0/{}", spec.name(3)),
        )
        .unwrap();
        assert_eq!(sample, spec.content(3, sizes[3]));
        // The re-packed tar exists.
        assert!(fleet[1].stat(&ctx, "/campaign/back-p1.tar").unwrap().size > 0);
    }
}
