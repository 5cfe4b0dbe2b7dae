//! Ops, the client wrapper that spans every `Vfs` call, the executor
//! that checks every result, and the harness's own engine actor.
//!
//! All workloads are closed loop: a client issues its next op when the
//! previous one returns. One metered op is one unit of `attempted`.

use crate::procfs;
use crate::spans::Recorder;
use arkfs::ArkClient;
use arkfs_simkit::{Actor, Engine};
use arkfs_vfs::{Credentials, DirEntry, FileHandle, FileType, FsResult, OpenFlags, Stat, Vfs};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// create + close of an empty file (mdtest CREATE).
    Create {
        path: String,
    },
    /// create + write `size` bytes of `fill` + close (mdtest-hard WRITE).
    CreateWrite {
        path: String,
        size: usize,
        fill: u8,
    },
    /// stat; the result must be a regular file of `size` bytes.
    Stat {
        path: String,
        size: u64,
    },
    /// open + read + close; the bytes must be `size` times `fill`.
    OpenRead {
        path: String,
        size: usize,
        fill: u8,
    },
    Unlink {
        path: String,
    },
    /// One request on the held handle (fio).
    Write {
        off: u64,
        len: usize,
        fill: u8,
    },
    /// One request on the held handle; the bytes must be `len` times `fill`.
    Read {
        off: u64,
        len: usize,
        fill: u8,
    },
    // Bracketing ops: part of the phase's time span, not of its op count
    // or latency distribution.
    OpenCreate {
        path: String,
    },
    Open {
        path: String,
    },
    Fsync,
    Close,
    DropCaches,
}

impl Op {
    pub fn metered(&self) -> bool {
        !matches!(
            self,
            Op::OpenCreate { .. } | Op::Open { .. } | Op::Fsync | Op::Close | Op::DropCaches
        )
    }

    pub fn span_name(&self) -> &'static str {
        match self {
            Op::Create { .. } => "op.create",
            Op::CreateWrite { .. } => "op.create_write",
            Op::Stat { .. } => "op.stat",
            Op::OpenRead { .. } => "op.open_read",
            Op::Unlink { .. } => "op.unlink",
            Op::Write { .. } => "op.write",
            Op::Read { .. } => "op.read",
            Op::OpenCreate { .. } | Op::Open { .. } | Op::Fsync | Op::Close | Op::DropCaches => {
                "op.bracket"
            }
        }
    }
}

/// One mounted client. With a recorder, every `Vfs` call is a span.
#[derive(Clone)]
pub struct Fs {
    pub client: Arc<ArkClient>,
    pub rec: Option<Rc<Recorder>>,
    ctx: Credentials,
}

impl Fs {
    pub fn new(client: Arc<ArkClient>, rec: Option<Rc<Recorder>>) -> Self {
        Fs {
            client,
            rec,
            ctx: Credentials::root(),
        }
    }

    pub fn v_now(&self) -> u64 {
        self.client.port().now()
    }

    fn call<T>(&self, name: &'static str, f: impl FnOnce(&ArkClient, &Credentials) -> T) -> T {
        match &self.rec {
            None => f(&self.client, &self.ctx),
            Some(rec) => {
                let span = rec.open(name, self.v_now());
                let out = f(&self.client, &self.ctx);
                rec.close(span, self.v_now());
                out
            }
        }
    }

    pub fn mkdir(&self, path: &str) -> FsResult<Stat> {
        self.call("vfs.mkdir", |c, ctx| c.mkdir(ctx, path, 0o755))
    }
    pub fn create(&self, path: &str) -> FsResult<FileHandle> {
        self.call("vfs.create", |c, ctx| c.create(ctx, path, 0o644))
    }
    pub fn open(&self, path: &str) -> FsResult<FileHandle> {
        self.call("vfs.open", |c, ctx| c.open(ctx, path, OpenFlags::RDONLY))
    }
    pub fn close(&self, fh: FileHandle) -> FsResult<()> {
        self.call("vfs.close", |c, ctx| c.close(ctx, fh))
    }
    pub fn read(&self, fh: FileHandle, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.call("vfs.read", |c, ctx| c.read(ctx, fh, off, buf))
    }
    pub fn write(&self, fh: FileHandle, off: u64, data: &[u8]) -> FsResult<usize> {
        self.call("vfs.write", |c, ctx| c.write(ctx, fh, off, data))
    }
    pub fn fsync(&self, fh: FileHandle) -> FsResult<()> {
        self.call("vfs.fsync", |c, ctx| c.fsync(ctx, fh))
    }
    pub fn stat(&self, path: &str) -> FsResult<Stat> {
        self.call("vfs.stat", |c, ctx| c.stat(ctx, path))
    }
    pub fn unlink(&self, path: &str) -> FsResult<()> {
        self.call("vfs.unlink", |c, ctx| c.unlink(ctx, path))
    }
    pub fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        self.call("vfs.readdir", |c, ctx| c.readdir(ctx, path))
    }
    pub fn sync_all(&self) -> FsResult<()> {
        self.call("vfs.sync_all", |c, ctx| c.sync_all(ctx))
    }
    pub fn release_all(&self) -> FsResult<()> {
        self.call("vfs.release_all", |c, ctx| c.release_all(ctx))
    }
    pub fn drop_caches(&self) -> FsResult<()> {
        self.call("vfs.drop_caches", |c, _| c.drop_data_cache())
    }
}

/// Per-client executor state: the held handle (fio) and an I/O buffer.
#[derive(Default)]
struct ExecState {
    held: Option<FileHandle>,
    buf: Vec<u8>,
}

fn all_are(buf: &[u8], fill: u8) -> bool {
    buf.iter().all(|&b| b == fill)
}

/// Execute one op and check its output. `Err` is a failed op: an error
/// from the file system, a short transfer, or wrong content.
fn exec(fs: &Fs, st: &mut ExecState, op: &Op) -> Result<(), String> {
    let e = |r: arkfs_vfs::FsError| format!("{op:?}: {r}");
    let held = |st: &ExecState| st.held.ok_or_else(|| format!("{op:?}: no held handle"));
    match op {
        Op::Create { path } => {
            let fh = fs.create(path).map_err(e)?;
            fs.close(fh).map_err(e)
        }
        Op::CreateWrite { path, size, fill } => {
            let fh = fs.create(path).map_err(e)?;
            st.buf.clear();
            st.buf.resize(*size, *fill);
            let w = fs.write(fh, 0, &st.buf);
            let c = fs.close(fh);
            match w.map_err(e)? {
                n if n == *size => c.map_err(e),
                n => Err(format!("{op:?}: short write {n}")),
            }
        }
        Op::Stat { path, size } => {
            let s = fs.stat(path).map_err(e)?;
            if s.ftype == FileType::Regular && s.size == *size {
                Ok(())
            } else {
                Err(format!("{op:?}: got {:?} of {} bytes", s.ftype, s.size))
            }
        }
        Op::OpenRead { path, size, fill } => {
            let fh = fs.open(path).map_err(e)?;
            st.buf.clear();
            st.buf.resize(*size, !*fill);
            let r = fs.read(fh, 0, &mut st.buf);
            let c = fs.close(fh);
            let n = r.map_err(e)?;
            if n != *size || !all_are(&st.buf, *fill) {
                return Err(format!("{op:?}: read {n} bytes, content mismatch or short"));
            }
            c.map_err(e)
        }
        Op::Unlink { path } => fs.unlink(path).map_err(e),
        Op::Write { off, len, fill } => {
            let fh = held(st)?;
            st.buf.clear();
            st.buf.resize(*len, *fill);
            match fs.write(fh, *off, &st.buf).map_err(e)? {
                n if n == *len => Ok(()),
                n => Err(format!("{op:?}: short write {n}")),
            }
        }
        Op::Read { off, len, fill } => {
            let fh = held(st)?;
            st.buf.clear();
            st.buf.resize(*len, !*fill);
            let n = fs.read(fh, *off, &mut st.buf).map_err(e)?;
            if n == *len && all_are(&st.buf, *fill) {
                Ok(())
            } else {
                Err(format!("{op:?}: read {n} bytes, content mismatch or short"))
            }
        }
        Op::OpenCreate { path } => {
            st.held = Some(fs.create(path).map_err(e)?);
            Ok(())
        }
        Op::Open { path } => {
            st.held = Some(fs.open(path).map_err(e)?);
            Ok(())
        }
        Op::Fsync => fs.fsync(held(st)?).map_err(e),
        Op::Close => {
            let fh = held(st)?;
            st.held = None;
            fs.close(fh).map_err(e)
        }
        Op::DropCaches => fs.drop_caches().map_err(e),
    }
}

pub type OpStream = Box<dyn Iterator<Item = Op>>;

/// The engine's unit of scheduling: one client bound to its op stream.
/// `now()` is the client's virtual clock, so `Engine::run` always steps
/// the client that is earliest in virtual time.
struct ClientActor<'a> {
    fs: &'a Fs,
    index: u64,
    stream: OpStream,
    pending: Option<Op>,
    state: ExecState,
    seq: u64,
    out: PhaseCounts,
}

#[derive(Default)]
struct PhaseCounts {
    ops: u64,
    failed: u64,
    lat: Vec<u64>,
    first_error: Option<String>,
}

impl Actor for ClientActor<'_> {
    fn now(&self) -> u64 {
        self.fs.v_now()
    }

    fn step(&mut self) -> bool {
        let Some(op) = self.pending.take() else {
            return false;
        };
        let v0 = self.fs.v_now();
        self.seq += 1;
        let span = self.fs.rec.as_ref().map(|r| {
            let trace = (self.index + 1) << 32 | self.seq;
            r.open_op(op.span_name(), trace, v0)
        });
        let result = exec(self.fs, &mut self.state, &op);
        let v1 = self.fs.v_now();
        if let (Some(r), Some(span)) = (&self.fs.rec, span) {
            r.close_op(span, v1);
        }
        if op.metered() {
            self.out.ops += 1;
            self.out.lat.push(v1 - v0);
        }
        if let Err(msg) = result {
            self.out.failed += 1;
            self.out.first_error.get_or_insert(msg);
        }
        self.pending = self.stream.next();
        self.pending.is_some()
    }
}

/// What a phase does to the file system; end-to-end metrics are defined
/// per role so that every workload reports every one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Creates or writes.
    Mutate,
    /// Reads state or data back.
    Query,
    /// Unlinks.
    Remove,
}

/// One metered phase across the fleet.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: &'static str,
    pub role: Role,
    pub ops: u64,
    pub failed: u64,
    /// Virtual makespan: first client's start to the last client's
    /// return from the phase's closing `sync_all`.
    pub v_span_ns: u64,
    pub host_s: f64,
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    /// Main-thread voluntary context switches during the phase.
    pub vcsw: u64,
    /// Ascending virtual latencies of the metered ops.
    pub lat_ns: Vec<u64>,
    /// User bytes the phase moved.
    pub user_bytes: u64,
    pub first_error: Option<String>,
}

impl Phase {
    pub fn v_kops(&self) -> f64 {
        self.ops as f64 / (self.v_span_ns.max(1) as f64 / 1e9) / 1e3
    }
}

/// Run one phase: one op stream per client on the engine, then every
/// client's `sync_all` (the paper calls fsync after each phase), then a
/// virtual-time barrier so the next phase starts aligned.
pub fn run_phase(
    fleet: &[Fs],
    name: &'static str,
    role: Role,
    user_bytes: u64,
    stream_of: impl Fn(usize) -> OpStream,
) -> Result<Phase, procfs::ProcError> {
    let rec = fleet[0].rec.clone();
    let v_start = fleet.iter().map(Fs::v_now).min().unwrap_or(0);
    let phase_span = rec.as_ref().map(|r| r.open(name, v_start));
    let (u0, s0) = procfs::cpu_seconds()?;
    let cs0 = procfs::voluntary_ctxt_switches()?;
    let h0 = Instant::now();

    let mut actors: Vec<ClientActor> = fleet
        .iter()
        .enumerate()
        .map(|(i, fs)| {
            let mut stream = stream_of(i);
            let pending = stream.next();
            ClientActor {
                fs,
                index: i as u64,
                stream,
                pending,
                state: ExecState::default(),
                seq: 0,
                out: PhaseCounts::default(),
            }
        })
        .collect();
    Engine::run(&mut actors);
    let mut total = PhaseCounts::default();
    for a in actors {
        total.ops += a.out.ops;
        total.failed += a.out.failed;
        total.lat.extend(a.out.lat);
        if total.first_error.is_none() {
            total.first_error = a.out.first_error;
        }
    }
    for fs in fleet {
        if let Err(e) = fs.sync_all() {
            total.failed += 1;
            total.first_error.get_or_insert(format!("sync_all: {e}"));
        }
    }
    let host_s = h0.elapsed().as_secs_f64();
    let (u1, s1) = procfs::cpu_seconds()?;
    let cs1 = procfs::voluntary_ctxt_switches()?;
    let v_end = fleet.iter().map(Fs::v_now).max().unwrap_or(0);
    if let (Some(r), Some(span)) = (&rec, phase_span) {
        r.close(span, v_end);
    }
    for fs in fleet {
        fs.client.port().wait_until(v_end);
    }
    total.lat.sort_unstable();
    Ok(Phase {
        name,
        role,
        ops: total.ops,
        failed: total.failed,
        v_span_ns: v_end - v_start,
        host_s,
        cpu_user_s: u1 - u0,
        cpu_sys_s: s1 - s0,
        vcsw: cs1 - cs0,
        lat_ns: total.lat,
        user_bytes,
        first_error: total.first_error,
    })
}
