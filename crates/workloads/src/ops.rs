//! Resumable workload operations.
//!
//! A workload driver used to be a closure handed one `(client, index)`
//! pair at a time by a thread pool. To run on the discrete-event engine
//! it is instead expressed as an *op generator*: a resumable state
//! machine yielding one [`Op`] per call, which the driver (see
//! [`crate::drive`]) executes against the client. One `Op` is one
//! *metered unit* — exactly the granularity the old per-`(client,
//! index)` closures metered (a CREATE "op" in mdtest is create +
//! close), so latency percentiles kept their meaning.

use arkfs_simkit::Nanos;
use arkfs_vfs::{Credentials, FileHandle, FsError, FsResult, OpenFlags};

/// One metered workload operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Create a directory (setup phases).
    Mkdir { path: String },
    /// Create an empty file and close it (mdtest CREATE).
    Create { path: String },
    /// Create, write `size` bytes of `fill`, close (mdtest-hard WRITE).
    CreateWrite { path: String, size: usize, fill: u8 },
    /// Stat a path (mdtest STAT).
    Stat { path: String },
    /// Open read-only, read the whole `size` bytes at offset 0, close
    /// (mdtest-hard READ). Short reads are errors.
    OpenRead { path: String, size: usize },
    /// Unlink a file (mdtest DELETE).
    Unlink { path: String },
    /// Create a file and hold its handle open (fio setup).
    OpenCreate { path: String },
    /// Open an existing file read-only and hold its handle (fio read).
    Open { path: String },
    /// Write `len` bytes of `fill` at `off` on the held handle.
    Write { off: u64, len: usize, fill: u8 },
    /// Read `len` bytes at `off` on the held handle; short reads are
    /// errors except at `eof` (the file's known size).
    Read { off: u64, len: usize, eof: u64 },
    /// fsync the held handle.
    Fsync,
    /// Close the held handle.
    Close,
    /// Drop clean cached data (between fio phases).
    DropCaches,
    /// Client-wide durability barrier.
    SyncAll,
    /// Advance the client's virtual clock without touching the file
    /// system (think time).
    Think { cost: Nanos },
    /// Execute the inner op without recording a latency sample —
    /// setup/teardown that belongs to a metered phase's timeline (it
    /// still advances the clock and counts toward the span) but not to
    /// its per-op latency distribution, e.g. fio's create/fsync around
    /// the metered write requests.
    Unmetered(Box<Op>),
}

/// A resumable per-client op stream: the state machine form of a
/// workload driver. Implementations are plain iterating state (an index
/// into a deterministic schedule), so a generator suspended mid-stream
/// costs a few words — the property that lets one host thread hold
/// 100k of them.
pub trait OpGen: Send {
    /// The next operation for this client, or `None` when exhausted.
    fn next_op(&mut self) -> Option<Op>;
}

/// Wrap any iterator of ops as a generator, so drivers can be written
/// as lazy iterator chains (paths are formatted on demand, never
/// pre-materialized for a whole phase).
pub struct IterGen<I>(pub I);

impl<I: Iterator<Item = Op> + Send> OpGen for IterGen<I> {
    fn next_op(&mut self) -> Option<Op> {
        self.0.next()
    }
}

impl OpGen for Box<dyn OpGen> {
    fn next_op(&mut self) -> Option<Op> {
        (**self).next_op()
    }
}

/// Box a lazy iterator of ops as a generator.
pub fn gen_iter<I>(iter: I) -> Box<dyn OpGen>
where
    I: Iterator<Item = Op> + Send + 'static,
{
    Box::new(IterGen(iter))
}

/// Per-client executor state: the (at most one) held file handle and a
/// reusable I/O buffer, so stepping 100k clients does not allocate per
/// op.
#[derive(Debug, Default)]
pub struct OpState {
    held: Option<FileHandle>,
    buf: Vec<u8>,
}

impl OpState {
    pub fn new() -> Self {
        Self::default()
    }

    fn fill_buf(&mut self, len: usize, fill: u8) -> &[u8] {
        if self.buf.len() < len {
            self.buf.resize(len, fill);
        }
        // Cheap refill only when the pattern changes.
        if self.buf.first() != Some(&fill) {
            self.buf.iter_mut().for_each(|b| *b = fill);
        }
        &self.buf[..len]
    }

    fn held(&self) -> FsResult<FileHandle> {
        self.held
            .ok_or_else(|| FsError::Io("op needs a held handle but none is open".into()))
    }
}

/// Execute one op against `client`, updating `state`. Returns the op's
/// result; the caller meters virtual-time latency around this call.
pub fn exec_op(client: &dyn crate::SimClient, state: &mut OpState, op: &Op) -> FsResult<()> {
    let ctx = Credentials::root();
    match op {
        Op::Mkdir { path } => client.mkdir(&ctx, path, 0o755).map(|_| ()),
        Op::Create { path } => {
            let fh = client.create(&ctx, path, 0o644)?;
            client.close(&ctx, fh)
        }
        Op::CreateWrite { path, size, fill } => {
            let fh = client.create(&ctx, path, 0o644)?;
            let data = state.fill_buf(*size, *fill);
            let r = client.write(&ctx, fh, 0, data).map(|_| ());
            let c = client.close(&ctx, fh);
            r.and(c)
        }
        Op::Stat { path } => client.stat(&ctx, path).map(|_| ()),
        Op::OpenRead { path, size } => {
            let fh = client.open(&ctx, path, OpenFlags::RDONLY)?;
            if state.buf.len() < *size {
                state.buf.resize(*size, 0);
            }
            let r = client.read(&ctx, fh, 0, &mut state.buf[..*size]);
            let c = client.close(&ctx, fh);
            match r {
                Ok(n) if n == *size => c,
                Ok(n) => Err(FsError::Io(format!("short read: {n} of {size}"))),
                Err(e) => Err(e),
            }
        }
        Op::Unlink { path } => client.unlink(&ctx, path),
        Op::OpenCreate { path } => {
            state.held = Some(client.create(&ctx, path, 0o644)?);
            Ok(())
        }
        Op::Open { path } => {
            state.held = Some(client.open(&ctx, path, OpenFlags::RDONLY)?);
            Ok(())
        }
        Op::Write { off, len, fill } => {
            let fh = state.held()?;
            let data = state.fill_buf(*len, *fill);
            client.write(&ctx, fh, *off, data).map(|_| ())
        }
        Op::Read { off, len, eof } => {
            let fh = state.held()?;
            if state.buf.len() < *len {
                state.buf.resize(*len, 0);
            }
            let n = client.read(&ctx, fh, *off, &mut state.buf[..*len])?;
            let expect = (*len as u64).min(eof.saturating_sub(*off)) as usize;
            if n == expect {
                Ok(())
            } else {
                Err(FsError::Io(format!("short read: {n} of {expect} at {off}")))
            }
        }
        Op::Fsync => {
            let fh = state.held()?;
            client.fsync(&ctx, fh)
        }
        Op::Close => {
            let fh = state.held()?;
            state.held = None;
            client.close(&ctx, fh)
        }
        Op::DropCaches => {
            client.drop_caches();
            Ok(())
        }
        Op::SyncAll => client.sync_all(&ctx),
        Op::Think { cost } => {
            client.port().advance(*cost);
            Ok(())
        }
        Op::Unmetered(inner) => exec_op(client, state, inner),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arkfs::{ArkCluster, ArkConfig};
    use arkfs_objstore::{ClusterConfig, ObjectCluster};
    use std::sync::Arc;

    fn one_client() -> Arc<dyn crate::SimClient> {
        let store = Arc::new(ObjectCluster::new(ClusterConfig::test_tiny()));
        ArkCluster::new(ArkConfig::test_tiny(), store).client()
    }

    #[test]
    fn ops_round_trip() {
        let c = one_client();
        let mut st = OpState::new();
        for op in [
            Op::Mkdir { path: "/d".into() },
            Op::CreateWrite {
                path: "/d/f".into(),
                size: 100,
                fill: 0xA5,
            },
            Op::Stat {
                path: "/d/f".into(),
            },
            Op::OpenRead {
                path: "/d/f".into(),
                size: 100,
            },
            Op::OpenCreate {
                path: "/d/g".into(),
            },
            Op::Write {
                off: 0,
                len: 64,
                fill: 1,
            },
            Op::Fsync,
            Op::Close,
            Op::Open {
                path: "/d/g".into(),
            },
            Op::Read {
                off: 0,
                len: 64,
                eof: 64,
            },
            Op::Close,
            Op::Unlink {
                path: "/d/f".into(),
            },
            Op::DropCaches,
            Op::SyncAll,
            Op::Think { cost: 100 },
        ] {
            exec_op(c.as_ref(), &mut st, &op).unwrap_or_else(|e| panic!("{op:?}: {e}"));
        }
        assert!(st.held.is_none());
    }

    #[test]
    fn short_read_is_an_error() {
        let c = one_client();
        let mut st = OpState::new();
        exec_op(c.as_ref(), &mut st, &Op::Mkdir { path: "/d".into() }).unwrap();
        exec_op(
            c.as_ref(),
            &mut st,
            &Op::CreateWrite {
                path: "/d/f".into(),
                size: 10,
                fill: 0,
            },
        )
        .unwrap();
        let err = exec_op(
            c.as_ref(),
            &mut st,
            &Op::OpenRead {
                path: "/d/f".into(),
                size: 100,
            },
        );
        assert!(err.is_err());
    }

    #[test]
    fn handle_ops_without_held_handle_fail() {
        let c = one_client();
        let mut st = OpState::new();
        assert!(exec_op(c.as_ref(), &mut st, &Op::Fsync).is_err());
        assert!(exec_op(c.as_ref(), &mut st, &Op::Close).is_err());
    }
}
