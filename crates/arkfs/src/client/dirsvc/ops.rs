//! Leader-side execution of directory operations.
//!
//! [`ClientState::serve_local`] answers every directory operation against
//! a led directory's [`Metatable`] — reads and writes, forwarded RPCs and
//! the client's own operations alike — journaling every mutation
//! (§III-E) and enforcing permissions at the leader. What it serves is an
//! `FsResult`: a refused op is an `Err` here and on the caller's side,
//! and `OpResponse::Err` exists only on the wire. Holds the metatable (rank
//! *Metatable*); the only higher-rank locks it touches are the data
//! cache and the handle table (rank *Leaf*) via lease-conflict flush
//! broadcasts.

use super::super::ClientState;
use crate::journal::{self, JournalOp};
use crate::metatable::{Deposit, Metatable};
use crate::prt::Prt;
use crate::rpc::{OpBody, OpRequest, OpResponse};
use arkfs_lease::{FileLeaseDecision, LeaseRequest};
use arkfs_netsim::NodeId;
use arkfs_simkit::{Nanos, Port};
use arkfs_telemetry::{CtxGuard, TraceCtx};
use arkfs_vfs::{perm, Credentials, FileType, FsError, FsResult, Ino, AM_EXEC, AM_READ, AM_WRITE};
use parking_lot::Mutex;
use std::sync::Arc;

/// The time `client`'s request for `file`'s lease, arrived at `now`, is
/// decided at: no earlier than another client handed the write lease
/// back ([`arkfs_lease::FileLeaseTable::handed_back`]). A close sends
/// the hand-back after its PUTs are acked, so the next holder never
/// reads ahead of the bytes the lease protected.
fn lease_time(port: &Port, t: &mut Metatable, client: NodeId, file: Ino, now: Nanos) -> Nanos {
    let back = t.file_leases.handed_back(client, file);
    port.wait_until(back);
    now.max(back)
}

/// May `creds` remove `name` (`NotFound` if absent) from `t`? The sticky
/// rule's victim owner is its inode's, or for a subdirectory the directory's.
fn may_delete(t: &Metatable, creds: &Credentials, name: &str) -> FsResult<()> {
    let entry = t.lookup(name).ok_or(FsError::NotFound)?;
    let victim_uid = t.child_inode(entry.ino).map_or(t.dir.uid, |r| r.uid);
    let d = &t.dir;
    perm::check_delete(creds, d.uid, d.gid, d.mode, &d.acl, victim_uid)
}

impl ClientState {
    /// Execute an operation as the leader of its directory: for forwarded
    /// RPCs and for the client's own operations alike, reads and writes.
    /// A refused op is an `Err`; `Ok(OpResponse::NotLeader)` sends the
    /// caller back to routing.
    pub(crate) fn serve_local(
        &self,
        port: &Port,
        table: &Arc<Mutex<Metatable>>,
        creds: &Credentials,
        trace: TraceCtx,
        body: &OpBody,
    ) -> FsResult<OpResponse> {
        let mut t = self.lock_table(table);
        let resp = self.serve_locked(port, &mut t, creds, trace, body);
        // The op changed what the view left with the lease manager
        // shows (a subdirectory dentry, the directory's permissions):
        // withdraw the view before the change is acked, so that a client
        // holding none is never handed one older than an acked change.
        // One round trip per deposit, not per change: the next renewal
        // deposits again.
        if t.deposit == Deposit::Outdated {
            t.deposit = Deposit::None;
            let (client, ino) = (self.id, t.pkey());
            let _ = self.ask_manager(port, ino, LeaseRequest::Revoke { client, ino });
        }
        resp
    }

    fn serve_locked(
        &self,
        port: &Port,
        t: &mut Metatable,
        creds: &Credentials,
        trace: TraceCtx,
        body: &OpBody,
    ) -> FsResult<OpResponse> {
        // Serve under the originating op's trace context: spans recorded
        // below (journal commits, store I/O, meta churn) link back to the
        // client op that issued the request, whether it arrived over the
        // bus or was served locally.
        let _trace_guard = CtxGuard::install(trace);
        let config = self.cluster.config();
        let prt = self.cluster.prt();
        let now = port.now();
        // A frozen table is mid-handoff (split/merge drain): its journal
        // is being sealed under the *old* map, so no new work may enter.
        if t.frozen {
            return Ok(OpResponse::NotLeader);
        }
        // Authority: the routed table must own the op's route key. A
        // mismatch means the sender (or our serve()) routed under a stale
        // partition map; NotLeader makes it refresh and re-route — we
        // never serve a name outside our bucket range.
        if !body.route().is_some_and(|(_, key)| t.owns(key)) {
            return Ok(OpResponse::NotLeader);
        }
        let pkey = t.pkey();
        // A close message is a size push that also hands back the
        // closer's file lease. It is routed by name; a sender whose map
        // is stale may find this partition is not the lease shard, and
        // is told so before anything is done.
        let closer = match *body {
            OpBody::CloseFile { ino, .. } if !t.leases_file(ino) => return Err(FsError::Stale),
            OpBody::CloseFile { client, .. } => Some(client),
            _ => None,
        };

        // Seal the running compound transaction when its buffering window
        // elapsed (§III-E). Forced commits (2PC prepares/decisions) are
        // charged to the caller; window-triggered commits are the commit
        // threads' work and run on a background timeline that does not
        // stall the application (the store still sees their load). Every
        // background flush is tracked on the directory's commit lane so
        // fsync/sync_all barriers can drain it, and the lane's in-flight
        // bound pushes back on the caller when the pipeline runs ahead of
        // the store.
        let maybe_commit = |t: &mut Metatable, force: bool| -> FsResult<()> {
            let lane = self.lane(pkey);
            if force {
                return t
                    .journal
                    .commit(prt, port, &lane.res, config.spec.local_meta_op);
            }
            if !t.journal.commit_due(
                port.now(),
                config.journal_window,
                config.journal_max_entries,
            ) {
                return Ok(());
            }
            // Backpressure: a full in-flight window stalls the caller
            // until the lane's oldest flight lands.
            let wait_start = port.now();
            let admitted = lane.admit(wait_start, config.async_commit_max_inflight);
            port.wait_until(admitted);
            self.trace_span("lane.wait", "lane", wait_start, port.now());
            if t.journal.seal().is_some() {
                let background = Port::starting_at(port.now());
                // Spans on the background timeline follow from (rather
                // than nest under) the op that tripped the window: the
                // ack does not wait for them.
                let _bg = CtxGuard::install(trace.as_background());
                self.flush_group(prt, &background, pkey, t)?;
                lane.record_flight(background.now());
            }
            Ok(())
        };

        // Stamp a mutation for `op.<name>.durable_ns` attribution, then
        // run the commit policy.
        let stamp_commit = |t: &mut Metatable, op: &'static str, force: bool| -> FsResult<()> {
            t.journal.stamp(op, now, trace);
            maybe_commit(t, force)
        };

        let dir_perm = |t: &Metatable, want: u8| -> FsResult<()> {
            perm::check_access(creds, t.dir.uid, t.dir.gid, t.dir.mode, &t.dir.acl, want)
        };

        Ok(match body {
            OpBody::Lookup { name, .. } => {
                dir_perm(t, AM_EXEC)?;
                let entry = t.lookup(name).ok_or(FsError::NotFound)?;
                OpResponse::Entry {
                    ino: entry.ino,
                    ftype: entry.ftype,
                    rec: t.child_inode(entry.ino).cloned(),
                }
            }
            OpBody::DirInode { .. } => OpResponse::Inode(t.dir.clone()),
            OpBody::DirView { .. } => OpResponse::View(t.dir_view()),
            // Create-and-open records nothing the plain create does not:
            // the open handle takes its lease at its first data access.
            OpBody::Create { name, rec, .. } | OpBody::CreateOpen { name, rec, .. } => {
                dir_perm(t, AM_WRITE | AM_EXEC)?;
                t.create_child(rec.clone(), name, now)?;
                stamp_commit(t, "op.create", false)?;
                OpResponse::Ok
            }
            OpBody::AddSubdir { name, child, .. } => {
                dir_perm(t, AM_WRITE | AM_EXEC)?;
                t.add_subdir(name, *child, now)?;
                stamp_commit(t, "op.mkdir", false)?;
                OpResponse::Ok
            }
            OpBody::Unlink { name, .. } => {
                may_delete(t, creds, name)?;
                let rec = t.unlink_child(name, now)?;
                stamp_commit(t, "op.unlink", false)?;
                t.file_leases.forget(rec.ino);
                OpResponse::Inode(rec)
            }
            OpBody::RemoveSubdir { name, .. } => {
                let child_ino = match t.lookup(name) {
                    Some(e) if e.ftype == FileType::Directory => e.ino,
                    Some(_) => return Err(FsError::NotADirectory),
                    None => return Err(FsError::NotFound),
                };
                let victim_uid = prt
                    .load_inode(port, child_ino)
                    .map(|r| r.uid)
                    .unwrap_or(t.dir.uid);
                let d = &t.dir;
                perm::check_delete(creds, d.uid, d.gid, d.mode, &d.acl, victim_uid)?;
                t.remove_subdir(name, now)?;
                stamp_commit(t, "op.rmdir", false)?;
                OpResponse::Ok
            }
            OpBody::Readdir { .. } => {
                dir_perm(t, AM_READ)?;
                // The partition count rides along as the staleness guard:
                // readdir carries no name for the ownership check, so the
                // caller compares this against the count it fanned out
                // over and redoes the merge on mismatch.
                OpResponse::Entries {
                    entries: t.readdir(),
                    partitions: t.pcount(),
                }
            }
            OpBody::SetSize { ino, size, .. } | OpBody::CloseFile { ino, size, .. } => {
                if let Some(rec) = t.child_inode(*ino) {
                    perm::check_access(creds, rec.uid, rec.gid, rec.mode, &rec.acl, AM_WRITE)?;
                }
                // The size update seals into the pipeline; the explicit
                // fsync/sync_all barrier (FsyncDir) makes it durable.
                t.set_child_size(*ino, *size, now)?;
                stamp_commit(t, "op.setsize", false)?;
                if let Some(client) = closer {
                    t.file_leases.release(client, *ino, now);
                }
                OpResponse::Ok
            }
            OpBody::SetAttrChild { ino, attr, .. } => {
                let owner = t.child_inode(*ino).ok_or(FsError::Stale)?.uid;
                let changing_owner = attr.uid.is_some() || attr.gid.is_some();
                perm::check_setattr(creds, owner, changing_owner)?;
                let rec = t.set_child_attr(*ino, attr, now)?;
                stamp_commit(t, "op.setattr", false)?;
                OpResponse::Inode(rec)
            }
            OpBody::SetAttrDir { attr, .. } => {
                let changing_owner = attr.uid.is_some() || attr.gid.is_some();
                perm::check_setattr(creds, t.dir.uid, changing_owner)?;
                let rec = t.set_dir_attr(attr, now);
                stamp_commit(t, "op.setattr", false)?;
                OpResponse::Inode(rec)
            }
            OpBody::SetAcl { target, acl, .. } => {
                let owner = if *target == t.ino() {
                    t.dir.uid
                } else {
                    t.child_inode(*target).ok_or(FsError::Stale)?.uid
                };
                perm::check_setattr(creds, owner, false)?;
                t.set_acl(*target, acl.clone(), now)?;
                stamp_commit(t, "op.set_acl", false)?;
                OpResponse::Ok
            }
            OpBody::RenameLocal { from, to, .. } => {
                may_delete(t, creds, from)?;
                // The reply names what moved, so the renamer can cache
                // the new name positively.
                let (ino, ftype) = t.rename_local(from, to, now)?;
                stamp_commit(t, "op.rename", false)?;
                OpResponse::Entry {
                    ino,
                    ftype,
                    rec: None,
                }
            }
            OpBody::RenameSrcPrepare {
                name, txid, peer, ..
            } => {
                may_delete(t, creds, name)?;
                let (entry, rec) = t.detach_child(name, *txid, *peer, now)?;
                // 2PC prepares are forced durable: the decision protocol
                // presumes the prepare record survives.
                stamp_commit(t, "op.rename", true)?;
                OpResponse::Detached {
                    ino: entry.ino,
                    ftype: entry.ftype,
                    rec,
                }
            }
            OpBody::RenameDstPrepare {
                name,
                txid,
                peer,
                ino,
                ftype,
                rec,
                ..
            } => {
                dir_perm(t, AM_WRITE | AM_EXEC)?;
                // A replaced file target is deleted inside the prepare;
                // directory targets are rejected (cross-directory
                // directory replacement is out of scope).
                let prepare = (*txid, *peer);
                let replaced = t.attach_child(name, *ino, *ftype, rec.clone(), prepare, now)?;
                stamp_commit(t, "op.rename", true)?;
                replaced.map_or(OpResponse::Ok, OpResponse::Inode)
            }
            OpBody::RenameDecide {
                txid, commit, undo, ..
            } => {
                let txid = *txid;
                if *commit {
                    t.journal.append(JournalOp::RenameCommit { txid }, now);
                } else {
                    t.journal.append(JournalOp::RenameAbort { txid }, now);
                    // The source puts its entry back through the ordinary
                    // logged create: a replay drops the aborted prepare.
                    match undo {
                        Some((name, _, _, Some(rec))) => t.create_child(rec.clone(), name, now)?,
                        Some((name, ino, _, None)) => t.add_subdir(name, *ino, now)?,
                        None => {}
                    }
                }
                stamp_commit(t, "op.rename", true)?;
                OpResponse::Ok
            }
            OpBody::FsyncDir { .. } => {
                // Durability barrier: flush running + sealed transactions
                // on the caller's timeline, then drain the lane's tracked
                // in-flight background flushes, so everything this
                // partition acked is durable when we respond.
                let lane = self.lane(pkey);
                t.journal
                    .commit(prt, port, &lane.res, config.spec.local_meta_op)?;
                port.wait_until(lane.drain_until(port.now()));
                OpResponse::Ok
            }
            OpBody::AcquireReadLease { file, client, .. } => {
                let now = lease_time(port, t, *client, *file, now);
                let decision = t.file_leases.acquire_read(*client, *file, now);
                self.broadcast_flushes(port, t, *file, &decision);
                OpResponse::Lease(decision)
            }
            OpBody::AcquireWriteLease { file, client, .. } => {
                let now = lease_time(port, t, *client, *file, now);
                let decision = t.file_leases.acquire_write(*client, *file, now);
                self.broadcast_flushes(port, t, *file, &decision);
                OpResponse::Lease(decision)
            }
            OpBody::ReleaseFileLease { file, client, .. } => {
                t.file_leases.release(*client, *file, now);
                OpResponse::Ok
            }
            // The lookup, then the read lease of what it found: a denied
            // open takes none, and neither does a name this partition
            // resolves but does not hold the lease of.
            OpBody::OpenRead {
                name,
                client,
                access,
                ..
            } => {
                dir_perm(t, AM_EXEC)?;
                let entry = t.lookup(name).ok_or(FsError::NotFound)?;
                if entry.ftype == FileType::Directory {
                    return Err(FsError::IsADirectory);
                }
                let ino = entry.ino;
                let rec = t
                    .child_inode(ino)
                    .cloned()
                    .ok_or_else(|| FsError::Io("dangling dentry".into()))?;
                let lease = (rec.ftype == FileType::Regular
                    && t.leases_file(ino)
                    && perm::check_access(creds, rec.uid, rec.gid, rec.mode, &rec.acl, *access)
                        .is_ok())
                .then(|| {
                    let now = lease_time(port, t, *client, ino, now);
                    let decision = t.file_leases.acquire_read(*client, ino, now);
                    self.broadcast_flushes(port, t, ino, &decision);
                    decision
                });
                // Read again after a flush: it fed back the holder's size.
                let rec = t.child_inode(ino).cloned().unwrap_or(rec);
                OpResponse::Opened { rec, lease }
            }
            OpBody::FlushCache { .. } | OpBody::RelinquishPartition { .. } => {
                unreachable!("handled in serve()")
            }
        })
    }

    /// A window-tripped *group* flight: our freshly-sealed transactions
    /// ride together with any co-laned directories' due work in one
    /// [`journal::flight`], so directories sharing a commit lane
    /// amortize the lane reservation and the store round trip instead of
    /// queueing one flight each.
    ///
    /// Donor tables are reached through the lane's member registry with
    /// raw `try_lock` — deliberately bypassing the lock-order checker,
    /// which (correctly) forbids *blocking* on a second rank-Metatable
    /// lock while one is held. `try_lock` cannot deadlock: a busy donor
    /// is simply left for its own next commit. Frozen (mid-handoff)
    /// donors are skipped too.
    fn flush_group(&self, prt: &Prt, port: &Port, pkey: Ino, own: &mut Metatable) -> FsResult<()> {
        let config = self.cluster.config();
        let lane = self.lane(pkey);
        let members = lane.members_snapshot();
        let mut donors = Vec::new();
        for (member, table) in &members {
            if *member == pkey {
                continue;
            }
            if let Some(mut g) = table.try_lock() {
                // A donor rides once its window is at least half elapsed:
                // this flight is already paid for, and co-laned windows
                // opened within scheduling jitter of each other would
                // otherwise each miss "due" by microseconds and pay their
                // own flight moments later. The half-window floor bounds
                // compound-transaction fragmentation at 2× the seal rate.
                if !g.frozen
                    && g.journal.commit_due(
                        port.now(),
                        config.journal_window / 2,
                        config.journal_max_entries,
                    )
                {
                    g.journal.seal();
                }
                if let Some(taken) = g.journal.take_sealed() {
                    donors.push((g, Some(taken)));
                }
            }
        }
        let riders = donors.len();
        let own_taken = own.journal.take_sealed();
        let groups = std::iter::once((&mut own.journal, own_taken))
            .chain(
                donors
                    .iter_mut()
                    .map(|(g, taken)| (&mut g.journal, std::mem::take(taken))),
            )
            .collect();
        let lane_service = config.spec.local_meta_op;
        journal::flight(prt, port, &lane.res, lane_service, groups).inspect_err(|_| {
            self.telemetry.flight.record(
                self.id.0,
                port.now(),
                "commit.rollback",
                riders as i64,
                "group flush failed; transactions unsealed for retry",
            );
        })
    }

    /// On a lease conflict the leader "broadcasts cache flushing requests
    /// to prevent stale cache entries on other clients' object cache"
    /// (§III-D). A flushed holder's unpushed writes can only extend the
    /// child's size; shrinking it is a truncate's, which the leader saw.
    fn broadcast_flushes(
        &self,
        port: &Port,
        t: &mut Metatable,
        file: Ino,
        decision: &FileLeaseDecision,
    ) {
        let FileLeaseDecision::Direct { flush, .. } = decision else {
            return;
        };
        let now = port.now();
        for &target in flush {
            let flushed = if target == self.id {
                // Flush our own cache inline.
                self.serve_flush(port, file).ok()
            } else {
                // Crashed holders simply drain via lease expiry.
                let req = OpRequest::new(Credentials::root(), OpBody::FlushCache { file });
                self.cluster.call_ops(port, target, req).ok()
            };
            if let Some(OpResponse::Flushed { size: Some(size) }) = flushed {
                if t.child_inode(file).is_some_and(|r| size > r.size) {
                    let _ = t.set_child_size(file, size, now);
                }
            }
        }
    }
}
