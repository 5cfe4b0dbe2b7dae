//! Leader-side execution of directory operations.
//!
//! [`ClientState::serve_local`] runs an operation against a led
//! directory's [`Metatable`] — for forwarded RPCs and for the client's
//! own local operations alike — journaling every mutation (§III-E) and
//! enforcing permissions at the leader. Holds the metatable (rank
//! *Metatable*); the only higher-rank locks it touches are the data
//! cache and the handle table (rank *Leaf*) via lease-conflict flush
//! broadcasts.

use super::super::ClientState;
use crate::journal;
use crate::metatable::{Deposit, Metatable};
use crate::prt::Prt;
use crate::rpc::{OpBody, OpRequest, OpResponse};
use arkfs_lease::{FileLeaseDecision, LeaseRequest};
use arkfs_netsim::NodeId;
use arkfs_simkit::{Nanos, Port};
use arkfs_telemetry::CtxGuard;
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

impl ClientState {
    /// Execute an operation as the leader of its directory. Runs both for
    /// forwarded RPCs and for the client's own local operations.
    pub(crate) fn serve_local(
        &self,
        port: &Port,
        table: &Arc<Mutex<Metatable>>,
        req: OpRequest,
    ) -> OpResponse {
        let mut t = self.lock_table(table);
        let resp = self.serve_locked(port, &mut t, req);
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

    fn serve_locked(&self, port: &Port, t: &mut Metatable, req: OpRequest) -> OpResponse {
        let OpRequest { creds, trace, body } = req;
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
            return OpResponse::NotLeader;
        }
        // Authority: the routed table must own the op's route key. A
        // mismatch means the sender (or our serve()) routed under a stale
        // partition map; NotLeader makes it refresh and re-route — we
        // never serve a name outside our bucket range.
        if !body.route().is_some_and(|(_, key)| t.owns(key)) {
            return OpResponse::NotLeader;
        }
        let pkey = t.pkey();
        // A close message is a size push that also hands back the
        // closer's file lease. It is routed by name; a sender whose map
        // is stale may find this partition is not the lease shard, and
        // is told so before anything is done.
        let closer = match body {
            OpBody::CloseFile { ino, .. } if !t.leases_file(ino) => {
                return OpResponse::Err(FsError::Stale);
            }
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
            perm::check_access(&creds, t.dir.uid, t.dir.gid, t.dir.mode, &t.dir.acl, want)
        };

        match body {
            OpBody::Lookup { name, .. } => {
                if let Err(e) = dir_perm(t, AM_EXEC) {
                    return OpResponse::Err(e);
                }
                match t.lookup(&name) {
                    Some(entry) => OpResponse::Entry {
                        ino: entry.ino,
                        ftype: entry.ftype,
                        rec: t.child_inode(entry.ino).cloned(),
                    },
                    None => OpResponse::Err(FsError::NotFound),
                }
            }
            OpBody::DirInode { .. } => OpResponse::Inode(t.dir.clone()),
            OpBody::DirView { .. } => OpResponse::View(t.dir_view()),
            // Create-and-open records nothing the plain create does not:
            // the open handle takes its lease at its first data access.
            OpBody::Create { name, rec, .. } | OpBody::CreateOpen { name, rec, .. } => {
                if let Err(e) = dir_perm(t, AM_WRITE | AM_EXEC) {
                    return OpResponse::Err(e);
                }
                match t
                    .create_child(rec, &name, now)
                    .and_then(|()| stamp_commit(t, "op.create", false))
                {
                    Ok(()) => OpResponse::Ok,
                    Err(e) => OpResponse::Err(e),
                }
            }
            OpBody::AddSubdir { name, child, .. } => {
                if let Err(e) = dir_perm(t, AM_WRITE | AM_EXEC) {
                    return OpResponse::Err(e);
                }
                match t
                    .add_subdir(&name, child, now)
                    .and_then(|()| stamp_commit(t, "op.mkdir", false))
                {
                    Ok(()) => OpResponse::Ok,
                    Err(e) => OpResponse::Err(e),
                }
            }
            OpBody::Unlink { name, .. } => {
                let victim_uid = match t.lookup(&name) {
                    Some(entry) => t.child_inode(entry.ino).map(|r| r.uid).unwrap_or(t.dir.uid),
                    None => return OpResponse::Err(FsError::NotFound),
                };
                if let Err(e) = perm::check_delete(
                    &creds, t.dir.uid, t.dir.gid, t.dir.mode, &t.dir.acl, victim_uid,
                ) {
                    return OpResponse::Err(e);
                }
                match t.unlink_child(&name, now) {
                    Ok(rec) => match stamp_commit(t, "op.unlink", false) {
                        Ok(()) => {
                            t.file_leases.forget(rec.ino);
                            OpResponse::Inode(rec)
                        }
                        Err(e) => OpResponse::Err(e),
                    },
                    Err(e) => OpResponse::Err(e),
                }
            }
            OpBody::RemoveSubdir { name, .. } => {
                let child_ino = match t.lookup(&name) {
                    Some(e) if e.ftype == FileType::Directory => e.ino,
                    Some(_) => return OpResponse::Err(FsError::NotADirectory),
                    None => return OpResponse::Err(FsError::NotFound),
                };
                let victim_uid = prt
                    .load_inode(port, child_ino)
                    .map(|r| r.uid)
                    .unwrap_or(t.dir.uid);
                if let Err(e) = perm::check_delete(
                    &creds, t.dir.uid, t.dir.gid, t.dir.mode, &t.dir.acl, victim_uid,
                ) {
                    return OpResponse::Err(e);
                }
                match t
                    .remove_subdir(&name, now)
                    .and_then(|_| stamp_commit(t, "op.rmdir", false))
                {
                    Ok(()) => OpResponse::Ok,
                    Err(e) => OpResponse::Err(e),
                }
            }
            OpBody::Readdir { .. } => {
                if let Err(e) = dir_perm(t, AM_READ) {
                    return OpResponse::Err(e);
                }
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
                if let Some(rec) = t.child_inode(ino) {
                    if let Err(e) =
                        perm::check_access(&creds, rec.uid, rec.gid, rec.mode, &rec.acl, AM_WRITE)
                    {
                        return OpResponse::Err(e);
                    }
                }
                // The size update seals into the pipeline; the explicit
                // fsync/sync_all barrier (FsyncDir) makes it durable.
                match t
                    .set_child_size(ino, size, now)
                    .and_then(|()| stamp_commit(t, "op.setsize", false))
                {
                    Ok(()) => {
                        if let Some(client) = closer {
                            t.file_leases.release(client, ino, now);
                        }
                        OpResponse::Ok
                    }
                    Err(e) => OpResponse::Err(e),
                }
            }
            OpBody::SetAttrChild { ino, attr, .. } => {
                let owner = match t.child_inode(ino) {
                    Some(rec) => rec.uid,
                    None => return OpResponse::Err(FsError::Stale),
                };
                let changing_owner = attr.uid.is_some() || attr.gid.is_some();
                if let Err(e) = perm::check_setattr(&creds, owner, changing_owner) {
                    return OpResponse::Err(e);
                }
                match t.set_child_attr(ino, &attr, now) {
                    Ok(rec) => match stamp_commit(t, "op.setattr", false) {
                        Ok(()) => OpResponse::Inode(rec),
                        Err(e) => OpResponse::Err(e),
                    },
                    Err(e) => OpResponse::Err(e),
                }
            }
            OpBody::SetAttrDir { attr, .. } => {
                let changing_owner = attr.uid.is_some() || attr.gid.is_some();
                if let Err(e) = perm::check_setattr(&creds, t.dir.uid, changing_owner) {
                    return OpResponse::Err(e);
                }
                let rec = t.set_dir_attr(&attr, now);
                match stamp_commit(t, "op.setattr", false) {
                    Ok(()) => OpResponse::Inode(rec),
                    Err(e) => OpResponse::Err(e),
                }
            }
            OpBody::SetAcl { target, acl, .. } => {
                let owner = if target == t.ino() {
                    t.dir.uid
                } else {
                    match t.child_inode(target) {
                        Some(rec) => rec.uid,
                        None => return OpResponse::Err(FsError::Stale),
                    }
                };
                if let Err(e) = perm::check_setattr(&creds, owner, false) {
                    return OpResponse::Err(e);
                }
                match t
                    .set_acl(target, acl, now)
                    .and_then(|()| stamp_commit(t, "op.set_acl", false))
                {
                    Ok(()) => OpResponse::Ok,
                    Err(e) => OpResponse::Err(e),
                }
            }
            OpBody::RenameLocal { from, to, .. } => {
                let victim_uid = match t.lookup(&from) {
                    Some(entry) => t.child_inode(entry.ino).map(|r| r.uid).unwrap_or(t.dir.uid),
                    None => return OpResponse::Err(FsError::NotFound),
                };
                if let Err(e) = perm::check_delete(
                    &creds, t.dir.uid, t.dir.gid, t.dir.mode, &t.dir.acl, victim_uid,
                ) {
                    return OpResponse::Err(e);
                }
                // The reply names what moved, so the renamer can cache
                // the new name positively.
                match t.rename_local(&from, &to, now).and_then(|moved| {
                    stamp_commit(t, "op.rename", false)?;
                    Ok(moved)
                }) {
                    Ok((ino, ftype)) => OpResponse::Entry {
                        ino,
                        ftype,
                        rec: None,
                    },
                    Err(e) => OpResponse::Err(e),
                }
            }
            OpBody::RenameSrcPrepare {
                name, txid, peer, ..
            } => {
                let victim_uid = match t.lookup(&name) {
                    Some(entry) => t.child_inode(entry.ino).map(|r| r.uid).unwrap_or(t.dir.uid),
                    None => return OpResponse::Err(FsError::NotFound),
                };
                if let Err(e) = perm::check_delete(
                    &creds, t.dir.uid, t.dir.gid, t.dir.mode, &t.dir.acl, victim_uid,
                ) {
                    return OpResponse::Err(e);
                }
                t.journal.append(
                    crate::journal::JournalOp::RenamePrepare {
                        txid,
                        peer_dir: peer,
                        ops: vec![crate::journal::JournalOp::RemoveDentry { name: name.clone() }],
                    },
                    now,
                );
                let (entry, rec) = match t.detach_child(&name, now) {
                    Ok(v) => v,
                    Err(e) => return OpResponse::Err(e),
                };
                // 2PC prepares are forced durable: the decision protocol
                // presumes the prepare record survives.
                match stamp_commit(t, "op.rename", true) {
                    Ok(()) => OpResponse::Detached {
                        ino: entry.ino,
                        ftype: entry.ftype,
                        rec,
                    },
                    Err(e) => OpResponse::Err(e),
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
                if let Err(e) = dir_perm(t, AM_WRITE | AM_EXEC) {
                    return OpResponse::Err(e);
                }
                // POSIX rename replaces an existing file target; the
                // victim's removal rides inside the 2PC prepare so it is
                // atomic with the move. Directory targets are rejected
                // (cross-directory directory replacement is out of scope).
                let existing = t.lookup(&name).map(|e| (e.name.clone(), e.ftype));
                let victim = match existing {
                    Some((_, FileType::Directory)) => {
                        return OpResponse::Err(FsError::AlreadyExists);
                    }
                    Some((victim_name, _)) => match t.unlink_child(&victim_name, now) {
                        Ok(rec) => Some(rec),
                        Err(e) => return OpResponse::Err(e),
                    },
                    None => None,
                };
                let mut ops = vec![crate::journal::JournalOp::UpsertDentry {
                    name: name.clone(),
                    ino,
                    ftype,
                }];
                if let Some(rec) = &rec {
                    ops.push(crate::journal::JournalOp::PutInode(rec.clone()));
                }
                t.journal.append(
                    crate::journal::JournalOp::RenamePrepare {
                        txid,
                        peer_dir: peer,
                        ops,
                    },
                    now,
                );
                if let Err(e) = t.attach_child(&name, ino, ftype, rec, now) {
                    return OpResponse::Err(e);
                }
                match stamp_commit(t, "op.rename", true) {
                    Ok(()) => match victim {
                        Some(rec) => OpResponse::Inode(rec),
                        None => OpResponse::Ok,
                    },
                    Err(e) => OpResponse::Err(e),
                }
            }
            OpBody::RenameDecide {
                txid, commit, undo, ..
            } => {
                if commit {
                    t.journal
                        .append(crate::journal::JournalOp::RenameCommit { txid }, now);
                } else {
                    t.journal
                        .append(crate::journal::JournalOp::RenameAbort { txid }, now);
                    if let Some((name, ino, ftype, rec)) = undo {
                        if let Err(e) = t.attach_child(&name, ino, ftype, rec, now) {
                            return OpResponse::Err(e);
                        }
                    }
                }
                match stamp_commit(t, "op.rename", true) {
                    Ok(()) => OpResponse::Ok,
                    Err(e) => OpResponse::Err(e),
                }
            }
            OpBody::FsyncDir { .. } => {
                // Durability barrier: flush running + sealed transactions
                // on the caller's timeline, then drain the lane's tracked
                // in-flight background flushes, so everything this
                // partition acked is durable when we respond.
                let lane = self.lane(pkey);
                match t
                    .journal
                    .commit(prt, port, &lane.res, config.spec.local_meta_op)
                {
                    Ok(()) => {
                        let done = lane.drain_until(port.now());
                        port.wait_until(done);
                        OpResponse::Ok
                    }
                    Err(e) => OpResponse::Err(e),
                }
            }
            OpBody::AcquireReadLease { file, client, .. } => {
                let now = lease_time(port, t, client, file, now);
                let decision = t.file_leases.acquire_read(client, file, now);
                self.broadcast_flushes(port, t, file, &decision);
                OpResponse::Lease(decision)
            }
            OpBody::AcquireWriteLease { file, client, .. } => {
                let now = lease_time(port, t, client, file, now);
                let decision = t.file_leases.acquire_write(client, file, now);
                self.broadcast_flushes(port, t, file, &decision);
                OpResponse::Lease(decision)
            }
            OpBody::ReleaseFileLease { file, client, .. } => {
                t.file_leases.release(client, file, now);
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
                if let Err(e) = dir_perm(t, AM_EXEC) {
                    return OpResponse::Err(e);
                }
                let ino = match t.lookup(&name) {
                    Some(e) if e.ftype == FileType::Directory => {
                        return OpResponse::Err(FsError::IsADirectory)
                    }
                    Some(e) => e.ino,
                    None => return OpResponse::Err(FsError::NotFound),
                };
                let Some(rec) = t.child_inode(ino).cloned() else {
                    return OpResponse::Err(FsError::Io("dangling dentry".into()));
                };
                let lease = (rec.ftype == FileType::Regular
                    && t.leases_file(ino)
                    && perm::check_access(&creds, rec.uid, rec.gid, rec.mode, &rec.acl, access)
                        .is_ok())
                .then(|| {
                    let now = lease_time(port, t, client, ino, now);
                    let decision = t.file_leases.acquire_read(client, ino, now);
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
        }
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
                Ok(self.serve_flush(port, file))
            } else {
                // Crashed holders simply drain via lease expiry.
                let req = OpRequest::new(Credentials::root(), OpBody::FlushCache { file });
                self.cluster.call_ops(port, target, req)
            };
            if let Ok(OpResponse::Flushed { size: Some(size) }) = flushed {
                if t.child_inode(file).is_some_and(|r| size > r.size) {
                    let _ = t.set_child_size(file, size, now);
                }
            }
        }
    }
}
