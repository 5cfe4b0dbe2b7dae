//! Leader-side execution of directory operations.
//!
//! [`ClientState::serve_local`] runs an operation against a led
//! directory's [`Metatable`] — for forwarded RPCs and for the client's
//! own local operations alike — journaling every mutation (§III-E) and
//! enforcing permissions at the leader. Holds the metatable (rank
//! *Metatable*); the only lower-rank lock it touches is the data cache
//! / handle shards (rank *Leaf*) via lease-conflict flush broadcasts.

use super::super::{ClientState, TableGuard};
use crate::config::CommitMode;
use crate::journal::{OpStamps, Transaction};
use crate::metatable::{Deposit, Metatable};
use crate::prt::Prt;
use crate::rpc::{OpBody, OpRequest, OpResponse};
use arkfs_lease::{FileLeaseDecision, LeaseRequest};
use arkfs_simkit::Port;
use arkfs_telemetry::CtxGuard;
use arkfs_vfs::{perm, Credentials, FileType, FsError, FsResult, Ino, AM_EXEC, AM_READ, AM_WRITE};
use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::Arc;

impl ClientState {
    /// Execute an operation as the leader of its directory. Runs both for
    /// forwarded RPCs and for the client's own local operations.
    pub(crate) fn serve_local(
        &self,
        port: &Port,
        table: &Arc<Mutex<Metatable>>,
        req: OpRequest,
    ) -> OpResponse {
        let mut t: TableGuard<'_> = self.lock_table(table);
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
        // elapsed (§III-E). Forced commits (2PC prepares/decisions, sync-
        // mode fsync semantics) are charged to the caller; window-
        // triggered commits are the commit threads' work and run on a
        // background timeline that does not stall the application (the
        // store still sees their load). Every background flush is tracked
        // on the directory's commit lane so fsync/sync_all barriers can
        // drain it; in async mode the lane's in-flight bound pushes back
        // on the caller when the pipeline runs ahead of the store.
        let maybe_commit = |t: &mut Metatable, force: bool| -> FsResult<()> {
            let lane = self.lane(pkey);
            if force {
                t.journal
                    .commit(prt, port, &lane.res, config.spec.local_meta_op)?;
                return Ok(());
            }
            match config.commit_mode {
                CommitMode::Sync => {
                    if t.journal.commit_due(
                        port.now(),
                        config.journal_window,
                        config.journal_max_entries,
                    ) {
                        let background = Port::starting_at(port.now());
                        // Spans on the background timeline follow from
                        // (rather than nest under) the op that tripped
                        // the window: the ack does not wait for them.
                        let _bg = CtxGuard::install(trace.as_background());
                        t.journal
                            .commit(prt, &background, &lane.res, config.spec.local_meta_op)?;
                        lane.record_flight(background.now());
                    }
                }
                CommitMode::Async => {
                    if t.journal.commit_due(
                        port.now(),
                        config.async_commit_window,
                        config.journal_max_entries,
                    ) {
                        // Backpressure: a full in-flight window stalls the
                        // caller until the lane's oldest flight lands.
                        let wait_start = port.now();
                        let admitted = lane.admit(wait_start, config.async_commit_max_inflight);
                        port.wait_until(admitted);
                        self.trace_span("lane.wait", "lane", wait_start, port.now());
                        if t.journal.seal().is_some() {
                            let background = Port::starting_at(port.now());
                            // Background flush: follow-from, not child
                            // (see the Sync arm above).
                            let _bg = CtxGuard::install(trace.as_background());
                            if config.group_commit {
                                self.flush_group(prt, &background, pkey, t)?;
                            } else {
                                t.journal.flush_sealed(
                                    prt,
                                    &background,
                                    &lane.res,
                                    config.spec.local_meta_op,
                                )?;
                            }
                            lane.record_flight(background.now());
                        }
                    }
                }
            }
            Ok(())
        };

        // Stamp a mutation for `op.<name>.durable_ns` attribution, run
        // the commit policy, then sample this partition's sealed depth
        // and feed the append-rate split/merge trigger.
        let stamp_commit = |t: &mut Metatable, op: &'static str, force: bool| -> FsResult<()> {
            t.journal.stamp(op, now, trace);
            let result = maybe_commit(t, force);
            if let Some(depth) = &t.sealed_depth {
                depth.set(t.journal.sealed_len() as i64);
            }
            if config.partition_split_rate > 0 || config.partition_merge_rate > 0 {
                let rate = t.note_append(now);
                if rate > 0 {
                    let max = config
                        .dir_partition_max
                        .min(u32::try_from(config.dentry_buckets).unwrap_or(u32::MAX))
                        .max(1);
                    let pcount = t.pcount();
                    if config.partition_split_rate > 0
                        && rate >= config.partition_split_rate
                        && pcount < max
                    {
                        self.pending_splits
                            .lock()
                            .push((t.ino(), (pcount * 2).min(max)));
                    } else if config.partition_merge_rate > 0
                        && t.partition() == 0
                        && pcount > 1
                        && rate < config.partition_merge_rate
                    {
                        self.pending_splits.lock().push((t.ino(), pcount / 2));
                    }
                }
            }
            result
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
                        Ok(()) => OpResponse::Inode(rec),
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
                // fsync semantics: in sync mode the size update must be
                // durable before the ack; in async mode it seals into the
                // pipeline and the explicit fsync/sync_all barrier
                // (FsyncDir) provides durability.
                let force = config.commit_mode == CommitMode::Sync;
                match t
                    .set_child_size(ino, size, now)
                    .and_then(|()| stamp_commit(t, "op.setsize", force))
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
                // 2PC prepares stay forced-durable in both modes: the
                // decision protocol presumes the prepare record survives.
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
                let decision = t.file_leases.acquire_read(client, file, now);
                self.broadcast_flushes(port, t, file, &decision);
                OpResponse::Lease(decision)
            }
            OpBody::AcquireWriteLease { file, client, .. } => {
                let decision = t.file_leases.acquire_write(client, file, now);
                self.broadcast_flushes(port, t, file, &decision);
                OpResponse::Lease(decision)
            }
            OpBody::ReleaseFileLease { file, client, .. } => {
                t.file_leases.release(client, file, now);
                OpResponse::Ok
            }
            OpBody::FlushCache { .. } | OpBody::RelinquishPartition { .. } => {
                unreachable!("handled in serve()")
            }
        }
    }

    /// One *group* flight: our freshly-sealed transactions ride together
    /// with any co-laned directories' due work in a single batched
    /// multi-PUT, so directories sharing a commit lane amortize the lane
    /// reservation and the store round trip instead of queueing one
    /// flight each.
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
                        config.async_commit_window / 2,
                        config.journal_max_entries,
                    )
                {
                    g.journal.seal();
                }
                if g.journal.sealed_len() > 0 {
                    donors.push(g);
                }
            }
        }
        let own_taken = own.journal.take_sealed();
        let donor_taken: Vec<Vec<(Transaction, OpStamps)>> =
            donors.iter_mut().map(|g| g.journal.take_sealed()).collect();
        let t0 = port.now();
        let done = lane.res.reserve(t0, config.spec.local_meta_op);
        port.wait_until(done);
        let items: Vec<(Ino, u64, Bytes)> = own_taken
            .iter()
            .chain(donor_taken.iter().flatten())
            .map(|(txn, _)| (txn.dir, txn.seq, txn.seal()))
            .collect();
        match prt.put_journal_many(port, &items) {
            Ok(()) => {
                let end = port.now();
                if !own_taken.is_empty() {
                    prt.meta_span("journal.commit", pkey, t0, end);
                }
                for (txn, stamps) in own_taken {
                    for (op, start, ctx) in stamps {
                        prt.record_durable(op, pkey, start, end, ctx);
                    }
                    own.journal.push_committed(txn);
                }
                for (g, taken) in donors.iter_mut().zip(donor_taken) {
                    prt.meta_span("journal.commit", g.pkey(), t0, end);
                    for (txn, stamps) in taken {
                        for (op, start, ctx) in stamps {
                            prt.record_durable(op, g.pkey(), start, end, ctx);
                        }
                        g.journal.push_committed(txn);
                    }
                    if let Some(depth) = &g.sealed_depth {
                        depth.set(g.journal.sealed_len() as i64);
                    }
                }
                Ok(())
            }
            Err(e) => {
                // Unseal everything: the group retries from its members'
                // running windows, exactly like a failed solo flush.
                prt.count_commit_retry();
                let now = port.now();
                self.telemetry.flight.record(
                    self.id.0,
                    now,
                    "commit.rollback",
                    donors.len() as i64,
                    "group flush failed; transactions unsealed for retry",
                );
                own.journal.restore_sealed(own_taken, now);
                for (g, taken) in donors.iter_mut().zip(donor_taken) {
                    g.journal.restore_sealed(taken, now);
                }
                Err(e)
            }
        }
    }

    /// On a lease conflict the leader "broadcasts cache flushing requests
    /// to prevent stale cache entries on other clients' object cache"
    /// (§III-D). Flushed sizes feed back into the child's inode.
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
            if target == self.id {
                // Flush our own cache inline.
                if let OpResponse::Flushed { size: Some(size) } = self.serve_flush(port, file) {
                    let _ = t.set_child_size(file, size, now);
                }
                continue;
            }
            // Crashed holders simply drain via lease expiry.
            if let Ok(OpResponse::Flushed { size: Some(size) }) = self.cluster.call_ops(
                port,
                target,
                OpRequest::new(Credentials::root(), OpBody::FlushCache { file }),
            ) {
                let current = t.child_inode(file).map(|r| r.size).unwrap_or(0);
                if size > current {
                    let _ = t.set_child_size(file, size, now);
                }
            }
        }
    }
}
