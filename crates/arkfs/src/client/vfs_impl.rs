//! The near-POSIX [`Vfs`] surface of [`ArkClient`].
//!
//! A thin composition layer: each operation resolves paths via
//! [`super::namei`], routes directory mutations through
//! [`super::dirsvc`], manages handles and file leases via
//! [`super::filetable`], and moves bytes via [`super::datapath`]. Every
//! op runs under [`ArkClient::traced`] so its virtual-time latency
//! lands in the deployment's `op.<name>.latency_ns` histogram.

use super::dirsvc::DirRef;
use super::filetable::{Held, OpenFile};
use super::{ArkClient, Op, MAX_LEASE_RETRIES};
use crate::meta::InodeRecord;
use crate::partition::steer_ino;
use crate::rpc::{OpBody, OpResponse};
use arkfs_simkit::Port;
use arkfs_vfs::{
    path as vpath, perm, Acl, Credentials, DirEntry, FileHandle, FileType, FsError, FsResult,
    FsStats, Ino, OpenFlags, SetAttr, Stat, Vfs, AM_READ, AM_WRITE, ROOT_INO,
};
use std::collections::HashSet;
use std::sync::atomic::Ordering;

impl ArkClient {
    fn open_inner(
        &self,
        ctx: &Credentials,
        path: &str,
        flags: OpenFlags,
        depth: usize,
    ) -> FsResult<FileHandle> {
        if depth > 8 {
            return Err(FsError::InvalidArgument); // ELOOP
        }
        let mut want = 0u8;
        if flags.readable() {
            want |= AM_READ;
        }
        if flags.writable() {
            want |= AM_WRITE;
        }
        let (parent, name) = self.resolve_parent(ctx, path)?;
        // A readable open brings the read lease back with its lookup. It
        // comes only for a regular file `want` is granted on, so the
        // error returns below hold none. A truncating open's cut takes
        // the write lease and hands it back; its handle asks at its first
        // access.
        let trunc = flags.is_trunc() && flags.writable();
        let (ino, rec, lease) = if flags.readable() && !trunc {
            self.open_lookup(ctx, parent, name, want)?
        } else {
            let (ino, rec) = self.lookup_record(ctx, parent, name)?;
            (ino, rec, Held::None)
        };
        match rec.ftype {
            FileType::Directory => return Err(FsError::IsADirectory),
            FileType::Symlink => {
                let target = rec.symlink_target.clone();
                return self.open_inner(ctx, &target, flags, depth + 1);
            }
            FileType::Regular => {}
        }
        perm::check_access(ctx, rec.uid, rec.gid, rec.mode, &rec.acl, want)?;
        let mut size = rec.size;
        if trunc && size > 0 {
            self.cut(ctx, parent, name, ino, size, 0)?;
            size = 0;
        }
        let file = OpenFile {
            lease,
            ..OpenFile::new(ino, parent, name, flags, size)
        };
        Ok(FileHandle(self.state.files.insert(file)))
    }

    /// Cut `ino` (dentry `name` of `parent`, `old` bytes long as the
    /// leader knows it) to `size`. Other clients may cache the bytes it
    /// removes, so it holds the write lease while it works, as a write
    /// would: a holder is flushed and turns direct. The lease goes back
    /// afterwards unless a handle of ours holds it.
    fn cut(
        &self,
        ctx: &Credentials,
        parent: Ino,
        name: &str,
        ino: Ino,
        old: u64,
        size: u64,
    ) -> FsResult<()> {
        let (held, acked) = self.ask_file_lease(parent, ino, true)?;
        self.port.wait_until(acked);
        let body = OpBody::SetSize {
            dir: parent,
            name: name.to_string(),
            ino,
            size,
        };
        let cut = self.on_dir_ok(ctx, body).and_then(|()| {
            // The leader's size is stale while a handle of ours has not
            // pushed its own: what that handle wrote past `size` must go
            // too.
            let old = old.max(self.state.files.max_open_size(ino).unwrap_or(0));
            if size < old {
                // Flush surviving dirty data, then drop all cached chunks:
                // the boundary chunk's cached copy is stale after the
                // store trims it.
                self.flush_file_data(Some(ino))?;
                self.state.lock_cache().invalidate_file(ino);
                self.prt().truncate_data(&self.port, ino, old, size)?;
            }
            self.state.files.set_size_for(ino, size);
            Ok(())
        });
        if held == Held::Write && self.state.files.lease_holders(ino) == 0 {
            let fork = Port::starting_at(self.port.now());
            self.release_file_lease(&fork, parent, ino);
        }
        cut
    }

    /// Durability barrier across *every* partition commit lane of `dir`.
    ///
    /// Size pushes route by name to one partition, but earlier metadata
    /// acked on this directory may sit in other partitions' lanes (the
    /// create that predated a split, a sibling handle's push), so fsync
    /// fans the barrier out to all of them. Partitions whose pkey is in
    /// `led` were already committed and drained locally by the caller.
    ///
    /// The cached partition map is the right fan-out set: every ack this
    /// client received was routed with it or with an older map, and a
    /// split/merge drains all old partition streams durable *before*
    /// installing its new map. A partition the current store map no
    /// longer has therefore holds nothing of ours that is not already
    /// durable, so a bounce on a since-merged partition is tolerated.
    fn fsync_dir_barrier(&self, ctx: &Credentials, dir: Ino, led: &HashSet<Ino>) -> FsResult<()> {
        let pmap = self.state.cached_pmap(dir);
        let start = self.port.now();
        let mut done = start;
        for p in 0..pmap.partitions {
            if led.contains(&pmap.pkey(p)) {
                continue; // committed + drained locally by the caller
            }
            let fork = Port::starting_at(start);
            match self.on_dir_port(&fork, ctx, OpBody::FsyncDir { dir, partition: p }) {
                Ok(OpResponse::Ok) => {}
                Ok(OpResponse::Err(e)) => return Err(e),
                Ok(_) => return Err(FsError::Io("unexpected fsync-dir response".into())),
                Err(e @ (FsError::Stale | FsError::TimedOut)) if p > 0 => {
                    let fresh = self.state.refresh_pmap(&fork, dir)?;
                    if p < fresh.partitions {
                        return Err(e); // real partition, real failure
                    }
                    // Merged away: drained durable before the map changed.
                }
                Err(e) => return Err(e),
            }
            done = done.max(fork.now());
        }
        self.port.wait_until(done);
        Ok(())
    }

    /// What `setattr` / `set_acl` of `path` address: the directory that
    /// serves the change and, when `path` is a file or symlink, its
    /// `(name, ino)` there. For a directory — served by its own leader —
    /// our cached view of it goes first.
    fn attr_target(&self, ctx: &Credentials, path: &str) -> FsResult<(Ino, Option<(String, Ino)>)> {
        if vpath::components(path)?.is_empty() {
            self.fuse_charge(1);
            return Ok((ROOT_INO, None));
        }
        let (parent, name) = self.resolve_parent(ctx, path)?;
        let (ino, ftype) = self.lookup_step(ctx, parent, name)?;
        if ftype == FileType::Directory {
            self.pcache_forget(ino);
            return Ok((ino, None));
        }
        Ok((parent, Some((name.to_string(), ino))))
    }

    /// Merge-scan of a (possibly partitioned) directory.
    ///
    /// Partition 0 is queried first — the partition count its table
    /// serves is authoritative — then the remaining partitions fan out
    /// on ports forked at one instant, so the caller pays the slowest
    /// slice, not the sum. Every slice carries the serving table's
    /// partition count; a mismatch means the map changed mid-scan
    /// (split/merge landed between slices), so the cached map is
    /// refreshed and the whole merge redone.
    fn readdir_merged(&self, ctx: &Credentials, ino: Ino) -> FsResult<Vec<DirEntry>> {
        'scan: for _ in 0..MAX_LEASE_RETRIES {
            let mut merged: Vec<DirEntry>;
            let parts = match self.on_dir(
                ctx,
                OpBody::Readdir {
                    dir: ino,
                    partition: 0,
                },
            )? {
                OpResponse::Entries {
                    entries,
                    partitions,
                } => {
                    merged = entries;
                    partitions
                }
                OpResponse::Err(e) => return Err(e),
                _ => return Err(FsError::Io("unexpected readdir response".into())),
            };
            let start = self.port.now();
            let mut done = start;
            for p in 1..parts {
                let fork = Port::starting_at(start);
                let body = OpBody::Readdir {
                    dir: ino,
                    partition: p,
                };
                match self.on_dir_port(&fork, ctx, body) {
                    Ok(OpResponse::Entries {
                        entries,
                        partitions,
                    }) if partitions == parts => merged.extend(entries),
                    Ok(OpResponse::Entries { .. })
                    | Err(FsError::Stale)
                    | Err(FsError::TimedOut) => {
                        self.port.wait_until(done.max(fork.now()));
                        let _ = self.state.refresh_pmap(&self.port, ino);
                        continue 'scan;
                    }
                    Ok(OpResponse::Err(e)) => return Err(e),
                    Ok(_) => return Err(FsError::Io("unexpected readdir response".into())),
                    Err(e) => return Err(e),
                }
                done = done.max(fork.now());
            }
            self.port.wait_until(done);
            merged.sort_by(|a, b| a.name.cmp(&b.name));
            return Ok(merged);
        }
        Err(FsError::TimedOut)
    }
}

impl Vfs for ArkClient {
    fn mkdir(&self, ctx: &Credentials, path: &str, mode: u32) -> FsResult<Stat> {
        self.traced(Op::Mkdir, || {
            let (parent, name) = self.resolve_parent(ctx, path)?;
            vpath::validate_name(name)?;
            let ino = self.fresh_ino();
            let rec = InodeRecord::new(
                ino,
                FileType::Directory,
                mode,
                ctx.uid,
                ctx.gid,
                self.port.now(),
            );
            // The child directory's inode object is written eagerly so its
            // first leader can load it (the dentry itself is journaled).
            self.prt().store_inode(&self.port, &rec)?;
            match self.on_dir(
                ctx,
                OpBody::AddSubdir {
                    dir: parent,
                    name: name.to_string(),
                    child: ino,
                },
            )? {
                OpResponse::Ok => {
                    if self.config().permission_cache {
                        self.pcache_note(parent, name, Some((ino, FileType::Directory)));
                    }
                    Ok(rec.to_stat())
                }
                OpResponse::Err(e) => {
                    let _ = self.prt().delete_inode(&self.port, ino);
                    Err(e)
                }
                _ => Err(FsError::Io("unexpected mkdir response".into())),
            }
        })
    }

    fn rmdir(&self, ctx: &Credentials, path: &str) -> FsResult<()> {
        self.traced(Op::Rmdir, || {
            let (parent, name) = self.resolve_parent(ctx, path)?;
            let (child, ftype) = self.lookup_step(ctx, parent, name)?;
            if ftype != FileType::Directory {
                return Err(FsError::NotADirectory);
            }
            if child == ROOT_INO {
                return Err(FsError::InvalidArgument);
            }
            // Become the child's leader to guarantee a stable emptiness
            // check. A partitioned child is first merged back to one
            // partition so a single table sees the whole namespace slice
            // (and so no orphan partition journals outlive the removal).
            let mut checked = false;
            for _ in 0..MAX_LEASE_RETRIES {
                match self.dir_ref(child)? {
                    DirRef::Local(table) => {
                        {
                            let mut t = self.state.lock_table(&table);
                            if t.pcount() <= 1 {
                                if !t.is_empty() {
                                    return Err(FsError::NotEmpty);
                                }
                                t.flush(
                                    self.prt(),
                                    &self.port,
                                    &self.state.lane(child).res,
                                    self.config().spec.local_meta_op,
                                )?;
                                checked = true;
                            }
                        }
                        if checked {
                            break;
                        }
                        self.repartition(child, 1)?;
                    }
                    DirRef::Remote(_) => return Err(FsError::Busy),
                }
            }
            if !checked {
                return Err(FsError::Busy);
            }
            self.on_dir_ok(
                ctx,
                OpBody::RemoveSubdir {
                    dir: parent,
                    name: name.to_string(),
                },
            )?;
            // Drop leadership and delete the directory's objects.
            self.state.dirs.forget(child);
            self.state.release_lease(&self.port, child);
            self.prt().delete_buckets(&self.port, child)?;
            self.prt().delete_inode(&self.port, child)?;
            self.pcache_forget(child);
            if self.config().permission_cache {
                self.pcache_note(parent, name, None);
            }
            Ok(())
        })
    }

    fn create(&self, ctx: &Credentials, path: &str, mode: u32) -> FsResult<FileHandle> {
        self.traced(Op::Create, || {
            let (parent, name) = self.resolve_parent(ctx, path)?;
            vpath::validate_name(name)?;
            // The ino is steered so that the name's partition is also the
            // file's lease shard (file leases shard by ino): the close of
            // the written file is then one message to one leader. The
            // cached map is only a hint: steered under a stale one, the
            // create still lands at the right partition (`on_dir`
            // re-routes by name) and the close sends two messages.
            let pmap = self.state.cached_pmap(parent);
            let ino = steer_ino(
                self.fresh_ino(),
                pmap.partitions,
                pmap.partition_of_name(name, self.config().dentry_buckets),
            );
            let rec = InodeRecord::new(
                ino,
                FileType::Regular,
                mode,
                ctx.uid,
                ctx.gid,
                self.port.now(),
            );
            self.on_dir_ok(
                ctx,
                OpBody::CreateOpen {
                    dir: parent,
                    name: name.to_string(),
                    rec,
                    client: self.state.id,
                },
            )?;
            if self.config().permission_cache {
                self.pcache_note(parent, name, Some((ino, FileType::Regular)));
            }
            let file = OpenFile::new(ino, parent, name, OpenFlags::RDWR, 0);
            Ok(FileHandle(self.state.files.insert(file)))
        })
    }

    fn open(&self, ctx: &Credentials, path: &str, flags: OpenFlags) -> FsResult<FileHandle> {
        self.traced(Op::Open, || self.open_inner(ctx, path, flags, 0))
    }

    fn close(&self, ctx: &Credentials, fh: FileHandle) -> FsResult<()> {
        self.traced(Op::Close, || {
            // The kernel's FLUSH on close is suppressed (FOPEN_NOFLUSH
            // semantics), so close pays no FUSE round trip and waits for
            // nothing it hands on: the file's dirty chunks go behind it,
            // and the size update reaches the leader after their acks —
            // acked, not yet durable; an explicit `fsync`/`sync_all` is
            // the durability barrier.
            let (ino, parent, name, size, wrote, lease, acked) = self
                .state
                .files
                .get(fh.0, |h| {
                    let name = h.name.clone();
                    (h.ino, h.parent, name, h.size, h.wrote, h.lease, h.acked)
                })
                .ok_or(FsError::BadHandle)?;
            let put_ack = self.put_file_behind(ino)?;
            // The size push and the hand-back depart on a forked timeline,
            // after the grant they hand back and the bytes it protected
            // were acked; the caller waits only for a push that fails.
            let fork = || Port::starting_at(self.port.now().max(acked).max(put_ack));
            // Hand back only what was taken, and only with the last of
            // our handles holding it. A written handle's release rides on
            // its size push when one leader serves both.
            let last = matches!(lease, Held::Read | Held::Write)
                && self.state.files.lease_holders(ino) == 1;
            let mut release = last;
            if wrote {
                let buckets = self.config().dentry_buckets;
                let fold = release
                    && self
                        .state
                        .cached_pmap(parent)
                        .colocated(&name, ino, buckets);
                let push = fork();
                let pushed = self.push_size(&push, ctx, parent, &name, ino, size, fold);
                if pushed.is_err() {
                    self.port.wait_until(push.now());
                }
                match pushed {
                    // Our map was stale: the name's leader is not the
                    // lease shard after all. Learn the map, send both.
                    Err(FsError::Stale) if fold => {
                        self.state.refresh_pmap(&self.port, parent)?;
                        self.push_size(&self.port, ctx, parent, &name, ino, size, false)?;
                    }
                    pushed => {
                        pushed?;
                        release &= !fold;
                    }
                }
            }
            self.state.files.remove(fh.0);
            if last {
                // What the lease kept valid goes with it: a later handle
                // asks again before it reads the cache.
                self.state.lock_cache().invalidate_file(ino);
            }
            if release {
                self.release_file_lease(&fork(), parent, ino);
            }
            Ok(())
        })
    }

    fn read(
        &self,
        ctx: &Credentials,
        fh: FileHandle,
        offset: u64,
        buf: &mut [u8],
    ) -> FsResult<usize> {
        self.traced(Op::Read, || {
            let _ = ctx;
            self.read_impl(fh, offset, buf)
        })
    }

    fn write(
        &self,
        ctx: &Credentials,
        fh: FileHandle,
        offset: u64,
        data: &[u8],
    ) -> FsResult<usize> {
        self.traced(Op::Write, || {
            let _ = ctx;
            self.write_impl(fh, offset, data)
        })
    }

    fn fsync(&self, ctx: &Credentials, fh: FileHandle) -> FsResult<()> {
        self.traced(Op::Fsync, || {
            self.fuse_charge(1);
            let (ino, parent, name, size, wrote) = self
                .state
                .files
                .get(fh.0, |h| (h.ino, h.parent, h.name.clone(), h.size, h.wrote))
                .ok_or(FsError::BadHandle)?;
            self.flush_file_data(Some(ino))?;
            if wrote {
                self.push_size(&self.port, ctx, parent, &name, ino, size, false)?;
                let _ = self.state.files.update(fh.0, |h| {
                    h.wrote = false;
                });
            }
            // Durability barrier: the size push (and any earlier metadata
            // on this file) was acked before durability, so seal + flush
            // the parent's running transaction and drain its commit lane
            // before fsync returns — on every partition of the parent,
            // not just the one the name hashes to.
            self.fsync_dir_barrier(ctx, parent, &HashSet::new())
        })
    }

    fn stat(&self, ctx: &Credentials, path: &str) -> FsResult<Stat> {
        self.traced(Op::Stat, || {
            let (ino, rec) = self.resolve_record(ctx, path)?;
            let mut st = rec.to_stat();
            // Reads-own-writes: unflushed writes are visible to this client.
            if let Some(open_size) = self.state.files.max_open_size(ino) {
                st.size = st.size.max(open_size);
            }
            Ok(st)
        })
    }

    fn readdir(&self, ctx: &Credentials, path: &str) -> FsResult<Vec<DirEntry>> {
        self.traced(Op::Readdir, || {
            let (ino, ftype) = self.resolve(ctx, path)?;
            if ftype != FileType::Directory {
                return Err(FsError::NotADirectory);
            }
            self.readdir_merged(ctx, ino)
        })
    }

    fn unlink(&self, ctx: &Credentials, path: &str) -> FsResult<()> {
        self.traced(Op::Unlink, || {
            let (parent, name) = self.resolve_parent(ctx, path)?;
            match self.on_dir(
                ctx,
                OpBody::Unlink {
                    dir: parent,
                    name: name.to_string(),
                },
            )? {
                OpResponse::Inode(rec) => {
                    self.purge_file_data(rec.ino, rec.size)?;
                    if self.config().permission_cache {
                        self.pcache_note(parent, name, None);
                    }
                    Ok(())
                }
                OpResponse::Err(e) => Err(e),
                _ => Err(FsError::Io("unexpected unlink response".into())),
            }
        })
    }

    fn rename(&self, ctx: &Credentials, from: &str, to: &str) -> FsResult<()> {
        self.traced(Op::Rename, || {
            let from_comps = vpath::components(from)?;
            let to_comps = vpath::components(to)?;
            if from_comps == to_comps {
                return Ok(());
            }
            if from_comps.is_empty() || to_comps.is_empty() {
                return Err(FsError::InvalidArgument);
            }
            if vpath::is_prefix_of(&from_comps, &to_comps) {
                return Err(FsError::InvalidArgument); // moving into own subtree
            }
            let (src_dir, src_name) = self.resolve_parent(ctx, from)?;
            let (dst_dir, dst_name) = self.resolve_parent(ctx, to)?;

            if src_dir == dst_dir {
                // Existing directory target must be empty and is removed
                // first (POSIX replace).
                if let Ok((tino, tft)) = self.lookup_step(ctx, src_dir, dst_name) {
                    if tft == FileType::Directory {
                        let (_, sft) = self.lookup_step(ctx, src_dir, src_name)?;
                        if sft != FileType::Directory {
                            return Err(FsError::IsADirectory);
                        }
                        match self.dir_ref(tino)? {
                            DirRef::Local(table) => {
                                if !self.state.lock_table(&table).is_empty() {
                                    return Err(FsError::NotEmpty);
                                }
                            }
                            DirRef::Remote(_) => return Err(FsError::Busy),
                        }
                        self.rmdir(ctx, to)?;
                    }
                }
            }

            // Same directory, both names in one partition: single-journal
            // rename. When the names hash to different partitions of one
            // directory the entry still moves between two journals, so
            // that case falls through to the 2PC below just like a
            // cross-directory move.
            // Drawn up front so every rename consumes exactly one RNG
            // value no matter which path serves it: partition routing must
            // not perturb the ino stream later operations draw from.
            let txid: u128 = self.state.rngs.random_u128();
            let buckets = self.config().dentry_buckets;
            let same_partition = |pmap: crate::partition::PartitionMap| {
                pmap.partition_of_name(src_name, buckets)
                    == pmap.partition_of_name(dst_name, buckets)
            };
            if src_dir == dst_dir && same_partition(self.state.cached_pmap(src_dir)) {
                let local = self.on_dir(
                    ctx,
                    OpBody::RenameLocal {
                        dir: src_dir,
                        from: src_name.to_string(),
                        to: dst_name.to_string(),
                    },
                );
                match local {
                    Ok(OpResponse::Entry { ino, ftype, .. }) => {
                        if self.config().permission_cache {
                            // Both names: the target lookup above may have
                            // cached the destination as absent.
                            self.pcache_note(src_dir, src_name, None);
                            self.pcache_note(src_dir, dst_name, Some((ino, ftype)));
                        }
                        return Ok(());
                    }
                    Ok(OpResponse::Err(e)) => return Err(e),
                    Ok(_) => return Err(FsError::Io("unexpected rename response".into())),
                    // A stale singleton map can route a cross-partition
                    // pair as RenameLocal; no partition owns both names,
                    // so the request bounces until it times out. Check
                    // against a fresh map and fall through to the 2PC if
                    // that is what happened.
                    Err(FsError::TimedOut)
                        if !same_partition(self.state.refresh_pmap(&self.port, src_dir)?) => {}
                    Err(e) => return Err(e),
                }
            }

            // Cross-directory (or cross-partition) rename: two-phase commit
            // across both journals (§III-E, [18]). An existing file target
            // is replaced atomically inside the destination's prepare; a
            // directory target is rejected. Each half's `peer` is the
            // *partition key* of the other half's journal stream, so
            // recovery's presumed-abort scan consults the right stream.
            let src_pmap = self.state.cached_pmap(src_dir);
            let dst_pmap = self.state.cached_pmap(dst_dir);
            let src_peer = src_pmap.pkey(src_pmap.partition_of_name(src_name, buckets));
            let dst_peer = dst_pmap.pkey(dst_pmap.partition_of_name(dst_name, buckets));
            let (ino, ftype, rec) = match self.on_dir(
                ctx,
                OpBody::RenameSrcPrepare {
                    dir: src_dir,
                    name: src_name.to_string(),
                    txid,
                    peer: dst_peer,
                },
            )? {
                OpResponse::Detached { ino, ftype, rec } => (ino, ftype, rec),
                OpResponse::Err(e) => return Err(e),
                _ => return Err(FsError::Io("unexpected rename-src response".into())),
            };
            let dst_result = self.on_dir(
                ctx,
                OpBody::RenameDstPrepare {
                    dir: dst_dir,
                    name: dst_name.to_string(),
                    txid,
                    peer: src_peer,
                    ino,
                    ftype,
                    rec: rec.clone(),
                },
            )?;
            match dst_result {
                OpResponse::Ok => {}
                OpResponse::Inode(victim) => {
                    // The destination replaced an existing file; its data
                    // chunks are ours to reclaim.
                    self.purge_file_data(victim.ino, victim.size)?;
                }
                OpResponse::Err(e) => {
                    // Abort: undo the source detach.
                    let _ = self.on_dir(
                        ctx,
                        OpBody::RenameDecide {
                            dir: src_dir,
                            name: src_name.to_string(),
                            txid,
                            commit: false,
                            undo: Some((src_name.to_string(), ino, ftype, rec)),
                        },
                    );
                    return Err(e);
                }
                _ => return Err(FsError::Io("unexpected rename-dst response".into())),
            }
            for (dir, name) in [(src_dir, src_name), (dst_dir, dst_name)] {
                self.on_dir_ok(
                    ctx,
                    OpBody::RenameDecide {
                        dir,
                        name: name.to_string(),
                        txid,
                        commit: true,
                        undo: None,
                    },
                )?;
            }
            if self.config().permission_cache {
                self.pcache_note(src_dir, src_name, None);
                self.pcache_note(dst_dir, dst_name, Some((ino, ftype)));
            }
            Ok(())
        })
    }

    fn truncate(&self, ctx: &Credentials, path: &str, size: u64) -> FsResult<()> {
        self.traced(Op::Truncate, || {
            if vpath::components(path)?.is_empty() {
                return Err(FsError::IsADirectory);
            }
            let (parent, name) = self.resolve_parent(ctx, path)?;
            let (ino, rec) = self.lookup_record(ctx, parent, name)?;
            if rec.ftype == FileType::Directory {
                return Err(FsError::IsADirectory);
            }
            perm::check_access(ctx, rec.uid, rec.gid, rec.mode, &rec.acl, AM_WRITE)?;
            self.cut(ctx, parent, name, ino, rec.size, size)
        })
    }

    fn setattr(&self, ctx: &Credentials, path: &str, attr: &SetAttr) -> FsResult<Stat> {
        self.traced(Op::Setattr, || {
            let attr = attr.clone();
            let body = match self.attr_target(ctx, path)? {
                (dir, None) => OpBody::SetAttrDir { dir, attr },
                (dir, Some((name, ino))) => OpBody::SetAttrChild {
                    dir,
                    name,
                    ino,
                    attr,
                },
            };
            match self.on_dir(ctx, body)? {
                OpResponse::Inode(rec) => Ok(rec.to_stat()),
                OpResponse::Err(e) => Err(e),
                _ => Err(FsError::Io("unexpected setattr response".into())),
            }
        })
    }

    fn symlink(&self, ctx: &Credentials, path: &str, target: &str) -> FsResult<Stat> {
        self.traced(Op::Symlink, || {
            let (parent, name) = self.resolve_parent(ctx, path)?;
            vpath::validate_name(name)?;
            let ino = self.fresh_ino();
            let mut rec = InodeRecord::new(
                ino,
                FileType::Symlink,
                0o777,
                ctx.uid,
                ctx.gid,
                self.port.now(),
            );
            rec.symlink_target = target.to_string();
            rec.size = target.len() as u64;
            let stat = rec.to_stat();
            match self.on_dir(
                ctx,
                OpBody::Create {
                    dir: parent,
                    name: name.to_string(),
                    rec,
                },
            )? {
                OpResponse::Ok => {
                    if self.config().permission_cache {
                        self.pcache_note(parent, name, Some((ino, FileType::Symlink)));
                    }
                    Ok(stat)
                }
                OpResponse::Err(e) => Err(e),
                _ => Err(FsError::Io("unexpected symlink response".into())),
            }
        })
    }

    fn readlink(&self, ctx: &Credentials, path: &str) -> FsResult<String> {
        self.traced(Op::Readlink, || {
            let (_, rec) = self.resolve_record(ctx, path)?;
            if rec.ftype != FileType::Symlink {
                return Err(FsError::InvalidArgument);
            }
            Ok(rec.symlink_target)
        })
    }

    fn set_acl(&self, ctx: &Credentials, path: &str, acl: &Acl) -> FsResult<()> {
        self.traced(Op::SetAcl, || {
            let acl = acl.clone();
            let (dir, child) = self.attr_target(ctx, path)?;
            let (name, target) = child.unwrap_or((String::new(), dir));
            self.on_dir_ok(
                ctx,
                OpBody::SetAcl {
                    dir,
                    name,
                    target,
                    acl,
                },
            )
        })
    }

    fn get_acl(&self, ctx: &Credentials, path: &str) -> FsResult<Acl> {
        self.traced(Op::GetAcl, || {
            let (_, rec) = self.resolve_record(ctx, path)?;
            Ok(rec.acl)
        })
    }

    fn access(&self, ctx: &Credentials, path: &str, mode: u8) -> FsResult<()> {
        self.traced(Op::Access, || {
            let (_, rec) = self.resolve_record(ctx, path)?;
            perm::check_access(ctx, rec.uid, rec.gid, rec.mode, &rec.acl, mode)
        })
    }

    fn sync_all(&self, ctx: &Credentials) -> FsResult<()> {
        self.traced(Op::SyncAll, || {
            // 1. All dirty data chunks, pipelined, once every PUT and
            // chunk DELETE behind the caller is acked.
            self.flush_file_data(None)?;
            // 2. Size updates for written handles. A push to a *remote*
            // leader is acked before durability, so each parent is
            // remembered: any not flushed locally below gets an explicit
            // FsyncDir barrier.
            let pending = self.state.files.take_pending_sizes();
            for (parent, name, ino, size) in pending {
                // Routed through `on_dir`, so the parent lands in
                // `dirty_dirs` and gets its barrier in step 5.
                self.push_size(&self.port, ctx, parent, &name, ino, size, false)?;
            }
            // 3. Commit + checkpoint every led directory, overlapped: each
            // directory's flush runs on a port forked at the same instant,
            // so independent directories' commits proceed in parallel and
            // the caller pays the slowest one. Directories mapped to the
            // same commit lane still serialize on that lane's
            // `SharedResource` (§III-E: multiple commit threads), and
            // checkpoints land on background timelines inside `flush`.
            // In partition key order, so the flushes reach shared
            // resources in the same virtual-time order in every run.
            let tables = self.state.dirs.led_tables();
            // Keyed by *partition key*: a led partition of a remote-led
            // directory is flushed here, and the per-partition barrier
            // below skips exactly those lanes.
            let led: HashSet<Ino> = tables.iter().map(|&(ino, _)| ino).collect();
            let start = self.port.now();
            let mut done = start;
            for (ino, table) in tables {
                let fork = Port::starting_at(start);
                let mut t = self.state.lock_table(&table);
                t.flush(
                    self.prt(),
                    &fork,
                    &self.state.lane(ino).res,
                    self.config().spec.local_meta_op,
                )?;
                done = done.max(fork.now());
            }
            // 4. Drain every commit lane: window commits and sealed
            // batches flushed on background timelines (recorded as
            // in-flight on their lane) must land before sync_all
            // returns — this is the global durability barrier.
            for lane in &self.state.lanes {
                done = done.max(lane.drain_until(start));
            }
            self.port.wait_until(done);
            // 5. Any mutation this client acked against a *remote*
            // partition leader (creates, size pushes, rename halves —
            // `dirty_dirs` collects their directories at the `on_dir`
            // layer) lives in that leader's running transaction, not
            // ours; a FsyncDir barrier per remote-led partition of each
            // dirty directory makes those journals durable too
            // (partitions flushed locally in step 3 are skipped by pkey).
            let dirty = std::mem::take(&mut *self.state.dirty_dirs.lock());
            for dir in dirty {
                match self.fsync_dir_barrier(ctx, dir, &led) {
                    // The directory may have been removed since it was
                    // dirtied; rmdir already flushed it.
                    Ok(()) | Err(FsError::NotFound) => {}
                    Err(e) => return Err(e),
                }
            }
            self.state.flush_epoch.fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
    }

    fn statfs(&self, _ctx: &Credentials) -> FsResult<FsStats> {
        self.traced(Op::Statfs, || {
            // Inode count via a flat LIST of `i` objects. The LIST is charged
            // as a single listing op in the cost model, but on S3-like
            // profiles it is still the most expensive metadata call we issue,
            // so the count is memoized per flush epoch: the namespace only
            // changes durably at commit/checkpoint time, and `sync_all` bumps
            // `flush_epoch`, so repeated statfs calls between flushes reuse
            // the cached count without re-walking the store.
            let epoch = self.state.flush_epoch.load(Ordering::Relaxed);
            let mut cache = self.state.statfs_cache.lock();
            let inodes = match *cache {
                Some((e, n)) if e == epoch => n,
                _ => {
                    let n = self
                        .prt()
                        .store()
                        .list(&self.port, Some(arkfs_objstore::KeyKind::Inode), None)
                        .map_err(crate::prt::map_os_err)?
                        .len() as u64;
                    *cache = Some((epoch, n));
                    n
                }
            };
            let (store_objects, store_bytes) = self.prt().store().usage();
            Ok(FsStats {
                inodes,
                store_objects,
                store_bytes,
            })
        })
    }
}
