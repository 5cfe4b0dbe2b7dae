//! Per-directory journaling with compound transactions (§III-E).
//!
//! "ArkFS has one journal for each directory instead of one global
//! journal area [...] ArkFS supports compound transactions with multiple
//! commit and checkpoint threads, buffering journal entries in an
//! in-memory transaction for 1 second."
//!
//! A directory's journal is a stream of `j<dir>.<seq>` objects, each one
//! sealed compound transaction protected by a CRC32. Checkpointing
//! applies transactions to the home `i`/`e` objects and deletes the
//! stream prefix. RENAME across directories uses two-phase commit:
//! `RenamePrepare` records in both journals, then `RenameCommit`
//! decisions (§III-E, citing Bernstein et al.).

use crate::meta::InodeRecord;
use crate::prt::Prt;
use crate::wire::{crc32, Decoder, Encoder, WireCodec, WireError, WireResult};
use arkfs_simkit::{Nanos, Port, SharedResource};
use arkfs_telemetry::TraceCtx;
use arkfs_vfs::{FileType, FsError, FsResult, Ino};
use bytes::Bytes;
use std::collections::VecDeque;

/// One logged namespace mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalOp {
    /// Create or update an inode record (the directory's own inode or a
    /// child's).
    PutInode(InodeRecord),
    /// Remove an inode record.
    DeleteInode(Ino),
    /// Insert or update a directory entry.
    UpsertDentry {
        name: String,
        ino: Ino,
        ftype: FileType,
    },
    /// Remove a directory entry.
    RemoveDentry {
        name: String,
    },
    /// First phase of a cross-directory rename: the ops to apply here if
    /// the transaction commits. `peer_dir` owns the other half.
    RenamePrepare {
        txid: u128,
        peer_dir: Ino,
        ops: Vec<JournalOp>,
    },
    /// Second-phase decision records.
    RenameCommit {
        txid: u128,
    },
    RenameAbort {
        txid: u128,
    },
}

impl WireCodec for JournalOp {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            JournalOp::PutInode(rec) => {
                enc.put_u8(0);
                rec.encode(enc);
            }
            JournalOp::DeleteInode(ino) => {
                enc.put_u8(1);
                enc.put_u128(*ino);
            }
            JournalOp::UpsertDentry { name, ino, ftype } => {
                enc.put_u8(2);
                enc.put_str(name);
                enc.put_u128(*ino);
                enc.put_u8(ftype.as_u8());
            }
            JournalOp::RemoveDentry { name } => {
                enc.put_u8(3);
                enc.put_str(name);
            }
            JournalOp::RenamePrepare {
                txid,
                peer_dir,
                ops,
            } => {
                enc.put_u8(4);
                enc.put_u128(*txid);
                enc.put_u128(*peer_dir);
                enc.put_u32(ops.len() as u32);
                for op in ops {
                    op.encode(enc);
                }
            }
            JournalOp::RenameCommit { txid } => {
                enc.put_u8(5);
                enc.put_u128(*txid);
            }
            JournalOp::RenameAbort { txid } => {
                enc.put_u8(6);
                enc.put_u128(*txid);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(match dec.get_u8()? {
            0 => JournalOp::PutInode(InodeRecord::decode(dec)?),
            1 => JournalOp::DeleteInode(dec.get_u128()?),
            2 => JournalOp::UpsertDentry {
                name: dec.get_str()?.to_string(),
                ino: dec.get_u128()?,
                ftype: FileType::from_u8(dec.get_u8()?).ok_or(WireError::Invalid("ftype"))?,
            },
            3 => JournalOp::RemoveDentry {
                name: dec.get_str()?.to_string(),
            },
            4 => {
                let txid = dec.get_u128()?;
                let peer_dir = dec.get_u128()?;
                let n = dec.get_u32()? as usize;
                let mut ops = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    ops.push(JournalOp::decode(dec)?);
                }
                JournalOp::RenamePrepare {
                    txid,
                    peer_dir,
                    ops,
                }
            }
            5 => JournalOp::RenameCommit {
                txid: dec.get_u128()?,
            },
            6 => JournalOp::RenameAbort {
                txid: dec.get_u128()?,
            },
            _ => return Err(WireError::Invalid("journal op tag")),
        })
    }
}

/// A sealed compound transaction as stored in one `j<dir>.<seq>` object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    pub dir: Ino,
    pub seq: u64,
    pub ops: Vec<JournalOp>,
}

impl Transaction {
    /// Encode with a trailing CRC32 over everything before it.
    pub fn seal(&self) -> Bytes {
        let mut enc = Encoder::with_capacity(128);
        enc.put_u8(1); // version
        enc.put_u128(self.dir);
        enc.put_u64(self.seq);
        enc.put_u32(self.ops.len() as u32);
        for op in &self.ops {
            op.encode(&mut enc);
        }
        let crc = crc32(enc.as_slice());
        enc.put_u32(crc);
        Bytes::from(enc.into_bytes())
    }

    /// Decode and verify the CRC; a torn or corrupt buffer yields
    /// `BadChecksum` so recovery can skip it.
    pub fn unseal(buf: &[u8]) -> WireResult<Self> {
        if buf.len() < 4 {
            return Err(WireError::Truncated);
        }
        let (body, crc_bytes) = buf.split_at(buf.len() - 4);
        let expect = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        if crc32(body) != expect {
            return Err(WireError::BadChecksum);
        }
        let mut dec = Decoder::new(body);
        let v = dec.get_u8()?;
        if v != 1 {
            return Err(WireError::BadVersion(v));
        }
        let dir = dec.get_u128()?;
        let seq = dec.get_u64()?;
        let n = dec.get_u32()? as usize;
        let mut ops = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            ops.push(JournalOp::decode(&mut dec)?);
        }
        Ok(Transaction { dir, seq, ops })
    }
}

/// Stamps attributing durability latency to the mutations inside one
/// sealed transaction: `(op name, mutation start time, trace context)`
/// triples. The context links the eventual durable landing back to the
/// originating client op as a follow-from span.
pub type OpStamps = Vec<(&'static str, Nanos, TraceCtx)>;

/// The in-memory journaling state of one directory at its leader.
///
/// A transaction moves through three states: **running** (buffering,
/// mutable), **sealed** (sequence number assigned, ops frozen, waiting
/// for its commit lane's durable flush — the state that lets the async
/// pipeline ack before durability), and **committed** (in the journal
/// object stream, awaiting checkpoint).
#[derive(Debug)]
pub struct DirJournal {
    dir: Ino,
    /// Sequence number the next sealed transaction will use.
    next_seq: u64,
    /// First journal object that is still live (not yet checkpointed).
    oldest_live: u64,
    /// The running (buffering) transaction.
    running: Vec<JournalOp>,
    running_since: Option<Nanos>,
    /// `(op name, start time, trace ctx)` stamps of the mutations
    /// buffered in `running`, used to attribute durability latency
    /// (`op.*.durable_ns`) once the transaction lands in the store.
    running_stamps: OpStamps,
    /// Sealed transactions awaiting their lane's durable flush. Nothing
    /// here has reached the object store: on a crash these are lost
    /// exactly like `running` ops.
    sealed: VecDeque<Transaction>,
    /// Stamps riding with each sealed transaction (parallel to `sealed`).
    sealed_stamps: VecDeque<OpStamps>,
    /// Sequence numbers of the sealed-and-journaled transactions awaiting
    /// checkpoint. Their ops go once durable: the checkpoint writes the
    /// metatable's dirty state, it does not replay them.
    committed: Vec<u64>,
}

impl DirJournal {
    /// A fresh journal starting after any sequence numbers already in the
    /// store (`resume_after` = highest existing seq + 1, or 0).
    pub fn new(dir: Ino, resume_from: u64) -> Self {
        DirJournal {
            dir,
            next_seq: resume_from,
            oldest_live: resume_from,
            running: Vec::new(),
            running_since: None,
            running_stamps: Vec::new(),
            sealed: VecDeque::new(),
            sealed_stamps: VecDeque::new(),
            committed: Vec::new(),
        }
    }

    pub fn dir(&self) -> Ino {
        self.dir
    }

    /// Append an op to the running transaction. The seal window counts
    /// from the *oldest* stamp buffered, not the first in host order:
    /// forwarded ops reach a leader out of virtual-time order (one engine
    /// step runs a whole client op and its queued RPCs), and an entry
    /// stamped before the window opened must not wait a window plus the
    /// skew for its seal.
    pub fn append(&mut self, op: JournalOp, now: Nanos) {
        self.running_since = Some(self.running_since.map_or(now, |since| since.min(now)));
        self.running.push(op);
    }

    /// Record which operation produced the mutation(s) just appended and
    /// when it started, so its durability latency (`op.*.durable_ns`)
    /// can be attributed once the transaction holding it lands in the
    /// store. `ctx` is the op's causal context: the durable landing is
    /// recorded as a follow-from span of its trace.
    pub fn stamp(&mut self, op: &'static str, start: Nanos, ctx: TraceCtx) {
        self.running_stamps.push((op, start, ctx));
    }

    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Number of sealed transactions waiting for their durable flush.
    pub fn sealed_len(&self) -> usize {
        self.sealed.len()
    }

    pub fn committed_len(&self) -> usize {
        self.committed.len()
    }

    /// Should the running transaction be sealed now? True when the
    /// buffering window has elapsed or the entry bound is hit.
    pub fn commit_due(&self, now: Nanos, window: Nanos, max_entries: usize) -> bool {
        if self.running.is_empty() {
            return false;
        }
        if self.running.len() >= max_entries {
            return true;
        }
        match self.running_since {
            Some(since) => now.saturating_sub(since) >= window,
            None => false,
        }
    }

    /// Seal the running transaction: assign it the next sequence number,
    /// freeze its ops, and queue it for the commit lane's durable flush.
    /// From this point the caller may ack — later ops observe the
    /// mutation through the in-memory metatable — but nothing is durable
    /// until [`DirJournal::flush_sealed`] lands it. Returns the sealed
    /// sequence number, or `None` when the running transaction was empty.
    pub fn seal(&mut self) -> Option<u64> {
        if self.running.is_empty() {
            return None;
        }
        let txn = Transaction {
            dir: self.dir,
            seq: self.next_seq,
            ops: std::mem::take(&mut self.running),
        };
        self.next_seq += 1;
        self.running_since = None;
        self.sealed_stamps
            .push_back(std::mem::take(&mut self.running_stamps));
        let seq = txn.seq;
        self.sealed.push_back(txn);
        Some(seq)
    }

    /// Flush every sealed transaction to the journal object stream in
    /// sequence order. The `lane` models the commit thread this directory
    /// is statically mapped to; its reservation serializes flushes
    /// sharing a lane in virtual time. On failure the failed transaction
    /// and everything sealed behind it are unsealed back into `running`
    /// (ahead of any ops buffered meanwhile) and the sequence counter
    /// rolls back — safe because none of them reached the store — so a
    /// later commit retries them; each pushback bumps
    /// `journal.commit_retry.count`.
    pub fn flush_sealed(
        &mut self,
        prt: &Prt,
        port: &Port,
        lane: &SharedResource,
        lane_service: Nanos,
    ) -> FsResult<()> {
        while let Some(txn) = self.sealed.pop_front() {
            let stamps = self.sealed_stamps.pop_front().unwrap_or_default();
            let t0 = port.now();
            let done = lane.reserve(t0, lane_service);
            port.wait_until(done);
            match prt.put_journal(port, self.dir, txn.seq, txn.seal()) {
                Ok(()) => {
                    let end = port.now();
                    for (op, start, ctx) in stamps {
                        prt.record_durable(op, self.dir, start, end, ctx);
                    }
                    self.committed.push(txn.seq);
                    prt.meta_span("journal.commit", self.dir, t0, end);
                }
                Err(e) => {
                    prt.count_commit_retry();
                    self.next_seq = txn.seq;
                    let mut ops = txn.ops;
                    let mut restored = stamps;
                    while let Some(t) = self.sealed.pop_front() {
                        ops.extend(t.ops);
                        restored.extend(self.sealed_stamps.pop_front().unwrap_or_default());
                    }
                    ops.extend(std::mem::take(&mut self.running));
                    restored.extend(std::mem::take(&mut self.running_stamps));
                    self.running = ops;
                    self.running_stamps = restored;
                    self.running_since.get_or_insert(port.now());
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Drain the sealed queue for a *group* flight (the leader's
    /// `flush_group`): the caller batches the returned
    /// transactions — possibly together with other directories' — into
    /// one multi-PUT, then reports back per transaction with
    /// [`DirJournal::push_committed`], or gives everything back with
    /// [`DirJournal::restore_sealed`] if the flight failed.
    pub fn take_sealed(&mut self) -> Vec<(Transaction, OpStamps)> {
        let txns = std::mem::take(&mut self.sealed);
        let stamps = std::mem::take(&mut self.sealed_stamps);
        txns.into_iter()
            .zip(stamps.into_iter().chain(std::iter::repeat_with(Vec::new)))
            .collect()
    }

    /// Record a group-flight transaction as durable (its journal object
    /// was written by the caller's batched flight).
    pub fn push_committed(&mut self, txn: Transaction) {
        self.committed.push(txn.seq);
    }

    /// Give back transactions taken by [`DirJournal::take_sealed`] after
    /// a failed group flight: they unseal — together with anything sealed
    /// or buffered since — back into `running` at the front, and the
    /// sequence counter rolls back, exactly like a failed
    /// [`DirJournal::flush_sealed`]. Re-putting the same sequence numbers
    /// on retry is safe even if part of the flight landed: those ops were
    /// already acked and a replay applies them idempotently. The caller
    /// counts the retry.
    pub fn restore_sealed(&mut self, taken: Vec<(Transaction, OpStamps)>, now: Nanos) {
        let Some((first, _)) = taken.first() else {
            return;
        };
        self.next_seq = first.seq;
        let mut ops = Vec::new();
        let mut stamps = Vec::new();
        for (txn, st) in taken {
            ops.extend(txn.ops);
            stamps.extend(st);
        }
        while let Some(t) = self.sealed.pop_front() {
            ops.extend(t.ops);
            stamps.extend(self.sealed_stamps.pop_front().unwrap_or_default());
        }
        ops.extend(std::mem::take(&mut self.running));
        stamps.extend(std::mem::take(&mut self.running_stamps));
        self.running = ops;
        self.running_stamps = stamps;
        self.running_since.get_or_insert(now);
    }

    /// Seal the running transaction and flush everything sealed: the
    /// synchronous commit path (the caller's timeline pays the journal
    /// append).
    pub fn commit(
        &mut self,
        prt: &Prt,
        port: &Port,
        lane: &SharedResource,
        lane_service: Nanos,
    ) -> FsResult<()> {
        self.seal();
        self.flush_sealed(prt, port, lane, lane_service)
    }

    /// Take the sequence numbers of the committed transactions for
    /// checkpointing. The caller writes the home objects, then calls
    /// [`DirJournal::truncate`] to delete the journal objects.
    pub fn take_committed(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.committed)
    }

    /// Delete checkpointed journal objects up to (excluding) `next_seq`
    /// with one batched multi-DELETE: truncation pays the slowest object,
    /// not one round trip per sealed transaction.
    pub fn truncate(&mut self, prt: &Prt, port: &Port) -> FsResult<()> {
        let dead: Vec<u64> = (self.oldest_live..self.next_seq).collect();
        prt.delete_journal_many(port, self.dir, &dead)?;
        self.oldest_live = self.next_seq;
        Ok(())
    }

    /// Whether everything is durable and applied.
    pub fn is_quiescent(&self) -> bool {
        self.running.is_empty() && self.sealed.is_empty() && self.committed.is_empty()
    }
}

/// Scan a directory's journal object stream: one LIST, then one batched
/// multi-GET over every sequence number — recovery of an N-transaction
/// stream pays the slowest object, not N round trips. Returns the listed
/// sequence numbers (including torn objects, so callers can compute the
/// resume point and truncate without re-listing) and every intact
/// transaction in sequence order. Torn/corrupt objects are skipped (they
/// were never acknowledged).
pub fn scan_journal_stream(
    prt: &Prt,
    port: &Port,
    dir: Ino,
) -> FsResult<(Vec<u64>, Vec<Transaction>)> {
    let seqs = prt.list_journal(port, dir)?;
    let mut out = Vec::new();
    for data in prt.get_journal_many(port, dir, &seqs)?.into_iter() {
        let Some(data) = data else { continue };
        match Transaction::unseal(&data) {
            Ok(txn) => out.push(txn),
            Err(WireError::BadChecksum) | Err(WireError::Truncated) => continue,
            Err(e) => return Err(FsError::Io(e.to_string())),
        }
    }
    out.sort_by_key(|t| t.seq);
    Ok((seqs, out))
}

/// Intact transactions of a directory's journal stream, in sequence
/// order (see [`scan_journal_stream`]).
pub fn scan_journal(prt: &Prt, port: &Port, dir: Ino) -> FsResult<Vec<Transaction>> {
    scan_journal_stream(prt, port, dir).map(|(_, txns)| txns)
}

/// Resolve the fate of rename transactions found while scanning `dir`'s
/// journal: returns the effective op list with 2PC records folded in —
/// committed prepares expand to their ops, aborted or undecided-without-
/// peer-commit prepares are dropped.
pub fn resolve_renames(prt: &Prt, port: &Port, txns: &[Transaction]) -> FsResult<Vec<JournalOp>> {
    use std::collections::HashMap;
    // Gather local decisions.
    let mut decisions: HashMap<u128, bool> = HashMap::new();
    for txn in txns {
        for op in &txn.ops {
            match op {
                JournalOp::RenameCommit { txid } => {
                    decisions.insert(*txid, true);
                }
                JournalOp::RenameAbort { txid } => {
                    decisions.insert(*txid, false);
                }
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    for txn in txns {
        for op in &txn.ops {
            match op {
                JournalOp::RenamePrepare {
                    txid,
                    peer_dir,
                    ops,
                } => {
                    let committed = match decisions.get(txid) {
                        Some(d) => *d,
                        None => {
                            // Undecided locally: consult the peer journal.
                            let peer = scan_journal(prt, port, *peer_dir)?;
                            peer.iter().flat_map(|t| &t.ops).any(
                                |o| matches!(o, JournalOp::RenameCommit { txid: t } if t == txid),
                            )
                        }
                    };
                    if committed {
                        out.extend(ops.iter().cloned());
                    }
                }
                JournalOp::RenameCommit { .. } | JournalOp::RenameAbort { .. } => {}
                other => out.push(other.clone()),
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arkfs_objstore::{ClusterConfig, ObjectCluster};
    use std::sync::Arc;

    fn prt() -> Prt {
        Prt::new(Arc::new(ObjectCluster::new(ClusterConfig::test_tiny())), 64)
    }

    fn inode(ino: Ino) -> InodeRecord {
        InodeRecord::new(ino, FileType::Regular, 0o644, 0, 0, 0)
    }

    fn sample_ops() -> Vec<JournalOp> {
        vec![
            JournalOp::PutInode(inode(9)),
            JournalOp::UpsertDentry {
                name: "f".into(),
                ino: 9,
                ftype: FileType::Regular,
            },
            JournalOp::RemoveDentry { name: "old".into() },
            JournalOp::DeleteInode(5),
            JournalOp::RenamePrepare {
                txid: 77,
                peer_dir: 3,
                ops: vec![JournalOp::RemoveDentry { name: "mv".into() }],
            },
            JournalOp::RenameCommit { txid: 77 },
            JournalOp::RenameAbort { txid: 78 },
        ]
    }

    #[test]
    fn transaction_seal_unseal_roundtrip() {
        let txn = Transaction {
            dir: 42,
            seq: 3,
            ops: sample_ops(),
        };
        let sealed = txn.seal();
        assert_eq!(Transaction::unseal(&sealed).unwrap(), txn);
    }

    #[test]
    fn corruption_is_detected() {
        let txn = Transaction {
            dir: 42,
            seq: 3,
            ops: sample_ops(),
        };
        let mut sealed = txn.seal().to_vec();
        sealed[10] ^= 0xFF;
        assert_eq!(Transaction::unseal(&sealed), Err(WireError::BadChecksum));
        // Torn write (prefix only).
        let sealed = txn.seal();
        assert_eq!(
            Transaction::unseal(&sealed[..sealed.len() / 2]),
            Err(WireError::BadChecksum)
        );
        assert_eq!(Transaction::unseal(&[1, 2]), Err(WireError::Truncated));
    }

    #[test]
    fn commit_due_honours_window_and_bound() {
        let mut j = DirJournal::new(1, 0);
        assert!(!j.commit_due(100, 10, 4));
        j.append(JournalOp::DeleteInode(1), 100);
        assert!(!j.commit_due(105, 10, 4), "window not yet elapsed");
        assert!(j.commit_due(110, 10, 4), "window elapsed");
        for i in 0..3 {
            j.append(JournalOp::DeleteInode(i), 101);
        }
        assert!(j.commit_due(102, 1000, 4), "entry bound hit");
    }

    #[test]
    fn seal_window_counts_from_the_oldest_entry() {
        // Forwarded ops reach a leader out of virtual-time order: the
        // entry stamped 100 arrives after the one stamped 150.
        let mut j = DirJournal::new(1, 0);
        j.append(JournalOp::DeleteInode(1), 150);
        j.append(JournalOp::DeleteInode(2), 100);
        assert!(j.commit_due(200, 100, 64), "100 has waited a full window");
        // Sealing resets the window for the next transaction.
        j.seal();
        j.append(JournalOp::DeleteInode(3), 180);
        assert!(!j.commit_due(200, 100, 64));
    }

    #[test]
    fn commit_writes_and_checkpoint_truncates() {
        let prt = prt();
        let port = Port::new();
        let lane = SharedResource::ideal("commit");
        let mut j = DirJournal::new(7, 0);
        j.append(JournalOp::PutInode(inode(9)), 0);
        j.append(
            JournalOp::UpsertDentry {
                name: "f".into(),
                ino: 9,
                ftype: FileType::Regular,
            },
            0,
        );
        j.commit(&prt, &port, &lane, 10).unwrap();
        assert!(j.running_len() == 0 && j.committed_len() == 1);
        assert_eq!(prt.list_journal(&port, 7).unwrap(), vec![0]);

        // Second compound transaction.
        j.append(JournalOp::DeleteInode(5), 0);
        j.commit(&prt, &port, &lane, 10).unwrap();
        assert_eq!(prt.list_journal(&port, 7).unwrap(), vec![0, 1]);

        assert_eq!(j.take_committed(), [0, 1]);
        j.truncate(&prt, &port).unwrap();
        assert!(prt.list_journal(&port, 7).unwrap().is_empty());
        assert!(j.is_quiescent());
    }

    #[test]
    fn empty_commit_is_a_noop() {
        let prt = prt();
        let port = Port::new();
        let lane = SharedResource::ideal("commit");
        let mut j = DirJournal::new(7, 0);
        j.commit(&prt, &port, &lane, 10).unwrap();
        assert!(prt.list_journal(&port, 7).unwrap().is_empty());
    }

    #[test]
    fn failed_commit_keeps_ops_for_retry() {
        let store = Arc::new(ObjectCluster::new(ClusterConfig::test_tiny()));
        let prt = Prt::new(store.clone(), 64);
        let port = Port::new();
        let lane = SharedResource::ideal("commit");
        let mut j = DirJournal::new(7, 0);
        j.append(JournalOp::DeleteInode(1), 0);
        store.faults.fail_next_puts(1, None);
        assert!(j.commit(&prt, &port, &lane, 10).is_err());
        assert_eq!(j.running_len(), 1, "ops restored for retry");
        j.commit(&prt, &port, &lane, 10).unwrap();
        assert_eq!(j.committed_len(), 1);
    }

    #[test]
    fn seal_freezes_ops_without_touching_the_store() {
        let prt = prt();
        let port = Port::new();
        let lane = SharedResource::ideal("commit");
        let mut j = DirJournal::new(7, 0);
        j.append(JournalOp::DeleteInode(1), 0);
        assert_eq!(j.seal(), Some(0));
        assert_eq!(j.running_len(), 0);
        assert_eq!(j.sealed_len(), 1);
        assert!(
            prt.list_journal(&port, 7).unwrap().is_empty(),
            "sealed is not durable"
        );
        // Ops appended after the seal start a new running transaction.
        j.append(JournalOp::DeleteInode(2), 5);
        assert_eq!(j.seal(), Some(1));
        assert_eq!(j.sealed_len(), 2);
        j.flush_sealed(&prt, &port, &lane, 10).unwrap();
        assert_eq!(j.sealed_len(), 0);
        assert_eq!(j.committed_len(), 2);
        assert_eq!(prt.list_journal(&port, 7).unwrap(), vec![0, 1]);
    }

    #[test]
    fn empty_seal_is_none() {
        let mut j = DirJournal::new(7, 0);
        assert_eq!(j.seal(), None);
        assert_eq!(j.sealed_len(), 0);
    }

    #[test]
    fn failed_flush_unseals_in_order_and_rolls_back_seq() {
        let store = Arc::new(ObjectCluster::new(ClusterConfig::test_tiny()));
        let prt = Prt::new(store.clone(), 64);
        let port = Port::new();
        let lane = SharedResource::ideal("commit");
        let mut j = DirJournal::new(7, 0);
        // Two sealed transactions plus fresh running ops.
        j.append(JournalOp::DeleteInode(1), 0);
        j.seal();
        j.append(JournalOp::DeleteInode(2), 0);
        j.seal();
        j.append(JournalOp::DeleteInode(3), 0);
        let retries = prt
            .telemetry()
            .registry
            .counter("journal.commit_retry.count");
        store.faults.fail_next_puts(1, None);
        assert!(j.flush_sealed(&prt, &port, &lane, 10).is_err());
        assert_eq!(retries.get(), 1, "pushback is counted");
        assert_eq!(j.sealed_len(), 0);
        assert_eq!(
            j.running_len(),
            3,
            "unflushed sealed ops land ahead of the running tail"
        );
        // Retry commits everything at the original sequence number.
        j.commit(&prt, &port, &lane, 10).unwrap();
        assert_eq!(prt.list_journal(&port, 7).unwrap(), vec![0]);
        let txn = Transaction::unseal(&prt.get_journal(&port, 7, 0).unwrap()).unwrap();
        assert_eq!(
            txn.ops,
            vec![
                JournalOp::DeleteInode(1),
                JournalOp::DeleteInode(2),
                JournalOp::DeleteInode(3),
            ]
        );
    }

    #[test]
    fn group_take_restore_roundtrip() {
        let prt = prt();
        let port = Port::new();
        let lane = SharedResource::ideal("commit");
        let mut j = DirJournal::new(7, 0);
        j.append(JournalOp::DeleteInode(1), 0);
        j.stamp("unlink", 0, TraceCtx::NONE);
        j.seal();
        j.append(JournalOp::DeleteInode(2), 0);
        j.seal();
        let taken = j.take_sealed();
        assert_eq!(taken.len(), 2);
        assert_eq!(taken[0].1, vec![("unlink", 0, TraceCtx::NONE)]);
        assert_eq!(j.sealed_len(), 0);
        // Failed flight: everything (taken + ops buffered meanwhile)
        // unseals for retry at the original sequence number.
        j.append(JournalOp::DeleteInode(3), 1);
        j.restore_sealed(taken, 1);
        assert_eq!(j.running_len(), 3);
        j.commit(&prt, &port, &lane, 0).unwrap();
        assert_eq!(prt.list_journal(&port, 7).unwrap(), vec![0]);
    }

    #[test]
    fn group_push_committed_feeds_checkpoint() {
        let mut j = DirJournal::new(7, 0);
        j.append(JournalOp::DeleteInode(1), 0);
        j.seal();
        let taken = j.take_sealed();
        for (txn, _) in taken {
            j.push_committed(txn);
        }
        assert_eq!(j.committed_len(), 1);
        assert!(!j.is_quiescent(), "committed still awaits checkpoint");
        assert_eq!(j.take_committed().len(), 1);
    }

    #[test]
    fn scan_skips_torn_transactions() {
        let prt = prt();
        let port = Port::new();
        let good = Transaction {
            dir: 7,
            seq: 0,
            ops: vec![JournalOp::DeleteInode(1)],
        };
        let torn = Transaction {
            dir: 7,
            seq: 1,
            ops: vec![JournalOp::DeleteInode(2)],
        };
        prt.put_journal(&port, 7, 0, good.seal()).unwrap();
        let sealed = torn.seal();
        prt.put_journal(&port, 7, 1, sealed.slice(..sealed.len() - 2))
            .unwrap();
        let txns = scan_journal(&prt, &port, 7).unwrap();
        assert_eq!(txns, vec![good]);
    }

    #[test]
    fn resume_from_preserves_sequence() {
        let prt = prt();
        let port = Port::new();
        let lane = SharedResource::ideal("commit");
        let mut j = DirJournal::new(7, 5);
        j.append(JournalOp::DeleteInode(1), 0);
        j.commit(&prt, &port, &lane, 0).unwrap();
        assert_eq!(prt.list_journal(&port, 7).unwrap(), vec![5]);
    }

    #[test]
    fn rename_resolution_commits_and_aborts() {
        let prt = prt();
        let port = Port::new();
        // Local journal: prepare(1) + commit(1), prepare(2) without
        // decision, prepare(3) + abort(3).
        let txns = vec![Transaction {
            dir: 7,
            seq: 0,
            ops: vec![
                JournalOp::RenamePrepare {
                    txid: 1,
                    peer_dir: 8,
                    ops: vec![JournalOp::RemoveDentry { name: "a".into() }],
                },
                JournalOp::RenameCommit { txid: 1 },
                JournalOp::RenamePrepare {
                    txid: 2,
                    peer_dir: 8,
                    ops: vec![JournalOp::RemoveDentry { name: "b".into() }],
                },
                JournalOp::RenamePrepare {
                    txid: 3,
                    peer_dir: 8,
                    ops: vec![JournalOp::RemoveDentry { name: "c".into() }],
                },
                JournalOp::RenameAbort { txid: 3 },
                JournalOp::UpsertDentry {
                    name: "z".into(),
                    ino: 9,
                    ftype: FileType::Regular,
                },
            ],
        }];
        // Peer journal holds the commit decision for txid 2.
        let peer = Transaction {
            dir: 8,
            seq: 0,
            ops: vec![JournalOp::RenameCommit { txid: 2 }],
        };
        prt.put_journal(&port, 8, 0, peer.seal()).unwrap();

        let ops = resolve_renames(&prt, &port, &txns).unwrap();
        assert_eq!(
            ops,
            vec![
                JournalOp::RemoveDentry { name: "a".into() }, // committed locally
                JournalOp::RemoveDentry { name: "b".into() }, // committed at peer
                JournalOp::UpsertDentry {
                    name: "z".into(),
                    ino: 9,
                    ftype: FileType::Regular
                },
            ]
        );
    }

    #[test]
    fn undecided_rename_without_peer_commit_aborts() {
        let prt = prt();
        let port = Port::new();
        let txns = vec![Transaction {
            dir: 7,
            seq: 0,
            ops: vec![JournalOp::RenamePrepare {
                txid: 9,
                peer_dir: 8,
                ops: vec![JournalOp::RemoveDentry { name: "x".into() }],
            }],
        }];
        let ops = resolve_renames(&prt, &port, &txns).unwrap();
        assert!(ops.is_empty(), "presumed abort");
    }
}
