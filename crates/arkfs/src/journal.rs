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
use crate::wire::{crc32, wire_enum, Decoder, Encoder, WireCodec, WireError, WireResult};
use arkfs_simkit::{Nanos, Port, SharedResource};
use arkfs_telemetry::TraceCtx;
use arkfs_vfs::{FileType, FsError, FsResult, Ino};
use bytes::Bytes;

wire_enum! {
    /// One logged namespace mutation.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum JournalOp, "journal op tag" {
        /// Create or update an inode record (the directory's own inode
        /// or a child's).
        0 => PutInode(rec: InodeRecord),
        /// Remove an inode record.
        1 => DeleteInode(ino: Ino),
        /// Insert or update a directory entry.
        2 => UpsertDentry { name: String, ino: Ino, ftype: FileType },
        /// Remove a directory entry.
        3 => RemoveDentry { name: String },
        /// First phase of a cross-directory rename: the ops to apply
        /// here if the transaction commits. `peer_dir` owns the other
        /// half.
        4 => RenamePrepare { txid: u128, peer_dir: Ino, ops: Vec<JournalOp> },
        /// Second-phase decision records.
        5 => RenameCommit { txid: u128 },
        6 => RenameAbort { txid: u128 },
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
        self.ops.encode(&mut enc);
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
        Ok(Transaction {
            dir: dec.get_u128()?,
            seq: dec.get_u64()?,
            ops: Vec::decode(&mut dec)?,
        })
    }
}

/// Stamps attributing durability latency to the mutations inside one
/// sealed transaction: `(op name, mutation start time, trace context)`
/// triples. The context links the eventual durable landing back to the
/// originating client op as a follow-from span.
pub type OpStamps = Vec<(&'static str, Nanos, TraceCtx)>;

/// The sealed transaction taken from one journal for a [`flight`], with
/// its stamps. A journal holds at most one, so a flight carries at most
/// one object per journal stream.
pub type Sealed = Option<(Transaction, OpStamps)>;

/// The in-memory journaling state of one directory at its leader.
///
/// A mutation is buffered in the **running** transaction until it is
/// sealed: it gets the next sequence number and its ops freeze. Sealing
/// is a hand-off, not a queue: the table-lock hold that seals a
/// transaction also hands it to a [`flight`], which writes it to the
/// journal object stream, where it stays until checkpoint truncates the
/// stream. A flight that fails unseals it back into running.
#[derive(Debug)]
pub struct DirJournal {
    dir: Ino,
    /// Sequence number the next sealed transaction will use.
    next_seq: u64,
    /// First journal object that is still live (not yet checkpointed).
    oldest_live: u64,
    /// Objects a crashed leader left in the stream, replayed by the
    /// takeover and deleted by the next [`DirJournal::truncate`].
    adopted: Vec<u64>,
    /// The running (buffering) transaction.
    running: Vec<JournalOp>,
    running_since: Option<Nanos>,
    /// `(op name, start time, trace ctx)` stamps of the mutations
    /// buffered in `running`, used to attribute durability latency
    /// (`op.*.durable_ns`) once the transaction lands in the store.
    running_stamps: OpStamps,
    /// The sealed transaction not yet taken by a flight. Nothing here
    /// has reached the object store: on a crash it is lost exactly like
    /// `running` ops.
    sealed: Sealed,
}

impl DirJournal {
    /// A fresh journal starting after any sequence numbers already in the
    /// store (`resume_after` = highest existing seq + 1, or 0).
    pub fn new(dir: Ino, resume_from: u64) -> Self {
        DirJournal {
            dir,
            next_seq: resume_from,
            oldest_live: resume_from,
            adopted: Vec::new(),
            running: Vec::new(),
            running_since: None,
            running_stamps: Vec::new(),
            sealed: None,
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

    /// Seal the running transaction: assign it the next sequence number
    /// and freeze its ops for the next [`flight`]. From this point the
    /// caller may ack — later ops observe the mutation through the
    /// in-memory metatable — but nothing is durable until the flight
    /// lands it. A transaction sealed before a flight took the previous
    /// one joins it at its sequence number: a flight writes at most one
    /// object per stream, so one refused item can never leave a later
    /// object of the same stream landed behind it. Returns the sealed
    /// sequence number, or `None` when the running transaction was empty.
    pub fn seal(&mut self) -> Option<u64> {
        if self.running.is_empty() {
            return None;
        }
        let ops = std::mem::take(&mut self.running);
        let stamps = std::mem::take(&mut self.running_stamps);
        self.running_since = None;
        match &mut self.sealed {
            Some((txn, sealed_stamps)) => {
                txn.ops.extend(ops);
                sealed_stamps.extend(stamps);
                Some(txn.seq)
            }
            None => {
                let seq = self.next_seq;
                self.next_seq += 1;
                let txn = Transaction {
                    dir: self.dir,
                    seq,
                    ops,
                };
                self.sealed = Some((txn, stamps));
                Some(seq)
            }
        }
    }

    /// Take the sealed transaction for a [`flight`].
    pub fn take_sealed(&mut self) -> Sealed {
        self.sealed.take()
    }

    /// Give back the transaction taken by [`DirJournal::take_sealed`]
    /// after a failed flight: it unseals — together with anything sealed
    /// or buffered since — back into `running` at the front, and the
    /// sequence counter rolls back, so a later commit retries it at the
    /// same sequence number. That is safe even if its PUT landed while
    /// another item of the flight was refused: the retry overwrites that
    /// one object with a superset whose ops come first and in order, and
    /// the stream has no later object of this journal.
    fn restore_sealed(&mut self, taken: Sealed, now: Nanos) {
        let Some((txn, mut stamps)) = taken else {
            return;
        };
        self.next_seq = txn.seq;
        let mut ops = txn.ops;
        if let Some((later, later_stamps)) = self.sealed.take() {
            ops.extend(later.ops);
            stamps.extend(later_stamps);
        }
        ops.append(&mut self.running);
        stamps.append(&mut self.running_stamps);
        self.running = ops;
        self.running_stamps = stamps;
        self.running_since.get_or_insert(now);
    }

    /// The forced commit (2PC records, `FsyncDir`, a handoff's quiesce):
    /// seal the running transaction and fly it on the caller's timeline,
    /// alone — a forced flight carries no co-laned donors.
    pub fn commit(
        &mut self,
        prt: &Prt,
        port: &Port,
        lane: &SharedResource,
        lane_service: Nanos,
    ) -> FsResult<()> {
        self.seal();
        let taken = self.take_sealed();
        flight(prt, port, lane, lane_service, vec![(self, taken)])
    }

    /// Hand the next truncate the objects a takeover listed in this
    /// stream (torn ones included), once their ops are in the table.
    pub(crate) fn adopt(&mut self, listed: Vec<u64>) {
        self.adopted = listed;
    }

    /// Delete checkpointed journal objects — the adopted ones, then
    /// everything flown up to (excluding) `next_seq` — with one batched
    /// multi-DELETE: truncation pays the slowest object, not one round
    /// trip per sealed transaction.
    pub fn truncate(&mut self, prt: &Prt, port: &Port) -> FsResult<()> {
        let dead: Vec<u64> = self
            .adopted
            .iter()
            .copied()
            .chain(self.oldest_live..self.next_seq)
            .collect();
        prt.delete_journal_many(port, self.dir, &dead)?;
        self.adopted = Vec::new();
        self.oldest_live = self.next_seq;
        Ok(())
    }
}

/// One journal flight, the only way a sealed transaction reaches the
/// store. `groups` pairs each journal with the transaction taken from
/// it; the flight reserves the commit `lane` once and writes them all,
/// in group order, in one multi-PUT. Once it lands, every stamp's
/// `op.*.durable_ns` is recorded and each group that carried anything
/// records a `journal.commit` span. If it fails, every group's
/// transaction unseals back into its running transaction and
/// `journal.commit_retry.count` counts the retry. A flight with nothing
/// to carry returns before reserving the lane.
pub fn flight(
    prt: &Prt,
    port: &Port,
    lane: &SharedResource,
    lane_service: Nanos,
    groups: Vec<(&mut DirJournal, Sealed)>,
) -> FsResult<()> {
    if groups.iter().all(|(_, taken)| taken.is_none()) {
        return Ok(());
    }
    let t0 = port.now();
    port.wait_until(lane.reserve(t0, lane_service));
    let items: Vec<(Ino, u64, Bytes)> = groups
        .iter()
        .flat_map(|(_, taken)| taken)
        .map(|(txn, _)| (txn.dir, txn.seq, txn.seal()))
        .collect();
    if let Err(e) = prt.put_journal_many(port, &items) {
        prt.count_commit_retry();
        let now = port.now();
        for (journal, taken) in groups {
            journal.restore_sealed(taken, now);
        }
        return Err(e);
    }
    let end = port.now();
    for (journal, (_, stamps)) in groups
        .into_iter()
        .filter_map(|(journal, taken)| Some((journal, taken?)))
    {
        prt.meta_span("journal.commit", journal.dir, t0, end);
        for (op, start, ctx) in stamps {
            prt.record_durable(op, journal.dir, start, end, ctx);
        }
    }
    Ok(())
}

/// Scan a directory's journal object stream: one LIST, then one batched
/// multi-GET over every sequence number — recovery of an N-transaction
/// stream pays the slowest object, not N round trips. Returns the listed
/// sequence numbers (including torn objects, so callers can compute the
/// resume point and truncate without re-listing) and every intact
/// transaction in sequence order. An object that fails its CRC or is cut
/// short is skipped wherever it sits in the stream: a torn newest one was
/// never acknowledged, but a corrupt one below an intact one drops an
/// acknowledged transaction silently (ROADMAP item 19).
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
/// journal: returns the effective op list with 2PC records folded in.
/// A committed prepare stays whole, for `Metatable::apply` to apply as a
/// live leader did; an aborted prepare, an undecided one the peer journal
/// does not commit, and the decision records are dropped.
pub fn resolve_renames(prt: &Prt, port: &Port, txns: &[Transaction]) -> FsResult<Vec<JournalOp>> {
    use arkfs_simkit::hash::HashMap;
    let ops = || txns.iter().flat_map(|txn| &txn.ops);
    // Local decisions: the last one of a txid counts.
    let decisions: HashMap<u128, bool> = ops()
        .filter_map(|op| match op {
            JournalOp::RenameCommit { txid } => Some((*txid, true)),
            JournalOp::RenameAbort { txid } => Some((*txid, false)),
            _ => None,
        })
        .collect();
    let mut out = Vec::new();
    for op in ops() {
        let keep = match op {
            JournalOp::RenamePrepare { txid, peer_dir, .. } => match decisions.get(txid) {
                Some(committed) => *committed,
                // Undecided locally: consult the peer journal.
                None => scan_journal(prt, port, *peer_dir)?
                    .iter()
                    .flat_map(|t| &t.ops)
                    .any(|o| matches!(o, JournalOp::RenameCommit { txid: t } if t == txid)),
            },
            JournalOp::RenameCommit { .. } | JournalOp::RenameAbort { .. } => false,
            _ => true,
        };
        if keep {
            out.push(op.clone());
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

    /// The transaction stored at `dir`'s journal object `seq`.
    fn stored(prt: &Prt, dir: Ino, seq: u64) -> Transaction {
        let mut data = prt.get_journal_many(&Port::new(), dir, &[seq]).unwrap();
        Transaction::unseal(&data.remove(0).expect("stored")).unwrap()
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
        assert_eq!(j.running_len(), 0);
        assert_eq!(prt.list_journal(&port, 7).unwrap(), vec![0]);

        // Second compound transaction.
        j.append(JournalOp::DeleteInode(5), 0);
        j.commit(&prt, &port, &lane, 10).unwrap();
        assert_eq!(prt.list_journal(&port, 7).unwrap(), vec![0, 1]);

        j.truncate(&prt, &port).unwrap();
        assert!(prt.list_journal(&port, 7).unwrap().is_empty());
        assert_eq!(j.running_len(), 0);
        assert!(j.take_sealed().is_none());
    }

    #[test]
    fn empty_commit_is_a_noop() {
        let prt = prt();
        let port = Port::new();
        let lane = SharedResource::ideal("commit");
        let mut j = DirJournal::new(7, 0);
        j.commit(&prt, &port, &lane, 10).unwrap();
        assert_eq!(lane.served(), 0, "an empty flight reserves no lane time");
        assert_eq!(port.now(), 0);
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
        assert_eq!(prt.list_journal(&port, 7).unwrap(), vec![0]);
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
        assert!(
            prt.list_journal(&port, 7).unwrap().is_empty(),
            "sealed is not durable"
        );
        // Ops appended after the seal start a new running transaction;
        // sealed before a flight took the first, they join it.
        j.append(JournalOp::DeleteInode(2), 5);
        assert_eq!(j.running_len(), 1);
        assert_eq!(j.seal(), Some(0));
        let taken = j.take_sealed();
        let ops = taken.as_ref().map(|(txn, _)| txn.ops.len());
        assert_eq!(ops, Some(2));
        flight(&prt, &port, &lane, 10, vec![(&mut j, taken)]).unwrap();
        assert!(j.take_sealed().is_none());
        assert_eq!(prt.list_journal(&port, 7).unwrap(), vec![0]);
        j.append(JournalOp::DeleteInode(3), 6);
        assert_eq!(j.seal(), Some(1), "a flight closes the sequence number");
    }

    #[test]
    fn empty_seal_is_none() {
        let mut j = DirJournal::new(7, 0);
        assert_eq!(j.seal(), None);
        assert!(j.take_sealed().is_none());
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
        let taken = j.take_sealed();
        assert!(flight(&prt, &port, &lane, 10, vec![(&mut j, taken)]).is_err());
        assert_eq!(retries.get(), 1, "pushback is counted");
        assert!(j.take_sealed().is_none());
        assert_eq!(
            j.running_len(),
            3,
            "unflushed sealed ops land ahead of the running tail"
        );
        // Retry commits everything at the original sequence number.
        j.commit(&prt, &port, &lane, 10).unwrap();
        assert_eq!(prt.list_journal(&port, 7).unwrap(), vec![0]);
        assert_eq!(
            stored(&prt, 7, 0).ops,
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
        let (txn, stamps) = taken.as_ref().expect("sealed");
        assert_eq!((txn.seq, txn.ops.len()), (0, 2));
        assert_eq!(stamps, &vec![("unlink", 0, TraceCtx::NONE)]);
        assert!(j.take_sealed().is_none());
        // Failed flight: everything (taken + ops buffered meanwhile)
        // unseals for retry at the original sequence number.
        j.append(JournalOp::DeleteInode(3), 1);
        j.restore_sealed(taken, 1);
        assert_eq!(j.running_len(), 3);
        j.commit(&prt, &port, &lane, 0).unwrap();
        assert_eq!(prt.list_journal(&port, 7).unwrap(), vec![0]);
    }

    #[test]
    fn one_flight_carries_every_group_in_order() {
        let store = Arc::new(ObjectCluster::new(ClusterConfig::test_tiny()));
        let prt = Prt::new(store.clone(), 64);
        let port = Port::new();
        let lane = SharedResource::ideal("commit");
        let (mut a, mut b) = (DirJournal::new(7, 0), DirJournal::new(8, 3));
        a.append(JournalOp::DeleteInode(1), 0);
        a.seal();
        b.append(JournalOp::DeleteInode(2), 0);
        b.seal();
        let (ta, tb) = (a.take_sealed(), b.take_sealed());
        flight(&prt, &port, &lane, 10, vec![(&mut a, ta), (&mut b, tb)]).unwrap();
        assert_eq!(lane.served(), 1, "one reservation for the whole flight");
        let flights = prt.telemetry().registry.counter("journal.flight.count");
        assert_eq!(flights.get(), 1, "one multi-PUT");
        assert_eq!(prt.list_journal(&port, 7).unwrap(), vec![0]);
        assert_eq!(prt.list_journal(&port, 8).unwrap(), vec![3]);
        // A refused flight unseals every group for retry.
        a.append(JournalOp::DeleteInode(3), 1);
        a.seal();
        b.append(JournalOp::DeleteInode(4), 1);
        b.seal();
        store.faults.fail_next_puts(1, None);
        let (ta, tb) = (a.take_sealed(), b.take_sealed());
        assert!(flight(&prt, &port, &lane, 10, vec![(&mut a, ta), (&mut b, tb)]).is_err());
        assert_eq!((a.running_len(), b.running_len()), (1, 1));
        // Only `a`'s item was refused: `b`'s landed, and its retry
        // overwrites that object rather than leaving it behind.
        assert_eq!(prt.list_journal(&port, 8).unwrap(), vec![3, 4]);
        b.append(JournalOp::DeleteInode(5), 2);
        assert_eq!((a.seal(), b.seal()), (Some(1), Some(4)));
        let (ta, tb) = (a.take_sealed(), b.take_sealed());
        flight(&prt, &port, &lane, 10, vec![(&mut a, ta), (&mut b, tb)]).unwrap();
        assert_eq!(prt.list_journal(&port, 7).unwrap(), vec![0, 1]);
        assert_eq!(prt.list_journal(&port, 8).unwrap(), vec![3, 4]);
        let expected = vec![JournalOp::DeleteInode(4), JournalOp::DeleteInode(5)];
        assert_eq!(stored(&prt, 8, 4).ops, expected);
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
        let sealed = torn.seal();
        let torn = sealed.slice(..sealed.len() - 2);
        prt.put_journal_many(&port, &[(7, 0, good.seal()), (7, 1, torn)])
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
        prt.put_journal_many(&port, &[(8, 0, peer.seal())]).unwrap();

        let ops = resolve_renames(&prt, &port, &txns).unwrap();
        // Committed prepares stay whole: txid 1 locally, 2 at the peer.
        assert_eq!(ops, [0, 2, 5].map(|i| txns[0].ops[i].clone()));
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
