//! Per-file read/write leases (§III-D).
//!
//! "Initially, all the clients are issued read leases for the target file
//! [...] When WRITE is called for the first time, the read lease may be
//! upgraded to the write lease if there are no other clients who have
//! read/write leases at that time [...] If there are other clients who
//! have read leases, the leader broadcasts cache flushing requests [...]
//! and lets the clients perform I/O operations directly on object
//! storage."
//!
//! The table is owned by the leader of the parent directory; one instance
//! per metatable.

use crate::Ino;
use arkfs_netsim::NodeId;
use arkfs_simkit::hash::HashMap;
use arkfs_simkit::Nanos;

/// Outcome of a lease request at the directory leader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileLeaseDecision {
    /// Lease granted; the client may cache data objects until then.
    Granted { expires_at: Nanos },
    /// Conflict: the leader must broadcast cache-flush requests to
    /// `flush` and the file operates in direct (uncached) mode until
    /// outstanding leases drain at `direct_until`.
    Direct {
        flush: Vec<NodeId>,
        direct_until: Nanos,
    },
}

#[derive(Debug)]
enum FileState {
    /// Shared readers with individual expiries.
    Readers(HashMap<NodeId, Nanos>),
    /// One exclusive writer.
    Writer { holder: NodeId, expires_at: Nanos },
    /// Conflicted: everyone does direct object-store I/O until the time
    /// at which all previously issued leases have expired.
    Direct { until: Nanos },
}

/// Read/write lease state for the child files of one directory.
#[derive(Debug, Default)]
pub struct FileLeaseTable {
    files: HashMap<Ino, FileState>,
    /// Who last handed a write lease back, and when, for files nobody
    /// has asked for since ([`FileLeaseTable::handed_back`]).
    returned: HashMap<Ino, (NodeId, Nanos)>,
    period: Nanos,
}

impl FileLeaseTable {
    pub fn new(period: Nanos) -> Self {
        FileLeaseTable {
            files: HashMap::default(),
            returned: HashMap::default(),
            period,
        }
    }

    /// When the write lease on `ino` came back, if another client than
    /// `client` held it last (else 0), and forget it: `client`'s request
    /// is decided no earlier. The leader serves a hand-back when it is
    /// sent, possibly before a request that arrives earlier in virtual
    /// time; a writer sends it only after its bytes are acked, and the
    /// next grant must not overtake it.
    pub fn handed_back(&mut self, client: NodeId, ino: Ino) -> Nanos {
        match self.returned.remove(&ino) {
            Some((by, at)) if by != client => at,
            _ => 0,
        }
    }

    /// Drop the hand-back of `ino` (its dentry is gone: nobody asks).
    pub fn forget(&mut self, ino: Ino) {
        self.returned.remove(&ino);
    }

    /// Drop expired state; called lazily from the accessors.
    fn normalize(&mut self, ino: Ino, now: Nanos) {
        if let Some(state) = self.files.get_mut(&ino) {
            let empty = match state {
                FileState::Readers(readers) => {
                    readers.retain(|_, exp| *exp > now);
                    readers.is_empty()
                }
                FileState::Writer { expires_at, .. } => *expires_at <= now,
                FileState::Direct { until } => *until <= now,
            };
            if empty {
                self.files.remove(&ino);
            }
        }
    }

    /// OPEN/CREATE path: grant a shared read lease.
    pub fn acquire_read(&mut self, client: NodeId, ino: Ino, now: Nanos) -> FileLeaseDecision {
        self.normalize(ino, now);
        let expires_at = now + self.period;
        match self.files.get_mut(&ino) {
            None => {
                let mut readers = HashMap::default();
                readers.insert(client, expires_at);
                self.files.insert(ino, FileState::Readers(readers));
                FileLeaseDecision::Granted { expires_at }
            }
            Some(FileState::Readers(readers)) => {
                readers.insert(client, expires_at);
                FileLeaseDecision::Granted { expires_at }
            }
            Some(FileState::Writer {
                holder,
                expires_at: w_exp,
            }) => {
                if *holder == client {
                    // A writer may keep reading through its own cache.
                    *w_exp = expires_at;
                    FileLeaseDecision::Granted { expires_at }
                } else {
                    // Reader vs foreign writer: flush the writer and go
                    // direct until its lease has certainly drained.
                    let until = (*w_exp).max(expires_at);
                    let flush = vec![*holder];
                    self.files.insert(ino, FileState::Direct { until });
                    FileLeaseDecision::Direct {
                        flush,
                        direct_until: until,
                    }
                }
            }
            Some(FileState::Direct { until }) => FileLeaseDecision::Direct {
                flush: Vec::new(),
                direct_until: *until,
            },
        }
    }

    /// First WRITE on a handle: try to upgrade to an exclusive write
    /// lease.
    pub fn acquire_write(&mut self, client: NodeId, ino: Ino, now: Nanos) -> FileLeaseDecision {
        self.normalize(ino, now);
        let expires_at = now + self.period;
        match self.files.get_mut(&ino) {
            None => {
                self.files.insert(
                    ino,
                    FileState::Writer {
                        holder: client,
                        expires_at,
                    },
                );
                FileLeaseDecision::Granted { expires_at }
            }
            Some(FileState::Readers(readers)) => {
                let only_self = readers.len() == 1 && readers.contains_key(&client);
                if readers.is_empty() || only_self {
                    self.files.insert(
                        ino,
                        FileState::Writer {
                            holder: client,
                            expires_at,
                        },
                    );
                    FileLeaseDecision::Granted { expires_at }
                } else {
                    let mut flush: Vec<NodeId> =
                        readers.keys().copied().filter(|c| *c != client).collect();
                    flush.sort();
                    let until = readers
                        .values()
                        .copied()
                        .max()
                        .unwrap_or(now)
                        .max(expires_at);
                    self.files.insert(ino, FileState::Direct { until });
                    FileLeaseDecision::Direct {
                        flush,
                        direct_until: until,
                    }
                }
            }
            Some(FileState::Writer {
                holder,
                expires_at: w_exp,
            }) => {
                if *holder == client {
                    *w_exp = expires_at;
                    FileLeaseDecision::Granted { expires_at }
                } else {
                    let until = (*w_exp).max(expires_at);
                    let flush = vec![*holder];
                    self.files.insert(ino, FileState::Direct { until });
                    FileLeaseDecision::Direct {
                        flush,
                        direct_until: until,
                    }
                }
            }
            Some(FileState::Direct { until }) => FileLeaseDecision::Direct {
                flush: Vec::new(),
                direct_until: *until,
            },
        }
    }

    /// Voluntary release (file closed and flushed).
    pub fn release(&mut self, client: NodeId, ino: Ino, now: Nanos) {
        self.normalize(ino, now);
        match self.files.get_mut(&ino) {
            Some(FileState::Readers(readers)) => {
                readers.remove(&client);
                if readers.is_empty() {
                    self.files.remove(&ino);
                }
            }
            Some(FileState::Writer { holder, .. }) if *holder == client => {
                self.files.remove(&ino);
                self.returned.insert(ino, (client, now));
            }
            _ => {}
        }
    }

    /// Number of files with active lease state (after expiry sweep at
    /// `now`).
    pub fn active_files(&mut self, now: Nanos) -> usize {
        let inos: Vec<Ino> = self.files.keys().copied().collect();
        for ino in inos {
            self.normalize(ino, now);
        }
        self.files.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: Ino = 7;
    const C1: NodeId = NodeId(1);
    const C2: NodeId = NodeId(2);
    const C3: NodeId = NodeId(3);

    fn table() -> FileLeaseTable {
        FileLeaseTable::new(100)
    }

    #[test]
    fn shared_reads() {
        let mut t = table();
        assert_eq!(
            t.acquire_read(C1, F, 0),
            FileLeaseDecision::Granted { expires_at: 100 }
        );
        assert_eq!(
            t.acquire_read(C2, F, 10),
            FileLeaseDecision::Granted { expires_at: 110 }
        );
        assert_eq!(t.active_files(50), 1);
    }

    #[test]
    fn sole_reader_upgrades_to_writer() {
        let mut t = table();
        t.acquire_read(C1, F, 0);
        assert_eq!(
            t.acquire_write(C1, F, 10),
            FileLeaseDecision::Granted { expires_at: 110 }
        );
        // And the writer can renew.
        assert_eq!(
            t.acquire_write(C1, F, 20),
            FileLeaseDecision::Granted { expires_at: 120 }
        );
    }

    #[test]
    fn write_with_foreign_readers_goes_direct_with_flush() {
        let mut t = table();
        t.acquire_read(C1, F, 0);
        t.acquire_read(C2, F, 0);
        t.acquire_read(C3, F, 0);
        let d = t.acquire_write(C1, F, 10);
        match d {
            FileLeaseDecision::Direct {
                flush,
                direct_until,
            } => {
                assert_eq!(flush, vec![C2, C3]);
                assert!(direct_until >= 110);
            }
            other => panic!("expected Direct, got {other:?}"),
        }
        // Subsequent accesses stay direct (no more flushes needed).
        assert!(matches!(
            t.acquire_write(C2, F, 20),
            FileLeaseDecision::Direct { flush, .. } if flush.is_empty()
        ));
    }

    #[test]
    fn reader_vs_foreign_writer_flushes_writer() {
        let mut t = table();
        t.acquire_write(C1, F, 0);
        let d = t.acquire_read(C2, F, 10);
        match d {
            FileLeaseDecision::Direct { flush, .. } => assert_eq!(flush, vec![C1]),
            other => panic!("expected Direct, got {other:?}"),
        }
    }

    #[test]
    fn writer_keeps_reading_its_own_cache() {
        let mut t = table();
        t.acquire_write(C1, F, 0);
        assert!(matches!(
            t.acquire_read(C1, F, 10),
            FileLeaseDecision::Granted { .. }
        ));
    }

    #[test]
    fn leases_expire() {
        let mut t = table();
        t.acquire_read(C2, F, 0); // expires at 100
                                  // C1 writes at t=150: reader expired, exclusive grant.
        assert!(matches!(
            t.acquire_write(C1, F, 150),
            FileLeaseDecision::Granted { .. }
        ));
    }

    #[test]
    fn direct_mode_drains_back_to_cached() {
        let mut t = table();
        t.acquire_read(C1, F, 0);
        t.acquire_read(C2, F, 0);
        let FileLeaseDecision::Direct { direct_until, .. } = t.acquire_write(C1, F, 10) else {
            panic!("expected Direct");
        };
        // After the drain time, caching resumes.
        assert!(matches!(
            t.acquire_write(C1, F, direct_until + 1),
            FileLeaseDecision::Granted { .. }
        ));
    }

    #[test]
    fn a_write_lease_handed_back_is_not_granted_before_it_came_back() {
        let mut t = table();
        t.acquire_write(C1, F, 0);
        t.release(C1, F, 50);
        // The writer's own next request is not held back.
        assert_eq!(t.handed_back(C1, F), 0);
        t.acquire_write(C1, F, 60);
        t.release(C1, F, 90);
        // Another client's is decided at the hand-back, once.
        assert_eq!(t.handed_back(C2, F), 90);
        assert_eq!(t.handed_back(C2, F), 0);
        // A reader's hand-back orders nothing, and an unlink forgets.
        t.acquire_read(C1, F, 100);
        t.release(C1, F, 110);
        assert_eq!(t.handed_back(C2, F), 0);
        t.acquire_write(C1, F, 120);
        t.release(C1, F, 130);
        t.forget(F);
        assert_eq!(t.handed_back(C2, F), 0);
    }

    #[test]
    fn release_frees_state() {
        let mut t = table();
        t.acquire_read(C1, F, 0);
        t.acquire_read(C2, F, 0);
        t.release(C1, F, 10);
        t.release(C2, F, 10);
        assert_eq!(t.active_files(10), 0);
        // Writer release too.
        t.acquire_write(C1, F, 20);
        t.release(C1, F, 30);
        assert_eq!(t.active_files(30), 0);
        // After both readers released, a write is exclusive again.
        t.acquire_read(C1, F, 40);
        t.release(C1, F, 50);
        assert!(matches!(
            t.acquire_write(C2, F, 60),
            FileLeaseDecision::Granted { .. }
        ));
    }

    #[test]
    fn tables_are_per_file() {
        let mut t = table();
        t.acquire_write(C1, 1, 0);
        assert!(matches!(
            t.acquire_write(C2, 2, 0),
            FileLeaseDecision::Granted { .. }
        ));
        assert_eq!(t.active_files(0), 2);
    }
}
