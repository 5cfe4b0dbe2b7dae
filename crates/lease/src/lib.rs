//! Lease management (§III-B, §III-D, §III-E of the paper).
//!
//! Two kinds of leases exist in ArkFS:
//!
//! * **Directory leases**, issued by the cluster-wide [`LeaseManager`]:
//!   whoever holds the lease of a directory is its *directory leader*,
//!   builds the per-directory metatable, owns the per-directory journal,
//!   and serves all metadata operations for it. First-come first-served,
//!   5 s period by default, extension supported, with the recovery
//!   hold-off rules of §III-E.
//! * **File read/write leases**, issued *by directory leaders* for the
//!   child files of their directory ([`FileLeaseTable`]): shared read
//!   leases let any client cache data objects; a write lease requires
//!   exclusivity, otherwise the leader broadcasts cache flushes and the
//!   file degrades to direct object-store I/O.

pub mod dir;
pub mod file;

pub use dir::{LeaseConfig, LeaseManager, LeaseRequest, LeaseResponse, LeaseView};
pub use file::{FileLeaseDecision, FileLeaseTable};

/// Inode number (mirrors `arkfs_vfs::Ino` without the dependency).
pub type Ino = u128;
