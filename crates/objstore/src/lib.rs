//! Distributed object storage substrate.
//!
//! ArkFS runs on top of "any distributed object storage system such as
//! Ceph RADOS or an S3-compatible system" (§I). This crate provides that
//! substrate: a sharded, replicated, in-memory object cluster behind a
//! REST-shaped [`ObjectStore`] trait, with two semantic *profiles*:
//!
//! * [`StoreProfile::rados`] — low per-op service time, supports partial
//!   (ranged) writes and appends, like Ceph RADOS.
//! * [`StoreProfile::s3`] — HTTP-scale per-op service time, whole-object
//!   PUT only (a ranged write returns `Unsupported` and the caller must
//!   read-modify-write), like Amazon S3. Ranged GET is allowed, as on S3.
//!
//! Virtual-time costs (network, op service, disk bandwidth) are charged to
//! the caller's [`arkfs_simkit::Port`]; functional behaviour is real.

pub mod cluster;
pub mod error;
pub mod fault;
pub mod key;
pub mod profile;
pub mod store;

pub use cluster::{zeros, ClusterConfig, ObjectCluster};
pub use error::{OsError, OsResult};
pub use fault::FaultPlan;
pub use key::{KeyKind, ObjectKey};
pub use profile::StoreProfile;
pub use store::ObjectStore;
