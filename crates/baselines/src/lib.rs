//! Behavioural simulators of the file systems the paper compares against
//! (§IV-A): CephFS with FUSE or kernel mounts and 1..N metadata servers,
//! MarFS's interactive FUSE interface over two GPFS metadata nodes, and
//! the S3-backed S3FS and goofys.
//!
//! Each baseline runs over the same [`arkfs_objstore::ObjectCluster`] as
//! ArkFS, with the architecture-level behaviour the paper attributes its
//! numbers to. There are two front ends, one per namespace model, and
//! each system is a named constructor of one of them:
//!
//! * [`MdsFs`] / [`MdsClient`] — the namespace on dedicated metadata
//!   servers ([`ns::Namespace`] + [`MdsCluster`]): every metadata
//!   operation crosses the network to an MDS whose service degrades
//!   under concurrency (Fig. 1).
//!   * **CephFS** ([`MdsFs::new`], [`cephfs`]) — multiple MDSs partition
//!     the namespace dynamically, adding forwarded requests and migration
//!     overhead (§IV-B); the FUSE mount adds user↔kernel costs and a
//!     serialized LOOKUP lock; data I/O goes straight to the object store
//!     through a page-cache-like write-back cache with 8 MB (kernel) or
//!     128 KB (FUSE) read-ahead.
//!   * **MarFS** ([`MdsFs::marfs`], [`marfs`]) — interactive FUSE
//!     interface, two dedicated metadata nodes, no metadata caching;
//!     small-file READ returns errors, exactly as observed in §IV-B.
//! * [`BucketFs`] — a flat path-keyed bucket ([`pathfs::Bucket`]).
//!   * **S3FS** ([`BucketFs::s3fs`], [`s3fs`]) — object key is the full
//!     path (renames rewrite objects), a slow local *disk cache* stages
//!     all data (§IV-B: "this slow disk cache causes a substantial
//!     performance gap"), permission checks are not enforced.
//!   * **goofys** ([`BucketFs::goofys`], [`goofys`]) — sequential-read
//!     optimized with a 400 MB read-ahead window, streaming writes, weak
//!     POSIX.

pub mod bucketfs;
pub mod cephfs;
pub mod datapath;
pub mod goofys;
pub mod marfs;
pub mod mds;
pub mod mdsfs;
pub mod ns;
pub mod pathfs;
pub mod s3fs;

pub use bucketfs::BucketFs;
pub use cephfs::{CephFs, MountType};
pub use mds::MdsCluster;
pub use mdsfs::{MdsClient, MdsFs};
