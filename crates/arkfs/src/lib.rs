//! # ArkFS
//!
//! A near-POSIX, scalable distributed file system on object storage with
//! **client-driven metadata service** — a reproduction of Cho, Kang & Kim,
//! *"ArkFS: A Distributed File System on Object Storage for Archiving
//! Data in HPC Environment"* (IPDPS 2023).
//!
//! Instead of metadata servers, each ArkFS client acquires per-directory
//! leases from a lightweight [lease manager](arkfs_lease::LeaseManager)
//! and becomes the *directory leader*: it loads the directory's metadata
//! into a local [metatable](metatable::Metatable), serves all operations
//! for it in memory, journals mutations to a per-directory
//! [journal](journal::DirJournal) in the object store, and checkpoints
//! them back to the home inode/dentry objects. Other clients are
//! redirected to the leader and forward their operations over RPC.
//!
//! The [PRT module](prt::Prt) translates all of this to GET/PUT/DELETE
//! operations on any [`arkfs_objstore::ObjectStore`] backend, and the
//! [data object cache](cache::DataCache) provides write-back caching with
//! CephFS-style read-ahead.
//!
//! ```
//! use arkfs::{ArkCluster, ArkConfig};
//! use arkfs_objstore::{ClusterConfig, ObjectCluster};
//! use arkfs_vfs::{Credentials, Vfs};
//! use std::sync::Arc;
//!
//! let store = Arc::new(ObjectCluster::new(ClusterConfig::test_tiny()));
//! let cluster = ArkCluster::new(ArkConfig::test_tiny(), store);
//! let client = cluster.client();
//! let root = Credentials::root();
//! client.mkdir(&root, "/data", 0o755).unwrap();
//! arkfs_vfs::write_file(&*client, &root, "/data/hello.txt", b"hi").unwrap();
//! assert_eq!(arkfs_vfs::read_file(&*client, &root, "/data/hello.txt").unwrap(), b"hi");
//! ```

pub mod cache;
pub mod client;
pub mod cluster;
pub mod config;
pub mod journal;
pub mod meta;
pub mod metatable;
pub mod partition;
pub mod prt;
pub mod radix;
pub mod remote;
pub mod rpc;
pub mod wire;

pub use client::ArkClient;
pub use cluster::ArkCluster;
pub use config::ArkConfig;
