//! CephFS: a centralized MDS cluster plus a direct OSD data path, as
//! an [`MdsFs`] deployment ([`MdsFs::new`]) with 1..N metadata servers.
//!
//! Two mount types, as benchmarked in §IV: `CephFS-K` (kernel client:
//! metadata ops hit the MDS over the network, lookups served by kernel
//! caps/dcache) and `CephFS-F` (FUSE client: extra user↔kernel round
//! trips per request, the serialized FUSE LOOKUP lock, and a 128 KB
//! default max read-ahead instead of 8 MB).

use crate::mdsfs::MdsFs;

/// A CephFS deployment.
pub type CephFs = MdsFs;

/// How the client is mounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MountType {
    /// In-kernel client: no FUSE overhead, 8 MB max read-ahead.
    Kernel,
    /// FUSE client: per-request user↔kernel cost, serialized LOOKUP
    /// lock, 128 KB max read-ahead.
    Fuse,
}

#[cfg(test)]
mod tests {
    use super::*;
    use arkfs_objstore::{ClusterConfig, ObjectCluster};
    use arkfs_simkit::ClusterSpec;
    use arkfs_vfs::{read_file, write_file, Credentials, OpenFlags, Vfs};
    use std::sync::Arc;

    fn deployment(mds: usize) -> Arc<CephFs> {
        let store = Arc::new(ObjectCluster::new(ClusterConfig::test_tiny()));
        CephFs::new(store, mds, ClusterSpec::test_tiny(), 64)
    }

    #[test]
    fn full_posix_roundtrip_kernel_mount() {
        let fs = deployment(1);
        let c = fs.client(MountType::Kernel);
        let ctx = Credentials::root();
        c.mkdir(&ctx, "/d", 0o755).unwrap();
        write_file(&*c, &ctx, "/d/f", b"ceph data").unwrap();
        assert_eq!(read_file(&*c, &ctx, "/d/f").unwrap(), b"ceph data");
        assert_eq!(c.stat(&ctx, "/d/f").unwrap().size, 9);
        c.rename(&ctx, "/d/f", "/d/g").unwrap();
        assert_eq!(c.readdir(&ctx, "/d").unwrap()[0].name, "g");
        c.unlink(&ctx, "/d/g").unwrap();
        c.rmdir(&ctx, "/d").unwrap();
        assert!(c.port().now() > 0);
    }

    #[test]
    fn fuse_mount_is_slower_than_kernel() {
        let ctx = Credentials::root();
        let run = |mount| {
            let fs = deployment(1);
            let c = fs.client(mount);
            c.mkdir(&ctx, "/d", 0o755).unwrap();
            for i in 0..50 {
                write_file(&*c, &ctx, &format!("/d/f{i}"), b"").unwrap();
            }
            c.port().now()
        };
        let kernel = run(MountType::Kernel);
        let fuse = run(MountType::Fuse);
        assert!(fuse > kernel, "FUSE {fuse} must exceed kernel {kernel}");
    }

    #[test]
    fn multiple_clients_share_namespace() {
        let fs = deployment(1);
        let c1 = fs.client(MountType::Kernel);
        let c2 = fs.client(MountType::Kernel);
        let ctx = Credentials::root();
        c1.mkdir(&ctx, "/shared", 0o755).unwrap();
        write_file(&*c1, &ctx, "/shared/x", b"hello").unwrap();
        assert_eq!(read_file(&*c2, &ctx, "/shared/x").unwrap(), b"hello");
    }

    #[test]
    fn truncate_and_open_trunc() {
        let fs = deployment(1);
        let c = fs.client(MountType::Kernel);
        let ctx = Credentials::root();
        write_file(&*c, &ctx, "/t", &[5u8; 100]).unwrap();
        let fh = c.open(&ctx, "/t", OpenFlags::WRONLY.truncate()).unwrap();
        c.close(&ctx, fh).unwrap();
        assert_eq!(c.stat(&ctx, "/t").unwrap().size, 0);
    }

    #[test]
    fn mds_ops_are_counted() {
        let fs = deployment(1);
        let c = fs.client(MountType::Kernel);
        let ctx = Credentials::root();
        c.mkdir(&ctx, "/d", 0o755).unwrap();
        let before = fs.mds().ops_served();
        c.stat(&ctx, "/d").unwrap();
        assert_eq!(fs.mds().ops_served(), before + 1);
    }

    #[test]
    fn symlink_follow_on_open() {
        let fs = deployment(1);
        let c = fs.client(MountType::Kernel);
        let ctx = Credentials::root();
        write_file(&*c, &ctx, "/real", b"data").unwrap();
        c.symlink(&ctx, "/ln", "/real").unwrap();
        assert_eq!(read_file(&*c, &ctx, "/ln").unwrap(), b"data");
        assert_eq!(c.readlink(&ctx, "/ln").unwrap(), "/real");
    }
}
