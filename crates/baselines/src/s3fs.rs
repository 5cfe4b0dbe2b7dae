//! S3FS: "just a FUSE-based wrapper layer over the Amazon S3 cloud
//! storage" (§II-C), as a [`BucketFs`] client ([`BucketFs::s3fs`]).
//!
//! The properties that shape its numbers in Figure 6(b):
//! * a slow local **disk cache** stages every byte twice — on write, data
//!   lands on disk and is uploaded at fsync; on read, the whole object is
//!   downloaded to disk before a single byte is served;
//! * whole-object semantics — partial writes rewrite the object,
//!   renames copy it ([`Bucket::rename`]);
//! * permission checks "not done rigorously" — none are enforced.
//!
//! [`BucketFs`]: crate::bucketfs::BucketFs
//! [`BucketFs::s3fs`]: crate::bucketfs::BucketFs::s3fs
//! [`Bucket::rename`]: crate::pathfs::Bucket::rename

/// Bandwidth of an S3FS client's local disk cache. The paper's client
/// nodes stage through node-local EBS shared by all benchmark processes,
/// so the per-process share is well below a dedicated volume.
pub const S3FS_DISK_BW: u64 = 120_000_000;

#[cfg(test)]
mod tests {
    use crate::bucketfs::BucketFs;
    use crate::pathfs::Bucket;
    use arkfs_objstore::{ClusterConfig, ObjectCluster, StoreProfile};
    use arkfs_simkit::ClusterSpec;
    use arkfs_vfs::{read_file, write_file, Credentials, OpenFlags, Vfs};
    use std::sync::Arc;

    fn client() -> Arc<BucketFs> {
        let mut cfg = ClusterConfig::test_tiny();
        cfg.profile = StoreProfile::s3(&cfg.spec);
        let store = Arc::new(ObjectCluster::new(cfg));
        let bucket = Bucket::new(store, 64);
        BucketFs::s3fs(bucket, ClusterSpec::test_tiny())
    }

    #[test]
    fn write_read_roundtrip_through_disk_cache() {
        let c = client();
        let ctx = Credentials::root();
        c.mkdir(&ctx, "/d", 0o755).unwrap();
        let payload: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        write_file(&*c, &ctx, "/d/f", &payload).unwrap();
        assert_eq!(read_file(&*c, &ctx, "/d/f").unwrap(), payload);
        assert!(c.port().now() > 0);
    }

    #[test]
    fn random_write_rewrites_whole_object() {
        let c = client();
        let ctx = Credentials::root();
        write_file(&*c, &ctx, "/f", &[1u8; 200]).unwrap();
        let fh = c.open(&ctx, "/f", OpenFlags::RDWR).unwrap();
        c.write(&ctx, fh, 50, &[9u8; 10]).unwrap();
        c.close(&ctx, fh).unwrap();
        let data = read_file(&*c, &ctx, "/f").unwrap();
        assert_eq!(data.len(), 200);
        assert!(data[50..60].iter().all(|&b| b == 9));
        assert!(data[..50].iter().all(|&b| b == 1));
    }

    #[test]
    fn permissive_access() {
        let c = client();
        let nobody = Credentials::user(999);
        write_file(&*c, &nobody, "/f", b"x").unwrap();
        c.access(&nobody, "/f", 0o7).unwrap();
        assert_eq!(c.stat(&nobody, "/f").unwrap().mode, 0o777);
    }

    #[test]
    fn truncate_whole_object() {
        let c = client();
        let ctx = Credentials::root();
        write_file(&*c, &ctx, "/t", &[7u8; 150]).unwrap();
        c.truncate(&ctx, "/t", 70).unwrap();
        let data = read_file(&*c, &ctx, "/t").unwrap();
        assert_eq!(data.len(), 70);
        assert!(data.iter().all(|&b| b == 7));
    }
}
