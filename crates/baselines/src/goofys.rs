//! goofys: S3-backed, "extremely optimized for sequential reads; the
//! max read-ahead size is set to 400 MB" (§IV-B), streaming multipart
//! writes, weak POSIX (non-sequential writes rejected, as in real
//! goofys), as a [`BucketFs`] client ([`BucketFs::goofys`]).
//!
//! [`BucketFs`]: crate::bucketfs::BucketFs
//! [`BucketFs::goofys`]: crate::bucketfs::BucketFs::goofys

/// goofys' famous read-ahead window.
pub const GOOFYS_READAHEAD: u64 = 400 * 1024 * 1024;

#[cfg(test)]
mod tests {
    use crate::bucketfs::BucketFs;
    use crate::pathfs::Bucket;
    use arkfs_objstore::{ClusterConfig, KeyKind, ObjectCluster, StoreProfile};
    use arkfs_simkit::{ClusterSpec, Port};
    use arkfs_vfs::{read_file, write_file, Credentials, FsError, Vfs};
    use std::sync::Arc;

    fn bucket() -> Arc<Bucket> {
        let mut cfg = ClusterConfig::test_tiny();
        cfg.profile = StoreProfile::s3(&cfg.spec);
        Bucket::new(Arc::new(ObjectCluster::new(cfg)), 64)
    }

    fn client_on(bucket: &Arc<Bucket>) -> Arc<BucketFs> {
        BucketFs::goofys(Arc::clone(bucket), ClusterSpec::test_tiny(), 256)
    }

    fn client() -> Arc<BucketFs> {
        client_on(&bucket())
    }

    #[test]
    fn sequential_write_then_read() {
        let c = client();
        let ctx = Credentials::root();
        c.mkdir(&ctx, "/d", 0o755).unwrap();
        let payload: Vec<u8> = (0..500u32).map(|i| i as u8).collect();
        write_file(&*c, &ctx, "/d/f", &payload).unwrap();
        assert_eq!(read_file(&*c, &ctx, "/d/f").unwrap(), payload);
    }

    #[test]
    fn non_sequential_writes_rejected() {
        let c = client();
        let ctx = Credentials::root();
        let fh = c.create(&ctx, "/f", 0o644).unwrap();
        c.write(&ctx, fh, 0, b"abc").unwrap();
        assert!(matches!(
            c.write(&ctx, fh, 100, b"x"),
            Err(FsError::Unsupported("goofys non-sequential write"))
        ));
        c.close(&ctx, fh).unwrap();
    }

    #[test]
    fn parts_stream_during_write() {
        let bucket = bucket();
        let c = client_on(&bucket);
        let ctx = Credentials::root();
        let fh = c.create(&ctx, "/big", 0o644).unwrap();
        // 200 bytes with 64-byte parts: 3 parts stream before close.
        c.write(&ctx, fh, 0, &[1u8; 200]).unwrap();
        let (store, port) = (bucket.store(), Port::new());
        let ino = bucket.lookup("/big").unwrap().ino;
        let parts = store.list(&port, Some(KeyKind::Data), Some(ino)).unwrap();
        let uploaded: u64 = parts.iter().map(|&k| store.head(&port, k).unwrap()).sum();
        assert_eq!(uploaded, 192, "three full parts uploaded eagerly");
        c.close(&ctx, fh).unwrap();
        assert_eq!(c.stat(&ctx, "/big").unwrap().size, 200);
    }

    #[test]
    fn weak_posix_surface() {
        let c = client();
        let ctx = Credentials::root();
        assert!(matches!(
            c.truncate(&ctx, "/x", 0),
            Err(FsError::Unsupported(_))
        ));
        assert!(matches!(
            c.symlink(&ctx, "/a", "/b"),
            Err(FsError::Unsupported(_))
        ));
    }
}
