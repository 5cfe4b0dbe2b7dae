//! MarFS: the *interactive interface* (FUSE mount) over two dedicated
//! GPFS metadata nodes and an object data tier (§IV-A), as an [`MdsFs`]
//! deployment ([`MdsFs::marfs`]) whose clients mount through FUSE.
//!
//! The paper could not use pftool and measured MarFS through its FUSE
//! interactive mount, which is slow for metadata (every request crosses
//! FUSE and the GPFS metadata nodes, no client caching) and **returns
//! errors on the mdtest-hard READ phase** — reproduced here verbatim.
//!
//! [`MdsFs`]: crate::mdsfs::MdsFs
//! [`MdsFs::marfs`]: crate::mdsfs::MdsFs::marfs

#[cfg(test)]
mod tests {
    use crate::mdsfs::{MdsClient, MdsFs};
    use crate::MountType;
    use arkfs_objstore::{ClusterConfig, KeyKind, ObjectCluster, ObjectKey, ObjectStore};
    use arkfs_simkit::{ClusterSpec, Port};
    use arkfs_vfs::{write_file, Credentials, FsError, OpenFlags, Vfs};
    use std::sync::Arc;

    fn client_on(store: Arc<ObjectCluster>) -> Arc<MdsClient> {
        MdsFs::marfs(store, ClusterSpec::test_tiny(), 64).client(MountType::Fuse)
    }

    fn client() -> Arc<MdsClient> {
        client_on(Arc::new(ObjectCluster::new(ClusterConfig::test_tiny())))
    }

    #[test]
    fn metadata_and_write_work() {
        let c = client();
        let ctx = Credentials::root();
        c.mkdir(&ctx, "/d", 0o755).unwrap();
        write_file(&*c, &ctx, "/d/f", b"marfs").unwrap();
        assert_eq!(c.stat(&ctx, "/d/f").unwrap().size, 5);
        assert_eq!(c.readdir(&ctx, "/d").unwrap().len(), 1);
        c.unlink(&ctx, "/d/f").unwrap();
        assert!(c.port().now() > 0);
    }

    #[test]
    fn reads_return_errors_like_the_paper_observed() {
        let c = client();
        let ctx = Credentials::root();
        write_file(&*c, &ctx, "/f", b"data").unwrap();
        let fh = c.open(&ctx, "/f", OpenFlags::RDONLY).unwrap();
        let mut buf = [0u8; 4];
        assert!(matches!(
            c.read(&ctx, fh, 0, &mut buf),
            Err(FsError::Unsupported("marfs interactive read"))
        ));
    }

    #[test]
    fn open_with_trunc_drops_the_old_size_and_chunks() {
        let store = Arc::new(ObjectCluster::new(ClusterConfig::test_tiny()));
        let c = client_on(Arc::clone(&store));
        let ctx = Credentials::root();
        write_file(&*c, &ctx, "/f", &[7u8; 100]).unwrap();
        let ino = c.stat(&ctx, "/f").unwrap().ino;
        let chunks = || {
            let port = Port::new();
            store.list(&port, Some(KeyKind::Data), Some(ino)).unwrap()
        };
        assert_eq!(chunks().len(), 2);
        let fh = c.open(&ctx, "/f", OpenFlags::WRONLY.truncate()).unwrap();
        c.write(&ctx, fh, 0, &[1u8; 10]).unwrap();
        c.close(&ctx, fh).unwrap();
        assert_eq!(c.stat(&ctx, "/f").unwrap().size, 10);
        assert_eq!(chunks(), vec![ObjectKey::data_chunk(ino, 0)]);
        let got = store.get(&Port::new(), ObjectKey::data_chunk(ino, 0));
        assert_eq!(&got.unwrap()[..], &[1u8; 10]);
    }
}
