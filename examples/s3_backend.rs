//! ArkFS on an S3-compatible backend — the PRT module's backend
//! portability (§III-F): the same file system runs against a store
//! without partial writes by falling back to read-modify-write, and a
//! raw key listing shows what actually hits the bucket.
//!
//! ```sh
//! cargo run --release --example s3_backend
//! ```

use arkfs::{ArkCluster, ArkConfig};
use arkfs_objstore::{ClusterConfig, ObjectCluster, ObjectStore};
use arkfs_simkit::{ClusterSpec, Port};
use arkfs_vfs::{read_file, write_file, Credentials, OpenFlags, Vfs};
use std::sync::Arc;

fn main() {
    let spec = ClusterSpec::aws_paper();
    let store = Arc::new(ObjectCluster::new(ClusterConfig::s3(spec)));
    let cluster = ArkCluster::new(
        ArkConfig::default(),
        Arc::clone(&store) as Arc<dyn ObjectStore>,
    );
    let client = cluster.client();
    let ctx = Credentials::root();

    client.mkdir(&ctx, "/bucket-data", 0o755).unwrap();
    write_file(&*client, &ctx, "/bucket-data/object.bin", &[0xAB; 4096]).unwrap();

    // Sub-chunk overwrite: S3 has no ranged PUT, so the PRT module
    // rewrites the affected chunk (read-modify-write) — but only that
    // chunk, not the whole file as S3FS would.
    let fh = client
        .open(&ctx, "/bucket-data/object.bin", OpenFlags::RDWR)
        .unwrap();
    client.write(&ctx, fh, 100, b"patched!").unwrap();
    client.fsync(&ctx, fh).unwrap();
    client.close(&ctx, fh).unwrap();
    let data = read_file(&*client, &ctx, "/bucket-data/object.bin").unwrap();
    assert_eq!(&data[100..108], b"patched!");
    println!(
        "sub-chunk overwrite on S3 backend OK ({} bytes)",
        data.len()
    );
    client.release_all(&ctx).unwrap();

    // Peek under the hood: list the raw objects the file system created
    // (i=inode, e=dentry, j=journal, d=data).
    let keys = store.list(&Port::new(), None, None).unwrap();
    let mut counts = std::collections::BTreeMap::new();
    for key in &keys {
        *counts.entry(key.kind.prefix()).or_insert(0usize) += 1;
    }
    println!(
        "raw bucket contents: {} objects by prefix {:?}",
        keys.len(),
        counts
    );
    for key in keys.iter().take(5) {
        println!("  {key}");
    }

    // Stats the S3 "bill" would show.
    println!(
        "S3 ops: {} PUT, {} GET, {} DELETE, {} LIST | {} B in / {} B out",
        store.stats.puts.get(),
        store.stats.gets.get(),
        store.stats.deletes.get(),
        store.stats.lists.get(),
        store.stats.bytes_in.get(),
        store.stats.bytes_out.get(),
    );
}
