//! Allocation budget of the data path, counted rather than timed: the
//! bytes the process allocates while 8 clients each write and fsync an
//! 8 MiB file through a 2-entry cache (so half of each file's chunks go
//! behind the writer), while they read it back with cold caches, and
//! while they read it at random, against the bytes the user moved.
//!
//! One buffer serves a chunk from `write()` to both replicas to the
//! clean cache entry, and from the store through the cache to `read()`,
//! so writing costs 1.00x the user bytes (the dirty chunks, grown once)
//! and reading 0.00x; a random read's range is a window of the store's
//! buffer copied straight into the caller's, 0.00x as well. Before the data path shared its buffers the same
//! run measured 5.00x (growth, the flush's clone, the PUT's `to_vec`,
//! one clone per replica) and 2.00x (the GET's clone and the fill's
//! `to_vec`). The counting allocator is `common`'s.

mod common;

use arkfs::{ArkCluster, ArkConfig};
use arkfs_objstore::{ClusterConfig, ObjectCluster};
use arkfs_simkit::ClusterSpec;
use arkfs_vfs::{Credentials, OpenFlags, Vfs};
use std::sync::Arc;

const CLIENTS: usize = 8;
const FILE: usize = 8 << 20;
const REQUEST: usize = 128 << 10;

#[test]
fn the_data_path_allocates_one_buffer_per_chunk() {
    let store = ObjectCluster::new(ClusterConfig::rados(ClusterSpec::aws_paper()));
    let config = ArkConfig {
        cache_entries: 2,
        ..ArkConfig::default()
    };
    let cluster = ArkCluster::new(config, Arc::new(store));
    let fleet: Vec<_> = (0..CLIENTS).map(|_| cluster.client()).collect();
    let ctx = Credentials::root();
    let user_bytes = (CLIENTS * FILE) as f64;
    let fill = |i: usize, block: usize| (i * 31 + block) as u8;
    // The I/O buffers exist before the measured phases.
    let mut buf = vec![0u8; REQUEST];
    let measured = |phase: &mut dyn FnMut()| {
        let before = common::allocated();
        phase();
        (common::allocated() - before) as f64 / user_bytes
    };

    let written = measured(&mut || {
        for (i, fs) in fleet.iter().enumerate() {
            let fh = fs.create(&ctx, &format!("/f{i}"), 0o644).unwrap();
            for block in 0..FILE / REQUEST {
                buf.fill(fill(i, block));
                let n = fs.write(&ctx, fh, (block * REQUEST) as u64, &buf);
                assert_eq!(n, Ok(REQUEST));
            }
            fs.fsync(&ctx, fh).unwrap();
            fs.close(&ctx, fh).unwrap();
        }
    });
    for fs in &fleet {
        fs.drop_data_cache().unwrap();
    }
    let read = measured(&mut || {
        for (i, fs) in fleet.iter().enumerate() {
            let fh = fs.open(&ctx, &format!("/f{i}"), OpenFlags::RDONLY).unwrap();
            for block in 0..FILE / REQUEST {
                let n = fs.read(&ctx, fh, (block * REQUEST) as u64, &mut buf);
                assert_eq!(n, Ok(REQUEST));
                assert!(
                    buf.iter().all(|&b| b == fill(i, block)),
                    "file {i} block {block}"
                );
            }
            fs.close(&ctx, fh).unwrap();
        }
    });
    for fs in &fleet {
        fs.drop_data_cache().unwrap();
    }
    // Every block but the first, none where the previous one ended: each
    // read fetches its range past the cache, into `buf`.
    let blocks = FILE / REQUEST;
    let ranged = measured(&mut || {
        for (i, fs) in fleet.iter().enumerate() {
            let fh = fs.open(&ctx, &format!("/f{i}"), OpenFlags::RDONLY).unwrap();
            for k in 0..blocks - 1 {
                let block = 1 + k * 37 % (blocks - 1);
                let n = fs.read(&ctx, fh, (block * REQUEST) as u64, &mut buf);
                assert_eq!(n, Ok(REQUEST));
                assert!(
                    buf.iter().all(|&b| b == fill(i, block)),
                    "file {i} block {block}"
                );
            }
            fs.close(&ctx, fh).unwrap();
        }
    });
    eprintln!(
        "allocated per user byte: write + fsync {written:.3}, cold read {read:.3}, \
         random read {ranged:.3}"
    );
    assert!(
        written <= 1.5,
        "write + fsync allocated {written:.2}x the user bytes"
    );
    assert!(
        read <= 0.25,
        "cold sequential read allocated {read:.2}x the user bytes"
    );
    assert!(
        ranged <= 0.25,
        "random reads allocated {ranged:.2}x the user bytes"
    );
}
