//! Threaded stress tests: real OS threads hammering one [`ArkClient`].
//!
//! The client's tables (dir leadership, pcache, handles) have one lock
//! each, under the ordering rule **dir → metatable → cache** (see
//! `client/lockorder.rs`, which enforces it with debug assertions —
//! these tests run it in anger across 8 threads). Each thread works a
//! disjoint directory plus one directory shared by all threads; the
//! asserts check that the namespace, handle table, and leadership
//! bookkeeping stay consistent under interleaving, and that threads
//! racing to first-touch one directory take its lease once.

mod common;

use arkfs_vfs::{read_file, write_file, Credentials, Vfs};
use common::{cluster, counter, root};
use std::sync::{Arc, Barrier};
use std::thread;

const THREADS: usize = 8;
const FILES_PER_THREAD: usize = 10;
const FRESH_FILES: usize = 2000;

#[test]
fn eight_threads_share_one_client() {
    // Drive `THREADS` real threads through one shared client and check
    // the end state. `/shared` puts every thread on one metatable.
    let client = cluster().client();
    let ctx = root();
    client.mkdir(&ctx, "/shared", 0o755).unwrap();
    for i in 0..THREADS {
        client.mkdir(&ctx, &format!("/t{i}"), 0o755).unwrap();
    }

    let workers: Vec<_> = (0..THREADS)
        .map(|i| {
            let c = Arc::clone(&client);
            thread::spawn(move || {
                let ctx = Credentials::root();
                for k in 0..FILES_PER_THREAD {
                    // Disjoint directory: full create/write/read/stat cycle.
                    // 96 bytes spans two test_tiny (64-byte) chunks, so the
                    // data cache and write-back paths are exercised too.
                    let private = format!("/t{i}/f{k}.bin");
                    let payload = vec![(i * 31 + k) as u8; 96];
                    write_file(&*c, &ctx, &private, &payload).unwrap();
                    assert_eq!(read_file(&*c, &ctx, &private).unwrap(), payload);
                    assert_eq!(c.stat(&ctx, &private).unwrap().size, 96);

                    // Shared directory: all threads contend on one
                    // metatable.
                    let shared = format!("/shared/t{i}_f{k}");
                    write_file(&*c, &ctx, &shared, &payload[..32]).unwrap();
                    assert_eq!(c.stat(&ctx, &shared).unwrap().size, 32);
                }
                assert_eq!(
                    c.readdir(&ctx, &format!("/t{i}")).unwrap().len(),
                    FILES_PER_THREAD
                );
            })
        })
        .collect();
    for w in workers {
        w.join()
            .expect("worker thread panicked (or deadlock abort)");
    }

    // Every open was closed: the handle table drained fully.
    assert_eq!(client.open_handles(), 0);
    // Namespace consistency: nothing lost or duplicated under interleaving.
    assert_eq!(
        client.readdir(&ctx, "/shared").unwrap().len(),
        THREADS * FILES_PER_THREAD
    );
    for i in 0..THREADS {
        let mut names: Vec<String> = client
            .readdir(&ctx, &format!("/t{i}"))
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        names.sort();
        let mut expect: Vec<String> = (0..FILES_PER_THREAD).map(|k| format!("f{k}.bin")).collect();
        expect.sort();
        assert_eq!(names, expect);
    }
    // Leadership bookkeeping: root + the 8 private dirs + /shared.
    assert_eq!(client.led_directories(), THREADS + 2);
    // Clean shutdown releases every lease.
    client.release_all(&ctx).unwrap();
    assert_eq!(client.led_directories(), 0);
    assert_eq!(client.lease_release_failures(), 0);
}

#[test]
fn racing_first_touches_take_one_lease() {
    // Another client makes `/fresh` and hands every lease back, so no
    // one leads it. This client resolves `/` first; then its threads all
    // touch `/fresh` at once. The dir table stays locked across the
    // lease exchange and the metatable load, so the race converges on
    // one acquisition.
    let cl = cluster();
    let ctx = root();
    let admin = cl.client();
    admin.mkdir(&ctx, "/fresh", 0o755).unwrap();
    // Entries to load: the first touch's metatable load takes host
    // time, long enough for the threads to race through it.
    for k in 0..FRESH_FILES {
        write_file(&*admin, &ctx, &format!("/fresh/f{k}"), b"").unwrap();
    }
    admin.release_all(&ctx).unwrap();
    let client = cl.client();
    client.stat(&ctx, "/").unwrap();
    let before = counter(&cl, "lease.acquire.count");
    let start = Arc::new(Barrier::new(THREADS));
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let (c, start) = (Arc::clone(&client), Arc::clone(&start));
            thread::spawn(move || {
                start.wait();
                let entries = c.readdir(&Credentials::root(), "/fresh").unwrap();
                assert_eq!(entries.len(), FRESH_FILES);
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker thread panicked");
    }
    assert_eq!(counter(&cl, "lease.acquire.count") - before, 1);
    assert_eq!(client.led_directories(), 2, "`/` and `/fresh`");
}
