//! Crash-consistency and fault-injection tests spanning the object
//! store, the journal, the lease manager, and multiple clients (§III-E).

use arkfs::journal::{JournalOp, Transaction};
use arkfs::{ArkCluster, ArkConfig};
use arkfs_objstore::{
    Acked, ClusterConfig, KeyKind, ObjectCluster, ObjectKey, ObjectStore, OsError, OsResult,
    StoreProfile,
};
use arkfs_simkit::{Nanos, Port, MSEC};
use arkfs_vfs::{read_file, write_file, Credentials, FileType, FsError, OpenFlags, Vfs};
use bytes::Bytes;
use std::sync::Arc;

fn crash_config() -> ArkConfig {
    // Journal window 0: every acknowledged mutation is durable in the
    // journal; short leases so takeovers run fast in virtual time.
    ArkConfig::test_tiny()
        .with_journal_window(0)
        .with_lease_period(MSEC, MSEC)
}

fn setup(config: ArkConfig) -> (Arc<ObjectCluster>, Arc<ArkCluster>) {
    let store = Arc::new(ObjectCluster::new(ClusterConfig::test_tiny()));
    let cluster = ArkCluster::new(config, Arc::clone(&store) as Arc<dyn ObjectStore>);
    (store, cluster)
}

fn root() -> Credentials {
    Credentials::root()
}

#[test]
fn crash_after_journal_commit_preserves_namespace_and_data() {
    let (_store, cluster) = setup(crash_config());
    let ctx = root();
    let c1 = cluster.client();
    c1.mkdir(&ctx, "/w", 0o755).unwrap();
    // Data + metadata: fsync makes both durable.
    write_file(&*c1, &ctx, "/w/a.bin", &[7u8; 300]).unwrap();
    write_file(&*c1, &ctx, "/w/b.bin", &[8u8; 100]).unwrap();
    c1.rename(&ctx, "/w/b.bin", "/w/c.bin").unwrap();
    c1.unlink(&ctx, "/w/a.bin").unwrap();
    c1.crash();

    let c2 = cluster.client();
    c2.port().advance(10 * MSEC);
    let names: Vec<String> = c2
        .readdir(&ctx, "/w")
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert_eq!(names, vec!["c.bin"]);
    assert_eq!(read_file(&*c2, &ctx, "/w/c.bin").unwrap(), [8u8; 100]);
    assert_eq!(c2.stat(&ctx, "/w/a.bin"), Err(FsError::NotFound));
}

#[test]
fn crash_mid_cross_directory_rename_resolves_consistently() {
    let (_store, cluster) = setup(crash_config());
    let ctx = root();
    let c1 = cluster.client();
    c1.mkdir(&ctx, "/s", 0o755).unwrap();
    c1.mkdir(&ctx, "/t", 0o755).unwrap();
    write_file(&*c1, &ctx, "/s/f", b"moving").unwrap();
    c1.rename(&ctx, "/s/f", "/t/g").unwrap();
    c1.crash();

    let c2 = cluster.client();
    c2.port().advance(10 * MSEC);
    // After recovery the file exists in exactly one place with its data.
    let in_s = c2.stat(&ctx, "/s/f").is_ok();
    let in_t = c2.stat(&ctx, "/t/g").is_ok();
    assert!(
        in_t && !in_s,
        "rename must be atomic across crashes (s={in_s} t={in_t})"
    );
    assert_eq!(read_file(&*c2, &ctx, "/t/g").unwrap(), b"moving");
}

/// A file created in `/s`, renamed to `/t/g`, then written and
/// fsync'd keeps its size through two plain crashes, whichever directory
/// the second client recovers first: replaying `/s`'s committed prepare
/// moves the file's record out of `/s`, as the live leader did, so
/// `/s`'s recovery checkpoint cannot write the create's stale record
/// over the one `/t` holds.
fn fsynced_rename_target_survives_two_crashes(target_first: bool) {
    let (_store, cluster) = setup(crash_config());
    let ctx = root();
    let data: Vec<u8> = (0..4096u32).map(|i| i as u8).collect();
    let c1 = cluster.client();
    c1.mkdir(&ctx, "/s", 0o755).unwrap();
    c1.mkdir(&ctx, "/t", 0o755).unwrap();
    let fh = c1.create(&ctx, "/s/f", 0o644).unwrap();
    c1.close(&ctx, fh).unwrap();
    c1.rename(&ctx, "/s/f", "/t/g").unwrap();
    let fh = c1.open(&ctx, "/t/g", OpenFlags::WRONLY).unwrap();
    assert_eq!(c1.write(&ctx, fh, 0, &data), Ok(data.len()));
    c1.fsync(&ctx, fh).unwrap();
    c1.close(&ctx, fh).unwrap();
    c1.crash();

    let c2 = cluster.client();
    c2.port().advance(10 * MSEC);
    let recover_t = || assert_eq!(c2.stat(&ctx, "/t/g").unwrap().size, 4096);
    let recover_s = || assert!(c2.readdir(&ctx, "/s").unwrap().is_empty());
    if target_first {
        recover_t();
        recover_s();
    } else {
        recover_s();
        recover_t();
    }
    c2.sync_all(&ctx).unwrap();
    c2.crash();

    let c3 = cluster.client();
    c3.port().advance(1_000 * MSEC);
    assert_eq!(c3.stat(&ctx, "/t/g").unwrap().size, 4096);
    assert_eq!(read_file(&*c3, &ctx, "/t/g").unwrap(), data);
}

#[test]
fn fsynced_rename_target_survives_two_crashes_target_recovered_first() {
    fsynced_rename_target_survives_two_crashes(true);
}

#[test]
fn fsynced_rename_target_survives_two_crashes_source_recovered_first() {
    fsynced_rename_target_survives_two_crashes(false);
}

/// An object store that refuses every journal PUT whose transaction
/// commits a rename: a cross-directory rename's prepares become durable
/// in both journals and neither decision does.
struct RefuseRenameCommits(Arc<ObjectCluster>);

impl RefuseRenameCommits {
    fn commits_rename(key: &ObjectKey, data: &[u8]) -> bool {
        key.kind == KeyKind::Journal
            && Transaction::unseal(data).is_ok_and(|txn| {
                (txn.ops.iter()).any(|op| matches!(op, JournalOp::RenameCommit { .. }))
            })
    }
}

impl ObjectStore for RefuseRenameCommits {
    fn profile(&self) -> &StoreProfile {
        self.0.profile()
    }
    fn head(&self, port: &Port, key: ObjectKey) -> OsResult<u64> {
        self.0.head(port, key)
    }
    fn list(
        &self,
        port: &Port,
        kind: Option<KeyKind>,
        ino: Option<u128>,
    ) -> OsResult<Vec<ObjectKey>> {
        self.0.list(port, kind, ino)
    }
    fn get_each(&self, depart: Nanos, keys: &[ObjectKey]) -> Acked<Bytes> {
        self.0.get_each(depart, keys)
    }
    fn get_range_each(&self, depart: Nanos, reqs: &[(ObjectKey, u64, usize)]) -> Acked<Bytes> {
        self.0.get_range_each(depart, reqs)
    }
    fn put_each(&self, depart: Nanos, items: Vec<(ObjectKey, Bytes)>) -> Acked<()> {
        let refused = || (depart, Err(OsError::Injected("rename commit refused")));
        (items.into_iter())
            .flat_map(|(key, data)| match Self::commits_rename(&key, &data) {
                true => vec![refused()],
                false => self.0.put_each(depart, vec![(key, data)]),
            })
            .collect()
    }
    fn put_range_each(&self, depart: Nanos, items: Vec<(ObjectKey, u64, Bytes)>) -> Acked<()> {
        self.0.put_range_each(depart, items)
    }
    fn delete_each(&self, depart: Nanos, keys: &[ObjectKey]) -> Acked<()> {
        self.0.delete_each(depart, keys)
    }
}

/// A rename onto an existing file whose decision never lands is presumed
/// aborted by recovery, and so is the replaced file's deletion: it rides
/// inside the destination's prepare, and its chunks are purged only once
/// both decisions are acked.
#[test]
fn undecided_rename_keeps_the_file_it_would_replace() {
    let inner = Arc::new(ObjectCluster::new(ClusterConfig::test_tiny()));
    let store = Arc::new(RefuseRenameCommits(Arc::clone(&inner)));
    let cluster = ArkCluster::new(crash_config(), store as Arc<dyn ObjectStore>);
    let ctx = root();
    let c1 = cluster.client();
    c1.mkdir(&ctx, "/s", 0o755).unwrap();
    c1.mkdir(&ctx, "/t", 0o755).unwrap();
    write_file(&*c1, &ctx, "/s/f", b"moving").unwrap();
    write_file(&*c1, &ctx, "/t/g", b"victim").unwrap();
    c1.sync_all(&ctx).unwrap();
    assert!(c1.rename(&ctx, "/s/f", "/t/g").is_err());
    c1.crash();

    let fresh = ArkCluster::new(crash_config(), inner as Arc<dyn ObjectStore>).client();
    assert_eq!(read_file(&*fresh, &ctx, "/s/f").unwrap(), b"moving");
    assert_eq!(read_file(&*fresh, &ctx, "/t/g").unwrap(), b"victim");
}

#[test]
fn torn_journal_transaction_is_skipped() {
    let (store, cluster) = setup(crash_config());
    let ctx = root();
    let c1 = cluster.client();
    c1.mkdir(&ctx, "/j", 0o755).unwrap();
    write_file(&*c1, &ctx, "/j/good", b"ok").unwrap();
    let dir_ino = c1.stat(&ctx, "/j").unwrap().ino;
    c1.crash();

    // Corrupt the tail of the newest journal object (simulated torn
    // write): recovery must keep the intact prefix and not error out.
    let port = Port::new();
    let seqs: Vec<u64> = store
        .list(&port, Some(KeyKind::Journal), Some(dir_ino))
        .unwrap()
        .into_iter()
        .map(|k| k.index)
        .collect();
    let last = *seqs.last().expect("journal must exist after crash");
    let key = ObjectKey::journal(dir_ino, last);
    let data = store.get(&port, key).unwrap();
    store.put(&port, key, data.slice(..data.len() / 2)).unwrap();

    let c2 = cluster.client();
    c2.port().advance(10 * MSEC);
    // The directory is still usable; the torn transaction's effects may
    // be lost but nothing is corrupted.
    let entries = c2.readdir(&ctx, "/j").unwrap();
    assert!(entries.len() <= 1);
    write_file(&*c2, &ctx, "/j/after", b"recovered").unwrap();
    assert_eq!(read_file(&*c2, &ctx, "/j/after").unwrap(), b"recovered");
}

#[test]
fn lost_inode_object_surfaces_as_io_error_not_panic() {
    let (store, cluster) = setup(ArkConfig::test_tiny());
    let ctx = root();
    let c1 = cluster.client();
    c1.mkdir(&ctx, "/d", 0o755).unwrap();
    write_file(&*c1, &ctx, "/d/f", b"x").unwrap();
    c1.release_all(&ctx).unwrap();
    let ino = {
        let c_probe = cluster.client();
        let st = c_probe.stat(&ctx, "/d/f").unwrap();
        c_probe.release_all(&ctx).unwrap();
        st.ino
    };
    // Lose the child's inode object; a fresh leader fails to build the
    // metatable and reports an error instead of panicking.
    store.faults.lose_object(ObjectKey::inode(ino));
    let c2 = cluster.client();
    let r = c2.readdir(&ctx, "/d");
    assert!(r.is_err(), "lost inode must surface as an error: {r:?}");
    store.faults.clear();
    assert!(c2.readdir(&ctx, "/d").is_ok());
}

#[test]
fn injected_put_failures_do_not_lose_acknowledged_state() {
    let (store, cluster) = setup(crash_config());
    let ctx = root();
    let c1 = cluster.client();
    c1.mkdir(&ctx, "/inj", 0o755).unwrap();
    write_file(&*c1, &ctx, "/inj/before", b"1").unwrap();
    // Fail the next few journal puts: affected operations must report
    // errors, not silently succeed.
    store.faults.fail_next_puts(2, Some(KeyKind::Journal));
    let r1 = write_file(&*c1, &ctx, "/inj/during", b"2");
    store.faults.clear();
    if r1.is_err() {
        // The failed create may or may not have registered; what matters
        // is that the acknowledged file is intact and the FS keeps
        // working.
        assert_eq!(read_file(&*c1, &ctx, "/inj/before").unwrap(), b"1");
    }
    write_file(&*c1, &ctx, "/inj/after", b"3").unwrap();
    assert_eq!(read_file(&*c1, &ctx, "/inj/after").unwrap(), b"3");
}

#[test]
fn lease_manager_crash_preserves_in_flight_leaders() {
    let config = crash_config();
    let (_store, cluster) = setup(config);
    let ctx = root();
    let c1 = cluster.client();
    c1.mkdir(&ctx, "/live", 0o755).unwrap();
    write_file(&*c1, &ctx, "/live/warm", b"x").unwrap();
    cluster.crash_lease_manager();
    // The leader keeps serving its directory during the outage.
    write_file(&*c1, &ctx, "/live/during", b"y").unwrap();
    c1.sync_all(&ctx).unwrap();
    // Restart; after the grace period, a new client takes over.
    cluster.restart_lease_manager(c1.port().now());
    let c2 = cluster.client();
    c2.port().advance(c1.port().now() + 20 * MSEC);
    c1.port().advance(20 * MSEC);
    assert_eq!(read_file(&*c2, &ctx, "/live/during").unwrap(), b"y");
}

#[test]
fn double_crash_double_recovery() {
    let (_store, cluster) = setup(crash_config());
    let ctx = root();
    let c1 = cluster.client();
    c1.mkdir(&ctx, "/dd", 0o755).unwrap();
    write_file(&*c1, &ctx, "/dd/one", b"1").unwrap();
    c1.crash();

    let c2 = cluster.client();
    c2.port().advance(10 * MSEC);
    write_file(&*c2, &ctx, "/dd/two", b"2").unwrap();
    c2.crash();

    let c3 = cluster.client();
    c3.port().advance(c2.port().now() + 10 * MSEC);
    let mut names: Vec<String> = c3
        .readdir(&ctx, "/dd")
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    names.sort();
    assert_eq!(names, vec!["one", "two"]);
    assert_eq!(read_file(&*c3, &ctx, "/dd/one").unwrap(), b"1");
    assert_eq!(read_file(&*c3, &ctx, "/dd/two").unwrap(), b"2");
}

#[test]
fn recovery_is_idempotent_across_repeated_takeovers() {
    let (_store, cluster) = setup(crash_config());
    let ctx = root();
    let c1 = cluster.client();
    c1.mkdir(&ctx, "/idem", 0o755).unwrap();
    for i in 0..10 {
        write_file(&*c1, &ctx, &format!("/idem/f{i}"), &[i as u8]).unwrap();
    }
    c1.crash();
    let mut last_now = 0;
    // Three successive clients each take over, read, and crash.
    for round in 0..3 {
        let c = cluster.client();
        c.port().advance(last_now + 10 * MSEC);
        let entries = c.readdir(&ctx, "/idem").unwrap();
        assert_eq!(entries.len(), 10, "round {round}");
        last_now = c.port().now();
        c.crash();
    }
}

#[test]
fn chaos_crash_recovery_loop_never_loses_acknowledged_files() {
    // Randomized crash loop: each round a fresh client creates a batch of
    // files (all acknowledged via the zero-window journal), then either
    // crashes or releases cleanly. Every later round must see EVERY file
    // acknowledged so far.
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let (_store, cluster) = setup(crash_config());
    let ctx = root();
    let mut rng = StdRng::seed_from_u64(0xC4A05);
    let mut acknowledged: Vec<String> = Vec::new();
    let mut last_now = 0u64;

    let bootstrap = cluster.client();
    bootstrap.mkdir(&ctx, "/chaos", 0o755).unwrap();
    bootstrap.release_all(&ctx).unwrap();
    let mut bootstrap_now = bootstrap.port().now();

    for round in 0..12 {
        let c = cluster.client();
        c.port().advance(last_now.max(bootstrap_now) + 10 * MSEC);
        bootstrap_now = 0;
        // Verify everything acknowledged so far survived.
        let listed: arkfs_simkit::hash::HashSet<String> = c
            .readdir(&ctx, "/chaos")
            .unwrap_or_else(|e| panic!("round {round}: readdir failed: {e}"))
            .into_iter()
            .map(|e| e.name)
            .collect();
        for name in &acknowledged {
            assert!(listed.contains(name), "round {round}: lost {name}");
        }
        // Create a new batch.
        let batch = rng.random_range(1..6);
        for k in 0..batch {
            let name = format!("r{round}-f{k}");
            write_file(&*c, &ctx, &format!("/chaos/{name}"), name.as_bytes()).unwrap();
            acknowledged.push(name);
        }
        last_now = c.port().now();
        if rng.random_bool(0.6) {
            c.crash();
        } else {
            c.release_all(&ctx).unwrap();
            last_now = c.port().now();
        }
    }
    // Final integrity check including contents.
    let c = cluster.client();
    c.port().advance(last_now + 10 * MSEC);
    for name in &acknowledged {
        let body = read_file(&*c, &ctx, &format!("/chaos/{name}")).unwrap();
        assert_eq!(body, name.as_bytes(), "content of {name}");
    }
}

#[test]
fn concurrent_clients_hammer_one_directory() {
    // Real-thread stress: 8 clients create files in the SAME directory
    // simultaneously (leader + 7 forwarders). All names must exist once,
    // with correct contents, and no client may observe an error.
    let (_store, cluster) = setup(ArkConfig::test_tiny());
    let ctx = root();
    let c0 = cluster.client();
    c0.mkdir(&ctx, "/shared", 0o755).unwrap();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let c = cluster.client();
            std::thread::spawn(move || {
                let ctx = Credentials::root();
                for j in 0..25 {
                    let path = format!("/shared/c{i}-f{j}");
                    write_file(&*c, &ctx, &path, path.as_bytes()).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("stress thread panicked");
    }
    let entries = c0.readdir(&ctx, "/shared").unwrap();
    assert_eq!(entries.len(), 8 * 25);
    // Spot-check contents through a fresh client.
    let probe = cluster.client();
    for path in ["/shared/c0-f0", "/shared/c7-f24", "/shared/c3-f12"] {
        assert_eq!(read_file(&*probe, &ctx, path).unwrap(), path.as_bytes());
    }
}

/// A crashed tree left in the store: journal window 0, so every
/// acknowledged mutation sits in a journal object until a takeover
/// replays it. Returns every stored object, sorted by key.
fn crashed_tree_snapshot() -> Vec<(ObjectKey, bytes::Bytes)> {
    let (store, cluster) = setup(crash_config());
    let ctx = root();
    let c1 = cluster.client();
    for dir in ["/a", "/b", "/a/sub"] {
        c1.mkdir(&ctx, dir, 0o755).unwrap();
    }
    write_file(&*c1, &ctx, "/a/f1", b"first").unwrap();
    write_file(&*c1, &ctx, "/a/f2", b"second").unwrap();
    write_file(&*c1, &ctx, "/b/g", b"third").unwrap();
    c1.rename(&ctx, "/a/f1", "/b/h").unwrap();
    c1.unlink(&ctx, "/a/f2").unwrap();
    c1.crash();
    let port = Port::new();
    store
        .list(&port, None, None)
        .unwrap()
        .into_iter()
        .map(|key| (key, store.get(&port, key).unwrap()))
        .collect()
}

/// One seeded corruption of `data`: a bit flip, a truncation, an
/// overwrite of a short range, or a random tail.
fn corrupt(data: &[u8], rng: &mut rand::rngs::StdRng) -> Vec<u8> {
    use rand::RngExt;
    let mut out = data.to_vec();
    let len = out.len().max(1);
    match rng.random_range(0u8..4) {
        0 if !out.is_empty() => {
            let bit = rng.random_range(0..out.len() * 8);
            out[bit / 8] ^= 1 << (bit % 8);
        }
        1 => out.truncate(rng.random_range(0..len)),
        2 if !out.is_empty() => {
            let at = rng.random_range(0..out.len());
            let end = (at + rng.random_range(1usize..9)).min(out.len());
            for b in &mut out[at..end] {
                *b = rng.random();
            }
        }
        _ => {
            out.truncate(rng.random_range(0..len));
            for _ in 0..rng.random_range(1usize..33) {
                out.push(rng.random());
            }
        }
    }
    out
}

/// A fresh deployment over a copy of `snapshot`, with the object at
/// `corrupt.0` (if any) replaced by `corrupt.1`.
fn mount_copy(
    snapshot: &[(ObjectKey, bytes::Bytes)],
    corrupt: Option<(usize, Vec<u8>)>,
) -> Arc<arkfs::ArkClient> {
    let store = Arc::new(ObjectCluster::new(ClusterConfig::test_tiny()));
    let port = Port::new();
    for (i, (key, data)) in snapshot.iter().enumerate() {
        let data = match &corrupt {
            Some((victim, bytes)) if *victim == i => bytes.clone().into(),
            _ => data.clone(),
        };
        store.put(&port, *key, data).unwrap();
    }
    ArkCluster::new(crash_config(), store as Arc<dyn ObjectStore>).client()
}

/// Walk a mounted tree: readdir every directory, stat every entry and
/// open+read a bounded prefix of every file. Errors are answers; only a
/// panic is a failure. Depth and entry count are bounded so a corrupt
/// dentry that names an ancestor cannot loop.
fn walk(fs: &dyn Vfs, ctx: &Credentials, path: &str, depth: usize, budget: &mut usize) {
    let Ok(entries) = fs.readdir(ctx, path) else {
        return;
    };
    for e in entries {
        if *budget == 0 {
            return;
        }
        *budget -= 1;
        let child = format!("{}/{}", path.trim_end_matches('/'), e.name);
        let Ok(st) = fs.stat(ctx, &child) else {
            continue;
        };
        match st.ftype {
            FileType::Directory if depth < 8 => walk(fs, ctx, &child, depth + 1, budget),
            FileType::Regular => {
                if let Ok(fh) = fs.open(ctx, &child, OpenFlags::RDONLY) {
                    let mut buf = [0u8; 4096];
                    let _ = fs.read(ctx, fh, 0, &mut buf);
                    let _ = fs.close(ctx, fh);
                }
            }
            _ => {}
        }
    }
}

/// ROADMAP aim 3, "no byte sequence from the store can panic a
/// process": each case copies the crashed tree into a fresh store with
/// one metadata object (inode, dentry bucket or journal object)
/// corrupted, mounts a fresh deployment over it and walks it. Takeovers
/// replay the journals, so corrupt transactions, corrupt base state and
/// corrupt replay results are all read.
#[test]
fn corrupt_metadata_objects_never_panic_a_mount() {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    const CASES: usize = 1_000;
    let snapshot = crashed_tree_snapshot();
    let metadata: Vec<usize> = (0..snapshot.len())
        .filter(|&i| snapshot[i].0.kind != KeyKind::Data)
        .collect();
    let journals = metadata
        .iter()
        .filter(|&&i| snapshot[i].0.kind == KeyKind::Journal)
        .count();
    assert!(journals >= 8, "the crash must leave journals to replay");
    // Untouched, the copy mounts to the tree the crashed client acked.
    let ctx = root();
    let intact = mount_copy(&snapshot, None);
    let names = |dir: &str| -> Vec<String> {
        let entries = intact.readdir(&ctx, dir).unwrap();
        entries.into_iter().map(|e| e.name).collect()
    };
    assert_eq!(
        (names("/a"), names("/b")),
        (vec!["sub".into()], vec!["g".into(), "h".into()])
    );
    assert_eq!(read_file(&*intact, &ctx, "/b/h").unwrap(), b"first");
    let mut rng = StdRng::seed_from_u64(0xC022_5EED);
    let mut panics = Vec::new();
    for case in 0..CASES {
        let victim = metadata[rng.random_range(0..metadata.len())];
        let bytes = corrupt(&snapshot[victim].1, &mut rng);
        let mount = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let client = mount_copy(&snapshot, Some((victim, bytes)));
            walk(&*client, &ctx, "/", 0, &mut 256);
        }));
        if let Err(payload) = mount {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            panics.push(format!("case {case}: {:?}: {msg}", snapshot[victim].0));
        }
    }
    assert!(panics.is_empty(), "{} panics: {panics:#?}", panics.len());
}
