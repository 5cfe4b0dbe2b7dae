//! Exact prices of the six comparison systems as the figures deploy
//! them: one fixed script per system, and after every step the result
//! and the client's virtual clock. Any change to what a baseline
//! charges, or to what it answers, fails here before it moves a figure.

use arkfs_baselines::pathfs::Bucket;
use arkfs_baselines::{BucketFs, CephFs, MdsFs, MountType};
use arkfs_objstore::{ClusterConfig, ObjectCluster};
use arkfs_simkit::{ClusterSpec, Nanos};
use arkfs_vfs::{Credentials, DirEntry, FileHandle, FsResult, OpenFlags, Stat, Vfs};
use std::sync::Arc;

const CHUNK: u64 = 64 * 1024;

/// A mounted client and its virtual clock.
type Mounted = (Arc<dyn Vfs>, Box<dyn Fn() -> Nanos>);

fn mounted<C: Vfs + 'static>(client: Arc<C>, now: fn(&C) -> Nanos) -> Mounted {
    let c = Arc::clone(&client);
    (client, Box::new(move || now(&c)))
}

/// One client of a fresh deployment of `system`, built as `fleet.rs`
/// builds it for the figures (paper spec, RADOS or S3 profile).
fn mount(system: &str) -> Mounted {
    let spec = ClusterSpec::aws_paper();
    let rados = || Arc::new(ObjectCluster::new(ClusterConfig::rados(spec.clone())));
    let bucket = || {
        Bucket::new(
            Arc::new(ObjectCluster::new(ClusterConfig::s3(spec.clone()))),
            CHUNK,
        )
    };
    let ceph = |mds, mount| CephFs::new(rados(), mds, spec.clone(), CHUNK).client(mount);
    match system {
        "CephFS-K" => mounted(ceph(1, MountType::Kernel), |c| c.port().now()),
        "CephFS-K (16 MDS)" => mounted(ceph(16, MountType::Kernel), |c| c.port().now()),
        "CephFS-F" => mounted(ceph(1, MountType::Fuse), |c| c.port().now()),
        "MarFS" => mounted(
            MdsFs::marfs(rados(), spec.clone(), CHUNK).client(MountType::Fuse),
            |c| c.port().now(),
        ),
        "S3FS" => mounted(BucketFs::s3fs(bucket(), spec.clone()), |c| c.port().now()),
        "goofys" => mounted(
            BucketFs::goofys(bucket(), spec.clone(), 400 * 1024 * 1024),
            |c| c.port().now(),
        ),
        _ => unreachable!("{system}"),
    }
}

fn stat(r: FsResult<Stat>) -> FsResult<String> {
    r.map(|st| format!("{:?} size {} mode {:o}", st.ftype, st.size, st.mode))
}

fn handle(r: FsResult<FileHandle>) -> FsResult<String> {
    r.map(|fh| format!("fh {}", fh.0))
}

fn names(r: FsResult<Vec<DirEntry>>) -> FsResult<String> {
    r.map(|es| es.into_iter().map(|e| e.name).collect::<Vec<_>>().join(","))
}

fn unit(r: FsResult<()>) -> FsResult<String> {
    r.map(|()| "()".to_string())
}

fn count(r: FsResult<usize>) -> FsResult<String> {
    r.map(|n| n.to_string())
}

/// Run the script on `system`: per step, a line of its name, its result
/// and the clock after it, as [`PRICES`] records them.
fn script(system: &str) -> Vec<String> {
    let (fs, now) = mount(system);
    let ctx = Credentials::root();
    let payload: Vec<u8> = (0..150_000u32).map(|i| (i % 251) as u8).collect();
    let mut steps = Vec::new();
    let mut step = |name: &'static str, r: FsResult<String>| {
        let shown = r.unwrap_or_else(|e| format!("Err({e:?})"));
        steps.push(format!("{system} | {name} | {shown} | {}", now()));
    };
    step("mkdir /a", stat(fs.mkdir(&ctx, "/a", 0o755)));
    step("mkdir /a/b", stat(fs.mkdir(&ctx, "/a/b", 0o755)));
    let fh = fs.create(&ctx, "/a/b/f", 0o644);
    let f = *fh.as_ref().unwrap();
    step("create /a/b/f", handle(fh));
    step("write 150000", count(fs.write(&ctx, f, 0, &payload)));
    step("close", unit(fs.close(&ctx, f)));
    step("stat /a/b/f", stat(fs.stat(&ctx, "/a/b/f")));
    step("readdir /a/b", names(fs.readdir(&ctx, "/a/b")));
    let fh = fs.open(&ctx, "/a/b/f", OpenFlags::RDONLY);
    let f = *fh.as_ref().unwrap();
    step("open /a/b/f", handle(fh));
    let mut buf = vec![0u8; payload.len()];
    let read = fs.read(&ctx, f, 0, &mut buf);
    if read.is_ok() {
        assert_eq!(buf, payload, "read returns what was written");
    }
    step("read 150000", count(read));
    step("close", unit(fs.close(&ctx, f)));
    step(
        "rename /a/b/f /a/g",
        unit(fs.rename(&ctx, "/a/b/f", "/a/g")),
    );
    step("truncate /a/g 1000", unit(fs.truncate(&ctx, "/a/g", 1000)));
    step("unlink /a/g", unit(fs.unlink(&ctx, "/a/g")));
    let fh = fs.create(&ctx, "/a/h", 0o644);
    let h = *fh.as_ref().unwrap();
    step("create /a/h", handle(fh));
    step("write 5000", count(fs.write(&ctx, h, 0, &payload[..5000])));
    step("sync_all", unit(fs.sync_all(&ctx)));
    step("close", unit(fs.close(&ctx, h)));
    steps
}

/// Per system and step of [`script`]: the result and the clock after
/// it, as recorded when each system had its own front end.
const PRICES: &str = r#"
CephFS-K | mkdir /a | Directory size 0 mode 755 | 160000
CephFS-K | mkdir /a/b | Directory size 0 mode 755 | 320000
CephFS-K | create /a/b/f | fh 1 | 480000
CephFS-K | write 150000 | 150000 | 480000
CephFS-K | close | () | 981558
CephFS-K | stat /a/b/f | Regular size 150000 mode 644 | 1141558
CephFS-K | readdir /a/b | f | 1301558
CephFS-K | open /a/b/f | fh 2 | 1461558
CephFS-K | read 150000 | 150000 | 1461558
CephFS-K | close | () | 1461558
CephFS-K | rename /a/b/f /a/g | () | 1781558
CephFS-K | truncate /a/g 1000 | () | 2677332
CephFS-K | unlink /a/g | () | 2837332
CephFS-K | create /a/h | fh 3 | 2997332
CephFS-K | write 5000 | 5000 | 2997332
CephFS-K | sync_all | () | 3407732
CephFS-K | close | () | 3407732
CephFS-K (16 MDS) | mkdir /a | Directory size 0 mode 755 | 160000
CephFS-K (16 MDS) | mkdir /a/b | Directory size 0 mode 755 | 430000
CephFS-K (16 MDS) | create /a/b/f | fh 1 | 590000
CephFS-K (16 MDS) | write 150000 | 150000 | 590000
CephFS-K (16 MDS) | close | () | 1201558
CephFS-K (16 MDS) | stat /a/b/f | Regular size 150000 mode 644 | 1361558
CephFS-K (16 MDS) | readdir /a/b | f | 1631558
CephFS-K (16 MDS) | open /a/b/f | fh 2 | 1791558
CephFS-K (16 MDS) | read 150000 | 150000 | 1791558
CephFS-K (16 MDS) | close | () | 1791558
CephFS-K (16 MDS) | rename /a/b/f /a/g | () | 2221558
CephFS-K (16 MDS) | truncate /a/g 1000 | () | 3227332
CephFS-K (16 MDS) | unlink /a/g | () | 3387332
CephFS-K (16 MDS) | create /a/h | fh 3 | 3657332
CephFS-K (16 MDS) | write 5000 | 5000 | 3657332
CephFS-K (16 MDS) | sync_all | () | 4027732
CephFS-K (16 MDS) | close | () | 4027732
CephFS-F | mkdir /a | Directory size 0 mode 755 | 208000
CephFS-F | mkdir /a/b | Directory size 0 mode 755 | 440000
CephFS-F | create /a/b/f | fh 1 | 696000
CephFS-F | write 150000 | 150000 | 704000
CephFS-F | close | () | 1309558
CephFS-F | stat /a/b/f | Regular size 150000 mode 644 | 1565558
CephFS-F | readdir /a/b | f | 1797558
CephFS-F | open /a/b/f | fh 2 | 2053558
CephFS-F | read 150000 | 150000 | 2061558
CephFS-F | close | () | 2069558
CephFS-F | rename /a/b/f /a/g | () | 2557558
CephFS-F | truncate /a/g 1000 | () | 3525332
CephFS-F | unlink /a/g | () | 3757332
CephFS-F | create /a/h | fh 3 | 3989332
CephFS-F | write 5000 | 5000 | 3997332
CephFS-F | sync_all | () | 4415732
CephFS-F | close | () | 4423732
MarFS | mkdir /a | Directory size 0 mode 755 | 312000
MarFS | mkdir /a/b | Directory size 0 mode 755 | 640000
MarFS | create /a/b/f | fh 1 | 984000
MarFS | write 150000 | 150000 | 1325558
MarFS | close | () | 1637558
MarFS | stat /a/b/f | Regular size 150000 mode 644 | 1981558
MarFS | readdir /a/b | f | 2309558
MarFS | open /a/b/f | fh 2 | 2653558
MarFS | read 150000 | Err(Unsupported("marfs interactive read")) | 2653558
MarFS | close | () | 2653558
MarFS | rename /a/b/f /a/g | () | 3325558
MarFS | truncate /a/g 1000 | () | 4389332
MarFS | unlink /a/g | () | 4917332
MarFS | create /a/h | fh 3 | 5245332
MarFS | write 5000 | 5000 | 5455732
MarFS | sync_all | () | 5751732
MarFS | close | () | 5751732
S3FS | mkdir /a | Directory size 0 mode 777 | 25608000
S3FS | mkdir /a/b | Directory size 0 mode 777 | 51216000
S3FS | create /a/b/f | fh 1 | 76824000
S3FS | write 150000 | 150000 | 78082000
S3FS | close | () | 105073558
S3FS | stat /a/b/f | Regular size 150000 mode 777 | 130681558
S3FS | readdir /a/b | f | 156289558
S3FS | open /a/b/f | fh 2 | 181897558
S3FS | read 150000 | 150000 | 210141874
S3FS | close | () | 210141874
S3FS | rename /a/b/f /a/g | () | 338427748
S3FS | truncate /a/g 1000 | () | 440974144
S3FS | unlink /a/g | () | 492182144
S3FS | create /a/h | fh 3 | 517790144
S3FS | write 5000 | 5000 | 517839811
S3FS | sync_all | () | 543491878
S3FS | close | () | 543491878
goofys | mkdir /a | Directory size 0 mode 777 | 25608000
goofys | mkdir /a/b | Directory size 0 mode 777 | 51216000
goofys | create /a/b/f | fh 1 | 76824000
goofys | write 150000 | 150000 | 102573558
goofys | close | () | 128212929
goofys | stat /a/b/f | Regular size 150000 mode 777 | 153820929
goofys | readdir /a/b | f | 179428929
goofys | open /a/b/f | fh 2 | 205036929
goofys | read 150000 | 150000 | 230781245
goofys | close | () | 230781245
goofys | rename /a/b/f /a/g | () | 359067119
goofys | truncate /a/g 1000 | Err(Unsupported("goofys truncate")) | 359067119
goofys | unlink /a/g | () | 410275119
goofys | create /a/h | fh 3 | 435883119
goofys | write 5000 | 5000 | 435891119
goofys | sync_all | () | 461501519
goofys | close | () | 461501519
"#;

#[test]
fn every_system_charges_its_recorded_prices() {
    for system in [
        "CephFS-K",
        "CephFS-K (16 MDS)",
        "CephFS-F",
        "MarFS",
        "S3FS",
        "goofys",
    ] {
        let prefix = format!("{system} |");
        let want: Vec<&str> = PRICES.lines().filter(|l| l.starts_with(&prefix)).collect();
        let got = script(system);
        assert_eq!(got, want, "{system} now gives:\n{}", got.join("\n"));
    }
}
