//! The systems under test: one deployment per [`System`], its clients
//! one per simulated process.

use arkfs::{ArkClient, ArkCluster, ArkConfig};
use arkfs_baselines::pathfs::Bucket;
use arkfs_baselines::{CephFs, GoofysFs, MarFs, MountType, S3Fs};
use arkfs_objstore::{ClusterConfig, ObjectCluster};
use arkfs_simkit::ClusterSpec;
use arkfs_telemetry::Telemetry;
use arkfs_vfs::{Credentials, Vfs};
use arkfs_workloads::{gen_iter, Op, OpGen, SimClient, Zipf};
use std::sync::Arc;

/// A named fleet of clients of one file system under test.
pub struct System {
    pub name: String,
    pub clients: Vec<Arc<dyn SimClient>>,
}

impl System {
    fn new(name: impl Into<String>, n: usize, client: impl Fn() -> Arc<dyn SimClient>) -> Self {
        System {
            name: name.into(),
            clients: (0..n).map(|_| client()).collect(),
        }
    }

    /// The deployment's telemetry (clients of one system share it).
    pub fn telemetry(&self) -> Option<Arc<Telemetry>> {
        self.clients.first().and_then(|c| c.telemetry())
    }

    /// Fails if a cached read of this system ever fetched a chunk, lost
    /// it to eviction before copying it out and fetched it again
    /// (`cache.fill.lost.count`): the read-ahead thrash, in the small.
    pub fn no_lost_fills(&self) -> Result<(), String> {
        let lost = self
            .telemetry()
            .map_or(0, |t| t.registry.counter("cache.fill.lost.count").get());
        match lost {
            0 => Ok(()),
            n => Err(format!("{}: {n} cache fills lost their chunk", self.name)),
        }
    }
}

fn store(config: ClusterConfig, discard_payload: bool) -> Arc<ObjectCluster> {
    Arc::new(ObjectCluster::new(
        config.with_discard_payload(discard_payload),
    ))
}

/// An ArkFS deployment on a fresh RADOS-profile store.
pub fn ark_cluster(config: ArkConfig, discard_payload: bool) -> Arc<ArkCluster> {
    let rados = ClusterConfig::rados(config.spec.clone());
    ArkCluster::new(config, store(rados, discard_payload))
}

/// `n` clients of `cluster` as workload clients.
pub fn sim_clients(cluster: &Arc<ArkCluster>, n: usize) -> Vec<Arc<dyn SimClient>> {
    (0..n).map(|_| cluster.client() as _).collect()
}

/// Build an ArkFS fleet on a fresh RADOS-profile store.
pub fn ark_fleet(n: usize, config: ArkConfig, discard_payload: bool) -> System {
    let name = if config.permission_cache {
        "ArkFS"
    } else {
        "ArkFS-no-pcache"
    };
    let cluster = ark_cluster(config, discard_payload);
    System::new(name, n, || cluster.client())
}

/// The fig9 workload on `cluster`: an admin makes the pool `/zipf/d*` of
/// `dirs` directories and hands every lease back, so leadership lands on
/// whichever writer touches a directory first; then `n` clients, and for
/// client `i` a stream of `per_client` creates whose directory is drawn
/// Zipf(`s`) from the pool.
pub fn zipf_create_fleet(
    cluster: &Arc<ArkCluster>,
    dirs: usize,
    s: f64,
    seed: u64,
    n: usize,
    per_client: u64,
) -> (Vec<Arc<ArkClient>>, Vec<Box<dyn OpGen>>) {
    let ctx = Credentials::root();
    let admin = cluster.client();
    admin.mkdir(&ctx, "/zipf", 0o755).expect("mkdir /zipf");
    for d in 0..dirs {
        admin
            .mkdir(&ctx, &format!("/zipf/d{d}"), 0o755)
            .expect("mkdir pool dir");
    }
    admin.sync_all(&ctx).expect("admin sync_all");
    admin.release_all(&ctx).expect("admin release_all");
    let clients = (0..n).map(|_| cluster.client()).collect();
    let gens = (0..n)
        .map(|i| {
            let mut zipf = Zipf::new(dirs, s, seed ^ (i as u64).wrapping_mul(0x9E37));
            gen_iter((0..per_client).map(move |j| Op::Create {
                path: format!("/zipf/d{}/c{i}-f{j}", zipf.sample()),
            }))
        })
        .collect();
    (clients, gens)
}

/// ArkFS on an S3-profile store (Figure 6b), with a configurable
/// read-ahead limit.
pub fn ark_fleet_s3(n: usize, max_readahead: u64, chunk: u64, discard: bool) -> System {
    let mut config = ArkConfig::default().with_max_readahead(max_readahead);
    config.chunk_size = chunk;
    // Page-cache-equivalent sizing: hold a whole fio file plus the
    // read-ahead window ("ArkFS also uses its data cache in the same
    // way [as the kernel page cache]", §IV-B).
    config.cache_entries = ((max_readahead / chunk) as usize + 32).max(256);
    let s3 = ClusterConfig::s3(config.spec.clone());
    let cluster = ArkCluster::new(config, store(s3, discard));
    let name = format!("ArkFS-ra{}MB", max_readahead / (1024 * 1024));
    System::new(name, n, || cluster.client())
}

/// Build a CephFS fleet (one deployment, n mounted clients).
pub fn ceph_fleet(n: usize, mds: usize, mount: MountType, chunk: u64, discard: bool) -> System {
    let spec = ClusterSpec::aws_paper();
    let fs = CephFs::new(
        store(ClusterConfig::rados(spec.clone()), discard),
        mds,
        spec,
        chunk,
    );
    let tag = match mount {
        MountType::Kernel => "CephFS-K",
        MountType::Fuse => "CephFS-F",
    };
    let name = if mds == 1 {
        tag.to_string()
    } else {
        format!("{tag} ({mds} MDS)")
    };
    System::new(name, n, || fs.client(mount))
}

/// Build a MarFS fleet.
pub fn marfs_fleet(n: usize, chunk: u64) -> System {
    let spec = ClusterSpec::aws_paper();
    let shared = MarFs::deployment(
        store(ClusterConfig::rados(spec.clone()), false),
        spec,
        chunk,
    );
    System::new("MarFS", n, || MarFs::client(&shared))
}

/// Build an S3FS fleet on an S3-profile store.
pub fn s3fs_fleet(n: usize, part: u64, discard: bool) -> System {
    let spec = ClusterSpec::aws_paper();
    let bucket = Bucket::new(store(ClusterConfig::s3(spec.clone()), discard), part);
    System::new("S3FS", n, || S3Fs::new(Arc::clone(&bucket), spec.clone()))
}

/// Build a goofys fleet on an S3-profile store.
pub fn goofys_fleet(n: usize, part: u64, readahead: u64, discard: bool) -> System {
    let spec = ClusterSpec::aws_paper();
    let bucket = Bucket::new(store(ClusterConfig::s3(spec.clone()), discard), part);
    System::new("goofys", n, || {
        GoofysFs::with_readahead(Arc::clone(&bucket), spec.clone(), readahead)
    })
}
