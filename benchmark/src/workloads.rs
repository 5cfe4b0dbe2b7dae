//! The six workloads. Each `round` stands up a fresh deployment (timed
//! as set-up), runs its metered phases, and checks the outputs: zero op
//! errors, read-back bytes equal the written fill, and after every
//! phase the directories hold exactly the expected population.
//!
//! Calls into the system are limited to `ArkCluster::{new,
//! with_transports, client, telemetry}`, `ArkConfig::default` (and its
//! public fields), `ArkClient::{port, release_all, drop_data_cache}`,
//! the `Vfs` trait and `simkit::Engine::run`.

use crate::gen::{mix, SplitMix64, Zipf};
use crate::ops::{run_phase, Fs, Op, OpStream, Phase, Role};
use crate::spans::Recorder;
use crate::tcp;
use arkfs::{ArkCluster, ArkConfig};
use arkfs_objstore::{ClusterConfig, ObjectCluster};
use arkfs_telemetry::hist::HistogramSnapshot;
use arkfs_telemetry::{MetricValue, SpanEvent, Telemetry};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MdtestEasy,
    ZipfCreate,
    ZipfHotLead,
    MdtestHard,
    FioSeq,
    TcpHard,
}

pub const ALL: [Workload; 6] = [
    Workload::MdtestEasy,
    Workload::ZipfCreate,
    Workload::ZipfHotLead,
    Workload::MdtestHard,
    Workload::FioSeq,
    Workload::TcpHard,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::MdtestEasy => "mdtest_easy",
            Workload::ZipfCreate => "zipf_create",
            Workload::ZipfHotLead => "zipf_hot_lead",
            Workload::MdtestHard => "mdtest_hard",
            Workload::FioSeq => "fio_seq",
            Workload::TcpHard => "tcp_hard",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == s)
    }

    /// Engine workloads are bit-deterministic in virtual time.
    pub fn on_engine(self) -> bool {
        self != Workload::TcpHard
    }
}

/// Input sizes of one round. A run repeats rounds for `--seconds`, so
/// the sizes are what one fresh deployment sees, chosen so that a round
/// takes one to two seconds of host time on two cores.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub easy_clients: usize,
    pub easy_files: u64,
    pub zipf_clients: usize,
    pub zipf_dirs: usize,
    pub zipf_creates: u64,
    pub hard_clients: usize,
    pub hard_dirs: usize,
    pub hard_files: u64,
    pub fio_clients: usize,
    pub fio_file_bytes: u64,
    pub tcp_files: u64,
}

pub const HARD_FILE_BYTES: usize = 3901;
pub const FIO_REQUEST: usize = 128 * 1024;
pub const ZIPF_S: f64 = 0.9;

impl Sizes {
    pub const FULL: Sizes = Sizes {
        easy_clients: 16,
        easy_files: 96_000,
        zipf_clients: 4096,
        zipf_dirs: 256,
        zipf_creates: 65_536,
        hard_clients: 16,
        hard_dirs: 16,
        hard_files: 16_000,
        fio_clients: 8,
        fio_file_bytes: 32 << 20,
        tcp_files: 3_200,
    };

    /// For CI: the whole suite in under 20 s.
    pub const SMOKE: Sizes = Sizes {
        easy_clients: 16,
        easy_files: 8_000,
        zipf_clients: 512,
        zipf_dirs: 256,
        zipf_creates: 4_096,
        hard_clients: 16,
        hard_dirs: 16,
        hard_files: 1_600,
        fio_clients: 8,
        fio_file_bytes: 2 << 20,
        tcp_files: 200,
    };
}

/// Everything one round measured.
pub struct Round {
    pub setup_s: f64,
    pub phases: Vec<Phase>,
    /// Registry counters, after minus before the metered phases, summed
    /// over the deployment's endpoints.
    pub counters: BTreeMap<String, u64>,
    /// `op.create.durable_ns`: journal append → sealed batch on the store.
    pub durable: HistogramSnapshot,
    /// Output checks that failed (empty on a correct round).
    pub check_failures: Vec<String>,
    /// Files alive at the end of the mutate phase.
    pub files: u64,
    /// The system tracer's spans (traced rounds only).
    pub sys_spans: Vec<SpanEvent>,
    /// Frames that crossed sockets during the metered phases (`tcp_hard`).
    pub frames: u64,
}

impl Round {
    pub fn ops(&self) -> u64 {
        self.phases.iter().map(|p| p.ops).sum()
    }
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum::<u64>() + self.check_failures.len() as u64
    }
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
    pub fn role(&self, role: Role) -> impl Iterator<Item = &Phase> {
        self.phases.iter().filter(move |p| p.role == role)
    }
}

/// How a round is observed: harness spans around every `Vfs` call, and
/// the system's own sampled tracer.
#[derive(Default)]
pub struct Observe {
    pub rec: Option<Rc<Recorder>>,
    pub sys_trace: bool,
}

/// Head-sampling period of the system tracer in traced rounds.
const SAMPLE_EVERY: u64 = 64;

pub fn counters_of(tels: &[&Arc<Telemetry>]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for tel in tels {
        for (name, value) in tel.registry.snapshot() {
            if let MetricValue::Counter(c) = value {
                *out.entry(name).or_insert(0) += c;
            }
        }
    }
    out
}

fn delta(after: BTreeMap<String, u64>, before: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    after
        .into_iter()
        .map(|(k, v)| {
            let b = before.get(&k).copied().unwrap_or(0);
            (k, v.saturating_sub(b))
        })
        .collect()
}

pub fn durable_of(tels: &[&Arc<Telemetry>]) -> HistogramSnapshot {
    let mut out = HistogramSnapshot::new();
    for tel in tels {
        out.merge(&tel.registry.histogram("op.create.durable_ns").snapshot());
    }
    out
}

pub fn start_sys_trace(tel: &Telemetry, obs: &Observe) {
    if obs.sys_trace {
        tel.tracer.set_sample_every(SAMPLE_EVERY);
        tel.tracer.set_enabled(true);
    }
}

/// The measured part of a round, shared by all workloads: snapshot,
/// run the phases with their checks, snapshot again.
pub struct Metered<'a> {
    tels: Vec<&'a Arc<Telemetry>>,
    before: BTreeMap<String, u64>,
    setup_s: f64,
    phases: Vec<Phase>,
    check_failures: Vec<String>,
    files: u64,
    run_span: Option<u32>,
    rec: Option<Rc<Recorder>>,
}

impl<'a> Metered<'a> {
    /// `round_start` is when set-up began; everything up to now is set-up.
    pub fn begin(tels: Vec<&'a Arc<Telemetry>>, round_start: Instant, obs: &Observe) -> Self {
        let setup_s = round_start.elapsed().as_secs_f64();
        let before = counters_of(&tels);
        let run_span = obs.rec.as_ref().map(|r| r.open("run", 0));
        Metered {
            tels,
            before,
            setup_s,
            phases: Vec::new(),
            check_failures: Vec::new(),
            files: 0,
            run_span,
            rec: obs.rec.clone(),
        }
    }

    pub fn phase(
        &mut self,
        fleet: &[Fs],
        name: &'static str,
        role: Role,
        user_bytes: u64,
        stream_of: impl Fn(usize) -> OpStream,
    ) -> Result<(), String> {
        let p = run_phase(fleet, name, role, user_bytes, stream_of).map_err(|e| e.to_string())?;
        if let Some(e) = &p.first_error {
            eprintln!("  {name}: {} of {} ops failed, first: {e}", p.failed, p.ops);
        }
        self.phases.push(p);
        Ok(())
    }

    /// Record the population the mutate phase left behind.
    pub fn populated(&mut self, files: u64) {
        self.files = files;
    }

    /// `dir` must list exactly `want` entries (asked through `fs`).
    pub fn expect_entries(&mut self, fs: &Fs, dir: &str, want: u64) {
        match fs.readdir(dir) {
            Ok(es) if es.len() as u64 == want => {}
            Ok(es) => self.check_failures.push(format!(
                "readdir {dir}: {} entries, expected {want}",
                es.len()
            )),
            Err(e) => self.check_failures.push(format!("readdir {dir}: {e}")),
        }
    }

    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn finish(self, frames: u64) -> Round {
        if let (Some(r), Some(span)) = (&self.rec, self.run_span) {
            r.close(span, 0);
        }
        let counters = delta(counters_of(&self.tels), &self.before);
        let durable = durable_of(&self.tels);
        let mut sys_spans = Vec::new();
        for tel in &self.tels {
            if tel.tracer.enabled() {
                sys_spans.extend(tel.tracer.events());
            }
        }
        for f in &self.check_failures {
            eprintln!("  check failed: {f}");
        }
        Round {
            setup_s: self.setup_s,
            phases: self.phases,
            counters,
            durable,
            check_failures: self.check_failures,
            files: self.files,
            sys_spans,
            frames,
        }
    }
}

fn fail<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

fn engine_cluster(config: ArkConfig, obs: &Observe) -> Arc<ArkCluster> {
    let store = ObjectCluster::new(ClusterConfig::rados(config.spec.clone()));
    let cluster = ArkCluster::new(config, Arc::new(store));
    start_sys_trace(cluster.telemetry(), obs);
    cluster
}

fn mint(cluster: &Arc<ArkCluster>, n: usize, obs: &Observe) -> Vec<Fs> {
    (0..n)
        .map(|_| Fs::new(cluster.client(), obs.rec.clone()))
        .collect()
}

/// A client and its deployment hold each other (the cluster's ops
/// transport keeps every client's service, the service keeps the
/// cluster), so a dropped deployment is never freed. Unregistering the
/// services breaks the cycle; without it every round would add its
/// whole working set to the resident peak of the next.
pub fn teardown(cluster: &ArkCluster, fleet: &[Fs]) {
    for fs in fleet {
        cluster.ops_net().disconnect(fs.client.id());
    }
}

fn boxed(it: impl Iterator<Item = Op> + 'static) -> OpStream {
    Box::new(it)
}

/// One round of `workload` on inputs made from `seed`.
pub fn round(workload: Workload, sizes: &Sizes, seed: u64, obs: &Observe) -> Result<Round, String> {
    match workload {
        Workload::MdtestEasy => mdtest_easy(sizes, seed, obs),
        Workload::ZipfCreate => zipf_create(sizes, seed, obs, |i, dirs| dirs - 1 - i),
        Workload::ZipfHotLead => zipf_create(sizes, seed, obs, |i, _| i),
        Workload::MdtestHard => mdtest_hard(sizes, seed, obs),
        Workload::FioSeq => fio_seq(sizes, seed, obs),
        Workload::TcpHard => tcp::tcp_hard(sizes, seed, obs),
    }
}

/// Paper Fig. 4: each client creates, stats and unlinks empty files in a
/// leaf directory it leads itself.
fn mdtest_easy(sizes: &Sizes, seed: u64, obs: &Observe) -> Result<Round, String> {
    let t0 = Instant::now();
    let cluster = engine_cluster(ArkConfig::default(), obs);
    let fleet = mint(&cluster, sizes.easy_clients, obs);
    let per = sizes.easy_files / fleet.len() as u64;
    fleet[0].mkdir("/easy").map_err(fail("mkdir /easy"))?;
    for (i, fs) in fleet.iter().enumerate() {
        fs.mkdir(&format!("/easy/p{i}"))
            .map_err(fail("mkdir leaf"))?;
    }
    // The seed shapes the names, and through them the dentry buckets.
    let path =
        move |i: usize, j: u64| format!("/easy/p{i}/f{:04x}-{j}", mix(seed, i as u64, 0) & 0xffff);

    let mut m = Metered::begin(vec![cluster.telemetry()], t0, obs);
    m.phase(&fleet, "create", Role::Mutate, 0, |i| {
        boxed((0..per).map(move |j| Op::Create { path: path(i, j) }))
    })?;
    m.populated(per * fleet.len() as u64);
    for (i, fs) in fleet.iter().enumerate() {
        m.expect_entries(fs, &format!("/easy/p{i}"), per);
    }
    m.phase(&fleet, "stat", Role::Query, 0, |i| {
        boxed((0..per).map(move |j| Op::Stat {
            path: path(i, j),
            size: 0,
        }))
    })?;
    m.phase(&fleet, "unlink", Role::Remove, 0, |i| {
        boxed((0..per).map(move |j| Op::Unlink { path: path(i, j) }))
    })?;
    for (i, fs) in fleet.iter().enumerate() {
        m.expect_entries(fs, &format!("/easy/p{i}"), 0);
    }
    let round = m.finish(0);
    teardown(&cluster, &fleet);
    Ok(round)
}

/// The fig9 point: thousands of clients create into a Zipf-skewed pool
/// of shared directories, then each stats its own files.
///
/// A directory is led by whoever touches it first, and with purely
/// random draws throughput is bimodal across seeds: a third lower on
/// the seeds where the engine's first actor draws the hottest directory
/// first (fig9's committed seed is one). So the first touch is
/// structural: client `i < dirs` makes its first create in directory
/// `first_touch(i, dirs)`, every later draw is Zipf. `zipf_create` hands
/// the hot directories to the last of those clients (the fast regime),
/// `zipf_hot_lead` to the first (the slow one), for every seed.
fn zipf_create(
    sizes: &Sizes,
    seed: u64,
    obs: &Observe,
    first_touch: fn(usize, usize) -> usize,
) -> Result<Round, String> {
    let t0 = Instant::now();
    let cluster = engine_cluster(ArkConfig::default(), obs);
    // The admin makes the pool, then hands every lease back so that
    // leadership lands on whichever writer touches a directory first.
    let admin = Fs::new(cluster.client(), obs.rec.clone());
    admin.mkdir("/zipf").map_err(fail("mkdir /zipf"))?;
    for d in 0..sizes.zipf_dirs {
        admin
            .mkdir(&format!("/zipf/d{d}"))
            .map_err(fail("mkdir pool dir"))?;
    }
    admin.sync_all().map_err(fail("admin sync_all"))?;
    admin.release_all().map_err(fail("admin release_all"))?;
    let fleet = mint(&cluster, sizes.zipf_clients, obs);
    let per = sizes.zipf_creates / fleet.len() as u64;
    let zipf = Rc::new(Zipf::new(sizes.zipf_dirs, ZIPF_S));
    // Client i's directory sequence is a pure function of (seed, i), so
    // the stat phase and the population check replay it.
    let dirs = sizes.zipf_dirs;
    let dirs_of = {
        let zipf = Rc::clone(&zipf);
        move |i: usize| {
            let zipf = Rc::clone(&zipf);
            let mut rng = SplitMix64::new(mix(seed, i as u64, 1));
            (0..per).map(move |j| {
                let drawn = zipf.sample(&mut rng);
                (
                    if j == 0 && i < dirs {
                        first_touch(i, dirs)
                    } else {
                        drawn
                    },
                    j,
                )
            })
        }
    };
    let mut expected = vec![0u64; sizes.zipf_dirs];
    for i in 0..fleet.len() {
        for (d, _) in dirs_of(i) {
            expected[d] += 1;
        }
    }

    let mut m = Metered::begin(vec![cluster.telemetry()], t0, obs);
    m.phase(&fleet, "create", Role::Mutate, 0, |i| {
        boxed(dirs_of(i).map(move |(d, j)| Op::Create {
            path: format!("/zipf/d{d}/c{i}-f{j}"),
        }))
    })?;
    m.populated(per * fleet.len() as u64);
    for (d, &want) in expected.iter().enumerate() {
        m.expect_entries(&admin, &format!("/zipf/d{d}"), want);
    }
    m.phase(&fleet, "stat", Role::Query, 0, |i| {
        boxed(dirs_of(i).map(move |(d, j)| Op::Stat {
            path: format!("/zipf/d{d}/c{i}-f{j}"),
            size: 0,
        }))
    })?;
    let round = m.finish(0);
    teardown(&cluster, &fleet);
    teardown(&cluster, &[admin]);
    Ok(round)
}

/// Where mdtest-hard puts file `j` of process `proc`, and its fill byte.
pub fn hard_placement(seed: u64, proc: usize, j: u64, dirs: usize) -> (usize, u8) {
    let h = mix(seed, proc as u64, j);
    ((h % dirs as u64) as usize, (h >> 32) as u8)
}

/// The four mdtest-hard phases over `fleet`, files spread over
/// `dir_paths`; shared by `mdtest_hard` (engine) and `tcp_hard`.
pub fn hard_phases(
    m: &mut Metered,
    fleet: &[Fs],
    checker: &Fs,
    dir_paths: Rc<Vec<String>>,
    place: impl Fn(usize, u64) -> (usize, u8) + Copy + 'static,
    per: u64,
) -> Result<(), String> {
    let path = {
        let dir_paths = Rc::clone(&dir_paths);
        move |i: usize, j: u64| format!("{}/p{i}-f{j}", dir_paths[place(i, j).0])
    };
    let mut expected = vec![0u64; dir_paths.len()];
    for i in 0..fleet.len() {
        for j in 0..per {
            expected[place(i, j).0] += 1;
        }
    }
    let total = per * fleet.len() as u64;
    let bytes = total * HARD_FILE_BYTES as u64;

    let p = path.clone();
    m.phase(fleet, "create", Role::Mutate, bytes, move |i| {
        let p = p.clone();
        boxed((0..per).map(move |j| Op::CreateWrite {
            path: p(i, j),
            size: HARD_FILE_BYTES,
            fill: place(i, j).1,
        }))
    })?;
    m.populated(total);
    for (d, &want) in expected.iter().enumerate() {
        m.expect_entries(checker, &dir_paths[d], want);
    }
    let p = path.clone();
    m.phase(fleet, "stat", Role::Query, 0, move |i| {
        let p = p.clone();
        boxed((0..per).map(move |j| Op::Stat {
            path: p(i, j),
            size: HARD_FILE_BYTES as u64,
        }))
    })?;
    let p = path.clone();
    m.phase(fleet, "read", Role::Query, bytes, move |i| {
        let p = p.clone();
        boxed((0..per).map(move |j| Op::OpenRead {
            path: p(i, j),
            size: HARD_FILE_BYTES,
            fill: place(i, j).1,
        }))
    })?;
    let p = path.clone();
    m.phase(fleet, "unlink", Role::Remove, 0, move |i| {
        let p = p.clone();
        boxed((0..per).map(move |j| Op::Unlink { path: p(i, j) }))
    })?;
    for dir in dir_paths.iter() {
        m.expect_entries(checker, dir, 0);
    }
    Ok(())
}

/// Paper Fig. 5: small files with payloads in shared directories.
fn mdtest_hard(sizes: &Sizes, seed: u64, obs: &Observe) -> Result<Round, String> {
    let t0 = Instant::now();
    let cluster = engine_cluster(ArkConfig::default(), obs);
    let fleet = mint(&cluster, sizes.hard_clients, obs);
    fleet[0].mkdir("/hard").map_err(fail("mkdir /hard"))?;
    let dir_paths: Vec<String> = (0..sizes.hard_dirs)
        .map(|d| format!("/hard/d{d}"))
        .collect();
    for dir in &dir_paths {
        fleet[0].mkdir(dir).map_err(fail("mkdir shared dir"))?;
    }
    let per = sizes.hard_files / fleet.len() as u64;
    let dirs = sizes.hard_dirs;

    let mut m = Metered::begin(vec![cluster.telemetry()], t0, obs);
    hard_phases(
        &mut m,
        &fleet,
        &fleet[0],
        Rc::new(dir_paths),
        move |i, j| hard_placement(seed, i, j, dirs),
        per,
    )?;
    let round = m.finish(0);
    teardown(&cluster, &fleet);
    Ok(round)
}

/// Entries of the client data cache in `fio_seq`: 12 MiB, so each
/// client's file is larger than its cache and only the read-ahead
/// window (8 MiB) fits.
pub const FIO_CACHE_ENTRIES: usize = 6;

/// Paper Fig. 6a: large sequential files, then seeded random reads.
fn fio_seq(sizes: &Sizes, seed: u64, obs: &Observe) -> Result<Round, String> {
    let t0 = Instant::now();
    let config = ArkConfig {
        cache_entries: FIO_CACHE_ENTRIES,
        ..ArkConfig::default()
    };
    let cluster = engine_cluster(config, obs);
    let fleet = mint(&cluster, sizes.fio_clients, obs);
    fleet[0].mkdir("/fio").map_err(fail("mkdir /fio"))?;
    let file = sizes.fio_file_bytes;
    let requests = file / FIO_REQUEST as u64;
    let total = file * fleet.len() as u64;
    // Block j of client i holds one byte value, so a read is checked
    // against the block it asked for, not just against "some write".
    let fill = move |i: usize, j: u64| (mix(seed, i as u64, 2) as u8).wrapping_add(j as u8);
    let bracket = |ops: Vec<Op>| ops.into_iter();

    let mut m = Metered::begin(vec![cluster.telemetry()], t0, obs);
    m.phase(&fleet, "write", Role::Mutate, total, |i| {
        let writes = (0..requests).map(move |j| Op::Write {
            off: j * FIO_REQUEST as u64,
            len: FIO_REQUEST,
            fill: fill(i, j),
        });
        boxed(
            bracket(vec![Op::OpenCreate {
                path: format!("/fio/job{i}.bin"),
            }])
            .chain(writes)
            .chain(bracket(vec![Op::Fsync, Op::Close, Op::DropCaches])),
        )
    })?;
    m.populated(fleet.len() as u64);
    m.expect_entries(&fleet[0], "/fio", fleet.len() as u64);
    m.phase(&fleet, "seqread", Role::Query, total, |i| {
        let reads = (0..requests).map(move |j| Op::Read {
            off: j * FIO_REQUEST as u64,
            len: FIO_REQUEST,
            fill: fill(i, j),
        });
        boxed(
            bracket(vec![Op::Open {
                path: format!("/fio/job{i}.bin"),
            }])
            .chain(reads)
            .chain(bracket(vec![Op::Close, Op::DropCaches])),
        )
    })?;
    let rand_requests = requests / 4;
    m.phase(
        &fleet,
        "randread",
        Role::Query,
        rand_requests * FIO_REQUEST as u64 * fleet.len() as u64,
        |i| {
            let mut rng = SplitMix64::new(mix(seed, i as u64, 3));
            let reads = (0..rand_requests).map(move |_| {
                let j = rng.below(requests);
                Op::Read {
                    off: j * FIO_REQUEST as u64,
                    len: FIO_REQUEST,
                    fill: fill(i, j),
                }
            });
            boxed(
                bracket(vec![Op::Open {
                    path: format!("/fio/job{i}.bin"),
                }])
                .chain(reads)
                .chain(bracket(vec![Op::Close])),
            )
        },
    )?;
    let round = m.finish(0);
    teardown(&cluster, &fleet);
    Ok(round)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_a_function_of_the_seed() {
        let a: Vec<_> = (0..64).map(|j| hard_placement(1, 3, j, 16)).collect();
        let b: Vec<_> = (0..64).map(|j| hard_placement(1, 3, j, 16)).collect();
        let c: Vec<_> = (0..64).map(|j| hard_placement(2, 3, j, 16)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&(d, _)| d < 16));
    }

    #[test]
    fn every_smoke_round_is_correct_and_repeats_in_virtual_time() {
        for w in ALL {
            let run = |seed| round(w, &Sizes::SMOKE, seed, &Observe::default()).unwrap();
            let (a, b) = (run(7), run(7));
            assert_eq!(a.failed(), 0, "{}: {:?}", w.name(), a.check_failures);
            assert!(a.ops() > 0);
            if w.on_engine() {
                let spans = |r: &Round| r.phases.iter().map(|p| p.v_span_ns).collect::<Vec<_>>();
                assert_eq!(spans(&a), spans(&b), "{}", w.name());
                assert_eq!(a.counters, b.counters, "{}", w.name());
                // Where the seed places files, it must move virtual time.
                if matches!(
                    w,
                    Workload::ZipfCreate | Workload::ZipfHotLead | Workload::MdtestHard
                ) {
                    assert_ne!(
                        spans(&a),
                        spans(&run(8)),
                        "{}: seed has no effect",
                        w.name()
                    );
                }
            }
        }
    }
}
