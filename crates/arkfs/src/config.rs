//! ArkFS configuration knobs.

use arkfs_simkit::{ClusterSpec, Nanos, MSEC, SEC};

/// How metadata mutations reach the journal object stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitMode {
    /// Commits run on the mutating operation's own timeline wherever
    /// durability is implied (`fsync` semantics on size pushes, every
    /// forced commit): the pre-pipeline behavior, kept as the ablation
    /// baseline.
    Sync,
    /// Ack as soon as the mutation is sealed into an in-flight journal
    /// append; per-lane commit drivers flush sealed batches on
    /// background timelines. `fsync`/`sync_all` become durability
    /// barriers that drain the caller's lanes.
    Async,
}

/// Tunable parameters of an ArkFS deployment. Defaults follow §III and
/// §IV of the paper.
#[derive(Debug, Clone)]
pub struct ArkConfig {
    /// Directory lease period (paper: 5 s).
    pub lease_period: Nanos,
    /// Grace after a dirty leader change before takeover (paper: at least
    /// one lease period, §III-E).
    pub lease_grace: Nanos,
    /// Extend the lease when an operation finds less than this much
    /// validity left.
    pub lease_renew_margin: Nanos,
    /// Data cache entry size == data object (chunk) size. Paper default:
    /// 2 MB cache entries.
    pub chunk_size: u64,
    /// Maximum number of cache entries per client.
    pub cache_entries: usize,
    /// Maximum read-ahead window (paper default: 8 MB, as in CephFS;
    /// 400 MB for the goofys comparison).
    pub max_readahead: u64,
    /// Start the window at maximum when a read begins at offset 0
    /// (§III-D optimization).
    pub readahead_full_at_zero: bool,
    /// Compound-transaction buffering window (paper: 1 s).
    pub journal_window: Nanos,
    /// Seal the running transaction after this many entries even inside
    /// the window (bounds journal object size).
    pub journal_max_entries: usize,
    /// Number of commit/checkpoint lanes; per-directory journals map to
    /// lanes by directory inode (§III-E: "statically mapped ... depending
    /// on the directory inode numbers").
    pub journal_lanes: usize,
    /// Sync vs async commit pipeline (see [`CommitMode`]).
    pub commit_mode: CommitMode,
    /// Async mode: seal the running transaction once it has buffered
    /// this long (instead of waiting out the full `journal_window`),
    /// bounding how much acked-but-unsealed work a crash can lose.
    pub async_commit_window: Nanos,
    /// Async mode: per-lane bound on in-flight sealed batches. A
    /// mutation that would seal past this bound stalls (backpressure)
    /// until the lane's oldest flight lands.
    pub async_commit_max_inflight: usize,
    /// Dentry hash buckets per directory.
    pub dentry_buckets: u64,
    /// Ceiling on partitions a hot directory may split into. Partition
    /// counts double on each split (1→2→…→max) and never exceed
    /// `dentry_buckets` (a partition owns at least one bucket).
    pub dir_partition_max: u32,
    /// Journal append rate (appends per virtual second, measured over a
    /// sliding window by the leader) above which a directory partition
    /// requests a split. `0` disables load-triggered splitting —
    /// directories still partition via `ArkClient::set_dir_partitions`.
    pub partition_split_rate: u64,
    /// Append rate below which a multi-partition directory's partition-0
    /// leader requests a merge step (halving). `0` disables auto-merge.
    pub partition_merge_rate: u64,
    /// Group commit: one sealed journal flight may carry the sealed
    /// transactions of *other* locally-led directories mapped to the
    /// same commit lane, amortizing the per-flight store round trip.
    pub group_commit: bool,
    /// Permission caching mode (§III-C): cache remote directories'
    /// permissions + lookups until lease expiry, relaxing ACL consistency.
    pub permission_cache: bool,
    /// Model per-request FUSE user↔kernel overhead and the per-component
    /// LOOKUP storm (§IV-C)?
    pub fuse_model: bool,
    /// Number of lease managers; directories (and directory partitions)
    /// shard across them by inode number, so a fleet's first touches
    /// queue at this many servers. The paper deploys one and leaves "a
    /// cluster of lease managers" as future work (§III-B): `1` is that
    /// configuration, the default of 16 is this repo's deviation from it.
    pub lease_managers: usize,
    /// Lock stripes for the client's hot shared state (led-directory
    /// table, permission cache, open-handle table, ino RNG pool).
    /// Threads operating on distinct directories/files only contend
    /// when they hash to the same stripe; `1` restores a single global
    /// lock per table (the pre-striping behavior, kept for ablation).
    pub client_lock_stripes: usize,
    /// Retry/backoff policy for transient RPC failures (timeouts and
    /// resets on a real transport; the virtual bus never produces them,
    /// so the policy is inert in simulation).
    pub net_retry: arkfs_netsim::RetryPolicy,
    /// Cost constants for the simulated cluster.
    pub spec: ClusterSpec,
}

impl Default for ArkConfig {
    fn default() -> Self {
        ArkConfig {
            lease_period: 5 * SEC,
            lease_grace: 5 * SEC,
            lease_renew_margin: SEC,
            chunk_size: 2 * 1024 * 1024,
            cache_entries: 256,
            max_readahead: 8 * 1024 * 1024,
            readahead_full_at_zero: true,
            journal_window: SEC,
            journal_max_entries: 4096,
            journal_lanes: 4,
            commit_mode: CommitMode::Async,
            async_commit_window: 100 * MSEC,
            async_commit_max_inflight: 8,
            dentry_buckets: 16,
            dir_partition_max: 8,
            partition_split_rate: 0,
            partition_merge_rate: 0,
            group_commit: true,
            permission_cache: true,
            fuse_model: true,
            lease_managers: 16,
            client_lock_stripes: 16,
            net_retry: arkfs_netsim::RetryPolicy::default(),
            spec: ClusterSpec::aws_paper(),
        }
    }
}

impl ArkConfig {
    /// Small, fast configuration for unit tests: tiny chunks so chunking
    /// paths are exercised with little data, short lease periods, and no
    /// FUSE model.
    pub fn test_tiny() -> Self {
        ArkConfig {
            lease_period: 10 * MSEC,
            lease_grace: 10 * MSEC,
            lease_renew_margin: MSEC,
            chunk_size: 64,
            cache_entries: 8,
            max_readahead: 256,
            readahead_full_at_zero: true,
            journal_window: MSEC,
            journal_max_entries: 64,
            journal_lanes: 2,
            commit_mode: CommitMode::Async,
            // Tiny in-flight bound so unit tests exercise backpressure.
            async_commit_window: MSEC / 10,
            async_commit_max_inflight: 2,
            dentry_buckets: 4,
            dir_partition_max: 4,
            partition_split_rate: 0,
            partition_merge_rate: 0,
            group_commit: true,
            permission_cache: true,
            fuse_model: false,
            lease_managers: 1,
            // Few stripes so unit tests exercise stripe collisions.
            client_lock_stripes: 4,
            net_retry: arkfs_netsim::RetryPolicy::default(),
            spec: ClusterSpec::test_tiny(),
        }
    }

    pub fn with_permission_cache(mut self, on: bool) -> Self {
        self.permission_cache = on;
        self
    }

    pub fn with_max_readahead(mut self, bytes: u64) -> Self {
        self.max_readahead = bytes;
        self
    }

    /// Zero makes every operation seal its own journal transaction —
    /// useful for crash tests that need mutations durable immediately.
    /// Sets the async seal window too (it is a tighter bound on the same
    /// trigger).
    pub fn with_journal_window(mut self, window: Nanos) -> Self {
        self.journal_window = window;
        self.async_commit_window = self.async_commit_window.min(window);
        self
    }

    /// Select the commit pipeline ([`CommitMode::Sync`] is the ablation
    /// baseline).
    pub fn with_commit_mode(mut self, mode: CommitMode) -> Self {
        self.commit_mode = mode;
        self
    }

    /// Tune the async pipeline: seal window and per-lane in-flight bound
    /// (clamped to at least 1).
    pub fn with_async_commit(mut self, window: Nanos, max_inflight: usize) -> Self {
        self.async_commit_window = window;
        self.async_commit_max_inflight = max_inflight.max(1);
        self
    }

    pub fn with_fuse_model(mut self, on: bool) -> Self {
        self.fuse_model = on;
        self
    }

    /// `1` is the paper's single lease manager (tests pin it where they
    /// count or crash "the" manager; `ablate` has a row for it).
    pub fn with_lease_managers(mut self, n: usize) -> Self {
        self.lease_managers = n.max(1);
        self
    }

    /// `1` collapses every client-side table to one global lock (the
    /// ablation baseline); the default is 16.
    pub fn with_client_lock_stripes(mut self, n: usize) -> Self {
        self.client_lock_stripes = n.max(1);
        self
    }

    /// Configure hot-directory partitioning: the split ceiling and the
    /// load-trigger thresholds (appends per virtual second; `0` leaves a
    /// trigger disabled). The ceiling clamps to at least 1.
    pub fn with_dir_partitions(mut self, max: u32, split_rate: u64, merge_rate: u64) -> Self {
        self.dir_partition_max = max.max(1);
        self.partition_split_rate = split_rate;
        self.partition_merge_rate = merge_rate;
        self
    }

    /// Toggle cross-directory group commit on shared lanes (`true` is the
    /// default; `false` is the per-directory-flight ablation baseline).
    pub fn with_group_commit(mut self, on: bool) -> Self {
        self.group_commit = on;
        self
    }

    pub fn with_lease_period(mut self, period: Nanos, grace: Nanos) -> Self {
        self.lease_period = period;
        self.lease_grace = grace;
        self.lease_renew_margin = (period / 8).max(1);
        self
    }

    /// Number of chunks a file of `size` bytes occupies.
    pub fn chunk_count(&self, size: u64) -> u64 {
        size.div_ceil(self.chunk_size)
    }

    /// Split a byte offset into (chunk index, offset within chunk).
    pub fn chunk_of(&self, offset: u64) -> (u64, u64) {
        (offset / self.chunk_size, offset % self.chunk_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ArkConfig::default();
        assert_eq!(c.lease_period, 5 * SEC);
        assert_eq!(c.chunk_size, 2 * 1024 * 1024);
        assert_eq!(c.max_readahead, 8 * 1024 * 1024);
        assert_eq!(c.journal_window, SEC);
        assert!(c.permission_cache);
    }

    #[test]
    fn chunk_math() {
        let c = ArkConfig::test_tiny(); // 64-byte chunks
        assert_eq!(c.chunk_count(0), 0);
        assert_eq!(c.chunk_count(1), 1);
        assert_eq!(c.chunk_count(64), 1);
        assert_eq!(c.chunk_count(65), 2);
        assert_eq!(c.chunk_of(0), (0, 0));
        assert_eq!(c.chunk_of(63), (0, 63));
        assert_eq!(c.chunk_of(64), (1, 0));
        assert_eq!(c.chunk_of(130), (2, 2));
    }

    #[test]
    fn builders() {
        let c = ArkConfig::default()
            .with_permission_cache(false)
            .with_max_readahead(400 * 1024 * 1024);
        assert!(!c.permission_cache);
        assert_eq!(c.max_readahead, 400 * 1024 * 1024);
    }

    #[test]
    fn commit_mode_builders() {
        let c = ArkConfig::default();
        assert_eq!(c.commit_mode, CommitMode::Async);
        let c = c.with_commit_mode(CommitMode::Sync).with_async_commit(7, 0);
        assert_eq!(c.commit_mode, CommitMode::Sync);
        assert_eq!(c.async_commit_window, 7);
        assert_eq!(
            c.async_commit_max_inflight, 1,
            "in-flight bound clamps to 1"
        );
        // A zero journal window drags the async seal window down with it.
        let c = ArkConfig::default().with_journal_window(0);
        assert_eq!(c.async_commit_window, 0);
    }

    #[test]
    fn partition_builders() {
        let c = ArkConfig::default();
        assert_eq!(c.dir_partition_max, 8);
        assert_eq!(c.partition_split_rate, 0);
        assert!(c.group_commit);
        let c = c
            .with_dir_partitions(0, 50_000, 1_000)
            .with_group_commit(false);
        assert_eq!(c.dir_partition_max, 1, "ceiling clamps to 1");
        assert_eq!(c.partition_split_rate, 50_000);
        assert_eq!(c.partition_merge_rate, 1_000);
        assert!(!c.group_commit);
    }
}
