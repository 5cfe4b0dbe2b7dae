//! ArkFS configuration knobs.

use arkfs_simkit::{ClusterSpec, Nanos, MSEC, SEC};

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
    /// Compound-transaction buffering window (§III-E): the running
    /// transaction seals once it has buffered this long, bounding how
    /// much acked-but-unsealed work a crash can lose. The paper uses 1 s;
    /// the default here is 100 ms.
    pub journal_window: Nanos,
    /// Seal the running transaction after this many entries even inside
    /// the window (bounds journal object size).
    pub journal_max_entries: usize,
    /// Number of commit/checkpoint lanes; per-directory journals map to
    /// lanes by directory inode (§III-E: "statically mapped ... depending
    /// on the directory inode numbers").
    pub journal_lanes: usize,
    /// Per-lane bound on in-flight sealed batches. Mutations are acked
    /// once sealed into the pipeline; `fsync`/`sync_all` are the
    /// durability barriers that drain it. A mutation that would seal past
    /// this bound stalls (backpressure) until the lane's oldest flight
    /// lands.
    pub async_commit_max_inflight: usize,
    /// Dentry hash buckets per directory. Also the ceiling on a
    /// directory's partition count (`ArkClient::set_dir_partitions`): a
    /// partition owns at least one bucket.
    pub dentry_buckets: u64,
    /// Permission caching mode (§III-C): cache remote directories'
    /// permissions + lookups until lease expiry, relaxing ACL consistency.
    pub permission_cache: bool,
    /// Number of lease managers; directories (and directory partitions)
    /// shard across them by inode number, so a fleet's first touches
    /// queue at this many servers. The paper deploys one and leaves "a
    /// cluster of lease managers" as future work (§III-B): `1` is that
    /// configuration, the default of 16 is this repo's deviation from it.
    pub lease_managers: usize,
    /// Cost constants for the simulated cluster. `fuse_op_cost` is the
    /// per-request FUSE user↔kernel overhead (§IV-C); 0 models none.
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
            journal_window: 100 * MSEC,
            journal_max_entries: 4096,
            journal_lanes: 4,
            async_commit_max_inflight: 8,
            dentry_buckets: 16,
            permission_cache: true,
            lease_managers: 16,
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
            journal_window: MSEC / 10,
            journal_max_entries: 64,
            journal_lanes: 2,
            // Tiny in-flight bound so unit tests exercise backpressure.
            async_commit_max_inflight: 2,
            dentry_buckets: 4,
            permission_cache: true,
            lease_managers: 1,
            spec: ClusterSpec {
                fuse_op_cost: 0,
                ..ClusterSpec::test_tiny()
            },
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
    pub fn with_journal_window(mut self, window: Nanos) -> Self {
        self.journal_window = window;
        self
    }

    /// Per-lane bound on in-flight sealed batches (clamped to at least 1).
    pub fn with_commit_inflight(mut self, max_inflight: usize) -> Self {
        self.async_commit_max_inflight = max_inflight.max(1);
        self
    }

    /// `1` is the paper's single lease manager (tests pin it where they
    /// count or crash "the" manager; `ablate` has a row for it).
    pub fn with_lease_managers(mut self, n: usize) -> Self {
        self.lease_managers = n.max(1);
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
        assert_eq!(c.journal_window, 100 * MSEC, "the paper's is 1 s");
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
    fn commit_builders() {
        let c = ArkConfig::default()
            .with_journal_window(7)
            .with_commit_inflight(0);
        assert_eq!(c.journal_window, 7);
        assert_eq!(
            c.async_commit_max_inflight, 1,
            "in-flight bound clamps to 1"
        );
    }

    #[test]
    fn partition_builders() {
        // The bucket count is the partition ceiling: fig8 pins 8
        // partitions on the default configuration.
        assert!(ArkConfig::default().dentry_buckets >= 8);
    }
}
