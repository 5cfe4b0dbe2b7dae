//! Partitioned-directory support: hash-splitting one hot directory's
//! dentry buckets across `P` independent leaders.
//!
//! A directory starts as a single partition (the directory's own inode
//! number keys its lease, journal stream, and commit lane, exactly as
//! before). It splits or merges only when
//! `ArkClient::set_dir_partitions` asks, up to one partition per dentry
//! bucket (`ArkConfig::dentry_buckets`): each
//! partition `p` owns a contiguous range of the directory's dentry
//! buckets and is keyed by a derived *partition inode* so all the
//! existing per-directory machinery — lease manager entries, journal
//! object naming (`j<pkey>.<seq>`), takeover recovery, commit-lane
//! selection — applies per partition with no new object kinds.
//!
//! The map itself is tiny (`dir`, `epoch`, partition count) and lives in
//! a reserved dentry-bucket slot (`e<dir>.<u64::MAX>`) so `rmdir`'s
//! bucket sweep deletes it for free and an absent map means "one
//! partition" (full backward compatibility with stores written before
//! this scheme existed).

use crate::wire::{Decoder, Encoder, WireCodec, WireError, WireResult};
use arkfs_vfs::Ino;

/// Record format version of the on-store partition map.
pub const PARTITION_VERSION: u8 = 1;

/// Reserved dentry-bucket index that stores the partition map object.
/// Real buckets are `0..dentry_buckets` (never anywhere near this).
pub const PMAP_BUCKET: u64 = u64::MAX;

/// Large odd salt for deriving partition keys; odd so multiples never
/// collide modulo 2^128, and large so derived keys land far away from
/// the dense low inode space `fresh_ino` allocates from.
const PARTITION_SALT: u128 = 0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_1B9B;

/// The key under which partition `p` of directory `dir` leases, journals
/// and checkpoints. Partition 0 is ALWAYS the directory's real inode, so
/// an unpartitioned directory (P = 1) is byte-identical to the
/// pre-partitioning layout and every old store replays unchanged.
pub fn partition_ino(dir: Ino, partition: u32) -> Ino {
    if partition == 0 {
        dir
    } else {
        dir ^ PARTITION_SALT.wrapping_mul(partition as u128)
    }
}

/// First owned bucket of partition `p` (balanced contiguous split).
pub fn partition_lo(p: u32, buckets: u64, partitions: u32) -> u64 {
    (p as u128 * buckets as u128 / partitions.max(1) as u128) as u64
}

/// One-past-last owned bucket of partition `p`.
pub fn partition_hi(p: u32, buckets: u64, partitions: u32) -> u64 {
    partition_lo(p + 1, buckets, partitions)
}

/// The partition owning `bucket` under a balanced contiguous split of
/// `buckets` buckets across `partitions` leaders (inverse of
/// [`partition_lo`]).
pub fn partition_of_bucket(bucket: u64, buckets: u64, partitions: u32) -> u32 {
    debug_assert!(bucket < buckets);
    let p = partitions.max(1) as u128;
    ((bucket as u128 * p + p - 1) / buckets.max(1) as u128) as u32
}

/// The partition serving `file`'s read/write leases. File-lease traffic
/// shards by file ino, which (unlike the name) is stable across renames:
/// every request for one file meets at one partition, while a hot
/// directory's lease traffic spreads over all of its leaders.
pub fn lease_partition(file: Ino, partitions: u32) -> u32 {
    (file % partitions.max(1) as u128) as u32
}

/// Steer a freshly drawn inode number so that [`lease_partition`] of the
/// result is `partition`: the file's lease shard then equals its name's
/// partition and one leader can create the file and grant its first
/// lease in a single RPC. Identity when `partitions <= 1`. The caller
/// draws `raw` at least `partitions` below `Ino::MAX`.
pub fn steer_ino(raw: Ino, partitions: u32, partition: u32) -> Ino {
    let p = partitions.max(1) as u128;
    raw - raw % p + partition as u128
}

/// What decides which partition of its directory serves an operation
/// (`OpBody::route`). The rule is stated once, here, and evaluated
/// twice: the caller picks [`PartitionMap::partition_of`] the key, the
/// leader serves only what its table
/// [`owns`](crate::metatable::Metatable::owns). An unpartitioned
/// directory is the same rule with one partition: every key lands on,
/// and is owned by, partition 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteKey<'a> {
    /// The partition whose bucket range holds the name's dentry bucket.
    Name(&'a str),
    /// Two names one partition must both own (same-directory rename);
    /// routes by the first. No partition owns a pair that straddles
    /// two, so the client sends such a rename down the 2PC path.
    Names(&'a str, &'a str),
    /// The file's lease shard ([`lease_partition`]).
    File(Ino),
    /// An explicitly addressed partition (readdir slices, barriers,
    /// handoffs). The pkey formula does not depend on the count, so the
    /// index stays meaningful under a stale map.
    Partition(u32),
    /// Directory-level state (inode, attributes, view): partition 0.
    Dir,
}

/// The on-store partition map of one directory. Absent object = one
/// partition. `epoch` increments on every split/merge install, purely
/// for observability and staleness diagnostics — correctness comes from
/// leaders validating bucket ownership against their own loaded range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionMap {
    pub dir: Ino,
    pub epoch: u64,
    pub partitions: u32,
}

impl PartitionMap {
    /// The implicit map of a directory with no stored map object.
    pub fn singleton(dir: Ino) -> Self {
        PartitionMap {
            dir,
            epoch: 0,
            partitions: 1,
        }
    }

    /// The lease/journal key of partition `p`.
    pub fn pkey(&self, p: u32) -> Ino {
        partition_ino(self.dir, p)
    }

    /// The partition owning `name` given the directory's bucket count.
    pub fn partition_of_name(&self, name: &str, buckets: u64) -> u32 {
        partition_of_bucket(
            crate::meta::dentry_bucket(name, buckets),
            buckets,
            self.partitions,
        )
    }

    /// The partition an operation keyed by `key` routes to.
    pub fn partition_of(&self, key: RouteKey<'_>, buckets: u64) -> u32 {
        match key {
            RouteKey::Name(name) | RouteKey::Names(name, _) => {
                self.partition_of_name(name, buckets)
            }
            RouteKey::File(file) => lease_partition(file, self.partitions),
            RouteKey::Partition(p) => p,
            RouteKey::Dir => 0,
        }
    }

    /// Is the partition owning `name` also `file`'s lease shard? Then
    /// one leader holds both the dentry and the lease, and a message
    /// routed by `name` may carry lease work for `file`. Always true of
    /// an unpartitioned directory; [`steer_ino`] makes it true of a file
    /// created under this map.
    pub fn colocated(&self, name: &str, file: Ino, buckets: u64) -> bool {
        self.partition_of_name(name, buckets) == lease_partition(file, self.partitions)
    }

    /// The owned bucket range `[lo, hi)` of partition `p`.
    pub fn range(&self, p: u32, buckets: u64) -> (u64, u64) {
        (
            partition_lo(p, buckets, self.partitions),
            partition_hi(p, buckets, self.partitions),
        )
    }
}

impl WireCodec for PartitionMap {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(PARTITION_VERSION);
        enc.put_u128(self.dir);
        enc.put_u64(self.epoch);
        enc.put_u32(self.partitions);
    }

    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        let v = dec.get_u8()?;
        if v != PARTITION_VERSION {
            return Err(WireError::BadVersion(v));
        }
        let map = PartitionMap {
            dir: dec.get_u128()?,
            epoch: dec.get_u64()?,
            partitions: dec.get_u32()?,
        };
        if map.partitions == 0 {
            return Err(WireError::Invalid("partitions"));
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_zero_is_the_directory() {
        assert_eq!(partition_ino(42, 0), 42);
        assert_ne!(partition_ino(42, 1), 42);
    }

    #[test]
    fn partition_keys_are_distinct_across_partitions_and_dirs() {
        let mut seen = arkfs_simkit::hash::HashSet::default();
        for dir in [2u128, 3, 100, 1 << 64] {
            for p in 0..8u32 {
                assert!(seen.insert(partition_ino(dir, p)), "collision {dir}/{p}");
            }
        }
    }

    #[test]
    fn ranges_tile_the_bucket_space() {
        for buckets in [1u64, 4, 5, 7, 16, 64] {
            for partitions in 1..=8u32 {
                if partitions as u64 > buckets {
                    continue;
                }
                let mut covered = 0;
                for p in 0..partitions {
                    let lo = partition_lo(p, buckets, partitions);
                    let hi = partition_hi(p, buckets, partitions);
                    assert!(lo < hi, "empty partition {p}/{partitions} of {buckets}");
                    covered += hi - lo;
                    for b in lo..hi {
                        assert_eq!(partition_of_bucket(b, buckets, partitions), p);
                    }
                }
                assert_eq!(covered, buckets);
                assert_eq!(partition_hi(partitions - 1, buckets, partitions), buckets);
            }
        }
    }

    #[test]
    fn steered_inos_lease_at_the_requested_partition() {
        for raw in [2u128, 77, 1 << 90, Ino::MAX - 8] {
            assert_eq!(steer_ino(raw, 1, 0), raw, "one partition: identity");
            for partitions in [2u32, 3, 8] {
                for p in 0..partitions {
                    let ino = steer_ino(raw, partitions, p);
                    assert_eq!(lease_partition(ino, partitions), p);
                    assert!(ino.abs_diff(raw) < partitions as u128);
                }
            }
        }
    }

    #[test]
    fn steered_inos_are_colocated_with_their_name() {
        let map = PartitionMap {
            dir: 7,
            epoch: 1,
            partitions: 4,
        };
        let raw: Ino = 1 << 70;
        for i in 0..32 {
            let name = format!("f{i}");
            let p = map.partition_of_name(&name, 16);
            assert!(map.colocated(&name, steer_ino(raw, 4, p), 16));
            assert!(!map.colocated(&name, steer_ino(raw, 4, (p + 1) % 4), 16));
            assert!(PartitionMap::singleton(7).colocated(&name, raw + i, 16));
        }
    }

    #[test]
    fn name_routing_matches_bucket_routing() {
        let map = PartitionMap {
            dir: 7,
            epoch: 3,
            partitions: 4,
        };
        for i in 0..200 {
            let name = format!("f{i}");
            let b = crate::meta::dentry_bucket(&name, 16);
            assert_eq!(
                map.partition_of_name(&name, 16),
                partition_of_bucket(b, 16, 4)
            );
        }
    }

    #[test]
    fn map_roundtrip_and_validation() {
        let map = PartitionMap {
            dir: 0xFEED,
            epoch: 12,
            partitions: 8,
        };
        assert_eq!(PartitionMap::from_bytes(&map.to_bytes()).unwrap(), map);
        let mut bad = map.to_bytes();
        bad[0] = 99;
        assert_eq!(
            PartitionMap::from_bytes(&bad),
            Err(WireError::BadVersion(99))
        );
        let zero = PartitionMap {
            partitions: 0,
            ..map
        }
        .to_bytes();
        assert_eq!(
            PartitionMap::from_bytes(&zero),
            Err(WireError::Invalid("partitions"))
        );
    }

    #[test]
    fn singleton_is_identity() {
        let map = PartitionMap::singleton(9);
        assert_eq!(map.partitions, 1);
        assert_eq!(map.pkey(0), 9);
        assert_eq!(map.range(0, 16), (0, 16));
    }
}
