//! Object key model — the PRT module's key construction scheme (§III-F).
//!
//! "ArkFS uses 128-bit UUID for its inode number and constructs the key of
//! each object by concatenating a pre-defined prefix and the inode number.
//! A pre-defined prefix for metadata would be one of `i` (INODE), `e`
//! (DENTRY) or `j` (JOURNAL). [...] To store file data as an object, its
//! key is constructed by combining the prefix `d` (DATA) and the index
//! value of the data."
//!
//! Dentry buckets and journal sequence numbers reuse the same index slot.

use std::fmt;

/// The pre-defined key prefixes of the PRT module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KeyKind {
    /// `i` — an inode record.
    Inode,
    /// `e` — a dentry bucket of a directory.
    Dentry,
    /// `j` — one sealed journal transaction of a directory.
    Journal,
    /// `d` — one data chunk of a file.
    Data,
}

impl KeyKind {
    pub fn prefix(self) -> char {
        match self {
            KeyKind::Inode => 'i',
            KeyKind::Dentry => 'e',
            KeyKind::Journal => 'j',
            KeyKind::Data => 'd',
        }
    }
}

/// A fully-qualified object key: kind + inode UUID + index.
///
/// The index is the data chunk index for `d` keys, the bucket number for
/// `e` keys, and the transaction sequence number for `j` keys; it is 0 for
/// `i` keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectKey {
    pub kind: KeyKind,
    pub ino: u128,
    pub index: u64,
}

impl ObjectKey {
    pub fn inode(ino: u128) -> Self {
        ObjectKey {
            kind: KeyKind::Inode,
            ino,
            index: 0,
        }
    }

    pub fn dentry_bucket(ino: u128, bucket: u64) -> Self {
        ObjectKey {
            kind: KeyKind::Dentry,
            ino,
            index: bucket,
        }
    }

    pub fn journal(ino: u128, seq: u64) -> Self {
        ObjectKey {
            kind: KeyKind::Journal,
            ino,
            index: seq,
        }
    }

    pub fn data_chunk(ino: u128, chunk: u64) -> Self {
        ObjectKey {
            kind: KeyKind::Data,
            ino,
            index: chunk,
        }
    }

    /// Stable shard selection for this key. Data and journal chunks of the
    /// same inode spread across shards by index; the inode record and its
    /// dentry buckets colocate with bucket spreading.
    pub fn shard(&self, shards: usize) -> usize {
        debug_assert!(shards > 0);
        // FNV-1a over the key fields: cheap, well-spread, deterministic.
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        };
        mix(self.kind.prefix() as u8);
        for b in self.ino.to_le_bytes() {
            mix(b);
        }
        for b in self.index.to_le_bytes() {
            mix(b);
        }
        (h % shards as u64) as usize
    }
}

impl fmt::Display for ObjectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.kind == KeyKind::Inode {
            write!(f, "{}{:032x}", self.kind.prefix(), self.ino)
        } else {
            write!(f, "{}{:032x}.{}", self.kind.prefix(), self.ino, self.index)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_format_matches_paper_scheme() {
        let k = ObjectKey::inode(0xABCD);
        assert_eq!(k.to_string(), format!("i{:032x}", 0xABCDu32));
        let d = ObjectKey::data_chunk(7, 42);
        assert!(d.to_string().starts_with('d'));
        assert!(d.to_string().ends_with(".42"));
    }

    #[test]
    fn shards_are_stable_and_in_range() {
        let k = ObjectKey::data_chunk(99, 5);
        let s1 = k.shard(16);
        let s2 = k.shard(16);
        assert_eq!(s1, s2);
        assert!(s1 < 16);
    }

    #[test]
    fn shards_spread_chunks() {
        // 256 chunks of one file should not all land on one of 16 shards.
        let mut seen = arkfs_simkit::hash::HashSet::default();
        for c in 0..256 {
            seen.insert(ObjectKey::data_chunk(1, c).shard(16));
        }
        assert!(seen.len() > 8, "poor spread: {seen:?}");
    }

    /// The workspace hasher on the store's map key, pinned like its
    /// other golden values in `arkfs_simkit::hash`.
    #[test]
    fn fixed_hash_of_a_key() {
        use std::hash::BuildHasher;
        let state = arkfs_simkit::hash::FixedState::default();
        assert_eq!(
            state.hash_one(ObjectKey::data_chunk(99, 5)),
            3_818_645_720_767_751_081
        );
    }
}
