//! On-store metadata records: inodes and dentry buckets.
//!
//! "We need to keep not only the file data but also the file metadata,
//! including inodes and directory entries, in the form of objects" (§II-C).

use crate::wire::{wire_struct, Decoder, Encoder, WireCodec, WireError, WireResult};
use arkfs_vfs::{Acl, AclEntry, AclQualifier, FileType, Ino, Nanos, Stat};

/// Current record format version.
pub const META_VERSION: u8 = 1;

/// An inode as stored in an `i<ino>` object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InodeRecord {
    pub ino: Ino,
    pub ftype: FileType,
    pub mode: u32,
    pub uid: u32,
    pub gid: u32,
    pub nlink: u32,
    pub size: u64,
    pub atime: Nanos,
    pub mtime: Nanos,
    pub ctime: Nanos,
    pub acl: Acl,
    /// Symlink target (empty for other types).
    pub symlink_target: String,
}

impl InodeRecord {
    /// A fresh inode with the given identity.
    pub fn new(ino: Ino, ftype: FileType, mode: u32, uid: u32, gid: u32, now: Nanos) -> Self {
        InodeRecord {
            ino,
            ftype,
            mode: mode & 0o7777,
            uid,
            gid,
            nlink: if ftype == FileType::Directory { 2 } else { 1 },
            size: 0,
            atime: now,
            mtime: now,
            ctime: now,
            acl: Acl::default(),
            symlink_target: String::new(),
        }
    }

    pub fn to_stat(&self) -> Stat {
        Stat {
            ino: self.ino,
            ftype: self.ftype,
            mode: self.mode,
            uid: self.uid,
            gid: self.gid,
            nlink: self.nlink,
            size: self.size,
            atime: self.atime,
            mtime: self.mtime,
            ctime: self.ctime,
        }
    }
}

pub(crate) fn encode_acl(acl: &Acl, enc: &mut Encoder) {
    enc.put_u32(acl.entries.len() as u32);
    for e in &acl.entries {
        match e.qualifier {
            AclQualifier::User(uid) => {
                enc.put_u8(0);
                enc.put_u32(uid);
            }
            AclQualifier::Group(gid) => {
                enc.put_u8(1);
                enc.put_u32(gid);
            }
            AclQualifier::Mask => {
                enc.put_u8(2);
                enc.put_u32(0);
            }
        }
        enc.put_u8(e.perms);
    }
}

pub(crate) fn decode_acl(dec: &mut Decoder<'_>) -> WireResult<Acl> {
    let n = dec.get_u32()? as usize;
    let mut entries = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let tag = dec.get_u8()?;
        let id = dec.get_u32()?;
        let perms = dec.get_u8()?;
        let qualifier = match tag {
            0 => AclQualifier::User(id),
            1 => AclQualifier::Group(id),
            2 => AclQualifier::Mask,
            _ => return Err(WireError::Invalid("acl qualifier")),
        };
        entries.push(AclEntry {
            qualifier,
            perms: perms & 0o7,
        });
    }
    Ok(Acl::new(entries))
}

impl WireCodec for InodeRecord {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(META_VERSION);
        enc.put_u128(self.ino);
        enc.put_u8(self.ftype.as_u8());
        enc.put_u32(self.mode);
        enc.put_u32(self.uid);
        enc.put_u32(self.gid);
        enc.put_u32(self.nlink);
        enc.put_u64(self.size);
        enc.put_u64(self.atime);
        enc.put_u64(self.mtime);
        enc.put_u64(self.ctime);
        encode_acl(&self.acl, enc);
        enc.put_str(&self.symlink_target);
    }

    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        let v = dec.get_u8()?;
        if v != META_VERSION {
            return Err(WireError::BadVersion(v));
        }
        Ok(InodeRecord {
            ino: dec.get_u128()?,
            ftype: FileType::from_u8(dec.get_u8()?).ok_or(WireError::Invalid("ftype"))?,
            mode: dec.get_u32()?,
            uid: dec.get_u32()?,
            gid: dec.get_u32()?,
            nlink: dec.get_u32()?,
            size: dec.get_u64()?,
            atime: dec.get_u64()?,
            mtime: dec.get_u64()?,
            ctime: dec.get_u64()?,
            acl: decode_acl(dec)?,
            symlink_target: dec.get_str()?.to_string(),
        })
    }
}

/// One directory entry inside a dentry bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DentryEntry {
    pub name: String,
    pub ino: Ino,
    pub ftype: FileType,
}

wire_struct!(DentryEntry { name, ino, ftype });

/// One hash bucket of a directory's entries, stored in `e<dir>.<bucket>`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DentryBlock {
    pub entries: Vec<DentryEntry>,
}

impl WireCodec for DentryBlock {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(META_VERSION);
        self.entries.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        let v = dec.get_u8()?;
        if v != META_VERSION {
            return Err(WireError::BadVersion(v));
        }
        Ok(DentryBlock {
            entries: Vec::decode(dec)?,
        })
    }
}

/// Stable bucket selection for a name (FNV-1a).
pub fn dentry_bucket(name: &str, buckets: u64) -> u64 {
    debug_assert!(buckets > 0);
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h % buckets
}

#[cfg(test)]
mod tests {
    use super::*;
    use arkfs_vfs::Credentials;

    fn sample_inode() -> InodeRecord {
        let mut rec = InodeRecord::new(0xDEADBEEF, FileType::Regular, 0o644, 10, 20, 1234);
        rec.size = 4096;
        rec.acl = Acl::new(vec![
            AclEntry::user(42, 0o6),
            AclEntry::group(30, 0o4),
            AclEntry::mask(0o6),
        ]);
        rec
    }

    #[test]
    fn inode_roundtrip() {
        let rec = sample_inode();
        let decoded = InodeRecord::from_bytes(&rec.to_bytes()).unwrap();
        assert_eq!(decoded, rec);
    }

    #[test]
    fn symlink_roundtrip() {
        let mut rec = InodeRecord::new(5, FileType::Symlink, 0o777, 0, 0, 0);
        rec.symlink_target = "/target/elsewhere".to_string();
        let decoded = InodeRecord::from_bytes(&rec.to_bytes()).unwrap();
        assert_eq!(decoded.symlink_target, "/target/elsewhere");
    }

    #[test]
    fn new_inode_defaults() {
        let f = InodeRecord::new(1, FileType::Regular, 0o644, 1, 2, 9);
        assert_eq!(f.nlink, 1);
        let d = InodeRecord::new(2, FileType::Directory, 0o755, 1, 2, 9);
        assert_eq!(d.nlink, 2);
        // mode is clamped to permission bits
        let m = InodeRecord::new(3, FileType::Regular, 0o170644, 1, 2, 9);
        assert_eq!(m.mode, 0o644);
    }

    #[test]
    fn to_stat_copies_fields() {
        let rec = sample_inode();
        let st = rec.to_stat();
        assert_eq!(st.ino, rec.ino);
        assert_eq!(st.size, 4096);
        assert_eq!(st.uid, 10);
        assert_eq!(st.mode, 0o644);
    }

    #[test]
    fn acl_survives_roundtrip_and_still_evaluates() {
        let rec = sample_inode();
        let decoded = InodeRecord::from_bytes(&rec.to_bytes()).unwrap();
        let creds = Credentials::user(42);
        assert_eq!(
            decoded
                .acl
                .effective_perms(&creds, rec.uid, rec.gid, rec.mode),
            Some(0o6)
        );
    }

    #[test]
    fn dentry_block_roundtrip() {
        let block = DentryBlock {
            entries: vec![
                DentryEntry {
                    name: "foo.txt".into(),
                    ino: 11,
                    ftype: FileType::Regular,
                },
                DentryEntry {
                    name: "doc".into(),
                    ino: 20,
                    ftype: FileType::Directory,
                },
                DentryEntry {
                    name: "ln".into(),
                    ino: 30,
                    ftype: FileType::Symlink,
                },
            ],
        };
        let decoded = DentryBlock::from_bytes(&block.to_bytes()).unwrap();
        assert_eq!(decoded, block);
    }

    #[test]
    fn empty_dentry_block_roundtrip() {
        let block = DentryBlock::default();
        assert_eq!(DentryBlock::from_bytes(&block.to_bytes()).unwrap(), block);
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = sample_inode().to_bytes();
        bytes[0] = 99;
        assert_eq!(
            InodeRecord::from_bytes(&bytes),
            Err(WireError::BadVersion(99))
        );
    }

    #[test]
    fn corrupt_ftype_rejected() {
        let rec = InodeRecord::new(1, FileType::Regular, 0o644, 0, 0, 0);
        let mut bytes = rec.to_bytes();
        bytes[17] = 9; // ftype byte after version + ino
        assert_eq!(
            InodeRecord::from_bytes(&bytes),
            Err(WireError::Invalid("ftype"))
        );
    }

    #[test]
    fn buckets_are_stable_and_spread() {
        assert_eq!(dentry_bucket("hello", 16), dentry_bucket("hello", 16));
        let mut seen = arkfs_simkit::hash::HashSet::default();
        for i in 0..100 {
            seen.insert(dentry_bucket(&format!("file{i}"), 16));
        }
        assert!(seen.len() > 8);
        assert!(seen.iter().all(|&b| b < 16));
    }
}
