//! Versioned little-endian wire codec for ArkFS metadata objects.
//!
//! The PRT module "defines specifications for how file system-related
//! information is stored in the key-value pair" (§III-F). Records are
//! encoded with an explicit, deterministic layout — no external
//! serializer — and journal transactions carry a CRC32 so recovery can
//! tell valid transactions from torn ones.

use std::fmt;

/// Codec failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Buffer ended before the value was complete.
    Truncated,
    /// Unknown enum discriminant or invalid value.
    Invalid(&'static str),
    /// Record version newer than this implementation understands.
    BadVersion(u8),
    /// Checksum mismatch (torn or corrupt journal transaction).
    BadChecksum,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated record"),
            WireError::Invalid(what) => write!(f, "invalid field: {what}"),
            WireError::BadVersion(v) => write!(f, "unsupported record version {v}"),
            WireError::BadChecksum => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for WireError {}

pub type WireResult<T> = Result<T, WireError>;

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Length-prefixed byte string (u32 length).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Raw access for checksumming.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Cursor-based decoder over a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u16(&mut self) -> WireResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn get_u32(&mut self) -> WireResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self) -> WireResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_u128(&mut self) -> WireResult<u128> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    pub fn get_bool(&mut self) -> WireResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid("bool")),
        }
    }

    pub fn get_bytes(&mut self) -> WireResult<&'a [u8]> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    pub fn get_str(&mut self) -> WireResult<&'a str> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| WireError::Invalid("utf8"))
    }
}

/// A type with a stable wire representation.
pub trait WireCodec: Sized {
    fn encode(&self, enc: &mut Encoder);
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self>;

    fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.into_bytes()
    }

    fn from_bytes(buf: &[u8]) -> WireResult<Self> {
        let mut dec = Decoder::new(buf);
        let v = Self::decode(&mut dec)?;
        Ok(v)
    }
}

/// The RPC envelope's causal trace context has a stable wire shape so
/// the future real-transport mode (ROADMAP item 4) propagates it
/// unchanged: `trace_id:u64, parent_span:u64, flags:u8`.
impl WireCodec for arkfs_telemetry::TraceCtx {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.trace_id);
        enc.put_u64(self.parent_span);
        enc.put_u8(self.flags);
    }

    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(arkfs_telemetry::TraceCtx {
            trace_id: dec.get_u64()?,
            parent_span: dec.get_u64()?,
            flags: dec.get_u8()?,
        })
    }
}

/// Encode a value as a transport frame payload: the wire body followed
/// by a CRC32 of the body, so a receiving transport can reject corrupt
/// or torn frames before interpreting them.
pub fn to_frame<T: WireCodec>(v: &T) -> Vec<u8> {
    let mut enc = Encoder::new();
    v.encode(&mut enc);
    let crc = crc32(enc.as_slice());
    enc.put_u32(crc);
    enc.into_bytes()
}

/// Decode a [`to_frame`] payload: verify the trailing CRC32, decode the
/// body, and require the decoder to consume it exactly.
pub fn from_frame<T: WireCodec>(buf: &[u8]) -> WireResult<T> {
    if buf.len() < 4 {
        return Err(WireError::Truncated);
    }
    let (body, crc_bytes) = buf.split_at(buf.len() - 4);
    let expect = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(body) != expect {
        return Err(WireError::BadChecksum);
    }
    let mut dec = Decoder::new(body);
    let v = T::decode(&mut dec)?;
    if !dec.is_exhausted() {
        return Err(WireError::Invalid("trailing bytes"));
    }
    Ok(v)
}

/// Deduplicating leak for decoding `&'static str` enum payloads
/// ([`FsError::Unsupported`] and friends). Each distinct string leaks
/// once, ever; repeats return the existing allocation. The set of such
/// strings in the protocol is a small fixed vocabulary, so the leak is
/// bounded in practice, and [`MAX_INTERN_LEN`] bounds each entry against
/// a hostile frame.
pub(crate) fn intern(s: &str) -> WireResult<&'static str> {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};
    const MAX_INTERN_LEN: usize = 256;
    if s.len() > MAX_INTERN_LEN {
        return Err(WireError::Invalid("interned string too long"));
    }
    static TABLE: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(HashSet::new()));
    let mut set = table.lock().unwrap();
    if let Some(&existing) = set.get(s) {
        return Ok(existing);
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    set.insert(leaked);
    Ok(leaked)
}

/// Slice-by-8 lookup tables for [`crc32`]: `CRC_TABLES[0]` is the classic
/// byte-at-a-time table of the reflected polynomial `0xEDB88320`;
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, reflected) over every transport frame and journal
/// transaction. Slice-by-8: eight table lookups fold eight input bytes
/// per step; the tail goes byte by byte.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

// ===== RPC envelope codecs =====
//
// Stable tagged layouts for everything that crosses a transport: the
// forwarded-operation protocol (`OpRequest`/`OpResponse`), the lease
// protocol, and their leaf types. Tags are append-only: new variants
// take the next free tag; old tags never change meaning.

mod envelope {
    use super::*;
    use crate::meta::{decode_acl, encode_acl, InodeRecord};
    use crate::rpc::{OpBody, OpRequest, OpResponse};
    use arkfs_lease::{FileLeaseDecision, LeaseRequest, LeaseResponse};
    use arkfs_netsim::NodeId;
    use arkfs_vfs::{Credentials, DirEntry, FileType, FsError, SetAttr};

    /// Caps decoded collection sizes; a hostile length prefix must not
    /// cause a giant allocation before `Truncated` is detected.
    const MAX_VEC: usize = 1 << 16;

    fn put_opt_u64(enc: &mut Encoder, v: Option<u64>) {
        match v {
            Some(x) => {
                enc.put_bool(true);
                enc.put_u64(x);
            }
            None => enc.put_bool(false),
        }
    }

    fn get_opt_u64(dec: &mut Decoder<'_>) -> WireResult<Option<u64>> {
        Ok(if dec.get_bool()? {
            Some(dec.get_u64()?)
        } else {
            None
        })
    }

    fn put_opt_u32(enc: &mut Encoder, v: Option<u32>) {
        match v {
            Some(x) => {
                enc.put_bool(true);
                enc.put_u32(x);
            }
            None => enc.put_bool(false),
        }
    }

    fn get_opt_u32(dec: &mut Decoder<'_>) -> WireResult<Option<u32>> {
        Ok(if dec.get_bool()? {
            Some(dec.get_u32()?)
        } else {
            None
        })
    }

    fn put_opt_rec(enc: &mut Encoder, rec: &Option<InodeRecord>) {
        match rec {
            Some(r) => {
                enc.put_bool(true);
                r.encode(enc);
            }
            None => enc.put_bool(false),
        }
    }

    fn get_opt_rec(dec: &mut Decoder<'_>) -> WireResult<Option<InodeRecord>> {
        Ok(if dec.get_bool()? {
            Some(InodeRecord::decode(dec)?)
        } else {
            None
        })
    }

    fn checked_len(dec: &mut Decoder<'_>) -> WireResult<usize> {
        let n = dec.get_u32()? as usize;
        if n > MAX_VEC {
            return Err(WireError::Invalid("collection too large"));
        }
        Ok(n)
    }

    impl WireCodec for NodeId {
        fn encode(&self, enc: &mut Encoder) {
            enc.put_u32(self.0);
        }
        fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
            Ok(NodeId(dec.get_u32()?))
        }
    }

    impl WireCodec for Credentials {
        fn encode(&self, enc: &mut Encoder) {
            enc.put_u32(self.uid);
            enc.put_u32(self.gid);
            enc.put_u32(self.groups.len() as u32);
            for g in &self.groups {
                enc.put_u32(*g);
            }
        }
        fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
            let uid = dec.get_u32()?;
            let gid = dec.get_u32()?;
            let n = checked_len(dec)?;
            let mut groups = Vec::with_capacity(n);
            for _ in 0..n {
                groups.push(dec.get_u32()?);
            }
            Ok(Credentials { uid, gid, groups })
        }
    }

    impl WireCodec for SetAttr {
        fn encode(&self, enc: &mut Encoder) {
            put_opt_u32(enc, self.mode);
            put_opt_u32(enc, self.uid);
            put_opt_u32(enc, self.gid);
            put_opt_u64(enc, self.atime);
            put_opt_u64(enc, self.mtime);
        }
        fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
            Ok(SetAttr {
                mode: get_opt_u32(dec)?,
                uid: get_opt_u32(dec)?,
                gid: get_opt_u32(dec)?,
                atime: get_opt_u64(dec)?,
                mtime: get_opt_u64(dec)?,
            })
        }
    }

    impl WireCodec for FileType {
        fn encode(&self, enc: &mut Encoder) {
            enc.put_u8(self.as_u8());
        }
        fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
            FileType::from_u8(dec.get_u8()?).ok_or(WireError::Invalid("file type"))
        }
    }

    impl WireCodec for DirEntry {
        fn encode(&self, enc: &mut Encoder) {
            enc.put_str(&self.name);
            enc.put_u128(self.ino);
            self.ftype.encode(enc);
        }
        fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
            Ok(DirEntry {
                name: dec.get_str()?.to_owned(),
                ino: dec.get_u128()?,
                ftype: FileType::decode(dec)?,
            })
        }
    }

    impl WireCodec for FsError {
        fn encode(&self, enc: &mut Encoder) {
            match self {
                FsError::NotFound => enc.put_u8(0),
                FsError::AlreadyExists => enc.put_u8(1),
                FsError::NotADirectory => enc.put_u8(2),
                FsError::IsADirectory => enc.put_u8(3),
                FsError::NotEmpty => enc.put_u8(4),
                FsError::PermissionDenied => enc.put_u8(5),
                FsError::NotPermitted => enc.put_u8(6),
                FsError::InvalidArgument => enc.put_u8(7),
                FsError::NameTooLong => enc.put_u8(8),
                FsError::BadHandle => enc.put_u8(9),
                FsError::BadAccessMode => enc.put_u8(10),
                FsError::Stale => enc.put_u8(11),
                FsError::Busy => enc.put_u8(12),
                FsError::TimedOut => enc.put_u8(13),
                FsError::NoSpace => enc.put_u8(14),
                FsError::Io(msg) => {
                    enc.put_u8(15);
                    enc.put_str(msg);
                }
                FsError::Unsupported(what) => {
                    enc.put_u8(16);
                    enc.put_str(what);
                }
            }
        }
        fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
            Ok(match dec.get_u8()? {
                0 => FsError::NotFound,
                1 => FsError::AlreadyExists,
                2 => FsError::NotADirectory,
                3 => FsError::IsADirectory,
                4 => FsError::NotEmpty,
                5 => FsError::PermissionDenied,
                6 => FsError::NotPermitted,
                7 => FsError::InvalidArgument,
                8 => FsError::NameTooLong,
                9 => FsError::BadHandle,
                10 => FsError::BadAccessMode,
                11 => FsError::Stale,
                12 => FsError::Busy,
                13 => FsError::TimedOut,
                14 => FsError::NoSpace,
                15 => FsError::Io(dec.get_str()?.to_owned()),
                16 => FsError::Unsupported(intern(dec.get_str()?)?),
                _ => return Err(WireError::Invalid("fs error tag")),
            })
        }
    }

    impl WireCodec for FileLeaseDecision {
        fn encode(&self, enc: &mut Encoder) {
            match self {
                FileLeaseDecision::Granted { expires_at } => {
                    enc.put_u8(0);
                    enc.put_u64(*expires_at);
                }
                FileLeaseDecision::Direct {
                    flush,
                    direct_until,
                } => {
                    enc.put_u8(1);
                    enc.put_u32(flush.len() as u32);
                    for n in flush {
                        n.encode(enc);
                    }
                    enc.put_u64(*direct_until);
                }
            }
        }
        fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
            Ok(match dec.get_u8()? {
                0 => FileLeaseDecision::Granted {
                    expires_at: dec.get_u64()?,
                },
                1 => {
                    let n = checked_len(dec)?;
                    let mut flush = Vec::with_capacity(n);
                    for _ in 0..n {
                        flush.push(NodeId::decode(dec)?);
                    }
                    FileLeaseDecision::Direct {
                        flush,
                        direct_until: dec.get_u64()?,
                    }
                }
                _ => return Err(WireError::Invalid("lease decision tag")),
            })
        }
    }

    impl WireCodec for LeaseRequest {
        fn encode(&self, enc: &mut Encoder) {
            match self {
                LeaseRequest::Acquire { client, ino } => {
                    enc.put_u8(0);
                    client.encode(enc);
                    enc.put_u128(*ino);
                }
                LeaseRequest::Release { client, ino } => {
                    enc.put_u8(1);
                    client.encode(enc);
                    enc.put_u128(*ino);
                }
            }
        }
        fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
            let tag = dec.get_u8()?;
            let client = NodeId::decode(dec)?;
            let ino = dec.get_u128()?;
            Ok(match tag {
                0 => LeaseRequest::Acquire { client, ino },
                1 => LeaseRequest::Release { client, ino },
                _ => return Err(WireError::Invalid("lease request tag")),
            })
        }
    }

    impl WireCodec for LeaseResponse {
        fn encode(&self, enc: &mut Encoder) {
            match self {
                LeaseResponse::Granted {
                    expires_at,
                    must_load,
                    takeover_dirty,
                } => {
                    enc.put_u8(0);
                    enc.put_u64(*expires_at);
                    enc.put_bool(*must_load);
                    enc.put_bool(*takeover_dirty);
                }
                LeaseResponse::Redirect { leader } => {
                    enc.put_u8(1);
                    leader.encode(enc);
                }
                LeaseResponse::Retry { until } => {
                    enc.put_u8(2);
                    enc.put_u64(*until);
                }
                LeaseResponse::Released => enc.put_u8(3),
            }
        }
        fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
            Ok(match dec.get_u8()? {
                0 => LeaseResponse::Granted {
                    expires_at: dec.get_u64()?,
                    must_load: dec.get_bool()?,
                    takeover_dirty: dec.get_bool()?,
                },
                1 => LeaseResponse::Redirect {
                    leader: NodeId::decode(dec)?,
                },
                2 => LeaseResponse::Retry {
                    until: dec.get_u64()?,
                },
                3 => LeaseResponse::Released,
                _ => return Err(WireError::Invalid("lease response tag")),
            })
        }
    }

    impl WireCodec for OpBody {
        fn encode(&self, enc: &mut Encoder) {
            enc.put_u8(self.tag());
            match self {
                OpBody::Lookup { dir, name } => {
                    enc.put_u128(*dir);
                    enc.put_str(name);
                }
                OpBody::DirInode { dir } => {
                    enc.put_u128(*dir);
                }
                OpBody::Create { dir, name, rec } => {
                    enc.put_u128(*dir);
                    enc.put_str(name);
                    rec.encode(enc);
                }
                OpBody::AddSubdir { dir, name, child } => {
                    enc.put_u128(*dir);
                    enc.put_str(name);
                    enc.put_u128(*child);
                }
                OpBody::Unlink { dir, name } => {
                    enc.put_u128(*dir);
                    enc.put_str(name);
                }
                OpBody::RemoveSubdir { dir, name } => {
                    enc.put_u128(*dir);
                    enc.put_str(name);
                }
                OpBody::Readdir { dir, partition } => {
                    enc.put_u128(*dir);
                    enc.put_u32(*partition);
                }
                OpBody::SetSize {
                    dir,
                    name,
                    ino,
                    size,
                } => {
                    enc.put_u128(*dir);
                    enc.put_str(name);
                    enc.put_u128(*ino);
                    enc.put_u64(*size);
                }
                OpBody::SetAttrChild {
                    dir,
                    name,
                    ino,
                    attr,
                } => {
                    enc.put_u128(*dir);
                    enc.put_str(name);
                    enc.put_u128(*ino);
                    attr.encode(enc);
                }
                OpBody::SetAttrDir { dir, attr } => {
                    enc.put_u128(*dir);
                    attr.encode(enc);
                }
                OpBody::SetAcl {
                    dir,
                    name,
                    target,
                    acl,
                } => {
                    enc.put_u128(*dir);
                    enc.put_str(name);
                    enc.put_u128(*target);
                    encode_acl(acl, enc);
                }
                OpBody::RenameLocal { dir, from, to } => {
                    enc.put_u128(*dir);
                    enc.put_str(from);
                    enc.put_str(to);
                }
                OpBody::RenameSrcPrepare {
                    dir,
                    name,
                    txid,
                    peer,
                } => {
                    enc.put_u128(*dir);
                    enc.put_str(name);
                    enc.put_u128(*txid);
                    enc.put_u128(*peer);
                }
                OpBody::RenameDstPrepare {
                    dir,
                    name,
                    txid,
                    peer,
                    ino,
                    ftype,
                    rec,
                } => {
                    enc.put_u128(*dir);
                    enc.put_str(name);
                    enc.put_u128(*txid);
                    enc.put_u128(*peer);
                    enc.put_u128(*ino);
                    ftype.encode(enc);
                    put_opt_rec(enc, rec);
                }
                OpBody::RenameDecide {
                    dir,
                    name,
                    txid,
                    commit,
                    undo,
                } => {
                    enc.put_u128(*dir);
                    enc.put_str(name);
                    enc.put_u128(*txid);
                    enc.put_bool(*commit);
                    match undo {
                        Some((uname, uino, uftype, urec)) => {
                            enc.put_bool(true);
                            enc.put_str(uname);
                            enc.put_u128(*uino);
                            uftype.encode(enc);
                            put_opt_rec(enc, urec);
                        }
                        None => enc.put_bool(false),
                    }
                }
                OpBody::AcquireReadLease { dir, file, client } => {
                    enc.put_u128(*dir);
                    enc.put_u128(*file);
                    client.encode(enc);
                }
                OpBody::AcquireWriteLease { dir, file, client } => {
                    enc.put_u128(*dir);
                    enc.put_u128(*file);
                    client.encode(enc);
                }
                OpBody::ReleaseFileLease { dir, file, client } => {
                    enc.put_u128(*dir);
                    enc.put_u128(*file);
                    client.encode(enc);
                }
                OpBody::FlushCache { file } => {
                    enc.put_u128(*file);
                }
                OpBody::FsyncDir { dir, partition } => {
                    enc.put_u128(*dir);
                    enc.put_u32(*partition);
                }
                OpBody::RelinquishPartition { dir, partition } => {
                    enc.put_u128(*dir);
                    enc.put_u32(*partition);
                }
                OpBody::DirView { dir } => enc.put_u128(*dir),
                OpBody::CreateOpen {
                    dir,
                    name,
                    rec,
                    client,
                } => {
                    enc.put_u128(*dir);
                    enc.put_str(name);
                    rec.encode(enc);
                    client.encode(enc);
                }
            }
        }
        fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
            Ok(match dec.get_u8()? {
                0 => OpBody::Lookup {
                    dir: dec.get_u128()?,
                    name: dec.get_str()?.to_owned(),
                },
                1 => OpBody::DirInode {
                    dir: dec.get_u128()?,
                },
                2 => OpBody::Create {
                    dir: dec.get_u128()?,
                    name: dec.get_str()?.to_owned(),
                    rec: InodeRecord::decode(dec)?,
                },
                3 => OpBody::AddSubdir {
                    dir: dec.get_u128()?,
                    name: dec.get_str()?.to_owned(),
                    child: dec.get_u128()?,
                },
                4 => OpBody::Unlink {
                    dir: dec.get_u128()?,
                    name: dec.get_str()?.to_owned(),
                },
                5 => OpBody::RemoveSubdir {
                    dir: dec.get_u128()?,
                    name: dec.get_str()?.to_owned(),
                },
                6 => OpBody::Readdir {
                    dir: dec.get_u128()?,
                    partition: dec.get_u32()?,
                },
                7 => OpBody::SetSize {
                    dir: dec.get_u128()?,
                    name: dec.get_str()?.to_owned(),
                    ino: dec.get_u128()?,
                    size: dec.get_u64()?,
                },
                8 => OpBody::SetAttrChild {
                    dir: dec.get_u128()?,
                    name: dec.get_str()?.to_owned(),
                    ino: dec.get_u128()?,
                    attr: SetAttr::decode(dec)?,
                },
                9 => OpBody::SetAttrDir {
                    dir: dec.get_u128()?,
                    attr: SetAttr::decode(dec)?,
                },
                10 => OpBody::SetAcl {
                    dir: dec.get_u128()?,
                    name: dec.get_str()?.to_owned(),
                    target: dec.get_u128()?,
                    acl: decode_acl(dec)?,
                },
                11 => OpBody::RenameLocal {
                    dir: dec.get_u128()?,
                    from: dec.get_str()?.to_owned(),
                    to: dec.get_str()?.to_owned(),
                },
                12 => OpBody::RenameSrcPrepare {
                    dir: dec.get_u128()?,
                    name: dec.get_str()?.to_owned(),
                    txid: dec.get_u128()?,
                    peer: dec.get_u128()?,
                },
                13 => OpBody::RenameDstPrepare {
                    dir: dec.get_u128()?,
                    name: dec.get_str()?.to_owned(),
                    txid: dec.get_u128()?,
                    peer: dec.get_u128()?,
                    ino: dec.get_u128()?,
                    ftype: FileType::decode(dec)?,
                    rec: get_opt_rec(dec)?,
                },
                14 => OpBody::RenameDecide {
                    dir: dec.get_u128()?,
                    name: dec.get_str()?.to_owned(),
                    txid: dec.get_u128()?,
                    commit: dec.get_bool()?,
                    undo: if dec.get_bool()? {
                        Some((
                            dec.get_str()?.to_owned(),
                            dec.get_u128()?,
                            FileType::decode(dec)?,
                            get_opt_rec(dec)?,
                        ))
                    } else {
                        None
                    },
                },
                15 => OpBody::AcquireReadLease {
                    dir: dec.get_u128()?,
                    file: dec.get_u128()?,
                    client: NodeId::decode(dec)?,
                },
                16 => OpBody::AcquireWriteLease {
                    dir: dec.get_u128()?,
                    file: dec.get_u128()?,
                    client: NodeId::decode(dec)?,
                },
                17 => OpBody::ReleaseFileLease {
                    dir: dec.get_u128()?,
                    file: dec.get_u128()?,
                    client: NodeId::decode(dec)?,
                },
                18 => OpBody::FlushCache {
                    file: dec.get_u128()?,
                },
                19 => OpBody::FsyncDir {
                    dir: dec.get_u128()?,
                    partition: dec.get_u32()?,
                },
                20 => OpBody::RelinquishPartition {
                    dir: dec.get_u128()?,
                    partition: dec.get_u32()?,
                },
                21 => OpBody::DirView {
                    dir: dec.get_u128()?,
                },
                22 => OpBody::CreateOpen {
                    dir: dec.get_u128()?,
                    name: dec.get_str()?.to_owned(),
                    rec: InodeRecord::decode(dec)?,
                    client: NodeId::decode(dec)?,
                },
                _ => return Err(WireError::Invalid("op body tag")),
            })
        }
    }

    impl WireCodec for OpRequest {
        fn encode(&self, enc: &mut Encoder) {
            self.creds.encode(enc);
            self.trace.encode(enc);
            self.body.encode(enc);
        }
        fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
            Ok(OpRequest {
                creds: Credentials::decode(dec)?,
                trace: arkfs_telemetry::TraceCtx::decode(dec)?,
                body: OpBody::decode(dec)?,
            })
        }
    }

    impl WireCodec for OpResponse {
        fn encode(&self, enc: &mut Encoder) {
            match self {
                OpResponse::Entry { ino, ftype, rec } => {
                    enc.put_u8(0);
                    enc.put_u128(*ino);
                    ftype.encode(enc);
                    put_opt_rec(enc, rec);
                }
                OpResponse::Inode(rec) => {
                    enc.put_u8(1);
                    rec.encode(enc);
                }
                OpResponse::Entries {
                    entries,
                    partitions,
                } => {
                    enc.put_u8(2);
                    enc.put_u32(entries.len() as u32);
                    for e in entries {
                        e.encode(enc);
                    }
                    enc.put_u32(*partitions);
                }
                OpResponse::Detached { ino, ftype, rec } => {
                    enc.put_u8(3);
                    enc.put_u128(*ino);
                    ftype.encode(enc);
                    put_opt_rec(enc, rec);
                }
                OpResponse::Lease(d) => {
                    enc.put_u8(4);
                    d.encode(enc);
                }
                OpResponse::Flushed { size } => {
                    enc.put_u8(5);
                    put_opt_u64(enc, *size);
                }
                OpResponse::Ok => enc.put_u8(6),
                OpResponse::NotLeader => enc.put_u8(7),
                OpResponse::Err(e) => {
                    enc.put_u8(8);
                    e.encode(enc);
                }
                OpResponse::View { dir, subdirs } => {
                    enc.put_u8(9);
                    dir.encode(enc);
                    enc.put_u32(subdirs.len() as u32);
                    for e in subdirs.iter() {
                        e.encode(enc);
                    }
                }
            }
        }
        fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
            Ok(match dec.get_u8()? {
                0 => OpResponse::Entry {
                    ino: dec.get_u128()?,
                    ftype: FileType::decode(dec)?,
                    rec: get_opt_rec(dec)?,
                },
                1 => OpResponse::Inode(InodeRecord::decode(dec)?),
                2 => {
                    let n = checked_len(dec)?;
                    let mut entries = Vec::with_capacity(n);
                    for _ in 0..n {
                        entries.push(DirEntry::decode(dec)?);
                    }
                    OpResponse::Entries {
                        entries,
                        partitions: dec.get_u32()?,
                    }
                }
                3 => OpResponse::Detached {
                    ino: dec.get_u128()?,
                    ftype: FileType::decode(dec)?,
                    rec: get_opt_rec(dec)?,
                },
                4 => OpResponse::Lease(FileLeaseDecision::decode(dec)?),
                5 => OpResponse::Flushed {
                    size: get_opt_u64(dec)?,
                },
                6 => OpResponse::Ok,
                7 => OpResponse::NotLeader,
                8 => OpResponse::Err(FsError::decode(dec)?),
                9 => {
                    let dir = InodeRecord::decode(dec)?;
                    let n = checked_len(dec)?;
                    let mut subdirs = Vec::with_capacity(n);
                    for _ in 0..n {
                        subdirs.push(DirEntry::decode(dec)?);
                    }
                    OpResponse::View {
                        dir,
                        subdirs: subdirs.into(),
                    }
                }
                _ => return Err(WireError::Invalid("op response tag")),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        let mut e = Encoder::new();
        e.put_u8(0xAB);
        e.put_u16(0xCDEF);
        e.put_u32(0xDEADBEEF);
        e.put_u64(u64::MAX - 1);
        e.put_u128(u128::MAX / 3);
        e.put_bool(true);
        e.put_bool(false);
        e.put_str("héllo");
        e.put_bytes(b"\x00\x01\x02");
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u8().unwrap(), 0xAB);
        assert_eq!(d.get_u16().unwrap(), 0xCDEF);
        assert_eq!(d.get_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(d.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.get_u128().unwrap(), u128::MAX / 3);
        assert!(d.get_bool().unwrap());
        assert!(!d.get_bool().unwrap());
        assert_eq!(d.get_str().unwrap(), "héllo");
        assert_eq!(d.get_bytes().unwrap(), b"\x00\x01\x02");
        assert!(d.is_exhausted());
    }

    #[test]
    fn truncation_detected() {
        let mut e = Encoder::new();
        e.put_u64(7);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes[..4]);
        assert_eq!(d.get_u64(), Err(WireError::Truncated));
        // String with a length prefix longer than the payload.
        let mut e = Encoder::new();
        e.put_u32(100);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_bytes(), Err(WireError::Truncated));
    }

    #[test]
    fn bad_bool_and_utf8_detected() {
        let mut d = Decoder::new(&[2]);
        assert_eq!(d.get_bool(), Err(WireError::Invalid("bool")));
        let mut e = Encoder::new();
        e.put_bytes(&[0xFF, 0xFE]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_str(), Err(WireError::Invalid("utf8")));
    }

    #[test]
    fn trace_ctx_roundtrips() {
        let ctx = arkfs_telemetry::TraceCtx {
            trace_id: 0xDEAD_BEEF_0000_0001,
            parent_span: 42,
            flags: arkfs_telemetry::TraceCtx::SAMPLED | arkfs_telemetry::TraceCtx::BACKGROUND,
        };
        let bytes = ctx.to_bytes();
        assert_eq!(bytes.len(), 17);
        assert_eq!(arkfs_telemetry::TraceCtx::from_bytes(&bytes).unwrap(), ctx);
        assert_eq!(
            arkfs_telemetry::TraceCtx::from_bytes(&bytes[..10]),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    /// The byte-at-a-time definition the sliced implementation must equal.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_sliced_equals_bytewise_on_random_buffers() {
        // Every length 0..=64 (all tail sizes and alignments of the
        // 8-byte step) plus a few frame-sized buffers.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        };
        for len in (0..=64).chain([255, 4096, 4099, 65_537]) {
            let buf: Vec<u8> = (0..len).map(|_| next()).collect();
            assert_eq!(crc32(&buf), crc32_bytewise(&buf), "len {len}");
        }
    }

    #[test]
    fn encoder_capacity_and_len() {
        let mut e = Encoder::with_capacity(64);
        assert!(e.is_empty());
        e.put_u32(1);
        assert_eq!(e.len(), 4);
        assert_eq!(e.as_slice(), &1u32.to_le_bytes());
    }
}
