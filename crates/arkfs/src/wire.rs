//! Versioned little-endian wire codec for ArkFS metadata objects.
//!
//! The PRT module "defines specifications for how file system-related
//! information is stored in the key-value pair" (§III-F). Records are
//! encoded with an explicit, deterministic layout — no external
//! serializer — and journal transactions carry a CRC32 so recovery can
//! tell valid transactions from torn ones.

use crate::meta::{decode_acl, encode_acl};
use crate::metatable::MAX_VIEW_ENTRIES;
use crate::rpc::DirView;
use arkfs_lease::{FileLeaseDecision, LeaseRequest, LeaseResponse, LeaseView};
use arkfs_netsim::NodeId;
use arkfs_simkit::Nanos;
use arkfs_telemetry::TraceCtx;
use arkfs_vfs::{Acl, Credentials, DirEntry, FileType, FsError, Ino, SetAttr};
use bytes::Bytes;
use std::fmt;
use std::sync::Arc;

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
    /// The shared buffer `buf` is the head of, when the caller owns one:
    /// blobs are then decoded as windows of it instead of copies.
    shared: Option<&'a Bytes>,
}

impl<'a> Decoder<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder {
            buf,
            pos: 0,
            shared: None,
        }
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

    /// A length-prefixed byte string as an owned buffer.
    pub fn get_blob(&mut self) -> WireResult<Bytes> {
        let (bytes, end) = (self.get_bytes()?, self.pos);
        Ok(match self.shared {
            Some(frame) => frame.slice(end - bytes.len()..end),
            None => Bytes::copy_from_slice(bytes),
        })
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
    decode_frame(buf, None)
}

/// [`from_frame`] of a frame the caller owns (a transport's read
/// buffer): the message's `Bytes` fields are windows of `buf`, not
/// copies of it.
pub fn from_frame_owned<T: WireCodec>(buf: Vec<u8>) -> WireResult<T> {
    let buf = Bytes::from(buf);
    decode_frame(&buf, Some(&buf))
}

fn decode_frame<T: WireCodec>(buf: &[u8], shared: Option<&Bytes>) -> WireResult<T> {
    if buf.len() < 4 {
        return Err(WireError::Truncated);
    }
    let (body, crc_bytes) = buf.split_at(buf.len() - 4);
    let expect = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(body) != expect {
        return Err(WireError::BadChecksum);
    }
    let mut dec = Decoder {
        shared,
        ..Decoder::new(body)
    };
    let v = T::decode(&mut dec)?;
    if !dec.is_exhausted() {
        return Err(WireError::Invalid("trailing bytes"));
    }
    Ok(v)
}

/// Most distinct strings [`intern`] ever leaks. With each entry at most
/// `MAX_INTERN_LEN` bytes the table is bounded at 64 KiB however many
/// distinct strings a peer sends.
pub const MAX_INTERNED: usize = 256;

/// What [`intern`] answers for a new string once the table is full. The
/// vocabulary of static strings in the protocol is a few dozen, so a
/// well-behaved peer never sees it.
pub const INTERN_OVERFLOW: &str = "(unknown: intern table full)";

/// Deduplicating leak for decoding `&'static str` payloads
/// ([`FsError::Unsupported`] and friends). Each distinct string leaks
/// once, ever; repeats return the existing allocation.
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
    if set.len() >= MAX_INTERNED {
        return Ok(INTERN_OVERFLOW);
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

// ===== Generic field codecs =====
//
// Everything that crosses a transport is built from these: integers,
// strings, byte blobs and the standard containers each have one wire
// shape, and the message types below and in `rpc`/`remote` are lists of
// such fields ([`wire_struct!`]) or tagged unions of them
// ([`wire_enum!`]).

macro_rules! wire_scalar {
    ($($t:ty: $put:ident, $get:ident;)*) => {$(
        impl WireCodec for $t {
            fn encode(&self, enc: &mut Encoder) {
                enc.$put(*self);
            }
            fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
                dec.$get()
            }
        }
    )*};
}

wire_scalar! {
    u8: put_u8, get_u8;
    u32: put_u32, get_u32;
    u64: put_u64, get_u64;
    u128: put_u128, get_u128;
    bool: put_bool, get_bool;
}

/// Zero bytes: lets `Result<(), E>` use the generic `Result` codec.
impl WireCodec for () {
    fn encode(&self, _enc: &mut Encoder) {}
    fn decode(_dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(())
    }
}

impl WireCodec for String {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(self);
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(dec.get_str()?.to_owned())
    }
}

/// Static strings (error payloads, profile names) decode through the
/// bounded [`intern`] table.
impl WireCodec for &'static str {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(self);
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        intern(dec.get_str()?)
    }
}

impl WireCodec for Bytes {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(self);
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        dec.get_blob()
    }
}

/// Presence flag, then the value.
impl<T: WireCodec> WireCodec for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bool(self.is_some());
        if let Some(v) = self {
            v.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(if dec.get_bool()? {
            Some(T::decode(dec)?)
        } else {
            None
        })
    }
}

/// `true` + the value, or `false` + the error.
impl<T: WireCodec, E: WireCodec> WireCodec for Result<T, E> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bool(self.is_ok());
        match self {
            Ok(v) => v.encode(enc),
            Err(e) => e.encode(enc),
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(if dec.get_bool()? {
            Ok(T::decode(dec)?)
        } else {
            Err(E::decode(dec)?)
        })
    }
}

fn encode_seq<T: WireCodec>(items: &[T], enc: &mut Encoder) {
    enc.put_u32(items.len() as u32);
    for v in items {
        v.encode(enc);
    }
}

/// u32 element count, then the elements. Every element type on the wire
/// encodes to at least one byte, so a count larger than the bytes left
/// is rejected before anything is allocated for it: a hostile length
/// prefix cannot reserve more elements than the frame holds bytes.
impl<T: WireCodec> WireCodec for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        encode_seq(self, enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        let n = dec.get_u32()? as usize;
        if n > dec.remaining() {
            return Err(WireError::Truncated);
        }
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::decode(dec)?);
        }
        Ok(items)
    }
}

impl<T: WireCodec> WireCodec for Arc<[T]> {
    fn encode(&self, enc: &mut Encoder) {
        encode_seq(self, enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(Vec::decode(dec)?.into())
    }
}

macro_rules! wire_tuple {
    ($($T:ident . $i:tt),+) => {
        impl<$($T: WireCodec),+> WireCodec for ($($T,)+) {
            fn encode(&self, enc: &mut Encoder) {
                $(self.$i.encode(enc);)+
            }
            fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
                Ok(($($T::decode(dec)?,)+))
            }
        }
    };
}

wire_tuple!(A.0, B.1);
wire_tuple!(A.0, B.1, C.2);
wire_tuple!(A.0, B.1, C.2, D.3);

/// Codec of a struct as its listed fields, in wire order.
macro_rules! wire_struct {
    ($T:ty { $($f:tt),+ $(,)? }) => {
        impl $crate::wire::WireCodec for $T {
            fn encode(&self, enc: &mut $crate::wire::Encoder) {
                $($crate::wire::WireCodec::encode(&self.$f, enc);)+
            }
            fn decode(dec: &mut $crate::wire::Decoder<'_>) -> $crate::wire::WireResult<Self> {
                Ok(Self {
                    $($f: $crate::wire::WireCodec::decode(dec)?,)+
                })
            }
        }
    };
}
pub(crate) use wire_struct;

/// Codec of an enum as a u8 tag plus the variant's fields in listed
/// order, from one `tag => Variant { field: Type, .. }` (or
/// `Variant(field: Type, ..)`, or bare `Variant`) line per variant.
/// `impl Type, "what" { .. }` implements [`WireCodec`] for an enum
/// declared elsewhere; `pub enum Name, "what" { .. }` also declares the
/// enum, so a message type of this crate is written down exactly once.
/// `"what"` names the tag in the `Invalid` error of an unknown one.
/// Tags are append-only: a new variant takes the next free tag and an
/// old tag never changes meaning.
macro_rules! wire_enum {
    ($(#[$m:meta])* pub enum $T:ident, $what:literal { $($body:tt)* }) => {
        $crate::wire::wire_enum!(@declare [$(#[$m])*] $T { $($body)* });
        $crate::wire::wire_enum!(impl $T, $what { $($body)* });
    };
    (@declare [$(#[$m:meta])*] $T:ident { $(
        $(#[$vm:meta])* $tag:literal => $V:ident
            $({ $($f:ident: $fty:ty),* $(,)? })? $(( $($t:ident: $tty:ty),* $(,)? ))?
    ),* $(,)? }) => {
        $(#[$m])*
        pub enum $T {
            $( $(#[$vm])* $V $({ $($f: $fty),* })? $(( $($tty),* ))? ),*
        }
    };
    (impl $T:ty, $what:literal { $(
        $(#[$vm:meta])* $tag:literal => $V:ident
            $({ $($f:ident: $fty:ty),* $(,)? })? $(( $($t:ident: $tty:ty),* $(,)? ))?
    ),* $(,)? }) => {
        impl $crate::wire::WireCodec for $T {
            fn encode(&self, enc: &mut $crate::wire::Encoder) {
                match self {$(
                    Self::$V $({ $($f),* })? $(( $($t),* ))? => {
                        enc.put_u8($tag);
                        $($($crate::wire::WireCodec::encode($f, enc);)*)?
                        $($($crate::wire::WireCodec::encode($t, enc);)*)?
                    }
                )*}
            }
            fn decode(dec: &mut $crate::wire::Decoder<'_>) -> $crate::wire::WireResult<Self> {
                Ok(match dec.get_u8()? {
                    $($tag => Self::$V
                        $({ $($f: <$fty as $crate::wire::WireCodec>::decode(dec)?),* })?
                        $(( $(<$tty as $crate::wire::WireCodec>::decode(dec)?),* ))?,)*
                    _ => return Err($crate::wire::WireError::Invalid($what)),
                })
            }
        }
    };
}
pub(crate) use wire_enum;

// ===== Leaf and lease-protocol codecs =====
//
// Message types declared in other crates. The forwarded-operation
// protocol is in `rpc`, the object-store protocol in `remote`.

// Stable across transports: `trace_id:u64, parent_span:u64, flags:u8`.
wire_struct!(TraceCtx {
    trace_id,
    parent_span,
    flags
});
wire_struct!(NodeId { 0 });
wire_struct!(Credentials { uid, gid, groups });
wire_struct!(SetAttr {
    mode,
    uid,
    gid,
    atime,
    mtime
});
wire_struct!(DirEntry { name, ino, ftype });

impl WireCodec for FileType {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.as_u8());
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        FileType::from_u8(dec.get_u8()?).ok_or(WireError::Invalid("file type"))
    }
}

/// ACLs cross the wire in their on-store form.
impl WireCodec for Acl {
    fn encode(&self, enc: &mut Encoder) {
        encode_acl(self, enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        decode_acl(dec)
    }
}

wire_enum! {
    impl FsError, "fs error tag" {
        0 => NotFound,
        1 => AlreadyExists,
        2 => NotADirectory,
        3 => IsADirectory,
        4 => NotEmpty,
        5 => PermissionDenied,
        6 => NotPermitted,
        7 => InvalidArgument,
        8 => NameTooLong,
        9 => BadHandle,
        10 => BadAccessMode,
        11 => Stale,
        12 => Busy,
        13 => TimedOut,
        14 => NoSpace,
        15 => Io(msg: String),
        16 => Unsupported(what: &'static str),
    }
}

wire_enum! {
    impl FileLeaseDecision, "lease decision tag" {
        0 => Granted { expires_at: Nanos },
        1 => Direct { flush: Vec<NodeId>, direct_until: Nanos },
    }
}

/// The stamp, then the [`DirView`] behind the manager's opaque handle:
/// every deposit in this deployment is one. Decoded once per frame; on
/// the bus the handle is shared, never encoded.
impl WireCodec for LeaseView {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.stamp);
        let view = self.body.downcast_ref::<DirView>();
        view.expect("a lease view is a DirView").encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        let stamp = dec.get_u64()?;
        let view = DirView::decode(dec)?;
        if view.subdirs.len() > MAX_VIEW_ENTRIES {
            return Err(WireError::Invalid("directory view over the entry cap"));
        }
        Ok(LeaseView {
            stamp,
            body: Arc::new(view),
        })
    }
}

wire_enum! {
    impl LeaseRequest, "lease request tag" {
        0 => Acquire { client: NodeId, ino: Ino },
        1 => Release { client: NodeId, ino: Ino },
        2 => Deposit { client: NodeId, ino: Ino, view: LeaseView },
        3 => Revoke { client: NodeId, ino: Ino },
    }
}

wire_enum! {
    impl LeaseResponse, "lease response tag" {
        0 => Granted { expires_at: Nanos, must_load: bool, takeover_dirty: bool },
        1 => Redirect { leader: NodeId },
        2 => Retry { until: Nanos },
        3 => Released,
        4 => RedirectView { leader: NodeId, view: LeaseView },
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
        let ctx = TraceCtx {
            trace_id: 0xDEAD_BEEF_0000_0001,
            parent_span: 42,
            flags: TraceCtx::SAMPLED | TraceCtx::BACKGROUND,
        };
        let bytes = ctx.to_bytes();
        assert_eq!(bytes.len(), 17);
        assert_eq!(TraceCtx::from_bytes(&bytes).unwrap(), ctx);
        assert_eq!(
            TraceCtx::from_bytes(&bytes[..10]),
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
