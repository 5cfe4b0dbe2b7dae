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

/// Most distinct strings `intern` ever leaks. With each entry at most
/// `MAX_INTERN_LEN` bytes the table is bounded at 64 KiB however many
/// distinct strings a peer sends.
pub const MAX_INTERNED: usize = 256;

/// What `intern` answers for a new string once the table is full. The
/// vocabulary of static strings in the protocol is a few dozen, so a
/// well-behaved peer never sees it.
pub const INTERN_OVERFLOW: &str = "(unknown: intern table full)";

/// Deduplicating leak for decoding `&'static str` payloads
/// ([`FsError::Unsupported`] and friends). Each distinct string leaks
/// once, ever; repeats return the existing allocation.
pub(crate) fn intern(s: &str) -> WireResult<&'static str> {
    use arkfs_simkit::hash::HashSet;
    use std::sync::{Mutex, OnceLock};
    const MAX_INTERN_LEN: usize = 256;
    if s.len() > MAX_INTERN_LEN {
        return Err(WireError::Invalid("interned string too long"));
    }
    static TABLE: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(HashSet::default()));
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
/// transaction. On x86-64 CPUs with PCLMULQDQ, buffers of 128 bytes and
/// up fold 64 bytes per step by carry-less multiplication; shorter
/// buffers and other CPUs take the slice-by-8 tables.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: the CPU has every feature `crc32_folded` enables.
        return unsafe { crc32_folded(data) };
    }
    !crc32_sliced(!0, data)
}

/// Slice-by-8 CRC update of the raw register `crc` (not inverted): eight
/// table lookups fold eight input bytes per step; the tail goes byte by
/// byte.
fn crc32_sliced(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
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
    crc
}

/// [`crc32`] by folding with carry-less multiplies (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), in its
/// bit-reflected form: four 128-bit lanes fold 64 bytes per step, fold
/// into one lane, then 16 bytes per step; the lane reduces to 64 bits
/// and a Barrett reduction gives the 32-bit register, which the table
/// path carries over the last < 16 bytes. The constants are powers of x
/// modulo the polynomial (x^(4·128±32) for the 4-lane fold, x^(128±32)
/// for the 1-lane fold, x^64 for the 96 → 64 bit step) and its Barrett
/// pair.
///
/// # Safety
/// The CPU must support `pclmulqdq` and `sse4.1`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
unsafe fn crc32_folded(mut data: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_X: i64 = 0x1_db71_0641;
    const U_PRIME: i64 = 0x1_f701_1641;

    // Below 128 bytes the tables are as fast as the fold, whose setup
    // needs 64.
    if data.len() < 128 {
        return !crc32_sliced(!0, data);
    }
    fn next(data: &mut &[u8]) -> __m128i {
        let (head, rest) = data.split_at(16);
        *data = rest;
        // SAFETY: `head` is 16 readable bytes; the load is unaligned.
        unsafe { _mm_loadu_si128(head.as_ptr().cast()) }
    }
    let fold = |a: __m128i, b: __m128i, k: __m128i| {
        _mm_xor_si128(
            _mm_xor_si128(b, _mm_clmulepi64_si128(a, k, 0x00)),
            _mm_clmulepi64_si128(a, k, 0x11),
        )
    };

    let mut x3 = _mm_xor_si128(next(&mut data), _mm_cvtsi32_si128(-1));
    let mut x2 = next(&mut data);
    let mut x1 = next(&mut data);
    let mut x0 = next(&mut data);
    let k1k2 = _mm_set_epi64x(K2, K1);
    while data.len() >= 64 {
        x3 = fold(x3, next(&mut data), k1k2);
        x2 = fold(x2, next(&mut data), k1k2);
        x1 = fold(x1, next(&mut data), k1k2);
        x0 = fold(x0, next(&mut data), k1k2);
    }
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut x = fold(fold(fold(x3, x2, k3k4), x1, k3k4), x0, k3k4);
    while data.len() >= 16 {
        x = fold(x, next(&mut data), k3k4);
    }

    // 128 → 96 → 64 bits.
    let low32 = _mm_set_epi32(0, 0, 0, -1);
    let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
        _mm_srli_si128(x, 4),
    );
    // Barrett reduction 64 → 32 bits; reflected, so the register is the
    // upper half of the result.
    let pu = _mm_set_epi64x(U_PRIME, P_X);
    let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
    let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
    let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
    !crc32_sliced(crc, data)
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
/// bounded `intern` table.
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
        // Every length 0..=1024 at every start offset 0..16 (all tail
        // sizes and alignments of the 8-byte table step and the 16- and
        // 64-byte fold steps) plus a few frame-sized buffers, through
        // `crc32` and through each path on its own.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        };
        let buf: Vec<u8> = (0..65_537 + 16).map(|_| next()).collect();
        let spans = (0..16).flat_map(|at| (0..=1024).map(move |len| (at, len)));
        for (at, len) in spans.chain([4096, 4099, 65_537].map(|len| (3, len))) {
            let data = &buf[at..at + len];
            let want = crc32_bytewise(data);
            assert_eq!(crc32(data), want, "len {len} at {at}");
            assert_eq!(!crc32_sliced(!0, data), want, "table, len {len} at {at}");
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("pclmulqdq")
                && std::arch::is_x86_feature_detected!("sse4.1")
            {
                // SAFETY: the features were just detected.
                let folded = unsafe { crc32_folded(data) };
                assert_eq!(folded, want, "fold, len {len} at {at}");
            }
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
