//! Golden frames and corruption-robustness fuzzing for the three wire
//! protocols (forwarded ops, leases, object store).
//!
//! One representative value per message variant feeds four checks:
//! (a) every frame equals its committed golden vector byte for byte
//! (`golden_frames.hex`, generated before the codecs were table-driven:
//! a symmetric layout change passes any round-trip test but not this;
//! an appended op adds its row, the old rows never change);
//! (b) the unmodified frame round-trips exactly; (c) any truncation and
//! any single bit-flip decodes to a `WireError` — never a panic, never a
//! silently different value (CRC32 detects all single-bit errors and the
//! checksum trailer catches truncations); (d) arbitrary garbage bytes
//! never panic a decoder.

use arkfs::meta::InodeRecord;
use arkfs::metatable::MAX_VIEW_ENTRIES;
use arkfs::remote::{StoreRequest, StoreResponse};
use arkfs::rpc::{DirView, OpBody, OpRequest, OpResponse};
use arkfs::wire::{from_frame, to_frame, WireCodec, WireError, WireResult};
use arkfs_lease::{FileLeaseDecision, LeaseRequest, LeaseResponse, LeaseView};
use arkfs_netsim::tcp::MAX_FRAME;
use arkfs_netsim::NodeId;
use arkfs_objstore::{KeyKind, ObjectKey, OsError, StoreProfile};
use arkfs_telemetry::TraceCtx;
use arkfs_vfs::{Acl, AclEntry, Credentials, DirEntry, FileType, FsError, SetAttr};
use bytes::Bytes;
use proptest::prelude::*;
use std::sync::Arc;

fn creds() -> Credentials {
    Credentials {
        uid: 501,
        gid: 20,
        groups: vec![20, 7, 99],
    }
}

fn rec(ino: u128) -> InodeRecord {
    let mut r = InodeRecord::new(ino, FileType::Regular, 0o640, 501, 20, 1_234_567);
    r.size = 4096;
    r.nlink = 2;
    r.acl = Acl::new(vec![AclEntry::user(77, 0o5)]);
    r
}

fn entry(name: &str, ino: u128, ftype: FileType) -> DirEntry {
    DirEntry {
        name: name.into(),
        ino,
        ftype,
    }
}

/// One representative request per `OpBody` variant, in tag order.
fn request_pool() -> Vec<OpRequest> {
    let client = NodeId(4);
    let bodies = vec![
        OpBody::Lookup {
            dir: 2,
            name: "a.txt".into(),
        },
        OpBody::DirInode { dir: 2 },
        OpBody::Create {
            dir: 2,
            name: "new.bin".into(),
            rec: rec(0x77),
        },
        OpBody::AddSubdir {
            dir: 2,
            name: "sub".into(),
            child: 0x99,
        },
        OpBody::Unlink {
            dir: 2,
            name: "gone".into(),
        },
        OpBody::RemoveSubdir {
            dir: 2,
            name: "sub".into(),
        },
        OpBody::Readdir {
            dir: 2,
            partition: 3,
        },
        OpBody::SetSize {
            dir: 2,
            name: "f".into(),
            ino: 0x77,
            size: 1 << 20,
        },
        OpBody::SetAttrChild {
            dir: 2,
            name: "f".into(),
            ino: 0x77,
            attr: SetAttr {
                mode: Some(0o600),
                uid: None,
                gid: Some(7),
                atime: None,
                mtime: Some(9),
            },
        },
        OpBody::SetAttrDir {
            dir: 2,
            attr: SetAttr::default(),
        },
        OpBody::SetAcl {
            dir: 2,
            name: String::new(),
            target: 2,
            acl: Acl::new(vec![AclEntry::user(1, 0o7), AclEntry::group(20, 0o4)]),
        },
        OpBody::RenameLocal {
            dir: 2,
            from: "old".into(),
            to: "new".into(),
        },
        OpBody::RenameSrcPrepare {
            dir: 2,
            name: "x".into(),
            txid: 0xDEAD_BEEF,
            peer: 5,
        },
        OpBody::RenameDstPrepare {
            dir: 5,
            name: "x".into(),
            txid: 0xDEAD_BEEF,
            peer: 2,
            ino: 0x77,
            ftype: FileType::Symlink,
            rec: Some(rec(0x77)),
        },
        OpBody::RenameDecide {
            dir: 2,
            name: "x".into(),
            txid: 0xDEAD_BEEF,
            commit: false,
            undo: Some(("x".into(), 0x77, FileType::Regular, Some(rec(0x77)))),
        },
        OpBody::AcquireReadLease {
            dir: 2,
            file: 0x77,
            client,
        },
        OpBody::AcquireWriteLease {
            dir: 2,
            file: 0x77,
            client,
        },
        OpBody::ReleaseFileLease {
            dir: 2,
            file: 0x77,
            client,
        },
        OpBody::FlushCache { file: 0x77 },
        OpBody::FsyncDir {
            dir: 2,
            partition: 0,
        },
        OpBody::RelinquishPartition {
            dir: 2,
            partition: 1,
        },
        OpBody::DirView { dir: 2 },
        OpBody::CreateOpen {
            dir: 2,
            name: "opened.bin".into(),
            rec: rec(0x78),
            client,
        },
        OpBody::CloseFile {
            dir: 2,
            name: "written.bin".into(),
            ino: 0x78,
            size: 3901,
            client,
        },
    ];
    assert_eq!(bodies.len(), OpBody::KINDS.len(), "a variant is missing");
    bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| OpRequest {
            creds: creds(),
            trace: if i % 2 == 0 {
                TraceCtx::root(0x1000 + i as u64, true)
            } else {
                TraceCtx::NONE
            },
            body,
        })
        .collect()
}

/// One representative response per `OpResponse` variant (in tag order),
/// then the second `FileLeaseDecision` variant.
fn response_pool() -> Vec<OpResponse> {
    vec![
        OpResponse::Entry {
            ino: 0x77,
            ftype: FileType::Regular,
            rec: Some(rec(0x77)),
        },
        OpResponse::Inode(rec(0x42)),
        OpResponse::Entries {
            entries: vec![
                entry("a", 3, FileType::Directory),
                entry("b.txt", 4, FileType::Regular),
            ],
            partitions: 4,
        },
        OpResponse::Detached {
            ino: 0x77,
            ftype: FileType::Symlink,
            rec: None,
        },
        OpResponse::Lease(FileLeaseDecision::Granted {
            expires_at: 5_000_000,
        }),
        OpResponse::Flushed { size: Some(8192) },
        OpResponse::Ok,
        OpResponse::NotLeader,
        OpResponse::Err(FsError::Io("disk on fire".into())),
        OpResponse::View(DirView {
            dir: rec(2),
            subdirs: vec![
                entry("d0", 0x100, FileType::Directory),
                entry("d1", 0x101, FileType::Directory),
            ]
            .into(),
        }),
        OpResponse::Lease(FileLeaseDecision::Direct {
            flush: vec![NodeId(3), NodeId(9)],
            direct_until: 7_000_000,
        }),
    ]
}

/// Every `FsError` variant, in tag order.
fn fs_error_pool() -> Vec<FsError> {
    vec![
        FsError::NotFound,
        FsError::AlreadyExists,
        FsError::NotADirectory,
        FsError::IsADirectory,
        FsError::NotEmpty,
        FsError::PermissionDenied,
        FsError::NotPermitted,
        FsError::InvalidArgument,
        FsError::NameTooLong,
        FsError::BadHandle,
        FsError::BadAccessMode,
        FsError::Stale,
        FsError::Busy,
        FsError::TimedOut,
        FsError::NoSpace,
        FsError::Io("short read".into()),
        FsError::Unsupported("xattr"),
    ]
}

/// A deposited view of `n` subdirectories with `name_len`-byte names.
fn lease_view(n: usize, name_len: usize) -> LeaseView {
    let subdirs: Vec<DirEntry> = (0..n)
        .map(|i| {
            let name = format!("{i:0name_len$}");
            entry(&name, 0x100 + i as u128, FileType::Directory)
        })
        .collect();
    LeaseView {
        stamp: 4_000_000,
        body: Arc::new(DirView {
            dir: rec(2),
            subdirs: subdirs.into(),
        }),
    }
}

fn lease_request_pool() -> Vec<LeaseRequest> {
    let (client, ino) = (NodeId(6), 0xABCD);
    vec![
        LeaseRequest::Acquire { client, ino },
        LeaseRequest::Release { client, ino },
        LeaseRequest::Deposit {
            client,
            ino,
            view: lease_view(2, 2),
        },
        LeaseRequest::Revoke { client, ino },
    ]
}

fn lease_response_pool() -> Vec<LeaseResponse> {
    vec![
        LeaseResponse::Granted {
            expires_at: 9_000_000,
            must_load: true,
            takeover_dirty: false,
        },
        LeaseResponse::Redirect { leader: NodeId(11) },
        LeaseResponse::Retry { until: 123_456 },
        LeaseResponse::Released,
        LeaseResponse::RedirectView {
            leader: NodeId(11),
            view: lease_view(2, 2),
        },
    ]
}

fn key(kind: KeyKind, ino: u128, index: u64) -> ObjectKey {
    ObjectKey { kind, ino, index }
}

/// Every `StoreRequest` variant, in tag order.
fn store_request_pool() -> Vec<StoreRequest> {
    let k = key(KeyKind::Data, 0x77, 3);
    let j = key(KeyKind::Journal, u128::MAX, 9);
    let data = Bytes::from_static(b"\x00\x01payload");
    vec![
        StoreRequest::Profile,
        StoreRequest::Usage,
        StoreRequest::Put(k, data.clone()),
        StoreRequest::Get(k),
        StoreRequest::GetRange(j, 4, 16),
        StoreRequest::PutRange(k, 512, data.clone()),
        StoreRequest::Delete(k),
        StoreRequest::Head(key(KeyKind::Inode, 5, 0)),
        StoreRequest::List(Some(KeyKind::Dentry), None),
        StoreRequest::GetMany(vec![k, j]),
        StoreRequest::PutMany(vec![(k, data.clone()), (j, Bytes::new())]),
        StoreRequest::DeleteMany(vec![j]),
        StoreRequest::GetRangeMany(vec![(k, 0, 8), (j, 8, 1 << 40)]),
        StoreRequest::PutRangeMany(vec![(k, 7, data)]),
    ]
}

/// Every `StoreResponse` variant in tag order, then an `Err` of each
/// `OsError` variant (in its tag order) through the result-carrying
/// replies.
fn store_response_pool() -> Vec<StoreResponse> {
    let data = Bytes::from_static(b"abc");
    vec![
        StoreResponse::Profile(StoreProfile {
            name: "rados",
            op_service: 30_000,
            op_latency: 0,
            partial_writes: true,
            ranged_reads: true,
        }),
        StoreResponse::Usage(12, 1 << 33),
        StoreResponse::Unit(Ok(())),
        StoreResponse::Data(Ok(data.clone())),
        StoreResponse::Size(Ok(4096)),
        StoreResponse::Keys(Ok(vec![key(KeyKind::Data, 1, 0), key(KeyKind::Data, 1, 1)])),
        StoreResponse::Units(vec![Ok(()), Err(OsError::NotFound)]),
        StoreResponse::Datas(vec![Ok(data), Err(OsError::Unsupported("ranged get"))]),
        StoreResponse::Unit(Err(OsError::Injected("put failed"))),
        StoreResponse::Data(Err(OsError::BadRange)),
        StoreResponse::Size(Err(OsError::BadKey)),
        StoreResponse::Keys(Err(OsError::InsufficientFragments)),
    ]
}

/// One frame of the pools with its label and its own protocol's
/// decode-then-re-encode.
struct Case {
    label: String,
    frame: Vec<u8>,
    recode: fn(&[u8]) -> WireResult<Vec<u8>>,
}

fn recode<T: WireCodec>(buf: &[u8]) -> WireResult<Vec<u8>> {
    from_frame::<T>(buf).map(|v| to_frame(&v))
}

fn cases<T: WireCodec>(family: &str, pool: &[T]) -> Vec<Case> {
    pool.iter()
        .enumerate()
        .map(|(i, v)| Case {
            label: format!("{family}.{i}"),
            frame: to_frame(v),
            recode: recode::<T>,
        })
        .collect()
}

/// All the frames the golden check pins and the properties mutate.
fn all_cases() -> Vec<Case> {
    let mut all = cases("op_req", &request_pool());
    all.extend(cases("op_resp", &response_pool()));
    all.extend(cases("fs_error", &fs_error_pool()));
    all.extend(cases("lease_req", &lease_request_pool()));
    all.extend(cases("lease_resp", &lease_response_pool()));
    all.extend(cases("store_req", &store_request_pool()));
    all.extend(cases("store_resp", &store_response_pool()));
    all
}

fn expect_decode_error(kind: &str, case: &Case, frame: &[u8]) {
    match (case.recode)(frame) {
        Err(WireError::Truncated | WireError::Invalid(_) | WireError::BadChecksum) => {}
        Err(other) => panic!("{kind} of {}: unexpected error class {other:?}", case.label),
        Ok(_) => panic!("{kind} of {}: corrupt frame decoded", case.label),
    }
}

#[test]
fn frames_equal_the_golden_vectors() {
    let golden: Vec<&str> = include_str!("golden_frames.hex").lines().collect();
    let cases = all_cases();
    assert_eq!(cases.len(), golden.len(), "a pool and the vectors disagree");
    for (case, want) in cases.iter().zip(golden) {
        let hex: String = case.frame.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(format!("{} {hex}", case.label), want);
    }
}

#[test]
fn valid_frames_round_trip_exactly() {
    for case in all_cases() {
        let back = (case.recode)(&case.frame)
            .unwrap_or_else(|e| panic!("{} failed to decode: {e}", case.label));
        assert_eq!(back, case.frame, "{} re-encoding differs", case.label);
    }
    // The request pool is in tag order: names, tags and decoder agree.
    for (i, req) in request_pool().iter().enumerate() {
        let back: OpRequest = from_frame(&to_frame(req)).unwrap();
        assert_eq!(back.body.tag() as usize, i, "{}", OpBody::KINDS[i]);
    }
}

/// A reply larger than any fixed element cap still crosses the wire:
/// the frame itself bounds what a length prefix may claim.
#[test]
fn large_collections_round_trip() {
    let entries: Vec<DirEntry> = (0..70_000u128)
        .map(|i| entry(&format!("file-{i:06}"), i + 10, FileType::Regular))
        .collect();
    let frame = to_frame(&OpResponse::Entries {
        entries,
        partitions: 1,
    });
    match from_frame::<OpResponse>(&frame).expect("70 000 entries decode") {
        OpResponse::Entries { entries, .. } => {
            assert_eq!(entries.len(), 70_000);
            assert_eq!(entries[69_999].name, "file-069999");
        }
        other => panic!("unexpected {other:?}"),
    }
    let keys: Vec<ObjectKey> = (0..70_000).map(|i| key(KeyKind::Data, 9, i)).collect();
    let frame = to_frame(&StoreResponse::Keys(Ok(keys.clone())));
    match from_frame::<StoreResponse>(&frame).expect("70 000 keys decode") {
        StoreResponse::Keys(Ok(back)) => assert_eq!(back, keys),
        other => panic!("unexpected {other:?}"),
    }
}

/// A hostile length prefix is rejected against the bytes actually
/// present, before anything is allocated for it.
#[test]
fn hostile_length_prefix_is_truncated_not_allocated() {
    let mut body = vec![2u8]; // OpResponse::Entries
    body.extend_from_slice(&u32::MAX.to_le_bytes());
    body.resize(12, 0);
    let crc = arkfs::wire::crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    assert_eq!(body.len(), 16);
    assert_eq!(
        from_frame::<OpResponse>(&body).err(),
        Some(WireError::Truncated)
    );
}

/// The largest view a leader deposits — the entry cap at the longest
/// name — is one frame with room to spare; one entry more is refused by
/// the decoder, as any other malformed frame is.
#[test]
fn a_full_view_fits_a_frame_and_an_oversized_one_is_refused() {
    let redirect = |n| LeaseResponse::RedirectView {
        leader: NodeId(11),
        view: lease_view(n, 255),
    };
    let frame = to_frame(&redirect(MAX_VIEW_ENTRIES));
    assert!(frame.len() < MAX_FRAME as usize / 32, "{}", frame.len());
    match from_frame::<LeaseResponse>(&frame).expect("a full view decodes") {
        LeaseResponse::RedirectView { view, .. } => {
            let body = view.body.downcast_ref::<DirView>().unwrap();
            assert_eq!(body.subdirs.len(), MAX_VIEW_ENTRIES);
            assert_eq!(view.stamp, 4_000_000);
        }
        other => panic!("unexpected {other:?}"),
    }
    for cut in [frame.len() / 2, frame.len() - 1] {
        assert!(from_frame::<LeaseResponse>(&frame[..cut]).is_err());
    }
    let over = to_frame(&redirect(MAX_VIEW_ENTRIES + 1));
    assert!(matches!(
        from_frame::<LeaseResponse>(&over),
        Err(WireError::Invalid(_))
    ));
}

proptest! {
    /// Every proper prefix of a frame is a decode error, never a panic.
    #[test]
    fn truncations_error_cleanly(which in 0..all_cases().len(), cut in 0u32..10_000) {
        let case = &all_cases()[which];
        let keep = case.frame.len() * cut as usize / 10_000; // strictly < len
        expect_decode_error("truncation", case, &case.frame[..keep]);
    }

    /// Every single bit-flip is a decode error (CRC32 guarantees it).
    #[test]
    fn bit_flips_error_cleanly(which in 0..all_cases().len(), pos in 0usize..4096, bit in 0u8..8) {
        let case = &all_cases()[which];
        let mut frame = case.frame.clone();
        let p = pos % frame.len();
        frame[p] ^= 1 << bit;
        expect_decode_error("bit flip", case, &frame);
    }

    /// Arbitrary bytes never panic any protocol's decoder.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = from_frame::<OpRequest>(&bytes);
        let _ = from_frame::<OpResponse>(&bytes);
        let _ = from_frame::<LeaseRequest>(&bytes);
        let _ = from_frame::<LeaseResponse>(&bytes);
        let _ = from_frame::<StoreRequest>(&bytes);
        let _ = from_frame::<StoreResponse>(&bytes);
    }
}
