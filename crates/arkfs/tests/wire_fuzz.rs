//! Corruption-robustness fuzzing for the transport frame codec.
//!
//! Property: for every representative `OpRequest`/`OpResponse` frame,
//! (a) the unmodified frame round-trips exactly (byte-identical
//! re-encoding), (b) any truncation and any single bit-flip decodes to
//! a `WireError` — never a panic, never a silently different value
//! (CRC32 detects all single-bit errors and the length/checksum
//! trailer catches truncations), and (c) arbitrary garbage bytes never
//! panic the decoder.

use arkfs::meta::InodeRecord;
use arkfs::rpc::{OpBody, OpRequest, OpResponse};
use arkfs::wire::{from_frame, to_frame, WireError};
use arkfs_lease::FileLeaseDecision;
use arkfs_telemetry::TraceCtx;
use arkfs_vfs::{Acl, AclEntry, Credentials, DirEntry, FileType, FsError, SetAttr};
use proptest::prelude::*;

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

/// One representative request per `OpBody` variant (all 23).
fn request_pool() -> Vec<OpRequest> {
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
            client: arkfs_netsim::NodeId(4),
        },
        OpBody::AcquireWriteLease {
            dir: 2,
            file: 0x77,
            client: arkfs_netsim::NodeId(4),
        },
        OpBody::ReleaseFileLease {
            dir: 2,
            file: 0x77,
            client: arkfs_netsim::NodeId(4),
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
            client: arkfs_netsim::NodeId(4),
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

/// One representative response per `OpResponse` variant (all 10), plus
/// an extra with string-carrying errors.
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
                DirEntry {
                    name: "a".into(),
                    ino: 3,
                    ftype: FileType::Directory,
                },
                DirEntry {
                    name: "b.txt".into(),
                    ino: 4,
                    ftype: FileType::Regular,
                },
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
        OpResponse::Err(FsError::NotFound),
        OpResponse::Err(FsError::Io("disk on fire".into())),
        OpResponse::View {
            dir: rec(2),
            subdirs: vec![
                DirEntry {
                    name: "d0".into(),
                    ino: 0x100,
                    ftype: FileType::Directory,
                },
                DirEntry {
                    name: "d1".into(),
                    ino: 0x101,
                    ftype: FileType::Directory,
                },
            ]
            .into(),
        },
    ]
}

/// All the frames the properties below mutate.
fn frame_pool() -> Vec<Vec<u8>> {
    let mut frames: Vec<Vec<u8>> = request_pool().iter().map(to_frame).collect();
    frames.extend(response_pool().iter().map(to_frame));
    frames
}

fn expect_decode_error(kind: &str, frame: &[u8], is_request: bool) {
    let err = if is_request {
        from_frame::<OpRequest>(frame).err()
    } else {
        from_frame::<OpResponse>(frame).err()
    };
    match err {
        Some(WireError::Truncated | WireError::Invalid(_) | WireError::BadChecksum) => {}
        Some(other) => panic!("{kind}: unexpected error class {other:?}"),
        None => panic!("{kind}: corrupt frame decoded successfully"),
    }
}

#[test]
fn valid_frames_round_trip_exactly() {
    for (i, req) in request_pool().iter().enumerate() {
        let frame = to_frame(req);
        let back: OpRequest =
            from_frame(&frame).unwrap_or_else(|e| panic!("request {i} failed to decode: {e}"));
        assert_eq!(to_frame(&back), frame, "request {i} re-encoding differs");
        // The pool is in tag order: names, tags and decoder agree.
        assert_eq!(back.body.tag() as usize, i, "{}", OpBody::KINDS[i]);
    }
    for (i, resp) in response_pool().iter().enumerate() {
        let frame = to_frame(resp);
        let back: OpResponse =
            from_frame(&frame).unwrap_or_else(|e| panic!("response {i} failed to decode: {e}"));
        assert_eq!(to_frame(&back), frame, "response {i} re-encoding differs");
    }
}

proptest! {
    /// Every proper prefix of a frame is a decode error, never a panic.
    #[test]
    fn truncations_error_cleanly(which in 0usize..34, cut in 0u32..10_000) {
        let frames = frame_pool();
        let n_requests = request_pool().len();
        let frame = &frames[which % frames.len()];
        let keep = frame.len() * cut as usize / 10_000; // strictly < len
        expect_decode_error("truncation", &frame[..keep], which % frames.len() < n_requests);
    }

    /// Every single bit-flip is a decode error (CRC32 guarantees it).
    #[test]
    fn bit_flips_error_cleanly(which in 0usize..34, pos in 0usize..4096, bit in 0u8..8) {
        let frames = frame_pool();
        let n_requests = request_pool().len();
        let idx = which % frames.len();
        let mut frame = frames[idx].clone();
        let p = pos % frame.len();
        frame[p] ^= 1 << bit;
        expect_decode_error("bit flip", &frame, idx < n_requests);
    }

    /// Arbitrary bytes never panic the decoder.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = from_frame::<OpRequest>(&bytes);
        let _ = from_frame::<OpResponse>(&bytes);
    }
}
