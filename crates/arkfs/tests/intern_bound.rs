//! The decode-side intern table for `&'static str` payloads is bounded:
//! a peer streaming distinct strings leaks at most `MAX_INTERNED` of
//! them, and every further one folds onto `INTERN_OVERFLOW`.
//!
//! Alone in its file (= its own process): filling the process-wide
//! table would turn other tests' static strings into the overflow text.

use arkfs::wire::{Encoder, WireCodec, INTERN_OVERFLOW, MAX_INTERNED};
use arkfs_vfs::FsError;
use std::collections::HashSet;

/// The bytes of `FsError::Unsupported(what)`, as a peer would send them.
fn unsupported(what: &str) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u8(16);
    enc.put_str(what);
    enc.into_bytes()
}

#[test]
fn distinct_strings_leak_at_most_the_cap() {
    let extra = 50;
    let mut seen: HashSet<&'static str> = HashSet::new();
    for i in 0..MAX_INTERNED + extra {
        let sent = format!("feature-{i}");
        let FsError::Unsupported(got) = FsError::from_bytes(&unsupported(&sent)).unwrap() else {
            panic!("wrong variant");
        };
        if i < MAX_INTERNED {
            assert_eq!(got, sent);
        } else {
            assert_eq!(got, INTERN_OVERFLOW, "string {i} is past the cap");
        }
        seen.insert(got);
    }
    assert_eq!(seen.len(), MAX_INTERNED + 1);
    // Strings already in the table keep resolving to themselves.
    assert_eq!(
        unsupported("feature-0"),
        FsError::Unsupported("feature-0").to_bytes()
    );
    assert_eq!(
        FsError::from_bytes(&unsupported("feature-0")),
        Ok(FsError::Unsupported("feature-0"))
    );
}
