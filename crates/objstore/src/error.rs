//! Object-store error type.

use std::fmt;

pub type OsResult<T> = Result<T, OsError>;

/// Errors the object storage layer can return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OsError {
    /// GET/DELETE/HEAD of a key that does not exist.
    NotFound,
    /// The profile does not support this operation (e.g. ranged PUT on
    /// the S3 profile).
    Unsupported(&'static str),
    /// A fault injected by the test harness.
    Injected(&'static str),
    /// Requested range lies outside the object.
    BadRange,
    /// Malformed object key. No in-process store raises it; it keeps its
    /// tag in the remote store protocol (`arkfs::remote`).
    BadKey,
    /// No in-process store raises it; it keeps its tag in the remote
    /// store protocol (`arkfs::remote`).
    InsufficientFragments,
}

impl fmt::Display for OsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsError::NotFound => write!(f, "object not found"),
            OsError::Unsupported(what) => write!(f, "unsupported by store profile: {what}"),
            OsError::Injected(what) => write!(f, "injected fault: {what}"),
            OsError::BadRange => write!(f, "range outside object"),
            OsError::BadKey => write!(f, "malformed object key"),
            OsError::InsufficientFragments => {
                write!(f, "too many fragments unavailable to reconstruct object")
            }
        }
    }
}

impl std::error::Error for OsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(OsError::NotFound.to_string().contains("not found"));
        assert!(OsError::Unsupported("ranged put")
            .to_string()
            .contains("ranged put"));
        assert!(OsError::Injected("crash").to_string().contains("crash"));
        assert!(!OsError::BadRange.to_string().is_empty());
        assert!(!OsError::BadKey.to_string().is_empty());
    }
}
