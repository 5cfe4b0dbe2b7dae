//! Failure injection for crash-consistency and recovery tests.

use crate::error::{OsError, OsResult};
use crate::key::{KeyKind, ObjectKey};
use arkfs_simkit::hash::HashSet;
use parking_lot::Mutex;

#[derive(Debug, Default)]
struct FaultState {
    /// Fail this many upcoming PUT/PUT-range calls, then recover.
    fail_next_puts: u32,
    /// Only fail puts of this kind (when set).
    fail_kind: Option<KeyKind>,
    /// Keys that silently vanished (bit rot / lost replica).
    lost: HashSet<ObjectKey>,
    /// Whole storage nodes that are offline.
    down_shards: HashSet<usize>,
}

/// A shared fault plan attached to an [`crate::ObjectCluster`].
///
/// Tests arm it, then exercise the file system and observe that journals
/// and recovery keep the namespace consistent.
#[derive(Debug, Default)]
pub struct FaultPlan {
    state: Mutex<FaultState>,
}

impl FaultPlan {
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm: the next `n` PUTs (optionally only of `kind`) fail with
    /// [`OsError::Injected`].
    pub fn fail_next_puts(&self, n: u32, kind: Option<KeyKind>) {
        let mut s = self.state.lock();
        s.fail_next_puts = n;
        s.fail_kind = kind;
    }

    /// Arm: `key` is gone; GET/HEAD of it return `NotFound`.
    pub fn lose_object(&self, key: ObjectKey) {
        self.state.lock().lost.insert(key);
    }

    /// Take a whole storage shard offline (node failure). Reads fail
    /// over to the next replica.
    pub fn fail_shard(&self, idx: usize) {
        self.state.lock().down_shards.insert(idx);
    }

    /// Bring a shard back.
    pub fn restore_shard(&self, idx: usize) {
        self.state.lock().down_shards.remove(&idx);
    }

    /// Is this shard offline?
    pub fn is_shard_down(&self, idx: usize) -> bool {
        self.state.lock().down_shards.contains(&idx)
    }

    /// Disarm everything.
    pub fn clear(&self) {
        *self.state.lock() = FaultState::default();
    }

    /// Called by the cluster before applying a PUT.
    pub(crate) fn check_put(&self, key: ObjectKey) -> OsResult<()> {
        let mut s = self.state.lock();
        if s.fail_next_puts > 0 && s.fail_kind.is_none_or(|k| k == key.kind) {
            s.fail_next_puts -= 1;
            return Err(OsError::Injected("put failure"));
        }
        Ok(())
    }

    /// Called by the cluster before serving a GET/HEAD.
    pub(crate) fn is_lost(&self, key: ObjectKey) -> bool {
        self.state.lock().lost.contains(&key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_failures_count_down() {
        let f = FaultPlan::new();
        let k = ObjectKey::inode(1);
        f.fail_next_puts(2, None);
        assert!(f.check_put(k).is_err());
        assert!(f.check_put(k).is_err());
        assert!(f.check_put(k).is_ok());
    }

    #[test]
    fn kind_filter_applies() {
        let f = FaultPlan::new();
        f.fail_next_puts(1, Some(KeyKind::Journal));
        // Non-journal put sails through without consuming the budget.
        assert!(f.check_put(ObjectKey::inode(1)).is_ok());
        assert!(f.check_put(ObjectKey::journal(1, 0)).is_err());
        assert!(f.check_put(ObjectKey::journal(1, 1)).is_ok());
    }

    #[test]
    fn lost_objects_and_clear() {
        let f = FaultPlan::new();
        let k = ObjectKey::data_chunk(3, 0);
        assert!(!f.is_lost(k));
        f.lose_object(k);
        assert!(f.is_lost(k));
        f.clear();
        assert!(!f.is_lost(k));
    }
}
