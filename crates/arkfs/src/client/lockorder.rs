//! Lock-ordering rule for the client's shared state, with a
//! debug-build assertion helper.
//!
//! The client's hot state is guarded by three ranks of locks, and every
//! code path must acquire them in strictly increasing rank order:
//!
//! 1. **Dir** — the dir table ([`super::dirsvc::DirService`]) or the
//!    permission cache ([`super::namei::Pcache`]): one lock each, both
//!    holding per-directory state.
//! 2. **Metatable** — the per-led-directory
//!    [`crate::metatable::Metatable`] mutex.
//! 3. **Leaf** — the [`crate::cache::DataCache`] mutex and the handle
//!    table ([`super::filetable::FileTable`]). Leaf locks are never held
//!    while acquiring any other ranked lock.
//!
//! In shorthand: **dir → metatable → cache**. Same-rank locks are never
//! nested (sequential acquisition after release is fine — e.g.
//! `serve_flush` takes the data cache, releases it, then the handle
//! table).
//!
//! Ranks are tracked per *client* (per [`arkfs_netsim::NodeId`]): a
//! leader holding its own metatable legitimately calls into another
//! client's RPC service on the same OS thread (the simulated network is
//! synchronous), and that callee starts a fresh ordering context for
//! its own locks.
//!
//! In release builds the check compiles to nothing.

use parking_lot::{Mutex, MutexGuard};
#[cfg(debug_assertions)]
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// Lock ranks, lowest acquired first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Rank {
    /// The dir table or the permission cache.
    Dir = 1,
    /// A led directory's metatable.
    Metatable = 2,
    /// Data cache / handle table.
    Leaf = 3,
}

#[cfg(debug_assertions)]
thread_local! {
    /// Stack of `(client node id, rank)` pairs held by this thread.
    static HELD: RefCell<Vec<(u32, Rank)>> = const { RefCell::new(Vec::new()) };
}

/// Marks a ranked lock as held until dropped: [`lock`] takes it just
/// before the mutex and keeps it for the `MutexGuard`'s scope.
#[must_use = "the rank is released when this guard drops"]
#[derive(Debug)]
struct RankGuard {
    #[cfg(debug_assertions)]
    client: u32,
    #[cfg(debug_assertions)]
    rank: Rank,
}

/// Assert that acquiring `rank` on behalf of client `client` respects
/// the dir → metatable → cache order, and record it as held.
#[inline]
fn acquire(client: u32, rank: Rank) -> RankGuard {
    #[cfg(debug_assertions)]
    {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&worst) = held
                .iter()
                .filter(|&&(c, _)| c == client)
                .map(|(_, r)| r)
                .max()
            {
                assert!(
                    rank > worst,
                    "lock-order violation on client {client}: acquiring {rank:?} \
                     while already holding {worst:?} (rule: dir → metatable → cache)"
                );
            }
            held.push((client, rank));
        });
        RankGuard { client, rank }
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (client, rank);
        RankGuard {}
    }
}

#[cfg(debug_assertions)]
impl Drop for RankGuard {
    fn drop(&mut self) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            let pos = held
                .iter()
                .rposition(|&(c, r)| c == self.client && r == self.rank)
                .expect("RankGuard dropped twice");
            held.remove(pos);
        });
    }
}

/// A locked mutex plus its rank guard; derefs to the data.
pub(crate) struct Ranked<'a, T> {
    guard: MutexGuard<'a, T>,
    _rank: RankGuard,
}

/// Lock `mutex` as a `rank` lock of client `client` (see [`acquire`]).
pub(crate) fn lock<T>(client: u32, rank: Rank, mutex: &Mutex<T>) -> Ranked<'_, T> {
    let rank = acquire(client, rank);
    Ranked {
        guard: mutex.lock(),
        _rank: rank,
    }
}

impl<T> Deref for Ranked<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for Ranked<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increasing_order_is_allowed() {
        let _s = acquire(1, Rank::Dir);
        let _m = acquire(1, Rank::Metatable);
        let _l = acquire(1, Rank::Leaf);
    }

    #[test]
    fn sequential_same_rank_is_allowed() {
        for _ in 0..3 {
            let _l = acquire(1, Rank::Leaf);
        }
    }

    #[test]
    fn other_clients_start_fresh() {
        // A leader holding its metatable calls into another client,
        // which takes its own dir table: legal.
        let _m = acquire(1, Rank::Metatable);
        let _s = acquire(2, Rank::Dir);
        let _l = acquire(2, Rank::Leaf);
    }

    // Release builds do not check the order, so there is nothing for
    // these two to observe there.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-order violation")]
    fn decreasing_order_panics_in_debug() {
        let _l = acquire(1, Rank::Leaf);
        let _m = acquire(1, Rank::Metatable);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-order violation")]
    fn nested_same_rank_panics_in_debug() {
        let _a = acquire(1, Rank::Dir);
        let _b = acquire(1, Rank::Dir);
    }
}
