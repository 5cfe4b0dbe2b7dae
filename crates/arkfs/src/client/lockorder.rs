//! Lock-ordering rule for the client's shared state, with a
//! debug-build assertion helper.
//!
//! The client's hot state is guarded by three ranks of locks, and every
//! code path must acquire them in strictly increasing rank order:
//!
//! 1. **Stripe** — a dir-table stripe ([`super::dirsvc::DirService`])
//!    or a permission-cache stripe ([`super::namei::Pcache`]). Keyed by
//!    directory inode.
//! 2. **Metatable** — the per-led-directory
//!    [`crate::metatable::Metatable`] mutex.
//! 3. **Leaf** — the [`crate::cache::DataCache`] mutex and the
//!    open-handle shards ([`super::filetable::FileTable`]). Leaf locks
//!    are never held while acquiring any other ranked lock.
//!
//! In shorthand: **stripe → metatable → cache**. Same-rank locks are
//! never nested (sequential acquisition after release is fine — e.g.
//! `serve_flush` takes the data cache, releases it, then walks the
//! handle shards one at a time).
//!
//! Ranks are tracked per *client* (per [`arkfs_netsim::NodeId`]): a
//! leader holding its own metatable legitimately calls into another
//! client's RPC service on the same OS thread (the simulated network is
//! synchronous), and that callee starts a fresh ordering context for
//! its own locks.
//!
//! In release builds this module compiles to nothing.

#[cfg(debug_assertions)]
use std::cell::RefCell;

/// Lock ranks, lowest acquired first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Rank {
    /// Dir-table or pcache stripe.
    Stripe = 1,
    /// A led directory's metatable.
    Metatable = 2,
    /// Data cache / handle shard.
    Leaf = 3,
}

#[cfg(debug_assertions)]
thread_local! {
    /// Stack of `(client node id, rank)` pairs held by this thread.
    static HELD: RefCell<Vec<(u32, Rank)>> = const { RefCell::new(Vec::new()) };
}

/// Marks a ranked lock as held until dropped. Acquire it *immediately
/// before* taking the lock it guards, and keep it alive for the same
/// scope as the `MutexGuard`.
#[must_use = "the rank is released when this guard drops"]
#[derive(Debug)]
pub(crate) struct RankGuard {
    #[cfg(debug_assertions)]
    client: u32,
    #[cfg(debug_assertions)]
    rank: Rank,
}

/// Assert that acquiring `rank` on behalf of client `client` respects
/// the stripe → metatable → cache order, and record it as held.
#[inline]
pub(crate) fn acquire(client: u32, rank: Rank) -> RankGuard {
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
                     while already holding {worst:?} (rule: stripe → metatable → cache)"
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increasing_order_is_allowed() {
        let _s = acquire(1, Rank::Stripe);
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
        // which takes its own stripe: legal.
        let _m = acquire(1, Rank::Metatable);
        let _s = acquire(2, Rank::Stripe);
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
        let _a = acquire(1, Rank::Stripe);
        let _b = acquire(1, Rank::Stripe);
    }
}
