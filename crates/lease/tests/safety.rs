//! Safety property of the directory lease protocol: at most one valid
//! leader per directory at any time, under arbitrary interleavings of
//! acquires, releases, deposits, revokes and time advancement — and a
//! redirect carries a view exactly when the holder it names deposited
//! one that is still live: not revoked, not released, not outlived by
//! its lease, stamped less than a period ago.

use arkfs_lease::{LeaseConfig, LeaseManager, LeaseRequest, LeaseResponse, LeaseView};
use arkfs_netsim::{NodeId, Service};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone, Copy)]
enum Act {
    Acquire {
        client: u32,
        dir: u8,
    },
    /// An acquire that leaves a view stamped `age` ns ago.
    Deposit {
        client: u32,
        dir: u8,
        age: u32,
    },
    Release {
        client: u32,
        dir: u8,
    },
    Revoke {
        client: u32,
        dir: u8,
    },
    Advance(u32),
}

fn arb_act() -> impl Strategy<Value = Act> {
    let who = || (0u32..6, 0u8..3);
    prop_oneof![
        who().prop_map(|(client, dir)| Act::Acquire { client, dir }),
        (who(), 0u32..150).prop_map(|((client, dir), age)| Act::Deposit { client, dir, age }),
        who().prop_map(|(client, dir)| Act::Release { client, dir }),
        who().prop_map(|(client, dir)| Act::Revoke { client, dir }),
        (1u32..200).prop_map(Act::Advance),
    ]
}

proptest! {
    #[test]
    fn at_most_one_valid_leader(acts in prop::collection::vec(arb_act(), 1..200)) {
        let config = LeaseConfig { period: 100, grace: 100, op_service: 0 };
        let mgr = LeaseManager::new(config);
        let mut now: u64 = 0;
        // Current belief: dir -> (holder, expires_at), from granted
        // responses only.
        let mut holders: HashMap<u8, (u32, u64)> = HashMap::new();
        // The view each directory's holder has with the manager.
        let mut views: HashMap<u8, LeaseView> = HashMap::new();
        for act in acts {
            let (client, dir, deposit) = match act {
                Act::Advance(dt) => {
                    now += dt as u64;
                    continue;
                }
                Act::Release { client, dir } | Act::Revoke { client, dir } => {
                    let (client_id, ino) = (NodeId(client), dir as u128);
                    let release = matches!(act, Act::Release { .. });
                    let req = match release {
                        true => LeaseRequest::Release { client: client_id, ino },
                        false => LeaseRequest::Revoke { client: client_id, ino },
                    };
                    let (resp, done) = mgr.handle(now, req);
                    now = now.max(done);
                    prop_assert!(matches!(resp, LeaseResponse::Released));
                    // Only the holder's word counts, for either.
                    if holders.get(&dir).is_some_and(|&(h, _)| h == client) {
                        views.remove(&dir);
                        if release {
                            holders.remove(&dir);
                        }
                    }
                    continue;
                }
                Act::Acquire { client, dir } => (client, dir, None),
                Act::Deposit { client, dir, age } => {
                    let stamp = now.saturating_sub(age as u64);
                    (client, dir, Some(LeaseView { stamp, body: Arc::new(()) }))
                }
            };
                    let (client_id, ino) = (NodeId(client), dir as u128);
                    let (resp, done) = mgr.handle(now, match deposit.clone() {
                        Some(view) => LeaseRequest::Deposit { client: client_id, ino, view },
                        None => LeaseRequest::Acquire { client: client_id, ino },
                    });
                    now = now.max(done);
                    match resp {
                        LeaseResponse::Granted { expires_at, must_load, .. } => {
                            // A view is taken from a client that held
                            // the lease already, and from nobody else;
                            // it goes when its lease lapsed or moved.
                            let lapsed = holders.get(&dir).is_none_or(|&(_, exp)| exp < now);
                            match deposit {
                                Some(view) if !must_load => {
                                    views.insert(dir, view);
                                }
                                _ if must_load || lapsed => {
                                    views.remove(&dir);
                                }
                                _ => {}
                            }
                            // SAFETY: nobody else may hold an unexpired
                            // lease on this directory.
                            if let Some(&(holder, exp)) = holders.get(&dir) {
                                prop_assert!(
                                    holder == client || exp < now,
                                    "dir {dir}: granted to {client} at {now} while {holder} \
                                     holds until {exp}"
                                );
                            }
                            prop_assert!(expires_at > now);
                            holders.insert(dir, (client, expires_at));
                        }
                        LeaseResponse::Redirect { leader }
                        | LeaseResponse::RedirectView { leader, .. } => {
                            // Redirect must point at the current valid
                            // holder.
                            let (holder, exp) = holders[&dir];
                            prop_assert_eq!(leader, NodeId(holder));
                            prop_assert!(exp >= now, "redirect to expired holder");
                            // With that holder's view iff it is live.
                            let live = views.get(&dir).filter(|v| now < v.stamp + config.period);
                            match resp {
                                LeaseResponse::RedirectView { view, .. } => {
                                    prop_assert_eq!(Some(&view), live, "at {}", now);
                                }
                                _ => prop_assert_eq!(None, live, "view withheld at {}", now),
                            }
                        }
                        LeaseResponse::Retry { until } => {
                            prop_assert!(until > now);
                        }
                        LeaseResponse::Released => prop_assert!(false, "released on acquire"),
                    }
        }
    }
}
