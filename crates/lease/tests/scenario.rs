//! Deterministic single-threaded lease scenarios scripted as a list of
//! timed events: expiry ordering, competing acquirers, recovery
//! hold-off, all on one explicit timeline.

use arkfs_lease::{LeaseConfig, LeaseManager, LeaseRequest, LeaseResponse};
use arkfs_netsim::{NodeId, Service};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    Acquire(NodeId),
    Release(NodeId),
}

const DIR: u128 = 7;

/// Drive the manager from a scripted event list, in time order (events
/// at the same instant keep their script order); returns the responses
/// in event order.
fn run(mgr: &LeaseManager, mut events: Vec<(u64, Event)>) -> Vec<(u64, LeaseResponse)> {
    events.sort_by_key(|&(at, _)| at);
    let mut out = Vec::new();
    for (at, event) in events {
        let req = match event {
            Event::Acquire(c) => LeaseRequest::Acquire {
                client: c,
                ino: DIR,
            },
            Event::Release(c) => LeaseRequest::Release {
                client: c,
                ino: DIR,
            },
        };
        let (resp, _done) = mgr.handle(at, req);
        out.push((at, resp));
    }
    out
}

#[test]
fn scripted_contention_timeline() {
    let mgr = LeaseManager::new(LeaseConfig {
        period: 100,
        grace: 50,
        op_service: 0,
    });
    let c1 = NodeId(1);
    let c2 = NodeId(2);
    let responses = run(
        &mgr,
        vec![
            (0, Event::Acquire(c1)),   // granted until 100
            (40, Event::Acquire(c2)),  // redirect to c1
            (90, Event::Acquire(c1)),  // extension until 190
            (150, Event::Acquire(c2)), // still valid -> redirect
            (200, Event::Acquire(c2)), // expired @190, dirty: retry until 240
            (240, Event::Acquire(c2)), // takeover, dirty
            (250, Event::Release(c2)), // clean handback
            (251, Event::Acquire(c1)), // immediate regrant
        ],
    );
    use LeaseResponse::*;
    let kinds: Vec<&LeaseResponse> = responses.iter().map(|(_, r)| r).collect();
    assert!(matches!(
        kinds[0],
        Granted {
            expires_at: 100,
            must_load: true,
            ..
        }
    ));
    assert!(matches!(kinds[1], Redirect { leader } if *leader == c1));
    assert!(matches!(
        kinds[2],
        Granted {
            expires_at: 190,
            must_load: false,
            ..
        }
    ));
    assert!(matches!(kinds[3], Redirect { leader } if *leader == c1));
    assert!(matches!(kinds[4], Retry { until: 240 }));
    assert!(
        matches!(
            kinds[5],
            Granted {
                takeover_dirty: true,
                must_load: true,
                ..
            }
        ),
        "{:?}",
        kinds[5]
    );
    assert!(matches!(kinds[6], Released));
    assert!(matches!(
        kinds[7],
        Granted {
            takeover_dirty: false,
            must_load: true,
            ..
        }
    ));
}

#[test]
fn simultaneous_acquires_are_fcfs_by_queue_order() {
    // Two acquires scripted at the same instant: script order decides;
    // the first scripted wins, the second is redirected.
    let mgr = LeaseManager::new(LeaseConfig {
        period: 100,
        grace: 0,
        op_service: 0,
    });
    let responses = run(
        &mgr,
        vec![
            (10, Event::Acquire(NodeId(5))),
            (10, Event::Acquire(NodeId(6))),
        ],
    );
    assert!(matches!(responses[0].1, LeaseResponse::Granted { .. }));
    assert!(matches!(responses[1].1, LeaseResponse::Redirect { leader } if leader == NodeId(5)));
}
