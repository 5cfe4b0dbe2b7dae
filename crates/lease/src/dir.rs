//! The directory lease manager.
//!
//! "ArkFS deploys a lease manager in the cluster and it issues a lease
//! with a period of 5 seconds by default [...] The lease mechanism works
//! in a first-come, first-served manner" (§III-B).

use crate::Ino;
use arkfs_netsim::{NodeId, Service};
use arkfs_simkit::hash::HashMap;
use arkfs_simkit::{Nanos, SharedResource, SEC};
use arkfs_telemetry::{Counter, Telemetry, PID_LEASE};
use parking_lot::Mutex;
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// Lease-manager tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseConfig {
    /// Lease validity period (paper default: 5 s).
    pub period: Nanos,
    /// Extra wait after a *dirty* holder change (holder expired without
    /// releasing) before a new client may take over — gives file leases
    /// issued by the dead leader time to drain (§III-E.1).
    pub grace: Nanos,
    /// Service time of one request at the manager.
    pub op_service: Nanos,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig {
            period: 5 * SEC,
            grace: 5 * SEC,
            op_service: 5_000,
        }
    }
}

/// A directory view its leader left with the manager, for the manager to
/// hand to the clients it redirects: they then resolve through the
/// directory without asking the leader. The manager stores and returns
/// `body` without looking inside — handing it out is a refcount clone —
/// and reads only `stamp`.
#[derive(Clone)]
pub struct LeaseView {
    /// The leader's clock when it built the view, which is valid until
    /// `stamp + period` and never handed out after that.
    pub stamp: Nanos,
    pub body: Arc<dyn Any + Send + Sync>,
}

impl fmt::Debug for LeaseView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LeaseView@{}", self.stamp)
    }
}

/// Two views are equal when they are the same deposit.
impl PartialEq for LeaseView {
    fn eq(&self, other: &Self) -> bool {
        self.stamp == other.stamp && Arc::ptr_eq(&self.body, &other.body)
    }
}

impl Eq for LeaseView {}

/// Requests understood by the manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseRequest {
    /// Acquire (or extend) the lease of directory `ino`.
    Acquire { client: NodeId, ino: Ino },
    /// Voluntarily give the lease back after flushing everything.
    Release { client: NodeId, ino: Ino },
    /// `Acquire` by a client that holds the lease already, leaving
    /// `view` with the manager. From anyone else it is a plain `Acquire`
    /// and the view is dropped: only the holder's table is current.
    Deposit {
        client: NodeId,
        ino: Ino,
        view: LeaseView,
    },
    /// The holder withdraws its deposited view (the directory changed).
    /// Answered [`LeaseResponse::Released`]; ignored from anyone else.
    Revoke { client: NodeId, ino: Ino },
}

/// Manager responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseResponse {
    /// The caller is now (still) the directory leader.
    Granted {
        expires_at: Nanos,
        /// The caller must (re)load the metatable from object storage.
        /// `false` only for seamless extension / same-holder re-acquire,
        /// whose in-memory metatable is guaranteed up to date (§III-B).
        must_load: bool,
        /// The previous holder expired without releasing: the new leader
        /// must scan the per-directory journal for unfinished
        /// transactions and recover (§III-E.1).
        takeover_dirty: bool,
    },
    /// Someone else is the leader; forward operations to them.
    Redirect { leader: NodeId },
    /// Temporarily unavailable (recovery hold-off or manager restart
    /// grace); try again at `until`.
    Retry { until: Nanos },
    /// Release or revoke acknowledged (or ignored: not the holder).
    Released,
    /// `Redirect`, with the view the leader deposited: only while the
    /// lease and the view's `stamp + period` are both live.
    RedirectView { leader: NodeId, view: LeaseView },
}

#[derive(Debug)]
struct LeaseState {
    holder: NodeId,
    expires_at: Nanos,
    /// Holder released voluntarily (all state flushed).
    clean: bool,
    /// The holder's deposit and when it was served; gone with its lease
    /// (release, expiry, takeover) and with the manager (restart).
    view: Option<(LeaseView, Nanos)>,
}

#[derive(Debug, Default)]
struct ManagerState {
    leases: HashMap<Ino, LeaseState>,
    /// Monotone view of time derived from request arrivals.
    now: Nanos,
}

/// The cluster-wide directory lease manager. Register it on a
/// [`arkfs_netsim::Bus`] as the service of its node.
pub struct LeaseManager {
    config: LeaseConfig,
    /// Requests are serialized at the manager; this models its CPU.
    server: SharedResource,
    state: Mutex<ManagerState>,
    /// Virtual boot time. After a restart the manager refuses grants for
    /// one lease period so stale leaders can expire (§III-E.2).
    boot_at: Nanos,
    tel: Option<LeaseTelemetry>,
}

/// Pre-resolved registry handles (see [`LeaseManager::with_telemetry`]).
struct LeaseTelemetry {
    telemetry: Arc<Telemetry>,
    acquires: Arc<Counter>,
    grants: Arc<Counter>,
    redirects: Arc<Counter>,
    retries: Arc<Counter>,
    releases: Arc<Counter>,
    /// `lease.view.{deposit,revoke}.count`: views accepted and revoke
    /// requests; `lease.redirect.view.count`: redirects that carried one
    /// (also counted as redirects).
    deposits: Arc<Counter>,
    revokes: Arc<Counter>,
    redirect_views: Arc<Counter>,
    /// `lease.manager.busy_ns` / `lease.manager.forgotten_ns`: service
    /// time booked at any manager, and how much of it the managers'
    /// timelines dropped past their interval bound (sums over the
    /// manager set; [`LeaseManager::stats`] has one manager's share).
    busy: Arc<Counter>,
    forgotten: Arc<Counter>,
}

impl LeaseManager {
    pub fn new(config: LeaseConfig) -> Self {
        Self::restarted_at(config, 0)
    }

    /// A manager that (re)booted at virtual time `boot_at`: it enforces
    /// the startup grace window from that point.
    pub fn restarted_at(config: LeaseConfig, boot_at: Nanos) -> Self {
        LeaseManager {
            config,
            server: SharedResource::ideal("lease-mgr"),
            state: Mutex::new(ManagerState {
                leases: HashMap::default(),
                now: boot_at,
            }),
            boot_at,
            tel: None,
        }
    }

    /// Record request/outcome counters (`lease.*`) and service spans
    /// into a deployment's shared telemetry.
    pub fn with_telemetry(mut self, telemetry: &Arc<Telemetry>) -> Self {
        let reg = &telemetry.registry;
        self.tel = Some(LeaseTelemetry {
            telemetry: Arc::clone(telemetry),
            acquires: reg.counter("lease.acquire.count"),
            grants: reg.counter("lease.grant.count"),
            redirects: reg.counter("lease.redirect.count"),
            retries: reg.counter("lease.retry.count"),
            releases: reg.counter("lease.release.count"),
            deposits: reg.counter("lease.view.deposit.count"),
            revokes: reg.counter("lease.view.revoke.count"),
            redirect_views: reg.counter("lease.redirect.view.count"),
            busy: reg.counter("lease.manager.busy_ns"),
            forgotten: reg.counter("lease.manager.forgotten_ns"),
        });
        self
    }

    pub fn config(&self) -> &LeaseConfig {
        &self.config
    }

    /// Requests this manager served, the virtual nanoseconds its server
    /// was busy with them, and the busy nanoseconds its timeline forgot
    /// ([`SharedResource::forgotten`]). Busy time over a run's makespan
    /// is the manager's utilisation; a nonzero third number means the
    /// model let it serve more than that.
    pub fn stats(&self) -> (u64, Nanos, Nanos) {
        (
            self.server.served(),
            self.server.busy_time(),
            self.server.forgotten().1,
        )
    }

    /// Number of directories with a currently tracked lease record.
    pub fn tracked_leases(&self) -> usize {
        self.state.lock().leases.len()
    }

    fn acquire(
        &self,
        now: Nanos,
        client: NodeId,
        ino: Ino,
        deposit: Option<LeaseView>,
    ) -> LeaseResponse {
        // Startup grace: a freshly (re)started manager must not grant
        // until leases issued before the crash have certainly expired.
        let ready_at = self.boot_at.saturating_add(if self.boot_at == 0 {
            0
        } else {
            self.config.period
        });
        if now < ready_at {
            return LeaseResponse::Retry { until: ready_at };
        }
        let mut st = self.state.lock();
        let served_at = now;
        st.now = st.now.max(now);
        let now = st.now;
        let expires_at = now.saturating_add(self.config.period);
        let st = &mut *st;
        match st.leases.get_mut(&ino) {
            None => {
                st.leases.insert(
                    ino,
                    LeaseState {
                        holder: client,
                        expires_at,
                        clean: false,
                        view: None,
                    },
                );
                LeaseResponse::Granted {
                    expires_at,
                    must_load: true,
                    takeover_dirty: false,
                }
            }
            Some(lease) if lease.holder == client => {
                // Extension (before expiry) or same-holder re-acquire
                // (after): either way the in-memory metatable is still
                // authoritative, because nobody else could have led the
                // directory in between.
                if deposit.is_some() || now > lease.expires_at {
                    lease.view = deposit.map(|view| (view, served_at));
                }
                lease.expires_at = expires_at;
                lease.clean = false;
                LeaseResponse::Granted {
                    expires_at,
                    must_load: false,
                    takeover_dirty: false,
                }
            }
            // A cleanly released lease is immediately grantable even if
            // virtual clocks make `now` land exactly on its expiry.
            Some(lease) if now <= lease.expires_at && !lease.clean => {
                let leader = lease.holder;
                // Callers run on clocks of their own: one served before
                // the deposit was cannot have it.
                let live = |(v, since): &&(LeaseView, Nanos)| {
                    served_at >= *since && now < v.stamp.saturating_add(self.config.period)
                };
                match lease.view.as_ref().filter(live) {
                    Some((view, _)) => LeaseResponse::RedirectView {
                        leader,
                        view: view.clone(),
                    },
                    None => LeaseResponse::Redirect { leader },
                }
            }
            Some(lease) => {
                // Previous holder expired. Dirty takeovers wait out the
                // grace window so the dead leader's file leases drain.
                if !lease.clean {
                    let until = lease.expires_at.saturating_add(self.config.grace);
                    if now < until {
                        return LeaseResponse::Retry { until };
                    }
                }
                let takeover_dirty = !lease.clean;
                *lease = LeaseState {
                    holder: client,
                    expires_at,
                    clean: false,
                    view: None,
                };
                LeaseResponse::Granted {
                    expires_at,
                    must_load: true,
                    takeover_dirty,
                }
            }
        }
    }

    /// Drop the holder's view and, for a release, its lease.
    fn release(&self, now: Nanos, client: NodeId, ino: Ino, lease_too: bool) -> LeaseResponse {
        let mut st = self.state.lock();
        st.now = st.now.max(now);
        let released_at = st.now;
        if let Some(lease) = st.leases.get_mut(&ino) {
            if lease.holder == client {
                lease.view = None;
                if lease_too {
                    lease.expires_at = released_at;
                    lease.clean = true;
                }
            }
        }
        LeaseResponse::Released
    }
}

impl Service<LeaseRequest, LeaseResponse> for LeaseManager {
    fn handle(&self, arrival: Nanos, req: LeaseRequest) -> (LeaseResponse, Nanos) {
        // "Acquiring/extending a lease is a very lightweight operation"
        // (§III-B) — but it is still serialized at its manager.
        let (done, forgot) = self
            .server
            .reserve_counting(arrival, self.config.op_service);
        let deposits = matches!(req, LeaseRequest::Deposit { .. });
        let (name, resp) = match req {
            LeaseRequest::Acquire { client, ino } => {
                ("lease.acquire", self.acquire(done, client, ino, None))
            }
            LeaseRequest::Deposit { client, ino, view } => {
                ("lease.acquire", self.acquire(done, client, ino, Some(view)))
            }
            LeaseRequest::Release { client, ino } => {
                ("lease.release", self.release(done, client, ino, true))
            }
            LeaseRequest::Revoke { client, ino } => {
                ("lease.revoke", self.release(done, client, ino, false))
            }
        };
        if let Some(tel) = &self.tel {
            tel.busy.add(self.config.op_service);
            if forgot > 0 {
                tel.forgotten.add(forgot);
            }
            if name == "lease.acquire" {
                tel.acquires.inc();
            }
            match &resp {
                LeaseResponse::Granted { must_load, .. } => {
                    tel.grants.inc();
                    if deposits && !must_load {
                        tel.deposits.inc();
                    }
                }
                LeaseResponse::Redirect { .. } => tel.redirects.inc(),
                LeaseResponse::RedirectView { .. } => {
                    tel.redirects.inc();
                    tel.redirect_views.inc();
                }
                LeaseResponse::Retry { .. } => tel.retries.inc(),
                LeaseResponse::Released if name == "lease.release" => tel.releases.inc(),
                LeaseResponse::Released => tel.revokes.inc(),
            }
            if tel.telemetry.tracer.enabled() {
                tel.telemetry
                    .tracer
                    .record(PID_LEASE, 0, name, "lease", arrival, done);
            }
        }
        (resp, done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIR: Ino = 42;
    const C1: NodeId = NodeId(1);
    const C2: NodeId = NodeId(2);

    fn mgr() -> LeaseManager {
        LeaseManager::new(LeaseConfig {
            period: 100,
            grace: 100,
            op_service: 0,
        })
    }

    fn acquire(m: &LeaseManager, now: Nanos, c: NodeId) -> LeaseResponse {
        m.acquire(now, c, DIR, None)
    }

    #[test]
    fn first_come_first_served() {
        let m = mgr();
        let r1 = acquire(&m, 0, C1);
        assert_eq!(
            r1,
            LeaseResponse::Granted {
                expires_at: 100,
                must_load: true,
                takeover_dirty: false
            }
        );
        // C2 is redirected to the leader while the lease is valid.
        assert_eq!(acquire(&m, 50, C2), LeaseResponse::Redirect { leader: C1 });
        assert_eq!(m.tracked_leases(), 1);
    }

    #[test]
    fn extension_skips_reload() {
        let m = mgr();
        acquire(&m, 0, C1);
        let r = acquire(&m, 90, C1);
        assert_eq!(
            r,
            LeaseResponse::Granted {
                expires_at: 190,
                must_load: false,
                takeover_dirty: false
            }
        );
    }

    #[test]
    fn same_holder_reacquire_after_expiry_skips_reload() {
        let m = mgr();
        acquire(&m, 0, C1);
        // Long after expiry, the same client re-acquires: nobody else led
        // the directory, so its metatable is still valid.
        let r = acquire(&m, 500, C1);
        assert!(matches!(
            r,
            LeaseResponse::Granted {
                must_load: false,
                ..
            }
        ));
    }

    #[test]
    fn dirty_takeover_waits_grace_then_flags_recovery() {
        let m = mgr();
        acquire(&m, 0, C1); // expires at 100
                            // C2 at t=150: lease expired but grace (until 200) not over.
        assert_eq!(acquire(&m, 150, C2), LeaseResponse::Retry { until: 200 });
        // C2 at t=200: takeover succeeds, flagged dirty.
        let r = acquire(&m, 200, C2);
        assert_eq!(
            r,
            LeaseResponse::Granted {
                expires_at: 300,
                must_load: true,
                takeover_dirty: true
            }
        );
    }

    #[test]
    fn clean_release_allows_immediate_takeover() {
        let m = mgr();
        acquire(&m, 0, C1);
        assert_eq!(m.release(10, C1, DIR, true), LeaseResponse::Released);
        let r = acquire(&m, 11, C2);
        assert_eq!(
            r,
            LeaseResponse::Granted {
                expires_at: 111,
                must_load: true,
                takeover_dirty: false
            }
        );
    }

    #[test]
    fn release_by_non_holder_is_ignored() {
        let m = mgr();
        acquire(&m, 0, C1);
        m.release(10, C2, DIR, true);
        // C1 still the leader.
        assert_eq!(acquire(&m, 20, C2), LeaseResponse::Redirect { leader: C1 });
    }

    #[test]
    fn restarted_manager_enforces_startup_grace() {
        let cfg = LeaseConfig {
            period: 100,
            grace: 100,
            op_service: 0,
        };
        let m = LeaseManager::restarted_at(cfg, 1000);
        assert_eq!(
            m.acquire(1050, C1, DIR, None),
            LeaseResponse::Retry { until: 1100 }
        );
        assert!(matches!(
            m.acquire(1100, C1, DIR, None),
            LeaseResponse::Granted { .. }
        ));
    }

    #[test]
    fn fresh_manager_at_time_zero_has_no_grace() {
        let m = mgr();
        assert!(matches!(
            m.acquire(0, C1, DIR, None),
            LeaseResponse::Granted { .. }
        ));
    }

    #[test]
    fn time_never_runs_backwards() {
        let m = mgr();
        acquire(&m, 1000, C1);
        // A stale arrival (t=0) cannot observe the lease as unexpired
        // forever; internal time is max-merged, so C2's early-arrival
        // request is treated at t>=1000 and gets redirected (valid lease).
        assert_eq!(acquire(&m, 0, C2), LeaseResponse::Redirect { leader: C1 });
    }

    #[test]
    fn service_trait_charges_server_time() {
        let m = LeaseManager::new(LeaseConfig {
            period: 100,
            grace: 0,
            op_service: 7,
        });
        let (resp, done) = m.handle(
            0,
            LeaseRequest::Acquire {
                client: C1,
                ino: DIR,
            },
        );
        assert!(matches!(resp, LeaseResponse::Granted { .. }));
        assert_eq!(done, 7);
        // Second request queues behind the first.
        let (_, done2) = m.handle(
            0,
            LeaseRequest::Release {
                client: C1,
                ino: DIR,
            },
        );
        assert_eq!(done2, 14);
    }

    fn view(stamp: Nanos) -> LeaseView {
        let body = Arc::new(());
        LeaseView { stamp, body }
    }

    /// What a redirected `C2` is handed at `now`.
    fn handed(m: &LeaseManager, now: Nanos) -> Option<LeaseView> {
        match acquire(m, now, C2) {
            LeaseResponse::RedirectView { leader, view } => {
                assert_eq!(leader, C1);
                Some(view)
            }
            LeaseResponse::Redirect { leader: C1 } => None,
            other => panic!("not redirected to C1: {other:?}"),
        }
    }

    #[test]
    fn only_the_holder_deposits_and_revokes() {
        let m = mgr();
        // A first grant takes no view: the table is not loaded yet.
        assert!(matches!(
            m.acquire(0, C1, DIR, Some(view(0))),
            LeaseResponse::Granted {
                must_load: true,
                ..
            }
        ));
        assert_eq!(handed(&m, 5), None);
        let v = view(10);
        m.acquire(10, C1, DIR, Some(v.clone()));
        assert_eq!(handed(&m, 20), Some(v.clone()));
        // A deposit by anyone else is an acquire; its view is dropped.
        assert_eq!(
            m.acquire(30, C2, DIR, Some(view(30))),
            LeaseResponse::RedirectView {
                leader: C1,
                view: v.clone()
            }
        );
        m.release(40, C2, DIR, false);
        assert_eq!(handed(&m, 50), Some(v));
        // The holder's revoke takes the view and leaves the lease.
        m.release(60, C1, DIR, false);
        assert_eq!(handed(&m, 70), None);
    }

    #[test]
    fn release_expiry_takeover_and_restart_drop_the_view() {
        // Stamped by a clock far ahead, so that only these rules, not
        // the view's own age, can be what drops it.
        let deposited = |m: &LeaseManager| {
            acquire(m, 0, C1);
            m.acquire(10, C1, DIR, Some(view(10_000)));
            assert!(handed(m, 20).is_some());
        };
        // Release, then the same client again: the old view is gone.
        let m = mgr();
        deposited(&m);
        m.release(30, C1, DIR, true);
        acquire(&m, 30, C1);
        assert_eq!(handed(&m, 50), None);
        // Expiry, then a same-holder re-acquire long after.
        let m = mgr();
        deposited(&m);
        assert!(matches!(
            acquire(&m, 500, C1),
            LeaseResponse::Granted {
                must_load: false,
                ..
            }
        ));
        assert_eq!(handed(&m, 510), None);
        // Takeover: the successor's redirects carry nothing of C1's.
        let m = mgr();
        deposited(&m);
        assert!(matches!(
            acquire(&m, 400, C2),
            LeaseResponse::Granted { .. }
        ));
        assert_eq!(acquire(&m, 410, C1), LeaseResponse::Redirect { leader: C2 });
        // A restarted manager knows no lease and no view.
        let m = LeaseManager::restarted_at(*mgr().config(), 1000);
        assert!(matches!(
            m.acquire(1100, C1, DIR, Some(view(1100))),
            LeaseResponse::Granted {
                must_load: true,
                ..
            }
        ));
        assert_eq!(handed(&m, 1110), None);
    }

    #[test]
    fn a_redirect_carries_the_view_while_lease_and_stamp_are_live() {
        let m = mgr();
        acquire(&m, 0, C1);
        let v = view(40);
        m.acquire(50, C1, DIR, Some(v.clone())); // lease until 150
                                                 // The holder itself is granted, never handed its view back.
        assert!(matches!(acquire(&m, 60, C1), LeaseResponse::Granted { .. })); // until 160
        assert_eq!(handed(&m, 139), Some(v));
        // stamp + period has passed; the lease (until 160) has not.
        assert_eq!(handed(&m, 140), None);
        // Past the lease there is no redirect to carry anything.
        assert_eq!(acquire(&m, 200, C2), LeaseResponse::Retry { until: 260 });
    }

    #[test]
    fn a_caller_served_before_the_deposit_is_handed_nothing() {
        // Engine actors run on clocks of their own: a request can be
        // served at a virtual time earlier than a deposit the manager
        // already holds. That caller could not have seen it.
        let m = mgr();
        acquire(&m, 0, C1);
        m.acquire(50, C1, DIR, Some(view(50)));
        assert_eq!(handed(&m, 49), None);
        assert!(handed(&m, 50).is_some());
    }

    #[test]
    fn leases_are_per_directory() {
        let m = mgr();
        assert!(matches!(
            m.acquire(0, C1, 1, None),
            LeaseResponse::Granted { .. }
        ));
        assert!(matches!(
            m.acquire(0, C2, 2, None),
            LeaseResponse::Granted { .. }
        ));
        assert_eq!(m.tracked_leases(), 2);
    }
}
