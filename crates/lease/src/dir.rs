//! The directory lease manager.
//!
//! "ArkFS deploys a lease manager in the cluster and it issues a lease
//! with a period of 5 seconds by default [...] The lease mechanism works
//! in a first-come, first-served manner" (§III-B).

use crate::Ino;
use arkfs_netsim::{NodeId, Service};
use arkfs_simkit::{Nanos, SharedResource, SEC};
use arkfs_telemetry::{Counter, Telemetry, PID_LEASE};
use parking_lot::Mutex;
use std::collections::HashMap;
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

/// Requests understood by the manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseRequest {
    /// Acquire (or extend) the lease of directory `ino`.
    Acquire { client: NodeId, ino: Ino },
    /// Voluntarily give the lease back after flushing everything.
    Release { client: NodeId, ino: Ino },
}

/// Manager responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// Release acknowledged (or ignored: not the holder).
    Released,
}

#[derive(Debug)]
struct LeaseState {
    holder: NodeId,
    expires_at: Nanos,
    /// Holder released voluntarily (all state flushed).
    clean: bool,
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
                leases: HashMap::new(),
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

    fn acquire(&self, now: Nanos, client: NodeId, ino: Ino) -> LeaseResponse {
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
            Some(lease) if now <= lease.expires_at && !lease.clean => LeaseResponse::Redirect {
                leader: lease.holder,
            },
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
                };
                LeaseResponse::Granted {
                    expires_at,
                    must_load: true,
                    takeover_dirty,
                }
            }
        }
    }

    fn release(&self, now: Nanos, client: NodeId, ino: Ino) -> LeaseResponse {
        let mut st = self.state.lock();
        st.now = st.now.max(now);
        let released_at = st.now;
        if let Some(lease) = st.leases.get_mut(&ino) {
            if lease.holder == client {
                lease.expires_at = released_at;
                lease.clean = true;
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
        let is_acquire = matches!(req, LeaseRequest::Acquire { .. });
        let resp = match req {
            LeaseRequest::Acquire { client, ino } => self.acquire(done, client, ino),
            LeaseRequest::Release { client, ino } => self.release(done, client, ino),
        };
        if let Some(tel) = &self.tel {
            tel.busy.add(self.config.op_service);
            if forgot > 0 {
                tel.forgotten.add(forgot);
            }
            if is_acquire {
                tel.acquires.inc();
            }
            match &resp {
                LeaseResponse::Granted { .. } => tel.grants.inc(),
                LeaseResponse::Redirect { .. } => tel.redirects.inc(),
                LeaseResponse::Retry { .. } => tel.retries.inc(),
                LeaseResponse::Released => tel.releases.inc(),
            }
            if tel.telemetry.tracer.enabled() {
                let name = if is_acquire {
                    "lease.acquire"
                } else {
                    "lease.release"
                };
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
        m.acquire(now, c, DIR)
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
        assert_eq!(m.release(10, C1, DIR), LeaseResponse::Released);
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
        m.release(10, C2, DIR);
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
            m.acquire(1050, C1, DIR),
            LeaseResponse::Retry { until: 1100 }
        );
        assert!(matches!(
            m.acquire(1100, C1, DIR),
            LeaseResponse::Granted { .. }
        ));
    }

    #[test]
    fn fresh_manager_at_time_zero_has_no_grace() {
        let m = mgr();
        assert!(matches!(
            m.acquire(0, C1, DIR),
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

    #[test]
    fn leases_are_per_directory() {
        let m = mgr();
        assert!(matches!(m.acquire(0, C1, 1), LeaseResponse::Granted { .. }));
        assert!(matches!(m.acquire(0, C2, 2), LeaseResponse::Granted { .. }));
        assert_eq!(m.tracked_leases(), 2);
    }
}
