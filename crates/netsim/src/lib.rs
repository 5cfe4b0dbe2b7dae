//! RPC transports for the ArkFS stack.
//!
//! The paper uses gRPC for client↔client and client↔lease-manager
//! communication (§IV-A). Here the protocol surface is a [`Transport`]
//! trait — send a typed request to a [`NodeId`], get a response or a
//! typed [`NetError`] — with two implementations:
//!
//! * [`Bus`] — the virtual-time simulator transport. Functional dispatch
//!   is a direct (locked) call into the destination's [`Service`]
//!   implementation, while the *cost* — network round trip plus the
//!   destination's serialized service time — is charged to the caller's
//!   [`arkfs_simkit::Port`]. Deterministic; the default for every
//!   benchmark figure.
//! * [`TcpTransport`] (see [`tcp`]) — real length-prefixed frames over
//!   `std::net` sockets, for running the same stack across processes.
//!
//! Nodes can be `disconnect`ed to simulate crashes: calls then fail with
//! [`NetError::Unreachable`], which is how the lease-manager-failure and
//! client-failure scenarios of §III-E are exercised in tests.

pub mod tcp;

pub use tcp::{TcpTransport, WireFns};

use arkfs_simkit::hash::HashMap;
use arkfs_simkit::{Nanos, Port};
use arkfs_telemetry::{Counter, Registry};
use parking_lot::RwLock;
use std::fmt;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A network endpoint identity. The paper's `<ip_addr, port>` pair reduces
/// to this token; what socket address (if any) a node maps to is owned by
/// the transport carrying its traffic ([`Transport::addr_of`]) — a
/// virtual-bus node has none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Human-readable form for logs and errors: the transport's
    /// registered socket address when there is one, else the bare node
    /// token.
    pub fn label(&self, addr: Option<SocketAddr>) -> String {
        match addr {
            Some(a) => format!("{self}@{a}"),
            None => self.to_string(),
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// RPC failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// No service registered at the destination, or it was disconnected
    /// (crashed node), or the transport has no address for it.
    Unreachable,
    /// No response within the transport's deadline (or a bounded retry
    /// loop gave up on a transient error).
    Timeout,
    /// The peer's bytes did not decode as a protocol message.
    Decode,
    /// The connection failed mid-exchange (peer died, socket error).
    ConnReset,
}

impl NetError {
    /// Whether the failure is worth retrying: the request may simply
    /// have been lost (timeout, reset). `Unreachable` is authoritative
    /// — the destination is gone until someone re-registers it — and
    /// `Decode` is deterministic, so neither is retried.
    pub fn is_transient(&self) -> bool {
        matches!(self, NetError::Timeout | NetError::ConnReset)
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Unreachable => write!(f, "destination unreachable"),
            NetError::Timeout => write!(f, "request timed out"),
            NetError::Decode => write!(f, "protocol decode error"),
            NetError::ConnReset => write!(f, "connection reset"),
        }
    }
}

impl std::error::Error for NetError {}

/// A message handler living at a node. `arrival` is the caller's virtual
/// send time plus one-way latency; the implementation returns the response
/// together with the virtual time at which it was produced (usually after
/// reserving on its own [`arkfs_simkit::SharedResource`] to model request
/// serialization at the node).
pub trait Service<Req, Resp>: Send + Sync {
    fn handle(&self, arrival: Nanos, req: Req) -> (Resp, Nanos);
}

/// Blanket impl so closures can serve in tests.
impl<Req, Resp, F> Service<Req, Resp> for F
where
    F: Fn(Nanos, Req) -> (Resp, Nanos) + Send + Sync,
{
    fn handle(&self, arrival: Nanos, req: Req) -> (Resp, Nanos) {
        self(arrival, req)
    }
}

/// A typed RPC transport: one per protocol (lease protocol, forwarded
/// file-system operations, remote object storage). Everything above this
/// trait is transport-agnostic — the same client stack runs on the
/// virtual-time [`Bus`] and on [`TcpTransport`] sockets.
pub trait Transport<Req, Resp>: Send + Sync {
    /// Synchronous RPC to the service at `to`.
    fn call(&self, port: &Port, to: NodeId, req: Req) -> Result<Resp, NetError>;

    /// Attach a service at `node`, replacing any previous one ("restart").
    fn register(&self, node: NodeId, service: Arc<dyn Service<Req, Resp>>);

    /// Detach the service at `node`, simulating a crash.
    fn disconnect(&self, node: NodeId);

    /// Whether `node` is reachable (a local service or a known address).
    fn is_connected(&self, node: NodeId) -> bool;

    /// Total RPCs carried, for experiment accounting.
    fn message_count(&self) -> u64;

    /// The socket address this transport would dial for `node`, if it
    /// has one. The virtual bus has no addresses.
    fn addr_of(&self, _node: NodeId) -> Option<SocketAddr> {
        None
    }

    /// Sit out a retry backoff delay. The bus charges *virtual* time to
    /// the caller's port; a real transport sleeps the host thread for
    /// the same wall-clock duration.
    fn backoff(&self, port: &Port, delay: Nanos);
}

/// Bounded exponential backoff for transient RPC failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// Delay before the first retry; doubles per retry.
    pub base_delay: Nanos,
    /// Ceiling on any single delay.
    pub max_delay: Nanos,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: 2_000_000,  // 2 ms
            max_delay: 100_000_000, // 100 ms
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `retry` (0-based): `base << retry`,
    /// capped at `max_delay`.
    pub fn delay(&self, retry: u32) -> Nanos {
        self.base_delay
            .saturating_shl(retry.min(63))
            .min(self.max_delay)
    }
}

trait SaturatingShl {
    fn saturating_shl(self, n: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, n: u32) -> u64 {
        if self == 0 {
            return 0;
        }
        if n >= self.leading_zeros() {
            u64::MAX
        } else {
            self << n
        }
    }
}

/// Registry handles for the retry loop's counters.
pub struct RetryCounters {
    /// `net.retry.count`: transient failures that were retried.
    pub retries: Arc<Counter>,
    /// `net.give_up.count`: calls abandoned at the attempt cap.
    pub give_ups: Arc<Counter>,
}

impl RetryCounters {
    pub fn register(reg: &Registry) -> Self {
        RetryCounters {
            retries: reg.counter("net.retry.count"),
            give_ups: reg.counter("net.give_up.count"),
        }
    }
}

/// [`Transport::call`] under a bounded retry/backoff policy. Transient
/// failures (see [`NetError::is_transient`]) are retried with growing
/// delays — charged to virtual time on the bus and to wall-clock on TCP,
/// via [`Transport::backoff`] — until the attempt cap, where the call
/// gives up with [`NetError::Timeout`]. Non-transient failures return
/// immediately. The bus never produces a transient error, so on the
/// virtual-time path this wrapper is behaviorally invisible.
pub fn call_with_retry<Req: Clone, Resp>(
    transport: &dyn Transport<Req, Resp>,
    port: &Port,
    to: NodeId,
    req: Req,
    policy: RetryPolicy,
    counters: Option<&RetryCounters>,
) -> Result<Resp, NetError> {
    let attempts = policy.max_attempts.max(1);
    let mut retry = 0u32;
    loop {
        match transport.call(port, to, req.clone()) {
            Err(e) if e.is_transient() => {
                if retry + 1 >= attempts {
                    if let Some(c) = counters {
                        c.give_ups.inc();
                    }
                    return Err(NetError::Timeout);
                }
                if let Some(c) = counters {
                    c.retries.inc();
                }
                transport.backoff(port, policy.delay(retry));
                retry += 1;
            }
            r => return r,
        }
    }
}

/// The virtual-time transport. One bus per protocol (lease protocol,
/// forwarded file-system operations, cache-invalidation broadcasts...).
pub struct Bus<Req, Resp> {
    half_rtt: Nanos,
    services: RwLock<HashMap<NodeId, Arc<dyn Service<Req, Resp>>>>,
    messages: AtomicU64,
}

impl<Req, Resp> Bus<Req, Resp> {
    /// Create a bus whose links have the given one-way latency.
    pub fn new(half_rtt: Nanos) -> Self {
        Bus {
            half_rtt,
            services: RwLock::new(HashMap::default()),
            messages: AtomicU64::new(0),
        }
    }

    fn service(&self, to: NodeId) -> Result<Arc<dyn Service<Req, Resp>>, NetError> {
        let map = self.services.read();
        map.get(&to).cloned().ok_or(NetError::Unreachable)
    }
}

impl<Req: Send, Resp: Send> Transport<Req, Resp> for Bus<Req, Resp> {
    /// Charges a full round trip plus the destination's service
    /// completion to the caller's port.
    fn call(&self, port: &Port, to: NodeId, req: Req) -> Result<Resp, NetError> {
        let service = self.service(to)?;
        self.messages.fetch_add(1, Ordering::Relaxed);
        let arrival = port.advance(self.half_rtt);
        let (resp, done) = service.handle(arrival, req);
        port.wait_until(done.saturating_add(self.half_rtt));
        Ok(resp)
    }

    fn register(&self, node: NodeId, service: Arc<dyn Service<Req, Resp>>) {
        self.services.write().insert(node, service);
    }

    fn disconnect(&self, node: NodeId) {
        self.services.write().remove(&node);
    }

    fn is_connected(&self, node: NodeId) -> bool {
        self.services.read().contains_key(&node)
    }

    fn message_count(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    fn backoff(&self, port: &Port, delay: Nanos) {
        // Backoff on the simulated network is simulated time.
        port.advance(delay);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arkfs_simkit::SharedResource;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn node_labels_render() {
        assert_eq!(NodeId(3).to_string(), "node3");
        assert_eq!(NodeId(3).label(None), "node3");
        let addr: SocketAddr = "127.0.0.1:7600".parse().unwrap();
        assert_eq!(NodeId(3).label(Some(addr)), "node3@127.0.0.1:7600");
        // The bus has no address registry: labels fall back to the token.
        let bus: Bus<(), ()> = Bus::new(0);
        assert_eq!(Transport::addr_of(&bus, NodeId(3)), None);
    }

    #[test]
    fn call_charges_round_trip_and_service() {
        let bus: Bus<u32, u32> = Bus::new(100);
        let server = Arc::new(SharedResource::ideal("svc"));
        let service = {
            let server = Arc::clone(&server);
            move |arrival: Nanos, req: u32| {
                let done = server.reserve(arrival, 50);
                (req * 2, done)
            }
        };
        bus.register(NodeId(1), Arc::new(service));
        let port = Port::new();
        assert_eq!(bus.call(&port, NodeId(1), 21), Ok(42));
        // 100 (send) + 50 (service) + 100 (return)
        assert_eq!(port.now(), 250);
        assert_eq!(bus.message_count(), 1);
    }

    #[test]
    fn queueing_at_the_destination() {
        let bus: Bus<(), ()> = Bus::new(0);
        let server = Arc::new(SharedResource::ideal("svc"));
        let service = {
            let server = Arc::clone(&server);
            move |arrival: Nanos, _req: ()| ((), server.reserve(arrival, 10))
        };
        bus.register(NodeId(1), Arc::new(service));
        let p1 = Port::new();
        let p2 = Port::new();
        bus.call(&p1, NodeId(1), ()).unwrap();
        bus.call(&p2, NodeId(1), ()).unwrap();
        // Second caller queues behind the first at the server.
        assert_eq!(p1.now(), 10);
        assert_eq!(p2.now(), 20);
    }

    #[test]
    fn unreachable_nodes_error() {
        let bus: Bus<(), ()> = Bus::new(1);
        let port = Port::new();
        assert_eq!(bus.call(&port, NodeId(9), ()), Err(NetError::Unreachable));
        bus.register(NodeId(9), Arc::new(|a: Nanos, _| ((), a)));
        assert!(bus.is_connected(NodeId(9)));
        assert!(bus.call(&port, NodeId(9), ()).is_ok());
        bus.disconnect(NodeId(9));
        assert!(!bus.is_connected(NodeId(9)));
        assert_eq!(bus.call(&port, NodeId(9), ()), Err(NetError::Unreachable));
    }

    #[test]
    fn reregistering_replaces_service() {
        let bus: Bus<u8, u8> = Bus::new(0);
        bus.register(NodeId(1), Arc::new(|a: Nanos, _| (1u8, a)));
        bus.register(NodeId(1), Arc::new(|a: Nanos, _| (2u8, a)));
        let port = Port::new();
        assert_eq!(bus.call(&port, NodeId(1), 0).unwrap(), 2);
    }

    #[test]
    fn retry_policy_delays_grow_and_cap() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_delay: 10,
            max_delay: 50,
        };
        assert_eq!(p.delay(0), 10);
        assert_eq!(p.delay(1), 20);
        assert_eq!(p.delay(2), 40);
        assert_eq!(p.delay(3), 50, "capped");
        assert_eq!(p.delay(63), 50, "huge shifts saturate, never overflow");
    }

    /// A transport that fails transiently N times before delegating to an
    /// inner bus — the harness for the retry-policy contract.
    struct Flaky {
        inner: Bus<u32, u32>,
        failures_left: AtomicU32,
        error: NetError,
    }

    impl Transport<u32, u32> for Flaky {
        fn call(&self, port: &Port, to: NodeId, req: u32) -> Result<u32, NetError> {
            let left = self.failures_left.load(Ordering::Relaxed);
            if left > 0 {
                self.failures_left.store(left - 1, Ordering::Relaxed);
                return Err(self.error);
            }
            self.inner.call(port, to, req)
        }
        fn register(&self, node: NodeId, service: Arc<dyn Service<u32, u32>>) {
            self.inner.register(node, service)
        }
        fn disconnect(&self, node: NodeId) {
            self.inner.disconnect(node)
        }
        fn is_connected(&self, node: NodeId) -> bool {
            self.inner.is_connected(node)
        }
        fn message_count(&self) -> u64 {
            self.inner.message_count()
        }
        fn backoff(&self, port: &Port, delay: Nanos) {
            port.advance(delay);
        }
    }

    fn flaky(failures: u32, error: NetError) -> Flaky {
        let inner: Bus<u32, u32> = Bus::new(0);
        inner.register(NodeId(1), Arc::new(|a: Nanos, req: u32| (req + 1, a)));
        Flaky {
            inner,
            failures_left: AtomicU32::new(failures),
            error,
        }
    }

    #[test]
    fn transient_failures_retry_with_growing_delays() {
        let t = flaky(2, NetError::ConnReset);
        let reg = Registry::default();
        let counters = RetryCounters::register(&reg);
        let policy = RetryPolicy {
            max_attempts: 4,
            base_delay: 100,
            max_delay: 10_000,
        };
        let port = Port::new();
        let r = call_with_retry(&t, &port, NodeId(1), 41, policy, Some(&counters));
        assert_eq!(r, Ok(42));
        // Two failures -> two backoffs of 100 and 200 charged to the port.
        assert_eq!(port.now(), 300);
        assert_eq!(counters.retries.get(), 2);
        assert_eq!(counters.give_ups.get(), 0);
        assert_eq!(reg.counter("net.retry.count").get(), 2, "in the registry");
    }

    #[test]
    fn retry_gives_up_at_the_cap_with_timeout() {
        let t = flaky(u32::MAX, NetError::Timeout);
        let reg = Registry::default();
        let counters = RetryCounters::register(&reg);
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay: 10,
            max_delay: 1_000,
        };
        let port = Port::new();
        let r = call_with_retry(&t, &port, NodeId(1), 7, policy, Some(&counters));
        assert_eq!(r, Err(NetError::Timeout));
        // 3 attempts -> 2 retries (delays 10 + 20), then give up.
        assert_eq!(port.now(), 30);
        assert_eq!(counters.retries.get(), 2);
        assert_eq!(counters.give_ups.get(), 1);
        assert_eq!(reg.counter("net.give_up.count").get(), 1);
    }

    #[test]
    fn non_transient_failures_do_not_retry() {
        let t = flaky(5, NetError::Unreachable);
        let port = Port::new();
        let r = call_with_retry(&t, &port, NodeId(1), 7, RetryPolicy::default(), None);
        assert_eq!(r, Err(NetError::Unreachable));
        assert_eq!(port.now(), 0, "no backoff charged");
        let t = flaky(5, NetError::Decode);
        assert_eq!(
            call_with_retry(&t, &port, NodeId(1), 7, RetryPolicy::default(), None),
            Err(NetError::Decode)
        );
    }

    #[test]
    fn bus_via_trait_object_matches_inherent_behavior() {
        // Through a trait object, as the client stack holds its buses: the
        // same charges as the concrete bus above.
        let bus: Arc<dyn Transport<u32, u32>> = Arc::new(Bus::new(100));
        let server = Arc::new(SharedResource::ideal("svc"));
        let service = {
            let server = Arc::clone(&server);
            move |arrival: Nanos, req: u32| (req * 2, server.reserve(arrival, 50))
        };
        bus.register(NodeId(1), Arc::new(service));
        let port = Port::new();
        assert_eq!(bus.call(&port, NodeId(1), 21), Ok(42));
        assert_eq!(port.now(), 250);
        assert_eq!(bus.message_count(), 1);
    }
}
