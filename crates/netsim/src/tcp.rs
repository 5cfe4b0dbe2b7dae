//! Real-socket transport: the same typed RPC surface as the virtual-time
//! [`Bus`](crate::Bus), carried as length-prefixed frames over `std::net`
//! TCP streams.
//!
//! Built only on the standard library (the workspace is vendored/offline):
//! a blocking thread-per-connection accept loop on the serving side
//! (woken for shutdown by a self-connection), a small connection pool on
//! the calling side. Frames are:
//!
//! ```text
//! request:  u32 len | u8 kind (0=call, 2=shutdown; 1 is reserved) |
//!           u32 dest-node | u64 virtual-arrival | payload bytes
//! response: u32 len | u8 status (0=ok, 1=unreachable, 2=decode) |
//!           u64 virtual-done | payload bytes
//! ```
//!
//! `len` counts everything after itself, little-endian like the rest of
//! the ArkFS wire format. Payload bytes are produced by the caller-supplied
//! [`WireFns`] codec table (the arkfs crate's framed `WireCodec`s, which
//! carry their own CRC32) — this module never interprets them.
//!
//! ## Virtual time as a logical clock
//!
//! Services written for the simulator account their work in virtual
//! nanoseconds. Frames therefore carry the caller's virtual `now` as the
//! request arrival and return the service's virtual completion time; the
//! caller then runs `port.wait_until(done)`. Across TCP the virtual
//! clock degrades gracefully into a Lamport-style logical clock: causal
//! ordering is preserved, wall-clock pacing comes from the sockets
//! themselves, and a loopback deployment is semantically a `half_rtt = 0`
//! bus — which is what the differential test asserts.

use crate::{NetError, NodeId, Service, Transport};
use arkfs_simkit::hash::HashMap;
use arkfs_simkit::{Nanos, Port};
use parking_lot::{Mutex, RwLock};
use std::io::{self, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::Duration;

const KIND_CALL: u8 = 0;
// Kind 1 was a one-way notification; it stays reserved.
const KIND_SHUTDOWN: u8 = 2;

const STATUS_OK: u8 = 0;
const STATUS_UNREACHABLE: u8 = 1;
const STATUS_DECODE: u8 = 2;

/// Reject frames larger than this before allocating — a garbage or
/// hostile length prefix must not take the process down.
pub const MAX_FRAME: u32 = 64 << 20;

/// Request header bytes after the length prefix: kind + dest + arrival.
const REQ_HEADER: usize = 1 + 4 + 8;
/// Response header bytes after the length prefix: status + done.
const RESP_HEADER: usize = 1 + 8;

/// Codec table bridging the transport (which moves opaque bytes) and the
/// protocol crate (which owns the `WireCodec` impls). Plain function
/// pointers keep `netsim` free of a dependency on `arkfs` — the protocol
/// crate constructs the table from its own framed codecs.
pub struct WireFns<Req, Resp> {
    pub enc_req: fn(&Req) -> Vec<u8>,
    /// Decoders own the payload buffer the socket was read into, so a
    /// codec can keep windows of it instead of copying blobs out.
    pub dec_req: fn(Vec<u8>) -> Option<Req>,
    pub enc_resp: fn(&Resp) -> Vec<u8>,
    pub dec_resp: fn(Vec<u8>) -> Option<Resp>,
}

// Manual impls: derive would demand Req: Clone / Copy, but fn pointers
// are always copyable.
impl<Req, Resp> Clone for WireFns<Req, Resp> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<Req, Resp> Copy for WireFns<Req, Resp> {}

/// State shared with the accept-loop and connection threads, so the
/// outer [`TcpTransport`] can be dropped without leaking the listener.
struct Shared<Req, Resp> {
    codec: WireFns<Req, Resp>,
    services: RwLock<HashMap<NodeId, Arc<dyn Service<Req, Resp>>>>,
    messages: AtomicU64,
    stop: AtomicBool,
    shutdown: StdMutex<bool>,
    shutdown_cv: Condvar,
    /// Where the accept loop listens, once [`TcpTransport::listen`] ran.
    local_addr: Mutex<Option<SocketAddr>>,
    /// The accept loop's thread, once [`TcpTransport::listen`] ran.
    acceptor: Mutex<Option<JoinHandle<()>>>,
    /// Every accepted connection: a handle that closes it, and its thread.
    conns: Mutex<Vec<(TcpStream, JoinHandle<()>)>>,
}

/// A [`Transport`] over real TCP sockets.
///
/// Services registered locally (via [`Transport::register`]) are served
/// both in-process — a call to a local node never touches a socket — and
/// to remote peers once [`TcpTransport::listen`] has started an accept
/// loop. Remote nodes become reachable by naming their socket address
/// with [`TcpTransport::register_addr`].
pub struct TcpTransport<Req, Resp> {
    shared: Arc<Shared<Req, Resp>>,
    /// NodeId → socket address of the peer transport serving that node.
    registry: RwLock<HashMap<NodeId, SocketAddr>>,
    /// Idle connections, keyed by peer address. Each reads through a
    /// buffer, so a response frame comes in with one `read` however its
    /// header and payload arrived.
    pool: Mutex<HashMap<SocketAddr, Vec<BufReader<TcpStream>>>>,
    read_timeout: Duration,
}

impl<Req: Send + Sync + 'static, Resp: Send + Sync + 'static> TcpTransport<Req, Resp> {
    pub fn new(codec: WireFns<Req, Resp>) -> Self {
        Self::with_read_timeout(codec, Duration::from_secs(30))
    }

    /// `read_timeout` bounds how long a call waits for the peer's
    /// response before failing with [`NetError::Timeout`].
    pub fn with_read_timeout(codec: WireFns<Req, Resp>, read_timeout: Duration) -> Self {
        TcpTransport {
            shared: Arc::new(Shared {
                codec,
                services: RwLock::new(HashMap::default()),
                messages: AtomicU64::new(0),
                stop: AtomicBool::new(false),
                shutdown: StdMutex::new(false),
                shutdown_cv: Condvar::new(),
                local_addr: Mutex::new(None),
                acceptor: Mutex::new(None),
                conns: Mutex::new(Vec::new()),
            }),
            registry: RwLock::new(HashMap::default()),
            pool: Mutex::new(HashMap::default()),
            read_timeout,
        }
    }

    /// Map `node` to the socket address of the transport serving it.
    pub fn register_addr(&self, node: NodeId, addr: SocketAddr) {
        self.registry.write().insert(node, addr);
    }

    /// The address this transport is listening on, once [`listen`] ran.
    ///
    /// [`listen`]: TcpTransport::listen
    pub fn local_addr(&self) -> Option<SocketAddr> {
        *self.shared.local_addr.lock()
    }

    /// Bind `addr` and start the accept loop on a background thread.
    /// Returns the bound address (useful with port 0).
    pub fn listen<A: ToSocketAddrs>(&self, addr: A) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        *self.shared.local_addr.lock() = Some(bound);
        let shared = Arc::clone(&self.shared);
        let acceptor = std::thread::Builder::new()
            .name(format!("arkfs-accept-{bound}"))
            .spawn(move || accept_loop(listener, shared))?;
        *self.shared.acceptor.lock() = Some(acceptor);
        Ok(bound)
    }

    /// Block until a peer delivers a shutdown frame (or [`shutdown`] is
    /// called locally). Used by `cli serve` to wait for its client.
    ///
    /// [`shutdown`]: TcpTransport::shutdown
    pub fn wait_shutdown(&self) {
        let mut done = self.shared.shutdown.lock().unwrap();
        while !*done {
            done = self.shared.shutdown_cv.wait(done).unwrap();
        }
    }

    /// Stop the accept loop and wait for its thread, release any
    /// [`wait_shutdown`] waiters, and close every accepted connection and
    /// wait for its thread. No thread of the transport outlives the
    /// call, so none can be the one that
    /// drops the last reference to a service (and, through it, frees a
    /// whole deployment) at some later moment, on whatever the process
    /// is doing then.
    ///
    /// [`wait_shutdown`]: TcpTransport::wait_shutdown
    pub fn shutdown(&self) {
        self.shared.request_stop();
        // Joined first: once the accept loop has returned, no connection
        // can be added behind the drain below.
        let acceptor = self.shared.acceptor.lock().take();
        if let Some(thread) = acceptor {
            let _ = thread.join();
        }
        for (conn, thread) in std::mem::take(&mut *self.shared.conns.lock()) {
            let _ = conn.shutdown(Shutdown::Both);
            let _ = thread.join();
        }
    }

    /// Ask the transport listening at `addr` to shut down cleanly; waits
    /// for its acknowledgement.
    pub fn send_shutdown(&self, addr: SocketAddr) -> Result<(), NetError> {
        let mut stream = TcpStream::connect(addr).map_err(|_| NetError::Unreachable)?;
        stream
            .set_read_timeout(Some(self.read_timeout))
            .map_err(|_| NetError::ConnReset)?;
        write_request(&mut stream, KIND_SHUTDOWN, NodeId(0), 0, &[])
            .map_err(|_| NetError::ConnReset)?;
        let (_status, _done, _payload) = read_response(&mut stream)?;
        Ok(())
    }

    fn checkout(&self, addr: SocketAddr) -> Result<BufReader<TcpStream>, NetError> {
        if let Some(conn) = self.pool.lock().get_mut(&addr).and_then(Vec::pop) {
            return Ok(conn);
        }
        self.connect(addr, NetError::Unreachable)
    }

    /// A new connection to `addr`, failing with `err` if none is made.
    fn connect(&self, addr: SocketAddr, err: NetError) -> Result<BufReader<TcpStream>, NetError> {
        let stream = TcpStream::connect(addr).map_err(|_| err)?;
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(self.read_timeout))
            .map_err(|_| NetError::ConnReset)?;
        Ok(BufReader::new(stream))
    }

    fn checkin(&self, addr: SocketAddr, conn: BufReader<TcpStream>) {
        self.pool.lock().entry(addr).or_default().push(conn);
    }

    /// Local-service fast path: a call to a node served by this very
    /// transport dispatches directly, exactly like the bus with
    /// `half_rtt = 0`.
    fn local(&self, to: NodeId) -> Option<Arc<dyn Service<Req, Resp>>> {
        self.shared.services.read().get(&to).cloned()
    }
}

impl<Req, Resp> Shared<Req, Resp> {
    fn request_stop(&self) {
        let first = !self.stop.swap(true, Ordering::SeqCst);
        {
            let mut done = self.shutdown.lock().unwrap();
            *done = true;
            self.shutdown_cv.notify_all();
        }
        // The accept loop blocks in `accept`; one throwaway connection
        // to ourselves (the first stop only: later the port may belong
        // to someone else) makes it return and observe `stop`.
        let Some(mut addr) = *self.local_addr.lock() else {
            return;
        };
        if !first {
            return;
        }
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
    }
}

impl<Req: Send + Sync + 'static, Resp: Send + Sync + 'static> Transport<Req, Resp>
    for TcpTransport<Req, Resp>
{
    fn call(&self, port: &Port, to: NodeId, req: Req) -> Result<Resp, NetError> {
        self.shared.messages.fetch_add(1, Ordering::Relaxed);
        if let Some(service) = self.local(to) {
            let (resp, done) = service.handle(port.now(), req);
            port.wait_until(done);
            return Ok(resp);
        }
        let addr = self
            .registry
            .read()
            .get(&to)
            .copied()
            .ok_or(NetError::Unreachable)?;
        let payload = (self.shared.codec.enc_req)(&req);
        let mut conn = self.checkout(addr)?;
        if write_request(conn.get_mut(), KIND_CALL, to, port.now(), &payload).is_err() {
            // The pooled connection may have gone stale; retry once on a
            // fresh socket before reporting a reset.
            conn = self.connect(addr, NetError::ConnReset)?;
            write_request(conn.get_mut(), KIND_CALL, to, port.now(), &payload)
                .map_err(|_| NetError::ConnReset)?;
        }
        let (status, done, resp_payload) = read_response(&mut conn)?;
        let out = match status {
            STATUS_OK => {
                let resp = (self.shared.codec.dec_resp)(resp_payload).ok_or(NetError::Decode)?;
                port.wait_until(done);
                Ok(resp)
            }
            STATUS_UNREACHABLE => Err(NetError::Unreachable),
            STATUS_DECODE => Err(NetError::Decode),
            _ => Err(NetError::Decode),
        };
        self.checkin(addr, conn);
        out
    }

    fn register(&self, node: NodeId, service: Arc<dyn Service<Req, Resp>>) {
        self.shared.services.write().insert(node, service);
    }

    fn disconnect(&self, node: NodeId) {
        self.shared.services.write().remove(&node);
        self.registry.write().remove(&node);
    }

    fn is_connected(&self, node: NodeId) -> bool {
        self.shared.services.read().contains_key(&node) || self.registry.read().contains_key(&node)
    }

    fn message_count(&self) -> u64 {
        self.shared.messages.load(Ordering::Relaxed)
    }

    fn addr_of(&self, node: NodeId) -> Option<SocketAddr> {
        self.registry.read().get(&node).copied()
    }

    fn backoff(&self, _port: &Port, delay: Nanos) {
        // Real transport, real time.
        std::thread::sleep(Duration::from_nanos(delay));
    }
}

fn accept_loop<Req: Send + Sync + 'static, Resp: Send + Sync + 'static>(
    listener: TcpListener,
    shared: Arc<Shared<Req, Resp>>,
) {
    // Blocks in `accept`: a new connection is served the moment it
    // arrives. `request_stop` wakes the loop with a self-connection.
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                stream.set_nodelay(true).ok();
                let closer = stream.try_clone();
                let conn_shared = Arc::clone(&shared);
                let thread = std::thread::Builder::new()
                    .name("arkfs-conn".into())
                    .spawn(move || connection_loop(stream, conn_shared));
                if let (Ok(closer), Ok(thread)) = (closer, thread) {
                    let mut conns = shared.conns.lock();
                    conns.retain(|(_, thread)| !thread.is_finished());
                    conns.push((closer, thread));
                }
            }
            // A connection that died in the backlog is not the listener
            // failing; anything else is.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return,
        }
    }
}

fn connection_loop<Req, Resp>(stream: TcpStream, shared: Arc<Shared<Req, Resp>>) {
    // Requests are read through a buffer (one `read` per frame),
    // responses written straight to the socket.
    let mut reader = BufReader::new(stream);
    loop {
        let (kind, dest, arrival, payload) = match read_request(&mut reader) {
            Ok(frame) => frame,
            Err(_) => return, // peer hung up or sent garbage
        };
        match kind {
            KIND_SHUTDOWN => {
                let _ = write_response(reader.get_mut(), STATUS_OK, 0, &[]);
                shared.request_stop();
                return;
            }
            KIND_CALL => {
                let service = shared.services.read().get(&dest).cloned();
                let Some(service) = service else {
                    let _ = write_response(reader.get_mut(), STATUS_UNREACHABLE, 0, &[]);
                    continue;
                };
                let Some(req) = (shared.codec.dec_req)(payload) else {
                    let _ = write_response(reader.get_mut(), STATUS_DECODE, 0, &[]);
                    continue;
                };
                let (resp, done) = service.handle(arrival, req);
                let bytes = (shared.codec.enc_resp)(&resp);
                if write_response(reader.get_mut(), STATUS_OK, done, &bytes).is_err() {
                    return;
                }
            }
            _ => return, // unknown frame kind: drop the connection
        }
    }
}

fn write_request(
    w: &mut impl Write,
    kind: u8,
    dest: NodeId,
    arrival: Nanos,
    payload: &[u8],
) -> io::Result<()> {
    let len = (REQ_HEADER + payload.len()) as u32;
    let mut buf = Vec::with_capacity(4 + len as usize);
    buf.extend_from_slice(&len.to_le_bytes());
    buf.push(kind);
    buf.extend_from_slice(&dest.0.to_le_bytes());
    buf.extend_from_slice(&arrival.to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()
}

fn read_request(r: &mut impl Read) -> io::Result<(u8, NodeId, Nanos, Vec<u8>)> {
    let (head, payload) = read_frame::<{ 4 + REQ_HEADER }>(r)?;
    let dest = NodeId(u32::from_le_bytes(head[5..9].try_into().unwrap()));
    let arrival = u64::from_le_bytes(head[9..17].try_into().unwrap());
    Ok((head[4], dest, arrival, payload))
}

fn write_response(w: &mut impl Write, status: u8, done: Nanos, payload: &[u8]) -> io::Result<()> {
    let len = (RESP_HEADER + payload.len()) as u32;
    let mut buf = Vec::with_capacity(4 + len as usize);
    buf.extend_from_slice(&len.to_le_bytes());
    buf.push(status);
    buf.extend_from_slice(&done.to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()
}

fn read_response(r: &mut impl Read) -> Result<(u8, Nanos, Vec<u8>), NetError> {
    let (head, payload) = read_frame::<{ 4 + RESP_HEADER }>(r).map_err(|e| match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => NetError::Timeout,
        io::ErrorKind::InvalidData => NetError::Decode,
        _ => NetError::ConnReset,
    })?;
    let done = u64::from_le_bytes(head[5..13].try_into().unwrap());
    Ok((head[4], done, payload))
}

/// Read one frame: the length prefix and the fixed header (`P` bytes
/// together), then the payload into the buffer the codec will own.
/// Through a [`BufReader`] a frame that fits its buffer is one `read`.
fn read_frame<const P: usize>(r: &mut impl Read) -> io::Result<([u8; P], Vec<u8>)> {
    let mut head = [0u8; P];
    r.read_exact(&mut head)?;
    let len = u32::from_le_bytes(head[..4].try_into().unwrap());
    let payload_len = (len as usize).checked_sub(P - 4);
    let Some(payload_len) = payload_len.filter(|_| len <= MAX_FRAME) else {
        return Err(io::ErrorKind::InvalidData.into());
    };
    let mut payload = vec![0u8; payload_len];
    r.read_exact(&mut payload)?;
    Ok((head, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use arkfs_simkit::SharedResource;

    /// Identity codec for u32 request/response pairs.
    fn u32_codec() -> WireFns<u32, u32> {
        WireFns {
            enc_req: |v| v.to_le_bytes().to_vec(),
            dec_req: |b| Some(u32::from_le_bytes(b.try_into().ok()?)),
            enc_resp: |v| v.to_le_bytes().to_vec(),
            dec_resp: |b| Some(u32::from_le_bytes(b.try_into().ok()?)),
        }
    }

    #[test]
    fn local_calls_never_touch_a_socket() {
        let t = TcpTransport::new(u32_codec());
        let server = Arc::new(SharedResource::ideal("svc"));
        let service = {
            let server = Arc::clone(&server);
            move |arrival: Nanos, req: u32| (req * 2, server.reserve(arrival, 50))
        };
        Transport::register(&t, NodeId(1), Arc::new(service));
        let port = Port::new();
        assert_eq!(t.call(&port, NodeId(1), 21), Ok(42));
        // Loopback-local is a half_rtt = 0 bus: only service time accrues.
        assert_eq!(port.now(), 50);
        assert_eq!(t.message_count(), 1);
    }

    #[test]
    fn remote_call_round_trips_over_loopback() {
        let server = Arc::new(TcpTransport::new(u32_codec()));
        let service = Arc::new(|arrival: Nanos, req: u32| (req + 1, arrival + 25));
        Transport::register(&*server, NodeId(7), service.clone());
        let addr = server.listen("127.0.0.1:0").unwrap();

        let client = TcpTransport::new(u32_codec());
        client.register_addr(NodeId(7), addr);
        assert_eq!(Transport::addr_of(&client, NodeId(7)), Some(addr));
        let port = Port::new();
        assert_eq!(client.call(&port, NodeId(7), 41), Ok(42));
        // The response's virtual completion propagated back.
        assert_eq!(port.now(), 25);
        // Pooled connection is reused for a second call.
        assert_eq!(client.call(&port, NodeId(7), 1), Ok(2));
        // The client still holds its connection open, yet no server
        // thread outlives the shutdown: dropping the server drops the
        // service.
        server.shutdown();
        drop(server);
        assert_eq!(Arc::strong_count(&service), 1);
    }

    #[test]
    fn unknown_nodes_are_unreachable() {
        let server = Arc::new(TcpTransport::new(u32_codec()));
        let addr = server.listen("127.0.0.1:0").unwrap();
        let client = TcpTransport::new(u32_codec());
        let port = Port::new();
        // No registry entry at all.
        assert_eq!(client.call(&port, NodeId(3), 0), Err(NetError::Unreachable));
        // Registry points at a live server with no such service.
        client.register_addr(NodeId(3), addr);
        assert_eq!(client.call(&port, NodeId(3), 0), Err(NetError::Unreachable));
        server.shutdown();
    }

    #[test]
    fn shutdown_handshake_releases_waiters() {
        let server = Arc::new(TcpTransport::new(u32_codec()));
        let addr = server.listen("127.0.0.1:0").unwrap();
        let waiter = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.wait_shutdown())
        };
        let client: TcpTransport<u32, u32> = TcpTransport::new(u32_codec());
        client.send_shutdown(addr).unwrap();
        waiter.join().unwrap();
    }

    #[test]
    fn shutdown_wakes_the_blocked_accept_loop() {
        let server = Arc::new(TcpTransport::new(u32_codec()));
        let addr = server.listen("127.0.0.1:0").unwrap();
        let t0 = std::time::Instant::now();
        server.shutdown();
        // The listener closes once the accept thread has returned; until
        // then connects still succeed, so poll for the refusal.
        let mut closed = false;
        for _ in 0..500 {
            if TcpStream::connect(addr).is_err() {
                closed = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(closed, "accept loop still listening after shutdown");
        assert!(t0.elapsed() < Duration::from_secs(5));
        server.shutdown(); // idempotent
    }
}
