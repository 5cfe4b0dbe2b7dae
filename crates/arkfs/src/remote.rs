//! Remote object storage over a [`Transport`]: the third wire protocol.
//!
//! In a two-process deployment the metadata stack is symmetric — every
//! client runs the same code — but the object store lives in exactly one
//! process (the `cli serve` side, standing in for the RADOS/S3 cluster).
//! [`StoreService`] exports a local [`ObjectStore`] at [`STORE_NODE`];
//! [`RemoteStore`] is the client-side stub implementing [`ObjectStore`]
//! by forwarding every call. Clients talk to the store *directly* (the
//! paper's clients do their own librados I/O): metatable loads, journal
//! commits, and data chunks all cross this protocol, not the op protocol.
//!
//! This module also owns the [`WireFns`] codec tables gluing the three
//! protocols to [`arkfs_netsim::TcpTransport`] — they live here, not in
//! `netsim`, because the codecs are this crate's `WireCodec` impls.

use crate::rpc::{OpRequest, OpResponse};
use crate::wire::{from_frame_owned, to_frame, wire_enum, wire_struct, WireCodec};
use arkfs_lease::{LeaseRequest, LeaseResponse};
use arkfs_netsim::{NetError, NodeId, Service, Transport, WireFns};
use arkfs_objstore::{Acked, KeyKind, ObjectKey, ObjectStore, OsError, OsResult, StoreProfile};
use arkfs_simkit::Nanos;
use arkfs_simkit::Port;
use arkfs_telemetry::Telemetry;
use bytes::Bytes;
use std::sync::Arc;

/// Well-known node id of the object-store endpoint. Sits in the middle
/// of the id space: clients count up from 1, lease managers count down
/// from `u32::MAX`, so it collides with neither.
pub const STORE_NODE: NodeId = NodeId(0x7FFF_FFFF);

wire_enum! {
    /// One object-store operation, as carried on the wire.
    #[derive(Debug, Clone)]
    pub enum StoreRequest, "store request tag" {
        0 => Profile,
        1 => Usage,
        2 => Put(key: ObjectKey, data: Bytes),
        3 => Get(key: ObjectKey),
        4 => GetRange(key: ObjectKey, offset: u64, len: u64),
        5 => PutRange(key: ObjectKey, offset: u64, data: Bytes),
        6 => Delete(key: ObjectKey),
        7 => Head(key: ObjectKey),
        8 => List(kind: Option<KeyKind>, ino: Option<u128>),
        // Tags 9-13 carried batches the server made the caller wait for;
        // they are retired, never reused.
        14 => GetEach(keys: Vec<ObjectKey>),
        15 => GetRangeEach(reqs: Vec<(ObjectKey, u64, u64)>),
        16 => PutEach(items: Vec<(ObjectKey, Bytes)>),
        17 => PutRangeEach(items: Vec<(ObjectKey, u64, Bytes)>),
        18 => DeleteEach(keys: Vec<ObjectKey>),
    }
}

wire_enum! {
    /// The response to a [`StoreRequest`] (variant shape is dictated by
    /// the request kind).
    #[derive(Debug, Clone)]
    pub enum StoreResponse, "store response tag" {
        0 => Profile(profile: StoreProfile),
        1 => Usage(objects: u64, bytes: u64),
        2 => Unit(result: Result<(), OsError>),
        3 => Data(result: Result<Bytes, OsError>),
        4 => Size(result: Result<u64, OsError>),
        5 => Keys(result: Result<Vec<ObjectKey>, OsError>),
        // Tags 6 and 7 carried those batches' results without acks;
        // retired, never reused.
        8 => UnitEach(results: Acked<()>),
        9 => DataEach(results: Acked<Bytes>),
    }
}

wire_enum! {
    impl KeyKind, "key kind" {
        0 => Inode,
        1 => Dentry,
        2 => Journal,
        3 => Data,
    }
}

wire_struct!(ObjectKey { kind, ino, index });

wire_enum! {
    impl OsError, "os error tag" {
        0 => NotFound,
        1 => Unsupported(what: &'static str),
        2 => Injected(what: &'static str),
        // Tags 3-5 named errors no store raises; retired, never reused.
    }
}

wire_struct!(StoreProfile {
    name,
    op_service,
    op_latency,
    partial_writes,
    ranged_reads,
    net_half_rtt
});

/// Serves a local [`ObjectStore`] to remote peers. Registered at
/// [`STORE_NODE`] on the store transport of the `cli serve` process.
pub struct StoreService {
    store: Arc<dyn ObjectStore>,
}

impl StoreService {
    pub fn new(store: Arc<dyn ObjectStore>) -> Self {
        StoreService { store }
    }
}

impl Service<StoreRequest, StoreResponse> for StoreService {
    fn handle(&self, arrival: Nanos, req: StoreRequest) -> (StoreResponse, Nanos) {
        let port = Port::starting_at(arrival);
        let s = &self.store;
        let resp = match req {
            StoreRequest::Profile => StoreResponse::Profile(s.profile().clone()),
            StoreRequest::Usage => {
                let (objects, bytes) = s.usage();
                StoreResponse::Usage(objects, bytes)
            }
            StoreRequest::Put(key, data) => StoreResponse::Unit(s.put(&port, key, data)),
            StoreRequest::Get(key) => StoreResponse::Data(s.get(&port, key)),
            StoreRequest::GetRange(key, offset, len) => {
                StoreResponse::Data(s.get_range(&port, key, offset, len as usize))
            }
            StoreRequest::PutRange(key, offset, data) => {
                StoreResponse::Unit(s.put_range(&port, key, offset, data))
            }
            StoreRequest::Delete(key) => StoreResponse::Unit(s.delete(&port, key)),
            StoreRequest::Head(key) => StoreResponse::Size(s.head(&port, key)),
            StoreRequest::List(kind, ino) => StoreResponse::Keys(s.list(&port, kind, ino)),
            StoreRequest::GetEach(keys) => StoreResponse::DataEach(s.get_each(arrival, &keys)),
            StoreRequest::GetRangeEach(reqs) => {
                let reqs: Vec<_> = reqs.iter().map(|&(k, o, l)| (k, o, l as usize)).collect();
                StoreResponse::DataEach(s.get_range_each(arrival, &reqs))
            }
            StoreRequest::PutEach(items) => StoreResponse::UnitEach(s.put_each(arrival, items)),
            StoreRequest::PutRangeEach(items) => {
                StoreResponse::UnitEach(s.put_range_each(arrival, items))
            }
            StoreRequest::DeleteEach(keys) => {
                StoreResponse::UnitEach(s.delete_each(arrival, &keys))
            }
        };
        (resp, port.now())
    }
}

/// The acks a batch's reply carries, as the caller on `port` sees them:
/// each one the reply's trip back later. The reply leaves the server at
/// the request's arrival ([`StoreService`] prices the items, not the
/// reply), and a link takes as long back as out.
fn returned<T>(depart: Nanos, port: &Port, acked: Acked<T>) -> Acked<T> {
    let back = (port.now() - depart) / 2;
    acked.into_iter().map(|(ack, r)| (ack + back, r)).collect()
}

/// Client-side [`ObjectStore`] stub forwarding every call over a
/// transport to the [`StoreService`] at [`STORE_NODE`]. A batch is one
/// frame each way: the server prices every item as the store it serves
/// would, and the reply carries each item's ack.
pub struct RemoteStore {
    net: Arc<dyn Transport<StoreRequest, StoreResponse>>,
    profile: StoreProfile,
    telemetry: Arc<Telemetry>,
}

impl RemoteStore {
    /// Connect: fetches the remote backend's profile so cost/semantics
    /// decisions (ranged writes, chunking) match the serving side.
    pub fn connect(
        net: Arc<dyn Transport<StoreRequest, StoreResponse>>,
    ) -> Result<Arc<Self>, NetError> {
        let port = Port::new();
        let profile = match net.call(&port, STORE_NODE, StoreRequest::Profile)? {
            StoreResponse::Profile(p) => p,
            _ => return Err(NetError::Decode),
        };
        Ok(Arc::new(RemoteStore {
            net,
            profile,
            telemetry: Telemetry::new(),
        }))
    }

    fn call(&self, port: &Port, req: StoreRequest) -> Result<StoreResponse, NetError> {
        self.net.call(port, STORE_NODE, req)
    }
}

/// A transport failure surfaced through the object-store error space.
fn net_err(e: NetError) -> OsError {
    OsError::Injected(match e {
        NetError::Unreachable => "net: store unreachable",
        NetError::Timeout => "net: store timeout",
        NetError::Decode => "net: store decode error",
        NetError::ConnReset => "net: store connection reset",
    })
}

/// The response arrived but with the wrong shape for the request.
fn bad_shape() -> OsError {
    OsError::Injected("net: store protocol shape mismatch")
}

/// The result inside the one response variant a request is answered
/// with (for a batch departing at `$depart`: one acked result per item,
/// `$n` of them); any other shape, or a transport failure, as an error
/// (of every item, acked when the failure is known).
macro_rules! ask {
    ($self:ident, $port:ident, $req:expr => $variant:ident) => {
        match $self.call($port, $req) {
            Ok(StoreResponse::$variant(r)) => r,
            Ok(_) => Err(bad_shape()),
            Err(e) => Err(net_err(e)),
        }
    };
    ($self:ident, $depart:ident, $req:expr => $n:expr, $variant:ident) => {{
        let port = Port::starting_at($depart);
        match ($n, $self.call(&port, $req)) {
            (n, Ok(StoreResponse::$variant(rs))) if rs.len() == n => returned($depart, &port, rs),
            (n, Ok(_)) => (0..n).map(|_| (port.now(), Err(bad_shape()))).collect(),
            (n, Err(e)) => (0..n).map(|_| (port.now(), Err(net_err(e)))).collect(),
        }
    }};
}

impl ObjectStore for RemoteStore {
    fn profile(&self) -> &StoreProfile {
        &self.profile
    }

    fn usage(&self) -> (u64, u64) {
        let port = Port::new();
        match self.call(&port, StoreRequest::Usage) {
            Ok(StoreResponse::Usage(objects, bytes)) => (objects, bytes),
            _ => (0, 0),
        }
    }

    fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        Some(&self.telemetry)
    }

    fn head(&self, port: &Port, key: ObjectKey) -> OsResult<u64> {
        ask!(self, port, StoreRequest::Head(key) => Size)
    }

    fn list(
        &self,
        port: &Port,
        kind: Option<KeyKind>,
        ino: Option<u128>,
    ) -> OsResult<Vec<ObjectKey>> {
        ask!(self, port, StoreRequest::List(kind, ino) => Keys)
    }

    fn get_each(&self, depart: Nanos, keys: &[ObjectKey]) -> Acked<Bytes> {
        ask!(self, depart, StoreRequest::GetEach(keys.to_vec()) => keys.len(), DataEach)
    }

    fn get_range_each(&self, depart: Nanos, reqs: &[(ObjectKey, u64, usize)]) -> Acked<Bytes> {
        let wire_reqs = reqs.iter().map(|&(k, o, l)| (k, o, l as u64)).collect();
        ask!(self, depart, StoreRequest::GetRangeEach(wire_reqs) => reqs.len(), DataEach)
    }

    fn put_each(&self, depart: Nanos, items: Vec<(ObjectKey, Bytes)>) -> Acked<()> {
        ask!(self, depart, StoreRequest::PutEach(items) => items.len(), UnitEach)
    }

    fn put_range_each(&self, depart: Nanos, items: Vec<(ObjectKey, u64, Bytes)>) -> Acked<()> {
        ask!(self, depart, StoreRequest::PutRangeEach(items) => items.len(), UnitEach)
    }

    fn delete_each(&self, depart: Nanos, keys: &[ObjectKey]) -> Acked<()> {
        ask!(self, depart, StoreRequest::DeleteEach(keys.to_vec()) => keys.len(), UnitEach)
    }
}

/// A protocol's [`WireFns`]: each message is its CRC-trailed
/// [`to_frame`], and a frame that fails [`from_frame_owned`] is dropped.
fn frame_fns<Req: WireCodec, Resp: WireCodec>() -> WireFns<Req, Resp> {
    WireFns {
        enc_req: to_frame::<Req>,
        dec_req: |buf| from_frame_owned(buf).ok(),
        enc_resp: to_frame::<Resp>,
        dec_resp: |buf| from_frame_owned(buf).ok(),
    }
}

/// Codec table for the forwarded-operation protocol over TCP.
pub fn ops_wire() -> WireFns<OpRequest, OpResponse> {
    frame_fns()
}

/// Codec table for the lease protocol over TCP.
pub fn lease_wire() -> WireFns<LeaseRequest, LeaseResponse> {
    frame_fns()
}

/// Codec table for the object-store protocol over TCP.
pub fn store_wire() -> WireFns<StoreRequest, StoreResponse> {
    frame_fns()
}

#[cfg(test)]
mod tests {
    use super::*;
    use arkfs_objstore::{wait_last, BatchSpan, ClusterConfig, ObjectCluster};
    use arkfs_simkit::ClusterSpec;

    fn bus() -> Arc<arkfs_netsim::Bus<StoreRequest, StoreResponse>> {
        Arc::new(arkfs_netsim::Bus::new(0))
    }

    #[test]
    fn remote_store_forwards_over_a_transport() {
        let store: Arc<dyn ObjectStore> = Arc::new(ObjectCluster::new(ClusterConfig::rados(
            ClusterSpec::test_tiny(),
        )));
        let net = bus();
        net.register(STORE_NODE, Arc::new(StoreService::new(Arc::clone(&store))));
        let remote = RemoteStore::connect(net).unwrap();
        assert_eq!(remote.profile(), store.profile());

        let port = Port::new();
        let key = ObjectKey {
            kind: KeyKind::Data,
            ino: 42,
            index: 0,
        };
        remote
            .put(&port, key, Bytes::from_static(b"hello"))
            .unwrap();
        assert_eq!(remote.get(&port, key).unwrap().as_ref(), b"hello");
        assert_eq!(remote.head(&port, key).unwrap(), 5);
        assert_eq!(
            remote.list(&port, Some(KeyKind::Data), None).unwrap(),
            vec![key]
        );
        let (objects, bytes) = remote.usage();
        // Replication may multiply the physical counts; the point is the
        // numbers crossed the wire at all.
        assert!(objects >= 1 && bytes >= 5);
        remote.delete(&port, key).unwrap();
        assert_eq!(remote.get(&port, key), Err(OsError::NotFound));
    }

    /// Every batch verb through `store`, whose backing cluster is
    /// `cluster`, waited for (with a refused PUT, GET misses and a ranged
    /// write, on S3 a read-modify-write), then a purge behind the caller:
    /// each item's ack and result, and the waiting caller's clock.
    fn drive_batches(store: &dyn ObjectStore, cluster: &ObjectCluster) -> Vec<String> {
        let key = |i| ObjectKey::data_chunk(7, i);
        let (port, mut log) = (Port::starting_at(1_000), Vec::new());
        macro_rules! waited {
            ($span:ident, $verb:ident($arg:expr)) => {
                wait_last(store, &port, BatchSpan::$span, |t| {
                    let acked = store.$verb(t, $arg);
                    log.push(format!("{acked:?}"));
                    acked
                });
                log.push(format!("then {}", port.now()));
            };
        }
        let data = |i| Bytes::from(vec![i as u8; 100]);
        cluster.faults.fail_next_puts(1, None);
        waited!(Put, put_each((0..4).map(|i| (key(i), data(i))).collect()));
        // The refused key(0) is a miss, and so is key(9).
        waited!(Get, get_each(&[key(0), key(1), key(2), key(9)]));
        waited!(
            GetRange,
            get_range_each(&[(key(1), 10, 50), (key(9), 0, 4)])
        );
        let xyz = Bytes::from_static(b"xyz");
        waited!(
            PutRange,
            put_range_each(vec![(key(1), 50, xyz.clone()), (key(5), 3, xyz)])
        );
        waited!(Get, get_each(&[key(1), key(5)]));
        waited!(Delete, delete_each(&[key(1), key(2), key(9)]));
        log.push(format!(
            "{:?}",
            store.delete_each(port.now(), &[key(3), key(5)])
        ));
        log
    }

    #[test]
    fn remote_store_prices_batches_like_the_cluster() {
        let mut s3 = ClusterConfig::test_tiny();
        s3.profile = StoreProfile::s3(&s3.spec);
        for config in [ClusterConfig::test_tiny(), s3] {
            let local = ObjectCluster::new(config.clone());
            let served = Arc::new(ObjectCluster::new(config));
            let net = bus();
            let service = StoreService::new(Arc::clone(&served) as Arc<dyn ObjectStore>);
            net.register(STORE_NODE, Arc::new(service));
            let remote = RemoteStore::connect(net).unwrap();
            let want = drive_batches(&local, &local);
            assert_eq!(
                drive_batches(&*remote, &served),
                want,
                "{}",
                local.profile().name
            );
        }
    }

    #[test]
    fn store_frames_round_trip() {
        let reqs = vec![
            StoreRequest::Profile,
            StoreRequest::GetRange(
                ObjectKey {
                    kind: KeyKind::Journal,
                    ino: u128::MAX,
                    index: 9,
                },
                4,
                16,
            ),
            StoreRequest::List(Some(KeyKind::Inode), Some(77)),
            StoreRequest::PutEach(vec![(
                ObjectKey {
                    kind: KeyKind::Dentry,
                    ino: 3,
                    index: 1,
                },
                Bytes::from_static(b"\x00\x01"),
            )]),
        ];
        for req in &reqs {
            let frame = to_frame(req);
            let span = frame.as_ptr_range();
            let back: StoreRequest = from_frame_owned(frame.clone()).unwrap();
            assert_eq!(to_frame(&back), frame, "re-encode must be identical");
            // An owned frame is not copied again: the blob is a window of it.
            let owned: StoreRequest = from_frame_owned(frame).unwrap();
            if let StoreRequest::PutEach(items) = owned {
                assert!(span.contains(&items[0].1.as_ptr()));
            }
        }
        let resps = vec![
            StoreResponse::Unit(Err(OsError::Unsupported("ranged put"))),
            StoreResponse::Data(Ok(Bytes::from_static(b"abc"))),
            StoreResponse::Keys(Ok(vec![])),
            StoreResponse::UnitEach(vec![(7, Ok(())), (9, Err(OsError::NotFound))]),
        ];
        for resp in &resps {
            let frame = to_frame(resp);
            let back: StoreResponse = from_frame_owned(frame.clone()).unwrap();
            assert_eq!(to_frame(&back), frame);
        }
    }
}
