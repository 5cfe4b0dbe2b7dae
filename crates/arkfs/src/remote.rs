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
use arkfs_objstore::{KeyKind, ObjectKey, ObjectStore, OsError, OsResult, StoreProfile};
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
        9 => GetMany(keys: Vec<ObjectKey>),
        10 => PutMany(items: Vec<(ObjectKey, Bytes)>),
        11 => DeleteMany(keys: Vec<ObjectKey>),
        12 => GetRangeMany(reqs: Vec<(ObjectKey, u64, u64)>),
        13 => PutRangeMany(items: Vec<(ObjectKey, u64, Bytes)>),
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
        6 => Units(results: Vec<Result<(), OsError>>),
        7 => Datas(results: Vec<Result<Bytes, OsError>>),
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
        3 => BadRange,
        4 => BadKey,
        5 => InsufficientFragments,
    }
}

wire_struct!(StoreProfile {
    name,
    op_service,
    op_latency,
    partial_writes,
    ranged_reads
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
            StoreRequest::GetMany(keys) => StoreResponse::Datas(s.get_many(&port, &keys)),
            StoreRequest::PutMany(items) => StoreResponse::Units(s.put_many(&port, items)),
            StoreRequest::DeleteMany(keys) => StoreResponse::Units(s.delete_many(&port, &keys)),
            StoreRequest::GetRangeMany(reqs) => {
                let reqs: Vec<(ObjectKey, u64, usize)> = reqs
                    .into_iter()
                    .map(|(k, o, l)| (k, o, l as usize))
                    .collect();
                StoreResponse::Datas(s.get_range_many(&port, &reqs))
            }
            StoreRequest::PutRangeMany(items) => {
                StoreResponse::Units(s.put_range_many(&port, items))
            }
        };
        (resp, port.now())
    }
}

/// Client-side [`ObjectStore`] stub forwarding every call over a
/// transport to the [`StoreService`] at [`STORE_NODE`].
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
/// with (for a batch: one result per item, `$n` of them); any other
/// shape, or a transport failure, as an error (of every item).
macro_rules! ask {
    ($self:ident, $port:ident, $req:expr => $variant:ident) => {
        match $self.call($port, $req) {
            Ok(StoreResponse::$variant(r)) => r,
            Ok(_) => Err(bad_shape()),
            Err(e) => Err(net_err(e)),
        }
    };
    ($self:ident, $port:ident, $req:expr => $n:expr, $variant:ident) => {
        match ($n, $self.call($port, $req)) {
            (n, Ok(StoreResponse::$variant(rs))) if rs.len() == n => rs,
            (n, Ok(_)) => (0..n).map(|_| Err(bad_shape())).collect(),
            (n, Err(e)) => (0..n).map(|_| Err(net_err(e))).collect(),
        }
    };
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

    fn put(&self, port: &Port, key: ObjectKey, data: Bytes) -> OsResult<()> {
        ask!(self, port, StoreRequest::Put(key, data) => Unit)
    }

    fn get(&self, port: &Port, key: ObjectKey) -> OsResult<Bytes> {
        ask!(self, port, StoreRequest::Get(key) => Data)
    }

    fn get_range(&self, port: &Port, key: ObjectKey, offset: u64, len: usize) -> OsResult<Bytes> {
        ask!(self, port, StoreRequest::GetRange(key, offset, len as u64) => Data)
    }

    fn put_range(&self, port: &Port, key: ObjectKey, offset: u64, data: Bytes) -> OsResult<()> {
        ask!(self, port, StoreRequest::PutRange(key, offset, data) => Unit)
    }

    fn delete(&self, port: &Port, key: ObjectKey) -> OsResult<()> {
        ask!(self, port, StoreRequest::Delete(key) => Unit)
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

    // A batch is one frame: the server still pipelines the virtual-time
    // cost; the socket pays one round trip.
    fn get_many(&self, port: &Port, keys: &[ObjectKey]) -> Vec<OsResult<Bytes>> {
        ask!(self, port, StoreRequest::GetMany(keys.to_vec()) => keys.len(), Datas)
    }

    fn put_many(&self, port: &Port, items: Vec<(ObjectKey, Bytes)>) -> Vec<OsResult<()>> {
        ask!(self, port, StoreRequest::PutMany(items) => items.len(), Units)
    }

    fn get_range_many(
        &self,
        port: &Port,
        reqs: &[(ObjectKey, u64, usize)],
    ) -> Vec<OsResult<Bytes>> {
        let wire_reqs = reqs.iter().map(|&(k, o, l)| (k, o, l as u64)).collect();
        ask!(self, port, StoreRequest::GetRangeMany(wire_reqs) => reqs.len(), Datas)
    }

    fn put_range_many(
        &self,
        port: &Port,
        items: Vec<(ObjectKey, u64, Bytes)>,
    ) -> Vec<OsResult<()>> {
        ask!(self, port, StoreRequest::PutRangeMany(items) => items.len(), Units)
    }

    fn delete_many(&self, port: &Port, keys: &[ObjectKey]) -> Vec<OsResult<()>> {
        ask!(self, port, StoreRequest::DeleteMany(keys.to_vec()) => keys.len(), Units)
    }

    // A purge behind the caller is one frame too: every key is acked
    // when its reply arrives.
    fn delete_each(&self, depart: Nanos, keys: &[ObjectKey]) -> Vec<(Nanos, OsResult<()>)> {
        let port = Port::starting_at(depart);
        let results = self.delete_many(&port, keys);
        results.into_iter().map(|r| (port.now(), r)).collect()
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
    use arkfs_objstore::{ClusterConfig, ObjectCluster};
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
        // Batch path.
        let keys: Vec<ObjectKey> = (0..3)
            .map(|i| ObjectKey {
                kind: KeyKind::Data,
                ino: 7,
                index: i,
            })
            .collect();
        let items: Vec<(ObjectKey, Bytes)> = keys
            .iter()
            .map(|&k| (k, Bytes::from(vec![k.index as u8; 4])))
            .collect();
        assert!(remote.put_many(&port, items).into_iter().all(|r| r.is_ok()));
        let got = remote.get_many(&port, &keys);
        assert_eq!(got.len(), 3);
        assert_eq!(got[2].as_ref().unwrap().as_ref(), &[2u8; 4]);
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
            StoreRequest::PutMany(vec![(
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
            if let StoreRequest::PutMany(items) = owned {
                assert!(span.contains(&items[0].1.as_ptr()));
            }
        }
        let resps = vec![
            StoreResponse::Unit(Err(OsError::Unsupported("ranged put"))),
            StoreResponse::Data(Ok(Bytes::from_static(b"abc"))),
            StoreResponse::Keys(Ok(vec![])),
            StoreResponse::Units(vec![Ok(()), Err(OsError::NotFound)]),
        ];
        for resp in &resps {
            let frame = to_frame(resp);
            let back: StoreResponse = from_frame_owned(frame.clone()).unwrap();
            assert_eq!(to_frame(&back), frame);
        }
    }
}
