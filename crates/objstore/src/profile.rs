//! Backend profiles: the semantic and cost differences between a
//! RADOS-like and an S3-like object store, which drive Figure 6.

use arkfs_simkit::{ClusterSpec, Nanos};

/// Semantics + per-operation cost of an object storage backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreProfile {
    pub name: &'static str,
    /// Fixed service time of one small object operation at a storage node
    /// (occupies the shard: this is the throughput-limiting term).
    pub op_service: Nanos,
    /// Pure per-operation latency that does NOT occupy the shard (HTTP
    /// stack, auth, placement — S3 pays tens of milliseconds here while
    /// still serving enormous aggregate throughput).
    pub op_latency: Nanos,
    /// Whether ranged/partial writes (and appends) are supported.
    /// RADOS: yes. S3: no — the whole object must be re-PUT, which is why
    /// "random writes or appends to files result in rewriting of the
    /// entire object" in S3FS (§II-C).
    pub partial_writes: bool,
    /// Whether ranged reads are supported (both RADOS and S3 allow ranged
    /// GET).
    pub ranged_reads: bool,
    /// One-way network latency between a client and the store: when a
    /// request reaches it, and how long its ack takes back.
    pub net_half_rtt: Nanos,
}

impl StoreProfile {
    /// Ceph-RADOS-like profile from the given cluster spec.
    pub fn rados(spec: &ClusterSpec) -> Self {
        StoreProfile {
            name: "rados",
            op_service: spec.rados_op_service,
            op_latency: 0,
            partial_writes: true,
            ranged_reads: true,
            net_half_rtt: spec.net_half_rtt,
        }
    }

    /// S3-compatible profile from the given cluster spec.
    pub fn s3(spec: &ClusterSpec) -> Self {
        StoreProfile {
            name: "s3",
            // The shard only serializes a sliver of the request; the rest
            // is pure latency.
            op_service: spec.s3_op_service / 50,
            op_latency: spec.s3_op_service,
            partial_writes: false,
            ranged_reads: true,
            net_half_rtt: spec.net_half_rtt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_differ_where_it_matters() {
        let spec = ClusterSpec::aws_paper();
        let rados = StoreProfile::rados(&spec);
        let s3 = StoreProfile::s3(&spec);
        assert!(rados.partial_writes);
        assert!(!s3.partial_writes);
        assert!(rados.ranged_reads && s3.ranged_reads);
        assert!(s3.op_service > rados.op_service);
        assert_ne!(rados.name, s3.name);
    }
}
