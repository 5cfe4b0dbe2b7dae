//! Virtual-time simulation kit.
//!
//! The benchmark harness in this workspace runs *functionally real* file
//! system code (real metatables, journals, caches, RPC) on real threads,
//! but accounts for *time* virtually: every simulated client owns a
//! monotone [`timeline::Port`], and every shared component — a
//! metadata server, a network link, a disk — is a
//! [`timeline::SharedResource`] whose FIFO next-free-time reservation
//! discipline reproduces queueing, saturation, and contention collapse
//! deterministically and at laptop speed.
//!
//! The kit also provides the discrete-event [`engine::Engine`] that
//! multiplexes thousands of simulated clients on one host thread in
//! causal virtual-time order, and the [`stats`] phase throughput meter
//! used to emit the paper's tables and figures.

pub mod costs;
pub mod engine;
pub mod hash;
pub mod stats;
pub mod timeline;

pub use costs::ClusterSpec;
pub use engine::{Actor, Engine, EngineStats};
pub use stats::{PhaseResult, ThroughputMeter};
pub use timeline::{BandwidthResource, Port, SharedResource};

/// Nanosecond instant/duration on the virtual clock.
pub type Nanos = u64;

/// One microsecond in [`Nanos`].
pub const USEC: Nanos = 1_000;
/// One millisecond in [`Nanos`].
pub const MSEC: Nanos = 1_000_000;
/// One second in [`Nanos`].
pub const SEC: Nanos = 1_000_000_000;

/// Virtual-time cost of moving `bytes` over a resource with `bytes_per_sec`
/// capacity. Saturating and rounding up so a nonzero transfer always costs
/// at least a nanosecond.
pub fn transfer_time(bytes: u64, bytes_per_sec: u64) -> Nanos {
    if bytes == 0 || bytes_per_sec == 0 {
        return 0;
    }
    let t = (bytes as u128 * SEC as u128).div_ceil(bytes_per_sec as u128);
    t.min(u64::MAX as u128) as Nanos
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_basics() {
        assert_eq!(transfer_time(0, 1_000_000), 0);
        assert_eq!(transfer_time(1_000_000, 0), 0);
        // 1 MB over 1 MB/s = 1 s
        assert_eq!(transfer_time(1_000_000, 1_000_000), SEC);
        // rounds up
        assert_eq!(transfer_time(1, 1_000_000_000_000), 1);
    }

    #[test]
    fn transfer_time_saturates() {
        assert_eq!(transfer_time(u64::MAX, 1), u64::MAX);
    }
}
