//! Per-actor virtual clocks and shared FIFO-timeline resources.
//!
//! A [`Port`] is one simulated actor's (client process's) private
//! clock: it only moves forward as the actor pays operation costs.
//!
//! A [`SharedResource`] models a component that serves one request at a
//! time (a metadata server, a lease manager, a FUSE daemon lock): a
//! request arriving at virtual time `a` with service demand `s` takes the
//! first idle gap at or after `a` that fits `s_eff` (first-fit), where
//! `s_eff` inflates with the number of requests still in flight — the
//! lock-contention / cache-thrash degradation that makes Figure 1's
//! single-MDS throughput *collapse* (not just saturate) past a handful of
//! clients.
//!
//! A [`BandwidthResource`] is the same discipline with service demand
//! computed from a byte count and a capacity — used for shared network
//! links and disk arrays.

use crate::{transfer_time, Nanos};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// One simulated actor's (client process's) private monotone clock: it
/// only moves forward as the actor pays operation costs. Shared by
/// reference, so layered components (FS client → cache → object store →
/// network) can all charge costs to the same simulated process.
#[derive(Debug, Default)]
pub struct Port {
    now: AtomicU64,
}

impl Port {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn starting_at(t: Nanos) -> Self {
        Port {
            now: AtomicU64::new(t),
        }
    }

    /// Current virtual time of this actor.
    pub fn now(&self) -> Nanos {
        self.now.load(Ordering::Acquire)
    }

    /// Pay a local cost (CPU time, an uncontended cache hit, ...);
    /// returns the new time.
    pub fn advance(&self, cost: Nanos) -> Nanos {
        let prev = self
            .now
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |t| {
                Some(t.saturating_add(cost))
            })
            .expect("the update always succeeds");
        prev.saturating_add(cost)
    }

    /// Wait until an absolute completion time returned by a shared
    /// resource (never moves backwards); returns the new time.
    pub fn wait_until(&self, t: Nanos) -> Nanos {
        self.now.fetch_max(t, Ordering::AcqRel).max(t)
    }

    /// Reset to a given origin (between benchmark phases).
    pub fn reset_to(&self, t: Nanos) {
        self.now.store(t, Ordering::Release);
    }
}

/// Contention behaviour of a [`SharedResource`].
#[derive(Debug, Clone, Copy)]
pub struct ContentionModel {
    /// Per-in-flight-request multiplicative service inflation.
    /// `0.0` gives an ideal FIFO server (pure queueing, throughput
    /// saturates at capacity); `> 0.0` makes throughput *degrade* under
    /// load, as the paper observed for the CephFS MDS.
    pub alpha: f64,
    /// Cap on the inflation factor so the model stays bounded.
    pub max_factor: f64,
}

impl Default for ContentionModel {
    fn default() -> Self {
        ContentionModel {
            alpha: 0.0,
            max_factor: 64.0,
        }
    }
}

impl ContentionModel {
    pub fn ideal() -> Self {
        Self::default()
    }

    pub fn degrading(alpha: f64) -> Self {
        ContentionModel {
            alpha,
            max_factor: 64.0,
        }
    }

    fn factor(&self, in_flight: usize) -> f64 {
        (1.0 + self.alpha * in_flight as f64).min(self.max_factor)
    }
}

#[derive(Debug, Default)]
struct ResourceInner {
    /// Busy intervals `(start, end)`, sorted, non-overlapping and
    /// coalesced. Interval placement (first-fit after arrival) instead of
    /// a strict next-free-time keeps the model fair when some callers
    /// (background checkpoint/commit threads) run ahead on virtual time:
    /// their future reservations must not block earlier arrivals from
    /// other actors. Arrivals are near-sorted, so a reservation touches
    /// the few intervals next to the newest.
    busy_intervals: VecDeque<(Nanos, Nanos)>,
    /// Completion times of recent reservations (for the contention-depth
    /// estimate).
    in_flight: VecDeque<Nanos>,
    served: u64,
    busy: Nanos,
    /// Busy intervals dropped past `MAX_INTERVALS`, and their length.
    forgotten: (u64, Nanos),
}

/// Bound on tracked intervals; beyond it the oldest are forgotten.
const MAX_INTERVALS: usize = 4096;

/// A shared FIFO server on the virtual timeline. Cheap to reserve from
/// many threads (one short mutex hold per reservation).
#[derive(Debug)]
pub struct SharedResource {
    name: &'static str,
    contention: ContentionModel,
    /// Reservations shorter than this are charged but not tracked as
    /// busy intervals (used by bandwidth resources whose per-message
    /// transfers can be nanoseconds).
    min_track: Nanos,
    inner: Mutex<ResourceInner>,
}

impl SharedResource {
    pub fn new(name: &'static str, contention: ContentionModel) -> Self {
        SharedResource {
            name,
            contention,
            min_track: 0,
            inner: Mutex::new(ResourceInner::default()),
        }
    }

    /// Skip busy-interval tracking for reservations shorter than `min`.
    pub fn with_min_track(mut self, min: Nanos) -> Self {
        self.min_track = min;
        self
    }

    /// An ideal FIFO server (no degradation).
    pub fn ideal(name: &'static str) -> Self {
        Self::new(name, ContentionModel::ideal())
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Reserve `service` time for a request arriving at `arrival`.
    /// Returns the absolute completion time the caller's [`Port`]
    /// should wait until. The request occupies the first idle gap at or
    /// after `arrival` that fits the (contention-inflated) service time.
    pub fn reserve(&self, arrival: Nanos, service: Nanos) -> Nanos {
        self.reserve_counting(arrival, service).0
    }

    /// [`Self::reserve`], also returning the busy nanoseconds this
    /// reservation pushed past the interval bound (see
    /// [`Self::forgotten`]; almost always 0), for servers that publish
    /// what they forget as a running counter.
    pub fn reserve_counting(&self, arrival: Nanos, service: Nanos) -> (Nanos, Nanos) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        // An ideal server (alpha 0) multiplies the contention depth by
        // zero: it neither counts nor records completions.
        let degrading = self.contention.alpha != 0.0;
        let eff = if degrading {
            // Contention depth: reservations still unfinished at `arrival`.
            let depth = inner.in_flight.iter().filter(|&&c| c > arrival).count();
            while inner.in_flight.len() > 256 {
                inner.in_flight.pop_front();
            }
            (service as f64 * self.contention.factor(depth)).round() as Nanos
        } else {
            service
        };
        inner.served += 1;
        if eff == 0 {
            return (arrival, 0);
        }
        inner.busy = inner.busy.saturating_add(eff);
        // Tiny reservations are charged but not tracked as busy
        // intervals: tracking them would flood the map without ever
        // influencing placement at the modelled service-time scales.
        if eff < self.min_track {
            return (arrival.saturating_add(eff), 0);
        }

        // First-fit gap search: from the first interval that ends after
        // the arrival, push the candidate start past every interval that
        // overlaps [t, t+eff).
        let intervals = &mut inner.busy_intervals;
        let mut t = arrival;
        let mut i = intervals.partition_point(|&(_, end)| end <= t);
        while let Some(&(start, end)) = intervals.get(i) {
            if start >= t.saturating_add(eff) {
                break;
            }
            t = end;
            i += 1;
        }
        let completion = t.saturating_add(eff);

        // Insert [t, completion) before interval `i`, coalescing with the
        // neighbours it touches.
        let joins_prev = i > 0 && intervals[i - 1].1 == t;
        let joins_next = intervals
            .get(i)
            .is_some_and(|&(start, _)| start == completion);
        match (joins_prev, joins_next) {
            (true, true) => {
                intervals[i - 1].1 = intervals[i].1;
                intervals.remove(i);
            }
            (true, false) => intervals[i - 1].1 = completion,
            (false, true) => intervals[i].0 = t,
            (false, false) => intervals.insert(i, (t, completion)),
        }

        // Bound memory by forgetting the OLDEST intervals. Dropping (not
        // merging) is mildly optimistic for extreme laggards, but merging
        // would solidify the head of the timeline into one giant busy
        // block that starves every late-arriving request.
        let mut forgot = 0;
        while intervals.len() > MAX_INTERVALS {
            let (start, end) = intervals.pop_front().expect("nonempty");
            inner.forgotten.0 += 1;
            forgot += end - start;
        }
        inner.forgotten.1 += forgot;

        if degrading {
            inner.in_flight.push_back(completion);
        }
        (completion, forgot)
    }

    /// Total requests served so far.
    pub fn served(&self) -> u64 {
        self.inner.lock().served
    }

    /// Total busy time accumulated (virtual).
    pub fn busy_time(&self) -> Nanos {
        self.inner.lock().busy
    }

    /// What the interval bound made this server forget: `(intervals,
    /// nanoseconds)` of busy time dropped from the head of its timeline.
    /// A late arrival may be placed over forgotten time, so a server
    /// that forgot `ns` may have been booked up to `ns` beyond its
    /// capacity; a server that forgot nothing was modelled exactly.
    pub fn forgotten(&self) -> (u64, Nanos) {
        self.inner.lock().forgotten
    }

    /// Reset between benchmark phases.
    pub fn reset(&self) {
        let mut inner = self.inner.lock();
        *inner = ResourceInner::default();
    }
}

/// A shared link/disk with a fixed byte capacity per second.
#[derive(Debug)]
pub struct BandwidthResource {
    resource: SharedResource,
    bytes_per_sec: u64,
}

impl BandwidthResource {
    pub fn new(name: &'static str, bytes_per_sec: u64) -> Self {
        BandwidthResource {
            resource: SharedResource::ideal(name).with_min_track(200),
            bytes_per_sec,
        }
    }

    pub fn bytes_per_sec(&self) -> u64 {
        self.bytes_per_sec
    }

    /// Reserve a transfer of `bytes` arriving at `arrival`; returns the
    /// completion time.
    pub fn transfer(&self, arrival: Nanos, bytes: u64) -> Nanos {
        self.resource
            .reserve(arrival, transfer_time(bytes, self.bytes_per_sec))
    }

    pub fn reset(&self) {
        self.resource.reset()
    }

    pub fn served(&self) -> u64 {
        self.resource.served()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SEC;

    #[test]
    fn port_shares_a_timeline() {
        let p = Port::new();
        p.advance(10);
        p.wait_until(25);
        p.wait_until(5);
        assert_eq!(p.now(), 25);
        p.reset_to(100);
        assert_eq!(p.now(), 100);
        let p2 = Port::starting_at(7);
        assert_eq!(p2.now(), 7);
    }

    #[test]
    fn timeline_moves_forward_only() {
        let p = Port::new();
        assert_eq!(p.advance(10), 10);
        assert_eq!(p.wait_until(5), 10);
        assert_eq!(p.wait_until(20), 20);
        assert_eq!(p.now(), 20);
        // Saturates instead of wrapping.
        assert_eq!(p.advance(u64::MAX), u64::MAX);
        assert_eq!(p.now(), u64::MAX);
    }

    #[test]
    fn ideal_resource_serializes() {
        let r = SharedResource::ideal("mds");
        // Two requests arriving at t=0, 10ns service each: second queues.
        assert_eq!(r.reserve(0, 10), 10);
        assert_eq!(r.reserve(0, 10), 20);
        // A request arriving after the backlog drains starts immediately.
        assert_eq!(r.reserve(100, 10), 110);
        assert_eq!(r.served(), 3);
        assert_eq!(r.busy_time(), 30);
    }

    #[test]
    fn ideal_resource_saturates_at_capacity() {
        // 1000 clients, each sends 1 request of 1ms: makespan = 1s exactly.
        let r = SharedResource::ideal("mds");
        let mut last = 0;
        for _ in 0..1000 {
            last = r.reserve(0, crate::MSEC);
        }
        assert_eq!(last, SEC);
    }

    #[test]
    fn degrading_resource_collapses() {
        // With alpha > 0, pushing N concurrent requests costs more than
        // N * service: aggregate throughput falls under load.
        let ideal = SharedResource::ideal("a");
        let degrading = SharedResource::new("b", ContentionModel::degrading(0.5));
        let mut t_ideal = 0;
        let mut t_deg = 0;
        for _ in 0..64 {
            t_ideal = ideal.reserve(0, 1000);
            t_deg = degrading.reserve(0, 1000);
        }
        assert!(t_deg > t_ideal);
        // And the degradation factor is capped.
        let capped = SharedResource::new(
            "c",
            ContentionModel {
                alpha: 10.0,
                max_factor: 4.0,
            },
        );
        let mut last = 0;
        for _ in 0..100 {
            last = capped.reserve(0, 100);
        }
        assert!(last <= 100 * 100 * 4 + 100);
    }

    proptest::proptest! {
        /// An ideal server skips the in-flight recount. It must answer
        /// exactly as one that recounts and multiplies the depth by an
        /// alpha too small to move the factor off 1.0; and a degrading
        /// server must still inflate each service by the depth counted
        /// over its last reservations — checked against an ideal server
        /// fed the inflated services.
        #[test]
        fn skipping_the_recount_changes_no_completion(
            reqs in proptest::collection::vec((0u64..50_000, 0u64..2_000), 1..600),
            alpha_pct in 1u32..200,
        ) {
            let skips = SharedResource::ideal("skips");
            let counts = SharedResource::new("counts", ContentionModel::degrading(f64::MIN_POSITIVE));
            let degrading = SharedResource::new("degrading", ContentionModel::degrading(alpha_pct as f64 / 100.0));
            let inflated = SharedResource::ideal("inflated");
            let mut window: VecDeque<Nanos> = VecDeque::new();
            for (arrival, service) in reqs {
                let done = skips.reserve_counting(arrival, service);
                proptest::prop_assert_eq!(done, counts.reserve_counting(arrival, service));

                let depth = window.iter().filter(|&&c| c > arrival).count();
                while window.len() > 256 {
                    window.pop_front();
                }
                let eff = (service as f64 * degrading.contention.factor(depth)).round() as Nanos;
                let done = degrading.reserve_counting(arrival, service);
                proptest::prop_assert_eq!(done, inflated.reserve_counting(arrival, eff));
                if eff > 0 {
                    window.push_back(done.0);
                }
            }
            proptest::prop_assert!(skips.inner.lock().in_flight.is_empty());
            proptest::prop_assert_eq!(skips.busy_time(), counts.busy_time());
            proptest::prop_assert_eq!(skips.forgotten(), counts.forgotten());
            proptest::prop_assert_eq!(degrading.busy_time(), inflated.busy_time());
        }
    }

    /// The first-fit timeline as it was kept in a `BTreeMap` keyed by
    /// interval start: the reference the sorted-`VecDeque` walk must
    /// match call for call.
    struct BTreeTimeline {
        contention: ContentionModel,
        min_track: Nanos,
        intervals: std::collections::BTreeMap<Nanos, Nanos>,
        in_flight: VecDeque<Nanos>,
        served: u64,
        busy: Nanos,
        forgotten: (u64, Nanos),
    }

    impl BTreeTimeline {
        fn new(contention: ContentionModel, min_track: Nanos) -> Self {
            BTreeTimeline {
                contention,
                min_track,
                intervals: Default::default(),
                in_flight: VecDeque::new(),
                served: 0,
                busy: 0,
                forgotten: (0, 0),
            }
        }

        fn reserve_counting(&mut self, arrival: Nanos, service: Nanos) -> (Nanos, Nanos) {
            let degrading = self.contention.alpha != 0.0;
            let eff = if degrading {
                let depth = self.in_flight.iter().filter(|&&c| c > arrival).count();
                while self.in_flight.len() > 256 {
                    self.in_flight.pop_front();
                }
                (service as f64 * self.contention.factor(depth)).round() as Nanos
            } else {
                service
            };
            self.served += 1;
            if eff == 0 {
                return (arrival, 0);
            }
            self.busy = self.busy.saturating_add(eff);
            if eff < self.min_track {
                return (arrival.saturating_add(eff), 0);
            }
            let mut t = arrival;
            while let Some(end) = self
                .intervals
                .range(..t.saturating_add(eff))
                .next_back()
                .and_then(|(_, &end)| (end > t).then_some(end))
            {
                t = end;
            }
            let completion = t.saturating_add(eff);
            let (mut start, mut end) = (t, completion);
            if let Some((&ps, &pe)) = self.intervals.range(..=t).next_back() {
                if pe == t {
                    start = ps;
                    self.intervals.remove(&ps);
                }
            }
            if let Some(ne) = self.intervals.remove(&completion) {
                end = ne;
            }
            self.intervals.insert(start, end);
            let mut forgot = 0;
            while self.intervals.len() > MAX_INTERVALS {
                let (start, end) = self.intervals.pop_first().expect("nonempty");
                self.forgotten.0 += 1;
                forgot += end - start;
            }
            self.forgotten.1 += forgot;
            if degrading {
                self.in_flight.push_back(completion);
            }
            (completion, forgot)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 24,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The sorted-deque timeline places, coalesces and forgets
        /// exactly as the `BTreeMap` one did: near-sorted arrivals (the
        /// common case), far-future background reservations, late
        /// arrivals into old gaps and zero services, on ideal and
        /// degrading servers with and without a tracking floor, over
        /// runs long enough that the oldest intervals are forgotten.
        #[test]
        fn sorted_deque_matches_the_btree_timeline(
            steps in proptest::collection::vec((0u8..16, 0u64..4_000, 0u64..3_000), 7_000..8_000),
            alpha_pct in proptest::prop_oneof![proptest::strategy::Just(0u32), 1u32..50],
            min_track in proptest::prop_oneof![proptest::strategy::Just(0u64), 1u64..100],
        ) {
            let contention = if alpha_pct == 0 {
                ContentionModel::ideal()
            } else {
                ContentionModel::degrading(alpha_pct as f64 / 1_000.0)
            };
            let deque = SharedResource::new("deque", contention).with_min_track(min_track);
            let mut btree = BTreeTimeline::new(contention, min_track);
            let mut clock: Nanos = 0;
            for (kind, a, b) in steps {
                let (arrival, service) = match kind {
                    // Near-sorted: the clock moves on, arrivals jitter
                    // a little behind it.
                    0..=11 => {
                        clock += a;
                        (clock.saturating_sub(b / 8), b / 4)
                    }
                    // Background work booked far ahead.
                    12 => (clock + 1_000_000 + a * 1_000, b),
                    // A late arrival into an old gap.
                    13 | 14 => (clock * (a % 1_000) / 1_000, b / 8),
                    // Zero service.
                    _ => (clock, 0),
                };
                proptest::prop_assert_eq!(
                    deque.reserve_counting(arrival, service),
                    btree.reserve_counting(arrival, service)
                );
                proptest::prop_assert_eq!(deque.busy_time(), btree.busy);
                proptest::prop_assert_eq!(deque.served(), btree.served);
                proptest::prop_assert_eq!(deque.forgotten(), btree.forgotten);
            }
            let kept: Vec<(Nanos, Nanos)> = btree.intervals.into_iter().collect();
            proptest::prop_assert!(deque.inner.lock().busy_intervals.iter().eq(kept.iter()));
        }
    }

    #[test]
    fn in_flight_window_drains() {
        let r = SharedResource::new("mds", ContentionModel::degrading(1.0));
        let c1 = r.reserve(0, 100);
        // Arrive long after c1 completed: no in-flight inflation.
        let c2 = r.reserve(c1 + 1_000, 100);
        assert_eq!(c2, c1 + 1_000 + 100);
    }

    #[test]
    fn future_reservations_do_not_block_earlier_arrivals() {
        // A background actor reserves far in the future; a foreground
        // request arriving earlier slots into the idle gap before it.
        let r = SharedResource::ideal("disk");
        let bg = r.reserve(1_000_000, 500_000); // busy [1.0ms, 1.5ms)
        assert_eq!(bg, 1_500_000);
        let fg = r.reserve(0, 10_000); // fits in [0, 10µs)
        assert_eq!(fg, 10_000);
        // A request that does NOT fit before the busy window queues
        // after it.
        let big = r.reserve(900_000, 200_000);
        assert_eq!(big, 1_700_000);
    }

    #[test]
    fn gap_search_coalesces_intervals() {
        let r = SharedResource::ideal("x");
        assert_eq!(r.reserve(0, 10), 10); // [0,10)
        assert_eq!(r.reserve(20, 10), 30); // [20,30)
                                           // Exactly fills the gap and coalesces all three.
        assert_eq!(r.reserve(10, 10), 20);
        // Next arrival at 0 must queue after the merged [0,30).
        assert_eq!(r.reserve(0, 5), 35);
    }

    #[test]
    fn forgotten_counts_what_the_interval_bound_drops() {
        let r = SharedResource::ideal("x");
        // Disjoint 10 ns intervals never coalesce: one past the bound
        // drops the oldest.
        for i in 0..MAX_INTERVALS as u64 {
            r.reserve(i * 100, 10);
        }
        assert_eq!(r.forgotten(), (0, 0));
        r.reserve(MAX_INTERVALS as u64 * 100, 10);
        let (done, forgot) = r.reserve_counting((MAX_INTERVALS as u64 + 1) * 100, 10);
        assert_eq!((done, forgot), ((MAX_INTERVALS as u64 + 1) * 100 + 10, 10));
        assert_eq!(r.forgotten(), (2, 20));
        // The forgotten head is free again: an arrival at 0 lands on it.
        assert_eq!(r.reserve(0, 10), 10);
        assert_eq!(r.busy_time(), (MAX_INTERVALS as u64 + 3) * 10);
    }

    #[test]
    fn reset_clears_state() {
        let r = SharedResource::ideal("x");
        r.reserve(0, 50);
        r.reset();
        assert_eq!(r.served(), 0);
        assert_eq!(r.reserve(0, 50), 50);
    }

    #[test]
    fn bandwidth_resource_shares_capacity() {
        // Two 1 MB transfers over a 1 MB/s link: first done at 1s, second
        // at 2s.
        let link = BandwidthResource::new("net", 1_000_000);
        assert_eq!(link.transfer(0, 1_000_000), SEC);
        assert_eq!(link.transfer(0, 1_000_000), 2 * SEC);
        assert_eq!(link.bytes_per_sec(), 1_000_000);
    }

    #[test]
    fn concurrent_reservations_are_consistent() {
        // From many threads, total busy time must equal the sum of
        // services and next_free must equal that sum (all arrivals at 0).
        let r = std::sync::Arc::new(SharedResource::ideal("mds"));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    let mut max_completion = 0;
                    for _ in 0..1000 {
                        max_completion = max_completion.max(r.reserve(0, 10));
                    }
                    max_completion
                })
            })
            .collect();
        let max = threads
            .into_iter()
            .map(|h| h.join().unwrap())
            .max()
            .unwrap();
        assert_eq!(max, 8 * 1000 * 10);
        assert_eq!(r.served(), 8000);
        assert_eq!(r.busy_time(), 80_000);
    }
}
