//! Simulation clock and event queue.
//!
//! A classic discrete-event core: events are `(time, sequence, payload)`
//! triples popped in `(time, sequence)` order; the sequence number makes
//! ordering of simultaneous events deterministic, which keeps whole
//! simulations reproducible from a seed.
//!
//! Two queue implementations share that contract:
//!
//! * [`EventQueue`] — the production queue, a bucketed calendar (timing
//!   wheel). Scheduling appends to a per-slot bucket in O(1); a bucket is
//!   sorted once when the clock reaches its slot, so the per-event cost
//!   is a small sort share instead of a `log n` heap walk over hundreds
//!   of thousands of pending events (the measured high-water mark of a
//!   paper-profile crawl is ≈300 k).
//! * [`HeapQueue`] — the original binary-heap queue, kept as the reference
//!   model. The property tests drive both implementations with identical
//!   schedules and assert the pop sequences match exactly.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Simulation time in milliseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1000)
    }

    /// Constructs from fractional seconds (rounded to milliseconds).
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "time must be non-negative");
        SimTime((secs * 1000.0).round() as u64)
    }

    /// Milliseconds since start.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds since start (truncating).
    pub fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// Fractional seconds since start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    /// Advances by `rhs` milliseconds.
    fn add(self, rhs: u64) -> SimTime {
        SimTime(self.0 + rhs)
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub for SimTime {
    type Output = u64;
    /// Milliseconds between two instants (saturating).
    fn sub(self, rhs: SimTime) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}s", self.as_secs_f64())
    }
}

/// Wrapper giving the payload a vacuous ordering so heaps order purely
/// on `(time, seq)`.
#[derive(Debug)]
struct EventBox<E>(E);

impl<E> PartialEq for EventBox<E> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<E> Eq for EventBox<E> {}
impl<E> PartialOrd for EventBox<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for EventBox<E> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

/// The deterministic min-heap reference queue.
///
/// This was the production queue before the calendar [`EventQueue`]
/// replaced it on the hot path; it stays as the executable specification
/// of the `(time, seq)` pop order, and the equivalence tests drive both
/// implementations with the same schedules.
#[derive(Debug)]
pub struct HeapQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, EventBox<E>)>>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulation time (the time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Events scheduled in the past are clamped to `now` (they fire next).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        self.heap.push(Reverse((at, self.seq, EventBox(event))));
        self.seq += 1;
    }

    /// Schedules `event` `delay_ms` milliseconds from now.
    pub fn schedule_in(&mut self, delay_ms: u64, event: E) {
        self.schedule(self.now + delay_ms, event);
    }

    /// Pops the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((at, _, EventBox(event))) = self.heap.pop()?;
        self.now = at;
        Some((at, event))
    }

    /// The time of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    /// Advances the clock to `t` without processing anything (no-op if
    /// `t` is in the past).
    pub fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }
}

/// Scheduling counters of an [`EventQueue`], for observability
/// (`net.*.queue.*` metrics). Purely bookkeeping — the counts are as
/// deterministic as the schedule that produced them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events ever scheduled.
    pub scheduled: u64,
    /// Events that landed in a wheel slot (the common O(1) path).
    pub wheel: u64,
    /// Events for the current (or an already-drained) slot, kept in the
    /// small late-insertion heap.
    pub late: u64,
    /// Events beyond the wheel horizon, parked in the overflow heap.
    pub overflow: u64,
    /// Overflow events cascaded back into the wheel as the clock advanced.
    pub cascaded: u64,
}

/// Bucket width of the calendar wheel: 2^7 = 128 ms per slot.
const SLOT_SHIFT: u64 = 7;
/// Number of slots: the wheel spans 8192 × 128 ms ≈ 17.5 simulated
/// minutes, which covers every delay the diffusion model draws in
/// practice (lazy fetches bound at 2 × 300 s); rarer arrivals (long
/// exponential mining gaps) take the overflow path.
const SLOT_COUNT: u64 = 8192;

/// Width of one wheel slot in milliseconds (public so boundary tests can
/// aim events exactly at slot edges).
pub const WHEEL_SLOT_MS: u64 = 1 << SLOT_SHIFT;

/// Capacity (in events) above which a drained wheel bucket's allocation
/// is released instead of kept for reuse. Gossip waves at large scale
/// concentrate tens of millions of events into the few slots nearest
/// `now`; since every wave lands on different ring offsets, retained
/// bucket capacity otherwise accretes monotonically across the whole
/// ring — gigabytes over a simulated day at a million nodes. Buckets at
/// or below the threshold (the steady-state case) keep their allocation,
/// so ordinary traffic never reallocates; a mega-wave bucket regrows
/// from empty on the next wave, which is amortized O(1) per event.
const SLOT_RETAIN_CAP: usize = 1024;
/// Span of the whole wheel in milliseconds: events scheduled at
/// `now + WHEEL_SPAN_MS` or later (relative to the current slot's start)
/// take the overflow path; nearer future events land in the wheel.
pub const WHEEL_SPAN_MS: u64 = SLOT_COUNT << SLOT_SHIFT;

fn slot_of(t: SimTime) -> u64 {
    t.0 >> SLOT_SHIFT
}

/// The deterministic calendar (timing-wheel) event queue.
///
/// Pops events in exactly the `(time, seq)` order of [`HeapQueue`]:
/// FIFO among simultaneous events, validated by reference-equivalence
/// tests. Internally, events within the wheel horizon append O(1) to a
/// per-slot bucket that is sorted once when the clock enters the slot;
/// events for the current slot (or the past) go to a small heap, and
/// events beyond the horizon wait in an overflow heap that cascades back
/// into the wheel as the clock advances.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Ring of future-slot buckets, indexed by `slot % SLOT_COUNT`; holds
    /// events with `cur_slot < slot < cur_slot + SLOT_COUNT`, unsorted.
    wheel: Vec<Vec<(SimTime, u64, E)>>,
    /// Events in wheel buckets (so empty-wheel fast paths are O(1)).
    wheel_len: usize,
    /// The current slot's events, sorted, drained from the front.
    active: VecDeque<(SimTime, u64, E)>,
    /// Events scheduled into the current slot after it was sorted, or
    /// clamped from the past; merged with `active` by `(time, seq)`.
    late: BinaryHeap<Reverse<(SimTime, u64, EventBox<E>)>>,
    /// Events at or beyond `cur_slot + SLOT_COUNT`.
    overflow: BinaryHeap<Reverse<(SimTime, u64, EventBox<E>)>>,
    /// Absolute slot index the clock is currently draining.
    cur_slot: u64,
    len: usize,
    seq: u64,
    now: SimTime,
    stats: QueueStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self {
            wheel: (0..SLOT_COUNT).map(|_| Vec::new()).collect(),
            wheel_len: 0,
            active: VecDeque::new(),
            late: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            cur_slot: 0,
            len: 0,
            seq: 0,
            now: SimTime::ZERO,
            stats: QueueStats::default(),
        }
    }

    /// Current simulation time (the time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Scheduling counters so far.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Events scheduled in the past are clamped to `now` (they fire next).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        self.stats.scheduled += 1;
        let slot = slot_of(at);
        if slot <= self.cur_slot {
            // Current or already-passed slot: the bucket (if any) was
            // already sorted and adopted, so the event joins the
            // late-insertion heap that pops alongside it.
            self.stats.late += 1;
            self.late.push(Reverse((at, seq, EventBox(event))));
        } else if slot < self.cur_slot + SLOT_COUNT {
            self.stats.wheel += 1;
            self.wheel_len += 1;
            self.wheel[(slot % SLOT_COUNT) as usize].push((at, seq, event));
        } else {
            self.stats.overflow += 1;
            self.overflow.push(Reverse((at, seq, EventBox(event))));
        }
    }

    /// Schedules `event` `delay_ms` milliseconds from now.
    pub fn schedule_in(&mut self, delay_ms: u64, event: E) {
        self.schedule(self.now + delay_ms, event);
    }

    /// Advances `cur_slot` until the next pending event is reachable in
    /// `active` or `late`. Caller must ensure `len > 0`.
    fn position(&mut self) {
        while self.active.is_empty() && self.late.is_empty() {
            // Both staging structures are empty here; if either adopted a
            // mega-wave's footprint, release it before the next bucket
            // moves in. Pure allocation behaviour — order is untouched.
            if self.active.capacity() > SLOT_RETAIN_CAP {
                self.active = VecDeque::new();
            }
            if self.late.capacity() > SLOT_RETAIN_CAP {
                self.late = BinaryHeap::new();
            }
            self.cur_slot += 1;
            if self.wheel_len == 0 {
                // Nothing inside the horizon: jump straight to the slot
                // of the earliest overflow event instead of stepping
                // through (possibly millions of) empty slots.
                if let Some(Reverse((t, _, _))) = self.overflow.peek() {
                    self.cur_slot = self.cur_slot.max(slot_of(*t));
                }
            }
            // Overflow events whose slot entered the horizon cascade into
            // the wheel; the overflow heap is time-ordered, so its head
            // bounds everything behind it.
            while let Some(Reverse((t, _, _))) = self.overflow.peek() {
                if slot_of(*t) >= self.cur_slot + SLOT_COUNT {
                    break;
                }
                let Reverse((t, seq, EventBox(event))) = self.overflow.pop().expect("peeked");
                self.stats.cascaded += 1;
                self.wheel_len += 1;
                self.wheel[(slot_of(t) % SLOT_COUNT) as usize].push((t, seq, event));
            }
            let bucket = &mut self.wheel[(self.cur_slot % SLOT_COUNT) as usize];
            if !bucket.is_empty() {
                bucket.sort_unstable_by_key(|a| (a.0, a.1));
                self.wheel_len -= bucket.len();
                self.active.extend(bucket.drain(..));
                if bucket.capacity() > SLOT_RETAIN_CAP {
                    *bucket = Vec::new();
                }
            }
        }
    }

    /// Whether the next event comes from `active` rather than `late`.
    /// Caller must ensure `position` ran and `len > 0`.
    fn next_is_active(&self) -> bool {
        match (self.active.front(), self.late.peek()) {
            (Some(a), Some(Reverse(l))) => (a.0, a.1) <= (l.0, l.1),
            (Some(_), None) => true,
            _ => false,
        }
    }

    /// Pops the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        self.position();
        let (at, event) = if self.next_is_active() {
            let (at, _, event) = self.active.pop_front().expect("positioned");
            (at, event)
        } else {
            let Reverse((at, _, EventBox(event))) = self.late.pop().expect("positioned");
            (at, event)
        };
        self.len -= 1;
        self.now = at;
        Some((at, event))
    }

    /// The time of the next pending event without popping it.
    ///
    /// Takes `&mut self` because the calendar positions itself lazily;
    /// the observable queue state is unchanged.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        self.position();
        if self.next_is_active() {
            self.active.front().map(|&(at, _, _)| at)
        } else {
            self.late.peek().map(|Reverse((at, _, _))| *at)
        }
    }

    /// Advances the clock to `t` without processing anything (no-op if
    /// `t` is in the past). Drivers call this after draining events up
    /// to a deadline so that relative scheduling (`schedule_in`,
    /// `run_for_secs`) measures from the deadline rather than from the
    /// last event — otherwise simulated time stalls whenever events are
    /// sparse.
    pub fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn simtime_arithmetic() {
        let t = SimTime::from_secs(600);
        assert_eq!(t.as_millis(), 600_000);
        assert_eq!((t + 500).as_millis(), 600_500);
        assert_eq!(t - SimTime::from_secs(100), 500_000);
        assert_eq!(SimTime::from_secs(1) - SimTime::from_secs(2), 0);
        assert_eq!(SimTime::from_secs_f64(1.5).as_millis(), 1500);
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_pop_in_schedule_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), 1);
        q.schedule(SimTime(10), 2);
        q.schedule(SimTime(10), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(100), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(100));
    }

    #[test]
    fn past_events_clamped_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(100), "first");
        q.pop();
        q.schedule(SimTime(50), "late"); // in the past now
        let (at, _) = q.pop().unwrap();
        assert_eq!(at, SimTime(100));
    }

    #[test]
    fn advance_to_moves_clock_forward_only() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime(500));
        assert_eq!(q.now(), SimTime(500));
        q.advance_to(SimTime(100)); // no-op backwards
        assert_eq!(q.now(), SimTime(500));
        // Relative scheduling measures from the advanced clock.
        q.schedule_in(10, ());
        assert_eq!(q.peek_time(), Some(SimTime(510)));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(100), ());
        q.pop();
        q.schedule_in(25, ());
        assert_eq!(q.peek_time(), Some(SimTime(125)));
    }

    #[test]
    fn horizon_boundary_classification_is_exact() {
        // At t=0 (current slot 0): exactly the wheel span goes to
        // overflow, one millisecond inside stays in the wheel, and the
        // current slot (even future times within it) takes the late heap.
        let mut q = EventQueue::new();
        q.schedule(SimTime(WHEEL_SPAN_MS), "horizon");
        assert_eq!(q.stats().overflow, 1);
        q.schedule(SimTime(WHEEL_SPAN_MS - 1), "inside");
        assert_eq!(q.stats().wheel, 1);
        q.schedule(SimTime(WHEEL_SLOT_MS - 1), "same-slot");
        assert_eq!(q.stats().late, 1);
        q.schedule(SimTime(WHEEL_SLOT_MS), "next-slot");
        assert_eq!(q.stats().wheel, 2);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["same-slot", "next-slot", "inside", "horizon"]);
        assert_eq!(q.stats().cascaded, 1, "the horizon event cascaded back");
    }

    #[test]
    fn horizon_is_anchored_to_the_popped_slot() {
        // The wheel horizon advances with `cur_slot` (the slot of the
        // last popped wheel event), not with `now`: after popping into
        // slot 10, the first overflow time is that slot's start plus the
        // wheel span, even if `now` sits mid-slot.
        let mut q = EventQueue::new();
        q.schedule(SimTime(10 * WHEEL_SLOT_MS + 100), "positioner");
        assert_eq!(q.pop().unwrap().1, "positioner");
        let slot_start = 10 * WHEEL_SLOT_MS;
        q.schedule(SimTime(slot_start + WHEEL_SPAN_MS), "first-overflow");
        assert_eq!(q.stats().overflow, 1);
        q.schedule(SimTime(slot_start + WHEEL_SPAN_MS - 1), "last-wheel");
        assert_eq!(q.stats().wheel, 2, "positioner plus last-wheel");
        assert_eq!(q.pop().unwrap().1, "last-wheel");
        assert_eq!(q.pop().unwrap().1, "first-overflow");
        assert!(q.is_empty());
    }

    #[test]
    fn events_beyond_the_horizon_cascade_back() {
        let mut q = EventQueue::new();
        // Far beyond the wheel span (8192 slots × 128 ms ≈ 1049 s).
        q.schedule(SimTime(5_000_000), "far");
        q.schedule(SimTime(10), "near");
        assert_eq!(q.stats().overflow, 1);
        assert_eq!(q.pop().unwrap(), (SimTime(10), "near"));
        assert_eq!(q.pop().unwrap(), (SimTime(5_000_000), "far"));
        assert_eq!(q.stats().cascaded, 1);
        assert!(q.is_empty());
    }

    #[test]
    fn sparse_far_events_pop_without_slot_walking() {
        // Events dozens of horizons apart must still pop promptly (the
        // empty-wheel jump); interleave near events to exercise re-entry.
        let mut q = EventQueue::new();
        let times = [3u64, 2_000_000, 1_500, 900_000_000, 42];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut sorted: Vec<u64> = times.to_vec();
        sorted.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(at, _)| at.0)).collect();
        assert_eq!(popped, sorted);
    }

    /// Drives the calendar queue and the heap reference with an identical
    /// randomized schedule/pop interleaving and asserts the pop sequences
    /// match exactly — `(time, seq)` order, FIFO on ties. The proptest
    /// version in `tests/properties.rs` explores the same space with
    /// shrinking; this seeded run keeps the guarantee in plain
    /// `cargo test`.
    #[test]
    fn calendar_queue_matches_heap_reference() {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(0xCA1E_0000 + seed);
            let mut cal: EventQueue<usize> = EventQueue::new();
            let mut heap: HeapQueue<usize> = HeapQueue::new();
            let mut payload = 0usize;
            for _ in 0..2_000 {
                match rng.random_range(0..10u32) {
                    // Schedule a burst: mixes past times (clamped), ties,
                    // in-horizon and far-overflow times.
                    0..=5 => {
                        let burst = rng.random_range(1..8usize);
                        for _ in 0..burst {
                            let at = match rng.random_range(0..4u32) {
                                0 => rng.random_range(0..1_000u64),             // often the past
                                1 => cal.now().0 + rng.random_range(0..200u64), // ties likely
                                2 => cal.now().0 + rng.random_range(0..500_000u64),
                                _ => cal.now().0 + rng.random_range(0..20_000_000u64),
                            };
                            cal.schedule(SimTime(at), payload);
                            heap.schedule(SimTime(at), payload);
                            payload += 1;
                        }
                    }
                    6..=8 => {
                        for _ in 0..rng.random_range(1..6usize) {
                            assert_eq!(cal.pop(), heap.pop(), "seed {seed}");
                        }
                    }
                    _ => {
                        let t = SimTime(cal.now().0 + rng.random_range(0..2_000_000u64));
                        cal.advance_to(t);
                        heap.advance_to(t);
                    }
                }
                assert_eq!(cal.len(), heap.len(), "seed {seed}");
                assert_eq!(cal.now(), heap.now(), "seed {seed}");
            }
            while let Some(expect) = heap.pop() {
                assert_eq!(cal.pop(), Some(expect), "seed {seed} drain");
            }
            assert!(cal.is_empty());
        }
    }

    #[test]
    fn stats_classify_scheduling_paths() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.schedule(SimTime(50), 0); // slot 0 == current slot → late
        q.schedule(SimTime(10_000), 1); // inside the horizon → wheel
        q.schedule(SimTime(50_000_000), 2); // beyond → overflow
        let s = q.stats();
        assert_eq!(s.scheduled, 3);
        assert_eq!(s.late, 1);
        assert_eq!(s.wheel, 1);
        assert_eq!(s.overflow, 1);
    }

    /// A burst far above [`SLOT_RETAIN_CAP`] must not leave its capacity
    /// behind after draining: gossip waves land on different ring
    /// offsets every time, so retained mega-buckets accrete across the
    /// whole ring over a long run (gigabytes at a million nodes).
    /// Steady-state-sized buckets keep their allocation.
    #[test]
    fn drained_mega_buckets_release_their_allocation() {
        let mut q: EventQueue<u64> = EventQueue::new();
        // One wave: far more than SLOT_RETAIN_CAP events into one slot.
        let at = SimTime(3 * WHEEL_SLOT_MS);
        for i in 0..(SLOT_RETAIN_CAP as u64 * 4) {
            q.schedule(at, i);
        }
        let slot = (slot_of(at) % SLOT_COUNT) as usize;
        assert!(q.wheel[slot].capacity() > SLOT_RETAIN_CAP);
        // Drain the wave; pops must still come out in schedule order.
        for i in 0..(SLOT_RETAIN_CAP as u64 * 4) {
            assert_eq!(q.pop(), Some((at, i)));
        }
        assert!(q.is_empty());
        assert_eq!(
            q.wheel[slot].capacity(),
            0,
            "mega-bucket capacity retained after drain"
        );
        // The adopting deque was trimmed once it emptied.
        q.schedule(SimTime(q.now().0 + WHEEL_SLOT_MS), 0);
        q.pop();
        assert!(q.active.capacity() <= SLOT_RETAIN_CAP * 2);
        // A bucket at steady-state size keeps its allocation.
        let at2 = SimTime(q.now().0 + 2 * WHEEL_SLOT_MS);
        for i in 0..64u64 {
            q.schedule(at2, i);
        }
        let slot2 = (slot_of(at2) % SLOT_COUNT) as usize;
        let cap_before = q.wheel[slot2].capacity();
        assert!(cap_before > 0 && cap_before <= SLOT_RETAIN_CAP);
        while q.pop().is_some() {}
        assert_eq!(
            q.wheel[slot2].capacity(),
            cap_before,
            "small bucket should keep its allocation for reuse"
        );
    }
}
