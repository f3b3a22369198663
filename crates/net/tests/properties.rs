//! Property-based tests for the network simulator: event-queue ordering,
//! view consistency, and whole-simulation invariants across seeds.

use bp_chain::Height;
use bp_mining::PoolCensus;
use bp_net::{
    BlockIndex, EventQueue, HeapQueue, NetConfig, NodeView, SimTime, Simulation, WHEEL_SLOT_MS,
    WHEEL_SPAN_MS,
};
use bp_topology::{Snapshot, SnapshotConfig};
use proptest::prelude::*;

/// One step of the queue-equivalence property: schedule a batch, pop a
/// few, or advance the clock.
#[derive(Debug, Clone)]
enum QueueOp {
    /// Schedule events at `now + delay` for each delay.
    Schedule(Vec<u64>),
    /// Pop up to this many events.
    Pop(u8),
    /// Advance both clocks by this many milliseconds.
    Advance(u64),
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        // Delay mix mirrors the simulator: short relay delays, ties at
        // zero, and occasional timers far past the wheel horizon.
        proptest::collection::vec(
            prop_oneof![Just(0u64), 0u64..5_000, 900_000u64..3_000_000],
            1..20
        )
        .prop_map(QueueOp::Schedule),
        (1u8..16).prop_map(QueueOp::Pop),
        (0u64..200_000).prop_map(QueueOp::Advance),
    ]
}

proptest! {
    /// The calendar queue is observationally identical to the binary
    /// heap it replaced: same `(time, event)` pop sequence, same length
    /// and clock, under arbitrary schedule/pop/advance interleavings.
    #[test]
    fn calendar_queue_equals_heap_reference(
        ops in proptest::collection::vec(queue_op(), 1..60),
    ) {
        let mut calendar: EventQueue<u64> = EventQueue::new();
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        let mut next_event = 0u64;
        for op in ops {
            match op {
                QueueOp::Schedule(delays) => {
                    for d in delays {
                        let at = SimTime(calendar.now().0 + d);
                        calendar.schedule(at, next_event);
                        heap.schedule(at, next_event);
                        next_event += 1;
                    }
                }
                QueueOp::Pop(count) => {
                    for _ in 0..count {
                        prop_assert_eq!(calendar.pop(), heap.pop());
                    }
                }
                QueueOp::Advance(ms) => {
                    let target = SimTime(calendar.now().0 + ms);
                    calendar.advance_to(target);
                    heap.advance_to(target);
                }
            }
            prop_assert_eq!(calendar.len(), heap.len());
            prop_assert_eq!(calendar.now(), heap.now());
        }
        // Drain: the full remaining order matches.
        loop {
            let (a, b) = (calendar.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Events aimed exactly at the calendar wheel's horizon — the
    /// wheel/overflow boundary — and at the current-slot edge — the
    /// late-heap boundary — pop in exactly the heap reference's order.
    /// Interleaved pops advance the clock mid-slot, so the boundary is
    /// probed from arbitrary offsets within a slot.
    #[test]
    fn horizon_boundary_events_pop_in_reference_order(
        start_ms in 0u64..2_000_000,
        deltas in proptest::collection::vec(-3i64..=3, 1..24),
        pops_between in 0u8..4,
    ) {
        let mut calendar: EventQueue<u64> = EventQueue::new();
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        calendar.advance_to(SimTime(start_ms));
        heap.advance_to(SimTime(start_ms));
        for (i, d) in deltas.iter().enumerate() {
            // Alternate between the overflow boundary (now + wheel span)
            // and the late-heap boundary (now + one slot), jittered ±3 ms
            // so both sides of each edge are exercised.
            let base = if i % 2 == 0 { WHEEL_SPAN_MS } else { WHEEL_SLOT_MS };
            let at = (calendar.now().0 + base).saturating_add_signed(*d);
            calendar.schedule(SimTime(at), i as u64);
            heap.schedule(SimTime(at), i as u64);
            for _ in 0..pops_between {
                let (a, b) = (calendar.pop(), heap.pop());
                prop_assert_eq!(a, b);
                prop_assert_eq!(calendar.now(), heap.now());
            }
        }
        loop {
            let (a, b) = (calendar.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Events always pop in non-decreasing time order, with FIFO order
    /// among simultaneous events.
    #[test]
    fn event_queue_orders_correctly(
        times in proptest::collection::vec(0u64..1000, 1..100),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut seen_at_time: Vec<usize> = Vec::new();
        let mut current = SimTime::ZERO;
        while let Some((at, idx)) = q.pop() {
            prop_assert!(at >= last_time, "time went backwards");
            if at != current {
                seen_at_time.clear();
                current = at;
            }
            // FIFO within a timestamp: indices increase.
            if let Some(&prev) = seen_at_time.last() {
                prop_assert!(idx > prev, "FIFO violated at {at}");
            }
            seen_at_time.push(idx);
            last_time = at;
        }
    }

    /// A node view accepts any permutation of a mined chain and ends at
    /// the same tip with no stranded orphans.
    #[test]
    fn view_converges_under_any_delivery_order(
        rot in any::<prop::sample::Index>(),
        len in 2usize..12,
    ) {
        let mut index = BlockIndex::new();
        let mut chain = Vec::new();
        let mut parent = index.genesis();
        for i in 0..len {
            let meta = index.mine(parent, SimTime::from_secs(600 * (i as u64 + 1)), 0, false);
            parent = meta.id;
            chain.push(meta.id);
        }
        let r = rot.index(len);
        let mut view = NodeView::new(&index);
        for i in 0..len {
            view.offer(&index, chain[(i + r) % len]);
        }
        prop_assert_eq!(view.best_tip(), *chain.last().unwrap());
        prop_assert_eq!(view.best_height(), Height(len as u64));
        prop_assert_eq!(view.known_count(), len + 1);
    }

    /// Fork choice in the view never decreases the best height.
    #[test]
    fn view_height_is_monotone(ops in proptest::collection::vec(any::<u8>(), 1..40)) {
        let mut index = BlockIndex::new();
        let mut tips = vec![index.genesis()];
        let mut view = NodeView::new(&index);
        let mut best = Height::GENESIS;
        for (i, op) in ops.iter().enumerate() {
            // Mine on a pseudo-random existing tip, offer immediately.
            let parent = tips[(*op as usize) % tips.len()];
            let meta = index.mine(parent, SimTime(i as u64), (*op % 3) as u32, false);
            tips.push(meta.id);
            view.offer(&index, meta.id);
            prop_assert!(view.best_height() >= best);
            best = view.best_height();
        }
    }
}

fn tiny_snapshot(seed: u64) -> Snapshot {
    Snapshot::generate(SnapshotConfig {
        seed,
        scale: 0.015,
        tail_as_count: 30,
        version_tail: 8,
        up_fraction: 1.0,
        ..SnapshotConfig::paper()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Across seeds: no node's view ever exceeds the honest network best,
    /// counterfeit-free runs stay counterfeit-free, and lags are
    /// internally consistent.
    #[test]
    fn simulation_invariants_across_seeds(seed in 0u64..500) {
        let snap = tiny_snapshot(seed);
        let config = NetConfig {
            seed,
            ..NetConfig::fast_test()
        };
        let mut sim = Simulation::new(&snap, &PoolCensus::paper_table_iv(), config);
        sim.run_for_secs(3 * 600);
        let best = sim.network_best();
        let lags = sim.lags();
        prop_assert_eq!(lags.len(), sim.node_count());
        for (i, &lag) in lags.iter().enumerate() {
            let h = sim.height_of(i as u32);
            // Height plus lag reconstructs the network best for nodes on
            // the main chain; side-chain tips may be shorter but lag is
            // measured against the best height either way.
            prop_assert!(h <= best, "node {i} ahead of the network");
            prop_assert_eq!(lag, best.0 - h.0.min(best.0));
            prop_assert!(!sim.follows_counterfeit(i as u32));
        }
        // Fork stats are consistent: stale forks never exceed mined
        // blocks.
        let stats = sim.stats();
        prop_assert!(stats.stale_forks <= stats.blocks_mined);
    }

    /// Partition + heal always reconverges under the lossless profile.
    #[test]
    fn partition_heal_reconverges(seed in 0u64..200, cut in 2u32..5) {
        let snap = tiny_snapshot(seed);
        let config = NetConfig { seed, ..NetConfig::fast_test() };
        let mut sim = Simulation::new(&snap, &PoolCensus::paper_table_iv(), config);
        let n = sim.node_count() as u32;
        sim.run_for_secs(600);
        sim.set_partition(move |i| i % cut);
        sim.run_for_secs(2 * 600);
        sim.clear_partition();
        // Reconvergence is driven by fresh announcements: wait until at
        // least three post-heal blocks exist (bounded), then let the
        // last one settle.
        let healed_at = sim.stats().blocks_mined;
        let mut waited = 0;
        while sim.stats().blocks_mined < healed_at + 3 && waited < 30 {
            sim.run_for_secs(600);
            waited += 1;
        }
        sim.run_for_secs(300);
        let lags = sim.lags();
        let behind = lags.iter().filter(|&&l| l > 1).count();
        prop_assert!(
            (behind as f64) < 0.1 * n as f64,
            "{behind}/{n} nodes stuck after heal (seed {seed})"
        );
    }
}
