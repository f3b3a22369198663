//! Queue-share estimate: `bp_net::EventQueue` schedule/pop timed in
//! isolation, for the parallel-simulator decision (what share of a
//! simulation's wall is queue work, and so what a parallel queue could
//! at best save).

use bp_net::{EventQueue, NetConfig};
use std::hint::black_box;
use std::time::Instant;

/// Pre-drawn delays the replay cycles through.
const DELAYS: usize = 1 << 16;

/// Event counts of the simulation being replayed.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Events the simulation scheduled.
    pub events: u64,
    /// The simulation's queue-depth high-water mark.
    pub depth: u64,
    /// Handled `inv`, `getdata` and `block` events, for the delay mix.
    pub inv: u64,
    pub getdata: u64,
    pub block: u64,
}

/// xorshift64* — the replay's delays need no statistical finesse, only
/// a fixed stream.
struct Prng(u64);

impl Prng {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Replays `load.events` schedule+pop pairs on a queue held at
/// `load.depth` pending events, with delays drawn like the paper
/// profile's (announcements `min + Exp(diffusion mean)`, lazy fetches
/// `min + U[0, 2·fetch mean]`, block transfers `min + transfer`) in the
/// load's inv/getdata/block shares. Returns seconds spent.
pub fn replay_queue(load: Load, seed: u64) -> f64 {
    let net = NetConfig::paper();
    let (inv, getdata) = (load.inv as f64, load.getdata as f64);
    let total = (inv + getdata + load.block as f64).max(1.0);
    let mut rng = Prng(seed ^ 0x9E37_79B9_7F4A_7C15);
    let delays: Vec<u64> = (0..DELAYS)
        .map(|_| {
            let kind = rng.next_f64() * total;
            let u = rng.next_f64();
            let extra = if kind < inv {
                -net.diffusion_mean_ms * (1.0 - u).ln()
            } else if kind < inv + getdata {
                u * 2.0 * net.fetch_delay_mean_ms
            } else {
                net.block_transfer_ms as f64
            };
            net.min_latency_ms + extra as u64
        })
        .collect();
    let mut queue: EventQueue<u32> = EventQueue::new();
    for i in 0..load.depth.max(1) {
        queue.schedule_in(delays[i as usize % DELAYS], i as u32);
    }
    let t = Instant::now();
    for i in 0..load.events as usize {
        let (_, event) = queue.pop().expect("the replay keeps the queue at depth");
        queue.schedule_in(delays[i % DELAYS], black_box(event));
    }
    t.elapsed().as_secs_f64()
}

/// Amdahl bound on the whole-run speed-up when only the queue's `share`
/// of the wall runs on `threads` threads: `1 / ((1 - q) + q / p)`.
pub fn amdahl(share: f64, threads: f64) -> f64 {
    1.0 / ((1.0 - share) + share / threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amdahl_bounds() {
        assert_eq!(amdahl(0.0, 8.0), 1.0);
        assert!((amdahl(1.0, 8.0) - 8.0).abs() < 1e-12);
        assert!((amdahl(0.5, 2.0) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn replay_runs_the_requested_load() {
        let load = Load {
            events: 10_000,
            depth: 500,
            inv: 6,
            getdata: 3,
            block: 1,
        };
        assert!(replay_queue(load, 1) > 0.0);
    }
}
