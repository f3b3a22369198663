//! The per-layer metrics every traced run reports.
//!
//! Each traced run reports the full list below, in this order. A run
//! fills the metrics of the layers its workload drives; a layer the
//! workload bypasses reads 0, which is the prediction for it ("no
//! move"). `perfbench/NOTES.md` names, for each metric, the end-to-end
//! metric it should move and on which workload.

use crate::Outcome;

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 45] = [
    // bp-bench pipeline, on pipeline-quick.
    ("dag.busy_ms", "ms"),
    ("dag.parallel_eff", "ratio"),
    ("dag.critical_path_ms", "ms"),
    ("task.ablations_ms", "ms"),
    ("task.countermeasures_ms", "ms"),
    ("task.fifty_one_ms", "ms"),
    ("task.propagation_ms", "ms"),
    ("task.fig7_ms", "ms"),
    ("crawl.day_ms", "ms"),
    ("crawl.general_ms", "ms"),
    // bp-net, on pipeline-quick (its metered crawl simulations).
    ("net.events", "count"),
    ("net.ns_per_event", "ns"),
    ("net.events.inv", "count"),
    ("net.events.getdata", "count"),
    ("net.events.block", "count"),
    ("net.events.mine", "count"),
    ("net.events.churn", "count"),
    ("net.queue.scheduled", "count"),
    ("net.queue.late", "count"),
    ("net.queue.overflow", "count"),
    ("net.queue.cascaded", "count"),
    ("net.queue.depth_hwm", "count"),
    ("net.blocks_mined", "count"),
    ("net.queue.replay_ns_per_event", "ns"),
    ("net.queue.share", "ratio"),
    ("net.amdahl_p2", "x"),
    ("net.amdahl_p8", "x"),
    // bp-topology, on pipeline-quick (the static snapshot build).
    ("topology.generate_s", "s"),
    // Process memory after set-up, on every workload.
    ("rss.after_setup_mb", "MiB"),
    // bp-serve, on serve-tcp.
    ("serve.substrate_build_s", "s"),
    ("serve.roundtrip_us", "us"),
    ("serve.engine.warm_frame_us", "us"),
    ("serve.wire.codec_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.engine.cold_us.partition_cost", "us"),
    ("serve.engine.cold_us.eclipse", "us"),
    ("serve.engine.cold_us.eclipse_cascade", "us"),
    ("serve.engine.cold_us.blockaware_tradeoff", "us"),
    ("serve.engine.cold_us.min_timing", "us"),
    ("serve.memo.hit_ratio", "ratio"),
    ("serve.cold_evals", "count"),
    ("serve.memo.entries", "count"),
    ("serve.warm_frames", "count"),
    ("serve.queries.distinct", "count"),
    // The benchmark's own spans, on every workload.
    ("trace.overhead_pct", "%"),
];

/// Per-layer values of one traced run; unset metrics read 0.
#[derive(Debug)]
pub struct Layers(Vec<f64>);

impl Default for Layers {
    fn default() -> Self {
        Self(vec![0.0; PER_LAYER.len()])
    }
}

impl Layers {
    /// Sets a metric by name.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`] — a benchmark bug.
    pub fn set(&mut self, name: &str, value: f64) {
        let at = PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        self.0[at] = value;
    }

    /// Moves every metric into `outcome`, in list order, and prints them.
    pub fn report(self, outcome: &mut Outcome) {
        for ((name, unit), value) in PER_LAYER.iter().zip(self.0) {
            println!("# {name} = {value} {unit}");
            outcome.push(name, value, unit);
        }
    }
}
