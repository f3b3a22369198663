//! Event-driven Bitcoin P2P network simulator.
//!
//! Simulates block propagation over the node population of a
//! [`bp_topology::Snapshot`]: diffusion spreading with exponential
//! per-edge delays, 8 outbound peers per node, message loss, churn,
//! zombie nodes, pool-driven mining, partitions and adversary hooks.
//! This is the substrate under the paper's Figure 6 / Figure 8
//! measurements and the temporal-attack experiments.
//!
//! # Examples
//!
//! ```
//! use bp_mining::PoolCensus;
//! use bp_net::{NetConfig, Simulation};
//! use bp_topology::{Snapshot, SnapshotConfig};
//!
//! let snap = Snapshot::generate(SnapshotConfig {
//!     scale: 0.02,
//!     tail_as_count: 40,
//!     version_tail: 10,
//!     ..SnapshotConfig::paper()
//! });
//! let mut sim = Simulation::new(
//!     &snap, &PoolCensus::paper_table_iv(), NetConfig::fast_test(),
//! );
//! sim.run_for_secs(1800); // three expected block intervals
//! assert!(sim.network_best().0 >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod engine;
pub mod fxhash;
pub mod index;
pub mod keyed;
pub mod sim;
pub mod view;

pub use engine::{EventQueue, HeapQueue, QueueStats, SimTime, WHEEL_SLOT_MS, WHEEL_SPAN_MS};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use index::{BlockIndex, BlockMeta};
pub use sim::{
    ForkStats, NetConfig, RelayMode, SamplingMode, Simulation, TrafficStats, ADVERSARY_PRODUCER,
};
pub use view::{NodeView, ViewOutcome};
