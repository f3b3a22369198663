//! BGP substrate: AS relationship graph, valley-free routing, and the
//! prefix-hijack planner behind the paper's spatial partitioning attack.
//!
//! The paper validates spatial partitioning by grouping each AS's Bitcoin
//! nodes under its announced BGP prefixes and counting how many prefix
//! hijacks isolate a given fraction of nodes (Figure 4). This crate
//! implements that analysis plus a routing-level model of same-length
//! origin hijacks over a synthetic Gao–Rexford AS hierarchy.
//!
//! # Examples
//!
//! ```
//! use bp_bgp::HijackIndex;
//! use bp_topology::{Asn, Snapshot, SnapshotConfig};
//!
//! let snap = Snapshot::generate(SnapshotConfig::test_small());
//! let hijacks = HijackIndex::new(&snap);
//! let outcome = hijacks.hijack_top_prefixes(Asn(24940), 15);
//! assert!(outcome.fraction_of_as > 0.5); // Hetzner falls fast
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod hijack;
pub mod routing;

pub use graph::{AsGraph, Relationship};
pub use hijack::{
    origin_hijack, origin_hijack_with_defense, HijackIndex, HijackOutcome, OriginHijack,
};
pub use routing::{Route, RouteClass, RouteMap};
