//! # btcpart — Partitioning Attacks on Bitcoin
//!
//! A full Rust reproduction of *Partitioning Attacks on Bitcoin:
//! Colliding Space, Time, and Logic* (Saad, Cook, Nguyen, Thai, Mohaisen —
//! ICDCS 2019): the four partitioning attacks (spatial, temporal,
//! spatio-temporal, logical), the substrates they need (chain primitives, P2P
//! network simulator, Internet topology, BGP routing, mining pools,
//! measurement crawler), and the paper's countermeasures.
//!
//! This crate is the facade: it re-exports the workspace crates and adds
//! the [`Scenario`] builder plus the [`experiments`] drivers that
//! regenerate every table and figure in the paper.
//!
//! # Quickstart
//!
//! ```
//! use btcpart::Scenario;
//! use btcpart::experiments::spatial;
//!
//! // A 5%-scale network (fast); use the default scale for paper size.
//! let (snapshot, census) = Scenario::new().scale(0.05).build_static();
//! let table2 = spatial::table2(&snapshot);
//! assert!(table2.body.contains("Hetzner"));
//! let table4 = spatial::table4(&snapshot, &census);
//! assert!(table4.body.contains("BTC.com"));
//! ```
//!
//! # Crate map
//!
//! | Crate | Role |
//! |---|---|
//! | [`analysis`] | statistics, distributions, ECDFs, tables, charts |
//! | [`chain`] | SHA-256 block ids, heights, difficulty retargeting |
//! | [`topology`] | ASes, organizations, prefixes, calibrated snapshots |
//! | [`bgp`] | AS graph, valley-free routing, hijack engine |
//! | [`mining`] | pool census, stratum placement, block arrivals |
//! | [`net`] | event-driven P2P simulation |
//! | [`crawler`] | Bitnodes-style measurement |
//! | [`attacks`] | the four partitioning attacks + countermeasures |
//! | [`obs`] | deterministic metrics: counters, histograms, span timers |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bp_analysis as analysis;
pub use bp_attacks as attacks;
pub use bp_bgp as bgp;
pub use bp_chain as chain;
pub use bp_crawler as crawler;
pub use bp_mining as mining;
pub use bp_net as net;
pub use bp_obs as obs;
pub use bp_topology as topology;

pub mod experiments;
pub mod scenario;

pub use experiments::Artifact;
pub use scenario::{Lab, Scenario};
