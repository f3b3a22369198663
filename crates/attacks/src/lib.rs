//! The paper's contribution: spatial, temporal, spatio-temporal and
//! logical partitioning attacks on Bitcoin, plus the proposed
//! countermeasures.
//!
//! Everything here runs against the substrates in the sibling crates:
//! the calibrated topology snapshot (`bp-topology`), the BGP hijack
//! planner (`bp-bgp`), the pool census (`bp-mining`), the event-driven
//! network simulation (`bp-net`) and the measurement crawler
//! (`bp-crawler`).
//!
//! | Paper artifact | Entry point |
//! |---|---|
//! | Table III, Figure 3 | [`spatial::centralization`], [`spatial::classical_attack_curve`] |
//! | Figure 4 | [`bp_bgp::HijackIndex`] + [`spatial::eclipse_as`] |
//! | Table IV implications | [`bp_mining::PoolCensus::isolated_share`] |
//! | Table V | [`temporal::table_v`] |
//! | Table VI | [`temporal::TemporalModel`] |
//! | Figure 7 | [`temporal::GridSim`] |
//! | Figure 5 scenario | [`temporal::run_temporal_attack`] |
//! | Table VII, Figure 8 | [`spatiotemporal::plan`], [`spatiotemporal::execute`] |
//! | Table VIII, §V-D | [`logical`] |
//! | §VI countermeasures | [`countermeasures`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod countermeasures;
pub mod fifty_one;
pub mod logical;
pub mod spatial;
pub mod spatiotemporal;
pub mod temporal;

pub use fifty_one::{run_fifty_one, FiftyOneConfig, FiftyOneReport};
pub use spatial::{centralization, classical_attack_curve, eclipse_as, CentralizationReport};
pub use spatiotemporal::{execute as execute_spatiotemporal, plan as plan_spatiotemporal};
pub use temporal::{run_temporal_attack, GridSim, TemporalAttackConfig, TemporalModel};
