//! `bp-serve`: a long-running, batched, memoizing what-if query engine
//! over the calibrated partitioning substrate.
//!
//! Every question the paper's analyses can answer — "what does it cost
//! to partition AS X?" (§V-A), "what BlockAware threshold bounds the
//! false-alarm rate at this λ?" (§VI), "how long must the temporal
//! attacker sustain an isolation of these targets?" (§V-B) — used to
//! cost a full pipeline run. This crate is the serving edge: the
//! expensive substrate (snapshot, census, day crawl) is built exactly
//! once ([`Substrate`]), and parameterized queries
//! ([`Query`]) are answered from a sharded memo table
//! ([`memo::MemoTable`]) with cold misses fanned out across scoped
//! worker threads ([`QueryEngine`]).
//!
//! Determinism contract: responses are **byte-identical** for a fixed
//! query sequence at any worker count and across a server restart
//! against a warm persistent backend. Timing and hit/miss counters are
//! volatile observability and never influence response bytes.
//!
//! # Examples
//!
//! ```
//! use bp_serve::{EngineOptions, Query, QueryEngine, Substrate};
//! use btcpart::Scenario;
//! use std::sync::Arc;
//!
//! let substrate = Substrate::new(Scenario::new().scale(0.02).build_static(), None);
//! let engine = QueryEngine::new(Arc::new(substrate), EngineOptions::default());
//! let hot = engine.execute(&Query::PartitionCost { target_as: 24940 });
//! assert_eq!(*engine.execute(&Query::PartitionCost { target_as: 24940 }), *hot);
//! assert_eq!(engine.memo_hits(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod loadgen;
pub mod memo;
pub mod query;
pub mod substrate;
pub mod wire;

pub use engine::{EngineOptions, MemoBackend, QueryEngine};
pub use loadgen::{drive, script, LoadReport, ScriptConfig, TargetMix};
pub use query::{Answer, Query};
pub use substrate::Substrate;
pub use wire::{serve, Client, ServerHandle};
