//! Streaming partition detection over the flight recorder — the
//! defender's view.
//!
//! The attacks in this workspace end with a network split; the paper's
//! BlockAware countermeasure (§VI) is the victim noticing. This crate
//! generalizes that into a detection *suite*: it consumes the 32-byte
//! trace records the simulation already emits ([`bp_obs::trace`]) —
//! either the run's merged trace, replayed once the pipeline finishes,
//! or a committed `trace.bin` — maintains rolling-window observables
//! (per-node block-staleness bands, inv fan-out rate, per-AS sync-share
//! skew, reorg-depth spikes, the getdata/inv ratio), and feeds them to
//! pluggable [`Detector`]s.
//!
//! Everything is integer / fixed-point arithmetic over an already
//! deterministic record stream, so the alert stream is byte-identical at
//! any `--jobs` and between `repro --detect` and offline replay.
//! Detectors emit alerts as ordinary trace records
//! ([`bp_obs::trace::TraceCategory::Detect`] kinds), so every existing
//! trace tool (summary, filter, diff, jsonl) works on alert streams too.
//!
//! [`score`] turns ground-truth `partition_apply` / `partition_heal`
//! records into attack windows and grades each detector by detection
//! latency and false-positive rate — the `detection_roc.csv` axis the
//! paper's BlockAware countermeasure analysis (§VI) is a single point
//! on.
//!
//! # Example: offline replay
//!
//! ```
//! use bp_detect::{DetectConfig, DetectEngine};
//! use bp_obs::trace::{TraceKind, TraceRecord};
//!
//! // A two-node network where node 1 goes dark after ten minutes
//! // while the tip keeps advancing: the BlockAware detector fires once
//! // the staleness persists past its confirm streak.
//! let mut records = Vec::new();
//! for i in 0..45u64 {
//!     let t = (i + 1) * 60_000;
//!     records.push(TraceRecord {
//!         time: t, node: 0, kind: TraceKind::Mine, a: i, b: i + 1,
//!     });
//!     records.push(TraceRecord {
//!         time: t, node: 0, kind: TraceKind::BlockAccept, a: i, b: i + 1,
//!     });
//!     if i < 10 {
//!         records.push(TraceRecord {
//!             time: t, node: 1, kind: TraceKind::BlockAccept, a: i, b: i + 1,
//!         });
//!     }
//!     records.push(TraceRecord {
//!         time: t, node: 2, kind: TraceKind::CrawlSample,
//!         a: if i < 10 { 2 } else { 1 }, b: i + 1,
//!     });
//! }
//! let mut engine = DetectEngine::new(DetectConfig::default());
//! engine.feed_all(&records);
//! let report = engine.finish();
//! assert!(report
//!     .alerts
//!     .iter()
//!     .any(|r| r.kind == TraceKind::DetectBlockAware));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detector;
pub mod engine;
pub mod observe;
pub mod score;

pub use detector::{standard_suite, Alert, DetectConfig, Detector};
pub use engine::{DetectEngine, DetectReport};
pub use observe::{StreamState, Tick};
pub use score::{attack_windows, score_detectors, AttackWindow, DetectorScore};
