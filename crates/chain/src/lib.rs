//! Chain primitives for the `btcpart` workspace.
//!
//! What the simulators share about Bitcoin's chain: SHA-256 block
//! identifiers ([`Hash256`], [`BlockId`]), chain heights ([`Height`]),
//! and the epoch-based difficulty rule ([`difficulty`]) that decides how
//! long a partition's slower chain goes unnoticed. Blocks, fork choice
//! and transactions live in the gossip simulator (`bp-net`), which is the
//! workspace's one double-spend model.
//!
//! # Examples
//!
//! A partition keeping 30 % of the hash rate mines its first retarget
//! epoch at the old difficulty, so that epoch takes 1/0.3 of the
//! two-week target:
//!
//! ```
//! use bp_chain::{partition_difficulty_timeline, RETARGET_EPOCH};
//!
//! let timeline = partition_difficulty_timeline(0.30, 600.0, 1);
//! let target_secs = RETARGET_EPOCH as f64 * 600.0;
//! assert!((timeline[0].1 - target_secs / 0.30).abs() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod difficulty;
pub mod hash;

pub use block::{BlockId, Height};
pub use difficulty::{partition_difficulty_timeline, Difficulty, RETARGET_EPOCH};
pub use hash::Hash256;
