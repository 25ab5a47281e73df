//! # qsr-planner
//!
//! Analytical I/O cost models and suspend-aware plan selection (paper §7),
//! plus the static/offline suspend-strategy baseline of Figure 12.

#![forbid(unsafe_code)]

pub mod cost;

pub use cost::*;
