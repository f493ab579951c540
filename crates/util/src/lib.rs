//! # nb-util
//!
//! Utility substrate shared by every crate in the workspace:
//!
//! * [`uuid`] — 128-bit random unique identifiers (the paper tags every
//!   discovery request with a UUID),
//! * [`dedup`] — bounded duplicate-suppression caches (every broker keeps
//!   the last *N* = 1000 discovery-request UUIDs),
//! * [`stats`] — summary statistics with the paper's outlier-trimming
//!   protocol (120 runs, outliers removed, first 100 kept),
//! * [`config`] — the `key = value` configuration-file format used by
//!   broker and client node configuration,
//! * [`rate`] — sliding-window rate meters (drives the simulated broker
//!   CPU-load metric),
//! * [`fnv`] — FNV-1a-64, the hash every run and report digest folds
//!   with.
//!
//! Everything here is deliberately dependency-light and deterministic so
//! that the discrete-event reproduction harness stays reproducible.

pub mod config;
pub mod dedup;
pub mod fnv;
pub mod rate;
pub mod stats;
pub mod uuid;

pub use config::{Config, ConfigError};
pub use dedup::{BoundedDedup, FoldHasher};
pub use fnv::{fnv1a64_step, fnv1a64_word, FNV_OFFSET};
pub use rate::RateMeter;
pub use stats::{trim_outliers, Summary};
pub use uuid::Uuid;
