//! Dependency-free observability, one path for every crate: counters,
//! callback gauges, log-linear latency histograms, per-update stage spans,
//! an injectable clock, and the registry of named components they live in.
//!
//! Layout:
//! - `metrics` — the atomic primitives ([`Counter`], callback gauges,
//!   [`Histogram`] with p50/p95/p99 snapshots);
//! - `registry` — [`Registry`]: named [`Component`]s aggregating metrics
//!   per subsystem;
//! - `span` — [`Span`], the stage timer the Update Manager runs per
//!   trapped update;
//! - `clock` — [`SystemClock`] in production, [`ManualClock`] in tests
//!   (deterministic latencies, virtual fault-injector delays).
//!
//! This crate depends on no workspace crate, so every layer (the LDAP
//! server and WAL, the LTAP gateway, the meta-directory core) holds its
//! counters as registry handles: a subsystem that starts on its own owns a
//! [`Component`], and a deployment adopts it into its [`Registry`]
//! ([`Registry::adopt`]). Each event increments one counter once; callback
//! gauges exist only for values derived when read.

#![warn(unreachable_pub)]

mod clock;
mod metrics;
mod registry;
mod span;

pub use clock::{Clock, ManualClock, SystemClock};
pub use metrics::{bucket_upper, Counter, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{Component, ComponentSnapshot, Registry, RegistrySnapshot};
pub use span::Span;
