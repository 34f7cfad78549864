//! `gph-obs`: the observability layer of the GPH suite.
//!
//! Three pieces, deliberately dependency-light (only `hamming-core`, for
//! the shared binary-codec plumbing):
//!
//! * [`LogHistogram`] — a lock-free log-linear histogram (promoted and
//!   generalized from `gph-serve`'s latency histogram) whose quantiles
//!   carry ≈ ±6 % relative error at any magnitude.
//! * [`MetricsRegistry`] — a registry of named counters, gauges, and
//!   histograms. Handles are `Arc`'d atomics, so the hot path never
//!   takes a lock; [`MetricsRegistry::render`] encodes everything in the
//!   Prometheus text exposition format.
//! * [`QueryTrace`] and [`Tracer`] — structured per-query traces: wall
//!   time and counters for each engine phase, per segment and per shard,
//!   sampled at a configurable rate, with a fixed-size slow-query ring
//!   buffer. Traces carry a versioned binary codec so they can travel
//!   over the `GPHN` wire protocol; since codec v2 each trace also
//!   carries its hop context (trace id, node, start timestamp).
//! * [`FleetTrace`] — per-node [`QueryTrace`]s merged into one
//!   fleet-wide view attributing engine vs. network+queue time per hop.
//! * [`federate`] — Prometheus-exposition parsing and cross-node
//!   merging for the fleet client's metrics sweep
//!   (`gph_net::FleetClient::metrics`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod federate;
pub mod fleettrace;
pub mod hist;
pub mod registry;
pub mod trace;

pub use federate::{merge_expositions, Exposition};
pub use fleettrace::{FleetTrace, HopTrace};
pub use hist::LogHistogram;
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry};
pub use trace::{PhaseNanos, QueryTrace, SegmentTrace, ShardTrace, TraceConfig, Tracer};
