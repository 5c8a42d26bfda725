//! Deterministic metrics and live progress streaming for the SNBC pipeline.
//!
//! This crate is the *quantitative* observability layer, sitting between
//! `snbc-trace` (timelines: *when* did each phase run) and `snbc-telemetry`
//! (run reports: *what* did a finished run do). It answers two questions the
//! other two layers cannot:
//!
//! * **What are the aggregate counts right now?** — the [`Metrics`]
//!   registry: monotonic counters, gauges, and fixed-bucket histograms,
//!   folded from the progress events below. A registry snapshots to the
//!   canonical `snbc-metrics/1` JSON document ([`MetricsSnapshot`]) and to
//!   Prometheus text exposition ([`prom::to_prometheus`],
//!   textfile-collector style — no network).
//! * **What is the pipeline doing while it runs?** — the [`Progress`]
//!   stream: typed `snbc-progress/1` events (`job-start`, `round`,
//!   `learn-epoch`, `verify-rung`, `cex`, `wave`, `cache-hit`, `job-done`)
//!   written line-buffered as NDJSON with monotonically increasing sequence
//!   numbers, so a consumer can follow a `snbc batch` run round-by-round.
//!
//! # Determinism model
//!
//! Each pipeline fact is recorded once, as a [`ProgressEvent`]. Concurrent
//! producers (racing candidates) emit into private buffers
//! ([`Progress::fork_buffer`]) that a single-threaded driver drains in a
//! **fixed index order** at a barrier ([`Progress::drain_into`]), and a
//! cache hit replays the stored event lines ([`Progress::replay`]). The
//! [`Metrics`] registry is an [`EventSink`] on that same drained sequence:
//! its snapshot is a fold of the stream, so it inherits the stream's
//! determinism with no merge order of its own.
//!
//! Wall-clock and cache-temperature effects are quarantined rather than
//! forbidden: live NDJSON lines carry a `t_us` timestamp and `cache-hit`
//! events, while the **canonical** stream mode strips `t_us` and skips
//! *environmental* events, and [`Metrics::snapshot`] with `canonical =
//! true` skips the environmental `cache_hit`/`cache_miss` counters. The
//! canonical artifacts are byte-identical across `SNBC_THREADS` settings
//! *and* across cold/warm cache runs (`tests/progress_determinism.rs` holds
//! that line); the live artifacts are for humans and dashboards.
//!
//! All timestamps come from [`snbc_trace::now_us`] — the workspace's single
//! sanctioned clock — so this crate never reads `Instant` directly.

pub mod progress;
pub mod prom;
pub mod registry;

pub use progress::{CexFallback, EventSink, Progress, ProgressEvent, Scope, PROGRESS_SCHEMA};
pub use registry::{buckets, HistogramSnapshot, Metrics, MetricsSnapshot, METRICS_SCHEMA};

// The hand-rolled JSON module both schemas serialize through; re-exported
// (like `snbc-telemetry` does) so downstream crates need no direct
// `snbc-trace` dependency to read progress lines.
pub use snbc_trace::json;
