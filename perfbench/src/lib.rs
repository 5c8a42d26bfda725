//! Time-to-certificate benchmark for the SNBC workspace.
//!
//! The binary (`src/main.rs`) runs one workload per invocation and prints a
//! human-readable table followed by one JSON line; this library holds the
//! arithmetic it relies on, so the tests in `tests/` can pin it down:
//!
//! * [`stats`] — medians, quartiles, the nearest-rank percentile rule and
//!   fail fractions with an explicit base;
//! * [`procfs`] — `/proc/self/stat` CPU ticks and `/proc/self/status`
//!   `VmHWM` parsing;
//! * [`spans`] — the in-memory span recorder of the traced run and the
//!   self-time rule for nested spans.
//!
//! See `perfbench/README.md` for the workloads and metric definitions.

pub mod procfs;
pub mod spans;
pub mod stats;
