//! The metric registry: a fold of the progress event stream into
//! counters, gauges and fixed-bucket histograms.
//!
//! A [`Metrics`] handle is a cheap clone (an `Arc` around the registry, or
//! nothing at all when off). It has no recording methods of its own: it
//! is an [`EventSink`], and one `match` (`Registry::fold_event`) maps each
//! [`ProgressEvent`] to the metrics it implies. A pipeline fact is thus
//! recorded once, as an event, and the snapshot is a function of the event
//! sequence the registry was fed. `run_batch` adds the caller's registry
//! to the job progress fanout, so the registry sees the same sequence as a
//! canonical writer: candidate buffers drained in grid-index order at each
//! wave barrier, and cache hits replayed from the stored event lines. That
//! order is what makes histogram sums and gauge last-writes independent of
//! `SNBC_THREADS` and of cache temperature.
//!
//! Floats are folded as the NDJSON encoding carries them (non-finite
//! values become `NaN`, since the stream writes them as `null`), so a
//! replayed event folds to exactly what the live one did.
//!
//! Histograms use **static bucket grids** (see [`buckets`]): the grid is
//! part of the fold's observation site, not runtime state.
//!
//! # Environmental metrics
//!
//! The `cache_hit` / `cache_miss` counters are *environmental*: they
//! describe run conditions (cache temperature), not the mathematical run.
//! A canonical snapshot ([`Metrics::snapshot`]`(true)`) excludes them,
//! which is what makes it byte-identical across cold/warm cache runs; the
//! full snapshot (and the Prometheus exposition built from it) includes
//! everything.

use std::sync::{Arc, Mutex, MutexGuard};

use snbc_trace::json::Value;

use crate::progress::{CexFallback, EventSink, ProgressEvent, Scope};

/// Schema tag of the snapshot document.
pub const METRICS_SCHEMA: &str = "snbc-metrics/1";

/// Static bucket grids of the fold's histograms.
pub mod buckets {
    /// Counterexample points fed back per CEGIS round.
    pub const POINTS: &[f64] = &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
    /// Final learner loss per round (log-ish grid).
    pub const LOSS: &[f64] = &[1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];
    /// Race waves per job.
    pub const WAVES: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
    /// Interval-oracle boxes processed per query.
    pub const BOXES: &[f64] = &[100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0];
}

/// Per-candidate state behind the `best_margin` gauge: the lowest rung
/// margin of the candidate's current round, and the best such minimum
/// over its failed rounds.
#[derive(Debug)]
struct Margins {
    scope: Scope,
    round: u64,
    round_min: f64,
    best: f64,
}

/// Registry state behind a handle. Entries keep insertion order; snapshots
/// sort by name.
#[derive(Debug, Default)]
struct Registry {
    metrics: MetricsSnapshot,
    margins: Vec<Margins>,
    /// The job scope of a `cache-hit` still waiting for its `job-done`.
    hit_job: Option<Option<u64>>,
}

/// A float as the progress stream carries it: `null` for non-finite
/// values, read back as `NaN`.
fn wire(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        f64::NAN
    }
}

impl Registry {
    /// The one place events become metrics.
    fn fold_event(&mut self, scope: Scope, event: &ProgressEvent) {
        match event {
            ProgressEvent::LearnEpoch { loss, .. } => {
                let loss = wire(*loss);
                self.add("rounds", 1, false);
                self.gauge("learn_loss", loss);
                self.observe("learn_loss_per_round", buckets::LOSS, loss);
            }
            ProgressEvent::VerifyRung {
                round,
                feasible,
                margin,
                ..
            } => {
                let name = if *feasible {
                    "verify_rung_feasible"
                } else {
                    "verify_rung_infeasible"
                };
                self.add(name, 1, false);
                let m = self.margins_of(scope);
                if m.round != *round {
                    m.round = *round;
                    // `NaN.min(x) == x`: the first rung seeds the minimum.
                    m.round_min = f64::NAN;
                }
                m.round_min = m.round_min.min(wire(*margin));
            }
            ProgressEvent::Cex {
                points, fallback, ..
            } => {
                let m = self.margins_of(scope);
                m.best = m.best.max(m.round_min);
                let best = m.best;
                self.gauge("best_margin", best);
                self.add("cex_points", *points, false);
                self.observe("cex_points_per_round", buckets::POINTS, *points as f64);
                if let Some(CexFallback { boxes, reseed }) = fallback {
                    self.add("interval_fallbacks", 1, false);
                    for &b in boxes {
                        self.add("boxes", b, false);
                        self.observe("boxes_per_query", buckets::BOXES, b as f64);
                    }
                    if *reseed {
                        self.add("reseeds", 1, false);
                    }
                }
            }
            ProgressEvent::CacheHit => {
                self.add("cache_hit", 1, true);
                self.hit_job = Some(scope.job);
            }
            ProgressEvent::JobDone {
                certified,
                candidates,
                waves,
                ..
            } => {
                self.add("jobs", 1, false);
                if *certified {
                    self.add("jobs_certified", 1, false);
                }
                self.add("candidates", *candidates, false);
                self.add("waves", *waves, false);
                self.observe("waves_per_race", buckets::WAVES, *waves as f64);
                if self.hit_job.take() != Some(scope.job) {
                    self.add("cache_miss", 1, true);
                }
                self.margins.retain(|m| m.scope.job != scope.job);
            }
            ProgressEvent::JobStart { .. }
            | ProgressEvent::Round { .. }
            | ProgressEvent::Wave { .. } => {}
        }
    }

    fn margins_of(&mut self, scope: Scope) -> &mut Margins {
        let i = match self.margins.iter().position(|m| m.scope == scope) {
            Some(i) => i,
            None => {
                self.margins.push(Margins {
                    scope,
                    round: 0,
                    round_min: f64::NAN,
                    best: f64::NEG_INFINITY,
                });
                self.margins.len() - 1
            }
        };
        &mut self.margins[i]
    }

    fn add(&mut self, name: &str, delta: u64, env: bool) {
        let counters = &mut self.metrics.counters;
        match counters.iter_mut().find(|c| c.name == name) {
            Some(c) => c.value = c.value.saturating_add(delta),
            None => counters.push(CounterSnapshot {
                name: name.to_string(),
                value: delta,
                env,
            }),
        }
    }

    /// Last write wins.
    fn gauge(&mut self, name: &str, value: f64) {
        let gauges = &mut self.metrics.gauges;
        match gauges.iter_mut().find(|g| g.name == name) {
            Some(g) => g.value = value,
            None => gauges.push(GaugeSnapshot {
                name: name.to_string(),
                value,
            }),
        }
    }

    /// Bucket `i` counts values `≤ bounds[i]` (boundary-inclusive) and
    /// above the previous bound; the last slot is the overflow.
    fn observe(&mut self, name: &str, bounds: &[f64], value: f64) {
        let hists = &mut self.metrics.hists;
        let idx = match hists.iter().position(|h| h.name == name) {
            Some(i) => i,
            None => {
                hists.push(HistogramSnapshot {
                    name: name.to_string(),
                    bounds: bounds.to_vec(),
                    counts: vec![0; bounds.len() + 1],
                    sum: 0.0,
                    count: 0,
                });
                hists.len() - 1
            }
        };
        let hist = &mut hists[idx];
        let bucket = bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(bounds.len());
        hist.counts[bucket] += 1;
        hist.sum += value;
        hist.count += 1;
    }
}

/// A handle to a metric registry; cheap to clone, no-op when off.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    rec: Option<Arc<Mutex<Registry>>>,
}

impl Metrics {
    /// A disabled handle: it folds nothing and snapshots empty.
    pub fn off() -> Metrics {
        Metrics { rec: None }
    }

    /// A fresh recording registry.
    pub fn recording() -> Metrics {
        Metrics {
            rec: Some(Arc::new(Mutex::new(Registry::default()))),
        }
    }

    /// Whether this handle records anything.
    pub fn is_recording(&self) -> bool {
        self.rec.is_some()
    }

    fn lock(&self) -> Option<MutexGuard<'_, Registry>> {
        // A poisoned lock only means another thread panicked mid-update;
        // the registry itself is a flat bag of counters and stays usable.
        self.rec.as_ref().map(|m| match m.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        })
    }

    /// Snapshots the registry, sorted by metric name. With `canonical =
    /// true`, environmental entries are excluded — the canonical snapshot
    /// is the artifact that must be byte-identical across thread counts and
    /// cache temperature.
    pub fn snapshot(&self, canonical: bool) -> MetricsSnapshot {
        let mut snap = self
            .lock()
            .map(|reg| reg.metrics.clone())
            .unwrap_or_default();
        if canonical {
            snap.counters.retain(|c| !c.env);
        }
        snap.counters.sort_by(|a, b| a.name.cmp(&b.name));
        snap.gauges.sort_by(|a, b| a.name.cmp(&b.name));
        snap.hists.sort_by(|a, b| a.name.cmp(&b.name));
        snap
    }
}

impl EventSink for Metrics {
    /// Folds every event, replayed ones included: a cache hit's replayed
    /// race is part of the canonical stream, so it is part of the
    /// canonical snapshot too.
    fn event(&self, scope: Scope, event: &ProgressEvent, _replayed: bool) {
        if let Some(mut reg) = self.lock() {
            reg.fold_event(scope, event);
        }
    }
}

/// One counter in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSnapshot {
    pub name: String,
    pub value: u64,
    pub env: bool,
}

/// One gauge in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSnapshot {
    pub name: String,
    pub value: f64,
}

/// One histogram in a snapshot: per-bucket counts (not cumulative; the
/// Prometheus writer accumulates), the grid, and the sum/count pair.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub name: String,
    pub bounds: Vec<f64>,
    pub counts: Vec<u64>,
    pub sum: f64,
    pub count: u64,
}

/// A point-in-time registry snapshot; serializes to the `snbc-metrics/1`
/// document (floats carry their exact IEEE bit patterns next to the
/// human-readable value, in the style of the `snbc-cache-key/1` canonical
/// document).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<CounterSnapshot>,
    pub gauges: Vec<GaugeSnapshot>,
    pub hists: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The `snbc-metrics/1` JSON document.
    pub fn to_json(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|c| {
                Value::Obj(vec![
                    ("name".to_string(), Value::Str(c.name.clone())),
                    ("value".to_string(), Value::Int(c.value)),
                    ("env".to_string(), Value::Bool(c.env)),
                ])
            })
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|g| {
                Value::Obj(vec![
                    ("name".to_string(), Value::Str(g.name.clone())),
                    // `value` is for humans (null when non-finite); `bits`
                    // is the exact IEEE pattern.
                    ("value".to_string(), Value::Num(g.value)),
                    ("bits".to_string(), Value::Int(g.value.to_bits())),
                    // No gauge is environmental; the field keeps the
                    // document shape of every entry alike.
                    ("env".to_string(), Value::Bool(false)),
                ])
            })
            .collect();
        let hists = self
            .hists
            .iter()
            .map(|h| {
                Value::Obj(vec![
                    ("name".to_string(), Value::Str(h.name.clone())),
                    (
                        "bounds".to_string(),
                        Value::Arr(h.bounds.iter().map(|&b| Value::Num(b)).collect()),
                    ),
                    (
                        "counts".to_string(),
                        Value::Arr(h.counts.iter().map(|&c| Value::Int(c)).collect()),
                    ),
                    ("sum".to_string(), Value::Num(h.sum)),
                    ("sum_bits".to_string(), Value::Int(h.sum.to_bits())),
                    ("count".to_string(), Value::Int(h.count)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("schema".to_string(), Value::Str(METRICS_SCHEMA.to_string())),
            ("counters".to_string(), Value::Arr(counters)),
            ("gauges".to_string(), Value::Arr(gauges)),
            ("histograms".to_string(), Value::Arr(hists)),
        ])
    }

    /// Pretty `snbc-metrics/1` text (the `--metrics-json` artifact).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// Convenience lookup of a counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

}
