//! The batch certificate service: run a parsed [`BatchSpec`] job-by-job,
//! racing each job's grid unless its certificate is already in the
//! content-addressed cache.
//!
//! # The `snbc-batch-report/1` schema
//!
//! [`BatchOutcome::report_json`] serializes one object per job — its name,
//! its cache key hash, and its [`JobResult`] — plus a totals summary. The
//! report deliberately contains **no** cache hit/miss flags, **no** wall
//! times, and **no** filesystem paths: it must be byte-identical across
//! `SNBC_THREADS` settings *and* across cold/warm cache runs of the same
//! job set (`tests/portfolio_determinism.rs` holds this line). Hit/miss
//! accounting lives in the telemetry counters (`cache_hit`, `cache_miss`)
//! instead, where run reports — which do carry timings — already live.
//!
//! # Observability
//!
//! The batch driver is the pipeline's progress aggregation point: each job
//! gets a job-scoped [`Progress`] handle (`job-start`, the race's per-round
//! events, `job-done`). The caller's [`Metrics`] registry joins that
//! handle's fanout, so the run-level snapshot is a fold of the same event
//! sequence a canonical writer sees. On a cache miss the job's canonical
//! event lines are stored next to the certificate; on a hit they are
//! replayed (after an environmental `cache-hit` event), which keeps the
//! canonical stream, and with it the canonical snapshot, byte-identical
//! between cold and warm runs — see `docs/OBSERVABILITY.md`.

use std::path::PathBuf;

use snbc::{SafetyCertificate, SnbcConfig};
use snbc_dynamics::benchmarks::{self, Benchmark};
use snbc_metrics::progress::parse_stream;
use snbc_metrics::{Metrics, Progress, ProgressEvent};
use snbc_nn::{train_controller, ControllerTraining, Mlp};
use snbc_telemetry::json::{self, Value};
use snbc_telemetry::Telemetry;

use crate::cache::{CacheKey, CertificateCache};
use crate::grid::CandidateConfig;
use crate::jobs::{BatchError, BatchSpec, JobSource, JobSpec};
use crate::race::race;

/// Schema tag of the batch report document.
pub const REPORT_SCHEMA: &str = "snbc-batch-report/1";

/// Resolves a job's `"system": "<name>"` source into a benchmark and its
/// trained controller. The CLI wires its system-file loader in here; the
/// indirection keeps `snbc-portfolio` independent of the CLI crate.
pub type SystemResolver<'a> = &'a dyn Fn(&str) -> Result<(Benchmark, Mlp), String>;

/// Batch-wide options.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Base configuration every job starts from (job fields override it).
    pub base: SnbcConfig,
    /// Certificate-cache root; `None` disables caching (every job races).
    pub cache_dir: Option<PathBuf>,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            base: SnbcConfig::default(),
            cache_dir: None,
        }
    }
}

/// The deterministic per-job result — exactly what is cached and reported.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Whether any candidate certified.
    pub certified: bool,
    /// Candidates the grid expanded to.
    pub candidates: usize,
    /// Waves the race ran.
    pub waves: usize,
    /// Grid index of the winner, when one exists.
    pub winner_index: Option<usize>,
    /// The winning grid point.
    pub winner: Option<CandidateConfig>,
    /// CEGIS iterations the winner used.
    pub iterations: Option<usize>,
    /// The winner's certificate in `snbc-certificate v1` text form.
    pub certificate: Option<String>,
}

impl JobResult {
    /// Canonical JSON (the `result.json` cache artifact and the per-job
    /// payload of the batch report).
    pub fn to_json(&self) -> Value {
        let opt_int = |v: Option<usize>| match v {
            Some(n) => Value::Int(n as u64),
            None => Value::Null,
        };
        Value::Obj(vec![
            ("certified".to_string(), Value::Bool(self.certified)),
            ("candidates".to_string(), Value::Int(self.candidates as u64)),
            ("waves".to_string(), Value::Int(self.waves as u64)),
            ("winner_index".to_string(), opt_int(self.winner_index)),
            (
                "winner".to_string(),
                match &self.winner {
                    Some(w) => w.to_json(),
                    None => Value::Null,
                },
            ),
            ("iterations".to_string(), opt_int(self.iterations)),
            (
                "certificate".to_string(),
                match &self.certificate {
                    Some(c) => Value::Str(c.clone()),
                    None => Value::Null,
                },
            ),
        ])
    }

    /// Parses a cached `result.json`.
    pub fn from_json(v: &Value) -> Result<JobResult, String> {
        let certified = match v.get("certified") {
            Some(Value::Bool(b)) => *b,
            _ => return Err("missing bool `certified`".to_string()),
        };
        let int_field = |name: &str| -> Result<usize, String> {
            v.get(name)
                .and_then(Value::as_u64)
                .map(|n| n as usize)
                .ok_or_else(|| format!("missing integer `{name}`"))
        };
        let opt_int = |name: &str| match v.get(name) {
            None | Some(Value::Null) => Ok(None),
            Some(x) => x
                .as_u64()
                .map(|n| Some(n as usize))
                .ok_or_else(|| format!("`{name}` must be an integer or null")),
        };
        let winner = match v.get("winner") {
            None | Some(Value::Null) => None,
            Some(w) => Some(CandidateConfig::from_json(w)?),
        };
        let certificate = match v.get("certificate") {
            None | Some(Value::Null) => None,
            Some(Value::Str(s)) => Some(s.clone()),
            Some(_) => return Err("`certificate` must be a string or null".to_string()),
        };
        Ok(JobResult {
            certified,
            candidates: int_field("candidates")?,
            waves: int_field("waves")?,
            winner_index: opt_int("winner_index")?,
            winner,
            iterations: opt_int("iterations")?,
            certificate,
        })
    }
}

/// One finished job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job's name from the spec.
    pub name: String,
    /// Its content-addressed cache key.
    pub key: CacheKey,
    /// Whether the result came from the cache (telemetry carries this too).
    pub cache_hit: bool,
    /// The deterministic result.
    pub result: JobResult,
}

/// All finished jobs, in spec order.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-job outcomes.
    pub jobs: Vec<JobOutcome>,
}

impl BatchOutcome {
    /// Number of jobs served from the cache.
    pub fn hits(&self) -> usize {
        self.jobs.iter().filter(|j| j.cache_hit).count()
    }

    /// Number of jobs that ran a live race.
    pub fn misses(&self) -> usize {
        self.jobs.len() - self.hits()
    }

    /// The `snbc-batch-report/1` document. Byte-identical for the same job
    /// set regardless of thread count or cache temperature — see the module
    /// docs for what is therefore excluded.
    pub fn report_json(&self) -> String {
        let jobs = self
            .jobs
            .iter()
            .map(|j| {
                Value::Obj(vec![
                    ("name".to_string(), Value::Str(j.name.clone())),
                    ("key".to_string(), Value::Str(j.key.hash().to_string())),
                    ("result".to_string(), j.result.to_json()),
                ])
            })
            .collect();
        let certified = self.jobs.iter().filter(|j| j.result.certified).count();
        Value::Obj(vec![
            ("schema".to_string(), Value::Str(REPORT_SCHEMA.to_string())),
            ("jobs".to_string(), Value::Arr(jobs)),
            (
                "summary".to_string(),
                Value::Obj(vec![
                    ("jobs".to_string(), Value::Int(self.jobs.len() as u64)),
                    ("certified".to_string(), Value::Int(certified as u64)),
                ]),
            ),
        ])
        .to_pretty_string()
    }
}

/// Runs every job in `spec`: resolve the system and controller, compute the
/// cache key, serve from the cache when the key is present (with the stored
/// certificate re-parsed as an integrity check — a corrupt entry degrades
/// to a live race, never to a bad answer), otherwise race the grid and
/// store the outcome when it certifies (failures are never cached, so a
/// rerun under a larger budget can still succeed).
///
/// Each job is bracketed by `job-start`/`job-done` events on a job-scoped
/// clone of `progress`, with the race's per-round events in between (live
/// on a miss, replayed from the cache entry on a hit). `metrics` folds
/// those events (see `snbc_metrics::registry`), including the
/// environmental `cache_hit`/`cache_miss` counters; telemetry gains a
/// `batch` span with one indexed `job` span per job carrying the same
/// hit/miss counters.
pub fn run_batch(
    spec: &BatchSpec,
    opts: &BatchOptions,
    resolve: SystemResolver<'_>,
    telemetry: &Telemetry,
    progress: &Progress,
    metrics: &Metrics,
) -> Result<BatchOutcome, BatchError> {
    let batch_span = telemetry.span("batch");
    let cache = opts.cache_dir.as_ref().map(CertificateCache::new);
    let ctx = JobCtx {
        opts,
        resolve,
        cache: cache.as_ref(),
        telemetry,
    };
    let progress = if metrics.is_recording() {
        Progress::fanout(vec![progress.clone(), Progress::custom(Box::new(metrics.clone()))])
    } else {
        progress.clone()
    };
    let mut jobs = Vec::with_capacity(spec.jobs.len());
    for (index, job) in spec.jobs.iter().enumerate() {
        let job_span = telemetry.span_indexed("job", index as u64);
        telemetry.label("name", &job.name);
        let jp = progress.with_job(index as u64);
        jp.emit(ProgressEvent::JobStart {
            name: job.name.clone(),
        });
        let outcome = run_job(index, job, &ctx, &jp)?;
        jp.emit(ProgressEvent::JobDone {
            name: outcome.name.clone(),
            certified: outcome.result.certified,
            candidates: outcome.result.candidates as u64,
            waves: outcome.result.waves as u64,
            winner_index: outcome.result.winner_index.map(|i| i as u64),
            iterations: outcome.result.iterations.map(|i| i as u64),
        });
        drop(job_span);
        jobs.push(outcome);
    }
    drop(batch_span);
    Ok(BatchOutcome { jobs })
}

/// Per-run context shared by every `run_job` call.
struct JobCtx<'a> {
    opts: &'a BatchOptions,
    resolve: SystemResolver<'a>,
    cache: Option<&'a CertificateCache>,
    telemetry: &'a Telemetry,
}

fn run_job(
    index: usize,
    job: &JobSpec,
    ctx: &JobCtx<'_>,
    progress: &Progress,
) -> Result<JobOutcome, BatchError> {
    let (bench, controller) = match &job.source {
        JobSource::Benchmark(k) => {
            let bench = benchmarks::benchmark(*k);
            let training = ControllerTraining {
                epochs: job
                    .controller_epochs
                    .unwrap_or(ControllerTraining::default().epochs),
                ..Default::default()
            };
            let controller = train_controller(
                bench.system.domain().bounding_box(),
                bench.target_law,
                &training,
            );
            (bench, controller)
        }
        JobSource::System(path) => (ctx.resolve)(path).map_err(|message| BatchError::Job {
            index,
            message: format!("system `{path}`: {message}"),
        })?,
    };
    let mut base = ctx.opts.base.clone();
    if let Some(iters) = job.max_iterations {
        base.max_iterations = iters;
    }
    let key = CacheKey::new(&bench.system, &controller, &base, &job.grid);

    if let Some(cache) = ctx.cache {
        if let Some((result, events)) = cached_result(cache, &key) {
            ctx.telemetry.add("cache_hit", 1);
            // The hit marker is environmental (live streams only); the
            // stored race events replay into canonical sinks so the
            // canonical stream is byte-identical to the cold run's.
            progress.emit(ProgressEvent::CacheHit);
            progress.replay(&events);
            return Ok(JobOutcome {
                name: job.name.clone(),
                key,
                cache_hit: true,
                result,
            });
        }
    }
    ctx.telemetry.add("cache_miss", 1);

    // The race records into a capture sink regardless of the caller's
    // sinks, so a stored entry always carries the complete canonical event
    // lines for warm-run replay.
    let capture = Progress::capture();
    let race_progress = Progress::fanout(vec![progress.clone(), capture.clone()]);
    let outcome = race(
        &bench,
        &controller,
        &base,
        &job.grid,
        ctx.telemetry,
        &race_progress,
    );
    let result = match outcome.winner {
        Some(winner) => JobResult {
            certified: true,
            candidates: outcome.candidates_launched,
            waves: outcome.waves,
            winner_index: Some(winner.config.index),
            iterations: Some(winner.result.iterations),
            certificate: Some(
                SafetyCertificate::from_result(bench.system.name(), &winner.result).to_string(),
            ),
            winner: Some(winner.config),
        },
        None => JobResult {
            certified: false,
            candidates: outcome.candidates_launched,
            waves: outcome.waves,
            winner_index: None,
            winner: None,
            iterations: None,
            certificate: None,
        },
    };
    // Only certified outcomes enter the cache: the key deliberately excludes
    // `time_limit`, so a failure (which may be budget-dependent) must never
    // be pinned — a later run under a larger budget gets to race again.
    // Only a certified result carries a certificate.
    if let (Some(cache), Some(certificate)) = (ctx.cache, result.certificate.as_deref()) {
        cache.store(
            &key,
            &result.to_json().to_pretty_string(),
            certificate,
            &capture.captured(),
        )?;
    }
    Ok(JobOutcome {
        name: job.name.clone(),
        key,
        cache_hit: false,
        result,
    })
}

/// Reads and validates a cached entry; any defect — unparseable JSON, a
/// non-certified result (only certified outcomes are ever stored), a
/// result/certificate mismatch, a certificate that fails to re-parse, or
/// corrupt event lines (a pre-payload `cex` fallback line included) — makes
/// this a miss, and the job re-races.
fn cached_result(
    cache: &CertificateCache,
    key: &CacheKey,
) -> Option<(JobResult, Vec<(snbc_metrics::Scope, ProgressEvent)>)> {
    let entry = cache.lookup(key)?;
    let value = json::parse(&entry.result_json).ok()?;
    let result = JobResult::from_json(&value).ok()?;
    if !result.certified {
        return None;
    }
    let cert_text = result.certificate.as_deref()?;
    let _reparsed: SafetyCertificate = cert_text.parse().ok()?;
    if entry.certificate != cert_text {
        return None;
    }
    let events = parse_stream(&entry.progress_ndjson).ok()?;
    Some((result, events))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_result_round_trips_through_json() {
        let result = JobResult {
            certified: true,
            candidates: 3,
            waves: 5,
            winner_index: Some(1),
            winner: Some(CandidateConfig {
                index: 1,
                seed: 2,
                lambda_degree: 1,
                multiplier_degree: 2,
                mesh_points: 20_000,
            }),
            iterations: Some(4),
            certificate: Some("snbc-certificate v1\n...".to_string()),
        };
        let back = JobResult::from_json(&result.to_json()).unwrap();
        assert_eq!(back, result);

        let failed = JobResult {
            certified: false,
            candidates: 2,
            waves: 14,
            winner_index: None,
            winner: None,
            iterations: None,
            certificate: None,
        };
        let back = JobResult::from_json(&failed.to_json()).unwrap();
        assert_eq!(back, failed);
    }

    /// A `certified: false` result in the cache (e.g. written by a pre-fix
    /// build, or forged) must read as a miss: the cache key excludes
    /// `time_limit`, so serving a stored failure would pin a potentially
    /// budget-dependent negative forever.
    #[test]
    fn cached_failures_are_never_served() {
        let bench = benchmarks::benchmark(1);
        let controller = train_controller(
            bench.system.domain().bounding_box(),
            bench.target_law,
            &ControllerTraining {
                epochs: 10,
                ..Default::default()
            },
        );
        let key = CacheKey::new(
            &bench.system,
            &controller,
            &SnbcConfig::default(),
            &crate::grid::ConfigGrid::default(),
        );
        let failed = JobResult {
            certified: false,
            candidates: 2,
            waves: 14,
            winner_index: None,
            winner: None,
            iterations: None,
            certificate: None,
        };
        let dir = std::env::temp_dir().join(format!("snbc-batch-test-{}", key.hash()));
        let cache = CertificateCache::new(&dir);
        cache
            .store(&key, &failed.to_json().to_pretty_string(), "", "")
            .unwrap();
        assert!(
            cached_result(&cache, &key).is_none(),
            "non-certified entries must degrade to a miss"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_schema_omits_cache_and_timing_fields() {
        let outcome = BatchOutcome {
            jobs: vec![JobOutcome {
                name: "a".to_string(),
                key: CacheKey::new(
                    &benchmarks::benchmark(1).system,
                    &train_controller(
                        benchmarks::benchmark(1).system.domain().bounding_box(),
                        benchmarks::benchmark(1).target_law,
                        &ControllerTraining {
                            epochs: 10,
                            ..Default::default()
                        },
                    ),
                    &SnbcConfig::default(),
                    &crate::grid::ConfigGrid::default(),
                ),
                cache_hit: true,
                result: JobResult {
                    certified: false,
                    candidates: 3,
                    waves: 14,
                    winner_index: None,
                    winner: None,
                    iterations: None,
                    certificate: None,
                },
            }],
        };
        let report = outcome.report_json();
        assert!(report.contains("\"schema\": \"snbc-batch-report/1\""));
        for leak in ["cache", "hit", "elapsed", "time", "path"] {
            assert!(!report.contains(leak), "report must not contain `{leak}`:\n{report}");
        }
        assert_eq!(outcome.hits(), 1);
        assert_eq!(outcome.misses(), 0);
    }
}
