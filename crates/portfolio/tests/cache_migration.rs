//! Cache entries in the earlier layout — `progress.ndjson` lines without
//! the `cex` oracle payload, plus a per-job `metrics.json` snapshot — must
//! never be served with metrics that differ from a cold run's:
//!
//! * an entry whose stored lines are still valid (no interval-oracle
//!   fallback, so no payload was ever due) **hits**, and its replay folds
//!   to a canonical stream and snapshot byte-identical to the cold run's —
//!   the stale `metrics.json` is not read;
//! * an entry holding a fallback `cex` line without its payload **misses**
//!   and re-races, and the rewritten entry has no `metrics.json`.

use std::path::Path;

use snbc::SnbcConfig;
use snbc_dynamics::benchmarks::Benchmark;
use snbc_metrics::{Metrics, MetricsSnapshot, Progress};
use snbc_nn::Mlp;
use snbc_portfolio::{run_batch, BatchOptions, BatchSpec};
use snbc_telemetry::Telemetry;

const JOBS: &str = r#"{
    "schema": "snbc-batch-jobs/1",
    "jobs": [
        {"name": "c3-race", "benchmark": 3, "grid": {"seeds": [1, 2]},
         "max_iterations": 12, "controller_epochs": 300}
    ]
}"#;

struct Leg {
    stream: String,
    canonical: String,
    full: MetricsSnapshot,
}

fn run_leg(spec: &BatchSpec, cache_dir: &Path) -> Leg {
    let resolve = |path: &str| -> Result<(Benchmark, Mlp), String> {
        Err(format!("benchmark jobs only, got `{path}`"))
    };
    let opts = BatchOptions {
        base: SnbcConfig::default(),
        cache_dir: Some(cache_dir.to_path_buf()),
    };
    // A capture sink records the canonical lines (no `seq`, no `job`)
    // of every non-environmental event: the canonical stream's content.
    let progress = Progress::capture();
    let metrics = Metrics::recording();
    run_batch(
        spec,
        &opts,
        &resolve,
        &Telemetry::off(),
        &progress,
        &metrics,
    )
    .expect("batch runs");
    Leg {
        stream: progress.captured(),
        canonical: metrics.snapshot(true).to_json_string(),
        full: metrics.snapshot(false),
    }
}

/// The single entry directory of a one-job cache.
fn entry_dir(cache_dir: &Path) -> std::path::PathBuf {
    let mut entries: Vec<_> = std::fs::read_dir(cache_dir)
        .expect("cache dir exists")
        .map(|e| e.expect("readable entry").path())
        .collect();
    assert_eq!(entries.len(), 1, "one job, one entry: {entries:?}");
    entries.pop().expect("one entry")
}

#[test]
fn earlier_layout_entries_hit_identically_or_re_race() {
    let spec = BatchSpec::parse(JOBS).expect("fixed jobs document parses");
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cache-migration");
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("wipe scratch cache");
    }

    let cold = run_leg(&spec, &dir);
    assert_eq!(cold.full.counter("cache_miss"), 1);
    let entry = entry_dir(&dir);
    assert!(
        !entry.join("metrics.json").exists(),
        "entries hold no metrics.json"
    );
    let events = std::fs::read_to_string(entry.join("progress.ndjson")).expect("stored events");
    assert!(
        events.contains("\"ev\":\"cex\"") && !events.contains("\"interval_fallback\":true"),
        "the fixture job needs a cex round without an oracle fallback:\n{events}"
    );

    // Earlier layout, valid lines: the entry also carries the per-job
    // snapshot the earlier layout stored. Folding it on top of the replay
    // would double every counter; it must not be read.
    std::fs::write(entry.join("metrics.json"), &cold.canonical).expect("write metrics.json");
    let warm = run_leg(&spec, &dir);
    assert_eq!(
        warm.full.counter("cache_hit"),
        1,
        "a valid earlier-layout entry hits"
    );
    assert_eq!(warm.full.counter("cache_miss"), 0);
    assert_eq!(
        warm.stream, cold.stream,
        "replayed stream matches the cold run"
    );
    assert_eq!(
        warm.canonical, cold.canonical,
        "replayed snapshot matches the cold run"
    );

    // Earlier layout, fallback line: a `cex` line that reports an oracle
    // fallback without its box counts cannot fold to the cold run's
    // snapshot, so the entry must read as a miss and the job re-race.
    let stale = events.replacen(
        "\"interval_fallback\":false",
        "\"interval_fallback\":true",
        1,
    );
    std::fs::write(entry.join("progress.ndjson"), stale).expect("rewrite events");
    let re_raced = run_leg(&spec, &dir);
    assert_eq!(
        re_raced.full.counter("cache_hit"),
        0,
        "a pre-payload fallback line misses"
    );
    assert_eq!(re_raced.full.counter("cache_miss"), 1);
    assert_eq!(re_raced.stream, cold.stream);
    assert_eq!(re_raced.canonical, cold.canonical);
    let entry = entry_dir(&dir);
    assert!(
        !entry.join("metrics.json").exists(),
        "the re-raced entry is rewritten"
    );
    assert_eq!(
        std::fs::read_to_string(entry.join("progress.ndjson")).expect("stored events"),
        events
    );
    std::fs::remove_dir_all(&dir).expect("clean up scratch cache");
}
