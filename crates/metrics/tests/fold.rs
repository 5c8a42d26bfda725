//! The registry as a fold of the progress stream: a hand-written event
//! sequence (live race events, a cache hit with its replayed race, an
//! interval-oracle fallback with a reseed) must fold to one exact snapshot;
//! non-finite floats must fold as the stream carries them; bucket
//! boundaries must be inclusive.

use snbc_metrics::progress::parse_stream;
use snbc_metrics::{buckets, EventSink, Metrics, ProgressEvent, Scope};

/// Job 0 races live. Candidate 0 fails round 1 on `flow`: gradient ascent
/// finds nothing, the interval oracle runs two queries and the plateau
/// reseeds the learner; it certifies in round 2. Candidate 1 fails round 1
/// with a non-finite `init` margin (`null` on the wire) and gets 3 points.
const JOB_0: &str = r#"
{"ev":"job-start","job":0,"name":"a"}
{"ev":"learn-epoch","job":0,"cand":0,"round":1,"loss":0.5}
{"ev":"verify-rung","job":0,"cand":0,"round":1,"rung":"init","feasible":true,"margin":0.25}
{"ev":"verify-rung","job":0,"cand":0,"round":1,"rung":"unsafe","feasible":true,"margin":0.5}
{"ev":"verify-rung","job":0,"cand":0,"round":1,"rung":"flow","feasible":false,"margin":-0.125}
{"ev":"cex","job":0,"cand":0,"round":1,"points":0,"interval_fallback":true,"boxes":[300,20],"reseed":true}
{"ev":"round","job":0,"cand":0,"round":1,"status":"in-progress"}
{"ev":"learn-epoch","job":0,"cand":1,"round":1,"loss":0.25}
{"ev":"verify-rung","job":0,"cand":1,"round":1,"rung":"init","feasible":false,"margin":null}
{"ev":"verify-rung","job":0,"cand":1,"round":1,"rung":"unsafe","feasible":true,"margin":0.5}
{"ev":"verify-rung","job":0,"cand":1,"round":1,"rung":"flow","feasible":false,"margin":-0.5}
{"ev":"cex","job":0,"cand":1,"round":1,"points":3,"interval_fallback":false}
{"ev":"wave","job":0,"wave":2,"live":2,"certified":0}
{"ev":"learn-epoch","job":0,"cand":0,"round":2,"loss":0.125}
{"ev":"verify-rung","job":0,"cand":0,"round":2,"rung":"init","feasible":true,"margin":0.25}
{"ev":"verify-rung","job":0,"cand":0,"round":2,"rung":"unsafe","feasible":true,"margin":0.25}
{"ev":"verify-rung","job":0,"cand":0,"round":2,"rung":"flow","feasible":true,"margin":0.0625}
{"ev":"job-done","job":0,"name":"a","certified":true,"candidates":2,"waves":3,"winner_index":0,"iterations":2}
"#;

/// Job 1's race as its cache entry stores it, replayed on a hit.
const JOB_1_REPLAY: &str = r#"
{"ev":"learn-epoch","job":1,"cand":0,"round":1,"loss":2.0}
{"ev":"verify-rung","job":1,"cand":0,"round":1,"rung":"init","feasible":true,"margin":0.5}
{"ev":"verify-rung","job":1,"cand":0,"round":1,"rung":"unsafe","feasible":true,"margin":0.5}
{"ev":"verify-rung","job":1,"cand":0,"round":1,"rung":"flow","feasible":true,"margin":0.5}
"#;

fn feed(m: &Metrics, lines: &str, replayed: bool) {
    for (scope, ev) in parse_stream(lines).expect("fixture lines parse") {
        m.event(scope, &ev, replayed);
    }
}

#[test]
fn event_sequence_folds_to_an_exact_snapshot() {
    let m = Metrics::recording();
    feed(&m, JOB_0, false);
    // Job 1 is a cache hit: the environmental marker, the stored race
    // replayed, then the live `job-done`.
    feed(&m, r#"{"ev":"cache-hit","job":1}"#, false);
    feed(&m, JOB_1_REPLAY, true);
    feed(
        &m,
        r#"{"ev":"job-done","job":1,"name":"b","certified":true,"candidates":1,"waves":2,"winner_index":0,"iterations":1}"#,
        false,
    );

    // One line per metric; `{:?}` prints floats in shortest round-trip
    // form, so equal text means equal bits.
    let full = m.snapshot(false);
    let mut lines: Vec<String> = full
        .counters
        .iter()
        .map(|c| format!("{} {} env={}", c.name, c.value, c.env))
        .collect();
    lines.extend(
        full.gauges
            .iter()
            .map(|g| format!("{} {:?}", g.name, g.value)),
    );
    lines.extend(
        full.hists
            .iter()
            .map(|h| format!("{} {:?} sum={:?} n={}", h.name, h.counts, h.sum, h.count)),
    );
    // `best_margin` is the last failed round's running best: candidate 1's
    // −0.5, its NaN rung dropping out of the round minimum. `learn_loss`
    // is the last loss folded: job 1's replayed 2.0.
    assert_eq!(
        lines,
        [
            "boxes 320 env=false",
            "cache_hit 1 env=true",
            "cache_miss 1 env=true",
            "candidates 3 env=false",
            "cex_points 3 env=false",
            "interval_fallbacks 1 env=false",
            "jobs 2 env=false",
            "jobs_certified 2 env=false",
            "reseeds 1 env=false",
            "rounds 4 env=false",
            "verify_rung_feasible 9 env=false",
            "verify_rung_infeasible 3 env=false",
            "waves 5 env=false",
            "best_margin -0.5",
            "learn_loss 2.0",
            "boxes_per_query [1, 1, 0, 0, 0, 0] sum=320.0 n=2",
            "cex_points_per_round [1, 0, 0, 1, 0, 0, 0, 0, 0] sum=3.0 n=2",
            "learn_loss_per_round [0, 0, 0, 0, 3, 1, 0] sum=2.875 n=4",
            "waves_per_race [0, 1, 1, 0, 0, 0, 0] sum=5.0 n=2",
        ]
    );

    // The canonical snapshot is the full one minus the environmental
    // counters, and only those.
    let mut expected = full.clone();
    expected.counters.retain(|c| !c.env);
    assert_eq!(expected.counters.len(), full.counters.len() - 2);
    assert_eq!(m.snapshot(true), expected);

    // An off handle folds nothing.
    let off = Metrics::off();
    feed(&off, JOB_0, false);
    assert_eq!(off.snapshot(false), Default::default());
}

#[test]
fn non_finite_floats_fold_as_the_stream_carries_them() {
    let events = [
        ProgressEvent::LearnEpoch {
            round: 1,
            loss: f64::INFINITY,
        },
        ProgressEvent::VerifyRung {
            round: 1,
            rung: "init".to_string(),
            feasible: false,
            margin: f64::NEG_INFINITY,
        },
        ProgressEvent::Cex {
            round: 1,
            points: 1,
            fallback: None,
        },
    ];
    let live = Metrics::recording();
    let cap = snbc_metrics::Progress::capture();
    for ev in &events {
        live.event(Scope::default(), ev, false);
        cap.emit(ev.clone());
    }
    let replayed = Metrics::recording();
    feed(&replayed, &cap.captured(), true);
    assert_eq!(
        live.snapshot(true).to_json_string(),
        replayed.snapshot(true).to_json_string()
    );
}

#[test]
fn histogram_bucket_boundaries_are_inclusive() {
    let m = Metrics::recording();
    // LOSS grid: [1e-4, 1e-3, 1e-2, 1e-1, 1, 10] → 7 slots (6 bounds + overflow).
    for loss in [
        -3.0,   // below every bound → bucket 0
        1e-4,   // == bounds[0] → bucket 0 (boundary-inclusive)
        1.5e-4, // just above → bucket 1
        1e-3,   // == bounds[1] → bucket 1
        10.0,   // == last bound → bucket 5
        11.0,   // above last bound → overflow slot
    ] {
        m.event(
            Scope::default(),
            &ProgressEvent::LearnEpoch { round: 1, loss },
            false,
        );
    }
    let snap = m.snapshot(true);
    let h = &snap.hists[0];
    assert_eq!(h.name, "learn_loss_per_round");
    assert_eq!(h.bounds, buckets::LOSS.to_vec());
    assert_eq!(h.counts.len(), buckets::LOSS.len() + 1);
    assert_eq!(h.counts, vec![2, 2, 0, 0, 0, 1, 1]);
    assert_eq!(h.count, 6);
}
