//! Prometheus text-exposition writer (textfile-collector style).
//!
//! The container has no network, so there is no scrape endpoint: `snbc
//! batch --metrics-out <path>` writes the exposition to a file that a
//! `node_exporter` textfile collector (or a human) can pick up. The writer
//! renders a **full** [`MetricsSnapshot`] — environmental entries included,
//! since operational dashboards are exactly where cache hit rates belong.
//!
//! Output is deterministic: metrics arrive name-sorted from the snapshot,
//! each rendered as `# HELP` / `# TYPE` / samples. Histograms follow the
//! Prometheus convention of **cumulative** `_bucket{le="..."}` series
//! ending in `le="+Inf"`, plus `_sum` and `_count`.

use crate::registry::MetricsSnapshot;

/// Renders the snapshot as Prometheus text exposition (format version
/// 0.0.4). All metric names are prefixed `snbc_` and sanitized to the
/// Prometheus name alphabet.
pub fn to_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for c in &snap.counters {
        let name = metric_name(&c.name);
        header(&mut out, &name, "counter", &c.name);
        out.push_str(&format!("{name} {}\n", c.value));
    }
    for g in &snap.gauges {
        let name = metric_name(&g.name);
        header(&mut out, &name, "gauge", &g.name);
        out.push_str(&format!("{name} {}\n", number(g.value)));
    }
    for h in &snap.hists {
        let name = metric_name(&h.name);
        header(&mut out, &name, "histogram", &h.name);
        let mut cumulative = 0u64;
        for (bound, count) in h.bounds.iter().zip(&h.counts) {
            cumulative += count;
            out.push_str(&format!(
                "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                number(*bound)
            ));
        }
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
        out.push_str(&format!("{name}_sum {}\n", number(h.sum)));
        out.push_str(&format!("{name}_count {}\n", h.count));
    }
    out
}

fn header(out: &mut String, name: &str, kind: &str, raw: &str) {
    out.push_str(&format!("# HELP {name} snbc-metrics/1 {kind} {raw}\n"));
    out.push_str(&format!("# TYPE {name} {kind}\n"));
}

/// `snbc_` prefix plus the name mapped onto `[a-zA-Z0-9_]`.
fn metric_name(raw: &str) -> String {
    let mut name = String::with_capacity(raw.len() + 5);
    name.push_str("snbc_");
    for c in raw.chars() {
        name.push(if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' });
    }
    name
}

/// Prometheus float formatting: Rust's shortest-round-trip `Display` for
/// finite values, the spec's spellings for the rest.
fn number(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{buckets, CounterSnapshot, GaugeSnapshot, HistogramSnapshot};

    /// Golden exposition: one counter, one gauge, one histogram.
    #[test]
    fn exposition_matches_golden_output() {
        let snap = MetricsSnapshot {
            counters: vec![CounterSnapshot {
                name: "cache_hit".to_string(),
                value: 2,
                env: true,
            }],
            gauges: vec![GaugeSnapshot {
                name: "best_margin".to_string(),
                value: -0.25,
            }],
            // Observations 0.5, 3.0 and 200.0 on the WAVES grid.
            hists: vec![HistogramSnapshot {
                name: "waves_per_job".to_string(),
                bounds: buckets::WAVES.to_vec(),
                counts: vec![1, 0, 1, 0, 0, 0, 1],
                sum: 203.5,
                count: 3,
            }],
        };
        let text = to_prometheus(&snap);
        let expected = "\
# HELP snbc_cache_hit snbc-metrics/1 counter cache_hit
# TYPE snbc_cache_hit counter
snbc_cache_hit 2
# HELP snbc_best_margin snbc-metrics/1 gauge best_margin
# TYPE snbc_best_margin gauge
snbc_best_margin -0.25
# HELP snbc_waves_per_job snbc-metrics/1 histogram waves_per_job
# TYPE snbc_waves_per_job histogram
snbc_waves_per_job_bucket{le=\"1\"} 1
snbc_waves_per_job_bucket{le=\"2\"} 1
snbc_waves_per_job_bucket{le=\"4\"} 2
snbc_waves_per_job_bucket{le=\"8\"} 2
snbc_waves_per_job_bucket{le=\"16\"} 2
snbc_waves_per_job_bucket{le=\"32\"} 2
snbc_waves_per_job_bucket{le=\"+Inf\"} 3
snbc_waves_per_job_sum 203.5
snbc_waves_per_job_count 3
";
        assert_eq!(text, expected);
    }

    #[test]
    fn names_are_sanitized_and_specials_spelled() {
        assert_eq!(metric_name("verify-rung.feasible"), "snbc_verify_rung_feasible");
        assert_eq!(number(f64::NAN), "NaN");
        assert_eq!(number(f64::INFINITY), "+Inf");
        assert_eq!(number(f64::NEG_INFINITY), "-Inf");
    }
}
