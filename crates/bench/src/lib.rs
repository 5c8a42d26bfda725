//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Binaries:
//!
//! * `table1` — runs {SNBC, FOSSIL, NNCChecker, SOSTOOLS} over C1–C14 and
//!   prints Table 1 (columns `d_B, I, T_l, T_c, T_v, T_e` per tool) plus the
//!   paper's summary statistics (success counts, average speed-ups, the
//!   `n_x ≤ 3` vs `n_x ≥ 4` crossover against SOSTOOLS);
//! * `fig3` — reproduces Fig. 3 on the Academic 3D example: trajectories,
//!   counterexamples of a failing intermediate candidate, and the zero level
//!   set of the final certificate, written as CSV plus an ASCII rendering;
//! * `theorem2_gap` — the Remark 1 convergence study `σ̃ → σ` as the mesh
//!   spacing shrinks;
//! * `snbc-bench` — the CI regression gate: `snbc-bench check` re-runs the
//!   quickstart synthesis in-process and compares its run report against the
//!   committed `bench-out/BENCH_quickstart*.json` baseline (see [`check`]).
//!
//! The [`run_tool`] / [`Tool`] API is also used by the criterion benches.

pub mod check;

use std::time::Duration;

use snbc::{Snbc, SnbcConfig, SnbcError};
use snbc_baselines::{
    Fossil, FossilConfig, NncChecker, NncCheckerConfig, SosTools, SosToolsConfig, SynthesisReport,
};
use snbc_dynamics::benchmarks::Benchmark;
use snbc_nn::{train_controller, ControllerTraining, Mlp};

/// The four synthesizers of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tool {
    /// The paper's contribution.
    Snbc,
    /// FOSSIL-style neural learner + SMT-style verifier.
    Fossil,
    /// NNCChecker-style polynomial fit + SMT-style verifier.
    NncChecker,
    /// SOSTOOLS-style direct SOS synthesis.
    SosTools,
}

impl Tool {
    /// All tools in Table 1 column order.
    pub fn all() -> [Tool; 4] {
        [Tool::Snbc, Tool::Fossil, Tool::NncChecker, Tool::SosTools]
    }

    /// Parses a tool name (`snbc|fossil|nnc|sostools`).
    pub fn parse(s: &str) -> Option<Tool> {
        match s.to_ascii_lowercase().as_str() {
            "snbc" => Some(Tool::Snbc),
            "fossil" => Some(Tool::Fossil),
            "nnc" | "nncchecker" => Some(Tool::NncChecker),
            "sostools" | "sos" => Some(Tool::SosTools),
            _ => None,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Tool::Snbc => "SNBC",
            Tool::Fossil => "FOSSIL",
            Tool::NncChecker => "NNCChecker",
            Tool::SosTools => "SOSTOOLS",
        }
    }
}

/// Pre-trains the benchmark's NN controller (the DDPG substitute; see
/// DESIGN.md).
pub fn pretrain_controller(bench: &Benchmark) -> Mlp {
    train_controller(
        bench.system.domain().bounding_box(),
        bench.target_law,
        &ControllerTraining::default(),
    )
}

/// The SNBC configuration used for a benchmark in the Table 1 runs.
pub fn snbc_config_for(bench: &Benchmark, time_limit: Duration) -> SnbcConfig {
    let n = bench.system.nvars();
    let mut cfg = SnbcConfig {
        max_iterations: 25,
        time_limit,
        ..Default::default()
    };
    if n >= 5 {
        // Full rectangular meshes are exponential in n; the capped Halton set
        // plus interval-certified error bound keeps σ* tight (see
        // snbc::approximate_mlp). A degree-1 abstraction h keeps the closed
        // loop at the field degree — a quadratic h would push the flow
        // certificate one degree class up (105 → 2380 constraint rows at
        // n = 12).
        cfg.approx.max_mesh_points = 3000;
        cfg.approx.degree = 1;
    }
    cfg
}

/// Runs one tool on one benchmark with a shared wall-clock budget, returning
/// the uniform report.
pub fn run_tool(tool: Tool, bench: &Benchmark, controller: &Mlp, time_limit: Duration) -> SynthesisReport {
    run_tool_recorded(tool, bench, controller, time_limit, snbc_telemetry::Telemetry::off())
}

/// Same as [`run_tool`], but attaches a telemetry sink to the SNBC run so the
/// caller can extract the `snbc-run-report` span tree afterwards (used by the
/// `table1` binary's `--report` option). The baseline tools are not
/// instrumented; the sink is ignored for them.
pub fn run_tool_recorded(
    tool: Tool,
    bench: &Benchmark,
    controller: &Mlp,
    time_limit: Duration,
    telemetry: snbc_telemetry::Telemetry,
) -> SynthesisReport {
    match tool {
        Tool::Snbc => {
            let cfg = snbc_config_for(bench, time_limit);
            let start = snbc_trace::Stopwatch::start();
            let outcome = Snbc::new(cfg).with_telemetry(telemetry).synthesize(bench, controller);
            snbc_report(bench.name, outcome, start.elapsed())
        }
        Tool::Fossil => {
            let inclusion = shared_inclusion(bench, controller);
            let cfg = FossilConfig {
                time_limit,
                ..Default::default()
            };
            Fossil::new(cfg).synthesize(bench, &inclusion)
        }
        Tool::NncChecker => {
            let inclusion = shared_inclusion(bench, controller);
            let cfg = NncCheckerConfig {
                time_limit,
                ..Default::default()
            };
            NncChecker::new(cfg).synthesize(bench, &inclusion)
        }
        Tool::SosTools => {
            let inclusion = shared_inclusion(bench, controller);
            let cfg = SosToolsConfig {
                time_limit,
                ..Default::default()
            };
            SosTools::new(cfg).synthesize(bench, &inclusion)
        }
    }
}

/// Maps an SNBC synthesis outcome to the uniform report. A failed run
/// reports the wall time it took (`elapsed`, or the budget-trip time a
/// timeout carries) rather than the budget, and an exhausted CEGIS loop
/// reports the rounds it ran.
pub fn snbc_report(
    benchmark: &str,
    outcome: Result<snbc::SnbcResult, SnbcError>,
    elapsed: Duration,
) -> SynthesisReport {
    match outcome {
        Ok(r) => SynthesisReport {
            tool: "SNBC",
            benchmark: benchmark.to_string(),
            success: true,
            barrier_degree: Some(r.barrier.degree()),
            iterations: r.iterations,
            t_learn: r.t_learn,
            t_cex: r.t_cex,
            t_verify: r.t_verify,
            t_total: r.t_total,
            barrier: Some(r.barrier),
            failure: None,
        },
        Err(SnbcError::Timeout { elapsed }) => {
            SynthesisReport::failed("SNBC", benchmark, 0, Duration::from_secs_f64(elapsed), "OT")
        }
        Err(e) => {
            let rounds = match e {
                SnbcError::IterationsExhausted { iterations, .. } => iterations,
                _ => 0,
            };
            SynthesisReport::failed("SNBC", benchmark, rounds, elapsed, e.to_string())
        }
    }
}

/// The controller abstraction shared by the baselines (SNBC recomputes its
/// own inside `synthesize`, timing it as part of `T_e` exactly like the
/// paper's end-to-end figures).
pub fn shared_inclusion(bench: &Benchmark, controller: &Mlp) -> snbc::PolynomialInclusion {
    let n = bench.system.nvars();
    let mut approx = snbc::ApproxOptions::default();
    if n >= 5 {
        approx.max_mesh_points = 3000;
        approx.degree = 1;
    }
    snbc::approximate_mlp(controller, bench.system.domain().bounding_box(), &approx)
        .expect("controller abstraction")
}

/// One line of per-phase wall-clock totals for a recorded SNBC run, plus the
/// worker-thread count the run recorded (the `threads` gauge on the `cegis`
/// span; see docs/PARALLELISM.md). Used by the `table1` binary's `--report`
/// output so committed run reports state the parallelism they ran with.
pub fn phase_wall_summary(report: &snbc_telemetry::Report) -> String {
    use snbc_telemetry::SpanNode;
    fn walk(n: &SpanNode, learn: &mut f64, verify: &mut f64, cex: &mut f64, threads: &mut Option<f64>) {
        match n.name.as_str() {
            "learn" => *learn += n.elapsed_s,
            "verify" => *verify += n.elapsed_s,
            s if s.starts_with("search-") => *cex += n.elapsed_s,
            "cegis" => {
                if let Some((_, t)) = n.gauges.iter().find(|(g, _)| g == "threads") {
                    *threads = Some(*t);
                }
            }
            _ => {}
        }
        // `verify` children (`init`/`unsafe`/`flow` → `sdp`) nest inside the
        // per-phase totals already counted above, so recurse unconditionally
        // but only match the phase span names.
        for c in &n.children {
            walk(c, learn, verify, cex, threads);
        }
    }
    let (mut learn, mut verify, mut cex, mut threads) = (0.0, 0.0, 0.0, None);
    walk(&report.root, &mut learn, &mut verify, &mut cex, &mut threads);
    format!(
        "threads={} wall: learn {:.3}s, verify {:.3}s, cex {:.3}s",
        threads.map_or("?".to_string(), |t| format!("{}", t as u64)),
        learn,
        verify,
        cex
    )
}

/// Formats a duration like the paper's seconds columns.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Formats one Table 1 cell group for a report.
pub fn row_cells(r: &SynthesisReport) -> String {
    if r.success {
        format!(
            "{} {} {} {} {} {}",
            r.barrier_degree.map_or("-".into(), |d| d.to_string()),
            r.iterations,
            secs(r.t_learn),
            secs(r.t_cex),
            secs(r.t_verify),
            secs(r.t_total),
        )
    } else {
        let mark = r.failure.as_deref().unwrap_or("×");
        let mark = if mark == "OT" { "OT" } else { "×" };
        format!("{mark} - - - - {}", secs(r.t_total))
    }
}

/// Summary statistics mirroring §5's prose claims.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Successes per tool.
    pub successes: Vec<(String, usize)>,
    /// Average total seconds per tool over the *common* solved subset.
    pub avg_common: Vec<(String, f64)>,
    /// Speed-up of the first tool (SNBC) over each other tool on the common
    /// subset.
    pub speedups: Vec<(String, f64)>,
}

/// Computes the summary over a full result grid `results[bench][tool]`.
pub fn summarize(results: &[Vec<SynthesisReport>]) -> Summary {
    if results.is_empty() {
        return Summary::default();
    }
    let ntools = results[0].len();
    let mut successes = vec![0usize; ntools];
    for row in results {
        for (t, r) in row.iter().enumerate() {
            if r.success {
                successes[t] += 1;
            }
        }
    }
    // Common subset: benchmarks solved by every tool.
    let common: Vec<&Vec<SynthesisReport>> = results
        .iter()
        .filter(|row| row.iter().all(|r| r.success))
        .collect();
    let mut avg = vec![0.0; ntools];
    for row in &common {
        for (t, r) in row.iter().enumerate() {
            avg[t] += r.t_total.as_secs_f64();
        }
    }
    let denom = common.len().max(1) as f64;
    for a in &mut avg {
        *a /= denom;
    }
    let names: Vec<String> = results[0].iter().map(|r| r.tool.to_string()).collect();
    Summary {
        successes: names.iter().cloned().zip(successes).collect(),
        avg_common: names.iter().cloned().zip(avg.iter().copied()).collect(),
        speedups: names
            .iter()
            .cloned()
            .zip(avg.iter().map(|&a| if avg[0] > 0.0 { a / avg[0] } else { f64::NAN }))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tool_parsing() {
        assert_eq!(Tool::parse("snbc"), Some(Tool::Snbc));
        assert_eq!(Tool::parse("FOSSIL"), Some(Tool::Fossil));
        assert_eq!(Tool::parse("nnc"), Some(Tool::NncChecker));
        assert_eq!(Tool::parse("sostools"), Some(Tool::SosTools));
        assert_eq!(Tool::parse("z3"), None);
    }

    #[test]
    fn exhausted_snbc_run_reports_elapsed_time_and_rounds() {
        let outcome = Err(SnbcError::IterationsExhausted {
            iterations: 25,
            best_margin: -0.1,
        });
        let r = snbc_report("C4", outcome, Duration::from_secs(40));
        assert!(!r.success);
        assert_eq!(r.iterations, 25);
        assert_eq!(r.t_total, Duration::from_secs(40));
        assert!(r.failure.expect("failure text").contains("25 CEGIS iterations"));
        let config =
            snbc_report("C4", Err(SnbcError::Config("bad".into())), Duration::from_secs(2));
        assert_eq!((config.iterations, config.t_total), (0, Duration::from_secs(2)));
    }

    #[test]
    fn summary_common_subset() {
        use std::time::Duration;
        let ok = |tool: &'static str, secs: f64| SynthesisReport {
            tool,
            benchmark: "B".into(),
            success: true,
            barrier_degree: Some(2),
            iterations: 1,
            t_learn: Duration::ZERO,
            t_cex: Duration::ZERO,
            t_verify: Duration::ZERO,
            t_total: Duration::from_secs_f64(secs),
            barrier: None,
            failure: None,
        };
        let fail = |tool: &'static str| SynthesisReport::failed(tool, "B", 0, Duration::ZERO, "OT");
        let grid = vec![
            vec![ok("SNBC", 1.0), ok("FOSSIL", 10.0)],
            vec![ok("SNBC", 2.0), fail("FOSSIL")],
        ];
        let s = summarize(&grid);
        assert_eq!(s.successes, vec![("SNBC".into(), 2), ("FOSSIL".into(), 1)]);
        // Common subset = first row only.
        assert_eq!(s.avg_common[0].1, 1.0);
        assert_eq!(s.avg_common[1].1, 10.0);
        assert!((s.speedups[1].1 - 10.0).abs() < 1e-12);
    }
}
