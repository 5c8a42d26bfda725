//! `snbc-perfbench` — time-to-certificate benchmark of the SNBC pipeline.
//!
//! ```text
//! snbc-perfbench --workload lowdim|highdim|portfolio --seed N --seconds S --trace 0|1
//!                [--cegis-seed K]
//! ```
//!
//! One invocation runs one workload as a closed loop with one client: rows
//! (or batch jobs) run one after another in this process. A run is set-up,
//! the solve phase — repeated until the repetitions have taken `--seconds`
//! — and the deep check; solve times are medians over repetitions. The last
//! line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` holding the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics of the traced run
//! (`--trace 1`). See `perfbench/README.md`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use snbc::cex::find_counterexample;
use snbc::{
    CegisStatus, Learner, PolynomialInclusion, SafetyCertificate, Snbc, SnbcConfig, TrainingSets,
    VerificationOutcome, Verifier, VerifierConfig, ViolatedCondition,
};
use snbc_dynamics::benchmarks::{self, Benchmark, LambdaSpec};
use snbc_nn::{Mlp, MultiplierNet, QuadraticNet};
use snbc_perfbench::procfs;
use snbc_perfbench::spans::{self_times_ns, Recorder};
use snbc_perfbench::stats::{self, fail_frac};
use snbc_poly::Polynomial;
use snbc_portfolio::{run_batch, BatchError, BatchOptions, BatchOutcome, BatchSpec, JobSource};

/// The SNBC seed of the paper's Table 1 runs (`SnbcConfig::default().seed`).
const TABLE1_SEED: u64 = 1;
/// Wall-clock budget handed to every solo row: far above any row's cost, so
/// rows end by certifying or by exhausting their round budget.
const ROW_TIME_LIMIT: Duration = Duration::from_secs(600);
/// The solve phase repeats until its repetitions have taken `--seconds` in
/// all, at most this many times (once in the traced run), and reports the
/// median: the host's speed flips between states a few seconds apart, so a
/// single short solve is too noisy to time once.
const SOLVE_MAX_REPEATS: usize = 5;
/// Samples per set for the correctness check of a certificate.
const CHECK_SAMPLES: usize = 200;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("snbc-perfbench: {e}");
            eprintln!(
                "usage: snbc-perfbench --workload lowdim|highdim|portfolio --seed N \
                 --seconds S --trace 0|1 [--cegis-seed K]"
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from("perfbench").join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("snbc-perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    snbc_par::set_threads(Some(args.workload.threads()));
    let mut tr = Recorder::new(args.trace);
    let run = match args.workload {
        Workload::LowDim | Workload::HighDim => solo_run(&args, &mut tr),
        Workload::Portfolio => portfolio_run(&args, &mut tr, &out_dir),
    };
    let report = Report::new(&run);
    report.print_table(&args);
    let metrics = if args.trace {
        let layers = layer_metrics(&tr, &run);
        let path = out_dir.join(format!(
            "trace-{}-{}.ndjson",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = tr.write_ndjson(&path) {
            eprintln!("snbc-perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("spans: {} written to {}", tr.spans().len(), path.display());
        layers
    } else {
        report.end_to_end()
    };
    for w in &run.wrong {
        println!("WRONG: {w}");
    }
    println!("{}", result_json(&run, &metrics));
    ExitCode::SUCCESS
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    LowDim,
    HighDim,
    Portfolio,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "lowdim" => Some(Workload::LowDim),
            "highdim" => Some(Workload::HighDim),
            "portfolio" => Some(Workload::Portfolio),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::LowDim => "lowdim",
            Workload::HighDim => "highdim",
            Workload::Portfolio => "portfolio",
        }
    }

    /// The rows: Academic3D (index 0) and C1–C9; C10 and C12; or the
    /// systems the portfolio jobs name. C12 stands in for C13 of the same
    /// family, whose run costs too much; its 12 s interval re-check gives
    /// `highdim`'s `check_s` a window long enough to time steadily, which
    /// C10's 0.7 s check alone is not (see README.md).
    fn rows(self) -> Vec<usize> {
        match self {
            Workload::LowDim => (0..=9).collect(),
            Workload::HighDim => vec![10, 12],
            Workload::Portfolio => vec![4, 6, 8],
        }
    }

    /// `snbc-par` worker count. `lowdim` and `portfolio` run at two workers
    /// (the intra-learner and nested race parallelism they exist to
    /// exercise); `highdim` runs at one, where its serial, allocation-bound
    /// engine construction is steady (see README.md).
    fn threads(self) -> usize {
        match self {
            Workload::LowDim | Workload::Portfolio => 2,
            Workload::HighDim => 1,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    /// Draws the sample points of the correctness check. It does not reach
    /// the program: run-to-run spread must come from the machine alone.
    seed: u64,
    /// `SnbcConfig::seed` of every row and the base of the job grids.
    cegis_seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut cegis_seed = TABLE1_SEED;
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--cegis-seed" => cegis_seed = value.parse::<u64>().map_err(|_| bad())?,
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                    })
                }
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        let seconds = seconds.ok_or("missing --seconds")?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".to_string());
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            cegis_seed,
            seconds,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// SplitMix64: the benchmark's own deterministic generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn bench_row(index: usize) -> Benchmark {
    if index == 0 {
        benchmarks::academic_3d()
    } else {
        benchmarks::benchmark(index)
    }
}

/// The Table 1 configuration of a row, at the run's SNBC seed.
fn row_config(bench: &Benchmark, cegis_seed: u64) -> SnbcConfig {
    SnbcConfig {
        seed: cegis_seed,
        ..snbc_bench::snbc_config_for(bench, ROW_TIME_LIMIT)
    }
}

/// A benchmark with its pre-trained controller.
struct Row {
    bench: Benchmark,
    controller: Mlp,
}

/// Trains the controllers of `indices` (in that order) under `nn.train_controller` spans.
fn set_up_rows(indices: &[usize], tr: &mut Recorder) -> Vec<Row> {
    indices
        .iter()
        .map(|&i| {
            let bench = bench_row(i);
            let controller = tr.span("nn.train_controller", |_| {
                snbc_bench::pretrain_controller(&bench)
            });
            Row { bench, controller }
        })
        .collect()
}

/// What one run measured and checked.
#[derive(Debug, Default)]
struct Run {
    setup_s: f64,
    /// Wall and CPU seconds of each repetition of the solve phase.
    solve_reps: Vec<f64>,
    cpu_reps: Vec<f64>,
    /// Wall seconds of each `portfolio` warm leg.
    warm_reps: Vec<f64>,
    check_s: f64,
    rounds: usize,
    /// Rows (or jobs) synthesized, and how many of them did not certify.
    synth_base: usize,
    synth_fail: usize,
    /// Certificates deep-checked, and how many checks did not hold.
    check_base: usize,
    check_fail: usize,
    /// Outputs that failed the benchmark's correctness checks.
    wrong: Vec<String>,
    /// Portfolio counters of the first cold leg (zero on the solo workloads).
    cache_hits: usize,
    cache_misses: usize,
    candidates: usize,
    waves: usize,
    /// Counts gathered by the traced run's layer probes.
    probes: Probes,
    /// Per-row outcome lines for the table.
    lines: Vec<String>,
}

impl Run {
    /// Whether the solve phase should run (again).
    fn another_rep(&self, args: &Args) -> bool {
        let n = self.solve_reps.len();
        n == 0
            || (!args.trace
                && n < SOLVE_MAX_REPEATS
                && self.solve_reps.iter().sum::<f64>() < args.seconds)
    }

    /// Times one repetition of the solve phase.
    fn time_rep<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let cpu0 = procfs::cpu_ticks();
        let t = Instant::now();
        let out = f();
        self.solve_reps.push(t.elapsed().as_secs_f64());
        let cpu = procfs::cpu_ticks().since(cpu0);
        self.cpu_reps
            .push((cpu.user + cpu.sys) as f64 / procfs::ticks_per_second() as f64);
        out
    }
}

/// Counts and sub-times the traced run's layer probes gather.
#[derive(Debug, Default)]
struct Probes {
    mesh_points: usize,
    /// Σ epochs run × samples over the `Learner::train` probes.
    sample_epochs: u64,
    cex_points: usize,
    recheck_holds: usize,
    /// `Verifier::verify` sub-times: init, unsafe, flow.
    verify_s: [f64; 3],
}

/// A `lowdim` or `highdim` run: pretrain every row's controller, then per
/// row `Snbc::engine` plus `CegisEngine::step` to a terminal state (the
/// solve phase, repeated), then `SafetyCertificate::validate(.., deep =
/// true)` on every certificate.
fn solo_run(args: &Args, tr: &mut Recorder) -> Run {
    let mut run = Run::default();
    let t = Instant::now();
    let rows = tr.span("setup", |tr| set_up_rows(&args.workload.rows(), tr));
    run.setup_s = t.elapsed().as_secs_f64();

    let mut first: Vec<String> = Vec::new();
    let mut certs = Vec::new();
    while run.another_rep(args) {
        let outcomes = run.time_rep(|| {
            tr.span("solve", |tr| {
                rows.iter()
                    .map(|row| solve_row(row, args.cegis_seed, tr))
                    .collect::<Vec<_>>()
            })
        });
        let texts: Vec<String> = outcomes.iter().map(|(_, _, o)| outcome_text(o)).collect();
        if !first.is_empty() {
            for ((row, a), b) in rows.iter().zip(&first).zip(&texts) {
                if a != b {
                    run.wrong.push(format!(
                        "{}: repeated solve gave another result",
                        row.bench.name
                    ));
                }
            }
            continue;
        }
        first = texts;
        for (row, (name, row_s, outcome)) in rows.iter().zip(outcomes) {
            run.synth_base += 1;
            match outcome {
                Ok((CegisStatus::Certified(result), rounds)) => {
                    run.rounds += rounds;
                    run.lines.push(format!(
                        "{name:<14} certified  rounds {rounds:>2}  solve {row_s:8.3} s"
                    ));
                    certs.push((row, SafetyCertificate::from_result(name, &result)));
                }
                Ok((status, rounds)) => {
                    run.rounds += rounds;
                    run.synth_fail += 1;
                    let why = match status {
                        CegisStatus::TimedOut { .. } => "timed out",
                        _ => "exhausted",
                    };
                    run.lines.push(format!(
                        "{name:<14} {why:<10} rounds {rounds:>2}  solve {row_s:8.3} s"
                    ));
                }
                Err(e) => {
                    run.synth_fail += 1;
                    run.lines
                        .push(format!("{name:<14} ERROR {e}  after {row_s:.3} s"));
                }
            }
        }
    }
    check_and_probe(args, &mut run, tr, &rows, &certs, false);
    run
}

/// One solo row: `Snbc::engine`, then `CegisEngine::step` until a terminal
/// status. Returns the row's name, wall seconds and outcome with the rounds
/// run.
fn solve_row(
    row: &Row,
    cegis_seed: u64,
    tr: &mut Recorder,
) -> (
    &'static str,
    f64,
    Result<(CegisStatus, usize), snbc::SnbcError>,
) {
    let cfg = row_config(&row.bench, cegis_seed);
    let t = Instant::now();
    let engine = tr.span("engine", |_| {
        Snbc::new(cfg).engine(&row.bench, &row.controller)
    });
    let outcome = engine.map(|mut engine| loop {
        let s = tr.span("cegis_step", |_| engine.step());
        if s.is_terminal() {
            break (s, engine.rounds());
        }
    });
    (row.bench.name, t.elapsed().as_secs_f64(), outcome)
}

/// A solo row's outcome as text — the certificate, or why there is none —
/// so that repeated solves can be compared.
fn outcome_text(outcome: &Result<(CegisStatus, usize), snbc::SnbcError>) -> String {
    match outcome {
        Ok((CegisStatus::Certified(r), _)) => SafetyCertificate::from_result("", r).to_string(),
        Ok((CegisStatus::TimedOut { .. }, rounds)) => format!("timed out after {rounds} rounds"),
        Ok((_, rounds)) => format!("exhausted after {rounds} rounds"),
        Err(e) => format!("error: {e}"),
    }
}

/// A `portfolio` run: wipe the cache and pretrain the job systems'
/// controllers (set-up), run the jobs document cold, then warm (the solve
/// phase, repeated), then deep-check every distinct certificate.
fn portfolio_run(args: &Args, tr: &mut Recorder, out_dir: &Path) -> Run {
    let mut run = Run::default();
    let cache_dir = out_dir.join("cache");
    let spec_text = jobs_document(args.cegis_seed);
    let spec = BatchSpec::parse(&spec_text).expect("the generated jobs document parses");

    let t = Instant::now();
    let rows = tr.span("setup", |tr| {
        if cache_dir.exists() {
            std::fs::remove_dir_all(&cache_dir).expect("wipe the cache dir");
        }
        set_up_rows(&Workload::Portfolio.rows(), tr)
    });
    run.setup_s = t.elapsed().as_secs_f64();

    let resolve = |name: &str| -> Result<(Benchmark, Mlp), String> {
        rows.iter()
            .find(|r| r.bench.name == name)
            .map(|r| (bench_row(r.bench.index), r.controller.clone()))
            .ok_or_else(|| format!("no system named {name}"))
    };
    // C4, C6 and C8 (n < 5) share one Table 1 configuration.
    let opts = BatchOptions {
        base: row_config(&rows[0].bench, args.cegis_seed),
        cache_dir: Some(cache_dir.clone()),
    };
    let off = (
        snbc_telemetry::Telemetry::off(),
        snbc_metrics::Progress::off(),
        snbc_metrics::Metrics::off(),
    );
    let batch = |tr: &mut Recorder, leg: &str| {
        tr.span(leg, |_| {
            run_batch(&spec, &opts, &resolve, &off.0, &off.1, &off.2)
        })
    };

    // Each repetition of the solve phase wipes the cache, so every cold
    // leg is cold; the warm leg follows its cold leg. The warm leg's output
    // is the cold leg's report read back from the cache, so it is checked
    // for being the same, not counted as jobs.
    type Leg = Result<BatchOutcome, BatchError>;
    let leg_text = |leg: &Leg| match leg {
        Ok(outcome) => outcome.report_json(),
        Err(e) => format!("error: {e}"),
    };
    let mut first: Option<(String, Leg, Leg)> = None;
    while run.another_rep(args) {
        if !run.solve_reps.is_empty() && cache_dir.exists() {
            std::fs::remove_dir_all(&cache_dir).expect("wipe the cache dir");
        }
        let cold = run.time_rep(|| tr.span("solve", |tr| batch(tr, "portfolio.cold")));
        let t = Instant::now();
        let warm = batch(tr, "portfolio.warm");
        run.warm_reps.push(t.elapsed().as_secs_f64());
        let report = leg_text(&cold);
        if leg_text(&warm) != report {
            run.wrong
                .push("warm-leg batch report differs from the cold leg".to_string());
        }
        match &first {
            None => first = Some((report, cold, warm)),
            Some((first, ..)) if *first != report => run
                .wrong
                .push("repeated cold leg gave another batch report".to_string()),
            Some(_) => {}
        }
    }
    run.synth_base = spec.jobs.len();
    let (_, cold, warm) = first.expect("the solve phase runs at least once");
    let cold = match cold {
        Ok(cold) => cold,
        Err(e) => {
            run.synth_fail = run.synth_base;
            run.lines.push(format!("batch ERROR {e}"));
            return run;
        }
    };
    run.cache_hits = cold.hits();
    run.cache_misses = cold.misses();
    let mut certs: BTreeMap<String, (&Row, SafetyCertificate)> = BTreeMap::new();
    let mut first_certified_keys = Vec::new();
    for (job, job_spec) in cold.jobs.iter().zip(&spec.jobs) {
        let r = &job.result;
        if !job.cache_hit {
            run.candidates += r.candidates;
            run.waves += r.waves;
            run.rounds += r.waves;
        }
        run.lines.push(format!(
            "{:<14} {:<13} cands {:>2}  waves {:>2}  winner {}",
            job.name,
            match (r.certified, job.cache_hit) {
                (true, true) => "certified/hit",
                (true, false) => "certified",
                (false, _) => "not certified",
            },
            r.candidates,
            r.waves,
            r.winner_index.map_or("-".to_string(), |i| i.to_string()),
        ));
        if !r.certified {
            run.synth_fail += 1;
            continue;
        }
        let expect_hit = first_certified_keys.contains(&job.key.hash().to_string());
        if job.cache_hit != expect_hit {
            run.wrong.push(format!(
                "{}: cold-leg cache_hit = {}",
                job.name, job.cache_hit
            ));
        }
        first_certified_keys.push(job.key.hash().to_string());
        let text = r.certificate.clone().unwrap_or_default();
        match text.parse::<SafetyCertificate>() {
            Ok(cert) => {
                let row = rows.iter().find(|row| row.bench.name == cert.system);
                match row {
                    Some(row) if job_spec.source == JobSource::System(cert.system.clone()) => {
                        certs.entry(text).or_insert((row, cert));
                    }
                    _ => run
                        .wrong
                        .push(format!("{}: certificate names {}", job.name, cert.system)),
                }
            }
            Err(e) => run
                .wrong
                .push(format!("{}: certificate does not parse: {e}", job.name)),
        }
    }
    let certified = cold.jobs.iter().filter(|j| j.result.certified).count();
    match &warm {
        Ok(warm) if warm.hits() != certified => run.wrong.push(format!(
            "warm leg: {} cache hits for {certified} certified jobs",
            warm.hits()
        )),
        // A warm-leg error has already failed the report check above.
        _ => {}
    }

    let certs: Vec<_> = certs.into_values().collect();
    check_and_probe(args, &mut run, tr, &rows, &certs, true);
    run
}

/// The tail every run shares: `validate(.., deep = true)` on each
/// certificate (timed as `check_s`), the benchmark's own correctness check
/// of each certificate, and — traced run only — the layer probes.
///
/// The deep check and its layer probes run at one worker: at two, the
/// parallel interval branch-and-bound made `lowdim`'s `check_s` range from
/// 6.8 to 16.3 s over ten consecutive runs (interquartile range 70 % of
/// the median, against 6 % for the solve's CPU time).
fn check_and_probe(
    args: &Args,
    run: &mut Run,
    tr: &mut Recorder,
    rows: &[Row],
    certs: &[(&Row, SafetyCertificate)],
    probe_engine: bool,
) {
    snbc_par::set_threads(Some(1));
    tr.span("check", |tr| {
        for (row, cert) in certs {
            let t = Instant::now();
            let holds = tr.span("validate", |_| cert.validate(&row.bench.system, true));
            let check_s = t.elapsed().as_secs_f64();
            run.check_base += 1;
            run.check_s += check_s;
            run.check_fail += usize::from(!holds);
            run.lines.push(format!(
                "{:<14} deep check {}  {check_s:8.3} s",
                row.bench.name,
                if holds { "holds" } else { "does not hold" },
            ));
        }
    });
    let mut rng = SplitMix(args.seed);
    for (row, cert) in certs {
        if let Err(e) = check_certificate(cert, &row.bench, rng.next()) {
            run.wrong.push(e);
        }
    }
    if tr.enabled() {
        for (row, cert) in certs {
            probe_check_layers(row, cert, tr, &mut run.probes);
        }
    }
    snbc_par::set_threads(Some(args.workload.threads()));
    if tr.enabled() {
        for row in rows {
            probe_layers(row, args.cegis_seed, probe_engine, tr, &mut run.probes);
        }
    }
}

/// The `portfolio` jobs document: a seed grid on C4, a seeds × λ-degrees
/// grid on C6, and C8 twice (the repeat is a cold-leg cache hit). Grid
/// seeds start at `cegis_seed`.
fn jobs_document(cegis_seed: u64) -> String {
    let s = cegis_seed;
    let jobs = [
        format!(
            r#"{{"name": "c4-seeds", "system": "C4", "grid": {{"seeds": [{s}, {}, {}]}}}}"#,
            s + 1,
            s + 2
        ),
        format!(
            r#"{{"name": "c6-seeds-lambda", "system": "C6", "grid": {{"seeds": [{s}, {}], "lambda_degrees": [1, 2]}}}}"#,
            s + 1
        ),
        format!(r#"{{"name": "c8-first", "system": "C8", "grid": {{"seeds": [{s}]}}}}"#),
        format!(r#"{{"name": "c8-repeat", "system": "C8", "grid": {{"seeds": [{s}]}}}}"#),
    ];
    format!(
        "{{\"schema\": \"snbc-batch-jobs/1\", \"jobs\": [{}]}}",
        jobs.join(", ")
    )
}

/// Independent check of a certificate's claim at sampled points: `B ≥ 0` on
/// `Θ`, `B ≤ 0` on `Ξ`, and `L_f B − λB ≥ 0` on `Ψ` at both extremes
/// `w = ±σ*` of the controller-abstraction error, each up to a tolerance
/// relative to the polynomial's coefficients. Also round-trips the
/// certificate through its text form.
fn check_certificate(cert: &SafetyCertificate, bench: &Benchmark, seed: u64) -> Result<(), String> {
    let name = bench.name;
    if cert.system != name {
        return Err(format!("{name}: certificate names {}", cert.system));
    }
    let text = cert.to_string();
    match text.parse::<SafetyCertificate>() {
        Ok(back) if back.to_string() == text => {}
        _ => {
            return Err(format!(
                "{name}: certificate does not round-trip through its text form"
            ))
        }
    }
    let system = &bench.system;
    let samples = TrainingSets::sample(system, CHECK_SAMPLES, seed);
    let b = &cert.barrier;
    let tol_b = 1e-6 * (1.0 + b.max_abs_coeff());
    if let Some(x) = samples.init.iter().find(|x| b.eval(x) < -tol_b) {
        return Err(format!(
            "{name}: B = {} < 0 at initial-set point {x:?}",
            b.eval(x)
        ));
    }
    if let Some(x) = samples.unsafe_.iter().find(|x| b.eval(x) > tol_b) {
        return Err(format!(
            "{name}: B = {} > 0 at unsafe-set point {x:?}",
            b.eval(x)
        ));
    }
    let field = system.close_loop_with_error(&cert.controller);
    let flow: Polynomial = &snbc_poly::lie_derivative(b, &field) - &(&cert.lambda * b);
    let tol_f = 1e-6 * (1.0 + flow.max_abs_coeff());
    for x in &samples.domain {
        for w in [-cert.sigma_star, cert.sigma_star] {
            let mut xw = x.clone();
            xw.push(w);
            let v = flow.eval(&xw);
            if v < -tol_f {
                return Err(format!(
                    "{name}: L_f B − λB = {v} < 0 at domain point {x:?}, w = {w}"
                ));
            }
        }
    }
    Ok(())
}

/// Traced run only: the per-layer probes of one row, each a span around one
/// call into a layer's public function on the row's round-1 inputs —
/// `approximate_mlp` (§3), `Snbc::engine` construction (portfolio only; the
/// solo rows' engine spans come from the solve), `Learner::train` (§4.1),
/// `Verifier::verify` of the round-1 candidate (`probe.verify`) and, when it
/// fails, `find_counterexample` on each failed condition (§4.3).
fn probe_layers(
    row: &Row,
    cegis_seed: u64,
    with_engine: bool,
    tr: &mut Recorder,
    probes: &mut Probes,
) {
    let bench = &row.bench;
    let system = &bench.system;
    let cfg = row_config(bench, cegis_seed);
    let n = system.nvars();
    let inclusion = tr
        .span("approx", |_| {
            snbc::approximate_mlp(&row.controller, system.domain().bounding_box(), &cfg.approx)
        })
        .expect("the §3 abstraction succeeds on a benchmark row");
    probes.mesh_points += inclusion.mesh_points;
    if with_engine {
        tr.span("engine", |_| {
            Snbc::new(cfg.clone()).engine(bench, &row.controller)
        })
        .expect("engine construction succeeds on a benchmark row");
    }
    // Round-1 inputs, exactly as `Snbc::engine` builds them (less the
    // n ≥ 6 Lyapunov warm start, which is not a public layer call).
    let b_net = QuadraticNet::new(n, &bench.nn_b_hidden, cfg.seed);
    let lambda_net = match &bench.lambda_spec {
        LambdaSpec::Constant => MultiplierNet::constant(-0.5),
        LambdaSpec::Linear(hidden) => MultiplierNet::linear(n, hidden, cfg.seed + 1),
    };
    let mut lcfg = cfg.learner.clone();
    let tele = snbc_telemetry::Telemetry::recording();
    lcfg.telemetry = tele.clone();
    let mut learner = Learner::new(b_net, lambda_net, lcfg);
    let sets = TrainingSets::sample(system, cfg.batch + 50 * n, cfg.seed + 2);
    let closed_robust = system.close_loop_with_error(&inclusion.h);
    tr.span("learner.train", |_| {
        learner.train(&closed_robust, inclusion.sigma_star, &sets)
    });
    let epochs = tele
        .report()
        .and_then(|r| find_counter(&r.root, "learn", "epochs"))
        .unwrap_or(cfg.learner.epochs as u64);
    probes.sample_epochs += epochs * sets.len() as u64;

    let b = learner.barrier_polynomial().prune(1e-9);
    let mut vcfg = cfg.verifier.clone();
    if matches!(bench.lambda_spec, LambdaSpec::Constant) {
        vcfg.lambda_degree = 0;
    }
    let outcome = tr.span("probe.verify", |_| {
        Verifier::new(system, &inclusion, vcfg).verify(&b)
    });
    if !outcome.is_certified() {
        let mut cex_cfg = cfg.cex.clone();
        cex_cfg.seed += 1;
        let lambda = learner.lambda_polynomial();
        probes.cex_points += tr.span("cex", |_| {
            counterexample_points(
                &outcome,
                &b,
                &lambda,
                system,
                &closed_robust,
                inclusion.sigma_star,
                &cex_cfg,
            )
        });
    }
}

/// `find_counterexample` on each condition `outcome` failed, with the
/// violation polynomials the CEGIS loop uses: `−B` on `Θ`, `B` on `Ξ`, and
/// `−(L_f B − λB)` on `Ψ × [−σ*, σ*]`. Returns the points found.
fn counterexample_points(
    outcome: &VerificationOutcome,
    b: &Polynomial,
    lambda: &Polynomial,
    system: &snbc_dynamics::Ccds,
    closed_robust: &[Polynomial],
    sigma_star: f64,
    cfg: &snbc::CexConfig,
) -> usize {
    let mut points = 0;
    let mut search = |v: &Polynomial, set: &snbc_dynamics::SemiAlgebraicSet, c| {
        points += find_counterexample(v, set, c, cfg).map_or(0, |cex| cex.points.len());
    };
    if !outcome.init.feasible {
        search(&-b, system.init(), ViolatedCondition::Init);
    }
    if !outcome.unsafe_.feasible {
        search(b, system.unsafe_set(), ViolatedCondition::Unsafe);
    }
    if !outcome.flow.feasible {
        let v = -&(&snbc_poly::lie_derivative(b, closed_robust) - &(lambda * b));
        let sigma = sigma_star.max(1e-9);
        let mut bounds = system.domain().bounding_box().to_vec();
        bounds.push((-sigma, sigma));
        let ext =
            snbc_dynamics::SemiAlgebraicSet::from_polys(system.domain().polys().to_vec(), &bounds);
        search(&v, &ext, ViolatedCondition::Flow);
    }
    points
}

fn find_counter(node: &snbc_telemetry::SpanNode, span: &str, counter: &str) -> Option<u64> {
    if node.name == span {
        return node.counter(counter);
    }
    node.children
        .iter()
        .find_map(|c| find_counter(c, span, counter))
}

/// Traced run only: the two layers `SafetyCertificate::validate(deep)`
/// calls, measured on their own — `Verifier::verify` with the default
/// configuration and `recheck_with_intervals` — with the same inputs
/// `validate` builds.
fn probe_check_layers(row: &Row, cert: &SafetyCertificate, tr: &mut Recorder, probes: &mut Probes) {
    let system = &row.bench.system;
    let inclusion = PolynomialInclusion {
        h: cert.controller.clone(),
        sigma_tilde: cert.sigma_star,
        sigma_star: cert.sigma_star,
        lipschitz: 0.0,
        covering_radius: 0.0,
        mesh_points: 0,
    };
    let outcome = tr.span("verifier", |_| {
        Verifier::new(system, &inclusion, VerifierConfig::default()).verify(&cert.barrier)
    });
    for (acc, sub) in
        probes
            .verify_s
            .iter_mut()
            .zip([&outcome.init, &outcome.unsafe_, &outcome.flow])
    {
        *acc += sub.time.as_secs_f64();
    }
    let lambda = outcome.flow.lambda.as_ref().unwrap_or(&cert.lambda);
    let holds = tr.span("interval_recheck", |_| {
        snbc::recheck_with_intervals(
            &cert.barrier,
            lambda,
            system,
            &inclusion,
            &snbc_interval::BranchAndBound::default(),
        )
    });
    probes.recheck_holds += usize::from(holds);
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// The run's figures (medians over repetitions) and its result line.
struct Report<'a> {
    run: &'a Run,
    solve_s: f64,
    warm_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
}

impl<'a> Report<'a> {
    fn new(run: &'a Run) -> Report<'a> {
        let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
        Report {
            run,
            solve_s: med(&run.solve_reps),
            warm_s: med(&run.warm_reps),
            cpu_s: med(&run.cpu_reps),
            peak_rss_mb: procfs::peak_rss_mib(),
        }
    }

    /// The end-to-end metrics of `BENCHMARK.json`.
    fn end_to_end(&self) -> Vec<Metric> {
        vec![
            ("solve_s", self.solve_s, "s"),
            ("setup_s", self.run.setup_s, "s"),
            ("check_s", self.run.check_s, "s"),
            ("cpu_s", self.cpu_s, "s"),
            ("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ]
    }

    fn print_table(&self, args: &Args) {
        let run = self.run;
        println!(
            "snbc-perfbench workload={} seed={} cegis_seed={} trace={} solve_reps={} threads={}",
            args.workload.name(),
            args.seed,
            args.cegis_seed,
            u8::from(args.trace),
            run.solve_reps.len(),
            snbc_par::threads()
        );
        for l in &run.lines {
            println!("  {l}");
        }
        let (sf, sb, cf, cb) = (
            run.synth_fail,
            run.synth_base,
            run.check_fail,
            run.check_base,
        );
        for (name, value, unit) in self.end_to_end() {
            println!("{name:<16} {value:>12.4} {unit}");
        }
        if args.workload == Workload::Portfolio {
            println!("{:<16} {:>12.4} s", "warm_s", self.warm_s);
        }
        println!("{:<16} {:>12} count", "rounds", run.rounds);
        println!(
            "{:<16} {:>12.4} frac ({sf} of {sb} not certified)",
            "synth_fail_frac",
            fail_frac(sf, sb)
        );
        println!(
            "{:<16} {:>12.4} frac ({cf} of {cb} deep checks do not hold)",
            "check_fail_frac",
            fail_frac(cf, cb)
        );
    }
}

/// The per-layer metrics of the traced run (one repetition of the solve).
fn layer_metrics(tr: &Recorder, run: &Run) -> Vec<Metric> {
    let hz = procfs::ticks_per_second() as f64;
    let secs = |t: u64| t as f64 / hz;
    let steps_ms: Vec<f64> = tr
        .named("cegis_step")
        .map(|s| s.duration_ns() as f64 * 1e-6)
        .collect();
    let (tail_pct, tail_ms) = match stats::tail_percentile(steps_ms.len(), 10) {
        Some(p) => (p, stats::percentile(&steps_ms, p).unwrap_or(0.0)),
        None => (50, stats::percentile(&steps_ms, 50).unwrap_or(0.0)),
    };
    let approx_cpu = tr.total_cpu("approx");
    let engine_cpu = tr.total_cpu("engine");
    let learn_s = tr.total_s("learner.train");
    let learn_cpu = tr.total_cpu("learner.train");
    let probes = &run.probes;
    let sample_epochs = probes.sample_epochs;
    let sub = probes.verify_s;
    // Attribution of the solve phase: the share of the `solve` spans that
    // no layer call (`engine`, `cegis_step`, `portfolio.cold`) covers. The
    // benchmark calls nothing else there, so this is its own loop overhead;
    // time unattributed inside the program needs spans inside it.
    let selfs = self_times_ns(tr.spans());
    let (solve_self_ns, solve_ns) = tr
        .spans()
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "solve")
        .fold((0, 0), |(a, b), (s, &own)| (a + own, b + s.duration_ns()));
    let unattributed = if solve_ns > 0 {
        solve_self_ns as f64 / solve_ns as f64
    } else {
        0.0
    };
    vec![
        (
            "nn.train_controller.s",
            tr.total_s("nn.train_controller"),
            "s",
        ),
        ("approx.s", tr.total_s("approx"), "s"),
        ("approx.cpu_s", secs(approx_cpu.user + approx_cpu.sys), "s"),
        ("approx.mesh_points", probes.mesh_points as f64, "count"),
        (
            "engine_init.s",
            (tr.total_s("engine") - tr.total_s("approx")).max(0.0),
            "s",
        ),
        (
            "engine_init.user_s",
            secs(engine_cpu.user.saturating_sub(approx_cpu.user)),
            "s",
        ),
        (
            "engine_init.sys_s",
            secs(engine_cpu.sys.saturating_sub(approx_cpu.sys)),
            "s",
        ),
        ("cegis_step.calls", steps_ms.len() as f64, "count"),
        ("cegis_step.s", tr.total_s("cegis_step"), "s"),
        (
            "cegis_step.p50_ms",
            stats::percentile(&steps_ms, 50).unwrap_or(0.0),
            "ms",
        ),
        ("cegis_step.ptail_ms", tail_ms, "ms"),
        ("cegis_step.ptail_pct", f64::from(tail_pct), "percent"),
        ("learner.train.s", learn_s, "s"),
        (
            "learner.ns_per_sample_epoch",
            if sample_epochs > 0 {
                learn_s * 1e9 / sample_epochs as f64
            } else {
                0.0
            },
            "ns",
        ),
        (
            "learner.busy_cores",
            if learn_s > 0.0 {
                secs(learn_cpu.user + learn_cpu.sys) / learn_s
            } else {
                0.0
            },
            "cores",
        ),
        ("verifier.s", tr.total_s("verifier"), "s"),
        ("verifier.init_s", sub[0], "s"),
        ("verifier.unsafe_s", sub[1], "s"),
        ("verifier.flow_s", sub[2], "s"),
        ("cex.s", tr.total_s("cex"), "s"),
        ("cex.points", probes.cex_points as f64, "count"),
        ("interval_recheck.s", tr.total_s("interval_recheck"), "s"),
        (
            "interval_recheck.holds",
            probes.recheck_holds as f64,
            "count",
        ),
        ("portfolio.cold_s", tr.total_s("portfolio.cold"), "s"),
        ("portfolio.warm_s", tr.total_s("portfolio.warm"), "s"),
        ("portfolio.cache_hits", run.cache_hits as f64, "count"),
        ("portfolio.cache_misses", run.cache_misses as f64, "count"),
        ("portfolio.candidates", run.candidates as f64, "count"),
        ("portfolio.waves", run.waves as f64, "count"),
        ("unattributed_frac", unattributed, "frac"),
        ("traced.solve_s", run.solve_reps[0], "s"),
        ("rounds", run.rounds as f64, "count"),
        (
            "synth_fail_frac",
            fail_frac(run.synth_fail, run.synth_base),
            "frac",
        ),
        (
            "check_fail_frac",
            fail_frac(run.check_fail, run.check_base),
            "frac",
        ),
    ]
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`. The
/// operations are the first solve's rows (or cold-leg jobs) and the deep
/// checks; a row that does not certify, whether it exhausted its rounds,
/// timed out or returned an error, and a deep check that does not hold,
/// count as failed.
fn result_json(run: &Run, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.wrong.is_empty(),
        (run.synth_base + run.check_base).max(1),
        run.synth_fail + run.check_fail,
        body.join(", ")
    )
}

/// Every digit of the measured value (`{:?}` is the shortest exact form;
/// adding 0 turns an empty sum's `-0.0` into `0.0`).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{:?}", v + 0.0)
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_are_checked() {
        let a = args(&[
            "--workload",
            "highdim",
            "--seed",
            "3",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!(
            (a.workload, a.seed, a.cegis_seed, a.trace),
            (Workload::HighDim, 3, TABLE1_SEED, true)
        );
        let a = args(&[
            "--workload",
            "lowdim",
            "--seed",
            "1",
            "--seconds",
            "5",
            "--trace",
            "0",
            "--cegis-seed",
            "2",
        ])
        .expect("valid arguments");
        assert_eq!(a.cegis_seed, 2);
        for bad in [
            &[
                "--workload",
                "mid",
                "--seed",
                "1",
                "--seconds",
                "5",
                "--trace",
                "0",
            ][..],
            &[
                "--workload",
                "lowdim",
                "--seed",
                "-1",
                "--seconds",
                "5",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "lowdim",
                "--seed",
                "1",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "lowdim",
                "--seed",
                "1",
                "--seconds",
                "5",
                "--trace",
                "2",
            ],
            &["--workload", "lowdim", "--seed", "1", "--seconds", "5"],
            &[
                "--workload",
                "lowdim",
                "--seed",
                "1",
                "--seconds",
                "5",
                "--trace",
                "0",
                "--x",
                "1",
            ],
            &["--workload"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn jobs_document_races_c4_c6_and_repeats_c8() {
        let spec = BatchSpec::parse(&jobs_document(5)).expect("the jobs document parses");
        let systems: Vec<_> = spec.jobs.iter().map(|j| j.source.clone()).collect();
        let named = |s: &str| JobSource::System(s.to_string());
        assert_eq!(
            systems,
            vec![named("C4"), named("C6"), named("C8"), named("C8")]
        );
        assert_eq!(spec.jobs[0].grid.seeds, vec![5, 6, 7]);
        assert_eq!(spec.jobs[1].grid.seeds, vec![5, 6]);
        assert_eq!(spec.jobs[1].grid.lambda_degrees, vec![1, 2]);
        assert_eq!(spec.jobs[2].grid, spec.jobs[3].grid);
    }

    #[test]
    fn uncertified_rows_and_unproved_checks_count_as_failed() {
        let run = Run {
            synth_base: 10,
            synth_fail: 1,
            check_base: 9,
            check_fail: 1,
            ..Run::default()
        };
        assert_eq!(
            result_json(&run, &[("solve_s", 1.5, "s")]),
            r#"{"correct": true, "attempted": 19, "failed": 2, "metrics": {"solve_s": {"value": 1.5, "unit": "s"}}}"#
        );
        let wrong = Run {
            wrong: vec!["C1: repeated solve gave another result".to_string()],
            ..Run::default()
        };
        assert!(result_json(&wrong, &[])
            .starts_with(r#"{"correct": false, "attempted": 1, "failed": 0,"#));
    }

    #[test]
    fn result_line_keeps_every_digit() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(-0.0), "0.0");
        assert_eq!(json_number(3.0), "3.0");
    }
}
