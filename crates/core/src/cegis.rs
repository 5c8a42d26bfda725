//! The CEGIS driver (Algorithm 1): Learner ⇄ Verifier with counterexample
//! feedback, plus the per-phase timing bookkeeping of Table 1.
//!
//! The loop is exposed at two granularities:
//!
//! * [`Snbc::synthesize`] — run Algorithm 1 to completion (the original
//!   one-shot API);
//! * [`CegisEngine`] — the same loop as a **resumable step-function**: each
//!   [`CegisEngine::step`] call executes exactly one CEGIS round (learn →
//!   verify → counterexamples) and reports a [`CegisStatus`]. This is the
//!   unit the `snbc-portfolio` racing driver interleaves: K candidate
//!   engines advance round-by-round in deterministic waves, and the first
//!   certifying candidate (lowest grid index on ties) wins. A paused engine
//!   holds no open resources beyond its telemetry span, so engines can be
//!   stepped from `snbc-par` workers (the engine is `Send`).

use std::time::Duration;

use snbc_trace::Stopwatch;

use snbc_dynamics::benchmarks::{Benchmark, LambdaSpec};
use snbc_nn::{Mlp, MultiplierNet, QuadraticNet};
use snbc_poly::{lie_derivative, Polynomial};

use crate::cex::{find_counterexample, CexConfig, ViolatedCondition};
use crate::{
    ApproxOptions, Learner, LearnerConfig, PolynomialInclusion,
    SnbcError, TrainingSets, VerificationOutcome, Verifier, VerifierConfig,
};

/// Configuration of the full SNBC pipeline.
#[derive(Debug, Clone)]
pub struct SnbcConfig {
    /// Controller-abstraction options (§3).
    pub approx: ApproxOptions,
    /// Learner options (§4.1).
    pub learner: LearnerConfig,
    /// Verifier options (§4.2).
    pub verifier: VerifierConfig,
    /// Counterexample options (§4.3).
    pub cex: CexConfig,
    /// Initial per-set sample count (`|S_I| = |S_U| = |S_D|`).
    pub batch: usize,
    /// Maximum CEGIS iterations (`Iter` in Algorithm 1).
    pub max_iterations: usize,
    /// Wall-clock budget; exceeded ⇒ [`SnbcError::Timeout`] (the paper's OT
    /// at 7200 s).
    pub time_limit: Duration,
    /// After this many consecutive rounds in which verification failed but no
    /// counterexample existed (an SOS relaxation gap rather than a real
    /// violation), the networks are re-initialized with a fresh seed: the
    /// sample-feasible region contains many candidates and re-seeding moves
    /// the learner to a different — often certifiable — basin.
    pub reseed_after_plateau: usize,
    /// RNG seed for sampling and network initialization.
    pub seed: u64,
}

impl Default for SnbcConfig {
    fn default() -> Self {
        SnbcConfig {
            approx: ApproxOptions::default(),
            learner: LearnerConfig::default(),
            verifier: VerifierConfig::default(),
            cex: CexConfig::default(),
            batch: 300,
            max_iterations: 30,
            time_limit: Duration::from_secs(7200),
            reseed_after_plateau: 2,
            seed: 1,
        }
    }
}

/// Outcome of a successful synthesis run, including the Table 1 timing
/// columns.
#[derive(Debug, Clone)]
pub struct SnbcResult {
    /// The verified barrier certificate `B(x)`.
    pub barrier: Polynomial,
    /// The multiplier `λ(x)` solved by the flow LMI (15).
    pub lambda: Polynomial,
    /// The controller abstraction used (§3).
    pub inclusion: PolynomialInclusion,
    /// Final (successful) verification outcome with margins.
    pub verification: VerificationOutcome,
    /// CEGIS iterations used (`I_s`).
    pub iterations: usize,
    /// Learning time (`T_l`).
    pub t_learn: Duration,
    /// Counterexample-generation time (`T_c`).
    pub t_cex: Duration,
    /// Verification time (`T_v`).
    pub t_verify: Duration,
    /// End-to-end time (`T_e`), including the controller abstraction.
    pub t_total: Duration,
}

/// Result of one [`CegisEngine::step`].
///
/// Terminal states ([`Certified`](CegisStatus::Certified),
/// [`Exhausted`](CegisStatus::Exhausted),
/// [`TimedOut`](CegisStatus::TimedOut)) are sticky: further `step` calls
/// return the same status again without doing any work, so a racing driver
/// may keep a finished engine in its wave without special-casing it.
#[derive(Debug, Clone)]
pub enum CegisStatus {
    /// The round finished without a certificate; call `step` again.
    InProgress,
    /// A verified certificate was found this round.
    Certified(Box<SnbcResult>),
    /// The iteration budget (`Iter` in Algorithm 1) ran out.
    Exhausted {
        /// Rounds executed (`= max_iterations`).
        iterations: usize,
        /// Best worst-case LMI margin seen over all failed rounds.
        best_margin: f64,
    },
    /// The wall-clock budget tripped (the paper's OT).
    ///
    /// This status is inherently machine- and load-dependent: whether an
    /// engine trips it near `time_limit` depends on how fast the host is.
    /// The portfolio racer therefore neutralizes `time_limit` and budgets
    /// candidates by round count alone, so race outcomes stay bitwise
    /// deterministic; `TimedOut` is a solo-run (one-shot `synthesize`)
    /// contract.
    TimedOut {
        /// Elapsed seconds at the trip point.
        elapsed: f64,
    },
}

impl CegisStatus {
    /// Whether the status is terminal (anything but `InProgress`).
    pub fn is_terminal(&self) -> bool {
        !matches!(self, CegisStatus::InProgress)
    }

    /// Whether the status carries a verified certificate.
    pub fn is_certified(&self) -> bool {
        matches!(self, CegisStatus::Certified(_))
    }
}

/// The SNBC synthesizer (Algorithm 1).
///
/// See the [crate docs](crate) for a quickstart.
#[derive(Debug, Clone)]
pub struct Snbc {
    cfg: SnbcConfig,
    telemetry: snbc_telemetry::Telemetry,
    progress: snbc_metrics::Progress,
}

impl Snbc {
    /// Creates a synthesizer with the given configuration.
    pub fn new(cfg: SnbcConfig) -> Self {
        Snbc {
            cfg,
            telemetry: snbc_telemetry::Telemetry::off(),
            progress: snbc_metrics::Progress::off(),
        }
    }

    /// Attaches a telemetry sink and threads it through every pipeline stage
    /// (abstraction LP, learner, SDP verifier, counterexample search), so a
    /// recording run produces the full `snbc-run-report` span tree:
    /// `cegis → round → learn / verify {init,unsafe,flow → sdp} / cex {search-*}, approx → lp`.
    ///
    /// ```
    /// use snbc::{Snbc, SnbcConfig};
    /// use snbc_telemetry::Telemetry;
    ///
    /// let telemetry = Telemetry::recording();
    /// let _snbc = Snbc::new(SnbcConfig::default()).with_telemetry(telemetry.clone());
    /// // after `synthesize(..)`: telemetry.report() holds the span tree.
    /// ```
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: snbc_telemetry::Telemetry) -> Self {
        self.cfg.approx.telemetry = telemetry.clone();
        self.cfg.approx.lp.telemetry = telemetry.clone();
        self.cfg.learner.telemetry = telemetry.clone();
        self.cfg.verifier.solver.telemetry = telemetry.clone();
        self.cfg.cex.telemetry = telemetry.clone();
        self.telemetry = telemetry;
        self
    }

    /// Attaches a live progress sink: each [`CegisEngine::step`] emits
    /// `learn-epoch`, `verify-rung` (×3), `cex`, and `round` events under
    /// the handle's scope. See `snbc_metrics::progress` for the event
    /// vocabulary and the determinism contract; an `snbc_metrics::Metrics`
    /// registry in the sink folds these events into its counters.
    #[must_use]
    pub fn with_progress(mut self, progress: snbc_metrics::Progress) -> Self {
        self.progress = progress;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &SnbcConfig {
        &self.cfg
    }

    /// Builds a resumable [`CegisEngine`] for a benchmark with its
    /// pre-trained NN controller. The engine performs the §3 controller
    /// abstraction and network/sample initialization eagerly; each
    /// [`CegisEngine::step`] then runs one CEGIS round.
    ///
    /// # Errors
    ///
    /// * [`SnbcError::Approximation`] — the §3 LP failed.
    pub fn engine(&self, bench: &Benchmark, controller: &Mlp) -> Result<CegisEngine, SnbcError> {
        CegisEngine::new(
            self.cfg.clone(),
            self.telemetry.clone(),
            self.progress.clone(),
            bench,
            controller,
        )
    }

    /// Runs Algorithm 1 on a benchmark with its pre-trained NN controller.
    ///
    /// # Errors
    ///
    /// * [`SnbcError::Approximation`] — the §3 LP failed;
    /// * [`SnbcError::IterationsExhausted`] — no certificate within the
    ///   iteration budget;
    /// * [`SnbcError::Timeout`] — the wall-clock budget tripped (`OT`).
    pub fn synthesize(&self, bench: &Benchmark, controller: &Mlp) -> Result<SnbcResult, SnbcError> {
        let mut engine = self.engine(bench, controller)?;
        loop {
            match engine.step() {
                CegisStatus::InProgress => {}
                CegisStatus::Certified(result) => return Ok(*result),
                CegisStatus::Exhausted {
                    iterations,
                    best_margin,
                } => {
                    return Err(SnbcError::IterationsExhausted {
                        iterations,
                        best_margin,
                    })
                }
                CegisStatus::TimedOut { elapsed } => return Err(SnbcError::Timeout { elapsed }),
            }
        }
    }
}

/// Algorithm 1 as a resumable step-function.
///
/// Construction ([`Snbc::engine`]) performs everything Algorithm 1 does
/// before its loop: the §3 polynomial inclusion of the controller, network
/// initialization from the configured seed, initial sampling of the training
/// sets, and the high-dimensional Lyapunov warm start. Each
/// [`step`](CegisEngine::step) then
/// executes exactly one round — learner, LMI verifier, counterexample
/// feedback — and returns the resulting [`CegisStatus`].
///
/// The engine owns all of its state (no borrows of the benchmark), so many
/// engines can be driven concurrently from `snbc-par` workers; one engine's
/// round sequence is bitwise identical to the equivalent
/// [`Snbc::synthesize`] run at any thread count.
#[derive(Debug)]
pub struct CegisEngine {
    cfg: SnbcConfig,
    telemetry: snbc_telemetry::Telemetry,
    progress: snbc_metrics::Progress,
    /// The open `cegis` span; dropped (closed) at the first terminal status.
    run_span: Option<snbc_telemetry::SpanGuard>,
    t0: Stopwatch,
    system: snbc_dynamics::Ccds,
    nn_b_hidden: Vec<usize>,
    lambda_spec: LambdaSpec,
    inclusion: PolynomialInclusion,
    closed_nominal: Vec<Polynomial>,
    closed_robust: Vec<Polynomial>,
    learner: Learner,
    sets: TrainingSets,
    /// Per-round sample count (dimension-scaled; see `new`).
    batch: usize,
    t_learn: Duration,
    t_cex: Duration,
    t_verify: Duration,
    best_margin: f64,
    plateau: usize,
    rounds: usize,
    terminal: Option<CegisStatus>,
}

impl CegisEngine {
    fn new(
        cfg: SnbcConfig,
        telemetry: snbc_telemetry::Telemetry,
        progress: snbc_metrics::Progress,
        bench: &Benchmark,
        controller: &Mlp,
    ) -> Result<Self, SnbcError> {
        let t0 = Stopwatch::start();
        let tele = telemetry;
        let run_span = tele.span("cegis");
        if tele.is_recording() {
            tele.label("benchmark", bench.name);
            tele.gauge("threads", snbc_par::threads() as f64);
        }
        let system = &bench.system;
        let n = system.nvars();

        // Step 1 (§3): polynomial inclusion of the controller, with the
        // interval-certified error bound (tighter than the raw Theorem 2
        // Lipschitz gap, especially in high dimension).
        let inclusion =
            crate::approximate_mlp(controller, system.domain().bounding_box(), &cfg.approx)?;
        if tele.is_recording() {
            tele.gauge("sigma_star", inclusion.sigma_star);
        }

        // Step 2: initialize networks per the benchmark's Table 1 shapes.
        let b_net = QuadraticNet::new(n, &bench.nn_b_hidden, cfg.seed);
        let lambda_net = match &bench.lambda_spec {
            LambdaSpec::Constant => MultiplierNet::constant(-0.5),
            LambdaSpec::Linear(hidden) => MultiplierNet::linear(n, hidden, cfg.seed + 1),
        };
        let mut learner = Learner::new(b_net, lambda_net, cfg.learner.clone());
        // Sample counts scale with the dimension: the violating region of a
        // failing condition occupies an ever-smaller solid angle as n grows.
        let batch = cfg.batch + 50 * n;
        let sets = TrainingSets::sample(system, batch, cfg.seed + 2);
        let closed_nominal = system.close_loop(&inclusion.h);
        if n >= 6 {
            warm_start_lyapunov(&mut learner, system, &closed_nominal, &sets);
        }

        // Training and counterexample search both use the robust closed loop
        // with the error variable `w` in slot `n` (w = ±σ* extremes).
        let closed_robust = system.close_loop_with_error(&inclusion.h);

        Ok(CegisEngine {
            cfg,
            telemetry: tele,
            progress,
            run_span: Some(run_span),
            t0,
            system: system.clone(),
            nn_b_hidden: bench.nn_b_hidden.clone(),
            lambda_spec: bench.lambda_spec.clone(),
            inclusion,
            closed_nominal,
            closed_robust,
            learner,
            sets,
            batch,
            t_learn: Duration::ZERO,
            t_cex: Duration::ZERO,
            t_verify: Duration::ZERO,
            best_margin: f64::NEG_INFINITY,
            plateau: 0,
            rounds: 0,
            terminal: None,
        })
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The engine's configuration.
    pub fn config(&self) -> &SnbcConfig {
        &self.cfg
    }

    /// The §3 controller abstraction this engine verifies against.
    pub fn inclusion(&self) -> &PolynomialInclusion {
        &self.inclusion
    }

    /// Whether a terminal status has been reached.
    pub fn is_finished(&self) -> bool {
        self.terminal.is_some()
    }

    /// Closes the run (telemetry span included) and pins the terminal status.
    fn finish(&mut self, status: CegisStatus) -> CegisStatus {
        self.run_span = None;
        self.terminal = Some(status.clone());
        status
    }

    /// Executes one CEGIS round (steps 3–9 of Algorithm 1) and returns the
    /// resulting status. Terminal statuses are sticky — calling `step` on a
    /// finished engine returns the same status again without doing work.
    pub fn step(&mut self) -> CegisStatus {
        if let Some(t) = &self.terminal {
            return t.clone();
        }
        let tele = self.telemetry.clone();
        let iter = self.rounds + 1;
        if iter > self.cfg.max_iterations {
            if tele.is_recording() {
                tele.add("iterations", self.cfg.max_iterations as u64);
                tele.flag("certified", false);
            }
            if self.progress.is_on() {
                self.progress.emit(snbc_metrics::ProgressEvent::Round {
                    round: self.rounds as u64,
                    status: "exhausted".to_string(),
                });
            }
            return self.finish(CegisStatus::Exhausted {
                iterations: self.cfg.max_iterations,
                best_margin: self.best_margin,
            });
        }
        if self.t0.elapsed() > self.cfg.time_limit {
            if tele.is_recording() {
                tele.add("iterations", (iter - 1) as u64);
                tele.flag("certified", false);
            }
            if self.progress.is_on() {
                // Wall-clock trips are environment-dependent by nature, so
                // this event only ever appears in solo (one-shot) streams:
                // the portfolio racer neutralizes `time_limit` entirely.
                self.progress.emit(snbc_metrics::ProgressEvent::Round {
                    round: self.rounds as u64,
                    status: "timed-out".to_string(),
                });
            }
            let elapsed = self.t0.elapsed().as_secs_f64();
            return self.finish(CegisStatus::TimedOut { elapsed });
        }
        let round_span = tele.span_indexed("round", iter as u64);

        // Learner (step 3 / step 9).
        let tl = Stopwatch::start();
        let loss = self
            .learner
            .train(&self.closed_robust, self.inclusion.sigma_star, &self.sets);
        self.t_learn += tl.elapsed();
        if self.progress.is_on() {
            self.progress.emit(snbc_metrics::ProgressEvent::LearnEpoch {
                round: iter as u64,
                loss,
            });
        }
        let b = self.learner.barrier_polynomial().prune(1e-9);

        // Verifier (step 5). The multiplier degree follows the
        // benchmark's NN_λ(x) specification (Table 1): a constant
        // multiplier shrinks the flow certificate's basis — for the
        // high-dimensional rows this is the difference between a
        // 105-row and a 2380-row SDP.
        let mut vcfg = self.cfg.verifier.clone();
        if matches!(self.lambda_spec, LambdaSpec::Constant) {
            vcfg.lambda_degree = vcfg.lambda_degree.min(0);
        }
        let outcome = Verifier::new(&self.system, &self.inclusion, vcfg).verify(&b);
        self.t_verify += outcome.total_time();
        for (rung, cond) in [
            ("init", &outcome.init),
            ("unsafe", &outcome.unsafe_),
            ("flow", &outcome.flow),
        ] {
            if self.progress.is_on() {
                self.progress.emit(snbc_metrics::ProgressEvent::VerifyRung {
                    round: iter as u64,
                    rung: rung.to_string(),
                    feasible: cond.feasible,
                    margin: cond.margin,
                });
            }
        }

        if outcome.is_certified() {
            let lambda = outcome
                .flow
                .lambda
                .clone()
                .expect("feasible flow problem returns lambda");
            drop(round_span);
            if tele.is_recording() {
                tele.add("iterations", iter as u64);
                tele.flag("certified", true);
            }
            if self.progress.is_on() {
                self.progress.emit(snbc_metrics::ProgressEvent::Round {
                    round: iter as u64,
                    status: "certified".to_string(),
                });
            }
            self.rounds = iter;
            let result = SnbcResult {
                barrier: b,
                lambda,
                inclusion: self.inclusion.clone(),
                verification: outcome,
                iterations: iter,
                t_learn: self.t_learn,
                t_cex: self.t_cex,
                t_verify: self.t_verify,
                t_total: self.t0.elapsed(),
            };
            return self.finish(CegisStatus::Certified(Box::new(result)));
        }
        self.best_margin = self.best_margin.max(
            outcome
                .init
                .margin
                .min(outcome.unsafe_.margin)
                .min(outcome.flow.margin),
        );

        // Counterexamples (steps 7–8).
        let tc = Stopwatch::start();
        let cex_span = tele.span("cex");
        let mut added = self.feed_counterexamples(&outcome, &b, iter);
        let mut oracle_boxes = None;
        if added == 0 {
            // Gradient ascent found no violating sample although SOS
            // verification failed: fall back to the δ-complete interval
            // oracle, which finds true violations (or certifies there are
            // none, in which case the failure is a relaxation gap and
            // fresh samples sharpen the candidate's margins).
            let (points, boxes) = self.interval_counterexamples(&outcome, &b);
            added = points;
            oracle_boxes = Some(boxes);
        }
        if tele.is_recording() {
            tele.add("points", added as u64);
            tele.flag("interval_fallback", oracle_boxes.is_some());
        }
        // A plateau round (nothing added even by the oracle) counts toward
        // a restart of the learner in a fresh basin.
        self.plateau = if added == 0 { self.plateau + 1 } else { 0 };
        let reseed = added == 0 && self.plateau >= self.cfg.reseed_after_plateau;
        if self.progress.is_on() {
            self.progress.emit(snbc_metrics::ProgressEvent::Cex {
                round: iter as u64,
                points: added as u64,
                fallback: oracle_boxes.map(|boxes| snbc_metrics::CexFallback { boxes, reseed }),
            });
        }
        drop(cex_span);
        self.t_cex += tc.elapsed();
        if reseed {
            // Relaxation-gap plateau: restart the learner in a fresh
            // basin (new initialization + fresh samples).
            self.plateau = 0;
            tele.add("reseeds", 1);
            let n = self.system.nvars();
            let seed = self.cfg.seed + 1000 * iter as u64;
            let b_net = QuadraticNet::new(n, &self.nn_b_hidden, seed);
            let lambda_net = match &self.lambda_spec {
                LambdaSpec::Constant => MultiplierNet::constant(-0.5),
                LambdaSpec::Linear(hidden) => MultiplierNet::linear(n, hidden, seed + 1),
            };
            self.learner = Learner::new(b_net, lambda_net, self.cfg.learner.clone());
            self.sets = TrainingSets::sample(&self.system, self.batch, seed + 2);
            if n >= 6 {
                warm_start_lyapunov(
                    &mut self.learner,
                    &self.system,
                    &self.closed_nominal,
                    &self.sets,
                );
            }
        } else if added == 0 {
            let extra = TrainingSets::sample(
                &self.system,
                self.cfg.batch / 4,
                self.cfg.seed + 100 + iter as u64,
            );
            self.sets.init.extend(extra.init);
            self.sets.unsafe_.extend(extra.unsafe_);
            self.sets.domain.extend(extra.domain);
        }
        self.rounds = iter;
        if self.progress.is_on() {
            self.progress.emit(snbc_metrics::ProgressEvent::Round {
                round: iter as u64,
                status: "in-progress".to_string(),
            });
        }
        CegisStatus::InProgress
    }

    /// Generates counterexamples for every failed condition and pushes them
    /// into the training sets; returns the number of points added.
    fn feed_counterexamples(
        &mut self,
        outcome: &VerificationOutcome,
        b: &Polynomial,
        iter: usize,
    ) -> usize {
        let mut cfg = self.cfg.cex.clone();
        cfg.seed = self.cfg.cex.seed + iter as u64;
        let system = &self.system;
        let mut added = 0;
        if !outcome.init.feasible {
            // Violation of (i): v = −B on Θ.
            let v = -b;
            if let Some(cex) = find_counterexample(&v, system.init(), ViolatedCondition::Init, &cfg)
            {
                added += cex.points.len();
                self.sets.init.extend(cex.points);
            }
        }
        if !outcome.unsafe_.feasible {
            // Violation of (ii): v = B on Ξ.
            if let Some(cex) =
                find_counterexample(b, system.unsafe_set(), ViolatedCondition::Unsafe, &cfg)
            {
                added += cex.points.len();
                self.sets.unsafe_.extend(cex.points);
            }
        }
        if !outcome.flow.feasible {
            // Violation of (iii): v = −(L_f B − λ̃B) over Ψ × [−σ*, σ*] with
            // the learned λ̃ — the search includes the error coordinate `w`,
            // which is dropped before feeding the point back to `S_D`.
            let v = flow_violation(b, &self.learner.lambda_polynomial(), &self.closed_robust);
            let ext = extended_domain(system, self.inclusion.sigma_star);
            if let Some(cex) = find_counterexample(&v, &ext, ViolatedCondition::Flow, &cfg) {
                let n = system.nvars();
                added += cex.points.len();
                self.sets
                    .domain
                    .extend(cex.points.into_iter().map(|mut p| {
                        p.truncate(n);
                        p
                    }));
            }
        }
        added
    }

    /// δ-complete fallback oracle: asks the interval verifier for concrete
    /// violations of each failed condition. Returns the points added and
    /// the boxes each query processed.
    fn interval_counterexamples(
        &mut self,
        outcome: &VerificationOutcome,
        b: &Polynomial,
    ) -> (usize, Vec<u64>) {
        use snbc_interval::{BranchAndBound, Interval, Verdict};
        let bb = BranchAndBound {
            delta: 1e-3,
            max_boxes: 200_000,
            ..Default::default()
        };
        let boxed = |set: &snbc_dynamics::SemiAlgebraicSet| -> Vec<Interval> {
            set.bounding_box()
                .iter()
                .map(|&(lo, hi)| Interval::new(lo, hi))
                .collect()
        };
        let system = &self.system;
        let mut added = 0;
        let mut boxes = Vec::new();
        if !outcome.init.feasible {
            let r = bb.check_at_least(b, &boxed(system.init()), system.init().polys(), 0.0);
            boxes.push(r.boxes_processed as u64);
            if let Verdict::Violated { witness, .. } = r.verdict {
                self.sets.init.push(witness);
                added += 1;
            }
        }
        if !outcome.unsafe_.feasible {
            let neg_b = -b;
            let r = bb.check_at_least(
                &neg_b,
                &boxed(system.unsafe_set()),
                system.unsafe_set().polys(),
                1e-12,
            );
            boxes.push(r.boxes_processed as u64);
            if let Verdict::Violated { witness, .. } = r.verdict {
                self.sets.unsafe_.push(witness);
                added += 1;
            }
        }
        if !outcome.flow.feasible {
            let lie = lie_derivative(b, &self.closed_robust);
            let lambda = self.learner.lambda_polynomial();
            let expr = &lie - &(&lambda * b);
            let mut dom = boxed(system.domain());
            let sigma = self.inclusion.sigma_star.max(1e-9);
            dom.push(Interval::new(-sigma, sigma));
            let r = bb.check_at_least(&expr, &dom, system.domain().polys(), 0.0);
            boxes.push(r.boxes_processed as u64);
            if let Verdict::Violated { mut witness, .. } = r.verdict {
                witness.truncate(system.nvars());
                self.sets.domain.push(witness);
                added += 1;
            }
        }
        (added, boxes)
    }
}

/// Seeds the learner with a Lyapunov-shaped candidate `β − xᵀPx`, where `P`
/// solves `AᵀP + PA = −I` for the linearized closed loop `A` — the canonical
/// member of the S-procedure-certifiable basin for contractive systems (the
/// high-dimensional Table 1 rows). Falls back to a sphere when the
/// linearization is not Hurwitz.
fn warm_start_lyapunov(
    learner: &mut Learner,
    system: &snbc_dynamics::Ccds,
    closed_nominal: &[Polynomial],
    sets: &TrainingSets,
) {
    let n = system.nvars();
    let quad: Polynomial = match lyapunov_quadratic(closed_nominal, n) {
        Some(p_mat) => {
            let mut q = Polynomial::zero();
            for i in 0..n {
                for j in 0..n {
                    // Sparse skip: exact zero means the entry is absent.
                    if p_mat[(i, j)] != 0.0 { // audit:allow(float-eq)
                        let m = snbc_poly::Monomial::var(i).mul(&snbc_poly::Monomial::var(j));
                        q.add_term(p_mat[(i, j)], m);
                    }
                }
            }
            q
        }
        None => {
            let mut q = Polynomial::zero();
            for i in 0..n {
                q.add_term(1.0, snbc_poly::Monomial::var(i).mul(&snbc_poly::Monomial::var(i)));
            }
            q
        }
    };
    // Level β: safely below the quadratic's value on Ξ, above it on Θ.
    let min_xi = sets
        .unsafe_
        .iter()
        .map(|x| quad.eval(x))
        .fold(f64::INFINITY, f64::min);
    let max_theta = sets
        .init
        .iter()
        .map(|x| quad.eval(x))
        .fold(0.0f64, f64::max);
    let beta = if min_xi > max_theta {
        0.5 * (min_xi + max_theta)
    } else {
        0.7 * min_xi
    };
    if !(beta > 0.0) {
        return; // degenerate geometry; leave the random initialization
    }
    // Normalize so B(0-ish) ≈ 1: target = 1 − quad/β.
    let target = &Polynomial::constant(1.0) - &quad.scale(1.0 / beta);
    let samples: Vec<Vec<f64>> = sets
        .domain
        .iter()
        .chain(&sets.init)
        .chain(&sets.unsafe_)
        .cloned()
        .collect();
    learner.warm_start(&target, &samples, 80);
}

/// Solves the Lyapunov equation `AᵀP + PA = −I` for the linear part `A` of
/// the closed-loop field (evaluated at the origin, `w = 0`), via the
/// Kronecker-vectorized `n² × n²` linear system. Returns `None` when the
/// system is singular (non-Hurwitz linearization).
fn lyapunov_quadratic(closed_nominal: &[Polynomial], n: usize) -> Option<snbc_linalg::Matrix> {
    use snbc_linalg::Matrix;
    // A[i][j] = coefficient of x_j in f_i (linear part only).
    let a = Matrix::from_fn(n, n, |i, j| {
        closed_nominal[i].coeff(&snbc_poly::Monomial::var(j))
    });
    // (Iⁿ ⊗ Aᵀ + Aᵀ ⊗ Iⁿ)·vec(P) = −vec(I), with vec column-major:
    // vec index (i, j) ↦ j·n + i.
    let dim = n * n;
    let mut big = Matrix::zeros(dim, dim);
    for i in 0..n {
        for j in 0..n {
            let row = j * n + i;
            // (AᵀP)_{ij} = Σ_k A_{ki} P_{kj}.
            for k in 0..n {
                big[(row, j * n + k)] += a[(k, i)];
                // (PA)_{ij} = Σ_k P_{ik} A_{kj}.
                big[(row, k * n + i)] += a[(k, j)];
            }
        }
    }
    let mut rhs = vec![0.0; dim];
    for i in 0..n {
        rhs[i * n + i] = -1.0;
    }
    let sol = big.solve(&rhs).ok()?;
    let mut p = Matrix::from_fn(n, n, |i, j| sol[j * n + i]);
    p.symmetrize();
    // Sanity: P must be positive definite for a Hurwitz A.
    if p.min_eigenvalue().ok()? <= 0.0 {
        return None;
    }
    Some(p)
}

/// The flow-violation polynomial `−(L_f B − λB)` over `(x, w)`.
fn flow_violation(b: &Polynomial, lambda: &Polynomial, closed_robust: &[Polynomial]) -> Polynomial {
    let lie = lie_derivative(b, closed_robust);
    -&(&lie - &(lambda * b))
}

/// The domain `Ψ` extended with the error coordinate `w ∈ [−σ*, σ*]`.
fn extended_domain(
    system: &snbc_dynamics::Ccds,
    sigma_star: f64,
) -> snbc_dynamics::SemiAlgebraicSet {
    let sigma = sigma_star.max(1e-9);
    let mut bounds = system.domain().bounding_box().to_vec();
    bounds.push((-sigma, sigma));
    snbc_dynamics::SemiAlgebraicSet::from_polys(system.domain().polys().to_vec(), &bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snbc_dynamics::benchmarks;
    use snbc_nn::{train_controller, ControllerTraining};

    /// End-to-end on the easiest 2-D benchmark; this is the crate's core
    /// acceptance test.
    #[test]
    fn synthesizes_certificate_for_c3() {
        let bench = benchmarks::benchmark(3);
        let controller = train_controller(
            bench.system.domain().bounding_box(),
            bench.target_law,
            &ControllerTraining {
                epochs: 300,
                ..Default::default()
            },
        );
        let cfg = SnbcConfig {
            max_iterations: 12,
            ..Default::default()
        };
        let result = Snbc::new(cfg).synthesize(&bench, &controller).expect("certificate");
        assert!(result.verification.is_certified());
        assert_eq!(result.barrier.nvars() <= 2, true);
        // The certificate separates: positive somewhere on Θ samples,
        // negative on Ξ samples.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for x in bench.system.init().sample(20, &mut rng) {
            assert!(result.barrier.eval(&x) >= -1e-6, "B < 0 on Θ at {x:?}");
        }
        for x in bench.system.unsafe_set().sample(20, &mut rng) {
            assert!(result.barrier.eval(&x) < 0.0, "B ≥ 0 on Ξ at {x:?}");
        }
    }

    /// The step-function exposes the same run round-by-round: stepping an
    /// engine to completion must produce the same certificate as the
    /// one-shot driver, and terminal statuses must be sticky.
    #[test]
    fn engine_steps_match_one_shot_synthesis() {
        let bench = benchmarks::benchmark(3);
        let controller = train_controller(
            bench.system.domain().bounding_box(),
            bench.target_law,
            &ControllerTraining {
                epochs: 300,
                ..Default::default()
            },
        );
        let cfg = SnbcConfig {
            max_iterations: 12,
            ..Default::default()
        };
        let one_shot = Snbc::new(cfg.clone())
            .synthesize(&bench, &controller)
            .expect("certificate");
        let mut engine = Snbc::new(cfg).engine(&bench, &controller).expect("engine");
        let stepped = loop {
            match engine.step() {
                CegisStatus::InProgress => {}
                CegisStatus::Certified(result) => break *result,
                other => panic!("expected certification, got {other:?}"),
            }
        };
        assert!(engine.is_finished());
        assert_eq!(stepped.iterations, one_shot.iterations);
        assert_eq!(engine.rounds(), stepped.iterations);
        assert_eq!(stepped.barrier, one_shot.barrier);
        assert_eq!(stepped.lambda, one_shot.lambda);
        // Sticky terminal: stepping again returns Certified without work.
        assert!(engine.step().is_certified());
    }
}
