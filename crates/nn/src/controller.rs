use rand::Rng;
use rand::SeedableRng;

use crate::{Activation, Adam, Mlp};

/// Configuration for supervised controller pre-training.
///
/// The paper obtains its NN controllers with DDPG reinforcement learning; the
/// synthesis pipeline only consumes the resulting *fixed* network. Here
/// controllers are produced by regressing an MLP onto a hand-designed
/// stabilizing feedback law `u*(x)` over the system domain — the substitution
/// is documented in DESIGN.md and preserves everything the pipeline sees: a
/// fixed tanh network of the published shape.
#[derive(Debug, Clone)]
pub struct ControllerTraining {
    /// Hidden-layer widths of the controller MLP.
    pub hidden: Vec<usize>,
    /// Training epochs (full-batch Adam steps).
    pub epochs: usize,
    /// Points sampled uniformly from the domain box.
    pub samples: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// RNG seed (controller initialization and sample draw).
    pub seed: u64,
    /// L2 regularization on the weights. Keeps the tanh units in their
    /// near-linear regime, which both mirrors the smoothness of RL-trained
    /// policies and keeps the verified abstraction error of §3 small.
    pub weight_decay: f64,
}

impl Default for ControllerTraining {
    fn default() -> Self {
        ControllerTraining {
            hidden: vec![10],
            epochs: 400,
            samples: 256,
            learning_rate: 0.02,
            seed: 7,
            weight_decay: 2e-3,
        }
    }
}

/// Trains a tanh MLP controller to imitate the target feedback law `target`
/// over the box `domain = [(lo, hi); n]`, returning the fitted network.
///
/// # Panics
///
/// Panics if `domain` is empty or a bound pair is inverted.
///
/// # Example
///
/// ```
/// use snbc_nn::{train_controller, ControllerTraining};
///
/// // Imitate u*(x) = −2x on [−1, 1].
/// let cfg = ControllerTraining { epochs: 300, ..Default::default() };
/// let net = train_controller(&[(-1.0, 1.0)], |x| -2.0 * x[0], &cfg);
/// let err = (net.forward(&[0.5]) + 1.0).abs();
/// assert!(err < 0.2, "fit error {err}");
/// ```
pub fn train_controller(
    domain: &[(f64, f64)],
    target: impl Fn(&[f64]) -> f64,
    cfg: &ControllerTraining,
) -> Mlp {
    assert!(!domain.is_empty(), "empty domain");
    for &(lo, hi) in domain {
        assert!(lo <= hi, "inverted domain bound [{lo}, {hi}]");
    }
    let n = domain.len();
    let mut sizes = vec![n];
    sizes.extend_from_slice(&cfg.hidden);
    sizes.push(1);
    let mut net = Mlp::new(&sizes, Activation::Tanh, cfg.seed);

    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed.wrapping_add(1));
    let xs: Vec<Vec<f64>> = (0..cfg.samples)
        .map(|_| {
            domain
                .iter()
                .map(|&(lo, hi)| rng.gen_range(lo..=hi))
                .collect()
        })
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| target(x)).collect();

    let mut opt = Adam::new(net.num_params(), cfg.learning_rate);
    let mut params = net.params().to_vec();
    let mut grad = vec![0.0; params.len()];
    let mut scratch = vec![0.0; net.scratch_len()];
    for _ in 0..cfg.epochs {
        grad.fill(0.0);
        mse_gradient(&net, &params, &xs, &ys, cfg.weight_decay, &mut scratch, &mut grad);
        opt.step(&mut params, &grad);
    }
    net.set_params(&params);
    net
}

/// The controller fit's loss `(1/N)·Σ (k(x) − y)² + wd·Σ θ²` under the
/// weights `w`; its parameter gradient is added into `grad`.
fn mse_gradient(
    net: &Mlp,
    w: &[f64],
    xs: &[Vec<f64>],
    ys: &[f64],
    weight_decay: f64,
    scratch: &mut [f64],
    grad: &mut [f64],
) -> f64 {
    let scale = 1.0 / xs.len() as f64;
    let mut loss = 0.0;
    for (x, &y) in xs.iter().zip(ys) {
        let e = net.eval(w, x, scratch) - y;
        loss += e * e;
        net.back_prop(w, x, scratch, scale * (e + e), grad);
    }
    loss *= scale;
    if weight_decay > 0.0 {
        let mut reg = 0.0;
        for (g, &p) in grad.iter_mut().zip(w) {
            reg += p * p;
            *g += weight_decay * (p + p);
        }
        loss += weight_decay * reg;
    }
    loss
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prop_assert;

    #[test]
    fn fits_linear_law_in_two_dims() {
        let cfg = ControllerTraining {
            epochs: 500,
            samples: 128,
            ..Default::default()
        };
        let net = train_controller(&[(-1.0, 1.0), (-1.0, 1.0)], |x| -x[0] - 0.5 * x[1], &cfg);
        let mut worst: f64 = 0.0;
        for i in -2..=2 {
            for j in -2..=2 {
                let x = [i as f64 * 0.4, j as f64 * 0.4];
                let want = -x[0] - 0.5 * x[1];
                worst = worst.max((net.forward(&x) - want).abs());
            }
        }
        assert!(worst < 0.25, "worst fit error {worst}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(32))]

        /// The controller fit's analytic gradient agrees with central finite
        /// differences of the same loss computed from plain forward passes.
        #[test]
        fn mse_gradient_matches_finite_differences(
            seed in 0u64..1000,
            activation in 0usize..3,
            xs in proptest::collection::vec(proptest::collection::vec(-1.0f64..1.0, 2), 10),
            shift in proptest::collection::vec(-0.5f64..0.5, 37),
        ) {
            let act = [Activation::Tanh, Activation::Relu, Activation::LeakyRelu(0.1)][activation];
            // Shifted off the zero-bias initialization, so no ReLU sits
            // exactly on its kink, where a central difference is one-sided.
            let mut net = Mlp::new(&[2, 5, 3, 1], act, seed);
            let w: Vec<f64> = net.params().iter().zip(&shift).map(|(p, s)| p + s).collect();
            net.set_params(&w);
            let ys: Vec<f64> = xs.iter().map(|x| -x[0] - 0.5 * x[1]).collect();
            let wd = 2e-3;
            let plain_loss = |w: &[f64]| {
                let mut probe = net.clone();
                probe.set_params(w);
                let fit: f64 =
                    xs.iter().zip(&ys).map(|(x, y)| (probe.forward(x) - y).powi(2)).sum();
                fit / xs.len() as f64 + wd * w.iter().map(|p| p * p).sum::<f64>()
            };
            let mut grad = vec![0.0; net.num_params()];
            let mut scratch = vec![0.0; net.scratch_len()];
            let loss = mse_gradient(&net, net.params(), &xs, &ys, wd, &mut scratch, &mut grad);
            let want = plain_loss(net.params());
            prop_assert!((loss - want).abs() <= 1e-12 * want.max(1.0), "loss {loss} vs {want}");
            let h = 1e-6;
            for (k, g) in grad.iter().enumerate() {
                let mut p = net.params().to_vec();
                p[k] += h;
                let plus = plain_loss(&p);
                p[k] -= 2.0 * h;
                let fd = (plus - plain_loss(&p)) / (2.0 * h);
                prop_assert!(
                    (g - fd).abs() <= 1e-6 * fd.abs().max(1.0),
                    "{act:?} param {k}: analytic {g} vs finite difference {fd}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn empty_domain_panics() {
        let _ = train_controller(&[], |_| 0.0, &ControllerTraining::default());
    }
}
