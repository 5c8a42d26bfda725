use rand::Rng;
use rand::SeedableRng;
use snbc_poly::Polynomial;

/// The paper's *quadratic network* (§4.1, Fig. 2): hidden layers apply the
/// cross-product (Hadamard) activation
///
/// ```text
///     x⁽ˡ⁾ = (W₁⁽ˡ⁾ x⁽ˡ⁻¹⁾ + b₁⁽ˡ⁾) ⊗ (W₂⁽ˡ⁾ x⁽ˡ⁻¹⁾ + b₂⁽ˡ⁾),
/// ```
///
/// so with `l` hidden layers the scalar output is *exactly* a polynomial of
/// degree `2^l` in the input — interpretable by the SOS verifier without any
/// abstraction step. Compared to the classic square network
/// `σ(x) = (Wx + b)²` — the special case `W₂ = W₁`, `b₂ = b₁` — it doubles
/// the parameters at equal output degree, which is precisely the
/// fitting-capability argument of the paper.
///
/// # Example
///
/// ```
/// use snbc_nn::QuadraticNet;
///
/// // 2 inputs, one hidden layer of 5 ⇒ degree-2 polynomial output.
/// let net = QuadraticNet::new(2, &[5], 1);
/// assert!(net.to_polynomial().degree() <= 2);
/// ```
#[derive(Debug, Clone)]
pub struct QuadraticNet {
    input_dim: usize,
    hidden: Vec<usize>,
    /// Flat parameters: per hidden layer `W₁ | b₁ | W₂ | b₂` (row-major),
    /// then the linear output layer `W | b`.
    params: Vec<f64>,
}

impl QuadraticNet {
    /// Creates a randomly initialized quadratic network. `hidden` lists the
    /// hidden-layer widths (one entry per cross-product layer, so the output
    /// degree is `2^hidden.len()`).
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is empty or `input_dim == 0`.
    pub fn new(input_dim: usize, hidden: &[usize], seed: u64) -> Self {
        assert!(input_dim > 0, "input dimension must be positive");
        assert!(!hidden.is_empty(), "need at least one hidden layer");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut params = Vec::new();
        let mut fan_in = input_dim;
        for &h in hidden {
            let scale = (2.0 / (fan_in + h) as f64).sqrt();
            for _ in 0..2 * (fan_in * h + h) {
                params.push(rng.gen_range(-scale..scale));
            }
            fan_in = h;
        }
        // Output layer W (1 × fan_in) and bias.
        let scale = (2.0 / (fan_in + 1) as f64).sqrt();
        for _ in 0..fan_in {
            params.push(rng.gen_range(-scale..scale));
        }
        params.push(0.0);
        QuadraticNet {
            input_dim,
            hidden: hidden.to_vec(),
            params,
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden-layer widths.
    pub fn hidden_sizes(&self) -> &[usize] {
        &self.hidden
    }

    /// Degree of the output polynomial (`2^l` for `l` hidden layers).
    pub fn output_degree(&self) -> u32 {
        1u32 << self.hidden.len()
    }

    /// Flat parameter vector.
    pub fn params(&self) -> &[f64] {
        &self.params
    }

    /// Overwrites the flat parameter vector.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.params.len(), "parameter length mismatch");
        self.params.copy_from_slice(params);
    }

    /// Number of parameters.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Scalar forward pass.
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch.
    pub fn forward(&self, x: &[f64]) -> f64 {
        let mut scratch = vec![0.0; self.scratch_len(0)];
        let mut out = [0.0];
        self.eval(&self.params, x, &[], &mut scratch, &mut out);
        out[0]
    }

    /// Length of the scratch buffer [`QuadraticNet::eval`] and
    /// [`QuadraticNet::back_prop`] need when carrying `tangents` directional
    /// derivatives: the two factors and the product of every hidden neuron
    /// per channel, then two adjoint rows of the widest layer.
    pub fn scratch_len(&self, tangents: usize) -> usize {
        let m = 1 + tangents;
        let widest = self.hidden.iter().copied().fold(self.input_dim, usize::max);
        3 * m * self.hidden.iter().sum::<usize>() + 2 * m * widest
    }

    /// Forward pass under the flat weights `w` (same layout as
    /// [`QuadraticNet::params`]) carrying the value and one channel per
    /// tangent: `out[0] = B(x)` and `out[1 + k] = ∇B(x)·tangents[k]`, the
    /// layer-by-layer chain rule of formula (9). A cross-product neuron
    /// `p = u·v` with `u = W₁a + b₁`, `v = W₂a + b₂` maps tangent channels
    /// `(u̇, v̇)` to `ṗ = u̇·v + u·v̇`. `scratch` (at least
    /// [`QuadraticNet::scratch_len`]`(tangents.len())` long) keeps the
    /// per-layer factors for [`QuadraticNet::back_prop`].
    ///
    /// # Panics
    ///
    /// Panics on weight, input, tangent, scratch or output length mismatch.
    // audit:hot
    pub fn eval(
        &self,
        w: &[f64],
        x: &[f64],
        tangents: &[&[f64]],
        scratch: &mut [f64],
        out: &mut [f64],
    ) {
        let m = 1 + tangents.len();
        assert_eq!(w.len(), self.params.len(), "parameter count mismatch");
        assert_eq!(x.len(), self.input_dim, "input dimension mismatch");
        assert!(tangents.iter().all(|t| t.len() == self.input_dim), "tangent dimension mismatch");
        assert!(scratch.len() >= self.scratch_len(tangents.len()), "scratch too short");
        assert_eq!(out.len(), m, "output length mismatch");
        let mut off = 0;
        let mut base = 0;
        let mut fan_in = self.input_dim;
        for (l, &h) in self.hidden.iter().enumerate() {
            let (w1, b1) = (off, off + fan_in * h);
            let (w2, b2) = (b1 + h, b1 + h + fan_in * h);
            // Layer block: u (m·h) | v (m·h) | p (m·h); the previous layer's
            // p block ends exactly at `base`.
            let (done, cur) = scratch.split_at_mut(base);
            let (u, rest) = cur.split_at_mut(m * h);
            let (v, rest) = rest.split_at_mut(m * h);
            let p = &mut rest[..m * h];
            for c in 0..m {
                let inp: &[f64] = match (l, c) {
                    (0, 0) => x,
                    (0, _) => tangents[c - 1],
                    _ => &done[base - m * fan_in + c * fan_in..][..fan_in],
                };
                for o in 0..h {
                    let (mut uo, mut vo) = if c == 0 { (w[b1 + o], w[b2 + o]) } else { (0.0, 0.0) };
                    let r1 = &w[w1 + o * fan_in..][..fan_in];
                    let r2 = &w[w2 + o * fan_in..][..fan_in];
                    for ((a, p1), p2) in inp.iter().zip(r1).zip(r2) {
                        uo += p1 * a;
                        vo += p2 * a;
                    }
                    u[c * h + o] = uo;
                    v[c * h + o] = vo;
                }
            }
            for o in 0..h {
                p[o] = u[o] * v[o];
                for c in 1..m {
                    p[c * h + o] = u[c * h + o] * v[o] + u[o] * v[c * h + o];
                }
            }
            off = b2 + h;
            base += 3 * m * h;
            fan_in = h;
        }
        let p = &scratch[base - m * fan_in..base];
        let wout = &w[off..off + fan_in];
        for (c, o) in out.iter_mut().enumerate() {
            let mut acc = if c == 0 { w[off + fan_in] } else { 0.0 };
            for (wi, pi) in wout.iter().zip(&p[c * fan_in..(c + 1) * fan_in]) {
                acc += wi * pi;
            }
            *o = acc;
        }
    }

    /// Reverse pass of [`QuadraticNet::eval`]: given the adjoints `adj` of
    /// its outputs (`adj[0]` for `B`, `adj[1 + k]` for tangent `k`), adds
    /// `Σ_c adj[c]·∂out[c]/∂w` into `grad`. `w`, `x`, `tangents` and
    /// `scratch` must be exactly those of the preceding `eval`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    // audit:hot
    pub fn back_prop(
        &self,
        w: &[f64],
        x: &[f64],
        tangents: &[&[f64]],
        scratch: &mut [f64],
        adj: &[f64],
        grad: &mut [f64],
    ) {
        let m = 1 + tangents.len();
        assert_eq!(adj.len(), m, "adjoint length mismatch");
        assert_eq!(grad.len(), self.params.len(), "gradient length mismatch");
        assert!(scratch.len() >= self.scratch_len(tangents.len()), "scratch too short");
        let widest = self.hidden.iter().copied().fold(self.input_dim, usize::max);
        let state_len = 3 * m * self.hidden.iter().sum::<usize>();
        let (state, work) = scratch.split_at_mut(state_len);
        let (mut pbar, rest) = work.split_at_mut(m * widest);
        let mut abar = &mut rest[..m * widest];

        // Output layer: out[c] = b + Σᵢ wᵢ·p[c][i].
        let last = *self.hidden.last().expect("at least one hidden layer");
        let mut off = self.params.len() - last - 1;
        grad[off + last] += adj[0];
        let p = &state[state_len - m * last..];
        for i in 0..last {
            let mut g = 0.0;
            for c in 0..m {
                g += adj[c] * p[c * last + i];
                pbar[c * last + i] = adj[c] * w[off + i];
            }
            grad[off + i] += g;
        }

        let mut base = state_len;
        for l in (0..self.hidden.len()).rev() {
            let h = self.hidden[l];
            let fan_in = if l == 0 { self.input_dim } else { self.hidden[l - 1] };
            base -= 3 * m * h;
            off -= 2 * (fan_in * h + h);
            let (w1, b1) = (off, off + fan_in * h);
            let (w2, b2) = (b1 + h, b1 + h + fan_in * h);
            let u = &state[base..base + m * h];
            let v = &state[base + m * h..base + 2 * m * h];
            abar[..m * fan_in].fill(0.0);
            for o in 0..h {
                // p₀ = u₀v₀, p_c = u_c·v₀ + u₀·v_c ⇒ the factor adjoints.
                let (u0, v0) = (u[o], v[o]);
                let mut ub0 = pbar[o] * v0;
                let mut vb0 = pbar[o] * u0;
                for c in 1..m {
                    ub0 += pbar[c * h + o] * v[c * h + o];
                    vb0 += pbar[c * h + o] * u[c * h + o];
                }
                grad[b1 + o] += ub0;
                grad[b2 + o] += vb0;
                for c in 0..m {
                    let (ub, vb) = if c == 0 {
                        (ub0, vb0)
                    } else {
                        (pbar[c * h + o] * v0, pbar[c * h + o] * u0)
                    };
                    let inp: &[f64] = match (l, c) {
                        (0, 0) => x,
                        (0, _) => tangents[c - 1],
                        _ => &state[base - m * fan_in + c * fan_in..][..fan_in],
                    };
                    for i in 0..fan_in {
                        grad[w1 + o * fan_in + i] += ub * inp[i];
                        grad[w2 + o * fan_in + i] += vb * inp[i];
                    }
                    if l > 0 {
                        let row = &mut abar[c * fan_in..(c + 1) * fan_in];
                        for (i, r) in row.iter_mut().enumerate() {
                            *r += ub * w[w1 + o * fan_in + i] + vb * w[w2 + o * fan_in + i];
                        }
                    }
                }
            }
            std::mem::swap(&mut pbar, &mut abar);
        }
    }

    /// Adds the parameter gradient of the squared-error fit
    /// `Σₛ (B(xₛ) − yₛ)²` under the weights `w` into `grad` and returns the
    /// fit's value. `scratch` needs [`QuadraticNet::scratch_len`]`(0)`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` and `targets` differ in length, or on the
    /// length mismatches of [`QuadraticNet::eval`].
    pub fn mse_gradient(
        &self,
        w: &[f64],
        samples: &[Vec<f64>],
        targets: &[f64],
        scratch: &mut [f64],
        grad: &mut [f64],
    ) -> f64 {
        assert_eq!(samples.len(), targets.len(), "sample/target count mismatch");
        let mut loss = 0.0;
        let mut out = [0.0];
        for (x, &y) in samples.iter().zip(targets) {
            self.eval(w, x, &[], scratch, &mut out);
            let e = out[0] - y;
            loss += e * e;
            self.back_prop(w, x, &[], scratch, &[e + e], grad);
        }
        loss
    }

    /// Extracts the output as an explicit [`Polynomial`] by pushing symbolic
    /// coordinates through the layers — the step that hands the learned
    /// candidate `B(x)` to the SOS verifier.
    pub fn to_polynomial(&self) -> Polynomial {
        let mut act: Vec<Polynomial> = (0..self.input_dim).map(Polynomial::var).collect();
        let mut offset = 0;
        for &h in &self.hidden {
            let fan_in = act.len();
            let w1 = offset;
            let b1 = w1 + fan_in * h;
            let w2 = b1 + h;
            let b2 = w2 + fan_in * h;
            let mut next = Vec::with_capacity(h);
            for o in 0..h {
                let mut a1 = Polynomial::constant(self.params[b1 + o]);
                let mut a2 = Polynomial::constant(self.params[b2 + o]);
                for (i, a) in act.iter().enumerate() {
                    a1 += &a.scale(self.params[w1 + o * fan_in + i]);
                    a2 += &a.scale(self.params[w2 + o * fan_in + i]);
                }
                next.push(&a1 * &a2);
            }
            offset = b2 + h;
            act = next;
        }
        let w = offset;
        let b = w + act.len();
        let mut out = Polynomial::constant(self.params[b]);
        for (i, a) in act.iter().enumerate() {
            out += &a.scale(self.params[w + i]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Adam;
    use proptest::prop_assert;

    #[test]
    fn polynomial_matches_forward_on_grid() {
        for layers in [vec![4usize], vec![3, 2]] {
            let net = QuadraticNet::new(2, &layers, 5);
            let p = net.to_polynomial();
            assert!(p.degree() <= net.output_degree());
            for i in -2..=2 {
                for j in -2..=2 {
                    let x = [i as f64 * 0.37, j as f64 * 0.59];
                    assert!(
                        (net.forward(&x) - p.eval(&x)).abs() < 1e-9,
                        "mismatch at {x:?} for layers {layers:?}"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// `eval`'s value and tangent channels agree with the extracted
        /// polynomial and its symbolic Lie derivative, at depth 1 and 2, for
        /// a field `f(x, w)` taken at both error extremes `w = ∓σ`.
        #[test]
        fn eval_matches_polynomial_lie_derivative(
            seed in 0u64..1000,
            x in proptest::collection::vec(-1.0f64..1.0, 3),
            sigma in 0.0f64..0.5,
        ) {
            // w sits in slot 3, as in `Ccds::close_loop_with_error`.
            let field: Vec<Polynomial> = ["x1 + x3", "-x0 - x2^2", "x0*x1 - 2*x3"]
                .iter()
                .map(|f| f.parse().expect("field"))
                .collect();
            let at = |w: f64| [x[0], x[1], x[2], w];
            let f_lo: Vec<f64> = field.iter().map(|f| f.eval(&at(-sigma))).collect();
            let f_hi: Vec<f64> = field.iter().map(|f| f.eval(&at(sigma))).collect();
            for hidden in [vec![4usize], vec![3, 2]] {
                let net = QuadraticNet::new(3, &hidden, seed);
                let p = net.to_polynomial();
                let lie = snbc_poly::lie_derivative(&p, &field);
                let want = [p.eval(&x), lie.eval(&at(-sigma)), lie.eval(&at(sigma))];
                let mut scratch = vec![0.0; net.scratch_len(2)];
                let mut out = [0.0; 3];
                net.eval(net.params(), &x, &[&f_lo, &f_hi], &mut scratch, &mut out);
                for (got, want) in out.iter().zip(&want) {
                    prop_assert!(
                        (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                        "hidden {hidden:?}: eval {got} vs polynomial {want}"
                    );
                }
            }
        }
    }

    /// Fits `net` to `targets` by the warm start's analytic MSE descent
    /// (Adam at 0.05, 400 full-batch steps) and returns the final mean
    /// squared error. With `tied`, the second cross-product half is pinned
    /// to the first (`W₂ = W₁`, `b₂ = b₁`), so every neuron is the square
    /// `(W₁x + b₁)²` of the classic square network; the two halves'
    /// gradients are summed onto the shared weights.
    fn fit(net: &QuadraticNet, samples: &[Vec<f64>], targets: &[f64], tied: bool) -> f64 {
        let h = net.hidden_sizes()[0];
        let half = net.input_dim() * h + h;
        let all = net.params();
        let expand = |free: &[f64]| -> Vec<f64> {
            if tied {
                [&free[..half], free].concat()
            } else {
                free.to_vec()
            }
        };
        let mut free = if tied {
            [&all[..half], &all[2 * half..]].concat()
        } else {
            all.to_vec()
        };
        let mut opt = Adam::new(free.len(), 0.05);
        let mut scratch = vec![0.0; net.scratch_len(0)];
        let mut grad = vec![0.0; net.num_params()];
        let mut free_grad = vec![0.0; free.len()];
        for _ in 0..400 {
            grad.fill(0.0);
            net.mse_gradient(&expand(&free), samples, targets, &mut scratch, &mut grad);
            if tied {
                for k in 0..half {
                    free_grad[k] = grad[k] + grad[half + k];
                }
                free_grad[half..].copy_from_slice(&grad[2 * half..]);
            } else {
                free_grad.copy_from_slice(&grad);
            }
            opt.step(&mut free, &free_grad);
        }
        grad.fill(0.0);
        let sse = net.mse_gradient(&expand(&free), samples, targets, &mut scratch, &mut grad);
        sse / samples.len() as f64
    }

    /// The paper's fitting-capability claim (§4.1), measured where it is
    /// provable: with a single hidden neuron, the square net can only
    /// express `w·(aᵀx + b)² + c` — a rank-1 quadratic — while the
    /// cross-product neuron expresses `(a₁ᵀx + b₁)(a₂ᵀx + b₂)`, a rank-2
    /// (indefinite) form. The saddle `x·y` is exactly representable by the
    /// latter and provably not by the former.
    #[test]
    fn quadratic_net_fits_saddles_better() {
        let target = |x: &[f64]| x[0] * x[1] - 0.3 * x[0] + 0.1;
        let samples: Vec<Vec<f64>> = (0..120)
            .map(|i| {
                let a = -1.0 + 2.0 * (i % 11) as f64 / 10.0;
                let b = -1.0 + 2.0 * (i / 11) as f64 / 10.0;
                vec![a, b]
            })
            .collect();
        let targets: Vec<f64> = samples.iter().map(|x| target(x)).collect();
        // Best of three seeds each, to dodge unlucky initializations.
        let best = |tied: bool| {
            (0..3)
                .map(|seed| fit(&QuadraticNet::new(2, &[1], seed), &samples, &targets, tied))
                .fold(f64::INFINITY, f64::min)
        };
        let (q, s) = (best(false), best(true));
        assert!(
            q < 0.2 * s,
            "quadratic net (mse {q:.2e}) should decisively out-fit the square net (mse {s:.2e})"
        );
    }

    #[test]
    fn two_layer_network_has_degree_four() {
        let net = QuadraticNet::new(2, &[3, 2], 21);
        assert_eq!(net.output_degree(), 4);
        let p = net.to_polynomial();
        assert!(p.degree() <= 4);
        assert!(p.degree() >= 3, "random init should produce high-degree terms");
    }

    #[test]
    fn parameter_roundtrip() {
        let mut net = QuadraticNet::new(2, &[2], 1);
        let mut p = net.params().to_vec();
        p[0] = 42.0;
        net.set_params(&p);
        assert_eq!(net.params()[0], 42.0);
    }
}
