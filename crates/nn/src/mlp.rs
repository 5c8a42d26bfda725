use rand::Rng;
use snbc_linalg::Matrix;

/// Activation function of an [`Mlp`] hidden layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// Hyperbolic tangent (the paper's controller networks).
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with the given negative-side slope.
    LeakyRelu(f64),
    /// Identity (linear layer).
    Linear,
}

impl Activation {
    fn activate(self, x: f64) -> f64 {
        match self {
            Activation::Tanh => x.tanh(),
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu(s) => {
                if x > 0.0 {
                    x
                } else {
                    s * x
                }
            }
            Activation::Linear => x,
        }
    }

    /// Derivative at pre-activation `z` with value `a = activate(z)`. The
    /// piecewise-linear units take their `z > 0` slope only for `z > 0`.
    fn slope(self, z: f64, a: f64) -> f64 {
        match self {
            Activation::Tanh => 1.0 - a * a,
            Activation::Relu => {
                if z > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu(s) => {
                if z > 0.0 {
                    1.0
                } else {
                    s
                }
            }
            Activation::Linear => 1.0,
        }
    }

    /// A Lipschitz constant of the scalar activation.
    pub fn lipschitz(self) -> f64 {
        match self {
            Activation::Tanh | Activation::Relu | Activation::Linear => 1.0,
            Activation::LeakyRelu(s) => s.abs().max(1.0),
        }
    }
}

/// A dense feed-forward network with a single (scalar) output — the NN
/// controller `k(x)` of the paper.
///
/// Parameters are stored as a flat vector (row-major weights then biases per
/// layer) so optimizers and the [`Mlp::eval`]/[`Mlp::back_prop`] kernels can
/// address them uniformly.
///
/// # Example
///
/// ```
/// use snbc_nn::{Activation, Mlp};
///
/// let net = Mlp::new(&[2, 8, 1], Activation::Tanh, 42);
/// let y = net.forward(&[0.1, -0.2]);
/// assert!(y.is_finite());
/// assert!(net.lipschitz_bound() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    /// Layer widths, input first, output last.
    layer_sizes: Vec<usize>,
    activation: Activation,
    params: Vec<f64>,
}

impl Mlp {
    /// Creates a network with Xavier-style random initialization from the
    /// given seed.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two layer sizes are given or the output width is
    /// not 1.
    pub fn new(layer_sizes: &[usize], activation: Activation, seed: u64) -> Self {
        assert!(layer_sizes.len() >= 2, "need at least input and output layer");
        assert_eq!(
            *layer_sizes.last().expect("non-empty"),
            1,
            "only single-output controllers are modeled (cf. §3 of the paper)"
        );
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut params = Vec::new();
        for w in layer_sizes.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            let scale = (2.0 / (fan_in + fan_out) as f64).sqrt();
            for _ in 0..fan_in * fan_out {
                params.push(rng.gen_range(-scale..scale));
            }
            for _ in 0..fan_out {
                params.push(0.0);
            }
        }
        Mlp {
            layer_sizes: layer_sizes.to_vec(),
            activation,
            params,
        }
    }

    /// Layer widths.
    pub fn layer_sizes(&self) -> &[usize] {
        &self.layer_sizes
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layer_sizes[0]
    }

    /// Hidden-layer activation.
    pub fn activation(&self) -> Activation {
        self.activation
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
    /// Panics if `x.len()` differs from the input dimension.
    pub fn forward(&self, x: &[f64]) -> f64 {
        let mut scratch = vec![0.0; self.scratch_len()];
        self.eval(&self.params, x, &mut scratch)
    }

    /// Length of the scratch buffer [`Mlp::eval`] and [`Mlp::back_prop`]
    /// need: every layer's pre-activations and outputs, then two adjoint
    /// rows of the widest layer.
    pub fn scratch_len(&self) -> usize {
        let widest = self.layer_sizes.iter().copied().max().unwrap_or(0);
        2 * self.layer_sizes[1..].iter().sum::<usize>() + 2 * widest
    }

    /// Forward pass under the flat weights `w` (same layout as
    /// [`Mlp::params`]); `scratch` (at least [`Mlp::scratch_len`] long)
    /// keeps the pre-activations and outputs for [`Mlp::back_prop`].
    ///
    /// # Panics
    ///
    /// Panics on weight, input or scratch length mismatch.
    // audit:hot
    pub fn eval(&self, w: &[f64], x: &[f64], scratch: &mut [f64]) -> f64 {
        assert_eq!(w.len(), self.params.len(), "parameter count mismatch");
        assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
        assert!(scratch.len() >= self.scratch_len(), "scratch too short");
        let last = self.layer_sizes.len() - 2;
        let mut off = 0;
        let mut base = 0;
        for (li, ws) in self.layer_sizes.windows(2).enumerate() {
            let (fan_in, fan_out) = (ws[0], ws[1]);
            // Layer block: pre-activations z (fan_out) | outputs a (fan_out).
            let (done, cur) = scratch.split_at_mut(base);
            let inp: &[f64] = if li == 0 { x } else { &done[base - fan_in..] };
            let (z, a) = cur.split_at_mut(fan_out);
            for o in 0..fan_out {
                let mut acc = w[off + fan_in * fan_out + o]; // bias
                for (v, wi) in inp.iter().zip(&w[off + o * fan_in..][..fan_in]) {
                    acc += wi * v;
                }
                z[o] = acc;
                a[o] = if li == last { acc } else { self.activation.activate(acc) };
            }
            off += fan_in * fan_out + fan_out;
            base += 2 * fan_out;
        }
        scratch[base - 1]
    }

    /// Reverse pass of [`Mlp::eval`]: adds `adj·∂k/∂w` into `grad`. `w`,
    /// `x` and `scratch` must be those of the preceding `eval`.
    ///
    /// # Panics
    ///
    /// Panics on gradient or scratch length mismatch.
    // audit:hot
    pub fn back_prop(&self, w: &[f64], x: &[f64], scratch: &mut [f64], adj: f64, grad: &mut [f64]) {
        assert_eq!(grad.len(), self.params.len(), "gradient length mismatch");
        assert!(scratch.len() >= self.scratch_len(), "scratch too short");
        let widest = self.layer_sizes.iter().copied().max().unwrap_or(0);
        let state_len = 2 * self.layer_sizes[1..].iter().sum::<usize>();
        let (state, work) = scratch.split_at_mut(state_len);
        let (mut obar, rest) = work.split_at_mut(widest);
        let mut ibar = &mut rest[..widest];
        obar[0] = adj;
        let last = self.layer_sizes.len() - 2;
        let mut off = self.params.len();
        let mut base = state_len;
        for li in (0..=last).rev() {
            let (fan_in, fan_out) = (self.layer_sizes[li], self.layer_sizes[li + 1]);
            off -= fan_in * fan_out + fan_out;
            base -= 2 * fan_out;
            let (z, a) = state[base..base + 2 * fan_out].split_at(fan_out);
            let inp: &[f64] = if li == 0 { x } else { &state[base - fan_in..base] };
            ibar[..fan_in].fill(0.0);
            for o in 0..fan_out {
                let g = if li == last {
                    obar[o]
                } else {
                    obar[o] * self.activation.slope(z[o], a[o])
                };
                grad[off + fan_in * fan_out + o] += g;
                for i in 0..fan_in {
                    grad[off + o * fan_in + i] += g * inp[i];
                    ibar[i] += g * w[off + o * fan_in + i];
                }
            }
            std::mem::swap(&mut obar, &mut ibar);
        }
    }

    /// Weight matrix of layer `li` as a dense matrix (`fan_out × fan_in`).
    pub fn weight_matrix(&self, li: usize) -> Matrix {
        let mut offset = 0;
        for w in self.layer_sizes.windows(2).take(li) {
            offset += w[0] * w[1] + w[1];
        }
        let (fan_in, fan_out) = (self.layer_sizes[li], self.layer_sizes[li + 1]);
        Matrix::from_fn(fan_out, fan_in, |o, i| self.params[offset + o * fan_in + i])
    }

    /// A Lipschitz bound: the product of layer spectral norms times the
    /// activation Lipschitz constants (the standard safe upper bound; the
    /// paper cites the tighter estimator of Fazlyab et al. \[6\], for which
    /// this is a sound over-approximation — a larger `L` only widens the
    /// verified error bound `σ* = σ̃ + ½sL` of Theorem 2, never unsoundly).
    pub fn lipschitz_bound(&self) -> f64 {
        let mut l = 1.0;
        for li in 0..self.layer_sizes.len() - 1 {
            let w = self.weight_matrix(li);
            l *= spectral_norm(&w);
            if li + 2 < self.layer_sizes.len() {
                l *= self.activation.lipschitz();
            }
        }
        l
    }
}

/// Spectral norm by power iteration on `WᵀW`.
pub(crate) fn spectral_norm(w: &Matrix) -> f64 {
    let n = w.ncols();
    if n == 0 || w.nrows() == 0 {
        return 0.0;
    }
    let mut v = vec![1.0 / (n as f64).sqrt(); n];
    let mut sigma = 0.0;
    for _ in 0..100 {
        let wv = w.matvec(&v);
        let wtwv = w.tr_matvec(&wv);
        let norm = snbc_linalg::vec_ops::norm2(&wtwv);
        if norm < 1e-300 {
            return 0.0;
        }
        let new_sigma = norm.sqrt();
        for (vi, u) in v.iter_mut().zip(&wtwv) {
            *vi = u / norm;
        }
        if (new_sigma - sigma).abs() < 1e-12 * new_sigma.max(1.0) {
            return new_sigma;
        }
        sigma = new_sigma;
    }
    sigma
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matches_manual_tiny_net() {
        // 1-1-1 tanh net with hand-set parameters: y = w2·tanh(w1·x + b1) + b2.
        let mut net = Mlp::new(&[1, 1, 1], Activation::Tanh, 0);
        net.set_params(&[2.0, 0.5, -1.5, 0.25]); // w1, b1, w2, b2
        let x = 0.3_f64;
        let want = -1.5 * (2.0 * x + 0.5).tanh() + 0.25;
        assert!((net.forward(&[x]) - want).abs() < 1e-12);
    }

    #[test]
    fn lipschitz_bound_dominates_sampled_slopes() {
        let net = Mlp::new(&[2, 6, 1], Activation::Tanh, 3);
        let l = net.lipschitz_bound();
        let mut worst: f64 = 0.0;
        for i in 0..20 {
            let a = [-1.0 + 0.1 * i as f64, 0.3];
            let b = [a[0] + 1e-4, a[1]];
            let slope = (net.forward(&b) - net.forward(&a)).abs() / 1e-4;
            worst = worst.max(slope);
        }
        assert!(l >= worst * 0.999, "bound {l} < sampled slope {worst}");
    }

    #[test]
    fn spectral_norm_of_diagonal() {
        let w = Matrix::from_diag(&[3.0, -5.0, 1.0]);
        assert!((spectral_norm(&w) - 5.0).abs() < 1e-9);
    }
}

/// Interval extensions of the MLP: range bounds of the output and of the
/// gradient over a box. These power the *verified* controller-abstraction
/// error bound (`snbc::approx`) — a branch-and-bound certification of
/// `|k(x) − h(x)| ≤ σ` that is far tighter in high dimension than the
/// Lipschitz-times-covering-radius estimate of Theorem 2.
impl Mlp {
    /// Conservative range of the network output over the box `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension.
    pub fn forward_interval(&self, x: &[snbc_interval::Interval]) -> snbc_interval::Interval {
        use snbc_interval::Interval;
        assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
        let mut act: Vec<Interval> = x.to_vec();
        let mut offset = 0;
        let last = self.layer_sizes.len() - 2;
        for (li, w) in self.layer_sizes.windows(2).enumerate() {
            let (fan_in, fan_out) = (w[0], w[1]);
            let mut next = Vec::with_capacity(fan_out);
            for o in 0..fan_out {
                let bias = self.params[offset + fan_in * fan_out + o];
                let mut acc = Interval::point(bias);
                for (i, a) in act.iter().enumerate() {
                    acc = acc + *a * self.params[offset + o * fan_in + i];
                }
                next.push(if li == last {
                    acc
                } else {
                    interval_activation(self.activation, acc)
                });
            }
            offset += fan_in * fan_out + fan_out;
            act = next;
        }
        act[0]
    }

    /// Conservative per-coordinate range of `∇k` over the box `x`, by
    /// interval forward pass + interval backward pass through the activation
    /// derivative ranges.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension.
    pub fn gradient_interval(&self, x: &[snbc_interval::Interval]) -> Vec<snbc_interval::Interval> {
        use snbc_interval::Interval;
        assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
        // Forward: collect pre-activation ranges per hidden layer.
        let mut act: Vec<Interval> = x.to_vec();
        let mut offset = 0;
        let last = self.layer_sizes.len() - 2;
        let mut offsets = Vec::new();
        let mut deriv_ranges: Vec<Vec<Interval>> = Vec::new();
        for (li, w) in self.layer_sizes.windows(2).enumerate() {
            let (fan_in, fan_out) = (w[0], w[1]);
            offsets.push(offset);
            let mut next = Vec::with_capacity(fan_out);
            let mut derivs = Vec::with_capacity(fan_out);
            for o in 0..fan_out {
                let bias = self.params[offset + fan_in * fan_out + o];
                let mut acc = Interval::point(bias);
                for (i, a) in act.iter().enumerate() {
                    acc = acc + *a * self.params[offset + o * fan_in + i];
                }
                if li == last {
                    derivs.push(Interval::point(1.0));
                    next.push(acc);
                } else {
                    derivs.push(interval_activation_derivative(self.activation, acc));
                    next.push(interval_activation(self.activation, acc));
                }
            }
            deriv_ranges.push(derivs);
            offset += fan_in * fan_out + fan_out;
            act = next;
        }
        // Backward: adjoint intervals from the scalar output to the inputs.
        let mut adj: Vec<Interval> = vec![Interval::point(1.0)];
        for li in (0..self.layer_sizes.len() - 1).rev() {
            let (fan_in, _fan_out) = (self.layer_sizes[li], self.layer_sizes[li + 1]);
            let off = offsets[li];
            // Through the activation derivative of this layer's outputs.
            let scaled: Vec<Interval> = adj
                .iter()
                .zip(&deriv_ranges[li])
                .map(|(a, d)| *a * *d)
                .collect();
            let mut prev = vec![Interval::point(0.0); fan_in];
            for (o, s) in scaled.iter().enumerate() {
                for (i, p) in prev.iter_mut().enumerate() {
                    *p = *p + *s * self.params[off + o * fan_in + i];
                }
            }
            adj = prev;
        }
        adj
    }
}

fn interval_activation(
    act: Activation,
    x: snbc_interval::Interval,
) -> snbc_interval::Interval {
    use snbc_interval::Interval;
    match act {
        // Monotone scalar functions: evaluate at the endpoints.
        Activation::Tanh => Interval::new(x.lo().tanh(), x.hi().tanh()),
        Activation::Relu => Interval::new(x.lo().max(0.0), x.hi().max(0.0)),
        Activation::LeakyRelu(s) => {
            let f = |v: f64| if v > 0.0 { v } else { s * v };
            let (a, b) = (f(x.lo()), f(x.hi()));
            Interval::new(a.min(b), a.max(b))
        }
        Activation::Linear => x,
    }
}

fn interval_activation_derivative(
    act: Activation,
    x: snbc_interval::Interval,
) -> snbc_interval::Interval {
    use snbc_interval::Interval;
    match act {
        Activation::Tanh => {
            // d tanh = 1 − tanh²: maximal at the point closest to 0.
            let d = |v: f64| 1.0 - v.tanh().powi(2);
            let hi = if x.contains(0.0) {
                1.0
            } else {
                d(x.lo()).max(d(x.hi()))
            };
            let lo = d(x.lo()).min(d(x.hi()));
            Interval::new(lo, hi)
        }
        Activation::Relu => {
            if x.lo() >= 0.0 {
                Interval::point(1.0)
            } else if x.hi() <= 0.0 {
                Interval::point(0.0)
            } else {
                Interval::new(0.0, 1.0)
            }
        }
        Activation::LeakyRelu(s) => {
            if x.lo() >= 0.0 {
                Interval::point(1.0)
            } else if x.hi() <= 0.0 {
                Interval::point(s)
            } else {
                Interval::new(s.min(1.0), s.max(1.0))
            }
        }
        Activation::Linear => Interval::point(1.0),
    }
}

#[cfg(test)]
mod interval_tests {
    use super::*;
    use snbc_interval::Interval;

    #[test]
    fn forward_interval_contains_samples() {
        let net = Mlp::new(&[2, 6, 1], Activation::Tanh, 17);
        let bx = [Interval::new(-0.5, 0.5), Interval::new(0.1, 0.9)];
        let range = net.forward_interval(&bx);
        for i in 0..=10 {
            for j in 0..=10 {
                let x = [
                    -0.5 + i as f64 * 0.1,
                    0.1 + j as f64 * 0.08,
                ];
                let v = net.forward(&x);
                assert!(range.contains(v), "{range} misses k({x:?}) = {v}");
            }
        }
    }

    #[test]
    fn gradient_interval_contains_sampled_gradients() {
        let net = Mlp::new(&[2, 5, 1], Activation::Tanh, 23);
        let bx = [Interval::new(-0.3, 0.3), Interval::new(-0.3, 0.3)];
        let g = net.gradient_interval(&bx);
        let h = 1e-6;
        for i in 0..=6 {
            for j in 0..=6 {
                let x = [-0.3 + i as f64 * 0.1, -0.3 + j as f64 * 0.1];
                for d in 0..2 {
                    let mut xp = x;
                    xp[d] += h;
                    let mut xm = x;
                    xm[d] -= h;
                    let fd = (net.forward(&xp) - net.forward(&xm)) / (2.0 * h);
                    assert!(
                        g[d].lo() - 1e-6 <= fd && fd <= g[d].hi() + 1e-6,
                        "grad[{d}] range {} misses {fd}",
                        g[d]
                    );
                }
            }
        }
    }

    #[test]
    fn point_box_matches_forward() {
        let net = Mlp::new(&[3, 4, 1], Activation::Tanh, 31);
        let x = [0.2, -0.7, 0.4];
        let bx: Vec<Interval> = x.iter().map(|&v| Interval::point(v)).collect();
        let r = net.forward_interval(&bx);
        assert!((r.lo() - net.forward(&x)).abs() < 1e-12);
        assert!(r.width() < 1e-12);
    }
}

/// Multi-output extension (§3 of the paper: "the multiple-output cases can be
/// handled in a similar manner"). A [`VectorMlp`] is an MLP whose output layer
/// has `m ≥ 1` units — one channel per control input of a multi-input system.
/// Each output channel is abstracted by its own polynomial inclusion.
#[derive(Debug, Clone)]
pub struct VectorMlp {
    inner: Mlp,
    outputs: usize,
}

impl VectorMlp {
    /// Creates a network with `layer_sizes.last()` output channels.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two layer sizes are given or the output width is
    /// zero.
    pub fn new(layer_sizes: &[usize], activation: Activation, seed: u64) -> Self {
        assert!(layer_sizes.len() >= 2, "need at least input and output layer");
        let outputs = *layer_sizes.last().expect("non-empty");
        assert!(outputs >= 1, "need at least one output");
        // Reuse Mlp's storage by constructing with the true widths; bypass
        // its single-output assert through the width-1 constructor plus a
        // manual parameter layout when m > 1.
        let inner = Mlp::new_unchecked(layer_sizes, activation, seed);
        VectorMlp { inner, outputs }
    }

    /// Number of output channels.
    pub fn output_dim(&self) -> usize {
        self.outputs
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.inner.input_dim()
    }

    /// Vector forward pass.
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch.
    pub fn forward_vec(&self, x: &[f64]) -> Vec<f64> {
        self.inner.forward_all(x)
    }

    /// Scalar view of one output channel (for the per-channel §3 abstraction).
    pub fn output_fn(&self, channel: usize) -> impl Fn(&[f64]) -> f64 + '_ {
        assert!(channel < self.outputs, "channel out of range");
        move |x: &[f64]| self.inner.forward_all(x)[channel]
    }

    /// A Lipschitz bound shared by every channel (product of spectral norms,
    /// as in [`Mlp::lipschitz_bound`]; the output-layer norm bounds all
    /// channels simultaneously).
    pub fn lipschitz_bound(&self) -> f64 {
        self.inner.lipschitz_bound()
    }
}

impl Mlp {
    /// Multi-output constructor used by [`VectorMlp`] (the public scalar API
    /// keeps its single-output contract).
    pub(crate) fn new_unchecked(layer_sizes: &[usize], activation: Activation, seed: u64) -> Self {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut params = Vec::new();
        for w in layer_sizes.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            let scale = (2.0 / (fan_in + fan_out) as f64).sqrt();
            for _ in 0..fan_in * fan_out {
                params.push(rng.gen_range(-scale..scale));
            }
            for _ in 0..fan_out {
                params.push(0.0);
            }
        }
        Mlp {
            layer_sizes: layer_sizes.to_vec(),
            activation,
            params,
        }
    }

    /// Forward pass returning the full output layer (length = last width).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension.
    pub fn forward_all(&self, x: &[f64]) -> Vec<f64> {
        let mut scratch = vec![0.0; self.scratch_len()];
        self.eval(&self.params, x, &mut scratch);
        // The output layer's values close the layer blocks of `eval`.
        let end = 2 * self.layer_sizes[1..].iter().sum::<usize>();
        scratch[end - self.layer_sizes[self.layer_sizes.len() - 1]..end].to_vec()
    }
}

#[cfg(test)]
mod vector_tests {
    use super::*;

    #[test]
    fn forward_vec_has_requested_width() {
        let net = VectorMlp::new(&[3, 6, 2], Activation::Tanh, 4);
        let y = net.forward_vec(&[0.1, -0.2, 0.3]);
        assert_eq!(y.len(), 2);
        assert_eq!(net.output_dim(), 2);
        assert_eq!(net.input_dim(), 3);
    }

    #[test]
    fn channel_views_agree_with_vector_pass() {
        let net = VectorMlp::new(&[2, 5, 3], Activation::Tanh, 8);
        let x = [0.4, -0.7];
        let y = net.forward_vec(&x);
        for c in 0..3 {
            assert!((net.output_fn(c)(&x) - y[c]).abs() < 1e-12);
        }
    }

    #[test]
    fn scalar_mlp_forward_all_matches_forward() {
        let net = Mlp::new(&[2, 4, 1], Activation::Tanh, 2);
        let x = [0.3, 0.9];
        assert!((net.forward_all(&x)[0] - net.forward(&x)).abs() < 1e-12);
    }
}
