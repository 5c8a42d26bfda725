use rand::Rng;
use rand::SeedableRng;
use snbc_poly::Polynomial;

/// The auxiliary multiplier network for `λ(x)` (Theorem 1 / §4.1).
///
/// The paper trains `λ(x)` with a *linear* NN — all activations identity — so
/// the end-to-end function is affine in `x` regardless of depth; Table 1's
/// `NN_λ(x)` column also allows a plain trainable constant (`c`). Both
/// variants are modeled here; the layered parameterization of the linear
/// variant is kept (rather than collapsing to `wᵀx + b`) to mirror the paper's
/// training dynamics.
///
/// # Example
///
/// ```
/// use snbc_nn::MultiplierNet;
///
/// let net = MultiplierNet::linear(3, &[5], 1);
/// let lambda = net.to_polynomial();
/// assert!(lambda.degree() <= 1); // linear NN ⇒ affine λ(x)
/// ```
#[derive(Debug, Clone)]
pub enum MultiplierNet {
    /// A trainable constant multiplier (the `c` entries of Table 1).
    Constant { value: Vec<f64> },
    /// A linear (identity-activation) network: affine output.
    Linear {
        input_dim: usize,
        layer_sizes: Vec<usize>,
        params: Vec<f64>,
    },
}

impl MultiplierNet {
    /// A trainable constant initialized to `init`.
    pub fn constant(init: f64) -> Self {
        MultiplierNet::Constant { value: vec![init] }
    }

    /// A linear network with the given hidden widths.
    pub fn linear(input_dim: usize, hidden: &[usize], seed: u64) -> Self {
        let mut sizes = vec![input_dim];
        sizes.extend_from_slice(hidden);
        sizes.push(1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut params = Vec::new();
        for w in sizes.windows(2) {
            let scale = (2.0 / (w[0] + w[1]) as f64).sqrt();
            for _ in 0..w[0] * w[1] {
                params.push(rng.gen_range(-scale..scale));
            }
            for _ in 0..w[1] {
                params.push(0.0);
            }
        }
        MultiplierNet::Linear {
            input_dim,
            layer_sizes: sizes,
            params,
        }
    }

    /// Flat parameter vector.
    pub fn params(&self) -> &[f64] {
        match self {
            MultiplierNet::Constant { value } => value,
            MultiplierNet::Linear { params, .. } => params,
        }
    }

    /// Overwrites the flat parameter vector.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn set_params(&mut self, new: &[f64]) {
        match self {
            MultiplierNet::Constant { value } => {
                assert_eq!(new.len(), value.len(), "parameter length mismatch");
                value.copy_from_slice(new);
            }
            MultiplierNet::Linear { params, .. } => {
                assert_eq!(new.len(), params.len(), "parameter length mismatch");
                params.copy_from_slice(new);
            }
        }
    }

    /// Number of parameters.
    pub fn num_params(&self) -> usize {
        self.params().len()
    }

    /// Scalar forward pass.
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch for the linear variant.
    pub fn forward(&self, x: &[f64]) -> f64 {
        let mut scratch = vec![0.0; self.scratch_len()];
        self.eval(self.params(), x, &mut scratch)
    }

    /// Length of the scratch buffer [`MultiplierNet::eval`] and
    /// [`MultiplierNet::back_prop`] need: every layer's outputs, then two
    /// adjoint rows of the widest layer.
    pub fn scratch_len(&self) -> usize {
        match self {
            MultiplierNet::Constant { .. } => 0,
            MultiplierNet::Linear { layer_sizes, .. } => {
                let widest = layer_sizes.iter().copied().max().unwrap_or(0);
                layer_sizes[1..].iter().sum::<usize>() + 2 * widest
            }
        }
    }

    /// Forward pass under the flat weights `w` (same layout as
    /// [`MultiplierNet::params`]); `scratch` (at least
    /// [`MultiplierNet::scratch_len`] long) keeps the layer outputs for
    /// [`MultiplierNet::back_prop`].
    ///
    /// # Panics
    ///
    /// Panics on weight, input or scratch length mismatch.
    // audit:hot
    pub fn eval(&self, w: &[f64], x: &[f64], scratch: &mut [f64]) -> f64 {
        assert_eq!(w.len(), self.num_params(), "parameter count mismatch");
        let MultiplierNet::Linear {
            input_dim,
            layer_sizes,
            ..
        } = self
        else {
            return w[0];
        };
        assert_eq!(x.len(), *input_dim, "input dimension mismatch");
        assert!(scratch.len() >= self.scratch_len(), "scratch too short");
        let mut off = 0;
        let mut base = 0;
        for (l, ws) in layer_sizes.windows(2).enumerate() {
            let (fan_in, fan_out) = (ws[0], ws[1]);
            let (done, cur) = scratch.split_at_mut(base);
            let inp: &[f64] = if l == 0 { x } else { &done[base - fan_in..] };
            for (o, n) in cur[..fan_out].iter_mut().enumerate() {
                let mut acc = w[off + fan_in * fan_out + o];
                for (a, wi) in inp.iter().zip(&w[off + o * fan_in..][..fan_in]) {
                    acc += wi * a;
                }
                *n = acc;
            }
            off += fan_in * fan_out + fan_out;
            base += fan_out;
        }
        scratch[base - 1]
    }

    /// Reverse pass of [`MultiplierNet::eval`]: adds `adj·∂λ/∂w` into
    /// `grad`. `w`, `x` and `scratch` must be those of the preceding `eval`.
    ///
    /// # Panics
    ///
    /// Panics on gradient or scratch length mismatch.
    // audit:hot
    pub fn back_prop(&self, w: &[f64], x: &[f64], scratch: &mut [f64], adj: f64, grad: &mut [f64]) {
        assert_eq!(grad.len(), self.num_params(), "gradient length mismatch");
        let MultiplierNet::Linear { layer_sizes, .. } = self else {
            grad[0] += adj;
            return;
        };
        assert!(scratch.len() >= self.scratch_len(), "scratch too short");
        let widest = layer_sizes.iter().copied().max().unwrap_or(0);
        let state_len = layer_sizes[1..].iter().sum::<usize>();
        let (state, work) = scratch.split_at_mut(state_len);
        let (mut obar, rest) = work.split_at_mut(widest);
        let mut ibar = &mut rest[..widest];
        obar[0] = adj;
        let mut off = self.num_params();
        let mut base = state_len;
        for l in (0..layer_sizes.len() - 1).rev() {
            let (fan_in, fan_out) = (layer_sizes[l], layer_sizes[l + 1]);
            off -= fan_in * fan_out + fan_out;
            base -= fan_out;
            let inp: &[f64] = if l == 0 { x } else { &state[base - fan_in..base] };
            ibar[..fan_in].fill(0.0);
            for o in 0..fan_out {
                let g = obar[o];
                grad[off + fan_in * fan_out + o] += g;
                for i in 0..fan_in {
                    grad[off + o * fan_in + i] += g * inp[i];
                    ibar[i] += g * w[off + o * fan_in + i];
                }
            }
            std::mem::swap(&mut obar, &mut ibar);
        }
    }

    /// Extracts `λ(x)` as an explicit polynomial (degree ≤ 1).
    pub fn to_polynomial(&self) -> Polynomial {
        match self {
            MultiplierNet::Constant { value } => Polynomial::constant(value[0]),
            MultiplierNet::Linear { input_dim, .. } => {
                let mut p = Polynomial::constant(self.forward(&vec![0.0; *input_dim]));
                // Affine: recover slopes by probing unit vectors.
                let base = p.constant_term();
                for i in 0..*input_dim {
                    let mut e = vec![0.0; *input_dim];
                    e[i] = 1.0;
                    let slope = self.forward(&e) - base;
                    p.add_term(slope, snbc_poly::Monomial::var(i));
                }
                p
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_variant() {
        let mut net = MultiplierNet::constant(2.5);
        assert_eq!(net.forward(&[1.0, 2.0]), 2.5);
        net.set_params(&[-1.0]);
        assert_eq!(net.to_polynomial().constant_term(), -1.0);
    }

    #[test]
    fn linear_net_is_affine() {
        let net = MultiplierNet::linear(2, &[5, 3], 3);
        let p = net.to_polynomial();
        assert!(p.degree() <= 1);
        // Affine extraction agrees with the layered forward pass everywhere.
        for x in [[0.0, 0.0], [1.0, -2.0], [0.3, 0.7]] {
            assert!((net.forward(&x) - p.eval(&x)).abs() < 1e-10);
        }
    }
}
