//! Layer normalization with manual backprop.

// lint: allow-file(float-reduction-outside-kernels) -- per-row backward sums run in fixed column order, single-threaded; order is pinned by construction

use crate::param::{HasParams, Param};
use apsq_tensor::Tensor;

/// Layer normalization over the last axis of a `[n, d]` tensor, with
/// learnable gain and bias.
#[derive(Clone, Debug)]
pub struct LayerNorm {
    /// Gain `γ` (`[d]`).
    pub gamma: Param,
    /// Bias `β` (`[d]`).
    pub beta: Param,
    eps: f32,
    cache: Option<NormCache>,
}

#[derive(Clone, Debug)]
struct NormCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
}

impl LayerNorm {
    /// Creates a layer with γ = 1, β = 0.
    pub fn new(d: usize) -> Self {
        LayerNorm {
            gamma: Param::new(Tensor::ones([d])),
            beta: Param::new(Tensor::zeros([d])),
            eps: 1e-5,
            cache: None,
        }
    }

    /// Forward pass over `[n, d]`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank-2 with the configured feature width.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let (y, cache) = self.normalize(x);
        self.cache = Some(cache);
        y
    }

    /// Inference-only forward (no layer state cloned or touched).
    pub fn forward_inference(&self, x: &Tensor) -> Tensor {
        self.normalize(x).0
    }

    /// `y = x̂·γ + β` with `x̂ = (x − μ)·(var + ε)^−½` per row, where `μ`
    /// and the biased `var` are the row's `mean_axis1` / `var_axis1`
    /// expressions: sequential sums divided by `d`, so the bits match
    /// those reductions.
    fn normalize(&self, x: &Tensor) -> (Tensor, NormCache) {
        assert_eq!(x.rank(), 2, "LayerNorm expects [n, d]");
        let (n, d) = (x.dims()[0], x.dims()[1]);
        assert_eq!(d, self.gamma.value.numel(), "feature width mismatch");
        let (gamma, beta) = (self.gamma.value.data(), self.beta.value.data());
        let mut x_hat = vec![0.0f32; n * d];
        let mut y = vec![0.0f32; n * d];
        let mut inv_std = Vec::with_capacity(n);
        for ((xr, hr), yr) in x
            .data()
            .chunks_exact(d)
            .zip(x_hat.chunks_exact_mut(d))
            .zip(y.chunks_exact_mut(d))
        {
            let mu = xr.iter().sum::<f32>() / d as f32;
            let var = xr.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / d as f32;
            let inv = 1.0 / (var + self.eps).sqrt();
            for ((((h, o), &v), &g), &b) in hr.iter_mut().zip(yr).zip(xr).zip(gamma).zip(beta) {
                *h = (v - mu) * inv;
                *o = *h * g + b;
            }
            inv_std.push(inv);
        }
        let y = Tensor::from_vec(y, [n, d]);
        let x_hat = Tensor::from_vec(x_hat, [n, d]);
        (y, NormCache { x_hat, inv_std })
    }

    /// Backward pass: accumulates γ/β grads, returns `dL/dx`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("backward before forward");
        let d = dy.dims()[1];
        let gamma = self.gamma.value.data();
        let rows = || {
            dy.data()
                .chunks_exact(d)
                .zip(cache.x_hat.data().chunks_exact(d))
        };

        // Parameter grads.
        let mut dgamma = vec![0.0f32; d];
        let mut dbeta = vec![0.0f32; d];
        for (dyr, hr) in rows() {
            for (((dg, db), &g), &h) in dgamma.iter_mut().zip(&mut dbeta).zip(dyr).zip(hr) {
                *dg += g * h;
                *db += g;
            }
        }

        // Input grad: dx = (1/d)·inv_std·(d·dxhat − Σdxhat − x̂·Σ(dxhat·x̂)).
        let mut dx = vec![0.0f32; dy.numel()];
        for ((dxr, (dyr, hr)), &inv) in dx.chunks_exact_mut(d).zip(rows()).zip(&cache.inv_std) {
            let mut sum_dxhat = 0.0f32;
            let mut sum_dxhat_xhat = 0.0f32;
            for ((&g, &gm), &h) in dyr.iter().zip(gamma).zip(hr) {
                let dxh = g * gm;
                sum_dxhat += dxh;
                sum_dxhat_xhat += dxh * h;
            }
            for (((o, &g), &gm), &h) in dxr.iter_mut().zip(dyr).zip(gamma).zip(hr) {
                let dxh = g * gm;
                *o = inv / d as f32 * (d as f32 * dxh - sum_dxhat - h * sum_dxhat_xhat);
            }
        }
        self.gamma.accumulate(&Tensor::from_vec(dgamma, [d]));
        self.beta.accumulate(&Tensor::from_vec(dbeta, [d]));
        Tensor::from_vec(dx, dy.dims())
    }
}

impl HasParams for LayerNorm {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsq_tensor::{mean_axis1, var_axis1};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_is_normalized() {
        let mut ln = LayerNorm::new(8);
        let mut rng = StdRng::seed_from_u64(2);
        let x = apsq_tensor::randn([4, 8], 3.0, &mut rng);
        let y = ln.forward(&(&x + 5.0));
        let mu = mean_axis1(&y);
        let var = var_axis1(&y);
        for i in 0..4 {
            assert!(mu.data()[i].abs() < 1e-4);
            assert!((var.data()[i] - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn gradient_check() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut ln = LayerNorm::new(5);
        // Non-trivial gamma.
        ln.gamma.value = apsq_tensor::randn([5], 1.0, &mut rng);
        let x = apsq_tensor::randn([3, 5], 1.0, &mut rng);
        let dy = apsq_tensor::randn([3, 5], 1.0, &mut rng);
        let _ = ln.forward(&x);
        let dx = ln.backward(&dy);

        let loss = |x: &Tensor| -> f32 {
            ln.forward_inference(x)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        let eps = 1e-3;
        for (i, j) in [(0usize, 0usize), (1, 3), (2, 4)] {
            let mut xp = x.clone();
            xp.set(&[i, j], x.at(&[i, j]) + eps);
            let mut xm = x.clone();
            xm.set(&[i, j], x.at(&[i, j]) - eps);
            let fd = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!(
                (dx.at(&[i, j]) - fd).abs() < 2e-2,
                "dx[{i},{j}] {} vs {fd}",
                dx.at(&[i, j])
            );
        }
    }
}
