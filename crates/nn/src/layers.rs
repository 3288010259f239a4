//! Layers with explicit forward/backward passes.
//!
//! Each layer caches whatever its backward pass needs. The [`Layer`]
//! trait is object-safe so models can own `Vec<Box<dyn Layer>>` stacks;
//! the wide-and-deep model in `holodetect` also drives layers directly.

use crate::matrix::Matrix;
use crate::param::Param;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A differentiable layer.
///
/// `Send + Sync` is a supertrait so fitted models built from
/// `Box<dyn Layer>` stacks can be shared across threads for parallel
/// scoring (every layer is plain data plus a seeded RNG).
pub trait Layer: Send + Sync {
    /// Forward pass over a batch (`rows` = examples). `train` switches
    /// stochastic layers (dropout) between train and eval behaviour.
    fn forward(&mut self, input: &Matrix, train: bool) -> Matrix;

    /// Inference-only forward pass: eval behaviour, no backward caches,
    /// shared access — the hot path of a fitted model's `score`.
    fn infer(&self, input: &Matrix) -> Matrix;

    /// Backward pass: gradient w.r.t. the layer output → gradient w.r.t.
    /// the layer input; parameter gradients are accumulated internally.
    fn backward(&mut self, grad_out: &Matrix) -> Matrix;

    /// Mutable access to trainable parameters (empty for stateless layers).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Shared access to trainable parameters, in the same order as
    /// [`Layer::params_mut`] — the traversal model serialization walks
    /// from a `&self` fitted model.
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Zero all parameter gradients.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Re-seed any internal randomness (dropout masks). A no-op for
    /// deterministic layers. Sharded trainers call this per
    /// (step, shard) so stochastic masks depend only on the shard's
    /// position in the decomposition — never on which worker thread
    /// happened to run it — keeping N-thread training bitwise equal to
    /// single-thread.
    fn reseed(&mut self, _seed: u64) {}
}

/// Fully-connected layer: `Y = X·W + b` with `W: in×out`, `b: 1×out`.
#[derive(Debug)]
pub struct Dense {
    w: Param,
    b: Param,
    cached_input: Option<Matrix>,
}

impl Dense {
    /// Xavier-initialized dense layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Dense {
            w: Param::new(Matrix::xavier(in_dim, out_dim, rng)),
            b: Param::new(Matrix::zeros(1, out_dim)),
            cached_input: None,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.value.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.value.cols()
    }

    /// Read-only weight access (tests, inspection).
    pub fn weights(&self) -> &Matrix {
        &self.w.value
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Matrix, _train: bool) -> Matrix {
        let mut out = input.matmul(&self.w.value);
        out.add_row_broadcast(&self.b.value);
        self.cached_input = Some(input.clone());
        out
    }

    fn infer(&self, input: &Matrix) -> Matrix {
        let mut out = input.matmul(&self.w.value);
        out.add_row_broadcast(&self.b.value);
        out
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let x = self.cached_input.as_ref().expect("backward before forward");
        self.w.grad.add_assign(&x.t_matmul(grad_out));
        self.b.grad.add_assign(&grad_out.col_sums());
        grad_out.matmul_t(&self.w.value)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.w, &self.b]
    }
}

/// Rectified linear activation.
#[derive(Debug, Default)]
pub struct Relu {
    mask: Option<Matrix>,
}

impl Relu {
    /// A new ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Matrix, _train: bool) -> Matrix {
        let mask = input.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
        let out = input.hadamard(&mask);
        self.mask = Some(mask);
        out
    }

    fn infer(&self, input: &Matrix) -> Matrix {
        input.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mask = self.mask.as_ref().expect("backward before forward");
        grad_out.hadamard(mask)
    }
}

/// The logistic sigmoid of one value (the highway gate, Platt scaling).
#[inline]
pub(crate) fn sigmoid_scalar(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Inverted dropout: at train time, zero each activation with probability
/// `p` and scale survivors by `1/(1-p)`; identity at eval time.
#[derive(Debug)]
pub struct Dropout {
    p: f32,
    rng: StdRng,
    mask: Option<Matrix>,
}

impl Dropout {
    /// A dropout layer with drop probability `p ∈ [0, 1)` and its own
    /// seeded RNG (keeps training runs reproducible).
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0,1)"
        );
        Dropout {
            p,
            rng: StdRng::seed_from_u64(seed),
            mask: None,
        }
    }
}

impl Layer for Dropout {
    fn infer(&self, input: &Matrix) -> Matrix {
        input.clone()
    }

    fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    fn forward(&mut self, input: &Matrix, train: bool) -> Matrix {
        if !train || self.p == 0.0 {
            self.mask = None;
            return input.clone();
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mut mask = Matrix::zeros(input.rows(), input.cols());
        for v in mask.data_mut() {
            *v = if self.rng.random_range(0.0f32..1.0) < keep {
                scale
            } else {
                0.0
            };
        }
        let out = input.hadamard(&mask);
        self.mask = Some(mask);
        out
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        match &self.mask {
            Some(mask) => grad_out.hadamard(mask),
            None => grad_out.clone(),
        }
    }
}

/// Highway layer \[58\]: `y = T ⊙ H + (1 − T) ⊙ x` with
/// `H = relu(X·W_h + b_h)` and transform gate `T = σ(X·W_t + b_t)`.
/// Input and output dimensions are equal by construction.
#[derive(Debug)]
pub struct Highway {
    wh: Param,
    bh: Param,
    wt: Param,
    bt: Param,
    cache: Option<HighwayCache>,
}

#[derive(Debug)]
struct HighwayCache {
    x: Matrix,
    h_pre: Matrix,
    h: Matrix,
    t: Matrix,
}

impl Highway {
    /// A highway layer over `dim`-dimensional activations. The transform
    /// gate bias starts at `-1` so the layer initially passes its input
    /// through (the standard carry-biased initialization).
    pub fn new(dim: usize, rng: &mut impl Rng) -> Self {
        let mut bt = Matrix::zeros(1, dim);
        bt.map_inplace(|_| -1.0);
        Highway {
            wh: Param::new(Matrix::xavier(dim, dim, rng)),
            bh: Param::new(Matrix::zeros(1, dim)),
            wt: Param::new(Matrix::xavier(dim, dim, rng)),
            bt: Param::new(bt),
            cache: None,
        }
    }

    /// The layer width.
    pub fn dim(&self) -> usize {
        self.wh.value.rows()
    }

    /// The highway computation `y = T ⊙ H + (1 − T) ⊙ x`, shared by the
    /// training and inference passes so the math exists once.
    fn compute(&self, input: &Matrix) -> (Matrix, Matrix, Matrix, Matrix) {
        let mut h_pre = input.matmul(&self.wh.value);
        h_pre.add_row_broadcast(&self.bh.value);
        let h = h_pre.map(|v| v.max(0.0));
        let mut t_pre = input.matmul(&self.wt.value);
        t_pre.add_row_broadcast(&self.bt.value);
        let t = t_pre.map(sigmoid_scalar);
        let mut y = t.hadamard(&h);
        let carry = t.map(|v| 1.0 - v).hadamard(input);
        y.add_assign(&carry);
        (h_pre, h, t, y)
    }
}

impl Layer for Highway {
    fn infer(&self, input: &Matrix) -> Matrix {
        self.compute(input).3
    }

    fn forward(&mut self, input: &Matrix, _train: bool) -> Matrix {
        let (h_pre, h, t, y) = self.compute(input);
        self.cache = Some(HighwayCache {
            x: input.clone(),
            h_pre,
            h,
            t,
        });
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let c = self.cache.as_ref().expect("backward before forward");
        // dL/dh = g ⊙ t ; dL/dt = g ⊙ (h − x) ; dL/dx (direct) = g ⊙ (1−t)
        let dh = grad_out.hadamard(&c.t);
        let mut h_minus_x = c.h.clone();
        {
            let hm = h_minus_x.data_mut();
            for (v, &x) in hm.iter_mut().zip(c.x.data()) {
                *v -= x;
            }
        }
        let dt = grad_out.hadamard(&h_minus_x);
        let mut dx = grad_out.hadamard(&c.t.map(|v| 1.0 - v));

        // Through H = relu(x·Wh + bh)
        let relu_mask = c.h_pre.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
        let dh_pre = dh.hadamard(&relu_mask);
        self.wh.grad.add_assign(&c.x.t_matmul(&dh_pre));
        self.bh.grad.add_assign(&dh_pre.col_sums());
        dx.add_assign(&dh_pre.matmul_t(&self.wh.value));

        // Through T = σ(x·Wt + bt)
        let sig_grad = c.t.map(|v| v * (1.0 - v));
        let dt_pre = dt.hadamard(&sig_grad);
        self.wt.grad.add_assign(&c.x.t_matmul(&dt_pre));
        self.bt.grad.add_assign(&dt_pre.col_sums());
        dx.add_assign(&dt_pre.matmul_t(&self.wt.value));

        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.wh, &mut self.bh, &mut self.wt, &mut self.bt]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.wh, &self.bh, &self.wt, &self.bt]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn dense_forward_shapes() {
        let mut d = Dense::new(3, 2, &mut rng());
        let x = Matrix::zeros(5, 3);
        let y = d.forward(&x, true);
        assert_eq!(y.shape(), (5, 2));
        assert_eq!(d.in_dim(), 3);
        assert_eq!(d.out_dim(), 2);
    }

    #[test]
    fn relu_clips_negative() {
        let mut r = Relu::new();
        let x = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -0.5]);
        let y = r.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        let g = r.backward(&Matrix::from_vec(1, 4, vec![1.0; 4]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.forward(&x, false), x);
    }

    #[test]
    fn dropout_train_zeroes_and_scales() {
        let mut d = Dropout::new(0.5, 1);
        let x = Matrix::from_vec(1, 1000, vec![1.0; 1000]);
        let y = d.forward(&x, true);
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        let kept = y.data().iter().filter(|&&v| (v - 2.0).abs() < 1e-6).count();
        assert_eq!(zeros + kept, 1000);
        assert!((350..650).contains(&zeros), "zeros = {zeros}");
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Matrix::from_vec(1, 8, vec![1.0; 8]);
        let y = d.forward(&x, true);
        let g = d.backward(&Matrix::from_vec(1, 8, vec![1.0; 8]));
        for (a, b) in y.data().iter().zip(g.data()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn highway_initially_carries_input() {
        // With bt = -1 and small weights, the gate is mostly closed, so
        // output ≈ input.
        let mut hw = Highway::new(4, &mut rng());
        let x = Matrix::from_vec(1, 4, vec![0.5, -0.5, 1.0, 0.0]);
        let y = hw.forward(&x, true);
        for (yv, xv) in y.data().iter().zip(x.data()) {
            assert!(
                (yv - xv).abs() < 0.5,
                "highway output drifted: {yv} vs {xv}"
            );
        }
    }

    #[test]
    fn highway_preserves_dim() {
        let mut hw = Highway::new(6, &mut rng());
        assert_eq!(hw.dim(), 6);
        let x = Matrix::zeros(3, 6);
        assert_eq!(hw.forward(&x, true).shape(), (3, 6));
    }

    #[test]
    fn params_exposed() {
        let mut d = Dense::new(2, 2, &mut rng());
        assert_eq!(d.params_mut().len(), 2);
        let mut hw = Highway::new(2, &mut rng());
        assert_eq!(hw.params_mut().len(), 4);
        let mut r = Relu::new();
        assert!(r.params_mut().is_empty());
    }

    /// `params` and `params_mut` must expose the same tensors in the
    /// same order — serialization writes through one and loads through
    /// the other.
    #[test]
    fn shared_params_match_mut_order() {
        let mut d = Dense::new(3, 2, &mut rng());
        let shapes: Vec<_> = d.params().iter().map(|p| p.value.shape()).collect();
        let shapes_mut: Vec<_> = d.params_mut().iter().map(|p| p.value.shape()).collect();
        assert_eq!(shapes, shapes_mut);
        let mut hw = Highway::new(4, &mut rng());
        let shapes: Vec<_> = hw.params().iter().map(|p| p.value.shape()).collect();
        let shapes_mut: Vec<_> = hw.params_mut().iter().map(|p| p.value.shape()).collect();
        assert_eq!(shapes, shapes_mut);
        assert!(Relu::new().params().is_empty());
    }

    /// Numerical gradient check for a layer, comparing the analytic input
    /// gradient and parameter gradients against central differences of a
    /// scalar loss `L = Σ y²/2` (so dL/dy = y).
    fn grad_check<L: Layer>(layer: &mut L, in_dim: usize) {
        let mut r = rng();
        let x = Matrix::xavier(3, in_dim, &mut r);
        let eps = 1e-2f32;
        let tol = 2e-2f32;

        let loss_of = |layer: &mut L, x: &Matrix| -> f32 {
            let y = layer.forward(x, false);
            0.5 * y.data().iter().map(|v| v * v).sum::<f32>()
        };

        // Analytic pass.
        layer.zero_grad();
        let y = layer.forward(&x, false);
        let dx = layer.backward(&y); // dL/dy = y

        // Check input gradient.
        for i in 0..x.data().len().min(8) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss_of(layer, &xp) - loss_of(layer, &xm)) / (2.0 * eps);
            let ana = dx.data()[i];
            assert!(
                (num - ana).abs() <= tol * (1.0 + num.abs().max(ana.abs())),
                "input grad mismatch at {i}: numeric {num} vs analytic {ana}"
            );
        }

        // Check parameter gradients (first few entries of each param).
        // Re-run the analytic pass to leave caches in a known state.
        layer.zero_grad();
        let y = layer.forward(&x, false);
        let _ = layer.backward(&y);
        let n_params = layer.params_mut().len();
        for pi in 0..n_params {
            for i in 0..4 {
                let (orig, ana) = {
                    let p = &mut layer.params_mut()[pi];
                    if i >= p.value.data().len() {
                        continue;
                    }
                    (p.value.data()[i], p.grad.data()[i])
                };
                layer.params_mut()[pi].value.data_mut()[i] = orig + eps;
                let lp = loss_of(layer, &x);
                layer.params_mut()[pi].value.data_mut()[i] = orig - eps;
                let lm = loss_of(layer, &x);
                layer.params_mut()[pi].value.data_mut()[i] = orig;
                let num = (lp - lm) / (2.0 * eps);
                assert!(
                    (num - ana).abs() <= tol * (1.0 + num.abs().max(ana.abs())),
                    "param {pi} grad mismatch at {i}: numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn dense_gradients_check() {
        grad_check(&mut Dense::new(5, 3, &mut rng()), 5);
    }

    #[test]
    fn highway_gradients_check() {
        grad_check(&mut Highway::new(4, &mut rng()), 4);
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn dropout_rejects_p_one() {
        Dropout::new(1.0, 0);
    }

    /// Reseeding rewinds the mask stream: two forwards after the same
    /// reseed draw identical masks, regardless of prior history.
    #[test]
    fn dropout_reseed_replays_masks() {
        let mut d = Dropout::new(0.5, 1);
        let x = Matrix::from_vec(1, 64, vec![1.0; 64]);
        d.reseed(77);
        let a = d.forward(&x, true);
        let _ = d.forward(&x, true); // advance the stream
        d.reseed(77);
        let b = d.forward(&x, true);
        assert_eq!(a, b);
        // A deterministic layer ignores reseed.
        let mut r = Relu::new();
        r.reseed(123);
    }

    /// `infer` must agree with eval-mode `forward` for every layer.
    #[test]
    fn infer_matches_eval_forward() {
        let mut r = rng();
        let x = Matrix::xavier(4, 6, &mut r);
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Dense::new(6, 3, &mut r)),
            Box::new(Relu::new()),
            Box::new(Dropout::new(0.5, 9)),
            Box::new(Highway::new(6, &mut r)),
        ];
        for mut l in layers {
            let via_infer = l.infer(&x);
            let via_forward = l.forward(&x, false);
            // Dense/Highway change the width; compare whatever came out.
            assert_eq!(via_infer, via_forward);
        }
    }
}
