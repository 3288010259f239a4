//! A simple sequential layer stack.
//!
//! Used for the logistic-regression baseline, the classifier `M` in
//! isolation, and tests. The full wide-and-deep model composes layers
//! manually (it is a DAG, not a chain) in the `holodetect` crate.

use crate::layers::Layer;
use crate::loss::softmax_cross_entropy;
use crate::matrix::Matrix;
use crate::optim::Adam;

/// A stack of layers applied in order.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// An empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` when the stack has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Forward through all layers.
    pub fn forward(&mut self, input: &Matrix, train: bool) -> Matrix {
        let mut x = input.clone();
        for l in &mut self.layers {
            x = l.forward(&x, train);
        }
        x
    }

    /// Inference-only forward pass: eval behaviour, shared access.
    pub fn infer(&self, input: &Matrix) -> Matrix {
        let mut x = input.clone();
        for l in &self.layers {
            x = l.infer(&x);
        }
        x
    }

    /// Backward through all layers, returning the input gradient.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut g = grad_out.clone();
        for l in self.layers.iter_mut().rev() {
            g = l.backward(&g);
        }
        g
    }

    /// Zero every parameter gradient.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Apply the optimizer to every parameter, calling
    /// [`Adam::begin_step`] once first.
    pub fn step(&mut self, opt: &mut Adam) {
        opt.begin_step();
        for l in &mut self.layers {
            for p in l.params_mut() {
                opt.update(p);
            }
        }
    }

    /// One training step on a batch: forward, softmax cross-entropy,
    /// backward, optimizer update. Returns the batch loss.
    pub fn train_batch(&mut self, x: &Matrix, targets: &[usize], opt: &mut Adam) -> f32 {
        self.zero_grad();
        let logits = self.forward(x, true);
        let (loss, grad) = softmax_cross_entropy(&logits, targets);
        self.backward(&grad);
        self.step(opt);
        loss
    }

    /// Class probabilities for a batch (eval mode, shared access).
    pub fn predict_proba(&self, x: &Matrix) -> Matrix {
        crate::loss::softmax(&self.infer(x))
    }

    /// Raw logits for a batch (eval mode) — used by Platt scaling.
    pub fn logits(&self, x: &Matrix) -> Matrix {
        self.infer(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The XOR problem: requires a hidden layer, so solving it exercises
    /// the full backprop chain.
    #[test]
    fn learns_xor() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Sequential::new()
            .push(Dense::new(2, 8, &mut rng))
            .push(Relu::new())
            .push(Dense::new(8, 2, &mut rng));
        let x = Matrix::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let y = [0usize, 1, 1, 0];
        let mut opt = Adam::new(0.05);
        let mut last = f32::INFINITY;
        for _ in 0..500 {
            last = net.train_batch(&x, &y, &mut opt);
        }
        assert!(last < 0.05, "XOR loss did not converge: {last}");
        let p = net.predict_proba(&x);
        for (i, &t) in y.iter().enumerate() {
            let pred = if p.get(i, 1) > p.get(i, 0) { 1 } else { 0 };
            assert_eq!(pred, t, "wrong XOR prediction on row {i}");
        }
    }

    #[test]
    fn learns_linear_separation() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Sequential::new().push(Dense::new(1, 2, &mut rng));
        // x > 0 → class 1
        let xs: Vec<f32> = (-10..10).map(|v| v as f32 / 5.0).collect();
        let ys: Vec<usize> = xs.iter().map(|&v| usize::from(v > 0.0)).collect();
        let x = Matrix::from_vec(xs.len(), 1, xs);
        let mut opt = Adam::new(0.1);
        for _ in 0..200 {
            net.train_batch(&x, &ys, &mut opt);
        }
        let p = net.predict_proba(&x);
        let acc = ys
            .iter()
            .enumerate()
            .filter(|&(i, &t)| usize::from(p.get(i, 1) > 0.5) == t)
            .count();
        assert!(acc >= ys.len() - 1, "linear accuracy {acc}/{}", ys.len());
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = Sequential::new()
            .push(Dense::new(3, 4, &mut rng))
            .push(Relu::new())
            .push(Dense::new(4, 3, &mut rng));
        let x = Matrix::xavier(5, 3, &mut rng);
        let p = net.predict_proba(&x);
        for i in 0..5 {
            let s: f32 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let build = || {
            let mut rng = StdRng::seed_from_u64(9);
            let mut net = Sequential::new()
                .push(Dense::new(2, 4, &mut rng))
                .push(Relu::new())
                .push(Dense::new(4, 2, &mut rng));
            let x = Matrix::from_vec(2, 2, vec![0.1, 0.9, 0.8, 0.2]);
            let mut opt = Adam::new(0.05);
            for _ in 0..20 {
                net.train_batch(&x, &[0, 1], &mut opt);
            }
            net.predict_proba(&x)
        };
        assert_eq!(build(), build());
    }
}
