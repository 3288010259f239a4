//! The optimizer: ADAM \[36\], the paper's choice (§4.2).

use crate::param::Param;

/// The first-moment decay `β1`.
const BETA1: f32 = 0.9;
/// The second-moment decay `β2`.
const BETA2: f32 = 0.999;
/// The denominator's `ε`.
const EPS: f32 = 1e-8;

/// ADAM with the standard constants `β1 = 0.9`, `β2 = 0.999`,
/// `ε = 1e-8`. It updates parameters in place from their accumulated
/// gradients. Call [`Adam::begin_step`] once per batch before applying
/// it to each parameter (the bias correction tracks the step count there).
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    t: i32,
}

impl Adam {
    /// ADAM with a learning rate.
    pub fn new(lr: f32) -> Self {
        Adam { lr, t: 0 }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Advance the global step counter (once per mini-batch).
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// Apply the update rule to one parameter.
    pub fn update(&mut self, p: &mut Param) {
        assert!(self.t > 0, "begin_step must be called before update");
        let bc1 = 1.0 - BETA1.powi(self.t);
        let bc2 = 1.0 - BETA2.powi(self.t);
        let g = p.grad.data().to_vec();
        let m = p.m.data_mut();
        let v = p.v.data_mut();
        for ((m_i, v_i), &g_i) in m.iter_mut().zip(v.iter_mut()).zip(&g) {
            *m_i = BETA1 * *m_i + (1.0 - BETA1) * g_i;
            *v_i = BETA2 * *v_i + (1.0 - BETA2) * g_i * g_i;
        }
        let value = p.value.data_mut();
        let m = &p.m;
        let v = &p.v;
        for ((val, &m_i), &v_i) in value.iter_mut().zip(m.data()).zip(v.data()) {
            let m_hat = m_i / bc1;
            let v_hat = v_i / bc2;
            *val -= self.lr * m_hat / (v_hat.sqrt() + EPS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    /// Minimize f(x) = (x - 3)² from x = 0.
    fn minimize(opt: &mut Adam, steps: usize, lr_hint: f32) -> f32 {
        let mut p = Param::new(Matrix::from_vec(1, 1, vec![0.0]));
        for _ in 0..steps {
            let x = p.value.data()[0];
            p.zero_grad();
            p.grad.data_mut()[0] = 2.0 * (x - 3.0);
            opt.begin_step();
            opt.update(&mut p);
        }
        let _ = lr_hint;
        p.value.data()[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(0.2);
        let x = minimize(&mut adam, 300, 0.2);
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the first ADAM step has magnitude ≈ lr.
        let mut adam = Adam::new(0.5);
        let mut p = Param::new(Matrix::from_vec(1, 1, vec![0.0]));
        p.grad.data_mut()[0] = 123.0; // any nonzero gradient
        adam.begin_step();
        adam.update(&mut p);
        assert!((p.value.data()[0].abs() - 0.5).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "begin_step")]
    fn adam_requires_begin_step() {
        let mut adam = Adam::new(0.1);
        let mut p = Param::new(Matrix::zeros(1, 1));
        adam.update(&mut p);
    }
}
