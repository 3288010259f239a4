//! The wide-and-deep model of Figure 7.
//!
//! Each learnable representation (char / word / tuple / neighbourhood
//! embedding) feeds its own branch — `Highway ×2 → ReLU → Dense(d→1)`
//! (Figure 2B) — whose scalar output is concatenated with the wide
//! features into the joint representation. The classifier `M`
//! (Figure 2C) is `Dropout → Dense → ReLU → Dense(2)` trained with
//! softmax/logistic loss. Everything is trained jointly: "At training
//! time, we backpropagate through the entire network jointly, rather
//! than training specific representations" (Appendix A.1).

use holo_features::FeatureLayout;
use holo_nn::{
    softmax_cross_entropy_scaled, Adam, Dense, Dropout, Highway, Layer, Matrix, Param, Relu,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// How the learnable branches transform their embedding inputs.
///
/// The paper uses highway layers (Figure 2B) and motivates them with
/// prior successes \[58\] but does not ablate the choice; the
/// `ablation_highway` experiment binary compares both styles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BranchStyle {
    /// `Highway ×2 → ReLU → Dense(d→1)` — the paper's architecture.
    #[default]
    Highway,
    /// `Dense ×2 (ReLU) → Dense(d→1)` — a plain MLP of the same depth.
    PlainDense,
}

/// One learnable branch.
struct Branch {
    layers: Vec<Box<dyn Layer>>,
}

impl Branch {
    fn new(dim: usize, style: BranchStyle, rng: &mut StdRng) -> Self {
        let layers: Vec<Box<dyn Layer>> = match style {
            BranchStyle::Highway => vec![
                Box::new(Highway::new(dim, rng)),
                Box::new(Highway::new(dim, rng)),
                Box::new(Relu::new()),
                Box::new(Dense::new(dim, 1, rng)),
            ],
            BranchStyle::PlainDense => vec![
                Box::new(Dense::new(dim, dim, rng)),
                Box::new(Relu::new()),
                Box::new(Dense::new(dim, dim, rng)),
                Box::new(Relu::new()),
                Box::new(Dense::new(dim, 1, rng)),
            ],
        };
        Branch { layers }
    }
}

/// The jointly-trained wide-and-deep error-detection model.
pub struct WideDeepModel {
    layout: FeatureLayout,
    branches: Vec<Branch>,
    classifier: Vec<Box<dyn Layer>>,
    rng: StdRng,
    // Construction recipe, kept so training can stamp out worker
    // replicas with the same skeleton ([`WideDeepModel::replica`]).
    hidden_dim: usize,
    dropout_p: f32,
    style: BranchStyle,
    seed: u64,
}

/// Fixed number of gradient shards each mini-batch is decomposed into,
/// *independent of thread count*. Every shard's forward/backward runs on
/// exactly its own rows, results land in per-shard slots, and the
/// reduction walks slots in shard order — so the arithmetic (including
/// f32 summation order) is identical whether 1 or N threads execute the
/// shards. 8 matches the default thread clamp and keeps per-shard
/// batches ≥4 rows at the default batch size of 32.
const SGD_SHARDS: usize = 8;

/// SplitMix64-style mixer for deriving per-(step, shard, layer) seeds.
fn mix_seed(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One shard's contribution to a step: flattened parameter gradients
/// (in [`WideDeepModel::for_each_param`] traversal order) plus the
/// unnormalized loss sum over the shard's rows.
#[derive(Default)]
struct ShardSlot {
    grads: Vec<f32>,
    loss: f64,
}

/// One SGD step's work unit, shared between the master and worker
/// threads. The atomic cursor hands out shard indices dynamically (the
/// `features_batch` idiom); each claimed shard writes its own slot, so
/// scheduling order never affects the result.
struct TrainStep {
    /// Master-weights snapshot workers load before computing (empty in
    /// single-threaded runs, where the master IS the weights).
    weights: Vec<f32>,
    /// Row indices per shard, in fixed decomposition order.
    shards: Vec<Vec<usize>>,
    /// Whole-batch row count (the gradient scale).
    total: usize,
    /// Global step index (drives per-shard dropout seeds).
    step: u64,
    cursor: AtomicUsize,
    slots: Vec<Mutex<ShardSlot>>,
    done: Mutex<usize>,
    done_cv: Condvar,
}

impl TrainStep {
    /// Block until every shard's slot has been written.
    fn wait_done(&self) {
        let mut d = self.done.lock().expect("sgd done lock");
        while *d < self.shards.len() {
            d = self.done_cv.wait(d).expect("sgd done wait");
        }
    }
}

/// The master→worker step channel: a generation counter plus the
/// current step, bumped under one mutex so workers never miss or
/// double-run a step. Generation `u64::MAX` means training is over.
struct StepBoard {
    cell: Mutex<(u64, Option<Arc<TrainStep>>)>,
    cv: Condvar,
}

impl StepBoard {
    fn new() -> Self {
        StepBoard {
            cell: Mutex::new((0, None)),
            cv: Condvar::new(),
        }
    }

    fn publish(&self, job: Arc<TrainStep>) {
        let mut cell = self.cell.lock().expect("step board lock");
        cell.0 += 1;
        cell.1 = Some(job);
        self.cv.notify_all();
    }

    fn close(&self) {
        let mut cell = self.cell.lock().expect("step board lock");
        cell.0 = u64::MAX;
        cell.1 = None;
        self.cv.notify_all();
    }

    /// Worker side: wait for a generation newer than `last_gen`;
    /// `None` once the board is closed.
    fn next(&self, last_gen: &mut u64) -> Option<Arc<TrainStep>> {
        let mut cell = self.cell.lock().expect("step board lock");
        loop {
            if cell.0 == u64::MAX {
                return None;
            }
            if cell.0 != *last_gen {
                *last_gen = cell.0;
                return cell.1.clone();
            }
            cell = self.cv.wait(cell).expect("step board wait");
        }
    }
}

impl WideDeepModel {
    /// Build for a feature layout with the paper's highway branches; all
    /// parameters Xavier-initialized from the seed.
    pub fn new(layout: FeatureLayout, hidden_dim: usize, dropout: f32, seed: u64) -> Self {
        Self::with_branch_style(layout, hidden_dim, dropout, seed, BranchStyle::Highway)
    }

    /// Build with an explicit [`BranchStyle`] (the highway ablation).
    pub fn with_branch_style(
        layout: FeatureLayout,
        hidden_dim: usize,
        dropout: f32,
        seed: u64,
        style: BranchStyle,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let branches: Vec<Branch> = layout
            .branch_dims
            .iter()
            .map(|&d| Branch::new(d, style, &mut rng))
            .collect();
        let joint_dim = layout.wide_dim() + branches.len();
        let classifier: Vec<Box<dyn Layer>> = vec![
            Box::new(Dropout::new(dropout, seed.wrapping_add(1))),
            Box::new(Dense::new(joint_dim, hidden_dim, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(hidden_dim, 2, &mut rng)),
        ];
        WideDeepModel {
            layout,
            branches,
            classifier,
            rng,
            hidden_dim,
            dropout_p: dropout,
            style,
            seed,
        }
    }

    /// A fresh model with the same skeleton (layout, widths, branch
    /// style, seed) — a worker replica whose parameters are overwritten
    /// from the master each step and whose dropout is reseeded per
    /// shard, so it never consumes its construction-time RNG streams.
    fn replica(&self) -> WideDeepModel {
        WideDeepModel::with_branch_style(
            self.layout.clone(),
            self.hidden_dim,
            self.dropout_p,
            self.seed,
            self.style,
        )
    }

    /// The layout this model expects.
    pub fn layout(&self) -> &FeatureLayout {
        &self.layout
    }

    /// Total trainable parameter count.
    pub fn n_params(&mut self) -> usize {
        let mut n = 0;
        for b in &mut self.branches {
            for l in &mut b.layers {
                n += l.params_mut().iter().map(|p| p.len()).sum::<usize>();
            }
        }
        for l in &mut self.classifier {
            n += l.params_mut().iter().map(|p| p.len()).sum::<usize>();
        }
        n
    }

    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        let branches = &mut self.branches;
        let classifier = &mut self.classifier;
        run_dag(
            &self.layout,
            x,
            branches.len(),
            |bi, mut h| {
                for l in &mut branches[bi].layers {
                    h = l.forward(&h, train);
                }
                h
            },
            |mut joint| {
                for l in classifier.iter_mut() {
                    joint = l.forward(&joint, train);
                }
                joint
            },
        )
    }

    /// Inference-only forward pass (eval mode, shared access) — the
    /// scoring path of a fitted model, callable from many threads.
    fn forward_infer(&self, x: &Matrix) -> Matrix {
        run_dag(
            &self.layout,
            x,
            self.branches.len(),
            |bi, mut h| {
                for l in &self.branches[bi].layers {
                    h = l.infer(&h);
                }
                h
            },
            |mut joint| {
                for l in &self.classifier {
                    joint = l.infer(&joint);
                }
                joint
            },
        )
    }

    fn backward(&mut self, grad_logits: &Matrix) {
        let mut g = grad_logits.clone();
        for l in self.classifier.iter_mut().rev() {
            g = l.backward(&g);
        }
        // Split the joint gradient: wide block (no params) + 1 col/branch.
        let mut widths = vec![self.layout.wide_dim()];
        widths.extend(std::iter::repeat_n(1usize, self.branches.len()));
        let parts = g.split_cols(&widths);
        for (branch, grad) in self.branches.iter_mut().zip(&parts[1..]) {
            let mut bg = grad.clone();
            for l in branch.layers.iter_mut().rev() {
                bg = l.backward(&bg);
            }
        }
    }

    fn zero_grad(&mut self) {
        for b in &mut self.branches {
            for l in &mut b.layers {
                l.zero_grad();
            }
        }
        for l in &mut self.classifier {
            l.zero_grad();
        }
    }

    fn step(&mut self, opt: &mut Adam) {
        opt.begin_step();
        for b in &mut self.branches {
            for l in &mut b.layers {
                for p in l.params_mut() {
                    opt.update(p);
                }
            }
        }
        for l in &mut self.classifier {
            for p in l.params_mut() {
                opt.update(p);
            }
        }
    }

    /// Train with mini-batch ADAM on one thread.
    /// `targets[i] ∈ {0 = correct, 1 = error}`. Returns the mean loss of
    /// the final epoch. Equivalent to [`WideDeepModel::train_threaded`]
    /// with `threads = 1` (and bitwise-identical to it at any thread
    /// count).
    pub fn train(
        &mut self,
        x: &Matrix,
        targets: &[usize],
        epochs: usize,
        batch_size: usize,
        lr: f32,
    ) -> f32 {
        self.train_threaded(x, targets, epochs, batch_size, lr, 1)
    }

    /// Train with mini-batch ADAM, sharding each mini-batch's
    /// forward/backward over up to `threads` worker threads.
    ///
    /// Every mini-batch is decomposed into the same fixed number of
    /// row-shards regardless of `threads`; workers claim shards through
    /// an atomic cursor, each shard's gradient lands in its own slot,
    /// and the master reduces the slots in fixed shard order before the
    /// (sequential) ADAM update. Dropout masks are reseeded per
    /// (step, shard), never drawn from a shared stream. Consequently the
    /// trained parameters — and everything downstream: scores,
    /// calibration, thresholds — are **bitwise-identical across thread
    /// counts** at the same seed; `threads` buys wall-time only.
    pub fn train_threaded(
        &mut self,
        x: &Matrix,
        targets: &[usize],
        epochs: usize,
        batch_size: usize,
        lr: f32,
        threads: usize,
    ) -> f32 {
        assert_eq!(x.rows(), targets.len(), "features/targets mismatch");
        assert!(x.rows() > 0, "empty training set");
        let bs = batch_size.max(1);
        let shard_rows = bs.div_ceil(SGD_SHARDS);
        let salt = mix_seed(self.seed, 0x5bd1_e995);
        let n_helpers = threads.clamp(1, SGD_SHARDS).saturating_sub(1);
        if n_helpers == 0 {
            return self.train_epochs(x, targets, epochs, bs, shard_rows, lr, salt, None);
        }
        let replicas: Vec<WideDeepModel> = (0..n_helpers).map(|_| self.replica()).collect();
        let board = StepBoard::new();
        let mut last_loss = 0.0f32;
        std::thread::scope(|s| {
            for mut rep in replicas {
                let board = &board;
                s.spawn(move || {
                    let mut last_gen = 0u64;
                    while let Some(job) = board.next(&mut last_gen) {
                        rep.load_params_flat(&job.weights);
                        rep.run_shards(&job, x, targets, salt);
                    }
                });
            }
            last_loss =
                self.train_epochs(x, targets, epochs, bs, shard_rows, lr, salt, Some(&board));
            board.close();
        });
        last_loss
    }

    /// The epoch/step loop shared by the single- and multi-threaded
    /// paths; `board` is `Some` when worker threads are standing by.
    #[allow(clippy::too_many_arguments)]
    fn train_epochs(
        &mut self,
        x: &Matrix,
        targets: &[usize],
        epochs: usize,
        bs: usize,
        shard_rows: usize,
        lr: f32,
        salt: u64,
        board: Option<&StepBoard>,
    ) -> f32 {
        let mut opt = Adam::new(lr);
        let mut order: Vec<usize> = (0..x.rows()).collect();
        let mut last_epoch_loss = 0.0f32;
        let mut step = 0u64;
        for _ in 0..epochs {
            order.shuffle(&mut self.rng);
            let mut epoch_loss = 0.0f32;
            let mut batches = 0usize;
            for chunk in order.chunks(bs) {
                let shards: Vec<Vec<usize>> =
                    chunk.chunks(shard_rows).map(<[usize]>::to_vec).collect();
                let n_shards = shards.len();
                let job = Arc::new(TrainStep {
                    weights: if board.is_some() {
                        self.params_flat()
                    } else {
                        Vec::new()
                    },
                    shards,
                    total: chunk.len(),
                    step,
                    cursor: AtomicUsize::new(0),
                    slots: (0..n_shards)
                        .map(|_| Mutex::new(ShardSlot::default()))
                        .collect(),
                    done: Mutex::new(0),
                    done_cv: Condvar::new(),
                });
                if let Some(b) = board {
                    b.publish(Arc::clone(&job));
                }
                // The master claims shards too; its own parameters equal
                // the snapshot workers load, so any claimer computes the
                // same bits.
                self.run_shards(&job, x, targets, salt);
                job.wait_done();
                self.zero_grad();
                let mut batch_loss = 0.0f64;
                for slot in &job.slots {
                    let s = slot.lock().expect("shard slot lock");
                    self.accumulate_grads_flat(&s.grads);
                    batch_loss += s.loss;
                }
                self.step(&mut opt);
                epoch_loss += (batch_loss / job.total as f64) as f32;
                batches += 1;
                step += 1;
            }
            last_epoch_loss = epoch_loss / batches.max(1) as f32;
        }
        last_epoch_loss
    }

    /// Claim shards off the step's cursor until exhausted, writing each
    /// shard's gradient + loss into its slot. Runs on the master (with
    /// `self`) and on worker replicas alike.
    fn run_shards(&mut self, job: &TrainStep, x: &Matrix, targets: &[usize], salt: u64) {
        loop {
            let si = job.cursor.fetch_add(1, Ordering::Relaxed);
            if si >= job.shards.len() {
                return;
            }
            let shard = &job.shards[si];
            let bx = x.gather_rows(shard);
            let bt: Vec<usize> = shard.iter().map(|&i| targets[i]).collect();
            let shard_seed = mix_seed(mix_seed(salt, job.step), si as u64);
            let loss = self.shard_pass(&bx, &bt, job.total, shard_seed);
            {
                let mut slot = job.slots[si].lock().expect("shard slot lock");
                self.grads_flat_into(&mut slot.grads);
                slot.loss = loss;
            }
            let mut d = job.done.lock().expect("sgd done lock");
            *d += 1;
            if *d >= job.shards.len() {
                job.done_cv.notify_all();
            }
        }
    }

    /// One shard's forward/backward: reseed stochastic layers from the
    /// shard's deterministic seed, compute gradients scaled by the
    /// *whole-batch* row count, return the unnormalized loss sum.
    fn shard_pass(&mut self, bx: &Matrix, bt: &[usize], total: usize, shard_seed: u64) -> f64 {
        self.reseed_stochastic(shard_seed);
        self.zero_grad();
        let logits = self.forward(bx, true);
        let (loss, grad) = softmax_cross_entropy_scaled(&logits, bt, total);
        self.backward(&grad);
        loss
    }

    /// Reseed every stochastic layer (dropout) from `seed`, mixed with
    /// the layer's position so multiple stochastic layers decorrelate.
    fn reseed_stochastic(&mut self, seed: u64) {
        let mut i = 0u64;
        for b in &mut self.branches {
            for l in &mut b.layers {
                l.reseed(mix_seed(seed, i));
                i += 1;
            }
        }
        for l in &mut self.classifier {
            l.reseed(mix_seed(seed, i));
            i += 1;
        }
    }

    /// All parameter values flattened in traversal order.
    fn params_flat(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.for_each_param(|p| out.extend_from_slice(p.value.data()));
        out
    }

    /// Overwrite all parameter values from a flat snapshot.
    fn load_params_flat(&mut self, flat: &[f32]) {
        let mut off = 0usize;
        self.for_each_param_mut(|p| {
            let d = p.value.data_mut();
            let n = d.len();
            d.copy_from_slice(&flat[off..off + n]);
            off += n;
        });
    }

    /// All parameter gradients flattened in traversal order.
    fn grads_flat_into(&self, out: &mut Vec<f32>) {
        out.clear();
        self.for_each_param(|p| out.extend_from_slice(p.grad.data()));
    }

    /// Add a flat gradient snapshot into the parameter gradients.
    fn accumulate_grads_flat(&mut self, flat: &[f32]) {
        let mut off = 0usize;
        self.for_each_param_mut(|p| {
            let g = p.grad.data_mut();
            let n = g.len();
            for (gi, &fi) in g.iter_mut().zip(&flat[off..off + n]) {
                *gi += fi;
            }
            off += n;
        });
    }

    /// Raw error-class margins `z_error − z_correct` (eval mode, shared
    /// access), the scores Platt scaling calibrates.
    pub fn scores(&self, x: &Matrix) -> Vec<f32> {
        if x.rows() == 0 {
            return Vec::new();
        }
        let logits = self.forward_infer(x);
        (0..x.rows())
            .map(|i| logits.get(i, 1) - logits.get(i, 0))
            .collect()
    }

    /// Uncalibrated error probabilities via softmax (eval mode, shared
    /// access).
    pub fn predict_proba(&self, x: &Matrix) -> Vec<f32> {
        if x.rows() == 0 {
            return Vec::new();
        }
        let logits = self.forward_infer(x);
        let p = holo_nn::loss::softmax(&logits);
        (0..x.rows()).map(|i| p.get(i, 1)).collect()
    }

    /// Visit every trainable parameter in the fixed traversal order
    /// (branches in layout order, then the classifier; layers front to
    /// back). Model serialization writes weights through this walk.
    pub fn for_each_param<F: FnMut(&Param)>(&self, mut f: F) {
        for b in &self.branches {
            for l in &b.layers {
                for p in l.params() {
                    f(p);
                }
            }
        }
        for l in &self.classifier {
            for p in l.params() {
                f(p);
            }
        }
    }

    /// Mutable counterpart of [`WideDeepModel::for_each_param`] — the
    /// same traversal order; artifact loading overwrites weights through
    /// this walk.
    pub fn for_each_param_mut<F: FnMut(&mut Param)>(&mut self, mut f: F) {
        for b in &mut self.branches {
            for l in &mut b.layers {
                for p in l.params_mut() {
                    f(p);
                }
            }
        }
        for l in &mut self.classifier {
            for p in l.params_mut() {
                f(p);
            }
        }
    }
}

/// The wide-and-deep DAG shape, shared by the training and inference
/// passes so the split/branch/concat assembly exists once: split the
/// input into the wide block plus one slice per branch, run each branch
/// stack, concatenate, run the classifier stack.
fn run_dag(
    layout: &FeatureLayout,
    x: &Matrix,
    n_branches: usize,
    mut run_branch: impl FnMut(usize, Matrix) -> Matrix,
    run_classifier: impl FnOnce(Matrix) -> Matrix,
) -> Matrix {
    let parts = x.split_cols(&layout.split_widths());
    let mut joint_parts: Vec<Matrix> = Vec::with_capacity(1 + n_branches);
    joint_parts.push(parts[0].clone());
    for (bi, input) in parts[1..].iter().enumerate() {
        joint_parts.push(run_branch(bi, input.clone()));
    }
    let refs: Vec<&Matrix> = joint_parts.iter().collect();
    run_classifier(Matrix::hstack(&refs))
}

/// Build a feature matrix from per-example vectors.
pub fn matrix_from_rows(rows: &[Vec<f32>]) -> Matrix {
    assert!(!rows.is_empty(), "no feature rows");
    let dim = rows[0].len();
    let mut data = Vec::with_capacity(rows.len() * dim);
    for r in rows {
        assert_eq!(r.len(), dim, "ragged feature rows");
        data.extend_from_slice(r);
    }
    Matrix::from_vec(rows.len(), dim, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> FeatureLayout {
        FeatureLayout {
            wide_names: vec!["w0".into(), "w1".into(), "w2".into()],
            branch_names: vec!["b0".into(), "b1".into()],
            branch_dims: vec![8, 8],
        }
    }

    /// Synthetic task: error iff (wide\[0\] > 0.5) XOR (branch0 mean > 0).
    fn synthetic(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = layout();
        let mut rows = Vec::with_capacity(n);
        let mut targets = Vec::with_capacity(n);
        for _ in 0..n {
            use rand::Rng;
            let wide0: f32 = rng.random_range(0.0..1.0);
            let sign: f32 = if rng.random_range(0.0..1.0) < 0.5 {
                1.0
            } else {
                -1.0
            };
            let mut row = vec![wide0, rng.random_range(0.0..1.0), 0.5];
            row.extend((0..8).map(|_| sign * rng.random_range(0.1..0.5f32)));
            row.extend((0..8).map(|_| rng.random_range(-0.3..0.3f32)));
            assert_eq!(row.len(), l.total_dim());
            targets.push(usize::from((wide0 > 0.5) ^ (sign > 0.0)));
            rows.push(row);
        }
        (matrix_from_rows(&rows), targets)
    }

    #[test]
    fn learns_nonlinear_interaction() {
        let (x, y) = synthetic(400, 3);
        let mut m = WideDeepModel::new(layout(), 24, 0.0, 5);
        let loss = m.train(&x, &y, 120, 32, 0.01);
        assert!(loss < 0.35, "loss did not converge: {loss}");
        let p = m.predict_proba(&x);
        let acc = p
            .iter()
            .zip(&y)
            .filter(|(&pi, &yi)| usize::from(pi > 0.5) == yi)
            .count() as f64
            / y.len() as f64;
        assert!(acc > 0.85, "train accuracy {acc}");
    }

    #[test]
    fn scores_are_monotone_in_probability() {
        let (x, y) = synthetic(100, 9);
        let mut m = WideDeepModel::new(layout(), 16, 0.0, 1);
        m.train(&x, &y, 30, 16, 0.01);
        let scores = m.scores(&x);
        let probs = m.predict_proba(&x);
        for i in 0..99 {
            if scores[i] < scores[i + 1] {
                assert!(probs[i] <= probs[i + 1] + 1e-5);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = synthetic(60, 2);
        let run = || {
            let mut m = WideDeepModel::new(layout(), 16, 0.1, 11);
            m.train(&x, &y, 20, 8, 0.01);
            m.predict_proba(&x)
        };
        assert_eq!(run(), run());
    }

    /// The tentpole invariant: training with N threads produces
    /// bitwise-identical parameters, loss, and probabilities to training
    /// with 1 thread at the same seed — including with dropout active
    /// (per-shard reseeding) and a final ragged batch.
    #[test]
    fn train_is_bitwise_invariant_across_thread_counts() {
        let (x, y) = synthetic(130, 2); // 130 % 32 != 0 → ragged tail batch
        let run = |threads: usize| {
            let mut m = WideDeepModel::new(layout(), 16, 0.2, 11);
            let loss = m.train_threaded(&x, &y, 12, 32, 0.01, threads);
            let mut params = Vec::new();
            m.for_each_param(|p| params.extend(p.value.data().iter().map(|v| v.to_bits())));
            (loss.to_bits(), params, m.predict_proba(&x))
        };
        let (loss1, params1, probs1) = run(1);
        for threads in [2, 3, 8, 64] {
            let (loss_n, params_n, probs_n) = run(threads);
            assert_eq!(loss1, loss_n, "loss diverged at {threads} threads");
            assert_eq!(params1, params_n, "params diverged at {threads} threads");
            assert_eq!(
                probs1.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                probs_n.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                "probabilities diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn model_handles_no_branches() {
        // Wide-only layout (all embeddings ablated).
        let l = FeatureLayout {
            wide_names: vec!["a".into(), "b".into()],
            branch_names: vec![],
            branch_dims: vec![],
        };
        let x = matrix_from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let mut m = WideDeepModel::new(l, 8, 0.0, 3);
        let loss = m.train(&x, &[0, 1], 100, 2, 0.05);
        assert!(loss < 0.2);
    }

    #[test]
    fn plain_dense_branches_also_learn() {
        let (x, y) = synthetic(300, 4);
        let mut m = WideDeepModel::with_branch_style(layout(), 24, 0.0, 5, BranchStyle::PlainDense);
        let loss = m.train(&x, &y, 120, 32, 0.01);
        assert!(loss < 0.45, "plain-dense loss {loss}");
    }

    #[test]
    fn branch_styles_have_different_param_counts() {
        let mut hw = WideDeepModel::with_branch_style(layout(), 8, 0.0, 1, BranchStyle::Highway);
        let mut pd = WideDeepModel::with_branch_style(layout(), 8, 0.0, 1, BranchStyle::PlainDense);
        // Highway: 2 layers × (2 weight matrices + 2 biases); dense: 2 ×
        // (1 matrix + 1 bias) — highway must be bigger.
        assert!(hw.n_params() > pd.n_params());
    }

    #[test]
    fn n_params_positive_and_layout_kept() {
        let mut m = WideDeepModel::new(layout(), 16, 0.0, 1);
        assert!(m.n_params() > 100);
        assert_eq!(m.layout().n_branches(), 2);
    }

    /// Numerical gradient check through the *entire* wide-and-deep DAG:
    /// classifier → concat split → highway branches. Catches any error in
    /// the joint backward routing.
    #[test]
    fn whole_model_gradient_check() {
        let l = FeatureLayout {
            wide_names: vec!["w0".into(), "w1".into()],
            branch_names: vec!["b0".into(), "b1".into()],
            branch_dims: vec![3, 4],
        };
        let mut m = WideDeepModel::with_branch_style(l, 4, 0.0, 9, BranchStyle::Highway);
        let mut rng = StdRng::seed_from_u64(4);
        let x = Matrix::xavier(3, m.layout().total_dim(), &mut rng);
        let targets = [0usize, 1, 0];

        // Analytic gradients.
        m.zero_grad();
        let logits = m.forward(&x, false);
        let (_, grad) = holo_nn::softmax_cross_entropy(&logits, &targets);
        m.backward(&grad);

        let loss_of = |m: &mut WideDeepModel| -> f32 {
            let lg = m.forward(&x, false);
            holo_nn::softmax_cross_entropy(&lg, &targets).0
        };

        let eps = 1e-2f32;
        let tol = 3e-2f32;
        // Check a few parameters in every branch and the classifier.
        let n_branches = m.branches.len();
        for bi in 0..n_branches {
            for li in 0..m.branches[bi].layers.len() {
                let n_params = m.branches[bi].layers[li].params_mut().len();
                for pi in 0..n_params {
                    for i in [0usize, 1] {
                        let (orig, ana) = {
                            let p = &mut m.branches[bi].layers[li].params_mut()[pi];
                            if i >= p.value.data().len() {
                                continue;
                            }
                            (p.value.data()[i], p.grad.data()[i])
                        };
                        m.branches[bi].layers[li].params_mut()[pi].value.data_mut()[i] = orig + eps;
                        let lp = loss_of(&mut m);
                        m.branches[bi].layers[li].params_mut()[pi].value.data_mut()[i] = orig - eps;
                        let lm = loss_of(&mut m);
                        m.branches[bi].layers[li].params_mut()[pi].value.data_mut()[i] = orig;
                        let num = (lp - lm) / (2.0 * eps);
                        assert!(
                            (num - ana).abs() <= tol * (1.0 + num.abs().max(ana.abs())),
                            "branch {bi} layer {li} param {pi}[{i}]: numeric {num} vs \
                             analytic {ana}"
                        );
                    }
                }
            }
        }
        for li in 0..m.classifier.len() {
            let n_params = m.classifier[li].params_mut().len();
            for pi in 0..n_params {
                let (orig, ana) = {
                    let p = &mut m.classifier[li].params_mut()[pi];
                    (p.value.data()[0], p.grad.data()[0])
                };
                m.classifier[li].params_mut()[pi].value.data_mut()[0] = orig + eps;
                let lp = loss_of(&mut m);
                m.classifier[li].params_mut()[pi].value.data_mut()[0] = orig - eps;
                let lm = loss_of(&mut m);
                m.classifier[li].params_mut()[pi].value.data_mut()[0] = orig;
                let num = (lp - lm) / (2.0 * eps);
                assert!(
                    (num - ana).abs() <= tol * (1.0 + num.abs().max(ana.abs())),
                    "classifier layer {li} param {pi}: numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    /// The shared-access inference DAG must agree with eval-mode
    /// training forward at the whole-model level (the per-layer
    /// agreement test lives in holo-nn).
    #[test]
    fn infer_path_matches_eval_forward() {
        let (x, y) = synthetic(60, 7);
        let mut m = WideDeepModel::new(layout(), 16, 0.2, 3);
        m.train(&x, &y, 10, 16, 0.01);
        let via_infer = m.forward_infer(&x);
        let via_forward = m.forward(&x, false);
        assert_eq!(via_infer, via_forward);
    }

    #[test]
    fn empty_prediction_is_empty() {
        let m = WideDeepModel::new(layout(), 8, 0.0, 1);
        let x = Matrix::zeros(0, m.layout().total_dim());
        assert!(m.predict_proba(&x).is_empty());
        assert!(m.scores(&x).is_empty());
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_panics() {
        let mut m = WideDeepModel::new(layout(), 8, 0.0, 1);
        let x = Matrix::zeros(0, m.layout().total_dim());
        m.train(&x, &[], 1, 4, 0.01);
    }
}
