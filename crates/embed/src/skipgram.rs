//! Skip-gram with negative sampling (SGNS) over hashed subwords.
//!
//! The trainer follows FastText: the *input* representation of a token is
//! the average of its word vector and its subword-bucket vectors, so
//! out-of-vocabulary strings (e.g. a typo'd cell value, exactly what
//! error detection cares about) still embed near their clean neighbours.

use crate::vocab::Vocab;
use holo_data::binio;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Read, Write};

/// Configuration for [`Embedding::train`].
#[derive(Debug, Clone)]
pub struct SkipGramConfig {
    /// Embedding dimension (the paper uses 50).
    pub dim: usize,
    /// Full passes over the corpus.
    pub epochs: usize,
    /// Initial learning rate, decayed linearly to 5% across training.
    pub lr: f32,
    /// Negative samples per positive pair.
    pub negative: usize,
    /// Context window; `None` means the whole sentence (the paper's
    /// bag-of-words treatment of tuples).
    pub window: Option<usize>,
    /// Minimum token count for vocabulary inclusion.
    pub min_count: u64,
    /// Subword n-gram order range (inclusive).
    pub subword_range: (usize, usize),
    /// Subword hash buckets (0 disables subwords).
    pub buckets: usize,
    /// RNG seed — training is fully deterministic given the seed.
    pub seed: u64,
}

impl Default for SkipGramConfig {
    fn default() -> Self {
        SkipGramConfig {
            dim: 50,
            epochs: 5,
            lr: 0.05,
            negative: 5,
            window: Some(5),
            min_count: 1,
            subword_range: (3, 5),
            buckets: 1 << 15,
            seed: 17,
        }
    }
}

/// A trained embedding table.
#[derive(Debug, Clone)]
pub struct Embedding {
    vocab: Vocab,
    dim: usize,
    /// `(V + buckets) × dim`: word vectors then bucket vectors.
    input: Vec<f32>,
    /// `V × dim`: context (output) vectors.
    output: Vec<f32>,
}

impl Embedding {
    /// Train SGNS on the given sentences.
    pub fn train(sentences: &[Vec<String>], cfg: &SkipGramConfig) -> Self {
        let vocab = Vocab::build(sentences, cfg.min_count, cfg.subword_range, cfg.buckets);
        let v = vocab.len();
        let dim = cfg.dim;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut input = vec![0.0f32; (v + cfg.buckets) * dim];
        for x in &mut input {
            *x = rng.random_range(-0.5..0.5f32) / dim as f32;
        }
        let output = vec![0.0f32; v * dim];
        let mut emb = Embedding {
            vocab,
            dim,
            input,
            output,
        };
        if v == 0 {
            return emb;
        }

        let resolved = emb.resolve(sentences);
        emb.sgns_train(&resolved, cfg, &mut rng);
        emb
    }

    /// Pre-resolve sentences to (word id, subword buckets) pairs,
    /// dropping out-of-vocabulary tokens.
    fn resolve(&self, sentences: &[Vec<String>]) -> Vec<Vec<(usize, Vec<usize>)>> {
        sentences
            .iter()
            .map(|s| {
                s.iter()
                    .filter_map(|t| {
                        self.vocab
                            .id(t)
                            .map(|id| (id, self.vocab.subword_buckets(t)))
                    })
                    .collect()
            })
            .collect()
    }

    /// The SGNS training loop over pre-resolved sentences: linear lr
    /// decay across `cfg.epochs` passes.
    fn sgns_train(
        &mut self,
        resolved: &[Vec<(usize, Vec<usize>)>],
        cfg: &SkipGramConfig,
        rng: &mut StdRng,
    ) {
        let v = self.vocab.len();
        let dim = self.dim;
        if v == 0 {
            return;
        }
        let neg_table = self.vocab.negative_table();
        let total_mass = *neg_table.last().expect("non-empty vocab");

        let total_pairs: usize = resolved
            .iter()
            .map(|s| {
                let n = s.len();
                match cfg.window {
                    None => n.saturating_sub(1) * n,
                    Some(w) => n * (2 * w).min(n.saturating_sub(1)),
                }
            })
            .sum::<usize>()
            .max(1)
            * cfg.epochs;

        let mut seen_pairs = 0usize;
        let mut center_vec = vec![0.0f32; dim];
        let mut grad_in = vec![0.0f32; dim];

        for _ in 0..cfg.epochs {
            for sent in resolved {
                let n = sent.len();
                for i in 0..n {
                    let (center, buckets) = &sent[i];
                    let (lo, hi) = match cfg.window {
                        None => (0, n),
                        Some(w) => (i.saturating_sub(w), (i + w + 1).min(n)),
                    };
                    // The window is index arithmetic around the center;
                    // an index loop is the clear spelling.
                    #[allow(clippy::needless_range_loop)]
                    for j in lo..hi {
                        if j == i {
                            continue;
                        }
                        let ctx = sent[j].0;
                        seen_pairs += 1;
                        let progress = seen_pairs as f32 / total_pairs as f32;
                        let lr = cfg.lr * (1.0 - 0.95 * progress.min(1.0));

                        // Compose the center's input vector.
                        self.compose_input(*center, buckets, &mut center_vec);
                        grad_in.iter_mut().for_each(|g| *g = 0.0);

                        // Positive pair + negative samples.
                        self.sgns_pair(ctx, true, &center_vec, &mut grad_in, lr);
                        for _ in 0..cfg.negative {
                            let r: f64 = rng.random_range(0.0..total_mass);
                            let neg = neg_table.partition_point(|&c| c < r).min(v - 1);
                            if neg == ctx {
                                continue;
                            }
                            self.sgns_pair(neg, false, &center_vec, &mut grad_in, lr);
                        }

                        // Distribute the input gradient over word + buckets.
                        let parts = 1 + buckets.len();
                        let scale = 1.0 / parts as f32;
                        let w = &mut self.input[center * dim..(center + 1) * dim];
                        for (x, g) in w.iter_mut().zip(&grad_in) {
                            *x -= g * scale;
                        }
                        for &b in buckets {
                            let off = (v + b) * dim;
                            let bv = &mut self.input[off..off + dim];
                            for (x, g) in bv.iter_mut().zip(&grad_in) {
                                *x -= g * scale;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Average of the word vector (if in vocabulary) and subword-bucket
    /// vectors into `out`.
    fn compose_input(&self, word: usize, buckets: &[usize], out: &mut [f32]) {
        let dim = self.dim;
        let v = self.vocab.len();
        out.copy_from_slice(&self.input[word * dim..(word + 1) * dim]);
        for &b in buckets {
            let off = (v + b) * dim;
            for (o, x) in out.iter_mut().zip(&self.input[off..off + dim]) {
                *o += x;
            }
        }
        let scale = 1.0 / (1 + buckets.len()) as f32;
        for o in out.iter_mut() {
            *o *= scale;
        }
    }

    /// One (center, context) update; accumulates dL/d(center) in grad_in
    /// and applies the output-vector update immediately.
    fn sgns_pair(
        &mut self,
        ctx: usize,
        positive: bool,
        center: &[f32],
        grad_in: &mut [f32],
        lr: f32,
    ) {
        let dim = self.dim;
        let out = &mut self.output[ctx * dim..(ctx + 1) * dim];
        let mut dot = 0.0f32;
        for (c, o) in center.iter().zip(out.iter()) {
            dot += c * o;
        }
        let pred = 1.0 / (1.0 + (-dot).exp());
        let err = pred - f32::from(positive); // dL/d(dot)
        for i in 0..dim {
            grad_in[i] += err * out[i] * lr;
            out[i] -= err * center[i] * lr;
        }
    }

    /// Embedding dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// The composed input vector for any token (subwords make
    /// out-of-vocabulary strings embeddable). Returns zeros only when the
    /// token is OOV *and* subwords are disabled or produce no buckets.
    pub fn vector(&self, token: &str) -> Vec<f32> {
        let dim = self.dim;
        let v = self.vocab.len();
        let mut out = vec![0.0f32; dim];
        let mut parts = 0usize;
        if let Some(id) = self.vocab.id(token) {
            out.copy_from_slice(&self.input[id * dim..(id + 1) * dim]);
            parts += 1;
        }
        for b in self.vocab.subword_buckets(token) {
            let off = (v + b) * dim;
            for (o, x) in out.iter_mut().zip(&self.input[off..off + dim]) {
                *o += x;
            }
            parts += 1;
        }
        if parts > 1 {
            let scale = 1.0 / parts as f32;
            for o in &mut out {
                *o *= scale;
            }
        }
        out
    }

    /// Mean of token vectors for a pre-tokenized text; zeros for an empty
    /// token list.
    pub fn embed_tokens(&self, tokens: &[String]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dim];
        if tokens.is_empty() {
            return out;
        }
        for t in tokens {
            for (o, x) in out.iter_mut().zip(self.vector(t)) {
                *o += x;
            }
        }
        let scale = 1.0 / tokens.len() as f32;
        for o in &mut out {
            *o *= scale;
        }
        out
    }

    /// Cosine similarity between two tokens' composed vectors.
    pub fn similarity(&self, a: &str, b: &str) -> f32 {
        cosine(&self.vector(a), &self.vector(b))
    }

    /// Serialize the trained table (vectors are written bit-exactly, so
    /// a reloaded embedding reproduces every query identically).
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        self.vocab.write_to(w)?;
        binio::write_usize(w, self.dim)?;
        binio::write_f32_slice(w, &self.input)?;
        binio::write_f32_slice(w, &self.output)
    }

    /// Deserialize an embedding written by [`Embedding::write_to`].
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Embedding> {
        let vocab = Vocab::read_from(r)?;
        let dim = binio::read_usize(r)?;
        let input = binio::read_f32_slice(r)?;
        let output = binio::read_f32_slice(r)?;
        if input.len() != (vocab.len() + vocab.buckets) * dim || output.len() != vocab.len() * dim {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "embedding table sizes disagree with vocabulary",
            ));
        }
        Ok(Embedding {
            vocab,
            dim,
            input,
            output,
        })
    }
}

/// Cosine similarity; 0 when either vector is all-zero.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let mut dot = 0.0f32;
    let mut na = 0.0f32;
    let mut nb = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na.sqrt() * nb.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A corpus with two co-occurrence clusters: city names with "il",
    /// fruit names with "sweet".
    fn clustered_corpus() -> Vec<Vec<String>> {
        let mut out = Vec::new();
        for _ in 0..60 {
            out.push(vec!["chicago".into(), "il".into(), "urban".into()]);
            out.push(vec!["springfield".into(), "il".into(), "urban".into()]);
            out.push(vec!["apple".into(), "sweet".into(), "fruit".into()]);
            out.push(vec!["banana".into(), "sweet".into(), "fruit".into()]);
        }
        out
    }

    fn small_cfg() -> SkipGramConfig {
        SkipGramConfig {
            dim: 16,
            epochs: 8,
            lr: 0.08,
            negative: 4,
            buckets: 256,
            ..SkipGramConfig::default()
        }
    }

    #[test]
    fn cooccurring_tokens_are_closer() {
        let emb = Embedding::train(&clustered_corpus(), &small_cfg());
        let intra = emb.similarity("chicago", "springfield");
        let inter = emb.similarity("chicago", "banana");
        assert!(
            intra > inter,
            "expected cluster structure: intra {intra} vs inter {inter}"
        );
    }

    #[test]
    fn oov_token_embeds_via_subwords() {
        let emb = Embedding::train(&clustered_corpus(), &small_cfg());
        let typo = emb.vector("chicagq"); // OOV
        assert!(typo.iter().any(|&x| x != 0.0));
        // The typo shares subwords with "chicago", so it should be more
        // similar to chicago than to an unrelated word.
        let sim_city = cosine(&typo, &emb.vector("chicago"));
        let sim_fruit = cosine(&typo, &emb.vector("banana"));
        assert!(sim_city > sim_fruit, "{sim_city} vs {sim_fruit}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Embedding::train(&clustered_corpus(), &small_cfg());
        let b = Embedding::train(&clustered_corpus(), &small_cfg());
        assert_eq!(a.vector("chicago"), b.vector("chicago"));
    }

    #[test]
    fn embed_tokens_is_mean() {
        let emb = Embedding::train(&clustered_corpus(), &small_cfg());
        let a = emb.vector("chicago");
        let b = emb.vector("il");
        let mean = emb.embed_tokens(&["chicago".into(), "il".into()]);
        for i in 0..emb.dim() {
            assert!((mean[i] - (a[i] + b[i]) / 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_tokens_embed_to_zero() {
        let emb = Embedding::train(&clustered_corpus(), &small_cfg());
        assert!(emb.embed_tokens(&[]).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn empty_corpus_is_safe() {
        let emb = Embedding::train(&[], &small_cfg());
        assert_eq!(emb.vocab().len(), 0);
        // OOV with subwords still returns a (bucket-initialized) vector.
        assert_eq!(emb.vector("x").len(), 16);
    }

    #[test]
    fn whole_sentence_window() {
        let cfg = SkipGramConfig {
            window: None,
            ..small_cfg()
        };
        let emb = Embedding::train(&clustered_corpus(), &cfg);
        assert!(emb.similarity("chicago", "il") > emb.similarity("chicago", "sweet"));
    }

    #[test]
    fn binary_roundtrip_reproduces_vectors_exactly() {
        let emb = Embedding::train(&clustered_corpus(), &small_cfg());
        let mut buf = Vec::new();
        emb.write_to(&mut buf).unwrap();
        let back = Embedding::read_from(&mut std::io::Cursor::new(buf)).unwrap();
        assert_eq!(back.dim(), emb.dim());
        assert_eq!(back.vocab().len(), emb.vocab().len());
        for token in ["chicago", "banana", "chicagq" /* OOV via subwords */] {
            let (a, b) = (emb.vector(token), back.vector(token));
            assert_eq!(
                a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "vector for {token} not bit-identical"
            );
        }
    }

    #[test]
    fn read_rejects_inconsistent_tables() {
        let emb = Embedding::train(&clustered_corpus(), &small_cfg());
        let mut buf = Vec::new();
        emb.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 8); // drop part of the output table
        assert!(Embedding::read_from(&mut std::io::Cursor::new(buf)).is_err());
    }

    #[test]
    fn cosine_edge_cases() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
    }
}
