//! Token vocabulary with FastText-style hashed subword n-grams.

use holo_data::binio;
use std::collections::HashMap;
use std::io::{self, Read, Write};

/// FNV-1a, the classic cheap string hash FastText also relies on.
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// A vocabulary over tokens, with counts and subword-bucket hashing.
#[derive(Debug, Clone)]
pub struct Vocab {
    ids: HashMap<String, usize>,
    tokens: Vec<String>,
    counts: Vec<u64>,
    /// Subword n-gram order range (inclusive), e.g. `(3, 5)`.
    pub subword_range: (usize, usize),
    /// Number of hash buckets for subword vectors.
    pub buckets: usize,
}

impl Vocab {
    /// Build from sentences, keeping tokens with `count >= min_count`.
    pub fn build(
        sentences: &[Vec<String>],
        min_count: u64,
        subword_range: (usize, usize),
        buckets: usize,
    ) -> Self {
        assert!(subword_range.0 >= 1 && subword_range.0 <= subword_range.1);
        let mut freq: HashMap<&str, u64> = HashMap::new();
        for s in sentences {
            for t in s {
                *freq.entry(t.as_str()).or_insert(0) += 1;
            }
        }
        let mut pairs: Vec<(&str, u64)> =
            freq.into_iter().filter(|&(_, c)| c >= min_count).collect();
        // Deterministic id assignment: by descending count, then token.
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        let mut ids = HashMap::with_capacity(pairs.len());
        let mut tokens = Vec::with_capacity(pairs.len());
        let mut counts = Vec::with_capacity(pairs.len());
        for (t, c) in pairs {
            ids.insert(t.to_owned(), tokens.len());
            tokens.push(t.to_owned());
            counts.push(c);
        }
        Vocab {
            ids,
            tokens,
            counts,
            subword_range,
            buckets,
        }
    }

    /// Vocabulary size (distinct retained tokens).
    #[inline]
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// `true` when the vocabulary is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Token id, if in vocabulary.
    #[inline]
    pub fn id(&self, token: &str) -> Option<usize> {
        self.ids.get(token).copied()
    }

    /// Token string for an id.
    #[inline]
    pub fn token(&self, id: usize) -> &str {
        &self.tokens[id]
    }

    /// Occurrence count for an id.
    #[inline]
    pub fn count(&self, id: usize) -> u64 {
        self.counts[id]
    }

    /// All tokens in id order.
    pub fn tokens(&self) -> &[String] {
        &self.tokens
    }

    /// The hashed subword-bucket indices of a token (with FastText's
    /// `<` / `>` boundary markers). Buckets are offsets into a separate
    /// bucket table, so ids here are in `0..buckets`.
    pub fn subword_buckets(&self, token: &str) -> Vec<usize> {
        if self.buckets == 0 {
            return Vec::new();
        }
        let padded: Vec<char> = format!("<{token}>").chars().collect();
        let (lo, hi) = self.subword_range;
        let mut out = Vec::new();
        for n in lo..=hi {
            if padded.len() < n {
                break;
            }
            for w in padded.windows(n) {
                let g: String = w.iter().collect();
                out.push((fnv1a(g.as_bytes()) % self.buckets as u64) as usize);
            }
        }
        out
    }

    /// Serialize the vocabulary: tokens and counts in id order plus the
    /// subword configuration (the id map rebuilds on read).
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        binio::write_usize(w, self.tokens.len())?;
        for (t, &c) in self.tokens.iter().zip(&self.counts) {
            binio::write_str(w, t)?;
            binio::write_u64(w, c)?;
        }
        binio::write_usize(w, self.subword_range.0)?;
        binio::write_usize(w, self.subword_range.1)?;
        binio::write_usize(w, self.buckets)
    }

    /// Deserialize a vocabulary written by [`Vocab::write_to`].
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Vocab> {
        let n = binio::read_usize(r)?;
        let mut ids = HashMap::with_capacity(binio::bounded_cap(n, 48));
        let mut tokens = Vec::with_capacity(binio::bounded_cap(n, 24));
        let mut counts = Vec::with_capacity(binio::bounded_cap(n, 8));
        for _ in 0..n {
            let t = binio::read_str(r)?;
            let c = binio::read_u64(r)?;
            ids.insert(t.clone(), tokens.len());
            tokens.push(t);
            counts.push(c);
        }
        let subword_range = (binio::read_usize(r)?, binio::read_usize(r)?);
        let buckets = binio::read_usize(r)?;
        if subword_range.0 < 1 || subword_range.0 > subword_range.1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad subword range",
            ));
        }
        Ok(Vocab {
            ids,
            tokens,
            counts,
            subword_range,
            buckets,
        })
    }

    /// The unigram^(3/4) negative-sampling table as a cumulative
    /// distribution (for binary-search sampling).
    pub fn negative_table(&self) -> Vec<f64> {
        let mut cum = Vec::with_capacity(self.counts.len());
        let mut acc = 0.0f64;
        for &c in &self.counts {
            acc += (c as f64).powf(0.75);
            cum.push(acc);
        }
        cum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sentences() -> Vec<Vec<String>> {
        vec![
            vec!["chicago".into(), "il".into()],
            vec!["chicago".into(), "wi".into()],
            vec!["madison".into(), "wi".into()],
        ]
    }

    #[test]
    fn build_counts_and_orders() {
        let v = Vocab::build(&sentences(), 1, (3, 5), 100);
        assert_eq!(v.len(), 4);
        // chicago and wi both occur twice; count-desc then lexicographic.
        assert_eq!(v.token(0), "chicago");
        assert_eq!(v.token(1), "wi");
        assert_eq!(v.count(0), 2);
        assert_eq!(v.id("madison"), Some(3));
        assert_eq!(v.id("nowhere"), None);
    }

    #[test]
    fn min_count_filters() {
        let v = Vocab::build(&sentences(), 2, (3, 5), 100);
        assert_eq!(v.len(), 2); // chicago, wi
    }

    #[test]
    fn subword_buckets_in_range() {
        let v = Vocab::build(&sentences(), 1, (3, 5), 64);
        let b = v.subword_buckets("chicago");
        assert!(!b.is_empty());
        assert!(b.iter().all(|&i| i < 64));
    }

    #[test]
    fn subword_buckets_deterministic_and_shared() {
        let v = Vocab::build(&sentences(), 1, (3, 3), 64);
        // "chicago" and "chicagx" share the "<ch", "chi", ... prefixes.
        let a = v.subword_buckets("chicago");
        let b = v.subword_buckets("chicagx");
        let shared = a.iter().filter(|x| b.contains(x)).count();
        assert!(shared >= 3, "expected shared prefix buckets, got {shared}");
        assert_eq!(a, v.subword_buckets("chicago"));
    }

    #[test]
    fn short_token_still_has_buckets() {
        let v = Vocab::build(&sentences(), 1, (3, 5), 64);
        // "<a>" has exactly one 3-gram.
        assert_eq!(v.subword_buckets("a").len(), 1);
    }

    #[test]
    fn zero_buckets_disables_subwords() {
        let v = Vocab::build(&sentences(), 1, (3, 5), 0);
        assert!(v.subword_buckets("chicago").is_empty());
    }

    #[test]
    fn negative_table_is_monotone() {
        let v = Vocab::build(&sentences(), 1, (3, 5), 10);
        let t = v.negative_table();
        assert_eq!(t.len(), v.len());
        for w in t.windows(2) {
            assert!(w[1] > w[0]);
        }
    }
}
