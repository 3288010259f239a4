//! Order statistics over timing samples.

/// The latency a failed or refused request is booked at: it missed every
/// latency limit below this (the server's own request timeout).
pub const FAILED_MS: f64 = 30_000.0;

/// Samples a percentile needs beyond its rank before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The tail percentile every workload reports. At p95 serve-hospital's
/// latency sits on a knee: the two clients' requests mostly merge into one
/// batcher call, and the 5-7% that fall out of step wait a whole call
/// longer, so p95 flipped between the two modes from run to run. p97 lies
/// inside the slow mode on every workload.
pub const TAIL_LEVEL: f64 = 0.97;

/// The fewest samples for which [`percentile`] reports level `q`.
pub fn samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| n >= ((q * n as f64).ceil() as usize).max(1) + MIN_BEYOND)
        .expect("some sample count supports every level below 1")
}

/// Latency samples of one phase: successes as measured, failures as
/// [`FAILED_MS`], so a failure counts as missing every percentile.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    pub ok_ms: Vec<f64>,
    pub failed: usize,
}

impl Latencies {
    pub fn record(&mut self, ms: f64, ok: bool) {
        if ok {
            self.ok_ms.push(ms);
        } else {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Latencies) {
        self.ok_ms.extend(other.ok_ms);
        self.failed += other.failed;
    }

    pub fn attempted(&self) -> usize {
        self.ok_ms.len() + self.failed
    }

    pub fn samples(&self) -> Vec<f64> {
        let mut all = self.ok_ms.clone();
        all.extend(std::iter::repeat_n(FAILED_MS, self.failed));
        all
    }

    pub fn percentile(&self, q: f64) -> Result<f64, String> {
        percentile(&self.samples(), q)
    }
}

/// Nearest-rank percentile `q` in (0, 1). Refuses a level with fewer than
/// [`MIN_BEYOND`] samples ranked above it: such a tail is one or two
/// unlucky requests, not a percentile.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    if !(q > 0.0 && q < 1.0) {
        return Err(format!("percentile level {q} is outside (0, 1)"));
    }
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return Err(format!(
            "p{} needs {} samples beyond it, {n} samples leave {}",
            q * 100.0,
            MIN_BEYOND,
            n.saturating_sub(rank)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median of a non-empty sample (mean of the middle two for even n).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        // p95 of 199 samples: rank 190 leaves 9 beyond.
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        assert!(percentile(&xs, 0.95).is_err());
        // p95 of 200 samples: rank 190 leaves 10 beyond.
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), Ok(190.0));
        assert!(percentile(&[1.0; 5], 0.5).is_err());
        assert_eq!(percentile(&[3.0; 20], 0.5), Ok(3.0));
    }

    #[test]
    fn samples_for_is_the_smallest_supported_count() {
        for q in [0.5, 0.95, TAIL_LEVEL] {
            let n = samples_for(q);
            assert!(percentile(&vec![1.0; n], q).is_ok());
            assert!(percentile(&vec![1.0; n - 1], q).is_err());
        }
        assert_eq!(samples_for(0.95), 200);
    }

    #[test]
    fn percentile_is_nearest_rank_and_order_free() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        xs.reverse();
        assert_eq!(percentile(&xs, 0.5), Ok(50.0));
        assert_eq!(percentile(&xs, 0.9), Ok(90.0));
        assert!(percentile(&xs, 1.0).is_err());
    }

    #[test]
    fn a_failed_request_misses_the_latency_limit() {
        let mut l = Latencies::default();
        for _ in 0..200 {
            l.record(1.0, true);
        }
        assert_eq!(l.percentile(0.95), Ok(1.0));
        // Eleven fast failures push p95 past every success: a failure is
        // booked as a miss, never dropped and never fast.
        for _ in 0..11 {
            l.record(0.5, false);
        }
        assert_eq!(l.attempted(), 211);
        assert_eq!(l.percentile(0.95), Ok(FAILED_MS));
        assert_eq!(l.percentile(0.5), Ok(1.0));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
