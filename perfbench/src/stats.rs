//! Small statistics and input-generation helpers shared by every workload.

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Linearly interpolated quantile `q` (0..=1) of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Nearest-rank percentile `p` (0 < p < 100) of `values`, together with
/// the number of samples strictly beyond the returned rank.
pub fn percentile(values: &[f64], p: f64) -> (f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = rank(p, n);
    (v[rank - 1], n - rank)
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples a workload must collect so that its fixed tail percentile `p`
/// has at least ten samples beyond it.
pub fn min_samples_for(p: f64) -> usize {
    (1..100_000).find(|&n| n - rank(p, n) >= 10).expect("percentile below 100")
}

/// The highest whole percentile of `n` samples that has at least ten
/// samples beyond it (50 when even the median has fewer).
pub fn tail_percentile(n: usize) -> f64 {
    (50..100).rev().map(f64::from).find(|&p| n > 0 && n - rank(p, n) >= 10).unwrap_or(50.0)
}

/// SplitMix64: the benchmark's only source of randomness.  Every input a
/// workload generates is a pure function of `--seed`.
#[derive(Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x5eed_0fbe_4c4a_1100)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// FNV-1a digest used to fingerprint generated inputs and outputs.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Separator, so ("ab","c") and ("a","bc") digest differently.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_sample_counts() {
        assert_eq!(min_samples_for(90.0), 100);
        assert_eq!(min_samples_for(75.0), 40);
        assert_eq!(min_samples_for(99.0), 1000);
        assert_eq!(tail_percentile(70), 85.0);
        assert_eq!(tail_percentile(114), 91.0);
        assert_eq!(tail_percentile(100), 90.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), (90.0, 10));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
