//! Order statistics, the output digest, and the seeded request generator.

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100] of `v`; 0 when empty.
#[must_use]
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(s.len(), p) - 1]
}

/// Samples strictly beyond nearest-rank percentile `p` of `n` samples.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// 1-based nearest rank of percentile `p` among `n > 0` samples, robust
/// to the rounding of `p / 100` (99.9 % of 10 000 is rank 9 990).
fn rank(n: usize, p: f64) -> usize {
    let r = (p * n as f64 / 100.0 - 1e-6).ceil();
    (r.max(1.0) as usize).min(n)
}

/// The percentiles a tail is reported at, highest first.
const LADDER: [f64; 7] = [99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile on the reporting ladder that has at least ten
/// samples beyond it, or `None` when even the median has fewer.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER.iter().copied().find(|&p| beyond(n, p) >= 10)
}

/// FNV-1a 64 over the exact bits of every simulated statistic of one
/// iteration, in order. Any change to any statistic changes it.
#[must_use]
pub fn digest(stats: &[f64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in stats {
        for b in v.to_bits().to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// SplitMix64: the benchmark's only source of pseudo-randomness, so one
/// seed always yields the same inputs.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seeded Zipf(`s`) stream over `n` items: rank `r` (0-based) is drawn
/// with probability ∝ 1/(r+1)^s, and a seeded permutation decides which
/// item holds which rank.
pub struct ZipfStream {
    cdf: Vec<f64>,
    item_of_rank: Vec<usize>,
    rng: SplitMix64,
}

impl ZipfStream {
    /// The stream for `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize, s: f64, seed: u64) -> ZipfStream {
        assert!(n > 0, "Zipf over an empty pool");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut rng = SplitMix64::new(seed ^ 0x5eed_2171_f00d_0001);
        let mut item_of_rank: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            item_of_rank.swap(i, j);
        }
        ZipfStream {
            cdf,
            item_of_rank,
            rng,
        }
    }

    fn next_item(&mut self) -> usize {
        let u = self.rng.next_f64();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        self.item_of_rank[rank]
    }

    /// The first `count` items.
    pub fn take(mut self, count: usize) -> Vec<usize> {
        (0..count).map(|_| self.next_item()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(2000), Some(99.5));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [1000, 1500, 4321] {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(n, p) >= 10);
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn zipf_sequence_is_determined_by_its_seed() {
        for seed in [0u64, 1, 7, 12_345] {
            let a = ZipfStream::new(480, 1.0, seed).take(2000);
            let b = ZipfStream::new(480, 1.0, seed).take(2000);
            assert_eq!(a, b, "seed {seed}");
            assert!(a.iter().all(|&i| i < 480));
        }
        let a = ZipfStream::new(480, 1.0, 1).take(2000);
        let b = ZipfStream::new(480, 1.0, 2).take(2000);
        assert_ne!(a, b);
    }

    #[test]
    fn zipf_head_is_hot() {
        let seq = ZipfStream::new(100, 1.2, 3).take(10_000);
        let mut counts = vec![0usize; 100];
        for i in seq {
            counts[i] += 1;
        }
        counts.sort_unstable();
        assert!(counts[99] > 10 * counts[50].max(1));
    }

    #[test]
    fn digest_check_fails_on_one_perturbed_statistic() {
        let stats = [2.098, 1.929, 4.51, 4.508, 1_000_000.0, 476_645.0];
        let expected = digest(&stats);
        assert_eq!(digest(&stats), expected);
        for i in 0..stats.len() {
            let mut bad = stats;
            bad[i] = f64::from_bits(bad[i].to_bits() ^ 1);
            assert_ne!(digest(&bad), expected, "perturbing stat {i} went unnoticed");
        }
        let mut swapped = stats;
        swapped.swap(0, 1);
        assert_ne!(digest(&swapped), expected, "order must matter");
    }
}
