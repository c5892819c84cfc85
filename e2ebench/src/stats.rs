//! Order statistics and run digests.

/// Fewest samples that must lie beyond a reported percentile, so that a
/// tail figure never rests on a handful of observations.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `sorted` (ascending): the sample of
/// rank `ceil(q·n)`. `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond that rank, or when `q` is outside `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if !(q > 0.0 && q <= 1.0) || n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Chunks a run is split into, at most, for [`chunked`].
pub const CHUNKS: usize = 10;

/// The median over consecutive chunks of `xs` (in the order measured) of
/// `stat` on each chunk. There are `min(CHUNKS, len / min_len)` chunks of
/// near-equal length, but at least one, so a burst of machine noise moves
/// at most the chunks it falls in. `None` when `stat` fails on a chunk.
pub fn chunked(xs: &[f64], min_len: usize, stat: impl Fn(&[f64]) -> Option<f64>) -> Option<f64> {
    let k = (xs.len() / min_len.max(1)).clamp(1, CHUNKS);
    let per_chunk: Option<Vec<f64>> = (0..k)
        .map(|c| stat(&xs[c * xs.len() / k..(c + 1) * xs.len() / k]))
        .collect();
    median(&per_chunk?)
}

/// The median time in µs of `f(0)`, …, `f(n - 1)`.
///
/// # Panics
///
/// If `n` is 0.
pub fn median_us(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let us: Vec<f64> = (0..n)
        .map(|i| {
            let t0 = std::time::Instant::now();
            f(i);
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&us).expect("n > 0")
}

/// Sorts a copy of `xs` ascending.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `xs` (mean of the middle pair for even counts); `None`
/// for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile of `xs`, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` (the exclusive method, with
/// its clamping); `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len() as i64;
    if ld < 2 {
        return None;
    }
    let at = |i: i64| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some([at(1), at(2), at(3)])
}

/// 64-bit FNV-1a over a byte stream — a run digest, so two runs at the
/// same seed can be compared exactly.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes into the digest.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds an integer into the digest.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Folds a float's exact bit pattern into the digest.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(percentile(&xs, 0.01), Some(1.0));
        // Rank ceil(0.905·100) = 91 leaves only 9 samples beyond it.
        assert_eq!(percentile(&xs, 0.905), None);
        assert_eq!(percentile(&xs, 0.0), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        assert_eq!(percentile(&xs[..999], 0.99), None);
        assert_eq!(percentile(&xs[..99], 0.9), None);
        assert_eq!(percentile(&xs[..100], 0.9), Some(90.0));
        // A median needs twenty samples: ten at or below, ten beyond.
        assert_eq!(percentile(&xs[..19], 0.5), None);
        assert_eq!(percentile(&xs[..20], 0.5), Some(10.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn chunked_statistics_shrug_off_a_burst() {
        // 1000 samples at 1.0 with one noisy stretch of 150 at 9.0: the
        // whole-run p90 lands in the burst, the median of chunk p90s does
        // not.
        let mut xs = vec![1.0; 1000];
        xs[300..450].iter_mut().for_each(|x| *x = 9.0);
        let p90 = |c: &[f64]| percentile(&sorted(c), 0.9);
        assert_eq!(p90(&xs), Some(9.0));
        assert_eq!(chunked(&xs, 100, p90), Some(1.0));
        // Ten chunks at most, and one when there are too few samples for
        // two.
        let len = |c: &[f64]| Some(c.len() as f64);
        assert_eq!(chunked(&xs, 10, len), Some(100.0));
        assert_eq!(chunked(&xs[..150], 100, len), Some(150.0));
        assert_eq!(chunked(&xs[..50], 100, p90), None);
    }

    #[test]
    fn digest_is_order_and_bit_sensitive() {
        let mut a = Digest::default();
        a.f64(0.1);
        a.u64(7);
        let mut b = Digest::default();
        b.u64(7);
        b.f64(0.1);
        assert_ne!(a.hex(), b.hex());
        let mut c = Digest::default();
        c.f64(0.1);
        c.u64(7);
        assert_eq!(a.hex(), c.hex());
    }
}
