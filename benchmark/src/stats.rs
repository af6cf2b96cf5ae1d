//! Order statistics, hashing and the seed-derived length generator.

/// SplitMix64: the only randomness in the benchmark. The same seed gives
/// the same trace on every host.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the bit patterns of a row of floats, continuing from `h`.
pub fn fnv_row(mut h: u64, row: &[f32]) -> u64 {
    for x in row {
        h = (h ^ u64::from(x.to_bits())).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a offset basis: the hash of an empty stream.
pub const FNV_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// `n` lengths in `lo..=hi`, one per equal-width stratum of the range, in
/// a seed-shuffled order. Every seed covers the range evenly, so the total
/// work of a trace barely depends on the seed while the order and the exact
/// values do.
pub fn stratified_lengths(seed: u64, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let span = (hi - lo + 1) as f64;
    let mut out: Vec<usize> = (0..n)
        .map(|i| {
            let u = (splitmix(seed ^ ((i as u64) << 1)) >> 11) as f64 / (1u64 << 53) as f64;
            lo + (((i as f64 + u) / n as f64) * span) as usize
        })
        .collect();
    for i in (1..n).rev() {
        let j = (splitmix(seed.wrapping_add(0x5EED).wrapping_mul(i as u64 + 1)) % (i as u64 + 1))
            as usize;
        out.swap(i, j);
    }
    out
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentile of an ascending slice, linear interpolation; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), so
/// the spreads printed here are the ones the acceptance check computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn stratified_lengths_cover_the_range_for_every_seed() {
        for seed in [1u64, 2026, 99] {
            let v = stratified_lengths(seed, 16, 256, 512);
            assert!(v.iter().all(|&x| (256..=512).contains(&x)));
            let sum: usize = v.iter().sum();
            assert!((sum as f64 / 16.0 - 384.0).abs() < 10.0, "mean {sum}");
        }
        assert_ne!(
            stratified_lengths(1, 16, 256, 512),
            stratified_lengths(2, 16, 256, 512)
        );
        assert_eq!(
            stratified_lengths(7, 16, 256, 512),
            stratified_lengths(7, 16, 256, 512)
        );
    }
}
