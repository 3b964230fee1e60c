//! The benchmark's own random numbers: splitmix64, a Fisher–Yates
//! shuffle and a Zipf sampler.
//!
//! Op lists must depend on `--seed` and on nothing else. `shims/rand` is a
//! stand-in that a later PR may swap for the published crate, which would
//! change every stream drawn through it; a generator owned by the
//! benchmark keeps the inputs of two commits identical.

/// Steele–Lea–Flood splitmix64.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// A generator for one named sub-stream of `seed`, so that op lists of
    /// different workloads, rounds and clients never share draws.
    pub fn stream(seed: u64, lane: &[u64]) -> SplitMix64 {
        let mut g = SplitMix64::new(seed);
        for &x in lane {
            g = SplitMix64::new(g.next_u64() ^ x.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        }
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`) by multiply-shift; the bias is below
    /// `n / 2^64`, far under anything an op mix can show.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf over ranks `0..n` with exponent `s`: rank `r` has weight
/// `1 / (r + 1)^s`. Sampling is a binary search in the cumulative table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn ranks(&self) -> usize {
        self.cdf.len()
    }

    /// Probability of rank `r`.
    pub fn mass(&self, r: usize) -> f64 {
        self.cdf[r] - if r == 0 { 0.0 } else { self.cdf[r - 1] }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // first outputs of the published reference implementation, seed 0
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(g.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(g.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn streams_are_deterministic_and_distinct_per_lane() {
        let a: Vec<u64> = {
            let mut g = SplitMix64::stream(7, &[1, 2]);
            (0..4).map(|_| g.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut g = SplitMix64::stream(7, &[1, 2]);
            (0..4).map(|_| g.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut g = SplitMix64::stream(7, &[2, 1]);
            (0..4).map(|_| g.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut g = SplitMix64::new(42);
        for _ in 0..10_000 {
            assert!(g.below(7) < 7);
            let u = g.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn shuffle_is_a_permutation_fixed_by_the_seed() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        SplitMix64::new(9).shuffle(&mut a);
        SplitMix64::new(9).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..100).collect::<Vec<u32>>());
        a.sort_unstable();
        assert_eq!(a, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn zipf_favours_low_ranks_and_repeats_per_seed() {
        let z = Zipf::new(256, 1.0);
        let draw = |seed| {
            let mut g = SplitMix64::new(seed);
            (0..20_000).map(|_| z.sample(&mut g)).collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        assert_ne!(a, draw(4));
        let count = |r: usize| a.iter().filter(|&&x| x == r).count();
        // rank 0 carries 1/H(256) ≈ 16 % of the mass, rank 255 ≈ 0.06 %
        assert!(count(0) > 2_800 && count(0) < 3_700, "{}", count(0));
        assert!(count(0) > 20 * count(255).max(1));
        assert!(a.iter().all(|&r| r < 256));
    }
}
