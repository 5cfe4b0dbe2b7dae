//! The harness's own input generators: SplitMix64 and an inverse-CDF
//! Zipf sampler. Nothing here comes from the repo's `workloads` crate,
//! so deleting that crate (ROADMAP item 5) cannot break the benchmark.
//! Every stream is a pure function of the `--seed` argument.

/// Default seed of the suite. `--seed 0x5EED` is the second documented
/// seed, kept for checking that a claim also holds on inputs that were
/// not used while a change was written.
pub const DEFAULT_SEED: u64 = 0xF19;

#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` the workloads use.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Stateless mix of a seed with two coordinates: the sub-seed of one
/// client's stream, or the placement of one file.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let s = seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03);
    SplitMix64::new(s).next_u64()
}

/// Zipf(n, s) over ranks `0..n`, rank 0 hottest: `P(k) ∝ 1/(k+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0 && s >= 0.0 && s.is_finite());
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_a_function_of_the_seed() {
        let draw = |seed| {
            let mut r = SplitMix64::new(seed);
            (0..64).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(DEFAULT_SEED), draw(DEFAULT_SEED));
        assert_ne!(draw(DEFAULT_SEED), draw(0x5EED));
        assert_eq!(mix(7, 1, 2), mix(7, 1, 2));
        assert_ne!(mix(7, 1, 2), mix(7, 2, 1));
    }

    #[test]
    fn zipf_mass_sits_on_the_top_ranks() {
        // s = 0.9 over 256 ranks: rank 0 holds 1/H(256, 0.9) = 12.5 % of
        // the mass, the top 16 ranks 47.7 % and the last 16 ranks 1.4 %.
        let z = Zipf::new(256, 0.9);
        let mut rng = SplitMix64::new(42);
        let mut counts = [0u64; 256];
        let draws = 200_000;
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        let share = |r: std::ops::Range<usize>| counts[r].iter().sum::<u64>() as f64 / draws as f64;
        assert!(
            (share(0..1) - 0.1252).abs() < 0.005,
            "rank 0: {}",
            share(0..1)
        );
        assert!(
            (share(0..16) - 0.4767).abs() < 0.01,
            "top 16: {}",
            share(0..16)
        );
        assert!(share(240..256) < 0.02);
        assert!(counts.iter().all(|&c| c > 0), "every rank is reachable");
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let z = Zipf::new(8, 0.0);
        let mut rng = SplitMix64::new(1);
        let mut counts = [0u64; 8];
        for _ in 0..80_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for c in counts {
            assert!((c as f64 / 80_000.0 - 0.125).abs() < 0.01);
        }
    }
}
