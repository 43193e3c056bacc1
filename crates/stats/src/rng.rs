//! Deterministic pseudo-random number generation.
//!
//! The whole workspace must be reproducible from a single `u64` seed, so we
//! hand-roll a small, fast generator rather than depending on the exact
//! stream of a third-party crate: [`Rng`] is xoshiro256++ seeded through
//! SplitMix64, the construction recommended by the xoshiro authors.
//!
//! Two extra facilities matter for the simulator:
//!
//! - [`Rng::fork`] derives an independent child generator from a label, so
//!   concurrent simulation entities (machines, workers, tuning runs) each own
//!   a decorrelated stream while remaining a pure function of the root seed.
//! - [`hash64`] / [`hash_combine`] provide stateless, deterministic draws
//!   keyed by simulation identities (e.g. "does machine M pick the bad query
//!   plan for config C?"), which must not depend on sampling order.

/// SplitMix64 step; also used as a general-purpose 64-bit mixer.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes a single `u64` into a well-distributed hash value.
///
/// This is the finalizer of SplitMix64 and passes standard avalanche tests;
/// it is used for stateless deterministic decisions keyed on simulation
/// identities.
///
/// # Examples
///
/// ```
/// use tuna_stats::rng::hash64;
/// assert_ne!(hash64(1), hash64(2));
/// assert_eq!(hash64(7), hash64(7));
/// ```
#[inline]
pub fn hash64(x: u64) -> u64 {
    let mut s = x;
    splitmix64(&mut s)
}

/// Combines two hash values into one, order-sensitively.
///
/// # Examples
///
/// ```
/// use tuna_stats::rng::hash_combine;
/// assert_ne!(hash_combine(1, 2), hash_combine(2, 1));
/// ```
#[inline]
pub fn hash_combine(a: u64, b: u64) -> u64 {
    hash64(a ^ b.rotate_left(32).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Converts a 64-bit draw to a `f64` uniformly distributed in `[0, 1)`.
#[inline]
pub fn u64_to_unit_f64(x: u64) -> f64 {
    // Use the top 53 bits for a uniformly spaced double in [0, 1).
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// xoshiro256++ pseudo-random number generator.
///
/// Deterministic, fast (sub-nanosecond per draw), with a 2^256 - 1 period.
/// Not cryptographically secure — this is a simulation RNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The internal 256-bit state is expanded from the seed with SplitMix64
    /// as recommended by the xoshiro reference implementation.
    ///
    /// # Examples
    ///
    /// ```
    /// use tuna_stats::rng::Rng;
    /// let mut a = Rng::seed_from(7);
    /// let mut b = Rng::seed_from(7);
    /// assert_eq!(a.next_u64(), b.next_u64());
    /// ```
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // All-zero state is invalid for xoshiro; SplitMix64 cannot produce
        // four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Rng { s }
    }

    /// Derives an independent child generator keyed by `label`.
    ///
    /// Forking does not advance `self`, so the set of children is a pure
    /// function of the parent state and the labels used.
    ///
    /// # Examples
    ///
    /// ```
    /// use tuna_stats::rng::Rng;
    /// let root = Rng::seed_from(1);
    /// let mut a = root.fork(0);
    /// let mut b = root.fork(1);
    /// assert_ne!(a.next_u64(), b.next_u64());
    /// ```
    pub fn fork(&self, label: u64) -> Self {
        let mixed = hash_combine(self.s[0] ^ self.s[2], hash64(label));
        Rng::seed_from(hash_combine(mixed, self.s[1] ^ self.s[3].rotate_left(17)))
    }

    /// Returns the next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        u64_to_unit_f64(self.next_u64())
    }

    /// Returns a uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid range"
        );
        lo + (hi - lo) * self.next_f64()
    }

    /// Returns a uniform integer in `[lo, hi]` (inclusive bounds).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "invalid range: {lo} > {hi}");
        let span = (hi - lo) as u64 + 1;
        lo + (self.bounded_u64(span)) as i64
    }

    /// Returns a uniform `usize` in `[0, n)` using Lemire's rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        self.bounded_u64(n as u64) as usize
    }

    /// Unbiased bounded draw in `[0, bound)` via multiply-shift rejection.
    #[inline]
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Fisher–Yates shuffles `xs` in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` (a uniform k-subset).
    ///
    /// Uses Floyd's algorithm; the returned order is randomized.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut chosen = Vec::with_capacity(k);
        self.sample_indices_into(n, k, &mut chosen);
        chosen
    }

    /// [`Rng::sample_indices`] into `out`, which is cleared first: the
    /// same draws and the same result, without allocating once `out` has
    /// room for `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices_into(&mut self, n: usize, k: usize, out: &mut Vec<usize>) {
        assert!(k <= n, "cannot sample {k} items from {n}");
        out.clear();
        for j in (n - k)..n {
            let t = self.below(j + 1);
            if out.contains(&t) {
                out.push(j);
            } else {
                out.push(t);
            }
        }
        self.shuffle(out);
    }

    /// Standard normal draw via the polar Box–Muller method.
    pub fn next_gaussian(&mut self) -> f64 {
        let (u, s) = self.next_polar();
        polar_gaussian(u, s)
    }

    /// The draws of one [`Rng::next_gaussian`] without its arithmetic:
    /// the polar method's accepted pair `(u, s)`, where `s = u² + v²`
    /// lies in `(0, 1)`. `polar_gaussian(u, s)` is the normal draw, so a
    /// caller that only needs to advance the stream skips the `ln`.
    #[inline]
    pub fn next_polar(&mut self) -> (f64, f64) {
        loop {
            let u = 2.0 * self.next_f64() - 1.0;
            let v = 2.0 * self.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return (u, s);
            }
        }
    }
}

/// The standard normal value of an accepted polar pair from
/// [`Rng::next_polar`]: bit-for-bit what [`Rng::next_gaussian`] returns
/// for the same draws.
#[inline]
fn polar_gaussian(u: f64, s: f64) -> f64 {
    u * (-2.0 * s.ln() / s).sqrt()
}

/// `n` draws from N(`mean`, `std`²), for tests that need Gaussian data.
#[cfg(test)]
pub(crate) fn normal_samples(rng: &mut Rng, mean: f64, std: f64, n: usize) -> Vec<f64> {
    (0..n).map(|_| mean + std * rng.next_gaussian()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::seed_from(123);
        let mut b = Rng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should diverge, {same} collisions");
    }

    #[test]
    fn fork_is_pure_and_decorrelated() {
        let root = Rng::seed_from(42);
        let mut c1 = root.fork(7);
        let mut c1_again = root.fork(7);
        let mut c2 = root.fork(8);
        assert_eq!(c1.next_u64(), c1_again.next_u64());
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn unit_f64_in_range() {
        let mut rng = Rng::seed_from(5);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn unit_f64_mean_near_half() {
        let mut rng = Rng::seed_from(6);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_unbiased_roughly() {
        let mut rng = Rng::seed_from(9);
        let mut counts = [0usize; 7];
        for _ in 0..70_000 {
            counts[rng.below(7)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "count {c}");
        }
    }

    #[test]
    fn range_i64_inclusive() {
        let mut rng = Rng::seed_from(3);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..2_000 {
            let x = rng.range_i64(-3, 3);
            assert!((-3..=3).contains(&x));
            saw_lo |= x == -3;
            saw_hi |= x == 3;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn polar_pair_gives_the_gaussian() {
        let (mut a, mut b) = (Rng::seed_from(17), Rng::seed_from(17));
        for _ in 0..1_000 {
            let (u, s) = b.next_polar();
            assert!(s > 0.0 && s < 1.0);
            assert_eq!(a.next_gaussian().to_bits(), polar_gaussian(u, s).to_bits());
        }
        assert_eq!(a, b);
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Rng::seed_from(11);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::seed_from(13);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = Rng::seed_from(17);
        for _ in 0..200 {
            let k = rng.below(10) + 1;
            let picks = rng.sample_indices(20, k);
            assert_eq!(picks.len(), k);
            let mut sorted = picks.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), k, "duplicates in {picks:?}");
            assert!(picks.iter().all(|&i| i < 20));
        }
    }

    #[test]
    fn sample_indices_into_matches_allocating_form() {
        let (mut a, mut b) = (Rng::seed_from(19), Rng::seed_from(19));
        let mut out = vec![99; 7];
        for k in [0, 1, 3, 8, 20, 5] {
            b.sample_indices_into(20, k, &mut out);
            assert_eq!(a.sample_indices(20, k), out);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::seed_from(19);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn hash64_avalanche_smoke() {
        // Flipping one input bit should flip roughly half the output bits.
        let h0 = hash64(0xDEADBEEF);
        let h1 = hash64(0xDEADBEEF ^ 1);
        let flipped = (h0 ^ h1).count_ones();
        assert!((16..=48).contains(&flipped), "flipped {flipped}");
    }
}
