//! Online (streaming) statistics accumulators.
//!
//! The longitudinal-study driver processes millions of simulated samples;
//! Welford's algorithm lets it track mean/variance/min/max in O(1) memory
//! with good numerical behaviour.

/// Welford online mean/variance accumulator with min/max tracking.
///
/// # Examples
///
/// ```
/// use tuna_stats::online::Welford;
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 6.0] {
///     w.push(x);
/// }
/// assert_eq!(w.count(), 3);
/// assert!((w.mean() - 4.0).abs() < 1e-12);
/// assert!((w.variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Welford {
    fn default() -> Self {
        Self::new()
    }
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel reduction).
    ///
    /// Uses the Chan et al. pairwise update, so merging partial accumulators
    /// yields the same moments as a single sequential pass.
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance; `0.0` when fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation; `0.0` when the mean is zero.
    pub fn cov(&self) -> f64 {
        if self.mean() == 0.0 {
            0.0
        } else {
            (self.std_dev() / self.mean()).abs()
        }
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }
}

/// P²-style online quantile estimator (Jain & Chlamtac, 1985).
///
/// Tracks one quantile level in O(1) memory with five markers whose
/// heights are adjusted by a piecewise-parabolic prediction as
/// observations stream in. The estimate is approximate (it converges to
/// the true quantile for smooth distributions; differential tests pin it
/// within a few percent of the sort-based oracle), which is the right
/// trade for streaming hot paths that cannot afford to retain windows.
///
/// For fewer than five observations the estimator is exact: it holds the
/// observations and interpolates exactly like
/// [`crate::summary::quantile`].
///
/// # Examples
///
/// ```
/// use tuna_stats::online::P2Quantile;
/// use tuna_stats::rng::Rng;
/// let mut p95 = P2Quantile::new(0.95);
/// let mut rng = Rng::seed_from(7);
/// for _ in 0..10_000 {
///     p95.push(rng.next_f64());
/// }
/// assert!((p95.value() - 0.95).abs() < 0.02);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights (first `count` hold raw observations while warming
    /// up; sorted ascending once `count >= 5`).
    q: [f64; 5],
    /// Marker positions (1-based observation ranks).
    n: [f64; 5],
    /// Desired marker positions.
    nd: [f64; 5],
    count: u64,
}

impl P2Quantile {
    /// Creates an estimator for quantile level `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "quantile level {p} outside [0,1]");
        P2Quantile {
            p,
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            nd: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            count: 0,
        }
    }

    /// The tracked quantile level.
    pub fn level(&self) -> f64 {
        self.p
    }

    /// Number of accepted (finite) observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Adds one observation.
    ///
    /// Non-finite observations (NaN, ±∞) are rejected: they carry no
    /// quantile information, would poison the marker invariants (`NaN`
    /// breaks the cell search's ordering, infinities collapse the
    /// parabolic prediction), and a streaming estimator fed from noisy
    /// telemetry must not fall over on one bad sample. Rejected values do
    /// not advance [`P2Quantile::count`].
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        if self.count < 5 {
            self.q[self.count as usize] = x;
            self.count += 1;
            if self.count == 5 {
                self.q.sort_unstable_by(|a, b| a.total_cmp(b));
            }
            return;
        }
        self.count += 1;

        // Locate the cell and clamp the extreme markers.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            let mut k = 0;
            while k < 3 && x >= self.q[k + 1] {
                k += 1;
            }
            k
        };
        for i in (k + 1)..5 {
            self.n[i] += 1.0;
        }
        let inc = [0.0, self.p / 2.0, self.p, (1.0 + self.p) / 2.0, 1.0];
        for (nd, step) in self.nd.iter_mut().zip(inc) {
            *nd += step;
        }

        // Adjust the three interior markers toward their desired
        // positions with the piecewise-parabolic (P²) prediction, falling
        // back to linear when the parabola overshoots a neighbor.
        for i in 1..4 {
            let d = self.nd[i] - self.n[i];
            let room_right = self.n[i + 1] - self.n[i];
            let room_left = self.n[i - 1] - self.n[i];
            if (d >= 1.0 && room_right > 1.0) || (d <= -1.0 && room_left < -1.0) {
                let d = d.signum();
                let qp = self.parabolic(i, d);
                self.q[i] = if self.q[i - 1] < qp && qp < self.q[i + 1] {
                    qp
                } else {
                    self.linear(i, d)
                };
                self.n[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (q, n) = (&self.q, &self.n);
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = (i as f64 + d) as usize;
        self.q[i] + d * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
    }

    /// Current quantile estimate.
    ///
    /// Exact (interpolated order statistic) below five observations; the
    /// P² marker height afterwards — except at the extreme levels
    /// `p = 0.0` and `p = 1.0`, which are *always* exact: the outermost
    /// markers track the running min/max, so returning them pins the
    /// estimator to the sort-based oracle instead of letting an interior
    /// marker drift near (but not onto) the extremum.
    ///
    /// # Panics
    ///
    /// Panics if no (finite) observations have been pushed.
    pub fn value(&self) -> f64 {
        assert!(self.count > 0, "quantile of empty stream");
        if self.count < 5 {
            let mut head = [0.0; 5];
            let m = self.count as usize;
            head[..m].copy_from_slice(&self.q[..m]);
            head[..m].sort_unstable_by(|a, b| a.total_cmp(b));
            crate::summary::quantile_of_sorted(&head[..m], self.p)
        } else if self.p == 0.0 {
            self.q[0]
        } else if self.p == 1.0 {
            self.q[4]
        } else {
            self.q[2]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::summary;

    #[test]
    fn matches_batch_statistics() {
        let mut rng = Rng::seed_from(77);
        let xs: Vec<f64> = (0..5_000).map(|_| rng.next_f64() * 100.0).collect();
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert!((w.mean() - summary::mean(&xs)).abs() < 1e-9);
        assert!((w.variance() - summary::variance(&xs)).abs() < 1e-6);
        assert_eq!(w.min().unwrap(), summary::min(&xs).unwrap());
        assert_eq!(w.max().unwrap(), summary::max(&xs).unwrap());
    }

    #[test]
    fn merge_equals_sequential() {
        let mut rng = Rng::seed_from(78);
        let xs: Vec<f64> = (0..1_000).map(|_| rng.next_gaussian()).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..300] {
            left.push(x);
        }
        for &x in &xs[300..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-10);
        assert!((left.variance() - whole.variance()).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Welford::new();
        a.push(1.0);
        a.push(2.0);
        let before = a;
        a.merge(&Welford::new());
        assert_eq!(a, before);

        let mut empty = Welford::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn empty_is_safe() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.min(), None);
        assert_eq!(w.max(), None);
        assert_eq!(w.cov(), 0.0);
    }

    #[test]
    fn p2_exact_below_five_observations() {
        let xs = [5.0, 1.0, 3.0, 2.0];
        for n in 1..=xs.len() {
            let mut p2 = P2Quantile::new(0.5);
            for &x in &xs[..n] {
                p2.push(x);
            }
            assert_eq!(p2.value(), summary::median(&xs[..n]), "n = {n}");
            assert_eq!(p2.count(), n as u64);
        }
    }

    #[test]
    fn p2_tracks_uniform_quantiles() {
        for &level in &[0.1, 0.5, 0.9, 0.95] {
            let mut p2 = P2Quantile::new(level);
            let mut rng = Rng::seed_from(11);
            for _ in 0..50_000 {
                p2.push(rng.next_f64());
            }
            assert!(
                (p2.value() - level).abs() < 0.01,
                "level {level}: estimate {}",
                p2.value()
            );
        }
    }

    #[test]
    fn p2_close_to_batch_quantile_on_gaussian() {
        let mut rng = Rng::seed_from(12);
        let xs: Vec<f64> = (0..20_000)
            .map(|_| rng.next_gaussian() * 3.0 + 10.0)
            .collect();
        let mut p2 = P2Quantile::new(0.95);
        for &x in &xs {
            p2.push(x);
        }
        let exact = summary::quantile(&xs, 0.95);
        assert!(
            (p2.value() - exact).abs() < 0.15,
            "p2 {} vs exact {exact}",
            p2.value()
        );
    }

    #[test]
    fn p2_constant_stream_is_exact() {
        let mut p2 = P2Quantile::new(0.75);
        for _ in 0..1_000 {
            p2.push(42.0);
        }
        assert_eq!(p2.value(), 42.0);
    }

    #[test]
    fn p2_rejects_non_finite_observations() {
        let mut with_noise = P2Quantile::new(0.5);
        let mut clean = P2Quantile::new(0.5);
        let mut rng = Rng::seed_from(5);
        for i in 0..1_000 {
            let x = rng.next_gaussian();
            with_noise.push(x);
            clean.push(x);
            if i % 7 == 0 {
                with_noise.push(f64::NAN);
                with_noise.push(f64::INFINITY);
                with_noise.push(f64::NEG_INFINITY);
            }
        }
        assert_eq!(with_noise.count(), clean.count());
        assert_eq!(with_noise.value().to_bits(), clean.value().to_bits());
    }

    #[test]
    fn p2_extreme_levels_track_exact_min_max() {
        let mut p0 = P2Quantile::new(0.0);
        let mut p1 = P2Quantile::new(1.0);
        let mut rng = Rng::seed_from(6);
        let xs: Vec<f64> = (0..10_000).map(|_| rng.next_gaussian() * 5.0).collect();
        for &x in &xs {
            p0.push(x);
            p1.push(x);
        }
        assert_eq!(p0.value(), summary::min(&xs).unwrap());
        assert_eq!(p1.value(), summary::max(&xs).unwrap());
    }

    #[test]
    #[should_panic(expected = "empty stream")]
    fn p2_empty_panics() {
        P2Quantile::new(0.5).value();
    }

    #[test]
    #[should_panic(expected = "empty stream")]
    fn p2_all_rejected_is_still_empty() {
        let mut p2 = P2Quantile::new(0.5);
        p2.push(f64::NAN);
        p2.push(f64::INFINITY);
        assert_eq!(p2.count(), 0);
        p2.value();
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn p2_rejects_bad_level() {
        P2Quantile::new(1.5);
    }
}
