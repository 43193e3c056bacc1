//! Histograms and Gaussian kernel density estimation.
//!
//! Figure 8 of the paper plots the *density* of relative ranges over 1000
//! configurations, with a detection threshold drawn in the trough between
//! the first two peaks. [`Kde`] reproduces that curve; [`Histogram`] backs
//! the distribution summaries printed by the study driver.

use crate::summary;

/// A fixed-width-bin histogram over a closed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
    clipped: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi]` with `bins` equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or the bounds are invalid.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid bounds"
        );
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
            clipped: 0,
        }
    }

    /// Adds an observation; values outside the range are counted as clipped.
    pub fn push(&mut self, x: f64) {
        self.total += 1;
        if !x.is_finite() || x < self.lo || x > self.hi {
            self.clipped += 1;
            return;
        }
        let frac = (x - self.lo) / (self.hi - self.lo);
        let idx = ((frac * self.counts.len() as f64) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of observations that fell outside `[lo, hi]`.
    pub fn clipped(&self) -> u64 {
        self.clipped
    }

    /// Total observations pushed (including clipped ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Midpoint of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len());
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + width * (i as f64 + 0.5)
    }

    /// Normalized density value of bin `i` (integrates to ~1 over the range
    /// when nothing is clipped).
    pub fn density(&self, i: usize) -> f64 {
        if self.total == self.clipped {
            return 0.0;
        }
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.counts[i] as f64 / ((self.total - self.clipped) as f64 * width)
    }

    /// Renders a simple ASCII bar chart, one row per bin.
    pub fn ascii(&self, width: usize) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let bar = (c as f64 / max as f64 * width as f64).round() as usize;
            out.push_str(&format!(
                "{:>10.4} | {}{} {}\n",
                self.bin_center(i),
                "#".repeat(bar),
                " ".repeat(width - bar),
                c
            ));
        }
        out
    }
}

/// Gaussian kernel density estimate with Silverman's rule-of-thumb
/// bandwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct Kde {
    samples: Vec<f64>,
    bandwidth: f64,
}

impl Kde {
    /// Fits a KDE to `xs`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub fn fit(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "KDE of empty sample");
        let n = xs.len() as f64;
        let sd = summary::std_dev(xs);
        let iqr = if xs.len() >= 4 {
            summary::iqr(xs)
        } else {
            sd * 1.34
        };
        let spread = if iqr > 0.0 { sd.min(iqr / 1.34) } else { sd };
        // Silverman's rule; fall back to a nominal width for degenerate data.
        let bandwidth = if spread > 0.0 {
            0.9 * spread * n.powf(-0.2)
        } else {
            1e-3
        };
        Kde {
            samples: xs.to_vec(),
            bandwidth,
        }
    }

    /// Evaluates the estimated density at `x`.
    pub fn density(&self, x: f64) -> f64 {
        let h = self.bandwidth;
        let n = self.samples.len() as f64;
        let norm = 1.0 / (n * h * (2.0 * std::f64::consts::PI).sqrt());
        self.samples
            .iter()
            .map(|&s| {
                let z = (x - s) / h;
                (-0.5 * z * z).exp()
            })
            .sum::<f64>()
            * norm
    }

    /// Evaluates the density on an evenly spaced grid of `points` samples
    /// over `[lo, hi]`, returning `(x, density)` pairs.
    pub fn grid(&self, lo: f64, hi: f64, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "grid needs at least two points");
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                (x, self.density(x))
            })
            .collect()
    }

    /// The fitted bandwidth.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Finds the deepest local minimum of the density between `lo` and `hi`
    /// — used to locate the trough between the stable and unstable peaks in
    /// the Figure 8 reproduction. Returns `None` if the density is monotone
    /// on the interval.
    pub fn trough(&self, lo: f64, hi: f64, points: usize) -> Option<f64> {
        let g = self.grid(lo, hi, points);
        let mut best: Option<(f64, f64)> = None;
        for w in g.windows(3) {
            let (x, d) = w[1];
            if d < w[0].1 && d < w[2].1 {
                match best {
                    Some((_, bd)) if bd <= d => {}
                    _ => best = Some((x, d)),
                }
            }
        }
        best.map(|(x, _)| x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{normal_samples, Rng};

    #[test]
    fn histogram_counts_and_density() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..100 {
            h.push(i as f64 / 10.0); // All in [0, 9.9].
        }
        assert_eq!(h.total(), 100);
        assert_eq!(h.clipped(), 0);
        assert_eq!(h.counts().iter().sum::<u64>(), 100);
        let total_density: f64 = (0..10).map(|i| h.density(i)).sum::<f64>();
        assert!((total_density - 1.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_clips_out_of_range() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.push(-1.0);
        h.push(2.0);
        h.push(f64::NAN);
        h.push(0.5);
        assert_eq!(h.clipped(), 3);
        assert_eq!(h.counts().iter().sum::<u64>(), 1);
    }

    #[test]
    fn histogram_boundary_goes_to_last_bin() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.push(1.0);
        assert_eq!(h.counts()[3], 1);
    }

    #[test]
    fn kde_integrates_to_one() {
        let xs = normal_samples(&mut Rng::seed_from(5), 0.0, 1.0, 500);
        let kde = Kde::fit(&xs);
        let grid = kde.grid(-6.0, 6.0, 600);
        let step = 12.0 / 599.0;
        let integral: f64 = grid.iter().map(|&(_, d)| d * step).sum();
        assert!((integral - 1.0).abs() < 0.02, "integral {integral}");
    }

    #[test]
    fn kde_peaks_near_mode() {
        let xs = normal_samples(&mut Rng::seed_from(6), 3.0, 0.5, 1_000);
        let kde = Kde::fit(&xs);
        assert!(kde.density(3.0) > kde.density(1.0));
        assert!(kde.density(3.0) > kde.density(5.0));
    }

    #[test]
    fn trough_found_between_bimodal_peaks() {
        let mut rng = Rng::seed_from(7);
        let mut xs = normal_samples(&mut rng, 0.1, 0.03, 600);
        xs.extend(normal_samples(&mut rng, 0.8, 0.1, 400));
        let kde = Kde::fit(&xs);
        let trough = kde.trough(0.0, 1.2, 400).expect("bimodal data has trough");
        assert!(
            (0.15..0.75).contains(&trough),
            "trough {trough} not between peaks"
        );
    }

    #[test]
    fn trough_none_for_unimodal() {
        let xs = normal_samples(&mut Rng::seed_from(8), 0.0, 1.0, 2_000);
        let kde = Kde::fit(&xs);
        // Evaluate on a coarse grid within one sigma: monotone around mode
        // still yields either none or a shallow artifact; accept none or a
        // value far from the mode.
        if let Some(t) = kde.trough(-0.4, 0.4, 50) {
            assert!(kde.density(t) > 0.5 * kde.density(0.0));
        }
    }

    #[test]
    fn ascii_render_has_one_row_per_bin() {
        let mut h = Histogram::new(0.0, 1.0, 5);
        for i in 0..20 {
            h.push(i as f64 / 20.0);
        }
        let s = h.ascii(30);
        assert_eq!(s.lines().count(), 5);
    }
}
