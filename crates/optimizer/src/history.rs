//! Observation history shared by the optimizers.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use tuna_space::{Config, ConfigId, ConfigSpace};

/// Total order on costs that quarantines non-finite values: any finite
/// cost ranks strictly better (earlier) than any NaN or ±inf, and
/// non-finite costs are ordered among themselves by [`f64::total_cmp`]
/// so ranking stays deterministic. A diverged run reporting NaN or an
/// overflowed penalty must never panic a study or win `best()`.
pub fn cost_cmp(a: f64, b: f64) -> Ordering {
    match (a.is_finite(), b.is_finite()) {
        // Matches IEEE partial_cmp exactly on the finite-only path (incl.
        // -0.0 == 0.0), so histories without non-finite costs rank
        // byte-identically to the old panicking comparator.
        (true, true) => {
            if a < b {
                Ordering::Less
            } else if b < a {
                Ordering::Greater
            } else {
                Ordering::Equal
            }
        }
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (false, false) => a.total_cmp(&b),
    }
}

/// Per-config rollup: the latest cost at the highest budget seen.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigRecord {
    /// The configuration.
    pub config: Config,
    /// Highest budget this config has been told at.
    pub max_budget: usize,
    /// Cost reported at that highest budget.
    pub cost: f64,
}

/// Store of observations rolled up per config, with the incumbent kept
/// current on every push.
///
/// Rollups live in an insertion-ordered `Vec` (with a `BTreeMap` used
/// only as an index), so surrogate training data and tie-breaking are
/// deterministic — iterating an unordered hash map directly would
/// randomize model fits between identical runs.
#[derive(Debug, Clone, Default)]
pub struct History {
    pushes: usize,
    record_order: Vec<ConfigRecord>,
    index: BTreeMap<ConfigId, usize>,
    /// Position of [`History::best`] in `record_order`.
    best: Option<usize>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Records an observation.
    pub fn push(&mut self, config: Config, cost: f64, budget: usize) {
        if !cost.is_finite() {
            // Observability side channel only: the quarantine itself is
            // enforced by the finite-filtering consumers below.
            tuna_obs::global()
                .counter(
                    "tuna_quarantined_nan_total",
                    "non-finite costs quarantined before any model fit",
                )
                .inc();
        }
        self.pushes += 1;
        let id = config.id();
        let i = match self.index.get(&id) {
            Some(&i) => {
                let entry = &mut self.record_order[i];
                if budget < entry.max_budget {
                    return; // Lower budget: the rollup ignores it.
                }
                entry.max_budget = budget;
                entry.cost = cost;
                i
            }
            None => {
                let i = self.record_order.len();
                self.index.insert(id, i);
                self.record_order.push(ConfigRecord {
                    config,
                    max_budget: budget,
                    cost,
                });
                i
            }
        };
        if self.best == Some(i) {
            // Only the incumbent's own record can get worse: rescan.
            self.best = (0..self.record_order.len())
                .filter(|&j| self.record_order[j].cost.is_finite())
                .min_by(|&a, &b| self.rank(a, b));
        } else if self.record_order[i].cost.is_finite()
            && self.best.is_none_or(|b| self.rank(i, b).is_lt())
        {
            self.best = Some(i);
        }
    }

    /// Incumbent order of the rollups at positions `a` and `b`: the higher
    /// budget tier first, then the lower cost under [`cost_cmp`], then the
    /// first seen.
    fn rank(&self, a: usize, b: usize) -> Ordering {
        let (ra, rb) = (&self.record_order[a], &self.record_order[b]);
        rb.max_budget
            .cmp(&ra.max_budget)
            .then(cost_cmp(ra.cost, rb.cost))
            .then(a.cmp(&b))
    }

    /// Number of observations pushed, non-finite ones included.
    pub fn len(&self) -> usize {
        self.pushes
    }

    /// Whether no observations exist.
    pub fn is_empty(&self) -> bool {
        self.pushes == 0
    }

    /// Rollup for a config, if seen.
    pub fn record(&self, id: ConfigId) -> Option<&ConfigRecord> {
        self.index.get(&id).map(|&i| &self.record_order[i])
    }

    /// Iterates over per-config rollups in first-seen order.
    pub fn records(&self) -> impl Iterator<Item = &ConfigRecord> {
        self.record_order.iter()
    }

    /// Number of distinct configurations seen.
    pub fn n_configs(&self) -> usize {
        self.record_order.len()
    }

    /// The best (lowest-cost) rollup, preferring the highest budget tier
    /// that has any record: a config measured on 10 nodes at cost c beats a
    /// config measured on 1 node at cost c - eps, because only high-budget
    /// measurements are trustworthy under cloud noise. Among equal costs
    /// the first-seen config wins.
    ///
    /// Non-finite rollups (NaN/±inf from diverged runs) are quarantined:
    /// they never win, the budget tier is chosen among finite records
    /// only, and `None` is returned if no finite record exists.
    ///
    /// Constant time: [`History::push`] keeps the incumbent current.
    pub fn best(&self) -> Option<&ConfigRecord> {
        self.best.map(|i| &self.record_order[i])
    }

    /// Training matrix for a surrogate: one row per distinct config (its
    /// encoded form) and the cost at its highest budget. Non-finite
    /// rollups are quarantined — they must never reach a model fit.
    pub fn surrogate_data(&self, space: &ConfigSpace) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut x = Vec::with_capacity(self.record_order.len());
        let mut y = Vec::with_capacity(self.record_order.len());
        for rec in self.records().filter(|r| r.cost.is_finite()) {
            x.push(space.encode(&rec.config));
            y.push(rec.cost);
        }
        (x, y)
    }

    /// Like [`History::surrogate_data`] but one-hot encoded (for GPs).
    pub fn surrogate_data_one_hot(&self, space: &ConfigSpace) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut x = Vec::with_capacity(self.record_order.len());
        let mut y = Vec::with_capacity(self.record_order.len());
        for rec in self.records().filter(|r| r.cost.is_finite()) {
            x.push(space.encode_one_hot(&rec.config));
            y.push(rec.cost);
        }
        (x, y)
    }

    /// The `k` best distinct configs by rolled-up cost (any budget),
    /// best first. Non-finite rollups sort after every finite one.
    pub fn top_k(&self, k: usize) -> Vec<&ConfigRecord> {
        let mut recs: Vec<&ConfigRecord> = self.record_order.iter().collect();
        recs.sort_by(|a, b| cost_cmp(a.cost, b.cost));
        recs.truncate(k);
        recs
    }
}

/// The two-pass incumbent scan [`History::best`] replaced, kept as the
/// oracle its property test compares against.
#[cfg(test)]
mod naive {
    use super::{cost_cmp, ConfigRecord, History};

    pub fn best(h: &History) -> Option<&ConfigRecord> {
        let top_budget = h
            .records()
            .filter(|r| r.cost.is_finite())
            .map(|r| r.max_budget)
            .max()?;
        h.records()
            .filter(|r| r.max_budget == top_budget && r.cost.is_finite())
            .min_by(|a, b| cost_cmp(a.cost, b.cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tuna_space::ParamValue;

    fn cfg(v: i64) -> Config {
        Config::new(vec![ParamValue::Int(v)])
    }

    #[test]
    fn rollup_keeps_highest_budget() {
        let mut h = History::new();
        h.push(cfg(1), 10.0, 1);
        h.push(cfg(1), 12.0, 3);
        h.push(cfg(1), 11.0, 2); // Lower budget: ignored by rollup.
        let rec = h.record(cfg(1).id()).unwrap();
        assert_eq!(rec.max_budget, 3);
        assert_eq!(rec.cost, 12.0);
        assert_eq!(h.len(), 3);
        assert_eq!(h.n_configs(), 1);
    }

    #[test]
    fn best_prefers_top_budget_tier() {
        let mut h = History::new();
        h.push(cfg(1), 1.0, 1); // Cheapest overall but low budget.
        h.push(cfg(2), 5.0, 10);
        h.push(cfg(3), 7.0, 10);
        let best = h.best().unwrap();
        assert_eq!(best.config, cfg(2));
    }

    /// Costs drawn from a small palette so that exact ties, signed zeros
    /// and every non-finite kind recur within one sequence.
    const PALETTE: [f64; 10] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        1.0,
        1.0,
        2.0,
        -1.0,
        5.0,
    ];

    proptest! {
        #[test]
        fn incremental_best_is_the_full_scan(
            ops in prop::collection::vec((0u8..6, 0i64..6, 0usize..3, 0usize..10), 1..80)
        ) {
            let mut h = History::new();
            for (kind, config, budget, cost) in ops {
                let cost = PALETTE[cost];
                match h.best() {
                    // Re-tell the incumbent at its own budget, so the
                    // rollup takes the new cost (often a worse one).
                    Some(best) if kind == 0 => {
                        let (config, budget) = (best.config.clone(), best.max_budget);
                        h.push(config, cost, budget);
                    }
                    _ => h.push(cfg(config), cost, [1, 3, 10][budget]),
                }
                let fast = h.best().map(|r| r as *const ConfigRecord);
                let slow = naive::best(&h).map(|r| r as *const ConfigRecord);
                prop_assert_eq!(fast, slow, "incumbent differs from the full scan");
            }
        }
    }

    #[test]
    fn equal_costs_keep_the_first_seen_incumbent() {
        let mut h = History::new();
        h.push(cfg(1), 0.0, 1);
        h.push(cfg(2), -0.0, 1);
        h.push(cfg(3), 0.0, 1);
        assert_eq!(h.best().unwrap().config, cfg(1));
        // The incumbent gets worse: the next first-seen tie takes over.
        h.push(cfg(1), 4.0, 1);
        assert_eq!(h.best().unwrap().config, cfg(2));
        // A lower-budget re-tell leaves the rollup, and the incumbent, alone.
        h.push(cfg(3), 9.0, 3);
        h.push(cfg(3), -9.0, 1);
        assert_eq!(h.best().unwrap().config, cfg(3));
        assert_eq!(h.best().unwrap().cost, 9.0);
        assert_eq!(h.len(), 6);
    }

    #[test]
    fn best_none_when_empty() {
        assert!(History::new().best().is_none());
    }

    #[test]
    fn top_k_sorted() {
        let mut h = History::new();
        h.push(cfg(1), 3.0, 1);
        h.push(cfg(2), 1.0, 1);
        h.push(cfg(3), 2.0, 1);
        let top = h.top_k(2);
        assert_eq!(top[0].config, cfg(2));
        assert_eq!(top[1].config, cfg(3));
    }

    #[test]
    fn cost_cmp_quarantines_non_finite() {
        let mut v = [f64::NAN, 1.0, f64::INFINITY, -2.0, f64::NEG_INFINITY, 0.5];
        v.sort_by(|a, b| cost_cmp(*a, *b));
        assert_eq!(&v[..3], &[-2.0, 0.5, 1.0]);
        assert!(v[3..].iter().all(|c| !c.is_finite()));
        // Deterministic: a second sort of a permutation agrees.
        let mut w = [0.5, f64::NEG_INFINITY, -2.0, f64::INFINITY, 1.0, f64::NAN];
        w.sort_by(|a, b| cost_cmp(*a, *b));
        assert_eq!(v.iter().map(|c| c.to_bits()).collect::<Vec<_>>(), {
            w.iter().map(|c| c.to_bits()).collect::<Vec<_>>()
        });
    }

    #[test]
    fn best_never_returns_non_finite() {
        let mut h = History::new();
        h.push(cfg(1), f64::NAN, 10); // High budget but diverged.
        h.push(cfg(2), f64::NEG_INFINITY, 10); // -inf must not win.
        h.push(cfg(3), 4.0, 1);
        h.push(cfg(4), 3.0, 1);
        let best = h.best().unwrap();
        assert!(best.cost.is_finite());
        assert_eq!(best.config, cfg(4));
        // Counts stay exact: quarantine hides nothing from bookkeeping.
        assert_eq!(h.len(), 4);
        assert_eq!(h.n_configs(), 4);
    }

    #[test]
    fn best_none_when_all_non_finite() {
        let mut h = History::new();
        h.push(cfg(1), f64::NAN, 1);
        h.push(cfg(2), f64::INFINITY, 3);
        assert!(h.best().is_none());
        assert_eq!(h.len(), 2);
        assert_eq!(h.n_configs(), 2);
    }

    #[test]
    fn surrogate_data_excludes_non_finite() {
        let space = tuna_space::ConfigSpace::builder().int("v", 0, 10).build();
        let mut h = History::new();
        h.push(cfg(1), 3.0, 1);
        h.push(cfg(2), f64::NAN, 1);
        h.push(cfg(3), f64::INFINITY, 1);
        h.push(cfg(4), 1.0, 1);
        let (x, y) = h.surrogate_data(&space);
        assert_eq!(x.len(), 2);
        assert_eq!(y, vec![3.0, 1.0]);
        let (xh, yh) = h.surrogate_data_one_hot(&space);
        assert_eq!(xh.len(), 2);
        assert!(yh.iter().all(|c| c.is_finite()));
    }

    #[test]
    fn top_k_sinks_non_finite() {
        let mut h = History::new();
        h.push(cfg(1), f64::NAN, 1);
        h.push(cfg(2), 2.0, 1);
        h.push(cfg(3), 1.0, 1);
        let top = h.top_k(3);
        assert_eq!(top[0].config, cfg(3));
        assert_eq!(top[1].config, cfg(2));
        assert!(top[2].cost.is_nan());
    }

    #[test]
    fn surrogate_data_shapes() {
        let space = tuna_space::ConfigSpace::builder().int("v", 0, 10).build();
        let mut h = History::new();
        h.push(cfg(1), 3.0, 1);
        h.push(cfg(2), 1.0, 1);
        h.push(cfg(1), 2.5, 3);
        let (x, y) = h.surrogate_data(&space);
        assert_eq!(x.len(), 2);
        assert_eq!(y.len(), 2);
        assert_eq!(x[0].len(), 1);
    }
}
