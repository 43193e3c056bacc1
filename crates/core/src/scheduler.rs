//! Multi-fidelity task scheduling across the worker cluster (§4.1, §5.1).
//!
//! TUNA reuses samples taken at lower budgets when a config is promoted:
//! raising a config from budget 1 to budget 3 schedules only two new runs,
//! and those runs must land on nodes the config has *not* yet visited so
//! the detection guarantee (distinct-node samples) holds. The scheduler
//! tracks per-config visited sets and balances new work onto the
//! least-loaded eligible workers.

use std::collections::BTreeMap;

use tuna_space::ConfigId;

/// Tracks which workers each config has sampled and worker load.
#[derive(Debug, Clone)]
pub struct TaskScheduler {
    cluster_size: usize,
    visited: BTreeMap<ConfigId, Vec<usize>>,
    load: Vec<u64>,
}

impl TaskScheduler {
    /// Creates a scheduler for a cluster of `cluster_size` workers.
    ///
    /// # Panics
    ///
    /// Panics if `cluster_size == 0`.
    pub fn new(cluster_size: usize) -> Self {
        assert!(cluster_size > 0, "empty cluster");
        TaskScheduler {
            cluster_size,
            visited: BTreeMap::new(),
            load: vec![0; cluster_size],
        }
    }

    /// Workers already holding samples for `config`.
    pub fn visited(&self, config: ConfigId) -> &[usize] {
        self.visited.get(&config).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Plans the new runs needed to bring `config` to `budget` distinct
    /// nodes, choosing the least-loaded unvisited workers. Returns the
    /// worker indices to run on (empty if the budget is already met):
    /// the tail of [`TaskScheduler::visited`], so nothing is allocated
    /// once the config's list has room.
    ///
    /// # Panics
    ///
    /// Panics if `budget` exceeds the cluster size.
    pub fn assign(&mut self, config: ConfigId, budget: usize) -> &[usize] {
        assert!(
            budget <= self.cluster_size,
            "budget {budget} exceeds cluster {}",
            self.cluster_size
        );
        let visited = self.visited.entry(config).or_default();
        let before = visited.len();
        for _ in before..budget {
            // Least-loaded first; ties broken by index for determinism.
            let next = (0..self.cluster_size)
                .filter(|i| !visited.contains(i))
                .min_by_key(|&i| (self.load[i], i))
                .expect("a budget within the cluster leaves an unvisited worker");
            self.load[next] += 1;
            visited.push(next);
        }
        &visited[before..]
    }

    /// Total runs assigned so far.
    pub fn total_assigned(&self) -> u64 {
        self.load.iter().sum()
    }

    /// Per-worker assigned run counts.
    pub fn load(&self) -> &[u64] {
        &self.load
    }

    /// Difference between the most- and least-loaded workers.
    ///
    /// Fresh (never-promoted) assignments keep this at most 1: a batch of
    /// size `b` takes the `b` globally least-loaded workers, raising every
    /// minimum-load worker before touching any other. Promotions can
    /// exceed 1 because the visited-set exclusion can force new runs onto
    /// already-loaded workers.
    pub fn load_spread(&self) -> u64 {
        let max = self.load.iter().copied().max().unwrap_or(0);
        let min = self.load.iter().copied().min().unwrap_or(0);
        max - min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuna_space::{Config, ParamValue};

    fn cfg(v: i64) -> ConfigId {
        Config::new(vec![ParamValue::Int(v)]).id()
    }

    #[test]
    fn budget_one_assigns_one_worker() {
        let mut s = TaskScheduler::new(10);
        let w = s.assign(cfg(1), 1).to_vec();
        assert_eq!(w.len(), 1);
        assert_eq!(s.visited(cfg(1)), w.as_slice());
    }

    #[test]
    fn promotion_reuses_prior_samples() {
        // The §5.1 example: budget 3 after budget 1 needs only 2 new runs,
        // and they must avoid the original node.
        let mut s = TaskScheduler::new(10);
        let first = s.assign(cfg(1), 1).to_vec();
        let next = s.assign(cfg(1), 3);
        assert_eq!(next.len(), 2);
        assert!(!next.contains(&first[0]), "reused node {}", first[0]);
        assert_eq!(s.visited(cfg(1)).len(), 3);
    }

    #[test]
    fn full_budget_covers_cluster_distinctly() {
        let mut s = TaskScheduler::new(10);
        s.assign(cfg(1), 1);
        s.assign(cfg(1), 3);
        s.assign(cfg(1), 10);
        let mut v = s.visited(cfg(1)).to_vec();
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), 10, "distinct-node guarantee violated");
    }

    #[test]
    fn met_budget_assigns_nothing() {
        let mut s = TaskScheduler::new(10);
        s.assign(cfg(1), 3);
        assert!(s.assign(cfg(1), 3).is_empty());
        assert!(s.assign(cfg(1), 2).is_empty());
    }

    #[test]
    fn load_balances_across_workers() {
        let mut s = TaskScheduler::new(4);
        for v in 0..40 {
            s.assign(cfg(v), 1);
        }
        // 40 single-node configs over 4 workers: each gets ~10.
        for &l in s.load() {
            assert_eq!(l, 10, "load {:?}", s.load());
        }
    }

    #[test]
    fn independent_configs_tracked_separately() {
        let mut s = TaskScheduler::new(10);
        s.assign(cfg(1), 5);
        s.assign(cfg(2), 5);
        assert_eq!(s.visited(cfg(1)).len(), 5);
        assert_eq!(s.visited(cfg(2)).len(), 5);
        assert_eq!(s.total_assigned(), 10);
    }

    #[test]
    #[should_panic(expected = "exceeds cluster")]
    fn over_budget_panics() {
        TaskScheduler::new(5).assign(cfg(1), 6);
    }
}
