//! Worker clusters and VM provisioning.

use crate::machine::Machine;
use crate::region::Region;
use crate::sku::VmSku;
use tuna_stats::rng::{hash_combine, Rng};

/// A fixed-size cluster of worker machines plus a provisioning factory for
/// short-lived VMs and fresh deployment clusters.
///
/// The paper's evaluation uses a 10-worker tuning cluster and deploys best
/// configs onto a *new* set of 10 VMs; [`Cluster::fresh_cluster`] provides
/// the latter with decorrelated placements.
#[derive(Debug, Clone)]
pub struct Cluster {
    sku: VmSku,
    region: Region,
    root: Rng,
    machines: Vec<Machine>,
}

impl Cluster {
    /// Creates a cluster of `n` machines.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, sku: VmSku, region: Region, seed: u64) -> Self {
        assert!(n > 0, "cluster needs at least one machine");
        let root = Rng::seed_from(hash_combine(seed, 0xC1C5_7E12));
        let machines = (0..n as u64)
            .map(|id| Machine::provision(id, &sku, &region, &root))
            .collect();
        Cluster {
            sku,
            region,
            root,
            machines,
        }
    }

    /// Number of machines.
    pub fn size(&self) -> usize {
        self.machines.len()
    }

    /// Immutable machine access.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn machine(&self, i: usize) -> &Machine {
        &self.machines[i]
    }

    /// Mutable machine access (measurements mutate interference state).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn machine_mut(&mut self, i: usize) -> &mut Machine {
        &mut self.machines[i]
    }

    /// All machines.
    pub fn machines(&self) -> &[Machine] {
        &self.machines
    }

    /// All machines, mutably. This is the partitioning primitive behind
    /// parallel trial execution: each lane borrows one machine, so
    /// concurrent runs mutate interference state without aliasing.
    pub fn machines_mut(&mut self) -> &mut [Machine] {
        &mut self.machines
    }

    /// The SKU of this cluster.
    pub fn sku(&self) -> &VmSku {
        &self.sku
    }

    /// The region of this cluster.
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// Builds a new cluster of `n` machines with placements decorrelated
    /// from this one (the paper's "deploy on a new set of VMs" step).
    /// `label` distinguishes multiple deployment clusters.
    pub fn fresh_cluster(&self, n: usize, label: u64) -> Cluster {
        let root = self.root.fork(hash_combine(0xDEB1_0411, label));
        let machines = (0..n as u64)
            .map(|id| Machine::provision(1_000_000 + id, &self.sku, &self.region, &root))
            .collect();
        Cluster {
            sku: self.sku.clone(),
            region: self.region.clone(),
            root,
            machines,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Cluster {
        Cluster::new(10, VmSku::d8s_v5(), Region::westus2(), 77)
    }

    #[test]
    fn deterministic_construction() {
        let a = cluster();
        let b = cluster();
        for i in 0..a.size() {
            assert_eq!(a.machine(i).placement(), b.machine(i).placement());
        }
    }

    #[test]
    fn machines_have_distinct_placements() {
        let c = cluster();
        for i in 0..c.size() {
            for j in (i + 1)..c.size() {
                assert_ne!(
                    c.machine(i).identity(),
                    c.machine(j).identity(),
                    "machines {i} and {j} collide"
                );
            }
        }
    }

    #[test]
    fn fresh_cluster_decorrelated() {
        let c = cluster();
        let d1 = c.fresh_cluster(10, 0);
        let d2 = c.fresh_cluster(10, 1);
        assert_eq!(d1.size(), 10);
        assert_ne!(d1.machine(0).identity(), c.machine(0).identity());
        assert_ne!(d1.machine(0).identity(), d2.machine(0).identity());
    }

    #[test]
    fn machines_mut_lanes_are_independent() {
        let mut c = cluster();
        let before_1 = c.machine(1).epoch();
        {
            let (head, tail) = c.machines_mut().split_at_mut(3);
            head[0].advance(4);
            tail[0].advance(2);
        }
        assert_eq!(c.machine(0).epoch(), 4);
        assert_eq!(c.machine(3).epoch(), 2);
        assert_eq!(c.machine(1).epoch(), before_1);
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn zero_size_panics() {
        Cluster::new(0, VmSku::d8s_v5(), Region::westus2(), 1);
    }
}
