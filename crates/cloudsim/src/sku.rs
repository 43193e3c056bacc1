//! VM SKU definitions calibrated to the paper's measurement study.

use crate::components::ComponentVec;
use crate::credits::CreditSpec;

/// A virtual-machine (or bare-metal) SKU.
///
/// The two noise channels per component:
/// - `placement_cov`: dispersion of the *placement factor* drawn once per
///   VM (which host, which neighbors on average) — dominates across-VM
///   variance for short-lived VM fleets;
/// - `interference_std`: stationary deviation of the within-VM AR(1)
///   interference process — what a single VM sees over time.
///
/// The paper's Figure 4 CoVs are the combination of both
/// (`sqrt(p^2 + i^2)`), which the defaults below reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct VmSku {
    /// SKU name, e.g. `"Standard_D8s_v5"`.
    pub name: String,
    /// Virtual CPU count.
    pub vcpus: u32,
    /// Guest memory in GiB.
    pub memory_gb: f64,
    /// Across-placement coefficient of variation per component.
    pub placement_cov: ComponentVec,
    /// Stationary std of the AR(1) interference per component.
    pub interference_std: ComponentVec,
    /// AR(1) autocorrelation of interference (per 5-minute step).
    pub interference_phi: f64,
    /// Probability per step that a long-running VM live-migrates
    /// (redrawing its placement).
    pub migration_prob: f64,
    /// Credit model for burstable SKUs.
    pub burstable: Option<CreditSpec>,
    /// Absolute performance scale relative to D8s_v5 (bare metal is
    /// faster).
    pub perf_scale: f64,
    /// Absolute per-component speed relative to D8s_v5. Relative *noise*
    /// lives in `placement_cov`/`interference_std`; this captures that a
    /// bare-metal box has more cores and no hypervisor (fast CPU/OS) but a
    /// local SATA disk instead of a premium cloud SSD (slow random IO) —
    /// the reason the paper's Figure 13 shows 19x headroom over the
    /// default config on CloudLab.
    pub component_scale: ComponentVec,
}

impl VmSku {
    /// Azure `Standard_D8s_v5` with an SSDv2 data disk — the paper's main
    /// worker SKU. Component CoVs match §3.2: CPU 0.17%, disk 0.36%,
    /// memory 4.92%, OS 9.82%, cache 14.39%.
    pub fn d8s_v5() -> Self {
        VmSku {
            name: "Standard_D8s_v5".to_string(),
            vcpus: 8,
            memory_gb: 32.0,
            placement_cov: ComponentVec::new(0.0012, 0.0025, 0.040, 0.120, 0.080),
            interference_std: ComponentVec::new(0.0012, 0.0026, 0.0286, 0.0794, 0.0570),
            interference_phi: 0.85,
            migration_prob: 2e-5,
            burstable: None,
            perf_scale: 1.0,
            component_scale: ComponentVec::ones(),
        }
    }

    /// Azure `Standard_B8ms` — the burstable SKU of Figure 3: oversubscribed
    /// (wider placement spread) plus the credit-depletion bimodality.
    pub fn b8ms() -> Self {
        VmSku {
            name: "Standard_B8ms".to_string(),
            vcpus: 8,
            memory_gb: 32.0,
            placement_cov: ComponentVec::new(0.030, 0.040, 0.070, 0.150, 0.110),
            interference_std: ComponentVec::new(0.020, 0.030, 0.050, 0.090, 0.080),
            interference_phi: 0.85,
            migration_prob: 2e-5,
            burstable: Some(CreditSpec::b_series_default()),
            perf_scale: 0.92,
            component_scale: ComponentVec::uniform(0.92),
        }
    }

    /// CloudLab `c220g5` bare metal — no virtualization, no neighbors:
    /// tiny placement variance (part-to-part silicon differences) and very
    /// small temporal noise. Faster in absolute terms than the cloud VM
    /// (the paper's Figure 13 throughput is ~3x Figure 11a's).
    pub fn c220g5() -> Self {
        VmSku {
            name: "c220g5".to_string(),
            vcpus: 40,
            memory_gb: 192.0,
            placement_cov: ComponentVec::new(0.0015, 0.0030, 0.0080, 0.0120, 0.0060),
            interference_std: ComponentVec::new(0.0010, 0.0020, 0.0060, 0.0080, 0.0050),
            interference_phi: 0.7,
            migration_prob: 0.0,
            burstable: None,
            perf_scale: 3.0,
            component_scale: ComponentVec::new(4.5, 0.105, 3.75, 3.75, 6.0),
        }
    }

    /// Expected total CoV per component (placement and interference
    /// combined in quadrature) — what a large short-lived-VM study
    /// measures.
    pub fn expected_total_cov(&self) -> ComponentVec {
        self.placement_cov
            .zip(&self.interference_std, |p, i| (p * p + i * i).sqrt())
    }

    /// Whether the SKU is burstable.
    pub fn is_burstable(&self) -> bool {
        self.burstable.is_some()
    }

    /// Every built-in SKU, in a fixed order.
    pub fn all() -> Vec<VmSku> {
        vec![VmSku::d8s_v5(), VmSku::b8ms(), VmSku::c220g5()]
    }

    /// Looks up a built-in SKU by its [`VmSku::name`].
    pub fn by_name(name: &str) -> Option<VmSku> {
        VmSku::all().into_iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::Component;

    #[test]
    fn d8s_v5_total_covs_match_paper() {
        // §3.2 reports CPU 0.17%, disk 0.36%, mem 4.92%, OS 9.82%,
        // cache 14.39%.
        let total = VmSku::d8s_v5().expected_total_cov();
        assert!((total.cpu - 0.0017).abs() < 3e-4, "cpu {}", total.cpu);
        assert!((total.disk - 0.0036).abs() < 4e-4, "disk {}", total.disk);
        assert!((total.memory - 0.0492).abs() < 3e-3, "mem {}", total.memory);
        assert!((total.os - 0.0982).abs() < 5e-3, "os {}", total.os);
        assert!((total.cache - 0.1439).abs() < 8e-3, "cache {}", total.cache);
    }

    #[test]
    fn component_cov_ordering_matches_paper() {
        // cpu < disk < memory < os < cache.
        let t = VmSku::d8s_v5().expected_total_cov();
        assert!(t.get(Component::Cpu) < t.get(Component::Disk));
        assert!(t.get(Component::Disk) < t.get(Component::Memory));
        assert!(t.get(Component::Memory) < t.get(Component::Os));
        assert!(t.get(Component::Os) < t.get(Component::Cache));
    }

    #[test]
    fn burstable_flag() {
        assert!(!VmSku::d8s_v5().is_burstable());
        assert!(VmSku::b8ms().is_burstable());
        assert!(!VmSku::c220g5().is_burstable());
    }

    #[test]
    fn bare_metal_quieter_than_cloud() {
        let bm = VmSku::c220g5().expected_total_cov();
        let vm = VmSku::d8s_v5().expected_total_cov();
        for c in [Component::Memory, Component::Cache, Component::Os] {
            assert!(bm.get(c) < vm.get(c), "{c} louder on bare metal");
        }
    }

    #[test]
    fn by_name_round_trips() {
        for sku in VmSku::all() {
            assert_eq!(VmSku::by_name(&sku.name), Some(sku.clone()));
        }
        assert_eq!(VmSku::by_name("d8s_v5"), None);
    }

    #[test]
    fn bare_metal_faster() {
        assert!(VmSku::c220g5().perf_scale > VmSku::d8s_v5().perf_scale);
    }
}
