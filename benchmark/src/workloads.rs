//! The four campaign workloads: which scenarios and fault families each
//! one plans, how its experiments are picked out of that plan, and how
//! the cluster underneath is configured. Everything here is data plus
//! deterministic selection; running lives in [`crate::run`].

use etcd_sim::StorageKind;
use k8s_cluster::{ClusterConfig, RunStats, Topology, UserOp, World};
use k8s_model::Kind;
use mutiny_core::campaign::PlannedExperiment;
use mutiny_core::InjectionPoint;
use mutiny_faults::Fault;
use mutiny_scenarios::{registry, Scenario, ScenarioDef, DEPLOY};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Seed used when `--seed` is not given; the pinned digests and the
/// sizes quoted in the README are taken at this seed.
pub const DEFAULT_SEED: u64 = 2024;

/// Seed of the simulated cluster: traffic recording, golden baselines
/// and every experiment's world. Fixed, so that `--seed` changes what is
/// injected (which bits, values, bytes and occurrences the planner
/// draws) and not which fields the plan holds or how the cluster
/// jitters: with a seeded recording the plan's length moves by a few
/// fields, and stride alignment — not the code under test — then
/// decides whether a run of 200 experiments holds three storms or none
/// (measured: 55 against 120 experiments/s on neighbouring seeds).
pub const WORLD_SEED: u64 = 2024;

/// `run_seconds` of `BENCHMARK.json`: the `--seconds` value at which a
/// workload has its nominal size. Sizes scale linearly with `--seconds`;
/// at the nominal size the timing passes of a run take about this long
/// on the reference box.
pub const RUN_SECONDS: f64 = 15.0;

/// Golden runs per scenario baseline (part of set-up).
pub const BASELINE_RUNS: usize = 24;

/// The storage-engine families `storm-log` draws from.
const STORAGE_FAMILIES: [&str; 4] = [
    "etcd-disk-full",
    "etcd-compaction-pressure",
    "etcd-corrupt-at-rest",
    "etcd-inconsistent-view",
];

/// Which planned families a workload draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Families {
    /// The paper's wire triplet: bit-flip, value-set, drop.
    Wire,
    /// Every registered family.
    All,
}

impl Families {
    /// The family handles, in registry order.
    pub fn faults(self) -> Vec<Fault> {
        match self {
            Families::Wire => mutiny_faults::WIRE_BUILTIN.to_vec(),
            Families::All => mutiny_faults::registry::all(),
        }
    }
}

/// How a workload's experiments are picked out of the full plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Select {
    /// `n` experiments spread evenly over the whole plan.
    Strided(usize),
    /// Every family strided down to at most `cap` experiments, leaving
    /// out whatever [`may_run_away`]: one such experiment costs as much
    /// as 100 to 250 ordinary ones, and for the `cfg-selector` family
    /// the occurrence the planner draws decides whether it fires, so a
    /// per-family sample would hold one storm on one seed and four on
    /// the next. The storm tail is `wire-bulk`'s and `storm-log`'s job.
    PerFamily(usize),
    /// `storms` runaway-replication experiments — wire faults on the
    /// selector of a ReplicaSet, which fire whatever the planner draws —
    /// spread evenly over the ones planned, plus each of the
    /// [`STORAGE_FAMILIES`] strided down to at most `per_storage_family`.
    Storms {
        /// Runaway-replication experiments.
        storms: usize,
        /// Cap per storage family.
        per_storage_family: usize,
    },
}

/// One workload of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json` and `--workload`.
    pub name: &'static str,
    /// Campaign-pass worker threads.
    pub threads: usize,
    /// Storage engine under the cluster and the baselines.
    pub storage: StorageKind,
    /// Families planned.
    pub families: Families,
    /// Selection out of the plan, at nominal size.
    pub select: Select,
    /// True for the workload that runs on the 32-worker scenario.
    pub wide: bool,
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wire-bulk",
        threads: 1,
        storage: StorageKind::Mem,
        families: Families::Wire,
        select: Select::Strided(200),
        wide: false,
    },
    Workload {
        name: "families-all-2t",
        threads: 2,
        storage: StorageKind::Mem,
        families: Families::All,
        select: Select::PerFamily(12),
        wide: false,
    },
    Workload {
        name: "storm-log",
        threads: 1,
        storage: StorageKind::Log,
        families: Families::All,
        select: Select::Storms {
            storms: 3,
            per_storage_family: 5,
        },
        wide: false,
    },
    Workload {
        name: "wide-32",
        threads: 1,
        storage: StorageKind::Mem,
        families: Families::All,
        select: Select::PerFamily(4),
        wide: true,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn find(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The scenarios this workload plans over.
    pub fn scenarios(&self) -> Vec<Scenario> {
        if self.wide {
            vec![owned_scenarios().wide32]
        } else {
            registry::BUILTIN.to_vec()
        }
    }

    /// The no-op twin of this workload's cluster: same topology, no
    /// user operations — what the idle-window probes run.
    pub fn idle_twin(&self) -> Scenario {
        let owned = owned_scenarios();
        if self.wide {
            owned.idle32
        } else {
            owned.idle4
        }
    }

    /// The cluster every experiment and baseline of this workload uses:
    /// the product's default (2 MiB etcd budget included) with the
    /// engine pinned here, never through `MUTINY_STORAGE`.
    pub fn cluster(&self) -> ClusterConfig {
        ClusterConfig {
            storage: self.storage,
            ..ClusterConfig::default()
        }
    }

    /// Picks this workload's experiments out of `plan`, scaled by
    /// `scale` (1.0 = nominal size). Returns plan indices, ascending, so
    /// the selection keeps the plan's scenario grouping.
    pub fn select(&self, plan: &[PlannedExperiment], scale: f64) -> Vec<usize> {
        let scaled = |n: usize| ((n as f64 * scale).round() as usize).max(1);
        let members = |keep: &dyn Fn(&PlannedExperiment) -> bool| -> Vec<usize> {
            (0..plan.len()).filter(|&i| keep(&plan[i])).collect()
        };
        let per_family = |keep: &dyn Fn(&PlannedExperiment) -> bool, cap: usize| {
            let mut by_family: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
            for i in members(keep) {
                by_family.entry(plan[i].fault.name()).or_default().push(i);
            }
            by_family
                .into_values()
                .map(|group| (group, scaled(cap)))
                .collect::<Vec<_>>()
        };
        // (group, how many of it) pairs; each group is strided on its own.
        let groups: Vec<(Vec<usize>, usize)> = match self.select {
            Select::Strided(n) => vec![(members(&|_| true), scaled(n))],
            Select::PerFamily(cap) => per_family(&|p| !may_run_away(p), cap),
            Select::Storms {
                storms,
                per_storage_family,
            } => {
                let mut groups = per_family(
                    &|p| STORAGE_FAMILIES.contains(&p.fault.name()),
                    per_storage_family,
                );
                groups.push((members(&breaks_selector_on_the_wire), scaled(storms)));
                groups
            }
        };
        let mut picked: Vec<usize> = groups
            .iter()
            .flat_map(|(group, want)| stride(group.len(), *want).into_iter().map(|j| group[j]))
            .collect();
        picked.sort_unstable();
        picked
    }
}

/// The two fields that tie a ReplicaSet to its pods — what the paper
/// found behind uncontrolled replication: the selector, and the labels
/// the pods it creates are given.
const REPLICASET_SELECTOR: &str = "spec.selector.matchLabels";
const REPLICASET_POD_LABELS: &str = "spec.template.metadata.labels";

/// True for a wire fault on the selector of a ReplicaSet: it no longer
/// recognises its pods and creates new ones until the horizon or a full
/// disk stops it.
fn breaks_selector_on_the_wire(p: &PlannedExperiment) -> bool {
    p.spec.kind == Kind::ReplicaSet
        && matches!(&p.spec.point, InjectionPoint::Field { path, .. } if path.starts_with(REPLICASET_SELECTOR))
}

/// True for every experiment that can untie a ReplicaSet from its pods:
/// a wire fault on either field, or the `selector` configuration defect
/// admitted on a ReplicaSet.
fn may_run_away(p: &PlannedExperiment) -> bool {
    p.spec.kind == Kind::ReplicaSet
        && match &p.spec.point {
            InjectionPoint::Field { path, .. } => {
                path.starts_with(REPLICASET_SELECTOR) || path.starts_with(REPLICASET_POD_LABELS)
            }
            InjectionPoint::Config { defect, .. } => defect == "selector",
            _ => false,
        }
}

/// `want` indices spread evenly over `0..len` (all of them when `want`
/// is not smaller): index `i * len / want`. Deterministic, ascending,
/// without repeats.
pub fn stride(len: usize, want: usize) -> Vec<usize> {
    if want >= len {
        return (0..len).collect();
    }
    (0..want).map(|i| i * len / want).collect()
}

/// Experiments per family name, for the run stamp.
pub fn family_counts(plan: &[PlannedExperiment]) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for p in plan {
        *counts.entry(p.fault.name()).or_default() += 1;
    }
    counts
}

// --- benchmark-owned scenarios ----------------------------------------------

/// The deploy workload on a 32-worker cluster: cost versus cluster width.
struct Wide32;

impl ScenarioDef for Wide32 {
    fn name(&self) -> &'static str {
        "wide-32"
    }
    fn preinstalled_apps(&self) -> &'static [u32] {
        DEPLOY.preinstalled_apps()
    }
    fn ops(&self) -> Vec<(u64, UserOp)> {
        DEPLOY.ops()
    }
    fn topology(&self) -> Topology {
        Topology::virtual_workers(32)
    }
    fn check_golden(&self, stats: &RunStats, world: &mut World) -> Result<(), String> {
        DEPLOY.check_golden(stats, world)
    }
}

/// A cluster of `workers` nodes on which the user does nothing: the
/// window a wake-on-work event loop could skip entirely.
struct Idle {
    name: &'static str,
    workers: usize,
}

impl ScenarioDef for Idle {
    fn name(&self) -> &'static str {
        self.name
    }
    fn preinstalled_apps(&self) -> &'static [u32] {
        DEPLOY.preinstalled_apps()
    }
    fn ops(&self) -> Vec<(u64, UserOp)> {
        Vec::new()
    }
    fn topology(&self) -> Topology {
        Topology::virtual_workers(self.workers)
    }
}

/// Handles of the scenarios this benchmark registers.
#[derive(Debug, Clone, Copy)]
pub struct OwnedScenarios {
    /// `wide-32`.
    pub wide32: Scenario,
    /// `idle-4`.
    pub idle4: Scenario,
    /// `idle-32`.
    pub idle32: Scenario,
}

/// Registers `wide-32`, `idle-4` and `idle-32` on first use and returns
/// their handles; later calls return the same handles.
///
/// # Panics
///
/// Panics when a name is already taken — the product registry would
/// then run something other than what this benchmark describes.
pub fn owned_scenarios() -> OwnedScenarios {
    static OWNED: OnceLock<OwnedScenarios> = OnceLock::new();
    *OWNED.get_or_init(|| {
        let register = |def: Box<dyn ScenarioDef>| {
            registry::register(def).expect("benchmark scenario names are free")
        };
        OwnedScenarios {
            wide32: register(Box::new(Wide32)),
            idle4: register(Box::new(Idle {
                name: "idle-4",
                workers: 4,
            })),
            idle32: register(Box::new(Idle {
                name: "idle-32",
                workers: 32,
            })),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutiny_core::campaign::{plan_campaign, record_fields};

    #[test]
    fn stride_is_even_deterministic_and_repeat_free() {
        assert_eq!(stride(10, 3), vec![0, 3, 6]);
        assert_eq!(stride(3, 10), vec![0, 1, 2]);
        assert_eq!(stride(0, 5), Vec::<usize>::new());
        let s = stride(9_054, 300);
        assert_eq!(s.len(), 300);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(s, stride(9_054, 300));
    }

    #[test]
    fn owned_scenarios_register_exactly_once() {
        let a = owned_scenarios();
        let b = owned_scenarios();
        assert_eq!(a.wide32, b.wide32);
        for name in ["wide-32", "idle-4", "idle-32"] {
            let hits = registry::all().iter().filter(|s| s.name() == name).count();
            assert_eq!(hits, 1, "{name} registered {hits} times");
        }
        assert_eq!(a.wide32.topology().workers, 32);
        assert_eq!(a.idle32.topology().workers, 32);
        assert_eq!(a.idle4.topology().workers, 4);
        assert!(a.idle4.ops().is_empty());
        assert_eq!(a.wide32.ops().len(), DEPLOY.ops().len());
    }

    #[test]
    fn families_all_covers_every_registered_family_and_is_deterministic() {
        let w = Workload::find("families-all-2t").expect("workload exists");
        let cluster = w.cluster();
        let plan_for = |seed: u64| {
            let mut rng = simkit::Rng::new(seed);
            let mut plan = Vec::new();
            for sc in w.scenarios() {
                let traffic =
                    record_fields(&cluster, sc, vec![k8s_model::Channel::ApiToEtcd], seed);
                plan.extend(plan_campaign(&traffic, sc, &w.families.faults(), &mut rng));
            }
            plan
        };
        let plan = plan_for(11);
        let picked = w.select(&plan, 1.0);
        assert_eq!(
            picked,
            w.select(&plan_for(11), 1.0),
            "same seed, same selection"
        );
        let selected: Vec<_> = picked.iter().map(|&i| plan[i].clone()).collect();
        let counts = family_counts(&selected);
        for fault in mutiny_faults::registry::all() {
            let n = counts.get(fault.name()).copied().unwrap_or(0);
            assert!(n >= 1, "{} missing from families-all-2t", fault.name());
            assert!(n <= 12, "{} has {n} experiments, cap is 12", fault.name());
        }
        assert_eq!(counts.len(), 18);
        assert!(plan.iter().any(may_run_away), "the plan holds storms");
        assert!(!selected.iter().any(may_run_away), "the selection none");
        // A smaller scale keeps every family.
        let small: Vec<_> = w
            .select(&plan, 0.05)
            .iter()
            .map(|&i| plan[i].clone())
            .collect();
        assert_eq!(family_counts(&small).len(), 18);
        assert!(small.len() < selected.len() / 4);
    }

    #[test]
    fn storm_log_holds_selector_storms_and_storage_families_only() {
        let w = Workload::find("storm-log").expect("workload exists");
        let cluster = w.cluster();
        assert_eq!(
            cluster.etcd_capacity_bytes,
            ClusterConfig::default().etcd_capacity_bytes
        );
        let mut rng = simkit::Rng::new(3);
        let mut plan = Vec::new();
        for sc in w.scenarios() {
            let traffic = record_fields(&cluster, sc, vec![k8s_model::Channel::ApiToEtcd], 3);
            plan.extend(plan_campaign(&traffic, sc, &w.families.faults(), &mut rng));
        }
        let selected: Vec<_> = w
            .select(&plan, 1.0)
            .iter()
            .map(|&i| plan[i].clone())
            .collect();
        let storms = selected
            .iter()
            .filter(|p| breaks_selector_on_the_wire(p))
            .count();
        assert_eq!(storms, 3);
        let counts = family_counts(&selected);
        for family in STORAGE_FAMILIES {
            let n = counts.get(family).copied().unwrap_or(0);
            assert!((1..=5).contains(&n), "{family}: {n}");
        }
        assert!(selected
            .iter()
            .all(|p| breaks_selector_on_the_wire(p) || STORAGE_FAMILIES.contains(&p.fault.name())));
    }

    #[test]
    fn workload_table_matches_the_contract() {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            ["wire-bulk", "families-all-2t", "storm-log", "wide-32"]
        );
        let threads: Vec<_> = WORKLOADS.iter().map(|w| w.threads).collect();
        assert_eq!(threads, [1, 2, 1, 1]);
        assert_eq!(
            Workload::find("storm-log").map(|w| w.storage),
            Some(StorageKind::Log)
        );
        assert_eq!(Families::Wire.faults().len(), 3);
        assert!(Workload::find("nope").is_none());
    }
}
