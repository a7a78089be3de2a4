//! # mutiny-faults — the pluggable fault engine
//!
//! The paper's campaign injects the §IV single-shot wire triplet
//! (bit-flip / value-set / drop). This crate turns the fault dimension
//! into the same kind of open-ended registry `mutiny_scenarios` gives the
//! workload dimension: a [`FaultDef`] describes one **fault family** —
//! its name, how it plans [`InjectionSpec`]s from recorded wire traffic,
//! and how it arms an [`Interceptor`]-compatible [`FaultActuator`] — and
//! lives in a **registry** next to the eighteen [`registry::BUILTIN`]
//! entries:
//!
//! * the paper's wire triplet, re-homed: **bit-flip**, **value-set**,
//!   **drop**;
//! * temporal faults: **delay** (hold a message for N sim-ms, then
//!   deliver) and **duplicate** (deliver now and echo a copy later);
//! * infrastructure faults: **partition** (drop every message on a
//!   channel during a time window, then heal) and **crash-restart**
//!   (apiserver/kcm/scheduler blackout with a watch re-list on
//!   recovery), the fault classes of the cloud-edge study
//!   (arXiv:2507.16109) and the multi-master BFT analysis
//!   (arXiv:1904.06206);
//! * node-level faults, routed on per-node channel identity
//!   (`kubelet->apiserver@w1`): **kubelet-crash-restart** (a single-node
//!   kubelet blackout — heartbeats lapse, the node-lifecycle controller
//!   evicts, the scheduler re-places, and the kubelet re-lists on
//!   restart) and **node-partition** (a windowed drop-all on one node's
//!   wire, healed by the kubelet's status replay), the per-node fault
//!   granularity of the cloud-edge study (arXiv:2507.16109) and the
//!   availability-manager analysis (arXiv:1901.04946);
//! * configuration defects, actuated at the apiserver's **admission
//!   hook** rather than on the wire — **cfg-resources**,
//!   **cfg-selector**, **cfg-probe**, **cfg-grace**, **cfg-replicas** —
//!   valid, decodable spec mutations probing controller logic, the
//!   misconfiguration dimension of the config-defects study
//!   (arXiv:2512.05062);
//! * storage-engine faults, actuated on the etcd store itself through
//!   out-of-band [`WorldAction`]s rather than on any wire —
//!   **etcd-disk-full** (windowed budget exhaustion),
//!   **etcd-compaction-pressure** (forced compactions; lagging watch
//!   cursors observe `Compacted` and re-list), **etcd-corrupt-at-rest**
//!   (one replica's stored bytes replaced, §V-C1, quorum-vote
//!   observable) and **etcd-inconsistent-view** (one replica's stale
//!   snapshot served to every reader while writes advance, per the
//!   multi-master BFT analysis arXiv:1904.06206).
//!
//! Campaign plans, result rows, the bench TSV schema and Tables III–V
//! all key on the fault-family *name*, so [`registry::register`] adds a
//! third-party family with **zero `mutiny_core` changes** — exactly like
//! scenarios. Everything stays deterministic: planning forks a labelled
//! RNG per (scenario, family), and actuators are pure functions of their
//! spec and the message stream.
//!
//! ```
//! use mutiny_faults::{registry, BIT_FLIP, DELAY, PARTITION};
//!
//! assert_eq!(BIT_FLIP.name(), "bit-flip");
//! assert_eq!(registry::find("partition"), Some(PARTITION));
//! assert!(registry::all().len() >= 7);
//! assert_eq!(DELAY.fault_kind(), mutiny_faults::injector::FaultKind::Delay);
//! ```

pub mod builtin;
pub mod config;
pub mod injector;
pub mod node;
pub mod recorder;
pub mod storage;

pub use builtin::{
    BIT_FLIP, CRASH_RESTART, DELAY, DROP, DUPLICATE, PARTITION, VALUE_SET, WIRE_BUILTIN,
};
pub use config::{
    ConfigDefect, CFG_GRACE, CFG_PROBE, CFG_REPLICAS, CFG_RESOURCES, CFG_SELECTOR, CONFIG_BUILTIN,
};
pub use injector::{
    FaultKind, FieldMutation, InjectionPoint, InjectionRecord, InjectionSpec, Mutiny, StorageOp,
};
pub use node::{KUBELET_CRASH_RESTART, NODE_PARTITION};
pub use storage::{
    StorageActuator, ETCD_COMPACTION_PRESSURE, ETCD_CORRUPT_AT_REST, ETCD_DISK_FULL,
    ETCD_INCONSISTENT_VIEW, STORAGE_BUILTIN,
};
pub use recorder::{FieldRecorder, RecordedField, RecordedTraffic};

use k8s_model::{AdmitCtx, Interceptor, MsgCtx, NodeName, Object, WireVerdict};
use simkit::Rng;
use std::cell::RefCell;
use std::rc::Rc;

/// A fault family definition: everything the campaign machinery needs to
/// plan and actuate one class of faults.
///
/// Implementations must be deterministic — [`FaultDef::plan`] receives a
/// family-labelled forked RNG and must always produce the same specs for
/// the same recorded traffic.
pub trait FaultDef: Send + Sync {
    /// Short stable name, used in the result tables, the campaign TSV
    /// cache, and `MUTINY_FAULTS` filters. Must be unique across the
    /// registry and must not contain whitespace, tabs, or commas.
    fn name(&self) -> &'static str;

    /// Paper-style table label (e.g. `Bit-flip`).
    fn label(&self) -> &'static str {
        self.name()
    }

    /// The coarse fault-model bucket this family reports under.
    fn fault_kind(&self) -> FaultKind;

    /// Expected-classification hint: what a campaign over this family
    /// typically produces (documentation for table readers, not an
    /// assertion).
    fn expectation(&self) -> &'static str {
        ""
    }

    /// Plans this family's injection specs for one scenario, from the
    /// [`RecordedTraffic`] of a nominal run of that scenario: the field
    /// catalogue, the class-aggregated (channel, kind, message-count)
    /// summary, and the per-node wire catalogue node-level families pick
    /// their victims from.
    fn plan(&self, traffic: &RecordedTraffic, rng: &mut Rng) -> Vec<InjectionSpec>;

    /// Arms the actuator for one planned spec; `from` is the workload
    /// start time (occurrence counting and fault windows anchor there).
    /// The default arms [`Mutiny`], which actuates every built-in point
    /// type; families with bespoke wire behavior return their own
    /// [`FaultActuator`].
    fn arm(&self, spec: &InjectionSpec, from: u64) -> Box<dyn FaultActuator> {
        Box::new(Mutiny::armed_from(spec.clone(), from))
    }
}

/// An action a fault asks the experiment driver to apply to the world —
/// the hook that lets infrastructure faults act beyond the wire without
/// re-entering the interceptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorldAction {
    /// Restart the apiserver: the watch cache is dropped and rebuilt from
    /// the store with quorum reads (the re-list on crash recovery).
    RestartApiserver,
    /// A node blackout opened: the named node's kubelet goes dark
    /// (heartbeats and status resyncs stop; its wire is dropped by the
    /// interceptor for as long as the window is open).
    SilenceKubelet(NodeName),
    /// A node blackout healed: the named node's kubelet restarts with a
    /// node-local re-list and resumes heartbeating (containers survived).
    RestartKubelet(NodeName),
    /// Clamp etcd's disk budget to its current usage: every growing
    /// write is rejected until the budget is restored (the disk-full
    /// window opening).
    EtcdClampDiskBudget,
    /// Restore etcd's original disk budget (the disk-full window
    /// healing). Rejected-write counters stay latched.
    EtcdRestoreDiskBudget,
    /// Force an etcd store + watch-log compaction now: watch cursors
    /// that lag behind the head observe `Compacted` and must re-list.
    EtcdForceCompaction,
    /// Replace one stored value's bytes on one replica's disk (at-rest
    /// corruption, §V-C1). `replica` and `nth` are applied modulo the
    /// replica and object counts, so a planned spec fits any store.
    EtcdCorruptReplica {
        /// Victim replica index (modulo the replica count).
        replica: u32,
        /// Victim key index in stored-key order (modulo the count).
        nth: u32,
    },
    /// Pin every read to the named replica's current snapshot while
    /// writes keep advancing the revision (inconsistent view opening).
    EtcdBeginInconsistentView {
        /// Replica whose snapshot is served (modulo the replica count).
        replica: u32,
    },
    /// Drop the pinned snapshot and serve live quorum reads again
    /// (inconsistent view healing).
    EtcdEndInconsistentView,
}

/// A live, armed fault: the wire interceptor plus the out-of-band hooks
/// the experiment driver polls between time slices.
pub trait FaultActuator: Interceptor {
    /// The injection record, once the fault fired.
    ///
    /// Set-once rule: an actuator writes its record exactly once (every
    /// built-in one guards the write behind `record.is_none()`), so the
    /// key read in the slice where this first returns `Some` is the key
    /// the finished run reports. The experiment driver relies on it: it
    /// arms the apiserver's one-key read tracking with that first key
    /// and asks `was_read` about the final record's key.
    fn record(&self) -> Option<&InjectionRecord>;

    /// Called by the experiment driver after each time slice; returned
    /// actions are applied to the world (outside any interceptor borrow,
    /// so actuators never re-enter the apiserver).
    fn poll_actions(&mut self, _now: u64) -> Vec<WorldAction> {
        Vec::new()
    }
}

/// Adapts a shared [`FaultActuator`] handle to the apiserver's
/// [`Interceptor`] seam, so the experiment driver can keep polling the
/// actuator while the apiserver owns the interceptor slot.
pub struct SharedActuator(pub Rc<RefCell<Box<dyn FaultActuator>>>);

impl Interceptor for SharedActuator {
    fn on_message(&mut self, ctx: &MsgCtx<'_>) -> WireVerdict {
        self.0.borrow_mut().on_message(ctx)
    }

    fn on_admission(&mut self, ctx: &AdmitCtx<'_>, obj: &mut Object) -> bool {
        self.0.borrow_mut().on_admission(ctx, obj)
    }
}

/// A planned (family, spec) pair — the unit an experiment injects.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmedFault {
    /// The fault family.
    pub fault: Fault,
    /// The concrete spec the family planned.
    pub spec: InjectionSpec,
}

impl ArmedFault {
    /// Pairs a spec with an explicit family.
    pub fn new(fault: Fault, spec: InjectionSpec) -> ArmedFault {
        ArmedFault { fault, spec }
    }

    /// Pairs a spec with the built-in family its point shape implies
    /// (compatibility path for call sites that predate the registry).
    pub fn implied(spec: InjectionSpec) -> ArmedFault {
        ArmedFault {
            fault: Fault::implied_by(&spec),
            spec,
        }
    }

    /// Arms the actuator for this fault.
    pub fn arm(&self, from: u64) -> Box<dyn FaultActuator> {
        self.fault.arm(&self.spec, from)
    }
}

/// A cheap copyable handle to a registered fault family.
///
/// Equality, ordering, and hashing are by [`Fault::name`], so handles
/// work as `HashMap` keys and sort keys (table rows iterate registry
/// order).
#[derive(Clone, Copy)]
pub struct Fault(&'static dyn FaultDef);

impl Fault {
    /// Wraps a static definition. Exposed so `register` and tests can
    /// build handles; campaign code normally gets handles from the
    /// registry.
    pub const fn new(def: &'static dyn FaultDef) -> Fault {
        Fault(def)
    }

    /// Short stable name (see [`FaultDef::name`]).
    pub fn name(self) -> &'static str {
        self.0.name()
    }

    /// Paper-style table label.
    pub fn label(self) -> &'static str {
        self.0.label()
    }

    /// Coarse fault-model bucket.
    pub fn fault_kind(self) -> FaultKind {
        self.0.fault_kind()
    }

    /// Expected-classification hint.
    pub fn expectation(self) -> &'static str {
        self.0.expectation()
    }

    /// Plans this family's specs for one scenario's recorded traffic.
    pub fn plan(self, traffic: &RecordedTraffic, rng: &mut Rng) -> Vec<InjectionSpec> {
        self.0.plan(traffic, rng)
    }

    /// Arms the actuator for one spec (see [`FaultDef::arm`]).
    pub fn arm(self, spec: &InjectionSpec, from: u64) -> Box<dyn FaultActuator> {
        self.0.arm(spec, from)
    }

    /// The built-in family a spec's point shape implies — the
    /// compatibility mapping for specs built by hand (ablations, tests)
    /// rather than by a family's own planner.
    pub fn implied_by(spec: &InjectionSpec) -> Fault {
        let node_scoped = spec.channel.node().is_some();
        match spec.fault_kind() {
            FaultKind::BitFlip => BIT_FLIP,
            FaultKind::ValueSet => VALUE_SET,
            FaultKind::Drop => DROP,
            FaultKind::Delay => DELAY,
            FaultKind::Duplicate => DUPLICATE,
            FaultKind::Partition if node_scoped => NODE_PARTITION,
            FaultKind::Partition => PARTITION,
            FaultKind::Crash if node_scoped => KUBELET_CRASH_RESTART,
            FaultKind::Crash => CRASH_RESTART,
            FaultKind::Config => match &spec.point {
                InjectionPoint::Config { defect, .. } => {
                    config::family_for_defect(defect).unwrap_or(CFG_RESOURCES)
                }
                _ => CFG_RESOURCES,
            },
            FaultKind::Storage => match &spec.point {
                InjectionPoint::Storage { op, .. } => storage::family_for_op(*op),
                _ => ETCD_DISK_FULL,
            },
        }
    }
}

impl PartialEq for Fault {
    fn eq(&self, other: &Fault) -> bool {
        self.name() == other.name()
    }
}

impl Eq for Fault {}

impl PartialOrd for Fault {
    fn partial_cmp(&self, other: &Fault) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Fault {
    fn cmp(&self, other: &Fault) -> std::cmp::Ordering {
        registry::order_key(*self)
            .cmp(&registry::order_key(*other))
            .then_with(|| self.name().cmp(other.name()))
    }
}

impl std::hash::Hash for Fault {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.name().hash(state);
    }
}

impl std::fmt::Debug for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Fault").field(&self.name()).finish()
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The fault registry: the built-ins plus anything added at runtime.
pub mod registry {
    use super::{builtin, config, node, storage, Fault, FaultDef};
    use std::sync::{OnceLock, RwLock};

    /// The built-in fault families, in table order: the paper's wire
    /// triplet first, then the temporal and infrastructure additions,
    /// then the node-level families, then the config-defect families,
    /// then the storage-engine families.
    pub static BUILTIN: [Fault; 18] = [
        builtin::BIT_FLIP,
        builtin::VALUE_SET,
        builtin::DROP,
        builtin::DELAY,
        builtin::DUPLICATE,
        builtin::PARTITION,
        builtin::CRASH_RESTART,
        node::KUBELET_CRASH_RESTART,
        node::NODE_PARTITION,
        config::CFG_RESOURCES,
        config::CFG_SELECTOR,
        config::CFG_PROBE,
        config::CFG_GRACE,
        config::CFG_REPLICAS,
        storage::ETCD_DISK_FULL,
        storage::ETCD_COMPACTION_PRESSURE,
        storage::ETCD_CORRUPT_AT_REST,
        storage::ETCD_INCONSISTENT_VIEW,
    ];

    fn extras() -> &'static RwLock<Vec<Fault>> {
        static EXTRAS: OnceLock<RwLock<Vec<Fault>>> = OnceLock::new();
        EXTRAS.get_or_init(|| RwLock::new(Vec::new()))
    }

    /// Every registered family, built-ins first, then third-party
    /// registrations in registration order.
    pub fn all() -> Vec<Fault> {
        let mut out: Vec<Fault> = BUILTIN.to_vec();
        out.extend(
            extras()
                .read()
                .expect("fault registry poisoned")
                .iter()
                .copied(),
        );
        out
    }

    /// Looks a family up by name.
    pub fn find(name: &str) -> Option<Fault> {
        all().into_iter().find(|f| f.name() == name)
    }

    /// Registers a third-party fault family and returns its handle. The
    /// definition is leaked (registries live for the program); names must
    /// be unique, non-empty, and free of whitespace/commas (they key the
    /// TSV cache and env filters).
    ///
    /// # Errors
    ///
    /// Returns an error naming the conflict when the name is invalid or
    /// already taken.
    pub fn register(def: Box<dyn FaultDef>) -> Result<Fault, String> {
        let name = def.name();
        if name.is_empty() || name.contains(|c: char| c.is_whitespace() || c == ',') {
            return Err(format!("invalid fault name {name:?}"));
        }
        let mut extras = extras().write().expect("fault registry poisoned");
        if BUILTIN
            .iter()
            .chain(extras.iter())
            .any(|f| f.name() == name)
        {
            return Err(format!("fault name {name:?} already registered"));
        }
        let fault = Fault::new(Box::leak(def));
        extras.push(fault);
        Ok(fault)
    }

    /// Stable sort key: position in the registry (built-ins keep table
    /// order), unknown handles after everything else by name.
    pub(super) fn order_key(f: Fault) -> usize {
        BUILTIN
            .iter()
            .position(|b| b.name() == f.name())
            .or_else(|| {
                extras()
                    .read()
                    .ok()?
                    .iter()
                    .position(|e| e.name() == f.name())
                    .map(|i| BUILTIN.len() + i)
            })
            .unwrap_or(usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use k8s_model::{Channel, Kind};
    use std::collections::HashSet;

    #[test]
    fn registered_names_are_unique_and_stable() {
        let all = registry::all();
        assert!(all.len() >= 7, "registry lost built-ins: {all:?}");
        let names: Vec<&str> = all.iter().map(|f| f.name()).collect();
        let unique: HashSet<&str> = names.iter().copied().collect();
        assert_eq!(
            unique.len(),
            names.len(),
            "duplicate fault names: {names:?}"
        );
        // The TSV cache, MUTINY_FAULTS filters, and the tables key on
        // these exact strings.
        for expect in [
            "bit-flip",
            "value-set",
            "drop",
            "delay",
            "duplicate",
            "partition",
            "crash-restart",
            "kubelet-crash-restart",
            "node-partition",
            "cfg-resources",
            "cfg-selector",
            "cfg-probe",
            "cfg-grace",
            "cfg-replicas",
            "etcd-disk-full",
            "etcd-compaction-pressure",
            "etcd-corrupt-at-rest",
            "etcd-inconsistent-view",
        ] {
            assert!(names.contains(&expect), "{expect} missing from {names:?}");
            assert_eq!(registry::find(expect).map(|f| f.name()), Some(expect));
        }
        assert_eq!(registry::find("no-such-fault"), None);
    }

    #[test]
    fn registry_rejects_duplicates_and_bad_names() {
        struct Dup;
        impl FaultDef for Dup {
            fn name(&self) -> &'static str {
                "drop"
            }
            fn fault_kind(&self) -> FaultKind {
                FaultKind::Drop
            }
            fn plan(&self, _traffic: &RecordedTraffic, _rng: &mut Rng) -> Vec<InjectionSpec> {
                Vec::new()
            }
        }
        assert!(registry::register(Box::new(Dup)).is_err());

        struct Bad;
        impl FaultDef for Bad {
            fn name(&self) -> &'static str {
                "has space"
            }
            fn fault_kind(&self) -> FaultKind {
                FaultKind::Drop
            }
            fn plan(&self, _traffic: &RecordedTraffic, _rng: &mut Rng) -> Vec<InjectionSpec> {
                Vec::new()
            }
        }
        assert!(registry::register(Box::new(Bad)).is_err());
    }

    #[test]
    fn handles_compare_and_hash_by_name() {
        use std::collections::HashMap;
        assert_eq!(BIT_FLIP, registry::find("bit-flip").unwrap());
        assert_ne!(BIT_FLIP, DROP);
        let mut m: HashMap<Fault, u32> = HashMap::new();
        m.insert(BIT_FLIP, 1);
        m.insert(CRASH_RESTART, 2);
        assert_eq!(m.get(&registry::find("bit-flip").unwrap()), Some(&1));
        // Registry order is table order.
        let mut v = vec![PARTITION, BIT_FLIP, DELAY];
        v.sort();
        assert_eq!(v, vec![BIT_FLIP, DELAY, PARTITION]);
        assert_eq!(VALUE_SET.to_string(), "value-set");
        assert_eq!(VALUE_SET.label(), "Value set");
    }

    #[test]
    fn implied_family_matches_point_shape() {
        use k8s_model::ChannelId;
        let spec = |point| InjectionSpec {
            channel: Channel::ApiToEtcd.into(),
            kind: Kind::Pod,
            point,
            occurrence: 1,
        };
        // Node-scoped window specs imply the node-level families.
        let node_spec = |point| InjectionSpec {
            channel: ChannelId::node_scoped(Channel::KubeletToApi, "w1"),
            kind: Kind::Node,
            point,
            occurrence: 1,
        };
        assert_eq!(
            Fault::implied_by(&node_spec(InjectionPoint::Crash {
                from_off: 0,
                dur_ms: 1
            })),
            KUBELET_CRASH_RESTART
        );
        assert_eq!(
            Fault::implied_by(&node_spec(InjectionPoint::Partition {
                from_off: 0,
                dur_ms: 1
            })),
            NODE_PARTITION
        );
        assert_eq!(Fault::implied_by(&spec(InjectionPoint::Drop)), DROP);
        assert_eq!(
            Fault::implied_by(&spec(InjectionPoint::Delay { hold_ms: 10 })),
            DELAY
        );
        assert_eq!(
            Fault::implied_by(&spec(InjectionPoint::Crash {
                from_off: 0,
                dur_ms: 1
            })),
            CRASH_RESTART
        );
        assert_eq!(
            Fault::implied_by(&spec(InjectionPoint::Field {
                path: "spec.replicas".into(),
                mutation: FieldMutation::Set(protowire::reflect::Value::Int(0)),
            })),
            VALUE_SET
        );
    }

    #[test]
    fn third_party_family_plans_and_arms_with_default_actuator() {
        // A third-party family composed from the built-in point
        // vocabulary: a "slow-wire" fault that delays the second
        // occurrence of every kind by a fixed 7 s.
        struct SlowWire;
        impl FaultDef for SlowWire {
            fn name(&self) -> &'static str {
                "slow-wire-test"
            }
            fn fault_kind(&self) -> FaultKind {
                FaultKind::Delay
            }
            fn plan(&self, traffic: &RecordedTraffic, _rng: &mut Rng) -> Vec<InjectionSpec> {
                traffic
                    .kinds
                    .iter()
                    .map(|(channel, kind, _)| InjectionSpec {
                        channel: *channel,
                        kind: *kind,
                        point: InjectionPoint::Delay { hold_ms: 7_000 },
                        occurrence: 2,
                    })
                    .collect()
            }
        }
        let fault = registry::register(Box::new(SlowWire)).expect("register");
        assert_eq!(registry::find("slow-wire-test"), Some(fault));
        let traffic = RecordedTraffic {
            kinds: vec![(Channel::ApiToEtcd.into(), Kind::Pod, 5u64)],
            ..RecordedTraffic::default()
        };
        let mut rng = Rng::new(1);
        let specs = fault.plan(&traffic, &mut rng);
        assert_eq!(specs.len(), 1);
        let mut actuator = fault.arm(&specs[0], 0);
        assert!(actuator.record().is_none());
        assert!(actuator.poll_actions(10).is_empty());
    }
}
