//! The traced pass: a subsample of the workload's experiments
//! re-composed from the product's public pieces with an in-memory span
//! around each call. Its times never feed an end-to-end metric; its rows
//! must equal the campaign pass's.

use crate::run::Prepared;
use crate::spans::Tracer;
use crate::workloads::WORLD_SEED;
use k8s_cluster::ClusterConfig;
use k8s_model::Channel;
use mutiny_core::campaign::{
    propagation_timeline, run_world_with_fork, scenario_world_seed, CampaignResults, CampaignRow,
    ExperimentConfig,
};
use mutiny_core::classify::{classify_client, classify_orchestrator};
use mutiny_core::{ArmedFault, InjectionPoint};
use std::hint::black_box;

/// Traced-pass sample at nominal size.
pub const TRACED_SAMPLE: usize = 60;

/// Counts read off the finished worlds of the traced experiments.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct WorldCounts {
    /// Experiments traced.
    pub experiments: usize,
    /// Sum of final etcd revisions (one per committed write).
    pub commits: u64,
    /// Largest etcd disk usage seen, bytes.
    pub disk_used_max: u64,
    /// Sum of writes the disk budget rejected.
    pub writes_rejected: u64,
    /// Sum of audit-log lengths (requests the apiserver served).
    pub requests: u64,
    /// Largest watch-cache population seen.
    pub cached_objects_max: usize,
}

/// What the traced pass produced.
pub struct TracedPass {
    /// `(plan index, row)` per traced experiment.
    pub rows: Vec<(usize, CampaignRow)>,
    /// Wall milliseconds of each traced experiment's span, in the order
    /// of the indices given.
    pub ms: Vec<f64>,
    /// Counts over the finished worlds.
    pub counts: WorldCounts,
}

/// Runs the experiments at `indices` of the selected plan under spans:
/// `experiment` ⊃ `core.run_world`, `core.classify`, `core.timeline`,
/// `bench.render`. The composition mirrors
/// `run_experiment_with_baseline_fork` + `run_planned_with_fork`; the
/// world's event dispatch stays inside `run_world_with_fork`.
pub fn traced_pass(prep: &Prepared, indices: &[usize], tracer: &mut Tracer) -> TracedPass {
    let mut out = TracedPass {
        rows: Vec::new(),
        ms: Vec::new(),
        counts: WorldCounts::default(),
    };
    for &i in indices {
        let planned = &prep.plan[i];
        let Some(baseline) = prep.baselines.get(&planned.scenario) else {
            continue;
        };
        let root = tracer.enter("experiment", Some(i));
        let cfg = ExperimentConfig {
            cluster: ClusterConfig {
                seed: scenario_world_seed(WORLD_SEED, planned.scenario),
                ..prep.cluster.clone()
            },
            scenario: planned.scenario,
            injection: Some(ArmedFault::new(planned.fault, planned.spec.clone())),
        };
        let (world, injected) = tracer.span("core.run_world", Some(i), || {
            run_world_with_fork(&cfg, true)
        });
        let (of, (cf, z), activated, user_error) =
            tracer.span("core.classify", Some(i), || {
                let activated = injected
                    .as_ref()
                    .is_some_and(|r| world.api.was_read(&r.key));
                let t0 = world.t0();
                let user_error =
                    world.api.audit().records().iter().any(|r| {
                        r.channel == Channel::UserToApi && r.at >= t0 && r.result.is_err()
                    });
                black_box(world.stats.startup_times(t0));
                (
                    classify_orchestrator(&world.stats, baseline),
                    classify_client(&world.stats, baseline),
                    activated,
                    user_error,
                )
            });
        tracer.span("core.timeline", Some(i), || {
            black_box(propagation_timeline(
                &world,
                injected.as_ref(),
                Some(baseline),
            ));
        });
        let row = CampaignRow {
            scenario: planned.scenario,
            fault: planned.fault,
            path: match &planned.spec.point {
                InjectionPoint::Field { path, .. } => Some(path.clone()),
                _ => None,
            },
            spec: planned.spec.clone(),
            of,
            cf,
            z,
            fired: injected.is_some(),
            activated,
            user_error,
        };
        let one = CampaignResults { rows: vec![row] };
        tracer.span("bench.render", Some(i), || {
            black_box(mutiny_bench::render_rows(&one));
        });
        tracer.exit(root);

        let etcd = world.api.etcd();
        let c = &mut out.counts;
        c.experiments += 1;
        c.commits += etcd.revision();
        c.disk_used_max = c.disk_used_max.max(etcd.disk_used());
        c.writes_rejected += etcd.writes_rejected();
        c.requests += world.api.audit().records().len() as u64;
        c.cached_objects_max = c.cached_objects_max.max(world.api.cached_objects());
        out.ms.push(tracer.spans()[root].duration_ns() as f64 / 1e6);
        out.rows.extend(one.rows.into_iter().map(|row| (i, row)));
    }
    out
}
