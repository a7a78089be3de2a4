//! One workload run: set-up, the untraced timing passes that feed the
//! end-to-end metrics, and the correctness checks.
//!
//! Only the product's public campaign surface is called —
//! `record_fields`, `plan_campaign`, `build_baseline_with_threads` and
//! `run_campaign_range_with_fork` — so the numbers are what a user of
//! `mutiny_bench::campaign()` waits for.

use crate::stats;
use crate::workloads::{Workload, BASELINE_RUNS, WORLD_SEED};
use k8s_cluster::ClusterConfig;
use k8s_model::{Channel, NoopInterceptor};
use mutiny_core::campaign::{
    plan_campaign, record_fields, run_campaign_range_with_fork, scenario_world_seed,
    CampaignResults, CampaignRow, PlannedExperiment,
};
use mutiny_core::golden::{build_baseline_with_threads, Baseline};
use mutiny_scenarios::Scenario;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

/// The recording seed is decorrelated from the world seed the same way
/// `mutiny_bench::plan` does it.
const RECORD_SEED_MIX: u64 = 0xF1E1D;

/// Everything set-up produces.
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// The workload seed: seeds the planner.
    pub seed: u64,
    /// Cluster configuration of every experiment and baseline.
    pub cluster: ClusterConfig,
    /// The selected experiments, in plan order.
    pub plan: Vec<PlannedExperiment>,
    /// Size of the full plan the selection was taken from.
    pub planned_total: usize,
    /// One golden baseline per scenario.
    pub baselines: HashMap<Scenario, Baseline>,
    /// Wall seconds spent recording traffic.
    pub record_s: f64,
    /// Wall seconds spent planning.
    pub plan_s: f64,
    /// Wall seconds of each step, in order: recording and planning per
    /// scenario, the selection, one baseline per scenario.
    pub steps_s: Vec<f64>,
}

/// Set-up: record traffic per scenario at the fixed world seed, plan it
/// with a planner seeded by the workload seed, select the workload's
/// experiments, build one baseline per scenario.
pub fn setup(workload: Workload, seed: u64, scale: f64) -> Prepared {
    let cluster = workload.cluster();
    let scenarios = workload.scenarios();
    let faults = workload.families.faults();
    let mut steps_s = Vec::new();
    let mut step = |started: Instant| {
        let s = started.elapsed().as_secs_f64();
        steps_s.push(s);
        s
    };
    let (mut record_s, mut plan_s) = (0.0, 0.0);
    let mut full = Vec::new();
    let mut rng = simkit::Rng::new(seed);
    for &sc in &scenarios {
        let t = Instant::now();
        let traffic = record_fields(
            &cluster,
            sc,
            vec![Channel::ApiToEtcd],
            WORLD_SEED ^ RECORD_SEED_MIX,
        );
        record_s += step(t);
        let t = Instant::now();
        full.extend(plan_campaign(&traffic, sc, &faults, &mut rng));
        plan_s += step(t);
    }
    let t = Instant::now();
    let picked = workload.select(&full, scale);
    let plan: Vec<PlannedExperiment> = picked.iter().map(|&i| full[i].clone()).collect();
    step(t);
    let baselines = scenarios
        .iter()
        .map(|&sc| {
            let t = Instant::now();
            let baseline = build_baseline_with_threads(&cluster, sc, BASELINE_RUNS, WORLD_SEED, 1);
            step(t);
            (sc, baseline)
        })
        .collect();
    Prepared {
        workload,
        seed,
        cluster,
        planned_total: full.len(),
        plan,
        baselines,
        record_s,
        plan_s,
        steps_s,
    }
}

/// Seconds an undisturbed set-up takes, from the step times of repeated
/// set-ups of one workload and seed: every step's fastest timing, summed.
/// The same reasoning as for experiments (see [`PASSES`]) — the steps are
/// deterministic and mostly 10 to 250 ms long, so a neighbour rarely
/// slows the same step on every repeat.
pub fn undisturbed_setup_s(repeats: &[Vec<f64>]) -> f64 {
    let steps = repeats.iter().map(Vec::len).min().unwrap_or(0);
    (0..steps)
        .map(|i| {
            repeats
                .iter()
                .map(|steps_s| steps_s[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Passes per run. Every experiment's work is deterministic and
/// interference from other tenants of the box only ever adds time, so an
/// experiment's fastest timing over the passes is its least disturbed
/// one. On the box this was sized on, a second tenant slows everything
/// 1.7x for anything from a few milliseconds to tens of seconds, up to
/// half of the time; five passes left 3% of timings disturbed where
/// three left 12%, and four is what fits a run at the product's default
/// disk budget, where one runaway-replication experiment takes 0.5 to 2 s.
pub const PASSES: usize = 4;

/// What the serial passes measured: [`PASSES`] one-thread campaigns over
/// the selected plan, each run as one-row ranges timed from outside. At
/// one thread the production entry point runs a range inline on the
/// calling thread, row after row, so a pass does what one call over the
/// whole plan does. The passes run on the main thread, as a one-thread
/// campaign does: on a spawned thread the same experiments take 9 to
/// 12% longer here (7.9 against 7.2 ms, 58.8 against 52.7 ms on 32
/// workers), which is what the workers of a threaded pass pay.
pub struct SerialPasses {
    /// Row of each experiment in the first pass (`None`: none came back).
    pub rows: Vec<Option<CampaignRow>>,
    /// Fastest wall milliseconds per experiment.
    pub ms: Vec<f64>,
    /// Wall seconds of each whole pass (the sum of its timings).
    pub pass_s: Vec<f64>,
    /// True when every later pass returned the first pass's rows.
    pub repeatable: bool,
    /// `(snapshots built, forks served)` during the first pass.
    pub fork_stats: (u64, u64),
    /// Decode-cache `(hits, misses)` during the first pass.
    pub decode_cache: (u64, u64),
}

impl SerialPasses {
    /// Ascending copy of the per-experiment timings.
    pub fn sorted_ms(&self) -> Vec<f64> {
        stats::sorted(self.ms.clone())
    }

    /// Seconds an undisturbed one-thread campaign over the selected plan
    /// takes once its fork snapshots exist: the sum of every experiment's
    /// fastest timing. Only the first pass builds the snapshots, one per
    /// scenario — 6 builds of about one experiment's cost each, per
    /// process, in a campaign of thousands.
    pub fn campaign_s(&self) -> f64 {
        self.ms.iter().sum::<f64>() / 1e3
    }

    /// The first pass's rows as campaign results (experiments that
    /// returned no row are absent).
    pub fn results(&self) -> CampaignResults {
        CampaignResults {
            rows: self.rows.iter().flatten().cloned().collect(),
        }
    }

    /// Share of the campaign's time spent in experiments slower than ten
    /// medians — whether throughput is set by the body or the tail.
    pub fn tail_time_share(&self) -> f64 {
        let cut = 10.0 * stats::percentile(&self.sorted_ms(), 0.5);
        let total: f64 = self.ms.iter().sum();
        if total == 0.0 {
            return 0.0;
        }
        (self.ms.iter().filter(|&&ms| ms > cut).sum::<f64>() + 0.0) / total
    }

    /// The `n` slowest experiments, slowest first, as `(plan index, ms)`.
    pub fn slowest(&self, n: usize) -> Vec<(usize, f64)> {
        let mut all: Vec<(usize, f64)> = self.ms.iter().copied().enumerate().collect();
        all.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite timings"));
        all.truncate(n);
        all
    }
}

/// Runs plan index `i` alone through the production entry point.
pub fn timed_experiment(prep: &Prepared, i: usize) -> (Option<CampaignRow>, f64) {
    let t = Instant::now();
    let mut one = run_campaign_range_with_fork(
        &prep.cluster,
        &prep.plan,
        &prep.baselines,
        WORLD_SEED,
        i..i + 1,
        1,
        true,
    );
    let elapsed_ms = t.elapsed().as_secs_f64() * 1e3;
    (one.rows.pop(), elapsed_ms)
}

/// What the threaded passes measured (multi-thread workloads only).
pub struct ThreadedPasses {
    /// Rows of the first pass, in plan order.
    pub results: CampaignResults,
    /// Wall seconds of each pass.
    pub walls_s: Vec<f64>,
    /// True when every later pass returned the first pass's rows.
    pub repeatable: bool,
    /// `(snapshots built, forks served)` during the first pass.
    pub fork_stats: (u64, u64),
    /// Decode-cache `(hits, misses)` during the first pass.
    pub decode_cache: (u64, u64),
}

/// One threaded pass: the selected plan as one range through the
/// production entry point on `threads` workers — one checkpoint chunk
/// of `mutiny_bench::campaign()` (250 rows by default; the selected plan
/// is about that long). The workers are new threads on every call, so
/// each builds its own snapshot per scenario it meets.
fn one_threaded_pass(prep: &Prepared, threads: usize) -> (CampaignResults, f64) {
    let started = Instant::now();
    let results = run_campaign_range_with_fork(
        &prep.cluster,
        &prep.plan,
        &prep.baselines,
        WORLD_SEED,
        0..prep.plan.len(),
        threads,
        true,
    );
    (results, started.elapsed().as_secs_f64())
}

/// Threaded passes per run. A threaded pass cannot be taken apart per
/// experiment from outside, so what filters a neighbour out is the
/// fastest whole pass, and that needs more passes than the serial side's
/// per-experiment minima do. (Comparing each threaded pass with a serial
/// pass right before it did worse: the box's disturbances are shorter
/// than a pass, and the ratios within one run ranged from 1.2 to 2.2.)
const THREADED_PASSES: usize = 8;

impl ThreadedPasses {
    /// Wall seconds of the fastest pass: the least disturbed campaign
    /// over the selected plan on the workload's threads.
    pub fn campaign_s(&self) -> f64 {
        self.walls_s.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// The serial passes. They come before anything in the run spawns a
/// thread, as in a one-thread campaign process: once a process has had a
/// second thread — even one that did nothing and was joined — its main
/// thread runs the same experiments 5 to 10% slower here (`wire-bulk`
/// p50 7.03 against 7.72 ms; `trace.overhead_share` 0.005 against 0.05 on
/// `families-all-2t` when its traced pass came after the threaded ones).
pub fn serial_passes(prep: &Prepared) -> SerialPasses {
    let n = prep.plan.len();
    let mut serial = SerialPasses {
        rows: Vec::new(),
        ms: vec![f64::INFINITY; n],
        pass_s: Vec::new(),
        repeatable: true,
        fork_stats: (0, 0),
        decode_cache: (0, 0),
    };
    for pass in 0..PASSES {
        k8s_apiserver::reset_decode_cache_stats();
        mutiny_core::campaign::reset_fork_stats();
        let (rows, ms): (Vec<_>, Vec<_>) = (0..n).map(|i| timed_experiment(prep, i)).unzip();
        serial.pass_s.push(ms.iter().sum::<f64>() / 1e3);
        for (best, elapsed_ms) in serial.ms.iter_mut().zip(&ms) {
            *best = best.min(*elapsed_ms);
        }
        if pass == 0 {
            serial.fork_stats = mutiny_core::campaign::fork_stats();
            serial.decode_cache = k8s_apiserver::decode_cache_stats();
            serial.rows = rows;
        } else {
            serial.repeatable &= rows.iter().zip(&serial.rows).all(|pair| match pair {
                (Some(a), Some(b)) => same_row(a, b),
                (None, None) => true,
                _ => false,
            });
        }
    }
    serial
}

/// [`THREADED_PASSES`] passes over the selected plan on `threads` workers.
pub fn threaded_passes(prep: &Prepared, threads: usize) -> ThreadedPasses {
    k8s_apiserver::reset_decode_cache_stats();
    mutiny_core::campaign::reset_fork_stats();
    let (results, wall) = one_threaded_pass(prep, threads);
    let mut threaded = ThreadedPasses {
        results,
        walls_s: vec![wall],
        repeatable: true,
        fork_stats: mutiny_core::campaign::fork_stats(),
        decode_cache: k8s_apiserver::decode_cache_stats(),
    };
    for _ in 1..THREADED_PASSES {
        let (results, wall) = one_threaded_pass(prep, threads);
        threaded.walls_s.push(wall);
        threaded.repeatable &= results.len() == threaded.results.len()
            && results
                .rows
                .iter()
                .zip(&threaded.results.rows)
                .all(|(a, b)| same_row(a, b));
    }
    threaded
}

/// Peak resident set of this process in MiB (`VmHWM`); `0.0` where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a of a byte string — the digest of a workload's rendered rows.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// True when two rows are the same result; a NaN z-score equals itself.
pub fn same_row(a: &CampaignRow, b: &CampaignRow) -> bool {
    a == b
        || (a.z.is_nan()
            && b.z.is_nan()
            && CampaignRow {
                z: 0.0,
                ..a.clone()
            } == CampaignRow {
                z: 0.0,
                ..b.clone()
            })
}

/// Checks on the serial passes: one row per planned experiment, in plan
/// order, the same on every pass, surviving the TSV round trip.
pub fn check_serial(prep: &Prepared, passes: &SerialPasses, problems: &mut Vec<String>) {
    let missing = passes.rows.iter().filter(|r| r.is_none()).count();
    if passes.rows.len() != prep.plan.len() || missing > 0 {
        problems.push(format!(
            "{} of {} experiments returned no row",
            missing + prep.plan.len().saturating_sub(passes.rows.len()),
            prep.plan.len()
        ));
    }
    for (i, (row, planned)) in passes.rows.iter().zip(&prep.plan).enumerate() {
        let matches = row.as_ref().is_none_or(|row| {
            row.scenario == planned.scenario
                && row.fault == planned.fault
                && row.spec == planned.spec
        });
        if !matches {
            problems.push(format!(
                "row {i} does not carry the planned {}/{} experiment",
                planned.scenario, planned.fault
            ));
            break;
        }
    }
    if !passes.repeatable {
        problems.push("a repeated serial pass returned different rows".to_owned());
    }
    if !mutiny_bench::roundtrip_check(&passes.results()) {
        problems.push("campaign rows do not survive the TSV round trip".to_owned());
    }
}

/// Checks that `rows` (by plan index) equal the serial passes' rows at
/// the same indices; `what` names the pass being compared.
pub fn check_same_rows<'a>(
    what: &str,
    serial: &SerialPasses,
    rows: impl IntoIterator<Item = (usize, &'a CampaignRow)>,
    problems: &mut Vec<String>,
) {
    for (i, row) in rows {
        let same = serial
            .rows
            .get(i)
            .and_then(Option::as_ref)
            .is_some_and(|b| same_row(row, b));
        if !same {
            problems.push(format!(
                "{what} row of experiment {i} differs from the serial pass"
            ));
            return;
        }
    }
}

/// Runs each of the workload's scenarios fault-free at the campaign's
/// world seed and applies the scenario's own golden expectations; the
/// disk budget must not touch a fault-free run. Returns the name of the
/// storage engine the worlds actually ran on.
pub fn check_golden_runs(prep: &Prepared, problems: &mut Vec<String>) -> &'static str {
    let mut engine = "none";
    for sc in prep.workload.scenarios() {
        let cfg = ClusterConfig {
            seed: scenario_world_seed(WORLD_SEED, sc),
            ..prep.cluster.clone()
        };
        let mut world = sc.build_world(&cfg, Rc::new(RefCell::new(NoopInterceptor)));
        sc.schedule(&mut world);
        world.run_to_horizon();
        let stats = world.stats.clone();
        if let Err(why) = sc.check_golden(&stats, &mut world) {
            problems.push(format!("golden run of {sc} fails its expectations: {why}"));
        }
        let etcd = world.api.etcd();
        engine = etcd.backend_name();
        if etcd.writes_rejected() > 0 {
            problems.push(format!(
                "golden run of {sc} had {} writes rejected by the {} KiB disk budget",
                etcd.writes_rejected(),
                prep.cluster.etcd_capacity_bytes / 1024
            ));
        }
    }
    engine
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn undisturbed_setup_sums_each_steps_fastest_timing() {
        let repeats = [
            vec![0.2, 0.5, 0.1],
            vec![0.3, 0.4, 0.1],
            vec![0.2, 0.9, 0.4],
        ];
        assert!((undisturbed_setup_s(&repeats) - 0.7).abs() < 1e-12);
        assert!((undisturbed_setup_s(&repeats[..1]) - 0.8).abs() < 1e-12);
        assert_eq!(undisturbed_setup_s(&[]), 0.0);
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 1.0);
    }

    #[test]
    fn tail_share_slow_list_and_campaign_time_come_from_the_fastest_timings() {
        let passes = SerialPasses {
            rows: vec![None; 5],
            ms: vec![1.0, 1.0, 50.0, 1.0, 2.0],
            pass_s: vec![0.0855, 0.06],
            repeatable: true,
            fork_stats: (0, 0),
            decode_cache: (0, 0),
        };
        assert_eq!(passes.slowest(2), vec![(2, 50.0), (4, 2.0)]);
        assert!((passes.tail_time_share() - 50.0 / 55.0).abs() < 1e-12);
        assert!((passes.campaign_s() - 0.055).abs() < 1e-12);
        assert!(passes.results().is_empty());
        let threaded = ThreadedPasses {
            results: CampaignResults::default(),
            walls_s: vec![0.045, 0.04],
            repeatable: true,
            fork_stats: (0, 0),
            decode_cache: (0, 0),
        };
        assert_eq!(threaded.campaign_s(), 0.04);
    }
}
