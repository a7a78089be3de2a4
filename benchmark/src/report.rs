//! One run of one workload, end to end: set-up, the untraced passes,
//! the checks, optionally the traced pass and the layer probes, and the
//! report that becomes the result line and the output file.

use crate::json::{self, Json};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::probes;
use crate::run::{self, Prepared, SerialPasses, ThreadedPasses};
use crate::spans::Tracer;
use crate::stamp;
use crate::stats;
use crate::traced::{self, TRACED_SAMPLE};
use crate::workloads::{self, Workload, RUN_SECONDS};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Set-ups per untraced run, which reports `setup_s`; a traced run does
/// not and sets up once.
const SETUP_REPS: usize = 3;

/// Traced and telemetry-on passes per traced run.
const TRACED_PASSES: usize = 3;

/// Share of the traced experiments' time their child spans must cover.
const MIN_SPAN_COVERAGE: f64 = 0.95;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// Workload seed: seeds the planner.
    pub seed: u64,
    /// Requested measuring time; sizes scale with it.
    pub seconds: f64,
    /// Run the traced pass and the probes, report per-layer metrics.
    pub traced: bool,
}

/// What one run found.
pub struct RunReport {
    /// No check failed and every metric has a value.
    pub correct: bool,
    /// Injected experiments attempted in the passes whose rows are kept:
    /// the first serial, threaded and traced one.
    pub attempted: usize,
    /// Attempted experiments that returned no row.
    pub failed: usize,
    /// The metrics of the requested mode, in table order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// What went wrong, one line each.
    pub problems: Vec<String>,
    /// The output file body.
    pub detail: Json,
}

impl RunReport {
    /// The result line the driver reads.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|(def, value)| {
            (
                def.name,
                json::obj([("value", Json::Num(*value)), ("unit", json::str(def.unit))]),
            )
        });
        json::compact(&json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", json::count(self.attempted)),
            ("failed", json::count(self.failed)),
            ("metrics", json::obj(metrics)),
        ]))
    }
}

/// The digest pinned for `workload` in `pinned.json`, when the pin was
/// taken at this seed and size.
fn pinned_digest(workload: &str, seed: u64, seconds: f64) -> Option<String> {
    let text = std::fs::read_to_string(stamp::bench_dir().join("pinned.json")).ok()?;
    let pinned = json::parse(&text).ok()?;
    let same_inputs =
        pinned.get("seed")?.as_num()? == seed as f64 && pinned.get("seconds")?.as_num()? == seconds;
    same_inputs
        .then(|| {
            pinned
                .get("rows_digest")?
                .get(workload)?
                .as_str()
                .map(str::to_owned)
        })
        .flatten()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The ten slowest experiments with what was injected.
fn slow_list(prep: &Prepared, serial: &SerialPasses) -> Json {
    Json::Arr(
        serial
            .slowest(10)
            .into_iter()
            .map(|(i, ms)| {
                let p = &prep.plan[i];
                json::obj([
                    ("ms", Json::Num(ms)),
                    ("scenario", json::str(p.scenario.name())),
                    ("family", json::str(p.fault.name())),
                    ("channel", json::str(p.spec.channel.to_string())),
                    ("kind", json::str(p.spec.kind.to_string())),
                    ("occurrence", Json::Num(f64::from(p.spec.occurrence))),
                    ("point", json::str(format!("{:?}", p.spec.point))),
                ])
            })
            .collect(),
    )
}

/// Per-layer values that come from the untraced passes themselves. The
/// fork and decode-cache counters are those of the first pass that
/// defines `exp_per_s`: the threaded one where there is one.
fn pass_values(
    prep: &Prepared,
    serial: &SerialPasses,
    threaded: Option<&ThreadedPasses>,
    failed_share: f64,
    digest_changed: bool,
    out: &mut probes::Values,
) {
    let (snapshots, hits) = threaded.map_or(serial.fork_stats, |t| t.fork_stats);
    let (dc_hits, dc_misses) = threaded.map_or(serial.decode_cache, |t| t.decode_cache);
    let sorted = serial.sorted_ms();
    out.insert("faults.record_ms", prep.record_s * 1e3);
    out.insert("faults.plan_ms", prep.plan_s * 1e3);
    out.insert("faults.specs_planned", prep.planned_total as f64);
    out.insert("core.fork_snapshots", snapshots as f64);
    out.insert("core.fork_hit_rate", ratio(hits, snapshots + hits));
    out.insert(
        "apiserver.decode_cache_hit_rate",
        ratio(dc_hits, dc_hits + dc_misses),
    );
    out.insert("core.tail_time_share", serial.tail_time_share());
    out.insert("core.exp_p99_ms", stats::percentile(&sorted, 0.99));
    out.insert("core.exp_max_ms", stats::percentile(&sorted, 1.0));
    out.insert("core.failed_share", failed_share);
    out.insert(
        "core.rows_digest_changed",
        f64::from(u8::from(digest_changed)),
    );
    // What one more worker buys: undisturbed serial campaign over
    // fastest threaded pass, over `threads`; 1 by definition on one
    // thread.
    out.insert(
        "core.parallel_efficiency",
        threaded.map_or(1.0, |t| {
            serial.campaign_s() / t.campaign_s() / prep.workload.threads as f64
        }),
    );
    let results = serial.results();
    let rows = results.len().max(1) as f64;
    let mut render = Vec::new();
    let mut roundtrip = Vec::new();
    for _ in 0..probes::REPS {
        let t = Instant::now();
        black_box(mutiny_bench::render_rows(&results));
        render.push(t.elapsed().as_nanos() as f64 / 1e3 / rows);
        let t = Instant::now();
        black_box(mutiny_bench::roundtrip_check(&results));
        roundtrip.push(t.elapsed().as_nanos() as f64 / 1e3 / rows);
    }
    out.insert("bench.render_us_per_row", stats::median(&render));
    out.insert("bench.roundtrip_us_per_row", stats::median(&roundtrip));
}

/// Median over experiments of `other / base - 1`: how much slower the
/// same experiments ran under `other`. Robust to the storm tail, which
/// a ratio of sums is not.
fn median_overhead(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let shares: Vec<f64> = pairs
        .filter(|(base, _)| *base > 0.0)
        .map(|(base, other)| other / base - 1.0)
        .collect();
    stats::median(&shares)
}

/// What the traced passes leave for the rest of a traced run.
struct Traced {
    tracer: Tracer,
    /// Plan indices of the traced experiments.
    indices: Vec<usize>,
    /// Rows the first traced pass returned.
    returned: usize,
}

/// The traced passes and the layer probes. Like the serial passes they
/// are compared with, they run before the run spawns any thread.
fn traced_passes_and_probes(
    prep: &Prepared,
    serial: &SerialPasses,
    scale: f64,
    values: &mut probes::Values,
    problems: &mut Vec<String>,
) -> Traced {
    let mut tracer = Tracer::default();
    let want = ((TRACED_SAMPLE as f64 * scale).round() as usize).max(1);
    let indices = workloads::stride(prep.plan.len(), want);
    let pass = traced::traced_pass(prep, &indices, &mut tracer);
    run::check_same_rows(
        "traced",
        serial,
        pass.rows.iter().map(|(i, row)| (*i, row)),
        problems,
    );
    // Like the serial passes, the traced pass is repeated and each
    // experiment keeps its fastest span, so that the two are compared
    // undisturbed against undisturbed.
    let mut traced_ms = pass.ms.clone();
    for _ in 1..TRACED_PASSES {
        let again = traced::traced_pass(prep, &indices, &mut tracer);
        for (best, ms) in traced_ms.iter_mut().zip(again.ms) {
            *best = best.min(ms);
        }
    }

    let n = pass.counts.experiments.max(1) as f64;
    values.insert("etcd.commits_per_exp", pass.counts.commits as f64 / n);
    values.insert(
        "etcd.disk_used_kb_max",
        pass.counts.disk_used_max as f64 / 1024.0,
    );
    values.insert(
        "etcd.writes_rejected_per_exp",
        pass.counts.writes_rejected as f64 / n,
    );
    values.insert(
        "apiserver.requests_per_exp",
        pass.counts.requests as f64 / n,
    );
    values.insert(
        "apiserver.cached_objects_max",
        pass.counts.cached_objects_max as f64,
    );

    let own = tracer.self_times_ns();
    let totals = tracer.totals();
    let mean_of = |name: &str, scale: f64| {
        totals.get(name).map_or(0.0, |&(count, total, _)| {
            total as f64 / count.max(1) as f64 / scale
        })
    };
    values.insert("core.run_world_ms", mean_of("core.run_world", 1e6));
    values.insert("core.classify_us", mean_of("core.classify", 1e3));
    values.insert("core.timeline_us", mean_of("core.timeline", 1e3));
    let experiment_ns = totals.get("experiment").map_or(0, |t| t.1);
    let run_world_self = totals.get("core.run_world").map_or(0, |t| t.2);
    values.insert(
        "core.run_world_self_share",
        ratio(run_world_self, experiment_ns),
    );
    // Least per-experiment coverage is reported; the check is on the
    // total, which one pre-empted microsecond gap cannot fail.
    let coverage_min = tracer
        .spans()
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "experiment" && s.duration_ns() > 0)
        .map(|(s, own)| 1.0 - *own as f64 / s.duration_ns() as f64)
        .fold(1.0, f64::min);
    values.insert("trace.span_coverage_min", coverage_min);
    let experiment_self = totals.get("experiment").map_or(0, |t| t.2);
    let coverage = 1.0 - ratio(experiment_self, experiment_ns);
    if coverage < MIN_SPAN_COVERAGE {
        problems.push(format!(
            "child spans cover only {coverage:.3} of the traced experiments (need {MIN_SPAN_COVERAGE})"
        ));
    }
    values.insert(
        "trace.overhead_share",
        median_overhead(
            indices
                .iter()
                .zip(&traced_ms)
                .map(|(&i, &ms)| (serial.ms[i], ms)),
        ),
    );

    values.extend(probes::run(prep, &mut tracer));
    Traced {
        tracer,
        returned: pass.rows.len(),
        indices,
    }
}

/// The traced experiments once more with telemetry on, against their
/// serial-pass times. Telemetry cannot be switched off again inside a
/// process, so this is the last thing a run does; on `families-all-2t`
/// that is after the threaded passes, where the main thread runs 5 to
/// 10% slower than the serial passes did (see [`run::serial_passes`]).
fn telemetry_on(
    prep: &Prepared,
    serial: &SerialPasses,
    traced: &mut Traced,
    values: &mut probes::Values,
) {
    let indices = &traced.indices;
    mutiny_telemetry::enable_in_process();
    let on: Vec<(f64, f64)> = traced.tracer.span("probe.telemetry_on", None, || {
        let mut on_ms = vec![f64::INFINITY; indices.len()];
        for _ in 0..TRACED_PASSES {
            for (best, &i) in on_ms.iter_mut().zip(indices) {
                *best = best.min(run::timed_experiment(prep, i).1);
            }
        }
        indices
            .iter()
            .zip(on_ms)
            .map(|(&i, ms)| (serial.ms[i], ms))
            .collect()
    });
    values.insert(
        "telemetry.on_overhead_share",
        median_overhead(on.into_iter()),
    );
}

/// Runs one workload and assembles its report.
pub fn run_workload(opts: &RunOptions) -> RunReport {
    let scale = opts.seconds / RUN_SECONDS;
    let workload = opts.workload;
    let mut problems = Vec::new();

    let mut prep = run::setup(workload, opts.seed, scale);
    let mut setups = vec![prep.steps_s.clone()];
    for _ in 1..if opts.traced { 1 } else { SETUP_REPS } {
        prep = run::setup(workload, opts.seed, scale);
        setups.push(prep.steps_s.clone());
    }
    eprintln!(
        "[benchmark] {}: {} of {} planned experiments, {} thread(s), {} engine, seed {}",
        workload.name,
        prep.plan.len(),
        prep.planned_total,
        workload.threads,
        workload.storage,
        opts.seed
    );

    let serial = run::serial_passes(&prep);
    let mut values = probes::Values::new();
    let mut traced = opts
        .traced
        .then(|| traced_passes_and_probes(&prep, &serial, scale, &mut values, &mut problems));
    let threaded = (workload.threads > 1).then(|| run::threaded_passes(&prep, workload.threads));
    let peak_rss_mb = run::peak_rss_mb();

    let mut attempted = prep.plan.len();
    let mut returned = serial.rows.iter().flatten().count();
    run::check_serial(&prep, &serial, &mut problems);
    if let Some(t) = &threaded {
        attempted += prep.plan.len();
        returned += t.results.len();
        if !t.repeatable || t.results.len() != prep.plan.len() {
            problems.push("a repeated threaded pass returned different rows".to_owned());
        }
        run::check_same_rows(
            "threaded",
            &serial,
            t.results.rows.iter().enumerate(),
            &mut problems,
        );
    }
    let engine = run::check_golden_runs(&prep, &mut problems);

    let digest = format!(
        "{:016x}",
        run::fnv1a(mutiny_bench::render_rows(&serial.results()).as_bytes())
    );
    let pinned = pinned_digest(workload.name, opts.seed, opts.seconds);
    let digest_changed = pinned.as_ref().is_some_and(|p| *p != digest);
    match &pinned {
        Some(p) if digest_changed => eprintln!(
            "[benchmark] ROWS DIGEST CHANGED on {}: {digest}, pinned {p} — simulated results \
             differ from the pinned commit",
            workload.name
        ),
        Some(_) => eprintln!("[benchmark] rows digest {digest} matches the pin"),
        None => eprintln!("[benchmark] rows digest {digest} (no pin for this seed and size)"),
    }

    // One thread: an undisturbed serial campaign. More: the fastest
    // threaded pass.
    let campaign_s = threaded
        .as_ref()
        .map_or(serial.campaign_s(), ThreadedPasses::campaign_s);
    let sorted = serial.sorted_ms();
    let end_to_end: BTreeMap<&str, f64> = [
        ("setup_s", run::undisturbed_setup_s(&setups)),
        ("exp_per_s", prep.plan.len() as f64 / campaign_s),
        ("exp_p50_ms", stats::percentile(&sorted, 0.5)),
        ("exp_p90_ms", stats::percentile(&sorted, 0.9)),
        ("peak_rss_mb", peak_rss_mb),
    ]
    .into();

    if let Some(t) = &mut traced {
        attempted += t.indices.len();
        returned += t.returned;
        telemetry_on(&prep, &serial, t, &mut values);
    }
    let failed = attempted.saturating_sub(returned);
    if failed > 0 {
        problems.push(format!(
            "{failed} of {attempted} attempted experiments returned no row"
        ));
    }
    if opts.traced {
        pass_values(
            &prep,
            &serial,
            threaded.as_ref(),
            failed as f64 / attempted.max(1) as f64,
            digest_changed,
            &mut values,
        );
    }

    let table: &[MetricDef] = if opts.traced { &PER_LAYER } else { &END_TO_END };
    let source: BTreeMap<&str, f64> = if opts.traced {
        values
    } else {
        end_to_end.clone()
    };
    let mut metrics = Vec::with_capacity(table.len());
    for def in table {
        match source.get(def.name) {
            Some(v) if v.is_finite() => metrics.push((*def, *v)),
            _ => problems.push(format!("metric {} has no value", def.name)),
        }
    }

    for p in &problems {
        eprintln!("[benchmark] FAILED CHECK: {p}");
    }
    let families = workloads::family_counts(&prep.plan);
    let mut detail = vec![
        ("stamp".to_owned(), stamp::stamp()),
        ("workload".to_owned(), json::str(workload.name)),
        ("seed".to_owned(), Json::Num(opts.seed as f64)),
        ("seconds".to_owned(), Json::Num(opts.seconds)),
        ("threads".to_owned(), json::count(workload.threads)),
        ("engine".to_owned(), json::str(engine)),
        (
            "etcd_budget_kib".to_owned(),
            Json::Num(prep.cluster.etcd_capacity_bytes as f64 / 1024.0),
        ),
        ("passes".to_owned(), json::count(run::PASSES)),
        ("experiments".to_owned(), json::count(prep.plan.len())),
        ("planned".to_owned(), json::count(prep.planned_total)),
        (
            "experiments_per_family".to_owned(),
            json::obj(families.into_iter().map(|(k, v)| (k, json::count(v)))),
        ),
        ("rows_digest".to_owned(), json::str(digest)),
        (
            "setup_s_repeats".to_owned(),
            json::nums(
                &setups
                    .iter()
                    .map(|steps| steps.iter().sum())
                    .collect::<Vec<f64>>(),
            ),
        ),
        (
            "serial_campaign_s".to_owned(),
            Json::Num(serial.campaign_s()),
        ),
        ("serial_pass_s".to_owned(), json::nums(&serial.pass_s)),
        (
            "threaded_pass_s".to_owned(),
            json::nums(threaded.as_ref().map_or(&[], |t| &t.walls_s)),
        ),
        (
            "end_to_end".to_owned(),
            json::obj(
                END_TO_END
                    .iter()
                    .map(|d| (d.name, Json::Num(end_to_end[d.name]))),
            ),
        ),
        (
            "metrics".to_owned(),
            json::obj(metrics.iter().map(|(d, v)| {
                (
                    d.name,
                    json::obj([("value", Json::Num(*v)), ("unit", json::str(d.unit))]),
                )
            })),
        ),
        ("slowest".to_owned(), slow_list(&prep, &serial)),
        (
            "problems".to_owned(),
            Json::Arr(problems.iter().map(json::str).collect()),
        ),
    ];
    if let Some(t) = &traced {
        detail.push(("trace".to_owned(), t.tracer.to_json()));
    }
    RunReport {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems,
        detail: Json::Obj(detail),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_the_median_ratio_not_the_ratio_of_sums() {
        // One storm that ran 50% slower must not read as 50% overhead.
        let pairs = [
            (10.0, 10.1),
            (10.0, 10.2),
            (10.0, 9.9),
            (1000.0, 1500.0),
            (0.0, 5.0),
        ];
        let share = median_overhead(pairs.into_iter());
        assert!((share - 0.015).abs() < 1e-9, "{share}");
        assert_eq!(median_overhead(std::iter::empty()), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = RunReport {
            correct: true,
            attempted: 500,
            failed: 0,
            metrics: vec![(END_TO_END[0], 1.8127), (END_TO_END[1], 57.25)],
            problems: Vec::new(),
            detail: Json::Null,
        };
        let line = report.result_line();
        assert_eq!(line.lines().count(), 1);
        let parsed = json::parse(&line).expect("result line is JSON");
        let Json::Obj(members) = &parsed else {
            panic!("result line is not an object: {line}");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = parsed
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(setup.get("value").and_then(Json::as_num), Some(1.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}
