//! Layer probes: each layer timed from outside through its public
//! functions, on state forked from the workload's own `t0` snapshot.
//! Traced runs only; nothing here feeds an end-to-end metric.
//!
//! Every timing is the median of [`REPS`] repetitions of a batch, so a
//! single pre-empted batch does not move it. Counts repeat exactly at a
//! fixed seed.

use crate::run::Prepared;
use crate::spans::Tracer;
use crate::stats;
use crate::workloads::WORLD_SEED;
use etcd_sim::{Etcd, StorageKind};
use k8s_apiserver::InterceptorHandle;
use k8s_cluster::{workload, ClusterConfig, World};
use k8s_model::{Channel, Kind, NoopInterceptor, Object};
use mutiny_core::campaign::scenario_world_seed;
use mutiny_scenarios::Scenario;
use protowire::Message;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Repetitions per probe; the reported value is their median.
pub const REPS: usize = 7;

/// `World::run_until` slice the window probes step in — the slice
/// `run_world_with_fork` uses.
const SLICE_MS: u64 = 250;

/// Probe results by metric name.
pub type Values = BTreeMap<&'static str, f64>;

fn noop() -> InterceptorHandle {
    Rc::new(RefCell::new(NoopInterceptor))
}

/// Median over [`REPS`] calls of `batch`, which returns one measurement.
fn median_of(mut batch: impl FnMut() -> f64) -> f64 {
    stats::median(&(0..REPS).map(|_| batch()).collect::<Vec<_>>())
}

/// Nanoseconds per call of `op` over a batch of `iters`, median of
/// [`REPS`] batches.
fn ns_per_op(iters: usize, mut op: impl FnMut(usize)) -> f64 {
    median_of(|| {
        let t = Instant::now();
        for i in 0..iters {
            op(i);
        }
        t.elapsed().as_nanos() as f64 / iters as f64
    })
}

fn elapsed_us(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// The Pod the codec and store probes move around (the shape
/// `crates/bench/benches/micro.rs` uses).
fn sample_pod(name: &str) -> k8s_model::Pod {
    let mut p = k8s_model::Pod::default();
    p.metadata = k8s_model::ObjectMeta::named("default", name);
    p.metadata.labels.insert("app".into(), "probe".into());
    p.spec.node_name = "w3".into();
    p.spec.containers.push(k8s_model::Container {
        name: "web".into(),
        image: "registry.local/web:1.0".into(),
        command: vec!["serve".into()],
        cpu_milli: 500,
        memory_mb: 256,
        port: 8080,
        ..Default::default()
    });
    p.status.phase = "Running".into();
    p.status.pod_ip = "10.244.3.7".into();
    p.status.ready = true;
    p
}

/// protowire: encode into a shared buffer and decode of the sample Pod.
fn protowire(out: &mut Values) {
    let pod = sample_pod("web-1-abcde");
    let bytes = pod.encode();
    out.insert(
        "protowire.encode_shared_ns",
        ns_per_op(20_000, |_| {
            black_box(black_box(&pod).encode_shared());
        }),
    );
    out.insert(
        "protowire.decode_ns",
        ns_per_op(20_000, |_| {
            black_box(k8s_model::Pod::decode(black_box(&bytes)).expect("sample pod decodes"));
        }),
    );
}

/// etcd: the front-end's operations on one engine, on a store of 1 024
/// pod-sized values under two prefixes.
fn etcd(kind: StorageKind, out: &mut Values) {
    let names: [&'static str; 5] = match kind {
        StorageKind::Mem => [
            "etcd.put_ns.mem",
            "etcd.get_ns.mem",
            "etcd.range_ns.mem",
            "etcd.events_since_ns.mem",
            "etcd.fork_us.mem",
        ],
        StorageKind::Log => [
            "etcd.put_ns.log",
            "etcd.get_ns.log",
            "etcd.range_ns.log",
            "etcd.events_since_ns.log",
            "etcd.fork_us.log",
        ],
    };
    let value: etcd_sim::Bytes = sample_pod("web-1-abcde").encode_shared();
    let keys: Vec<String> = (0..1_024)
        .map(|i| {
            format!(
                "/registry/{}/default/p{i:04}",
                if i < 512 { "pods" } else { "replicasets" }
            )
        })
        .collect();
    let mut store = Etcd::with_backend(kind, 1, 1 << 30);
    for key in &keys {
        store.put(key, value.clone()).expect("budget is 1 GiB");
    }
    out.insert(
        names[0],
        ns_per_op(4_096, |i| {
            black_box(
                store
                    .put(&keys[i % keys.len()], value.clone())
                    .expect("overwrite fits"),
            );
        }),
    );
    out.insert(
        names[1],
        ns_per_op(4_096, |i| {
            black_box(store.get(&keys[i % keys.len()]));
        }),
    );
    out.insert(
        names[2],
        ns_per_op(64, |_| {
            black_box(store.range("/registry/pods/"));
        }),
    );
    let replay_from = store.event_head().saturating_sub(256);
    out.insert(
        names[3],
        ns_per_op(256, |_| {
            black_box(
                store
                    .events_since(replay_from)
                    .expect("cursor inside retention"),
            );
        }),
    );
    out.insert(
        names[4],
        median_of(|| {
            let t = Instant::now();
            let copy = black_box(store.clone());
            let us = elapsed_us(t);
            drop(copy);
            us
        }),
    );
    if kind == StorageKind::Log {
        // Each repetition compacts a fresh fork carrying the overwrite
        // garbage the put probe left behind.
        out.insert(
            "etcd.compact_us.log",
            median_of(|| {
                let mut copy = store.clone();
                let t = Instant::now();
                copy.compact();
                elapsed_us(t)
            }),
        );
    }
}

/// apiserver: the request pipeline and the watch cache, on a fork of the
/// `t0` world's apiserver.
fn apiserver(t0_world: &World, out: &mut Values) {
    const BATCH: usize = 256;
    let fork = || {
        t0_world
            .api
            .fork(noop(), Rc::new(RefCell::new(simkit::Trace::new(64))))
    };
    let mut creates = Vec::with_capacity(REPS);
    let mut updates = Vec::with_capacity(REPS);
    let mut lists = Vec::with_capacity(REPS);
    let mut polls = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut api = fork();
        let cursor = api.watch_head();
        let pods: Vec<k8s_model::Pod> = (0..BATCH)
            .map(|i| sample_pod(&format!("probe-{i:03}")))
            .collect();
        let t = Instant::now();
        for pod in &pods {
            black_box(
                api.create(Channel::KcmToApi, Object::Pod(pod.clone()))
                    .expect("create"),
            );
        }
        creates.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
        let t = Instant::now();
        for (i, pod) in pods.iter().enumerate() {
            let mut pod = pod.clone();
            pod.status.restart_count = i as i64 % 7;
            black_box(
                api.update(Channel::KubeletToApi, Object::Pod(pod))
                    .expect("update"),
            );
        }
        updates.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
        let t = Instant::now();
        for _ in 0..16 {
            black_box(api.list(Kind::Pod, None));
        }
        lists.push(t.elapsed().as_nanos() as f64 / 16.0);
        let t = Instant::now();
        for _ in 0..16 {
            black_box(api.poll_events(cursor));
        }
        polls.push(t.elapsed().as_nanos() as f64 / 16.0);
    }
    out.insert("apiserver.create_ns", stats::median(&creates));
    out.insert("apiserver.update_ns", stats::median(&updates));
    out.insert("apiserver.list_ns", stats::median(&lists));
    out.insert("apiserver.poll_events_ns", stats::median(&polls));
    out.insert(
        "apiserver.fork_us",
        median_of(|| {
            let t = Instant::now();
            let copy = black_box(fork());
            let us = elapsed_us(t);
            drop(copy);
            us
        }),
    );
}

/// Steps a component until `done` says so, at most `cap` times, with
/// `now` advancing by `period` per step. Returns the new `now`.
fn step_until(
    world: &mut World,
    mut now: u64,
    period: u64,
    cap: usize,
    mut step: impl FnMut(&mut World, u64),
    done: impl Fn(&World) -> bool,
) -> u64 {
    for _ in 0..cap {
        now += period;
        world.api.set_now(now);
        step(world, now);
        if done(world) {
            break;
        }
    }
    now
}

/// kcm / scheduler / kubelet / netsim: one step on a settled cluster
/// (idle) and the reconcile of a freshly created 10-replica Deployment
/// (busy), on forks of a world that ran fault-free to its horizon.
fn components(settled: &World, out: &mut Values) {
    const IDLE_STEPS: usize = 2_000;
    let horizon = settled.horizon();
    let mut idle = [Vec::new(), Vec::new(), Vec::new()];
    let mut busy = [Vec::new(), Vec::new(), Vec::new()];
    let mut refresh = Vec::new();
    let mut request = Vec::new();
    for _ in 0..REPS {
        let mut world = settled.fork(noop());
        let mut now = horizon;
        // A worker kubelet, not the tainted control-plane node.
        let worker = world.kubelets.len() - 1;

        let t = Instant::now();
        now = step_until(
            &mut world,
            now,
            100,
            IDLE_STEPS,
            |w, at| w.kcm.step(&mut w.api, at),
            |_| false,
        );
        idle[0].push(t.elapsed().as_nanos() as f64 / IDLE_STEPS as f64);
        let t = Instant::now();
        now = step_until(
            &mut world,
            now,
            100,
            IDLE_STEPS,
            |w, at| w.scheduler.step(&mut w.api, at),
            |_| false,
        );
        idle[1].push(t.elapsed().as_nanos() as f64 / IDLE_STEPS as f64);
        let t = Instant::now();
        now = step_until(
            &mut world,
            now,
            200,
            IDLE_STEPS,
            |w, at| w.kubelets[worker].step(&mut w.api, at),
            |_| false,
        );
        idle[2].push(t.elapsed().as_nanos() as f64 / IDLE_STEPS as f64);

        let t = Instant::now();
        for _ in 0..50 {
            world.net.refresh(&mut world.api);
        }
        refresh.push(t.elapsed().as_nanos() as f64 / 50.0);
        let from = world.kubelets[worker].node_name.clone();
        let t = Instant::now();
        for _ in 0..IDLE_STEPS {
            black_box(world.net.request(
                &mut world.api,
                now,
                &from,
                "default",
                "web-1-svc",
                80,
                false,
            ));
        }
        request.push(t.elapsed().as_nanos() as f64 / IDLE_STEPS as f64);

        // Busy: the user creates a 10-replica Deployment; each component
        // works until its own backlog is empty.
        world.api.set_now(now);
        let deployment = workload::app_deployment(90, 10, false);
        world
            .api
            .create(Channel::UserToApi, Object::Deployment(deployment))
            .expect("create");
        let t = Instant::now();
        now = step_until(
            &mut world,
            now,
            100,
            64,
            |w, at| w.kcm.step(&mut w.api, at),
            |w| w.kcm.queue_len() == 0,
        );
        busy[0].push(elapsed_us(t));
        let t = Instant::now();
        now = step_until(
            &mut world,
            now,
            100,
            64,
            |w, at| w.scheduler.step(&mut w.api, at),
            |w| w.scheduler.pending_len() == 0,
        );
        busy[1].push(elapsed_us(t));
        let t = Instant::now();
        for _ in 0..2 {
            now += 200;
            world.api.set_now(now);
            for k in 0..world.kubelets.len() {
                let (kubelets, api) = (&mut world.kubelets, &mut world.api);
                kubelets[k].step(api, now);
            }
        }
        busy[2].push(elapsed_us(t) / (2 * world.kubelets.len()) as f64);
    }
    out.insert("kcm.step_idle_ns", stats::median(&idle[0]));
    out.insert("scheduler.step_idle_ns", stats::median(&idle[1]));
    out.insert("kubelet.step_idle_ns", stats::median(&idle[2]));
    out.insert("kcm.step_busy_us", stats::median(&busy[0]));
    out.insert("scheduler.step_busy_us", stats::median(&busy[1]));
    out.insert("kubelet.step_busy_us", stats::median(&busy[2]));
    out.insert("netsim.refresh_ns", stats::median(&refresh));
    out.insert("netsim.request_ns", stats::median(&request));
}

/// Builds `scenario`'s fault-free world up to `t0` — what one
/// fork-the-world snapshot costs.
fn build_prefix(cluster: &ClusterConfig, scenario: Scenario) -> World {
    let cfg = ClusterConfig {
        seed: scenario_world_seed(WORLD_SEED, scenario),
        ..cluster.clone()
    };
    let mut world = scenario.build_world(&cfg, noop());
    scenario.schedule(&mut world);
    let t0 = world.t0();
    world.run_until(t0);
    world
}

/// Steps a fork of `snapshot` from `t0` to the horizon in [`SLICE_MS`]
/// slices; returns the finished world and each slice's microseconds.
fn run_window(snapshot: &World) -> (World, Vec<f64>) {
    let mut world = snapshot.fork(noop());
    let horizon = world.horizon();
    let mut slices = Vec::new();
    while world.now() < horizon {
        let next = (world.now() + SLICE_MS).min(horizon);
        let t = Instant::now();
        world.run_until(next);
        slices.push(elapsed_us(t));
    }
    (world, slices)
}

/// Wall milliseconds of the fault window, median of [`REPS`] forks, plus
/// the last repetition's finished world and slice times.
fn window_ms(snapshot: &World) -> (f64, World, Vec<f64>) {
    let mut last = None;
    let ms = median_of(|| {
        let t = Instant::now();
        let (world, slices) = run_window(snapshot);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        last = Some((world, slices));
        ms
    });
    let (world, slices) = last.expect("REPS > 0");
    (ms, world, slices)
}

/// cluster: prefix build, fork, the fault-free window of the workload's
/// first scenario and of its no-op twin. Returns the `t0` snapshot and
/// the settled world for the component probes.
fn cluster(prep: &Prepared, out: &mut Values) -> (World, World) {
    let scenario = prep.workload.scenarios()[0];
    let mut snapshot = None;
    out.insert(
        "cluster.prefix_build_ms",
        median_of(|| {
            let t = Instant::now();
            snapshot = Some(build_prefix(&prep.cluster, scenario));
            t.elapsed().as_secs_f64() * 1e3
        }),
    );
    let snapshot = snapshot.expect("REPS > 0");
    out.insert(
        "cluster.fork_us",
        median_of(|| {
            let t = Instant::now();
            let copy = black_box(snapshot.fork(noop()));
            let us = elapsed_us(t);
            drop(copy);
            us
        }),
    );
    let (busy_ms, settled, slices) = window_ms(&snapshot);
    let sorted = stats::sorted(slices);
    out.insert("cluster.window_ms", busy_ms);
    out.insert("cluster.slice_p50_us", stats::percentile(&sorted, 0.5));
    out.insert("cluster.slice_max_us", stats::percentile(&sorted, 1.0));
    let twin = build_prefix(&prep.cluster, prep.workload.idle_twin());
    let (idle_ms, ..) = window_ms(&twin);
    out.insert("cluster.idle_window_ms", idle_ms);
    out.insert(
        "cluster.idle_window_share",
        if busy_ms > 0.0 {
            idle_ms / busy_ms
        } else {
            0.0
        },
    );
    (snapshot, settled)
}

/// Runs every layer probe for a prepared workload, one `probe.<layer>`
/// span each.
pub fn run(prep: &Prepared, tracer: &mut Tracer) -> Values {
    let mut out = Values::new();
    tracer.span("probe.protowire", None, || protowire(&mut out));
    tracer.span("probe.etcd", None, || {
        etcd(StorageKind::Mem, &mut out);
        etcd(StorageKind::Log, &mut out);
    });
    let (snapshot, settled) = tracer.span("probe.cluster", None, || cluster(prep, &mut out));
    tracer.span("probe.apiserver", None, || apiserver(&snapshot, &mut out));
    tracer.span("probe.components", None, || components(&settled, &mut out));

    // What the fixed-period tick loop spends on a cluster where nothing
    // happens: ticks per window times the idle step costs measured above
    // (kcm and scheduler every 100 ms, each kubelet every 200 ms, the
    // network fabric every 500 ms).
    let window = (settled.horizon() - settled.t0()) as f64;
    let ns = out["kcm.step_idle_ns"] * window / 100.0
        + out["scheduler.step_idle_ns"] * window / 100.0
        + out["kubelet.step_idle_ns"] * window / 200.0 * settled.kubelets.len() as f64
        + out["netsim.refresh_ns"] * window / 500.0;
    out.insert("cluster.idle_tick_est_ms", ns / 1e6);

    tracer.span("probe.core", None, || {
        let scenario = prep.workload.scenarios()[0];
        out.insert(
            "core.golden_run_ms",
            median_of(|| {
                let t = Instant::now();
                black_box(mutiny_core::golden::run_golden(
                    &prep.cluster,
                    scenario,
                    WORLD_SEED,
                ));
                t.elapsed().as_secs_f64() * 1e3
            }),
        );
    });
    out
}
