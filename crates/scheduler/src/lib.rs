//! # k8s-scheduler — the simulated kube-scheduler
//!
//! Assigns pods to nodes based on resource requests, availability and
//! constraints (§II-C), with the mechanisms the paper's campaign exercises:
//!
//! * **filtering and scoring** — readiness, schedulability, taints and
//!   resource fit, then least-allocated scoring;
//! * **priority preemption** — a pending high-priority pod evicts
//!   lower-priority pods; combined with system-node-critical DaemonSet
//!   pods this turns uncontrolled replication into an Outage;
//! * **leader election** — one active replica; re-election after a restart
//!   costs ~20 s (§V-C1's Timing-failure example);
//! * **cache-consistency restart** — when the stored binding of a pod
//!   disagrees with the scheduler's own cache, the scheduler assumes its
//!   cache is corrupted and restarts, exactly as the paper describes for
//!   `nodeName` injections on running pods.

use k8s_apiserver::workqueue::WorkQueue;
use k8s_apiserver::{ApiServer, LeaderElector, TraceHandle};
use k8s_model::node::{TAINT_NO_EXECUTE, TAINT_NO_SCHEDULE};
use k8s_model::{Channel, Kind, Node, Object, Pod};
use simkit::TraceLevel;
use std::collections::HashMap;
use std::rc::Rc;

/// Scheduler tunables.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Maximum pods bound per step.
    pub bind_budget: usize,
    /// Process boot time after a self-restart, before rejoining election.
    pub restart_boot_ms: u64,
    /// Requeue delay for unschedulable pods.
    pub unschedulable_retry_ms: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig { bind_budget: 20, restart_boot_ms: 2_000, unschedulable_retry_ms: 1_000 }
    }
}

/// Counters exposed to the failure classifiers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerMetrics {
    /// Successful bindings.
    pub scheduled: u64,
    /// Pods deleted by preemption.
    pub preempted: u64,
    /// Self-restarts after cache mismatches.
    pub restarts: u64,
    /// Scheduling attempts that found no feasible node.
    pub unschedulable_rounds: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum State {
    Running,
    /// Booting after a self-restart; scheduling resumes (after
    /// re-election) once the clock passes the deadline.
    Restarting(u64),
}

/// The simulated scheduler.
#[derive(Clone)]
pub struct Scheduler {
    cursor: u64,
    elector: LeaderElector,
    /// Pending pod keys, shared with the watch cache's interned keys: the
    /// steady-state enqueue is a refcount bump, not a string copy.
    pending: WorkQueue<Rc<str>>,
    /// The scheduler's own view of bindings: pod key → node name.
    assumed: HashMap<Rc<str>, String>,
    state: State,
    cfg: SchedulerConfig,
    /// Metrics exposed to the classifiers.
    pub metrics: SchedulerMetrics,
    trace: TraceHandle,
    identity: String,
    incarnation: u32,
    needs_relist: bool,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("leader", &self.elector.is_leader())
            .field("pending", &self.pending.len())
            .field("state", &self.state)
            .finish()
    }
}

impl Scheduler {
    /// Creates a scheduler watching from the apiserver's current head.
    pub fn new(identity: &str, cfg: SchedulerConfig, api: &ApiServer, trace: TraceHandle) -> Scheduler {
        Scheduler {
            cursor: api.watch_head(),
            elector: LeaderElector::new("scheduler-leader", identity, Channel::SchedulerToApi),
            pending: WorkQueue::new()
                .with_telemetry("scheduler.queue.depth_hw", "scheduler.bind.wait_ms"),
            assumed: HashMap::new(),
            state: State::Running,
            cfg,
            metrics: SchedulerMetrics::default(),
            trace,
            identity: identity.to_owned(),
            incarnation: 0,
            needs_relist: true,
        }
    }

    /// True while this instance holds the scheduler leader lease.
    pub fn is_leader(&self) -> bool {
        self.elector.is_leader()
    }

    /// Number of pods waiting to be scheduled.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// True while the scheduler is down for a self-restart.
    pub fn is_restarting(&self) -> bool {
        matches!(self.state, State::Restarting(_))
    }

    fn log(&self, api: &ApiServer, level: TraceLevel, msg: String) {
        self.trace.borrow_mut().log(api.now(), level, "scheduler", msg);
    }

    /// Runs one scheduler step at simulated time `now`.
    /// Repoints the shared trace buffer (fork-the-world gives each forked
    /// run its own trace so siblings never interleave log lines).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    pub fn step(&mut self, api: &mut ApiServer, now: u64) {
        if let State::Restarting(until) = self.state {
            if now < until {
                return;
            }
            self.state = State::Running;
            self.needs_relist = true;
        }

        if !self.elector.step(api, now) {
            self.cursor = api.watch_head();
            self.needs_relist = true;
            return;
        }

        if self.needs_relist {
            self.relist(api, now);
            self.needs_relist = false;
        }

        // Consume watch events.
        let (events, next) = api.poll_events(self.cursor);
        self.cursor = next;
        let mut mismatch: Option<(Rc<str>, String, String)> = None;
        for ev in events {
            match (ev.kind, ev.object.as_deref()) {
                (Kind::Pod, Some(Object::Pod(pod))) => {
                    // The event key is already interned by the watch
                    // cache; keep sharing its allocation.
                    let key = ev.key.clone();
                    if pod.metadata.is_terminating() {
                        self.assumed.remove(&key);
                        continue;
                    }
                    if pod.spec.node_name.is_empty() {
                        self.pending.enqueue(key, now);
                    } else {
                        match self.assumed.get(&key) {
                            Some(assumed) if assumed != &pod.spec.node_name => {
                                mismatch = Some((
                                    key.clone(),
                                    assumed.clone(),
                                    pod.spec.node_name.clone(),
                                ));
                            }
                            None => {
                                // Binding made by someone else (DaemonSet
                                // pods): record as truth.
                                self.assumed.insert(key, pod.spec.node_name.clone());
                            }
                            _ => {}
                        }
                    }
                }
                (Kind::Pod, None) => {
                    self.assumed.remove(&*ev.key);
                }
                _ => {}
            }
        }

        if let Some((key, assumed, stored)) = mismatch {
            // The stored binding disagrees with our cache. Assume cache
            // corruption and restart (paper §V-C, Timing example).
            self.metrics.restarts = self.metrics.restarts.saturating_add(1);
            mutiny_telemetry::counter_add("scheduler.cache_restarts", 1);
            self.incarnation += 1;
            self.log(
                api,
                TraceLevel::Error,
                format!(
                    "binding of {key} is {stored:?} but cache says {assumed:?}; \
                     assuming cache corruption, restarting"
                ),
            );
            self.assumed.clear();
            self.pending = WorkQueue::new()
                .with_telemetry("scheduler.queue.depth_hw", "scheduler.bind.wait_ms");
            self.elector.resign();
            // A fresh identity models the restarted process; it must wait
            // out the old lease before scheduling again.
            self.elector.identity = format!("{}-r{}", self.identity, self.incarnation);
            self.state = State::Restarting(now + self.cfg.restart_boot_ms);
            self.cursor = api.watch_head();
            return;
        }

        // Bind pending pods within budget.
        if self.pending.is_empty() {
            return;
        }
        // Nodes and pods are shared handles out of the watch cache:
        // filtering the cluster state is refcount bumps, not deep clones.
        let node_objs = api.list(Kind::Node, None);
        let nodes: Vec<&Node> = node_objs
            .iter()
            .filter_map(|o| match &**o {
                Object::Node(n) => Some(n),
                _ => None,
            })
            .collect();
        let pod_objs = api.list(Kind::Pod, None);
        let all_pods: Vec<&Pod> = pod_objs
            .iter()
            .filter_map(|o| match &**o {
                Object::Pod(p) => Some(p),
                _ => None,
            })
            .collect();
        let mut usage = Usage::from_pods(&all_pods);

        for _ in 0..self.cfg.bind_budget {
            let Some(key) = self.pending.pop_ready(now) else { break };
            let Some((ns, name)) = split_pod_key(&key) else { continue };
            let Some(pod_obj) = api.get(Kind::Pod, &ns, &name) else { continue };
            let Object::Pod(pod) = &*pod_obj else { continue };
            if pod.metadata.is_terminating() || !pod.spec.node_name.is_empty() {
                continue;
            }

            match self.pick_node(pod, &nodes, &usage) {
                Some(node_name) => {
                    let mut bound = pod.clone();
                    bound.spec.node_name = node_name.to_owned();
                    match api.update(Channel::SchedulerToApi, Object::Pod(bound)) {
                        Ok(_) => {
                            usage.add(node_name, pod.cpu_request(), pod.memory_request());
                            self.assumed.insert(key.clone(), node_name.to_owned());
                            self.metrics.scheduled = self.metrics.scheduled.saturating_add(1);
                        }
                        Err(e) => {
                            self.log(api, TraceLevel::Warn, format!("bind {key} failed: {e}"));
                            self.pending.requeue_failed(key, now);
                        }
                    }
                }
                None => {
                    self.metrics.unschedulable_rounds =
                        self.metrics.unschedulable_rounds.saturating_add(1);
                    if pod.spec.priority > 0 {
                        self.try_preempt(api, pod, &nodes, &all_pods);
                    }
                    self.pending.enqueue_after(key, now, self.cfg.unschedulable_retry_ms);
                }
            }
        }
    }

    fn relist(&mut self, api: &mut ApiServer, now: u64) {
        self.assumed.clear();
        for obj in api.list(Kind::Pod, None) {
            let Object::Pod(pod) = &*obj else { continue };
            if pod.metadata.is_terminating() {
                continue;
            }
            let key: Rc<str> =
                k8s_model::registry_key(Kind::Pod, &pod.metadata.namespace, &pod.metadata.name)
                    .into();
            if pod.spec.node_name.is_empty() {
                self.pending.enqueue(key, now);
            } else {
                self.assumed.insert(key, pod.spec.node_name.clone());
            }
        }
    }

    fn pick_node<'a>(&self, pod: &Pod, nodes: &[&'a Node], usage: &Usage) -> Option<&'a str> {
        let mut best: Option<(i64, &str)> = None;
        for node in nodes {
            if !feasible(pod, node, usage) {
                continue;
            }
            let (cpu_used, _) = usage.of(&node.metadata.name);
            // Least-allocated scoring; deterministic tie-break on name.
            let candidate = (cpu_used, node.metadata.name.as_str());
            match best {
                Some(b) if candidate >= b => {}
                _ => best = Some(candidate),
            }
        }
        best.map(|(_, n)| n)
    }

    fn try_preempt(&mut self, api: &mut ApiServer, pod: &Pod, nodes: &[&Node], all_pods: &[&Pod]) {
        let usage = Usage::from_pods(all_pods);
        for node in nodes {
            if node.spec.unschedulable || !node.status.ready {
                continue;
            }
            // Victims: strictly lower priority, not terminating.
            let mut victims: Vec<&Pod> = all_pods
                .iter()
                .copied()
                .filter(|p| {
                    p.spec.node_name == node.metadata.name
                        && !p.metadata.is_terminating()
                        && p.spec.priority < pod.spec.priority
                })
                .collect();
            victims.sort_by_key(|p| p.spec.priority);
            let (cpu_used, mem_used) = usage.of(&node.metadata.name);
            let cpu_free = node.status.cpu_milli - cpu_used;
            let mem_free = node.status.memory_mb - mem_used;
            let mut freed_cpu = 0;
            let mut freed_mem = 0;
            let mut chosen: Vec<&Pod> = Vec::new();
            for v in victims {
                if cpu_free + freed_cpu >= pod.cpu_request()
                    && mem_free + freed_mem >= pod.memory_request()
                {
                    break;
                }
                freed_cpu += v.cpu_request();
                freed_mem += v.memory_request();
                chosen.push(v);
            }
            if cpu_free + freed_cpu >= pod.cpu_request()
                && mem_free + freed_mem >= pod.memory_request()
                && !chosen.is_empty()
            {
                for v in chosen {
                    self.log(
                        api,
                        TraceLevel::Warn,
                        format!(
                            "preempting pod {} (priority {}) on {} for {} (priority {})",
                            v.metadata.name,
                            v.spec.priority,
                            node.metadata.name,
                            pod.metadata.name,
                            pod.spec.priority
                        ),
                    );
                    let _ = api.delete(
                        Channel::SchedulerToApi,
                        Kind::Pod,
                        &v.metadata.namespace,
                        &v.metadata.name,
                    );
                    self.metrics.preempted = self.metrics.preempted.saturating_add(1);
                }
                return;
            }
        }
    }
}

/// Per-node `(cpu, memory)` bookkeeping, keyed by node names borrowed
/// from the listed pods and nodes.
#[derive(Debug, Default)]
struct Usage<'a> {
    per_node: HashMap<&'a str, (i64, i64)>,
}

impl<'a> Usage<'a> {
    fn from_pods(pods: &[&'a Pod]) -> Usage<'a> {
        let mut u = Usage::default();
        for p in pods {
            if !p.spec.node_name.is_empty()
                && !p.metadata.is_terminating()
                && p.status.phase != "Succeeded"
                && p.status.phase != "Failed"
            {
                u.add(&p.spec.node_name, p.cpu_request(), p.memory_request());
            }
        }
        u
    }

    fn add(&mut self, node: &'a str, cpu: i64, mem: i64) {
        let used = self.per_node.entry(node).or_default();
        used.0 += cpu;
        used.1 += mem;
    }

    fn of(&self, node: &str) -> (i64, i64) {
        self.per_node.get(node).copied().unwrap_or_default()
    }
}

fn feasible(pod: &Pod, node: &Node, usage: &Usage) -> bool {
    if node.spec.unschedulable || !node.status.ready {
        return false;
    }
    for taint in &node.spec.taints {
        if (taint.effect == TAINT_NO_SCHEDULE || taint.effect == TAINT_NO_EXECUTE)
            && !pod.tolerates(&taint.key, &taint.effect)
        {
            return false;
        }
    }
    let (cpu_used, mem_used) = usage.of(&node.metadata.name);
    cpu_used + pod.cpu_request() <= node.status.cpu_milli
        && mem_used + pod.memory_request() <= node.status.memory_mb
}

fn split_pod_key(key: &str) -> Option<(String, String)> {
    let rest = key.strip_prefix("/registry/pods/")?;
    let (ns, name) = rest.split_once('/')?;
    Some((ns.to_owned(), name.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use etcd_sim::Etcd;
    use k8s_apiserver::InterceptorHandle;
    use k8s_model::{Container, NoopInterceptor, ObjectMeta};
    use simkit::Trace;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn api() -> ApiServer {
        let interceptor: InterceptorHandle = Rc::new(RefCell::new(NoopInterceptor));
        let trace: TraceHandle = Rc::new(RefCell::new(Trace::new(256)));
        ApiServer::new(Etcd::new(1, 8 << 20), interceptor, trace)
    }

    fn make_pod(ns: &str, name: &str, cpu: i64, priority: i64) -> Object {
        let mut p = Pod::default();
        p.metadata = ObjectMeta::named(ns, name);
        p.metadata.labels.insert("app".into(), "web".into());
        p.spec.priority = priority;
        p.spec.containers.push(Container {
            name: "c".into(),
            image: "img:1".into(),
            cpu_milli: cpu,
            memory_mb: 64,
            port: 8080,
            ..Default::default()
        });
        Object::Pod(p)
    }

    fn make_node(api: &mut ApiServer, name: &str, cpu: i64) {
        let n = Node::worker(name, cpu, 4096);
        api.create(Channel::KubeletToApi, Object::Node(n)).unwrap();
    }

    fn trace_handle() -> TraceHandle {
        Rc::new(RefCell::new(Trace::new(256)))
    }

    #[test]
    fn binds_pending_pod_to_feasible_node() {
        let mut api = api();
        make_node(&mut api, "w1", 8000);
        api.create(Channel::UserToApi, make_pod("default", "p1", 500, 0)).unwrap();
        let mut s = Scheduler::new("sched-0", SchedulerConfig::default(), &api, trace_handle());
        s.step(&mut api, 100);
        s.step(&mut api, 200);
        let pod = api.get(Kind::Pod, "default", "p1").unwrap();
        assert_eq!(pod.as_pod().unwrap().spec.node_name, "w1");
        assert_eq!(s.metrics.scheduled, 1);
    }

    #[test]
    fn spreads_by_least_allocated() {
        let mut api = api();
        make_node(&mut api, "w1", 8000);
        make_node(&mut api, "w2", 8000);
        for i in 0..4 {
            api.create(Channel::UserToApi, make_pod("default", &format!("p{i}"), 1000, 0))
                .unwrap();
        }
        let mut s = Scheduler::new("sched-0", SchedulerConfig::default(), &api, trace_handle());
        s.step(&mut api, 100);
        s.step(&mut api, 200);
        let pods = api.list(Kind::Pod, Some("default"));
        let on_w1 = pods.iter().filter(|p| p.as_pod().unwrap().spec.node_name == "w1").count();
        let on_w2 = pods.iter().filter(|p| p.as_pod().unwrap().spec.node_name == "w2").count();
        assert_eq!((on_w1, on_w2), (2, 2));
    }

    #[test]
    fn respects_capacity_and_leaves_pending() {
        let mut api = api();
        make_node(&mut api, "w1", 1000);
        api.create(Channel::UserToApi, make_pod("default", "big", 900, 0)).unwrap();
        api.create(Channel::UserToApi, make_pod("default", "big2", 900, 0)).unwrap();
        let mut s = Scheduler::new("sched-0", SchedulerConfig::default(), &api, trace_handle());
        s.step(&mut api, 100);
        s.step(&mut api, 200);
        let bound = api
            .list(Kind::Pod, Some("default"))
            .iter()
            .filter(|p| !p.as_pod().unwrap().spec.node_name.is_empty())
            .count();
        assert_eq!(bound, 1);
        assert!(s.pending_len() >= 1);
        assert!(s.metrics.unschedulable_rounds >= 1);
    }

    #[test]
    fn respects_noschedule_taints() {
        let mut api = api();
        let mut n = Node::worker("w1", 8000, 4096);
        n.add_taint("maintenance", TAINT_NO_SCHEDULE);
        api.create(Channel::KubeletToApi, Object::Node(n)).unwrap();
        api.create(Channel::UserToApi, make_pod("default", "p1", 100, 0)).unwrap();
        let mut s = Scheduler::new("sched-0", SchedulerConfig::default(), &api, trace_handle());
        s.step(&mut api, 100);
        s.step(&mut api, 200);
        let pod = api.get(Kind::Pod, "default", "p1").unwrap();
        assert!(pod.as_pod().unwrap().spec.node_name.is_empty());
    }

    #[test]
    fn preempts_lower_priority_when_full() {
        let mut api = api();
        make_node(&mut api, "w1", 1000);
        api.create(Channel::UserToApi, make_pod("default", "low", 900, 0)).unwrap();
        let mut s = Scheduler::new("sched-0", SchedulerConfig::default(), &api, trace_handle());
        s.step(&mut api, 100);
        s.step(&mut api, 200);
        // Now a high-priority pod arrives that cannot fit.
        api.create(Channel::UserToApi, make_pod("default", "high", 900, 1000)).unwrap();
        s.step(&mut api, 300);
        s.step(&mut api, 400);
        // The low-priority pod must have been preempted (deleted).
        assert!(api.get(Kind::Pod, "default", "low").is_none());
        assert!(s.metrics.preempted >= 1);
        // And the high-priority pod eventually binds.
        s.step(&mut api, 1500);
        let high = api.get(Kind::Pod, "default", "high").unwrap();
        assert_eq!(high.as_pod().unwrap().spec.node_name, "w1");
    }

    #[test]
    fn cache_mismatch_triggers_restart_and_reelection_delay() {
        let mut api = api();
        make_node(&mut api, "w1", 8000);
        api.create(Channel::UserToApi, make_pod("default", "p1", 100, 0)).unwrap();
        let mut s = Scheduler::new("sched-0", SchedulerConfig::default(), &api, trace_handle());
        s.step(&mut api, 100);
        s.step(&mut api, 200);
        assert!(s.is_leader());

        // Corrupt the binding in the store (ApiToEtcd channel bypasses
        // admission ownership rules).
        let mut pod = (*api.get(Kind::Pod, "default", "p1").unwrap()).clone();
        if let Object::Pod(p) = &mut pod {
            p.spec.node_name = "ghost-node".into();
        }
        api.update(Channel::ApiToEtcd, pod).unwrap();

        s.step(&mut api, 300);
        assert!(s.is_restarting());
        assert_eq!(s.metrics.restarts, 1);
        assert!(!s.is_leader());

        // During boot + lease wait, nothing schedules.
        api.create(Channel::UserToApi, make_pod("default", "p2", 100, 0)).unwrap();
        s.step(&mut api, 1000);
        let p2 = api.get(Kind::Pod, "default", "p2").unwrap();
        assert!(p2.as_pod().unwrap().spec.node_name.is_empty());

        // After the old lease expires (~15 s) the new incarnation leads
        // again and schedules the backlog.
        let mut t = 2500;
        while t < 40_000 {
            s.step(&mut api, t);
            t += 500;
        }
        let p2 = api.get(Kind::Pod, "default", "p2").unwrap();
        assert_eq!(p2.as_pod().unwrap().spec.node_name, "w1");
    }
}
