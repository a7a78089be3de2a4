//! # k8s-kubelet — the simulated node agent
//!
//! One kubelet per node: registers the Node object, sends heartbeats,
//! and runs the pods bound to its node through a container lifecycle state
//! machine. The campaign-relevant behaviours:
//!
//! * **heartbeats** — `status.lastHeartbeatTime` updates every 10 s; a
//!   silenced kubelet (the Figure 2 scenario) lets the node-lifecycle
//!   controller mark the node NotReady and evict its pods;
//! * **truth reassertion** — the kubelet knows each local pod's real IP
//!   and phase and rewrites corrupted status values on its periodic sync
//!   (the paper's PodIP overwrite-recovery path);
//! * **crashloop backoff** — a failing container restarts with
//!   exponentially increasing delays (the circuit breaker of §II-D);
//! * **startup dependencies** — image pullability, volume presence, and
//!   the network agent's ConfigMap are checked before a container runs,
//!   so corrupted images/commands/volumes yield ImagePullBackOff /
//!   CrashLoopBackOff / stuck-Pending pods, as in the paper's
//!   Less-Resources patterns;
//! * **node-critical admission** — when a system-node-critical pod does
//!   not fit, the kubelet evicts lower-priority pods to make room (how
//!   uncontrolled DaemonSet replication kills application pods).

use k8s_apiserver::{ApiServer, TraceHandle};
use k8s_model::{Channel, ChannelId, Kind, Node, Object, Pod, SYSTEM_NODE_CRITICAL};
use simkit::{Rng, TraceLevel};
use std::collections::BTreeMap;

/// Image prefix the simulated registry can serve; anything else fails to
/// pull (a corrupted registry host does too).
pub const PULLABLE_IMAGE_PREFIX: &str = "registry.local/";

/// Commands the simulated images can execute (entry points). A corrupted
/// command crashes the container; an empty command uses the image's
/// default entry point.
pub const KNOWN_COMMANDS: [&str; 5] = ["serve", "netagent", "kubeproxy", "coredns", "prom"];

/// Volumes that exist on every node.
pub const KNOWN_VOLUMES: [&str; 1] = ["seed-vol"];

/// Probe windows (period × failure threshold) strictly below this flap a
/// *healthy* container: the app's warm-up and request-handling jitter
/// exceed the window, so readiness toggles even though nothing is wrong —
/// the probe-misconfiguration defect class. Sane windows (the Kubernetes
/// default is 10 s × 3) never flap.
pub const AGGRESSIVE_PROBE_WINDOW_MS: u64 = 3_000;

/// Kubelet tunables.
#[derive(Debug, Clone)]
pub struct KubeletConfig {
    /// Heartbeat cadence.
    pub heartbeat_interval_ms: u64,
    /// Periodic status re-assertion cadence.
    pub sync_interval_ms: u64,
    /// Image pull latency range.
    pub image_pull_ms: (u64, u64),
    /// Container start latency range.
    pub container_start_ms: (u64, u64),
    /// Crashloop backoff base (doubles per restart).
    pub crash_backoff_base_ms: u64,
    /// Crashloop backoff cap.
    pub crash_backoff_max_ms: u64,
}

impl Default for KubeletConfig {
    fn default() -> Self {
        KubeletConfig {
            heartbeat_interval_ms: 10_000,
            sync_interval_ms: 10_000,
            image_pull_ms: (400, 1_500),
            container_start_ms: (800, 2_500),
            crash_backoff_base_ms: 1_000,
            crash_backoff_max_ms: 60_000,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum PodState {
    /// Downloading the image.
    Pulling { until: u64 },
    /// Booting the container.
    Starting { until: u64 },
    /// Up and serving.
    Running,
    /// Waiting out a failure (reason retained).
    Waiting { reason: String, until: Option<u64> },
    /// Admission failed (node out of resources).
    Rejected,
}

#[derive(Debug, Clone)]
struct LocalPod {
    state: PodState,
    ip: String,
    restart_count: i64,
    /// True when the container is doomed to crash shortly after start
    /// (corrupted command) — evaluated at admission.
    crashes: bool,
    crash_at: Option<u64>,
    /// When the container last entered Running — replayed by the status
    /// resync in case the original Running update was lost on the wire
    /// (e.g. a node blackout window).
    started_at: Option<u64>,
    /// Aggressive readiness-probe window (ms), when the pod spec carries
    /// one below [`AGGRESSIVE_PROBE_WINDOW_MS`] — the healthy container
    /// flaps in and out of Ready on this cadence.
    flappy_window_ms: Option<u64>,
    /// Readiness last written to the store (dedupes flap updates).
    reported_ready: bool,
    cpu: i64,
    mem: i64,
    priority: i64,
}

impl LocalPod {
    /// The readiness a probe would report right now: false while crashed
    /// or backing off, toggling on the flappy-window cadence when the
    /// probe is misconfigured, true otherwise.
    fn probe_ready(&self, now: u64) -> bool {
        if self.crash_at.is_some() {
            return false;
        }
        match (self.flappy_window_ms, self.started_at) {
            (Some(w), Some(started)) if w > 0 => (now.saturating_sub(started) / w) % 2 == 0,
            _ => true,
        }
    }

    /// True when [`Kubelet::advance`] has a transition to make at `now`: a
    /// pull, boot or backoff deadline passed, a doomed container reached
    /// its crash time, or a misconfigured probe flipped readiness. A
    /// healthy Running pod (and a Rejected or indefinitely Waiting one) is
    /// never due.
    fn due(&self, now: u64) -> bool {
        match self.state {
            PodState::Pulling { until }
            | PodState::Starting { until }
            | PodState::Waiting { until: Some(until), .. } => now >= until,
            PodState::Running => match self.crash_at {
                Some(crash_at) => now >= crash_at,
                None => {
                    self.flappy_window_ms.is_some()
                        && self.probe_ready(now) != self.reported_ready
                }
            },
            PodState::Waiting { until: None, .. } | PodState::Rejected => false,
        }
    }
}

/// Counters exposed to the failure classifiers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KubeletMetrics {
    /// Containers started.
    pub started: u64,
    /// Container crashes observed.
    pub crashes: u64,
    /// Pods rejected for lack of resources.
    pub rejected: u64,
    /// Pods evicted locally to admit critical pods.
    pub critical_evictions: u64,
    /// Status writes that corrected a divergent stored status.
    pub status_corrections: u64,
    /// Readiness transitions caused by misconfigured (aggressive) probes.
    pub probe_flaps: u64,
}

/// The simulated kubelet.
#[derive(Clone)]
pub struct Kubelet {
    /// Node this kubelet manages.
    pub node_name: String,
    /// This kubelet's own wire identity
    /// (`kubelet->apiserver@<node>`) — every request it sends carries
    /// it, so node-level faults can target exactly one node.
    pub channel: ChannelId,
    node_index: u32,
    cpu_capacity: i64,
    mem_capacity: i64,
    cursor: u64,
    cfg: KubeletConfig,
    pods: BTreeMap<String, LocalPod>,
    next_heartbeat: u64,
    next_sync: u64,
    /// Heartbeat/report switch: scenario hooks silence the kubelet to
    /// model the Figure 2 heartbeat blackout.
    pub healthy: bool,
    registered: bool,
    ip_counter: u32,
    /// Metrics exposed to the classifiers.
    pub metrics: KubeletMetrics,
    trace: TraceHandle,
    rng: Rng,
}

impl std::fmt::Debug for Kubelet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kubelet")
            .field("node", &self.node_name)
            .field("pods", &self.pods.len())
            .field("healthy", &self.healthy)
            .finish()
    }
}

impl Kubelet {
    /// Creates a kubelet for `node_name` with the given capacity.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        node_name: &str,
        node_index: u32,
        cpu_milli: i64,
        memory_mb: i64,
        cfg: KubeletConfig,
        api: &ApiServer,
        trace: TraceHandle,
        rng: Rng,
    ) -> Kubelet {
        Kubelet {
            node_name: node_name.to_owned(),
            channel: ChannelId::node_scoped(Channel::KubeletToApi, node_name),
            node_index,
            cpu_capacity: cpu_milli,
            mem_capacity: memory_mb,
            cursor: api.watch_head(),
            cfg,
            pods: BTreeMap::new(),
            next_heartbeat: 0,
            next_sync: 0,
            healthy: true,
            registered: false,
            ip_counter: 1,
            metrics: KubeletMetrics::default(),
            trace,
            rng,
        }
    }

    /// The pod CIDR this node announces.
    pub fn pod_cidr(&self) -> String {
        format!("10.244.{}.0/24", self.node_index)
    }

    /// The node's own address.
    pub fn internal_ip(&self) -> String {
        format!("192.168.1.{}", 10 + self.node_index)
    }

    /// Number of pods currently managed.
    pub fn pod_count(&self) -> usize {
        self.pods.len()
    }

    fn log(&self, now: u64, level: TraceLevel, msg: String) {
        self.trace.borrow_mut().log(now, level, format!("kubelet/{}", self.node_name), msg);
    }

    /// Runs one kubelet step at simulated time `now`.
    /// Repoints the shared trace buffer (fork-the-world gives each forked
    /// run its own trace so siblings never interleave log lines).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    pub fn step(&mut self, api: &mut ApiServer, now: u64) {
        // Register (or re-register) the Node object.
        if api.get(Kind::Node, "", &self.node_name).is_none() {
            let mut node = Node::worker(&self.node_name, self.cpu_capacity, self.mem_capacity);
            node.spec.pod_cidr = self.pod_cidr();
            node.status.internal_ip = self.internal_ip();
            node.status.last_heartbeat = now as i64;
            if api.create(self.channel, Object::Node(node)).is_ok() {
                self.registered = true;
                self.log(now, TraceLevel::Info, "node registered".to_owned());
            }
        }

        // Heartbeat.
        if self.healthy && now >= self.next_heartbeat {
            self.next_heartbeat = now + self.cfg.heartbeat_interval_ms;
            if let Some(Object::Node(node)) = api.get(Kind::Node, "", &self.node_name).as_deref() {
                let mut node = node.clone();
                node.status.last_heartbeat = now as i64;
                node.status.ready = true;
                mutiny_telemetry::counter_add("kubelet.heartbeats", 1);
                let _ = api.update(self.channel, Object::Node(node));
            }
        }

        // Watch events: pods bound to this node appear and disappear.
        let (events, next) = api.poll_events(self.cursor);
        self.cursor = next;
        for ev in events {
            if ev.kind != Kind::Pod {
                continue;
            }
            match ev.object.as_deref() {
                Some(Object::Pod(pod)) => {
                    if pod.spec.node_name == self.node_name && !pod.metadata.is_terminating() {
                        if !self.pods.contains_key(&*ev.key) {
                            self.admit(api, now, &ev.key, pod);
                        }
                    } else if self.pods.contains_key(&*ev.key)
                        && pod.spec.node_name != self.node_name
                    {
                        // Rebound elsewhere (corruption): stop the local copy.
                        self.pods.remove(&*ev.key);
                    }
                }
                Some(_) => {}
                None => {
                    self.pods.remove(&*ev.key);
                }
            }
        }

        // Advance the local lifecycles that have a transition due, in key
        // order (RNG draws and status writes happen in that order). An
        // idle tick finds none and allocates nothing.
        let due: Vec<String> = self
            .pods
            .iter()
            .filter(|(_, local)| local.due(now))
            .map(|(key, _)| key.clone())
            .collect();
        for key in due {
            self.advance(api, now, &key);
        }

        // Periodic status re-assertion (overwrite-recovery path).
        if self.healthy && now >= self.next_sync {
            self.next_sync = now + self.cfg.sync_interval_ms;
            self.resync_statuses(api, now);
        }
    }

    fn admit(&mut self, api: &mut ApiServer, now: u64, key: &str, pod: &Pod) {
        let cpu = pod.cpu_request();
        let mem = pod.memory_request();
        let (cpu_used, mem_used) = self.local_usage();
        let fits = cpu_used + cpu <= self.cpu_capacity && mem_used + mem <= self.mem_capacity;

        if !fits && pod.spec.priority >= SYSTEM_NODE_CRITICAL {
            // Node-critical admission: evict lower-priority pods.
            self.evict_for_critical(api, now, cpu, mem, pod.spec.priority);
        }
        let (cpu_used, mem_used) = self.local_usage();
        if cpu_used + cpu > self.cpu_capacity || mem_used + mem > self.mem_capacity {
            self.metrics.rejected = self.metrics.rejected.saturating_add(1);
            self.log(now, TraceLevel::Warn, format!("rejecting pod {key}: out of resources"));
            let mut rejected = pod.clone();
            rejected.status.phase = "Failed".into();
            rejected.status.reason = "OutOfcpu".into();
            rejected.status.ready = false;
            let _ = api.update(self.channel, Object::Pod(rejected));
            self.pods.insert(
                key.to_owned(),
                LocalPod {
                    state: PodState::Rejected,
                    ip: String::new(),
                    restart_count: 0,
                    crashes: false,
                    crash_at: None,
                    started_at: None,
                    flappy_window_ms: None,
                    reported_ready: false,
                    cpu: 0,
                    mem: 0,
                    priority: pod.spec.priority,
                },
            );
            return;
        }

        // Startup dependency checks.
        let image_ok = pod
            .spec
            .containers
            .iter()
            .all(|c| c.image.starts_with(PULLABLE_IMAGE_PREFIX));
        let volume_ok =
            pod.spec.volume.is_empty() || KNOWN_VOLUMES.contains(&pod.spec.volume.as_str());
        let command_crashes = pod.spec.containers.iter().any(|c| {
            !c.command.is_empty() && !KNOWN_COMMANDS.contains(&c.command[0].as_str())
        }) || self.netagent_config_broken(api, pod);
        // A limit below the request throttles the container under its own
        // floor: it starts, then crash-loops — the cfg-resources defect.
        let doomed = command_crashes || pod.request_exceeds_limit();
        let flappy_window_ms =
            pod.probe_window_ms().filter(|&w| w < AGGRESSIVE_PROBE_WINDOW_MS);

        let mut local = LocalPod {
            state: PodState::Pulling { until: now },
            ip: String::new(),
            restart_count: pod.status.restart_count,
            crashes: doomed,
            crash_at: None,
            started_at: None,
            flappy_window_ms,
            reported_ready: false,
            cpu,
            mem,
            priority: pod.spec.priority,
        };

        if !image_ok {
            self.log(now, TraceLevel::Warn, format!("pod {key}: image pull error"));
            local.state = PodState::Waiting { reason: "ImagePullBackOff".into(), until: None };
            self.write_waiting_status(api, pod, "ImagePullBackOff");
        } else if !volume_ok {
            self.log(now, TraceLevel::Warn, format!("pod {key}: volume not found"));
            local.state = PodState::Waiting { reason: "VolumeNotFound".into(), until: None };
            self.write_waiting_status(api, pod, "ContainerCreating");
        } else {
            let (lo, hi) = self.cfg.image_pull_ms;
            local.state = PodState::Pulling { until: now + self.rng.range(lo, hi) };
        }
        self.pods.insert(key.to_owned(), local);
    }

    /// The network agent reads its ConfigMap at startup; a corrupted
    /// backend value crashes it (cluster-wide network failure material).
    fn netagent_config_broken(&self, api: &mut ApiServer, pod: &Pod) -> bool {
        let is_netagent =
            pod.spec.containers.iter().any(|c| c.command.first().map(String::as_str) == Some("netagent"));
        if !is_netagent {
            return false;
        }
        match api.get(Kind::ConfigMap, "kube-system", "net-conf").as_deref() {
            Some(Object::ConfigMap(cm)) => {
                !matches!(cm.data.get("backend").map(String::as_str), Some("vxlan") | Some("host-gw"))
            }
            _ => true,
        }
    }

    fn evict_for_critical(
        &mut self,
        api: &mut ApiServer,
        now: u64,
        need_cpu: i64,
        need_mem: i64,
        priority: i64,
    ) {
        let mut victims: Vec<(String, i64, i64, i64)> = self
            .pods
            .iter()
            .filter(|(_, lp)| lp.priority < priority && !matches!(lp.state, PodState::Rejected))
            .map(|(k, lp)| (k.clone(), lp.priority, lp.cpu, lp.mem))
            .collect();
        victims.sort_by_key(|(_, p, _, _)| *p);
        let (mut cpu_used, mut mem_used) = self.local_usage();
        for (key, _, cpu, mem) in victims {
            if cpu_used + need_cpu <= self.cpu_capacity && mem_used + need_mem <= self.mem_capacity
            {
                break;
            }
            self.log(now, TraceLevel::Warn, format!("evicting {key} for critical pod"));
            if let Some((ns, name)) = split_pod_key(&key) {
                let _ = api.delete(self.channel, Kind::Pod, &ns, &name);
            }
            self.pods.remove(&key);
            self.metrics.critical_evictions = self.metrics.critical_evictions.saturating_add(1);
            cpu_used -= cpu;
            mem_used -= mem;
        }
    }

    fn local_usage(&self) -> (i64, i64) {
        let cpu = self.pods.values().filter(|p| !matches!(p.state, PodState::Rejected)).map(|p| p.cpu).sum();
        let mem = self.pods.values().filter(|p| !matches!(p.state, PodState::Rejected)).map(|p| p.mem).sum();
        (cpu, mem)
    }

    /// Makes the one lifecycle transition [`LocalPod::due`] says is due
    /// for `key` (a no-op when none is).
    fn advance(&mut self, api: &mut ApiServer, now: u64, key: &str) {
        let Some(local) = self.pods.get(key).filter(|lp| lp.due(now)).cloned() else { return };
        let Some((ns, name)) = split_pod_key(key) else { return };

        match local.state {
            PodState::Pulling { .. } | PodState::Waiting { .. } => {
                // Image pulled, or backoff served: boot the container.
                let (lo, hi) = self.cfg.container_start_ms;
                let until = now + self.rng.range(lo, hi);
                if let Some(lp) = self.pods.get_mut(key) {
                    lp.state = PodState::Starting { until };
                }
            }
            PodState::Starting { .. } => {
                // Container is up: allocate the IP and report Running.
                let ip = if local.ip.is_empty() {
                    let ip = format!("10.244.{}.{}", self.node_index, self.ip_counter);
                    self.ip_counter = self.ip_counter.wrapping_add(1).max(1);
                    ip
                } else {
                    local.ip.clone()
                };
                let crash_at = local.crashes.then(|| now + 800 + self.rng.below(700));
                if let Some(lp) = self.pods.get_mut(key) {
                    lp.state = PodState::Running;
                    lp.ip = ip.clone();
                    lp.crash_at = crash_at;
                    lp.started_at = Some(now);
                    lp.reported_ready = !local.crashes;
                }
                self.metrics.started = self.metrics.started.saturating_add(1);
                if let Some(Object::Pod(pod)) = api.get(Kind::Pod, &ns, &name).as_deref() {
                    let mut pod = pod.clone();
                    pod.status.phase = "Running".into();
                    pod.status.ready = !local.crashes;
                    pod.status.pod_ip = ip;
                    pod.status.start_time = now as i64;
                    pod.status.restart_count = local.restart_count;
                    pod.status.reason.clear();
                    let _ = api.update(self.channel, Object::Pod(pod));
                }
            }
            PodState::Running if local.crash_at.is_none() => {
                // Misconfigured probe: the healthy container toggles
                // Ready on the (too-short) probe-window cadence.
                let ready = local.probe_ready(now);
                self.metrics.probe_flaps = self.metrics.probe_flaps.saturating_add(1);
                if let Some(lp) = self.pods.get_mut(key) {
                    lp.reported_ready = ready;
                }
                if let Some(Object::Pod(pod)) = api.get(Kind::Pod, &ns, &name).as_deref() {
                    let mut pod = pod.clone();
                    pod.status.ready = ready;
                    pod.status.reason = if ready { String::new() } else { "Unhealthy".into() };
                    let _ = api.update(self.channel, Object::Pod(pod));
                }
            }
            PodState::Running => {
                // Crash: back off exponentially (circuit breaker).
                self.metrics.crashes = self.metrics.crashes.saturating_add(1);
                mutiny_telemetry::counter_add("kubelet.pod_restarts", 1);
                let restarts = local.restart_count + 1;
                let backoff = (self.cfg.crash_backoff_base_ms
                    << (restarts - 1).clamp(0, 16) as u32)
                    .min(self.cfg.crash_backoff_max_ms);
                self.log(
                    now,
                    TraceLevel::Warn,
                    format!("pod {key} crashed (restart {restarts}); backoff {backoff} ms"),
                );
                if let Some(lp) = self.pods.get_mut(key) {
                    lp.state = PodState::Waiting {
                        reason: "CrashLoopBackOff".into(),
                        until: Some(now + backoff),
                    };
                    lp.restart_count = restarts;
                }
                if let Some(Object::Pod(pod)) = api.get(Kind::Pod, &ns, &name).as_deref() {
                    let mut pod = pod.clone();
                    pod.status.ready = false;
                    pod.status.restart_count = restarts;
                    pod.status.reason = "CrashLoopBackOff".into();
                    let _ = api.update(self.channel, Object::Pod(pod));
                }
            }
            PodState::Rejected => {}
        }
    }

    fn write_waiting_status(&self, api: &mut ApiServer, pod: &Pod, reason: &str) {
        let mut p = pod.clone();
        p.status.phase = "Pending".into();
        p.status.ready = false;
        p.status.reason = reason.into();
        let _ = api.update(self.channel, Object::Pod(p));
    }

    /// Re-asserts the true status of every local pod, correcting any
    /// stored value that diverged (e.g. a corrupted PodIP).
    fn resync_statuses(&mut self, api: &mut ApiServer, now: u64) {
        let entries: Vec<(String, LocalPod)> =
            self.pods.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        for (key, local) in entries {
            let Some((ns, name)) = split_pod_key(&key) else { continue };
            let Some(pod_obj) = api.get(Kind::Pod, &ns, &name) else {
                self.pods.remove(&key);
                continue;
            };
            let Object::Pod(pod) = &*pod_obj else {
                self.pods.remove(&key);
                continue;
            };
            if pod.spec.node_name != self.node_name {
                self.pods.remove(&key);
                continue;
            }
            if let PodState::Running = local.state {
                let truth_ready = local.probe_ready(now);
                let truth_started = local.started_at.map(|t| t as i64);
                let start_time_diverged =
                    truth_started.is_some_and(|t| pod.status.start_time != t);
                if pod.status.pod_ip != local.ip
                    || pod.status.phase != "Running"
                    || pod.status.ready != truth_ready
                    || start_time_diverged
                {
                    let mut fixed = pod.clone();
                    fixed.status.phase = "Running".into();
                    fixed.status.ready = truth_ready;
                    fixed.status.pod_ip = local.ip.clone();
                    fixed.status.restart_count = local.restart_count;
                    if let Some(t) = truth_started {
                        fixed.status.start_time = t;
                    }
                    if api.update(self.channel, Object::Pod(fixed)).is_ok() {
                        if let Some(lp) = self.pods.get_mut(&key) {
                            lp.reported_ready = truth_ready;
                        }
                        self.metrics.status_corrections = self.metrics.status_corrections.saturating_add(1);
                        self.log(
                            now,
                            TraceLevel::Info,
                            format!("corrected divergent status of {key}"),
                        );
                    }
                }
            }
        }
    }

    /// Restarts the kubelet after a blackout: a fresh watch cursor plus a
    /// full re-list of the pods bound to this node, the node-level
    /// counterpart of the apiserver's crash-recovery cache rebuild.
    /// Containers are not restarted — they survive a kubelet restart, as
    /// on a real node — but local pods deleted from the store while the
    /// kubelet was dark are dropped, pods bound in the meantime are
    /// admitted, and the next heartbeat/status resync fires immediately
    /// (the status replay that repairs divergence accumulated during the
    /// blackout).
    pub fn restart(&mut self, api: &mut ApiServer, now: u64) {
        self.cursor = api.watch_head();
        let mut bound: BTreeMap<String, Pod> = BTreeMap::new();
        for obj in api.list(Kind::Pod, None) {
            if let Object::Pod(pod) = &*obj {
                if pod.spec.node_name == self.node_name && !pod.metadata.is_terminating() {
                    let key = k8s_model::registry_key(
                        Kind::Pod,
                        &pod.metadata.namespace,
                        &pod.metadata.name,
                    );
                    bound.insert(key, pod.clone());
                }
            }
        }
        self.pods.retain(|key, _| bound.contains_key(key));
        for (key, pod) in &bound {
            if !self.pods.contains_key(key) {
                self.admit(api, now, key, pod);
            }
        }
        self.healthy = true;
        self.next_heartbeat = now;
        self.next_sync = now;
        self.log(now, TraceLevel::Warn, "kubelet restarted: re-listed bound pods".to_owned());
    }

    /// The true IP of a local pod, if it is running (used by the traffic
    /// engine to verify endpoint addresses point somewhere real).
    pub fn running_pod_ip(&self, key: &str) -> Option<&str> {
        match self.pods.get(key) {
            Some(LocalPod { state: PodState::Running, ip, crash_at: None, .. }) => Some(ip),
            _ => None,
        }
    }
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

    fn kubelet(api: &ApiServer) -> Kubelet {
        Kubelet::new(
            "w1",
            1,
            8000,
            4096,
            KubeletConfig::default(),
            api,
            Rc::new(RefCell::new(Trace::new(256))),
            Rng::new(7),
        )
    }

    fn bound_pod(name: &str, image: &str, command: &[&str]) -> Object {
        let mut p = Pod::default();
        p.metadata = ObjectMeta::named("default", name);
        p.spec.node_name = "w1".into();
        p.spec.containers.push(Container {
            name: "c".into(),
            image: image.into(),
            command: command.iter().map(|s| s.to_string()).collect(),
            cpu_milli: 500,
            memory_mb: 256,
            port: 8080,
            ..Default::default()
        });
        Object::Pod(p)
    }

    fn run_until(kl: &mut Kubelet, api: &mut ApiServer, from: u64, to: u64) {
        let mut t = from;
        while t <= to {
            kl.step(api, t);
            t += 200;
        }
    }

    #[test]
    fn registers_node_and_heartbeats() {
        let mut api = api();
        let mut kl = kubelet(&api);
        kl.step(&mut api, 0);
        let node = api.get(Kind::Node, "", "w1").unwrap();
        assert!(node.as_pod().is_none());
        kl.step(&mut api, 10_500);
        if let Object::Node(n) = &*api.get(Kind::Node, "", "w1").unwrap() {
            assert!(n.status.last_heartbeat >= 10_000);
            assert!(n.status.ready);
            assert_eq!(n.spec.pod_cidr, "10.244.1.0/24");
        } else {
            panic!("node missing");
        }
    }

    #[test]
    fn runs_bound_pod_to_ready_with_ip() {
        let mut api = api();
        let mut kl = kubelet(&api);
        kl.step(&mut api, 0);
        api.create(Channel::UserToApi, bound_pod("p1", "registry.local/web:1.0", &["serve"]))
            .unwrap();
        run_until(&mut kl, &mut api, 200, 6_000);
        let pod = api.get(Kind::Pod, "default", "p1").unwrap();
        let p = pod.as_pod().unwrap();
        assert_eq!(p.status.phase, "Running");
        assert!(p.status.ready);
        assert!(p.status.pod_ip.starts_with("10.244.1."));
    }

    #[test]
    fn bad_image_never_becomes_ready() {
        let mut api = api();
        let mut kl = kubelet(&api);
        kl.step(&mut api, 0);
        api.create(Channel::ApiToEtcd, bound_pod("p1", "registry.lockl/web:1.0", &["serve"]))
            .unwrap();
        run_until(&mut kl, &mut api, 200, 8_000);
        let pod = api.get(Kind::Pod, "default", "p1").unwrap();
        let p = pod.as_pod().unwrap();
        assert!(!p.status.ready);
        assert_eq!(p.status.reason, "ImagePullBackOff");
    }

    #[test]
    fn corrupted_command_crashloops_with_backoff() {
        let mut api = api();
        let mut kl = kubelet(&api);
        kl.step(&mut api, 0);
        api.create(Channel::UserToApi, bound_pod("p1", "registry.local/web:1.0", &["serwe"]))
            .unwrap();
        run_until(&mut kl, &mut api, 200, 30_000);
        let pod = api.get(Kind::Pod, "default", "p1").unwrap();
        let p = pod.as_pod().unwrap();
        assert!(p.status.restart_count >= 2, "restarts: {}", p.status.restart_count);
        assert!(!p.status.ready);
        assert!(kl.metrics.crashes >= 2);
        // Backoff must slow restarts down: crashes are far fewer than the
        // number of steps.
        assert!(kl.metrics.crashes < 10);
    }

    #[test]
    fn corrupted_pod_ip_is_overwritten_on_sync() {
        let mut api = api();
        let mut kl = kubelet(&api);
        kl.step(&mut api, 0);
        api.create(Channel::UserToApi, bound_pod("p1", "registry.local/web:1.0", &["serve"]))
            .unwrap();
        run_until(&mut kl, &mut api, 200, 6_000);
        // Corrupt the stored PodIP via the store channel.
        let mut pod = (*api.get(Kind::Pod, "default", "p1").unwrap()).clone();
        let true_ip = pod.as_pod().unwrap().status.pod_ip.clone();
        if let Object::Pod(p) = &mut pod {
            p.status.pod_ip = "10.99.99.99".into();
        }
        api.update(Channel::ApiToEtcd, pod).unwrap();
        // The periodic sync re-asserts the truth.
        run_until(&mut kl, &mut api, 6_200, 20_000);
        let pod = api.get(Kind::Pod, "default", "p1").unwrap();
        assert_eq!(pod.as_pod().unwrap().status.pod_ip, true_ip);
        assert!(kl.metrics.status_corrections >= 1);
    }

    #[test]
    fn rejects_pod_that_does_not_fit() {
        let mut api = api();
        let mut kl = kubelet(&api);
        kl.step(&mut api, 0);
        let mut big = bound_pod("big", "registry.local/web:1.0", &["serve"]);
        if let Object::Pod(p) = &mut big {
            p.spec.containers[0].cpu_milli = 9_000;
        }
        api.create(Channel::ApiToEtcd, big).unwrap();
        run_until(&mut kl, &mut api, 200, 2_000);
        let pod = api.get(Kind::Pod, "default", "big").unwrap();
        assert_eq!(pod.as_pod().unwrap().status.phase, "Failed");
        assert_eq!(kl.metrics.rejected, 1);
    }

    #[test]
    fn critical_pod_evicts_lower_priority() {
        let mut api = api();
        let mut kl = kubelet(&api);
        kl.step(&mut api, 0);
        // Fill the node with an app pod.
        let mut app = bound_pod("app", "registry.local/web:1.0", &["serve"]);
        if let Object::Pod(p) = &mut app {
            p.spec.containers[0].cpu_milli = 7_000;
        }
        api.create(Channel::UserToApi, app).unwrap();
        run_until(&mut kl, &mut api, 200, 6_000);
        assert!(api.get(Kind::Pod, "default", "app").is_some());
        // A node-critical pod arrives that does not fit.
        let mut crit = bound_pod("crit", "registry.local/netagent:1.0", &["serve"]);
        if let Object::Pod(p) = &mut crit {
            p.spec.containers[0].cpu_milli = 2_000;
            p.spec.priority = SYSTEM_NODE_CRITICAL;
        }
        api.create(Channel::ApiToEtcd, crit).unwrap();
        run_until(&mut kl, &mut api, 6_200, 12_000);
        assert!(api.get(Kind::Pod, "default", "app").is_none(), "app pod must be evicted");
        assert!(kl.metrics.critical_evictions >= 1);
        let crit = api.get(Kind::Pod, "default", "crit").unwrap();
        assert_eq!(crit.as_pod().unwrap().status.phase, "Running");
    }

    #[test]
    fn request_over_limit_crashloops() {
        // The cfg-resources defect: a valid spec whose limit sits below
        // its request starts, then crash-loops under throttling.
        let mut api = api();
        let mut kl = kubelet(&api);
        kl.step(&mut api, 0);
        let mut pod = bound_pod("p1", "registry.local/web:1.0", &["serve"]);
        if let Object::Pod(p) = &mut pod {
            p.spec.containers[0].cpu_limit_milli = 100; // below the 500m request
        }
        api.create(Channel::UserToApi, pod).unwrap();
        run_until(&mut kl, &mut api, 200, 30_000);
        let pod = api.get(Kind::Pod, "default", "p1").unwrap();
        let p = pod.as_pod().unwrap();
        assert!(!p.status.ready);
        assert!(p.status.restart_count >= 1, "restarts: {}", p.status.restart_count);
        assert!(kl.metrics.crashes >= 1);
    }

    #[test]
    fn aggressive_probe_flaps_a_healthy_pod() {
        // The cfg-probe defect: 1 s × 1 failure probing flaps a pod that
        // is actually fine; sane (default) probing never does.
        let mut api = api();
        let mut kl = kubelet(&api);
        kl.step(&mut api, 0);
        let mut pod = bound_pod("p1", "registry.local/web:1.0", &["serve"]);
        if let Object::Pod(p) = &mut pod {
            p.spec.probe_period_seconds = 1;
            p.spec.probe_failure_threshold = 1;
        }
        api.create(Channel::UserToApi, pod).unwrap();
        run_until(&mut kl, &mut api, 200, 30_000);
        assert!(kl.metrics.probe_flaps >= 4, "flaps: {}", kl.metrics.probe_flaps);
        assert_eq!(kl.metrics.crashes, 0, "flapping is not crashing");

        // A sane probe window (above the aggressive bound) never flaps.
        let mut api = tests::api();
        let mut kl = kubelet(&api);
        kl.step(&mut api, 0);
        let mut sane = bound_pod("p2", "registry.local/web:1.0", &["serve"]);
        if let Object::Pod(p) = &mut sane {
            p.spec.probe_period_seconds = 10;
            p.spec.probe_failure_threshold = 3;
        }
        api.create(Channel::UserToApi, sane).unwrap();
        run_until(&mut kl, &mut api, 200, 30_000);
        assert_eq!(kl.metrics.probe_flaps, 0, "sane probe flapped");
        let pod = api.get(Kind::Pod, "default", "p2").unwrap();
        assert!(pod.as_pod().unwrap().status.ready);
    }

    /// The ticks (200 ms apart, up to `to`) at which `probe` changed.
    fn ticks_where_changed(
        kl: &mut Kubelet,
        api: &mut ApiServer,
        to: u64,
        probe: impl Fn(&Kubelet) -> u64,
    ) -> Vec<u64> {
        let mut ticks = Vec::new();
        let mut t = 200;
        while t <= to {
            let before = probe(kl);
            kl.step(api, t);
            if probe(kl) != before {
                ticks.push(t);
            }
            t += 200;
        }
        ticks
    }

    #[test]
    fn idle_steps_between_heartbeats_write_nothing() {
        let mut api = api();
        let mut kl = kubelet(&api);
        kl.step(&mut api, 0);
        for name in ["p1", "p2", "p3"] {
            api.create(Channel::UserToApi, bound_pod(name, "registry.local/web:1.0", &["serve"]))
                .unwrap();
        }
        // Past start-up and past the 10 s heartbeat + status resync.
        run_until(&mut kl, &mut api, 200, 10_200);
        for name in ["p1", "p2", "p3"] {
            assert!(api.get(Kind::Pod, "default", name).unwrap().as_pod().unwrap().status.ready);
        }
        let (requests, revision) = (api.audit().records().len(), api.etcd().revision());
        let metrics = kl.metrics;
        // 1 000 steps inside the quiet window before the next heartbeat.
        for t in 10_201..11_201 {
            kl.step(&mut api, t);
        }
        assert_eq!(api.audit().records().len(), requests, "an idle step sent a request");
        assert_eq!(api.etcd().revision(), revision);
        assert_eq!(kl.metrics, metrics);
    }

    #[test]
    fn pods_due_on_the_same_tick_advance_in_key_order() {
        // Both pods finish pulling on the same tick (fixed pull time) and
        // were admitted in reverse key order; their boot latencies must
        // be drawn, and their status writes sent, in key order.
        // A registered kubelet with a fixed pull time, and the two pods
        // created in reverse key order.
        let world = |container_start_ms| {
            let mut api = tests::api();
            let cfg = KubeletConfig {
                image_pull_ms: (400, 400),
                container_start_ms,
                ..KubeletConfig::default()
            };
            let trace = Rc::new(RefCell::new(Trace::new(256)));
            let mut kl = Kubelet::new("w1", 1, 8000, 4096, cfg, &api, trace, Rng::new(7));
            kl.step(&mut api, 0);
            for name in ["pb", "pa"] {
                let pod = bound_pod(name, "registry.local/web:1.0", &["serve"]);
                api.create(Channel::UserToApi, pod).unwrap();
            }
            (api, kl)
        };
        let start_time = |api: &mut ApiServer, name: &str| {
            api.get(Kind::Pod, "default", name).unwrap().as_pod().unwrap().status.start_time
        };

        // Random boot latency: each pod starts when *its* draw says.
        let (mut api, mut kl) = world((800, 2_500));
        run_until(&mut kl, &mut api, 200, 4_000);
        let mut rng = Rng::new(7);
        rng.range(400, 400); // `pb`'s pull, drawn at admission
        rng.range(400, 400); // `pa`'s
        // Admitted at 200, pulled at 600: `pa` draws first, then `pb`;
        // a container is reported up on the first tick past its boot.
        let up = |boot: u64| (600 + boot).div_ceil(200) * 200;
        let (boot_a, boot_b) = (rng.range(800, 2_500), rng.range(800, 2_500));
        assert_ne!(up(boot_a), up(boot_b), "pick a seed whose draws tell the order apart");
        assert_eq!(start_time(&mut api, "pa"), up(boot_a) as i64);
        assert_eq!(start_time(&mut api, "pb"), up(boot_b) as i64);

        // Fixed boot latency: both report Running on the same tick, `pa`
        // before `pb`.
        let (mut api, mut kl) = world((800, 800));
        for t in (200..=4_000).step_by(200) {
            api.set_now(t); // the audit log stamps the apiserver's clock
            kl.step(&mut api, t);
        }
        let running: Vec<(u64, &str)> = api
            .audit()
            .records()
            .iter()
            .filter(|r| r.channel == kl.channel && r.kind == Kind::Pod)
            .map(|r| (r.at, &*r.key))
            .collect();
        assert_eq!(
            running,
            [(1_400, "/registry/pods/default/pa"), (1_400, "/registry/pods/default/pb")]
        );
    }

    #[test]
    fn crashloop_and_probe_flaps_keep_their_ticks() {
        // The due-pod filter must not move any transition: these tick
        // numbers were read off the every-pod-every-tick loop it replaced.
        let mut api = api();
        let mut kl = kubelet(&api);
        kl.step(&mut api, 0);
        api.create(Channel::UserToApi, bound_pod("p1", "registry.local/web:1.0", &["serwe"]))
            .unwrap();
        let crashes = ticks_where_changed(&mut kl, &mut api, 30_000, |k| k.metrics.crashes);
        assert_eq!(crashes, [3_800, 7_800, 12_400, 18_800, 29_400]);

        let mut api = tests::api();
        let mut kl = kubelet(&api);
        kl.step(&mut api, 0);
        let mut pod = bound_pod("p1", "registry.local/web:1.0", &["serve"]);
        if let Object::Pod(p) = &mut pod {
            p.spec.probe_period_seconds = 1;
            p.spec.probe_failure_threshold = 1;
        }
        api.create(Channel::UserToApi, pod).unwrap();
        let flaps = ticks_where_changed(&mut kl, &mut api, 12_000, |k| k.metrics.probe_flaps);
        assert_eq!(flaps, [3_200, 4_200, 5_200, 6_200, 7_200, 8_200, 9_200, 10_200, 11_200]);
    }

    #[test]
    fn unknown_volume_blocks_startup() {
        let mut api = api();
        let mut kl = kubelet(&api);
        kl.step(&mut api, 0);
        let mut pod = bound_pod("p1", "registry.local/web:1.0", &["serve"]);
        if let Object::Pod(p) = &mut pod {
            p.spec.volume = "seed-vom".into(); // one corrupted bit
        }
        api.create(Channel::ApiToEtcd, pod).unwrap();
        run_until(&mut kl, &mut api, 200, 8_000);
        let pod = api.get(Kind::Pod, "default", "p1").unwrap();
        assert!(!pod.as_pod().unwrap().status.ready);
        assert_eq!(pod.as_pod().unwrap().status.phase, "Pending");
    }
}
