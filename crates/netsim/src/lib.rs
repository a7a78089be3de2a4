//! # k8s-netsim — simulated cluster networking and client traffic
//!
//! Models the networking stack the paper's Net/Out failures flow through:
//!
//! * a **network-manager DaemonSet** (flannel-like): each node's agent pod
//!   programs routes to every other node's pod CIDR; when the agent pod is
//!   down (deleted, crashlooping, preempted) that node's routes go stale,
//!   and a cluster-wide agent failure is a cluster-wide network outage —
//!   the Reddit Pi-Day pattern;
//! * a **kube-proxy DaemonSet**: each node's proxy programs the service
//!   VIP table from Services and Endpoints; staleness and corrupted
//!   selectors/ports/addresses surface here;
//! * **coreDNS**: name resolution is available while at least one DNS pod
//!   is ready; apps with `needsDns` fail without it (the paper notes its
//!   app did *not* require DNS, which is why some Outages left response
//!   times intact — we keep that configurable);
//! * a **traffic engine**: evaluates each client request against routes,
//!   proxy state, endpoint truthfulness, port agreement and per-pod load,
//!   yielding latency, connection-refused, or timeout outcomes.

use k8s_apiserver::ApiServer;
use k8s_model::validate::{is_cidr, is_ipv4};
use k8s_model::{Kind, Node, Object, Pod};
use simkit::Rng;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// The outcome of one client request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestOutcome {
    /// Served within the timeout.
    Ok {
        /// End-to-end latency in milliseconds.
        latency_ms: f64,
    },
    /// Connection refused (no VIP, no backends, port mismatch).
    Refused,
    /// Packets blackholed or server overloaded past the client timeout.
    Timeout,
    /// Name resolution failed (app requires DNS and DNS is down).
    DnsFailure,
}

impl RequestOutcome {
    /// True for any failed outcome.
    pub fn is_failure(&self) -> bool {
        !matches!(self, RequestOutcome::Ok { .. })
    }
}

/// Traffic engine tunables.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Network round-trip base latency.
    pub base_latency_ms: f64,
    /// Mean request processing time in the app pod.
    pub proc_ms: f64,
    /// Processing-time standard deviation.
    pub proc_jitter_ms: f64,
    /// Requests/second one pod sustains before queueing delays kick in.
    pub pod_capacity_rps: f64,
    /// Client-side timeout.
    pub client_timeout_ms: f64,
    /// Publish per-service request rates into the `service-load` ConfigMap
    /// on every refresh (the metric source for the autoscaler controller).
    /// Off by default: the paper's campaign runs without an autoscaler.
    pub publish_metrics: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            base_latency_ms: 12.0,
            proc_ms: 8.0,
            proc_jitter_ms: 2.0,
            pod_capacity_rps: 15.0,
            client_timeout_ms: 1_000.0,
            publish_metrics: false,
        }
    }
}

/// Counters exposed to the failure classifiers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetMetrics {
    /// Requests served.
    pub ok: u64,
    /// Connection-refused failures.
    pub refused: u64,
    /// Timeouts.
    pub timeouts: u64,
    /// DNS failures.
    pub dns_failures: u64,
}

#[derive(Debug, Clone, Default)]
struct ProxyEntry {
    cluster_ip: String,
    service_port: i64,
    endpoints: Vec<(String, String, i64)>, // (ip, pod_name, port)
}

/// The simulated cluster network.
#[derive(Clone)]
pub struct NetSim {
    cfg: NetConfig,
    /// Destination nodes reachable from each node (programmed routes).
    /// One refresh round programs one shared set into every node with a
    /// live agent; a node whose agent is down keeps the `Rc` of the last
    /// round that reached it (stale routes).
    routes: HashMap<String, Rc<HashSet<String>>>,
    agent_up: HashMap<String, bool>,
    /// Per-node VIP tables: `ns/name` → entry, shared per refresh round
    /// like `routes`.
    proxy: HashMap<String, Rc<HashMap<String, ProxyEntry>>>,
    proxy_up: HashMap<String, bool>,
    dns_up: bool,
    rr: HashMap<String, usize>,
    window_start: u64,
    pod_load: HashMap<String, u32>,
    /// Requests per service (`ns/name`) in the current one-second window.
    svc_load: HashMap<String, u32>,
    /// Last complete window's per-service request counts (≈ RPS).
    svc_load_published: HashMap<String, u32>,
    /// Metrics exposed to the classifiers.
    pub metrics: NetMetrics,
    rng: Rng,
}

impl std::fmt::Debug for NetSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetSim")
            .field("dns_up", &self.dns_up)
            .field("nodes_with_routes", &self.routes.len())
            .field("metrics", &self.metrics)
            .finish()
    }
}

impl NetSim {
    /// Creates an empty network; call [`NetSim::refresh`] to program it.
    pub fn new(cfg: NetConfig, rng: Rng) -> NetSim {
        NetSim {
            cfg,
            routes: HashMap::new(),
            agent_up: HashMap::new(),
            proxy: HashMap::new(),
            proxy_up: HashMap::new(),
            dns_up: false,
            rr: HashMap::new(),
            window_start: 0,
            pod_load: HashMap::new(),
            svc_load: HashMap::new(),
            svc_load_published: HashMap::new(),
            metrics: NetMetrics::default(),
            rng,
        }
    }

    /// The last complete window's request count (≈ RPS) for `ns/name`.
    pub fn service_load(&self, ns: &str, name: &str) -> u32 {
        self.svc_load_published.get(&format!("{ns}/{name}")).copied().unwrap_or(0)
    }

    /// True while cluster DNS can resolve names.
    pub fn dns_up(&self) -> bool {
        self.dns_up
    }

    /// Nodes whose network agent is currently down.
    pub fn agents_down(&self) -> usize {
        self.agent_up.values().filter(|up| !**up).count()
    }

    /// Nodes known to the network fabric.
    pub fn node_count(&self) -> usize {
        self.agent_up.len()
    }

    /// Rolls the one-second load window if it elapsed, snapshotting the
    /// per-service demand for publication.
    fn roll_window(&mut self, now: u64) {
        if now.saturating_sub(self.window_start) >= 1_000 {
            self.window_start = now;
            self.pod_load.clear();
            self.svc_load_published = std::mem::take(&mut self.svc_load);
        }
    }

    /// Reprograms routes, VIP tables and DNS state from the API (one
    /// kube-proxy / network-agent sync round).
    pub fn refresh(&mut self, api: &mut ApiServer) {
        self.roll_window(api.now());
        let node_objs = api.list(Kind::Node, None);
        let nodes: Vec<&Node> = node_objs
            .iter()
            .filter_map(|o| match &**o {
                Object::Node(n) => Some(n),
                _ => None,
            })
            .collect();

        // Shared handles out of the watch cache — no deep clones.
        let pod_objs = api.list(Kind::Pod, None);
        let pods: Vec<&Pod> = pod_objs
            .iter()
            .filter_map(|o| match &**o {
                Object::Pod(p) => Some(p),
                _ => None,
            })
            .collect();

        let pod_serving = |p: &&&Pod| {
            p.status.phase == "Running" && p.status.ready && !p.metadata.is_terminating()
        };

        // Which nodes run a live network agent / kube-proxy?
        let mut agents: HashSet<&str> = HashSet::new();
        let mut proxies: HashSet<&str> = HashSet::new();
        for p in pods.iter().filter(pod_serving) {
            match p.metadata.labels.get("app").map(String::as_str) {
                Some("net-agent") => {
                    agents.insert(p.spec.node_name.as_str());
                }
                Some("kube-proxy") => {
                    proxies.insert(p.spec.node_name.as_str());
                }
                _ => {}
            }
        }

        // Route programming: an up agent installs routes to every node
        // announcing a valid pod CIDR — one set per round, shared by every
        // node it reaches. A down agent leaves routes stale: its slot keeps
        // the previous round's `Rc` and is never aliased to the new one.
        let dests: Rc<HashSet<String>> = Rc::new(
            nodes
                .iter()
                .filter(|n| is_cidr(&n.spec.pod_cidr))
                .map(|n| n.metadata.name.clone())
                .collect(),
        );
        for node in &nodes {
            let name = node.metadata.name.as_str();
            let up = agents.contains(name);
            set_slot(&mut self.agent_up, name, up);
            if up {
                set_slot(&mut self.routes, name, Rc::clone(&dests));
            }
        }

        // VIP tables per node with a live kube-proxy, shared the same way.
        let mut table: HashMap<String, ProxyEntry> = HashMap::new();
        for obj in api.list(Kind::Service, None) {
            let Object::Service(svc) = &*obj else { continue };
            let key = format!("{}/{}", svc.metadata.namespace, svc.metadata.name);
            let mut entry = ProxyEntry {
                cluster_ip: svc.spec.cluster_ip.clone(),
                service_port: svc.spec.port,
                endpoints: Vec::new(),
            };
            if let Some(Object::Endpoints(ep)) =
                api.get(Kind::Endpoints, &svc.metadata.namespace, &svc.metadata.name).as_deref()
            {
                for a in ep.ready_addresses() {
                    entry.endpoints.push((a.ip.clone(), a.pod_name.clone(), ep.port));
                }
            }
            table.insert(key, entry);
        }
        let table = Rc::new(table);
        for node in &nodes {
            let name = node.metadata.name.as_str();
            let up = proxies.contains(name);
            set_slot(&mut self.proxy_up, name, up);
            if up {
                set_slot(&mut self.proxy, name, Rc::clone(&table));
            }
        }

        // DNS availability.
        let dns_pods_ready = pods
            .iter()
            .filter(pod_serving)
            .any(|p| p.metadata.labels.get("k8s-app").map(String::as_str) == Some("kube-dns"));
        let dns_svc = api.get(Kind::Service, "kube-system", "kube-dns").is_some();
        self.dns_up = dns_pods_ready && dns_svc;

        if self.cfg.publish_metrics {
            self.publish_service_load(api);
        }
    }

    /// Writes the per-service request rates into the `service-load`
    /// ConfigMap the autoscaler controller reads. Best-effort: a failed
    /// write leaves the previous (stale) metric in place, exactly the
    /// staleness window a real metrics pipeline has.
    fn publish_service_load(&mut self, api: &mut ApiServer) {
        use k8s_model::{Channel, ConfigMap, ObjectMeta};
        let mut data: std::collections::BTreeMap<String, String> = self
            .svc_load_published
            .iter()
            .map(|(k, v)| (k.clone(), v.to_string()))
            .collect();
        // Services with no traffic this window report zero explicitly, so
        // scale-down decisions have data to act on.
        for obj in api.list(Kind::Service, None) {
            data.entry(format!("{}/{}", obj.namespace(), obj.name())).or_insert_with(|| "0".into());
        }
        let existing = api.get(Kind::ConfigMap, "kube-system", "service-load");
        match existing.as_deref() {
            Some(Object::ConfigMap(cm)) => {
                if cm.data != data {
                    let mut cm = cm.clone();
                    cm.data = data;
                    let _ = api.update(Channel::KcmToApi, Object::ConfigMap(cm));
                }
            }
            _ => {
                let mut cm = ConfigMap::default();
                cm.metadata = ObjectMeta::named("kube-system", "service-load");
                cm.data = data;
                let _ = api.create(Channel::KcmToApi, Object::ConfigMap(cm));
            }
        }
    }

    /// Evaluates one client request from `from_node` to `ns/svc:port`.
    #[allow(clippy::too_many_arguments)]
    pub fn request(
        &mut self,
        api: &mut ApiServer,
        now: u64,
        from_node: &str,
        ns: &str,
        svc: &str,
        expect_port: i64,
        needs_dns: bool,
    ) -> RequestOutcome {
        let outcome = self.request_inner(api, now, from_node, ns, svc, expect_port, needs_dns);
        match outcome {
            RequestOutcome::Ok { .. } => {
                self.metrics.ok = self.metrics.ok.saturating_add(1);
                mutiny_telemetry::counter_add("net.request.ok", 1);
            }
            RequestOutcome::Refused => {
                self.metrics.refused = self.metrics.refused.saturating_add(1);
                mutiny_telemetry::counter_add("net.request.refused", 1);
            }
            RequestOutcome::Timeout => {
                self.metrics.timeouts = self.metrics.timeouts.saturating_add(1);
                mutiny_telemetry::counter_add("net.request.timeout", 1);
            }
            RequestOutcome::DnsFailure => {
                self.metrics.dns_failures = self.metrics.dns_failures.saturating_add(1);
                mutiny_telemetry::counter_add("net.request.dns_failure", 1);
            }
        }
        outcome
    }

    #[allow(clippy::too_many_arguments)]
    fn request_inner(
        &mut self,
        api: &mut ApiServer,
        now: u64,
        from_node: &str,
        ns: &str,
        svc: &str,
        expect_port: i64,
        needs_dns: bool,
    ) -> RequestOutcome {
        // Window roll + per-service demand accounting. Demand is counted
        // for every attempt (the client keeps knocking even when the
        // service is down), which is what a front-door metric would see.
        self.roll_window(now);
        *self.svc_load.entry(format!("{ns}/{svc}")).or_insert(0) += 1;

        if needs_dns && !self.dns_up {
            return RequestOutcome::DnsFailure;
        }
        let key = format!("{ns}/{svc}");
        let Some(entry) = self.proxy.get(from_node).and_then(|t| t.get(&key)) else {
            return RequestOutcome::Refused; // VIP not programmed here
        };
        if entry.cluster_ip.is_empty() || !is_ipv4(&entry.cluster_ip) {
            return RequestOutcome::Refused;
        }
        if entry.service_port != expect_port {
            return RequestOutcome::Refused; // VIP not listening on this port
        }
        if entry.endpoints.is_empty() {
            return RequestOutcome::Refused; // no backends
        }
        let idx = {
            let c = self.rr.entry(key).or_insert(0);
            *c = c.wrapping_add(1);
            *c % entry.endpoints.len()
        };
        let (ep_ip, _ep_pod, ep_port) = entry.endpoints[idx].clone();

        // Find the pod actually holding that IP (shared handles, no
        // deep clones of the namespace's pods).
        let pod_objs = api.list(Kind::Pod, Some(ns));
        let target: Option<&Pod> = pod_objs
            .iter()
            .filter_map(|o| match &**o {
                Object::Pod(p) => Some(p),
                _ => None,
            })
            .find(|p| p.status.pod_ip == ep_ip && p.status.phase == "Running" && p.status.ready);
        let Some(pod) = target else {
            return RequestOutcome::Timeout; // packets to a dead IP blackhole
        };

        // Route check: forward and return paths must be programmed.
        let dest = pod.spec.node_name.as_str();
        if dest != from_node {
            let fwd = self.routes.get(from_node).map(|r| r.contains(dest)).unwrap_or(false);
            let back = self.routes.get(dest).map(|r| r.contains(from_node)).unwrap_or(false);
            if !fwd || !back {
                return RequestOutcome::Timeout;
            }
        }

        // Port agreement: endpoint port must match the container port.
        let container_port = pod.spec.containers.first().map(|c| c.port).unwrap_or(0);
        if ep_port != container_port {
            return RequestOutcome::Refused;
        }

        // Load model: per-pod queueing in one-second windows.
        let load = {
            let l = self.pod_load.entry(ep_ip).or_insert(0);
            *l += 1;
            *l
        };
        let rho = f64::from(load) / self.cfg.pod_capacity_rps;
        let mut latency = self.cfg.base_latency_ms
            + self.rng.normal(self.cfg.proc_ms, self.cfg.proc_jitter_ms).abs();
        if rho > 1.0 {
            latency *= rho * rho;
        }
        if latency > self.cfg.client_timeout_ms {
            return RequestOutcome::Timeout;
        }
        RequestOutcome::Ok { latency_ms: latency }
    }
}

/// Overwrites `map[key]` in place; the key is cloned only the first time
/// a node is seen.
fn set_slot<V>(map: &mut HashMap<String, V>, key: &str, value: V) {
    match map.get_mut(key) {
        Some(slot) => *slot = value,
        None => {
            map.insert(key.to_owned(), value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etcd_sim::Etcd;
    use k8s_apiserver::{InterceptorHandle, TraceHandle};
    use k8s_model::{
        Channel, Container, EndpointAddress, Endpoints, NoopInterceptor, ObjectMeta, Service,
    };
    use simkit::Trace;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn api() -> ApiServer {
        let interceptor: InterceptorHandle = Rc::new(RefCell::new(NoopInterceptor));
        let trace: TraceHandle = Rc::new(RefCell::new(Trace::new(256)));
        ApiServer::new(Etcd::new(1, 8 << 20), interceptor, trace)
    }

    /// A serving `role` (`net-agent` / `kube-proxy`) pod on `node`.
    fn daemon_pod(role: &str, node: &str) -> Object {
        let mut p = Pod::default();
        p.metadata = ObjectMeta::named("kube-system", &format!("{role}-{node}"));
        p.metadata.labels.insert("app".into(), role.into());
        p.spec.node_name = node.to_string();
        p.spec.containers.push(Container {
            name: "c".into(),
            image: "registry.local/sys:1".into(),
            ..Default::default()
        });
        p.status.phase = "Running".into();
        p.status.ready = true;
        Object::Pod(p)
    }

    /// Registers node `name` (pod CIDR `10.244.<index>.0/24`) with a live
    /// network agent and kube-proxy.
    fn join_node(api: &mut ApiServer, index: usize, name: &str) {
        let mut n = k8s_model::Node::worker(name, 8000, 4096);
        n.spec.pod_cidr = format!("10.244.{index}.0/24");
        api.create(Channel::KubeletToApi, Object::Node(n)).unwrap();
        for role in ["net-agent", "kube-proxy"] {
            api.create(Channel::ApiToEtcd, daemon_pod(role, name)).unwrap();
        }
    }

    /// Builds a two-node cluster with one serving app pod, agents and
    /// proxies on both nodes, and a service+endpoints for the app.
    fn build_world(api: &mut ApiServer) {
        for (i, name) in ["w1", "w2"].iter().enumerate() {
            join_node(api, i, name);
        }
        // The app pod on w2.
        let mut p = Pod::default();
        p.metadata = ObjectMeta::named("default", "web-1");
        p.metadata.labels.insert("app".into(), "web".into());
        p.spec.node_name = "w2".into();
        p.spec.containers.push(Container {
            name: "c".into(),
            image: "registry.local/web:1".into(),
            port: 8080,
            ..Default::default()
        });
        p.status.phase = "Running".into();
        p.status.ready = true;
        p.status.pod_ip = "10.244.1.5".into();
        api.create(Channel::ApiToEtcd, Object::Pod(p)).unwrap();

        let mut svc = Service::default();
        svc.metadata = ObjectMeta::named("default", "web-svc");
        svc.spec.selector.insert("app".into(), "web".into());
        svc.spec.cluster_ip = "10.96.0.20".into();
        svc.spec.port = 80;
        svc.spec.target_port = 8080;
        api.create(Channel::UserToApi, Object::Service(svc)).unwrap();

        let mut ep = Endpoints::default();
        ep.metadata = ObjectMeta::named("default", "web-svc");
        ep.addresses.push(EndpointAddress {
            ip: "10.244.1.5".into(),
            pod_name: "web-1".into(),
            node_name: "w2".into(),
            ready: true,
        });
        ep.port = 8080;
        api.create(Channel::KcmToApi, Object::Endpoints(ep)).unwrap();
    }

    fn net() -> NetSim {
        NetSim::new(NetConfig::default(), Rng::new(11))
    }

    #[test]
    fn healthy_path_serves_with_latency() {
        let mut api = api();
        build_world(&mut api);
        let mut n = net();
        n.refresh(&mut api);
        let out = n.request(&mut api, 1000, "w1", "default", "web-svc", 80, false);
        match out {
            RequestOutcome::Ok { latency_ms } => assert!(latency_ms > 5.0 && latency_ms < 100.0),
            other => panic!("expected ok, got {other:?}"),
        }
        assert_eq!(n.metrics.ok, 1);
    }

    #[test]
    fn missing_endpoints_refuses() {
        let mut api = api();
        build_world(&mut api);
        // Empty the endpoints (as a corrupted selector would).
        if let Some(Object::Endpoints(ep)) = api.get(Kind::Endpoints, "default", "web-svc").as_deref() {
            let mut ep = ep.clone();
            ep.addresses.clear();
            api.update(Channel::ApiToEtcd, Object::Endpoints(ep)).unwrap();
        }
        let mut n = net();
        n.refresh(&mut api);
        let out = n.request(&mut api, 1000, "w1", "default", "web-svc", 80, false);
        assert_eq!(out, RequestOutcome::Refused);
    }

    #[test]
    fn endpoint_to_dead_ip_times_out() {
        let mut api = api();
        build_world(&mut api);
        if let Some(Object::Endpoints(ep)) = api.get(Kind::Endpoints, "default", "web-svc").as_deref() {
            let mut ep = ep.clone();
            ep.addresses[0].ip = "10.244.1.99".into(); // nobody there
            api.update(Channel::ApiToEtcd, Object::Endpoints(ep)).unwrap();
        }
        let mut n = net();
        n.refresh(&mut api);
        let out = n.request(&mut api, 1000, "w1", "default", "web-svc", 80, false);
        assert_eq!(out, RequestOutcome::Timeout);
    }

    #[test]
    fn wrong_service_port_refuses() {
        let mut api = api();
        build_world(&mut api);
        let mut n = net();
        n.refresh(&mut api);
        // Client still expects 80; the VIP listens on what spec says.
        let out = n.request(&mut api, 1000, "w1", "default", "web-svc", 81, false);
        assert_eq!(out, RequestOutcome::Refused);
    }

    #[test]
    fn dead_network_agent_blackholes_cross_node_traffic() {
        let mut api = api();
        build_world(&mut api);
        let mut n = net();
        n.refresh(&mut api);
        // Kill w1's net agent pod; its routes were programmed, but now kill
        // w2's agent *before first refresh of a fresh NetSim* to model a
        // node whose routes never got programmed.
        api.delete(Channel::KcmToApi, Kind::Pod, "kube-system", "net-agent-w1").unwrap();
        let mut fresh = net();
        fresh.refresh(&mut api);
        let out = fresh.request(&mut api, 1000, "w1", "default", "web-svc", 80, false);
        assert_eq!(out, RequestOutcome::Timeout);
        assert_eq!(fresh.agents_down(), 1);
    }

    #[test]
    fn down_agent_and_proxy_keep_stale_tables_until_they_return() {
        // One refresh round shares one route set and one VIP table among
        // the nodes it reaches; a node whose agent (proxy) is down must
        // keep what it had, not be aliased to the new round's tables.
        let mut api = api();
        build_world(&mut api);
        let mut n = net();
        n.refresh(&mut api);
        assert!(Rc::ptr_eq(&n.routes["w1"], &n.routes["w2"]), "one set per round");
        assert!(Rc::ptr_eq(&n.proxy["w1"], &n.proxy["w2"]), "one table per round");

        // w1 loses its agent and its proxy; then w3 joins and a second
        // service appears.
        for role in ["net-agent", "kube-proxy"] {
            api.delete(Channel::ApiToEtcd, Kind::Pod, "kube-system", &format!("{role}-w1"))
                .unwrap();
        }
        join_node(&mut api, 2, "w3");
        let mut svc = Service::default();
        svc.metadata = ObjectMeta::named("default", "late-svc");
        svc.spec.cluster_ip = "10.96.0.21".into();
        svc.spec.port = 80;
        api.create(Channel::UserToApi, Object::Service(svc)).unwrap();
        n.refresh(&mut api);
        assert_eq!(n.agents_down(), 1);
        assert!(!n.routes["w1"].contains("w3"), "w1's routes are stale: w3 is unknown to it");
        assert!(n.routes["w2"].contains("w3") && n.routes["w3"].contains("w1"));
        assert!(!n.proxy["w1"].contains_key("default/late-svc"), "w1's VIP table is stale");
        assert!(n.proxy["w2"].contains_key("default/late-svc"));

        // A fork shares the tables but never sees the original's later
        // rounds (tables are replaced, not mutated).
        let fork = n.clone();

        // The agent and proxy return: the next round reaches w1 again.
        for role in ["net-agent", "kube-proxy"] {
            api.create(Channel::ApiToEtcd, daemon_pod(role, "w1")).unwrap();
        }
        n.refresh(&mut api);
        assert_eq!(n.agents_down(), 0);
        assert!(n.routes["w1"].contains("w3"), "w1 learns w3 once its agent is back");
        assert!(n.proxy["w1"].contains_key("default/late-svc"));
        assert!(!fork.routes["w1"].contains("w3"), "the fork keeps the state it was forked at");
    }

    #[test]
    fn dns_requirement_enforced() {
        let mut api = api();
        build_world(&mut api);
        let mut n = net();
        n.refresh(&mut api);
        assert!(!n.dns_up());
        let out = n.request(&mut api, 1000, "w1", "default", "web-svc", 80, true);
        assert_eq!(out, RequestOutcome::DnsFailure);
        // Without the DNS requirement the same request succeeds — the
        // paper's observation that Outages need not hurt a DNS-free app.
        let out = n.request(&mut api, 1001, "w1", "default", "web-svc", 80, false);
        assert!(matches!(out, RequestOutcome::Ok { .. }));
    }

    #[test]
    fn overload_inflates_latency_and_times_out() {
        let mut api = api();
        build_world(&mut api);
        let mut n = net();
        n.refresh(&mut api);
        let mut worst: f64 = 0.0;
        let mut timeouts = 0;
        for i in 0..200 {
            match n.request(&mut api, 1000 + i, "w1", "default", "web-svc", 80, false) {
                RequestOutcome::Ok { latency_ms } => worst = worst.max(latency_ms),
                RequestOutcome::Timeout => timeouts += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(worst > 50.0 || timeouts > 0, "overload had no effect");
    }
}
