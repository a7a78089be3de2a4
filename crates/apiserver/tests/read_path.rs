//! The apiserver's read path: the ordered watch cache against a
//! brute-force model, and the one-key read-tracking semantics the
//! campaign's activation analysis depends on.

use etcd_sim::Etcd;
use k8s_apiserver::{ApiServer, InterceptorHandle, TraceHandle};
use k8s_model::{Channel, ConfigMap, Kind, Node, NoopInterceptor, Object, ObjectMeta, Pod};
use proptest::prelude::*;
use simkit::Trace;
use std::cell::RefCell;
use std::rc::Rc;

fn api() -> ApiServer {
    let interceptor: InterceptorHandle = Rc::new(RefCell::new(NoopInterceptor));
    let trace: TraceHandle = Rc::new(RefCell::new(Trace::new(64)));
    ApiServer::new(Etcd::new(1, 8 << 20), interceptor, trace)
}

/// Two namespaced kinds and a cluster-scoped one.
const KINDS: [Kind; 3] = [Kind::Pod, Kind::ConfigMap, Kind::Node];
/// `a-b/` sorts before `a/` and `ab/` after it: a namespace prefix must
/// end at its slash.
const NAMESPACES: [&str; 3] = ["a", "a-b", "ab"];
/// Names that are prefixes of one another.
const NAMES: [&str; 5] = ["p", "p-1", "p1", "pp", "q"];

/// An object of `kind` whose `v` label carries `version`, so a stale
/// cache entry is told apart from the current one.
fn object(kind: Kind, ns: &str, name: &str, version: usize) -> Object {
    let mut obj = match kind {
        Kind::Pod => Object::Pod(Pod { metadata: ObjectMeta::named(ns, name), ..Default::default() }),
        Kind::ConfigMap => Object::ConfigMap(ConfigMap {
            metadata: ObjectMeta::named(ns, name),
            ..Default::default()
        }),
        _ => Object::Node(Node::worker(name, 1_000, 1_024)),
    };
    obj.meta_mut().labels.insert("v".into(), version.to_string());
    obj
}

/// What a read of `(kind, namespace)` must return according to the
/// model: every stored key under the prefix, sorted, with its version.
fn expected(
    model: &[(String, String)],
    kind: Kind,
    namespace: Option<&str>,
) -> Vec<(String, String)> {
    let prefix = match namespace {
        Some(ns) if kind != Kind::Node => format!("/registry/{}/{ns}/", kind.plural()),
        _ => format!("/registry/{}/", kind.plural()),
    };
    let mut hits: Vec<(String, String)> =
        model.iter().filter(|(key, _)| key.starts_with(&prefix)).cloned().collect();
    hits.sort();
    hits
}

fn observed(obj: &Object) -> (String, String) {
    (obj.key(), obj.meta().labels.get("v").cloned().unwrap_or_default())
}

proptest! {
    /// `list`, `for_each` (as a sequence) and `count` agree with
    /// filter-by-prefix + sort over all stored keys after every write,
    /// for the whole kind and for each namespace.
    #[test]
    fn ordered_cache_reads_match_the_brute_force_model(
        ops in proptest::collection::vec((0usize..3, 0usize..3, (0usize..3, 0usize..5)), 1..48),
    ) {
        let mut a = api();
        // Unsorted on purpose: the model shares no ordering mechanism
        // with the cache under test.
        let mut model: Vec<(String, String)> = Vec::new();
        for (version, (op, kind, (ns, name))) in ops.into_iter().enumerate() {
            let (kind, ns, name) = (KINDS[kind], NAMESPACES[ns], NAMES[name]);
            let obj = object(kind, ns, name, version);
            let key = obj.key();
            let slot = model.iter().position(|(k, _)| *k == key);
            // The store channel skips validation, so fixtures need no
            // Namespace objects; the cache is fed all the same.
            match op {
                0 => {
                    let res = a.create(Channel::ApiToEtcd, obj);
                    prop_assert_eq!(res.is_ok(), slot.is_none());
                    if slot.is_none() {
                        model.push((key, version.to_string()));
                    }
                }
                1 => {
                    let res = a.update(Channel::ApiToEtcd, obj);
                    prop_assert_eq!(res.is_ok(), slot.is_some());
                    if let Some(i) = slot {
                        model[i].1 = version.to_string();
                    }
                }
                _ => {
                    let res = a.delete(Channel::ApiToEtcd, kind, ns, name);
                    prop_assert_eq!(res.is_ok(), slot.is_some());
                    if let Some(i) = slot {
                        model.swap_remove(i);
                    }
                }
            }
            for kind in KINDS {
                for scope in std::iter::once(None).chain(NAMESPACES.iter().copied().map(Some)) {
                    let want = expected(&model, kind, scope);
                    let listed: Vec<_> = a.list(kind, scope).iter().map(|o| observed(o)).collect();
                    prop_assert_eq!(&listed, &want, "list {} {:?}", kind, scope);
                    let mut visited = Vec::new();
                    a.for_each(kind, scope, |o| visited.push(observed(o)));
                    prop_assert_eq!(&visited, &want, "for_each {} {:?}", kind, scope);
                    prop_assert_eq!(a.count(kind, scope), want.len(), "count {} {:?}", kind, scope);
                }
            }
        }
    }
}

const TRACKED: &str = "/registry/pods/default/tracked";

fn pod(name: &str) -> Object {
    Object::Pod(Pod { metadata: ObjectMeta::named("default", name), ..Default::default() })
}

/// A fresh apiserver holding `other` (and `tracked`, when asked), with
/// read tracking armed on [`TRACKED`] after the set-up writes.
fn armed(with_tracked: bool) -> ApiServer {
    let mut a = api();
    a.create(Channel::ApiToEtcd, pod("other")).expect("create");
    if with_tracked {
        a.create(Channel::ApiToEtcd, pod("tracked")).expect("create");
    }
    a.start_read_tracking(TRACKED);
    a
}

#[test]
fn nothing_is_read_before_tracking_is_armed_or_before_a_read() {
    let mut a = api();
    a.create(Channel::ApiToEtcd, pod("tracked")).expect("create");
    let _ = a.get(Kind::Pod, "default", "tracked");
    assert!(!a.was_read(TRACKED), "unarmed tracking records nothing");
    a.start_read_tracking(TRACKED);
    assert!(!a.was_read(TRACKED), "arming forgets reads made before it");
}

#[test]
fn list_marks_the_tracked_key_only_while_it_is_cached() {
    let mut a = armed(true);
    let _ = a.list(Kind::ConfigMap, None);
    let _ = a.list(Kind::Pod, Some("kube-system"));
    assert!(!a.was_read(TRACKED), "lists under other prefixes serve other keys");
    let _ = a.list(Kind::Pod, Some("default"));
    assert!(a.was_read(TRACKED), "a list serving the key is a read");

    // The key is created (below the request pipeline, so no write marks
    // it) only after the list ran: that list never served it.
    let mut a = armed(false);
    let _ = a.list(Kind::Pod, None);
    a.etcd_mut().put(TRACKED, pod("tracked").encode()).expect("put");
    assert_eq!(a.count(Kind::Pod, None), 2, "the cache now holds the key");
    assert!(!a.was_read(TRACKED), "the list ran before the key existed");
    let _ = a.list(Kind::Pod, None);
    assert!(a.was_read(TRACKED), "the next list serves it");
}

#[test]
fn delivered_watch_event_marks_the_tracked_key() {
    let mut a = armed(true);
    let head = a.watch_head();
    a.create(Channel::ApiToEtcd, pod("third")).expect("create");
    let (events, head) = a.poll_events(head);
    assert_eq!(events.len(), 1);
    assert!(!a.was_read(TRACKED), "another key's event reads nothing");
    // Written below the request pipeline, so the delivery is the only
    // thing that can mark the key.
    let bytes = pod("tracked").encode();
    a.etcd_mut().put(TRACKED, bytes).expect("put");
    let _ = a.poll_events(head);
    assert!(a.was_read(TRACKED), "a delivered event carrying the key is a read");
}

#[test]
fn get_and_writes_mark_the_tracked_key_even_when_it_is_missing() {
    let mut a = armed(true);
    let _ = a.get(Kind::Pod, "default", "other");
    assert!(!a.was_read(TRACKED));
    let _ = a.get(Kind::Pod, "default", "tracked");
    assert!(a.was_read(TRACKED), "get is a read");

    let mut a = armed(true);
    a.update(Channel::ApiToEtcd, pod("tracked")).expect("update");
    assert!(a.was_read(TRACKED), "a write looks the stored object up first");

    // The lookup is the read, found or not (a deleted injected instance
    // that a controller asks for again was still requested).
    let mut a = armed(false);
    assert!(a.get(Kind::Pod, "default", "tracked").is_none());
    assert!(a.was_read(TRACKED));
}

#[test]
fn for_each_and_count_are_not_tracked_reads() {
    let mut a = armed(true);
    a.for_each(Kind::Pod, None, |_| {});
    assert_eq!(a.count(Kind::Pod, Some("default")), 2);
    assert!(!a.was_read(TRACKED), "sampling visits do not activate an injection");
}

#[test]
fn was_read_answers_for_the_tracked_key_only() {
    let mut a = armed(true);
    let _ = a.list(Kind::Pod, None);
    assert!(a.was_read(TRACKED));
    assert!(!a.was_read("/registry/pods/default/other"), "served, but not the tracked key");
    assert!(!a.was_read(""));
}

#[test]
fn fork_carries_the_tracking_state() {
    let mut a = armed(true);
    let fork = |a: &ApiServer| {
        a.fork(Rc::new(RefCell::new(NoopInterceptor)), Rc::new(RefCell::new(Trace::new(64))))
    };
    let mut unread = fork(&a);
    assert!(!unread.was_read(TRACKED));
    let _ = unread.get(Kind::Pod, "default", "tracked");
    assert!(unread.was_read(TRACKED), "a fork keeps tracking the armed key");
    assert!(!a.was_read(TRACKED), "a fork's reads stay in the fork");

    let _ = a.get(Kind::Pod, "default", "tracked");
    assert!(fork(&a).was_read(TRACKED), "a fork inherits reads made before it");
}
