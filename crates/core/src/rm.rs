//! Resource Queues (§III-B1).
//!
//! For each resource type RUPAM keeps a priority queue of candidate
//! nodes, "sorted with capacity in descending order (most
//! powerful/capable/capacity first) and associated utilization in
//! ascending order (least used first)". The two criteria are combined
//! into one score — the *remaining* capability
//! `capability × (1 − utilization)` — so a saturated top-tier node
//! sinks below an idle lower-tier one instead of monopolising the head
//! of the queue (on an idle cluster the score degenerates to raw
//! capability, preserving the capability ranking). Queues are rebuilt
//! from the offer-round snapshot — the paper likewise only inserts
//! nodes that are ready to run a task and empties the queues between
//! offer rounds, keeping the sorting cost low.

use std::collections::BTreeSet;

use rupam_cluster::resources::{PerResource, ResourceKind};
use rupam_cluster::{ClusterSpec, NodeId};
use rupam_exec::scheduler::NodeView;

/// Per-kind utilisation of a node in `0..=1` (lower = more attractive).
pub fn utilization(view: &NodeView, kind: ResourceKind) -> f64 {
    match kind {
        ResourceKind::Cpu => view.cpu_util,
        ResourceKind::Mem => {
            let cap = view.executor_mem.as_f64();
            if cap <= 0.0 {
                1.0
            } else {
                view.mem_in_use.as_f64() / cap
            }
        }
        ResourceKind::Io => view.disk_util,
        ResourceKind::Net => view.net_util,
        ResourceKind::Gpu => {
            let total =
                view.gpus_idle as f64 + view.running.iter().filter(|r| r.on_gpu).count() as f64;
            if total <= 0.0 {
                1.0
            } else {
                1.0 - view.gpus_idle as f64 / total
            }
        }
    }
}

/// The snapshot ranking score: the capability a new task would still
/// find on the node, `capability × (1 − utilization)`.
pub fn remaining_capability(cluster: &ClusterSpec, view: &NodeView, kind: ResourceKind) -> f64 {
    let util = utilization(view, kind).clamp(0.0, 1.0);
    cluster.node(view.node).capability(kind) * (1.0 - util)
}

/// The five node priority queues, rebuilt each offer round.
pub struct ResourceQueues {
    queues: PerResource<Vec<NodeId>>,
}

impl ResourceQueues {
    /// Build the queues from the current snapshot. Blocked (restarting)
    /// nodes and nodes without the resource (`C_i^r = 0`) are excluded.
    pub fn build(cluster: &ClusterSpec, views: &[NodeView]) -> Self {
        let queues = PerResource::from_fn(|kind| {
            let mut nodes: Vec<NodeId> = views
                .iter()
                .filter(|v| !v.blocked)
                .filter(|v| cluster.node(v.node).has_resource(kind))
                .map(|v| v.node)
                .collect();
            let score = |id: NodeId| remaining_capability(cluster, &views[id.index()], kind);
            nodes.sort_by(|&a, &b| {
                let remaining = score(b)
                    .partial_cmp(&score(a))
                    .unwrap_or(std::cmp::Ordering::Equal);
                let util_a = utilization(&views[a.index()], kind);
                let util_b = utilization(&views[b.index()], kind);
                remaining
                    .then(
                        util_a
                            .partial_cmp(&util_b)
                            .unwrap_or(std::cmp::Ordering::Equal),
                    )
                    .then(a.cmp(&b))
            });
            nodes
        });
        ResourceQueues { queues }
    }

    /// Nodes for one resource kind, best first.
    pub fn nodes(&self, kind: ResourceKind) -> &[NodeId] {
        self.queues.get(kind)
    }

    /// The best node for one kind, if any qualifies.
    pub fn best(&self, kind: ResourceKind) -> Option<NodeId> {
        self.queues.get(kind).first().copied()
    }
}

/// Collapse `-0.0` to `0.0` so `total_cmp` agrees with the
/// `partial_cmp` the from-scratch sort uses (which treats the two zeros
/// as equal). A NaN here would poison every `total_cmp` downstream
/// (NaN sorts *after* every real under `total_cmp`, silently corrupting
/// rank comparisons), so it is rejected outright.
#[inline]
fn norm(x: f64) -> f64 {
    debug_assert!(!x.is_nan(), "ranking key must never be NaN");
    if x == 0.0 {
        0.0
    } else {
        x
    }
}

/// One node's position key in a kind's ordered set: remaining capability
/// descending, then raw utilisation ascending, then `NodeId` — exactly
/// the comparator [`ResourceQueues::build`] sorts with, made total via
/// `total_cmp` over `norm`alised (NaN-free, single-zero) floats.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Rank {
    remaining: f64,
    util: f64,
    pub(crate) node: NodeId,
}

impl PartialEq for Rank {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Rank {}

impl PartialOrd for Rank {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rank {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .remaining
            .total_cmp(&self.remaining)
            .then(self.util.total_cmp(&other.util))
            .then(self.node.cmp(&other.node))
    }
}

/// Persistent per-kind node rankings, updated in place between offer
/// rounds instead of rebuilt by a full sort: one ranking per resource
/// kind, as §III-B1 keeps one priority queue per resource type.
///
/// Per kind the cache keeps an ordered set of `Rank` entries plus the
/// key each node currently occupies. A refresh recomputes keys (a
/// handful of float operations per node — or only for the nodes in the
/// engine's changed-set, when one is supplied) and touches a set — one
/// `O(log n)` remove + insert — only for nodes whose key actually
/// changed. The dispatch queues are materialised lazily: on quiet
/// rounds (heartbeats without launches or finishes) a refresh does
/// *zero* structural work, versus the rebuild path's unconditional five
/// `O(n log n)` sorts.
///
/// Each materialised queue carries, per position, an upper bound on the
/// pick score any node at or after that position can still achieve this
/// round, so [`crate::dispatcher::Dispatcher`] stops scanning as soon as
/// its current best pick is unbeatable:
///
/// * CPU / GPU score is raw capability (claims never change it), so the
///   bound is the suffix maximum of capability;
/// * MEM / NET / I/O score is `capability × (1 − util-with-claims)`,
///   and claims only ever *raise* utilisation above the snapshot, so
///   each node's snapshot key — which the queue is sorted by, descending
///   — bounds its achievable score, and position `i`'s key bounds the
///   whole suffix.
#[derive(Default)]
pub struct NodeQueueCache {
    /// Current key per node (by index) per kind; `None` while excluded
    /// (blocked or without the resource).
    keys: Vec<PerResource<Option<(f64, f64)>>>,
    sets: PerResource<BTreeSet<Rank>>,
    /// Dispatch-ready snapshot of `sets`, rebuilt only while `dirty`.
    queue: PerResource<Vec<Rank>>,
    /// Suffix-max pick-score bounds, parallel to `queue`.
    bounds: PerResource<Vec<f64>>,
    /// Set when a refresh structurally changed a set since the last
    /// materialisation.
    dirty: bool,
}

impl NodeQueueCache {
    /// An empty cache, populated by the first refresh.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget everything (cluster changed / run restarted).
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Re-key one node from its snapshot view, patching the ordered sets
    /// (`O(log n)`) only when the key actually changed.
    fn refresh_node(&mut self, cluster: &ClusterSpec, view: &NodeView) {
        for kind in ResourceKind::ALL {
            let eligible = !view.blocked && cluster.node(view.node).has_resource(kind);
            let next = if eligible {
                Some((
                    norm(remaining_capability(cluster, view, kind)),
                    norm(utilization(view, kind)),
                ))
            } else {
                None
            };
            let slot = self.keys[view.node.index()].get_mut(kind);
            if *slot == next {
                continue;
            }
            let set = self.sets.get_mut(kind);
            if let Some((remaining, util)) = *slot {
                set.remove(&Rank {
                    remaining,
                    util,
                    node: view.node,
                });
            }
            if let Some((remaining, util)) = next {
                set.insert(Rank {
                    remaining,
                    util,
                    node: view.node,
                });
            }
            *slot = next;
            self.dirty = true;
        }
    }

    /// Bring the ordered sets in line with an offer-round snapshot,
    /// without materialising the dispatch queues: on rounds with no
    /// dispatchable work the caller can stop here — staying `dirty`
    /// across quiet rounds is legal (the sets are authoritative; the
    /// queues are a lazily-rebuilt view) and turns the common
    /// heartbeat-only round from `O(n)` into `O(changed)`.
    ///
    /// `changed` is the engine's per-round delta: the nodes whose view
    /// may differ from the previous offer round. When present (and the
    /// cache is already populated for this cluster) only those nodes are
    /// re-keyed — the storm-batching fast path. `None` means "assume
    /// anything moved" and re-keys every node.
    pub fn refresh_keys(
        &mut self,
        cluster: &ClusterSpec,
        views: &[NodeView],
        changed: Option<&[NodeId]>,
    ) {
        let fresh = self.keys.len() != views.len();
        if fresh {
            self.reset();
            self.keys.resize_with(views.len(), PerResource::default);
        }
        match (fresh, changed) {
            (false, Some(delta)) => {
                for &id in delta {
                    self.refresh_node(cluster, &views[id.index()]);
                }
            }
            _ => {
                for view in views {
                    self.refresh_node(cluster, view);
                }
            }
        }
    }

    /// Rebuild the dispatch queues and bounds if a refresh changed the
    /// sets — required before `NodeQueueCache::ranks`.
    pub fn materialize(&mut self, cluster: &ClusterSpec) {
        if !self.dirty {
            return;
        }
        for kind in ResourceKind::ALL {
            let queue: Vec<Rank> = self.sets.get(kind).iter().copied().collect();
            let mut bounds: Vec<f64> = queue
                .iter()
                .map(|r| match kind {
                    ResourceKind::Cpu | ResourceKind::Gpu => cluster.node(r.node).capability(kind),
                    ResourceKind::Mem | ResourceKind::Net | ResourceKind::Io => r.remaining,
                })
                .collect();
            // suffix maximum: bound[i] caps every position from i onward
            for i in (0..bounds.len().saturating_sub(1)).rev() {
                bounds[i] = bounds[i].max(bounds[i + 1]);
            }
            *self.queue.get_mut(kind) = queue;
            *self.bounds.get_mut(kind) = bounds;
        }
        self.dirty = false;
    }

    /// `kind`'s ranking as of the last refresh, best first: the order of
    /// [`ResourceQueues::build`] over the same snapshot (see
    /// [`NodeQueueCache::verify`]), readable without materialising.
    pub fn nodes(&self, kind: ResourceKind) -> impl Iterator<Item = NodeId> + '_ {
        self.sets.get(kind).iter().map(|r| r.node)
    }

    /// `kind`'s materialised dispatch queue, best first.
    pub(crate) fn ranks(&self, kind: ResourceKind) -> &[Rank] {
        debug_assert!(!self.dirty, "ranks read before materialisation");
        self.queue.get(kind)
    }

    /// Upper bound on the pick score achievable at position `i` or later
    /// of `kind`'s queue.
    pub(crate) fn bound(&self, kind: ResourceKind, i: usize) -> f64 {
        self.bounds.get(kind)[i]
    }

    /// Cross-check the incremental ordering against a from-scratch
    /// rebuild over the same snapshot — the "queues sorted" audit
    /// invariant used as the equivalence oracle. Also checks the
    /// materialised dispatch queues against the ordered sets, so a
    /// missed `dirty` flag cannot hide.
    pub fn verify(&self, cluster: &ClusterSpec, views: &[NodeView]) -> Vec<String> {
        let reference = ResourceQueues::build(cluster, views);
        let mut findings = Vec::new();
        for kind in ResourceKind::ALL {
            let set = self.sets.get(kind);
            let incremental: Vec<NodeId> = set.iter().map(|r| r.node).collect();
            if incremental != reference.nodes(kind) {
                findings.push(format!(
                    "{kind:?} incremental ranking {incremental:?} diverges from rebuilt {:?}",
                    reference.nodes(kind)
                ));
            }
            // a dirty cache is allowed to lag (materialisation is lazy);
            // one claiming to be clean is not
            if !self.dirty && !self.queue.get(kind).iter().eq(set.iter()) {
                findings.push(format!("{kind:?} materialised queue is stale"));
            }
        }
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupam_simcore::units::ByteSize;

    fn views(cluster: &ClusterSpec) -> Vec<NodeView> {
        cluster
            .iter()
            .map(|(id, spec)| NodeView {
                node: id,
                executor_mem: spec.mem,
                mem_in_use: ByteSize::ZERO,
                free_mem: spec.mem,
                running: vec![],
                cpu_util: 0.0,
                net_util: 0.0,
                disk_util: 0.0,
                gpus_idle: spec.gpus,
                blocked: false,
                heartbeat_age: rupam_simcore::time::SimDuration::ZERO,
                dead: false,
                suspect: false,
                tier: rupam_cluster::NodeTier::OnDemand,
                draining: false,
                preempt_risk: 0.0,
            })
            .collect()
    }

    /// Re-key and materialise, as a round with pending work does.
    fn refresh(
        cache: &mut NodeQueueCache,
        cluster: &ClusterSpec,
        vs: &[NodeView],
        changed: Option<&[NodeId]>,
    ) {
        cache.refresh_keys(cluster, vs, changed);
        cache.materialize(cluster);
    }

    /// The cache's materialised queue for `kind`, as node ids.
    fn queue_nodes(cache: &NodeQueueCache, kind: ResourceKind) -> Vec<NodeId> {
        cache.ranks(kind).iter().map(|r| r.node).collect()
    }

    #[test]
    fn cpu_queue_leads_with_thor() {
        let cluster = ClusterSpec::hydra();
        let q = ResourceQueues::build(&cluster, &views(&cluster));
        let best = q.best(ResourceKind::Cpu).unwrap();
        assert_eq!(cluster.node(best).class, "thor");
    }

    #[test]
    fn mem_queue_leads_with_hulk() {
        let cluster = ClusterSpec::hydra();
        let q = ResourceQueues::build(&cluster, &views(&cluster));
        let best = q.best(ResourceKind::Mem).unwrap();
        assert_eq!(cluster.node(best).class, "hulk");
    }

    #[test]
    fn io_queue_leads_with_ssd() {
        let cluster = ClusterSpec::hydra();
        let q = ResourceQueues::build(&cluster, &views(&cluster));
        let best = q.best(ResourceKind::Io).unwrap();
        assert!(cluster.node(best).disk.is_ssd);
    }

    #[test]
    fn gpu_queue_only_contains_gpu_nodes() {
        let cluster = ClusterSpec::hydra();
        let q = ResourceQueues::build(&cluster, &views(&cluster));
        let gpu_nodes = q.nodes(ResourceKind::Gpu);
        assert_eq!(gpu_nodes.len(), 2);
        for n in gpu_nodes {
            assert_eq!(cluster.node(*n).class, "stack");
        }
    }

    #[test]
    fn utilization_breaks_capability_ties() {
        let cluster = ClusterSpec::hydra();
        let mut vs = views(&cluster);
        // load the first thor node's CPU
        vs[0].cpu_util = 0.9;
        let q = ResourceQueues::build(&cluster, &vs);
        let best = q.best(ResourceKind::Cpu).unwrap();
        assert_ne!(best, NodeId(0), "a loaded node must rank below idle peers");
        assert_eq!(cluster.node(best).class, "thor");
    }

    #[test]
    fn blocked_nodes_excluded() {
        let cluster = ClusterSpec::hydra();
        let mut vs = views(&cluster);
        for v in vs.iter_mut() {
            v.blocked = true;
        }
        let q = ResourceQueues::build(&cluster, &vs);
        for kind in ResourceKind::ALL {
            assert!(q.nodes(kind).is_empty());
        }
    }

    #[test]
    fn cache_tracks_rebuild_through_mutations() {
        let cluster = ClusterSpec::hydra();
        let mut vs = views(&cluster);
        let mut cache = NodeQueueCache::new();
        // a sequence of snapshot mutations: load CPUs, fill memory,
        // block a node, then idle everything again
        type Step = Box<dyn Fn(&mut Vec<NodeView>)>;
        let steps: Vec<Step> = vec![
            Box::new(|_| {}),
            Box::new(|vs| vs[0].cpu_util = 0.9),
            Box::new(|vs| {
                vs[7].mem_in_use = ByteSize::gib(30);
                vs[7].free_mem = vs[7].executor_mem.saturating_sub(ByteSize::gib(30));
            }),
            Box::new(|vs| vs[3].blocked = true),
            Box::new(|vs| {
                vs[3].blocked = false;
                vs[0].cpu_util = 0.0;
            }),
        ];
        for (i, step) in steps.iter().enumerate() {
            step(&mut vs);
            refresh(&mut cache, &cluster, &vs, None);
            let findings = cache.verify(&cluster, &vs);
            assert!(findings.is_empty(), "step {i}: {findings:?}");
            let reference = ResourceQueues::build(&cluster, &vs);
            for kind in ResourceKind::ALL {
                assert_eq!(
                    queue_nodes(&cache, kind),
                    reference.nodes(kind),
                    "step {i} {kind:?}"
                );
            }
        }
    }

    /// The materialised queue is the rebuilt ranking, and every bound
    /// dominates the pick score of each node at or after its position —
    /// the fact the dispatcher's early exit rests on. A nearly saturated
    /// thor ranks below the idle hulks and stacks on CPU while keeping
    /// the highest raw capability, so only a true suffix maximum bounds
    /// the positions ahead of it.
    #[test]
    fn order_bounds_dominate_suffix_scores() {
        let cluster = ClusterSpec::hydra_mix(4, 3, 2);
        let mut vs = views(&cluster);
        vs[1].cpu_util = 0.95;
        vs[2].cpu_util = 0.5;
        vs[5].net_util = 0.7;
        vs[5].disk_util = 0.9;
        let mut cache = NodeQueueCache::new();
        refresh(&mut cache, &cluster, &vs, None);
        let reference = ResourceQueues::build(&cluster, &vs);
        for kind in ResourceKind::ALL {
            let nodes = queue_nodes(&cache, kind);
            assert_eq!(nodes, reference.nodes(kind), "{kind:?}");
            for i in 0..nodes.len() {
                for &n in &nodes[i..] {
                    let score = match kind {
                        ResourceKind::Cpu | ResourceKind::Gpu => cluster.node(n).capability(kind),
                        _ => remaining_capability(&cluster, &vs[n.index()], kind),
                    };
                    assert!(
                        cache.bound(kind, i) >= score,
                        "{kind:?} bound at {i} misses node {n:?}"
                    );
                }
            }
        }
    }

    /// Regression for the GPU 0/0 score: a node with no GPUs (or a GPU
    /// node whose view reports zero idle GPUs and no running kernels)
    /// must never feed a NaN into a [`Rank`] — NaN sorts after every
    /// real under `total_cmp` and silently corrupts the rankings.
    #[test]
    fn pathological_views_never_rank_nan() {
        let cluster = ClusterSpec::hydra();
        let mut vs = views(&cluster);
        // GPU node with zero idle GPUs and nothing running: the GPU
        // utilisation denominator is 0
        let stack = cluster.nodes_in_class("stack")[0];
        vs[stack.index()].gpus_idle = 0;
        // executor not yet sized: zero-memory capacity
        vs[1].executor_mem = ByteSize::ZERO;
        vs[1].mem_in_use = ByteSize::ZERO;
        vs[1].free_mem = ByteSize::ZERO;
        let mut cache = NodeQueueCache::new();
        refresh(&mut cache, &cluster, &vs, None);
        for kind in ResourceKind::ALL {
            for v in &vs {
                assert!(
                    utilization(v, kind).is_finite(),
                    "{kind:?} utilisation NaN/inf on {:?}",
                    v.node
                );
            }
            for r in cache.sets.get(kind) {
                assert!(
                    r.remaining.is_finite() && r.util.is_finite(),
                    "{kind:?} rank for {:?} carries a non-finite key",
                    r.node
                );
            }
        }
        assert!(cache.verify(&cluster, &vs).is_empty());
    }

    /// A refresh driven by the engine's changed-set must land in the same
    /// state as a full re-score when the set covers everything that moved.
    #[test]
    fn changed_hint_refresh_matches_full() {
        let cluster = ClusterSpec::hydra();
        let mut vs = views(&cluster);
        let mut hinted = NodeQueueCache::new();
        let mut full = NodeQueueCache::new();
        refresh(&mut hinted, &cluster, &vs, None);
        refresh(&mut full, &cluster, &vs, None);
        // two nodes move; only they appear in the delta
        vs[0].cpu_util = 0.8;
        vs[9].net_util = 0.6;
        refresh(&mut hinted, &cluster, &vs, Some(&[NodeId(0), NodeId(9)]));
        refresh(&mut full, &cluster, &vs, None);
        assert!(hinted.verify(&cluster, &vs).is_empty());
        for kind in ResourceKind::ALL {
            assert_eq!(
                queue_nodes(&hinted, kind),
                queue_nodes(&full, kind),
                "{kind:?}"
            );
        }
        // an empty delta on a quiet round is a no-op, not a wipe
        refresh(&mut hinted, &cluster, &vs, Some(&[]));
        assert!(hinted.verify(&cluster, &vs).is_empty());
    }

    /// Property test: randomised view churn — including a node dying and
    /// reviving *within one round* (blocked → dead → alive between two
    /// refreshes) and elastic-tier transitions (drain notice →
    /// decommission → re-provision, where the node leaves and re-enters
    /// the fleet without ever being marked dead) — keeps the patched sets
    /// and the materialised queues identical to a from-scratch rebuild,
    /// under both full and changed-set refreshes.
    #[test]
    fn property_patch_ordering_under_churn_and_revival() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let cluster = ClusterSpec::hydra_mix(5, 4, 3);
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let mut vs = views(&cluster);
        let mut cache = NodeQueueCache::new();
        refresh(&mut cache, &cluster, &vs, None);
        for round in 0..400 {
            let mut touched = Vec::new();
            for _ in 0..rng.gen_range(1usize..=4) {
                let id = NodeId(rng.gen_range(0..cluster.len()));
                touched.push(id);
                let v = &mut vs[id.index()];
                match rng.gen_range(0..9) {
                    0 => v.cpu_util = rng.gen_range(0.0..1.0),
                    1 => v.net_util = rng.gen_range(0.0..1.0),
                    2 => v.disk_util = rng.gen_range(0.0..1.0),
                    3 => {
                        let used = ByteSize::gib(rng.gen_range(0..16));
                        v.mem_in_use = used;
                        v.free_mem = v.executor_mem.saturating_sub(used);
                    }
                    4 => {
                        // death → revival within one refresh: the
                        // detector killed and re-admitted the node
                        // between offers, so the cache sees only the
                        // final (alive, idle) state and must re-rank
                        // it from whatever it held before
                        v.blocked = false;
                        v.dead = false;
                        v.cpu_util = 0.0;
                        v.net_util = 0.0;
                        v.disk_util = 0.0;
                    }
                    5 => {
                        // spot drain notice: the node stays alive but
                        // stops taking work until the reclaim fires
                        v.tier = rupam_cluster::NodeTier::Spot;
                        v.draining = true;
                        v.blocked = true;
                        v.preempt_risk = rng.gen_range(0.0..1.0);
                    }
                    6 => {
                        // controller decommission: out of the fleet
                        // without ever being dead
                        v.tier = rupam_cluster::NodeTier::Spot;
                        v.draining = false;
                        v.blocked = true;
                        v.preempt_risk = 0.0;
                    }
                    7 => {
                        // re-provision after a decommission (or a
                        // decommission→re-provision pair collapsed
                        // into one refresh): back in the fleet, idle,
                        // carrying fresh pool risk
                        v.tier = rupam_cluster::NodeTier::Spot;
                        v.draining = false;
                        v.blocked = false;
                        v.dead = false;
                        v.preempt_risk = rng.gen_range(0.0..0.5);
                        v.cpu_util = 0.0;
                        v.net_util = 0.0;
                        v.disk_util = 0.0;
                    }
                    _ => {
                        v.blocked = true;
                        v.dead = true;
                    }
                }
            }
            let hint: Option<Vec<NodeId>> = rng.gen_bool(0.5).then(|| touched.clone());
            refresh(&mut cache, &cluster, &vs, hint.as_deref());
            let findings = cache.verify(&cluster, &vs);
            assert!(findings.is_empty(), "round {round}: {findings:?}");
        }
    }

    #[test]
    fn gpu_utilization_accounts_running_kernels() {
        let cluster = ClusterSpec::hydra();
        let mut vs = views(&cluster);
        let stack_ids = cluster.nodes_in_class("stack");
        // stack1 busy on its one GPU
        let v = &mut vs[stack_ids[0].index()];
        v.gpus_idle = 0;
        v.running.push(rupam_exec::scheduler::RunningTaskView {
            task: rupam_dag::TaskRef {
                stage: rupam_dag::StageId(0),
                index: 0,
            },
            speculative: false,
            elapsed: rupam_simcore::SimDuration::ZERO,
            peak_mem: ByteSize::mib(100),
            on_gpu: true,
        });
        let q = ResourceQueues::build(&cluster, &vs);
        assert_eq!(
            q.best(ResourceKind::Gpu),
            Some(stack_ids[1]),
            "idle GPU node first"
        );
        assert!((utilization(&vs[stack_ids[0].index()], ResourceKind::Gpu) - 1.0).abs() < 1e-9);
    }
}
