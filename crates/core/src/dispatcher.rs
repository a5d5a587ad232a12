//! The Dispatcher: Algorithm 2 (§III-C).
//!
//! Each offer round:
//!
//! 1. RM's Resource Queues rank the nodes per resource kind
//!    (capability ↓, utilisation ↑).
//! 2. The Dispatcher dequeues one node per resource kind in round-robin
//!    order "to make sure no task with a single resource type is
//!    starved", and matches it against the Task Queue of that kind.
//! 3. For the candidate task list it enforces the memory-feasibility
//!    check (`task.peakmemory ≤ node.freememory`), honours the
//!    best-executor lock (`historyresource.size = 5 ∧ optexecutor =
//!    node`), and picks the task with the best locality in the order
//!    PROCESS_LOCAL, NODE_LOCAL, RACK_LOCAL, ANY.
//!
//! Unlike stock Spark's one-task-per-core slots, a node is available "as
//! long as it has enough resources to execute a task" — the Dispatcher
//! over-commits nodes whose *other* resources are idle (§III-C2), bounded
//! by per-kind utilisation ceilings and an overall overcommit factor.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

use rupam_simcore::units::ByteSize;

use rupam_cluster::resources::ResourceKind;
use rupam_cluster::NodeId;
use rupam_dag::app::StageId;
use rupam_dag::{Locality, TaskRef, TenantId};
use rupam_exec::scheduler::{Command, NodeView, OfferInput, PendingTaskView};
use rupam_metrics::trace::LaunchReason;

use crate::config::RupamConfig;
use crate::rm::{NodeQueueCache, Rank, ShardedOrder};
use crate::tm::TaskManager;

/// Per-node admission bookkeeping within one offer round (commands have
/// not been applied yet, so the Dispatcher accounts its own claims).
#[derive(Clone, Debug, Default)]
struct Claims {
    launches: usize,
    mem: ByteSize,
    cpu: usize,
    net: usize,
    io: usize,
    gpu: u32,
}

/// Algorithm 2 over one offer snapshot.
///
/// The Resource Queues come from the scheduler's persistent sharded
/// [`NodeQueueCache`]; the Task Queues are the TM's persistent
/// per-tenant class split (see [`crate::tm::TaskQueues`]), read in the
/// tenant scope of the current matching pass. Both are kept in sync
/// with the offer snapshots by their owners, so a round does no
/// per-queue rebuild work at all.
pub struct Dispatcher<'a> {
    cfg: &'a RupamConfig,
    input: &'a OfferInput<'a>,
    claims: Vec<Claims>,
    /// One DB round-trip per task per round — `(peak estimate, live
    /// best-executor lock)` — instead of one per (task, candidate-node)
    /// probe. The DB is not written during a round, so the memo can
    /// never go stale.
    chars: RefCell<HashMap<TaskRef, (ByteSize, Option<NodeId>)>>,
    /// Tenant scope of the current matching pass (the FIFO baseline
    /// runs a single pass scope, `TenantId(0)`, holding every task).
    tenant: TenantId,
    /// Tasks held back from piecemeal dispatch this round: members of a
    /// gang stage whose all-or-nothing plan did not fit. Invisible to
    /// every probe and to the memory floors.
    held: HashSet<TaskRef>,
}

impl<'a> Dispatcher<'a> {
    /// Prepare a dispatcher for one offer round.
    pub fn new(cfg: &'a RupamConfig, input: &'a OfferInput<'a>) -> Self {
        debug_assert!(
            input
                .pending
                .windows(2)
                .all(|w| (w[0].task.stage, w[0].task.index) < (w[1].task.stage, w[1].task.index)),
            "OfferInput.pending must stay sorted by (stage, index)"
        );
        Dispatcher {
            cfg,
            input,
            claims: vec![Claims::default(); input.nodes.len()],
            chars: RefCell::new(HashMap::new()),
            tenant: TenantId(0),
            held: HashSet::new(),
        }
    }

    /// The pending view for `task`, unless it is gang-held this round.
    fn view_of(&self, task: TaskRef) -> Option<&'a PendingTaskView> {
        if self.held.contains(&task) {
            return None;
        }
        self.input
            .pending
            .binary_search_by(|p| (p.task.stage, p.task.index).cmp(&(task.stage, task.index)))
            .ok()
            .map(|i| &self.input.pending[i])
    }

    /// A best-executor lock is only honoured while its target is alive:
    /// a lock pointing at a node the failure detector declared dead is
    /// released (and its memory-veto override with it) until the node is
    /// re-admitted and re-earns the lock.
    fn live_lock(&self, locked: Option<NodeId>) -> Option<NodeId> {
        locked.filter(|n| {
            self.input
                .nodes
                .get(n.index())
                .map(|v| !v.dead)
                .unwrap_or(false)
        })
    }

    /// One DB round-trip: `(peak estimate, best-executor lock)`. The
    /// peak is the observed one when the task (or the DB) knows it, else
    /// a conservative default; the lock is the node a fully-characterised
    /// task is locked to (`historyresource.size = 5 ∧ optexecutor`
    /// known), if alive.
    fn read_char(&self, tm: &TaskManager, view: &PendingTaskView) -> (ByteSize, Option<NodeId>) {
        let char = tm.lookup(view);
        let locked = self.live_lock(char.as_ref().and_then(|c| {
            if c.history_size() == ResourceKind::COUNT {
                c.best.map(|(n, _)| n)
            } else {
                None
            }
        }));
        let peak = if view.peak_mem_hint > ByteSize::ZERO {
            view.peak_mem_hint
        } else {
            match &char {
                Some(c) if c.peak_mem > ByteSize::ZERO => c.peak_mem,
                _ => self.cfg.unknown_task_mem_estimate,
            }
        };
        (peak, locked)
    }

    /// [`Dispatcher::read_char`], memoised for the round.
    fn char_of(&self, tm: &TaskManager, view: &PendingTaskView) -> (ByteSize, Option<NodeId>) {
        if let Some(&c) = self.chars.borrow().get(&view.task) {
            return c;
        }
        let c = self.read_char(tm, view);
        self.chars.borrow_mut().insert(view.task, c);
        c
    }

    fn peak_estimate(&self, tm: &TaskManager, view: &PendingTaskView) -> ByteSize {
        self.char_of(tm, view).0
    }

    fn locked_best(&self, tm: &TaskManager, view: &PendingTaskView) -> Option<NodeId> {
        self.char_of(tm, view).1
    }

    fn free_mem_after_claims(&self, node: NodeId) -> ByteSize {
        let v = &self.input.nodes[node.index()];
        v.free_mem.saturating_sub(self.claims[node.index()].mem)
    }

    /// §III-C2 availability: "a node is available as long as it has
    /// enough resources to execute a task" of the given kind — here,
    /// against a memory floor: the cheapest candidate the caller intends
    /// to place. Memory is a resource like any other: a node that cannot
    /// fit even that task is not available for this queue, no matter how
    /// much idle CPU or network it has (otherwise a memory-full node at
    /// the top of a capability ranking blocks its whole kind for the
    /// round while lower-ranked nodes sit idle). The GPU→CPU fallback
    /// passes the *GPU* queue's floor here, since that is what the picked
    /// CPU node must hold. A `None` floor (no candidate) admits
    /// vacuously, except that the MEM arm falls back to the default
    /// estimate.
    fn has_room(&self, node: NodeId, kind: ResourceKind, floor: Option<ByteSize>) -> bool {
        let v: &NodeView = &self.input.nodes[node.index()];
        if v.blocked {
            return false;
        }
        let spec = self.input.cluster.node(node);
        let claims = &self.claims[node.index()];
        let cap = (spec.cores as f64 * self.cfg.overcommit_factor).ceil() as usize;
        if v.running_count() + claims.launches >= cap {
            return false;
        }
        if kind != ResourceKind::Mem {
            // an unknown floor (empty queue) admits vacuously — no
            // candidate exists for the probe to launch anyway
            if let Some(f) = floor {
                if self.free_mem_after_claims(node) < f {
                    return false;
                }
            }
        }
        let cores = spec.cores as f64;
        // "fits after adding one more task" semantics: a ceiling of 1.0
        // admits exactly one task per idle core, like Spark, while lower
        // ceilings reserve headroom
        match kind {
            ResourceKind::Cpu => {
                v.cpu_util + (claims.cpu + 1) as f64 / cores <= self.cfg.cpu_util_ceiling + 1e-9
            }
            ResourceKind::Mem => {
                // a large-memory node has room as long as the *cheapest
                // actual candidate* fits — gating on the fixed default
                // estimate starved big nodes of known-small MEM tasks and
                // admitted known-huge ones it could never hold
                let needed = floor.unwrap_or(self.cfg.unknown_task_mem_estimate);
                self.free_mem_after_claims(node) >= needed
            }
            ResourceKind::Io => {
                v.disk_util + (claims.io + 1) as f64 * 0.25 <= self.cfg.disk_util_ceiling + 1e-9
            }
            ResourceKind::Net => {
                v.net_util + (claims.net + 1) as f64 * 0.25 <= self.cfg.net_util_ceiling + 1e-9
            }
            ResourceKind::Gpu => v.gpus_idle > claims.gpu,
        }
    }

    fn note_claim(&mut self, node: NodeId, kind: ResourceKind, mem: ByteSize) {
        let c = &mut self.claims[node.index()];
        c.launches += 1;
        c.mem += mem;
        match kind {
            ResourceKind::Cpu => c.cpu += 1,
            ResourceKind::Io => c.io += 1,
            ResourceKind::Net => c.net += 1,
            ResourceKind::Gpu => c.gpu += 1,
            ResourceKind::Mem => {}
        }
    }

    /// Per-kind utilisation including this round's own claims — the
    /// within-round counterpart of [`crate::rm::utilization`], using the
    /// same marginal-cost model as [`Dispatcher::has_room`].
    fn utilization_with_claims(&self, node: NodeId, kind: ResourceKind) -> f64 {
        let v = &self.input.nodes[node.index()];
        let claims = &self.claims[node.index()];
        let spec = self.input.cluster.node(node);
        match kind {
            ResourceKind::Cpu => v.cpu_util + claims.cpu as f64 / spec.cores as f64,
            ResourceKind::Mem => {
                let cap = v.executor_mem.as_f64();
                if cap <= 0.0 {
                    1.0
                } else {
                    (v.mem_in_use.as_f64() + claims.mem.as_f64()) / cap
                }
            }
            ResourceKind::Io => v.disk_util + claims.io as f64 * 0.25,
            ResourceKind::Net => v.net_util + claims.net as f64 * 0.25,
            ResourceKind::Gpu => {
                let total =
                    v.gpus_idle as f64 + v.running.iter().filter(|r| r.on_gpu).count() as f64;
                if total <= 0.0 {
                    1.0
                } else {
                    1.0 - v.gpus_idle.saturating_sub(claims.gpu) as f64 / total
                }
            }
        }
    }

    /// Dequeue the best node with room from `queue_kind`'s Resource
    /// Queue. Algorithm 2 keeps the queues "sorted based on both the
    /// capability and the current utilization", and within one round the
    /// round's own claims *are* utilisation the heartbeats have not seen
    /// yet — so the pick maximises the *per-task service capability* a
    /// new task would actually see:
    ///
    /// * CPU and GPU are per-unit resources — a free core (or device)
    ///   serves a task at full speed no matter how busy its neighbours
    ///   are, so capability stays flat until [`Dispatcher::has_room`]
    ///   says the node is saturated. Utilisation only breaks ties, which
    ///   rotates bursts across equally-capable peers.
    /// * Memory, network and disk are shared pools — every admitted task
    ///   shrinks what the next one gets, so remaining capability
    ///   `capability × (1 − utilisation-with-claims)` decays with each
    ///   claim and a large burst waterfills down the tiers instead of
    ///   starving the weaker nodes behind the head.
    ///
    /// The cached [`ShardedOrder`] carries, per shard and queue
    /// position, an upper bound on any later node's score — so the scan
    /// skips whole shards whose top bound cannot beat the incumbent and
    /// stops inside a shard as soon as the incumbent strictly beats the
    /// position bound (strictly: a later node may still tie the score and
    /// win the utilisation/load/rank tiebreak). The winner is the
    /// lexicographic minimum of `(−score, util, load, rank)` over
    /// admissible nodes, where [`Rank`] is the flat queue order — so the
    /// shard-merged pick equals a full first-wins scan of the flat queue.
    fn pick_node(
        &self,
        order: &ShardedOrder<'_>,
        queue_kind: ResourceKind,
        floor: Option<ByteSize>,
    ) -> Option<NodeId> {
        let mut best: Option<(NodeId, f64, f64, usize, Rank)> = None;
        for shard in 0..order.shard_count() {
            if let Some((_, s, _, _, _)) = best {
                if s > order.top_bound(shard, queue_kind) {
                    continue;
                }
            }
            for (i, r) in order.ranks(shard, queue_kind).iter().enumerate() {
                if let Some((_, s, _, _, _)) = best {
                    if s > order.bound(shard, queue_kind, i) {
                        break;
                    }
                }
                let n = r.node;
                if !self.has_room(n, queue_kind, floor) {
                    continue;
                }
                let (score, util, load) = self.pick_key(n, queue_kind);
                let better = match &best {
                    None => true,
                    Some((_, s, u, l, br)) => {
                        score > *s
                            || (score == *s
                                && (util < *u
                                    || (util == *u && (load < *l || (load == *l && r < br)))))
                    }
                };
                if better {
                    best = Some((n, score, util, load, *r));
                }
            }
        }
        best.map(|(n, _, _, _, _)| n)
    }

    /// The pick score + tiebreak fields of one candidate node.
    ///
    /// Spot awareness: the score is discounted by the node's published
    /// preemption risk (`1 − min(1, spot_risk_penalty × risk)`), so a
    /// cheap-but-churning node loses ties against a safe peer and only
    /// wins when its raw capability margin outweighs the expected rework.
    /// The discount only ever shrinks a score, so the sharded queue's
    /// suffix-max bounds (computed risk-blind) remain sound upper bounds.
    fn pick_key(&self, n: NodeId, queue_kind: ResourceKind) -> (f64, f64, usize) {
        let util = self.utilization_with_claims(n, queue_kind).clamp(0.0, 1.0);
        let cap = self.input.cluster.node(n).capability(queue_kind);
        let score = match queue_kind {
            ResourceKind::Cpu | ResourceKind::Gpu => cap,
            ResourceKind::Mem | ResourceKind::Net | ResourceKind::Io => cap * (1.0 - util),
        };
        let risk = self.input.nodes[n.index()].preempt_risk;
        let score = score * (1.0 - (self.cfg.spot_risk_penalty * risk).clamp(0.0, 1.0));
        // this kind's utilisation can tie exactly (e.g. two idle
        // 1 GbE NICs) while the nodes are unequally busy overall —
        // prefer the emptier node then, and only then the snapshot
        // queue order (strict comparisons keep the earliest node)
        let load = self.input.nodes[n.index()].running_count() + self.claims[n.index()].launches;
        (score, util, load)
    }

    /// Algorithm 2's `schedule_task`: pick the task from `kind`'s queue,
    /// in the current tenant scope, that best matches `node`, and say why
    /// it won. A *plain* task can never trigger an early return (no lock
    /// ⇒ never locked here; no preferences ⇒ its locality is always
    /// `ANY`), so a full queue scan's winner is exactly the lexicographic
    /// minimum of `(locality, seat)` over the special candidates plus the
    /// first plain task that fits: the special side is scanned in full
    /// (`O(special)`), the plain side first-fits after an `O(log)` "does
    /// anything fit" floor check. Launched tasks are already gone:
    /// [`Dispatcher::run_pass`] removes a match from the TM queues before
    /// the next probe.
    ///
    /// The split classifies by *raw* lock (target liveness ignored); a
    /// dead-locked task lands on the special side although it competes
    /// like a plain one. That is decision-neutral: its live lock is
    /// `None` (no early return), its locality is `ANY`, so it still wins
    /// or loses by seat at `ANY`, just from the other scan.
    fn schedule_task(
        &self,
        tm: &TaskManager,
        kind: ResourceKind,
        node: NodeId,
    ) -> Option<(TaskRef, LaunchReason)> {
        let free_mem = self.free_mem_after_claims(node);
        let mut best: Option<(u64, TaskRef, Locality)> = None;
        for (seat, task) in tm.queues.special_kind(kind, self.tenant) {
            let Some(view) = self.view_of(task) else {
                continue;
            };
            let locked_here = self.locked_best(tm, view) == Some(node);
            if self.peak_estimate(tm, view) > free_mem {
                // Algorithm 2 lines 12–16: the memory check is overridden
                // only for fully-characterised tasks locked to this node
                if locked_here {
                    return Some((
                        task,
                        LaunchReason::BestExecutorLock {
                            overrode_memory_veto: true,
                        },
                    ));
                }
                continue;
            }
            if locked_here {
                return Some((
                    task,
                    LaunchReason::BestExecutorLock {
                        overrode_memory_veto: false,
                    },
                ));
            }
            let loc = if self.cfg.use_locality {
                view.locality(self.input.cluster, node)
            } else {
                Locality::Any
            };
            if loc == Locality::ProcessLocal {
                return Some((
                    task,
                    LaunchReason::QueueMatch {
                        kind,
                        locality: loc,
                    },
                ));
            }
            if best.map(|(_, _, bl)| loc < bl).unwrap_or(true) {
                best = Some((seat, task, loc));
            }
        }

        let plain_pick = if tm
            .queues
            .plain_floor(kind, self.tenant)
            .is_some_and(|min| min <= free_mem)
        {
            tm.queues
                .plain_kind(kind, self.tenant)
                .find(|(_, task, peak)| *peak <= free_mem && !self.held.contains(task))
        } else {
            None
        };

        let (task, locality) = match (best, plain_pick) {
            (Some((sseat, st, sloc)), Some((pseat, pt, _))) => {
                if sloc < Locality::Any || sseat < pseat {
                    (st, sloc)
                } else {
                    (pt, Locality::Any)
                }
            }
            (Some((_, st, sloc)), None) => (st, sloc),
            (None, Some((_, pt, _))) => (pt, Locality::Any),
            (None, None) => return None,
        };
        Some((task, LaunchReason::QueueMatch { kind, locality }))
    }

    /// Smallest peak estimate among `kind`'s live candidates in the
    /// current tenant scope: the plain side's is the first key of its
    /// peak multiset — unless gang members are held this round, which
    /// the multiset still counts, so those rounds scan — and the special
    /// side is scanned (it is small).
    fn kind_floor(&self, tm: &TaskManager, kind: ResourceKind) -> Option<ByteSize> {
        let plain_min = if self.held.is_empty() {
            tm.queues.plain_floor(kind, self.tenant)
        } else {
            tm.queues
                .plain_kind(kind, self.tenant)
                .filter(|(_, task, _)| !self.held.contains(task))
                .map(|(_, _, peak)| peak)
                .min()
        };
        let special_min = tm
            .queues
            .special_kind(kind, self.tenant)
            .filter_map(|(_, t)| self.view_of(t))
            .map(|v| self.peak_estimate(tm, v))
            .min();
        match (plain_min, special_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Run one offer round: diff the persistent node rankings against
    /// this round's snapshot (`O(changed · log n)`), admit gang stages
    /// (when enabled), then run the round-robin matching loop over the
    /// tenants in `order` — the allocation policy's order for the round,
    /// or `[TenantId(0)]` for the FIFO baseline's single shared scope —
    /// consuming matched tasks from the TM queues. Tenants absent from
    /// `order` (over quota this round) receive nothing. Returns the
    /// launch commands.
    pub fn dispatch(
        &mut self,
        tm: &mut TaskManager,
        cache: &mut NodeQueueCache,
        order: &[TenantId],
    ) -> Vec<Command> {
        cache.refresh_keys(
            self.input.cluster,
            &self.input.nodes,
            self.input.changed.as_deref(),
        );
        // With nothing pending the matching loop can only produce zero
        // launches — skip the pick scans and even the dispatch-queue
        // materialisation outright. The re-keying above still ran, so the
        // ordered sets stay in sync and the queues catch up lazily on the
        // next busy round.
        if self.input.pending.is_empty() {
            return Vec::new();
        }
        let mut cmds = if self.cfg.gang_admission {
            self.admit_gangs(tm)
        } else {
            Vec::new()
        };
        cache.materialize_dirty(self.input.cluster);
        let nodes = cache.sharded_order();
        // every outer pass serves each tenant one round-robin cycle over
        // the resource kinds, so a burst from the first tenant cannot
        // drain the whole cluster before later tenants see an offer.
        // Claims are shared across tenants — the round admits exactly as
        // much as one shared pool would, only distributed by the policy.
        loop {
            let mut launched_any = false;
            for &t in order {
                self.tenant = t;
                launched_any |= self.run_pass(tm, &nodes, &mut cmds);
            }
            if !launched_any {
                break;
            }
        }
        self.safety_valve(tm, &mut cmds);
        cmds
    }

    /// All-or-nothing admission for `gang: true` stages (the GPU
    /// Gramian sweep): every still-pending member of a gang stage must
    /// find a co-resident slot under this round's claims, or none
    /// launches and the whole stage is *held* out of piecemeal dispatch
    /// for the round. Failed plans roll their tentative claims back
    /// completely, so the ordinary dispatch that follows sees an
    /// untouched admission ledger.
    fn admit_gangs(&mut self, tm: &mut TaskManager) -> Vec<Command> {
        let mut stages: Vec<StageId> = Vec::new();
        for p in &self.input.pending {
            if self.input.app.stage(p.task.stage).gang && !stages.contains(&p.task.stage) {
                stages.push(p.task.stage);
            }
        }
        let mut out = Vec::new();
        for stage in stages {
            let members: Vec<&PendingTaskView> = self
                .input
                .pending
                .iter()
                .filter(|p| p.task.stage == stage && self.view_of(p.task).is_some())
                .collect();
            if members.is_empty() {
                continue;
            }
            let saved = self.claims.clone();
            let mut plan: Vec<(TaskRef, NodeId, bool, Locality)> = Vec::new();
            let mut fits = true;
            for view in &members {
                let peak = self.peak_estimate(tm, view);
                match self.gang_slot(view, peak) {
                    Some((node, use_gpu, locality)) => {
                        let kind = if use_gpu {
                            ResourceKind::Gpu
                        } else {
                            ResourceKind::Cpu
                        };
                        self.note_claim(node, kind, peak);
                        plan.push((view.task, node, use_gpu, locality));
                    }
                    None => {
                        fits = false;
                        break;
                    }
                }
            }
            if !fits {
                // all-or-nothing rollback: restore the admission ledger
                // and hold every member for the round
                self.claims = saved;
                for view in &members {
                    self.held.insert(view.task);
                }
                continue;
            }
            for (task, node, use_gpu, locality) in plan {
                tm.queues.remove(&task);
                out.push(Command::Launch {
                    task,
                    node,
                    use_gpu,
                    speculative: false,
                    reason: LaunchReason::GangAdmission { locality },
                });
            }
        }
        out
    }

    /// One gang member's slot under the current claims: GPU slots are
    /// preferred for GPU-capable members (mirroring the GPU queue), then
    /// the best locality, then the node with the most post-claim free
    /// memory; node id breaks the final tie, so the plan is a pure
    /// function of the snapshot.
    fn gang_slot(
        &self,
        view: &PendingTaskView,
        peak: ByteSize,
    ) -> Option<(NodeId, bool, Locality)> {
        // (CPU-only slot, locality, most free memory first, node id)
        type SlotKey = (bool, Locality, std::cmp::Reverse<ByteSize>, NodeId);
        let mut best: Option<(SlotKey, bool)> = None;
        for v in &self.input.nodes {
            let n = v.node;
            let gpu_ok = view.gpu_capable && self.has_room(n, ResourceKind::Gpu, Some(peak));
            let cpu_ok = self.has_room(n, ResourceKind::Cpu, Some(peak));
            if !gpu_ok && !cpu_ok {
                continue;
            }
            if self.free_mem_after_claims(n) < peak {
                continue;
            }
            let loc = if self.cfg.use_locality {
                view.locality(self.input.cluster, n)
            } else {
                Locality::Any
            };
            let key = (
                !gpu_ok,
                loc,
                std::cmp::Reverse(self.free_mem_after_claims(n)),
                n,
            );
            if best.as_ref().map(|(bk, _)| key < *bk).unwrap_or(true) {
                best = Some((key, gpu_ok));
            }
        }
        best.map(|((_, loc, _, n), use_gpu)| (n, use_gpu, loc))
    }

    /// One round-robin cycle over the resource kinds (the body of the
    /// matching loop) in the current tenant scope. Returns whether
    /// anything launched.
    fn run_pass(
        &mut self,
        tm: &mut TaskManager,
        nodes: &ShardedOrder<'_>,
        cmds: &mut Vec<Command>,
    ) -> bool {
        let mut launched_any = false;
        for kind in ResourceKind::ALL {
            // refreshed per pass — claims consumed since the last pass
            // may have taken the cheapest candidate
            let floor = self.kind_floor(tm, kind);
            // next node from this kind's Resource Queue with room
            let mut node = self.pick_node(nodes, kind, floor);
            let mut fell_back_to_cpu = false;
            if node.is_none() && kind == ResourceKind::Gpu {
                // §III-C3: GPU tasks are not held hostage by busy
                // GPUs — fall back to the most powerful idle CPU,
                // one that can still hold the GPU queue's cheapest
                // candidate
                node = self.pick_node(nodes, ResourceKind::Cpu, floor);
                fell_back_to_cpu = node.is_some();
            }
            let Some(node) = node else { continue };
            let Some((task, reason)) = self.schedule_task(tm, kind, node) else {
                continue;
            };
            let view = self.view_of(task).expect("scheduled task is pending");
            let use_gpu = kind == ResourceKind::Gpu
                && !fell_back_to_cpu
                && view.gpu_capable
                && self.input.nodes[node.index()].gpus_idle > self.claims[node.index()].gpu;
            let mem = self.peak_estimate(tm, view);
            let claim_kind = if fell_back_to_cpu {
                ResourceKind::Cpu
            } else {
                kind
            };
            self.note_claim(node, claim_kind, mem);
            tm.queues.remove(&task);
            // a best-executor lock keeps its own reason even on the
            // fallback path — the lock, not the fallback, chose it
            let reason = match reason {
                LaunchReason::QueueMatch { locality, .. } if fell_back_to_cpu => {
                    LaunchReason::GpuCpuFallback { locality }
                }
                other => other,
            };
            cmds.push(Command::Launch {
                task,
                node,
                use_gpu,
                speculative: false,
                reason,
            });
            launched_any = true;
        }
        launched_any
    }

    /// Progress safety valve: if the whole cluster is idle and policy
    /// found nothing (e.g. every estimate exceeds free memory on the
    /// preferred nodes), force the first pending task onto the node
    /// with the most free memory — a stuck cluster is strictly worse
    /// than any placement. Gang-held tasks stay held: their stage
    /// blocks on co-residency, not on this round's estimates.
    fn safety_valve(&mut self, tm: &mut TaskManager, cmds: &mut Vec<Command>) {
        let cluster_idle = self
            .input
            .nodes
            .iter()
            .all(|v| v.running_count() + self.claims[v.node.index()].launches == 0);
        if !cmds.is_empty() || !cluster_idle {
            return;
        }
        // nothing launched this round, so every pending task is still
        // unclaimed: prefer unheld work; but an idle cluster that STILL
        // cannot co-place a gang will never be able to — break the gang
        // open rather than deadlock
        let pending = &self.input.pending;
        let Some(view) = pending
            .iter()
            .find(|p| !self.held.contains(&p.task))
            .or(pending.first())
        else {
            return;
        };
        if let Some(node) = self
            .input
            .nodes
            .iter()
            .filter(|v| !v.blocked)
            .max_by_key(|v| (v.free_mem, std::cmp::Reverse(v.node)))
            .map(|v| v.node)
        {
            tm.queues.remove(&view.task);
            cmds.push(Command::Launch {
                task: view.task,
                node,
                use_gpu: false,
                speculative: false,
                reason: LaunchReason::SafetyValve,
            });
        }
    }
}

/// The flat-scan reference matcher: Algorithm 2 as first written —
/// Resource Queues rebuilt and re-sorted from each snapshot, an eagerly
/// indexed pending map, a full task-queue scan per probe with a
/// per-entry tenant filter, and a DB read per probe. It shares the
/// production admission ledger (claims, room checks, pick keys, gang
/// planning), so comparing the two isolates the persistent task split,
/// its memory floors and the sharded node ranking.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::rm::ResourceQueues;

    /// One round of the reference matcher.
    pub(super) struct Reference<'a> {
        d: Dispatcher<'a>,
        pending: HashMap<TaskRef, &'a PendingTaskView>,
    }

    impl<'a> Reference<'a> {
        pub(super) fn new(cfg: &'a RupamConfig, input: &'a OfferInput<'a>) -> Self {
            Reference {
                d: Dispatcher::new(cfg, input),
                pending: input.pending.iter().map(|p| (p.task, p)).collect(),
            }
        }

        /// `kind`'s queue entries in `tenant`'s scope that are still
        /// dispatchable this round, in queue order.
        fn candidates<'t>(
            &'t self,
            tm: &'t TaskManager,
            kind: ResourceKind,
            tenant: TenantId,
        ) -> impl Iterator<Item = (TaskRef, &'a PendingTaskView)> + 't {
            tm.queues
                .iter_kind(kind)
                .filter(move |t| tm.queues.tenant_of(t) == tenant && !self.d.held.contains(t))
                .filter_map(|t| Some((t, *self.pending.get(&t)?)))
        }

        /// Full first-wins scan of a flat sorted queue.
        fn pick_node(
            &self,
            queues: &ResourceQueues,
            kind: ResourceKind,
            floor: Option<ByteSize>,
        ) -> Option<NodeId> {
            let mut best: Option<(NodeId, f64, f64, usize)> = None;
            for &n in queues.nodes(kind) {
                if !self.d.has_room(n, kind, floor) {
                    continue;
                }
                let (score, util, load) = self.d.pick_key(n, kind);
                let better = match best {
                    None => true,
                    Some((_, s, u, l)) => {
                        score > s || (score == s && (util < u || (util == u && load < l)))
                    }
                };
                if better {
                    best = Some((n, score, util, load));
                }
            }
            best.map(|(n, _, _, _)| n)
        }

        /// Full queue scan for the task that best matches `node`.
        fn schedule_task(
            &self,
            tm: &TaskManager,
            kind: ResourceKind,
            node: NodeId,
            tenant: TenantId,
        ) -> Option<(TaskRef, LaunchReason)> {
            let free_mem = self.d.free_mem_after_claims(node);
            let mut best: Option<(TaskRef, Locality)> = None;
            for (task, view) in self.candidates(tm, kind, tenant) {
                let (peak, lock) = self.d.read_char(tm, view);
                let locked_here = lock == Some(node);
                if peak > free_mem || locked_here {
                    if locked_here {
                        return Some((
                            task,
                            LaunchReason::BestExecutorLock {
                                overrode_memory_veto: peak > free_mem,
                            },
                        ));
                    }
                    continue;
                }
                let loc = if self.d.cfg.use_locality {
                    view.locality(self.d.input.cluster, node)
                } else {
                    Locality::Any
                };
                if loc == Locality::ProcessLocal {
                    return Some((
                        task,
                        LaunchReason::QueueMatch {
                            kind,
                            locality: loc,
                        },
                    ));
                }
                if best.map(|(_, bl)| loc < bl).unwrap_or(true) {
                    best = Some((task, loc));
                }
            }
            best.map(|(t, locality)| (t, LaunchReason::QueueMatch { kind, locality }))
        }

        /// The round's commands, serving the tenants in `order`.
        pub(super) fn dispatch(mut self, tm: &mut TaskManager, order: &[TenantId]) -> Vec<Command> {
            let input = self.d.input;
            if input.pending.is_empty() {
                return Vec::new();
            }
            let mut cmds = if self.d.cfg.gang_admission {
                self.d.admit_gangs(tm)
            } else {
                Vec::new()
            };
            for c in &cmds {
                if let Command::Launch { task, .. } = c {
                    self.pending.remove(task);
                }
            }
            let queues = ResourceQueues::build(input.cluster, &input.nodes);
            loop {
                let mut launched_any = false;
                for &tenant in order {
                    for kind in ResourceKind::ALL {
                        let floor = self
                            .candidates(tm, kind, tenant)
                            .map(|(_, v)| self.d.read_char(tm, v).0)
                            .min();
                        let mut node = self.pick_node(&queues, kind, floor);
                        let mut fell_back_to_cpu = false;
                        if node.is_none() && kind == ResourceKind::Gpu {
                            node = self.pick_node(&queues, ResourceKind::Cpu, floor);
                            fell_back_to_cpu = node.is_some();
                        }
                        let Some(node) = node else { continue };
                        let Some((task, reason)) = self.schedule_task(tm, kind, node, tenant)
                        else {
                            continue;
                        };
                        let view = self
                            .pending
                            .remove(&task)
                            .expect("scheduled task is pending");
                        let use_gpu = kind == ResourceKind::Gpu
                            && !fell_back_to_cpu
                            && view.gpu_capable
                            && input.nodes[node.index()].gpus_idle
                                > self.d.claims[node.index()].gpu;
                        let claim_kind = if fell_back_to_cpu {
                            ResourceKind::Cpu
                        } else {
                            kind
                        };
                        let mem = self.d.read_char(tm, view).0;
                        self.d.note_claim(node, claim_kind, mem);
                        tm.queues.remove(&task);
                        let reason = match reason {
                            LaunchReason::QueueMatch { locality, .. } if fell_back_to_cpu => {
                                LaunchReason::GpuCpuFallback { locality }
                            }
                            other => other,
                        };
                        cmds.push(Command::Launch {
                            task,
                            node,
                            use_gpu,
                            speculative: false,
                            reason,
                        });
                        launched_any = true;
                    }
                }
                if !launched_any {
                    break;
                }
            }
            let cluster_idle = input
                .nodes
                .iter()
                .all(|v| v.running_count() + self.d.claims[v.node.index()].launches == 0);
            if cmds.is_empty() && cluster_idle {
                let unclaimed = |p: &&PendingTaskView| self.pending.contains_key(&p.task);
                let held = |p: &&PendingTaskView| self.d.held.contains(&p.task);
                let pick = input
                    .pending
                    .iter()
                    .find(|p| unclaimed(p) && !held(p))
                    .or_else(|| input.pending.iter().find(|p| unclaimed(p) && held(p)));
                let target = input
                    .nodes
                    .iter()
                    .filter(|v| !v.blocked)
                    .max_by_key(|v| (v.free_mem, std::cmp::Reverse(v.node)));
                if let (Some(view), Some(target)) = (pick, target) {
                    tm.queues.remove(&view.task);
                    cmds.push(Command::Launch {
                        task: view.task,
                        node: target.node,
                        use_gpu: false,
                        speculative: false,
                        reason: LaunchReason::SafetyValve,
                    });
                }
            }
            cmds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupam_cluster::ClusterSpec;
    use rupam_dag::app::{Application, StageId, StageKind};
    use rupam_simcore::time::SimTime;

    fn dummy_app() -> Application {
        use rupam_dag::task::{InputSource, TaskDemand, TaskTemplate};
        let mut b = rupam_dag::AppBuilder::new("d");
        let j = b.begin_job();
        b.add_stage(
            j,
            "r",
            "d/r",
            StageKind::Result,
            vec![],
            vec![TaskTemplate {
                index: 0,
                input: InputSource::Generated,
                demand: TaskDemand::default(),
            }],
        );
        b.build()
    }

    fn views(cluster: &ClusterSpec) -> Vec<NodeView> {
        cluster
            .iter()
            .map(|(id, spec)| NodeView {
                node: id,
                executor_mem: spec.mem.saturating_sub(ByteSize::gib(2)),
                mem_in_use: ByteSize::ZERO,
                free_mem: spec.mem.saturating_sub(ByteSize::gib(2)),
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

    fn pview(index: usize, kind: StageKind) -> PendingTaskView {
        PendingTaskView {
            task: TaskRef {
                stage: StageId(0),
                index,
            },
            job: rupam_dag::app::JobId(0),
            template_key: "d/r".into(),
            stage_kind: kind,
            attempt_no: 0,
            peak_mem_hint: ByteSize::ZERO,
            gpu_capable: false,
            process_nodes: vec![],
            node_local: vec![],
        }
    }

    fn offer<'a>(
        cluster: &'a ClusterSpec,
        app: &'a Application,
        nodes: Vec<NodeView>,
        pending: Vec<PendingTaskView>,
    ) -> OfferInput<'a> {
        OfferInput {
            now: SimTime::ZERO,
            cluster,
            app,
            nodes,
            pending,
            speculatable: vec![],
            job_arrivals: vec![SimTime::ZERO],
            job_tenants: vec![rupam_dag::TenantId(0)],
            changed: None,
            pending_fresh: vec![],
        }
    }

    /// Queue `views` (sorted by index) the way an offer round's fresh
    /// list does.
    fn submit(tm: &mut TaskManager, views: &[PendingTaskView]) {
        let fresh: Vec<TaskRef> = views.iter().map(|v| v.task).collect();
        tm.ingest_fresh(views, &fresh);
    }

    /// One FIFO-baseline dispatch over a cold node cache.
    fn dispatch_with(
        cfg: &RupamConfig,
        input: &OfferInput<'_>,
        tm: &mut TaskManager,
    ) -> Vec<Command> {
        Dispatcher::new(cfg, input).dispatch(tm, &mut NodeQueueCache::new(), &[TenantId(0)])
    }

    #[test]
    fn dispatches_pending_tasks_across_kinds() {
        let cluster = ClusterSpec::hydra();
        let app = dummy_app();
        let cfg = RupamConfig::default();
        let mut tm = TaskManager::new(cfg.clone());
        let pending: Vec<_> = (0..4).map(|i| pview(i, StageKind::ShuffleMap)).collect();
        let input = offer(&cluster, &app, views(&cluster), pending.clone());
        submit(&mut tm, &pending);
        let cmds = dispatch_with(&cfg, &input, &mut tm);
        assert_eq!(cmds.len(), 4, "all pending tasks launch: {cmds:?}");
        // each task launched exactly once
        let mut tasks: Vec<usize> = cmds
            .iter()
            .map(|c| match c {
                Command::Launch { task, .. } => task.index,
                _ => panic!(),
            })
            .collect();
        tasks.sort();
        assert_eq!(tasks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn memory_check_protects_small_nodes() {
        let cluster = ClusterSpec::hydra();
        let app = dummy_app();
        let cfg = RupamConfig::default();
        let mut tm = TaskManager::new(cfg.clone());
        // a task that needs 40 GiB: only hulk (62) and stack (46) fit
        let mut p = pview(0, StageKind::ShuffleMap);
        p.peak_mem_hint = ByteSize::gib(40);
        submit(&mut tm, &[p.clone()]);
        let input = offer(&cluster, &app, views(&cluster), vec![p]);
        let cmds = dispatch_with(&cfg, &input, &mut tm);
        assert_eq!(cmds.len(), 1);
        match &cmds[0] {
            Command::Launch { node, .. } => {
                let class = &cluster.node(*node).class;
                assert!(class == "hulk" || class == "stack", "picked {class}");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn gpu_task_lands_on_gpu_node() {
        let cluster = ClusterSpec::hydra();
        let app = dummy_app();
        let cfg = RupamConfig::default();
        let mut tm = TaskManager::new(cfg.clone());
        let mut p = pview(0, StageKind::ShuffleMap);
        p.gpu_capable = true;
        // teach the TM that this stage uses GPUs (a sibling was observed
        // on one — §III-B2's stage-wide GPU marking)
        {
            use rupam_metrics::breakdown::TaskBreakdown;
            use rupam_metrics::record::{AttemptOutcome, TaskRecord};
            tm.record_finish(&TaskRecord {
                task: TaskRef {
                    stage: StageId(0),
                    index: 99,
                },
                job: rupam_dag::app::JobId(0),
                template_key: "d/r".into(),
                attempt: 0,
                node: NodeId(10),
                speculative: false,
                locality: rupam_dag::Locality::Any,
                launched_at: SimTime::ZERO,
                finished_at: SimTime::from_secs_f64(1.0),
                outcome: AttemptOutcome::Success,
                breakdown: TaskBreakdown::new(),
                peak_mem: ByteSize::mib(100),
                used_gpu: true,
            });
        }
        submit(&mut tm, &[p.clone()]);
        let input = offer(&cluster, &app, views(&cluster), vec![p]);
        let cmds = dispatch_with(&cfg, &input, &mut tm);
        assert_eq!(cmds.len(), 1);
        match &cmds[0] {
            Command::Launch { node, use_gpu, .. } => {
                assert_eq!(cluster.node(*node).class, "stack");
                assert!(use_gpu);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn locality_breaks_ties() {
        let cluster = ClusterSpec::hydra();
        let app = dummy_app();
        let cfg = RupamConfig::default();
        let mut tm = TaskManager::new(cfg.clone());
        // two CPU-bound-looking tasks; one NODE_LOCAL to the best thor
        let thor_best = {
            // determine which node the dispatcher will pick for CPU
            let input = offer(&cluster, &app, views(&cluster), vec![]);
            let q = crate::rm::ResourceQueues::build(&cluster, &input.nodes);
            q.best(ResourceKind::Cpu).unwrap()
        };
        let mut far = pview(0, StageKind::ShuffleMap);
        far.node_local = vec![]; // ANY everywhere
        let mut near = pview(1, StageKind::ShuffleMap);
        near.node_local = vec![thor_best];
        submit(&mut tm, &[far.clone(), near.clone()]);
        let input = offer(&cluster, &app, views(&cluster), vec![far, near]);
        let cmds = dispatch_with(&cfg, &input, &mut tm);
        // the first CPU dispatch must pick the NODE_LOCAL task (index 1)
        let first_cpu = cmds
            .iter()
            .find_map(|c| match c {
                Command::Launch { task, node, .. } if *node == thor_best => Some(task.index),
                _ => None,
            })
            .expect("something launched on the best thor");
        assert_eq!(first_cpu, 1, "locality should break the tie");
    }

    #[test]
    fn overcommit_cap_respected() {
        let cluster = ClusterSpec::hydra();
        let app = dummy_app();
        let cfg = RupamConfig {
            overcommit_factor: 1.0,
            ..RupamConfig::default()
        };
        let mut tm = TaskManager::new(cfg.clone());
        let pending: Vec<_> = (0..500).map(|i| pview(i, StageKind::ShuffleMap)).collect();
        submit(&mut tm, &pending);
        let input = offer(&cluster, &app, views(&cluster), pending);
        let cmds = dispatch_with(&cfg, &input, &mut tm);
        // at factor 1.0 no more than total cores can launch
        assert!(cmds.len() <= cluster.total_cores() as usize);
        // per node: count
        let mut per_node = vec![0usize; cluster.len()];
        for c in &cmds {
            if let Command::Launch { node, .. } = c {
                per_node[node.index()] += 1;
            }
        }
        for (i, &n) in per_node.iter().enumerate() {
            assert!(
                n <= cluster.node(NodeId(i)).cores as usize,
                "node {i} got {n} tasks with overcommit 1.0"
            );
        }
    }

    #[test]
    fn safety_valve_fires_on_idle_cluster() {
        let cluster = ClusterSpec::hydra();
        let app = dummy_app();
        let cfg = RupamConfig::default();
        let mut tm = TaskManager::new(cfg.clone());
        // a task so large no estimate fits anywhere
        let mut p = pview(0, StageKind::ShuffleMap);
        p.peak_mem_hint = ByteSize::gib(200);
        submit(&mut tm, &[p.clone()]);
        let input = offer(&cluster, &app, views(&cluster), vec![p]);
        let cmds = dispatch_with(&cfg, &input, &mut tm);
        assert_eq!(cmds.len(), 1, "valve must keep the cluster moving");
        match &cmds[0] {
            Command::Launch { node, .. } => {
                // most free memory = a hulk node
                assert_eq!(cluster.node(*node).class, "hulk");
            }
            _ => panic!(),
        }
    }

    fn gpu_record(template: &str, index: usize) -> rupam_metrics::record::TaskRecord {
        use rupam_metrics::breakdown::TaskBreakdown;
        use rupam_metrics::record::{AttemptOutcome, TaskRecord};
        TaskRecord {
            task: TaskRef {
                stage: StageId(99),
                index,
            },
            job: rupam_dag::app::JobId(0),
            template_key: template.into(),
            attempt: 0,
            node: NodeId(10),
            speculative: false,
            locality: Locality::Any,
            launched_at: SimTime::ZERO,
            finished_at: SimTime::from_secs_f64(1.0),
            outcome: AttemptOutcome::Success,
            breakdown: TaskBreakdown::new(),
            peak_mem: ByteSize::mib(100),
            used_gpu: true,
        }
    }

    /// A gang stage that cannot be co-placed is held for the round; its
    /// members must not count toward the GPU queue's memory floor. With
    /// small held members in the floor, memory-tight GPU nodes would pass
    /// the room check, the probe would find nothing that fits, and the
    /// GPU queue would be skipped instead of falling back to a CPU node.
    #[test]
    fn held_gang_members_do_not_lower_the_memory_floor() {
        use rupam_dag::task::{InputSource, TaskDemand, TaskTemplate};
        let cluster = ClusterSpec::hydra();
        let tasks = |n: usize| -> Vec<TaskTemplate> {
            (0..n)
                .map(|index| TaskTemplate {
                    index,
                    input: InputSource::Generated,
                    demand: TaskDemand::default(),
                })
                .collect()
        };
        let mut b = rupam_dag::AppBuilder::new("g");
        let j = b.begin_job();
        let gang = b.add_stage(
            j,
            "blas",
            "g/blas",
            StageKind::ShuffleMap,
            vec![],
            tasks(400),
        );
        b.mark_gang(gang);
        b.add_stage(j, "big", "g/big", StageKind::Result, vec![gang], tasks(1));
        let app = b.build();
        let cfg = RupamConfig {
            gang_admission: true,
            ..RupamConfig::default()
        };
        let mut tm = TaskManager::new(cfg.clone());
        // both templates were seen on a GPU: their tasks queue for GPUs only
        tm.record_finish(&gpu_record("g/blas", 0));
        tm.record_finish(&gpu_record("g/big", 0));
        let view = |stage: usize, index: usize, peak: ByteSize| PendingTaskView {
            task: TaskRef {
                stage: StageId(stage),
                index,
            },
            job: rupam_dag::app::JobId(0),
            template_key: app.stages[stage].template_key,
            stage_kind: app.stages[stage].kind,
            attempt_no: 0,
            peak_mem_hint: peak,
            gpu_capable: true,
            process_nodes: vec![],
            node_local: vec![],
        };
        // 400 small gang members never fit at once; one big plain task
        let mut pending: Vec<_> = (0..400).map(|i| view(0, i, ByteSize::gib(1))).collect();
        pending.push(view(1, 0, ByteSize::gib(20)));
        submit(&mut tm, &pending);
        let mut nodes = views(&cluster);
        for v in nodes.iter_mut().filter(|v| v.gpus_idle > 0) {
            v.free_mem = ByteSize::gib(2); // GPUs idle, memory nearly full
        }
        nodes[0]
            .running
            .push(rupam_exec::scheduler::RunningTaskView {
                task: TaskRef {
                    stage: StageId(99),
                    index: 0,
                },
                speculative: false,
                elapsed: rupam_simcore::time::SimDuration::ZERO,
                peak_mem: ByteSize::gib(1),
                on_gpu: false,
            });
        let input = offer(&cluster, &app, nodes, pending);
        let cmds = dispatch_with(&cfg, &input, &mut tm);
        assert_eq!(cmds.len(), 1, "only the big task launches: {cmds:?}");
        match &cmds[0] {
            Command::Launch {
                task, node, reason, ..
            } => {
                assert_eq!(task.stage, StageId(1));
                assert!(input.nodes[node.index()].free_mem >= ByteSize::gib(20));
                assert!(
                    matches!(reason, LaunchReason::GpuCpuFallback { .. }),
                    "expected the GPU→CPU fallback, got {reason:?}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Seeded multi-round differential test: production and the
    /// flat-scan [`reference`] get identical TM histories (ingestion, DB
    /// writes between rounds) and identical snapshots, and must emit
    /// identical command lists every round — on the paper cluster and
    /// on the multi-rack 64- and 256-node shapes.
    mod differential {
        use super::*;
        use crate::alloc::AllocationPolicy;
        use crate::dispatcher::reference::Reference;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::Rng;
        use rupam_dag::task::{InputSource, TaskDemand, TaskTemplate};
        use rupam_exec::offer_state::{OfferHost, OfferState, ShufflePrefs};
        use rupam_exec::scheduler::RunningTaskView;
        use rupam_exec::testutil::PendingShadow;
        use rupam_metrics::breakdown::{BreakdownCategory as C, TaskBreakdown};
        use rupam_metrics::record::{AttemptOutcome, TaskRecord};
        use rupam_simcore::time::SimDuration;
        use rupam_simcore::RngFactory;
        use std::collections::BTreeMap;

        const TASKS_PER_STAGE: usize = 12;
        const TENANTS: usize = 3;

        /// Three jobs (one per tenant), each a map stage and a result
        /// stage; job 0's map stage is a gang, job 2's runs on GPUs.
        fn app() -> Application {
            let mut b = rupam_dag::AppBuilder::new("diff");
            for (name, gang) in [("g", true), ("d", false), ("u", false)] {
                let j = b.begin_job();
                let tasks = (0..TASKS_PER_STAGE)
                    .map(|index| TaskTemplate {
                        index,
                        input: InputSource::Generated,
                        demand: TaskDemand::default(),
                    })
                    .collect::<Vec<_>>();
                let m = b.add_stage(
                    j,
                    "map",
                    format!("{name}/map"),
                    StageKind::ShuffleMap,
                    vec![],
                    tasks.clone(),
                );
                if gang {
                    b.mark_gang(m);
                }
                b.add_stage(
                    j,
                    "out",
                    format!("{name}/out"),
                    StageKind::Result,
                    vec![m],
                    tasks,
                );
            }
            b.build()
        }

        fn pick<T: Copy>(rng: &mut StdRng, xs: &[T]) -> T {
            xs[rng.gen_range(0..xs.len())]
        }

        fn random_nodes(rng: &mut StdRng, n: usize) -> Vec<NodeId> {
            (0..n).filter(|_| rng.gen_bool(0.15)).map(NodeId).collect()
        }

        fn random_view(
            rng: &mut StdRng,
            app: &Application,
            task: TaskRef,
            nodes: usize,
        ) -> PendingTaskView {
            let stage = app.stage(task.stage);
            PendingTaskView {
                task,
                job: rupam_dag::app::JobId(task.stage.index() / 2),
                template_key: stage.template_key,
                stage_kind: stage.kind,
                attempt_no: rng.gen_range(0..3),
                peak_mem_hint: if rng.gen_bool(0.5) {
                    ByteSize::ZERO
                } else {
                    ByteSize::mib(pick(rng, &[256, 512, 1024, 3072, 8192, 20480, 49152]))
                },
                gpu_capable: task.stage.index() / 2 != 1,
                process_nodes: if rng.gen_bool(0.1) {
                    random_nodes(rng, nodes)
                } else {
                    vec![]
                },
                node_local: if rng.gen_bool(0.3) {
                    random_nodes(rng, nodes)
                } else {
                    vec![]
                },
            }
        }

        /// A finished attempt that Algorithm 1 classifies as `kind` —
        /// repeated over rounds, keys collect full histories and locks.
        fn record(rng: &mut StdRng, app: &Application, nodes: usize) -> TaskRecord {
            let stage = &app.stages[rng.gen_range(0..app.stages.len())];
            let kind = pick(rng, &ResourceKind::ALL);
            let (compute, sread, swrite): (u64, u64, u64) = match kind {
                ResourceKind::Net => (1, 10, 1),
                ResourceKind::Io => (1, 1, 10),
                _ => (10, 1, 1),
            };
            let mut breakdown = TaskBreakdown::new();
            breakdown.add(
                C::Compute,
                SimDuration::from_secs(compute + rng.gen_range(0u64..5)),
            );
            breakdown.add(C::ShuffleNet, SimDuration::from_secs(sread));
            breakdown.add(C::ShuffleWrite, SimDuration::from_secs(swrite));
            let peak = if kind == ResourceKind::Mem {
                ByteSize::gib(pick(rng, &[6, 12, 30]))
            } else {
                ByteSize::mib(pick(rng, &[0, 256, 768, 2048]))
            };
            TaskRecord {
                // a sibling outside the pending pool sharing the DB key
                task: TaskRef {
                    stage: StageId(99),
                    index: rng.gen_range(0..3),
                },
                job: rupam_dag::app::JobId(0),
                template_key: stage.template_key,
                attempt: 0,
                node: NodeId(rng.gen_range(0..nodes)),
                speculative: false,
                locality: Locality::Any,
                launched_at: SimTime::ZERO,
                finished_at: SimTime::ZERO,
                outcome: AttemptOutcome::Success,
                breakdown,
                peak_mem: peak,
                used_gpu: kind == ResourceKind::Gpu,
            }
        }

        fn random_views(rng: &mut StdRng, cluster: &ClusterSpec) -> Vec<NodeView> {
            // idle rounds, some with memory too tight for anything: the
            // safety valve's territory
            let idle_round = rng.gen_bool(0.15);
            let max_free_mib = if idle_round && rng.gen_bool(0.5) {
                768
            } else {
                u64::MAX
            };
            let mut out = views(cluster);
            for v in &mut out {
                let spec = cluster.node(v.node);
                v.dead = rng.gen_bool(0.06);
                v.blocked = v.dead || rng.gen_bool(0.04);
                let mib = (v.executor_mem.bytes() >> 20).min(max_free_mib);
                v.free_mem = ByteSize::mib(rng.gen_range(0..=mib));
                if idle_round {
                    continue;
                }
                v.mem_in_use = v.executor_mem.saturating_sub(v.free_mem);
                let running = rng.gen_range(0..=spec.cores as usize);
                let on_gpu = rng.gen_range(0..=spec.gpus.min(running as u32));
                v.gpus_idle = spec.gpus - on_gpu;
                v.running = (0..running)
                    .map(|i| RunningTaskView {
                        task: TaskRef {
                            stage: StageId(99),
                            index: i,
                        },
                        speculative: false,
                        elapsed: SimDuration::ZERO,
                        peak_mem: ByteSize::ZERO,
                        on_gpu: (i as u32) < on_gpu,
                    })
                    .collect();
                v.cpu_util = rng.gen_range(0.0..1.0);
                v.net_util = rng.gen_range(0.0..1.0);
                v.disk_util = rng.gen_range(0.0..1.0);
            }
            out
        }

        /// The paper cluster plus the multi-rack shapes whose rankings
        /// are bound-pruned across rack shards.
        fn cluster(shape: usize) -> ClusterSpec {
            match shape {
                0 => ClusterSpec::hydra(),
                1 => ClusterSpec::hydra_mix(48, 8, 8),
                _ => ClusterSpec::hydra_mix(192, 32, 32),
            }
        }

        fn run_case(
            seed: u64,
            shape: usize,
            gang: bool,
            tenants: bool,
        ) -> Result<(), TestCaseError> {
            let cluster = cluster(shape);
            let app = app();
            let cfg = RupamConfig {
                gang_admission: gang,
                allocation: if tenants {
                    AllocationPolicy::WeightedFair
                } else {
                    AllocationPolicy::FifoBaseline
                },
                ..RupamConfig::default()
            };
            let mut rng = RngFactory::new(seed).stream("dispatcher-differential");
            let job_tenants: Vec<TenantId> = (0..TENANTS).map(TenantId).collect();
            let (mut tm_prod, mut tm_ref) =
                (TaskManager::new(cfg.clone()), TaskManager::new(cfg.clone()));
            if tenants {
                tm_prod.note_tenants(&job_tenants);
                tm_ref.note_tenants(&job_tenants);
            }
            let mut cache = NodeQueueCache::new();
            let mut node_state = OfferState::new(&app, cluster.len());
            let mut pending_shadow = PendingShadow::new();
            let mut pending: BTreeMap<TaskRef, PendingTaskView> = BTreeMap::new();
            let mut launched: Vec<TaskRef> = Vec::new();
            for round in 0..40 {
                // launches mostly land; a dropped one stays pending
                for task in launched.drain(..) {
                    if rng.gen_bool(0.85) {
                        pending.remove(&task);
                    }
                }
                for (s, stage) in app.stages.iter().enumerate() {
                    for index in 0..stage.tasks.len() {
                        let task = TaskRef {
                            stage: StageId(s),
                            index,
                        };
                        let enter = !pending.contains_key(&task) && rng.gen_bool(0.08);
                        if enter || (pending.contains_key(&task) && rng.gen_bool(0.05)) {
                            pending.insert(task, random_view(&mut rng, &app, task, cluster.len()));
                        }
                    }
                }
                // DB writes between rounds, seen by both TMs
                for _ in 0..rng.gen_range(0..10) {
                    let r = record(&mut rng, &app, cluster.len());
                    tm_prod.record_finish(&r);
                    tm_ref.record_finish(&r);
                }
                if rng.gen_bool(0.2) {
                    let stage = &app.stages[rng.gen_range(0..app.stages.len())];
                    let (index, node) =
                        (rng.gen_range(0..4), NodeId(rng.gen_range(0..cluster.len())));
                    for tm in [&mut tm_prod, &mut tm_ref] {
                        tm.record_memory_failure(
                            StageId(99),
                            stage.template_key,
                            index,
                            ByteSize::gib(3),
                            node,
                        );
                    }
                }
                // every node moves at random: the shared offer state diffs
                // them into `changed` as it does for both hosts
                let nodes = random_views(&mut rng, &cluster);
                for i in 0..nodes.len() {
                    node_state.node_dirty(NodeId(i));
                }
                let views = node_state.round(&RandomViews(&nodes));
                let pending_list: Vec<PendingTaskView> = pending.values().cloned().collect();
                let input = OfferInput {
                    changed: views.changed,
                    pending_fresh: pending_shadow.fresh(&pending_list),
                    ..offer(&cluster, &app, views.nodes, pending_list)
                };
                // tenants absent from the order are over quota this round
                let order: Vec<TenantId> = if tenants {
                    let mut o: Vec<TenantId> = job_tenants
                        .iter()
                        .copied()
                        .filter(|_| rng.gen_bool(0.8))
                        .collect();
                    if rng.gen_bool(0.5) {
                        o.reverse();
                    }
                    o
                } else {
                    vec![TenantId(0)]
                };

                tm_prod.ingest_fresh(&input.pending, &input.pending_fresh);
                prop_assert!(input.pending.iter().all(|v| tm_prod.is_current(v)));
                let prod = Dispatcher::new(&cfg, &input).dispatch(&mut tm_prod, &mut cache, &order);

                let unqueued: Vec<TaskRef> = input
                    .pending
                    .iter()
                    .map(|v| v.task)
                    .filter(|t| !tm_ref.queues.contains(t))
                    .collect();
                tm_ref.ingest_fresh(&input.pending, &unqueued);
                let reference = Reference::new(&cfg, &input).dispatch(&mut tm_ref, &order);

                prop_assert_eq!(
                    &prod,
                    &reference,
                    "round {} diverged (seed {}, {} nodes)",
                    round,
                    seed,
                    cluster.len()
                );
                launched = prod
                    .iter()
                    .filter_map(|c| match c {
                        Command::Launch { task, .. } => Some(*task),
                        Command::KillAndRequeue { .. } => None,
                    })
                    .collect();
                let OfferInput {
                    nodes,
                    pending: offered,
                    ..
                } = input;
                node_state.settle(nodes, Vec::new(), &prod);
                pending_shadow.settle(offered, &prod);
            }
            Ok(())
        }

        /// A round's random node views, offered through the shared
        /// offer state; pending views come from [`PendingShadow`].
        struct RandomViews<'v>(&'v [NodeView]);

        impl OfferHost for RandomViews<'_> {
            fn node_view(&self, node: NodeId) -> NodeView {
                self.0[node.index()].clone()
            }
            fn heartbeat_age(&self, node: NodeId) -> SimDuration {
                self.0[node.index()].heartbeat_age
            }
            fn pending_view(&self, _: TaskRef, _: &mut ShufflePrefs) -> Option<PendingTaskView> {
                None
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 36, ..ProptestConfig::default() })]

            #[test]
            fn production_matches_reference(
                seed in 0u64..u64::MAX,
                shape in 0usize..3,
                gang in any::<bool>(),
                tenants in any::<bool>(),
            ) {
                run_case(seed, shape, gang, tenants)?;
            }
        }
    }
}
