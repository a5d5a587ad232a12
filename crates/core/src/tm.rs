//! The Task Manager (TM): Algorithm 1 task characterisation and the
//! per-resource Task Queues of Fig. 4.
//!
//! When tasks are submitted, TM looks each one up in `DB_task_char`:
//!
//! * known task → enqueue in the queue of its recorded bottleneck;
//! * first contact, map stage → "considered to be bounded by all types
//!   of resources and thus enqueued in all queues";
//! * first contact, reduce stage → network-bound (reduce tasks fetch
//!   shuffle data and ship results to the driver).
//!
//! When a task finishes, TM runs Algorithm 1 over its observed metrics
//! (compute time vs shuffle read/write, GPU usage; we add the Fig. 4 MEM
//! class for memory-dominated tasks) and banks the result in the DB for
//! "future task iterations and job runs".
//!
//! The TM owns the DB outright (a plain map, written through `&mut
//! self`) and keeps, per stage template, the successful durations sorted
//! ascending, so the resource-straggler median is an `O(1)` read.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use rupam_simcore::units::ByteSize;
use rupam_simcore::Sym;

use rupam_cluster::resources::{PerResource, ResourceKind};
use rupam_cluster::NodeId;
use rupam_dag::app::{JobId, StageId, StageKind};
use rupam_dag::{TaskRef, TenantId};
use rupam_exec::scheduler::PendingTaskView;
use rupam_metrics::record::TaskRecord;

use crate::config::RupamConfig;
use crate::db::{TaskChar, TaskCharDb, TaskKey};

/// Algorithm 1: classify a finished task's bottleneck from its metrics.
///
/// Extended with the Fig. 4 MEM class: a task whose peak memory exceeds
/// `mem_bound_fraction` of the smallest executor is memory-bound — it is
/// placement-constrained by capacity more than by any bandwidth.
pub fn classify(
    record: &TaskRecord,
    cfg: &RupamConfig,
    smallest_executor: ByteSize,
) -> ResourceKind {
    if record.used_gpu {
        return ResourceKind::Gpu;
    }
    if record.peak_mem.as_f64() > cfg.mem_bound_fraction * smallest_executor.as_f64() {
        return ResourceKind::Mem;
    }
    let compute = record.compute_time().as_secs_f64();
    let sread = record.shuffle_read_time().as_secs_f64();
    let swrite = record.shuffle_write_time().as_secs_f64();
    if compute > cfg.res_factor * sread.max(swrite) {
        ResourceKind::Cpu
    } else if sread > cfg.res_factor * swrite {
        ResourceKind::Net
    } else {
        ResourceKind::Io
    }
}

/// The five pending-task queues plus membership bookkeeping.
///
/// Incremental representation: each live entry is a `(seat, task)` pair,
/// where a task's *seat* in a kind is assigned the first time it is ever
/// enqueued there and retained for the rest of the run. Insert and
/// remove are `O(log n)`; iteration yields live tasks in seat order with
/// no dead entries to skip.
///
/// Seat retention reproduces the historical deque semantics exactly: the
/// old implementation never physically removed a launched task's deque
/// entry, so (a) a task re-enqueued into a queue it had occupied before
/// resumed its *old* position rather than moving to the back, and (b)
/// re-enqueueing a member made it visible again in *every* queue that
/// had ever held it. Decision replay across the suite depends on both.
///
/// The live entries are stored split per owning tenant and per *class*,
/// maintained across rounds so the Dispatcher never rescans a queue.
/// *Special* tasks carry placement preferences or a raw best-executor
/// lock (liveness of the lock target is checked per probe, so node
/// deaths never invalidate the split); *plain* tasks can only ever match
/// a node at `ANY` locality. Every special entry is also listed under
/// each node of its [`TaskClass::nodes`] (its preferred nodes and its
/// raw lock target), so a probe of one node reads the few tasks that can
/// win there outright or node-locally instead of the whole special side.
/// Every entry carries its peak estimate. Runs without tenant-scoped
/// allocation put every task in shard `TenantId(0)`; seats are global,
/// so that shard is the whole queue in queue order.
#[derive(Default)]
pub struct TaskQueues {
    /// Every seat ever assigned per kind (kept across removals).
    seats: PerResource<HashMap<TaskRef, u64>>,
    /// Monotonic seat counter shared by all kinds.
    next_seat: u64,
    /// Tasks currently enqueued anywhere (a first-contact task sits in
    /// all five queues but counts once), with their tenant and class.
    members: HashMap<TaskRef, Member>,
    /// The live entries, indexed by tenant: shard `t` holds exactly the
    /// live entries whose task belongs to tenant `t`.
    shards: Vec<Shard>,
}

/// A queued task's dispatch classification: which side of the split it
/// sits on, which nodes list it, and its admission estimate.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TaskClass {
    /// The view's preferred nodes, `process_nodes ∪ node_local`, sorted
    /// and deduplicated.
    pub prefs: Vec<NodeId>,
    /// The raw best-executor lock target (`historyresource.size = 5 ∧
    /// optexecutor`), whether or not that node is alive.
    pub lock: Option<NodeId>,
    /// Peak-memory admission estimate.
    pub peak: ByteSize,
}

impl TaskClass {
    /// A class with neither preferences nor a lock.
    pub fn plain(peak: ByteSize) -> Self {
        TaskClass {
            peak,
            ..TaskClass::default()
        }
    }

    /// Special iff it has placement preferences or a raw lock.
    pub fn special(&self) -> bool {
        !self.prefs.is_empty() || self.lock.is_some()
    }

    /// The nodes a special task is listed under: its preferred nodes,
    /// then its lock target unless that is one of them.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let extra = self.lock.filter(|l| self.prefs.binary_search(l).is_err());
        self.prefs.iter().copied().chain(extra)
    }
}

/// One special task as listed under one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct NodeEntry {
    /// The task's seat in the queue (the listing's order).
    pub seat: u64,
    /// The listed task.
    pub task: TaskRef,
    /// Peak-memory admission estimate.
    pub peak: ByteSize,
    /// The task's raw lock names this node.
    pub locked: bool,
}

/// A queued task's owner and current classification.
struct Member {
    tenant: TenantId,
    class: TaskClass,
}

/// One tenant's slice of the class split, ordered by seat.
#[derive(Default)]
struct Shard {
    special: PerResource<BTreeSet<(u64, TaskRef, ByteSize)>>,
    plain: PerResource<BTreeSet<(u64, TaskRef, ByteSize)>>,
    /// Live plain peak estimates → multiplicity; the first key answers
    /// "does anything plain fit" without a scan.
    plain_by_peak: PerResource<BTreeMap<ByteSize, usize>>,
    /// The same multiset over the special side's peak estimates.
    special_by_peak: PerResource<BTreeMap<ByteSize, usize>>,
    /// The special entries again, listed under each node of their
    /// class's [`TaskClass::nodes`]; indexed by node.
    by_node: PerResource<Vec<BTreeSet<NodeEntry>>>,
}

/// Node `n`'s listing, if it holds any entry.
fn listed(lists: &[BTreeSet<NodeEntry>], n: usize) -> Option<&BTreeSet<NodeEntry>> {
    lists.get(n).filter(|l| !l.is_empty())
}

/// Count one more `peak` in a peak multiset.
fn add_peak(by_peak: &mut BTreeMap<ByteSize, usize>, peak: ByteSize) {
    *by_peak.entry(peak).or_insert(0) += 1;
}

/// Count one `peak` less, dropping the key at zero.
fn sub_peak(by_peak: &mut BTreeMap<ByteSize, usize>, peak: ByteSize) {
    if let Some(count) = by_peak.get_mut(&peak) {
        *count -= 1;
        if *count == 0 {
            by_peak.remove(&peak);
        }
    }
}

impl Shard {
    /// Insert `task`'s entries under `class` in every queue holding a
    /// seat for it.
    fn link(
        &mut self,
        seats: &PerResource<HashMap<TaskRef, u64>>,
        task: TaskRef,
        class: &TaskClass,
    ) {
        let peak = class.peak;
        for k in ResourceKind::ALL {
            let Some(&seat) = seats.get(k).get(&task) else {
                continue;
            };
            if !class.special() {
                if self.plain.get_mut(k).insert((seat, task, peak)) {
                    add_peak(self.plain_by_peak.get_mut(k), peak);
                }
                continue;
            }
            if self.special.get_mut(k).insert((seat, task, peak)) {
                add_peak(self.special_by_peak.get_mut(k), peak);
            }
            let lists = self.by_node.get_mut(k);
            for n in class.nodes() {
                if n.index() >= lists.len() {
                    lists.resize_with(n.index() + 1, BTreeSet::new);
                }
                lists[n.index()].insert(NodeEntry {
                    seat,
                    task,
                    peak,
                    locked: class.lock == Some(n),
                });
            }
        }
    }

    /// The exact inverse of [`Shard::link`].
    fn unlink(
        &mut self,
        seats: &PerResource<HashMap<TaskRef, u64>>,
        task: TaskRef,
        class: &TaskClass,
    ) {
        let peak = class.peak;
        for k in ResourceKind::ALL {
            let Some(&seat) = seats.get(k).get(&task) else {
                continue;
            };
            if !class.special() {
                if self.plain.get_mut(k).remove(&(seat, task, peak)) {
                    sub_peak(self.plain_by_peak.get_mut(k), peak);
                }
                continue;
            }
            if self.special.get_mut(k).remove(&(seat, task, peak)) {
                sub_peak(self.special_by_peak.get_mut(k), peak);
            }
            let lists = self.by_node.get_mut(k);
            for n in class.nodes() {
                if let Some(list) = lists.get_mut(n.index()) {
                    list.remove(&NodeEntry {
                        seat,
                        task,
                        peak,
                        locked: class.lock == Some(n),
                    });
                }
            }
        }
    }
}

impl TaskQueues {
    /// Empty queues.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue `task` for `tenant` into the given queues, carrying its
    /// current classification.
    pub fn enqueue(
        &mut self,
        task: TaskRef,
        kinds: &[ResourceKind],
        tenant: TenantId,
        class: TaskClass,
    ) {
        self.unlink(task);
        for &k in kinds {
            if !self.seats.get(k).contains_key(&task) {
                let seat = self.next_seat;
                self.next_seat += 1;
                self.seats.get_mut(k).insert(task, seat);
            }
        }
        self.members.insert(task, Member { tenant, class });
        self.link(task);
    }

    /// Insert a member's class-split entries in every queue holding a
    /// seat for it, not just the kinds it was last enqueued for
    /// (historical-deque resurrection).
    fn link(&mut self, task: TaskRef) {
        let m = &self.members[&task];
        if m.tenant.index() >= self.shards.len() {
            self.shards
                .resize_with(m.tenant.index() + 1, Shard::default);
        }
        self.shards[m.tenant.index()].link(&self.seats, task, &m.class);
    }

    /// The exact inverse of [`TaskQueues::link`] (no-op for
    /// non-members); the membership record itself stays.
    fn unlink(&mut self, task: TaskRef) {
        let Some(m) = self.members.get(&task) else {
            return;
        };
        self.shards[m.tenant.index()].unlink(&self.seats, task, &m.class);
    }

    /// Update a still-queued member's classification (its view or DB
    /// record changed): re-linked when any part of the class moved,
    /// including only its preferred nodes or lock target. No-op for
    /// non-members.
    pub fn reclassify(&mut self, task: TaskRef, class: TaskClass) {
        match self.members.get(&task) {
            Some(m) if m.class != class => {}
            _ => return,
        }
        self.unlink(task);
        self.members.get_mut(&task).expect("member").class = class;
        self.link(task);
    }

    /// Whether the task is pending in any queue.
    pub fn contains(&self, task: &TaskRef) -> bool {
        self.members.contains_key(task)
    }

    /// A member's stored classification.
    pub fn class(&self, task: &TaskRef) -> Option<&TaskClass> {
        self.members.get(task).map(|m| &m.class)
    }

    /// The owning tenant of a member (`TenantId(0)` for non-members).
    #[cfg(test)]
    pub(crate) fn tenant_of(&self, task: &TaskRef) -> TenantId {
        self.members
            .get(task)
            .map(|m| m.tenant)
            .unwrap_or(TenantId(0))
    }

    /// Remove a task everywhere (it launched or completed) in
    /// `O(log n)` per kind and listing node. Its seats survive for
    /// position-preserving re-enqueue.
    pub fn remove(&mut self, task: &TaskRef) {
        self.unlink(*task);
        self.members.remove(task);
    }

    /// The *live* tasks of one queue in FIFO (seat) order, merged from
    /// every shard's special and plain entries. `O(n log n)`: for tests
    /// and diagnostics; dispatch reads the shards directly.
    pub fn iter_kind(&self, kind: ResourceKind) -> impl Iterator<Item = TaskRef> {
        let mut entries: Vec<(u64, TaskRef)> = self
            .shards
            .iter()
            .flat_map(|s| s.special.get(kind).iter().chain(s.plain.get(kind)))
            .map(|&(seat, t, _)| (seat, t))
            .collect();
        entries.sort_unstable();
        entries.into_iter().map(|(_, t)| t)
    }

    /// One tenant's live *special* entries of a queue, `(seat, task,
    /// peak)` in seat order.
    pub fn special_kind(
        &self,
        kind: ResourceKind,
        tenant: TenantId,
    ) -> impl Iterator<Item = (u64, TaskRef, ByteSize)> + '_ {
        self.shards
            .get(tenant.index())
            .into_iter()
            .flat_map(move |s| s.special.get(kind).iter().copied())
    }

    /// One tenant's special entries of a queue listed under `node`, in
    /// seat order.
    pub fn node_kind(
        &self,
        kind: ResourceKind,
        tenant: TenantId,
        node: NodeId,
    ) -> impl Iterator<Item = NodeEntry> + '_ {
        self.shards
            .get(tenant.index())
            .and_then(|s| s.by_node.get(kind).get(node.index()))
            .into_iter()
            .flatten()
            .copied()
    }

    /// One tenant's live *plain* entries of a queue, `(seat, task,
    /// peak)` in seat order.
    pub fn plain_kind(
        &self,
        kind: ResourceKind,
        tenant: TenantId,
    ) -> impl Iterator<Item = (u64, TaskRef, ByteSize)> + '_ {
        self.shards
            .get(tenant.index())
            .into_iter()
            .flat_map(move |s| s.plain.get(kind).iter().copied())
    }

    /// Smallest live plain peak estimate in one tenant's slice of a
    /// queue, if any.
    pub fn plain_floor(&self, kind: ResourceKind, tenant: TenantId) -> Option<ByteSize> {
        self.shards
            .get(tenant.index())
            .and_then(|s| s.plain_by_peak.get(kind).keys().next().copied())
    }

    /// Smallest live special peak estimate in one tenant's slice of a
    /// queue, if any.
    pub(crate) fn special_floor(&self, kind: ResourceKind, tenant: TenantId) -> Option<ByteSize> {
        self.shards
            .get(tenant.index())
            .and_then(|s| s.special_by_peak.get(kind).keys().next().copied())
    }

    /// Number of live pending tasks.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True iff nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Cross-check the incrementally maintained shards against a rebuild
    /// from `members` and the seats: the class split, both peak
    /// multisets and every node listing. Returns one line per
    /// divergence (empty when consistent).
    pub fn verify(&self) -> Vec<String> {
        let mut rebuilt: Vec<Shard> = Vec::new();
        for (&task, m) in &self.members {
            if m.tenant.index() >= rebuilt.len() {
                rebuilt.resize_with(m.tenant.index() + 1, Shard::default);
            }
            rebuilt[m.tenant.index()].link(&self.seats, task, &m.class);
        }
        let empty = Shard::default();
        let mut findings = Vec::new();
        for t in 0..self.shards.len().max(rebuilt.len()) {
            let (have, want) = (
                self.shards.get(t).unwrap_or(&empty),
                rebuilt.get(t).unwrap_or(&empty),
            );
            for k in ResourceKind::ALL {
                let sides = [
                    ("special", have.special.get(k) == want.special.get(k)),
                    ("plain", have.plain.get(k) == want.plain.get(k)),
                    (
                        "special peaks",
                        have.special_by_peak.get(k) == want.special_by_peak.get(k),
                    ),
                    (
                        "plain peaks",
                        have.plain_by_peak.get(k) == want.plain_by_peak.get(k),
                    ),
                ];
                for (what, same) in sides {
                    if !same {
                        findings.push(format!("tenant {t} {k:?}: {what} diverges from a rebuild"));
                    }
                }
                let (have, want) = (have.by_node.get(k), want.by_node.get(k));
                for n in 0..have.len().max(want.len()) {
                    let (h, w) = (listed(have, n), listed(want, n));
                    if h != w {
                        findings.push(format!(
                            "tenant {t} {k:?}: node {n} listing {:?} diverges from rebuilt {:?}",
                            h, w
                        ));
                    }
                }
            }
        }
        findings
    }
}

/// The Task Manager.
pub struct TaskManager {
    cfg: RupamConfig,
    db: TaskCharDb,
    /// Pending tasks per resource kind.
    pub queues: TaskQueues,
    /// Successful durations per stage template (resource-straggler
    /// thresholds), each kept sorted ascending so the median is two
    /// index reads.
    finished_secs: HashMap<Sym, Vec<f64>>,
    /// Stage templates observed using a GPU (§III-B2: one GPU sighting
    /// marks the whole stage).
    gpu_stages: HashSet<Sym>,
    /// Smallest executor in the cluster (MEM-bound threshold).
    smallest_executor: ByteSize,
    /// Stream job owning each stage (multi-tenant runs; used to scope
    /// keys when `cross_job_db` is off).
    job_of_stage: HashMap<StageId, JobId>,
    /// Tenant of each stream job, refreshed from the offer input every
    /// round by a tenant-aware scheduler. Empty by default.
    job_tenants: Vec<TenantId>,
    /// Memo of cold-DB scoped keys (`jN@template`), so the ablation path
    /// formats and interns each `(job, template)` pair once.
    scope_cache: RefCell<HashMap<(JobId, Sym), Sym>>,
    /// Each ingested task's own peak-memory hint, so a DB write to its
    /// key can recompute its class without the view in hand (the
    /// preferred nodes are kept in the queued class itself).
    hints: HashMap<TaskRef, ByteSize>,
    /// Tasks ever ingested under each DB key — the invalidation fan-out
    /// for [`TaskManager::record_finish`] / memory failures.
    key_index: HashMap<TaskKey, HashSet<TaskRef>>,
}

/// A view's preferred nodes, `process_nodes ∪ node_local`, sorted and
/// deduplicated ([`TaskClass::prefs`]).
fn preferred_nodes(view: &PendingTaskView) -> Vec<NodeId> {
    let mut prefs: Vec<NodeId> = view
        .process_nodes
        .iter()
        .chain(&view.node_local)
        .copied()
        .collect();
    prefs.sort_unstable();
    prefs.dedup();
    prefs
}

/// The admission estimate: the view's own hint when it has one, else
/// the DB's observed peak (or the default estimate).
fn pick_peak(hint: ByteSize, char_peak: ByteSize) -> ByteSize {
    if hint > ByteSize::ZERO {
        hint
    } else {
        char_peak
    }
}

impl TaskManager {
    /// A TM with a fresh database.
    pub fn new(cfg: RupamConfig) -> Self {
        TaskManager {
            cfg,
            db: TaskCharDb::new(),
            queues: TaskQueues::new(),
            finished_secs: HashMap::new(),
            gpu_stages: HashSet::new(),
            smallest_executor: ByteSize::gib(14),
            job_of_stage: HashMap::new(),
            job_tenants: Vec::new(),
            scope_cache: RefCell::new(HashMap::new()),
            hints: HashMap::new(),
            key_index: HashMap::new(),
        }
    }

    /// Register which stages a submitted stream job owns. With
    /// `cross_job_db` on (the default) `DB_task_char` keys stay
    /// per-template, so a new tenant repeating a known template reuses
    /// everything earlier tenants taught the scheduler. With it off,
    /// every key is scoped `jN@template` — the cold-DB control.
    pub fn note_job(&mut self, job: JobId, stages: &[StageId]) {
        for &s in stages {
            self.job_of_stage.insert(s, job);
        }
    }

    /// Refresh the job → tenant map from the offer input (tenant-aware
    /// schedulers call this once per round, before ingesting tasks).
    /// Without it every task is queued for `TenantId(0)`.
    pub fn note_tenants(&mut self, job_tenants: &[TenantId]) {
        if self.job_tenants.as_slice() != job_tenants {
            self.job_tenants = job_tenants.to_vec();
        }
    }

    /// The stream job owning a stage (`JobId(0)` for single-app runs).
    pub fn job_of(&self, stage: StageId) -> JobId {
        self.job_of_stage.get(&stage).copied().unwrap_or(JobId(0))
    }

    /// The tenant owning a stage, via its stream job (`TenantId(0)` for
    /// single-app runs or jobs beyond the noted tenant map).
    pub fn tenant_of_stage(&self, stage: StageId) -> TenantId {
        self.job_tenants
            .get(self.job_of(stage).index())
            .copied()
            .unwrap_or(TenantId(0))
    }

    /// Template key as stored in the DB / stage statistics: per-template
    /// when warm (a free `Sym` copy — no allocation on the hot path),
    /// scoped to the owning stream job when cold.
    fn scope(&self, stage: StageId, template: Sym) -> Sym {
        if self.cfg.cross_job_db {
            return template;
        }
        let job = self.job_of_stage.get(&stage).copied().unwrap_or(JobId(0));
        if let Some(&scoped) = self.scope_cache.borrow().get(&(job, template)) {
            return scoped;
        }
        let scoped = Sym::from(format!("j{}@{}", job.index(), template.as_str()));
        self.scope_cache
            .borrow_mut()
            .insert((job, template), scoped);
        scoped
    }

    /// Set the smallest executor size (called at app start).
    pub fn set_smallest_executor(&mut self, size: ByteSize) {
        self.smallest_executor = size;
    }

    /// Access the characteristics database.
    pub fn db(&self) -> &TaskCharDb {
        &self.db
    }

    /// Reset run-local state, keeping the DB (cross-run learning) —
    /// the harness calls [`TaskManager::clear_db`] separately when the
    /// experiment protocol requires a cold DB.
    pub fn reset_run_state(&mut self) {
        self.queues = TaskQueues::new();
        self.finished_secs.clear();
        self.gpu_stages.clear();
        self.job_of_stage.clear();
        self.job_tenants.clear();
        self.scope_cache.borrow_mut().clear();
        self.hints.clear();
        self.key_index.clear();
    }

    /// Wipe the characteristics database (Fig. 5 protocol).
    pub fn clear_db(&mut self) {
        self.db.clear();
    }

    /// DB lookup for a pending task.
    pub fn lookup(&self, view: &PendingTaskView) -> Option<&TaskChar> {
        if !self.cfg.use_task_db {
            return None;
        }
        self.db.get(&TaskKey::new(
            self.scope(view.task.stage, view.template_key),
            view.task.index,
        ))
    }

    /// Which queues a submitted task belongs in.
    pub fn queues_for(&self, view: &PendingTaskView) -> Vec<ResourceKind> {
        self.queues_for_char(self.lookup(view), view)
    }

    fn queues_for_char(
        &self,
        char: Option<&TaskChar>,
        view: &PendingTaskView,
    ) -> Vec<ResourceKind> {
        if let Some(char) = char {
            if let Some(k) = char.last_bottleneck {
                return vec![k];
            }
        }
        if self
            .gpu_stages
            .contains(&self.scope(view.task.stage, view.template_key))
        {
            // §III-B2: once TM sees any task of a stage using a GPU, it
            // "marks all the tasks in the same stage to be GPU tasks"
            return vec![ResourceKind::Gpu];
        }
        match view.stage_kind {
            // first contact, map stage: bounded by everything
            StageKind::ShuffleMap => ResourceKind::ALL.to_vec(),
            // first contact, reduce stage: network-bound
            StageKind::Result => vec![ResourceKind::Net],
        }
    }

    /// A task's persistent-split classification from its view and DB
    /// record: its preferred nodes, its *raw* best-executor lock target
    /// (lock-target liveness is filtered at probe time, so node deaths
    /// never reclassify anything) and its peak, which is also the
    /// dispatcher's admission estimate.
    pub(crate) fn class_of(&self, char: Option<&TaskChar>, view: &PendingTaskView) -> TaskClass {
        let (lock, char_peak) = self.char_class(char);
        TaskClass {
            prefs: preferred_nodes(view),
            lock,
            peak: pick_peak(view.peak_mem_hint, char_peak),
        }
    }

    /// The admission estimate of a pending task, as its class files it.
    pub(crate) fn peak_estimate(&self, view: &PendingTaskView) -> ByteSize {
        pick_peak(view.peak_mem_hint, self.char_class(self.lookup(view)).1)
    }

    /// The DB record's share of a classification: `(raw best-executor
    /// lock target, observed peak or the default estimate)`. A write
    /// that leaves this pair alone cannot reclassify any task under its
    /// key; one that moves the lock to another node re-lists them.
    fn char_class(&self, char: Option<&TaskChar>) -> (Option<NodeId>, ByteSize) {
        let lock = char
            .filter(|c| c.history_size() == ResourceKind::COUNT)
            .and_then(|c| c.best.map(|(n, _)| n));
        let peak = match char {
            Some(c) if c.peak_mem > ByteSize::ZERO => c.peak_mem,
            _ => self.cfg.unknown_task_mem_estimate,
        };
        (lock, peak)
    }

    fn note_hint(&mut self, view: &PendingTaskView) {
        let key = TaskKey::new(
            self.scope(view.task.stage, view.template_key),
            view.task.index,
        );
        self.hints.insert(view.task, view.peak_mem_hint);
        self.key_index.entry(key).or_default().insert(view.task);
    }

    fn ingest(&mut self, view: &PendingTaskView) {
        let tenant = self
            .job_tenants
            .get(view.job.index())
            .copied()
            .unwrap_or(TenantId(0));
        let char = self.lookup(view);
        let kinds = self.queues_for_char(char, view);
        let class = self.class_of(char, view);
        self.queues.enqueue(view.task, &kinds, tenant, class);
        self.note_hint(view);
    }

    /// Ingest one offer round's fresh list (see
    /// [`OfferInput::pending_fresh`]): a listed task that is not queued
    /// is submitted — or re-queued after a failure or relocation, and
    /// re-characterised from the DB (a memory-straggler kill marks it
    /// MEM-bound first; the paper sends the task back to TM, which
    /// "analyzes the task metrics to determine the bottleneck and
    /// enqueues it to the Task Queue again"). A listed task that is
    /// still queued only changed its view (placement preferences, peak
    /// hint): its classification is refreshed, while its queue
    /// membership stays — a task is characterised once per stay.
    ///
    /// [`OfferInput::pending_fresh`]: rupam_exec::scheduler::OfferInput::pending_fresh
    pub fn ingest_fresh(&mut self, pending: &[PendingTaskView], fresh: &[TaskRef]) {
        for task in fresh {
            let Ok(i) = pending
                .binary_search_by(|p| (p.task.stage, p.task.index).cmp(&(task.stage, task.index)))
            else {
                continue;
            };
            let view = &pending[i];
            if self.queues.contains(task) {
                let class = self.class_of(self.lookup(view), view);
                self.queues.reclassify(view.task, class);
                self.note_hint(view);
            } else {
                self.ingest(view);
            }
        }
    }

    /// Whether `view`'s task is queued with exactly the classification
    /// its current view and DB record give — the contract
    /// [`TaskManager::ingest_fresh`] relies on its caller to keep.
    pub fn is_current(&self, view: &PendingTaskView) -> bool {
        self.queues.class(&view.task) == Some(&self.class_of(self.lookup(view), view))
    }

    /// A DB write landed on `key`, whose [`TaskManager::char_class`] was
    /// `before` it: recompute the classification of every still-queued
    /// task characterising under it (the lock may have appeared or moved
    /// to another node, the observed peak may have changed). Doing this
    /// at the record call site keeps the persistent split exactly as
    /// fresh as a per-round rebuild would see it; a write that moved
    /// neither the lock target nor the peak is a no-op.
    fn reclassify_key(&mut self, key: TaskKey, before: (Option<NodeId>, ByteSize)) {
        let (lock, char_peak) = self.char_class(self.db.get(&key));
        if (lock, char_peak) == before {
            return;
        }
        let Some(tasks) = self.key_index.get(&key) else {
            return;
        };
        for t in tasks {
            let Some(queued) = self.queues.class(t) else {
                continue;
            };
            let hint = self.hints.get(t).copied().unwrap_or(ByteSize::ZERO);
            let class = TaskClass {
                prefs: queued.prefs.clone(),
                lock,
                peak: pick_peak(hint, char_peak),
            };
            self.queues.reclassify(*t, class);
        }
    }

    /// Record a finished task: classify, bank into the DB, update stage
    /// statistics.
    pub fn record_finish(&mut self, record: &TaskRecord) {
        self.queues.remove(&record.task);
        let scoped = self.scope(record.task.stage, record.template_key);
        if record.used_gpu {
            self.gpu_stages.insert(scoped);
        }
        let bottleneck = classify(record, &self.cfg, self.smallest_executor);
        let secs = record.duration().as_secs_f64();
        if self.cfg.use_task_db {
            let key = TaskKey::new(scoped, record.task.index);
            let before = self.char_class(self.db.get(&key));
            self.db.update(key, |c| {
                c.observe(
                    bottleneck,
                    record.node,
                    secs,
                    record.peak_mem,
                    record.used_gpu,
                )
            });
            self.reclassify_key(key, before);
        }
        let durations = self.finished_secs.entry(scoped).or_default();
        durations.insert(durations.partition_point(|&d| d <= secs), secs);
    }

    /// A failed attempt still teaches us its memory footprint (it is what
    /// blew the node up). Marks the task MEM-bound.
    pub fn record_memory_failure(
        &mut self,
        stage: StageId,
        template_key: Sym,
        index: usize,
        peak: ByteSize,
        node: NodeId,
    ) {
        if !self.cfg.use_task_db {
            return;
        }
        let key = TaskKey::new(self.scope(stage, template_key), index);
        let before = self.char_class(self.db.get(&key));
        self.db.update(key, |c| {
            c.observe(ResourceKind::Mem, node, f64::MAX, peak, false);
        });
        self.reclassify_key(key, before);
    }

    /// Median successful duration for a stage template, if any finished:
    /// read off the sorted history in `O(1)`, bit-identical to
    /// [`rupam_simcore::stats::median`] over the samples.
    pub fn median_duration_secs(&self, stage: StageId, template_key: Sym) -> Option<f64> {
        let v = self.finished_secs.get(&self.scope(stage, template_key))?;
        (!v.is_empty()).then(|| rupam_simcore::stats::quantile_sorted(v, 0.5))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rupam_cluster::NodeId;
    use rupam_dag::app::StageId;
    use rupam_dag::Locality;
    use rupam_metrics::breakdown::{BreakdownCategory as C, TaskBreakdown};
    use rupam_metrics::record::AttemptOutcome;
    use rupam_simcore::time::SimTime;

    fn record(compute_s: u64, sread_s: u64, swrite_s: u64, peak_gib: u64, gpu: bool) -> TaskRecord {
        let mut b = TaskBreakdown::new();
        b.add(C::Compute, rupam_simcore::SimDuration::from_secs(compute_s));
        b.add(
            C::ShuffleNet,
            rupam_simcore::SimDuration::from_secs(sread_s),
        );
        b.add(
            C::ShuffleWrite,
            rupam_simcore::SimDuration::from_secs(swrite_s),
        );
        TaskRecord {
            task: TaskRef {
                stage: StageId(0),
                index: 0,
            },
            job: JobId(0),
            template_key: "w/s".into(),
            attempt: 0,
            node: NodeId(1),
            speculative: false,
            locality: Locality::Any,
            launched_at: SimTime::ZERO,
            finished_at: SimTime::from_secs_f64((compute_s + sread_s + swrite_s) as f64),
            outcome: AttemptOutcome::Success,
            breakdown: b,
            peak_mem: ByteSize::gib(peak_gib),
            used_gpu: gpu,
        }
    }

    fn cfg() -> RupamConfig {
        RupamConfig::default()
    }

    /// A special class: one preferred node.
    fn special(peak: ByteSize) -> TaskClass {
        TaskClass {
            prefs: vec![NodeId(0)],
            lock: None,
            peak,
        }
    }

    #[test]
    fn algorithm1_gpu_first() {
        let r = record(10, 1, 1, 1, true);
        assert_eq!(classify(&r, &cfg(), ByteSize::gib(14)), ResourceKind::Gpu);
    }

    #[test]
    fn algorithm1_cpu_bound() {
        // compute 10 > 2 × max(2, 1)
        let r = record(10, 2, 1, 1, false);
        assert_eq!(classify(&r, &cfg(), ByteSize::gib(14)), ResourceKind::Cpu);
    }

    #[test]
    fn algorithm1_net_bound() {
        // compute 2 ≤ 2×max(6,1); sread 6 > 2×swrite 1
        let r = record(2, 6, 1, 1, false);
        assert_eq!(classify(&r, &cfg(), ByteSize::gib(14)), ResourceKind::Net);
    }

    #[test]
    fn algorithm1_disk_bound() {
        // compute small, swrite dominates sread
        let r = record(1, 2, 6, 1, false);
        assert_eq!(classify(&r, &cfg(), ByteSize::gib(14)), ResourceKind::Io);
    }

    #[test]
    fn algorithm1_mem_bound_extension() {
        // 8 GiB peak > 25% of a 14 GiB executor
        let r = record(10, 1, 1, 8, false);
        assert_eq!(classify(&r, &cfg(), ByteSize::gib(14)), ResourceKind::Mem);
    }

    fn pview(stage: usize, index: usize, kind: StageKind, gpu: bool) -> PendingTaskView {
        PendingTaskView {
            task: TaskRef {
                stage: StageId(stage),
                index,
            },
            job: JobId(0),
            template_key: "w/s".into(),
            stage_kind: kind,
            attempt_no: 0,
            peak_mem_hint: ByteSize::ZERO,
            gpu_capable: gpu,
            process_nodes: vec![],
            node_local: vec![],
        }
    }

    #[test]
    fn first_contact_map_goes_everywhere() {
        let tm = TaskManager::new(cfg());
        let kinds = tm.queues_for(&pview(0, 0, StageKind::ShuffleMap, false));
        assert_eq!(kinds.len(), 5);
    }

    #[test]
    fn first_contact_reduce_is_net() {
        let tm = TaskManager::new(cfg());
        let kinds = tm.queues_for(&pview(0, 0, StageKind::Result, false));
        assert_eq!(kinds, vec![ResourceKind::Net]);
    }

    #[test]
    fn gpu_membership_is_learned_not_assumed() {
        let mut tm = TaskManager::new(cfg());
        // first contact: GPU-capable or not, a map task goes everywhere —
        // the TM has not *observed* GPU usage yet (the paper's GM case)
        let kinds = tm.queues_for(&pview(0, 0, StageKind::ShuffleMap, true));
        assert_eq!(kinds.len(), 5);
        // observe one sibling using the GPU → whole stage marked GPU
        tm.record_finish(&record(10, 1, 1, 1, true));
        let kinds = tm.queues_for(&pview(0, 1, StageKind::ShuffleMap, true));
        assert_eq!(kinds, vec![ResourceKind::Gpu]);
    }

    #[test]
    fn known_task_goes_to_its_bottleneck_queue() {
        let mut tm = TaskManager::new(cfg());
        tm.record_finish(&record(10, 1, 1, 1, false)); // CPU-bound
        let kinds = tm.queues_for(&pview(0, 0, StageKind::ShuffleMap, false));
        assert_eq!(kinds, vec![ResourceKind::Cpu]);
    }

    #[test]
    fn db_ablation_forgets() {
        let c = RupamConfig {
            use_task_db: false,
            ..cfg()
        };
        let mut tm = TaskManager::new(c);
        tm.record_finish(&record(10, 1, 1, 1, false));
        let kinds = tm.queues_for(&pview(0, 0, StageKind::ShuffleMap, false));
        assert_eq!(
            kinds.len(),
            5,
            "without the DB every contact is first contact"
        );
    }

    #[test]
    fn warm_db_carries_characterization_across_jobs() {
        // two stream jobs share the template "w/s"; job 0 finishes a
        // CPU-bound task, job 1's identical stage should inherit the
        // classification when the DB stays warm
        let mut tm = TaskManager::new(cfg());
        tm.note_job(JobId(0), &[StageId(0)]);
        tm.note_job(JobId(1), &[StageId(1)]);
        tm.record_finish(&record(10, 1, 1, 1, false)); // stage 0 / job 0
        let mut later = pview(1, 0, StageKind::ShuffleMap, false);
        later.job = JobId(1);
        assert_eq!(tm.queues_for(&later), vec![ResourceKind::Cpu]);
    }

    #[test]
    fn cold_db_scopes_characterization_per_job() {
        let c = RupamConfig {
            cross_job_db: false,
            ..cfg()
        };
        let mut tm = TaskManager::new(c);
        tm.note_job(JobId(0), &[StageId(0)]);
        tm.note_job(JobId(1), &[StageId(1)]);
        tm.record_finish(&record(10, 1, 1, 1, false)); // stage 0 / job 0
                                                       // the producing job still benefits from its own history...
        assert_eq!(
            tm.queues_for(&pview(0, 0, StageKind::ShuffleMap, false)),
            vec![ResourceKind::Cpu]
        );
        // ...but the next tenant is back to first contact
        let mut later = pview(1, 0, StageKind::ShuffleMap, false);
        later.job = JobId(1);
        assert_eq!(
            tm.queues_for(&later).len(),
            5,
            "cold DB must not leak across jobs"
        );
        // the duration history is scoped the same way
        assert_eq!(
            tm.median_duration_secs(StageId(0), "w/s".into()),
            Some(12.0)
        );
        assert_eq!(tm.median_duration_secs(StageId(1), "w/s".into()), None);
    }

    #[test]
    fn queue_membership_and_removal() {
        let mut q = TaskQueues::new();
        let t = TaskRef {
            stage: StageId(0),
            index: 1,
        };
        q.enqueue(
            t,
            &ResourceKind::ALL,
            TenantId(0),
            TaskClass::plain(ByteSize::ZERO),
        );
        assert!(q.contains(&t));
        assert_eq!(q.len(), 1, "multi-queue membership counts once");
        assert_eq!(q.iter_kind(ResourceKind::Cpu).count(), 1);
        q.remove(&t);
        assert!(!q.contains(&t));
        assert_eq!(q.iter_kind(ResourceKind::Cpu).count(), 0);
        assert_eq!(q.plain_floor(ResourceKind::Cpu, TenantId(0)), None);
        assert!(q.is_empty());
    }

    #[test]
    fn tenant_shards_split_by_class() {
        let mut q = TaskQueues::new();
        let t = |i| TaskRef {
            stage: StageId(i),
            index: 0,
        };
        // tenant 0: one plain, one special; tenant 1: one plain
        q.enqueue(
            t(0),
            &[ResourceKind::Cpu],
            TenantId(0),
            TaskClass::plain(ByteSize::gib(2)),
        );
        q.enqueue(
            t(1),
            &[ResourceKind::Cpu],
            TenantId(0),
            special(ByteSize::gib(1)),
        );
        q.enqueue(
            t(2),
            &[ResourceKind::Cpu],
            TenantId(1),
            TaskClass::plain(ByteSize::gib(4)),
        );

        let cpu = ResourceKind::Cpu;
        let plain0: Vec<TaskRef> = q.plain_kind(cpu, TenantId(0)).map(|(_, t, _)| t).collect();
        assert_eq!(plain0, vec![t(0)]);
        let special0: Vec<TaskRef> = q
            .special_kind(cpu, TenantId(0))
            .map(|(_, t, _)| t)
            .collect();
        assert_eq!(special0, vec![t(1)]);
        assert_eq!(q.plain_floor(cpu, TenantId(0)), Some(ByteSize::gib(2)));
        assert_eq!(q.plain_floor(cpu, TenantId(1)), Some(ByteSize::gib(4)));
        assert_eq!(q.plain_floor(cpu, TenantId(5)), None, "unknown tenant");
        assert_eq!(q.iter_kind(cpu).collect::<Vec<_>>(), vec![t(0), t(1), t(2)]);

        // reclassify t(0) special → moves within its shard
        q.reclassify(t(0), special(ByteSize::gib(2)));
        assert_eq!(q.plain_kind(cpu, TenantId(0)).count(), 0);
        assert_eq!(q.special_kind(cpu, TenantId(0)).count(), 2);
        assert_eq!(q.plain_floor(cpu, TenantId(0)), None);
        assert_eq!(q.class(&t(0)), Some(&special(ByteSize::gib(2))));

        // removal drains the owning shard only
        q.remove(&t(2));
        assert_eq!(q.plain_kind(cpu, TenantId(1)).count(), 0);
        assert_eq!(q.special_kind(cpu, TenantId(0)).count(), 2);
    }

    #[test]
    fn reenqueue_resumes_old_seats_in_every_queue() {
        let mut q = TaskQueues::new();
        let t = |i| TaskRef {
            stage: StageId(0),
            index: i,
        };
        q.enqueue(
            t(0),
            &[ResourceKind::Cpu, ResourceKind::Net],
            TenantId(0),
            TaskClass::plain(ByteSize::ZERO),
        );
        q.enqueue(
            t(1),
            &[ResourceKind::Net],
            TenantId(0),
            TaskClass::plain(ByteSize::ZERO),
        );
        q.remove(&t(0));
        // back via the CPU queue only: it resumes its old NET seat too,
        // ahead of t(1)
        q.enqueue(
            t(0),
            &[ResourceKind::Cpu],
            TenantId(0),
            TaskClass::plain(ByteSize::ZERO),
        );
        assert_eq!(
            q.iter_kind(ResourceKind::Net).collect::<Vec<_>>(),
            vec![t(0), t(1)]
        );
        let plain: Vec<TaskRef> = q
            .plain_kind(ResourceKind::Net, TenantId(0))
            .map(|(_, t, _)| t)
            .collect();
        assert_eq!(plain, vec![t(0), t(1)]);
    }

    #[test]
    fn median_duration_per_template() {
        let mut tm = TaskManager::new(cfg());
        for secs in [10, 20, 30] {
            tm.record_finish(&record(secs, 0, 0, 1, false));
        }
        assert_eq!(
            tm.median_duration_secs(StageId(0), "w/s".into()),
            Some(20.0)
        );
        assert_eq!(tm.median_duration_secs(StageId(0), "unknown".into()), None);
    }

    #[test]
    fn median_reads_the_sorted_history_whatever_the_arrival_order() {
        let mut tm = TaskManager::new(cfg());
        for secs in [30, 10, 20, 50, 40] {
            tm.record_finish(&record(secs, 0, 0, 1, false));
        }
        assert_eq!(
            tm.median_duration_secs(StageId(0), "w/s".into()),
            Some(30.0)
        );
    }

    proptest! {
        #[test]
        fn sorted_insert_median_equals_stats_median(
            millis in prop::collection::vec(0u64..5_000, 1..48),
            dup_every in 1usize..6,
        ) {
            let mut tm = TaskManager::new(cfg());
            let mut samples = Vec::new();
            for (i, &ms) in millis.iter().enumerate() {
                // repeat an earlier duration now and then: ties must sit
                // where a full sort would put them
                let ms = if i % dup_every == 0 { millis[i / 2] } else { ms };
                let mut r = record(0, 0, 0, 1, false);
                r.finished_at = SimTime::from_secs_f64(ms as f64 / 1000.0);
                samples.push(r.duration().as_secs_f64());
                tm.record_finish(&r);
                let got = tm.median_duration_secs(StageId(0), "w/s".into());
                let want = rupam_simcore::stats::median(&samples);
                prop_assert_eq!(got.map(f64::to_bits), Some(want.to_bits()));
            }
        }
    }

    #[test]
    fn a_lock_earned_without_a_peak_change_reclassifies_queued_siblings() {
        let mut tm = TaskManager::new(cfg());
        let view = pview(0, 0, StageKind::ShuffleMap, false);
        tm.ingest_fresh(std::slice::from_ref(&view), &[view.task]);
        // a sibling outside the queues shares the DB key (w/s, 0) and
        // observes four bottlenecks at one peak...
        let sibling = |mut r: TaskRecord| {
            r.task.stage = StageId(7);
            r
        };
        for r in [
            record(10, 1, 1, 1, false),
            record(2, 6, 1, 1, false),
            record(1, 2, 6, 1, false),
            record(10, 1, 1, 1, true),
        ] {
            tm.record_finish(&sibling(r));
        }
        assert_eq!(
            tm.queues.class(&view.task).map(|c| (c.special(), c.peak)),
            Some((false, ByteSize::gib(1)))
        );
        // ...then a memory death completes the history: the raw lock
        // appears while the observed peak stays put
        tm.record_memory_failure(StageId(7), "w/s".into(), 0, ByteSize::ZERO, NodeId(2));
        assert!(tm.is_current(&view));
        assert_eq!(
            tm.queues.class(&view.task).map(|c| (c.special(), c.peak)),
            Some((true, ByteSize::gib(1)))
        );
    }

    /// The CPU-queue tasks tenant 0 has listed under `node`.
    fn listed_under(tm: &TaskManager, node: usize) -> Vec<TaskRef> {
        (tm.queues)
            .node_kind(ResourceKind::Cpu, TenantId(0), NodeId(node))
            .map(|e| e.task)
            .collect()
    }

    #[test]
    fn a_lock_moving_to_another_node_relists_queued_siblings() {
        let mut tm = TaskManager::new(cfg());
        let view = pview(0, 0, StageKind::ShuffleMap, false);
        tm.ingest_fresh(std::slice::from_ref(&view), &[view.task]);
        // a sibling sharing the DB key (w/s, 0) fills the full history on
        // node 1, so the queued task is locked there
        let sibling = |mut r: TaskRecord, node: usize| {
            r.task.stage = StageId(7);
            r.node = NodeId(node);
            r
        };
        for r in [
            record(10, 1, 1, 1, false),
            record(2, 6, 1, 1, false),
            record(1, 2, 6, 1, false),
            record(10, 1, 1, 1, true),
        ] {
            tm.record_finish(&sibling(r, 1));
        }
        tm.record_memory_failure(StageId(7), "w/s".into(), 0, ByteSize::ZERO, NodeId(2));
        assert_eq!(
            tm.queues.class(&view.task).and_then(|c| c.lock),
            Some(NodeId(1))
        );
        assert_eq!(listed_under(&tm, 1), vec![view.task]);
        // a faster run on node 3 moves the lock; the lock still exists and
        // the peak stays put, yet the listing must follow the target
        tm.record_finish(&sibling(record(1, 1, 1, 1, false), 3));
        assert!(tm.is_current(&view));
        assert_eq!(
            tm.queues.class(&view.task).and_then(|c| c.lock),
            Some(NodeId(3))
        );
        assert_eq!(listed_under(&tm, 3), vec![view.task]);
        assert!(
            listed_under(&tm, 1).is_empty(),
            "still listed under the old target"
        );
        assert!(tm.queues.verify().is_empty(), "{:?}", tm.queues.verify());
    }

    #[test]
    fn a_node_local_change_alone_moves_the_listing() {
        let mut tm = TaskManager::new(cfg());
        let mut view = pview(0, 0, StageKind::ShuffleMap, false);
        view.node_local = vec![NodeId(2)];
        tm.ingest_fresh(std::slice::from_ref(&view), &[view.task]);
        let before = tm.queues.class(&view.task).cloned().expect("queued");
        assert_eq!(listed_under(&tm, 2), vec![view.task]);
        // the refreshed view keeps the class side and the peak; only the
        // replica moved
        view.node_local = vec![NodeId(5)];
        tm.ingest_fresh(std::slice::from_ref(&view), &[view.task]);
        let after = tm.queues.class(&view.task).expect("queued");
        assert_eq!(
            (after.special(), after.peak),
            (before.special(), before.peak)
        );
        assert!(tm.is_current(&view));
        assert_eq!(listed_under(&tm, 5), vec![view.task]);
        assert!(
            listed_under(&tm, 2).is_empty(),
            "still listed under the old replica"
        );
        assert!(tm.queues.verify().is_empty(), "{:?}", tm.queues.verify());
    }

    #[test]
    fn verify_flags_a_listing_the_members_do_not_give() {
        let mut q = TaskQueues::new();
        let t = TaskRef {
            stage: StageId(0),
            index: 0,
        };
        q.enqueue(
            t,
            &[ResourceKind::Cpu],
            TenantId(0),
            special(ByteSize::gib(1)),
        );
        assert!(q.verify().is_empty());
        // a stray listing under a node the class does not name
        q.shards[0]
            .by_node
            .get_mut(ResourceKind::Cpu)
            .resize_with(4, BTreeSet::new);
        q.shards[0].by_node.get_mut(ResourceKind::Cpu)[3].insert(NodeEntry {
            seat: 0,
            task: t,
            peak: ByteSize::gib(1),
            locked: false,
        });
        assert_eq!(q.verify().len(), 1, "{:?}", q.verify());
    }

    #[test]
    fn special_floor_tracks_the_special_side() {
        let mut q = TaskQueues::new();
        let cpu = ResourceKind::Cpu;
        let t = |i| TaskRef {
            stage: StageId(0),
            index: i,
        };
        for (i, gib) in [(0, 4), (1, 1), (2, 1)] {
            q.enqueue(t(i), &[cpu], TenantId(0), special(ByteSize::gib(gib)));
        }
        q.enqueue(
            t(3),
            &[cpu],
            TenantId(0),
            TaskClass::plain(ByteSize::mib(512)),
        );
        assert_eq!(q.special_floor(cpu, TenantId(0)), Some(ByteSize::gib(1)));
        assert_eq!(q.special_floor(cpu, TenantId(1)), None, "unknown tenant");
        q.remove(&t(1));
        assert_eq!(
            q.special_floor(cpu, TenantId(0)),
            Some(ByteSize::gib(1)),
            "one of two equal peaks left"
        );
        q.remove(&t(2));
        assert_eq!(q.special_floor(cpu, TenantId(0)), Some(ByteSize::gib(4)));
        // a peak change and a move to the plain side both unlink first
        q.reclassify(t(0), special(ByteSize::gib(2)));
        assert_eq!(q.special_floor(cpu, TenantId(0)), Some(ByteSize::gib(2)));
        q.reclassify(t(0), TaskClass::plain(ByteSize::gib(2)));
        assert_eq!(q.special_floor(cpu, TenantId(0)), None);
        assert_eq!(q.plain_floor(cpu, TenantId(0)), Some(ByteSize::mib(512)));
    }

    #[test]
    fn memory_failure_marks_mem_bound() {
        let mut tm = TaskManager::new(cfg());
        tm.record_memory_failure(StageId(0), "w/s".into(), 0, ByteSize::gib(12), NodeId(3));
        let kinds = tm.queues_for(&pview(0, 0, StageKind::ShuffleMap, false));
        assert_eq!(kinds, vec![ResourceKind::Mem]);
        let char = tm.db().read(&TaskKey::new("w/s", 0)).unwrap();
        assert_eq!(char.peak_mem, ByteSize::gib(12));
        assert!(
            char.best.is_none() || char.best.unwrap().1 == f64::MAX,
            "a failed run must never become the best executor"
        );
    }
}
