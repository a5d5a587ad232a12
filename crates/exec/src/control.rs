//! The control layer both hosts run: task, stage and job bookkeeping,
//! the attempt table and the fleet.
//!
//! RUPAM's task manager, resource monitor and dispatcher sit in one
//! driver control loop. Its bookkeeping is one [`ControlPlane`], owned
//! by the sim engine and by the live serve driver alike: which tasks are
//! pending, running or done, which stages are released, which jobs have
//! arrived and finished, where map outputs live, each task's observed
//! peak, the fault-recovery ledger, the persistent [`OfferState`], the
//! attempt table (every launched [`Attempt`], each node's running list,
//! memory and executor heap) and the [`Fleet`] (membership, health and
//! capacity). Every transition is defined once here — job submission and
//! stage release, launch admission and registration, a won attempt, a
//! failed one, the lineage re-pend after node loss, and the views an
//! offer round hands the scheduler — and acts through [`Io`]: the host's
//! clock, its scheduler and its [`EventSink`]. The fleet rules
//! ([`fleet`]: liveness beacons, the detector round, node loss, the
//! capacity controller, drain notices and reclaims, and the fleet fields
//! of every node view) act through the host itself.
//!
//! What stays with each host ([`ControlHost`]) is how an attempt runs
//! and the locality and GPU rules of its launch, the host's part of each
//! node view, the executor-cache tier (it feeds the pending views'
//! `process_nodes`), and the hooks the fleet rules call.

use std::collections::HashMap;

use rupam_cluster::{ClusterSpec, NodeId, NodeTier};
use rupam_dag::app::{Application, JobId, StageId};
use rupam_dag::data::DataLayout;
use rupam_dag::lineage::StageTracker;
use rupam_dag::stream::MergedStream;
use rupam_dag::task::{CacheKey, InputSource};
use rupam_dag::{Locality, TaskRef, TenantId};
use rupam_metrics::breakdown::TaskBreakdown;
use rupam_metrics::record::{AttemptOutcome, TaskRecord};
use rupam_metrics::trace::{AbortCause, LaunchReason};
use rupam_simcore::time::{SimDuration, SimTime};
use rupam_simcore::units::ByteSize;

use crate::config::{MemConfig, SimConfig};
use crate::engine::{EngineEvent, EventCtx, EventSink};
use crate::offer_state::{OfferHost, OfferState, ShufflePrefs};
use crate::scheduler::{
    Command, NodeView, OfferInput, PendingTaskView, RunningTaskView, Scheduler,
};
use crate::shuffle::MapOutputLedger;

pub mod fleet;
pub use fleet::Fleet;

/// One launched attempt's id: the launch count when it launched.
pub type AttemptId = usize;

/// Scheduling state of one task.
#[derive(Clone, Debug, PartialEq)]
pub enum TaskState {
    /// Waiting to launch as attempt `attempt_no`, since `since` (its
    /// stage's release, or its re-pend).
    Pending {
        /// The attempt number its next launch gets.
        attempt_no: u32,
        /// When it became launchable.
        since: SimTime,
    },
    /// Running as these attempts, the original first.
    Running {
        /// The live attempts.
        attempts: Vec<AttemptId>,
    },
    /// An attempt won.
    Done,
}

/// One launched attempt. Its job and template key are its stage's.
#[derive(Clone, Debug)]
pub struct Attempt {
    /// The task it runs.
    pub task: TaskRef,
    /// Its attempt number.
    pub attempt_no: u32,
    /// The node it runs on.
    pub node: NodeId,
    /// Is it a speculative copy?
    pub speculative: bool,
    /// Where its input comes from.
    pub locality: Locality,
    /// When it launched.
    pub launched_at: SimTime,
    /// The memory it holds on its node while it runs.
    pub peak_mem: ByteSize,
    /// Does it run on a GPU?
    pub used_gpu: bool,
    /// Is it still running?
    pub alive: bool,
}

/// One node's executor: its heap, sized once at the start of the run, the
/// live attempts in it, oldest first, and the sum of their peaks.
#[derive(Default)]
struct Executor {
    executor_mem: ByteSize,
    running: Vec<AttemptId>,
    mem_in_use: ByteSize,
}

/// Why a host drops a `Command::Launch` instead of running it, like a
/// lost RPC: the view the scheduler placed against went stale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaunchDrop {
    /// The stage is not released, the task no longer pending, or the
    /// copy not the one extra copy of a lone original.
    Stale,
    /// The node does not exist, takes no work, or was declared dead.
    Dead,
    /// The node is outside the fleet.
    Autoscale,
    /// The node drains towards a preemption reclaim.
    Preempt,
    /// A speculative copy, on a host that runs none.
    Copy,
}

/// One stream job (a plain application runs as a one-job stream).
#[derive(Clone, Debug)]
pub struct Job {
    /// The tenant it runs for.
    pub tenant: TenantId,
    /// Its planned arrival, overwritten by its submission time.
    pub arrival: SimTime,
    /// Has it been submitted?
    pub submitted: bool,
    /// When its last stage finished.
    pub completed_at: Option<SimTime>,
}

/// What a transition acts through: the host's clock and offer round, the
/// scheduler it notifies, and where it publishes its events.
pub struct Io<'x> {
    /// When the transition happens.
    pub ctx: EventCtx,
    /// The scheduler the transition notifies.
    pub sched: &'x mut dyn Scheduler,
    /// Where the transition publishes its events.
    pub sink: &'x mut dyn EventSink,
}

impl Io<'_> {
    /// Publish `event` at this transition's time.
    pub fn publish(&mut self, event: EngineEvent) {
        self.sink.publish(&self.ctx, &event);
    }
}

/// What a host lends the control plane: its clock, its part of the node
/// views, and the hooks the fleet rules call where the hosts differ.
pub trait ControlHost<'a> {
    /// The host's control plane.
    fn control(&self) -> &ControlPlane<'a>;
    /// The host's control plane, mutably.
    fn control_mut(&mut self) -> &mut ControlPlane<'a>;
    /// The control plane, and what its transitions act through: the
    /// host's clock, offer round, scheduler and event sink.
    fn io(&mut self) -> (&mut ControlPlane<'a>, Io<'_>);
    /// The host's clock.
    fn now(&self) -> SimTime;
    /// Fill the host's part of a from-scratch `view`: utilisation, idle
    /// GPUs, and `blocked` when the host holds the node back. Memory and
    /// running attempts are the table's, the fleet fields (`dead`,
    /// `suspect`, `tier`, `draining`, `preempt_risk`, `heartbeat_age`) the
    /// fleet's.
    fn host_view(&self, view: &mut NodeView);
    /// The nodes whose executor cache holds `key` as read by `stage`
    /// (`PROCESS_LOCAL`). Hosts without an executor cache hold none.
    fn process_nodes(&self, _stage: StageId, _key: &CacheKey) -> Vec<NodeId> {
        Vec::new()
    }
    /// Stop executing attempt `id` and fail it as `outcome`
    /// ([`ControlPlane::end_attempt`], [`ControlPlane::attempt_failed`]).
    fn stop_attempt(&mut self, id: AttemptId, outcome: AttemptOutcome);
    /// Wipe what `node`'s loss takes with it on the host's side; its
    /// attempts are already failed.
    fn wipe(&mut self, node: NodeId);
    /// Is `node` down? The capacity controller neither scales nor
    /// preempts a down node. By default: declared dead.
    fn down(&self, node: NodeId) -> bool {
        self.control().fleet.is_dead(node)
    }
    /// `node` joined the fleet. By default it accepts work at once.
    fn joined(&mut self, _node: NodeId) {}
    /// A drain notice reclaims `node` at `deadline`: arm the host's
    /// timer for [`ControlPlane::reclaim`]. By default none: the host
    /// scans for due drains itself.
    fn drain_armed(&mut self, _node: NodeId, _deadline: SimTime) {}
    /// `secs` config (simulated) seconds as a host duration.
    fn host_duration(&self, secs: f64) -> SimDuration {
        SimDuration::from_secs_f64(secs)
    }
    /// `secs` config seconds in host seconds.
    fn host_secs(&self, secs: f64) -> f64 {
        secs
    }
    /// Something changed that may make work dispatchable: run an offer
    /// round soon.
    fn wake(&mut self);
}

/// A control host builds the offer views: each node view from the
/// attempt table, the host's part and the fleet's fields, and its control
/// plane's pending views.
impl<'a, H: ControlHost<'a>> OfferHost for H {
    fn node_view(&self, node: NodeId) -> NodeView {
        let mut view = self.control().table_view(node, self.now());
        self.host_view(&mut view);
        self.control().fleet.overlay(&mut view, self.now());
        view
    }

    fn heartbeat_age(&self, node: NodeId) -> SimDuration {
        self.control().fleet.heartbeat_age(node, self.now())
    }

    fn pending_view(&self, task: TaskRef, prefs: &mut ShufflePrefs) -> Option<PendingTaskView> {
        let ctl = self.control();
        match *ctl.task(task) {
            TaskState::Pending { attempt_no, .. } if ctl.released(task.stage) => {
                Some(ctl.task_view(self, task, attempt_no, prefs))
            }
            _ => None,
        }
    }
}

/// The task, stage and job bookkeeping of one run, its attempts, its
/// offer state and its fleet.
pub struct ControlPlane<'a> {
    cluster: &'a ClusterSpec,
    mem: &'a MemConfig,
    app: &'a Application,
    layout: &'a DataLayout,
    /// Per stage, per task.
    pub(crate) tasks: Vec<Vec<TaskState>>,
    jobs: Vec<Job>,
    stage_jobs: Vec<JobId>,
    /// Lineage and readiness across stages and job chains.
    tracker: StageTracker,
    /// Where finished map outputs live.
    pub(crate) ledger: MapOutputLedger,
    /// Highest observed peak memory per task, fed back into offers.
    observed_peak: HashMap<(StageId, usize), ByteSize>,
    /// Tasks killed by node loss (or re-pended by lineage recompute)
    /// that have not yet re-run to completion, with the kill time.
    kill_pending: HashMap<TaskRef, SimTime>,
    offers: OfferState,
    /// Every attempt launched, indexed by [`AttemptId`]; never shrinks.
    attempts: Vec<Attempt>,
    executors: Vec<Executor>,
    fleet: Fleet<'a>,
}

impl<'a> ControlPlane<'a> {
    /// Bookkeeping for `app` on `cluster` under `config`'s retry limit:
    /// the jobs of `stream`, or without one a single job arriving at
    /// t = 0, run on `fleet`. `sched` hears that the application starts
    /// and sizes every executor heap, capped at the node's memory less
    /// the OS reserve. Nothing is submitted yet, and every task is
    /// pending as attempt 0.
    pub fn new(
        cluster: &'a ClusterSpec,
        config: &'a SimConfig,
        app: &'a Application,
        layout: &'a DataLayout,
        stream: Option<&MergedStream>,
        fleet: Fleet<'a>,
        sched: &mut dyn Scheduler,
    ) -> Self {
        sched.on_app_start(app, cluster);
        let job = |tenant, arrival| Job {
            tenant,
            arrival,
            submitted: false,
            completed_at: None,
        };
        let (jobs, chains, stage_jobs) = match stream {
            Some(ms) => (
                (ms.jobs.iter()).map(|j| job(j.tenant, j.arrival)).collect(),
                ms.jobs.iter().map(|j| j.app_jobs.clone()).collect(),
                ms.stage_jobs.clone(),
            ),
            None => (
                vec![job(TenantId(0), SimTime::ZERO)],
                std::iter::once(0..app.jobs.len()).collect::<Vec<_>>(),
                vec![JobId(0); app.stages.len()],
            ),
        };
        let pending = TaskState::Pending {
            attempt_no: 0,
            since: SimTime::ZERO,
        };
        ControlPlane {
            cluster,
            mem: &config.mem,
            app,
            layout,
            tasks: (app.stages.iter())
                .map(|s| vec![pending.clone(); s.num_tasks()])
                .collect(),
            jobs,
            stage_jobs,
            tracker: StageTracker::new_stream(app, &chains),
            ledger: MapOutputLedger::new(app, cluster.len()),
            observed_peak: HashMap::new(),
            kill_pending: HashMap::new(),
            offers: OfferState::new(app, cluster.len()),
            attempts: Vec::new(),
            executors: (cluster.iter())
                .map(|(id, spec)| Executor {
                    executor_mem: (sched.executor_memory(cluster, id))
                        .min(spec.mem.saturating_sub(config.mem.os_reserved)),
                    ..Executor::default()
                })
                .collect(),
            fleet,
        }
    }

    /// The state of `task`.
    pub fn task(&self, task: TaskRef) -> &TaskState {
        &self.tasks[task.stage.index()][task.index]
    }

    /// The jobs, indexed by [`JobId`].
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// The stream job owning `stage`.
    pub fn job_of(&self, stage: StageId) -> JobId {
        self.stage_jobs[stage.index()]
    }

    /// Has `stage` been released to the scheduler?
    pub(crate) fn released(&self, stage: StageId) -> bool {
        self.tracker.is_released(stage)
    }

    /// Has every stage of every job finished?
    pub(crate) fn all_done(&self) -> bool {
        self.tracker.all_done(self.app)
    }

    /// Tasks killed by node loss that never re-ran to completion, with
    /// their kill times, in task order.
    pub fn lost_tasks(&self) -> Vec<(TaskRef, SimTime)> {
        let mut lost: Vec<_> = self.kill_pending.iter().map(|(&t, &at)| (t, at)).collect();
        lost.sort();
        lost
    }

    /// The offer state, for the marks the host's node side leaves.
    pub fn offers(&mut self) -> &mut OfferState {
        &mut self.offers
    }

    /// Submit `job`: unlock its chain, tell the scheduler which stages it
    /// will run, and release whatever is ready. False for an unknown or
    /// already submitted job.
    pub fn submit_job(&mut self, job: JobId, io: &mut Io<'_>) -> bool {
        let Some(j) = self.jobs.get_mut(job.index()).filter(|j| !j.submitted) else {
            return false;
        };
        j.submitted = true;
        j.arrival = io.ctx.at;
        let tenant = j.tenant;
        self.tracker.arrive(job.index());
        io.publish(EngineEvent::JobSubmitted { job, tenant });
        let stages: Vec<StageId> = (self.stage_jobs.iter().enumerate())
            .filter(|&(_, &j)| j == job)
            .map(|(i, _)| StageId(i))
            .collect();
        io.sched.on_job_submitted(job, &stages, io.ctx.at);
        for sid in self.tracker.take_ready(self.app) {
            self.release_stage(sid, io);
        }
        true
    }

    /// `sid` became ready: its pending tasks join the offer state. The
    /// tracker surfaces each stage once ([`StageTracker::take_ready`]),
    /// also when lineage recompute re-blocks it, so schedulers see
    /// `on_stage_ready` once per stage.
    fn release_stage(&mut self, sid: StageId, io: &mut Io<'_>) {
        for t in &mut self.tasks[sid.index()] {
            if let TaskState::Pending { since, .. } = t {
                *since = io.ctx.at;
            }
        }
        self.offers.stage_released(sid);
        io.sched.on_stage_ready(self.app.stage(sid), io.ctx.at);
    }

    /// An attempt ran to its end, as `record` says. Its peak feeds the
    /// task's hint. A `Success` wins the task: its map output registers,
    /// its recovery resolves, the scheduler hears of it, and the stages
    /// and job it completes are released and closed. The host lets its
    /// other live attempts lose the race.
    pub fn attempt_finished(&mut self, record: &TaskRecord, io: &mut Io<'_>) {
        let task = record.task;
        (self.observed_peak).insert((task.stage, task.index), record.peak_mem);
        if record.outcome != AttemptOutcome::Success {
            debug_assert_eq!(*self.task(task), TaskState::Done);
            return;
        }
        if (self.ledger).record_win(self.app, task, record.node, record.attempt) {
            self.offers.outputs_moved(task.stage);
        }
        self.tasks[task.stage.index()][task.index] = TaskState::Done;
        if let Some(killed_at) = self.kill_pending.remove(&task) {
            let waited = io.ctx.at.since(killed_at);
            io.publish(EngineEvent::RecoveryResolved { task, waited });
        }
        io.sched.on_task_finished(record, io.ctx.at);
        for sid in self.tracker.task_finished(self.app, task.stage) {
            self.release_stage(sid, io);
        }
        // stream-job completion (chain index == stream job index)
        let job = self.job_of(task.stage);
        if self.jobs[job.index()].completed_at.is_none() && self.tracker.chain_done(job.index()) {
            self.jobs[job.index()].completed_at = Some(io.ctx.at);
            let tenant = self.jobs[job.index()].tenant;
            io.publish(EngineEvent::JobCompleted { job, tenant });
        }
    }

    /// Attempt `id` failed, as `record` says. Its peak feeds the task's
    /// hint; the last live attempt re-pends the task as the next attempt
    /// number. True when that number exhausts the retry limit: the run
    /// aborts.
    pub fn attempt_failed(&mut self, id: AttemptId, record: &TaskRecord, io: &mut Io<'_>) -> bool {
        let task = record.task;
        (self.observed_peak).insert((task.stage, task.index), record.peak_mem);
        let mut exhausted = false;
        let state = &mut self.tasks[task.stage.index()][task.index];
        if let TaskState::Running { attempts } = state {
            attempts.retain(|&x| x != id);
            if attempts.is_empty() {
                let next = record.attempt + 1;
                exhausted = self.mem.retries_exhausted(next);
                *state = TaskState::Pending {
                    attempt_no: next,
                    since: io.ctx.at,
                };
                self.offers.task_dirty(task);
            }
        }
        if exhausted {
            io.publish(EngineEvent::Aborted {
                cause: AbortCause::RetriesExhausted,
                task: Some(task),
            });
        }
        let (node, now) = (record.node, io.ctx.at);
        io.sched.on_task_failed(task, node, record.outcome, now);
        exhausted
    }

    /// `task`'s attempt on `node` dies with the node: the task is owed a
    /// recovery. The host then fails the attempt.
    fn task_killed(&mut self, task: TaskRef, node: NodeId, io: &mut Io<'_>) {
        self.kill_pending.entry(task).or_insert(io.ctx.at);
        io.publish(EngineEvent::TaskKilled { task, node });
    }

    /// `node` is lost: walk the lineage and re-pend every finished map
    /// task whose output died with it ([`MapOutputLedger::lose_node`]).
    fn outputs_lost(&mut self, node: NodeId, io: &mut Io<'_>) {
        let lost = (self.ledger).lose_node(self.app, &mut self.tracker, node);
        for (stage, tasks) in lost {
            for &(index, attempt_no) in &tasks {
                let st = &mut self.tasks[stage.index()][index];
                debug_assert_eq!(*st, TaskState::Done);
                *st = TaskState::Pending {
                    attempt_no,
                    since: io.ctx.at,
                };
                let task = TaskRef { stage, index };
                self.kill_pending.entry(task).or_insert(io.ctx.at);
                self.offers.task_dirty(task);
            }
            self.offers.outputs_moved(stage);
            let tasks = tasks.len();
            io.publish(EngineEvent::LineageRecompute { stage, node, tasks });
        }
    }

    /// The view of `task` as attempt `attempt_no`: HDFS replicas and the
    /// ledger's shuffle rule give `node_local`, the host's executor cache
    /// `process_nodes`.
    pub fn task_view(
        &self,
        host: &impl ControlHost<'a>,
        task: TaskRef,
        attempt_no: u32,
        prefs: &mut ShufflePrefs,
    ) -> PendingTaskView {
        let stage = self.app.stage(task.stage);
        let template = &stage.tasks[task.index];
        let replicas = |block| self.layout.block(block).replicas.clone();
        let (process_nodes, node_local) = match &template.input {
            InputSource::Hdfs(block) => (Vec::new(), replicas(*block)),
            InputSource::CachedOrHdfs { key, fallback } => {
                (host.process_nodes(task.stage, key), replicas(*fallback))
            }
            InputSource::Shuffle => (
                Vec::new(),
                prefs.node_local(&self.ledger, self.app, task.stage),
            ),
            InputSource::Generated => (Vec::new(), Vec::new()),
        };
        PendingTaskView {
            task,
            job: self.job_of(task.stage),
            template_key: stage.template_key,
            stage_kind: stage.kind,
            attempt_no,
            peak_mem_hint: (self.observed_peak.get(&(task.stage, task.index)))
                .copied()
                .unwrap_or(ByteSize::ZERO),
            gpu_capable: template.demand.is_gpu_capable(),
            process_nodes,
            node_local,
        }
    }

    /// Attempt `id`.
    pub fn attempt(&self, id: AttemptId) -> &Attempt {
        &self.attempts[id]
    }

    /// Attempts launched so far: the next launch's [`AttemptId`].
    pub fn launches(&self) -> usize {
        self.attempts.len()
    }

    /// The attempts running on `node`, oldest first.
    pub fn running(&self, node: NodeId) -> &[AttemptId] {
        &self.executors[node.index()].running
    }

    /// Every live attempt, node by node: `O(live)`, not `O(launched)`.
    pub fn live(&self) -> impl Iterator<Item = AttemptId> + '_ {
        (self.executors.iter()).flat_map(|e| e.running.iter().copied())
    }

    /// The memory `node`'s running attempts hold.
    pub fn mem_in_use(&self, node: NodeId) -> ByteSize {
        self.executors[node.index()].mem_in_use
    }

    /// `node`'s executor heap.
    pub fn executor_mem(&self, node: NodeId) -> ByteSize {
        self.executors[node.index()].executor_mem
    }

    /// `node`'s heap pressure (`mem_in_use / executor_mem`) in percent.
    pub fn pressure_pct(&self, node: NodeId) -> u32 {
        let (used, heap) = (self.mem_in_use(node), self.executor_mem(node));
        (used.as_f64() / heap.as_f64().max(1.0) * 100.0) as u32
    }

    /// May `task` launch on `node` (as a copy when `speculative`)? Its
    /// attempt number, or why the host drops the command. `accepts`
    /// says whether the host takes work on an existing node. The checks
    /// run stale first, then dead, autoscale and preempt.
    pub fn admit(
        &self,
        task: TaskRef,
        node: NodeId,
        speculative: bool,
        accepts: impl FnOnce(NodeId) -> bool,
    ) -> Result<u32, LaunchDrop> {
        if !self.released(task.stage) {
            return Err(LaunchDrop::Stale);
        }
        let attempt_no = match self.task(task) {
            TaskState::Pending { attempt_no, .. } if !speculative => *attempt_no,
            // one extra copy at most, never a copy of a copy
            TaskState::Running { attempts }
                if speculative && attempts.len() == 1 && !self.attempt(attempts[0]).speculative =>
            {
                self.attempt(attempts[0]).attempt_no + 1
            }
            _ => return Err(LaunchDrop::Stale),
        };
        if node.index() >= self.executors.len() || !accepts(node) || self.fleet.is_dead(node) {
            return Err(LaunchDrop::Dead);
        }
        if !self.fleet.provisioned(node) {
            return Err(LaunchDrop::Autoscale);
        }
        if self.fleet.draining(node) {
            return Err(LaunchDrop::Preempt);
        }
        Ok(attempt_no)
    }

    /// Register `attempt`, admitted by [`ControlPlane::admit`]: it joins
    /// its node holding its peak, its task runs it, and
    /// [`EngineEvent::Launch`] is published. Its id.
    pub fn register(
        &mut self,
        attempt: Attempt,
        reason: LaunchReason,
        io: &mut Io<'_>,
    ) -> AttemptId {
        let id = self.attempts.len();
        let executor = &mut self.executors[attempt.node.index()];
        executor.running.push(id);
        executor.mem_in_use += attempt.peak_mem;
        let task = attempt.task;
        let state = &mut self.tasks[task.stage.index()][task.index];
        match state {
            TaskState::Pending { .. } => *state = TaskState::Running { attempts: vec![id] },
            TaskState::Running { attempts } => attempts.push(id),
            TaskState::Done => unreachable!("launch of a finished task"),
        }
        let job = self.job_of(task.stage);
        io.publish(EngineEvent::Launch {
            task,
            job,
            tenant: self.jobs[job.index()].tenant,
            node: attempt.node,
            attempt: attempt.attempt_no,
            speculative: attempt.speculative,
            use_gpu: attempt.used_gpu,
            locality: attempt.locality,
            reason,
        });
        self.attempts.push(attempt);
        id
    }

    /// Attempt `id` ends at `at` as `outcome`, having run as `breakdown`
    /// says: it leaves its node, and its record is returned for
    /// [`ControlPlane::attempt_finished`] or [`ControlPlane::attempt_failed`].
    pub fn end_attempt(
        &mut self,
        id: AttemptId,
        outcome: AttemptOutcome,
        at: SimTime,
        breakdown: TaskBreakdown,
    ) -> TaskRecord {
        let a = &mut self.attempts[id];
        debug_assert!(a.alive, "attempt {id} ended twice");
        a.alive = false;
        let executor = &mut self.executors[a.node.index()];
        executor.running.retain(|&x| x != id);
        executor.mem_in_use = executor.mem_in_use.saturating_sub(a.peak_mem);
        let a = &self.attempts[id];
        TaskRecord {
            task: a.task,
            job: self.job_of(a.task.stage),
            template_key: self.app.stage(a.task.stage).template_key,
            attempt: a.attempt_no,
            node: a.node,
            speculative: a.speculative,
            locality: a.locality,
            launched_at: a.launched_at,
            finished_at: at,
            outcome,
            breakdown,
            peak_mem: a.peak_mem,
            used_gpu: a.used_gpu,
        }
    }

    /// The attempts a `KillAndRequeue` of `task` on `node` stops, oldest
    /// first (none for a stale command), publishing
    /// [`EngineEvent::KillRequeue`] when there are any.
    pub fn kill_requeue(&self, task: TaskRef, node: NodeId, io: &mut Io<'_>) -> Vec<AttemptId> {
        let TaskState::Running { attempts } = self.task(task) else {
            return Vec::new();
        };
        let on_node: Vec<AttemptId> = (attempts.iter().copied())
            .filter(|&id| self.attempt(id).node == node)
            .collect();
        if !on_node.is_empty() {
            io.publish(EngineEvent::KillRequeue { task, node });
        }
        on_node
    }

    /// The table's part of `node`'s view at `now`: heap, memory and running
    /// attempts; the host's and the fleet's fields are left idle.
    fn table_view(&self, node: NodeId, now: SimTime) -> NodeView {
        let executor = &self.executors[node.index()];
        let running = (executor.running.iter())
            .map(|&id| {
                let a = self.attempt(id);
                RunningTaskView {
                    task: a.task,
                    speculative: a.speculative,
                    elapsed: now.since(a.launched_at),
                    peak_mem: a.peak_mem,
                    on_gpu: a.used_gpu,
                }
            })
            .collect();
        NodeView {
            node,
            executor_mem: executor.executor_mem,
            mem_in_use: executor.mem_in_use,
            free_mem: (executor.executor_mem).saturating_sub(executor.mem_in_use),
            running,
            cpu_util: 0.0,
            net_util: 0.0,
            disk_util: 0.0,
            gpus_idle: 0,
            blocked: false,
            heartbeat_age: SimDuration::ZERO,
            dead: false,
            suspect: false,
            tier: NodeTier::OnDemand,
            draining: false,
            preempt_risk: 0.0,
        }
    }

    /// Do the running lists hold exactly the live attempts, each once and
    /// on its own node, and does each node's `mem_in_use` equal the sum
    /// of their peaks? `O(launched)`: debug checks only.
    pub fn attempts_consistent(&self) -> bool {
        let mut listed = vec![false; self.attempts.len()];
        for (i, executor) in self.executors.iter().enumerate() {
            let mut held = ByteSize::ZERO;
            for &id in &executor.running {
                let a = &self.attempts[id];
                if !a.alive || a.node.index() != i || std::mem::replace(&mut listed[id], true) {
                    return false;
                }
                held += a.peak_mem;
            }
            if held != executor.mem_in_use {
                return false;
            }
        }
        (self.attempts.iter().zip(&listed)).all(|(a, &l)| a.alive == l)
    }

    /// Run `f` on the offer state with `host` as its view builder.
    fn with_offers<H: ControlHost<'a>, R>(
        host: &mut H,
        f: impl FnOnce(&mut OfferState, &H) -> R,
    ) -> R {
        let mut offers = std::mem::take(&mut host.control_mut().offers);
        let out = f(&mut offers, host);
        host.control_mut().offers = offers;
        out
    }

    /// The released pending count after every queued change (the
    /// capacity controller's backlog, the livelock guard's test).
    pub fn backlog<H: ControlHost<'a>>(host: &mut H) -> usize {
        Self::with_offers(host, |offers, joined| offers.backlog(joined))
    }

    /// This round's offer input at `now`, from the persistent views; no
    /// speculatable tasks. Hand it back with [`ControlPlane::settle`].
    pub fn offer_input<H: ControlHost<'a>>(host: &mut H, now: SimTime) -> OfferInput<'a> {
        let views = Self::with_offers(host, |offers, joined| offers.round(joined));
        let ctl = host.control();
        OfferInput {
            now,
            cluster: ctl.cluster,
            app: ctl.app,
            nodes: views.nodes,
            pending: views.pending,
            speculatable: Vec::new(),
            job_arrivals: ctl.jobs.iter().map(|j| j.arrival).collect(),
            job_tenants: ctl.jobs.iter().map(|j| j.tenant).collect(),
            changed: views.changed,
            pending_fresh: views.pending_fresh,
        }
    }

    /// Take back a round's input and read the scheduler's answer.
    pub fn settle(&mut self, input: OfferInput<'_>, commands: &[Command]) {
        self.offers.settle(input.nodes, input.pending, commands);
    }
}
