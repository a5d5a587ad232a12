//! Task and job lifecycle: submission, stage release, attempt
//! completion, failure, race resolution and command application.
//!
//! Everything here mutates [`super::state::ClusterState`] and publishes
//! the corresponding [`EngineEvent`]s; no policy decisions are made —
//! the [`crate::scheduler::Scheduler`] issued the commands, this module
//! makes them physical (or drops them, like a lost RPC, when reality
//! disagrees).

use std::collections::VecDeque;

use rupam_cluster::NodeId;
use rupam_dag::app::{JobId, StageId};
use rupam_dag::task::InputSource;
use rupam_dag::TaskRef;
use rupam_metrics::record::{AttemptOutcome, TaskRecord};
use rupam_metrics::trace::{AbortCause, LaunchReason};
use rupam_simcore::units::ByteSize;

use rupam_metrics::breakdown::TaskBreakdown;

use crate::costmodel::{build_phases, LaunchContext, Phase};
use crate::scheduler::Command;
use crate::shuffle::is_preferred;

use rupam_simcore::source::EventSource;

use super::driver::{Engine, Event};
use super::events::EngineEvent;
use super::state::{AttemptId, AttemptRt, TaskState};

impl<'a, 's, S: EventSource<Event>> Engine<'a, 's, S> {
    /// A stream job arrives: unlock its chain, tell the scheduler which
    /// stages it will eventually run, and release whatever is ready.
    pub(crate) fn submit_job(&mut self, job: JobId) {
        self.state.tracker.arrive(job.index());
        self.publish(EngineEvent::JobSubmitted {
            job,
            tenant: self.state.jobs[job.index()].tenant,
        });
        let stages: Vec<StageId> = self
            .state
            .stage_jobs
            .iter()
            .enumerate()
            .filter(|&(_, &j)| j == job)
            .map(|(i, _)| StageId(i))
            .collect();
        self.sched.on_job_submitted(job, &stages, self.now);
        self.release_ready_stages();
        self.need_offers = true;
    }

    pub(crate) fn release_ready_stages(&mut self) {
        let ready = self.state.tracker.take_ready(self.input.app);
        for sid in ready {
            self.release_stage(sid);
            self.need_offers = true;
        }
    }

    /// `sid` became ready: its pending tasks join the offer state. A
    /// stage re-blocked by lineage recompute can become ready a second
    /// time; schedulers must see `on_stage_ready` only once.
    fn release_stage(&mut self, sid: StageId) {
        if !self.state.stages[sid.index()].released {
            self.state.stages[sid.index()].released = true;
            self.offers.stage_released(sid);
            self.sched
                .on_stage_ready(self.input.app.stage(sid), self.now);
        }
    }

    pub(crate) fn phase_complete(&mut self, id: AttemptId) {
        let a = &mut self.state.attempts[id];
        debug_assert!(a.alive);
        a.phases.pop_front();
        if a.phases.is_empty() {
            self.finish_attempt(id);
        }
    }

    pub(crate) fn finish_attempt(&mut self, id: AttemptId) {
        let (task, node_id, attempt_no) = {
            let a = &self.state.attempts[id];
            (a.task, a.node, a.attempt_no)
        };
        self.state.detach_attempt(id);
        self.state
            .observed_peak
            .insert((task.stage, task.index), self.state.attempts[id].peak_mem);

        // has the task already been completed by another copy?
        let already_done = matches!(
            self.state.stages[task.stage.index()].tasks[task.index],
            TaskState::Done
        );
        let outcome = if already_done {
            AttemptOutcome::LostRace
        } else {
            AttemptOutcome::Success
        };
        let record = self.make_record(id, outcome);
        if !already_done {
            // register map outputs for reducers
            if self
                .state
                .outputs
                .record_win(self.input.app, task, node_id, attempt_no)
            {
                self.offers.outputs_moved(task.stage);
            }
            self.state.stages[task.stage.index()]
                .finished_secs
                .push(record.duration().as_secs_f64());
            // cache the produced partition
            self.cache_produced_partition(task, node_id);
            // kill losing copies
            let losers: Vec<AttemptId> =
                match &self.state.stages[task.stage.index()].tasks[task.index] {
                    TaskState::Running { attempts } => {
                        attempts.iter().copied().filter(|&o| o != id).collect()
                    }
                    _ => Vec::new(),
                };
            if self.state.attempts[id].speculative {
                self.speculative_wins += 1;
            }
            for loser in losers {
                self.abort_attempt(loser, AttemptOutcome::LostRace);
            }
            self.state.stages[task.stage.index()].tasks[task.index] = TaskState::Done;
            self.state.spec_set.remove(&task);
            // a fault-killed (or lineage re-pended) task re-ran to
            // completion: the recovery is resolved
            if let Some(killed_at) = self.state.kill_pending.remove(&task) {
                let waited = self.now.since(killed_at);
                self.publish(EngineEvent::RecoveryResolved { task, waited });
            }
            self.sched.on_task_finished(&record, self.now);
            self.records.push(record);
            // stage/job bookkeeping
            let newly_ready = self.state.tracker.task_finished(self.input.app, task.stage);
            for sid in newly_ready {
                self.release_stage(sid);
            }
            // stream-job completion (chain index == stream job index)
            let job = self.state.stage_jobs[task.stage.index()];
            if self.state.jobs[job.index()].completed_at.is_none()
                && self.state.tracker.chain_done(job.index())
            {
                self.state.jobs[job.index()].completed_at = Some(self.now);
                self.publish(EngineEvent::JobCompleted {
                    job,
                    tenant: self.state.jobs[job.index()].tenant,
                });
            }
        } else {
            self.records.push(record);
        }
        self.need_offers = true;
    }

    pub(crate) fn make_record(&self, id: AttemptId, outcome: AttemptOutcome) -> TaskRecord {
        let a = &self.state.attempts[id];
        TaskRecord {
            task: a.task,
            job: self.state.stage_jobs[a.task.stage.index()],
            template_key: a.template_key,
            attempt: a.attempt_no,
            node: a.node,
            speculative: a.speculative,
            locality: a.locality,
            launched_at: a.launched_at,
            finished_at: self.now,
            outcome,
            breakdown: a.breakdown,
            peak_mem: a.peak_mem,
            used_gpu: a.used_gpu,
        }
    }

    /// Abort a running attempt whose sibling won the race.
    pub(crate) fn abort_attempt(&mut self, id: AttemptId, outcome: AttemptOutcome) {
        debug_assert!(matches!(outcome, AttemptOutcome::LostRace));
        self.state.detach_attempt(id);
        let record = self.make_record(id, outcome);
        self.records.push(record);
        self.need_offers = true;
    }

    /// Fail a running attempt; its task goes back to pending (or the app
    /// aborts once retries are exhausted).
    pub(crate) fn fail_attempt(&mut self, id: AttemptId, outcome: AttemptOutcome) {
        let task = self.state.attempts[id].task;
        let node = self.state.attempts[id].node;
        let attempt_no = self.state.attempts[id].attempt_no;
        self.state.detach_attempt(id);
        self.state
            .observed_peak
            .insert((task.stage, task.index), self.state.attempts[id].peak_mem);
        let record = self.make_record(id, outcome);
        self.records.push(record);

        let mut retries_exhausted = false;
        let state = &mut self.state.stages[task.stage.index()].tasks[task.index];
        if let TaskState::Running { attempts } = state {
            attempts.retain(|&x| x != id);
            if attempts.is_empty() {
                let next = attempt_no + 1;
                if self.input.config.mem.retries_exhausted(next) {
                    self.aborted = true;
                    retries_exhausted = true;
                }
                *state = TaskState::Pending { attempt_no: next };
                self.offers.task_dirty(task);
            }
        }
        if retries_exhausted {
            self.publish(EngineEvent::Aborted {
                cause: AbortCause::RetriesExhausted,
                task: Some(task),
            });
        }
        self.sched.on_task_failed(task, node, outcome, self.now);
        self.need_offers = true;
    }

    pub(crate) fn apply_command(&mut self, cmd: Command) {
        match cmd {
            Command::Launch {
                task,
                node,
                use_gpu,
                speculative,
                reason,
            } => {
                self.try_launch(task, node, use_gpu, speculative, reason);
            }
            Command::KillAndRequeue { task, node, reason } => {
                let outcome = reason.outcome();
                let state = &self.state.stages[task.stage.index()].tasks[task.index];
                if let TaskState::Running { attempts } = state {
                    let on_node: Vec<AttemptId> = attempts
                        .iter()
                        .copied()
                        .filter(|&id| self.state.attempts[id].node == node)
                        .collect();
                    if !on_node.is_empty() {
                        self.publish(EngineEvent::KillRequeue { task, node });
                    }
                    for id in on_node {
                        self.fail_attempt(id, outcome);
                    }
                }
            }
        }
    }

    pub(crate) fn try_launch(
        &mut self,
        task: TaskRef,
        node_id: NodeId,
        use_gpu: bool,
        speculative: bool,
        reason: LaunchReason,
    ) {
        if node_id.index() >= self.state.nodes.len() {
            return;
        }
        if self.state.nodes[node_id.index()].blocked_until > self.now {
            return;
        }
        // launches aimed at a crashed node — or one the driver has
        // declared dead — are dropped on the floor like a lost RPC;
        // same for nodes outside the elastic fleet or draining towards
        // a preemption deadline
        if self.state.nodes[node_id.index()].crashed
            || !self.state.nodes[node_id.index()].provisioned
            || self.state.nodes[node_id.index()].drain_deadline.is_some()
            || self.detector.as_ref().is_some_and(|d| d.is_dead(node_id))
        {
            return;
        }
        if !self.state.stages[task.stage.index()].released {
            return;
        }
        let attempt_no = match &self.state.stages[task.stage.index()].tasks[task.index] {
            TaskState::Pending { attempt_no } if !speculative => *attempt_no,
            TaskState::Running { attempts } if speculative => {
                // one extra copy max, never a copy of a copy
                if attempts.len() != 1 || self.state.attempts[attempts[0]].speculative {
                    return;
                }
                self.state.attempts[attempts[0]].attempt_no + 1
            }
            _ => return,
        };

        let stage = self.input.app.stage(task.stage);
        let template = &stage.tasks[task.index];
        let demand = &template.demand;
        let spec = self.input.cluster.node(node_id);
        let cache_key = match &template.input {
            InputSource::CachedOrHdfs { key, .. } => {
                Some(self.scoped_cache_key(task.stage, &key.rdd, key.partition))
            }
            _ => None,
        };
        let node = &mut self.state.nodes[node_id.index()];

        // resolve input placement & locality (live)
        let mut local_input = ByteSize::ZERO;
        let mut remote_input = ByteSize::ZERO;
        let mut cached_input = false;
        let mut locality = rupam_dag::Locality::Any;
        match &template.input {
            InputSource::Hdfs(block) => {
                if self.input.layout.is_replica(*block, node_id) {
                    local_input = demand.input_bytes;
                    locality = rupam_dag::Locality::NodeLocal;
                } else {
                    remote_input = demand.input_bytes;
                    locality = self
                        .input
                        .layout
                        .hdfs_locality(self.input.cluster, *block, node_id);
                }
            }
            InputSource::CachedOrHdfs { key: _, fallback } => {
                let scoped = cache_key.as_ref().expect("computed above");
                if node.cache.touch(scoped).is_some() {
                    cached_input = true;
                    locality = rupam_dag::Locality::ProcessLocal;
                } else if self.input.layout.is_replica(*fallback, node_id) {
                    local_input = demand.input_bytes;
                    locality = rupam_dag::Locality::NodeLocal;
                } else {
                    remote_input = demand.input_bytes;
                    locality =
                        self.input
                            .layout
                            .hdfs_locality(self.input.cluster, *fallback, node_id);
                }
            }
            // Shuffle locality is refined below from map outputs;
            // generated inputs have no locality at all.
            InputSource::Shuffle | InputSource::Generated => {}
        }

        // shuffle split from parent map outputs
        let mut shuffle_local = ByteSize::ZERO;
        let mut shuffle_remote = ByteSize::ZERO;
        if demand.shuffle_read > ByteSize::ZERO {
            let frac = self
                .state
                .outputs
                .local_share(self.input.app, task.stage, node_id);
            shuffle_local = demand.shuffle_read.scale(frac);
            shuffle_remote = demand.shuffle_read.saturating_sub(shuffle_local);
            if matches!(template.input, InputSource::Shuffle) && is_preferred(frac) {
                locality = rupam_dag::Locality::NodeLocal;
            }
        }

        // GPU-capable task libraries (the paper's NVBLAS example) grab a
        // GPU opportunistically wherever they run — scheduling `use_gpu`
        // only forces sharing when the GPUs are already busy.
        let gpus_busy = node
            .running
            .iter()
            .filter(|&&aid| self.state.attempts[aid].used_gpu)
            .count() as u32;
        let use_gpu =
            spec.gpus > 0 && demand.is_gpu_capable() && (use_gpu || gpus_busy < spec.gpus);
        node.mem_in_use += demand.peak_mem;
        let pressure = node.mem_in_use.as_f64() / node.executor_mem.as_f64().max(1.0);
        let ctx = LaunchContext {
            local_input,
            remote_input,
            cached_input,
            shuffle_local,
            shuffle_remote,
            use_gpu,
            pressure,
            heap: node.executor_mem,
            decision_cost: self.sched.decision_cost(),
        };
        let phases: VecDeque<Phase> = build_phases(demand, &ctx, &self.input.config.cost).into();

        let id = self.state.attempts.len();
        self.state.attempts.push(AttemptRt {
            task,
            template_key: stage.template_key,
            attempt_no,
            speculative,
            node: node_id,
            locality,
            phases,
            launched_at: self.now,
            breakdown: TaskBreakdown::new(),
            peak_mem: demand.peak_mem,
            used_gpu: use_gpu,
            alive: true,
            rate: 0.0,
        });
        self.state.nodes[node_id.index()].running.push(id);
        let state = &mut self.state.stages[task.stage.index()].tasks[task.index];
        match state {
            TaskState::Pending { .. } => *state = TaskState::Running { attempts: vec![id] },
            TaskState::Running { attempts } => attempts.push(id),
            TaskState::Done => unreachable!("validated above"),
        }
        if speculative {
            self.speculative_launched += 1;
            self.state.spec_set.remove(&task);
        }
        let launch_job = self.state.stage_jobs[task.stage.index()];
        self.publish(EngineEvent::Launch {
            task,
            job: launch_job,
            tenant: self.state.jobs[launch_job.index()].tenant,
            node: node_id,
            attempt: attempt_no,
            speculative,
            use_gpu,
            locality,
            reason,
        });
        self.schedule_oom_check_if_needed(node_id);
    }

    /// The executor JVM on `node_id` died (catastrophic OOM): fail its
    /// attempts, wipe it, and block it for the JVM restart time.
    pub(crate) fn executor_lost(&mut self, node_id: NodeId) {
        self.executor_losses += 1;
        let victims: Vec<AttemptId> = self.state.nodes[node_id.index()].running.clone();
        if self.bus.traced() {
            let pressure_pct = {
                let n = &self.state.nodes[node_id.index()];
                (n.mem_in_use.as_f64() / n.executor_mem.as_f64().max(1.0) * 100.0) as u32
            };
            self.publish(EngineEvent::ExecutorLost {
                node: node_id,
                victims: victims.len(),
                pressure_pct,
            });
        }
        for id in victims {
            self.fail_attempt(id, AttemptOutcome::ExecutorLost);
        }
        let cfg = self.input.config;
        let node = &mut self.state.nodes[node_id.index()];
        let wiped = node.cache.clear();
        node.mem_in_use = ByteSize::ZERO;
        node.blocked_until = self.now + cfg.mem.jvm_restart;
        node.oom_epoch += 1;
        node.oom_scheduled = false;
        self.source.schedule(
            node.blocked_until,
            Event::ExecutorRestored { node: node_id },
        );
        self.cache_changed(&wiped);
    }
}
