//! Attempt lifecycle: launch, completion, failure, race resolution and
//! command application.
//!
//! Everything here mutates [`super::state::ClusterState`] and hands the
//! task-level transitions (submission, a won or failed attempt) to the
//! shared [`crate::control::ControlPlane`]; no policy decisions are made —
//! the [`crate::scheduler::Scheduler`] issued the commands, this module
//! makes them physical (or drops them, like a lost RPC, when reality
//! disagrees).

use std::collections::VecDeque;

use rupam_cluster::NodeId;
use rupam_dag::app::JobId;
use rupam_dag::task::InputSource;
use rupam_dag::TaskRef;
use rupam_metrics::record::{AttemptOutcome, TaskRecord};
use rupam_metrics::trace::LaunchReason;
use rupam_simcore::units::ByteSize;

use rupam_metrics::breakdown::TaskBreakdown;

use crate::costmodel::{build_phases, LaunchContext, Phase};
use crate::scheduler::Command;
use crate::shuffle::is_preferred;

use rupam_simcore::source::EventSource;

use super::driver::{Engine, Event};
use super::events::EngineEvent;
use super::state::{AttemptId, AttemptRt};
use crate::control::{ControlHost, TaskState};

impl<'a, 's, S: EventSource<Event>> Engine<'a, 's, S> {
    /// A stream job arrives: the control plane submits it.
    pub(crate) fn submit_job(&mut self, job: JobId) {
        let (ctl, mut io) = self.io();
        ctl.submit_job(job, &mut io);
        self.need_offers = true;
    }

    pub(crate) fn phase_complete(&mut self, id: AttemptId) {
        let a = &mut self.state.attempts[id];
        debug_assert!(a.alive);
        a.phases.pop_front();
        if a.phases.is_empty() {
            self.finish_attempt(id);
        }
    }

    /// An attempt ran to its end. If its task is already done it lost
    /// the race; otherwise it wins, and its live siblings lose.
    pub(crate) fn finish_attempt(&mut self, id: AttemptId) {
        let (task, node_id) = (self.state.attempts[id].task, self.state.attempts[id].node);
        self.state.detach_attempt(id);
        let won = !matches!(self.ctl.task(task), TaskState::Done);
        let outcome = if won {
            AttemptOutcome::Success
        } else {
            AttemptOutcome::LostRace
        };
        let record = self.make_record(id, outcome);
        if won {
            (self.state.finished_secs[task.stage.index()]).push(record.duration().as_secs_f64());
            // cache the produced partition
            self.cache_produced_partition(task, node_id);
            if self.state.attempts[id].speculative {
                self.speculative_wins += 1;
            }
            if let TaskState::Running { attempts } = self.ctl.task(task) {
                let losers: Vec<AttemptId> =
                    attempts.iter().copied().filter(|&o| o != id).collect();
                for loser in losers {
                    self.abort_attempt(loser, AttemptOutcome::LostRace);
                }
            }
            self.state.spec_set.remove(&task);
        }
        let (ctl, mut io) = self.io();
        ctl.attempt_finished(&record, &mut io);
        self.records.push(record);
        self.need_offers = true;
    }

    pub(crate) fn make_record(&self, id: AttemptId, outcome: AttemptOutcome) -> TaskRecord {
        let a = &self.state.attempts[id];
        TaskRecord {
            task: a.task,
            job: self.ctl.job_of(a.task.stage),
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
        self.state.detach_attempt(id);
        let record = self.make_record(id, outcome);
        let (ctl, mut io) = self.io();
        self.aborted |= ctl.attempt_failed(id, &record, &mut io);
        self.records.push(record);
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
                if let TaskState::Running { attempts } = self.ctl.task(task) {
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
        let fleet = self.ctl.fleet();
        if self.state.nodes[node_id.index()].crashed
            || !fleet.provisioned(node_id)
            || fleet.draining(node_id)
            || fleet.is_dead(node_id)
        {
            return;
        }
        if !self.ctl.released(task.stage) {
            return;
        }
        let attempt_no = match self.ctl.task(task) {
            TaskState::Pending { attempt_no, .. } if !speculative => *attempt_no,
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
                .ctl
                .ledger
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
        self.ctl.launched(task, id);
        if speculative {
            self.speculative_launched += 1;
            self.state.spec_set.remove(&task);
        }
        let launch_job = self.ctl.job_of(task.stage);
        self.publish(EngineEvent::Launch {
            task,
            job: launch_job,
            tenant: self.ctl.jobs()[launch_job.index()].tenant,
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
