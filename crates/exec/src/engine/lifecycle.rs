//! Attempt lifecycle: launch, completion, failure, race resolution and
//! command application.
//!
//! The shared [`crate::control::ControlPlane`] admits and registers each
//! launch, ends attempts and makes the task-level transitions
//! (submission, a won or failed attempt); this module gives each attempt
//! its physics in [`super::state::ClusterState`]. No policy decisions are
//! made — the [`crate::scheduler::Scheduler`] issued the commands, this
//! module makes them physical (or drops them, like a lost RPC, when
//! reality disagrees).

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
use crate::control::{Attempt, ControlHost, TaskState};

impl<'a, 's, S: EventSource<Event>> Engine<'a, 's, S> {
    /// A stream job arrives: the control plane submits it.
    pub(crate) fn submit_job(&mut self, job: JobId) {
        let (ctl, mut io) = self.io();
        ctl.submit_job(job, &mut io);
        self.need_offers = true;
    }

    pub(crate) fn phase_complete(&mut self, id: AttemptId) {
        debug_assert!(self.ctl.attempt(id).alive);
        let a = &mut self.state.attempts[id];
        a.phases.pop_front();
        if a.phases.is_empty() {
            self.finish_attempt(id);
        }
    }

    /// Attempt `id` ends as `outcome`: its phases go, and the control
    /// plane takes it off its node and returns its record.
    fn end_attempt(&mut self, id: AttemptId, outcome: AttemptOutcome) -> TaskRecord {
        let a = &mut self.state.attempts[id];
        a.phases = VecDeque::new();
        (self.ctl).end_attempt(id, outcome, self.now, a.breakdown)
    }

    /// An attempt ran to its end. If its task is already done it lost
    /// the race; otherwise it wins, and its live siblings lose.
    pub(crate) fn finish_attempt(&mut self, id: AttemptId) {
        let won = !matches!(self.ctl.task(self.ctl.attempt(id).task), TaskState::Done);
        let outcome = if won {
            AttemptOutcome::Success
        } else {
            AttemptOutcome::LostRace
        };
        let record = self.end_attempt(id, outcome);
        let task = record.task;
        if won {
            (self.state.finished_secs[task.stage.index()]).push(record.duration().as_secs_f64());
            // cache the produced partition
            self.cache_produced_partition(task, record.node);
            if record.speculative {
                self.speculative_wins += 1;
            }
            if let TaskState::Running { attempts } = self.ctl.task(task) {
                for loser in attempts.clone() {
                    if loser != id {
                        let record = self.end_attempt(loser, AttemptOutcome::LostRace);
                        self.records.push(record);
                    }
                }
            }
            self.state.spec_set.remove(&task);
        }
        let (ctl, mut io) = self.io();
        ctl.attempt_finished(&record, &mut io);
        self.records.push(record);
        self.need_offers = true;
    }

    /// Fail a running attempt; its task goes back to pending (or the app
    /// aborts once retries are exhausted).
    pub(crate) fn fail_attempt(&mut self, id: AttemptId, outcome: AttemptOutcome) {
        let record = self.end_attempt(id, outcome);
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
                let (ctl, mut io) = self.io();
                for id in ctl.kill_requeue(task, node, &mut io) {
                    self.fail_attempt(id, reason.outcome());
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
        // a crashed node, or one still restarting its executor or
        // waiting out its provisioning latency, takes no work
        let (nodes, now) = (&self.state.nodes, self.now);
        let accepts =
            |n: NodeId| !nodes[n.index()].crashed && nodes[n.index()].blocked_until <= now;
        let Ok(attempt_no) = self.ctl.admit(task, node_id, speculative, accepts) else {
            return;
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
        let gpus_busy = (self.ctl.running(node_id).iter())
            .filter(|&&aid| self.ctl.attempt(aid).used_gpu)
            .count() as u32;
        let use_gpu =
            spec.gpus > 0 && demand.is_gpu_capable() && (use_gpu || gpus_busy < spec.gpus);
        let heap = self.ctl.executor_mem(node_id);
        let mem_in_use = self.ctl.mem_in_use(node_id) + demand.peak_mem;
        let ctx = LaunchContext {
            local_input,
            remote_input,
            cached_input,
            shuffle_local,
            shuffle_remote,
            use_gpu,
            pressure: mem_in_use.as_f64() / heap.as_f64().max(1.0),
            heap,
            decision_cost: self.sched.decision_cost(),
        };
        let phases: VecDeque<Phase> = build_phases(demand, &ctx, &self.input.config.cost).into();

        let attempt = Attempt {
            task,
            attempt_no,
            node: node_id,
            speculative,
            locality,
            launched_at: self.now,
            peak_mem: demand.peak_mem,
            used_gpu: use_gpu,
            alive: true,
        };
        let (ctl, mut io) = self.io();
        ctl.register(attempt, reason, &mut io);
        self.state.attempts.push(AttemptRt {
            phases,
            breakdown: TaskBreakdown::new(),
            rate: 0.0,
        });
        if speculative {
            self.speculative_launched += 1;
            self.state.spec_set.remove(&task);
        }
        self.schedule_oom_check_if_needed(node_id);
    }

    /// The executor JVM on `node_id` died (catastrophic OOM): fail its
    /// attempts, wipe it, and block it for the JVM restart time.
    pub(crate) fn executor_lost(&mut self, node_id: NodeId) {
        self.executor_losses += 1;
        let victims: Vec<AttemptId> = self.ctl.running(node_id).to_vec();
        if self.bus.traced() {
            let pressure_pct = self.ctl.pressure_pct(node_id);
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
        node.blocked_until = self.now + cfg.mem.jvm_restart;
        node.oom_epoch += 1;
        node.oom_scheduled = false;
        self.source
            .schedule(node.blocked_until, Event::ExecutorRestored);
        self.cache_changed(&wiped);
    }
}
