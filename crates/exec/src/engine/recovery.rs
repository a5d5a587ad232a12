//! Fault injection, node loss, lineage recompute and the OOM machinery.
//!
//! Applies scripted chaos ([`rupam_faults::FaultScript`]) to the
//! cluster, abandons executors on crashed/dead nodes (the control plane
//! re-pends finished shuffle-map tasks whose outputs died with a node),
//! and runs the probabilistic OOM model for overcommitted executors.
//! All accounting flows through the bus: [`EngineEvent::FaultInjected`],
//! [`EngineEvent::TaskKilled`], [`EngineEvent::LineageRecompute`],
//! [`EngineEvent::OomTaskKill`].

use rand::Rng;

use rupam_cluster::NodeId;
use rupam_faults::FaultKind;
use rupam_metrics::record::AttemptOutcome;
use rupam_simcore::time::{SimDuration, SimTime};
use rupam_simcore::units::ByteSize;

use rupam_simcore::source::EventSource;

use super::driver::{Engine, Event};
use super::events::EngineEvent;
use super::state::AttemptId;

impl<'a, 's, S: EventSource<Event>> Engine<'a, 's, S> {
    /// Apply the `index`-th scripted fault to its target node.
    pub(crate) fn apply_fault(&mut self, index: usize) {
        let spec = *self
            .input
            .config
            .faults
            .script
            .get(index)
            .expect("fault events are scheduled once per script entry");
        let node_id = spec.node;
        if node_id.index() >= self.state.nodes.len() {
            return; // script targets a node this cluster doesn't have
        }
        self.publish(EngineEvent::FaultInjected {
            node: node_id,
            kind: spec.kind,
        });
        match spec.kind {
            FaultKind::Crash => {
                self.state.nodes[node_id.index()].crashed = true;
                self.node_lost(node_id);
            }
            FaultKind::Restart => {
                let node = &mut self.state.nodes[node_id.index()];
                node.crashed = false;
                node.slow_factor = 1.0;
                node.slow_epoch += 1;
                node.flaky_epoch += 1;
                node.flaky_until = SimTime::ZERO;
                node.hb_dropout_until = SimTime::ZERO;
                // the node stays out of the rankings until its first
                // heartbeat re-admits it via the detector
            }
            FaultKind::Slowdown { factor, secs } => {
                let node = &mut self.state.nodes[node_id.index()];
                node.slow_factor = factor.max(1e-9);
                node.slow_epoch += 1;
                let epoch = node.slow_epoch;
                self.source.schedule(
                    self.now + SimDuration::from_secs_f64(secs),
                    Event::SlowdownEnd {
                        node: node_id,
                        epoch,
                    },
                );
            }
            FaultKind::HeartbeatDropout { secs } => {
                self.state.nodes[node_id.index()].hb_dropout_until =
                    self.now + SimDuration::from_secs_f64(secs);
            }
            FaultKind::FlakyOom { secs, prob } => {
                let node = &mut self.state.nodes[node_id.index()];
                node.flaky_until = self.now + SimDuration::from_secs_f64(secs);
                node.flaky_prob = prob.clamp(0.0, 1.0);
                node.flaky_epoch += 1;
                let epoch = node.flaky_epoch;
                self.source.schedule(
                    self.now + SimDuration::from_secs(1),
                    Event::FlakyCheck {
                        node: node_id,
                        epoch,
                    },
                );
            }
            FaultKind::Preempt { notice_secs } => {
                self.begin_preemption(node_id, notice_secs);
            }
        }
    }

    /// Serve a preemption notice on a node: it drains (no new work) for
    /// the notice window, then [`Engine::preempt_fire`] reclaims it
    /// through the node-loss path. Used by scripted `preempt` faults and
    /// the elastic controller's price-correlated draws alike.
    pub(crate) fn begin_preemption(&mut self, node_id: NodeId, notice_secs: f64) {
        let notice = SimDuration::from_secs_f64(notice_secs.max(0.0));
        self.publish(EngineEvent::PreemptionNotice {
            node: node_id,
            notice,
        });
        let node = &mut self.state.nodes[node_id.index()];
        node.drain_deadline = Some(self.now + notice);
        node.elastic_epoch += 1;
        let epoch = node.elastic_epoch;
        self.ctl.offers().node_dirty(node_id);
        self.source.schedule(
            self.now + notice,
            Event::PreemptFire {
                node: node_id,
                epoch,
            },
        );
        // draining blocks new launches; tell the scheduler now rather
        // than at the next heartbeat
        self.need_offers = true;
    }

    /// The drain window of a preemption notice expired: reclaim the
    /// node. Spot nodes leave the fleet (the controller may re-provision
    /// the slot later); a scripted preemption on an on-demand node
    /// behaves like a crash-with-notice (a `restart` fault revives it).
    pub(crate) fn preempt_fire(&mut self, node_id: NodeId, epoch: u64) {
        {
            let node = &self.state.nodes[node_id.index()];
            if node.elastic_epoch != epoch || node.drain_deadline.is_none() || node.crashed {
                return; // stale: the node was lost or revived meanwhile
            }
        }
        let spot = !self.input.config.elastic.is_empty()
            && self.input.config.elastic.pool_of(node_id).is_some();
        // bill the partial interval before the node leaves the fleet
        if let Some(el) = self.elastic.as_mut() {
            el.accrue(&self.state.nodes, &self.input.config.elastic, self.now);
        }
        {
            let node = &mut self.state.nodes[node_id.index()];
            node.drain_deadline = None;
            if spot {
                node.provisioned = false;
            } else {
                node.crashed = true;
            }
        }
        if spot {
            if let Some(el) = self.elastic.as_mut() {
                el.cost.preemptions += 1;
            }
        }
        self.node_lost(node_id);
    }

    /// A node's executor state is gone — it physically crashed, or the
    /// failure detector declared it dead and the driver abandoned it.
    /// Kill its running attempts, wipe the executor, and re-pend every
    /// completed map task whose output lived there (lineage recompute,
    /// [`crate::shuffle::MapOutputLedger::lose_node`]).
    pub(crate) fn node_lost(&mut self, node_id: NodeId) {
        let victims: Vec<AttemptId> = self.state.nodes[node_id.index()].running.clone();
        for id in victims {
            let task = self.state.attempts[id].task;
            let (ctl, mut io) = self.control();
            ctl.task_killed(task, node_id, &mut io);
            self.fail_attempt(id, AttemptOutcome::NodeFaulted);
        }
        let node = &mut self.state.nodes[node_id.index()];
        let wiped = node.cache.clear();
        node.mem_in_use = ByteSize::ZERO;
        node.oom_epoch += 1;
        node.oom_scheduled = false;
        node.slow_factor = 1.0;
        // cancel any in-flight preemption notice: the node is already
        // gone, and a later re-provision must not inherit a stale fire
        node.drain_deadline = None;
        node.elastic_epoch += 1;
        self.cache_changed(&wiped);
        // walk the lineage. Cached partitions need no lineage action: the
        // cache was wiped and every cached read carries an HDFS fallback
        let (ctl, mut io) = self.control();
        ctl.outputs_lost(node_id, &mut io);
        self.need_offers = true;
    }

    /// One probe of a flaky-OOM window: with probability `flaky_prob`
    /// the node's hungriest attempt dies through the normal OOM-kill
    /// machinery; re-arms itself every second while the window lasts.
    pub(crate) fn flaky_check(&mut self, node_id: NodeId, epoch: u64) {
        let (stale, done) = {
            let n = &self.state.nodes[node_id.index()];
            (
                n.flaky_epoch != epoch || n.crashed,
                self.now >= n.flaky_until,
            )
        };
        if stale || done {
            return;
        }
        let prob = self.state.nodes[node_id.index()].flaky_prob;
        if self.rng_faults.gen_range(0.0..1.0) < prob {
            let victim = self.state.nodes[node_id.index()]
                .running
                .iter()
                .copied()
                .max_by_key(|&id| (self.state.attempts[id].peak_mem, id));
            if let Some(v) = victim {
                let pressure_pct = {
                    let n = &self.state.nodes[node_id.index()];
                    (n.mem_in_use.as_f64() / n.executor_mem.as_f64().max(1.0) * 100.0) as u32
                };
                self.oom_failures += 1;
                self.publish(EngineEvent::OomTaskKill {
                    task: self.state.attempts[v].task,
                    node: node_id,
                    pressure_pct,
                });
                self.fail_attempt(v, AttemptOutcome::OomFailure);
            }
        }
        self.source.schedule(
            self.now + SimDuration::from_secs(1),
            Event::FlakyCheck {
                node: node_id,
                epoch,
            },
        );
    }

    pub(crate) fn oom_check(&mut self, node_id: NodeId, epoch: u64) {
        let cfg = &self.input.config.mem;
        {
            let node = &mut self.state.nodes[node_id.index()];
            if node.oom_epoch != epoch {
                return; // stale (executor restarted meanwhile)
            }
            node.oom_scheduled = false;
            if node.mem_in_use <= node.executor_mem {
                return; // pressure resolved itself
            }
        }
        let (mem_in_use, executor_mem) = {
            let n = &self.state.nodes[node_id.index()];
            (n.mem_in_use, n.executor_mem)
        };
        let ratio = mem_in_use.as_f64() / executor_mem.as_f64().max(1.0);
        if ratio >= cfg.executor_kill_ratio {
            // the OS kills the whole JVM (paper §III-C3's catastrophic case)
            self.executor_lost(node_id);
            return;
        }
        let p = (cfg.oom_prob_slope * (ratio - 1.0)).clamp(0.05, 0.95);
        if self.rng_fail.gen_range(0.0..1.0) < p {
            // task-level OOM: the hungriest attempt dies; ties go to the
            // newest attempt (the allocation that tipped the heap over),
            // which is also what lets long-running attempts make progress
            let victim = self.state.nodes[node_id.index()]
                .running
                .iter()
                .copied()
                .max_by_key(|&id| (self.state.attempts[id].peak_mem, id));
            if let Some(v) = victim {
                self.oom_failures += 1;
                self.publish(EngineEvent::OomTaskKill {
                    task: self.state.attempts[v].task,
                    node: node_id,
                    pressure_pct: (ratio * 100.0) as u32,
                });
                self.fail_attempt(v, AttemptOutcome::OomFailure);
            }
        }
        // still overcommitted? keep checking
        self.schedule_oom_check_if_needed(node_id);
    }

    pub(crate) fn schedule_oom_check_if_needed(&mut self, node_id: NodeId) {
        let cfg = &self.input.config.mem;
        let (over, scheduled, epoch) = {
            let n = &self.state.nodes[node_id.index()];
            (n.mem_in_use > n.executor_mem, n.oom_scheduled, n.oom_epoch)
        };
        if over && !scheduled {
            let lo = cfg.oom_check_min.as_secs_f64();
            let hi = cfg.oom_check_max.as_secs_f64();
            let delay = SimDuration::from_secs_f64(self.rng_fail.gen_range(lo..hi));
            self.state.nodes[node_id.index()].oom_scheduled = true;
            self.source.schedule(
                self.now + delay,
                Event::OomCheck {
                    node: node_id,
                    epoch,
                },
            );
        }
    }
}
