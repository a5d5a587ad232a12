//! Fault injection, drain reclaims and the OOM machinery.
//!
//! Applies scripted chaos ([`rupam_faults::FaultScript`]) to the
//! cluster and runs the probabilistic OOM model for overcommitted
//! executors. Node loss, drain notices and their reclaim are the control
//! plane's fleet rules ([`ControlPlane::node_lost`],
//! [`ControlPlane::drain_notice`], [`ControlPlane::reclaim`]); the engine
//! times a notice with an [`Event::PreemptFire`] at its deadline. All
//! accounting flows through the bus: [`EngineEvent::FaultInjected`],
//! [`EngineEvent::OomTaskKill`].

use rand::Rng;

use rupam_cluster::NodeId;
use rupam_faults::FaultKind;
use rupam_metrics::record::AttemptOutcome;
use rupam_simcore::time::{SimDuration, SimTime};

use rupam_simcore::source::EventSource;

use super::driver::{Engine, Event};
use super::events::EngineEvent;
use super::state::AttemptId;
use crate::control::ControlPlane;

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
                ControlPlane::node_lost(self, node_id);
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
                ControlPlane::drain_notice(self, node_id, notice_secs);
            }
        }
    }

    /// A drain notice's deadline came: the control plane reclaims the
    /// node if the notice still stands. A spot node leaves the fleet; a
    /// scripted preemption of an on-demand node behaves like a
    /// crash-with-notice (a `restart` fault revives it).
    pub(crate) fn preempt_fire(&mut self, node: NodeId) {
        if ControlPlane::reclaim(self, node) && self.ctl.fleet().provisioned(node) {
            self.state.nodes[node.index()].crashed = true;
        }
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
            if let Some(v) = self.hungriest(node_id) {
                self.oom_failures += 1;
                self.publish(EngineEvent::OomTaskKill {
                    task: self.ctl.attempt(v).task,
                    node: node_id,
                    pressure_pct: self.ctl.pressure_pct(node_id),
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
        let node = &mut self.state.nodes[node_id.index()];
        if node.oom_epoch != epoch {
            return; // stale (executor restarted meanwhile)
        }
        node.oom_scheduled = false;
        let (mem_in_use, executor_mem) =
            (self.ctl.mem_in_use(node_id), self.ctl.executor_mem(node_id));
        if mem_in_use <= executor_mem {
            return; // pressure resolved itself
        }
        let ratio = mem_in_use.as_f64() / executor_mem.as_f64().max(1.0);
        if ratio >= cfg.executor_kill_ratio {
            // the OS kills the whole JVM (paper §III-C3's catastrophic case)
            self.executor_lost(node_id);
            return;
        }
        let p = (cfg.oom_prob_slope * (ratio - 1.0)).clamp(0.05, 0.95);
        if self.rng_fail.gen_range(0.0..1.0) < p {
            // task-level OOM: the hungriest attempt dies
            if let Some(v) = self.hungriest(node_id) {
                self.oom_failures += 1;
                self.publish(EngineEvent::OomTaskKill {
                    task: self.ctl.attempt(v).task,
                    node: node_id,
                    pressure_pct: (ratio * 100.0) as u32,
                });
                self.fail_attempt(v, AttemptOutcome::OomFailure);
            }
        }
        // still overcommitted? keep checking
        self.schedule_oom_check_if_needed(node_id);
    }

    /// The attempt an OOM kills on `node`: the one holding the most
    /// memory, ties going to the newest (the allocation that tipped the
    /// heap over), which is also what lets long-running attempts make
    /// progress.
    fn hungriest(&self, node: NodeId) -> Option<AttemptId> {
        (self.ctl.running(node).iter().copied())
            .max_by_key(|&id| (self.ctl.attempt(id).peak_mem, id))
    }

    pub(crate) fn schedule_oom_check_if_needed(&mut self, node_id: NodeId) {
        let cfg = &self.input.config.mem;
        let over = self.ctl.mem_in_use(node_id) > self.ctl.executor_mem(node_id);
        let n = &self.state.nodes[node_id.index()];
        let (scheduled, epoch) = (n.oom_scheduled, n.oom_epoch);
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
