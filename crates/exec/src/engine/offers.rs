//! The offer protocol: view construction and the offer round.
//!
//! The engine keeps its node views and pending list in a persistent
//! [`OfferState`], marked dirty by the lifecycle, recovery, caching and
//! elastic handlers. Each round it re-derives what was touched, hands
//! the scheduler the resulting [`OfferInput`], and applies the returned
//! commands. The round summary is published as
//! [`EngineEvent::OfferRound`] (when a trace sink is attached), and the
//! bus's audit sinks re-check the command batch against the very input
//! the scheduler saw.

use rupam_cluster::monitor::NodeMetrics;
use rupam_cluster::NodeId;
use rupam_dag::TaskRef;
use rupam_faults::NodeHealth;
use rupam_simcore::time::SimDuration;
use rupam_simcore::units::ByteSize;

use crate::costmodel::PhaseResource;
use crate::offer_state::{OfferHost, OfferState, ShufflePrefs};
use crate::scheduler::{NodeView, OfferInput, PendingTaskView, RunningTaskView};

use rupam_simcore::source::EventSource;

use super::driver::{Engine, Event};
use super::events::EngineEvent;
use super::state::TaskState;

impl<'a, 's, S: EventSource<Event>> OfferHost for Engine<'a, 's, S> {
    fn node_view(&self, node: NodeId) -> NodeView {
        let rt = &self.state.nodes[node.index()];
        let m = self.node_metrics(node.index());
        let (dead, suspect) = match &self.detector {
            Some(d) => (d.is_dead(node), d.health(node) == NodeHealth::Suspect),
            None => (false, false),
        };
        let running = (rt.running.iter())
            .map(|&aid| {
                let a = &self.state.attempts[aid];
                RunningTaskView {
                    task: a.task,
                    speculative: a.speculative,
                    elapsed: self.now.since(a.launched_at),
                    peak_mem: a.peak_mem,
                    on_gpu: a.used_gpu,
                }
            })
            .collect();
        let (tier, preempt_risk) = match &self.elastic {
            Some(el) if rt.provisioned => (el.ctl.tier_of(node), el.ctl.risk_of(node)),
            Some(el) => (el.ctl.tier_of(node), 0.0),
            None => (rupam_cluster::NodeTier::OnDemand, 0.0),
        };
        let draining = rt.drain_deadline.is_some();
        NodeView {
            node,
            executor_mem: rt.executor_mem,
            mem_in_use: rt.mem_in_use,
            free_mem: rt.executor_mem.saturating_sub(rt.mem_in_use),
            running,
            cpu_util: m.cpu_util,
            net_util: m.net_util,
            disk_util: m.disk_util,
            gpus_idle: m.gpus_idle,
            blocked: rt.blocked_until > self.now || dead || !rt.provisioned || draining,
            heartbeat_age: self.heartbeat_age(node),
            dead,
            suspect,
            tier,
            draining,
            preempt_risk,
        }
    }

    fn heartbeat_age(&self, node: NodeId) -> SimDuration {
        self.detector
            .as_ref()
            .map_or(SimDuration::ZERO, |d| d.age(node, self.now))
    }

    fn pending_view(&self, task: TaskRef, prefs: &mut ShufflePrefs) -> Option<PendingTaskView> {
        let stage = &self.state.stages[task.stage.index()];
        match stage.tasks[task.index] {
            TaskState::Pending { attempt_no } if stage.released => {
                Some(self.task_view(task, attempt_no, prefs))
            }
            _ => None,
        }
    }
}

impl<'a, 's, S: EventSource<Event>> Engine<'a, 's, S> {
    /// Node-level utilisation snapshot from current phase occupancy.
    pub(crate) fn node_metrics(&self, node_idx: usize) -> NodeMetrics {
        let node = &self.state.nodes[node_idx];
        let spec = self.input.cluster.node(NodeId(node_idx));
        let mut n_cpu = 0u32;
        let mut n_gpu = 0u32;
        let mut net_bps = 0.0f64;
        let mut disk_bps = 0.0f64;
        for &aid in &node.running {
            let a = &self.state.attempts[aid];
            match a.current_phase().map(|p| p.resource) {
                Some(PhaseResource::Cpu) => n_cpu += 1,
                Some(PhaseResource::Gpu) => n_gpu += 1,
                Some(PhaseResource::Net) => net_bps += a.rate,
                Some(PhaseResource::DiskRead) | Some(PhaseResource::DiskWrite) => {
                    disk_bps += a.rate
                }
                _ => {}
            }
        }
        NodeMetrics {
            cpu_util: (n_cpu as f64 / spec.cores as f64).min(1.0),
            mem_used: node.mem_in_use,
            free_mem: node.executor_mem.saturating_sub(node.mem_in_use),
            net_util: (net_bps / spec.net_bw).min(1.0),
            disk_util: (disk_bps / spec.disk.read_bw.max(spec.disk.write_bw)).min(1.0),
            net_bytes_per_sec: net_bps,
            disk_bytes_per_sec: disk_bps,
            gpus_idle: spec.gpus.saturating_sub(n_gpu.min(spec.gpus)),
        }
    }

    /// Run `f` on the offer state with the engine as its view builder.
    pub(crate) fn with_offers<R>(&mut self, f: impl FnOnce(&mut OfferState, &Self) -> R) -> R {
        let mut offers = std::mem::take(&mut self.offers);
        let out = f(&mut offers, self);
        self.offers = offers;
        out
    }

    pub(crate) fn offer_round(&mut self) {
        let views = self.with_offers(|offers, host| offers.round(host));
        let mut prefs = ShufflePrefs::default();
        let speculatable = (self.state.spec_set.iter())
            .filter(|t| {
                matches!(
                    self.state.stages[t.stage.index()].tasks[t.index],
                    TaskState::Running { .. }
                )
            })
            .map(|t| self.task_view(*t, 0, &mut prefs))
            .collect();
        let offer = OfferInput {
            now: self.now,
            cluster: self.input.cluster,
            app: self.input.app,
            nodes: views.nodes,
            pending: views.pending,
            speculatable,
            job_arrivals: self.state.jobs.iter().map(|j| j.arrival).collect(),
            job_tenants: self.state.jobs.iter().map(|j| j.tenant).collect(),
            changed: views.changed,
            pending_fresh: views.pending_fresh,
        };
        let commands = self.sched.offer_round(&offer);
        self.round += 1;
        if self.bus.traced() {
            let running = offer.nodes.iter().map(|n| n.running.len()).sum();
            let blocked = offer.nodes.iter().filter(|n| n.blocked).count();
            self.publish(EngineEvent::OfferRound {
                pending: offer.pending.len(),
                running,
                blocked,
                commands: commands.len(),
            });
        }
        if self.bus.audited() {
            let findings = self.sched.audit_round(&offer);
            let fresh = self
                .bus
                .offer_audit(self.round, &offer, &commands, &findings);
            for v in fresh {
                self.publish(EngineEvent::AuditViolation {
                    check: v.check,
                    detail: v.detail,
                });
            }
        }
        self.offers.settle(offer.nodes, offer.pending, &commands);
        for cmd in commands {
            self.apply_command(cmd);
        }
    }

    /// The view of `task` as attempt `attempt_no`.
    fn task_view(
        &self,
        task: TaskRef,
        attempt_no: u32,
        prefs: &mut ShufflePrefs,
    ) -> PendingTaskView {
        let stage = self.input.app.stage(task.stage);
        let template = &stage.tasks[task.index];
        let (process_nodes, node_local) = self.preferred_nodes(task.stage, template, prefs);
        PendingTaskView {
            task,
            job: self.state.stage_jobs[task.stage.index()],
            template_key: stage.template_key,
            stage_kind: stage.kind,
            attempt_no,
            peak_mem_hint: self
                .state
                .observed_peak
                .get(&(task.stage, task.index))
                .copied()
                .unwrap_or(ByteSize::ZERO),
            gpu_capable: template.demand.is_gpu_capable(),
            process_nodes,
            node_local,
        }
    }
}
