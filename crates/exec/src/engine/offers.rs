//! The offer protocol: the engine as a control host, and the offer round.
//!
//! The engine's [`ControlPlane`] keeps the node views and pending list in
//! its persistent offer state, marked dirty by the control plane's own
//! transitions (the fleet rules included) and by the engine's lifecycle
//! and caching handlers. The engine lends it the execution side of each
//! node view (utilisation from phase occupancy, the restart and
//! provisioning gates), executor-cache placements and the fleet rules'
//! hooks ([`ControlHost`]): stopping a lost node's attempts, wiping its
//! executor, `crashed` as down, the provisioning-latency gate, and
//! [`Event::PreemptFire`] as the drain timer. Each round the control plane re-derives
//! what was touched into an [`OfferInput`](crate::scheduler::OfferInput),
//! the engine adds the speculatable tasks, hands it to the scheduler and
//! applies the returned commands. The round summary is published as
//! [`EngineEvent::OfferRound`] (when a trace sink is attached), and the
//! bus's audit sinks re-check the command batch against the very input
//! the scheduler saw.

use rupam_cluster::monitor::NodeMetrics;
use rupam_cluster::NodeId;
use rupam_dag::app::StageId;
use rupam_dag::task::CacheKey;
use rupam_metrics::record::AttemptOutcome;
use rupam_simcore::time::{SimDuration, SimTime};

use crate::control::{AttemptId, ControlHost, ControlPlane, Io, TaskState};
use crate::costmodel::PhaseResource;
use crate::offer_state::ShufflePrefs;
use crate::scheduler::NodeView;

use rupam_simcore::source::EventSource;

use super::driver::{Engine, Event};
use super::events::{EngineEvent, EventCtx};

impl<'a, 's, S: EventSource<Event>> ControlHost<'a> for Engine<'a, 's, S> {
    fn control(&self) -> &ControlPlane<'a> {
        &self.ctl
    }

    fn control_mut(&mut self) -> &mut ControlPlane<'a> {
        &mut self.ctl
    }

    fn io(&mut self) -> (&mut ControlPlane<'a>, Io<'_>) {
        let ctx = EventCtx {
            at: self.now,
            round: self.round,
        };
        let (sched, sink) = (&mut *self.sched, &mut self.bus);
        (&mut self.ctl, Io { ctx, sched, sink })
    }

    fn now(&self) -> SimTime {
        self.now
    }

    /// Utilisation and idle GPUs from phase occupancy; blocked while the
    /// executor restarts or a provisioned node waits out its
    /// provisioning latency.
    fn host_view(&self, view: &mut NodeView) {
        let i = view.node.index();
        let m = self.node_metrics(i);
        view.cpu_util = m.cpu_util;
        view.net_util = m.net_util;
        view.disk_util = m.disk_util;
        view.gpus_idle = m.gpus_idle;
        view.blocked = self.state.nodes[i].blocked_until > self.now;
    }

    fn process_nodes(&self, stage: StageId, key: &CacheKey) -> Vec<NodeId> {
        let scoped = self.scoped_cache_key(stage, &key.rdd, key.partition);
        (0..self.state.nodes.len())
            .map(NodeId)
            .filter(|n| self.state.nodes[n.index()].cache.contains(&scoped))
            .collect()
    }

    fn stop_attempt(&mut self, id: AttemptId, outcome: AttemptOutcome) {
        self.fail_attempt(id, outcome);
    }

    /// The executor's cache and pending OOM checks go, and a scripted
    /// slowdown ends. Cached partitions need no lineage action: every
    /// cached read carries an HDFS fallback.
    fn wipe(&mut self, node: NodeId) {
        let rt = &mut self.state.nodes[node.index()];
        let wiped = rt.cache.clear();
        rt.oom_epoch += 1;
        rt.oom_scheduled = false;
        rt.slow_factor = 1.0;
        self.cache_changed(&wiped);
    }

    /// Physically crashed.
    fn down(&self, node: NodeId) -> bool {
        self.state.nodes[node.index()].crashed
    }

    /// Provisioning latency: the node joins the fleet now (and starts
    /// billing) but accepts work only later.
    fn joined(&mut self, node: NodeId) {
        let latency = SimDuration::from_secs_f64(self.input.config.elastic.provision_secs);
        let rt = &mut self.state.nodes[node.index()];
        rt.blocked_until = rt.blocked_until.max(self.now + latency);
    }

    fn drain_armed(&mut self, node: NodeId, deadline: SimTime) {
        self.source.schedule(deadline, Event::PreemptFire { node });
    }

    fn wake(&mut self) {
        self.need_offers = true;
    }
}

impl<'a, 's, S: EventSource<Event>> Engine<'a, 's, S> {
    /// Node-level utilisation snapshot from current phase occupancy.
    pub(crate) fn node_metrics(&self, node_idx: usize) -> NodeMetrics {
        let node = NodeId(node_idx);
        let spec = self.input.cluster.node(node);
        let mut n_cpu = 0u32;
        let mut n_gpu = 0u32;
        let mut net_bps = 0.0f64;
        let mut disk_bps = 0.0f64;
        for &aid in self.ctl.running(node) {
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
        let (mem_used, heap) = (self.ctl.mem_in_use(node), self.ctl.executor_mem(node));
        NodeMetrics {
            cpu_util: (n_cpu as f64 / spec.cores as f64).min(1.0),
            mem_used,
            free_mem: heap.saturating_sub(mem_used),
            net_util: (net_bps / spec.net_bw).min(1.0),
            disk_util: (disk_bps / spec.disk.read_bw.max(spec.disk.write_bw)).min(1.0),
            net_bytes_per_sec: net_bps,
            disk_bytes_per_sec: disk_bps,
            gpus_idle: spec.gpus.saturating_sub(n_gpu.min(spec.gpus)),
        }
    }

    pub(crate) fn offer_round(&mut self) {
        let now = self.now;
        let mut offer = ControlPlane::offer_input(self, now);
        let mut prefs = ShufflePrefs::default();
        offer.speculatable = (self.state.spec_set.iter())
            .filter(|t| matches!(self.ctl.task(**t), TaskState::Running { .. }))
            .map(|t| self.ctl.task_view(self, *t, 0, &mut prefs))
            .collect();
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
        self.ctl.settle(offer, &commands);
        for cmd in commands {
            self.apply_command(cmd);
        }
    }
}
