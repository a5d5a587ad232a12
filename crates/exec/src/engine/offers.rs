//! The offer protocol: snapshot construction and the offer round.
//!
//! Each round the engine freezes a read-only [`OfferInput`] snapshot of
//! [`super::state::ClusterState`], hands it to the scheduler, and
//! applies the returned commands. The round summary is published as
//! [`EngineEvent::OfferRound`] (when a trace sink is attached), and the
//! bus's audit sinks re-check the command batch against the very
//! snapshot the scheduler saw.

use rupam_cluster::monitor::NodeMetrics;
use rupam_cluster::{ClusterSpec, NodeId};
use rupam_dag::app::StageId;
use rupam_dag::TaskRef;
use rupam_faults::{FailureDetector, NodeHealth};
use rupam_simcore::time::{SimDuration, SimTime};
use rupam_simcore::units::ByteSize;

use crate::costmodel::PhaseResource;
use crate::scheduler::{NodeView, OfferInput, PendingTaskView, RunningTaskView};

use rupam_simcore::source::EventSource;

use super::driver::{Engine, Event};
use super::events::EngineEvent;
use super::state::{ClusterState, TaskState};

/// Below this many nodes a parallel snapshot costs more in thread
/// spawn/join than it saves (an offer round on hydra64 is single-digit
/// microseconds).
const PARALLEL_SNAPSHOT_MIN_NODES: usize = 512;

/// The read-only inputs a node-view snapshot needs, split from the
/// engine so view construction can fan out across scoped threads on big
/// clusters (everything here is a shared borrow).
pub(crate) struct SnapshotCtx<'e> {
    state: &'e ClusterState,
    cluster: &'e ClusterSpec,
    detector: Option<&'e FailureDetector>,
    elastic: Option<&'e super::elastic::ElasticRt>,
    now: SimTime,
}

impl SnapshotCtx<'_> {
    /// Node-level utilisation snapshot from current phase occupancy.
    pub(crate) fn node_metrics(&self, node_idx: usize) -> NodeMetrics {
        let node = &self.state.nodes[node_idx];
        let spec = self.cluster.node(NodeId(node_idx));
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

    fn node_view(&self, idx: usize) -> NodeView {
        let node = &self.state.nodes[idx];
        let m = self.node_metrics(idx);
        let (heartbeat_age, dead, suspect) = match self.detector {
            Some(d) => {
                let id = NodeId(idx);
                (
                    d.age(id, self.now),
                    d.is_dead(id),
                    d.health(id) == NodeHealth::Suspect,
                )
            }
            None => (SimDuration::ZERO, false, false),
        };
        let running = node
            .running
            .iter()
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
        let (tier, preempt_risk) = match self.elastic {
            Some(el) => (
                el.ctl.tier_of(NodeId(idx)),
                if node.provisioned {
                    el.ctl.risk_of(NodeId(idx))
                } else {
                    0.0
                },
            ),
            None => (rupam_cluster::NodeTier::OnDemand, 0.0),
        };
        let draining = node.drain_deadline.is_some();
        NodeView {
            node: NodeId(idx),
            executor_mem: node.executor_mem,
            mem_in_use: node.mem_in_use,
            free_mem: node.executor_mem.saturating_sub(node.mem_in_use),
            running,
            cpu_util: m.cpu_util,
            net_util: m.net_util,
            disk_util: m.disk_util,
            gpus_idle: m.gpus_idle,
            blocked: node.blocked_until > self.now || dead || !node.provisioned || draining,
            heartbeat_age,
            dead,
            suspect,
            tier,
            draining,
            preempt_risk,
        }
    }
}

impl<'a, 's, S: EventSource<Event>> Engine<'a, 's, S> {
    pub(crate) fn snapshot_ctx(&self) -> SnapshotCtx<'_> {
        SnapshotCtx {
            state: &self.state,
            cluster: self.input.cluster,
            detector: self.detector.as_ref(),
            elastic: self.elastic.as_ref(),
            now: self.now,
        }
    }

    pub(crate) fn offer_round(&mut self) {
        let offer = self.build_offer_input();
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
        self.pending_shadow.settle(offer.pending, &commands);
        for cmd in commands {
            self.apply_command(cmd);
        }
    }

    /// Build all node views, fanning out across scoped threads once the
    /// cluster is big enough for the spawn cost to amortise. Chunk
    /// boundaries never affect the result (views are pure per-node
    /// functions of frozen state, concatenated in node order).
    fn build_node_views(&self) -> Vec<NodeView> {
        let n = self.state.nodes.len();
        let ctx = self.snapshot_ctx();
        let threads = match self.input.config.engine.shard_count {
            0 => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .min(8),
            k => k,
        }
        .min(n)
        .max(1);
        if n < PARALLEL_SNAPSHOT_MIN_NODES || threads == 1 {
            return (0..n).map(|i| ctx.node_view(i)).collect();
        }
        let chunk = n.div_ceil(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .step_by(chunk)
                .map(|start| {
                    let end = (start + chunk).min(n);
                    let ctx = &ctx;
                    scope.spawn(move || (start..end).map(|i| ctx.node_view(i)).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("snapshot worker panicked"))
                .collect()
        })
    }

    /// Diff this round's views against the previous round's shadow —
    /// the shared [`crate::scheduler::NodeShadowTable`] rule, also used
    /// by the live serve driver.
    fn diff_offer_shadow(&mut self, views: &[NodeView]) -> Option<Vec<NodeId>> {
        self.offer_shadow.diff(views)
    }

    pub(crate) fn build_pending_view(&self, task: TaskRef, attempt_no: u32) -> PendingTaskView {
        let stage = self.input.app.stage(task.stage);
        let template = &stage.tasks[task.index];
        let (process_nodes, node_local) = self.preferred_nodes(task.stage, template);
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

    pub(crate) fn build_offer_input(&mut self) -> OfferInput<'a> {
        let nodes = self.build_node_views();
        let changed = self.diff_offer_shadow(&nodes);
        let mut pending = Vec::new();
        for (sidx, stage_rt) in self.state.stages.iter().enumerate() {
            if !stage_rt.released {
                continue;
            }
            for (tidx, state) in stage_rt.tasks.iter().enumerate() {
                if let TaskState::Pending { attempt_no } = state {
                    pending.push(self.build_pending_view(
                        TaskRef {
                            stage: StageId(sidx),
                            index: tidx,
                        },
                        *attempt_no,
                    ));
                }
            }
        }
        let speculatable = self
            .state
            .spec_set
            .iter()
            .filter(|t| {
                matches!(
                    self.state.stages[t.stage.index()].tasks[t.index],
                    TaskState::Running { .. }
                )
            })
            .map(|t| self.build_pending_view(*t, 0))
            .collect();
        OfferInput {
            now: self.now,
            cluster: self.input.cluster,
            app: self.input.app,
            nodes,
            speculatable,
            job_arrivals: self.state.jobs.iter().map(|j| j.arrival).collect(),
            job_tenants: self.state.jobs.iter().map(|j| j.tenant).collect(),
            changed,
            pending_fresh: self.pending_shadow.fresh(&pending),
            pending,
        }
    }
}
