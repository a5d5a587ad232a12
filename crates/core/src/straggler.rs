//! Straggler handling and task relocation (§III-C3).
//!
//! Three mechanisms beyond stock Spark's speculation:
//!
//! * **Memory stragglers** — when RM sees a node with critically low free
//!   memory, TM kills the most memory-hungry task on it and requeues it,
//!   pre-empting the catastrophic JVM-level OOM that takes the whole
//!   Spark worker down.
//! * **GPU/CPU racing** — a GPU-classified task is not held hostage by
//!   busy GPUs: after a grace period it also runs on a powerful idle CPU
//!   node; "whichever version finishes first will continue, while the
//!   unfinished version is aborted".
//! * **Resource stragglers** — `checkSpeculatableTasks()` extended with
//!   resource usage: a task far past the stage median *on a contended
//!   node* becomes speculatable even before Spark's 75 % quantile.

use rupam_simcore::time::SimTime;

use rupam_cluster::resources::ResourceKind;
use rupam_cluster::NodeId;
use rupam_dag::TaskRef;
use rupam_exec::scheduler::{Command, KillReason, NodeView, OfferInput};
use rupam_metrics::trace::LaunchReason;

use crate::config::RupamConfig;
use crate::tm::TaskManager;

/// Per-node cooldown state for memory-straggler kills.
#[derive(Debug, Default)]
pub struct StragglerState {
    last_kill: Vec<Option<SimTime>>,
    /// GPU-capable tasks already raced (one extra copy each).
    raced: std::collections::HashSet<TaskRef>,
}

impl StragglerState {
    /// State for an `n`-node cluster.
    pub fn new(n: usize) -> Self {
        StragglerState {
            last_kill: vec![None; n],
            raced: Default::default(),
        }
    }
}

/// The node views a straggler rule needs to inspect this round, in
/// ascending node order. Every straggler mechanism acts only on nodes
/// with running attempts, and [`OfferInput::changed`] guarantees a
/// `Some` delta covers every such node — so scanning the delta visits
/// the same candidates as scanning the whole cluster, at `O(changed)`.
fn candidate_views<'a>(input: &'a OfferInput<'a>) -> impl Iterator<Item = &'a NodeView> + 'a {
    let (delta, all) = match input.changed.as_deref() {
        Some(d) => (Some(d), None),
        None => (None, Some(&input.nodes[..])),
    };
    delta
        .into_iter()
        .flatten()
        .map(|id| &input.nodes[id.index()])
        .chain(all.into_iter().flatten())
}

/// Memory-straggler detection: for every node whose free memory fell
/// below the watermark, kill-and-requeue the hungriest running task
/// (respecting a per-node cooldown).
pub fn memory_straggler_commands(
    cfg: &RupamConfig,
    state: &mut StragglerState,
    input: &OfferInput<'_>,
) -> Vec<Command> {
    let mut cmds = Vec::new();
    for view in candidate_views(input) {
        let watermark = view.executor_mem.scale(cfg.mem_straggler_watermark);
        if view.free_mem > watermark || view.running.is_empty() {
            continue;
        }
        let idx = view.node.index();
        if let Some(last) = state.last_kill[idx] {
            if input.now.since(last) < cfg.mem_straggler_cooldown {
                continue;
            }
        }
        // the hungriest non-speculative task; ties to the newest arrival
        if let Some(victim) = view
            .running
            .iter()
            .filter(|r| !r.speculative)
            .min_by_key(|r| (std::cmp::Reverse(r.peak_mem), r.elapsed))
        {
            // pointless to relocate the only task on the node
            if view.running.len() > 1 {
                state.last_kill[idx] = Some(input.now);
                cmds.push(Command::KillAndRequeue {
                    task: victim.task,
                    node: view.node,
                    reason: KillReason::MemoryStraggler,
                });
            }
        }
    }
    cmds
}

/// GPU/CPU racing: for each running GPU-capable attempt that has been
/// executing on the "wrong" side for longer than the grace period, launch
/// one racing copy on the best node of the other side.
pub fn gpu_race_commands(
    cfg: &RupamConfig,
    state: &mut StragglerState,
    input: &OfferInput<'_>,
) -> Vec<Command> {
    let mut cmds = Vec::new();
    for view in candidate_views(input) {
        for r in &view.running {
            if r.speculative || state.raced.contains(&r.task) {
                continue;
            }
            if r.elapsed < cfg.gpu_race_after {
                continue;
            }
            let stage = input.app.stage(r.task.stage);
            let gpu_capable = stage.tasks[r.task.index].demand.is_gpu_capable();
            if !gpu_capable {
                continue;
            }
            if r.on_gpu {
                continue; // GPU side is already the fast path
            }
            // running on CPU: race it on an idle GPU if one exists
            if let Some(gpu_node) = best_idle_gpu(input, view.node) {
                state.raced.insert(r.task);
                cmds.push(Command::Launch {
                    task: r.task,
                    node: gpu_node,
                    use_gpu: true,
                    speculative: true,
                    reason: LaunchReason::GpuRace,
                });
            }
        }
    }
    cmds
}

fn best_idle_gpu(input: &OfferInput<'_>, not_on: NodeId) -> Option<NodeId> {
    input
        .nodes
        .iter()
        .filter(|v| !v.blocked && v.node != not_on && v.gpus_idle > 0)
        .max_by_key(|v| {
            (
                (input.cluster.node(v.node).capability(ResourceKind::Gpu) * 1e3) as u64,
                std::cmp::Reverse(v.node),
            )
        })
        .map(|v| v.node)
}

/// Resource stragglers: running attempts far beyond their stage's median
/// on a node whose matching resource is saturated become speculatable
/// regardless of the global quantile. Returns `(task, bad_node)` pairs —
/// the caller places copies elsewhere.
pub fn resource_straggler_candidates(
    cfg: &RupamConfig,
    input: &OfferInput<'_>,
    tm: &TaskManager,
) -> Vec<(TaskRef, NodeId)> {
    let mut out = Vec::new();
    for view in candidate_views(input) {
        // a node the failure detector marked Suspect counts as contended:
        // its heartbeats are stale, so anything running there is a
        // relocation candidate before the node is declared dead outright
        let contended =
            view.cpu_util > 0.9 || view.net_util > 0.9 || view.disk_util > 0.9 || view.suspect;
        if !contended {
            continue;
        }
        for r in &view.running {
            if r.speculative {
                continue;
            }
            let template = input.app.stage(r.task.stage).template_key;
            if let Some(median) = tm.median_duration_secs(r.task.stage, template) {
                if r.elapsed.as_secs_f64() > 1.5 * median.max(1.0) * cfg.res_factor {
                    out.push((r.task, view.node));
                }
            }
        }
    }
    out
}

/// Pick the placement node for a speculative copy of a task whose known
/// bottleneck is `kind`: the best-capability, least-utilised node of that
/// kind that is not the straggling node. `ranking` is `kind`'s node
/// ranking of the round's snapshot, best first (blocked nodes are never
/// ranked), e.g. [`crate::rm::NodeQueueCache::nodes`].
pub fn relocation_target(
    ranking: impl IntoIterator<Item = NodeId>,
    avoid: NodeId,
) -> Option<NodeId> {
    ranking.into_iter().find(|&n| n != avoid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupam_cluster::ClusterSpec;
    use rupam_dag::app::{Application, StageId, StageKind};
    use rupam_dag::task::{InputSource, TaskDemand, TaskTemplate};
    use rupam_exec::scheduler::RunningTaskView;
    use rupam_simcore::time::SimDuration;
    use rupam_simcore::units::ByteSize;

    fn app_with_gpu_stage() -> Application {
        let mut b = rupam_dag::AppBuilder::new("g");
        let j = b.begin_job();
        b.add_stage(
            j,
            "r",
            "g/r",
            StageKind::Result,
            vec![],
            (0..4)
                .map(|i| TaskTemplate {
                    index: i,
                    input: InputSource::Generated,
                    demand: TaskDemand {
                        compute: 10.0,
                        gpu_kernels: 8.0,
                        ..TaskDemand::default()
                    },
                })
                .collect(),
        );
        b.build()
    }

    fn base_views(cluster: &ClusterSpec) -> Vec<NodeView> {
        cluster
            .iter()
            .map(|(id, spec)| NodeView {
                node: id,
                executor_mem: spec.mem.saturating_sub(ByteSize::gib(2)),
                mem_in_use: ByteSize::ZERO,
                free_mem: spec.mem.saturating_sub(ByteSize::gib(2)),
                running: vec![],
                cpu_util: 0.0,
                net_util: 0.0,
                disk_util: 0.0,
                gpus_idle: spec.gpus,
                blocked: false,
                heartbeat_age: SimDuration::ZERO,
                dead: false,
                suspect: false,
                tier: rupam_cluster::NodeTier::OnDemand,
                draining: false,
                preempt_risk: 0.0,
            })
            .collect()
    }

    fn running(task_index: usize, elapsed_s: u64, peak_gib: u64, on_gpu: bool) -> RunningTaskView {
        RunningTaskView {
            task: TaskRef {
                stage: StageId(0),
                index: task_index,
            },
            speculative: false,
            elapsed: SimDuration::from_secs(elapsed_s),
            peak_mem: ByteSize::gib(peak_gib),
            on_gpu,
        }
    }

    #[test]
    fn memory_straggler_kills_hungriest() {
        let cluster = ClusterSpec::hydra();
        let app = app_with_gpu_stage();
        let cfg = RupamConfig::default();
        let mut st = StragglerState::new(cluster.len());
        let mut views = base_views(&cluster);
        // node 0 nearly out of memory with two tasks
        views[0].free_mem = ByteSize::mib(100);
        views[0].running = vec![running(0, 10, 2, false), running(1, 5, 8, false)];
        let input = OfferInput {
            now: SimTime::from_secs_f64(100.0),
            cluster: &cluster,
            app: &app,
            nodes: views,
            pending: vec![],
            speculatable: vec![],
            job_arrivals: vec![SimTime::ZERO],
            job_tenants: vec![rupam_dag::TenantId(0)],
            changed: None,
            pending_fresh: vec![],
        };
        let cmds = memory_straggler_commands(&cfg, &mut st, &input);
        assert_eq!(
            cmds,
            vec![Command::KillAndRequeue {
                task: TaskRef {
                    stage: StageId(0),
                    index: 1
                },
                node: NodeId(0),
                reason: KillReason::MemoryStraggler,
            }],
            "the 8 GiB task must die, not the 2 GiB one"
        );
        // cooldown: immediate second check is silent
        let input2 = OfferInput {
            now: SimTime::from_secs_f64(101.0),
            cluster: &cluster,
            app: &app,
            nodes: base_views(&cluster),
            pending: vec![],
            speculatable: vec![],
            job_arrivals: vec![SimTime::ZERO],
            job_tenants: vec![rupam_dag::TenantId(0)],
            changed: None,
            pending_fresh: vec![],
        };
        assert!(memory_straggler_commands(&cfg, &mut st, &input2).is_empty());
    }

    #[test]
    fn lone_task_never_relocated() {
        let cluster = ClusterSpec::hydra();
        let app = app_with_gpu_stage();
        let cfg = RupamConfig::default();
        let mut st = StragglerState::new(cluster.len());
        let mut views = base_views(&cluster);
        views[0].free_mem = ByteSize::mib(10);
        views[0].running = vec![running(0, 10, 12, false)];
        let input = OfferInput {
            now: SimTime::from_secs_f64(50.0),
            cluster: &cluster,
            app: &app,
            nodes: views,
            pending: vec![],
            speculatable: vec![],
            job_arrivals: vec![SimTime::ZERO],
            job_tenants: vec![rupam_dag::TenantId(0)],
            changed: None,
            pending_fresh: vec![],
        };
        assert!(memory_straggler_commands(&cfg, &mut st, &input).is_empty());
    }

    #[test]
    fn gpu_race_launches_copy_on_gpu_node() {
        let cluster = ClusterSpec::hydra();
        let app = app_with_gpu_stage();
        let cfg = RupamConfig::default();
        let mut st = StragglerState::new(cluster.len());
        let mut views = base_views(&cluster);
        // a GPU-capable task grinding on a thor CPU for 30 s
        views[0].running = vec![running(0, 30, 1, false)];
        let input = OfferInput {
            now: SimTime::from_secs_f64(30.0),
            cluster: &cluster,
            app: &app,
            nodes: views,
            pending: vec![],
            speculatable: vec![],
            job_arrivals: vec![SimTime::ZERO],
            job_tenants: vec![rupam_dag::TenantId(0)],
            changed: None,
            pending_fresh: vec![],
        };
        let cmds = gpu_race_commands(&cfg, &mut st, &input);
        assert_eq!(cmds.len(), 1);
        match &cmds[0] {
            Command::Launch {
                node,
                use_gpu,
                speculative,
                ..
            } => {
                assert_eq!(cluster.node(*node).class, "stack");
                assert!(*use_gpu && *speculative);
            }
            _ => panic!(),
        }
        // raced once only
        assert!(gpu_race_commands(&cfg, &mut st, &input).is_empty());
    }

    #[test]
    fn no_race_before_grace_period() {
        let cluster = ClusterSpec::hydra();
        let app = app_with_gpu_stage();
        let cfg = RupamConfig::default();
        let mut st = StragglerState::new(cluster.len());
        let mut views = base_views(&cluster);
        views[0].running = vec![running(0, 1, 1, false)];
        let input = OfferInput {
            now: SimTime::from_secs_f64(1.0),
            cluster: &cluster,
            app: &app,
            nodes: views,
            pending: vec![],
            speculatable: vec![],
            job_arrivals: vec![SimTime::ZERO],
            job_tenants: vec![rupam_dag::TenantId(0)],
            changed: None,
            pending_fresh: vec![],
        };
        assert!(gpu_race_commands(&cfg, &mut st, &input).is_empty());
    }

    #[test]
    fn resource_stragglers_need_contention_and_history() {
        let cluster = ClusterSpec::hydra();
        let app = app_with_gpu_stage();
        let cfg = RupamConfig::default();
        let mut tm = TaskManager::new(cfg.clone());
        // teach the TM a median duration of 2 s for the stage template
        {
            use rupam_metrics::breakdown::TaskBreakdown;
            use rupam_metrics::record::{AttemptOutcome, TaskRecord};
            use rupam_simcore::units::ByteSize as BS;
            tm.record_finish(&TaskRecord {
                task: TaskRef {
                    stage: StageId(0),
                    index: 9,
                },
                job: rupam_dag::app::JobId(0),
                template_key: "g/r".into(),
                attempt: 0,
                node: NodeId(0),
                speculative: false,
                locality: rupam_dag::Locality::Any,
                launched_at: SimTime::ZERO,
                finished_at: SimTime::from_secs_f64(2.0),
                outcome: AttemptOutcome::Success,
                breakdown: TaskBreakdown::new(),
                peak_mem: BS::mib(64),
                used_gpu: false,
            });
        }
        let mut views = base_views(&cluster);
        // a task 100 s past a 2 s median, on an *idle* node: not flagged
        views[0].running = vec![running(0, 100, 1, false)];
        let input = OfferInput {
            now: SimTime::from_secs_f64(100.0),
            cluster: &cluster,
            app: &app,
            nodes: views.clone(),
            pending: vec![],
            speculatable: vec![],
            job_arrivals: vec![SimTime::ZERO],
            job_tenants: vec![rupam_dag::TenantId(0)],
            changed: None,
            pending_fresh: vec![],
        };
        assert!(
            resource_straggler_candidates(&cfg, &input, &tm).is_empty(),
            "no contention, no resource straggler"
        );
        // same task on a CPU-saturated node: flagged
        views[0].cpu_util = 0.99;
        let input = OfferInput {
            now: SimTime::from_secs_f64(100.0),
            cluster: &cluster,
            app: &app,
            nodes: views,
            pending: vec![],
            speculatable: vec![],
            job_arrivals: vec![SimTime::ZERO],
            job_tenants: vec![rupam_dag::TenantId(0)],
            changed: None,
            pending_fresh: vec![],
        };
        let out = resource_straggler_candidates(&cfg, &input, &tm);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, NodeId(0));
    }

    #[test]
    fn relocation_prefers_capable_idle_node() {
        let cluster = ClusterSpec::hydra();
        let queues = crate::rm::ResourceQueues::build(&cluster, &base_views(&cluster));
        let ranking = queues.nodes(ResourceKind::Cpu).iter().copied();
        let target = relocation_target(ranking, NodeId(0)).unwrap();
        assert_ne!(target, NodeId(0));
        assert_eq!(cluster.node(target).class, "thor");
    }
}
