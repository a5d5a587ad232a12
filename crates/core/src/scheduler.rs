//! `RupamScheduler` — the full system of Fig. 4 wired together.
//!
//! Per offer round:
//!
//! 1. newly pending tasks are submitted to the Task Manager, which
//!    places them in per-resource Task Queues (DB lookup / Algorithm 1
//!    first-contact rules);
//! 2. straggler handling runs (memory-straggler kills, GPU/CPU races,
//!    resource-straggler speculation) when enabled;
//! 3. the Dispatcher (Algorithm 2) matches Resource Queues against Task
//!    Queues round-robin and emits launches;
//! 4. engine-flagged speculatable tasks are relocated to the best node
//!    for their recorded bottleneck.

use std::collections::HashMap;

use rupam_simcore::time::{SimDuration, SimTime};
use rupam_simcore::units::ByteSize;
use rupam_simcore::Sym;

use rupam_cluster::resources::ResourceKind;
use rupam_cluster::{ClusterSpec, NodeId};
use rupam_dag::app::{Application, Stage, StageId};
use rupam_dag::TenantId;
use rupam_exec::scheduler::{Command, OfferInput, Scheduler};
use rupam_metrics::record::{AttemptOutcome, TaskRecord};
use rupam_metrics::trace::LaunchReason;

use crate::alloc::{quota_preemption_commands, AllocSession, AllocationPolicy, PreemptState};
use crate::config::RupamConfig;
use crate::dispatcher::Dispatcher;
use crate::rm::NodeQueueCache;
use crate::straggler::{
    gpu_race_commands, memory_straggler_commands, relocation_target, resource_straggler_candidates,
    StragglerState,
};
use crate::tm::TaskManager;

/// The heterogeneity-aware task scheduler.
pub struct RupamScheduler {
    cfg: RupamConfig,
    name: String,
    tm: TaskManager,
    straggler: StragglerState,
    /// Template key per stage (for failure bookkeeping).
    stage_templates: HashMap<StageId, Sym>,
    min_node_mem: ByteSize,
    /// Persistent per-kind node rankings, kept in sync with the offer
    /// snapshots instead of re-sorted every round.
    node_cache: NodeQueueCache,
    /// Per-tenant quota-preemption cooldowns (tenant-aware runs only).
    preempt: PreemptState,
}

impl RupamScheduler {
    /// Build a scheduler with the given configuration. The reported name
    /// encodes any ablation switches (`rupam`, `rupam-nodb`, …).
    pub fn new(cfg: RupamConfig) -> Self {
        let mut name = String::from("rupam");
        if !cfg.use_task_db {
            name.push_str("-nodb");
        }
        if !cfg.dynamic_executors {
            name.push_str("-staticmem");
        }
        if !cfg.use_locality {
            name.push_str("-noloc");
        }
        if !cfg.straggler_handling {
            name.push_str("-nostrag");
        }
        if !cfg.cross_job_db {
            name.push_str("-colddb");
        }
        match cfg.allocation {
            AllocationPolicy::FifoBaseline => {}
            AllocationPolicy::WeightedFair => name.push_str("-wfair"),
            AllocationPolicy::Drf => name.push_str("-drf"),
        }
        if cfg.tenants.iter().any(|t| t.quota.is_some()) {
            name.push_str("-quota");
        }
        if cfg.gang_admission {
            name.push_str("-gang");
        }
        RupamScheduler {
            tm: TaskManager::new(cfg.clone()),
            straggler: StragglerState::new(0),
            stage_templates: HashMap::new(),
            min_node_mem: ByteSize::gib(16),
            node_cache: NodeQueueCache::with_shards(cfg.shard_count),
            preempt: PreemptState::new(cfg.tenants.len()),
            cfg,
            name,
        }
    }

    /// The paper's configuration.
    pub fn default_config() -> RupamConfig {
        RupamConfig::default()
    }

    /// A scheduler with the paper's configuration.
    pub fn with_defaults() -> Self {
        Self::new(RupamConfig::default())
    }

    /// Access the Task Manager (tests, ablation instrumentation).
    pub fn tm(&self) -> &TaskManager {
        &self.tm
    }

    /// Wipe the task-characteristics DB (the Fig. 5 protocol clears it
    /// between repetitions).
    pub fn clear_db(&self) {
        self.tm.clear_db();
    }
}

impl Scheduler for RupamScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn executor_memory(&self, cluster: &ClusterSpec, node: NodeId) -> ByteSize {
        if self.cfg.dynamic_executors {
            // §III-C2: "RUPAM changes the executor size … different nodes
            // will have executors with different memory sizes"
            cluster.node(node).mem.saturating_sub(self.cfg.os_reserved)
        } else {
            cluster.min_mem().saturating_sub(self.cfg.os_reserved)
        }
    }

    fn decision_cost(&self) -> SimDuration {
        self.cfg.decision_cost
    }

    fn on_app_start(&mut self, app: &Application, cluster: &ClusterSpec) {
        self.straggler = StragglerState::new(cluster.len());
        self.tm.reset_run_state();
        self.node_cache.reset();
        self.preempt = PreemptState::new(self.cfg.tenants.len());
        self.min_node_mem = cluster.min_mem();
        let smallest_exec = cluster
            .iter()
            .map(|(id, _)| self.executor_memory(cluster, id))
            .min()
            .unwrap_or(ByteSize::gib(14));
        self.tm.set_smallest_executor(smallest_exec);
        self.stage_templates = app.stages.iter().map(|s| (s.id, s.template_key)).collect();
    }

    fn on_job_submitted(&mut self, job: rupam_dag::app::JobId, stages: &[StageId], _now: SimTime) {
        // the TM needs stage ownership to scope its keys when the
        // cold-DB control is active
        self.tm.note_job(job, stages);
    }

    fn on_stage_ready(&mut self, _stage: &Stage, _now: SimTime) {
        // tasks are picked up from `input.pending` at the next offer
        // round; nothing to do eagerly
    }

    fn on_task_finished(&mut self, record: &TaskRecord, _now: SimTime) {
        self.tm.record_finish(record);
    }

    fn on_task_failed(
        &mut self,
        task: rupam_dag::TaskRef,
        node: NodeId,
        outcome: AttemptOutcome,
        _now: SimTime,
    ) {
        self.tm.queues.remove(&task);
        if matches!(
            outcome,
            AttemptOutcome::OomFailure
                | AttemptOutcome::ExecutorLost
                | AttemptOutcome::MemoryStragglerKilled
        ) {
            if let Some(template) = self.stage_templates.get(&task.stage) {
                // a memory death marks the task MEM-bound so the next
                // placement favours large-memory nodes
                self.tm.record_memory_failure(
                    task.stage,
                    *template,
                    task.index,
                    ByteSize::ZERO,
                    node,
                );
            }
        }
    }

    fn offer_round(&mut self, input: &OfferInput<'_>) -> Vec<Command> {
        // 0. tenant-aware runs refresh the job → tenant map before any
        //    ingestion, so every enqueue lands in the right shard
        let tenant_aware = self.cfg.tenant_aware();
        if tenant_aware {
            self.tm.note_tenants(&input.job_tenants);
        }

        // 1. submit newly pending tasks to the TM queues: by the
        //    `pending_fresh` warranty, anything unlisted is either already
        //    queued with an unchanged view or left the queues through this
        //    scheduler's own commands
        self.tm.ingest_fresh(&input.pending, &input.pending_fresh);
        debug_assert!(
            input.pending.iter().all(|v| self.tm.is_current(v)),
            "pending_fresh warranty broken: a pending task is unqueued or \
             queued under a stale classification"
        );

        let mut cmds = Vec::new();

        // 2. straggler handling
        if self.cfg.straggler_handling {
            cmds.extend(memory_straggler_commands(
                &self.cfg,
                &mut self.straggler,
                input,
            ));
            cmds.extend(gpu_race_commands(
                &self.cfg,
                &mut self.straggler,
                input,
                &self.tm,
            ));
            for (task, bad_node) in resource_straggler_candidates(&self.cfg, input, &self.tm) {
                let kind = self
                    .stage_templates
                    .get(&task.stage)
                    .and_then(|t| self.tm.db().read(&crate::db::TaskKey::new(*t, task.index)))
                    .and_then(|c| c.last_bottleneck)
                    .unwrap_or(ResourceKind::Cpu);
                if let Some(target) = relocation_target(input, kind, bad_node) {
                    cmds.push(Command::Launch {
                        task,
                        node: target,
                        use_gpu: kind == ResourceKind::Gpu,
                        speculative: true,
                        reason: LaunchReason::Relocation { bottleneck: kind },
                    });
                }
            }
        }

        // 2.5 tenant allocation: freeze the session snapshot, reclaim
        //     capacity from over-quota tenants, and compute the order
        //     the Dispatcher serves tenants in this round. The FIFO
        //     baseline serves one shared scope.
        let order: Vec<TenantId> = if tenant_aware {
            let tenant_count = input
                .job_tenants
                .iter()
                .map(|t| t.index() + 1)
                .max()
                .unwrap_or(1)
                .max(self.cfg.tenants.len());
            let tm = &self.tm;
            let tenant_of = |stage| tm.tenant_of_stage(stage);
            let session = AllocSession::snapshot(&self.cfg, input, tenant_count, &tenant_of);
            cmds.extend(quota_preemption_commands(
                &self.cfg,
                &session,
                &mut self.preempt,
                input,
                &tenant_of,
            ));
            // over-quota tenants are skipped for the round: they are
            // surrendering capacity, not receiving more
            session
                .order(self.cfg.allocation)
                .into_iter()
                .filter(|&t| !session.over_quota(t))
                .collect()
        } else {
            vec![TenantId(0)]
        };

        // 3. Algorithm 2 dispatch
        cmds.extend(Dispatcher::new(&self.cfg, input).dispatch(
            &mut self.tm,
            &mut self.node_cache,
            &order,
        ));

        // 4. engine-flagged stragglers: relocate to the best node for
        //    the task's recorded bottleneck
        for s in &input.speculatable {
            let kind =
                self.tm
                    .lookup(s)
                    .and_then(|c| c.last_bottleneck)
                    .unwrap_or(if s.gpu_capable {
                        ResourceKind::Gpu
                    } else {
                        ResourceKind::Cpu
                    });
            // find where the original runs so the copy lands elsewhere
            let original_node = input
                .nodes
                .iter()
                .find(|v| v.running.iter().any(|r| r.task == s.task))
                .map(|v| v.node)
                .unwrap_or(NodeId(0));
            if let Some(target) = relocation_target(input, kind, original_node) {
                cmds.push(Command::Launch {
                    task: s.task,
                    node: target,
                    use_gpu: kind == ResourceKind::Gpu && s.gpu_capable,
                    speculative: true,
                    reason: LaunchReason::Relocation { bottleneck: kind },
                });
            }
        }

        cmds
    }

    fn audit_round(&self, input: &OfferInput<'_>) -> Vec<String> {
        // Re-derive the Resource Queues from the same snapshot and check
        // RUPAM's own structural invariants: every queue sorted by
        // non-increasing remaining capability, holding only unblocked
        // nodes that actually have the resource.
        let mut findings = Vec::new();
        let queues = crate::rm::ResourceQueues::build(input.cluster, &input.nodes);
        for kind in ResourceKind::ALL {
            let nodes = queues.nodes(kind);
            for &n in nodes {
                if input.nodes[n.index()].blocked {
                    findings.push(format!("{kind:?} queue holds blocked node {n:?}"));
                }
                if input.nodes[n.index()].dead {
                    findings.push(format!("{kind:?} queue holds dead node {n:?}"));
                }
                if !input.cluster.node(n).has_resource(kind) {
                    findings.push(format!("{kind:?} queue holds {n:?} with zero capability"));
                }
            }
            for w in nodes.windows(2) {
                let ahead = crate::rm::remaining_capability(
                    input.cluster,
                    &input.nodes[w[0].index()],
                    kind,
                );
                let behind = crate::rm::remaining_capability(
                    input.cluster,
                    &input.nodes[w[1].index()],
                    kind,
                );
                if behind > ahead * (1.0 + 1e-9) + 1e-12 {
                    findings.push(format!(
                        "{kind:?} queue out of order: {:?} ({ahead:.4}) ranked ahead of {:?} ({behind:.4})",
                        w[0], w[1]
                    ));
                }
            }
        }
        // The persistent rankings must match a from-scratch rebuild of
        // the very snapshot they just dispatched from.
        findings.extend(self.node_cache.verify(input.cluster, &input.nodes));
        findings
    }

    fn on_heartbeat(&mut self, _now: SimTime) {
        // fold queued DB_task_char writes into the store off the
        // dispatch path, so offer rounds mostly hit the read-optimised
        // shards with empty pending queues
        self.tm.db().nudge();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupam_dag::app::StageKind;
    use rupam_dag::data::DataLayout;
    use rupam_dag::task::{InputSource, TaskDemand, TaskTemplate};
    use rupam_exec::{simulate, SimConfig, SimInput};
    use rupam_simcore::RngFactory;

    use crate::baseline::SparkScheduler;

    #[test]
    fn dynamic_executor_sizing() {
        let cluster = ClusterSpec::hydra();
        let s = RupamScheduler::with_defaults();
        let thor = cluster.nodes_in_class("thor")[0];
        let hulk = cluster.nodes_in_class("hulk")[0];
        assert_eq!(s.executor_memory(&cluster, thor), ByteSize::gib(14));
        assert_eq!(s.executor_memory(&cluster, hulk), ByteSize::gib(62));
    }

    #[test]
    fn static_ablation_matches_spark_sizing() {
        let cfg = RupamConfig {
            dynamic_executors: false,
            ..RupamConfig::default()
        };
        let s = RupamScheduler::new(cfg);
        assert_eq!(s.name(), "rupam-staticmem");
        let cluster = ClusterSpec::hydra();
        for (id, _) in cluster.iter() {
            assert_eq!(s.executor_memory(&cluster, id), ByteSize::gib(14));
        }
    }

    /// Build a compute-heavy iterative app whose tasks live on HDFS
    /// blocks placed across the cluster.
    fn compute_app(
        cluster: &ClusterSpec,
        seed: u64,
        iterations: usize,
        compute: f64,
        peak: ByteSize,
    ) -> (Application, DataLayout) {
        let mut layout = DataLayout::new();
        let mut rng = RngFactory::new(seed).stream("layout");
        let n_parts = 24;
        let blocks = layout.place_blocks(cluster, &vec![ByteSize::mib(128); n_parts], 2, &mut rng);
        let mut b = rupam_dag::AppBuilder::new("compute-app");
        for _ in 0..iterations {
            let j = b.begin_job();
            let tasks: Vec<TaskTemplate> = (0..n_parts)
                .map(|i| TaskTemplate {
                    index: i,
                    input: InputSource::CachedOrHdfs {
                        key: rupam_dag::task::CacheKey::new("compute/data", i),
                        fallback: blocks[i],
                    },
                    demand: TaskDemand {
                        compute,
                        input_bytes: ByteSize::mib(128),
                        peak_mem: peak,
                        cached_bytes: ByteSize::mib(192),
                        shuffle_write: ByteSize::mib(4),
                        ..TaskDemand::default()
                    },
                })
                .collect();
            let m = b.add_stage(
                j,
                "grad",
                "compute/data",
                StageKind::ShuffleMap,
                vec![],
                tasks,
            );
            b.add_stage(
                j,
                "agg",
                "compute/agg",
                StageKind::Result,
                vec![m],
                vec![TaskTemplate {
                    index: 0,
                    input: InputSource::Shuffle,
                    demand: TaskDemand {
                        compute: 1.0,
                        shuffle_read: ByteSize::mib(4 * n_parts as u64),
                        output_bytes: ByteSize::mib(1),
                        peak_mem: ByteSize::mib(512),
                        ..TaskDemand::default()
                    },
                }],
            );
        }
        (b.build(), layout)
    }

    #[test]
    fn rupam_completes_and_learns() {
        let cluster = ClusterSpec::hydra();
        let (app, layout) = compute_app(&cluster, 3, 3, 20.0, ByteSize::gib(1));
        let cfg = SimConfig::default();
        let input = SimInput {
            cluster: &cluster,
            app: &app,
            layout: &layout,
            config: &cfg,
            seed: 3,
        };
        let mut rupam = RupamScheduler::with_defaults();
        let report = simulate(&input, &mut rupam);
        assert!(report.completed);
        assert_eq!(report.scheduler_name, "rupam");
        // the DB should now know the gradient tasks
        assert!(!rupam.tm().db().is_empty());
        let char = rupam
            .tm()
            .db()
            .read(&crate::db::TaskKey::new("compute/data", 0))
            .expect("task characterised");
        assert!(char.runs >= 1);
    }

    #[test]
    fn rupam_beats_spark_on_heterogeneous_iterative_compute() {
        let cluster = ClusterSpec::hydra();
        let cfg = SimConfig::default();
        let mut spark_total = 0.0;
        let mut rupam_total = 0.0;
        for seed in [11, 12, 13] {
            let (app, layout) = compute_app(&cluster, seed, 4, 20.0, ByteSize::gib(1));
            let input = SimInput {
                cluster: &cluster,
                app: &app,
                layout: &layout,
                config: &cfg,
                seed,
            };
            let mut spark = SparkScheduler::with_defaults();
            let spark_report = simulate(&input, &mut spark);
            let mut rupam = RupamScheduler::with_defaults();
            let rupam_report = simulate(&input, &mut rupam);
            assert!(spark_report.completed && rupam_report.completed);
            spark_total += spark_report.makespan.as_secs_f64();
            rupam_total += rupam_report.makespan.as_secs_f64();
        }
        assert!(
            rupam_total < spark_total,
            "RUPAM ({rupam_total:.1}s) should beat Spark ({spark_total:.1}s) on \
             an iterative compute-bound workload on Hydra"
        );
    }

    #[test]
    fn rupam_avoids_memory_deaths_spark_suffers() {
        let cluster = ClusterSpec::hydra();
        // memory-hungry tasks: 6 GiB peak each; Spark's uniform 14 GiB
        // executors choke when 8 cores × 6 GiB land on a thor node
        let (app, layout) = compute_app(&cluster, 21, 2, 8.0, ByteSize::gib(6));
        let cfg = SimConfig::default();
        let input = SimInput {
            cluster: &cluster,
            app: &app,
            layout: &layout,
            config: &cfg,
            seed: 21,
        };
        let mut spark = SparkScheduler::with_defaults();
        let spark_report = simulate(&input, &mut spark);
        let mut rupam = RupamScheduler::with_defaults();
        let rupam_report = simulate(&input, &mut rupam);
        let spark_deaths = spark_report.oom_failures + spark_report.executor_losses;
        let rupam_deaths = rupam_report.oom_failures + rupam_report.executor_losses;
        assert!(
            spark_deaths > rupam_deaths,
            "expected Spark ({spark_deaths}) to suffer more memory deaths than RUPAM ({rupam_deaths})"
        );
    }

    #[test]
    fn warm_stream_reuses_characterization_cold_stream_partitions_it() {
        let cluster = ClusterSpec::hydra();
        let cfg = SimConfig::default();
        let build_stream = || {
            let mut stream = rupam_dag::JobStream::new();
            let (a1, l1) = compute_app(&cluster, 7, 2, 10.0, ByteSize::gib(1));
            let (a2, l2) = compute_app(&cluster, 8, 2, 10.0, ByteSize::gib(1));
            stream.push("tenant-a", a1, l1, SimTime::ZERO);
            stream.push("tenant-b", a2, l2, SimTime::from_secs_f64(20.0));
            stream.merge()
        };

        let warm_stream = build_stream();
        let input = rupam_exec::StreamInput {
            cluster: &cluster,
            stream: &warm_stream,
            config: &cfg,
            seed: 7,
        };
        let mut warm = RupamScheduler::with_defaults();
        let report = rupam_exec::simulate_stream(&input, &mut warm);
        assert!(report.completed);
        assert_eq!(report.jobs.len(), 2);
        assert!(report.jobs.iter().all(|j| j.completed_at.is_some()));
        // warm DB: both tenants bank under the shared template key
        assert!(warm
            .tm()
            .db()
            .read(&crate::db::TaskKey::new("compute/data", 0))
            .is_some());

        let cold_stream = build_stream();
        let input = rupam_exec::StreamInput {
            cluster: &cluster,
            stream: &cold_stream,
            config: &cfg,
            seed: 7,
        };
        let mut cold = RupamScheduler::new(RupamConfig {
            cross_job_db: false,
            ..RupamConfig::default()
        });
        assert_eq!(cold.name(), "rupam-colddb");
        let report = rupam_exec::simulate_stream(&input, &mut cold);
        assert!(report.completed);
        // cold DB: every entry is scoped to the tenant that produced it
        let db = cold.tm().db();
        assert!(db
            .read(&crate::db::TaskKey::new("compute/data", 0))
            .is_none());
        assert!(db
            .read(&crate::db::TaskKey::new("j0@compute/data", 0))
            .is_some());
        assert!(db
            .read(&crate::db::TaskKey::new("j1@compute/data", 0))
            .is_some());
    }

    #[test]
    fn gpu_capable_work_reaches_gpus() {
        let cluster = ClusterSpec::hydra();
        let mut layout = DataLayout::new();
        let mut rng = RngFactory::new(5).stream("layout");
        let blocks = layout.place_blocks(&cluster, &[ByteSize::mib(64); 8], 2, &mut rng);
        let mut b = rupam_dag::AppBuilder::new("gpu-app");
        let j = b.begin_job();
        let tasks: Vec<TaskTemplate> = (0..8)
            .map(|i| TaskTemplate {
                index: i,
                input: InputSource::Hdfs(blocks[i]),
                demand: TaskDemand {
                    compute: 30.0,
                    gpu_kernels: 28.0,
                    input_bytes: ByteSize::mib(64),
                    peak_mem: ByteSize::gib(1),
                    ..TaskDemand::default()
                },
            })
            .collect();
        b.add_stage(j, "mult", "gpu/mult", StageKind::Result, vec![], tasks);
        let app = b.build();
        let cfg = SimConfig::default();
        let input = SimInput {
            cluster: &cluster,
            app: &app,
            layout: &layout,
            config: &cfg,
            seed: 5,
        };
        let mut rupam = RupamScheduler::with_defaults();
        let report = simulate(&input, &mut rupam);
        assert!(report.completed);
        assert!(
            report.gpu_task_count() > 0,
            "no work reached the stack GPUs"
        );
    }
}
