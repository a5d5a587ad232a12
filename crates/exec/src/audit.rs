//! Post-round invariant auditing.
//!
//! The [`InvariantAuditor`] re-checks, after every offer round, that the
//! commands a scheduler returned are consistent with the snapshot it was
//! given — independently of the policy that produced them. It catches the
//! class of bug the paper's Algorithm 2 exists to prevent (placing a task
//! on a node that cannot hold it) *at decision time*, instead of waiting
//! for the simulated OOM to surface it minutes of sim-time later.
//!
//! Which checks apply to a launch depends on the [`LaunchReason`] it
//! carries: only reasons that *claim* to have verified memory feasibility
//! ([`LaunchReason::claims_memory_checked`]) are held to it, so stock
//! Spark's memory-oblivious launches are exempt by design while a RUPAM
//! queue-match that violates its own rule is flagged.

use std::collections::HashMap;

use rupam_cluster::NodeId;
use rupam_dag::app::JobId;
use rupam_dag::TaskRef;
use rupam_simcore::time::SimTime;
use rupam_simcore::units::ByteSize;

use crate::scheduler::{Command, OfferInput};

/// Auditor tunables.
#[derive(Clone, Debug)]
pub struct AuditConfig {
    /// Per-node cap on concurrent non-speculative attempts, as a multiple
    /// of the node's core count (matches RUPAM's dispatcher default; stock
    /// Spark's one-task-per-core policy sits well inside it).
    pub overcommit_factor: f64,
    /// Panic on the first violation instead of collecting it. Off by
    /// default; the test suite turns it on so a regression fails loudly
    /// at the exact decision that broke the invariant.
    pub panic_on_violation: bool,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            overcommit_factor: 1.5,
            panic_on_violation: false,
        }
    }
}

/// One invariant violation, attributed to the offer round that caused it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Offer-round counter at the violation.
    pub round: u64,
    /// Stable code of the violated invariant.
    pub check: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

/// Re-checks scheduler command batches against the snapshot they came
/// from. Stateless across rounds except for the accumulated violations.
#[derive(Debug, Default)]
pub struct InvariantAuditor {
    cfg: AuditConfig,
    violations: Vec<Violation>,
}

impl InvariantAuditor {
    /// A fresh auditor with the given tunables.
    pub fn new(cfg: AuditConfig) -> Self {
        InvariantAuditor {
            cfg,
            violations: Vec::new(),
        }
    }

    /// All violations recorded so far, in round order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Record a violation found outside the per-round checks — e.g. the
    /// engine's end-of-run recovery sweep, which flags fault-killed
    /// tasks that were never re-run to completion. Honours
    /// `panic_on_violation` like [`check_round`].
    ///
    /// [`check_round`]: InvariantAuditor::check_round
    pub fn record_violation(&mut self, round: u64, check: &'static str, detail: String) {
        if self.cfg.panic_on_violation {
            panic!("invariant violation in round {round}: [{check}] {detail}");
        }
        self.violations.push(Violation {
            round,
            check,
            detail,
        });
    }

    /// Audit one round: `commands` as returned by the scheduler for
    /// `input`, plus any `scheduler_findings` from
    /// [`Scheduler::audit_round`]. Returns the violations found in *this*
    /// round (also appended to [`violations`]).
    ///
    /// [`Scheduler::audit_round`]: crate::scheduler::Scheduler::audit_round
    /// [`violations`]: InvariantAuditor::violations
    pub fn check_round(
        &mut self,
        round: u64,
        input: &OfferInput<'_>,
        commands: &[Command],
        scheduler_findings: Vec<String>,
    ) -> Vec<Violation> {
        let mut found: Vec<Violation> = scheduler_findings
            .into_iter()
            .map(|detail| Violation {
                round,
                check: "scheduler-invariant",
                detail,
            })
            .collect();

        self.check_memory_feasibility(round, input, commands, &mut found);
        self.check_double_launch(round, input, commands, &mut found);
        self.check_overcommit_cap(round, input, commands, &mut found);
        self.check_arrival_time(round, input, commands, &mut found);
        self.check_dead_node_launch(round, input, commands, &mut found);

        if self.cfg.panic_on_violation {
            if let Some(v) = found.first() {
                panic!(
                    "invariant violation in round {}: [{}] {}",
                    v.round, v.check, v.detail
                );
            }
        }
        self.violations.extend(found.iter().cloned());
        found
    }

    /// A launch whose reason claims the memory-feasibility check passed
    /// must actually fit: the task's known peak estimate, plus what the
    /// earlier launches of this round already claimed on the node, must
    /// be within the node's free executor memory. Tasks with no estimate
    /// yet (`peak_mem_hint == 0`) are exempt — feasibility is undefined
    /// for them — as are speculative copies and the sanctioned overrides
    /// (best-executor lock, safety valve), whose reasons don't claim the
    /// check.
    fn check_memory_feasibility(
        &self,
        round: u64,
        input: &OfferInput<'_>,
        commands: &[Command],
        out: &mut Vec<Violation>,
    ) {
        let hints: HashMap<TaskRef, ByteSize> = input
            .pending
            .iter()
            .chain(input.speculatable.iter())
            .map(|p| (p.task, p.peak_mem_hint))
            .collect();
        let mut claimed: HashMap<NodeId, ByteSize> = HashMap::new();
        for cmd in commands {
            let Command::Launch {
                task,
                node,
                speculative,
                reason,
                ..
            } = cmd
            else {
                continue;
            };
            if *speculative || !reason.claims_memory_checked() {
                continue;
            }
            let hint = hints.get(task).copied().unwrap_or(ByteSize::ZERO);
            if hint == ByteSize::ZERO {
                continue;
            }
            let prior = claimed.entry(*node).or_insert(ByteSize::ZERO);
            let free = input
                .nodes
                .get(node.index())
                .map(|n| n.free_mem)
                .unwrap_or(ByteSize::ZERO);
            if *prior + hint > free {
                out.push(Violation {
                    round,
                    check: "memory-feasibility",
                    detail: format!(
                        "launch of {:?} on {:?} ({}) claims memory was checked, but \
                         estimated peak {} + already-claimed {} exceeds free {}",
                        task,
                        node,
                        reason.code(),
                        hint,
                        prior,
                        free
                    ),
                });
            }
            *prior += hint;
        }
    }

    /// A non-speculative launch must target a task that is pending in the
    /// snapshot, and no task may be launched non-speculatively twice in
    /// one round.
    fn check_double_launch(
        &self,
        round: u64,
        input: &OfferInput<'_>,
        commands: &[Command],
        out: &mut Vec<Violation>,
    ) {
        let pending: std::collections::HashSet<TaskRef> =
            input.pending.iter().map(|p| p.task).collect();
        let mut launched: std::collections::HashSet<TaskRef> = Default::default();
        for cmd in commands {
            let Command::Launch {
                task,
                node,
                speculative,
                reason,
                ..
            } = cmd
            else {
                continue;
            };
            if *speculative {
                continue;
            }
            if !pending.contains(task) {
                out.push(Violation {
                    round,
                    check: "double-launch",
                    detail: format!(
                        "non-speculative launch of {:?} on {:?} ({}) but the task is \
                         not pending in the snapshot",
                        task,
                        node,
                        reason.code()
                    ),
                });
            }
            if !launched.insert(*task) {
                out.push(Violation {
                    round,
                    check: "double-launch",
                    detail: format!(
                        "task {:?} launched non-speculatively twice in one round \
                         (second target {:?}, {})",
                        task,
                        node,
                        reason.code()
                    ),
                });
            }
        }
    }

    /// No task may launch — speculatively or not — before its stream
    /// job has been submitted ([`OfferInput::job_arrivals`]). The engine
    /// gates stage release on arrival, so a launch aimed at an unarrived
    /// job means scheduler and engine disagree about the workload's
    /// timeline.
    fn check_arrival_time(
        &self,
        round: u64,
        input: &OfferInput<'_>,
        commands: &[Command],
        out: &mut Vec<Violation>,
    ) {
        let jobs: HashMap<TaskRef, JobId> = input
            .pending
            .iter()
            .chain(input.speculatable.iter())
            .map(|p| (p.task, p.job))
            .collect();
        for cmd in commands {
            let Command::Launch {
                task, node, reason, ..
            } = cmd
            else {
                continue;
            };
            let Some(job) = jobs.get(task) else { continue };
            let arrival = input
                .job_arrivals
                .get(job.index())
                .copied()
                .unwrap_or(SimTime::ZERO);
            if arrival > input.now {
                out.push(Violation {
                    round,
                    check: "arrival-time",
                    detail: format!(
                        "launch of {:?} on {:?} ({}) at {} precedes its job {:?}'s \
                         arrival at {}",
                        task,
                        node,
                        reason.code(),
                        input.now,
                        job,
                        arrival
                    ),
                });
            }
        }
    }

    /// No launch — speculative or not — may target a node the failure
    /// detector has declared dead: the engine drops such launches, and a
    /// scheduler issuing one is acting on a stale or corrupted ranking
    /// (a dead node must have been evicted from every queue).
    fn check_dead_node_launch(
        &self,
        round: u64,
        input: &OfferInput<'_>,
        commands: &[Command],
        out: &mut Vec<Violation>,
    ) {
        for cmd in commands {
            let Command::Launch {
                task, node, reason, ..
            } = cmd
            else {
                continue;
            };
            if input
                .nodes
                .get(node.index())
                .map(|n| n.dead)
                .unwrap_or(false)
            {
                out.push(Violation {
                    round,
                    check: "dead-node-launch",
                    detail: format!(
                        "launch of {:?} on {:?} ({}) targets a node the failure \
                         detector has declared dead",
                        task,
                        node,
                        reason.code()
                    ),
                });
            }
        }
    }

    /// Per node: non-speculative attempts already running plus this
    /// round's non-speculative launches must stay within
    /// `ceil(cores × overcommit_factor)`. Launches aimed at blocked nodes
    /// are skipped (the engine drops them, so they consume nothing).
    fn check_overcommit_cap(
        &self,
        round: u64,
        input: &OfferInput<'_>,
        commands: &[Command],
        out: &mut Vec<Violation>,
    ) {
        let mut load: Vec<usize> = input
            .nodes
            .iter()
            .map(|n| n.running.iter().filter(|r| !r.speculative).count())
            .collect();
        for cmd in commands {
            let Command::Launch {
                task,
                node,
                speculative,
                reason,
                ..
            } = cmd
            else {
                continue;
            };
            let idx = node.index();
            if *speculative || idx >= load.len() || input.nodes[idx].blocked {
                continue;
            }
            load[idx] += 1;
            let cores = input.cluster.node(*node).cores;
            let cap = (cores as f64 * self.cfg.overcommit_factor).ceil() as usize;
            if load[idx] > cap {
                out.push(Violation {
                    round,
                    check: "overcommit-cap",
                    detail: format!(
                        "launch of {:?} ({}) pushes {:?} to {} non-speculative \
                         attempts, above cap {} ({} cores × {})",
                        task,
                        reason.code(),
                        node,
                        load[idx],
                        cap,
                        cores,
                        self.cfg.overcommit_factor
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupam_cluster::ClusterSpec;
    use rupam_dag::app::{AppBuilder, StageKind};
    use rupam_dag::task::{InputSource, TaskDemand, TaskTemplate};
    use rupam_dag::{Locality, StageId};
    use rupam_metrics::trace::LaunchReason;
    use rupam_simcore::time::SimTime;

    use crate::scheduler::{NodeView, PendingTaskView};

    fn pending(task: TaskRef, hint_mib: u64) -> PendingTaskView {
        PendingTaskView {
            task,
            job: JobId(0),
            template_key: "t".into(),
            stage_kind: StageKind::ShuffleMap,
            attempt_no: 0,
            peak_mem_hint: ByteSize::mib(hint_mib),
            gpu_capable: false,
            process_nodes: vec![],
            node_local: vec![],
        }
    }

    fn node_view(id: usize, free_mib: u64) -> NodeView {
        NodeView {
            node: NodeId(id),
            executor_mem: ByteSize::gib(8),
            mem_in_use: ByteSize::gib(8).saturating_sub(ByteSize::mib(free_mib)),
            free_mem: ByteSize::mib(free_mib),
            running: vec![],
            cpu_util: 0.0,
            net_util: 0.0,
            disk_util: 0.0,
            gpus_idle: 0,
            blocked: false,
            heartbeat_age: rupam_simcore::time::SimDuration::ZERO,
            dead: false,
            suspect: false,
            tier: rupam_cluster::NodeTier::OnDemand,
            draining: false,
            preempt_risk: 0.0,
        }
    }

    fn tiny_fixture() -> (ClusterSpec, rupam_dag::app::Application) {
        let cluster = ClusterSpec::hydra();
        let mut b = AppBuilder::new("audit-test");
        let j = b.begin_job();
        let tasks = vec![TaskTemplate {
            index: 0,
            input: InputSource::Generated,
            demand: TaskDemand::default(),
        }];
        b.add_stage(j, "s", "audit/s", StageKind::Result, vec![], tasks);
        (cluster, b.build())
    }

    fn offer<'a>(
        cluster: &'a ClusterSpec,
        app: &'a rupam_dag::app::Application,
        nodes: Vec<NodeView>,
        pending: Vec<PendingTaskView>,
    ) -> OfferInput<'a> {
        OfferInput {
            now: SimTime::ZERO,
            cluster,
            app,
            nodes,
            pending,
            speculatable: vec![],
            job_arrivals: vec![SimTime::ZERO],
            job_tenants: vec![rupam_dag::TenantId(0)],
            changed: None,
            pending_fresh: vec![],
        }
    }

    fn launch(task: TaskRef, node: usize, reason: LaunchReason) -> Command {
        Command::Launch {
            task,
            node: NodeId(node),
            use_gpu: false,
            speculative: false,
            reason,
        }
    }

    const QM: LaunchReason = LaunchReason::QueueMatch {
        kind: rupam_cluster::resources::ResourceKind::Cpu,
        locality: Locality::Any,
    };

    #[test]
    fn flags_infeasible_memory_claim() {
        let (cluster, app) = tiny_fixture();
        let t = TaskRef {
            stage: StageId(0),
            index: 0,
        };
        let input = offer(
            &cluster,
            &app,
            vec![node_view(0, 512)],
            vec![pending(t, 1024)],
        );
        let mut aud = InvariantAuditor::new(AuditConfig::default());
        let found = aud.check_round(1, &input, &[launch(t, 0, QM)], vec![]);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].check, "memory-feasibility");
    }

    #[test]
    fn cumulative_claims_within_round_are_counted() {
        let (cluster, app) = tiny_fixture();
        let a = TaskRef {
            stage: StageId(0),
            index: 0,
        };
        let b = TaskRef {
            stage: StageId(0),
            index: 1,
        };
        // each fits alone; together they overflow the node
        let input = offer(
            &cluster,
            &app,
            vec![node_view(0, 1024)],
            vec![pending(a, 700), pending(b, 700)],
        );
        let mut aud = InvariantAuditor::new(AuditConfig::default());
        let found = aud.check_round(1, &input, &[launch(a, 0, QM), launch(b, 0, QM)], vec![]);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].check, "memory-feasibility");
    }

    #[test]
    fn unchecked_reasons_are_exempt_from_memory_feasibility() {
        let (cluster, app) = tiny_fixture();
        let t = TaskRef {
            stage: StageId(0),
            index: 0,
        };
        let input = offer(
            &cluster,
            &app,
            vec![node_view(0, 512)],
            vec![pending(t, 1024)],
        );
        let mut aud = InvariantAuditor::new(AuditConfig::default());
        for reason in [
            LaunchReason::SafetyValve,
            LaunchReason::BestExecutorLock {
                overrode_memory_veto: true,
            },
            LaunchReason::DelaySchedule {
                allowed: Locality::Any,
                achieved: Locality::Any,
            },
            LaunchReason::FifoSlot,
        ] {
            let found = aud.check_round(1, &input, &[launch(t, 0, reason)], vec![]);
            assert!(found.is_empty(), "{} should be exempt", reason.code());
        }
    }

    #[test]
    fn flags_double_launch_and_unknown_task() {
        let (cluster, app) = tiny_fixture();
        let t = TaskRef {
            stage: StageId(0),
            index: 0,
        };
        let ghost = TaskRef {
            stage: StageId(0),
            index: 7,
        };
        let input = offer(
            &cluster,
            &app,
            vec![node_view(0, 4096)],
            vec![pending(t, 100)],
        );
        let mut aud = InvariantAuditor::new(AuditConfig::default());
        let found = aud.check_round(
            1,
            &input,
            &[launch(t, 0, QM), launch(t, 0, QM), launch(ghost, 0, QM)],
            vec![],
        );
        let codes: Vec<_> = found.iter().map(|v| v.check).collect();
        assert_eq!(codes, vec!["double-launch", "double-launch"]);
    }

    #[test]
    fn flags_overcommit_past_cap() {
        let (cluster, app) = tiny_fixture();
        // hydra node 0 has 8 cores → cap 12 at factor 1.5
        let cores = cluster.node(NodeId(0)).cores as usize;
        let cap = (cores as f64 * 1.5).ceil() as usize;
        let tasks: Vec<TaskRef> = (0..cap + 1)
            .map(|i| TaskRef {
                stage: StageId(0),
                index: i,
            })
            .collect();
        let input = offer(
            &cluster,
            &app,
            vec![node_view(0, 1 << 30)],
            tasks.iter().map(|&t| pending(t, 0)).collect(),
        );
        let mut aud = InvariantAuditor::new(AuditConfig::default());
        let cmds: Vec<Command> = tasks.iter().map(|&t| launch(t, 0, QM)).collect();
        let found = aud.check_round(1, &input, &cmds, vec![]);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].check, "overcommit-cap");
    }

    #[test]
    fn flags_launch_on_dead_node() {
        let (cluster, app) = tiny_fixture();
        let t = TaskRef {
            stage: StageId(0),
            index: 0,
        };
        let mut dead = node_view(0, 4096);
        dead.dead = true;
        dead.blocked = true;
        let input = offer(&cluster, &app, vec![dead], vec![pending(t, 100)]);
        let mut aud = InvariantAuditor::new(AuditConfig::default());
        let found = aud.check_round(1, &input, &[launch(t, 0, LaunchReason::FifoSlot)], vec![]);
        let codes: Vec<_> = found.iter().map(|v| v.check).collect();
        assert!(codes.contains(&"dead-node-launch"), "{codes:?}");
    }

    #[test]
    fn record_violation_collects_and_panics_like_check_round() {
        let mut aud = InvariantAuditor::new(AuditConfig::default());
        aud.record_violation(7, "lost-task", "task never re-ran".into());
        assert_eq!(aud.violations().len(), 1);
        assert_eq!(aud.violations()[0].check, "lost-task");
        assert_eq!(aud.violations()[0].round, 7);
        let result = std::panic::catch_unwind(|| {
            let mut aud = InvariantAuditor::new(AuditConfig {
                panic_on_violation: true,
                ..AuditConfig::default()
            });
            aud.record_violation(1, "lost-task", "boom".into());
        });
        assert!(result.is_err(), "panic_on_violation must be honoured");
    }

    #[test]
    fn flags_launch_before_job_arrival() {
        let (cluster, app) = tiny_fixture();
        let t = TaskRef {
            stage: StageId(0),
            index: 0,
        };
        let mut input = offer(
            &cluster,
            &app,
            vec![node_view(0, 4096)],
            vec![pending(t, 100)],
        );
        // the snapshot says job 0 only arrives at t = 5 s, yet now = 0
        input.job_arrivals = vec![SimTime::from_secs_f64(5.0)];
        let mut aud = InvariantAuditor::new(AuditConfig::default());
        let found = aud.check_round(1, &input, &[launch(t, 0, LaunchReason::FifoSlot)], vec![]);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].check, "arrival-time");
        // once the job has arrived the same launch is clean
        input.job_arrivals = vec![SimTime::ZERO];
        let found = aud.check_round(2, &input, &[launch(t, 0, LaunchReason::FifoSlot)], vec![]);
        assert!(found.is_empty());
    }

    #[test]
    fn scheduler_findings_become_violations() {
        let (cluster, app) = tiny_fixture();
        let input = offer(&cluster, &app, vec![], vec![]);
        let mut aud = InvariantAuditor::new(AuditConfig::default());
        let found = aud.check_round(3, &input, &[], vec!["queue out of order".into()]);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].check, "scheduler-invariant");
        assert_eq!(aud.violations().len(), 1);
    }

    #[test]
    #[should_panic(expected = "invariant violation")]
    fn panics_when_configured() {
        let (cluster, app) = tiny_fixture();
        let t = TaskRef {
            stage: StageId(0),
            index: 0,
        };
        let input = offer(
            &cluster,
            &app,
            vec![node_view(0, 512)],
            vec![pending(t, 1024)],
        );
        let mut aud = InvariantAuditor::new(AuditConfig {
            panic_on_violation: true,
            ..AuditConfig::default()
        });
        aud.check_round(1, &input, &[launch(t, 0, QM)], vec![]);
    }
}
