//! The typed engine event bus.
//!
//! Every observable thing the engine does is published as an
//! [`EngineEvent`] on the [`EventBus`]; subsystems that *observe* rather
//! than *simulate* — trace emission, fault statistics, invariant
//! auditing, and any caller-supplied [`Subscriber`] — react to the bus
//! instead of being called inline from the core loop. The bus is
//! strictly synchronous and deterministic: subscribers are dispatched in
//! a canonical order (by [`BusStage`], then name) that is independent of
//! registration order, so two runs that publish the same events always
//! produce the same observations, byte for byte.
//!
//! Subscribers never mutate simulation state — the engine publishes
//! facts, not requests — which is what makes the bus safe to extend
//! without perturbing decision traces.

use rupam_cluster::NodeId;
use rupam_dag::app::{JobId, StageId};
use rupam_dag::{Locality, TaskRef, TenantId};
use rupam_faults::FaultKind;
use rupam_metrics::report::FaultSummary;
use rupam_metrics::trace::{AbortCause, LaunchReason, TraceBuffer, TraceEvent, TraceEventKind};
use rupam_simcore::time::{SimDuration, SimTime};
use rupam_simcore::units::ByteSize;

use crate::audit::Violation;
use crate::scheduler::{Command, OfferInput};

/// The canonical detail string for a permanently lost task, shared by
/// the trace emitter and the audit relay so both record byte-identical
/// diagnostics for the same [`EngineEvent::LostTask`].
pub fn lost_task_detail(task: TaskRef, killed_at: SimTime) -> String {
    format!("task {task:?} killed at {killed_at} never re-ran to completion")
}

/// When the engine publishes an event: simulation time and offer round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventCtx {
    /// Simulation time of the event.
    pub at: SimTime,
    /// Offer-round counter at the event (0 = before the first round).
    pub round: u64,
}

/// A semantic engine event. Most variants map 1:1 onto a
/// [`TraceEventKind`] (see [`EngineEvent::trace_kind`]); the remainder
/// ([`TaskKilled`], [`RecoveryResolved`]) carry fault-accounting facts
/// that the pre-bus engine counted inline and are not traced.
///
/// [`TaskKilled`]: EngineEvent::TaskKilled
/// [`RecoveryResolved`]: EngineEvent::RecoveryResolved
#[derive(Clone, Debug, PartialEq)]
pub enum EngineEvent {
    /// An executor was sized at application start.
    ExecutorSized {
        /// Node the executor runs on.
        node: NodeId,
        /// Heap the scheduler requested (after the node-capacity clamp).
        mem: ByteSize,
    },
    /// An offer round ran. Only published when the bus has a trace sink
    /// (the summary counts cost a cluster scan to compute).
    OfferRound {
        /// Pending (schedulable) tasks in the snapshot.
        pending: usize,
        /// Running attempts across the cluster.
        running: usize,
        /// Nodes blocked by a JVM restart.
        blocked: usize,
        /// Commands the scheduler returned.
        commands: usize,
    },
    /// A stream job was submitted to the shared cluster.
    JobSubmitted {
        /// The arriving stream job.
        job: JobId,
        /// Tenant submitting it (`TenantId(0)` on single-app runs).
        tenant: TenantId,
    },
    /// A stream job ran all of its stages to completion.
    JobCompleted {
        /// The finished stream job.
        job: JobId,
        /// Tenant the job ran for.
        tenant: TenantId,
    },
    /// A launch command was applied.
    Launch {
        /// The task launched.
        task: TaskRef,
        /// Stream job of the task (`JobId(0)` on single-app runs).
        job: JobId,
        /// Tenant the launch serves (`TenantId(0)` on single-app runs).
        tenant: TenantId,
        /// Target node.
        node: NodeId,
        /// Attempt number (0 = first try).
        attempt: u32,
        /// Whether this is a speculative copy.
        speculative: bool,
        /// Whether the attempt runs its kernels on a GPU.
        use_gpu: bool,
        /// Locality level resolved against live state at launch.
        locality: Locality,
        /// Why the scheduler placed it here.
        reason: LaunchReason,
    },
    /// A memory-straggler kill-and-requeue was applied.
    KillRequeue {
        /// The task killed.
        task: TaskRef,
        /// Node it was killed on.
        node: NodeId,
    },
    /// A task-level OOM killed one attempt.
    OomTaskKill {
        /// The victim.
        task: TaskRef,
        /// Node it died on.
        node: NodeId,
        /// Heap pressure (`mem_in_use / executor_mem`) in percent.
        pressure_pct: u32,
    },
    /// The whole executor JVM died; every running attempt failed. Only
    /// published when the bus has a trace sink (pressure is derived).
    ExecutorLost {
        /// Node whose executor died.
        node: NodeId,
        /// Attempts that died with it.
        victims: usize,
        /// Heap pressure in percent at the kill.
        pressure_pct: u32,
    },
    /// The engine flagged a running task as speculatable.
    SpeculationFlagged {
        /// The straggling task.
        task: TaskRef,
    },
    /// The run aborted.
    Aborted {
        /// Why.
        cause: AbortCause,
        /// The task that exhausted retries, if that was the cause.
        task: Option<TaskRef>,
    },
    /// The invariant auditor flagged a violation during an offer round.
    AuditViolation {
        /// Which invariant (stable code).
        check: &'static str,
        /// Human-readable specifics.
        detail: String,
    },
    /// A scripted fault was injected on a node (chaos calendar).
    FaultInjected {
        /// Target node.
        node: NodeId,
        /// What the fault does; trace sinks record its stable code.
        kind: FaultKind,
    },
    /// The failure detector declared a node suspect (heartbeats late).
    NodeSuspect {
        /// The suspected node.
        node: NodeId,
        /// Heartbeat age at the declaration.
        age: SimDuration,
    },
    /// The failure detector declared a node dead.
    NodeDead {
        /// The declared-dead node.
        node: NodeId,
        /// Heartbeat age at the declaration.
        age: SimDuration,
    },
    /// A previously suspect/dead node resumed heartbeating (or was
    /// restarted) and was re-admitted to the rankings.
    NodeRecovered {
        /// The re-admitted node.
        node: NodeId,
    },
    /// Lineage-driven recompute: finished shuffle-map tasks whose
    /// outputs lived on a dead node were re-pended.
    LineageRecompute {
        /// The shuffle-map stage whose outputs were lost.
        stage: StageId,
        /// The dead node that held them.
        node: NodeId,
        /// How many tasks were re-pended.
        tasks: usize,
    },
    /// The capacity controller provisioned a node into the active fleet
    /// (spot scale-up). The node accepts work after the provisioning
    /// latency.
    NodeProvisioned {
        /// The provisioned node.
        node: NodeId,
    },
    /// The capacity controller returned an idle node (spot scale-down)
    /// — or a preemption reclaimed it.
    NodeDecommissioned {
        /// The decommissioned node.
        node: NodeId,
    },
    /// A preemption notice fired on a node: it drains for `notice` and
    /// is then reclaimed through the node-loss path.
    PreemptionNotice {
        /// The node being reclaimed.
        node: NodeId,
        /// Drain window between notice and reclaim.
        notice: SimDuration,
    },
    /// A running attempt was killed by a node fault (crash or dead
    /// declaration). Untraced; counted by fault statistics.
    TaskKilled {
        /// The killed task.
        task: TaskRef,
        /// The faulted node it was running on.
        node: NodeId,
    },
    /// A fault-killed (or lineage re-pended) task re-ran to completion.
    /// Untraced; counted by fault statistics.
    RecoveryResolved {
        /// The recovered task.
        task: TaskRef,
        /// Kill-to-refinish latency.
        waited: SimDuration,
    },
    /// End-of-run sweep: a fault-killed task never re-ran to completion.
    /// Trace sinks and the audit relay both derive their record from
    /// [`lost_task_detail`].
    LostTask {
        /// The permanently lost task.
        task: TaskRef,
        /// When the fault killed it.
        killed_at: SimTime,
    },
}

impl EngineEvent {
    /// The canonical projection of an engine event onto the trace
    /// schema; `None` for events that are deliberately untraced. This is
    /// the *single* mapping used by every trace sink — tests mirror it
    /// to prove a shadow subscriber reconstructs the official digest.
    pub fn trace_kind(&self) -> Option<TraceEventKind> {
        Some(match self {
            EngineEvent::ExecutorSized { node, mem } => TraceEventKind::ExecutorSized {
                node: *node,
                mem: *mem,
            },
            EngineEvent::OfferRound {
                pending,
                running,
                blocked,
                commands,
            } => TraceEventKind::OfferRound {
                pending: *pending,
                running: *running,
                blocked: *blocked,
                commands: *commands,
            },
            EngineEvent::JobSubmitted { job, tenant } => TraceEventKind::JobSubmitted {
                job: *job,
                tenant: *tenant,
            },
            EngineEvent::JobCompleted { job, tenant } => TraceEventKind::JobCompleted {
                job: *job,
                tenant: *tenant,
            },
            EngineEvent::Launch {
                task,
                job,
                tenant,
                node,
                attempt,
                speculative,
                use_gpu,
                locality,
                reason,
            } => TraceEventKind::Launch {
                task: *task,
                job: *job,
                tenant: *tenant,
                node: *node,
                attempt: *attempt,
                speculative: *speculative,
                use_gpu: *use_gpu,
                locality: *locality,
                reason: *reason,
            },
            EngineEvent::KillRequeue { task, node } => TraceEventKind::KillRequeue {
                task: *task,
                node: *node,
            },
            EngineEvent::OomTaskKill {
                task,
                node,
                pressure_pct,
            } => TraceEventKind::OomTaskKill {
                task: *task,
                node: *node,
                pressure_pct: *pressure_pct,
            },
            EngineEvent::ExecutorLost {
                node,
                victims,
                pressure_pct,
            } => TraceEventKind::ExecutorLost {
                node: *node,
                victims: *victims,
                pressure_pct: *pressure_pct,
            },
            EngineEvent::SpeculationFlagged { task } => {
                TraceEventKind::SpeculationFlagged { task: *task }
            }
            EngineEvent::Aborted { cause, task } => TraceEventKind::Aborted {
                cause: *cause,
                task: *task,
            },
            EngineEvent::AuditViolation { check, detail } => TraceEventKind::AuditViolation {
                check,
                detail: detail.clone(),
            },
            EngineEvent::FaultInjected { node, kind } => TraceEventKind::FaultInjected {
                node: *node,
                fault: kind.code(),
            },
            EngineEvent::NodeSuspect { node, age } => TraceEventKind::NodeSuspect {
                node: *node,
                age: *age,
            },
            EngineEvent::NodeDead { node, age } => TraceEventKind::NodeDead {
                node: *node,
                age: *age,
            },
            EngineEvent::NodeRecovered { node } => TraceEventKind::NodeRecovered { node: *node },
            EngineEvent::LineageRecompute { stage, node, tasks } => {
                TraceEventKind::LineageRecompute {
                    stage: *stage,
                    node: *node,
                    tasks: *tasks,
                }
            }
            EngineEvent::NodeProvisioned { node } => {
                TraceEventKind::NodeProvisioned { node: *node }
            }
            EngineEvent::NodeDecommissioned { node } => {
                TraceEventKind::NodeDecommissioned { node: *node }
            }
            EngineEvent::PreemptionNotice { node, notice } => TraceEventKind::PreemptionNotice {
                node: *node,
                notice: *notice,
            },
            EngineEvent::LostTask { task, killed_at } => TraceEventKind::AuditViolation {
                check: "lost-task",
                detail: lost_task_detail(*task, *killed_at),
            },
            EngineEvent::TaskKilled { .. } | EngineEvent::RecoveryResolved { .. } => return None,
        })
    }
}

/// Which dispatch stage a subscriber runs in. Within one published
/// event, every `Statistics` subscriber runs before every `Audit`
/// subscriber, which runs before every `Emit` subscriber; within a
/// stage, subscribers run in lexicographic name order. Registration
/// order is deliberately irrelevant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum BusStage {
    /// Pure accumulation (counters, summaries); no externally visible
    /// output of its own.
    Statistics,
    /// Invariant auditing; may surface violations the engine re-publishes.
    Audit,
    /// Trace/metrics emission — the externally visible record.
    Emit,
}

/// An observer attached to the [`EventBus`]. Implementations must be
/// deterministic pure functions of the event stream: no wall-clock, no
/// host randomness, no simulation-state mutation.
pub trait Subscriber {
    /// Stable name; with [`Subscriber::stage`] it defines the canonical
    /// dispatch order, so two subscribers on one bus should not share a
    /// (stage, name) pair.
    fn name(&self) -> &'static str;

    /// Which dispatch stage this subscriber runs in.
    fn stage(&self) -> BusStage;

    /// Called once per published event, in canonical order.
    fn on_event(&mut self, ctx: &EventCtx, event: &EngineEvent);

    /// True when this subscriber retains/digests the full decision
    /// trace. Enables publication of derived-payload events
    /// ([`EngineEvent::OfferRound`], [`EngineEvent::ExecutorLost`]) the
    /// engine otherwise skips computing.
    fn is_trace_sink(&self) -> bool {
        false
    }

    /// True when this subscriber audits offer rounds; enables the
    /// (expensive) per-round [`Subscriber::on_offer_audit`] hook.
    fn is_audit_sink(&self) -> bool {
        false
    }

    /// Offer-round audit hook: the exact snapshot the scheduler saw, the
    /// commands it returned and its self-reported findings. Violations
    /// returned here are re-published by the engine as
    /// [`EngineEvent::AuditViolation`] — implementations must not also
    /// record them from `on_event`, or they would double-count.
    fn on_offer_audit(
        &mut self,
        round: u64,
        input: &OfferInput<'_>,
        commands: &[Command],
        findings: &[String],
    ) -> Vec<Violation> {
        let _ = (round, input, commands, findings);
        Vec::new()
    }

    /// Yield the decision trace, if this subscriber accumulated one.
    fn take_trace(&mut self) -> Option<TraceBuffer> {
        None
    }

    /// Yield accumulated invariant violations, if any.
    fn take_violations(&mut self) -> Vec<Violation> {
        Vec::new()
    }

    /// Yield the accumulated fault summary, if this subscriber built one.
    fn take_faults(&mut self) -> Option<FaultSummary> {
        None
    }
}

/// Where a host publishes its events: the engine's [`EventBus`], or a
/// bare [`TraceBuffer`] (the serve driver's), which records each
/// event's trace projection.
pub trait EventSink {
    /// Publish `event`, stamped with `ctx`.
    fn publish(&mut self, ctx: &EventCtx, event: &EngineEvent);
}

impl EventSink for EventBus {
    /// Dispatch one event to every subscriber, in canonical order.
    fn publish(&mut self, ctx: &EventCtx, event: &EngineEvent) {
        self.published += 1;
        for sub in &mut self.subscribers {
            sub.on_event(ctx, event);
        }
    }
}

impl EventSink for TraceBuffer {
    fn publish(&mut self, ctx: &EventCtx, event: &EngineEvent) {
        if let Some(kind) = event.trace_kind() {
            self.record(TraceEvent {
                at: ctx.at,
                round: ctx.round,
                kind,
            });
        }
    }
}

/// The deterministically-ordered, synchronous event bus.
pub struct EventBus {
    /// Kept sorted by `(stage, name)`; ties preserve registration order.
    subscribers: Vec<Box<dyn Subscriber>>,
    traced: bool,
    audited: bool,
    published: u64,
}

impl Default for EventBus {
    fn default() -> Self {
        EventBus::new()
    }
}

impl EventBus {
    /// An empty bus.
    pub fn new() -> Self {
        EventBus {
            subscribers: Vec::new(),
            traced: false,
            audited: false,
            published: 0,
        }
    }

    /// Attach a subscriber. Insertion keeps the canonical `(stage,
    /// name)` order, so the observable dispatch sequence is independent
    /// of the order subscribers were registered in.
    pub fn register(&mut self, sub: Box<dyn Subscriber>) {
        self.traced |= sub.is_trace_sink();
        self.audited |= sub.is_audit_sink();
        let key = (sub.stage(), sub.name());
        let pos = self
            .subscribers
            .iter()
            .position(|s| (s.stage(), s.name()) > key)
            .unwrap_or(self.subscribers.len());
        self.subscribers.insert(pos, sub);
    }

    /// Does any subscriber want the full trace (and its derived-payload
    /// events)?
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Does any subscriber audit offer rounds?
    pub fn audited(&self) -> bool {
        self.audited
    }

    /// Total events published so far.
    pub fn published(&self) -> u64 {
        self.published
    }

    /// Run every audit sink's offer-round hook, concatenating their
    /// fresh violations in canonical subscriber order.
    pub fn offer_audit(
        &mut self,
        round: u64,
        input: &OfferInput<'_>,
        commands: &[Command],
        findings: &[String],
    ) -> Vec<Violation> {
        let mut out = Vec::new();
        for sub in &mut self.subscribers {
            if sub.is_audit_sink() {
                out.extend(sub.on_offer_audit(round, input, commands, findings));
            }
        }
        out
    }

    /// Extract the decision trace from the first subscriber that holds
    /// one (canonical order).
    pub fn take_trace(&mut self) -> Option<TraceBuffer> {
        self.subscribers.iter_mut().find_map(|s| s.take_trace())
    }

    /// Extract accumulated violations from every subscriber.
    pub fn take_violations(&mut self) -> Vec<Violation> {
        let mut out = Vec::new();
        for sub in &mut self.subscribers {
            out.extend(sub.take_violations());
        }
        out
    }

    /// Extract the fault summary from the first subscriber that built
    /// one.
    pub fn take_faults(&mut self) -> Option<FaultSummary> {
        self.subscribers.iter_mut().find_map(|s| s.take_faults())
    }

    /// Subscriber names in canonical dispatch order (for tests).
    pub fn subscriber_names(&self) -> Vec<&'static str> {
        self.subscribers.iter().map(|s| s.name()).collect()
    }
}
