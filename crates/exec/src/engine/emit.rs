//! Built-in bus subscribers: trace emission, invariant-audit relay and
//! fault statistics.
//!
//! These are the observers the engine wires up itself (per
//! [`super::SimOptions`]); callers can attach more through
//! [`super::simulate_observed_with`]. Each one is a pure fold over the
//! event stream — none of them can reach back into simulation state,
//! which is what guarantees observability never perturbs a run.

use rupam_faults::FaultKind;
use rupam_metrics::report::FaultSummary;
use rupam_metrics::trace::TraceBuffer;

use crate::audit::{AuditConfig, InvariantAuditor, Violation};
use crate::scheduler::{Command, OfferInput};

use super::events::{lost_task_detail, BusStage, EngineEvent, EventCtx, EventSink, Subscriber};

/// Records the decision trace: every event with a trace projection
/// ([`EngineEvent::trace_kind`]) becomes one trace event in a ring
/// buffer with a running digest ([`EventSink`] for [`TraceBuffer`]).
pub struct TraceEmitter {
    buffer: TraceBuffer,
}

impl TraceEmitter {
    /// An emitter recording into a ring of `capacity` events (0 =
    /// digest-only).
    pub fn new(capacity: usize) -> Self {
        TraceEmitter {
            buffer: TraceBuffer::new(capacity),
        }
    }
}

impl Subscriber for TraceEmitter {
    fn name(&self) -> &'static str {
        "trace"
    }

    fn stage(&self) -> BusStage {
        BusStage::Emit
    }

    fn is_trace_sink(&self) -> bool {
        true
    }

    fn on_event(&mut self, ctx: &EventCtx, event: &EngineEvent) {
        self.buffer.publish(ctx, event);
    }

    fn take_trace(&mut self) -> Option<TraceBuffer> {
        Some(std::mem::replace(&mut self.buffer, TraceBuffer::new(0)))
    }
}

/// Bridges the bus to the [`InvariantAuditor`]: runs the per-round
/// checks through the audit hook and records end-of-run lost-task
/// violations. Per-round violations are *returned* to the engine (which
/// re-publishes them as [`EngineEvent::AuditViolation`]) rather than
/// consumed from `on_event`, so the relay never double-records its own
/// findings.
pub struct AuditRelay {
    auditor: InvariantAuditor,
}

impl AuditRelay {
    /// A relay around a fresh auditor with the given tunables.
    pub fn new(cfg: AuditConfig) -> Self {
        AuditRelay {
            auditor: InvariantAuditor::new(cfg),
        }
    }
}

impl Subscriber for AuditRelay {
    fn name(&self) -> &'static str {
        "audit"
    }

    fn stage(&self) -> BusStage {
        BusStage::Audit
    }

    fn is_audit_sink(&self) -> bool {
        true
    }

    fn on_event(&mut self, ctx: &EventCtx, event: &EngineEvent) {
        if let EngineEvent::LostTask { task, killed_at } = event {
            self.auditor.record_violation(
                ctx.round,
                "lost-task",
                lost_task_detail(*task, *killed_at),
            );
        }
    }

    fn on_offer_audit(
        &mut self,
        round: u64,
        input: &OfferInput<'_>,
        commands: &[Command],
        findings: &[String],
    ) -> Vec<Violation> {
        self.auditor
            .check_round(round, input, commands, findings.to_vec())
    }

    fn take_violations(&mut self) -> Vec<Violation> {
        self.auditor.violations().to_vec()
    }
}

/// Folds fault-subsystem events into the run's [`FaultSummary`] —
/// injections, detector transitions, fault kills, lineage recomputes and
/// recoveries.
#[derive(Default)]
pub struct FaultStats {
    summary: FaultSummary,
}

impl FaultStats {
    /// A collector with all counters at zero.
    pub fn new() -> Self {
        FaultStats::default()
    }
}

impl Subscriber for FaultStats {
    fn name(&self) -> &'static str {
        "fault-stats"
    }

    fn stage(&self) -> BusStage {
        BusStage::Statistics
    }

    fn on_event(&mut self, _ctx: &EventCtx, event: &EngineEvent) {
        match event {
            EngineEvent::FaultInjected { kind, .. } => match kind {
                FaultKind::Crash => self.summary.crashes += 1,
                FaultKind::Restart => self.summary.restarts += 1,
                FaultKind::Slowdown { .. } => self.summary.slowdowns += 1,
                FaultKind::HeartbeatDropout { .. } => self.summary.dropouts += 1,
                FaultKind::FlakyOom { .. } => self.summary.flaky_windows += 1,
                // counted from the PreemptionNotice it triggers, so
                // scripted and elastic preemptions land in one counter
                FaultKind::Preempt { .. } => {}
            },
            EngineEvent::PreemptionNotice { .. } => self.summary.preemptions += 1,
            EngineEvent::NodeSuspect { .. } => self.summary.suspects += 1,
            EngineEvent::NodeDead { .. } => self.summary.deaths += 1,
            EngineEvent::NodeRecovered { .. } => self.summary.readmissions += 1,
            EngineEvent::TaskKilled { .. } => self.summary.tasks_killed += 1,
            EngineEvent::LineageRecompute { tasks, .. } => {
                self.summary.map_outputs_recomputed += tasks;
            }
            EngineEvent::RecoveryResolved { waited, .. } => {
                self.summary.recoveries += 1;
                self.summary.recovery_secs_total += waited.as_secs_f64();
            }
            _ => {}
        }
    }

    fn take_faults(&mut self) -> Option<FaultSummary> {
        Some(std::mem::take(&mut self.summary))
    }
}
