//! Plain-text exports of run data for external analysis: task records
//! and utilisation histories as CSV (no serialization dependency — the
//! formats are trivial and the writer is 50 lines).

use std::fmt::Write as _;

use rupam_cluster::monitor::MetricKey;
use rupam_cluster::NodeId;

use crate::breakdown::BreakdownCategory;
use crate::report::RunReport;

fn escape(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// One CSV row per task attempt, with the full breakdown expanded into
/// columns.
pub fn records_csv(report: &RunReport) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "job,stage,index,template,attempt,node,speculative,locality,launched_s,finished_s,outcome,peak_mem_bytes,used_gpu"
    );
    for cat in BreakdownCategory::ALL {
        let _ = write!(
            out,
            ",{}_s",
            cat.label().to_lowercase().replace([' ', '-'], "_")
        );
    }
    let _ = writeln!(out);
    for r in &report.records {
        let _ = write!(
            out,
            "{},{},{},{},{},{},{},{},{:.6},{:.6},{:?},{},{}",
            r.job.index(),
            r.task.stage.index(),
            r.task.index,
            escape(r.template_key.as_str()),
            r.attempt,
            r.node.index(),
            r.speculative,
            r.locality.label(),
            r.launched_at.as_secs_f64(),
            r.finished_at.as_secs_f64(),
            r.outcome,
            r.peak_mem.bytes(),
            r.used_gpu,
        );
        for cat in BreakdownCategory::ALL {
            let _ = write!(out, ",{:.6}", r.breakdown.get(cat).as_secs_f64());
        }
        let _ = writeln!(out);
    }
    out
}

/// Schema-version marker emitted as the first line of [`trace_csv`].
/// Bump the version whenever columns or detail payloads change shape, so
/// downstream tooling can refuse files it does not understand. The `#`
/// prefix matches the digest-file convention (`# rupam-trace-digests v2`).
/// v2 added the `tenant` column (and tenants on the job/launch trace
/// events themselves, which is why the digest schema bumped in step).
pub const TRACE_CSV_SCHEMA: &str = "# rupam-trace-csv v2";

/// One CSV row per decision-trace event:
/// `time_s,round,event,task,node,tenant,detail`, preceded by the
/// [`TRACE_CSV_SCHEMA`] version line. The `tenant` column is filled on
/// the events that serve an identifiable tenant (job submission and
/// completion, launches) and empty elsewhere. The `detail` column
/// carries the event-specific payload (launch reason code and locality,
/// kill pressure, audit check name, …) so the trace stays greppable
/// without a schema per event kind.
pub fn trace_csv(trace: &crate::trace::TraceBuffer) -> String {
    use crate::trace::TraceEventKind as K;
    let fmt_task = |t: &rupam_dag::TaskRef| format!("{}.{}", t.stage.index(), t.index);
    let mut out = format!("{TRACE_CSV_SCHEMA}\ntime_s,round,event,task,node,tenant,detail\n");
    for e in trace.iter() {
        let mut tenant = String::new();
        let (task, node, detail) = match &e.kind {
            K::ExecutorSized { node, mem } => (
                String::new(),
                node.index().to_string(),
                format!("mem={}", mem.bytes()),
            ),
            K::OfferRound {
                pending,
                running,
                blocked,
                commands,
            } => (
                String::new(),
                String::new(),
                format!(
                    "pending={pending} running={running} blocked={blocked} commands={commands}"
                ),
            ),
            K::JobSubmitted { job, tenant: t } => {
                tenant = t.index().to_string();
                (String::new(), String::new(), format!("job={}", job.index()))
            }
            K::JobCompleted { job, tenant: t } => {
                tenant = t.index().to_string();
                (String::new(), String::new(), format!("job={}", job.index()))
            }
            K::Launch {
                task,
                job,
                tenant: t,
                node,
                attempt,
                speculative,
                use_gpu,
                locality,
                reason,
            } => {
                tenant = t.index().to_string();
                (
                    fmt_task(task),
                    node.index().to_string(),
                    format!(
                        "reason={reason} locality={} attempt={attempt} speculative={speculative} gpu={use_gpu} job={}",
                        locality.label(),
                        job.index()
                    ),
                )
            }
            K::KillRequeue { task, node } => {
                (fmt_task(task), node.index().to_string(), String::new())
            }
            K::OomTaskKill {
                task,
                node,
                pressure_pct,
            } => (
                fmt_task(task),
                node.index().to_string(),
                format!("pressure_pct={pressure_pct}"),
            ),
            K::ExecutorLost {
                node,
                victims,
                pressure_pct,
            } => (
                String::new(),
                node.index().to_string(),
                format!("victims={victims} pressure_pct={pressure_pct}"),
            ),
            K::SpeculationFlagged { task } => (fmt_task(task), String::new(), String::new()),
            K::Aborted { cause, task } => (
                task.as_ref().map(fmt_task).unwrap_or_default(),
                String::new(),
                format!("{cause:?}"),
            ),
            K::AuditViolation { check, detail } => {
                (String::new(), String::new(), format!("{check}: {detail}"))
            }
            K::FaultInjected { node, fault } => (
                String::new(),
                node.index().to_string(),
                format!("fault={fault}"),
            ),
            K::NodeSuspect { node, age } => (
                String::new(),
                node.index().to_string(),
                format!("age_s={:.6}", age.as_secs_f64()),
            ),
            K::NodeDead { node, age } => (
                String::new(),
                node.index().to_string(),
                format!("age_s={:.6}", age.as_secs_f64()),
            ),
            K::NodeRecovered { node } => (String::new(), node.index().to_string(), String::new()),
            K::LineageRecompute { stage, node, tasks } => (
                String::new(),
                node.index().to_string(),
                format!("stage={} tasks={tasks}", stage.index()),
            ),
            K::NodeProvisioned { node } => (String::new(), node.index().to_string(), String::new()),
            K::NodeDecommissioned { node } => {
                (String::new(), node.index().to_string(), String::new())
            }
            K::PreemptionNotice { node, notice } => (
                String::new(),
                node.index().to_string(),
                format!("notice_s={:.6}", notice.as_secs_f64()),
            ),
        };
        let _ = writeln!(
            out,
            "{:.6},{},{},{},{},{},{}",
            e.at.as_secs_f64(),
            e.round,
            e.code(),
            task,
            node,
            tenant,
            escape(&detail)
        );
    }
    out
}

/// One CSV row per monitor sample of one metric:
/// `node,time_s,value`.
pub fn utilization_csv(report: &RunReport, key: MetricKey) -> String {
    let mut out = String::from("node,time_s,value\n");
    for i in 0..report.monitor.len() {
        for (t, v) in report.monitor.history(NodeId(i), key).points() {
            let _ = writeln!(out, "{},{:.6},{:.6}", i, t.as_secs_f64(), v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breakdown::TaskBreakdown;
    use crate::record::{AttemptOutcome, TaskRecord};
    use crate::report::JobOutcome;
    use rupam_cluster::monitor::{HeartbeatSnapshot, NodeMetrics};
    use rupam_cluster::{ClusterSpec, ResourceMonitor};
    use rupam_dag::{JobId, Locality, StageId, TaskRef};
    use rupam_simcore::time::{SimDuration, SimTime};
    use rupam_simcore::units::ByteSize;

    fn report() -> RunReport {
        let mut breakdown = TaskBreakdown::new();
        breakdown.add(BreakdownCategory::Compute, SimDuration::from_secs(2));
        let mut monitor = ResourceMonitor::new(&ClusterSpec::two_node_motivation());
        monitor.ingest(HeartbeatSnapshot {
            node: NodeId(0),
            at: SimTime::from_secs_f64(1.0),
            metrics: NodeMetrics {
                cpu_util: 0.5,
                ..NodeMetrics::default()
            },
        });
        RunReport {
            app_name: "t".into(),
            scheduler_name: "s".into(),
            seed: 0,
            makespan: SimDuration::from_secs(10),
            completed: true,
            jobs: vec![JobOutcome {
                job: JobId(0),
                tenant: rupam_dag::TenantId(0),
                name: "t".into(),
                submitted_at: SimTime::ZERO,
                completed_at: Some(SimTime::from_secs_f64(10.0)),
            }],
            records: vec![TaskRecord {
                task: TaskRef {
                    stage: StageId(1),
                    index: 2,
                },
                job: JobId(0),
                template_key: "demo, with comma".into(),
                attempt: 0,
                node: NodeId(1),
                speculative: false,
                locality: Locality::NodeLocal,
                launched_at: SimTime::from_secs_f64(1.0),
                finished_at: SimTime::from_secs_f64(3.0),
                outcome: AttemptOutcome::Success,
                breakdown,
                peak_mem: ByteSize::mib(100),
                used_gpu: false,
            }],
            monitor,
            oom_failures: 0,
            executor_losses: 0,
            speculative_launched: 0,
            speculative_wins: 0,
            faults: crate::report::FaultSummary::default(),
            cost: crate::report::CostSummary::default(),
        }
    }

    #[test]
    fn records_csv_shape() {
        let csv = records_csv(&report());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2, "header + one record");
        let header_cols = lines[0].split(',').count();
        // the quoted template field contains a comma — count on the header
        assert_eq!(header_cols, 13 + BreakdownCategory::ALL.len());
        assert!(lines[1].contains("\"demo, with comma\""));
        assert!(lines[1].contains("NODE_LOCAL"));
        assert!(lines[1].contains("Success"));
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a,b"), "\"a,b\"");
        assert_eq!(escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn trace_csv_shape() {
        use crate::trace::{LaunchReason, TraceBuffer, TraceEvent, TraceEventKind};
        let mut trace = TraceBuffer::new(16);
        trace.record(TraceEvent {
            at: SimTime::from_secs_f64(0.5),
            round: 1,
            kind: TraceEventKind::Launch {
                task: TaskRef {
                    stage: StageId(2),
                    index: 3,
                },
                job: JobId(0),
                tenant: rupam_dag::TenantId(4),
                node: NodeId(1),
                attempt: 0,
                speculative: false,
                use_gpu: true,
                locality: Locality::NodeLocal,
                reason: LaunchReason::SafetyValve,
            },
        });
        trace.record(TraceEvent {
            at: SimTime::from_secs_f64(1.0),
            round: 2,
            kind: TraceEventKind::AuditViolation {
                check: "memory-feasibility",
                detail: "claim, with comma".into(),
            },
        });
        let csv = trace_csv(&trace);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], TRACE_CSV_SCHEMA);
        assert_eq!(lines[1], "time_s,round,event,task,node,tenant,detail");
        assert_eq!(lines.len(), 4);
        assert!(lines[2].starts_with("0.500000,1,launch,2.3,1,4,"));
        assert!(
            lines[3].contains(",,\"memory-feasibility"),
            "tenant column stays empty on non-tenant events"
        );
        assert!(lines[2].contains("reason=safety-valve"));
        assert!(lines[2].contains("locality=NODE_LOCAL"));
        assert!(lines[3].contains("audit-violation"));
        assert!(lines[3].contains("\"memory-feasibility: claim, with comma\""));
    }

    #[test]
    fn trace_csv_carries_fault_events_and_heartbeat_age() {
        use crate::trace::{TraceBuffer, TraceEvent, TraceEventKind};
        let mut trace = TraceBuffer::new(16);
        let ev = |kind| TraceEvent {
            at: SimTime::from_secs_f64(2.0),
            round: 3,
            kind,
        };
        trace.record(ev(TraceEventKind::FaultInjected {
            node: NodeId(2),
            fault: "crash",
        }));
        trace.record(ev(TraceEventKind::NodeSuspect {
            node: NodeId(2),
            age: SimDuration::from_secs_f64(4.5),
        }));
        trace.record(ev(TraceEventKind::NodeDead {
            node: NodeId(2),
            age: SimDuration::from_secs_f64(11.0),
        }));
        trace.record(ev(TraceEventKind::NodeRecovered { node: NodeId(2) }));
        trace.record(ev(TraceEventKind::LineageRecompute {
            stage: StageId(1),
            node: NodeId(2),
            tasks: 4,
        }));
        let csv = trace_csv(&trace);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], TRACE_CSV_SCHEMA);
        assert_eq!(lines.len(), 7);
        assert!(lines[2].contains("fault-injected") && lines[2].contains("fault=crash"));
        assert!(lines[3].contains("node-suspect") && lines[3].contains("age_s=4.500000"));
        assert!(lines[4].contains("node-dead") && lines[4].contains("age_s=11.000000"));
        assert!(lines[5].contains("node-recovered"));
        assert!(lines[6].contains("lineage-recompute") && lines[6].contains("stage=1 tasks=4"));
    }

    #[test]
    fn utilization_csv_shape() {
        let csv = utilization_csv(&report(), MetricKey::CpuUtil);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "node,time_s,value");
        assert_eq!(lines.len(), 2);
        assert!(lines[1].starts_with("0,1.000000,0.5"));
    }
}
