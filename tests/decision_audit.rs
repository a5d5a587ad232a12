//! Integration tests of the decision-trace / invariant-audit layer: the
//! real schedulers must run clean under the auditor, every launch must
//! carry a reason, runs must be bit-identical on replay, and a
//! deliberately corrupted scheduler must be caught.

use rupam_bench::multitenant::{build_stream, MEAN_GAP_SECS, TENANTS};
use rupam_bench::{run_stream_observed, run_workload_observed, Sched};
use rupam_cluster::ClusterSpec;
use rupam_dag::app::{Application, JobId, Stage, StageId};
use rupam_exec::scheduler::{Command, OfferInput, Scheduler};
use rupam_exec::{simulate_observed, AuditConfig, SimConfig, SimInput, SimOptions};
use rupam_metrics::record::TaskRecord;
use rupam_metrics::trace::TraceEventKind;
use rupam_simcore::time::{SimDuration, SimTime};
use rupam_simcore::units::ByteSize;
use rupam_simcore::RngFactory;
use rupam_workloads::Workload;

/// Both production schedulers satisfy every launch invariant on real
/// workloads, with the auditor running on every offer round.
#[test]
fn production_schedulers_run_clean_under_audit() {
    let cluster = ClusterSpec::hydra();
    for w in [Workload::TeraSort, Workload::PageRank, Workload::Sql] {
        for sched in [Sched::Spark, Sched::Rupam] {
            let (report, obs) =
                run_workload_observed(&cluster, w, &sched, 101, &SimOptions::audited());
            assert!(
                obs.violations.is_empty(),
                "{} on {:?}: {:?}",
                sched.label(),
                w,
                obs.violations
            );
            let trace = obs.trace.as_ref().expect("audited runs keep a trace");
            // every launch event carries a machine-readable reason code
            let launches = trace
                .iter()
                .filter(|e| matches!(e.kind, TraceEventKind::Launch { .. }))
                .count();
            assert!(launches > 0, "{} on {:?} never launched", sched.label(), w);
            let reasons: usize = trace.reason_histogram().iter().map(|(_, n)| n).sum();
            assert_eq!(reasons, launches);
            assert!(report.completed, "{} on {:?} must finish", sched.label(), w);
        }
    }
}

/// Same cluster, workload and seed ⇒ identical reports and identical
/// trace digests, for both schedulers. The digest covers every event
/// ever recorded (even ones evicted from the ring), so equal digests
/// mean the two runs took the same decisions in the same order.
#[test]
fn replays_are_bit_identical() {
    let cluster = ClusterSpec::hydra();
    for sched in [Sched::Spark, Sched::Rupam] {
        let run = || {
            run_workload_observed(
                &cluster,
                Workload::KMeans,
                &sched,
                202,
                &SimOptions::audited(),
            )
        };
        let (a, obs_a) = run();
        let (b, obs_b) = run();
        assert_eq!(a.makespan, b.makespan, "{} makespan drifted", sched.label());
        assert_eq!(a.records.len(), b.records.len());
        assert_eq!(a.oom_failures, b.oom_failures);
        assert_eq!(a.executor_losses, b.executor_losses);
        assert_eq!(a.speculative_launched, b.speculative_launched);
        let (ta, tb) = (obs_a.trace.unwrap(), obs_b.trace.unwrap());
        assert_eq!(ta.recorded(), tb.recorded());
        assert_eq!(
            ta.digest(),
            tb.digest(),
            "{} decision traces diverged",
            sched.label()
        );
    }
}

/// A 4-tenant online stream runs audit-clean (including the no-launch-
/// before-arrival invariant) under all three schedulers, and every
/// tenant gets a completion time.
#[test]
fn multi_tenant_stream_runs_clean_under_audit() {
    let cluster = ClusterSpec::hydra();
    let stream = build_stream(&cluster, &TENANTS, MEAN_GAP_SECS, 101);
    assert!(stream.jobs.len() >= 4);
    for sched in [Sched::Fifo, Sched::Spark, Sched::Rupam] {
        let (report, obs) =
            run_stream_observed(&cluster, &stream, &sched, 101, &SimOptions::audited());
        assert!(
            obs.violations.is_empty(),
            "{} violated invariants on the stream: {:?}",
            sched.label(),
            obs.violations
        );
        assert!(
            report.completed,
            "{} left the stream unfinished",
            sched.label()
        );
        assert_eq!(report.jobs.len(), stream.jobs.len());
        for j in &report.jobs {
            let jct = j.jct().unwrap_or_else(|| {
                panic!("{}: job {} has no completion time", sched.label(), j.name)
            });
            assert!(jct > SimDuration::ZERO);
        }
        assert!(report.jct_p95() >= report.jct_mean());
        // no tenant's tasks may launch before it arrived
        let trace = obs.trace.as_ref().expect("audited runs keep a trace");
        for e in trace.iter() {
            if let TraceEventKind::Launch { job, .. } = e.kind {
                assert!(
                    e.at >= stream.jobs[job.index()].arrival,
                    "{}: launch for job {job} at {} precedes its arrival",
                    sched.label(),
                    e.at
                );
            }
        }
    }
}

/// Same stream, same seed ⇒ byte-identical decision traces: the
/// multi-tenant path preserves the replay guarantee.
#[test]
fn multi_tenant_replays_are_bit_identical() {
    let cluster = ClusterSpec::hydra();
    for sched in [Sched::Spark, Sched::Rupam] {
        let run = || {
            let stream = build_stream(&cluster, &TENANTS, MEAN_GAP_SECS, 303);
            run_stream_observed(&cluster, &stream, &sched, 303, &SimOptions::audited())
        };
        let (a, obs_a) = run();
        let (b, obs_b) = run();
        assert_eq!(a.makespan, b.makespan, "{} makespan drifted", sched.label());
        assert_eq!(a.jct_secs(), b.jct_secs(), "{} JCTs drifted", sched.label());
        let (ta, tb) = (obs_a.trace.unwrap(), obs_b.trace.unwrap());
        assert_eq!(ta.recorded(), tb.recorded());
        assert_eq!(
            ta.digest(),
            tb.digest(),
            "{} multi-tenant decision traces diverged",
            sched.label()
        );
    }
}

/// A scheduler that mirrors its inner scheduler's decisions but
/// duplicates the first launch of the round — a double launch the
/// engine would otherwise silently drop on the floor.
struct DoubleLauncher<S>(S, bool);

impl<S: Scheduler> Scheduler for DoubleLauncher<S> {
    fn name(&self) -> &str {
        "double-launcher"
    }
    fn executor_memory(&self, cluster: &ClusterSpec, node: rupam_cluster::NodeId) -> ByteSize {
        self.0.executor_memory(cluster, node)
    }
    fn decision_cost(&self) -> SimDuration {
        self.0.decision_cost()
    }
    fn on_app_start(&mut self, app: &Application, cluster: &ClusterSpec) {
        self.0.on_app_start(app, cluster);
    }
    fn on_stage_ready(&mut self, stage: &Stage, now: SimTime) {
        self.0.on_stage_ready(stage, now);
    }
    fn on_job_submitted(&mut self, job: JobId, stages: &[StageId], now: SimTime) {
        self.0.on_job_submitted(job, stages, now);
    }
    fn on_task_finished(&mut self, record: &TaskRecord, now: SimTime) {
        self.0.on_task_finished(record, now);
    }
    fn offer_round(&mut self, input: &OfferInput<'_>) -> Vec<Command> {
        let mut cmds = self.0.offer_round(input);
        if !self.1 {
            if let Some(first @ Command::Launch { .. }) = cmds.first().cloned() {
                self.1 = true;
                cmds.push(first);
            }
        }
        cmds
    }
}

/// Meta-test: the auditor is not a rubber stamp — corrupt one decision
/// and it must fire.
#[test]
fn auditor_flags_a_corrupted_decision() {
    let cluster = ClusterSpec::hydra();
    let (app, layout) = Workload::TeraSort.build(&cluster, &RngFactory::new(7));
    let config = SimConfig::default();
    let input = SimInput {
        cluster: &cluster,
        app: &app,
        layout: &layout,
        config: &config,
        seed: 7,
    };
    let mut sched = DoubleLauncher(rupam::RupamScheduler::with_defaults(), false);
    let opts = SimOptions {
        trace_capacity: None,
        audit: Some(AuditConfig::default()),
    };
    let (_, obs) = simulate_observed(&input, &mut sched, &opts);
    assert!(
        obs.violations.iter().any(|v| v.check == "double-launch"),
        "auditor missed the duplicated launch: {:?}",
        obs.violations
    );
}

/// An engine whose fresh list misses one task: mirrors the inner
/// scheduler, but drops the last `pending_fresh` entry of the first
/// round that has any.
struct FreshDropper<S>(S, bool);

impl<S: Scheduler> Scheduler for FreshDropper<S> {
    fn name(&self) -> &str {
        "fresh-dropper"
    }
    fn executor_memory(&self, cluster: &ClusterSpec, node: rupam_cluster::NodeId) -> ByteSize {
        self.0.executor_memory(cluster, node)
    }
    fn on_app_start(&mut self, app: &Application, cluster: &ClusterSpec) {
        self.0.on_app_start(app, cluster);
    }
    fn on_task_finished(&mut self, record: &TaskRecord, now: SimTime) {
        self.0.on_task_finished(record, now);
    }
    fn offer_round(&mut self, input: &OfferInput<'_>) -> Vec<Command> {
        if self.1 || input.pending_fresh.is_empty() {
            return self.0.offer_round(input);
        }
        self.1 = true;
        let mut fresh = input.pending_fresh.clone();
        fresh.pop();
        self.0.offer_round(&OfferInput {
            now: input.now,
            cluster: input.cluster,
            app: input.app,
            nodes: input.nodes.clone(),
            pending: input.pending.clone(),
            speculatable: input.speculatable.clone(),
            job_arrivals: input.job_arrivals.clone(),
            job_tenants: input.job_tenants.clone(),
            changed: input.changed.clone(),
            pending_fresh: fresh,
        })
    }
}

/// Meta-test: the fresh-list warranty check is not a rubber stamp — an
/// engine that forgets one newly pending task must trip it (debug
/// builds, where the check runs every round).
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "pending_fresh warranty broken")]
fn dropped_fresh_entry_trips_the_warranty_check() {
    let cluster = ClusterSpec::hydra();
    let (app, layout) = Workload::TeraSort.build(&cluster, &RngFactory::new(7));
    let config = SimConfig::default();
    let input = SimInput {
        cluster: &cluster,
        app: &app,
        layout: &layout,
        config: &config,
        seed: 7,
    };
    let mut sched = FreshDropper(rupam::RupamScheduler::with_defaults(), false);
    simulate_observed(&input, &mut sched, &SimOptions::default());
}
