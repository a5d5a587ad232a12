//! The fault-injection & recovery gate.
//!
//! Three properties, all non-negotiable (ISSUE 4 acceptance):
//!
//! 1. **Strict no-op** — an *empty* fault script produces byte-identical
//!    decision-trace digests to the plain default configuration, on
//!    every workload: the faults layer is invisible until scripted.
//! 2. **Replay determinism** — the same seed + the same chaos script
//!    (the committed `chaos-smoke.toml`) reproduce the same digest, and
//!    the dispatcher stays decision-identical *under faults* to the
//!    pinned digests the from-scratch rebuild reference produced.
//! 3. **No lost tasks** — every chaos run completes with an empty audit
//!    (the engine's terminal sweep reports any killed-but-never-
//!    relaunched task as a `lost-task` violation).
//!
//! Plus the meta-test: a hand-corrupted recovery decision (a launch
//! aimed at a detector-dead node) must trip the auditor.

use rupam_bench::digestgate::pinned;
use rupam_bench::{run_workload_observed, run_workload_observed_cfg, Sched};
use rupam_cluster::{ClusterSpec, NodeId};
use rupam_dag::app::{Application, StageId, StageKind};
use rupam_dag::task::{InputSource, TaskDemand, TaskTemplate};
use rupam_dag::{AppBuilder, TaskRef};
use rupam_exec::scheduler::{Command, NodeView, OfferInput, PendingTaskView};
use rupam_exec::{AuditConfig, InvariantAuditor, LaunchReason, SimConfig, SimOptions};
use rupam_faults::FaultScript;
use rupam_metrics::report::RunReport;
use rupam_simcore::time::{SimDuration, SimTime};
use rupam_simcore::units::ByteSize;
use rupam_workloads::Workload;

/// The committed CI chaos script — parsing it here also pins the TOML
/// dialect the README documents.
fn chaos_script() -> FaultScript {
    FaultScript::parse_toml(include_str!("../chaos-smoke.toml")).expect("chaos-smoke.toml parses")
}

fn digest(obs: &rupam_exec::SimObservation) -> u64 {
    obs.trace.as_ref().expect("trace enabled").digest()
}

/// Empty script ⇒ the faults layer never constructs a detector, never
/// schedules an event, never draws from its RNG stream: byte-identical
/// decisions to the default configuration, across the whole suite.
#[test]
fn empty_fault_script_is_a_strict_noop() {
    let cluster = ClusterSpec::hydra();
    let empty = SimConfig::with_faults(FaultScript::empty());
    for w in Workload::ALL {
        let (plain_rep, plain) =
            run_workload_observed(&cluster, w, &Sched::Rupam, 707, &SimOptions::audited());
        let (empty_rep, empty_obs) = run_workload_observed_cfg(
            &cluster,
            w,
            &Sched::Rupam,
            707,
            &SimOptions::audited(),
            &empty,
        );
        assert_eq!(
            digest(&plain),
            digest(&empty_obs),
            "{w:?}: empty fault script changed the decision trace"
        );
        assert_eq!(plain_rep.makespan, empty_rep.makespan);
        assert_eq!(
            empty_rep.faults,
            Default::default(),
            "{w:?}: spurious fault counters"
        );
    }
}

/// Same seed + same script ⇒ the same trace digest, twice over, with
/// every scripted fault kind actually firing.
#[test]
fn seeded_fault_runs_are_replay_deterministic() {
    let cluster = ClusterSpec::hydra();
    let config = SimConfig::with_faults(chaos_script());
    let (rep_a, obs_a) = run_workload_observed_cfg(
        &cluster,
        Workload::TeraSort,
        &Sched::Rupam,
        101,
        &SimOptions::audited(),
        &config,
    );
    let (rep_b, obs_b) = run_workload_observed_cfg(
        &cluster,
        Workload::TeraSort,
        &Sched::Rupam,
        101,
        &SimOptions::audited(),
        &config,
    );
    assert_eq!(digest(&obs_a), digest(&obs_b), "chaos replay diverged");
    assert_eq!(rep_a.makespan, rep_b.makespan);
    let f = &rep_a.faults;
    assert_eq!((f.crashes, f.restarts), (1, 1));
    assert_eq!((f.slowdowns, f.dropouts, f.flaky_windows), (1, 1, 1));
    assert!(
        f.deaths >= 1,
        "crash or dropout must cross the dead threshold"
    );
    assert!(
        f.readmissions >= 1,
        "restart/heartbeat resume must re-admit"
    );
    assert!(
        f.recoveries >= 1 && f.recovery_secs_total > 0.0,
        "lost work must be re-run: {f:?}"
    );
}

/// The `O(log n)` dispatcher must take the rebuild reference's pinned
/// decisions when nodes die, revive, and rankings shrink and re-grow
/// mid-run (`chaos/hydra/*/RUPAM/s303` in the golden file).
#[test]
fn incremental_path_matches_rebuild_under_faults() {
    let cluster = ClusterSpec::hydra();
    let config = SimConfig::with_faults(chaos_script());
    for w in [Workload::TeraSort, Workload::PageRank, Workload::Sql] {
        let (report, obs) = run_workload_observed_cfg(
            &cluster,
            w,
            &Sched::Rupam,
            303,
            &SimOptions::audited(),
            &config,
        );
        assert!(report.completed, "{w:?} did not complete");
        assert!(obs.violations.is_empty(), "{w:?}: {:?}", obs.violations);
        assert_eq!(
            Some(digest(&obs)),
            pinned(&format!("chaos/hydra/{}/RUPAM/s303", w.short())),
            "{w:?}: dispatcher decisions diverged from the pin under faults"
        );
    }
}

fn assert_no_lost_tasks(w: Workload, report: &RunReport, obs: &rupam_exec::SimObservation) {
    assert!(report.completed, "{w:?}: chaos run failed to complete");
    assert!(
        obs.violations.is_empty(),
        "{w:?}: audit violations (incl. lost-task sweep): {:?}",
        obs.violations
    );
}

/// Every workload of the suite survives the full chaos script with all
/// work completed and an empty audit — the terminal sweep would flag
/// any killed-but-never-relaunched task as `lost-task`.
#[test]
fn chaos_runs_lose_no_tasks_across_suite() {
    let cluster = ClusterSpec::hydra();
    let config = SimConfig::with_faults(chaos_script());
    for w in Workload::ALL {
        for sched in [Sched::Rupam, Sched::Spark, Sched::Fifo] {
            let (report, obs) = run_workload_observed_cfg(
                &cluster,
                w,
                &sched,
                505,
                &SimOptions::audited(),
                &config,
            );
            assert_no_lost_tasks(w, &report, &obs);
        }
    }
}

/// A crash every 3 s for two minutes, each node back 4 s later: map
/// outputs die and re-run while the reduce stages that read them still
/// have pending tasks. The runs must complete with an empty audit, and in
/// debug builds every offer round also checks the persistent offer state
/// against a from-scratch build — so a stale shuffle preference (a
/// re-run map output that did not refresh its consumers) fails here.
#[test]
fn crash_storm_recomputes_outputs_under_pending_reducers() {
    use rupam_faults::{FaultKind, FaultSpec};
    let cluster = ClusterSpec::hydra();
    let storm = (0..40u64).flat_map(|k| {
        let node = NodeId((k as usize * 5) % cluster.len());
        let at = |secs| SimTime::from_secs_f64(secs as f64);
        [
            FaultSpec {
                at: at(3 + 3 * k),
                node,
                kind: FaultKind::Crash,
            },
            FaultSpec {
                at: at(7 + 3 * k),
                node,
                kind: FaultKind::Restart,
            },
        ]
    });
    let config = SimConfig::with_faults(FaultScript::new(storm.collect()));
    for w in [Workload::TeraSort, Workload::TriangleCount] {
        let (report, obs) = run_workload_observed_cfg(
            &cluster,
            w,
            &Sched::Rupam,
            101,
            &SimOptions::audited(),
            &config,
        );
        assert_no_lost_tasks(w, &report, &obs);
        assert!(report.faults.map_outputs_recomputed > 0, "{w:?}");
    }
}

// ---- meta-test: a corrupted recovery decision must trip the auditor ----

fn tiny_app() -> Application {
    let mut b = AppBuilder::new("meta");
    let j = b.begin_job();
    b.add_stage(
        j,
        "s0",
        "meta/s0",
        StageKind::Result,
        vec![],
        vec![TaskTemplate {
            index: 0,
            input: InputSource::Generated,
            demand: TaskDemand::default(),
        }],
    );
    b.build()
}

fn node_view(id: NodeId, mem: ByteSize, dead: bool) -> NodeView {
    NodeView {
        node: id,
        executor_mem: mem,
        mem_in_use: ByteSize::ZERO,
        free_mem: mem,
        running: vec![],
        cpu_util: 0.0,
        net_util: 0.0,
        disk_util: 0.0,
        gpus_idle: 0,
        blocked: dead,
        heartbeat_age: if dead {
            SimDuration::from_secs(30)
        } else {
            SimDuration::ZERO
        },
        dead,
        suspect: false,
        tier: rupam_cluster::NodeTier::OnDemand,
        draining: false,
        preempt_risk: 0.0,
    }
}

/// A launch aimed at a node the failure detector declared dead is the
/// canonical corrupted recovery decision: the auditor must flag it even
/// though the scheduler itself claims the round was fine.
#[test]
fn corrupted_recovery_decision_trips_auditor() {
    let cluster = ClusterSpec::homogeneous(2);
    let app = tiny_app();
    let task = TaskRef {
        stage: StageId(0),
        index: 0,
    };
    let pending = vec![PendingTaskView {
        task,
        job: rupam_dag::app::JobId(0),
        template_key: app.stage(StageId(0)).template_key,
        stage_kind: app.stage(StageId(0)).kind,
        attempt_no: 1,
        peak_mem_hint: ByteSize::ZERO,
        gpu_capable: false,
        process_nodes: vec![],
        node_local: vec![],
    }];
    let input = OfferInput {
        now: SimTime::from_secs_f64(20.0),
        cluster: &cluster,
        app: &app,
        nodes: vec![
            node_view(NodeId(0), ByteSize::gib(8), false),
            node_view(NodeId(1), ByteSize::gib(8), true),
        ],
        pending,
        speculatable: vec![],
        job_arrivals: vec![SimTime::ZERO],
        job_tenants: vec![rupam_dag::TenantId(0)],
        changed: None,
        pending_fresh: vec![],
    };
    // "recover" the task by launching it straight back onto the corpse
    let corrupted = vec![Command::Launch {
        task,
        node: NodeId(1),
        use_gpu: false,
        speculative: false,
        reason: LaunchReason::FifoSlot,
    }];
    let mut auditor = InvariantAuditor::new(AuditConfig::default());
    let found = auditor.check_round(7, &input, &corrupted, vec![]);
    let codes: Vec<&str> = found.iter().map(|v| v.check).collect();
    assert!(
        codes.contains(&"dead-node-launch"),
        "auditor missed the dead-node launch: {codes:?}"
    );
    // the same decision on the live node is clean
    let fine = vec![Command::Launch {
        task,
        node: NodeId(0),
        use_gpu: false,
        speculative: false,
        reason: LaunchReason::FifoSlot,
    }];
    let mut auditor = InvariantAuditor::new(AuditConfig::default());
    assert!(
        auditor.check_round(8, &input, &fine, vec![]).is_empty(),
        "live-node launch must stay clean"
    );
}
