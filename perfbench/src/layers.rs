//! Per-layer metrics shared by the workloads. Every invocation with
//! `--trace 1` prints the same set of names; a layer a workload does not
//! run reads 0, and its would-be times are printed as shares so that no
//! time reads a constant 0.

use crate::output::Output;
use crate::probe::CallStats;
use crate::stats::{percentile, OUTCOMES};

/// `exec.attempts.<outcome>` (per-run means) and `exec.attempt_yield`.
/// `unclassified` counts failed attempts whose outcome is not known.
pub fn emit_attempts(out: &mut Output, outcomes: &[u64; 7], unclassified: u64, runs: usize) {
    let all: u64 = outcomes.iter().sum::<u64>() + unclassified;
    out.metric(
        "exec.attempt_yield",
        outcomes[0] as f64 / all.max(1) as f64,
        "ratio",
    );
    for ((_, name), n) in OUTCOMES.iter().zip(outcomes) {
        out.metric(
            &format!("exec.attempts.{name}"),
            *n as f64 / runs as f64,
            "count",
        );
    }
}

/// The `core` metrics from what the scheduler boundary saw over `runs`
/// runs that took `host_ns` in all. Counts and totals are per-run means.
pub fn emit_core(out: &mut Output, c: &CallStats, host_ns: f64, db_entries: f64, runs: usize) {
    let per_run = |x: f64| x / runs as f64;
    let ms = |ns: u64| per_run(ns as f64) / 1e6;
    let rounds = c.offer_round.calls().max(1) as f64;
    let offer_us = c.offer_round.samples_us();
    let offer50 = percentile(&offer_us, 0.5);
    let offer99 = percentile(&offer_us, 0.99);
    out.metric(
        "core.offer_round.calls",
        per_run(offer99.samples as f64),
        "count",
    );
    out.metric(
        "core.offer_round.total_ms",
        ms(c.offer_round.total_ns()),
        "ms",
    );
    out.metric("core.offer_round.p50_us", offer50.value, "us");
    out.metric("core.offer_round.p99_us", offer99.value, "us");
    out.note("core.offer_round.samples", offer99.samples as f64, "count");
    out.metric(
        "core.pending_per_round",
        c.pending_sum as f64 / rounds,
        "count",
    );
    out.metric("core.pending_max", c.pending_max as f64, "count");
    out.metric(
        "core.launches_per_round",
        c.launches as f64 / rounds,
        "count",
    );
    out.metric(
        "core.empty_round_frac",
        c.empty_rounds as f64 / rounds,
        "ratio",
    );
    let fin99 = percentile(&c.on_task_finished.samples_us(), 0.99);
    out.metric(
        "core.on_task_finished.calls",
        per_run(fin99.samples as f64),
        "count",
    );
    out.metric(
        "core.on_task_finished.total_ms",
        ms(c.on_task_finished.total_ns()),
        "ms",
    );
    out.metric("core.on_task_finished.p99_us", fin99.value, "us");
    out.note(
        "core.on_task_finished.samples",
        fin99.samples as f64,
        "count",
    );
    out.note(
        "core.on_task_failed.total_ms",
        ms(c.on_task_failed.total_ns()),
        "ms",
    );
    out.metric(
        "core.on_task_failed.calls",
        per_run(c.on_task_failed.calls() as f64),
        "count",
    );
    let failed_share = c.on_task_failed.total_ns() as f64 / host_ns;
    out.metric("core.on_task_failed.share", failed_share, "ratio");
    out.metric(
        "core.on_stage_ready.total_ms",
        ms(c.on_stage_ready.total_ns()),
        "ms",
    );
    out.metric(
        "core.on_heartbeat.total_ms",
        ms(c.on_heartbeat.total_ns()),
        "ms",
    );
    out.metric(
        "core.scheduler_share",
        c.scheduler_ns() as f64 / host_ns,
        "ratio",
    );
    out.metric("core.db_entries", per_run(db_entries), "count");
    out.metric(
        "core.kills.quota_preempt",
        per_run(c.kills_quota_preempt as f64),
        "count",
    );
    out.metric(
        "core.kills.memory_straggler",
        per_run(c.kills_memory_straggler as f64),
        "count",
    );
}

/// The `exec` engine metrics of a workload that does not run the engine.
pub fn emit_exec_absent(out: &mut Output) {
    out.metric("exec.self_share", 0.0, "ratio");
    for name in [
        "offer_rounds",
        "nodes_per_round",
        "changed_per_round",
        "events.launch",
        "events.kill_requeue",
        "events.oom_task_kill",
        "events.executor_lost",
        "events.speculation_flagged",
    ] {
        out.metric(&format!("exec.{name}"), 0.0, "count");
    }
    out.metric("exec.changed_frac", 0.0, "ratio");
}

/// The serve-layer metrics of a workload that does not run the service.
pub fn emit_serve_absent(out: &mut Output) {
    out.metric("serve.offer_rounds", 0.0, "count");
    for name in [
        "driver_overhead_frac",
        "control_plane_busy_frac",
        "client_blocked_frac",
        "launch_drop_frac",
        "control_plane_efficiency",
        "start_frac",
    ] {
        out.metric(&format!("serve.{name}"), 0.0, "ratio");
    }
}
