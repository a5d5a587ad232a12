//! Beyond-paper: the cost-vs-JCT Pareto frontier under an elastic spot
//! tier.
//!
//! The paper's Hydra is a fixed fleet; real deployments rent churning
//! capacity. This experiment puts the four weakest hydra nodes in a
//! cheap spot pool whose price walks a seeded OU process, and runs a
//! contended multi-tenant burst under every [`SpotPolicy`] — the
//! fixed-fleet control (`on-demand-only`), unconditional spot use
//! (`greedy`) and price-capped spot use (`on-demand-fallback`) — each
//! with the dispatcher both **risk-aware** (the default
//! `spot_risk_penalty`, which discounts a node's rank score by its
//! pool's current per-check preemption probability) and **risk-blind**
//! (`spot_risk_penalty = 0.0`, the ablation: spot nodes rank purely on
//! capability).
//!
//! Two dimensionless ratios feed the `BENCH_scheduler.json` regression
//! gate:
//!
//! * [`spot_resilience`] — fixed-fleet makespan over greedy-churn
//!   makespan: elastic capacity must keep paying for itself despite
//!   preemptions (≥ 1 means the spot tier still speeds the burst up);
//! * [`spot_cost_ratio`] — risk-blind dollars over risk-aware dollars
//!   under the greedy policy: pricing preemption risk into placement
//!   must not cost more than ignoring it.
//!
//! Both are simulated-time ratios — deterministic and
//! machine-independent, like the `degraded_resilience_*` rows.

use std::fmt::Write as _;

use rupam::config::RupamConfig;
use rupam_cluster::ClusterSpec;
use rupam_dag::MergedStream;
use rupam_elastic::{ElasticConfig, SpotPolicy};
use rupam_exec::SimConfig;
use rupam_simcore::stats::mean;
use rupam_workloads::Workload;

use crate::harness::{run_stream_cfg, Sched};
use crate::multitenant::build_stream;

/// All procurement policies, control first.
pub const POLICIES: [SpotPolicy; 3] = [
    SpotPolicy::OnDemandOnly,
    SpotPolicy::Greedy,
    SpotPolicy::OnDemandFallback,
];

/// The experiment's elastic script: the four weakest hydra nodes in one
/// volatile spot pool, scaling up on any backlog and churning hard
/// enough that placement choices are actually exposed to preemptions.
pub fn spot_config(policy: SpotPolicy) -> SimConfig {
    let mut config = churn_config(policy);
    config.elastic.pools[0].preempt_slope = 0.5;
    config
}

/// The same pool at the stock preemption slope, so drains come mostly
/// from the base rate rather than price spikes: the elastic integration
/// tests' churn script and a digest-gate row.
pub fn churn_config(policy: SpotPolicy) -> SimConfig {
    let mut elastic = ElasticConfig::spot_tail(12, 4, policy);
    elastic.check_secs = 2.0;
    elastic.scale_up_backlog = 0.0;
    elastic.scale_down_idle_secs = 10.0;
    elastic.pools[0].volatility = 0.08;
    elastic.pools[0].preempt_base = 0.02;
    SimConfig::with_elastic(elastic)
}

/// The contended burst: six tenants arriving ~2 s apart, enough backlog
/// that the controller provisions the whole spot tail.
pub fn burst(cluster: &ClusterSpec, seed: u64) -> MergedStream {
    build_stream(
        cluster,
        &[
            Workload::TeraSort,
            Workload::Sql,
            Workload::PageRank,
            Workload::KMeans,
            Workload::TeraSort,
            Workload::TriangleCount,
        ],
        2.0,
        seed,
    )
}

/// The risk-blind ablation: RUPAM with the spot-risk discount disabled.
pub fn risk_blind() -> Sched {
    Sched::RupamWith(RupamConfig {
        spot_risk_penalty: 0.0,
        ..RupamConfig::default()
    })
}

/// One (policy, dispatcher-variant) point of the Pareto frontier,
/// averaged over the seeds.
#[derive(Clone, Debug)]
pub struct SpotCell {
    /// Procurement policy code (`on-demand-only`, `greedy`, …).
    pub policy: &'static str,
    /// `risk-aware` or `risk-blind`.
    pub variant: &'static str,
    /// Mean makespan, seconds.
    pub makespan_secs: f64,
    /// Mean job completion time across all completed jobs and runs,
    /// seconds.
    pub jct_secs: f64,
    /// Mean total dollars per run (on-demand + spot, integrated against
    /// the actual price path).
    pub cost: f64,
    /// Mean spot dollars per run.
    pub spot_cost: f64,
    /// Preemption drains summed over all runs.
    pub preemptions: usize,
    /// Spot provisions summed over all runs.
    pub provisions: usize,
    /// Runs (out of the seeds given) that completed all work.
    pub completed: usize,
    /// Seeds attempted.
    pub runs: usize,
}

fn run_cell(
    cluster: &ClusterSpec,
    sched: &Sched,
    variant: &'static str,
    policy: SpotPolicy,
    seeds: &[u64],
) -> SpotCell {
    let config = spot_config(policy);
    let reports: Vec<_> = seeds
        .iter()
        .map(|&s| run_stream_cfg(cluster, &burst(cluster, s), sched, s, &config))
        .collect();
    let makespans: Vec<f64> = reports.iter().map(|r| r.makespan.as_secs_f64()).collect();
    let jcts: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.jobs.iter())
        .filter_map(|j| j.jct())
        .map(|d| d.as_secs_f64())
        .collect();
    let costs: Vec<f64> = reports.iter().map(|r| r.cost.total_cost()).collect();
    let spot_costs: Vec<f64> = reports.iter().map(|r| r.cost.spot_cost).collect();
    SpotCell {
        policy: policy.code(),
        variant,
        makespan_secs: mean(&makespans),
        jct_secs: mean(&jcts),
        cost: mean(&costs),
        spot_cost: mean(&spot_costs),
        preemptions: reports.iter().map(|r| r.cost.preemptions).sum(),
        provisions: reports.iter().map(|r| r.cost.provisions).sum(),
        completed: reports.iter().filter(|r| r.completed).count(),
        runs: seeds.len(),
    }
}

/// Run the full Pareto grid: every policy × {risk-aware, risk-blind}.
pub fn run(cluster: &ClusterSpec, seeds: &[u64]) -> Vec<SpotCell> {
    let variants = [(Sched::Rupam, "risk-aware"), (risk_blind(), "risk-blind")];
    POLICIES
        .iter()
        .flat_map(|&policy| {
            variants
                .iter()
                .map(move |(sched, variant)| run_cell(cluster, sched, variant, policy, seeds))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Fixed-fleet mean makespan over greedy-churn mean makespan, both
/// risk-aware. ≥ 1 means the spot tier speeds the contended burst up
/// even though it churns.
pub fn spot_resilience(cells: &[SpotCell]) -> Option<f64> {
    let pick = |policy: &str| {
        cells
            .iter()
            .find(|c| c.policy == policy && c.variant == "risk-aware")
            .map(|c| c.makespan_secs)
    };
    let (fixed, greedy) = (pick("on-demand-only")?, pick("greedy")?);
    (greedy > 0.0).then(|| fixed / greedy)
}

/// Risk-blind mean dollars over risk-aware mean dollars under the
/// greedy policy. ≥ 1 means pricing preemption risk into placement is
/// at worst cost-neutral.
pub fn spot_cost_ratio(cells: &[SpotCell]) -> Option<f64> {
    let pick = |variant: &str| {
        cells
            .iter()
            .find(|c| c.policy == "greedy" && c.variant == variant)
            .map(|c| c.cost)
    };
    let (blind, aware) = (pick("risk-blind")?, pick("risk-aware")?);
    (aware > 0.0).then(|| blind / aware)
}

/// The two gate ratios for `BENCH_scheduler.json`, computed from one
/// grid run.
pub fn spot_gate(cluster: &ClusterSpec, seeds: &[u64]) -> Vec<(String, f64)> {
    let cells = run(cluster, seeds);
    let mut out = Vec::new();
    if let Some(r) = spot_resilience(&cells) {
        out.push(("resilience".to_string(), r));
    }
    if let Some(r) = spot_cost_ratio(&cells) {
        out.push(("cost_ratio".to_string(), r));
    }
    out
}

/// Render the grid as a markdown Pareto table.
pub fn render(cells: &[SpotCell]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| policy | dispatcher | makespan (s) | mean JCT (s) | cost ($) | spot ($) | provisions | preemptions | completed |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|");
    for c in cells {
        let _ = writeln!(
            out,
            "| {} | {} | {:.1} | {:.1} | {:.4} | {:.4} | {} | {} | {}/{} |",
            c.policy,
            c.variant,
            c.makespan_secs,
            c.jct_secs,
            c.cost,
            c.spot_cost,
            c.provisions,
            c.preemptions,
            c.completed,
            c.runs
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_policy_and_loses_nothing() {
        let cluster = ClusterSpec::hydra();
        let cells = run(&cluster, &[42]);
        assert_eq!(cells.len(), POLICIES.len() * 2);
        for c in &cells {
            assert_eq!(c.completed, c.runs, "{} {} lost work", c.policy, c.variant);
            assert!(c.makespan_secs > 0.0);
            assert!(c.cost > 0.0, "every run bills its on-demand fleet");
        }
        // the control never touches spot capacity
        for c in cells.iter().filter(|c| c.policy == "on-demand-only") {
            assert_eq!(c.provisions, 0);
            assert_eq!(c.preemptions, 0);
            assert_eq!(c.spot_cost, 0.0);
        }
        // the greedy tier actually churns
        let greedy: Vec<_> = cells.iter().filter(|c| c.policy == "greedy").collect();
        assert!(greedy.iter().all(|c| c.provisions > 0));
        let table = render(&cells);
        assert!(table.contains("greedy") && table.contains("risk-blind"));
    }

    #[test]
    fn gate_ratios_are_deterministic() {
        let cluster = ClusterSpec::hydra();
        let a = spot_gate(&cluster, &[42]);
        let b = spot_gate(&cluster, &[42]);
        assert_eq!(a, b, "simulated ratios must be reproducible");
        assert_eq!(a.len(), 2);
        for (label, ratio) in &a {
            assert!(ratio.is_finite() && *ratio > 0.0, "{label}: {ratio}");
        }
    }
}
