//! The capacity controller: spot prices, scaling and cost accounting.
//!
//! Runs off the periodic [`Event::ElasticCheck`] calendar event (absent
//! without spot pools — the strict no-op guarantee mirrors the fault
//! subsystem's). Each check accrues per-node-second cost at the prices
//! held since the previous check, then runs the shared
//! [`rupam_elastic::Controller`] (price steps on the dedicated
//! `engine/elastic` RNG stream, per-pool scaling targets,
//! price-correlated preemption draws) and applies its actions. What is
//! engine-specific is how: provisioning latency, cost accrual, and
//! [`Event::PreemptFire`] events. Preempted nodes get a drain notice
//! ([`EngineEvent::PreemptionNotice`]) and are then reclaimed through
//! the same node-loss path scripted crashes use — running attempts are
//! killed and re-pended, lineage recompute re-pends lost map outputs,
//! so no task is ever silently lost to churn.

use rand::rngs::StdRng;

use rupam_cluster::{ClusterSpec, NodeId};
use rupam_elastic::{Controller, ElasticConfig, FleetNode, ScalingAction};
use rupam_metrics::report::CostSummary;
use rupam_simcore::source::EventSource;
use rupam_simcore::time::{SimDuration, SimTime};

use super::driver::{Engine, Event};
use super::events::EngineEvent;
use super::state::NodeRt;
use crate::control::ControlPlane;

/// Runtime state of the capacity controller.
pub(crate) struct ElasticRt {
    /// The shared controller: prices, idle tracking, scaling, draws.
    pub(crate) ctl: Controller,
    /// Cost has been accrued up to this instant.
    last_accrual: SimTime,
    /// The run's cost ledger.
    pub(crate) cost: CostSummary,
}

impl ElasticRt {
    pub(crate) fn new(cfg: &ElasticConfig, cluster: &ClusterSpec, rng: StdRng) -> Self {
        ElasticRt {
            ctl: Controller::new(cfg, cluster, rng),
            last_accrual: SimTime::ZERO,
            cost: CostSummary::default(),
        }
    }

    /// Accrue per-node-second cost over `[last_accrual, now]` at the
    /// prices held since the previous step. Provisioned nodes bill
    /// whether busy or idle — that is the point of scale-down.
    pub(crate) fn accrue(&mut self, nodes: &[NodeRt], cfg: &ElasticConfig, now: SimTime) {
        let dt = now.since(self.last_accrual).as_secs_f64();
        self.last_accrual = now;
        if dt <= 0.0 {
            return;
        }
        for (i, node) in nodes.iter().enumerate() {
            if !node.provisioned {
                continue;
            }
            match self.ctl.spot_price(NodeId(i)) {
                Some(price) => {
                    self.cost.spot_node_secs += dt;
                    self.cost.spot_cost += price / 3600.0 * dt;
                }
                None => {
                    self.cost.on_demand_node_secs += dt;
                    self.cost.on_demand_cost += cfg.on_demand_price / 3600.0 * dt;
                }
            }
        }
    }
}

impl<'a, 's, S: EventSource<Event>> Engine<'a, 's, S> {
    /// One controller check: accrue cost, run the shared controller,
    /// apply its actions, re-arm.
    pub(crate) fn elastic_check(&mut self) {
        let Some(mut el) = self.elastic.take() else {
            return;
        };
        let ecfg = &self.input.config.elastic;

        el.accrue(&self.state.nodes, ecfg, self.now);
        let fleet: Vec<FleetNode> = self
            .state
            .nodes
            .iter()
            .map(|n| FleetNode {
                provisioned: n.provisioned,
                down: n.crashed,
                draining: n.drain_deadline.is_some(),
                busy: !n.running.is_empty(),
            })
            .collect();
        let backlog = ControlPlane::backlog(self);
        let actions = el
            .ctl
            .check(ecfg, self.now, ecfg.scale_down_idle_secs, &fleet, backlog);
        // the actions need no view marks: an unprovisioned view was
        // blocked, so it is rebuilt every round, and the price step
        // marked every provisioned spot node
        self.ctl.offers().prices_stepped(&el.ctl, &fleet);
        for action in actions {
            match action {
                ScalingAction::Provision(node) => {
                    let rt = &mut self.state.nodes[node.index()];
                    rt.provisioned = true;
                    // provisioning latency: the node joins the fleet now
                    // (and starts billing) but accepts work only later
                    rt.blocked_until = rt
                        .blocked_until
                        .max(self.now + SimDuration::from_secs_f64(ecfg.provision_secs));
                    el.cost.provisions += 1;
                    self.publish(EngineEvent::NodeProvisioned { node });
                    self.need_offers = true;
                }
                ScalingAction::Decommission(node) => {
                    self.state.nodes[node.index()].provisioned = false;
                    el.cost.decommissions += 1;
                    self.publish(EngineEvent::NodeDecommissioned { node });
                    // the node's cache and any finished map outputs
                    // leave with it — same loss path as a crash, so
                    // lineage recompute keeps reducers correct
                    self.node_lost(node);
                }
                ScalingAction::Preempt { node, notice_secs } => {
                    self.begin_preemption(node, notice_secs);
                }
            }
        }

        if !self.ctl.all_done() && !self.aborted {
            self.source.schedule(
                self.now + SimDuration::from_secs_f64(ecfg.check_secs),
                Event::ElasticCheck,
            );
        }
        self.elastic = Some(el);
    }

    /// Accrue cost up to `now` and return the run's ledger (zero without
    /// spot pools). Called once at end of run.
    pub(crate) fn elastic_settle(&mut self) -> CostSummary {
        let cfg = self.input.config;
        match self.elastic.as_mut() {
            Some(el) => {
                el.accrue(&self.state.nodes, &cfg.elastic, self.now);
                el.cost
            }
            None => CostSummary::default(),
        }
    }
}
