//! The fleet layer both hosts run: membership, health and capacity.
//!
//! RUPAM's resource manager ranks nodes against its heartbeat view of
//! them (PAPER.md §III). [`Fleet`] is that view: which nodes are part of
//! the active fleet, which are draining towards a preemption reclaim,
//! the heartbeat [`FailureDetector`] and the capacity controller with
//! its cost ledger. Every fleet rule is defined here once, as a
//! [`ControlPlane`] function over the host: a liveness beacon, the
//! detector round, node loss, the controller check and its actions, the
//! drain notice and its reclaim, and the fleet fields of every
//! [`NodeView`].
//!
//! What differs between the hosts is a [`ControlHost`] hook: stopping a
//! lost node's attempts and wiping its executor, what counts as down,
//! the joined-node gate (the engine's provisioning latency), how a drain
//! deadline is timed, how config seconds map onto host time, and how an
//! offer round is woken.

use rand::rngs::StdRng;

use rupam_cluster::{ClusterSpec, NodeId, NodeTier};
use rupam_elastic::{Controller, ElasticConfig, FleetNode, ScalingAction};
use rupam_faults::{FailureDetector, NodeHealth};
use rupam_metrics::record::AttemptOutcome;
use rupam_metrics::report::CostSummary;
use rupam_simcore::time::{SimDuration, SimTime};

use super::{ControlHost, ControlPlane};
use crate::config::SimConfig;
use crate::engine::EngineEvent;
use crate::scheduler::NodeView;

/// Fleet membership and health of one run.
pub struct Fleet<'a> {
    config: &'a ElasticConfig,
    /// Per node: part of the active fleet. On-demand nodes always are;
    /// spot nodes start outside it and churn under the controller. A node
    /// outside the fleet is blocked to the scheduler.
    provisioned: Vec<bool>,
    /// Per node: when an outstanding preemption notice reclaims it.
    /// Draining nodes accept no new work.
    drain_deadline: Vec<Option<SimTime>>,
    /// The RM's heartbeat failure detector, when armed.
    detector: Option<FailureDetector>,
    /// The capacity controller; `None` without spot pools.
    capacity: Option<Capacity>,
}

/// The capacity controller's runtime: the shared controller (prices,
/// idle tracking, scaling targets, preemption draws) and the run's cost
/// ledger.
struct Capacity {
    ctl: Controller,
    /// Cost has been accrued up to this instant.
    last_accrual: SimTime,
    cost: CostSummary,
}

impl<'a> Fleet<'a> {
    /// The fleet of `cluster` under `config`: its on-demand nodes, a
    /// failure detector when `watched`, and — with spot pools — a
    /// capacity controller drawing from `rng`.
    pub fn new(cluster: &ClusterSpec, config: &'a SimConfig, watched: bool, rng: StdRng) -> Self {
        let ecfg = &config.elastic;
        Fleet {
            config: ecfg,
            provisioned: (cluster.iter())
                .map(|(id, _)| ecfg.tier(id) == NodeTier::OnDemand)
                .collect(),
            drain_deadline: vec![None; cluster.len()],
            detector: watched
                .then(|| FailureDetector::new(cluster.len(), &config.faults, SimTime::ZERO)),
            capacity: (!ecfg.is_empty()).then(|| Capacity {
                ctl: Controller::new(ecfg, cluster, rng),
                last_accrual: SimTime::ZERO,
                cost: CostSummary::default(),
            }),
        }
    }

    /// Is the failure detector armed?
    pub fn watched(&self) -> bool {
        self.detector.is_some()
    }

    /// Is the capacity controller armed (the run has spot pools)?
    pub fn scaling(&self) -> bool {
        self.capacity.is_some()
    }

    /// Is `node` part of the active fleet?
    pub fn provisioned(&self, node: NodeId) -> bool {
        self.provisioned[node.index()]
    }

    /// Is a preemption notice outstanding on `node`?
    pub fn draining(&self, node: NodeId) -> bool {
        self.drain_deadline[node.index()].is_some()
    }

    /// Has `node`'s drain deadline come by `now`?
    pub fn drain_due(&self, node: NodeId, now: SimTime) -> bool {
        self.drain_deadline[node.index()].is_some_and(|d| d <= now)
    }

    /// Has the failure detector declared `node` dead?
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.detector.as_ref().is_some_and(|d| d.is_dead(node))
    }

    /// Time since `node`'s last heartbeat (zero without a detector).
    pub fn heartbeat_age(&self, node: NodeId, now: SimTime) -> SimDuration {
        (self.detector.as_ref()).map_or(SimDuration::ZERO, |d| d.age(node, now))
    }

    /// The cost ledger as accrued so far (zero without spot pools).
    pub fn cost(&self) -> CostSummary {
        self.capacity
            .as_ref()
            .map_or_else(CostSummary::default, |c| c.cost)
    }

    /// Fill the fleet fields of `view` at `now`; a node that is dead,
    /// outside the fleet or draining is blocked.
    pub(super) fn overlay(&self, view: &mut NodeView, now: SimTime) {
        let node = view.node;
        view.dead = self.is_dead(node);
        view.suspect =
            (self.detector.as_ref()).is_some_and(|d| d.health(node) == NodeHealth::Suspect);
        view.heartbeat_age = self.heartbeat_age(node, now);
        let provisioned = self.provisioned(node);
        (view.tier, view.preempt_risk) = match &self.capacity {
            Some(c) if provisioned => (c.ctl.tier_of(node), c.ctl.risk_of(node)),
            Some(c) => (c.ctl.tier_of(node), 0.0),
            None => (NodeTier::OnDemand, 0.0),
        };
        view.draining = self.draining(node);
        view.blocked |= view.dead || !provisioned || view.draining;
    }

    /// Accrue per-node-second cost over `[last_accrual, now]` at the
    /// prices held since the previous check. Provisioned nodes bill
    /// whether busy or idle — that is the point of scale-down.
    fn accrue(&mut self, now: SimTime) {
        let Some(cap) = self.capacity.as_mut() else {
            return;
        };
        let dt = now.since(cap.last_accrual).as_secs_f64();
        cap.last_accrual = now;
        if dt <= 0.0 {
            return;
        }
        for (i, _) in self.provisioned.iter().enumerate().filter(|(_, &p)| p) {
            match cap.ctl.spot_price(NodeId(i)) {
                Some(price) => {
                    cap.cost.spot_node_secs += dt;
                    cap.cost.spot_cost += price / 3600.0 * dt;
                }
                None => {
                    cap.cost.on_demand_node_secs += dt;
                    cap.cost.on_demand_cost += self.config.on_demand_price / 3600.0 * dt;
                }
            }
        }
    }
}

impl<'a> ControlPlane<'a> {
    /// The fleet: membership, health and capacity.
    pub fn fleet(&self) -> &Fleet<'a> {
        &self.fleet
    }

    /// Accrue cost up to `now` and return the run's ledger (zero without
    /// spot pools).
    pub fn cost_to(&mut self, now: SimTime) -> CostSummary {
        self.fleet.accrue(now);
        self.fleet.cost()
    }

    /// A liveness beacon from `node` reached the RM: the detector
    /// observes it, or — when it had declared the node dead — re-admits
    /// it. The dead view was blocked, so it is rebuilt next round
    /// without a mark.
    pub fn beacon<H: ControlHost<'a>>(host: &mut H, node: NodeId) {
        let now = host.now();
        let Some(det) = host.control_mut().fleet.detector.as_mut() else {
            return;
        };
        if det.is_dead(node) {
            det.revive(node, now);
            host.io().1.publish(EngineEvent::NodeRecovered { node });
            host.wake();
        } else {
            det.observe(node, now);
        }
    }

    /// One failure-detector round: evaluate the timeout thresholds. A
    /// node declared dead is lost; a suspect whose heartbeats caught up
    /// before the dead threshold never left the rankings, so nothing is
    /// recorded for it.
    pub fn detector_round<H: ControlHost<'a>>(host: &mut H) {
        let now = host.now();
        let Some(det) = host.control_mut().fleet.detector.as_mut() else {
            return;
        };
        for t in det.evaluate(now) {
            // every transition flips the node's suspect or dead flag
            let (ctl, mut io) = host.io();
            ctl.offers.node_dirty(t.node);
            let (node, age) = (t.node, t.age);
            match t.to {
                NodeHealth::Suspect => io.publish(EngineEvent::NodeSuspect { node, age }),
                NodeHealth::Dead => {
                    io.publish(EngineEvent::NodeDead { node, age });
                    // the driver abandons the node's executor: whether it
                    // is physically down or merely partitioned, its
                    // tasks and map outputs are gone from the RM's view
                    Self::node_lost(host, node);
                    continue;
                }
                NodeHealth::Alive => {}
            }
            host.wake();
        }
    }

    /// `node`'s executor state is gone: it crashed, was declared dead,
    /// was decommissioned or reclaimed. Its running attempts are killed
    /// and fail (each owed a recovery), the host wipes the node, any
    /// drain notice is cancelled, and every finished map task whose
    /// output lived there re-pends through the lineage.
    pub fn node_lost<H: ControlHost<'a>>(host: &mut H, node: NodeId) {
        for id in host.control().running(node).to_vec() {
            let (ctl, mut io) = host.io();
            let task = ctl.attempt(id).task;
            ctl.task_killed(task, node, &mut io);
            host.stop_attempt(id, AttemptOutcome::NodeFaulted);
        }
        host.wipe(node);
        // the node is already gone: a later re-provision must not
        // inherit the notice's reclaim
        host.control_mut().fleet.drain_deadline[node.index()] = None;
        let (ctl, mut io) = host.io();
        ctl.outputs_lost(node, &mut io);
        host.wake();
    }

    /// One capacity-controller check: accrue cost, step the prices, scale
    /// each pool to its target, draw preemptions, and apply the actions.
    /// A no-op without spot pools.
    pub fn controller_check<H: ControlHost<'a>>(host: &mut H) {
        if !host.control().fleet.scaling() {
            return;
        }
        let now = host.now();
        let nodes: Vec<FleetNode> = (0..host.control().cluster.len())
            .map(NodeId)
            .map(|id| FleetNode {
                provisioned: host.control().fleet.provisioned(id),
                down: host.down(id),
                draining: host.control().fleet.draining(id),
                busy: !host.control().running(id).is_empty(),
            })
            .collect();
        let backlog = Self::backlog(host);
        let grace = host.host_secs(host.control().fleet.config.scale_down_idle_secs);
        let ctl = host.control_mut();
        ctl.fleet.accrue(now);
        let config = ctl.fleet.config;
        let cap = ctl.fleet.capacity.as_mut().expect("checked above");
        let actions = cap.ctl.check(config, now, grace, &nodes, backlog);
        // the price step moved every provisioned spot node's risk; the
        // actions need no marks of their own: an unprovisioned view was
        // blocked, so it is rebuilt every round
        for (i, n) in nodes.iter().enumerate() {
            if n.provisioned && cap.ctl.tier_of(NodeId(i)) == NodeTier::Spot {
                ctl.offers.node_dirty(NodeId(i));
            }
        }
        for action in actions {
            let fleet = &mut host.control_mut().fleet;
            let cap = fleet.capacity.as_mut().expect("checked above");
            match action {
                ScalingAction::Provision(node) => {
                    fleet.provisioned[node.index()] = true;
                    cap.cost.provisions += 1;
                    host.joined(node);
                    host.io().1.publish(EngineEvent::NodeProvisioned { node });
                    host.wake();
                }
                ScalingAction::Decommission(node) => {
                    fleet.provisioned[node.index()] = false;
                    cap.cost.decommissions += 1;
                    host.io()
                        .1
                        .publish(EngineEvent::NodeDecommissioned { node });
                    // the node's map outputs leave with it: the same
                    // loss path as a crash, lineage recompute included
                    Self::node_lost(host, node);
                }
                ScalingAction::Preempt { node, notice_secs } => {
                    Self::drain_notice(host, node, notice_secs);
                }
            }
        }
    }

    /// Serve a preemption notice on `node`: it drains (no new work) for
    /// `notice_secs` config seconds, then [`ControlPlane::reclaim`]
    /// takes it. Scripted preemptions and the controller's draws alike.
    pub fn drain_notice<H: ControlHost<'a>>(host: &mut H, node: NodeId, notice_secs: f64) {
        let notice = host.host_duration(notice_secs.max(0.0));
        let deadline = host.now() + notice;
        let (ctl, mut io) = host.io();
        io.publish(EngineEvent::PreemptionNotice { node, notice });
        ctl.fleet.drain_deadline[node.index()] = Some(deadline);
        ctl.offers.node_dirty(node);
        host.drain_armed(node, deadline);
        host.wake();
    }

    /// A drain deadline may have come: reclaim `node` if its notice is
    /// due. A notice cancelled by node loss, or reissued with a later
    /// deadline, is not due, and a reclaim clears it, so each notice
    /// reclaims at most once. A spot node leaves the fleet (the
    /// controller may re-provision the slot later); an on-demand node
    /// stays in it, and the host decides what a reclaim leaves of it.
    /// True when the node was reclaimed.
    pub fn reclaim<H: ControlHost<'a>>(host: &mut H, node: NodeId) -> bool {
        let now = host.now();
        if !host.control().fleet.drain_due(node, now) {
            return false;
        }
        let fleet = &mut host.control_mut().fleet;
        // bill the partial interval before the node leaves the fleet
        fleet.accrue(now);
        fleet.drain_deadline[node.index()] = None;
        if let Some(cap) =
            (fleet.capacity.as_mut()).filter(|c| c.ctl.tier_of(node) == NodeTier::Spot)
        {
            fleet.provisioned[node.index()] = false;
            cap.cost.preemptions += 1;
        }
        Self::node_lost(host, node);
        true
    }
}
