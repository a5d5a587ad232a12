//! # rupam-elastic
//!
//! The elastic-capacity model: deterministic, seeded *spot-price
//! processes* (one mean-reverting Ornstein–Uhlenbeck walk per spot
//! pool), a *capacity controller* with three procurement stances
//! ([`SpotPolicy`]: greedy / on-demand-fallback / on-demand-only), and
//! per-node-second *cost accounting*.
//!
//! Like `rupam-faults`, everything here is pure data + state machines.
//! The one [`Controller`] is shared by both hosts: the sim engine runs a
//! check on its periodic elastic-check events, the serve driver on its
//! ticks. Each host owns the clock and the fleet, and turns the
//! controller's [`ScalingAction`]s into node provision / decommission /
//! preemption transitions. With an empty
//! [`ElasticConfig`] (no pools) the subsystem is a strict no-op: no RNG
//! stream is ever drawn from, no check event is ever scheduled, and
//! runs are byte-identical to runs built without this crate.
//!
//! Determinism: the price path and the preemption draws are a pure
//! function of `(seed, pool order, check cadence)` — the same config
//! replays the same churn regardless of what the scheduler does with
//! it.

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::Rng;
use rupam_cluster::{ClusterSpec, NodeId, NodeTier};
use rupam_simcore::time::SimTime;

/// A mean-reverting Ornstein–Uhlenbeck price walk, discretised with the
/// Euler–Maruyama scheme:
///
/// ```text
/// p' = p + reversion · (mean − p) · dt + volatility · √dt · z
/// ```
///
/// where `z` is an approximately standard-normal draw. Prices are
/// clamped at `floor` (spot markets never pay you to compute).
#[derive(Clone, Debug, PartialEq)]
pub struct SpotPriceProcess {
    /// Current price, $/node-hour.
    pub price: f64,
    /// Long-run mean the walk reverts to.
    pub mean: f64,
    /// Mean-reversion rate (per second of simulated time).
    pub reversion: f64,
    /// Instantaneous volatility (per √second).
    pub volatility: f64,
    /// Hard lower bound on the price.
    pub floor: f64,
}

impl SpotPriceProcess {
    /// A process starting at its long-run mean.
    pub fn new(mean: f64, reversion: f64, volatility: f64) -> Self {
        SpotPriceProcess {
            price: mean,
            mean,
            reversion,
            volatility,
            floor: mean * 0.1,
        }
    }

    /// Advance the walk by `dt_secs`, drawing noise from `rng`.
    /// Returns the new price.
    pub fn step(&mut self, dt_secs: f64, rng: &mut impl Rng) -> f64 {
        // Irwin–Hall approximation of a standard normal: the sum of 12
        // uniforms minus 6. Keeps the dependency footprint at plain
        // `rand` (no rand_distr in the vendored set).
        let z: f64 = (0..12).map(|_| rng.gen_range(0.0..1.0)).sum::<f64>() - 6.0;
        self.price += self.reversion * (self.mean - self.price) * dt_secs
            + self.volatility * dt_secs.sqrt() * z;
        if self.price < self.floor {
            self.price = self.floor;
        }
        self.price
    }

    /// Relative excursion above the long-run mean, `≥ 0`.
    pub fn overshoot(&self) -> f64 {
        ((self.price - self.mean) / self.mean).max(0.0)
    }
}

/// One pool of spot nodes: a set of node ids sharing a price process
/// and a preemption model.
#[derive(Clone, Debug, PartialEq)]
pub struct SpotPool {
    /// Pool name used in traces and reports.
    pub name: String,
    /// Member nodes (spot tier). Must not overlap other pools.
    pub nodes: Vec<NodeId>,
    /// Long-run mean price, $/node-hour.
    pub mean_price: f64,
    /// OU mean-reversion rate, per second.
    pub reversion: f64,
    /// OU volatility, per √second.
    pub volatility: f64,
    /// Per-check preemption probability of an active node when the
    /// price sits at its long-run mean.
    pub preempt_base: f64,
    /// Extra per-check preemption probability per unit of relative
    /// price overshoot (price spikes reclaim capacity).
    pub preempt_slope: f64,
    /// Drain-notice window between the preemption notice and the
    /// reclaim, in seconds.
    pub notice_secs: f64,
}

impl SpotPool {
    /// The price process this pool starts with.
    pub fn price_process(&self) -> SpotPriceProcess {
        SpotPriceProcess::new(self.mean_price, self.reversion, self.volatility)
    }

    /// Per-check preemption probability at price state `p`.
    pub fn preempt_prob(&self, p: &SpotPriceProcess) -> f64 {
        (self.preempt_base + self.preempt_slope * p.overshoot()).clamp(0.0, 1.0)
    }
}

/// Which spot-procurement stance the capacity controller takes
/// (SNIPPETS.md Snippet 1's three allocation strategies).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpotPolicy {
    /// Always use spot capacity when there is backlog, whatever the
    /// current price.
    #[default]
    Greedy,
    /// Use spot capacity only while the pool price is at or below
    /// `max_spot_price`; above it, fall back to riding out the backlog
    /// on the on-demand fleet.
    OnDemandFallback,
    /// Never provision spot capacity (the fixed-fleet control).
    OnDemandOnly,
}

impl SpotPolicy {
    /// Stable short code used in reports and CLI flags.
    pub fn code(self) -> &'static str {
        match self {
            SpotPolicy::Greedy => "greedy",
            SpotPolicy::OnDemandFallback => "on-demand-fallback",
            SpotPolicy::OnDemandOnly => "on-demand-only",
        }
    }

    /// Parse a CLI / TOML policy code.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "greedy" => Ok(SpotPolicy::Greedy),
            "on-demand-fallback" => Ok(SpotPolicy::OnDemandFallback),
            "on-demand-only" => Ok(SpotPolicy::OnDemandOnly),
            other => Err(format!("unknown spot policy `{other}`")),
        }
    }

    /// Desired number of active nodes in `pool`, given `demand` and the
    /// controller tunables in `cfg`. The controller clamps the answer
    /// to `[0, pool.capacity]`, only scales down nodes that are idle,
    /// and never touches draining nodes.
    pub fn target(self, cfg: &ElasticConfig, pool: &PoolView, demand: &DemandView) -> usize {
        match self {
            // idle fleet: give everything back (subject to idle grace)
            SpotPolicy::Greedy if demand.backlog == 0 => 0,
            SpotPolicy::Greedy => {
                (pool.active + demand.shortfall(cfg.scale_up_backlog)).min(pool.capacity)
            }
            SpotPolicy::OnDemandFallback if pool.price > cfg.max_spot_price * pool.mean_price => 0,
            SpotPolicy::OnDemandFallback => SpotPolicy::Greedy.target(cfg, pool, demand),
            SpotPolicy::OnDemandOnly => 0,
        }
    }
}

/// What the controller can see of one pool when deciding a target.
#[derive(Clone, Copy, Debug)]
pub struct PoolView {
    /// Current spot price, $/node-hour.
    pub price: f64,
    /// Long-run mean price, $/node-hour.
    pub mean_price: f64,
    /// Nodes of the pool currently provisioned.
    pub active: usize,
    /// Total nodes in the pool.
    pub capacity: usize,
}

/// What the controller can see of cluster demand when deciding.
#[derive(Clone, Copy, Debug)]
pub struct DemandView {
    /// Launchable tasks waiting for a slot.
    pub backlog: usize,
    /// Provisioned nodes (all tiers).
    pub active_nodes: usize,
    /// Task slots per node the controller assumes when converting
    /// backlog into node counts.
    pub slots_per_node: usize,
}

impl DemandView {
    /// Extra nodes the backlog calls for beyond the active fleet, given
    /// the scale-up threshold `backlog_per_node`.
    pub fn shortfall(&self, backlog_per_node: f64) -> usize {
        let absorbed = (self.active_nodes as f64 * backlog_per_node) as usize;
        let excess = self.backlog.saturating_sub(absorbed);
        excess.div_ceil(self.slots_per_node.max(1))
    }
}

/// A capacity change the [`Controller`] asks its host to make. A check
/// returns them in the order the host must apply them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScalingAction {
    /// Bring a deprovisioned spot node into the fleet.
    Provision(NodeId),
    /// Give an idle spot node back; its map outputs leave with it.
    Decommission(NodeId),
    /// Serve a preemption notice: the node drains (accepts no new work)
    /// for `notice_secs` config seconds, then the provider reclaims it.
    Preempt {
        /// The node to reclaim.
        node: NodeId,
        /// Drain window, in the config's (simulated) seconds.
        notice_secs: f64,
    },
}

/// One node as its host reports it to a [`Controller`] check.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FleetNode {
    /// Part of the active fleet.
    pub provisioned: bool,
    /// Crashed, or declared dead by the failure detector.
    pub down: bool,
    /// A preemption notice is outstanding.
    pub draining: bool,
    /// Has running attempts.
    pub busy: bool,
}

/// The capacity controller both hosts run — the sim engine on its
/// periodic check events, the serve driver on its ticks. It owns the
/// pools' price walks, each node's last busy instant and the seeded RNG
/// the price noise and preemption draws come from; the host owns the
/// fleet and applies the returned [`ScalingAction`]s.
pub struct Controller {
    rng: StdRng,
    /// Per-pool price walks, in pool order.
    prices: Vec<SpotPriceProcess>,
    /// Per-pool current per-check preemption probability.
    risk: Vec<f64>,
    /// Per-node pool membership (`None` = on-demand tier).
    pool_of: Vec<Option<usize>>,
    /// Last instant each node had a running attempt (idle grace).
    last_busy: Vec<SimTime>,
    /// Task slots per node assumed when converting backlog into nodes.
    slots_per_node: usize,
}

impl Controller {
    /// A controller for `cluster` under `cfg`, drawing from `rng`.
    pub fn new(cfg: &ElasticConfig, cluster: &ClusterSpec, rng: StdRng) -> Self {
        let n = cluster.len();
        let prices: Vec<SpotPriceProcess> = cfg.pools.iter().map(|p| p.price_process()).collect();
        let risk = cfg
            .pools
            .iter()
            .zip(&prices)
            .map(|(pool, p)| pool.preempt_prob(p))
            .collect();
        let cores: usize = cluster.iter().map(|(_, s)| s.cores as usize).sum();
        Controller {
            rng,
            prices,
            risk,
            pool_of: (0..n).map(|i| cfg.pool_of(NodeId(i))).collect(),
            last_busy: vec![SimTime::ZERO; n],
            slots_per_node: (cores / n.max(1)).max(1),
        }
    }

    /// Tier of `node`.
    pub fn tier_of(&self, node: NodeId) -> NodeTier {
        self.pool_of_node(node)
            .map_or(NodeTier::OnDemand, |_| NodeTier::Spot)
    }

    /// Current per-check preemption probability of `node`'s pool (0.0
    /// for the on-demand tier).
    pub fn risk_of(&self, node: NodeId) -> f64 {
        self.pool_of_node(node).map_or(0.0, |pi| self.risk[pi])
    }

    /// Current price of `node`'s spot pool, $/node-hour (`None` for the
    /// on-demand tier).
    pub fn spot_price(&self, node: NodeId) -> Option<f64> {
        self.pool_of_node(node).map(|pi| self.prices[pi].price)
    }

    fn pool_of_node(&self, node: NodeId) -> Option<usize> {
        self.pool_of.get(node.index()).copied().flatten()
    }

    /// One controller check at `now`: step every pool's price, scale
    /// each pool to its policy target, and draw price-correlated
    /// preemptions. `fleet` is indexed by node id, `backlog` counts the
    /// launchable pending tasks, and a node must have sat idle for
    /// `idle_grace_secs` host-clock seconds before it is scaled down.
    ///
    /// Only nodes that are neither down nor draining are scaled or
    /// preempted, and scale-down takes idle nodes only. One preemption
    /// draw is taken per pool slot per check, whatever the fleet state,
    /// so the draw sequence never depends on scheduler behaviour.
    pub fn check(
        &mut self,
        cfg: &ElasticConfig,
        now: SimTime,
        idle_grace_secs: f64,
        fleet: &[FleetNode],
        backlog: usize,
    ) -> Vec<ScalingAction> {
        let mut fleet = fleet.to_vec();
        for (i, pool) in cfg.pools.iter().enumerate() {
            self.prices[i].step(cfg.check_secs, &mut self.rng);
            self.risk[i] = pool.preempt_prob(&self.prices[i]);
        }
        for (last, node) in self.last_busy.iter_mut().zip(&fleet) {
            if node.busy {
                *last = now;
            }
        }
        let live = |n: &FleetNode| n.provisioned && !n.down;
        let demand = DemandView {
            backlog,
            active_nodes: fleet.iter().filter(|n| live(n)).count(),
            slots_per_node: self.slots_per_node,
        };

        let mut actions = Vec::new();
        for (pi, pool) in cfg.pools.iter().enumerate() {
            let members: Vec<usize> = pool
                .nodes
                .iter()
                .map(|n| n.index())
                .filter(|&i| i < fleet.len())
                .collect();
            let active = members.iter().filter(|&&i| live(&fleet[i])).count();
            let view = PoolView {
                price: self.prices[pi].price,
                mean_price: pool.mean_price,
                active,
                capacity: members.len(),
            };
            let target = cfg.policy.target(cfg, &view, &demand).min(members.len());
            // > 0: nodes to provision; < 0: nodes to decommission
            let mut change = target as isize - active as isize;
            for i in members {
                let n = &mut fleet[i];
                let idle = now.since(self.last_busy[i]).as_secs_f64();
                if change > 0 && !n.provisioned && !n.down {
                    n.provisioned = true;
                    self.last_busy[i] = now;
                    actions.push(ScalingAction::Provision(NodeId(i)));
                    change -= 1;
                } else if change < 0 && live(n) && !n.draining && !n.busy && idle >= idle_grace_secs
                {
                    n.provisioned = false;
                    actions.push(ScalingAction::Decommission(NodeId(i)));
                    change += 1;
                }
            }
        }

        for (pi, pool) in cfg.pools.iter().enumerate() {
            for &node in &pool.nodes {
                let hit = self.rng.gen_range(0.0..1.0) < self.risk[pi];
                let Some(n) = fleet.get_mut(node.index()) else {
                    continue;
                };
                if hit && live(n) && !n.draining {
                    n.draining = true;
                    actions.push(ScalingAction::Preempt {
                        node,
                        notice_secs: pool.notice_secs,
                    });
                }
            }
        }
        actions
    }
}

/// Elastic-subsystem tunables carried inside the simulation config.
#[derive(Clone, Debug, PartialEq)]
pub struct ElasticConfig {
    /// Spot pools. Empty (the default) disables the whole subsystem —
    /// no controller events, no RNG draws, byte-identical decision
    /// traces to a build without the elastic layer.
    pub pools: Vec<SpotPool>,
    /// Controller cadence in seconds of simulated time.
    pub check_secs: f64,
    /// On-demand price, $/node-hour (cost accounting for the fixed
    /// fleet).
    pub on_demand_price: f64,
    /// Procurement stance.
    pub policy: SpotPolicy,
    /// Backlog per active node above which the controller scales up.
    pub scale_up_backlog: f64,
    /// How long a spot node must sit idle before the controller
    /// decommissions it.
    pub scale_down_idle_secs: f64,
    /// `OnDemandFallback` price ceiling, as a multiple of the pool's
    /// long-run mean price.
    pub max_spot_price: f64,
    /// Provisioning latency: a newly provisioned node accepts work this
    /// many seconds after the controller's decision.
    pub provision_secs: f64,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        ElasticConfig {
            pools: Vec::new(),
            check_secs: 5.0,
            on_demand_price: 1.0,
            policy: SpotPolicy::Greedy,
            scale_up_backlog: 4.0,
            scale_down_idle_secs: 30.0,
            max_spot_price: 1.25,
            provision_secs: 5.0,
        }
    }
}

impl ElasticConfig {
    /// Whether the subsystem is fully disabled (no pools).
    pub fn is_empty(&self) -> bool {
        self.pools.is_empty()
    }

    /// Tier of `node` under this config.
    pub fn tier(&self, node: NodeId) -> NodeTier {
        if self.pool_of(node).is_some() {
            NodeTier::Spot
        } else {
            NodeTier::OnDemand
        }
    }

    /// Index of the pool `node` belongs to, if any.
    pub fn pool_of(&self, node: NodeId) -> Option<usize> {
        self.pools.iter().position(|p| p.nodes.contains(&node))
    }

    /// Canned scenario: the last `spot` of `nodes` cluster nodes form
    /// one spot pool priced at a third of on-demand, preempted rarely
    /// at the mean and aggressively on spikes.
    pub fn spot_tail(nodes: usize, spot: usize, policy: SpotPolicy) -> Self {
        let spot = spot.min(nodes);
        ElasticConfig {
            pools: vec![SpotPool {
                name: "tail".into(),
                nodes: (nodes - spot..nodes).map(NodeId).collect(),
                mean_price: 0.33,
                reversion: 0.02,
                volatility: 0.05,
                preempt_base: 0.002,
                preempt_slope: 0.10,
                notice_secs: 8.0,
            }],
            policy,
            ..ElasticConfig::default()
        }
    }

    /// Parse the elasticity-script TOML dialect documented in the
    /// README: one optional `[elastic]` table of controller tunables
    /// followed by `[[pool]]` tables (`name`, `nodes` as an inline
    /// array of indices, `mean_price`, and optional `reversion`,
    /// `volatility`, `preempt_base`, `preempt_slope`, `notice`). `#`
    /// starts a comment. Hand-rolled like [`FaultScript::parse_toml`] —
    /// the build is offline and the grammar is tiny.
    ///
    /// [`FaultScript::parse_toml`]:
    ///     https://docs.rs/rupam-faults (see `rupam_faults::FaultScript`)
    pub fn parse_toml(text: &str) -> Result<Self, String> {
        #[derive(PartialEq)]
        enum Section {
            None,
            Elastic,
            Pool,
        }
        let mut cfg = ElasticConfig::default();
        let mut section = Section::None;
        let mut fields: Vec<(String, String)> = Vec::new();
        let flush = |cfg: &mut ElasticConfig,
                     section: &Section,
                     fields: &mut Vec<(String, String)>|
         -> Result<(), String> {
            match section {
                Section::Pool => cfg.pools.push(Self::pool_from_fields(fields)?),
                Section::Elastic => Self::tunables_from_fields(cfg, fields)?,
                Section::None => {}
            }
            fields.clear();
            Ok(())
        };
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            match line {
                "[elastic]" => {
                    flush(&mut cfg, &section, &mut fields)?;
                    section = Section::Elastic;
                    continue;
                }
                "[[pool]]" => {
                    flush(&mut cfg, &section, &mut fields)?;
                    section = Section::Pool;
                    continue;
                }
                _ => {}
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "line {}: expected `key = value`: {raw}",
                    lineno + 1
                ));
            };
            if section == Section::None {
                return Err(format!(
                    "line {}: `{}` outside [elastic] / [[pool]]",
                    lineno + 1,
                    key.trim()
                ));
            }
            fields.push((
                key.trim().to_string(),
                value.trim().trim_matches('"').to_string(),
            ));
        }
        flush(&mut cfg, &section, &mut fields)?;
        let mut seen: Vec<NodeId> = Vec::new();
        for p in &cfg.pools {
            if p.nodes.is_empty() {
                return Err(format!("pool `{}` has no nodes", p.name));
            }
            for n in &p.nodes {
                if seen.contains(n) {
                    return Err(format!("node {n} belongs to two pools"));
                }
                seen.push(*n);
            }
        }
        Ok(cfg)
    }

    fn tunables_from_fields(
        cfg: &mut ElasticConfig,
        fields: &[(String, String)],
    ) -> Result<(), String> {
        for (key, value) in fields {
            let num = || -> Result<f64, String> {
                value
                    .parse::<f64>()
                    .map_err(|e| format!("[elastic] bad `{key}`: {e}"))
            };
            match key.as_str() {
                "check_secs" => cfg.check_secs = num()?,
                "on_demand_price" => cfg.on_demand_price = num()?,
                "policy" => cfg.policy = SpotPolicy::parse(value)?,
                "scale_up_backlog" => cfg.scale_up_backlog = num()?,
                "scale_down_idle_secs" => cfg.scale_down_idle_secs = num()?,
                "max_spot_price" => cfg.max_spot_price = num()?,
                "provision_secs" => cfg.provision_secs = num()?,
                other => return Err(format!("[elastic] unknown key `{other}`")),
            }
        }
        if !(cfg.check_secs.is_finite() && cfg.check_secs > 0.0) {
            return Err(format!("[elastic] bad `check_secs`: {}", cfg.check_secs));
        }
        Ok(())
    }

    fn pool_from_fields(fields: &[(String, String)]) -> Result<SpotPool, String> {
        let get = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
        };
        let num = |key: &str, default: f64| -> Result<f64, String> {
            match get(key) {
                None => Ok(default),
                Some(v) => v
                    .parse::<f64>()
                    .map_err(|e| format!("[[pool]] bad `{key}`: {e}")),
            }
        };
        let nodes_text = get("nodes").ok_or("[[pool]] missing `nodes`")?;
        let nodes: Vec<NodeId> = nodes_text
            .trim_start_matches('[')
            .trim_end_matches(']')
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.parse::<usize>()
                    .map(NodeId)
                    .map_err(|e| format!("[[pool]] bad node `{s}`: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let mean_price = num("mean_price", f64::NAN)?;
        if !mean_price.is_finite() || mean_price <= 0.0 {
            return Err("[[pool]] missing or bad `mean_price`".into());
        }
        Ok(SpotPool {
            name: get("name").unwrap_or("spot").to_string(),
            nodes,
            mean_price,
            reversion: num("reversion", 0.02)?,
            volatility: num("volatility", 0.05)?,
            preempt_base: num("preempt_base", 0.002)?,
            preempt_slope: num("preempt_slope", 0.10)?,
            notice_secs: num("notice", 8.0)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn empty_config_is_empty() {
        assert!(ElasticConfig::default().is_empty());
        assert_eq!(ElasticConfig::default().tier(NodeId(0)), NodeTier::OnDemand);
    }

    #[test]
    fn ou_walk_reverts_and_respects_floor() {
        let mut p = SpotPriceProcess::new(0.3, 0.05, 0.02);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut sum = 0.0;
        let mut n = 0.0;
        for _ in 0..5_000 {
            let v = p.step(5.0, &mut rng);
            assert!(v >= p.floor, "floor holds");
            sum += v;
            n += 1.0;
        }
        let avg = sum / n;
        assert!(
            (avg - 0.3).abs() < 0.1,
            "long-run average near the mean: {avg}"
        );
    }

    #[test]
    fn ou_walk_is_deterministic_per_seed() {
        let walk = |seed| {
            let mut p = SpotPriceProcess::new(0.3, 0.05, 0.02);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            (0..64).map(|_| p.step(5.0, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(walk(11), walk(11));
        assert_ne!(walk(11), walk(12));
    }

    #[test]
    fn preempt_prob_rises_with_price() {
        let pool = ElasticConfig::spot_tail(12, 4, SpotPolicy::Greedy).pools[0].clone();
        let mut p = pool.price_process();
        let at_mean = pool.preempt_prob(&p);
        p.price = p.mean * 2.0;
        let spiked = pool.preempt_prob(&p);
        assert!(at_mean < spiked, "{at_mean} < {spiked}");
        p.price = p.mean * 1e6;
        assert!(pool.preempt_prob(&p) <= 1.0, "clamped");
    }

    #[test]
    fn policies_disagree_exactly_where_expected() {
        let cfg = ElasticConfig::spot_tail(12, 4, SpotPolicy::Greedy);
        let demand = DemandView {
            backlog: 64,
            active_nodes: 8,
            slots_per_node: 8,
        };
        let cheap = PoolView {
            price: 0.33,
            mean_price: 0.33,
            active: 0,
            capacity: 4,
        };
        let spiked = PoolView {
            price: 0.33 * 3.0,
            ..cheap
        };
        use SpotPolicy::{Greedy, OnDemandFallback, OnDemandOnly};
        assert!(Greedy.target(&cfg, &cheap, &demand) > 0);
        assert!(Greedy.target(&cfg, &spiked, &demand) > 0, "price-blind");
        assert!(OnDemandFallback.target(&cfg, &cheap, &demand) > 0);
        assert_eq!(OnDemandFallback.target(&cfg, &spiked, &demand), 0);
        assert_eq!(OnDemandOnly.target(&cfg, &cheap, &demand), 0);
        let idle = DemandView {
            backlog: 0,
            ..demand
        };
        assert_eq!(Greedy.target(&cfg, &cheap, &idle), 0, "idle scale-down");
    }

    #[test]
    fn shortfall_converts_backlog_to_nodes() {
        let d = DemandView {
            backlog: 100,
            active_nodes: 10,
            slots_per_node: 8,
        };
        // 10 nodes absorb 40 tasks at 4/node; 60 excess / 8 slots → 8
        assert_eq!(d.shortfall(4.0), 8);
        assert_eq!(DemandView { backlog: 0, ..d }.shortfall(4.0), 0);
    }

    #[test]
    fn parses_the_documented_toml_dialect() {
        let text = r#"
            # spot tail over hydra12
            [elastic]
            check_secs = 4.0
            policy = "on-demand-fallback"
            on_demand_price = 0.9
            max_spot_price = 1.5

            [[pool]]
            name = "tail"
            nodes = [8, 9, 10, 11]
            mean_price = 0.3
            volatility = 0.04
            notice = 6.0
        "#;
        let cfg = ElasticConfig::parse_toml(text).expect("parses");
        assert_eq!(cfg.check_secs, 4.0);
        assert_eq!(cfg.policy, SpotPolicy::OnDemandFallback);
        assert_eq!(cfg.on_demand_price, 0.9);
        assert_eq!(cfg.pools.len(), 1);
        let p = &cfg.pools[0];
        assert_eq!(p.name, "tail");
        assert_eq!(p.nodes, vec![NodeId(8), NodeId(9), NodeId(10), NodeId(11)]);
        assert_eq!(p.mean_price, 0.3);
        assert_eq!(p.volatility, 0.04);
        assert_eq!(p.notice_secs, 6.0);
        assert_eq!(p.reversion, 0.02, "default");
        assert_eq!(cfg.tier(NodeId(9)), NodeTier::Spot);
        assert_eq!(cfg.tier(NodeId(0)), NodeTier::OnDemand);
        assert_eq!(cfg.pool_of(NodeId(11)), Some(0));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(
            ElasticConfig::parse_toml("check_secs = 1.0").is_err(),
            "key before section"
        );
        assert!(
            ElasticConfig::parse_toml("[[pool]]\nname = \"p\"\nmean_price = 0.3").is_err(),
            "missing nodes"
        );
        assert!(
            ElasticConfig::parse_toml("[[pool]]\nnodes = [0]").is_err(),
            "missing mean_price"
        );
        assert!(
            ElasticConfig::parse_toml("[elastic]\nbogus = 1").is_err(),
            "unknown tunable"
        );
        assert!(
            ElasticConfig::parse_toml(
                "[[pool]]\nnodes = [0, 1]\nmean_price = 0.3\n[[pool]]\nnodes = [1]\nmean_price = 0.2"
            )
            .is_err(),
            "overlapping pools"
        );
        assert!(
            ElasticConfig::parse_toml("").expect("empty ok").is_empty(),
            "empty text is the disabled config"
        );
    }

    /// A controller over `n` homogeneous nodes whose last four form one
    /// spot pool preempting with probability `preempt` every check.
    fn controller(n: usize, preempt: f64, seed: u64) -> (Controller, ElasticConfig) {
        let mut cfg = ElasticConfig::spot_tail(n, 4, SpotPolicy::Greedy);
        cfg.pools[0].preempt_base = preempt;
        cfg.pools[0].preempt_slope = 0.0;
        let rng = rand::rngs::StdRng::seed_from_u64(seed);
        (
            Controller::new(&cfg, &ClusterSpec::homogeneous(n), rng),
            cfg,
        )
    }

    fn node(provisioned: bool, down: bool, draining: bool, busy: bool) -> FleetNode {
        FleetNode {
            provisioned,
            down,
            draining,
            busy,
        }
    }

    #[test]
    fn check_provisions_then_preempts_in_order() {
        let (mut ctl, cfg) = controller(7, 1.0, 1);
        let fleet = [
            node(true, false, false, true),
            node(true, false, false, true),
            node(true, false, false, true),
            node(true, false, false, true),   // spot, busy
            node(true, true, false, false),   // spot, provisioned but down
            node(false, true, false, false),  // spot, down
            node(false, false, false, false), // spot, free slot
        ];
        let actions = ctl.check(&cfg, SimTime(1), 0.0, &fleet, 1_000);
        use ScalingAction::{Preempt, Provision};
        let notice_secs = cfg.pools[0].notice_secs;
        assert_eq!(
            actions,
            vec![
                Provision(NodeId(6)),
                Preempt {
                    node: NodeId(3),
                    notice_secs
                },
                Preempt {
                    node: NodeId(6),
                    notice_secs
                },
            ],
            "down nodes are neither provisioned nor preempted"
        );
        assert_eq!(ctl.tier_of(NodeId(0)), NodeTier::OnDemand);
        assert_eq!(ctl.tier_of(NodeId(6)), NodeTier::Spot);
        assert_eq!(ctl.risk_of(NodeId(6)), 1.0);
        assert_eq!(ctl.risk_of(NodeId(0)), 0.0);
        assert_eq!(ctl.spot_price(NodeId(0)), None);
    }

    #[test]
    fn scale_down_takes_only_idle_nodes_past_the_grace() {
        let (mut ctl, cfg) = controller(6, 0.0, 2);
        let secs = |s: u64| SimTime(s * 1_000_000);
        let mut fleet = [
            node(true, false, false, false),
            node(true, false, false, false),
            node(true, false, false, true),  // spot, busy
            node(true, false, false, false), // spot, idle since t = 0
            node(true, false, true, false),  // spot, draining
            node(true, false, false, true),  // spot, busy until t = 10
        ];
        // backlog keeps the pool at full size while node 5 works
        assert!(ctl.check(&cfg, secs(10), 15.0, &fleet, 1_000).is_empty());
        fleet[5].busy = false;
        let actions = ctl.check(&cfg, secs(20), 15.0, &fleet, 0);
        assert_eq!(actions, vec![ScalingAction::Decommission(NodeId(3))]);
        // a down node is not decommissioned either, however idle; node
        // 5 has now sat idle past the grace
        fleet[3] = node(true, true, false, false);
        assert_eq!(
            ctl.check(&cfg, secs(100), 15.0, &fleet, 0),
            vec![ScalingAction::Decommission(NodeId(5))]
        );
    }

    #[test]
    fn one_preemption_draw_per_pool_slot_whatever_the_fleet() {
        // identical seeds, opposite fleets: every spot slot live in one,
        // down, deprovisioned or missing in the other
        let (mut live, cfg) = controller(8, 0.5, 3);
        let (mut dead, _) = controller(8, 0.5, 3);
        let up = [node(true, false, false, false); 8];
        let mut gone = [node(false, true, false, false); 6];
        gone[5] = node(false, false, false, false);
        for t in 1..20 {
            live.check(&cfg, SimTime(t), 1e9, &up, 1_000);
            dead.check(&cfg, SimTime(t), 1e9, &gone, 1_000);
            assert_eq!(
                live.spot_price(NodeId(7)),
                dead.spot_price(NodeId(7)),
                "the price walks stay in lockstep only if both drew alike"
            );
        }
    }

    #[test]
    fn checks_are_seed_deterministic() {
        let run = |seed| {
            let (mut ctl, cfg) = controller(12, 0.3, seed);
            let mut fleet = [node(true, false, false, false); 12];
            let mut log = Vec::new();
            for t in 1..40u64 {
                let actions = ctl.check(&cfg, SimTime(t), 0.0, &fleet, (t % 3) as usize * 50);
                for a in &actions {
                    match *a {
                        ScalingAction::Provision(n) => fleet[n.index()].provisioned = true,
                        ScalingAction::Decommission(n) => fleet[n.index()].provisioned = false,
                        ScalingAction::Preempt { node, .. } => {
                            fleet[node.index()].provisioned = false
                        }
                    }
                }
                log.push((actions, ctl.spot_price(NodeId(11))));
            }
            log
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn spot_tail_is_well_formed() {
        let cfg = ElasticConfig::spot_tail(12, 4, SpotPolicy::Greedy);
        assert_eq!(cfg.pools[0].nodes.len(), 4);
        assert_eq!(cfg.pools[0].nodes[0], NodeId(8));
        assert!(cfg.pools[0].mean_price < cfg.on_demand_price);
        assert_eq!(cfg.tier(NodeId(11)), NodeTier::Spot);
    }
}
