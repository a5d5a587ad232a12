//! The Resource Monitor (RM, paper §III-B1).
//!
//! In the paper, a distributed *Collector* on each worker piggy-backs
//! real-time resource metrics on Spark's heartbeat messages; the central
//! *Monitor* records them in Spark's `executorDataMap`. Here the
//! simulation driver plays the collectors' role: whenever a node's state
//! changes it produces a [`HeartbeatSnapshot`] and the monitor records it,
//! keeping (a) the latest metrics per node — what the Dispatcher consults —
//! and (b) full utilisation histories — what Figures 2, 8 and 9 are
//! plotted from.

use rupam_simcore::series::TimeSeries;
use rupam_simcore::time::SimTime;
use rupam_simcore::units::ByteSize;

use crate::node::NodeId;
use crate::topology::ClusterSpec;

/// Dynamic node metrics (the real-time half of Table I, left side).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NodeMetrics {
    /// Fraction of cores busy, 0..=1 (`cpuutil`).
    pub cpu_util: f64,
    /// Executor memory currently held by running tasks.
    pub mem_used: ByteSize,
    /// Executor memory still free (`freememory`).
    pub free_mem: ByteSize,
    /// Fraction of NIC bandwidth in use, 0..=1 (`netutil`).
    pub net_util: f64,
    /// Fraction of disk bandwidth in use, 0..=1 (`diskutil`).
    pub disk_util: f64,
    /// Absolute network throughput, bytes/s (Fig. 2b / Fig. 8c).
    pub net_bytes_per_sec: f64,
    /// Absolute disk throughput, bytes/s (Fig. 2c / Fig. 8d).
    pub disk_bytes_per_sec: f64,
    /// Idle GPUs on the node (`gpu`).
    pub gpus_idle: u32,
}

/// One heartbeat message: a node's metrics at an instant.
#[derive(Clone, Copy, Debug)]
pub struct HeartbeatSnapshot {
    /// Reporting node.
    pub node: NodeId,
    /// Report time.
    pub at: SimTime,
    /// The piggy-backed metrics.
    pub metrics: NodeMetrics,
}

/// The utilisation quantities whose histories the monitor keeps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MetricKey {
    /// Busy-core fraction (Fig. 8a plots this as "CPU User %").
    CpuUtil,
    /// Memory in use, GiB (Fig. 8b).
    MemUsedGib,
    /// Network throughput, MB/s (Fig. 8c).
    NetMBps,
    /// Disk throughput, MB/s (Fig. 8d).
    DiskMBps,
}

impl MetricKey {
    /// All recorded histories.
    pub const ALL: [MetricKey; 4] = [
        MetricKey::CpuUtil,
        MetricKey::MemUsedGib,
        MetricKey::NetMBps,
        MetricKey::DiskMBps,
    ];

    fn index(self) -> usize {
        match self {
            MetricKey::CpuUtil => 0,
            MetricKey::MemUsedGib => 1,
            MetricKey::NetMBps => 2,
            MetricKey::DiskMBps => 3,
        }
    }

    fn extract(self, m: &NodeMetrics) -> f64 {
        match self {
            MetricKey::CpuUtil => m.cpu_util,
            MetricKey::MemUsedGib => m.mem_used.as_gib(),
            MetricKey::NetMBps => m.net_bytes_per_sec / 1e6,
            MetricKey::DiskMBps => m.disk_bytes_per_sec / 1e6,
        }
    }
}

struct NodeRecord {
    latest: NodeMetrics,
    latest_at: SimTime,
    histories: [TimeSeries; 4],
}

/// Central monitor: latest metrics per node plus full histories.
pub struct ResourceMonitor {
    records: Vec<NodeRecord>,
}

impl ResourceMonitor {
    /// A monitor for every node of `cluster`, all initially idle.
    pub fn new(cluster: &ClusterSpec) -> Self {
        let records = cluster
            .iter()
            .map(|(_, spec)| NodeRecord {
                latest: NodeMetrics {
                    free_mem: spec.mem,
                    gpus_idle: spec.gpus,
                    ..NodeMetrics::default()
                },
                latest_at: SimTime::ZERO,
                histories: Default::default(),
            })
            .collect();
        ResourceMonitor { records }
    }

    /// Ingest one heartbeat, updating the latest view and all histories.
    pub fn ingest(&mut self, hb: HeartbeatSnapshot) {
        let rec = &mut self.records[hb.node.index()];
        debug_assert!(
            hb.at >= rec.latest_at,
            "heartbeats must be monotone per node"
        );
        rec.latest = hb.metrics;
        rec.latest_at = hb.at;
        for key in MetricKey::ALL {
            rec.histories[key.index()].record(hb.at, key.extract(&hb.metrics));
        }
    }

    /// Ingest one round's worth of heartbeats in a single call — what a
    /// heartbeat *storm* produces. Semantically identical to calling
    /// [`ResourceMonitor::ingest`] once per snapshot in order; batching
    /// lets the driver hand the monitor one slice per round instead of
    /// one call per node, so downstream consumers (the scheduler's
    /// node-ranking refresh) see a single coherent patch set.
    pub fn ingest_batch(&mut self, batch: &[HeartbeatSnapshot]) {
        for &hb in batch {
            self.ingest(hb);
        }
    }

    /// The most recent metrics for `node`.
    pub fn latest(&self, node: NodeId) -> &NodeMetrics {
        &self.records[node.index()].latest
    }

    /// When `node` last reported.
    pub fn latest_at(&self, node: NodeId) -> SimTime {
        self.records[node.index()].latest_at
    }

    /// Full history of one metric on one node.
    pub fn history(&self, node: NodeId, key: MetricKey) -> &TimeSeries {
        &self.records[node.index()].histories[key.index()]
    }

    /// Histories of one metric across all nodes (for Fig. 9's
    /// stddev-across-nodes computation).
    pub fn histories(&self, key: MetricKey) -> Vec<&TimeSeries> {
        self.records
            .iter()
            .map(|r| &r.histories[key.index()])
            .collect()
    }

    /// Number of monitored nodes.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Always false: constructed from a non-empty cluster.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupam_simcore::time::SimDuration;

    fn monitor() -> ResourceMonitor {
        ResourceMonitor::new(&ClusterSpec::two_node_motivation())
    }

    fn metrics(cpu: f64, used_gib: u64) -> NodeMetrics {
        NodeMetrics {
            cpu_util: cpu,
            mem_used: ByteSize::gib(used_gib),
            free_mem: ByteSize::gib(48 - used_gib),
            net_bytes_per_sec: 50e6,
            disk_bytes_per_sec: 10e6,
            ..NodeMetrics::default()
        }
    }

    #[test]
    fn initial_state_is_idle() {
        let m = monitor();
        assert_eq!(m.len(), 2);
        let latest = m.latest(NodeId(0));
        assert_eq!(latest.cpu_util, 0.0);
        assert_eq!(latest.free_mem, ByteSize::gib(48));
    }

    #[test]
    fn ingest_updates_latest_and_history() {
        let mut m = monitor();
        let t1 = SimTime::from_secs_f64(1.0);
        m.ingest(HeartbeatSnapshot {
            node: NodeId(0),
            at: t1,
            metrics: metrics(0.5, 10),
        });
        assert_eq!(m.latest(NodeId(0)).cpu_util, 0.5);
        assert_eq!(m.latest_at(NodeId(0)), t1);
        // node 1 untouched
        assert_eq!(m.latest(NodeId(1)).cpu_util, 0.0);
        let hist = m.history(NodeId(0), MetricKey::CpuUtil);
        assert_eq!(hist.value_at(t1), Some(0.5));
        let mem = m.history(NodeId(0), MetricKey::MemUsedGib);
        assert!((mem.value_at(t1).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn histories_across_nodes() {
        let mut m = monitor();
        let t = SimTime::from_secs_f64(2.0);
        m.ingest(HeartbeatSnapshot {
            node: NodeId(0),
            at: t,
            metrics: metrics(0.2, 1),
        });
        m.ingest(HeartbeatSnapshot {
            node: NodeId(1),
            at: t,
            metrics: metrics(0.8, 2),
        });
        let hs = m.histories(MetricKey::CpuUtil);
        assert_eq!(hs.len(), 2);
        let sd = rupam_simcore::series::stddev_across(
            &hs,
            t,
            t + SimDuration::from_secs(1),
            SimDuration::from_secs(1),
        );
        assert!((sd[0].1 - 0.3).abs() < 1e-9);
    }

    #[test]
    fn batch_ingest_matches_sequential() {
        let t = SimTime::from_secs_f64(3.0);
        let storm = [
            HeartbeatSnapshot {
                node: NodeId(0),
                at: t,
                metrics: metrics(0.4, 3),
            },
            HeartbeatSnapshot {
                node: NodeId(1),
                at: t,
                metrics: metrics(0.9, 7),
            },
        ];
        let mut batched = monitor();
        batched.ingest_batch(&storm);
        let mut sequential = monitor();
        for hb in storm {
            sequential.ingest(hb);
        }
        for n in [NodeId(0), NodeId(1)] {
            assert_eq!(batched.latest(n), sequential.latest(n));
            assert_eq!(batched.latest_at(n), sequential.latest_at(n));
            for key in MetricKey::ALL {
                assert_eq!(
                    batched.history(n, key).value_at(t),
                    sequential.history(n, key).value_at(t)
                );
            }
        }
    }

    #[test]
    fn metric_key_extraction() {
        let m = metrics(0.75, 4);
        assert_eq!(MetricKey::CpuUtil.extract(&m), 0.75);
        assert!((MetricKey::MemUsedGib.extract(&m) - 4.0).abs() < 1e-9);
        assert!((MetricKey::NetMBps.extract(&m) - 50.0).abs() < 1e-9);
        assert!((MetricKey::DiskMBps.extract(&m) - 10.0).abs() < 1e-9);
    }
}
