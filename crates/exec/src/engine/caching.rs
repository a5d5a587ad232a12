//! Executor-cache scoping and data-locality preference queries.
//!
//! Spark RDD caches are application-private: cache keys are scoped per
//! stream job so tenants never see each other's partitions even when
//! their stages share a template key. This module also answers "where
//! would this task *like* to run" from HDFS replica placement, cached
//! partitions and parent map outputs.

use rupam_cluster::NodeId;
use rupam_dag::app::StageId;
use rupam_dag::task::{CacheKey, InputSource, TaskTemplate};
use rupam_dag::TaskRef;
use rupam_simcore::units::ByteSize;

use rupam_simcore::source::EventSource;

use super::driver::{Engine, Event};

impl<'a, 's, S: EventSource<Event>> Engine<'a, 's, S> {
    /// Executor-cache keys are scoped per stream job: Spark RDD caches
    /// are application-private, so tenants must not see each other's
    /// cached partitions even when their stages share a template key.
    pub(crate) fn scoped_cache_key(&self, stage: StageId, rdd: &str, partition: usize) -> CacheKey {
        let job = self.state.stage_jobs[stage.index()];
        CacheKey::new(format!("j{}:{rdd}", job.index()), partition)
    }

    /// A finished winner produced a cacheable partition: insert it into
    /// the executor cache of the node it ran on.
    pub(crate) fn cache_produced_partition(&mut self, task: TaskRef, node_id: NodeId) {
        let stage = self.input.app.stage(task.stage);
        let template = &stage.tasks[task.index];
        if template.demand.cached_bytes > ByteSize::ZERO {
            let key = self.scoped_cache_key(task.stage, stage.template_key.as_str(), task.index);
            self.state.nodes[node_id.index()]
                .cache
                .insert(key, template.demand.cached_bytes);
        }
    }

    /// `(process_nodes, node_local)` preferred placements for a task.
    pub(crate) fn preferred_nodes(
        &self,
        stage: StageId,
        template: &TaskTemplate,
    ) -> (Vec<NodeId>, Vec<NodeId>) {
        match &template.input {
            InputSource::Hdfs(block) => {
                (Vec::new(), self.input.layout.block(*block).replicas.clone())
            }
            InputSource::CachedOrHdfs { key, fallback } => {
                let scoped = self.scoped_cache_key(stage, &key.rdd, key.partition);
                let cached: Vec<NodeId> = (0..self.state.nodes.len())
                    .map(NodeId)
                    .filter(|n| self.state.nodes[n.index()].cache.contains(&scoped))
                    .collect();
                (cached, self.input.layout.block(*fallback).replicas.clone())
            }
            InputSource::Shuffle => (
                Vec::new(),
                self.state.outputs.node_local(self.input.app, stage),
            ),
            InputSource::Generated => (Vec::new(), Vec::new()),
        }
    }
}
