//! Executor-cache scoping and data-locality preference queries.
//!
//! Spark RDD caches are application-private: cache keys are scoped per
//! stream job so tenants never see each other's partitions even when
//! their stages share a template key. This module also answers "where
//! would this task *like* to run" from HDFS replica placement, cached
//! partitions and parent map outputs.

use std::collections::HashMap;

use rupam_cluster::NodeId;
use rupam_dag::app::StageId;
use rupam_dag::task::{CacheKey, InputSource, TaskTemplate};
use rupam_dag::TaskRef;
use rupam_simcore::units::ByteSize;

use rupam_simcore::source::EventSource;

use super::driver::{Engine, Event};
use crate::offer_state::ShufflePrefs;

impl<'a, 's, S: EventSource<Event>> Engine<'a, 's, S> {
    /// Executor-cache keys are scoped per stream job: Spark RDD caches
    /// are application-private, so tenants must not see each other's
    /// cached partitions even when their stages share a template key.
    pub(crate) fn scoped_cache_key(&self, stage: StageId, rdd: &str, partition: usize) -> CacheKey {
        let job = self.state.stage_jobs[stage.index()];
        CacheKey::new(format!("j{}:{rdd}", job.index()), partition)
    }

    /// Every `CachedOrHdfs` task, indexed by the scoped cache key it
    /// reads.
    pub(crate) fn cache_reader_index(&self) -> HashMap<CacheKey, Vec<TaskRef>> {
        let mut readers: HashMap<CacheKey, Vec<TaskRef>> = HashMap::new();
        for (s, stage) in self.input.app.stages.iter().enumerate() {
            for (index, template) in stage.tasks.iter().enumerate() {
                if let InputSource::CachedOrHdfs { key, .. } = &template.input {
                    let stage = StageId(s);
                    let scoped = self.scoped_cache_key(stage, &key.rdd, key.partition);
                    readers
                        .entry(scoped)
                        .or_default()
                        .push(TaskRef { stage, index });
                }
            }
        }
        readers
    }

    /// Executor-cache entries under `keys` appeared or vanished: the
    /// `PROCESS_LOCAL` lists of the tasks reading them moved.
    pub(crate) fn cache_changed(&mut self, keys: &[CacheKey]) {
        for key in keys {
            for &task in self.cache_readers.get(key).into_iter().flatten() {
                self.offers.task_dirty(task);
            }
        }
    }

    /// A finished winner produced a cacheable partition: insert it into
    /// the executor cache of the node it ran on.
    pub(crate) fn cache_produced_partition(&mut self, task: TaskRef, node_id: NodeId) {
        let stage = self.input.app.stage(task.stage);
        let template = &stage.tasks[task.index];
        if template.demand.cached_bytes > ByteSize::ZERO {
            let key = self.scoped_cache_key(task.stage, stage.template_key.as_str(), task.index);
            let mut changed = self.state.nodes[node_id.index()]
                .cache
                .insert(key.clone(), template.demand.cached_bytes);
            changed.push(key);
            self.cache_changed(&changed);
        }
    }

    /// `(process_nodes, node_local)` preferred placements for a task.
    pub(crate) fn preferred_nodes(
        &self,
        stage: StageId,
        template: &TaskTemplate,
        prefs: &mut ShufflePrefs,
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
                prefs.node_local(&self.state.outputs, self.input.app, stage),
            ),
            InputSource::Generated => (Vec::new(), Vec::new()),
        }
    }
}
