//! Executor-cache scoping and the cache's dirty marks.
//!
//! Spark RDD caches are application-private: cache keys are scoped per
//! stream job so tenants never see each other's partitions even when
//! their stages share a template key. A cache entry that appears or
//! vanishes moves the `PROCESS_LOCAL` list of every task reading it, so
//! its readers' pending views are marked dirty.

use std::collections::HashMap;

use rupam_cluster::NodeId;
use rupam_dag::app::StageId;
use rupam_dag::task::{CacheKey, InputSource};
use rupam_dag::TaskRef;
use rupam_simcore::units::ByteSize;

use rupam_simcore::source::EventSource;

use super::driver::{Engine, Event};

impl<'a, 's, S: EventSource<Event>> Engine<'a, 's, S> {
    /// Executor-cache keys are scoped per stream job: Spark RDD caches
    /// are application-private, so tenants must not see each other's
    /// cached partitions even when their stages share a template key.
    pub(crate) fn scoped_cache_key(&self, stage: StageId, rdd: &str, partition: usize) -> CacheKey {
        let job = self.ctl.job_of(stage);
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
                self.ctl.offers().task_dirty(task);
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
}
