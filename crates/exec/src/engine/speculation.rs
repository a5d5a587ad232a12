//! The periodic speculation scan.
//!
//! Walks every released stage's running originals through
//! [`find_speculatable`] (Spark's quantile + multiplier rule, shared by
//! all schedulers) and marks stragglers in the
//! [`crate::speculation::SpeculationSet`]; each fresh flag is published
//! as [`EngineEvent::SpeculationFlagged`]. Launching the copy is the
//! scheduler's decision on a later offer round.

use rupam_dag::TaskRef;
use rupam_simcore::time::SimTime;

use crate::speculation::{find_speculatable, StageProgress};

use rupam_simcore::source::EventSource;

use super::driver::{Engine, Event};
use super::events::EngineEvent;
use crate::control::TaskState;

impl<'a, 's, S: EventSource<Event>> Engine<'a, 's, S> {
    pub(crate) fn speculation_check(&mut self) {
        let cfg = &self.input.config.speculation;
        let mut flagged: Vec<TaskRef> = Vec::new();
        for (sidx, tasks) in self.ctl.tasks.iter().enumerate() {
            let stage = &self.input.app.stages[sidx];
            if !self.ctl.released(stage.id) {
                continue;
            }
            let mut running: Vec<(TaskRef, SimTime, bool)> = Vec::new();
            for (tidx, state) in tasks.iter().enumerate() {
                if let TaskState::Running { attempts } = state {
                    // the original copy is the lowest attempt id
                    if let Some(&first) = attempts.first() {
                        running.push((
                            TaskRef {
                                stage: stage.id,
                                index: tidx,
                            },
                            self.state.attempts[first].launched_at,
                            attempts.len() > 1,
                        ));
                    }
                }
            }
            let progress = StageProgress {
                total_tasks: stage.num_tasks(),
                finished_secs: &self.state.finished_secs[sidx],
                running: &running,
            };
            for task in find_speculatable(cfg, self.now, &progress) {
                if self.state.spec_set.mark(task) {
                    self.need_offers = true;
                    flagged.push(task);
                }
            }
        }
        for task in flagged {
            self.publish(EngineEvent::SpeculationFlagged { task });
        }
    }
}
