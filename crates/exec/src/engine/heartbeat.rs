//! Heartbeat handling and the RM's failure detector.
//!
//! The engine heartbeat drives three things: the scheduler's periodic
//! hook, the failure detector's observe/evaluate round (when a chaos
//! script armed it), and the livelock guard that aborts a run whose
//! scheduler refuses every placement. Detector transitions are published
//! as [`EngineEvent::NodeSuspect`]/[`EngineEvent::NodeDead`]/
//! [`EngineEvent::NodeRecovered`] for statistics and tracing.

use rupam_cluster::NodeId;
use rupam_faults::NodeHealth;
use rupam_metrics::trace::AbortCause;

use rupam_simcore::source::EventSource;

use super::driver::{Engine, Event};
use super::events::EngineEvent;
use crate::control::ControlPlane;

impl<'a, 's, S: EventSource<Event>> Engine<'a, 's, S> {
    /// One engine heartbeat: scheduler hook, detector round, livelock
    /// guard, and re-arming the next beat.
    pub(crate) fn on_heartbeat(&mut self) {
        self.sched.on_heartbeat(self.now);
        if self.detector.is_some() {
            self.detector_tick();
        }
        self.need_offers = true;
        // livelock guard: pending work, nothing running, nothing
        // scheduled — the scheduler is refusing every placement.
        // Real Spark jobs die with "Initial job has not accepted
        // any resources"; we abort the run likewise.
        let anything_running = self.state.anything_running();
        let anything_pending = ControlPlane::backlog(self) > 0;
        // an empty cluster waiting for the next job arrival is
        // not a livelock — only count heartbeats where released
        // work sits unplaced
        if anything_running || !anything_pending {
            self.idle_heartbeats = 0;
        } else {
            self.idle_heartbeats += 1;
            if self.idle_heartbeats > 600 {
                self.aborted = true;
                self.publish(EngineEvent::Aborted {
                    cause: AbortCause::Livelock,
                    task: None,
                });
            }
        }
        if !self.ctl.all_done() && !self.aborted {
            self.source.schedule(
                self.now + self.input.config.engine.heartbeat,
                Event::Heartbeat,
            );
        }
    }

    /// One failure-detector round, driven off the engine heartbeat: feed
    /// it heartbeats from nodes still emitting them, re-admit dead nodes
    /// whose heartbeats resumed, then evaluate the timeout thresholds.
    pub(crate) fn detector_tick(&mut self) {
        let mut revived: Vec<NodeId> = Vec::new();
        {
            let det = self.detector.as_mut().expect("gated by caller");
            for (i, node) in self.state.nodes.iter().enumerate() {
                // deprovisioned spot nodes are out of the fleet: the RM
                // does not expect heartbeats from them, so they are
                // observed as healthy rather than aged towards dead
                let heartbeating =
                    !node.provisioned || (!node.crashed && self.now >= node.hb_dropout_until);
                if !heartbeating {
                    continue;
                }
                let id = NodeId(i);
                if det.is_dead(id) {
                    det.revive(id, self.now);
                    revived.push(id);
                } else {
                    det.observe(id, self.now);
                }
            }
        }
        for id in revived {
            self.publish(EngineEvent::NodeRecovered { node: id });
            self.need_offers = true;
        }
        let transitions = self
            .detector
            .as_mut()
            .expect("gated by caller")
            .evaluate(self.now);
        for t in transitions {
            // every transition flips the node's suspect or dead flag
            self.ctl.offers().node_dirty(t.node);
            match t.to {
                NodeHealth::Suspect => {
                    self.publish(EngineEvent::NodeSuspect {
                        node: t.node,
                        age: t.age,
                    });
                }
                NodeHealth::Dead => {
                    self.publish(EngineEvent::NodeDead {
                        node: t.node,
                        age: t.age,
                    });
                    // the driver abandons the node's executor: whether
                    // the node is physically down (crash) or merely
                    // partitioned (dropout), its tasks, cache and map
                    // outputs are gone from the cluster's point of view
                    self.node_lost(t.node);
                }
                NodeHealth::Alive => {
                    // a suspect's heartbeats caught up before the dead
                    // threshold — it never left the rankings
                }
            }
        }
    }
}
