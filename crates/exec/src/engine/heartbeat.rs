//! Heartbeat handling: the scheduler's hook, the detector's beacons and
//! the livelock guard.
//!
//! The engine heartbeat drives three things: the scheduler's periodic
//! hook, the failure detector (when a chaos script armed it) and the
//! livelock guard that aborts a run whose scheduler refuses every
//! placement. Which nodes beacon is the engine's physics — crashed and
//! partitioned nodes stay silent; the detector's rules (re-admission,
//! the suspect and dead thresholds, node loss) are the control plane's
//! ([`ControlPlane::beacon`], [`ControlPlane::detector_round`]).

use rupam_cluster::NodeId;
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
        if self.ctl.fleet().watched() {
            for i in 0..self.state.nodes.len() {
                let (id, node) = (NodeId(i), &self.state.nodes[i]);
                // deprovisioned spot nodes are out of the fleet: the RM
                // does not expect heartbeats from them, so they are
                // observed as healthy rather than aged towards dead
                if !self.ctl.fleet().provisioned(id)
                    || (!node.crashed && self.now >= node.hb_dropout_until)
                {
                    ControlPlane::beacon(self, id);
                }
            }
            ControlPlane::detector_round(self);
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
}
