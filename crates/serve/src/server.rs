//! The serve-mode server: wires a `ServeDriver` on a wall-clock event
//! source to a fleet of worker-agent threads and a client handle.
//!
//! ```text
//!   ClientHandle ──┐                         ┌──> worker 0 (thread)
//!                  ├─ sync_channel ─> driver ─┤        │
//!   worker reports ┘   (bounded)    (thread)  └──> worker N
//!        ^ ______________ reports ____________________│
//! ```
//!
//! All transport is in-process channels; the framing in [`crate::proto`]
//! keeps the boundary RPC-shaped. The driver logs every external event
//! it sequences, and [`ServerHandle::wait`] hands that log back so
//! callers can run the replay oracle.

use std::sync::mpsc::{channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use rupam_cluster::ClusterSpec;
use rupam_dag::app::JobId;
use rupam_dag::MergedStream;
use rupam_exec::scheduler::Scheduler;
use rupam_faults::FaultScript;
use rupam_simcore::source::WallClockSource;
use rupam_simcore::SimTime;

use crate::agent::{self, AgentConfig};
use crate::driver::{Outbox, ServeConfig, ServeDriver, ServeReport};
use crate::error::ServeError;
use crate::proto::{ClientRequest, Frame, ServeEvent};

/// Client side of the service: submit stream jobs, then drain.
#[derive(Clone)]
pub struct ClientHandle {
    tx: SyncSender<ServeEvent>,
    seq: u64,
}

impl ClientHandle {
    fn send(&mut self, body: ClientRequest) -> Result<(), ServeError> {
        let frame = Frame {
            seq: self.seq,
            body,
        };
        self.seq += 1;
        self.tx
            .send(ServeEvent::Client(frame))
            .map_err(|_| ServeError::Disconnected("client"))
    }

    /// Make catalog job `job` runnable now. Blocks if the server's input
    /// channel is full (backpressure).
    pub fn submit(&mut self, job: JobId) -> Result<(), ServeError> {
        self.send(ClientRequest::Submit { job })
    }

    /// Announce that no further submissions will come; the server
    /// finishes outstanding work and shuts down.
    pub fn drain(&mut self) -> Result<(), ServeError> {
        self.send(ClientRequest::Drain)
    }
}

/// What a finished serve run hands back.
pub struct ServeOutcome {
    /// Aggregate statistics and the decision-trace digest.
    pub report: ServeReport,
    /// Every external input in sequencing order with its stamp — the
    /// replay oracle's input.
    pub log: Vec<(SimTime, ServeEvent)>,
}

/// A running serve instance: the driver thread, its worker fleet, and a
/// client handle.
pub struct ServerHandle {
    /// Handle for submitting jobs and draining.
    pub client: ClientHandle,
    driver: JoinHandle<DriverResult>,
    workers: Vec<JoinHandle<()>>,
}

/// What the driver thread hands back: the run's report plus the stamped
/// input log the replay oracle consumes.
type DriverResult = Result<(ServeReport, Vec<(SimTime, ServeEvent)>), ServeError>;

impl ServerHandle {
    /// Block until the service drains (or aborts) and collect the
    /// outcome. Joins every thread the server spawned.
    pub fn wait(self) -> Result<ServeOutcome, ServeError> {
        let ServerHandle {
            client,
            driver,
            workers,
        } = self;
        drop(client); // release our sender so drain can complete the source
        let result = driver
            .join()
            .map_err(|p| ServeError::Thread(panic_message(p)))?;
        for w in workers {
            let _ = w.join();
        }
        let (report, log) = result?;
        Ok(ServeOutcome { report, log })
    }
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".into())
}

/// Start the live service: spawns the driver thread plus one agent
/// thread per cluster node, with `faults` acted out by the agents at
/// script time × `cfg.time_scale`.
pub fn start(
    cluster: Arc<ClusterSpec>,
    catalog: Arc<MergedStream>,
    mut sched: Box<dyn Scheduler + Send>,
    cfg: ServeConfig,
    faults: &FaultScript,
) -> ServerHandle {
    let (event_tx, source) = WallClockSource::new(cfg.channel_capacity);

    let mut worker_txs = Vec::with_capacity(cluster.len());
    let mut workers = Vec::with_capacity(cluster.len());
    for (id, _) in cluster.iter() {
        let (cmd_tx, cmd_rx) = channel();
        worker_txs.push(cmd_tx);
        let node_faults: Vec<(Duration, rupam_faults::FaultKind)> = faults
            .events()
            .iter()
            .filter(|f| f.node == id)
            .map(|f| {
                let wall = Duration::from_secs_f64(
                    SimTime(f.at.0).since(SimTime::ZERO).as_secs_f64() * cfg.time_scale,
                );
                (wall, f.kind)
            })
            .collect();
        let agent_cfg = AgentConfig {
            worker: id,
            heartbeat: cfg.worker_heartbeat,
            time_scale: cfg.time_scale,
            faults: node_faults,
            seed: 0x5E17E + id.index() as u64,
        };
        workers.push(agent::spawn(agent_cfg, cmd_rx, event_tx.clone()));
    }

    let client = ClientHandle {
        tx: event_tx,
        seq: 0,
    };

    let driver = std::thread::Builder::new()
        .name("rupam-serve-driver".into())
        .spawn(move || {
            let mut source = source;
            let mut drv = ServeDriver::new(
                &cluster,
                &catalog,
                &cfg,
                sched.as_mut(),
                // the driver pops from the wall source and sends commands
                // to the real worker inboxes
                &mut source,
                Outbox::Live(worker_txs),
            );
            let run = drv.run();
            let report = drv.report();
            drop(drv);
            let log = source.take_log();
            match run {
                Ok(()) => Ok((report, log)),
                Err(e) => Err(ServeError::Engine(e)),
            }
        })
        .expect("spawn serve driver");

    ServerHandle {
        client,
        driver,
        workers,
    }
}
