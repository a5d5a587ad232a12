//! `rupam-serve` — run the RUPAM scheduler as a live wall-clock service
//! against a synthetic worker fleet, then certify the run with the
//! sim-mode replay oracle.
//!
//! ```text
//! rupam-serve [--workers N] [--jobs J] [--tasks T] [--time-scale F]
//!             [--faults FILE] [--no-replay-check]
//! ```
//!
//! Exits non-zero if the run aborts, loses tasks, or (unless disabled)
//! the replayed decision-trace digest differs from the live one.

use std::process::ExitCode;
use std::sync::Arc;

use rupam::{RupamConfig, RupamScheduler};
use rupam_faults::FaultScript;
use rupam_serve::testbed::{build_fleet, pressure_stream};
use rupam_serve::{replay, server, ServeConfig};

struct Args {
    workers: usize,
    jobs: usize,
    tasks: usize,
    time_scale: f64,
    faults: Option<String>,
    replay_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workers: 16,
        jobs: 8,
        tasks: 32,
        time_scale: 0.002,
        faults: None,
        replay_check: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--jobs" => {
                args.jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?
            }
            "--tasks" => {
                args.tasks = value("--tasks")?
                    .parse()
                    .map_err(|e| format!("--tasks: {e}"))?
            }
            "--time-scale" => {
                args.time_scale = value("--time-scale")?
                    .parse()
                    .map_err(|e| format!("--time-scale: {e}"))?
            }
            "--faults" => args.faults = Some(value("--faults")?),
            "--no-replay-check" => args.replay_check = false,
            "--help" | "-h" => {
                println!(
                    "usage: rupam-serve [--workers N] [--jobs J] [--tasks T] \
                     [--time-scale F] [--faults FILE] [--no-replay-check]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rupam-serve: {e}");
            return ExitCode::FAILURE;
        }
    };

    let script = match &args.faults {
        None => FaultScript::empty(),
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("rupam-serve: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match FaultScript::parse_toml(&text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("rupam-serve: bad fault script {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    let cluster = Arc::new(build_fleet(args.workers));
    let catalog = Arc::new(pressure_stream(args.jobs, args.tasks));
    let mut cfg = ServeConfig {
        time_scale: args.time_scale,
        ..ServeConfig::default()
    };
    // Detector thresholds are authored in sim time but enforced as wall
    // durations by the serve driver; scale them like task holds so
    // failure detection keeps pace with the accelerated clock, but never
    // below a few heartbeat intervals or a slow runner would declare
    // healthy workers dead.
    let hb = cfg.worker_heartbeat.as_micros() as u64;
    let scale = |d: rupam_simcore::time::SimDuration, floor_beats: u64| {
        rupam_simcore::time::SimDuration(
            ((d.0 as f64 * args.time_scale) as u64).max(hb * floor_beats),
        )
    };
    cfg.sim.faults.suspect_after = scale(cfg.sim.faults.suspect_after, 4);
    cfg.sim.faults.dead_after = scale(cfg.sim.faults.dead_after, 10);

    println!(
        "rupam-serve: {} workers, {} jobs x {} tasks, time-scale {}",
        args.workers, args.jobs, args.tasks, args.time_scale
    );

    let handle = server::start(
        Arc::clone(&cluster),
        Arc::clone(&catalog),
        Box::new(RupamScheduler::new(RupamConfig::default())),
        cfg.clone(),
        &script,
    );
    let mut client = handle.client.clone();
    for j in 0..catalog.jobs.len() {
        if let Err(e) = client.submit(rupam_dag::app::JobId(j)) {
            eprintln!("rupam-serve: submit failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = client.drain() {
        eprintln!("rupam-serve: drain failed: {e}");
        return ExitCode::FAILURE;
    }
    drop(client);

    let outcome = match handle.wait() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rupam-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let r = &outcome.report;
    println!(
        "drained: jobs {}/{} launched {} completed {} failed {} lost {}",
        r.jobs_completed, r.jobs_submitted, r.launched, r.completed, r.failed, r.lost_tasks
    );
    println!(
        "dispatch p50 {} us, p99 {} us; max pending {}; makespan {:.3} s; digest {:016x}",
        r.dispatch_p50_us,
        r.dispatch_p99_us,
        r.max_pending,
        r.makespan.as_secs_f64(),
        r.digest
    );
    println!(
        "offers: {} rounds, p50 {} us, p95 {} us; dropped launches: {} stale, {} dead-node",
        r.offer_rounds, r.offer_p50_us, r.offer_p95_us, r.stale_launch_drops, r.dead_launch_drops
    );

    let mut ok = r.clean && r.lost_tasks == 0;
    if !ok {
        eprintln!(
            "rupam-serve: UNCLEAN drain (clean={}, lost={}, abort={:?})",
            r.clean, r.lost_tasks, r.abort
        );
    }

    if args.replay_check {
        let mut oracle = RupamScheduler::new(RupamConfig::default());
        match replay(&cluster, &catalog, &mut oracle, &cfg, &outcome.log) {
            Ok(replayed) => {
                if replayed.digest == r.digest {
                    println!(
                        "replay: digest match ({:016x}) — run is deterministic",
                        r.digest
                    );
                } else {
                    eprintln!(
                        "replay: DIGEST MISMATCH live {:016x} vs replay {:016x}",
                        r.digest, replayed.digest
                    );
                    ok = false;
                }
            }
            Err(e) => {
                eprintln!("replay: failed: {e}");
                ok = false;
            }
        }
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
