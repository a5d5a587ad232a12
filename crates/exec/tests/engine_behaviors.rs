//! Behavioural integration tests of the execution engine through its
//! public API: contention physics, GPU sharing, decision-cost
//! accounting, and executor-loss consequences.

use rupam_cluster::{ClusterSpec, DiskSpec, NodeId, NodeSpec};
use rupam_dag::app::{Application, StageKind};
use rupam_dag::data::DataLayout;
use rupam_dag::task::{CacheKey, InputSource, TaskDemand, TaskTemplate};
use rupam_dag::AppBuilder;
use rupam_exec::scheduler::{Command, OfferInput, Scheduler};
use rupam_exec::{simulate, LaunchReason, SimConfig, SimInput};
use rupam_metrics::breakdown::BreakdownCategory as C;
use rupam_simcore::time::SimDuration;
use rupam_simcore::units::ByteSize;

/// Pin every task onto one node, `slots` at a time.
struct PinAll {
    node: NodeId,
    slots: usize,
    use_gpu: bool,
}

impl Scheduler for PinAll {
    fn name(&self) -> &str {
        "pin-all"
    }
    fn executor_memory(&self, cluster: &ClusterSpec, node: NodeId) -> ByteSize {
        cluster.node(node).mem
    }
    fn decision_cost(&self) -> SimDuration {
        SimDuration::from_millis(50)
    }
    fn offer_round(&mut self, input: &OfferInput<'_>) -> Vec<Command> {
        let running = input.nodes[self.node.index()].running_count();
        input
            .pending
            .iter()
            .take(self.slots.saturating_sub(running))
            .map(|p| Command::Launch {
                task: p.task,
                node: self.node,
                use_gpu: self.use_gpu,
                speculative: false,
                reason: LaunchReason::FifoSlot,
            })
            .collect()
    }
}

fn single_node_cluster(cores: u32, ghz: f64, gpus: u32) -> ClusterSpec {
    ClusterSpec::new(vec![NodeSpec {
        name: "solo".into(),
        class: "solo".into(),
        cores,
        cpu_ghz: ghz,
        mem: ByteSize::gib(64),
        net_bw: 125e6,
        disk: DiskSpec::sata_ssd(),
        gpus,
        gpu_gcps: 20.0,
        rack: 0,
    }])
}

fn compute_app(n: usize, compute: f64, gpu_kernels: f64) -> Application {
    let mut b = AppBuilder::new("behav");
    let j = b.begin_job();
    b.add_stage(
        j,
        "r",
        "behav/r",
        StageKind::Result,
        vec![],
        (0..n)
            .map(|i| TaskTemplate {
                index: i,
                input: InputSource::Generated,
                demand: TaskDemand {
                    compute,
                    gpu_kernels,
                    peak_mem: ByteSize::mib(128),
                    ..TaskDemand::default()
                },
            })
            .collect(),
    );
    b.build()
}

fn run(
    cluster: &ClusterSpec,
    app: &Application,
    sched: &mut dyn Scheduler,
    seed: u64,
) -> rupam_metrics::RunReport {
    let layout = DataLayout::new();
    let cfg = SimConfig::default();
    let input = SimInput {
        cluster,
        app,
        layout: &layout,
        config: &cfg,
        seed,
    };
    simulate(&input, sched)
}

#[test]
fn cpu_sharing_is_fair_processor_sharing() {
    // 8 identical tasks on 4 cores: each takes ~2× its solo time
    let cluster = single_node_cluster(4, 2.0, 0);
    let solo = {
        let app = compute_app(1, 20.0, 0.0);
        let mut s = PinAll {
            node: NodeId(0),
            slots: 8,
            use_gpu: false,
        };
        run(&cluster, &app, &mut s, 1).makespan.as_secs_f64()
    };
    let crowded = {
        let app = compute_app(8, 20.0, 0.0);
        let mut s = PinAll {
            node: NodeId(0),
            slots: 8,
            use_gpu: false,
        };
        run(&cluster, &app, &mut s, 1).makespan.as_secs_f64()
    };
    let ratio = crowded / solo;
    assert!(
        (1.7..2.4).contains(&ratio),
        "8 tasks on 4 cores should take ~2x one task, got {ratio:.2}x ({solo:.1}s -> {crowded:.1}s)"
    );
}

#[test]
fn gpu_contention_serialises_kernels() {
    // 4 GPU tasks on a 1-GPU node take ~4× one GPU task
    let cluster = single_node_cluster(8, 2.0, 1);
    let solo = {
        let app = compute_app(1, 40.0, 40.0);
        let mut s = PinAll {
            node: NodeId(0),
            slots: 8,
            use_gpu: true,
        };
        run(&cluster, &app, &mut s, 2).makespan.as_secs_f64()
    };
    let crowded = {
        let app = compute_app(4, 40.0, 40.0);
        let mut s = PinAll {
            node: NodeId(0),
            slots: 8,
            use_gpu: true,
        };
        run(&cluster, &app, &mut s, 2).makespan.as_secs_f64()
    };
    let ratio = crowded / solo;
    assert!(
        (3.2..4.8).contains(&ratio),
        "4 kernels through 1 GPU should take ~4x, got {ratio:.2}x"
    );
}

#[test]
fn gpu_beats_cpu_for_kernel_heavy_tasks() {
    let cluster = single_node_cluster(8, 1.0, 1);
    let app = compute_app(1, 40.0, 40.0);
    let on_gpu = {
        let mut s = PinAll {
            node: NodeId(0),
            slots: 1,
            use_gpu: true,
        };
        run(&cluster, &app, &mut s, 3)
    };
    // a GPU-capable task on a GPU node grabs the GPU opportunistically,
    // so contrast against a cluster with no GPU at all
    let no_gpu_cluster = single_node_cluster(8, 1.0, 0);
    let on_cpu = {
        let mut s = PinAll {
            node: NodeId(0),
            slots: 1,
            use_gpu: false,
        };
        run(&no_gpu_cluster, &app, &mut s, 3)
    };
    assert_eq!(on_gpu.gpu_task_count(), 1);
    assert_eq!(on_cpu.gpu_task_count(), 0);
    // 40 Gc at 20 Gc/s (GPU) vs 1 GHz core: 2 s vs 40 s
    assert!(
        on_cpu.makespan.as_secs_f64() / on_gpu.makespan.as_secs_f64() > 5.0,
        "GPU run {} should crush CPU run {}",
        on_gpu.makespan,
        on_cpu.makespan
    );
}

#[test]
fn decision_cost_lands_in_scheduler_delay() {
    let cluster = single_node_cluster(4, 2.0, 0);
    let app = compute_app(4, 4.0, 0.0);
    let mut s = PinAll {
        node: NodeId(0),
        slots: 4,
        use_gpu: false,
    };
    let report = run(&cluster, &app, &mut s, 4);
    let total = report.breakdown_totals();
    let delay = total.get(C::SchedulerDelay);
    // 4 tasks × 50 ms decision cost
    assert_eq!(delay, SimDuration::from_millis(200));
}

#[test]
fn executor_loss_wipes_the_partition_cache() {
    // Job 1 caches partitions; between jobs the executor dies from an
    // engineered memory blow-up; job 2 must re-read (no PROCESS_LOCAL).
    let cluster = single_node_cluster(8, 2.0, 0);
    let mut rng = rupam_simcore::RngFactory::new(5).stream("layout");
    let mut layout = DataLayout::new();
    let blocks = layout.place_blocks(&cluster, &[ByteSize::mib(64); 4], 1, &mut rng);
    let mut b = AppBuilder::new("cachewipe");
    let scan_tasks = |blocks: &[rupam_dag::BlockId]| {
        blocks
            .iter()
            .enumerate()
            .map(|(i, blk)| TaskTemplate {
                index: i,
                input: InputSource::CachedOrHdfs {
                    key: CacheKey::new("cw/data", i),
                    fallback: *blk,
                },
                demand: TaskDemand {
                    compute: 2.0,
                    input_bytes: ByteSize::mib(64),
                    peak_mem: ByteSize::mib(256),
                    cached_bytes: ByteSize::mib(80),
                    ..TaskDemand::default()
                },
            })
            .collect::<Vec<_>>()
    };
    // job 1: populate the cache
    let j = b.begin_job();
    b.add_stage(
        j,
        "scan1",
        "cw/data",
        StageKind::Result,
        vec![],
        scan_tasks(&blocks),
    );
    // job 2: a memory bomb — two 45 GiB tasks together overshoot the
    // 62 GiB executor past the kill ratio; each alone fits fine
    let j = b.begin_job();
    b.add_stage(
        j,
        "bomb",
        "cw/bomb",
        StageKind::Result,
        vec![],
        (0..2)
            .map(|i| TaskTemplate {
                index: i,
                input: InputSource::Generated,
                demand: TaskDemand {
                    compute: 30.0,
                    peak_mem: ByteSize::gib(45),
                    ..TaskDemand::default()
                },
            })
            .collect(),
    );
    // job 3: scan again — should find the cache gone
    let j = b.begin_job();
    b.add_stage(
        j,
        "scan2",
        "cw/data",
        StageKind::Result,
        vec![],
        scan_tasks(&blocks),
    );
    let app = b.build();

    // the scheduler detonates the bomb once (both tasks together), then
    // relaunches the survivors one at a time so the run can finish
    struct Detonator {
        boomed: bool,
    }
    impl Scheduler for Detonator {
        fn name(&self) -> &str {
            "detonator"
        }
        fn executor_memory(&self, c: &ClusterSpec, n: NodeId) -> ByteSize {
            c.node(n).mem
        }
        fn on_task_failed(
            &mut self,
            _task: rupam_dag::TaskRef,
            _node: NodeId,
            _outcome: rupam_metrics::record::AttemptOutcome,
            _now: rupam_simcore::time::SimTime,
        ) {
            self.boomed = true;
        }
        fn offer_round(&mut self, input: &OfferInput<'_>) -> Vec<Command> {
            let node = NodeId(0);
            if input.nodes[0].blocked {
                return vec![];
            }
            let bombs_running = input.nodes[0]
                .running
                .iter()
                .filter(|r| r.peak_mem > ByteSize::gib(10))
                .count();
            let mut cmds = Vec::new();
            for p in &input.pending {
                let is_bomb = p.template_key == "cw/bomb";
                if is_bomb && self.boomed && (bombs_running > 0 || !cmds.is_empty()) {
                    continue; // post-boom: one bomb at a time
                }
                cmds.push(Command::Launch {
                    task: p.task,
                    node,
                    use_gpu: false,
                    speculative: false,
                    reason: LaunchReason::FifoSlot,
                });
            }
            cmds
        }
    }
    let cfg = SimConfig::default();
    let input = SimInput {
        cluster: &cluster,
        app: &app,
        layout: &layout,
        config: &cfg,
        seed: 5,
    };
    let mut s = Detonator { boomed: false };
    let report = simulate(&input, &mut s);
    assert!(report.completed);
    assert!(
        report.executor_losses > 0,
        "the bomb should kill the executor"
    );
    let scan2_process_local = report
        .records
        .iter()
        .filter(|r| {
            r.task.stage.index() == 2
                && r.outcome.is_success()
                && r.locality == rupam_dag::Locality::ProcessLocal
        })
        .count();
    assert_eq!(
        scan2_process_local, 0,
        "post-loss scan must not hit the wiped cache"
    );
}

#[test]
fn network_sharing_scales_fetch_time() {
    // reduce tasks fetching remote shuffle share the NIC
    let mk = |reducers: usize| {
        let mut b = AppBuilder::new("net");
        let j = b.begin_job();
        let maps: Vec<TaskTemplate> = (0..4)
            .map(|i| TaskTemplate {
                index: i,
                input: InputSource::Generated,
                demand: TaskDemand {
                    compute: 0.5,
                    shuffle_write: ByteSize::mib(100),
                    peak_mem: ByteSize::mib(64),
                    ..TaskDemand::default()
                },
            })
            .collect();
        let m = b.add_stage(j, "m", "net/m", StageKind::ShuffleMap, vec![], maps);
        let reds: Vec<TaskTemplate> = (0..reducers)
            .map(|i| TaskTemplate {
                index: i,
                input: InputSource::Shuffle,
                demand: TaskDemand {
                    compute: 0.1,
                    shuffle_read: ByteSize::mib(400 / reducers as u64),
                    peak_mem: ByteSize::mib(64),
                    ..TaskDemand::default()
                },
            })
            .collect();
        b.add_stage(j, "r", "net/r", StageKind::Result, vec![m], reds);
        b.build()
    };
    // two nodes: maps pinned on node 0, reduces pinned on node 1 → all
    // shuffle bytes cross node 1's NIC
    struct SplitPin;
    impl Scheduler for SplitPin {
        fn name(&self) -> &str {
            "split-pin"
        }
        fn executor_memory(&self, c: &ClusterSpec, n: NodeId) -> ByteSize {
            c.node(n).mem
        }
        fn offer_round(&mut self, input: &OfferInput<'_>) -> Vec<Command> {
            input
                .pending
                .iter()
                .map(|p| Command::Launch {
                    task: p.task,
                    node: if p.template_key == "net/m" {
                        NodeId(0)
                    } else {
                        NodeId(1)
                    },
                    use_gpu: false,
                    speculative: false,
                    reason: LaunchReason::FifoSlot,
                })
                .collect()
        }
    }
    let cluster = ClusterSpec::homogeneous(2);
    let layout = DataLayout::new();
    let cfg = SimConfig::default();
    let run_net = |reducers: usize| {
        let app = mk(reducers);
        let input = SimInput {
            cluster: &cluster,
            app: &app,
            layout: &layout,
            config: &cfg,
            seed: 6,
        };
        let mut s = SplitPin;
        let report = simulate(&input, &mut s);
        assert!(report.completed);
        report.makespan.as_secs_f64()
    };
    // the same 400 MiB cross one NIC either way, so the fan-in must not
    // change wall time (fluid sharing conserves bandwidth)
    let t1 = run_net(1);
    let t4 = run_net(4);
    assert!(
        (t1 - t4).abs() / t1 < 0.15,
        "wall time should be volume-bound: 1 reducer {t1:.2}s vs 4 reducers {t4:.2}s"
    );
}

#[test]
fn scales_to_thousands_of_tasks() {
    // a 3 000-task two-stage app on 12 nodes must complete correctly and
    // in reasonable wall time (the fluid engine is O(events × running))
    let cluster = ClusterSpec::homogeneous(12);
    let mut b = AppBuilder::new("stress");
    let j = b.begin_job();
    let maps: Vec<TaskTemplate> = (0..2500)
        .map(|i| TaskTemplate {
            index: i,
            input: InputSource::Generated,
            demand: TaskDemand {
                compute: 2.0,
                shuffle_write: ByteSize::mib(4),
                peak_mem: ByteSize::mib(64),
                ..TaskDemand::default()
            },
        })
        .collect();
    let m = b.add_stage(j, "m", "stress/m", StageKind::ShuffleMap, vec![], maps);
    let reds: Vec<TaskTemplate> = (0..500)
        .map(|i| TaskTemplate {
            index: i,
            input: InputSource::Shuffle,
            demand: TaskDemand {
                compute: 1.0,
                shuffle_read: ByteSize::mib(20),
                peak_mem: ByteSize::mib(64),
                ..TaskDemand::default()
            },
        })
        .collect();
    b.add_stage(j, "r", "stress/r", StageKind::Result, vec![m], reds);
    let app = b.build();
    let layout = DataLayout::new();
    let cfg = SimConfig::default();
    let input = SimInput {
        cluster: &cluster,
        app: &app,
        layout: &layout,
        config: &cfg,
        seed: 9,
    };

    struct RR(Vec<usize>);
    impl Scheduler for RR {
        fn name(&self) -> &str {
            "stress-rr"
        }
        fn executor_memory(&self, c: &ClusterSpec, n: NodeId) -> ByteSize {
            c.node(n).mem
        }
        fn on_app_start(&mut self, _: &Application, c: &ClusterSpec) {
            self.0 = c.nodes().iter().map(|n| n.cores as usize).collect();
        }
        fn offer_round(&mut self, input: &OfferInput<'_>) -> Vec<Command> {
            let mut used: Vec<usize> = input.nodes.iter().map(|n| n.running_count()).collect();
            let mut cursor = 0usize;
            let n = input.nodes.len();
            input
                .pending
                .iter()
                .filter_map(|p| {
                    let i = (0..n)
                        .map(|k| (cursor + k) % n)
                        .find(|&i| used[i] < self.0[i])?;
                    used[i] += 1;
                    cursor = (i + 1) % n;
                    Some(Command::Launch {
                        task: p.task,
                        node: NodeId(i),
                        use_gpu: false,
                        speculative: false,
                        reason: LaunchReason::FifoSlot,
                    })
                })
                .collect()
        }
    }
    let started = std::time::Instant::now();
    let mut sched = RR(Vec::new());
    let report = simulate(&input, &mut sched);
    assert!(report.completed);
    let successes = report
        .records
        .iter()
        .filter(|r| r.outcome.is_success())
        .count();
    assert_eq!(successes, 3000);
    assert!(
        started.elapsed().as_secs() < 120,
        "3k-task simulation took {:?} — the engine regressed badly",
        started.elapsed()
    );
}

/// Commands naming a node the cluster does not have are dropped like a
/// lost RPC: every round first kills and launches each pending task on
/// `NodeId(cluster.len())`, then launches it on node 0, and the run
/// completes.
#[test]
fn commands_to_an_unknown_node_are_dropped() {
    struct Misaimed;
    impl Scheduler for Misaimed {
        fn name(&self) -> &str {
            "misaimed"
        }
        fn executor_memory(&self, c: &ClusterSpec, n: NodeId) -> ByteSize {
            c.node(n).mem
        }
        fn offer_round(&mut self, input: &OfferInput<'_>) -> Vec<Command> {
            let nowhere = NodeId(input.cluster.len());
            let launch = |task, node| Command::Launch {
                task,
                node,
                use_gpu: false,
                speculative: false,
                reason: LaunchReason::FifoSlot,
            };
            (input.pending.iter())
                .flat_map(|p| {
                    let reason = rupam_exec::KillReason::MemoryStraggler;
                    [
                        Command::KillAndRequeue {
                            task: p.task,
                            node: nowhere,
                            reason,
                        },
                        launch(p.task, nowhere),
                        launch(p.task, NodeId(0)),
                    ]
                })
                .collect()
        }
    }
    let cluster = single_node_cluster(4, 2.0, 0);
    let app = compute_app(3, 2.0, 0.0);
    let report = run(&cluster, &app, &mut Misaimed, 1);
    assert!(report.completed);
    assert_eq!(report.records.len(), 3);
    assert!(report.records.iter().all(|r| r.node == NodeId(0)));
}
