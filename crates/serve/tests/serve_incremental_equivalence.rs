//! Seat-partition property: the per-tenant class split the Dispatcher
//! reads instead of rescanning the task queues. The split is maintained
//! across rounds — by ingestion, launch/removal, and `DB_task_char`-
//! driven reclassification — so after *any* interleaving of those its
//! shards must equal a from-scratch rebuild from a model that assigns
//! seats itself: each queue's members in seat order, filtered by owning
//! tenant and split by each member's latest classification, and each
//! special member listed under every node its class names. (The serve
//! driver's persistent offer state is
//! cross-checked against a fresh build every round by the driver itself
//! in debug builds, so every debug-built serve test covers it.)

mod seat_partition {
    use std::collections::HashMap;

    use proptest::prelude::*;
    use rupam::tm::{NodeEntry, TaskClass, TaskQueues};
    use rupam_cluster::{NodeId, ResourceKind};
    use rupam_dag::app::StageId;
    use rupam_dag::{TaskRef, TenantId};
    use rupam_simcore::units::ByteSize;

    const TENANTS: usize = 3;
    const SLOTS: usize = 24;
    /// Nodes a class may prefer or be locked to.
    const NODES: usize = 4;

    fn task(slot: usize) -> TaskRef {
        TaskRef {
            stage: StageId(slot / 8),
            index: slot % 8,
        }
    }

    fn tenant(slot: usize) -> TenantId {
        TenantId(slot % TENANTS)
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// A view became pending: enqueue into a kind subset (or
        /// resurrect the historical seats of a re-pended task).
        Enqueue {
            slot: usize,
            kinds: Vec<ResourceKind>,
            class: TaskClass,
        },
        /// A refreshed view or a `DB_task_char` write changed the
        /// classification of a still-queued task: its side, peak,
        /// preferred nodes or lock target.
        Reclassify { slot: usize, class: TaskClass },
        /// The task launched (or its stage was cancelled): leave every
        /// queue.
        Remove { slot: usize },
    }

    /// A class from integer draws: a peak of one to four 128 MiB steps
    /// (few values, so a reclassification often keeps the peak and moves
    /// only the nodes or the lock); plain unless bit 5 of `bits` is set;
    /// a special class takes its preferred nodes from the low four bits
    /// of `place` and a lock target from the next three (targets past
    /// the last node mean no lock), and is locked to node 0 when both
    /// come out empty.
    fn class(bits: u32, place: u32, peak_step: u64) -> TaskClass {
        let peak = ByteSize::mib(128 * (1 + peak_step));
        if bits & 32 == 0 {
            return TaskClass::plain(peak);
        }
        let prefs: Vec<NodeId> = (0..NODES)
            .filter(|n| place & (1 << n) != 0)
            .map(NodeId)
            .collect();
        let target = (place >> 4) as usize;
        let lock = match (target < NODES, prefs.is_empty()) {
            (true, _) => Some(NodeId(target)),
            (false, true) => Some(NodeId(0)),
            (false, false) => None,
        };
        TaskClass { prefs, lock, peak }
    }

    /// Ops drawn from integer tuples (the vendored proptest carries no
    /// oneof/subsequence combinators): `sel` weights enqueue :
    /// reclassify : remove at 3 : 2 : 2, `bits` is a 5-bit kind mask
    /// (empty masks fall back to the CPU queue) plus the special flag,
    /// and `place` picks a special class's nodes.
    fn op_strategy() -> impl Strategy<Value = Op> {
        (0u32..7, 0usize..SLOTS, 0u32..64, 0u64..4, 0u32..128).prop_map(
            |(sel, slot, bits, peak_step, place)| {
                let class = class(bits, place, peak_step);
                match sel {
                    0..=2 => {
                        let mut kinds: Vec<ResourceKind> = ResourceKind::ALL
                            .iter()
                            .enumerate()
                            .filter(|&(i, _)| bits & (1 << i) != 0)
                            .map(|(_, &k)| k)
                            .collect();
                        if kinds.is_empty() {
                            kinds.push(ResourceKind::Cpu);
                        }
                        Op::Enqueue { slot, kinds, class }
                    }
                    3 | 4 => Op::Reclassify { slot, class },
                    _ => Op::Remove { slot },
                }
            },
        )
    }

    /// The reference model: each member's latest classification, and
    /// every seat ever assigned — a slot's first enqueue into a kind
    /// takes the next seat, kept across removals.
    #[derive(Default)]
    struct Model {
        class: HashMap<usize, TaskClass>,
        seats: HashMap<(ResourceKind, usize), u64>,
        next_seat: u64,
    }

    impl Model {
        fn enqueue(&mut self, slot: usize, kinds: &[ResourceKind], class: TaskClass) {
            for &k in kinds {
                if let std::collections::hash_map::Entry::Vacant(e) = self.seats.entry((k, slot)) {
                    e.insert(self.next_seat);
                    self.next_seat += 1;
                }
            }
            self.class.insert(slot, class);
        }

        /// A queue's members in seat order, `(seat, slot)`: every member
        /// holding a seat in `kind`, not just the kinds it was last
        /// enqueued for.
        fn live(&self, kind: ResourceKind) -> Vec<(u64, usize)> {
            let mut entries: Vec<(u64, usize)> = self
                .class
                .keys()
                .filter_map(|&slot| Some((*self.seats.get(&(kind, slot))?, slot)))
                .collect();
            entries.sort_unstable();
            entries
        }
    }

    /// Every queue equals the model's, every shard equals it filtered by
    /// tenant and split by the model's classification, every node
    /// listing holds exactly the special members naming that node, the
    /// floors agree, and the queues' own rebuild check passes.
    fn assert_partition(q: &TaskQueues, model: &Model) {
        for kind in ResourceKind::ALL {
            let live = model.live(kind);
            assert_eq!(
                q.iter_kind(kind).collect::<Vec<_>>(),
                live.iter().map(|&(_, slot)| task(slot)).collect::<Vec<_>>(),
                "{kind:?} queue diverged from the model"
            );
            let mut covered = 0usize;
            for t in 0..TENANTS {
                let of_tenant: Vec<(u64, usize, &TaskClass)> = live
                    .iter()
                    .filter(|&&(_, slot)| tenant(slot) == TenantId(t))
                    .map(|&(seat, slot)| (seat, slot, &model.class[&slot]))
                    .collect();
                let side = |special: bool| -> Vec<(u64, TaskRef, ByteSize)> {
                    (of_tenant.iter())
                        .filter(|(_, _, c)| c.special() == special)
                        .map(|&(seat, slot, c)| (seat, task(slot), c.peak))
                        .collect()
                };
                let (want_s, want_p) = (side(true), side(false));
                let t = TenantId(t);
                let got_s: Vec<_> = q.special_kind(kind, t).collect();
                assert_eq!(got_s, want_s, "{kind:?} special shard diverged for {t:?}");
                let got_p: Vec<_> = q.plain_kind(kind, t).collect();
                assert_eq!(got_p, want_p, "{kind:?} plain shard diverged for {t:?}");
                assert_eq!(
                    q.plain_floor(kind, t),
                    want_p.iter().map(|&(_, _, p)| p).min(),
                    "{kind:?} plain floor diverged for {t:?}"
                );
                for n in (0..NODES).map(NodeId) {
                    let want_n: Vec<NodeEntry> = (of_tenant.iter())
                        .filter(|(_, _, c)| {
                            c.special() && (c.prefs.contains(&n) || c.lock == Some(n))
                        })
                        .map(|&(seat, slot, c)| NodeEntry {
                            seat,
                            task: task(slot),
                            peak: c.peak,
                            locked: c.lock == Some(n),
                        })
                        .collect();
                    let got_n: Vec<NodeEntry> = q.node_kind(kind, t, n).collect();
                    assert_eq!(
                        got_n, want_n,
                        "{kind:?} listing under {n:?} diverged for {t:?}"
                    );
                }
                covered += got_s.len() + got_p.len();
            }
            assert_eq!(
                covered,
                live.len(),
                "{kind:?} shards must cover the live queue exactly"
            );
        }
        assert_eq!(
            q.len(),
            model.class.len(),
            "membership diverged from the model"
        );
        assert_eq!(q.verify(), Vec::<String>::new());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn shards_track_filtered_global_split(ops in proptest::collection::vec(op_strategy(), 0..120)) {
            let mut q = TaskQueues::new();
            let mut model = Model::default();
            for op in ops {
                match op {
                    Op::Enqueue { slot, kinds, class } => {
                        q.enqueue(task(slot), &kinds, tenant(slot), class.clone());
                        model.enqueue(slot, &kinds, class);
                    }
                    Op::Reclassify { slot, class } => {
                        q.reclassify(task(slot), class.clone());
                        if let Some(c) = model.class.get_mut(&slot) {
                            *c = class;
                        }
                    }
                    Op::Remove { slot } => {
                        q.remove(&task(slot));
                        model.class.remove(&slot);
                    }
                }
                assert_partition(&q, &model);
            }
        }
    }
}
