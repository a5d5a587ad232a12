//! Seat-partition property: the per-tenant class split the Dispatcher
//! reads instead of rescanning the task queues. The split is maintained
//! across rounds — by ingestion, launch/removal, and `DB_task_char`-
//! driven reclassification — so after *any* interleaving of those its
//! shards must equal a from-scratch rebuild from a model that assigns
//! seats itself: each queue's members in seat order, filtered by owning
//! tenant and split by each member's latest classification. (The serve
//! driver's persistent offer state is
//! cross-checked against a fresh build every round by the driver itself
//! in debug builds, so every debug-built serve test covers it.)

mod seat_partition {
    use std::collections::HashMap;

    use proptest::prelude::*;
    use rupam::tm::TaskQueues;
    use rupam_cluster::ResourceKind;
    use rupam_dag::app::StageId;
    use rupam_dag::{TaskRef, TenantId};
    use rupam_simcore::units::ByteSize;

    const TENANTS: usize = 3;
    const SLOTS: usize = 24;

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
            special: bool,
            peak_mib: u64,
        },
        /// A `DB_task_char` write changed the classification of a
        /// still-queued task.
        Reclassify {
            slot: usize,
            special: bool,
            peak_mib: u64,
        },
        /// The task launched (or its stage was cancelled): leave every
        /// queue.
        Remove { slot: usize },
    }

    /// Ops drawn from integer tuples (the vendored proptest carries no
    /// oneof/subsequence combinators): `sel` weights enqueue :
    /// reclassify : remove at 3 : 2 : 2, `bits` is a 5-bit kind mask
    /// (empty masks fall back to the CPU queue) plus the special flag.
    fn op_strategy() -> impl Strategy<Value = Op> {
        (0u32..7, 0usize..SLOTS, 0u32..64, 64u64..512).prop_map(|(sel, slot, bits, peak_mib)| {
            let special = bits & 32 != 0;
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
                    Op::Enqueue {
                        slot,
                        kinds,
                        special,
                        peak_mib,
                    }
                }
                3 | 4 => Op::Reclassify {
                    slot,
                    special,
                    peak_mib,
                },
                _ => Op::Remove { slot },
            }
        })
    }

    /// The reference model: each member's latest classification, and
    /// every seat ever assigned — a slot's first enqueue into a kind
    /// takes the next seat, kept across removals.
    #[derive(Default)]
    struct Model {
        class: HashMap<usize, (bool, u64)>,
        seats: HashMap<(ResourceKind, usize), u64>,
        next_seat: u64,
    }

    impl Model {
        fn enqueue(&mut self, slot: usize, kinds: &[ResourceKind], special: bool, peak_mib: u64) {
            for &k in kinds {
                if let std::collections::hash_map::Entry::Vacant(e) = self.seats.entry((k, slot)) {
                    e.insert(self.next_seat);
                    self.next_seat += 1;
                }
            }
            self.class.insert(slot, (special, peak_mib));
        }

        /// A queue's members in seat order: every member holding a seat
        /// in `kind`, not just the kinds it was last enqueued for.
        fn live(&self, kind: ResourceKind) -> Vec<TaskRef> {
            let mut entries: Vec<(u64, usize)> = self
                .class
                .keys()
                .filter_map(|&slot| Some((*self.seats.get(&(kind, slot))?, slot)))
                .collect();
            entries.sort_unstable();
            entries.into_iter().map(|(_, slot)| task(slot)).collect()
        }
    }

    /// Every queue equals the model's, every shard equals it filtered by
    /// tenant and split by the model's classification, and the floors
    /// agree.
    fn assert_partition(q: &TaskQueues, model: &Model) {
        let class = &model.class;
        for kind in ResourceKind::ALL {
            let live = model.live(kind);
            assert_eq!(
                q.iter_kind(kind).collect::<Vec<_>>(),
                live,
                "{kind:?} queue diverged from the model"
            );
            let mut covered = 0usize;
            for t in 0..TENANTS {
                let of_tenant = |task: &&TaskRef| {
                    let slot = task.stage.index() * 8 + task.index;
                    tenant(slot) == TenantId(t) && class.contains_key(&slot)
                };
                let class_of = |task: &TaskRef| class[&(task.stage.index() * 8 + task.index)];
                let want_s: Vec<TaskRef> = live
                    .iter()
                    .filter(of_tenant)
                    .filter(|task| class_of(task).0)
                    .copied()
                    .collect();
                let want_p: Vec<(TaskRef, ByteSize)> = live
                    .iter()
                    .filter(of_tenant)
                    .filter(|task| !class_of(task).0)
                    .map(|&task| (task, ByteSize::mib(class_of(&task).1)))
                    .collect();
                let t = TenantId(t);
                let got_s: Vec<TaskRef> = q.special_kind(kind, t).map(|(_, task)| task).collect();
                assert_eq!(got_s, want_s, "{kind:?} special shard diverged for {t:?}");
                let got_p: Vec<(TaskRef, ByteSize)> = q
                    .plain_kind(kind, t)
                    .map(|(_, task, peak)| (task, peak))
                    .collect();
                assert_eq!(got_p, want_p, "{kind:?} plain shard diverged for {t:?}");
                assert_eq!(
                    q.plain_floor(kind, t),
                    want_p.iter().map(|&(_, p)| p).min(),
                    "{kind:?} plain floor diverged for {t:?}"
                );
                covered += got_s.len() + got_p.len();
            }
            assert_eq!(
                covered,
                live.len(),
                "{kind:?} shards must cover the live queue exactly"
            );
        }
        assert_eq!(q.len(), class.len(), "membership diverged from the model");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn shards_track_filtered_global_split(ops in proptest::collection::vec(op_strategy(), 0..120)) {
            let mut q = TaskQueues::new();
            let mut model = Model::default();
            for op in ops {
                match op {
                    Op::Enqueue { slot, kinds, special, peak_mib } => {
                        q.enqueue(task(slot), &kinds, tenant(slot), special, ByteSize::mib(peak_mib));
                        model.enqueue(slot, &kinds, special, peak_mib);
                    }
                    Op::Reclassify { slot, special, peak_mib } => {
                        q.reclassify(task(slot), special, ByteSize::mib(peak_mib));
                        if let Some(c) = model.class.get_mut(&slot) {
                            *c = (special, peak_mib);
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
