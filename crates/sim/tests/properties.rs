//! Property-based tests for the simulation substrate.

use epcm_sim::clock::{Micros, Timestamp};
use epcm_sim::disk::{
    page_bytes, Device, FaultPlan, FaultRule, FileId, FileStore, FileStoreError, Page, BLOCK_SIZE,
};
use epcm_sim::events::{EventQueue, ExtendError, MultiServer, ShardedEventQueue};
use epcm_sim::rng::Rng;
use epcm_sim::stats::{Histogram, Summary};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging summaries in any split equals sequential accumulation.
    #[test]
    fn summary_merge_is_split_invariant(
        samples in proptest::collection::vec(0u64..1_000_000, 1..200),
        split in 0usize..200,
    ) {
        let split = split % samples.len();
        let sequential: Summary = samples.iter().map(|&s| Micros::new(s)).collect();
        let mut left: Summary = samples[..split].iter().map(|&s| Micros::new(s)).collect();
        let right: Summary = samples[split..].iter().map(|&s| Micros::new(s)).collect();
        left.merge(&right);
        prop_assert_eq!(left.count(), sequential.count());
        prop_assert_eq!(left.total(), sequential.total());
        prop_assert_eq!(left.min(), sequential.min());
        prop_assert_eq!(left.max(), sequential.max());
        prop_assert!((left.std_dev() - sequential.std_dev()).abs() < 1e-6);
    }

    /// The histogram never loses samples, and its quantile bound is an
    /// actual upper bound for the requested fraction.
    #[test]
    fn histogram_counts_and_bounds(samples in proptest::collection::vec(0u64..u64::MAX / 2, 1..300)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(Micros::new(s));
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        let bucket_total: u64 = h.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(bucket_total, samples.len() as u64);
        let median_bound = h.quantile_upper_bound(0.5).as_micros();
        let below = samples.iter().filter(|&&s| s <= median_bound).count();
        prop_assert!(below * 2 >= samples.len(), "median bound excludes half");
    }

    /// Event dispatch is globally ordered by time with FIFO ties, no
    /// matter the insertion order.
    #[test]
    fn event_queue_total_order(times in proptest::collection::vec(0u64..1000, 1..100)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Timestamp::from_micros(t), i);
        }
        let mut last_time = 0u64;
        let mut last_seq_at_time = std::collections::HashMap::new();
        while let Some((t, i)) = q.next() {
            prop_assert!(t.as_micros() >= last_time);
            if let Some(&prev) = last_seq_at_time.get(&t.as_micros()) {
                prop_assert!(i > prev, "FIFO violated at t={t}");
            }
            last_seq_at_time.insert(t.as_micros(), i);
            last_time = t.as_micros();
        }
    }

    /// Same-timestamp events pop in insertion order regardless of how
    /// many distinct timestamps surround them.
    #[test]
    fn event_queue_same_timestamp_is_fifo(
        tie_time in 0u64..100,
        tie_count in 1usize..50,
        noise in proptest::collection::vec(0u64..200, 0..50),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in noise.iter().enumerate() {
            q.schedule(Timestamp::from_micros(t), usize::MAX - i);
        }
        for i in 0..tie_count {
            q.schedule(Timestamp::from_micros(tie_time), i);
        }
        let mut ties = Vec::new();
        while let Some((t, e)) = q.next() {
            if t.as_micros() == tie_time && e < tie_count {
                ties.push(e);
            }
        }
        prop_assert_eq!(ties, (0..tie_count).collect::<Vec<_>>());
    }

    /// Interleaved push/pop preserves virtual-clock monotonicity: once an
    /// event at time `t` has dispatched, no later pop goes backwards, even
    /// when new events keep being scheduled at the current instant.
    #[test]
    fn event_queue_interleaved_push_pop_is_monotonic(
        ops in proptest::collection::vec((any::<bool>(), 0u64..500), 1..200),
    ) {
        let mut q = EventQueue::new();
        let mut now = 0u64;
        let mut id = 0usize;
        for &(push, delay) in &ops {
            if push || q.is_empty() {
                // Schedule relative to the current virtual time, as a
                // simulation dispatch loop does.
                q.schedule(Timestamp::from_micros(now + delay), id);
                id += 1;
            } else {
                let (t, _) = q.next().expect("non-empty");
                prop_assert!(
                    t.as_micros() >= now,
                    "virtual clock went backwards: {} < {now}", t.as_micros()
                );
                now = t.as_micros();
            }
        }
        while let Some((t, _)) = q.next() {
            prop_assert!(t.as_micros() >= now);
            now = t.as_micros();
        }
    }

    /// An arbitrary op-sequence against the real queue matches a naive
    /// model holding `(time, seq)` pairs in a sorted Vec — the reference
    /// semantics the binary heap must reproduce exactly.
    #[test]
    fn event_queue_matches_naive_sorted_vec_model(
        ops in proptest::collection::vec((any::<bool>(), 0u64..300), 1..300),
    ) {
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, u64)> = Vec::new(); // (time, seq)
        let mut seq = 0u64;
        for &(push, time) in &ops {
            if push {
                q.schedule(Timestamp::from_micros(time), seq);
                model.push((time, seq));
                seq += 1;
            } else {
                let popped = q.next().map(|(t, e)| (t.as_micros(), e));
                let expect = model
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &entry)| entry)
                    .map(|(i, _)| i)
                    .map(|i| model.remove(i));
                prop_assert_eq!(popped, expect);
            }
        }
        // Drain both; the full remaining order must agree.
        while let Some((t, e)) = q.next() {
            let i = model
                .iter()
                .enumerate()
                .min_by_key(|&(_, &entry)| entry)
                .map(|(i, _)| i)
                .expect("model has an entry for every queue event");
            prop_assert_eq!((t.as_micros(), e), model.remove(i));
        }
        prop_assert!(model.is_empty(), "queue drained before the model");
    }

    /// Per-server completions are monotonic under arbitrary reserve /
    /// checked-extend sequences, and `extend_reservation` rejects exactly
    /// the extensions that arrive after a later reservation was placed on
    /// the same server — the non-monotonicity hazard the unchecked
    /// `MultiServer::extend` documents.
    #[test]
    fn multiserver_checked_extend_keeps_completions_monotonic(
        servers in 1usize..4,
        ops in proptest::collection::vec((any::<bool>(), 0u64..500, 1u64..500), 1..150),
    ) {
        let mut bank = MultiServer::new(servers);
        let mut now = Timestamp::ZERO;
        // Per server: completion time of its most recent reservation, and
        // the full list of reservations ever placed on it.
        let mut last_completion = vec![Timestamp::ZERO; servers];
        let mut held: Vec<epcm_sim::events::Reservation> = Vec::new();
        let mut expected_busy = Micros::ZERO;
        for &(reserve, advance, amount) in &ops {
            now += Micros::new(advance);
            if reserve || held.is_empty() {
                let service = Micros::new(amount);
                let r = bank.reserve(now, service);
                expected_busy += service;
                // New reservations never start before the server's
                // previous completion.
                prop_assert!(r.starts >= last_completion[r.server]);
                prop_assert!(r.completes >= r.starts);
                last_completion[r.server] = r.completes;
                held.push(r);
            } else {
                // Try to extend the oldest held reservation.
                let r = held.remove(0);
                let extra = Micros::new(amount);
                match bank.extend_reservation(&r, extra) {
                    Ok(updated) => {
                        // Accepted only while still the most recent: the
                        // extension moves that server's horizon forward.
                        prop_assert_eq!(r.completes, last_completion[r.server]);
                        prop_assert_eq!(updated.completes, r.completes + extra);
                        expected_busy += extra;
                        last_completion[r.server] = updated.completes;
                        held.push(updated);
                    }
                    Err(ExtendError::NotMostRecent { expected, actual, .. }) => {
                        // Rejected exactly when a later reservation
                        // intervened; nothing mutated.
                        prop_assert_eq!(expected, r.completes);
                        prop_assert_eq!(actual, last_completion[r.server]);
                        prop_assert!(actual > r.completes);
                    }
                    Err(e) => prop_assert!(false, "unexpected error {e:?}"),
                }
            }
            prop_assert_eq!(bank.total_busy(), expected_busy);
        }
    }

    /// Rng::below never exceeds its bound and Rng::range stays in range.
    #[test]
    fn rng_bounds(seed in any::<u64>(), bound in 1u64..u64::MAX, lo in 0u64..1000, span in 1u64..1000) {
        let mut rng = Rng::seed_from(seed);
        for _ in 0..50 {
            prop_assert!(rng.below(bound) < bound);
            let v = rng.range(lo, lo + span);
            prop_assert!((lo..lo + span).contains(&v));
        }
    }

    /// Micros::mul_f64 and saturating_sub never panic and behave sanely.
    #[test]
    fn micros_arithmetic_total(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4, f in 0.0f64..3.0) {
        let (x, y) = (Micros::new(a), Micros::new(b));
        prop_assert_eq!(x.saturating_sub(y) + y.saturating_sub(x),
            Micros::new(a.abs_diff(b)));
        let scaled = x.mul_f64(f);
        if f >= 1.0 {
            prop_assert!(scaled >= x.mul_f64(1.0).saturating_sub(Micros::new(1)));
        } else {
            prop_assert!(scaled <= x + Micros::new(1));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cross-shard merge is exact: for an arbitrary interleaving of
    /// inserts and pops, a [`ShardedEventQueue`] whose events are routed
    /// to arbitrary shards dispatches byte-for-byte the global
    /// `(time, seq)` order of a flat unsharded [`EventQueue`] fed the
    /// same insertion sequence. This is the determinism contract the
    /// sharded kernel (DESIGN.md §12) rests on.
    #[test]
    fn sharded_merge_matches_flat_queue(
        ops in proptest::collection::vec(
            // (schedule? | pop, time, routed shard)
            (any::<bool>(), 0u64..400, 0usize..16), 1..300),
        shards in 1usize..9,
    ) {
        let mut flat = EventQueue::new();
        let mut sharded = ShardedEventQueue::new(shards);
        let mut payload = 0usize;
        for &(is_schedule, time, route) in &ops {
            if is_schedule {
                let t = Timestamp::from_micros(time);
                flat.schedule(t, payload);
                sharded.schedule(route % shards, t, payload);
                payload += 1;
            } else {
                prop_assert_eq!(
                    flat.next(),
                    sharded.next_merged().map(|(_, t, e)| (t, e)),
                    "interleaved pop diverged"
                );
            }
        }
        // Drain the rest: still identical, shard by shard.
        loop {
            let f = flat.next();
            let s = sharded.next_merged().map(|(_, t, e)| (t, e));
            prop_assert_eq!(f, s, "drain diverged");
            if f.is_none() {
                break;
            }
        }
    }

    /// Routing is bookkeeping only: the same insertion sequence merged
    /// under two different shard counts yields the same global order.
    #[test]
    fn merge_order_is_grouping_invariant(
        events in proptest::collection::vec((0u64..200, 0usize..32), 1..150),
        a in 1usize..9,
        b in 1usize..9,
    ) {
        let mut qa = ShardedEventQueue::new(a);
        let mut qb = ShardedEventQueue::new(b);
        for (i, &(time, lane)) in events.iter().enumerate() {
            let t = Timestamp::from_micros(time);
            qa.schedule(lane % a, t, i);
            qb.schedule(lane % b, t, i);
        }
        let da: Vec<(Timestamp, usize)> =
            qa.drain_merged().into_iter().map(|(_, t, e)| (t, e)).collect();
        let db: Vec<(Timestamp, usize)> =
            qb.drain_merged().into_iter().map(|(_, t, e)| (t, e)).collect();
        prop_assert_eq!(da, db);
    }
}

/// One step against a [`FileStore`] and its dense reference model. File
/// indices may name a file that does not exist yet.
#[derive(Debug, Clone)]
enum FileOp {
    Create {
        size: usize,
    },
    CreateWith {
        len: usize,
        seed: u8,
    },
    Read {
        file: usize,
        offset: u64,
        len: usize,
    },
    Write {
        file: usize,
        offset: u64,
        len: usize,
        seed: u8,
    },
    ReadPage {
        file: usize,
        block: u64,
    },
    /// `seed == 0` writes an unallocated (all-zero) page.
    WritePage {
        file: usize,
        block: u64,
        seed: u8,
    },
}

/// Deterministic non-zero bytes (all zeros for `seed == 0`).
fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| {
            if seed == 0 {
                0
            } else {
                (i as u8).wrapping_mul(31).wrapping_add(seed) | 1
            }
        })
        .collect()
}

/// Block index whose page range `[b * BLOCK_SIZE, (b + 1) * BLOCK_SIZE)`
/// wraps past `u64::MAX`.
const WRAP_BLOCK: u64 = u64::MAX / BLOCK_SIZE;

fn file_op() -> impl Strategy<Value = FileOp> {
    let b = BLOCK_SIZE as usize;
    prop_oneof![
        (0usize..3 * b + 100).prop_map(|size| FileOp::Create { size }),
        (0usize..3 * b + 100, any::<u8>()).prop_map(|(len, seed)| FileOp::CreateWith { len, seed }),
        (0usize..4, 0u64..6 * BLOCK_SIZE, 0usize..b + 200)
            .prop_map(|(file, offset, len)| FileOp::Read { file, offset, len }),
        (
            0usize..4,
            0u64..6 * BLOCK_SIZE,
            0usize..b + 200,
            any::<u8>()
        )
            .prop_map(|(file, offset, len, seed)| FileOp::Write {
                file,
                offset,
                len,
                seed
            }),
        (0usize..4, 0u64..8).prop_map(|(file, k)| FileOp::Read {
            file,
            offset: u64::MAX - k,
            len: 4,
        }),
        // Every such write wraps: a non-wrapping one would need ~2^64 bytes.
        (0usize..4, 0u64..4, any::<u8>()).prop_map(|(file, k, seed)| FileOp::Write {
            file,
            offset: u64::MAX - k,
            len: 4,
            seed,
        }),
        (0usize..4, 0u64..7).prop_map(|(file, block)| FileOp::ReadPage { file, block }),
        (0usize..4, 0u64..7, 0u8..4).prop_map(|(file, block, seed)| FileOp::WritePage {
            file,
            block,
            seed
        }),
        (0usize..4).prop_map(|file| FileOp::ReadPage {
            file,
            block: WRAP_BLOCK
        }),
        (0usize..4).prop_map(|file| FileOp::WritePage {
            file,
            block: WRAP_BLOCK,
            seed: 1
        }),
    ]
}

/// The reference fault plan: one transient rule over everything, then one
/// permanent rule on a single block of a single file.
struct ModelPlan {
    rng: Rng,
    rate: f64,
    dead_file: FileId,
    dead_block: u64,
}

/// A dense `Vec<u8>` per file, with the store's op, fault, counter and
/// latency bookkeeping written out longhand.
struct FileModel {
    device: Device,
    files: Vec<Vec<u8>>,
    last_block: Option<(FileId, u64)>,
    op: u64,
    faults: u64,
    reads: u64,
    writes: u64,
    plan: Option<ModelPlan>,
}

impl FileModel {
    fn data(&self, file: FileId) -> Result<&Vec<u8>, FileStoreError> {
        self.files
            .get(file.as_u32() as usize)
            .ok_or(FileStoreError::UnknownFile(file))
    }

    fn inject(
        &mut self,
        write: bool,
        file: FileId,
        offset: u64,
        len: u64,
    ) -> Result<(), FileStoreError> {
        let op = self.op;
        self.op += 1;
        let Some(plan) = self.plan.as_mut() else {
            return Ok(());
        };
        let first = offset / BLOCK_SIZE;
        let last = if len == 0 {
            first
        } else {
            (offset + len - 1) / BLOCK_SIZE
        };
        let transient = if plan.rng.chance(plan.rate) {
            true
        } else if file == plan.dead_file && first <= plan.dead_block && last >= plan.dead_block {
            false
        } else {
            return Ok(());
        };
        self.faults += 1;
        Err(FileStoreError::Io {
            file,
            op,
            write,
            transient,
        })
    }

    fn charge(&mut self, file: FileId, offset: u64, len: u64) -> Micros {
        if len == 0 {
            return Micros::ZERO;
        }
        let mut total = Micros::ZERO;
        for block in offset / BLOCK_SIZE..=(offset + len - 1) / BLOCK_SIZE {
            let prev = self.last_block.and_then(|(f, b)| (f == file).then_some(b));
            total += self.device.block_latency(block, prev);
            self.last_block = Some((file, block));
        }
        total
    }

    fn read(
        &mut self,
        file: FileId,
        offset: u64,
        len: u64,
    ) -> Result<(Vec<u8>, Micros), FileStoreError> {
        let size = self.data(file)?.len() as u64;
        if offset.checked_add(len).is_none_or(|end| end > size) {
            return Err(FileStoreError::OutOfRange {
                file,
                offset,
                len,
                size,
            });
        }
        self.inject(false, file, offset, len)?;
        let bytes = self.data(file)?[offset as usize..(offset + len) as usize].to_vec();
        self.reads += 1;
        Ok((bytes, self.charge(file, offset, len)))
    }

    fn write(&mut self, file: FileId, offset: u64, buf: &[u8]) -> Result<Micros, FileStoreError> {
        let size = self.data(file)?.len() as u64;
        let len = buf.len() as u64;
        let Some(end) = offset.checked_add(len) else {
            return Err(FileStoreError::OutOfRange {
                file,
                offset,
                len,
                size,
            });
        };
        self.inject(true, file, offset, len)?;
        let data = &mut self.files[file.as_u32() as usize];
        if end as usize > data.len() {
            data.resize(end as usize, 0);
        }
        data[offset as usize..end as usize].copy_from_slice(buf);
        self.writes += 1;
        Ok(self.charge(file, offset, len))
    }

    /// A page read is the byte read of what lies in the block, zero-padded.
    fn read_page(
        &mut self,
        file: FileId,
        offset: u64,
    ) -> Result<(Vec<u8>, Micros), FileStoreError> {
        let size = self.data(file)?.len() as u64;
        let (mut bytes, latency) =
            self.read(file, offset, BLOCK_SIZE.min(size.saturating_sub(offset)))?;
        bytes.resize(BLOCK_SIZE as usize, 0);
        Ok((bytes, latency))
    }
}

/// Applies `ops` to a block store and the dense model, comparing every
/// result, error, latency and counter after each step, and every file's
/// bytes through a fault-free clone of the store. Pages handed to or
/// returned by the store are held for the rest of the run, so later byte
/// writes hit shared blocks; each held page must keep its bytes.
fn check_file_store_against_model(ops: &[FileOp], plan: Option<(u64, f64, u32, u64)>) {
    let device = Device::disk_1992();
    let mut store = FileStore::new(device);
    let mut model = FileModel {
        device,
        files: Vec::new(),
        last_block: None,
        op: 0,
        faults: 0,
        reads: 0,
        writes: 0,
        plan: None,
    };
    let mut pages: Vec<(Page, Vec<u8>)> = Vec::new();
    if let Some((seed, rate, dead_file, dead_block)) = plan {
        let dead_file = FileId::from_raw(dead_file);
        store.set_fault_plan(
            FaultPlan::new(seed)
                .with_rule(FaultRule::transient(rate))
                .with_rule(
                    FaultRule::permanent()
                        .on_file(dead_file)
                        .on_blocks(dead_block, dead_block + 1),
                ),
        );
        model.plan = Some(ModelPlan {
            rng: Rng::seed_from(seed),
            rate,
            dead_file,
            dead_block,
        });
    }
    for op in ops {
        match *op {
            FileOp::Create { size } => {
                let id = store.create("f", size);
                assert_eq!(id.as_u32() as usize, model.files.len());
                model.files.push(vec![0; size]);
            }
            FileOp::CreateWith { len, seed } => {
                let id = store.create_with("f", pattern(len, seed));
                assert_eq!(id.as_u32() as usize, model.files.len());
                model.files.push(pattern(len, seed));
            }
            FileOp::Read { file, offset, len } => {
                let id = FileId::from_raw(file as u32);
                let mut buf = vec![0u8; len];
                let got = store.read(id, offset, &mut buf).map(|l| (buf, l));
                assert_eq!(got, model.read(id, offset, len as u64), "{op:?}");
            }
            FileOp::Write {
                file,
                offset,
                len,
                seed,
            } => {
                let id = FileId::from_raw(file as u32);
                let buf = pattern(len, seed);
                assert_eq!(
                    store.write(id, offset, &buf),
                    model.write(id, offset, &buf),
                    "{op:?}"
                );
            }
            FileOp::ReadPage { file, block } => {
                let id = FileId::from_raw(file as u32);
                let offset = block * BLOCK_SIZE;
                let got = store.read_page(id, offset).map(|(page, l)| {
                    let bytes = page_bytes(&page).to_vec();
                    pages.push((page, bytes.clone()));
                    (bytes, l)
                });
                assert_eq!(got, model.read_page(id, offset), "{op:?}");
            }
            FileOp::WritePage { file, block, seed } => {
                let id = FileId::from_raw(file as u32);
                let offset = block * BLOCK_SIZE;
                let bytes = pattern(BLOCK_SIZE as usize, seed);
                let page: Page =
                    (seed != 0).then(|| std::sync::Arc::new(bytes.clone().try_into().unwrap()));
                pages.push((page.clone(), bytes.clone()));
                assert_eq!(
                    store.write_page(id, offset, page),
                    model.write(id, offset, &bytes),
                    "{op:?}"
                );
            }
        }
        assert_eq!(store.op_index(), model.op);
        assert_eq!(store.fault_count(), model.faults);
        assert_eq!(store.read_count(), model.reads);
        assert_eq!(store.write_count(), model.writes);
        let mut clean = store.clone();
        clean.clear_fault_plan();
        for (i, data) in model.files.iter().enumerate() {
            let id = FileId::from_raw(i as u32);
            assert_eq!(clean.size(id), Ok(data.len() as u64));
            let mut buf = vec![0u8; data.len()];
            clean.read(id, 0, &mut buf).unwrap();
            assert!(buf == *data, "file {i} bytes diverge after {op:?}");
        }
        for (page, bytes) in &pages {
            assert!(
                page_bytes(page)[..] == bytes[..],
                "a held page changed after {op:?}"
            );
        }
        let ghost = FileId::from_raw(model.files.len() as u32);
        assert_eq!(store.size(ghost), Err(FileStoreError::UnknownFile(ghost)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sparse block store behaves exactly like a dense byte vector per
    /// file: same bytes, sizes, errors, latencies, op indices and counters.
    #[test]
    fn file_store_matches_dense_model(ops in proptest::collection::vec(file_op(), 1..60)) {
        check_file_store_against_model(&ops, None);
    }

    /// The same, under a fault plan: page calls consume the same op index
    /// and fault roll as the byte calls they stand for.
    #[test]
    fn file_store_matches_dense_model_under_faults(
        ops in proptest::collection::vec(file_op(), 1..60),
        seed in any::<u64>(),
        rate in 0.0f64..0.4,
        dead_file in 0u32..3,
        dead_block in 0u64..6,
    ) {
        check_file_store_against_model(&ops, Some((seed, rate, dead_file, dead_block)));
    }
}
