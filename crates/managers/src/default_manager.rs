//! The default segment manager (§2.3) — the extended UCDS.
//!
//! Conventional programs never see external page-cache management: this
//! server-mode manager gives them a transparent demand-paged system built
//! entirely from the kernel's exported operations. It maintains a
//! free-page segment, fills file pages from the backing store, swaps
//! anonymous pages, batches allocation for file appends in 16 KB units
//! (the paper's noted difference from Ultrix), runs a clock replacement
//! policy driven by protection-fault reference sampling with batched
//! re-enabling, and keeps reclaimed-but-unreused frames rescuable (the
//! paper's migrate-it-back trick). On tiered machines the clock gains a
//! demotion stage: dirty second-chance victims on DRAM frames trade
//! places with spare lower-tier pool frames instead of paying writeback
//! I/O, and a bankrupt manager demotes cold pages at tick time to cut
//! its market bill rather than losing frames to forced seizure.
//!
//! With [`DefaultManagerConfig::async_writeback`] on, laundry cleaning
//! runs through an asynchronous pipeline: the dirty victim's bytes land
//! on the store at eviction time (so retry, quarantine and data
//! integrity are identical to the synchronous path), but the disk *time*
//! is booked as a [`epcm_sim::writeback::WritebackPipeline`] reservation
//! and billed when the completion fires. Faults, clock sampling and
//! demotion exchanges proceed while laundry drains in the background;
//! any consumer that needs a promised-free frame before its writeback
//! completed stalls to the completion instant (DESIGN.md §11).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use epcm_core::fault::{FaultEvent, FaultKind};
use epcm_core::flags::PageFlags;
use epcm_core::kernel::Kernel;
use epcm_core::ring::{
    CompletionEntry, CompletionRing, RingOp, SubmissionEntry, SubmissionRing, DEFAULT_RING_CAPACITY,
};
use epcm_core::tier::MemTier;
use epcm_core::types::{FrameId, ManagerId, PageNumber, SegmentId, SegmentKind, BASE_PAGE_SIZE};
use epcm_sim::clock::Micros;
use epcm_sim::disk::{page_bytes, FileId, FileStore, FileStoreError};
use epcm_sim::writeback::{TicketId, WritebackPipeline};
use epcm_trace::{EventKind, MetricsRegistry, SharedTracer, TraceEvent, TraceSink};

use crate::compress::{rle_compress, CompressStats};
use crate::manager::{Env, ManagerError, ManagerMode, SegmentManager};
use crate::policy::{ClockPolicy, Probe, ReplacementPolicy};
use crate::spcm::PhysConstraint;

/// Where a managed segment's page data lives when not resident.
#[derive(Debug, Clone)]
enum Backing {
    /// A cached file: pages are the file's blocks.
    File(FileId),
    /// Anonymous memory, swapped on demand; the swap file is created
    /// lazily, `swapped` lists pages with valid swap copies.
    Anonymous {
        swap: Option<FileId>,
        swapped: BTreeSet<u64>,
    },
}

#[derive(Debug, Clone)]
struct ManagedSegment {
    backing: Backing,
}

/// Outcome of one demotion attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Demotion {
    /// The page now sits on a lower-tier frame.
    Done,
    /// The page is eligible but no lower-tier frame is pooled yet.
    NoTarget,
    /// The page is gone, or not on a DRAM frame.
    Ineligible,
}

/// Counters exposed for Table 3 and the extended analyses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefaultManagerStats {
    /// Faults handled, all kinds.
    pub faults: u64,
    /// Minimal faults (frame handed over with no fill).
    pub minimal_faults: u64,
    /// Pages filled from a backing file.
    pub file_fills: u64,
    /// Pages filled from swap.
    pub swap_ins: u64,
    /// Dirty pages written back.
    pub writebacks: u64,
    /// Pages reclaimed by the replacement policy.
    pub reclaimed: u64,
    /// Reclaimed pages rescued before reuse (migrated straight back).
    pub laundry_rescues: u64,
    /// Protection faults that were reference-sampling events.
    pub sampling_faults: u64,
    /// Copy-on-write faults serviced.
    pub cow_faults: u64,
    /// Append faults that allocated a 16 KB batch.
    pub append_batches: u64,
    /// `MigratePages` invocations made by this manager while handling
    /// faults (Table 3 column 2).
    pub migrate_calls: u64,
    /// Pages demoted to a cheaper memory tier instead of being written
    /// back and evicted (tier exchange via `MigrateFrame`).
    pub demotions: u64,
    /// Hot pages promoted to a faster memory tier by the promotion
    /// ladder (tier exchange via `MigrateFrame`; 0 with the ladder off).
    pub promotions: u64,
}

/// Counters for the hot-page promotion ladder (all zero with
/// `promotion_budget` 0).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PromotionStats {
    /// Heat events accumulated from the fault / sampling / writeback-
    /// completion streams for pages resident below DRAM.
    pub heat_events: u64,
    /// Promotions that landed on a spare free-pool DRAM frame.
    pub to_free: u64,
    /// Promotions that displaced a cold DRAM victim (exchange with a
    /// resident page, victim demoted to the hot page's old frame).
    pub swapped: u64,
    /// Promotion attempts dropped because no free DRAM frame and no
    /// cold unpinned DRAM victim existed that tick.
    pub no_target: u64,
}

/// Counters for the writeback path, synchronous and pipelined.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WritebackStats {
    /// Total I/O time billed for completed writebacks, µs (page copy +
    /// store latency). Billed inline in synchronous mode, at completion
    /// in asynchronous mode; at in-flight window 1 the totals are equal
    /// by construction.
    pub billed_us: u64,
    /// Fault-path kernel time spent on dirty-victim writeback, µs.
    /// Drops to zero (absent injected-fault retry backoff) when the
    /// asynchronous pipeline is on.
    pub dirty_victim_us: u64,
    /// Times a consumer needed a promised-free frame before its
    /// writeback completed and had to wait for the disk.
    pub stalls: u64,
    /// Total kernel time charged for those stalls, µs.
    pub stall_us: u64,
    /// Laundry mappings evicted to satisfy free-slot demand. Their clean
    /// copy is already on the store, so no data is lost — only the
    /// no-I/O rescue opportunity.
    pub laundry_dropped: u64,
    /// Writebacks whose I/O has been billed (inline or via completion).
    pub completed: u64,
}

/// Counters for the retry-with-backoff backing-store I/O path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoRetryStats {
    /// Store operations attempted (first tries and retries).
    pub attempts: u64,
    /// Retries issued after a transient injected failure.
    pub retries: u64,
    /// Operations abandoned: a permanent failure, or transient failures
    /// outlasting the retry budget.
    pub gave_up: u64,
    /// Dirty pages pinned in place because their writeback target is dead.
    pub quarantined_pages: u64,
}

/// Tuning knobs for the default manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefaultManagerConfig {
    /// Free-pool size the manager tries to keep on hand.
    pub target_free: u64,
    /// Refill the pool when it drops below this.
    pub low_water: u64,
    /// Frames requested from the SPCM per refill.
    pub refill_batch: u64,
    /// Pages allocated per append fault (16 KB = 4 pages, §3.2).
    pub append_batch: u64,
    /// Contiguous pages re-enabled per sampling protection fault ("the
    /// default manager changes the protection on a number of contiguous
    /// pages, rather than a single page").
    pub protection_batch: u64,
    /// Resident pages protection-revoked per tick for reference sampling
    /// (0 disables sampling).
    pub sample_batch: u64,
    /// Retries per backing-store operation before giving up on a
    /// transiently failing device (0 = fail on first error).
    pub io_retry_limit: u32,
    /// Virtual-time delay before the first retry; doubles per attempt.
    pub io_retry_backoff: Micros,
    /// Upper bound on tier demotions per reclaim pass and per
    /// market-driven rebalance (0 disables demotion). Only meaningful on
    /// tiered machines; dram-only layouts never demote.
    pub demote_batch: u64,
    /// Clean dirty victims through the asynchronous writeback pipeline:
    /// the data lands on the store at eviction time, but the disk time
    /// is billed when the scheduled completion fires instead of being
    /// charged inline on the fault path.
    pub async_writeback: bool,
    /// Maximum writeback disk reservations outstanding at once in
    /// asynchronous mode (clamped to at least 1).
    pub writeback_window: usize,
    /// Disk arms serving the asynchronous writeback pipeline (clamped to
    /// at least 1).
    pub writeback_servers: usize,
    /// Route kernel page operations through the batched
    /// submission/completion rings ([`epcm_core::ring`]) instead of one
    /// synchronous call each. Batch sites (the 16-page protection
    /// restore, the sampling sweep) pay one doorbell crossing per batch;
    /// single-op sites enqueue and drain immediately, which charges
    /// exactly what the synchronous call would. Off by default: flat
    /// runs are byte-identical with the flag off.
    pub batched_abi: bool,
    /// Capacity of the submission and completion rings, in entries
    /// (clamped to at least 1; only meaningful with `batched_abi` on).
    pub ring_capacity: usize,
    /// Upper bound on hot-page promotions per tick (0 disables the
    /// promotion ladder entirely — no heat is tracked and no exchange is
    /// attempted, so default runs are byte-identical with pre-promotion
    /// builds). Only meaningful on tiered machines; dram-only layouts
    /// never promote.
    pub promotion_budget: u64,
    /// Access-heat a non-DRAM-resident page must accumulate (fault-time
    /// re-references, sampling hits, writeback completions) before it is
    /// a promotion candidate.
    pub promotion_threshold: u64,
}

impl Default for DefaultManagerConfig {
    fn default() -> Self {
        DefaultManagerConfig {
            target_free: 64,
            low_water: 8,
            refill_batch: 64,
            append_batch: 4,
            protection_batch: 16,
            sample_batch: 0,
            io_retry_limit: 4,
            io_retry_backoff: Micros::new(500),
            demote_batch: 8,
            async_writeback: false,
            writeback_window: 4,
            writeback_servers: 1,
            batched_abi: false,
            ring_capacity: DEFAULT_RING_CAPACITY,
            promotion_budget: 0,
            promotion_threshold: 2,
        }
    }
}

/// The default segment manager.
///
/// # Example
///
/// ```
/// use epcm_managers::{DefaultSegmentManager, Machine};
/// use epcm_core::{AccessKind, SegmentKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut machine = Machine::with_default_manager(512);
/// let heap = machine.create_segment(SegmentKind::Anonymous, 16)?;
/// machine.touch(heap, 7, AccessKind::Write)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DefaultSegmentManager {
    id: ManagerId,
    mode: ManagerMode,
    config: DefaultManagerConfig,
    free_seg: Option<SegmentId>,
    managed: BTreeMap<u32, ManagedSegment>,
    policy: ClockPolicy,
    /// Reclaimed pages whose data still sits in a free-pool slot, and the
    /// page of every async writeback still in flight.
    laundry: Laundry,
    /// Cursor for the sampling sweep.
    sample_cursor: (u32, u64),
    /// Dirty pages pinned in place after their writeback target died:
    /// `(segment, page)`. Their data is preserved but their frames are
    /// withdrawn from replacement.
    quarantined: BTreeSet<(u32, u64)>,
    stats: DefaultManagerStats,
    io_stats: IoRetryStats,
    /// Accounting for the CompressedRam tier backend (the `compress.rs`
    /// RLE scheme refitted as a tier): pages demoted into zram frames are
    /// compressed on the way in.
    zram_stats: CompressStats,
    /// The asynchronous laundry pipeline (idle in synchronous mode).
    wb: WritebackPipeline,
    wb_stats: WritebackStats,
    /// Batched-ABI submission ring; empty between handler runs (every
    /// enqueue site flushes before returning).
    sq: SubmissionRing,
    /// Batched-ABI completion ring, shared with the writeback pipeline's
    /// completion events.
    cq: CompletionRing,
    /// Next correlation token for submitted ring ops.
    ring_token: u64,
    /// Ops this manager has submitted through the ring.
    ring_submitted: u64,
    /// Access heat per non-DRAM-resident page, `(segment, page) ->
    /// count`, fed by fault-time re-references, sampling-window hits and
    /// writeback completions. Empty (never written) with the promotion
    /// ladder off. Entries for pages that leave residency or reach DRAM
    /// on their own are pruned lazily during the tick scan.
    heat: BTreeMap<(u32, u64), u64>,
    promo_stats: PromotionStats,
    tracer: Option<SharedTracer>,
}

/// A managed page: `(segment, page)`.
type PageKey = (SegmentId, PageNumber);

/// The manager's laundry: reclaimed pages whose data still sits, intact,
/// in a free-pool slot, so a refault migrates the frame straight back
/// without I/O until the slot is reused (the paper's rescue trick).
/// Indexed by slot, so "does this slot keep laundry alive?" is a lookup.
#[derive(Debug, Default)]
struct Laundry {
    /// Per free-pool slot, the page whose data the slot holds.
    slots: Vec<Option<LaundryEntry>>,
    /// Page -> slot, for rescues.
    by_page: BTreeMap<PageKey, PageNumber>,
    /// Page of every issued async writeback not yet completed. Outlives
    /// the page's entry, so a completion can heat a rescued page.
    tickets: BTreeMap<TicketId, PageKey>,
    /// Insertion counter: the drop path evicts the lowest.
    seq: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LaundryEntry {
    page: PageKey,
    seq: u64,
    /// The writeback still in flight for this copy ("promised free but
    /// not yet clean"): consumers that clobber the slot stall on it.
    ticket: Option<TicketId>,
}

impl Laundry {
    /// Records `page`'s data surviving in the empty `slot`, replacing any
    /// older entry for the page.
    fn insert(&mut self, page: PageKey, slot: PageNumber, ticket: Option<TicketId>) {
        self.remove(page);
        let i = slot.as_u64() as usize;
        if self.slots.len() <= i {
            self.slots.resize(i + 1, None);
        }
        debug_assert!(self.slots[i].is_none(), "slot {i} already holds laundry");
        self.seq += 1;
        self.slots[i] = Some(LaundryEntry {
            page,
            seq: self.seq,
            ticket,
        });
        self.by_page.insert(page, slot);
    }

    /// Removes `page`'s entry, returning the slot that held it. Its
    /// writeback, if any, still bills at completion.
    fn remove(&mut self, page: PageKey) -> Option<PageNumber> {
        let slot = self.by_page.remove(&page)?;
        self.slots[slot.as_u64() as usize] = None;
        Some(slot)
    }

    /// Removes the entry held by `slot`, returning its page.
    fn drop_slot(&mut self, slot: PageNumber) -> Option<PageKey> {
        let page = self.at(slot)?.page;
        self.remove(page);
        Some(page)
    }

    /// The entry held by `slot`.
    fn at(&self, slot: PageNumber) -> Option<&LaundryEntry> {
        self.slots.get(slot.as_u64() as usize)?.as_ref()
    }

    /// The slot holding the oldest entry.
    fn oldest(&self) -> Option<PageNumber> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, e)| Some((e.as_ref()?.seq, i)))
            .min()
            .map(|(_, i)| PageNumber(i as u64))
    }

    /// Notes that writeback `ticket` carries `page`'s data.
    fn issued(&mut self, ticket: TicketId, page: PageKey) {
        self.tickets.insert(ticket, page);
    }

    /// Retires `ticket`, returning its page. The page's entry is clean
    /// now unless a later writeback superseded this one.
    fn completed(&mut self, ticket: TicketId) -> Option<PageKey> {
        let page = self.tickets.remove(&ticket)?;
        let slot = self.by_page.get(&page).map(|s| s.as_u64() as usize);
        if let Some(entry) = slot.and_then(|i| self.slots[i].as_mut()) {
            if entry.ticket == Some(ticket) {
                entry.ticket = None;
            }
        }
        Some(page)
    }
}

impl DefaultSegmentManager {
    /// A default manager in the paper's deployed configuration: a separate
    /// server process.
    pub fn server() -> Self {
        DefaultSegmentManager::with_config(ManagerMode::Server, DefaultManagerConfig::default())
    }

    /// A manager executing in the faulting process — the cheap dispatch
    /// mode of Table 1 row 1, used by application-specific managers.
    pub fn in_process() -> Self {
        DefaultSegmentManager::with_config(
            ManagerMode::FaultingProcess,
            DefaultManagerConfig::default(),
        )
    }

    /// Full control over mode and tuning.
    pub fn with_config(mode: ManagerMode, config: DefaultManagerConfig) -> Self {
        let wb = WritebackPipeline::new(config.writeback_servers, config.writeback_window);
        let ring_cap = config.ring_capacity.max(1);
        DefaultSegmentManager {
            id: ManagerId(u32::MAX),
            mode,
            config,
            free_seg: None,
            managed: BTreeMap::new(),
            policy: ClockPolicy::new(),
            laundry: Laundry::default(),
            sample_cursor: (0, 0),
            quarantined: BTreeSet::new(),
            stats: DefaultManagerStats::default(),
            io_stats: IoRetryStats::default(),
            zram_stats: CompressStats::default(),
            wb,
            wb_stats: WritebackStats::default(),
            sq: SubmissionRing::with_capacity(ring_cap),
            cq: CompletionRing::with_capacity(ring_cap),
            ring_token: 0,
            ring_submitted: 0,
            heat: BTreeMap::new(),
            promo_stats: PromotionStats::default(),
            tracer: None,
        }
    }

    /// Ops this manager has submitted through the batched ABI rings
    /// (0 with `batched_abi` off).
    pub fn ring_ops_submitted(&self) -> u64 {
        self.ring_submitted
    }

    /// Records `kind` at the current virtual time, if tracing is on.
    fn trace(&self, kernel: &Kernel, kind: EventKind) {
        if let Some(t) = &self.tracer {
            t.record(TraceEvent::new(kernel.now().as_micros(), kind));
        }
    }

    /// Manager counters.
    pub fn manager_stats(&self) -> DefaultManagerStats {
        self.stats
    }

    /// Retry/backoff counters for backing-store I/O.
    pub fn io_retry_stats(&self) -> IoRetryStats {
        self.io_stats
    }

    /// Writeback-path counters (billing, stalls, laundry drops).
    pub fn writeback_stats(&self) -> WritebackStats {
        self.wb_stats
    }

    /// Writebacks currently in flight in the asynchronous pipeline.
    pub fn writebacks_in_flight(&self) -> usize {
        self.wb.in_flight() + self.wb.queued()
    }

    /// High-water mark of concurrently issued writebacks over the run.
    pub fn writeback_inflight_peak(&self) -> u64 {
        self.wb.inflight_peak()
    }

    /// Dirty pages currently pinned in quarantine.
    pub fn quarantined_count(&self) -> u64 {
        self.quarantined.len() as u64
    }

    /// Compression accounting for pages demoted into CompressedRam frames.
    pub fn zram_stats(&self) -> CompressStats {
        self.zram_stats
    }

    /// Promotion-ladder counters (all zero with `promotion_budget` 0).
    pub fn promotion_stats(&self) -> PromotionStats {
        self.promo_stats
    }

    /// True when the hot-page promotion ladder is configured on.
    fn promotion_on(&self) -> bool {
        self.config.promotion_budget > 0
    }

    /// Accumulates one unit of access heat for `(seg, page)` if the
    /// promotion ladder is on and the page is currently resident on a
    /// non-DRAM frame. Called from the three event streams the ladder
    /// rides: fault-time re-references ([`Self::handle_missing`]),
    /// sampling-window hits ([`Self::handle_protection`]) and writeback
    /// completions ([`Self::writeback_completed`]).
    fn note_heat(&mut self, kernel: &Kernel, seg: SegmentId, page: PageNumber) {
        if !self.promotion_on() {
            return;
        }
        let tiers = *kernel.tiers();
        if tiers.is_dram_only() {
            return;
        }
        let Ok(segment) = kernel.segment(seg) else {
            return;
        };
        let Some(entry) = segment.entry(page) else {
            return;
        };
        if tiers.tier_of(entry.frame) == MemTier::Dram {
            return;
        }
        *self.heat.entry((seg.as_u32(), page.as_u64())).or_insert(0) += 1;
        self.promo_stats.heat_events += 1;
    }

    /// Runs one backing-store operation with bounded retry and exponential
    /// backoff on the virtual clock. Every injected fault and every retry
    /// is traced; a permanent failure (or a transient one outlasting the
    /// budget) is returned to the caller.
    fn store_io_with_retry(
        &mut self,
        env: &mut Env<'_>,
        write: bool,
        mut op: impl FnMut(&mut FileStore) -> Result<Micros, FileStoreError>,
    ) -> Result<Micros, ManagerError> {
        let limit = self.config.io_retry_limit;
        let mut attempt = 0u32;
        loop {
            self.io_stats.attempts += 1;
            let err = match op(env.store) {
                Ok(latency) => return Ok(latency),
                Err(e) => e,
            };
            let (file, op_idx, transient) = match &err {
                FileStoreError::Io {
                    file,
                    op,
                    transient,
                    ..
                } => (file.as_u32(), *op, *transient),
                _ => return Err(ManagerError::Store(err)),
            };
            self.trace(
                env.kernel,
                EventKind::FaultInjected {
                    file,
                    op: op_idx,
                    write,
                    transient,
                },
            );
            if transient && attempt < limit {
                attempt += 1;
                self.io_stats.retries += 1;
                self.trace(
                    env.kernel,
                    EventKind::IoRetry {
                        manager: self.id.0,
                        file,
                        attempt,
                        write,
                    },
                );
                env.kernel
                    .charge(self.config.io_retry_backoff * (1u64 << (attempt - 1).min(20)));
                continue;
            }
            self.io_stats.gave_up += 1;
            return Err(ManagerError::Store(err));
        }
    }

    /// Pins a dirty page whose backing store refuses its data: the frame
    /// is withdrawn from replacement but the data survives in memory.
    fn quarantine_in_place(
        &mut self,
        env: &mut Env<'_>,
        seg: SegmentId,
        page: PageNumber,
    ) -> Result<(), ManagerError> {
        self.op_modify_flags(env, seg, page, 1, PageFlags::PINNED, PageFlags::empty())?;
        if self.quarantined.insert((seg.as_u32(), page.as_u64())) {
            self.io_stats.quarantined_pages += 1;
            self.trace(
                env.kernel,
                EventKind::ManagerQuarantined {
                    manager: self.id.0,
                    pages: self.quarantined.len() as u64,
                    destroyed: false,
                },
            );
        }
        Ok(())
    }

    /// The manager's free-page segment, once created.
    pub fn free_segment(&self) -> Option<SegmentId> {
        self.free_seg
    }

    fn free_seg(&mut self, env: &mut Env<'_>) -> Result<SegmentId, ManagerError> {
        if let Some(seg) = self.free_seg {
            return Ok(seg);
        }
        // Size the free segment to the whole machine: slots are cheap and
        // this lets the pool grow to whatever the SPCM will grant.
        let frames = env.kernel.frames().len() as u64;
        let seg = env.kernel.create_segment(
            SegmentKind::FramePool,
            epcm_core::UserId::SYSTEM,
            self.id,
            1,
            frames,
        )?;
        self.free_seg = Some(seg);
        Ok(seg)
    }

    fn free_count(&self, kernel: &Kernel) -> u64 {
        self.free_seg
            .and_then(|s| kernel.resident_pages(s).ok())
            .unwrap_or(0)
    }

    /// Ensures at least `want` frames sit in the free pool, requesting
    /// from the SPCM and then reclaiming managed pages if refused.
    fn ensure_free(&mut self, env: &mut Env<'_>, want: u64) -> Result<(), ManagerError> {
        let free_seg = self.free_seg(env)?;
        let have = self.free_count(env.kernel);
        if have >= want {
            return Ok(());
        }
        let ask = (want - have).max(self.config.refill_batch);
        let grant =
            env.spcm
                .request_frames(env.kernel, self.id, free_seg, ask, PhysConstraint::Any)?;
        if self.free_count(env.kernel) >= want {
            return Ok(());
        }
        let _ = grant;
        // SPCM would not (fully) provide: reclaim our own pages.
        let deficit = want - self.free_count(env.kernel);
        self.reclaim_into_pool(env, deficit)?;
        if self.free_count(env.kernel) >= want {
            Ok(())
        } else {
            Err(ManagerError::OutOfFrames { manager: self.id })
        }
    }

    /// Takes one free slot, evicting the oldest laundry entry if every
    /// free frame is acting as a laundry page.
    fn take_free_slot(&mut self, env: &mut Env<'_>) -> Result<PageNumber, ManagerError> {
        let free_seg = self.free_seg(env)?;
        self.ensure_free(env, 1)?;
        let pick = env
            .kernel
            .segment(free_seg)?
            .resident()
            .map(|(p, _)| p)
            .find(|&p| self.laundry.at(p).is_none());
        if let Some(p) = pick {
            return Ok(p);
        }
        // All free frames hold laundry: evict the oldest mapping. Its
        // clean copy is already on the store (written at reclaim time),
        // so no data is lost — but an in-flight writeback must finish
        // before the frame's bytes are clobbered, and the evicted rescue
        // opportunity is traced and counted, never silent.
        let Some(slot) = self.laundry.oldest() else {
            return Err(ManagerError::OutOfFrames { manager: self.id });
        };
        let (seg, page) = self
            .drop_slot_laundry(env, slot)
            .expect("the oldest slot holds laundry");
        self.wb_stats.laundry_dropped += 1;
        self.trace(
            env.kernel,
            EventKind::LaundryEvicted {
                manager: self.id.0,
                segment: seg.as_u32() as u64,
                page: page.as_u64(),
            },
        );
        Ok(slot)
    }

    /// Drops the laundry entry held by free-pool `slot`, if any, before
    /// the slot's frame is reused, clobbered or handed back. An in-flight
    /// writeback is waited for first (charging the kernel clock), so the
    /// clean copy is on the store; then due completions are drained.
    /// Laundered data was already written back at reclaim time, so
    /// nothing is lost but the no-I/O rescue opportunity.
    fn drop_slot_laundry(&mut self, env: &mut Env<'_>, slot: PageNumber) -> Option<PageKey> {
        let entry = *self.laundry.at(slot)?;
        if let Some(ticket) = entry.ticket {
            let now = env.kernel.now();
            if let Some(done) = self.wb.force_completion_time(now, ticket) {
                let wait = done.saturating_duration_since(now);
                if wait > Micros::ZERO {
                    env.kernel.charge(wait);
                }
                self.wb_stats.stalls += 1;
                self.wb_stats.stall_us += wait.as_micros();
            }
        }
        self.drain_writebacks(env);
        self.laundry.drop_slot(slot)
    }

    /// Books one writeback completion: bills its service time and market
    /// I/O charge, clears the "promised free but not yet clean" mark, and
    /// traces it. Shared by the direct poll path and the completion-ring
    /// path — the booking is identical either way.
    fn writeback_completed(&mut self, env: &mut Env<'_>, ticket: TicketId, service: Micros) {
        self.wb_stats.completed += 1;
        self.wb_stats.billed_us += service.as_micros();
        env.spcm.charge_manager_io(self.id, 1);
        // Promotion heat from the completion ring: a page that is
        // re-resident below DRAM by the time its writeback completes was
        // rescued while the disk was still in flight — it is cycling,
        // the strongest re-reference signal the event stream carries.
        if let Some((seg, page)) = self.laundry.completed(ticket) {
            self.note_heat(env.kernel, seg, page);
        }
        self.trace(
            env.kernel,
            EventKind::WritebackCompleted {
                manager: self.id.0,
                ticket,
                service_us: service.as_micros(),
            },
        );
    }

    /// Bills every writeback completion due by now: its service time and
    /// market I/O charge land here, not at issue, and its "promised free
    /// but not yet clean" mark clears. With the batched ABI on, the
    /// pipeline's completions ride the completion ring
    /// ([`CompletionEntry::Writeback`]) before being reaped, so a
    /// batched manager has one place completions of every kind arrive.
    fn drain_writebacks(&mut self, env: &mut Env<'_>) {
        if self.wb.is_idle() {
            return;
        }
        let now = env.kernel.now();
        for c in self.wb.poll(now) {
            if self.config.batched_abi
                && self
                    .cq
                    .push(CompletionEntry::Writeback {
                        ticket: c.ticket,
                        service: c.service,
                    })
                    .is_ok()
            {
                continue;
            }
            // Unbatched mode, or the completion ring is full: book it
            // directly (never drop a completion).
            self.writeback_completed(env, c.ticket, c.service);
        }
        if self.config.batched_abi {
            let mut first_err = None;
            self.reap_completions(env, &mut first_err);
            debug_assert!(first_err.is_none(), "op completion outside a flush");
        }
    }

    /// Pops every completion-ring entry: writeback completions are
    /// booked, the first failed op is recorded for the caller, cancelled
    /// entries need no action (their ops never executed — resubmission
    /// is the enqueue site's choice, and every current site propagates
    /// the batch's error instead).
    fn reap_completions(&mut self, env: &mut Env<'_>, first_err: &mut Option<ManagerError>) {
        while let Some(entry) = self.cq.pop() {
            match entry {
                CompletionEntry::Op { result: Ok(_), .. } | CompletionEntry::Cancelled { .. } => {}
                CompletionEntry::Op { result: Err(e), .. } => {
                    if first_err.is_none() {
                        *first_err = Some(ManagerError::Kernel(e));
                    }
                }
                CompletionEntry::Writeback { ticket, service } => {
                    self.writeback_completed(env, ticket, service);
                }
            }
        }
    }

    /// Enqueues one op on the submission ring, flushing first if it is
    /// full (so an enqueue never fails and never loses an entry).
    fn ring_submit(&mut self, env: &mut Env<'_>, op: RingOp) -> Result<(), ManagerError> {
        if self.sq.is_full() {
            self.ring_flush(env)?;
        }
        let token = self.ring_token;
        self.ring_token += 1;
        self.ring_submitted += 1;
        self.sq
            .push(SubmissionEntry { token, op })
            .expect("submission ring has room after flush");
        Ok(())
    }

    /// Rings the kernel's doorbell until the submission ring drains and
    /// reaps every completion. One non-empty batch charges a single
    /// `kernel_call` entry; each op then runs at its service cost. The
    /// first op failure is returned — after the whole batch has been
    /// reaped — matching the synchronous path, which also stops at the
    /// first failing call (the kernel cancels the batch's remainder).
    fn ring_flush(&mut self, env: &mut Env<'_>) -> Result<(), ManagerError> {
        let mut first_err = None;
        while !self.sq.is_empty() {
            if env.kernel.drain_ring(&mut self.sq, &mut self.cq) == 0 {
                break; // unreachable: the reap below always frees the cq
            }
            self.reap_completions(env, &mut first_err);
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// One op through the ring: enqueue plus an immediate flush. A
    /// single-entry batch charges exactly what the synchronous call
    /// would (one doorbell + the op's service cost), so sites that must
    /// observe an op's effect before their next statement ride the ring
    /// without cost or state divergence.
    fn ring_call(&mut self, env: &mut Env<'_>, op: RingOp) -> Result<(), ManagerError> {
        self.ring_submit(env, op)?;
        self.ring_flush(env)
    }

    /// `MigratePages` via the configured ABI: a synchronous kernel call,
    /// or a single-entry ring batch with `batched_abi` on.
    #[allow(clippy::too_many_arguments)]
    fn op_migrate_pages(
        &mut self,
        env: &mut Env<'_>,
        src: SegmentId,
        dst: SegmentId,
        src_page: PageNumber,
        dst_page: PageNumber,
        count: u64,
        set: PageFlags,
        clear: PageFlags,
    ) -> Result<(), ManagerError> {
        if self.config.batched_abi {
            self.ring_call(
                env,
                RingOp::MigratePages {
                    src,
                    dst,
                    src_page,
                    dst_page,
                    count,
                    set,
                    clear,
                },
            )
        } else {
            env.kernel
                .migrate_pages(src, dst, src_page, dst_page, count, set, clear)?;
            Ok(())
        }
    }

    /// `MigrateFrame` (the tier exchange) via the configured ABI.
    fn op_migrate_frame(
        &mut self,
        env: &mut Env<'_>,
        seg: SegmentId,
        page: PageNumber,
        dst: FrameId,
    ) -> Result<(), ManagerError> {
        if self.config.batched_abi {
            self.ring_call(env, RingOp::MigrateFrame { seg, page, dst })
        } else {
            env.kernel.migrate_frame(seg, page, dst)?;
            Ok(())
        }
    }

    /// `ModifyPageFlags` via the configured ABI, executed immediately.
    fn op_modify_flags(
        &mut self,
        env: &mut Env<'_>,
        seg: SegmentId,
        page: PageNumber,
        count: u64,
        set: PageFlags,
        clear: PageFlags,
    ) -> Result<(), ManagerError> {
        if self.config.batched_abi {
            self.ring_call(
                env,
                RingOp::ModifyPageFlags {
                    seg,
                    page,
                    count,
                    set,
                    clear,
                },
            )
        } else {
            env.kernel.modify_page_flags(seg, page, count, set, clear)?;
            Ok(())
        }
    }

    /// `ModifyPageFlags`, deferred onto the ring with `batched_abi` on.
    /// Batch sites (protection restore, sampling sweep) call this in
    /// their loops and [`Self::ring_flush`] once at the end, collapsing
    /// n crossings into one.
    fn op_modify_flags_deferred(
        &mut self,
        env: &mut Env<'_>,
        seg: SegmentId,
        page: PageNumber,
        count: u64,
        set: PageFlags,
        clear: PageFlags,
    ) -> Result<(), ManagerError> {
        if self.config.batched_abi {
            self.ring_submit(
                env,
                RingOp::ModifyPageFlags {
                    seg,
                    page,
                    count,
                    set,
                    clear,
                },
            )
        } else {
            env.kernel.modify_page_flags(seg, page, count, set, clear)?;
            Ok(())
        }
    }

    /// Drives the writeback pipeline to empty — the fsync-like barrier.
    /// Waits (on the kernel clock) for the last in-flight reservation,
    /// then bills everything drained. A no-op in synchronous mode.
    pub fn flush_writebacks(&mut self, env: &mut Env<'_>) {
        let now = env.kernel.now();
        if let Some(done) = self.wb.quiesce(now) {
            let wait = done.saturating_duration_since(now);
            if wait > Micros::ZERO {
                env.kernel.charge(wait);
            }
        }
        self.drain_writebacks(env);
    }

    /// Reclaims `count` pages from managed segments into the free pool,
    /// writing dirty data back first. Reclaimed pages stay rescuable until
    /// their frame is reused. Dirty victims whose store is dead are
    /// quarantined in place and another victim is tried, so a failing
    /// device degrades capacity instead of wedging replacement.
    fn reclaim_into_pool(&mut self, env: &mut Env<'_>, count: u64) -> Result<u64, ManagerError> {
        let free_seg = self.free_seg(env)?;
        let mut reclaimed = 0;
        let mut demoted = 0;
        let mut deferred: VecDeque<(SegmentId, PageNumber)> = VecDeque::new();
        let mut attempts = 0;
        while reclaimed < count && attempts < count * 2 + 8 + demoted {
            attempts += 1;
            let victim = {
                let kernel = &mut *env.kernel;
                self.policy.select_victim(&mut |s, p| {
                    match kernel.get_page_attributes(s, p, 1) {
                        Ok(attrs) if attrs[0].present => {
                            let flags = attrs[0].flags;
                            if flags.contains(PageFlags::PINNED) {
                                Probe::Pinned
                            } else if flags.contains(PageFlags::REFERENCED) {
                                // Second chance: clear the bit.
                                let _ = kernel.modify_page_flags(
                                    s,
                                    p,
                                    1,
                                    PageFlags::empty(),
                                    PageFlags::REFERENCED,
                                );
                                Probe::Referenced
                            } else {
                                Probe::NotReferenced
                            }
                        }
                        _ => Probe::Gone,
                    }
                })
            };
            let Some((seg, page)) = victim else { break };
            // Demotion stage of the clock: a dirty second-chance victim
            // sitting on a DRAM frame trades frames with a spare
            // lower-tier pool slot instead of paying writeback I/O. Its
            // data stays resident one rung down the ladder; the DRAM
            // frame surfaces in the free pool for the next allocation.
            // The clock tends to sweep DRAM-framed pages before it pools
            // any lower-tier frame, so an eligible victim with no partner
            // yet is deferred — it demotes as soon as a later eviction
            // pools one — rather than evicted.
            if demoted + (deferred.len() as u64) < self.config.demote_batch {
                let dirty = env
                    .kernel
                    .get_page_attributes(seg, page, 1)
                    .ok()
                    .is_some_and(|a| a[0].present && a[0].flags.contains(PageFlags::DIRTY));
                if dirty {
                    match self.try_demote(env, free_seg, seg, page)? {
                        Demotion::Done => {
                            demoted += 1;
                            continue;
                        }
                        Demotion::NoTarget => {
                            deferred.push_back((seg, page));
                            continue;
                        }
                        Demotion::Ineligible => {}
                    }
                }
            }
            if self.evict(env, free_seg, seg, page)? {
                reclaimed += 1;
                // That eviction may have pooled a lower-tier frame:
                // drain the deferred demotions while partners last.
                while let Some(&(dseg, dpage)) = deferred.front() {
                    match self.try_demote(env, free_seg, dseg, dpage)? {
                        Demotion::Done => {
                            deferred.pop_front();
                            demoted += 1;
                        }
                        Demotion::Ineligible => {
                            deferred.pop_front();
                        }
                        Demotion::NoTarget => break,
                    }
                }
            }
        }
        if reclaimed > 0 {
            self.trace(
                env.kernel,
                EventKind::Reclaim {
                    manager: self.id.0,
                    frames: reclaimed,
                    forced: false,
                },
            );
        }
        Ok(reclaimed)
    }

    /// Writes back (if dirty) and migrates one page into the free pool.
    /// Returns whether a frame was actually freed: a dirty page whose
    /// store is permanently failing is quarantined in place instead
    /// (`false`), leaving the caller to pick another victim.
    fn evict(
        &mut self,
        env: &mut Env<'_>,
        free_seg: SegmentId,
        seg: SegmentId,
        page: PageNumber,
    ) -> Result<bool, ManagerError> {
        let entry = env
            .kernel
            .segment(seg)?
            .entry(page)
            .ok_or(epcm_core::KernelError::PageNotPresent { segment: seg, page })?;
        let mut ticket = None;
        if entry.flags.contains(PageFlags::DIRTY) {
            let before = env.kernel.now();
            let outcome = if self.config.async_writeback {
                self.writeback_async(env, seg, page)
            } else {
                self.writeback(env, seg, page).map(|()| None)
            };
            match outcome {
                Ok(t) => ticket = t,
                Err(ManagerError::Store(FileStoreError::Io { .. })) => {
                    self.quarantine_in_place(env, seg, page)?;
                    return Ok(false);
                }
                Err(other) => return Err(other),
            }
            // Fault-path time spent on this dirty victim: copy + latency
            // inline in sync mode; only injected-fault retry backoff in
            // async mode (the disk time bills at completion instead).
            self.wb_stats.dirty_victim_us += env.kernel.now().duration_since(before).as_micros();
        }
        // Destination: first empty slot in the free segment.
        let slot = env.kernel.segment(free_seg)?.first_vacant();
        self.op_migrate_pages(
            env,
            seg,
            free_seg,
            page,
            slot,
            1,
            PageFlags::RW,
            PageFlags::DIRTY | PageFlags::REFERENCED | PageFlags::MANAGER_B,
        )?;
        self.laundry.insert((seg, page), slot, ticket);
        self.stats.reclaimed += 1;
        Ok(true)
    }

    /// Picks a free-pool slot whose frame sits below DRAM as the tier
    /// exchange partner, preferring SlowMem over CompressedRam (demotion
    /// walks the ladder one rung at a time) and laundry-free slots over
    /// laundered ones (the exchange clobbers the slot's bytes, so a
    /// laundered slot costs its rescue entries). Returns the slot, its
    /// frame, and the frame's tier.
    fn demotion_target(
        &self,
        kernel: &Kernel,
        free_seg: SegmentId,
    ) -> Option<(PageNumber, FrameId, MemTier)> {
        let tiers = *kernel.tiers();
        let seg = kernel.segment(free_seg).ok()?;
        let mut best: Option<(u32, PageNumber, FrameId, MemTier)> = None;
        for (p, e) in seg.resident() {
            let tier = tiers.tier_of(e.frame);
            if tier == MemTier::Dram {
                continue;
            }
            // A slot whose laundry writeback is still in flight is not
            // clobberable without stalling on the disk; prefer any other
            // partner outright.
            let laundry = self.laundry.at(p);
            if laundry.is_some_and(|e| e.ticket.is_some()) {
                continue;
            }
            let laundered = laundry.is_some();
            let score = u32::from(laundered) * 2 + u32::from(tier != MemTier::SlowMem);
            if score == 0 {
                return Some((p, e.frame, tier));
            }
            if best.is_none_or(|(s, ..)| score < s) {
                best = Some((score, p, e.frame, tier));
            }
        }
        best.map(|(_, p, f, t)| (p, f, t))
    }

    /// Attempts to demote `page` — resident on a DRAM frame — into a
    /// spare lower-tier free-pool frame via a kernel tier exchange. The
    /// page stays resident (only its physical frame changes), so no
    /// writeback I/O happens and the manager's DRAM bill shrinks.
    fn try_demote(
        &mut self,
        env: &mut Env<'_>,
        free_seg: SegmentId,
        seg: SegmentId,
        page: PageNumber,
    ) -> Result<Demotion, ManagerError> {
        let tiers = *env.kernel.tiers();
        if tiers.is_dram_only() {
            return Ok(Demotion::Ineligible);
        }
        let Some(entry) = env.kernel.segment(seg)?.entry(page) else {
            return Ok(Demotion::Ineligible);
        };
        if tiers.tier_of(entry.frame) != MemTier::Dram {
            return Ok(Demotion::Ineligible);
        }
        let Some((slot, dst, dst_tier)) = self.demotion_target(env.kernel, free_seg) else {
            return Ok(Demotion::NoTarget);
        };
        // The exchange overwrites the slot's bytes: any laundry it holds
        // must be dropped first (the same invariant take_free_slot uses —
        // laundered data was already written back at reclaim time), and
        // an in-flight writeback must complete before the clobber.
        self.drop_slot_laundry(env, slot);
        if dst_tier == MemTier::CompressedRam {
            // The refitted compress.rs scheme backs this tier: account
            // the RLE work a real zram device would do on the way in.
            let data = env.kernel.manager_page(seg, page)?;
            let stored = rle_compress(page_bytes(&data)).len() as u64;
            self.zram_stats.compressed += 1;
            self.zram_stats.raw_bytes += BASE_PAGE_SIZE;
            self.zram_stats.stored_bytes += stored;
        }
        self.op_migrate_frame(env, seg, page, dst)?;
        self.stats.demotions += 1;
        Ok(Demotion::Done)
    }

    /// Demotes up to `budget` cold (unreferenced, unpinned) DRAM pages
    /// into spare lower-tier pool frames. This is the bankrupt manager's
    /// survival path: holdings shift to cheaper tiers, the tiered bill
    /// shrinks, and no data is lost to a forced seizure.
    fn rebalance_demote(&mut self, env: &mut Env<'_>, budget: u64) -> Result<u64, ManagerError> {
        if budget == 0 || env.kernel.tiers().is_dram_only() {
            return Ok(0);
        }
        let free_seg = self.free_seg(env)?;
        let tiers = *env.kernel.tiers();
        let segs: Vec<SegmentId> = env
            .kernel
            .segment_ids()
            .filter(|s| self.managed.contains_key(&s.as_u32()))
            .collect();
        let mut demoted = 0;
        'segments: for seg in segs {
            let candidates: Vec<PageNumber> = match env.kernel.segment(seg) {
                Ok(segment) => segment
                    .resident()
                    .filter(|(_, e)| {
                        !e.flags.contains(PageFlags::PINNED)
                            && !e.flags.contains(PageFlags::REFERENCED)
                            && tiers.tier_of(e.frame) == MemTier::Dram
                    })
                    .map(|(p, _)| p)
                    .collect(),
                Err(_) => continue,
            };
            for page in candidates {
                if demoted >= budget {
                    break 'segments;
                }
                if self.try_demote(env, free_seg, seg, page)? == Demotion::Done {
                    demoted += 1;
                }
            }
        }
        Ok(demoted)
    }

    /// Picks a free-pool slot whose frame is DRAM as the promotion
    /// exchange partner — the mirror of [`Self::demotion_target`].
    /// Laundry-free slots are preferred over laundered ones (the
    /// exchange clobbers the slot's bytes, costing rescue entries), and
    /// slots whose writeback is still in flight are skipped outright.
    fn promotion_target(
        &self,
        kernel: &Kernel,
        free_seg: SegmentId,
    ) -> Option<(PageNumber, FrameId)> {
        let tiers = *kernel.tiers();
        let seg = kernel.segment(free_seg).ok()?;
        let mut fallback: Option<(PageNumber, FrameId)> = None;
        for (p, e) in seg.resident() {
            if tiers.tier_of(e.frame) != MemTier::Dram {
                continue;
            }
            match self.laundry.at(p) {
                None => return Some((p, e.frame)),
                Some(laundry) if laundry.ticket.is_some() => continue,
                Some(_) => {}
            }
            if fallback.is_none() {
                fallback = Some((p, e.frame));
            }
        }
        fallback
    }

    /// The coldest DRAM victim for a promotion swap: the first resident,
    /// unpinned, clock-unreferenced page on a DRAM frame, scanning
    /// managed segments in id order (deterministic). Pages the clock has
    /// seen referenced keep their frames — promotion never steals hot
    /// DRAM — but, exactly like the reclaim probe, they get a second
    /// chance: when every DRAM page carries its reference bit, the scan
    /// strips the bits and returns nothing, so a page that stays cold
    /// is pickable on the next pass while anything re-referenced in
    /// between survives.
    fn find_promotion_victim(
        &self,
        kernel: &mut Kernel,
    ) -> Option<(SegmentId, PageNumber, FrameId)> {
        let tiers = *kernel.tiers();
        let mut referenced: Vec<(SegmentId, PageNumber)> = Vec::new();
        let segs: Vec<SegmentId> = kernel
            .segment_ids()
            .filter(|s| self.managed.contains_key(&s.as_u32()))
            .collect();
        for seg in segs {
            let Ok(segment) = kernel.segment(seg) else {
                continue;
            };
            for (p, e) in segment.resident() {
                if e.flags.contains(PageFlags::PINNED) || tiers.tier_of(e.frame) != MemTier::Dram {
                    continue;
                }
                if e.flags.contains(PageFlags::REFERENCED) {
                    referenced.push((seg, p));
                    continue;
                }
                return Some((seg, p, e.frame));
            }
        }
        for (seg, p) in referenced {
            let _ = kernel.modify_page_flags(seg, p, 1, PageFlags::empty(), PageFlags::REFERENCED);
        }
        None
    }

    /// Promotes one hot page onto a DRAM frame via tier exchange.
    ///
    /// Preference order matches the ISSUE contract: a spare free-pool
    /// DRAM frame first (the free slot inherits the hot page's old
    /// lower-tier frame), else an exchange with the coldest DRAM victim.
    /// Either way frame conservation is an exchange invariant — no
    /// allocation ever happens.
    ///
    /// The swap path needs one extra copy: `MigrateFrame`'s one-way copy
    /// moves the hot page's bytes up, leaving the victim's landing frame
    /// with stale bytes, so the victim's page is saved before the
    /// exchange and restored (one charged page copy) after it.
    fn promote_page(
        &mut self,
        env: &mut Env<'_>,
        seg: SegmentId,
        page: PageNumber,
        heat: u64,
    ) -> Result<bool, ManagerError> {
        let tiers = *env.kernel.tiers();
        let Some(entry) = env.kernel.segment(seg)?.entry(page) else {
            return Ok(false);
        };
        let hot_frame = entry.frame;
        let from = tiers.tier_of(hot_frame);
        if from == MemTier::Dram || entry.flags.contains(PageFlags::PINNED) {
            return Ok(false);
        }
        let free_seg = self.free_seg(env)?;
        let swapped = match self.promotion_target(env.kernel, free_seg) {
            Some((slot, dst)) => {
                // The exchange clobbers the slot's bytes (the hot page's
                // old frame moves in residually): laundry there drops
                // first, exactly as on the demotion path.
                self.drop_slot_laundry(env, slot);
                self.op_migrate_frame(env, seg, page, dst)?;
                false
            }
            None => {
                let Some((vseg, vpage, vframe)) = self.find_promotion_victim(env.kernel) else {
                    self.promo_stats.no_target += 1;
                    return Ok(false);
                };
                let victim = env.kernel.manager_page(vseg, vpage)?;
                if from == MemTier::CompressedRam {
                    // The victim lands in the zram tier: account the RLE
                    // work a real compressed-RAM device would do, same as
                    // the demotion ladder.
                    let stored = rle_compress(page_bytes(&victim)).len() as u64;
                    self.zram_stats.compressed += 1;
                    self.zram_stats.raw_bytes += BASE_PAGE_SIZE;
                    self.zram_stats.stored_bytes += stored;
                }
                self.op_migrate_frame(env, seg, page, vframe)?;
                env.kernel.manager_set_page(vseg, vpage, victim)?;
                env.kernel.charge(env.kernel.costs().page_copy_4k);
                true
            }
        };
        self.stats.promotions += 1;
        if swapped {
            self.promo_stats.swapped += 1;
        } else {
            self.promo_stats.to_free += 1;
        }
        // The promotion copy is billed like a 4 KB transfer on the
        // market ledger, so a manager cannot thrash pages up the ladder
        // for free — the same anti-dodge role as the re-read I/O charge.
        env.spcm.charge_manager_io(self.id, 1);
        self.trace(
            env.kernel,
            EventKind::PagePromoted {
                manager: self.id.0,
                segment: seg.as_u32() as u64,
                page: page.as_u64(),
                from_tier: from.code(),
                heat,
                swapped,
            },
        );
        Ok(true)
    }

    /// One tick's promotion pass: prune stale heat, rank the live
    /// candidates (heat descending, page ascending — a total order, so
    /// the pass is a pure function of the run), and promote the top
    /// `promotion_budget`.
    fn promote_hot(&mut self, env: &mut Env<'_>) -> Result<u64, ManagerError> {
        if !self.promotion_on() || env.kernel.tiers().is_dram_only() || self.heat.is_empty() {
            return Ok(0);
        }
        // A bankrupt manager is shedding DRAM, not acquiring it: the
        // rebalance ladder runs instead (tick order: demote, then skip
        // promotion until solvent again).
        if env
            .spcm
            .market()
            .and_then(|mk| mk.balance(self.id))
            .is_some_and(|b| b < 0.0)
        {
            return Ok(0);
        }
        let tiers = *env.kernel.tiers();
        let segs: BTreeMap<u32, SegmentId> = env
            .kernel
            .segment_ids()
            .filter(|s| self.managed.contains_key(&s.as_u32()))
            .map(|s| (s.as_u32(), s))
            .collect();
        let threshold = self.config.promotion_threshold.max(1);
        let mut stale: Vec<(u32, u64)> = Vec::new();
        let mut cands: Vec<(u64, (u32, u64))> = Vec::new();
        for (&key, &heat) in &self.heat {
            let Some(&seg) = segs.get(&key.0) else {
                stale.push(key); // segment closed or unmanaged
                continue;
            };
            let Some(entry) = env.kernel.segment(seg)?.entry(PageNumber(key.1)) else {
                stale.push(key); // no longer resident
                continue;
            };
            if tiers.tier_of(entry.frame) == MemTier::Dram {
                stale.push(key); // reached DRAM on its own
                continue;
            }
            if entry.flags.contains(PageFlags::PINNED) {
                continue; // quarantined in place; keep the heat
            }
            if heat >= threshold {
                cands.push((heat, key));
            }
        }
        for key in stale {
            self.heat.remove(&key);
        }
        cands.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        cands.truncate(self.config.promotion_budget as usize);
        let mut promoted = 0;
        for (heat, key) in cands {
            let Some(&seg) = segs.get(&key.0) else {
                continue;
            };
            if self.promote_page(env, seg, PageNumber(key.1), heat)? {
                self.heat.remove(&key);
                promoted += 1;
            }
        }
        Ok(promoted)
    }

    /// Resolves `seg`'s writeback destination (file, or lazily created
    /// swap). `None` for unmanaged segments (e.g. the free segment).
    fn writeback_target(&mut self, env: &mut Env<'_>, seg: SegmentId) -> Option<(FileId, bool)> {
        let ms = self.managed.get_mut(&seg.as_u32())?;
        match &mut ms.backing {
            Backing::File(f) => Some((*f, false)),
            Backing::Anonymous { swap, .. } => {
                let f = match swap {
                    Some(f) => *f,
                    None => {
                        let f = env.store.create(&format!("swap-{}", seg.as_u32()), 0);
                        *swap = Some(f);
                        f
                    }
                };
                Some((f, true))
            }
        }
    }

    /// Moves one dirty page's bytes to its backing store (file or swap),
    /// retrying transient device failures with backoff, and registers the
    /// swap copy. Returns the store latency, `None` for an unmanaged
    /// segment. This is the data half shared by both writeback modes;
    /// time accounting is the caller's.
    fn writeback_data(
        &mut self,
        env: &mut Env<'_>,
        seg: SegmentId,
        page: PageNumber,
    ) -> Result<Option<Micros>, ManagerError> {
        let Some((file, is_anon)) = self.writeback_target(env, seg) else {
            return Ok(None);
        };
        let data = env.kernel.manager_page(seg, page)?;
        let offset = page.as_u64() * BASE_PAGE_SIZE;
        let latency = self.store_io_with_retry(env, true, |store| {
            store.write_page(file, offset, data.clone())
        })?;
        if is_anon {
            if let Some(ManagedSegment {
                backing: Backing::Anonymous { swapped, .. },
            }) = self.managed.get_mut(&seg.as_u32())
            {
                swapped.insert(page.as_u64());
            }
        }
        self.stats.writebacks += 1;
        Ok(Some(latency))
    }

    /// Writes one dirty page back synchronously: the page copy and store
    /// latency are charged inline and billed on the spot.
    fn writeback(
        &mut self,
        env: &mut Env<'_>,
        seg: SegmentId,
        page: PageNumber,
    ) -> Result<(), ManagerError> {
        let Some(latency) = self.writeback_data(env, seg, page)? else {
            return Ok(());
        };
        let copy = env.kernel.costs().page_copy_4k;
        env.kernel.charge(copy);
        env.kernel.charge(latency);
        self.wb_stats.billed_us += (copy + latency).as_micros();
        self.wb_stats.completed += 1;
        env.spcm.charge_manager_io(self.id, 1);
        Ok(())
    }

    /// Writes one dirty page back asynchronously: the bytes land on the
    /// store now (identical data path, retries and all), but the page
    /// copy + store latency are submitted to the pipeline as disk service
    /// time and billed when the completion fires. Returns the in-flight
    /// ticket, `None` for an unmanaged segment.
    fn writeback_async(
        &mut self,
        env: &mut Env<'_>,
        seg: SegmentId,
        page: PageNumber,
    ) -> Result<Option<TicketId>, ManagerError> {
        let Some(latency) = self.writeback_data(env, seg, page)? else {
            return Ok(None);
        };
        let service = env.kernel.costs().page_copy_4k + latency;
        let ticket = self.wb.submit(env.kernel.now(), service);
        self.laundry.issued(ticket, (seg, page));
        self.trace(
            env.kernel,
            EventKind::WritebackIssued {
                manager: self.id.0,
                segment: seg.as_u32() as u64,
                page: page.as_u64(),
                ticket,
            },
        );
        Ok(Some(ticket))
    }

    /// Handles a missing-page fault.
    fn handle_missing(
        &mut self,
        env: &mut Env<'_>,
        fault: &FaultEvent,
    ) -> Result<(), ManagerError> {
        let seg = fault.segment;
        let page = fault.page;
        let free_seg = self.free_seg(env)?;

        // Laundry rescue: the frame is still intact in the free pool.
        if let Some(slot) = self.laundry.remove((seg, page)) {
            self.op_migrate_pages(
                env,
                free_seg,
                seg,
                slot,
                page,
                1,
                PageFlags::RW,
                PageFlags::empty(),
            )?;
            self.policy.note_resident(seg, page);
            self.stats.laundry_rescues += 1;
            self.stats.migrate_calls += 1;
            // A rescue IS a fault-time re-reference: the page came back
            // before its frame was reused. Heat it if it landed below DRAM.
            self.note_heat(env.kernel, seg, page);
            return Ok(());
        }

        let fill = match self.managed.get(&seg.as_u32()) {
            Some(ms) => match &ms.backing {
                Backing::File(f) => {
                    let size = env.store.size(*f).map_err(epcm_core::KernelError::from)?;
                    if page.as_u64() * BASE_PAGE_SIZE < size {
                        Some((*f, false))
                    } else {
                        None // append beyond EOF: minimal fault
                    }
                }
                Backing::Anonymous { swap, swapped } => {
                    // A page is only registered in `swapped` once a swap
                    // file exists; with no file it is a first touch.
                    match (swap, swapped.contains(&page.as_u64())) {
                        (Some(f), true) => Some((*f, true)),
                        _ => None,
                    }
                }
            },
            None => return Err(ManagerError::NotManaged { segment: seg }),
        };

        match fill {
            Some((file, is_swap)) => {
                env.kernel.charge(env.kernel.costs().manager_alloc);
                let slot = self.take_free_slot(env)?;
                let offset = page.as_u64() * BASE_PAGE_SIZE;
                let size = env.store.size(file).map_err(epcm_core::KernelError::from)?;
                let mut data = None;
                if offset < size {
                    let latency = self.store_io_with_retry(env, false, |store| {
                        let (page, latency) = store.read_page(file, offset)?;
                        data = page;
                        Ok(latency)
                    })?;
                    env.kernel.charge(latency);
                }
                env.kernel.manager_set_page(free_seg, slot, data)?;
                env.kernel.charge(env.kernel.costs().page_copy_4k);
                self.op_migrate_pages(
                    env,
                    free_seg,
                    seg,
                    slot,
                    page,
                    1,
                    PageFlags::RW,
                    PageFlags::DIRTY | PageFlags::REFERENCED | PageFlags::MANAGER_B,
                )?;
                self.policy.note_resident(seg, page);
                self.stats.migrate_calls += 1;
                if is_swap {
                    self.stats.swap_ins += 1;
                    // The swap copy stays registered: it remains valid
                    // while the page is clean, so a later clean eviction
                    // can drop the frame without I/O and still refill.
                    // A dirty eviction overwrites it.
                } else {
                    self.stats.file_fills += 1;
                }
                // A refill is a re-reference of a previously evicted
                // page; if it landed on a non-DRAM pool frame it is a
                // promotion candidate.
                self.note_heat(env.kernel, seg, page);
                Ok(())
            }
            None => {
                // Minimal fault. For file appends, allocate a 16 KB batch.
                let is_file = matches!(
                    self.managed.get(&seg.as_u32()),
                    Some(ManagedSegment {
                        backing: Backing::File(_)
                    })
                );
                let batch = if is_file {
                    self.config.append_batch.max(1)
                } else {
                    1
                };
                env.kernel.charge(env.kernel.costs().manager_alloc);
                // Appends grow the file segment in whole allocation units
                // ("allocates pages in 16K units" for appends, §3.2).
                if is_file && page.as_u64() + batch > env.kernel.segment(seg)?.size_pages() {
                    env.kernel.resize_segment(seg, page.as_u64() + batch)?;
                }
                let size = env.kernel.segment(seg)?.size_pages();
                // How many consecutive destination pages are allocatable.
                let mut want = 0;
                for i in 0..batch {
                    let p = page.offset(i);
                    if p.as_u64() >= size || env.kernel.segment(seg)?.entry(p).is_some() {
                        break;
                    }
                    want += 1;
                }
                let want = want.max(1);
                self.ensure_free(env, want)?;
                // Prefer a consecutive run of free slots so the batch is a
                // single MigratePages invocation (the 16 KB append unit).
                let run = find_free_run(env.kernel, free_seg, want, &self.laundry)?;
                match run {
                    Some((start, len)) => {
                        self.op_migrate_pages(
                            env,
                            free_seg,
                            seg,
                            start,
                            page,
                            len,
                            PageFlags::RW,
                            PageFlags::DIRTY | PageFlags::REFERENCED | PageFlags::MANAGER_B,
                        )?;
                        self.stats.migrate_calls += 1;
                        for i in 0..len {
                            self.policy.note_resident(seg, page.offset(i));
                        }
                        if len > 1 {
                            self.stats.append_batches += 1;
                            self.trace(
                                env.kernel,
                                EventKind::BatchSwap {
                                    manager: self.id.0,
                                    segment: seg.as_u32() as u64,
                                    pages: len,
                                },
                            );
                        }
                    }
                    None => {
                        let slot = self.take_free_slot(env)?;
                        self.op_migrate_pages(
                            env,
                            free_seg,
                            seg,
                            slot,
                            page,
                            1,
                            PageFlags::RW,
                            PageFlags::DIRTY | PageFlags::REFERENCED | PageFlags::MANAGER_B,
                        )?;
                        self.stats.migrate_calls += 1;
                        self.policy.note_resident(seg, page);
                    }
                }
                self.stats.minimal_faults += 1;
                Ok(())
            }
        }
    }

    /// Handles a protection fault: reference-sampling restore (batched).
    fn handle_protection(
        &mut self,
        env: &mut Env<'_>,
        fault: &FaultEvent,
    ) -> Result<(), ManagerError> {
        let seg = fault.segment;
        let page = fault.page;
        // If the page itself already permits the access, the denial came
        // from a bound region's protection — nothing the manager should
        // lift; the application gets the error (a SIGSEGV analog).
        if let FaultKind::Protection { flags } = fault.kind {
            if flags.permits(fault.access) {
                return Err(ManagerError::ProtectionDenied { segment: seg, page });
            }
        }
        self.stats.sampling_faults += 1;
        // The faulting page was genuinely referenced.
        self.policy.note_referenced(seg, page);
        // Sampling-window hit: the same reference signal feeds the
        // promotion ladder when the page sits below DRAM.
        self.note_heat(env.kernel, seg, page);
        // Restore protection on a batch of contiguous resident pages to
        // amortise fault cost (§2.3). The resident prefix is scanned
        // before any flags change — the scan reads only presence, which
        // no ModifyPageFlags alters, so pre-scanning is equivalent to
        // the interleaved check-then-modify loop in both ABI modes.
        let size = env.kernel.segment(seg)?.size_pages();
        let batch = self.config.protection_batch.max(1);
        let mut run = 0;
        {
            let segment = env.kernel.segment(seg)?;
            for i in 0..batch {
                let p = page.offset(i);
                if p.as_u64() >= size || segment.entry(p).is_none() {
                    break;
                }
                run += 1;
            }
        }
        for i in 0..run {
            self.op_modify_flags_deferred(
                env,
                seg,
                page.offset(i),
                1,
                PageFlags::RW,
                PageFlags::MANAGER_B,
            )?;
        }
        // With the batched ABI this is the crossing collapse: one
        // doorbell drains the whole restore batch.
        self.ring_flush(env)
    }

    /// Handles a copy-on-write fault: provide a frame; the kernel copies.
    fn handle_cow(&mut self, env: &mut Env<'_>, fault: &FaultEvent) -> Result<(), ManagerError> {
        let free_seg = self.free_seg(env)?;
        env.kernel.charge(env.kernel.costs().manager_alloc);
        let slot = self.take_free_slot(env)?;
        self.op_migrate_pages(
            env,
            free_seg,
            fault.segment,
            slot,
            fault.page,
            1,
            PageFlags::RW,
            PageFlags::MANAGER_B,
        )?;
        self.policy.note_resident(fault.segment, fault.page);
        self.stats.cow_faults += 1;
        self.stats.migrate_calls += 1;
        Ok(())
    }

    /// Revokes protection on up to `sample_batch` resident pages to gather
    /// reference information for the clock (the sampling sweep).
    fn sampling_sweep(&mut self, env: &mut Env<'_>) -> Result<(), ManagerError> {
        if self.config.sample_batch == 0 {
            return Ok(());
        }
        let mut remaining = self.config.sample_batch;
        let seg_ids: Vec<u32> = self.managed.keys().copied().collect();
        if seg_ids.is_empty() {
            return Ok(());
        }
        let start = self.sample_cursor;
        for &sid in seg_ids
            .iter()
            .cycle()
            .skip_while(|&&s| s < start.0)
            .take(seg_ids.len())
        {
            if remaining == 0 {
                break;
            }
            let seg = match env.kernel.segment_ids().find(|s| s.as_u32() == sid) {
                Some(s) => s,
                None => continue,
            };
            let pages: Vec<PageNumber> = env
                .kernel
                .segment(seg)?
                .resident()
                .filter(|(p, e)| {
                    e.flags.contains(PageFlags::READ)
                        && !e.flags.contains(PageFlags::PINNED)
                        && (sid, p.as_u64()) >= (start.0, if sid == start.0 { start.1 } else { 0 })
                })
                .map(|(p, _)| p)
                .take(remaining as usize)
                .collect();
            for p in pages {
                // Deferred onto the ring in batched mode: the page list
                // was snapshotted above, so revoking flags later in the
                // same sweep cannot change which pages are visited.
                self.op_modify_flags_deferred(
                    env,
                    seg,
                    p,
                    1,
                    PageFlags::MANAGER_B,
                    PageFlags::READ | PageFlags::WRITE,
                )?;
                remaining -= 1;
                self.sample_cursor = (sid, p.as_u64() + 1);
            }
        }
        if remaining > 0 {
            self.sample_cursor = (0, 0); // wrap the sweep
        }
        // One doorbell for the whole sweep's revocations.
        self.ring_flush(env)
    }
}

/// Longest run (up to `want`) of consecutive free-segment slots holding
/// frames, avoiding slots that are keeping laundry data alive. Returns
/// `(start, len)` with `len >= 1`, or `None` if only laundry slots remain.
fn find_free_run(
    kernel: &Kernel,
    free_seg: SegmentId,
    want: u64,
    laundry: &Laundry,
) -> Result<Option<(PageNumber, u64)>, epcm_core::KernelError> {
    let s = kernel.segment(free_seg)?;
    let mut best: Option<(u64, u64)> = None; // (start, len)
    let mut run_start: Option<u64> = None;
    let mut prev: Option<u64> = None;
    for (p, _) in s.resident() {
        if laundry.at(p).is_some() {
            run_start = None;
            prev = None;
            continue;
        }
        let p = p.as_u64();
        match (run_start, prev) {
            (Some(start), Some(q)) if p == q + 1 => {
                let len = p - start + 1;
                if best.is_none_or(|(_, bl)| len > bl) {
                    best = Some((start, len));
                }
                if len >= want {
                    return Ok(Some((PageNumber(start), want)));
                }
            }
            _ => {
                run_start = Some(p);
                if best.is_none() {
                    best = Some((p, 1));
                }
            }
        }
        prev = Some(p);
    }
    Ok(best.map(|(start, len)| (PageNumber(start), len.min(want))))
}

impl SegmentManager for DefaultSegmentManager {
    fn id(&self) -> ManagerId {
        self.id
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn set_id(&mut self, id: ManagerId) {
        self.id = id;
    }

    fn mode(&self) -> ManagerMode {
        self.mode
    }

    fn attach(&mut self, env: &mut Env<'_>, segment: SegmentId) -> Result<(), ManagerError> {
        let kind = env.kernel.segment(segment)?.kind();
        let backing = match kind {
            SegmentKind::CachedFile(f) => Backing::File(f),
            _ => Backing::Anonymous {
                swap: None,
                swapped: BTreeSet::new(),
            },
        };
        env.kernel.set_segment_manager(segment, self.id)?;
        self.managed
            .insert(segment.as_u32(), ManagedSegment { backing });
        // Seed policy with already-resident pages (ownership assumption of
        // an existing segment, §2.2).
        let resident: Vec<PageNumber> = env
            .kernel
            .segment(segment)?
            .resident()
            .map(|(p, _)| p)
            .collect();
        for p in resident {
            self.policy.note_resident(segment, p);
        }
        Ok(())
    }

    fn handle_fault(&mut self, env: &mut Env<'_>, fault: &FaultEvent) -> Result<(), ManagerError> {
        // Completions due by now free their window slots and in-flight
        // marks before the fault is dispatched.
        self.drain_writebacks(env);
        self.stats.faults += 1;
        match fault.kind {
            FaultKind::Missing => self.handle_missing(env, fault),
            FaultKind::Protection { .. } => self.handle_protection(env, fault),
            FaultKind::CopyOnWrite { .. } => self.handle_cow(env, fault),
        }
    }

    fn reclaim(&mut self, env: &mut Env<'_>, count: u64) -> Result<u64, ManagerError> {
        // Forced return to the SPCM: first make frames free, then hand the
        // free pool's frames back.
        let free_seg = self.free_seg(env)?;
        let have = self.free_count(env.kernel);
        if have < count {
            self.reclaim_into_pool(env, count - have)?;
        }
        let give: Vec<PageNumber> = env
            .kernel
            .segment(free_seg)?
            .resident()
            .map(|(p, _)| p)
            .take(count as usize)
            .collect();
        // Frames leaving our pool invalidate any laundry they hold; an
        // in-flight writeback must finish before its frame departs. Pages
        // go in key order: a stall issues queued writebacks at the current
        // instant, so the order can move virtual time.
        let mut invalidated: Vec<(PageKey, PageNumber)> = give
            .iter()
            .filter_map(|&slot| Some((self.laundry.at(slot)?.page, slot)))
            .collect();
        invalidated.sort_unstable();
        for (_, slot) in invalidated {
            self.drop_slot_laundry(env, slot);
        }
        env.spcm
            .return_frames(env.kernel, self.id, free_seg, &give)?;
        self.trace(
            env.kernel,
            EventKind::Reclaim {
                manager: self.id.0,
                frames: give.len() as u64,
                forced: true,
            },
        );
        Ok(give.len() as u64)
    }

    fn pool_frames_seized(&mut self, _env: &mut Env<'_>, pool: SegmentId, slots: &[PageNumber]) {
        if self.free_seg == Some(pool) {
            for &slot in slots {
                self.laundry.drop_slot(slot);
            }
        }
    }

    fn segment_closed(
        &mut self,
        env: &mut Env<'_>,
        segment: SegmentId,
    ) -> Result<(), ManagerError> {
        let free_seg = self.free_seg(env)?;
        let pages: Vec<(PageNumber, PageFlags)> = env
            .kernel
            .segment(segment)?
            .resident()
            .map(|(p, e)| (p, e.flags))
            .collect();
        let is_file = matches!(
            self.managed.get(&segment.as_u32()),
            Some(ManagedSegment {
                backing: Backing::File(_)
            })
        );
        for (p, flags) in pages {
            // File data must survive the close; anonymous data dies with
            // the segment (no writeback).
            if is_file && flags.contains(PageFlags::DIRTY) {
                self.writeback(env, segment, p)?;
            }
            let slot = env.kernel.segment(free_seg)?.first_vacant();
            self.op_migrate_pages(
                env,
                segment,
                free_seg,
                p,
                slot,
                1,
                PageFlags::RW,
                PageFlags::DIRTY | PageFlags::REFERENCED | PageFlags::MANAGER_B,
            )?;
            self.policy.note_removed(segment, p);
            self.laundry.remove((segment, p));
        }
        self.managed.remove(&segment.as_u32());
        Ok(())
    }

    fn tick(&mut self, env: &mut Env<'_>) -> Result<(), ManagerError> {
        self.drain_writebacks(env);
        if self.free_count(env.kernel) < self.config.low_water {
            // Opportunistic refill; ignore refusal (we reclaim on demand).
            let _ = self.ensure_free(env, self.config.target_free);
        }
        // In the red on a tiered machine: demote cold DRAM pages to
        // cheaper tiers rather than waiting for the SPCM to seize them.
        if !env.kernel.tiers().is_dram_only()
            && env
                .spcm
                .market()
                .and_then(|mk| mk.balance(self.id))
                .is_some_and(|b| b < 0.0)
        {
            let _ = self.rebalance_demote(env, self.config.demote_batch);
        }
        // The symmetric pass: top-K hot pages earn DRAM back each tick.
        self.promote_hot(env)?;
        self.sampling_sweep(env)
    }

    fn free_frames(&self, kernel: &Kernel) -> u64 {
        self.free_count(kernel)
    }

    fn set_tracer(&mut self, tracer: SharedTracer) {
        self.wb.set_tracer(tracer.clone());
        self.tracer = Some(tracer);
    }

    fn export_metrics(&self, m: &mut MetricsRegistry) {
        let id = self.id.0;
        let s = &self.stats;
        m.set(&format!("manager.{id}.faults"), s.faults);
        m.set(&format!("manager.{id}.minimal_faults"), s.minimal_faults);
        m.set(&format!("manager.{id}.file_fills"), s.file_fills);
        m.set(&format!("manager.{id}.swap_ins"), s.swap_ins);
        m.set(&format!("manager.{id}.writebacks"), s.writebacks);
        m.set(&format!("manager.{id}.reclaimed"), s.reclaimed);
        m.set(&format!("manager.{id}.laundry_rescues"), s.laundry_rescues);
        m.set(&format!("manager.{id}.sampling_faults"), s.sampling_faults);
        m.set(&format!("manager.{id}.cow_faults"), s.cow_faults);
        m.set(&format!("manager.{id}.append_batches"), s.append_batches);
        m.set(&format!("manager.{id}.migrate_calls"), s.migrate_calls);
        m.set(&format!("manager.{id}.demotions"), s.demotions);
        m.set(
            &format!("manager.{id}.zram_compressed"),
            self.zram_stats.compressed,
        );
        m.set(
            &format!("manager.{id}.zram_stored_bytes"),
            self.zram_stats.stored_bytes,
        );
        let io = &self.io_stats;
        m.set(&format!("manager.{id}.io_attempts"), io.attempts);
        m.set(&format!("manager.{id}.io_retries"), io.retries);
        m.set(&format!("manager.{id}.io_gave_up"), io.gave_up);
        m.set(
            &format!("manager.{id}.quarantined_pages"),
            io.quarantined_pages,
        );
        let wb = &self.wb_stats;
        m.set(
            &format!("manager.{id}.writeback.inflight"),
            self.wb.in_flight() as u64,
        );
        m.set(
            &format!("manager.{id}.writeback.pending"),
            self.wb.queued() as u64,
        );
        m.set(&format!("manager.{id}.writeback.stall"), wb.stalls);
        m.set(&format!("manager.{id}.writeback.stall_us"), wb.stall_us);
        m.set(&format!("manager.{id}.writeback.completed"), wb.completed);
        m.set(&format!("manager.{id}.writeback.billed_us"), wb.billed_us);
        m.set(&format!("manager.{id}.laundry_dropped"), wb.laundry_dropped);
        // Ring keys are opt-in (same discipline as the kernel's ring
        // metrics): batched-off runs export an unchanged key set.
        if self.config.batched_abi {
            m.set(&format!("manager.{id}.ring.submitted"), self.ring_submitted);
        }
        // Promotion keys follow the same opt-in discipline: off-by-
        // default runs export byte-identical documents.
        if self.config.promotion_budget > 0 {
            let p = &self.promo_stats;
            m.set(&format!("manager.{id}.promotions.count"), s.promotions);
            m.set(
                &format!("manager.{id}.promotions.heat_events"),
                p.heat_events,
            );
            m.set(&format!("manager.{id}.promotions.to_free"), p.to_free);
            m.set(&format!("manager.{id}.promotions.swapped"), p.swapped);
            m.set(&format!("manager.{id}.promotions.no_target"), p.no_target);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use epcm_core::tier::TierLayout;
    use epcm_core::types::{AccessKind, UserId};
    use epcm_sim::disk::Page;
    use std::sync::Arc;

    fn machine_with(config: DefaultManagerConfig, frames: usize) -> (Machine, ManagerId) {
        let mut m = Machine::new(frames);
        let id = m.register_manager(Box::new(DefaultSegmentManager::with_config(
            ManagerMode::Server,
            config,
        )));
        m.set_default_manager(id);
        (m, id)
    }

    #[test]
    fn anonymous_first_touch_is_minimal_fault() {
        let (mut m, _) = machine_with(DefaultManagerConfig::default(), 256);
        let seg = m.create_segment(SegmentKind::Anonymous, 8).unwrap();
        m.touch(seg, 0, AccessKind::Write).unwrap();
        assert_eq!(m.kernel().resident_pages(seg).unwrap(), 1);
        // No file fill happened: store untouched.
        assert_eq!(m.store().read_count(), 0);
    }

    #[test]
    fn file_fault_fills_from_store() {
        let (mut m, _) = machine_with(DefaultManagerConfig::default(), 256);
        let content: Vec<u8> = (0..8192u32).map(|i| (i % 256) as u8).collect();
        m.store_mut().create_with("f", content.clone());
        let seg = m.open_file("f").unwrap();
        let mut buf = vec![0u8; 8192];
        m.load(seg, 0, &mut buf).unwrap();
        assert_eq!(buf, content);
        assert!(m.store().read_count() >= 2);
    }

    #[test]
    fn append_allocates_16k_batches() {
        let (mut m, _) = machine_with(DefaultManagerConfig::default(), 256);
        m.store_mut().create("out", 0);
        let seg = m.open_file("out").unwrap();
        m.kernel_mut().resize_segment(seg, 16).unwrap();
        // Touch the first page beyond EOF: the manager should allocate 4.
        m.touch(seg, 0, AccessKind::Write).unwrap();
        assert_eq!(m.kernel().resident_pages(seg).unwrap(), 4);
        // Next three pages are already resident: no further manager calls.
        let calls = m.stats().manager_calls;
        for p in 1..4 {
            m.touch(seg, p, AccessKind::Write).unwrap();
        }
        assert_eq!(m.stats().manager_calls, calls);
    }

    #[test]
    fn eviction_writes_back_and_rescues() {
        let config = DefaultManagerConfig {
            target_free: 4,
            low_water: 1,
            refill_batch: 4,
            ..DefaultManagerConfig::default()
        };
        // Tiny machine: 24 frames total forces reclamation.
        let (mut m, id) = machine_with(config, 24);
        let seg = m.create_segment(SegmentKind::Anonymous, 64).unwrap();
        // Write distinct data to many pages, exceeding memory.
        for p in 0..40u64 {
            let data = [p as u8; 16];
            m.store_bytes(seg, p * BASE_PAGE_SIZE, &data).unwrap();
        }
        // Earlier pages were evicted; re-reading them faults and refills
        // from swap (or rescues from laundry) with data intact.
        for p in 0..40u64 {
            let mut buf = [0u8; 16];
            m.load(seg, p * BASE_PAGE_SIZE, &mut buf).unwrap();
            assert_eq!(buf, [p as u8; 16], "page {p} lost its data");
        }
        let _ = id;
    }

    fn stats_of(m: &Machine, id: ManagerId) -> DefaultManagerStats {
        m.manager(id)
            .unwrap()
            .as_any()
            .downcast_ref::<DefaultSegmentManager>()
            .unwrap()
            .manager_stats()
    }

    /// The contents of `seg`'s resident `page` (its frame's [`Page`]).
    fn resident_page(m: &Machine, seg: SegmentId, page: u64) -> Option<Page> {
        let entry = m.kernel().segment(seg).unwrap().entry(PageNumber(page))?;
        Some(m.kernel().frames().page(entry.frame).clone())
    }

    fn same_buffer(a: &Page, b: &Page) -> bool {
        matches!((a, b), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
    }

    /// A 24-frame machine whose manager keeps few free frames, so that
    /// touching 40 pages evicts and refills.
    fn tight_machine() -> (Machine, ManagerId) {
        let config = DefaultManagerConfig {
            target_free: 4,
            low_water: 1,
            refill_batch: 4,
            ..DefaultManagerConfig::default()
        };
        machine_with(config, 24)
    }

    #[test]
    fn file_pages_shared_with_the_store_never_alias() {
        let (mut m, _) = machine_with(DefaultManagerConfig::default(), 256);
        let f = m
            .store_mut()
            .create_with("f", vec![0x11; 3 * BASE_PAGE_SIZE as usize]);
        let seg = m.open_file("f").unwrap();
        let mut buf = [0u8; 4];
        for p in 0..3 {
            m.uio_read(seg, p * BASE_PAGE_SIZE, &mut buf).unwrap();
            let (block, _) = m.store_mut().read_page(f, p * BASE_PAGE_SIZE).unwrap();
            assert!(same_buffer(&resident_page(&m, seg, p).unwrap(), &block));
        }
        // A UIO write through the cached frame leaves the file's block.
        m.uio_write(seg, 1, b"new").unwrap();
        m.store_mut().read(f, 0, &mut buf).unwrap();
        assert_eq!(buf, [0x11; 4]);
        // A store write lands in the file and not in the cached frame.
        m.store_mut().write(f, BASE_PAGE_SIZE, b"disk").unwrap();
        m.store_mut().read(f, BASE_PAGE_SIZE, &mut buf).unwrap();
        assert_eq!(&buf, b"disk");
        m.uio_read(seg, BASE_PAGE_SIZE, &mut buf).unwrap();
        assert_eq!(buf, [0x11; 4]);
        // A manager page replacement leaves the file's block.
        let replacement = Some(Arc::new([0xEE; BASE_PAGE_SIZE as usize]));
        m.kernel_mut()
            .manager_set_page(seg, PageNumber(2), replacement)
            .unwrap();
        m.store_mut().read(f, 2 * BASE_PAGE_SIZE, &mut buf).unwrap();
        assert_eq!(buf, [0x11; 4]);
        // Closing writes the dirty page back; the file now shares it.
        m.close_segment(seg).unwrap();
        m.store_mut().read(f, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"\x11new");
    }

    #[test]
    fn pages_shared_with_swap_never_alias() {
        let (mut m, id) = tight_machine();
        let seg = m.create_segment(SegmentKind::Anonymous, 64).unwrap();
        let stamp = |p: u64| [p as u8 + 1; 16];
        for p in 0..40u64 {
            m.store_bytes(seg, p * BASE_PAGE_SIZE, &stamp(p)).unwrap();
        }
        let mut buf = [0u8; 16];
        for p in 0..40u64 {
            m.load(seg, p * BASE_PAGE_SIZE, &mut buf).unwrap();
        }
        assert!(stats_of(&m, id).writebacks > 0);
        let swap = m.store().find(&format!("swap-{}", seg.as_u32())).unwrap();
        // Resident pages whose frame still shares its buffer with the swap
        // block writeback put there.
        let shared: Vec<u64> = (0..40u64)
            .filter(|&p| {
                let Some(page) = resident_page(&m, seg, p) else {
                    return false;
                };
                let size = m.store().size(swap).unwrap();
                let offset = p * BASE_PAGE_SIZE;
                offset < size
                    && same_buffer(&page, &m.store_mut().read_page(swap, offset).unwrap().0)
            })
            .collect();
        assert!(
            shared.len() >= 2,
            "no page shares its swap block: {shared:?}"
        );
        let (a, b) = (shared[0], shared[1]);
        // An application write lands in the frame and not in the swap block.
        m.store_bytes(seg, a * BASE_PAGE_SIZE, b"new").unwrap();
        m.load(seg, a * BASE_PAGE_SIZE, &mut buf).unwrap();
        assert_eq!(buf[..4], [b'n', b'e', b'w', a as u8 + 1]);
        m.store_mut()
            .read(swap, a * BASE_PAGE_SIZE, &mut buf)
            .unwrap();
        assert_eq!(buf, stamp(a));
        // A write lands in the swap block and not in the frame.
        m.store_mut()
            .write(swap, b * BASE_PAGE_SIZE, b"zz")
            .unwrap();
        m.store_mut()
            .read(swap, b * BASE_PAGE_SIZE, &mut buf)
            .unwrap();
        assert_eq!(buf[..3], [b'z', b'z', b as u8 + 1]);
        m.load(seg, b * BASE_PAGE_SIZE, &mut buf).unwrap();
        assert_eq!(buf, stamp(b));
    }

    #[test]
    fn never_written_pages_stay_unallocated_through_swap() {
        let (mut m, id) = tight_machine();
        let seg = m.create_segment(SegmentKind::Anonymous, 64).unwrap();
        // Write-touched (so dirty) but no byte ever stored.
        for p in 0..40 {
            m.touch(seg, p, AccessKind::Write).unwrap();
        }
        for p in 0..40 {
            m.touch(seg, p, AccessKind::Read).unwrap();
        }
        let stats = stats_of(&m, id);
        assert!(stats.writebacks > 0 && stats.swap_ins > 0, "{stats:?}");
        for p in 0..40 {
            if let Some(page) = resident_page(&m, seg, p) {
                assert_eq!(page, None, "page {p} was materialised");
            }
        }
        for f in m.kernel().frames().ids() {
            assert!(!m.kernel().frames().frame(f).is_materialised());
        }
        let swap = m.store().find(&format!("swap-{}", seg.as_u32())).unwrap();
        let size = m.store().size(swap).unwrap();
        assert!(size > 0);
        for offset in (0..size).step_by(BASE_PAGE_SIZE as usize) {
            assert_eq!(m.store_mut().read_page(swap, offset).unwrap().0, None);
        }
    }

    /// Three kernel-issued segment ids to build laundry keys from.
    fn three_segments() -> [SegmentId; 3] {
        let mut k = Kernel::new(1);
        [0; 3].map(|_| {
            k.create_segment(SegmentKind::Anonymous, UserId::SYSTEM, ManagerId(0), 1, 1)
                .unwrap()
        })
    }

    proptest::proptest! {
        /// The slot-indexed laundry matches a plain list of `(page, slot,
        /// seq, ticket)` records after every step: inserts (re-inserting
        /// a live page into a new slot included), removals, drops by
        /// slot, and completions of current, superseded, already-removed,
        /// repeated and never-issued tickets.
        #[test]
        fn laundry_matches_reference_model(
            ops in proptest::collection::vec((0u8..5, 0usize..6, 0u64..8, 0u64..16), 1..80),
        ) {
            let segs = three_segments();
            let key = |k: usize| (segs[k % 3], PageNumber(k as u64 / 3));
            let mut laundry = Laundry::default();
            let mut model: Vec<(PageKey, PageNumber, u64, Option<TicketId>)> = Vec::new();
            let mut model_tickets: Vec<(TicketId, PageKey)> = Vec::new();
            let (mut seq, mut next_ticket): (u64, TicketId) = (0, 0);
            for (op, k, slot, t) in ops {
                let (page, slot) = (key(k), PageNumber(slot));
                match op {
                    // Evict into an empty slot, synchronously or with a
                    // writeback in flight.
                    0 | 1 => {
                        if model.iter().any(|r| r.1 == slot) {
                            continue;
                        }
                        let ticket = (op == 1).then(|| {
                            next_ticket += 1;
                            laundry.issued(next_ticket, page);
                            model_tickets.push((next_ticket, page));
                            next_ticket
                        });
                        laundry.insert(page, slot, ticket);
                        model.retain(|r| r.0 != page);
                        seq += 1;
                        model.push((page, slot, seq, ticket));
                    }
                    2 => {
                        let want = model.iter().find(|r| r.0 == page).map(|r| r.1);
                        model.retain(|r| r.0 != page);
                        proptest::prop_assert_eq!(laundry.remove(page), want);
                    }
                    3 => {
                        let want = model.iter().find(|r| r.1 == slot).map(|r| r.0);
                        model.retain(|r| r.1 != slot);
                        proptest::prop_assert_eq!(laundry.drop_slot(slot), want);
                    }
                    _ => {
                        let ticket = t % (next_ticket + 2);
                        let want = model_tickets.iter().find(|e| e.0 == ticket).map(|e| e.1);
                        model_tickets.retain(|e| e.0 != ticket);
                        for r in &mut model {
                            if r.3 == Some(ticket) {
                                r.3 = None;
                            }
                        }
                        proptest::prop_assert_eq!(laundry.completed(ticket), want);
                    }
                }
                for s in 0..8 {
                    let want = model.iter().find(|r| r.1 == PageNumber(s)).map(|r| LaundryEntry {
                        page: r.0,
                        seq: r.2,
                        ticket: r.3,
                    });
                    proptest::prop_assert_eq!(laundry.at(PageNumber(s)).copied(), want);
                }
                let oldest = model.iter().min_by_key(|r| r.2).map(|r| r.1);
                proptest::prop_assert_eq!(laundry.oldest(), oldest);
                for k in 0..6 {
                    let want = model.iter().find(|r| r.0 == key(k)).map(|r| r.1);
                    proptest::prop_assert_eq!(laundry.by_page.get(&key(k)).copied(), want);
                }
                let tickets: Vec<(TicketId, PageKey)> =
                    laundry.tickets.iter().map(|(&t, &p)| (t, p)).collect();
                proptest::prop_assert_eq!(tickets, model_tickets.clone());
            }
        }
    }

    /// Overcommits a tiny machine until the free pool is wall-to-wall
    /// laundry, forcing the drop path; returns the machine + manager id.
    fn overcommitted(async_writeback: bool) -> (Machine, ManagerId, SegmentId) {
        let config = DefaultManagerConfig {
            target_free: 4,
            low_water: 1,
            refill_batch: 4,
            async_writeback,
            writeback_window: 1,
            writeback_servers: 1,
            ..DefaultManagerConfig::default()
        };
        let (mut m, id) = machine_with(config, 24);
        let seg = m.create_segment(SegmentKind::Anonymous, 64).unwrap();
        for p in 0..40u64 {
            m.store_bytes(seg, p * BASE_PAGE_SIZE, &[p as u8; 16])
                .unwrap();
        }
        (m, id, seg)
    }

    fn verify_and_flush(m: &mut Machine, id: ManagerId, seg: SegmentId) -> WritebackStats {
        for p in 0..40u64 {
            let mut buf = [0u8; 16];
            m.load(seg, p * BASE_PAGE_SIZE, &mut buf).unwrap();
            assert_eq!(buf, [p as u8; 16], "page {p} lost its data");
        }
        m.with_manager(id, |mgr, env| {
            let d = mgr
                .as_any_mut()
                .downcast_mut::<DefaultSegmentManager>()
                .unwrap();
            d.flush_writebacks(env);
            Ok(d.writeback_stats())
        })
        .unwrap()
    }

    #[test]
    fn laundry_drop_is_traced_and_loses_no_data() {
        let config = DefaultManagerConfig {
            target_free: 4,
            low_water: 1,
            refill_batch: 4,
            ..DefaultManagerConfig::default()
        };
        let (mut m, id) = machine_with(config, 24);
        let tracer = m.enable_event_tracing(1 << 16);
        let seg = m.create_segment(SegmentKind::Anonymous, 64).unwrap();
        for p in 0..40u64 {
            m.store_bytes(seg, p * BASE_PAGE_SIZE, &[p as u8; 16])
                .unwrap();
        }
        let stats = verify_and_flush(&mut m, id, seg);
        assert!(
            stats.laundry_dropped > 0,
            "workload never hit the drop path"
        );
        // Every drop is traced — never silent — and the data survived
        // the readback above, so no live page was lost.
        assert_eq!(
            tracer
                .kind_counts()
                .get("laundry_evicted")
                .copied()
                .unwrap_or(0),
            stats.laundry_dropped
        );
    }

    #[test]
    fn async_writeback_keeps_fault_path_clear_and_bills_equal_to_sync() {
        let (mut m_sync, id_s, seg_s) = overcommitted(false);
        let sync = verify_and_flush(&mut m_sync, id_s, seg_s);
        let (mut m_async, id_a, seg_a) = overcommitted(true);
        let async_ = verify_and_flush(&mut m_async, id_a, seg_a);
        assert!(sync.billed_us > 0, "no writebacks happened");
        // Identical store op streams → identical per-op latencies →
        // exact billing equality at window 1.
        assert_eq!(sync.billed_us, async_.billed_us);
        assert_eq!(sync.completed, async_.completed);
        // The fault path stopped paying for dirty-victim disk time.
        assert!(sync.dirty_victim_us > 0);
        assert_eq!(async_.dirty_victim_us, 0);
        // The pipeline fully drained.
        let in_flight = m_async
            .with_manager(id_a, |mgr, _| {
                Ok(mgr
                    .as_any()
                    .downcast_ref::<DefaultSegmentManager>()
                    .unwrap()
                    .writebacks_in_flight())
            })
            .unwrap();
        assert_eq!(in_flight, 0);
    }

    #[test]
    fn async_writeback_traces_issue_and_completion() {
        let (mut m, id, seg) = {
            let config = DefaultManagerConfig {
                target_free: 4,
                low_water: 1,
                refill_batch: 4,
                async_writeback: true,
                writeback_window: 2,
                writeback_servers: 1,
                ..DefaultManagerConfig::default()
            };
            let (mut m, id) = machine_with(config, 24);
            let seg = m.create_segment(SegmentKind::Anonymous, 64).unwrap();
            (m, id, seg)
        };
        let tracer = m.enable_event_tracing(1 << 16);
        for p in 0..40u64 {
            m.store_bytes(seg, p * BASE_PAGE_SIZE, &[p as u8; 16])
                .unwrap();
        }
        let stats = verify_and_flush(&mut m, id, seg);
        let counts = tracer.kind_counts();
        let issued = counts.get("writeback_issued").copied().unwrap_or(0);
        let completed = counts.get("writeback_completed").copied().unwrap_or(0);
        assert!(issued > 0, "async run issued no writebacks");
        assert_eq!(issued, completed, "pipeline left completions unbilled");
        assert_eq!(completed, stats.completed);
    }

    /// A tiered machine (4 DRAM frames, 60 SlowMem) whose manager cleans
    /// laundry through a one-deep async pipeline with the promotion
    /// ladder on; its anonymous segment holds 16 resident dirty pages, and
    /// pages 8..16 are already evicted, their writebacks queued.
    fn tiered_async_machine() -> (Machine, ManagerId, SegmentId) {
        let config = DefaultManagerConfig {
            async_writeback: true,
            writeback_window: 1,
            promotion_budget: 1,
            ..DefaultManagerConfig::default()
        };
        let mut m = Machine::builder(64)
            .tiers(TierLayout::new(4, 60, 0))
            .build();
        let id = m.register_manager(Box::new(DefaultSegmentManager::with_config(
            ManagerMode::Server,
            config,
        )));
        m.set_default_manager(id);
        let seg = m.create_segment(SegmentKind::Anonymous, 16).unwrap();
        for p in 0..16u64 {
            m.store_bytes(seg, p * BASE_PAGE_SIZE, &[p as u8 + 1; 16])
                .unwrap();
        }
        for p in 8..16 {
            evict_page(&mut m, id, seg, PageNumber(p));
        }
        (m, id, seg)
    }

    fn with_default<R>(
        m: &mut Machine,
        id: ManagerId,
        f: impl FnOnce(&mut DefaultSegmentManager, &mut Env<'_>) -> R,
    ) -> R {
        m.with_manager(id, |mgr, env| {
            Ok(f(
                mgr.as_any_mut()
                    .downcast_mut::<DefaultSegmentManager>()
                    .unwrap(),
                env,
            ))
        })
        .unwrap()
    }

    /// Evicts `page` into the free pool as the reclaim path would,
    /// returning its laundry slot and writeback ticket.
    fn evict_page(
        m: &mut Machine,
        id: ManagerId,
        seg: SegmentId,
        page: PageNumber,
    ) -> (PageNumber, Option<TicketId>) {
        with_default(m, id, |d, env| {
            let free_seg = d.free_seg(env).unwrap();
            assert!(d.evict(env, free_seg, seg, page).unwrap());
            let slot = d.laundry.by_page[&(seg, page)];
            (slot, d.laundry.at(slot).unwrap().ticket)
        })
    }

    #[test]
    fn writeback_completing_after_a_rescue_still_heats_the_page() {
        let (mut m, id, seg) = tiered_async_machine();
        let page = {
            let k = m.kernel();
            k.segment(seg)
                .unwrap()
                .resident()
                .find(|(_, e)| k.tiers().tier_of(e.frame) != MemTier::Dram)
                .map(|(p, _)| p)
                .expect("a page below DRAM")
        };
        let (_, ticket) = evict_page(&mut m, id, seg, page);
        let ticket = ticket.expect("a dirty eviction issues a writeback");
        // Rescued while the disk is still busy: the frame comes back.
        m.touch(seg, page.as_u64(), AccessKind::Read).unwrap();
        let heat = with_default(&mut m, id, |d, env| {
            assert_eq!(d.manager_stats().laundry_rescues, 1);
            assert!(
                d.laundry.tickets.contains_key(&ticket),
                "written back early"
            );
            let before = d.promotion_stats().heat_events;
            d.flush_writebacks(env);
            d.promotion_stats().heat_events - before
        });
        assert_eq!(heat, 1, "the completion heats the rescued page");
    }

    #[test]
    fn superseded_writeback_keeps_the_newer_one_in_flight() {
        let (mut m, id, seg) = tiered_async_machine();
        let page = PageNumber(0);
        let (_, first) = evict_page(&mut m, id, seg, page);
        // Rescued and re-dirtied, then evicted again while the first
        // writeback is still queued.
        m.store_bytes(seg, 0, b"again").unwrap();
        let (slot, second) = evict_page(&mut m, id, seg, page);
        let (first, second) = (first.unwrap(), second.unwrap());
        with_default(&mut m, id, |d, env| {
            assert!(d.laundry.tickets.contains_key(&first), "written back early");
            // Let the disk run until the first writeback completes.
            while d.laundry.tickets.contains_key(&first) {
                env.kernel.charge(Micros::new(10));
                d.drain_writebacks(env);
            }
            assert!(d.laundry.tickets.contains_key(&second));
            assert_eq!(d.laundry.at(slot).unwrap().ticket, Some(second));
            // Handing the whole pool back clobbers the slot, so the
            // reclaim must wait for the second writeback.
            let stalls = d.writeback_stats().stalls;
            let pool = d.free_frames(env.kernel);
            assert_eq!(d.reclaim(env, pool).unwrap(), pool);
            assert_eq!(d.writeback_stats().stalls, stalls + 1);
        });
        let mut buf = [0u8; 16];
        m.load(seg, 0, &mut buf).unwrap();
        assert_eq!(&buf[..5], b"again");
    }

    #[test]
    fn close_writes_file_pages_back() {
        let (mut m, _) = machine_with(DefaultManagerConfig::default(), 256);
        m.store_mut().create("out", 0);
        let seg = m.open_file("out").unwrap();
        m.uio_write(seg, 0, b"persist me").unwrap();
        m.close_segment(seg).unwrap();
        let f = m.store().find("out").unwrap();
        let mut buf = [0u8; 10];
        m.store_mut().read(f, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"persist me");
    }

    #[test]
    fn sampling_generates_protection_faults_and_restores_batches() {
        let config = DefaultManagerConfig {
            sample_batch: 8,
            protection_batch: 4,
            ..DefaultManagerConfig::default()
        };
        let (mut m, _) = machine_with(config, 256);
        let seg = m.create_segment(SegmentKind::Anonymous, 16).unwrap();
        for p in 0..8 {
            m.touch(seg, p, AccessKind::Write).unwrap();
        }
        m.tick().unwrap(); // revokes protection on the 8 resident pages
        let faults_before = m.kernel_stats().faults_protection;
        m.touch(seg, 0, AccessKind::Read).unwrap(); // sampling fault
        assert_eq!(m.kernel_stats().faults_protection, faults_before + 1);
        // The batch restored pages 0..4: touching them is fault-free.
        let calls = m.stats().manager_calls;
        for p in 1..4 {
            m.touch(seg, p, AccessKind::Read).unwrap();
        }
        assert_eq!(m.stats().manager_calls, calls);
        // Page 4 still revoked: next touch faults again.
        m.touch(seg, 4, AccessKind::Read).unwrap();
        assert_eq!(m.stats().manager_calls, calls + 1);
    }

    #[test]
    fn forced_reclaim_returns_frames_to_spcm() {
        let (mut m, id) = machine_with(DefaultManagerConfig::default(), 128);
        let seg = m.create_segment(SegmentKind::Anonymous, 32).unwrap();
        for p in 0..32 {
            m.touch(seg, p, AccessKind::Write).unwrap();
        }
        let granted_before = m.spcm().granted_to(id);
        assert!(granted_before >= 32);
        let returned = m.with_manager(id, |mgr, env| mgr.reclaim(env, 16)).unwrap();
        assert_eq!(returned, 16);
        assert_eq!(m.spcm().granted_to(id), granted_before - 16);
    }

    #[test]
    fn cow_fault_is_serviced() {
        let (mut m, _) = machine_with(DefaultManagerConfig::default(), 256);
        let source = m.create_segment(SegmentKind::Anonymous, 4).unwrap();
        m.store_bytes(source, 0, b"shared").unwrap();
        let child = m.create_segment(SegmentKind::Anonymous, 4).unwrap();
        m.kernel_mut()
            .bind_region(
                child,
                PageNumber(0),
                4,
                source,
                PageNumber(0),
                true,
                PageFlags::RW,
            )
            .unwrap();
        m.store_bytes(child, 0, b"BRANCH").unwrap();
        let mut buf = [0u8; 6];
        m.load(source, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"shared");
        m.load(child, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"BRANCH");
        assert_eq!(m.kernel_stats().faults_cow, 1);
    }
}
