//! Segments and bound regions.
//!
//! A V++ segment is "a variable-size address range of zero or more pages".
//! Segments hold page frames directly (the `pages` table) and/or forward
//! ranges of their address space to other segments through *bound regions*
//! — the mechanism that composes a program's virtual address space out of
//! code/data/stack segments in Figure 1 of the paper. A binding may be
//! copy-on-write, in which case the binding segment accumulates private
//! copies of pages as they are written.
//!
//! A segment's pages are a vector indexed by page number, plus a count of
//! resident pages. Lookups, inserts and removals are index operations, and
//! resident pages come out in ascending order by walking the vector. The
//! vector grows to the highest page ever inserted and never shrinks, so a
//! segment's page memory is O(highest resident page), and the kernel's
//! range checks keep that within `size_pages`. The boot segment, which
//! holds every physical frame, is built from one collected vector
//! ([`Segment::with_pages`]) rather than one insert per frame.

use std::fmt;

use crate::flags::PageFlags;
use crate::types::{FrameId, ManagerId, PageNumber, SegmentId, SegmentKind, UserId};

/// A page slot holding a frame and its state flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageEntry {
    /// The first base frame of the page (a large page spans
    /// `Segment::page_frames` physically contiguous base frames).
    pub frame: FrameId,
    /// Protection and state flags.
    pub flags: PageFlags,
}

/// A binding of a page range in one segment onto an equal-sized range of
/// another segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundRegion {
    /// First page of the bound range in the binding segment.
    pub at: PageNumber,
    /// Length of the range in pages.
    pub pages: u64,
    /// The segment the range forwards to.
    pub target: SegmentId,
    /// First page of the corresponding range in `target`.
    pub target_page: PageNumber,
    /// Copy-on-write: reads pass through to `target`; the first write to a
    /// page faults so a manager can install a private copy here.
    pub cow: bool,
    /// Maximum access permitted through this binding (intersected with the
    /// target page's own protection).
    pub protection: PageFlags,
}

impl BoundRegion {
    /// Whether `page` falls inside this region.
    pub fn contains(&self, page: PageNumber) -> bool {
        page.as_u64() >= self.at.as_u64() && page.as_u64() < self.at.as_u64() + self.pages
    }

    /// Translates a page of the binding segment to the target segment's
    /// numbering.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the region.
    pub fn translate(&self, page: PageNumber) -> PageNumber {
        assert!(self.contains(page), "{page} outside bound region");
        PageNumber(self.target_page.as_u64() + (page.as_u64() - self.at.as_u64()))
    }

    fn overlaps(&self, at: PageNumber, pages: u64) -> bool {
        let (a0, a1) = (self.at.as_u64(), self.at.as_u64() + self.pages);
        let (b0, b1) = (at.as_u64(), at.as_u64() + pages);
        a0 < b1 && b0 < a1
    }
}

/// A kernel segment.
///
/// Most mutation happens through [`Kernel`](crate::kernel::Kernel)
/// operations; `Segment` exposes read accessors for managers and tests.
#[derive(Clone)]
pub struct Segment {
    id: SegmentId,
    kind: SegmentKind,
    user: UserId,
    manager: ManagerId,
    /// Base (4 KB) frames per page: 1 for normal segments, a power of two
    /// for large-page segments (the Alpha-style page-size parameter).
    page_frames: u64,
    /// Current size in pages; references beyond this are range errors.
    size_pages: u64,
    /// Page slots indexed by page number; `None` is a vacant slot.
    pages: Vec<Option<PageEntry>>,
    /// Number of `Some` slots in `pages`.
    resident: u64,
    regions: Vec<BoundRegion>,
}

impl Segment {
    pub(crate) fn new(
        id: SegmentId,
        kind: SegmentKind,
        user: UserId,
        manager: ManagerId,
        page_frames: u64,
        size_pages: u64,
    ) -> Self {
        assert!(
            page_frames.is_power_of_two(),
            "page size must be a power-of-two multiple of the base page"
        );
        Segment {
            id,
            kind,
            user,
            manager,
            page_frames,
            size_pages,
            pages: Vec::new(),
            resident: 0,
            regions: Vec::new(),
        }
    }

    /// Gives a new, empty segment the page table `pages`, indexed by page
    /// number.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is longer than the segment.
    pub(crate) fn with_pages(mut self, pages: Vec<Option<PageEntry>>) -> Self {
        assert!(
            pages.len() as u64 <= self.size_pages,
            "page table longer than the segment"
        );
        self.resident = pages.iter().filter(|e| e.is_some()).count() as u64;
        self.pages = pages;
        self
    }

    /// The segment's id.
    pub fn id(&self) -> SegmentId {
        self.id
    }

    /// What the segment is used for.
    pub fn kind(&self) -> SegmentKind {
        self.kind
    }

    /// The owning user principal.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// The registered segment manager.
    pub fn manager(&self) -> ManagerId {
        self.manager
    }

    pub(crate) fn set_manager(&mut self, manager: ManagerId) {
        self.manager = manager;
    }

    /// Base frames per page (1 = 4 KB pages).
    pub fn page_frames(&self) -> u64 {
        self.page_frames
    }

    /// The page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.page_frames * crate::types::BASE_PAGE_SIZE
    }

    /// Current size in pages.
    pub fn size_pages(&self) -> u64 {
        self.size_pages
    }

    pub(crate) fn set_size_pages(&mut self, pages: u64) {
        self.size_pages = pages;
    }

    /// Whether `page` is within the segment's current size.
    pub fn in_range(&self, page: PageNumber) -> bool {
        page.as_u64() < self.size_pages
    }

    /// The slot for `page`, if the page table reaches it.
    fn slot(&self, page: PageNumber) -> Option<&Option<PageEntry>> {
        self.pages.get(usize::try_from(page.as_u64()).ok()?)
    }

    fn slot_mut(&mut self, page: PageNumber) -> Option<&mut Option<PageEntry>> {
        self.pages.get_mut(usize::try_from(page.as_u64()).ok()?)
    }

    /// The page entry at `page`, if a frame is present.
    pub fn entry(&self, page: PageNumber) -> Option<PageEntry> {
        self.slot(page).copied().flatten()
    }

    pub(crate) fn entry_mut(&mut self, page: PageNumber) -> Option<&mut PageEntry> {
        self.slot_mut(page)?.as_mut()
    }

    /// Installs `entry` at `page`, growing the page table to reach it, and
    /// returns the entry it replaced.
    pub(crate) fn insert_entry(&mut self, page: PageNumber, entry: PageEntry) -> Option<PageEntry> {
        let i = usize::try_from(page.as_u64()).expect("page number fits in usize");
        if i >= self.pages.len() {
            self.pages.resize(i + 1, None);
        }
        let old = self.pages[i].replace(entry);
        if old.is_none() {
            self.resident += 1;
        }
        old
    }

    pub(crate) fn remove_entry(&mut self, page: PageNumber) -> Option<PageEntry> {
        let old = self.slot_mut(page)?.take();
        if old.is_some() {
            self.resident -= 1;
        }
        old
    }

    /// Number of pages with frames present ("resident").
    pub fn resident_pages(&self) -> u64 {
        self.resident
    }

    /// Iterates over `(page, entry)` for all resident pages in page order.
    pub fn resident(&self) -> impl Iterator<Item = (PageNumber, PageEntry)> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(p, e)| e.map(|e| (PageNumber(p as u64), e)))
    }

    /// The lowest page slot holding no frame. When every slot below the
    /// highest resident page is full this is one past it, which may lie
    /// past the end of the segment.
    pub fn first_vacant(&self) -> PageNumber {
        let p = self
            .pages
            .iter()
            .position(Option::is_none)
            .unwrap_or(self.pages.len());
        PageNumber(p as u64)
    }

    /// Iterates over the page slots within the segment's size that hold no
    /// frame, in page order.
    pub fn vacant(&self) -> impl Iterator<Item = PageNumber> + '_ {
        (0..self.size_pages)
            .map(PageNumber)
            .filter(|&p| self.entry(p).is_none())
    }

    /// The bound region containing `page`, if any.
    pub fn region_at(&self, page: PageNumber) -> Option<&BoundRegion> {
        self.regions.iter().find(|r| r.contains(page))
    }

    /// All bound regions, in insertion order.
    pub fn regions(&self) -> &[BoundRegion] {
        &self.regions
    }

    /// Adds a region; returns `false` (and does nothing) if it would
    /// overlap an existing region.
    pub(crate) fn add_region(&mut self, region: BoundRegion) -> bool {
        if self
            .regions
            .iter()
            .any(|r| r.overlaps(region.at, region.pages))
        {
            return false;
        }
        self.regions.push(region);
        true
    }

    /// Removes the region starting exactly at `at`; returns it if found.
    pub(crate) fn remove_region(&mut self, at: PageNumber) -> Option<BoundRegion> {
        let idx = self.regions.iter().position(|r| r.at == at)?;
        Some(self.regions.remove(idx))
    }

    /// Whether any resident page lies within `[at, at+pages)`.
    /// A range reaching past the highest page number is clamped to it.
    pub fn has_resident_in(&self, at: PageNumber, pages: u64) -> bool {
        let len = self.pages.len() as u64;
        let start = at.as_u64().min(len) as usize;
        let end = at.as_u64().saturating_add(pages).min(len) as usize;
        self.pages[start..end].iter().any(Option::is_some)
    }
}

/// Prints the resident pages only, as a page → entry map, so a segment
/// with thousands of vacant slots stays readable.
impl fmt::Debug for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Resident<'a>(&'a Segment);
        impl fmt::Debug for Resident<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map()
                    .entries(self.0.resident().map(|(p, e)| (p.as_u64(), e)))
                    .finish()
            }
        }
        f.debug_struct("Segment")
            .field("id", &self.id)
            .field("kind", &self.kind)
            .field("user", &self.user)
            .field("manager", &self.manager)
            .field("page_frames", &self.page_frames)
            .field("size_pages", &self.size_pages)
            .field("pages", &Resident(self))
            .field("regions", &self.regions)
            .finish()
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {} pages, {} resident, {} regions, {})",
            self.id,
            self.kind,
            self.size_pages,
            self.resident,
            self.regions.len(),
            self.manager
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg() -> Segment {
        Segment::new(
            SegmentId(1),
            SegmentKind::Anonymous,
            UserId(0),
            ManagerId(0),
            1,
            64,
        )
    }

    #[test]
    fn entries_insert_remove() {
        let mut s = seg();
        assert_eq!(s.resident_pages(), 0);
        let e = PageEntry {
            frame: FrameId(9),
            flags: PageFlags::RW,
        };
        assert_eq!(s.insert_entry(PageNumber(3), e), None);
        assert_eq!(s.entry(PageNumber(3)), Some(e));
        assert_eq!(s.resident_pages(), 1);
        assert_eq!(s.remove_entry(PageNumber(3)), Some(e));
        assert_eq!(s.entry(PageNumber(3)), None);
    }

    #[test]
    fn in_range_respects_size() {
        let s = seg();
        assert!(s.in_range(PageNumber(0)));
        assert!(s.in_range(PageNumber(63)));
        assert!(!s.in_range(PageNumber(64)));
    }

    #[test]
    fn region_contains_and_translate() {
        let r = BoundRegion {
            at: PageNumber(10),
            pages: 5,
            target: SegmentId(2),
            target_page: PageNumber(100),
            cow: false,
            protection: PageFlags::RW,
        };
        assert!(r.contains(PageNumber(10)));
        assert!(r.contains(PageNumber(14)));
        assert!(!r.contains(PageNumber(15)));
        assert!(!r.contains(PageNumber(9)));
        assert_eq!(r.translate(PageNumber(12)), PageNumber(102));
    }

    #[test]
    #[should_panic(expected = "outside bound region")]
    fn region_translate_outside_panics() {
        let r = BoundRegion {
            at: PageNumber(0),
            pages: 1,
            target: SegmentId(2),
            target_page: PageNumber(0),
            cow: false,
            protection: PageFlags::RW,
        };
        r.translate(PageNumber(5));
    }

    #[test]
    fn overlapping_regions_rejected() {
        let mut s = seg();
        let base = BoundRegion {
            at: PageNumber(0),
            pages: 10,
            target: SegmentId(2),
            target_page: PageNumber(0),
            cow: false,
            protection: PageFlags::RW,
        };
        assert!(s.add_region(base));
        let overlapping = BoundRegion {
            at: PageNumber(9),
            pages: 2,
            ..base
        };
        assert!(!s.add_region(overlapping));
        let adjacent = BoundRegion {
            at: PageNumber(10),
            pages: 2,
            ..base
        };
        assert!(s.add_region(adjacent));
        assert_eq!(s.regions().len(), 2);
    }

    #[test]
    fn region_lookup_and_removal() {
        let mut s = seg();
        let r = BoundRegion {
            at: PageNumber(4),
            pages: 4,
            target: SegmentId(3),
            target_page: PageNumber(0),
            cow: true,
            protection: PageFlags::RW,
        };
        s.add_region(r);
        assert_eq!(s.region_at(PageNumber(5)), Some(&r));
        assert_eq!(s.region_at(PageNumber(3)), None);
        assert_eq!(s.remove_region(PageNumber(4)), Some(r));
        assert_eq!(s.region_at(PageNumber(5)), None);
        assert_eq!(s.remove_region(PageNumber(4)), None);
    }

    #[test]
    fn resident_iteration_in_order() {
        let mut s = seg();
        for p in [5u64, 1, 3] {
            s.insert_entry(
                PageNumber(p),
                PageEntry {
                    frame: FrameId(p as u32),
                    flags: PageFlags::READ,
                },
            );
        }
        let order: Vec<u64> = s.resident().map(|(p, _)| p.as_u64()).collect();
        assert_eq!(order, vec![1, 3, 5]);
        assert!(s.has_resident_in(PageNumber(0), 2));
        assert!(!s.has_resident_in(PageNumber(6), 10));
    }

    #[test]
    fn page_size_math() {
        let s = Segment::new(
            SegmentId(2),
            SegmentKind::Anonymous,
            UserId(0),
            ManagerId(0),
            4,
            8,
        );
        assert_eq!(s.page_frames(), 4);
        assert_eq!(s.page_size(), 16384);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_page_size_panics() {
        Segment::new(
            SegmentId(2),
            SegmentKind::Anonymous,
            UserId(0),
            ManagerId(0),
            3,
            8,
        );
    }

    #[test]
    fn vacancy_search_finds_holes_then_the_end() {
        let mut s = seg();
        assert_eq!(s.first_vacant(), PageNumber(0));
        let e = PageEntry {
            frame: FrameId(1),
            flags: PageFlags::RW,
        };
        for p in [0u64, 1, 3] {
            s.insert_entry(PageNumber(p), e);
        }
        assert_eq!(s.first_vacant(), PageNumber(2));
        let first: Vec<u64> = s.vacant().take(3).map(|p| p.as_u64()).collect();
        assert_eq!(first, vec![2, 4, 5]);
        s.insert_entry(PageNumber(2), e);
        // No hole below the highest resident page: one past it.
        assert_eq!(s.first_vacant(), PageNumber(4));
        s.remove_entry(PageNumber(3));
        assert_eq!(s.first_vacant(), PageNumber(3));
        // The iterator stops at the segment's size.
        for p in 0..64 {
            s.insert_entry(PageNumber(p), e);
        }
        assert_eq!(s.vacant().next(), None);
        assert_eq!(s.first_vacant(), PageNumber(64));
    }

    #[test]
    fn debug_lists_resident_pages_only() {
        let mut s = seg();
        let e = PageEntry {
            frame: FrameId(7),
            flags: PageFlags::RW,
        };
        s.insert_entry(PageNumber(40), e);
        s.insert_entry(PageNumber(41), e);
        s.remove_entry(PageNumber(41));
        let d = format!("{s:?}");
        assert!(d.contains(&format!("pages: {{40: {e:?}}}")), "{d}");
        assert!(!d.contains("None"), "{d}");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        const SIZE: u64 = 4096;

        #[derive(Debug, Clone, Copy)]
        enum Op {
            Insert(u64, u32),
            Remove(u64),
            Protect(u64),
        }

        /// Dense low pages (the frame-pool shape), sparse high ones, and
        /// the same pages again for re-inserts and removals.
        fn page() -> impl Strategy<Value = u64> {
            prop_oneof![0u64..24, 0u64..24, 1000u64..SIZE]
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (page(), 0u32..1000).prop_map(|(p, f)| Op::Insert(p, f)),
                (page(), 0u32..1000).prop_map(|(p, f)| Op::Insert(p, f)),
                page().prop_map(Op::Remove),
                page().prop_map(Op::Protect),
            ]
        }

        /// Ranges inside, straddling and past the end of the segment, and
        /// ranges whose end overflows `u64`.
        fn range() -> impl Strategy<Value = (u64, u64)> {
            prop_oneof![
                (0u64..SIZE + 64, 0u64..64),
                (0u64..SIZE + 64, 0u64..2 * SIZE),
                (0u64..SIZE + 64, Just(u64::MAX)),
                (Just(u64::MAX), 0u64..4),
                (u64::MAX - 8..u64::MAX, Just(u64::MAX)),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn page_table_matches_btreemap_reference(
                ops in proptest::collection::vec(op(), 0..160),
                ranges in proptest::collection::vec(range(), 160),
            ) {
                let mut s = Segment::new(
                    SegmentId(3),
                    SegmentKind::Anonymous,
                    UserId(0),
                    ManagerId(2),
                    1,
                    SIZE,
                );
                let mut model: BTreeMap<u64, PageEntry> = BTreeMap::new();
                for (step, (&op, &(at, len))) in ops.iter().zip(&ranges).enumerate() {
                    match op {
                        Op::Insert(p, f) => {
                            let e = PageEntry { frame: FrameId(f), flags: PageFlags::RW };
                            prop_assert_eq!(
                                s.insert_entry(PageNumber(p), e),
                                model.insert(p, e),
                                "insert at step {}", step
                            );
                        }
                        Op::Remove(p) => prop_assert_eq!(
                            s.remove_entry(PageNumber(p)),
                            model.remove(&p),
                            "remove at step {}", step
                        ),
                        Op::Protect(p) => {
                            let got = s.entry_mut(PageNumber(p)).map(|e| {
                                e.flags = PageFlags::READ;
                                *e
                            });
                            let want = model.get_mut(&p).map(|e| {
                                e.flags = PageFlags::READ;
                                *e
                            });
                            prop_assert_eq!(got, want, "entry_mut at step {}", step);
                        }
                    }
                    let pages = [0, 1, 23, 24, 1000, SIZE - 1, SIZE, u64::MAX];
                    for p in pages.into_iter().chain(ops.iter().map(|op| match *op {
                        Op::Insert(p, _) | Op::Remove(p) | Op::Protect(p) => p,
                    })) {
                        prop_assert_eq!(
                            s.entry(PageNumber(p)),
                            model.get(&p).copied(),
                            "entry {} at step {}", p, step
                        );
                    }
                    prop_assert_eq!(s.resident_pages(), model.len() as u64);
                    prop_assert!(
                        s.resident().eq(model.iter().map(|(&p, &e)| (PageNumber(p), e))),
                        "resident() order at step {}", step
                    );
                    let in_range = model.range(at..).next().is_some_and(|(&p, _)| p - at < len);
                    prop_assert_eq!(
                        s.has_resident_in(PageNumber(at), len),
                        in_range,
                        "has_resident_in({}, {}) at step {}", at, len, step
                    );
                    let first_vacant = (0..).find(|p| !model.contains_key(p)).unwrap();
                    prop_assert_eq!(s.first_vacant(), PageNumber(first_vacant));
                    prop_assert!(
                        s.vacant()
                            .take(8)
                            .eq((0..SIZE).filter(|p| !model.contains_key(p)).take(8).map(PageNumber)),
                        "vacant() at step {}", step
                    );
                    prop_assert_eq!(
                        s.to_string(),
                        format!(
                            "seg#3 (anonymous, {SIZE} pages, {} resident, 0 regions, {})",
                            model.len(),
                            ManagerId(2)
                        ),
                        "display at step {}", step
                    );
                }
            }
        }
    }

    #[test]
    fn display_mentions_key_facts() {
        let s = seg();
        let d = s.to_string();
        assert!(d.contains("seg#1"));
        assert!(d.contains("anonymous"));
        assert!(d.contains("64 pages"));
    }
}
