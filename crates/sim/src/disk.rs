//! Backing-store models: a local disk and a network file server.
//!
//! The paper's V++ machine was diskless (files served by a DECstation 3100
//! over the network); the Ultrix machine had a local disk. Both are modelled
//! as a [`FileStore`] — named files with real contents — fronted by a
//! [`Device`] that prices each 4 KB block transfer. Managers fetch page data
//! from here on a fault and write dirty pages back, advancing the virtual
//! clock by the returned latency.
//!
//! A file is a byte length plus a sparse vector of 4 KB blocks, each a
//! [`Page`]: a shared, copy-on-write buffer, or `None` for all zeros. The
//! frame table holds the same type, so a whole-page transfer between a frame
//! and a file ([`FileStore::read_page`], [`FileStore::write_page`]) hands the
//! buffer over by reference count instead of copying 4 KB; a later partial
//! write on either side copies the buffer first ([`write_page_bytes`]).
//! Creating a file or writing far past its end allocates no page data, and a
//! never-written page stays unallocated wherever it moves. The virtual clock
//! still charges every copy and zero through the cost model — host memory
//! traffic is not what the simulation measures.

use std::fmt;
use std::sync::Arc;

use crate::clock::Micros;
use crate::rng::Rng;

/// Identifies a file within a [`FileStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(u32);

impl FileId {
    /// Reconstructs an id from its raw value (e.g. one previously obtained
    /// from [`FileId::as_u32`]). The id is only meaningful against the
    /// [`FileStore`] that issued it.
    pub fn from_raw(raw: u32) -> FileId {
        FileId(raw)
    }

    /// The raw id value.
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file#{}", self.0)
    }
}

/// The transfer-latency model for a storage device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// A local disk: `per_block` covers seek + rotational delay + transfer
    /// for one 4 KB block; sequential follow-on blocks cost only
    /// `sequential_block` (no seek).
    LocalDisk {
        /// Latency of a random 4 KB access.
        per_block: Micros,
        /// Latency of the next sequential 4 KB block.
        sequential_block: Micros,
    },
    /// A network file server (the paper's diskless configuration): flat
    /// request latency per block, dominated by protocol + wire time when the
    /// server has the file cached.
    NetworkServer {
        /// Latency of one 4 KB block request.
        per_block: Micros,
    },
    /// An infinitely fast device, for tests that want to exclude I/O.
    Instant,
}

impl Device {
    /// A 1992-class local disk (~16 ms random, ~1.5 ms sequential 4 KB).
    pub fn disk_1992() -> Self {
        Device::LocalDisk {
            per_block: Micros::from_millis(16),
            sequential_block: Micros::new(1_500),
        }
    }

    /// The diskless network path to a file server with the file cached.
    pub fn network_1992() -> Self {
        Device::NetworkServer {
            per_block: Micros::new(2_800),
        }
    }

    /// Latency for one 4 KB block at `block_index`, where `previous` is the
    /// most recently accessed block index (sequential runs are cheaper on a
    /// disk).
    pub fn block_latency(&self, block_index: u64, previous: Option<u64>) -> Micros {
        match *self {
            Device::LocalDisk {
                per_block,
                sequential_block,
            } => {
                if previous == Some(block_index.wrapping_sub(1)) {
                    sequential_block
                } else {
                    per_block
                }
            }
            Device::NetworkServer { per_block } => per_block,
            Device::Instant => Micros::ZERO,
        }
    }
}

/// Errors returned by [`FileStore`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileStoreError {
    /// The file id does not exist.
    UnknownFile(FileId),
    /// A read past the end of the file.
    OutOfRange {
        /// The offending file.
        file: FileId,
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Actual file size.
        size: u64,
    },
    /// An injected device-level I/O failure (see [`FaultPlan`]).
    Io {
        /// The file being accessed.
        file: FileId,
        /// The store-wide operation index at which the fault fired.
        op: u64,
        /// `true` for a write, `false` for a read.
        write: bool,
        /// `true` if a retry may succeed; `false` if the matching rule fails
        /// this access permanently.
        transient: bool,
    },
}

impl FileStoreError {
    /// `true` for an injected I/O error a retry may clear.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            FileStoreError::Io {
                transient: true,
                ..
            }
        )
    }
}

impl fmt::Display for FileStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FileStoreError::UnknownFile(id) => write!(f, "unknown file {id}"),
            FileStoreError::OutOfRange {
                file,
                offset,
                len,
                size,
            } => write!(
                f,
                "access [{offset}, {offset}+{len}) out of range for {file} of size {size}"
            ),
            FileStoreError::Io {
                file,
                op,
                write,
                transient,
            } => write!(
                f,
                "injected {} {} error on {file} at op {op}",
                if *transient { "transient" } else { "permanent" },
                if *write { "write" } else { "read" },
            ),
        }
    }
}

impl std::error::Error for FileStoreError {}

/// Which operation kinds a [`FaultRule`] applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Reads only.
    Read,
    /// Writes only.
    Write,
    /// Both reads and writes.
    Any,
}

/// What a matching [`FaultRule`] injects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// The matched operation fails with probability `rate`; a retry redraws
    /// and may succeed.
    Transient {
        /// Failure probability in `[0, 1]`.
        rate: f64,
    },
    /// Every matched operation fails, forever — the medium is dead.
    Permanent,
}

/// One fault-injection rule: filters narrowing which operations it covers,
/// plus the failure it injects. All filters must match for the rule to apply;
/// an unset filter matches everything.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    op: FaultOp,
    file: Option<FileId>,
    /// Half-open `[start, end)` block range the access must overlap.
    blocks: Option<(u64, u64)>,
    /// Half-open `[start, end)` window of store-wide operation indices.
    ops: Option<(u64, u64)>,
    spec: FaultSpec,
}

impl FaultRule {
    /// A rule injecting transient failures at the given probability.
    pub fn transient(rate: f64) -> Self {
        FaultRule {
            op: FaultOp::Any,
            file: None,
            blocks: None,
            ops: None,
            spec: FaultSpec::Transient { rate },
        }
    }

    /// A rule that fails every matched operation permanently.
    pub fn permanent() -> Self {
        FaultRule {
            op: FaultOp::Any,
            file: None,
            blocks: None,
            ops: None,
            spec: FaultSpec::Permanent,
        }
    }

    /// Restricts the rule to reads.
    pub fn reads_only(mut self) -> Self {
        self.op = FaultOp::Read;
        self
    }

    /// Restricts the rule to writes.
    pub fn writes_only(mut self) -> Self {
        self.op = FaultOp::Write;
        self
    }

    /// Restricts the rule to one file.
    pub fn on_file(mut self, file: FileId) -> Self {
        self.file = Some(file);
        self
    }

    /// Restricts the rule to accesses overlapping blocks `[start, end)`.
    pub fn on_blocks(mut self, start: u64, end: u64) -> Self {
        self.blocks = Some((start, end));
        self
    }

    /// Restricts the rule to store-wide operation indices `[start, end)`.
    pub fn during_ops(mut self, start: u64, end: u64) -> Self {
        self.ops = Some((start, end));
        self
    }

    fn matches(&self, write: bool, file: FileId, op: u64, first: u64, last: u64) -> bool {
        let kind_ok = match self.op {
            FaultOp::Read => !write,
            FaultOp::Write => write,
            FaultOp::Any => true,
        };
        kind_ok
            && self.file.is_none_or(|f| f == file)
            && self.ops.is_none_or(|(s, e)| op >= s && op < e)
            && self.blocks.is_none_or(|(s, e)| first < e && last >= s)
    }
}

/// A deterministic, seeded schedule of injected [`FileStore`] failures.
///
/// Attach one with [`FileStore::set_fault_plan`]; each read/write is checked
/// against the rules in order, and the first rule that *fires* (a permanent
/// rule always fires; a transient rule fires with its configured rate using
/// the plan's own seeded [`Rng`]) turns the operation into
/// [`FileStoreError::Io`]. The same seed and the same operation sequence
/// reproduce the same faults exactly.
///
/// # Example
///
/// ```
/// use epcm_sim::disk::{Device, FaultPlan, FaultRule, FileStore, FileStoreError};
///
/// let mut store = FileStore::new(Device::Instant);
/// let f = store.create("data", 4096);
/// store.set_fault_plan(FaultPlan::new(7).with_rule(FaultRule::permanent().writes_only()));
/// assert!(matches!(
///     store.write(f, 0, b"x"),
///     Err(FileStoreError::Io { write: true, .. })
/// ));
/// let mut buf = [0u8; 1];
/// assert!(store.read(f, 0, &mut buf).is_ok()); // reads unaffected
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    rng: Rng,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (no faults) with its own seeded generator.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            rng: Rng::seed_from(seed),
            rules: Vec::new(),
        }
    }

    /// Adds a rule; rules are consulted in insertion order.
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// The standard hostile preset used by CI's `fault-smoke` job: every
    /// read and write fails transiently with probability `rate`.
    pub fn hostile(seed: u64, rate: f64) -> Self {
        FaultPlan::new(seed).with_rule(FaultRule::transient(rate))
    }

    /// Rolls the plan for one operation; `Some(transient)` means inject.
    fn roll(&mut self, write: bool, file: FileId, op: u64, first: u64, last: u64) -> Option<bool> {
        for rule in &self.rules {
            if !rule.matches(write, file, op, first, last) {
                continue;
            }
            match rule.spec {
                FaultSpec::Permanent => return Some(false),
                FaultSpec::Transient { rate } => {
                    if self.rng.chance(rate) {
                        return Some(true);
                    }
                }
            }
        }
        None
    }
}

/// The contents of one 4 KB block or base page frame: a buffer shared
/// copy-on-write between frames and files, or `None` for all zeros.
pub type Page = Option<Arc<[u8; BLOCK_SIZE as usize]>>;

static ZERO_PAGE: [u8; BLOCK_SIZE as usize] = [0; BLOCK_SIZE as usize];

/// The bytes of `page`; an unallocated page reads as zeros.
pub fn page_bytes(page: &Page) -> &[u8; BLOCK_SIZE as usize] {
    page.as_deref().unwrap_or(&ZERO_PAGE)
}

/// Writes `bytes` into `page` at `offset`. A write covering the whole page
/// replaces the buffer; a partial one copies a shared buffer first (or
/// allocates a zeroed one), so no other holder of the page sees the change.
///
/// # Panics
///
/// Panics if the range exceeds the page.
pub fn write_page_bytes(page: &mut Page, offset: usize, bytes: &[u8]) {
    if let Ok(whole) = <&[u8; BLOCK_SIZE as usize]>::try_from(bytes) {
        *page = Some(Arc::new(*whole));
        return;
    }
    let data = page.get_or_insert_with(|| Arc::new(ZERO_PAGE));
    Arc::make_mut(data)[offset..offset + bytes.len()].copy_from_slice(bytes);
}

/// Named files with real byte contents behind a latency [`Device`].
///
/// # Example
///
/// ```
/// use epcm_sim::disk::{Device, FileStore};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut store = FileStore::new(Device::Instant);
/// let f = store.create("input", 8192);
/// store.write(f, 4096, b"hello")?;
/// let mut buf = [0u8; 5];
/// store.read(f, 4096, &mut buf)?;
/// assert_eq!(&buf, b"hello");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FileStore {
    device: Device,
    /// Indexed by [`FileId`]: ids are dense and files are never removed.
    files: Vec<FileEntry>,
    last_block: Option<(FileId, u64)>,
    reads: u64,
    writes: u64,
    plan: Option<FaultPlan>,
    op_index: u64,
    faults: u64,
}

#[derive(Debug, Clone)]
struct FileEntry {
    name: String,
    /// Size in bytes; bytes past it (in the last block) are zero.
    len: u64,
    /// Block `i` holds bytes `[i * BLOCK_SIZE, (i + 1) * BLOCK_SIZE)`.
    /// Blocks past the end of the vector read as zeros.
    blocks: Vec<Page>,
}

/// Block size used for latency accounting (matches the 4 KB page size).
pub const BLOCK_SIZE: u64 = 4096;

impl FileStore {
    /// Creates an empty store on the given device.
    pub fn new(device: Device) -> Self {
        FileStore {
            device,
            files: Vec::new(),
            last_block: None,
            reads: 0,
            writes: 0,
            plan: None,
            op_index: 0,
            faults: 0,
        }
    }

    /// Installs a fault-injection plan; replaces any existing plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = Some(plan);
    }

    /// Removes the fault plan; subsequent I/O always succeeds.
    pub fn clear_fault_plan(&mut self) {
        self.plan = None;
    }

    /// Whether a fault plan is installed.
    pub fn has_fault_plan(&self) -> bool {
        self.plan.is_some()
    }

    /// Store-wide operation index of the *next* read or write. Every
    /// attempted read/write — including ones that fail — consumes one index,
    /// so fault rules keyed on operation windows are deterministic.
    pub fn op_index(&self) -> u64 {
        self.op_index
    }

    /// Number of injected I/O faults so far.
    pub fn fault_count(&self) -> u64 {
        self.faults
    }

    /// Consumes one operation index and rolls the fault plan for it.
    fn inject(
        &mut self,
        write: bool,
        file: FileId,
        offset: u64,
        len: u64,
    ) -> Result<(), FileStoreError> {
        let op = self.op_index;
        self.op_index += 1;
        let Some(plan) = self.plan.as_mut() else {
            return Ok(());
        };
        let first = offset / BLOCK_SIZE;
        let last = if len == 0 {
            first
        } else {
            (offset + len - 1) / BLOCK_SIZE
        };
        if let Some(transient) = plan.roll(write, file, op, first, last) {
            self.faults += 1;
            return Err(FileStoreError::Io {
                file,
                op,
                write,
                transient,
            });
        }
        Ok(())
    }

    /// Creates a zero-filled file of `size` bytes and returns its id. No
    /// page data is allocated.
    pub fn create(&mut self, name: &str, size: usize) -> FileId {
        self.insert(name, size as u64, Vec::new())
    }

    /// Creates a file with the given contents.
    pub fn create_with(&mut self, name: &str, data: Vec<u8>) -> FileId {
        let blocks = data
            .chunks(BLOCK_SIZE as usize)
            .map(|chunk| {
                let mut page = None;
                if chunk.iter().any(|&b| b != 0) {
                    write_page_bytes(&mut page, 0, chunk);
                }
                page
            })
            .collect();
        self.insert(name, data.len() as u64, blocks)
    }

    fn insert(&mut self, name: &str, len: u64, blocks: Vec<Page>) -> FileId {
        let id = FileId(u32::try_from(self.files.len()).expect("file ids exhausted"));
        self.files.push(FileEntry {
            name: name.to_string(),
            len,
            blocks,
        });
        id
    }

    /// Looks a file up by name; with several files of that name, the
    /// lowest id wins.
    pub fn find(&self, name: &str) -> Option<FileId> {
        self.files
            .iter()
            .position(|e| e.name == name)
            .map(|i| FileId(i as u32))
    }

    /// The file's size in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`FileStoreError::UnknownFile`] for an unknown id.
    pub fn size(&self, file: FileId) -> Result<u64, FileStoreError> {
        self.entry(file).map(|e| e.len)
    }

    /// The file's name.
    ///
    /// # Errors
    ///
    /// Returns [`FileStoreError::UnknownFile`] for an unknown id.
    pub fn name(&self, file: FileId) -> Result<&str, FileStoreError> {
        self.entry(file).map(|e| e.name.as_str())
    }

    fn entry(&self, file: FileId) -> Result<&FileEntry, FileStoreError> {
        self.files
            .get(file.0 as usize)
            .ok_or(FileStoreError::UnknownFile(file))
    }

    /// The end of `[offset, offset + len)`, or [`FileStoreError::OutOfRange`]
    /// if it passes `limit` (or wraps).
    fn range_end(
        file: FileId,
        offset: u64,
        len: u64,
        size: u64,
        limit: u64,
    ) -> Result<u64, FileStoreError> {
        offset
            .checked_add(len)
            .filter(|&end| end <= limit)
            .ok_or(FileStoreError::OutOfRange {
                file,
                offset,
                len,
                size,
            })
    }

    /// Reads `buf.len()` bytes at `offset`, returning the device latency the
    /// caller should charge to the virtual clock.
    ///
    /// # Errors
    ///
    /// Returns [`FileStoreError::UnknownFile`] or
    /// [`FileStoreError::OutOfRange`].
    pub fn read(
        &mut self,
        file: FileId,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<Micros, FileStoreError> {
        let len = buf.len() as u64;
        let size = self.entry(file)?.len;
        Self::range_end(file, offset, len, size, size)?;
        self.inject(false, file, offset, len)?;
        let blocks = &self.files[file.0 as usize].blocks;
        let mut done = 0usize;
        while done < buf.len() {
            let pos = offset + done as u64;
            let within = (pos % BLOCK_SIZE) as usize;
            let n = (BLOCK_SIZE as usize - within).min(buf.len() - done);
            let src = blocks
                .get((pos / BLOCK_SIZE) as usize)
                .map_or(&ZERO_PAGE, page_bytes);
            buf[done..done + n].copy_from_slice(&src[within..within + n]);
            done += n;
        }
        self.reads += 1;
        Ok(self.charge(file, offset, len))
    }

    /// Writes `buf` at `offset`, growing the file if the write extends past
    /// its current end. Returns the device latency.
    ///
    /// # Errors
    ///
    /// Returns [`FileStoreError::UnknownFile`] for an unknown id, or
    /// [`FileStoreError::OutOfRange`] if the range wraps.
    pub fn write(
        &mut self,
        file: FileId,
        offset: u64,
        buf: &[u8],
    ) -> Result<Micros, FileStoreError> {
        let len = buf.len() as u64;
        let size = self.entry(file)?.len;
        let end = Self::range_end(file, offset, len, size, u64::MAX)?;
        self.inject(true, file, offset, len)?;
        let entry = &mut self.files[file.0 as usize];
        entry.len = entry.len.max(end);
        let needed = end.div_ceil(BLOCK_SIZE) as usize;
        if entry.blocks.len() < needed {
            entry.blocks.resize(needed, None);
        }
        let mut done = 0usize;
        while done < buf.len() {
            let pos = offset + done as u64;
            let within = (pos % BLOCK_SIZE) as usize;
            let n = (BLOCK_SIZE as usize - within).min(buf.len() - done);
            let block = &mut entry.blocks[(pos / BLOCK_SIZE) as usize];
            write_page_bytes(block, within, &buf[done..done + n]);
            done += n;
        }
        self.writes += 1;
        Ok(self.charge(file, offset, len))
    }

    /// Reads the block at the block-aligned `offset` as a shared [`Page`]
    /// (bytes past the end of the file read as zeros). Costs, counts and
    /// faults exactly as [`FileStore::read`] of the `min(BLOCK_SIZE, size -
    /// offset)` bytes there, without copying them.
    ///
    /// # Errors
    ///
    /// Returns [`FileStoreError::UnknownFile`], or
    /// [`FileStoreError::OutOfRange`] if `offset` is past the end.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is not a multiple of [`BLOCK_SIZE`].
    pub fn read_page(
        &mut self,
        file: FileId,
        offset: u64,
    ) -> Result<(Page, Micros), FileStoreError> {
        assert_eq!(
            offset % BLOCK_SIZE,
            0,
            "page read at unaligned offset {offset}"
        );
        let size = self.entry(file)?.len;
        let len = BLOCK_SIZE.min(size.saturating_sub(offset));
        Self::range_end(file, offset, len, size, size)?;
        self.inject(false, file, offset, len)?;
        let page = self.files[file.0 as usize]
            .blocks
            .get((offset / BLOCK_SIZE) as usize)
            .cloned()
            .flatten();
        self.reads += 1;
        Ok((page, self.charge(file, offset, len)))
    }

    /// Writes `page` as the block at the block-aligned `offset`, growing
    /// the file to cover it. The page is shared, not copied. Costs, counts
    /// and faults exactly as [`FileStore::write`] of its [`BLOCK_SIZE`]
    /// bytes.
    ///
    /// # Errors
    ///
    /// Returns [`FileStoreError::UnknownFile`] for an unknown id, or
    /// [`FileStoreError::OutOfRange`] if the range wraps.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is not a multiple of [`BLOCK_SIZE`].
    pub fn write_page(
        &mut self,
        file: FileId,
        offset: u64,
        page: Page,
    ) -> Result<Micros, FileStoreError> {
        assert_eq!(
            offset % BLOCK_SIZE,
            0,
            "page write at unaligned offset {offset}"
        );
        let size = self.entry(file)?.len;
        let end = Self::range_end(file, offset, BLOCK_SIZE, size, u64::MAX)?;
        self.inject(true, file, offset, BLOCK_SIZE)?;
        let entry = &mut self.files[file.0 as usize];
        entry.len = entry.len.max(end);
        let index = (offset / BLOCK_SIZE) as usize;
        if entry.blocks.len() <= index {
            entry.blocks.resize(index + 1, None);
        }
        entry.blocks[index] = page;
        self.writes += 1;
        Ok(self.charge(file, offset, BLOCK_SIZE))
    }

    fn charge(&mut self, file: FileId, offset: u64, len: u64) -> Micros {
        if len == 0 {
            return Micros::ZERO;
        }
        let first = offset / BLOCK_SIZE;
        let last = (offset + len - 1) / BLOCK_SIZE;
        let mut total = Micros::ZERO;
        for block in first..=last {
            let prev = self.last_block.and_then(|(f, b)| (f == file).then_some(b));
            total += self.device.block_latency(block, prev);
            self.last_block = Some((file, block));
        }
        total
    }

    /// Number of read operations served.
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Number of write operations served.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// The device this store sits on.
    pub fn device(&self) -> Device {
        self.device
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_read_write_roundtrip() {
        let mut s = FileStore::new(Device::Instant);
        let f = s.create("a", 100);
        s.write(f, 10, b"xyz").unwrap();
        let mut buf = [0u8; 3];
        s.read(f, 10, &mut buf).unwrap();
        assert_eq!(&buf, b"xyz");
        assert_eq!(s.size(f).unwrap(), 100);
        assert_eq!(s.name(f).unwrap(), "a");
        assert_eq!(s.read_count(), 1);
        assert_eq!(s.write_count(), 1);
    }

    #[test]
    fn find_by_name() {
        let mut s = FileStore::new(Device::Instant);
        let a = s.create("a", 1);
        let b = s.create("b", 1);
        assert_eq!(s.find("a"), Some(a));
        assert_eq!(s.find("b"), Some(b));
        assert_eq!(s.find("c"), None);
    }

    #[test]
    fn find_returns_the_lowest_id_for_a_duplicate_name() {
        let mut s = FileStore::new(Device::Instant);
        let other = s.create("other", 1);
        let first = s.create("dup", 1);
        let second = s.create("dup", 2);
        assert_ne!(first, second);
        assert_eq!(s.find("dup"), Some(first));
        assert_eq!(s.find("other"), Some(other));
        assert_eq!(s.size(second).unwrap(), 2);
    }

    fn wraps(result: Result<impl fmt::Debug, FileStoreError>, offset: u64) {
        match result {
            Err(FileStoreError::OutOfRange { offset: o, .. }) => assert_eq!(o, offset),
            other => panic!("expected OutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn read_range_that_wraps_is_out_of_range() {
        let mut s = FileStore::new(Device::Instant);
        let f = s.create("a", 2 * BLOCK_SIZE as usize);
        wraps(s.read(f, u64::MAX - 1, &mut [0; 4]), u64::MAX - 1);
        assert_eq!(s.op_index(), 0, "a rejected read consumes no op index");
    }

    #[test]
    fn write_range_that_wraps_is_out_of_range() {
        let mut s = FileStore::new(Device::Instant);
        let f = s.create("a", 2 * BLOCK_SIZE as usize);
        wraps(s.write(f, u64::MAX - 1, &[1; 4]), u64::MAX - 1);
        assert_eq!(s.size(f).unwrap(), 2 * BLOCK_SIZE);
        assert_eq!(s.write_count(), 0);
    }

    #[test]
    fn read_page_past_end_or_wrapping_is_out_of_range() {
        let mut s = FileStore::new(Device::Instant);
        let f = s.create("a", 2 * BLOCK_SIZE as usize);
        let last = u64::MAX - (BLOCK_SIZE - 1);
        wraps(s.read_page(f, last), last);
        wraps(s.read_page(f, 3 * BLOCK_SIZE), 3 * BLOCK_SIZE);
        // At the end exactly: an empty, free read, as `read` of 0 bytes.
        assert_eq!(s.read_page(f, 2 * BLOCK_SIZE), Ok((None, Micros::ZERO)));
    }

    #[test]
    fn write_page_that_wraps_is_out_of_range() {
        let mut s = FileStore::new(Device::Instant);
        let f = s.create("a", 2 * BLOCK_SIZE as usize);
        let last = u64::MAX - (BLOCK_SIZE - 1);
        wraps(s.write_page(f, last, None), last);
        assert_eq!(s.size(f).unwrap(), 2 * BLOCK_SIZE);
    }

    #[test]
    fn pages_move_shared_and_copy_on_write() {
        let mut s = FileStore::new(Device::network_1992());
        let f = s.create("a", 100);
        let page: Page = Some(Arc::new([7; BLOCK_SIZE as usize]));
        // A sparse write far past the end allocates only the block itself.
        let lat = s.write_page(f, 5 * BLOCK_SIZE, page.clone()).unwrap();
        assert_eq!(lat, Micros::new(2_800));
        assert_eq!(s.size(f).unwrap(), 6 * BLOCK_SIZE);
        let (back, _) = s.read_page(f, 5 * BLOCK_SIZE).unwrap();
        assert!(Arc::ptr_eq(back.as_ref().unwrap(), page.as_ref().unwrap()));
        assert_eq!(s.read_page(f, 2 * BLOCK_SIZE).unwrap().0, None);
        // A partial write copies the shared block; the caller's page keeps
        // its bytes.
        s.write(f, 5 * BLOCK_SIZE + 1, b"xy").unwrap();
        assert_eq!(page_bytes(&page)[..4], [7, 7, 7, 7]);
        let mut buf = [0u8; 4];
        s.read(f, 5 * BLOCK_SIZE, &mut buf).unwrap();
        assert_eq!(&buf, b"\x07xy\x07");
        assert_eq!((s.read_count(), s.write_count()), (3, 2));
    }

    #[test]
    fn read_page_of_a_short_tail_counts_its_bytes_only() {
        let mut s = FileStore::new(Device::network_1992());
        let f = s.create_with("a", vec![9; BLOCK_SIZE as usize + 10]);
        let (page, lat) = s.read_page(f, BLOCK_SIZE).unwrap();
        let bytes = page_bytes(&page);
        assert_eq!(bytes[..10], [9; 10]);
        assert!(bytes[10..].iter().all(|&b| b == 0));
        assert_eq!(lat, Micros::new(2_800));
    }

    #[test]
    fn read_past_end_is_error() {
        let mut s = FileStore::new(Device::Instant);
        let f = s.create("a", 10);
        let mut buf = [0u8; 4];
        let err = s.read(f, 8, &mut buf).unwrap_err();
        assert!(matches!(err, FileStoreError::OutOfRange { .. }));
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn unknown_file_is_error() {
        let mut s = FileStore::new(Device::Instant);
        let f = s.create("a", 10);
        let ghost = FileId(99);
        assert_eq!(s.size(ghost), Err(FileStoreError::UnknownFile(ghost)));
        let _ = f;
    }

    #[test]
    fn write_extends_file() {
        let mut s = FileStore::new(Device::Instant);
        let f = s.create("a", 4);
        s.write(f, 2, b"abcd").unwrap();
        assert_eq!(s.size(f).unwrap(), 6);
        let mut buf = [0u8; 6];
        s.read(f, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"\0\0abcd");
    }

    #[test]
    fn disk_random_vs_sequential_latency() {
        let dev = Device::disk_1992();
        let random = dev.block_latency(10, Some(3));
        let sequential = dev.block_latency(4, Some(3));
        assert!(random > sequential);
        assert_eq!(random, Micros::from_millis(16));
        assert_eq!(sequential, Micros::new(1_500));
    }

    #[test]
    fn sequential_read_run_charges_seek_once() {
        let mut s = FileStore::new(Device::disk_1992());
        let f = s.create("big", 8 * BLOCK_SIZE as usize);
        let mut buf = vec![0u8; BLOCK_SIZE as usize];
        let first = s.read(f, 0, &mut buf).unwrap();
        let second = s.read(f, BLOCK_SIZE, &mut buf).unwrap();
        let third = s.read(f, 2 * BLOCK_SIZE, &mut buf).unwrap();
        assert_eq!(first, Micros::from_millis(16));
        assert_eq!(second, Micros::new(1_500));
        assert_eq!(third, Micros::new(1_500));
    }

    #[test]
    fn network_latency_is_flat() {
        let dev = Device::network_1992();
        assert_eq!(dev.block_latency(0, None), dev.block_latency(7, Some(6)));
    }

    #[test]
    fn multi_block_read_charges_each_block() {
        let mut s = FileStore::new(Device::network_1992());
        let f = s.create("a", 3 * BLOCK_SIZE as usize);
        let mut buf = vec![0u8; 2 * BLOCK_SIZE as usize];
        let lat = s.read(f, 0, &mut buf).unwrap();
        assert_eq!(lat, Micros::new(2_800) * 2);
    }

    #[test]
    fn zero_length_io_is_free() {
        let mut s = FileStore::new(Device::disk_1992());
        let f = s.create("a", 10);
        let lat = s.write(f, 0, b"").unwrap();
        assert_eq!(lat, Micros::ZERO);
    }

    #[test]
    fn permanent_fault_kills_matched_ops_only() {
        let mut s = FileStore::new(Device::Instant);
        let a = s.create("a", 64);
        let b = s.create("b", 64);
        s.set_fault_plan(FaultPlan::new(1).with_rule(FaultRule::permanent().on_file(a)));
        let mut buf = [0u8; 4];
        let err = s.read(a, 0, &mut buf).unwrap_err();
        assert_eq!(
            err,
            FileStoreError::Io {
                file: a,
                op: 0,
                write: false,
                transient: false,
            }
        );
        assert!(!err.is_transient());
        // Same file keeps failing; the other file is untouched.
        assert!(s.write(a, 0, b"x").is_err());
        assert!(s.read(b, 0, &mut buf).is_ok());
        assert_eq!(s.fault_count(), 2);
        assert_eq!(s.op_index(), 3);
        // Failed ops never count as served.
        assert_eq!(s.read_count(), 1);
        assert_eq!(s.write_count(), 0);
    }

    #[test]
    fn transient_faults_are_seed_deterministic() {
        let run = |seed: u64| {
            let mut s = FileStore::new(Device::Instant);
            let f = s.create("a", 4096);
            s.set_fault_plan(FaultPlan::hostile(seed, 0.3));
            let mut buf = [0u8; 8];
            (0..200)
                .map(|_| s.read(f, 0, &mut buf).is_err())
                .collect::<Vec<_>>()
        };
        let first = run(42);
        let second = run(42);
        assert_eq!(first, second);
        assert_ne!(first, run(43));
        let failures = first.iter().filter(|&&e| e).count();
        assert!((30..90).contains(&failures), "rate off: {failures}/200");
    }

    #[test]
    fn op_window_and_block_range_filters() {
        let mut s = FileStore::new(Device::Instant);
        let f = s.create("a", 8 * BLOCK_SIZE as usize);
        s.set_fault_plan(
            FaultPlan::new(5).with_rule(
                FaultRule::permanent()
                    .reads_only()
                    .on_blocks(2, 4)
                    .during_ops(1, 3),
            ),
        );
        let mut buf = [0u8; 16];
        // Op 0: in block range but outside the op window.
        assert!(s.read(f, 2 * BLOCK_SIZE, &mut buf).is_ok());
        // Op 1: matches both filters.
        assert!(s.read(f, 2 * BLOCK_SIZE, &mut buf).is_err());
        // Op 2: write is exempt (reads_only), even in range.
        assert!(s.write(f, 2 * BLOCK_SIZE, &buf).is_ok());
        // Op 3: window closed again.
        assert!(s.read(f, 2 * BLOCK_SIZE, &mut buf).is_ok());
        // Block 5 never matches.
        assert!(s.read(f, 5 * BLOCK_SIZE, &mut buf).is_ok());
        assert_eq!(s.fault_count(), 1);
    }

    #[test]
    fn clearing_the_plan_restores_service() {
        let mut s = FileStore::new(Device::Instant);
        let f = s.create("a", 16);
        s.set_fault_plan(FaultPlan::new(9).with_rule(FaultRule::permanent()));
        assert!(s.write(f, 0, b"x").is_err());
        assert!(s.has_fault_plan());
        s.clear_fault_plan();
        assert!(!s.has_fault_plan());
        assert!(s.write(f, 0, b"x").is_ok());
    }

    #[test]
    fn failed_write_does_not_mutate_contents() {
        let mut s = FileStore::new(Device::Instant);
        let f = s.create("a", 4);
        s.write(f, 0, b"keep").unwrap();
        s.set_fault_plan(FaultPlan::new(2).with_rule(FaultRule::permanent().writes_only()));
        assert!(s.write(f, 0, b"lost").is_err());
        s.clear_fault_plan();
        let mut buf = [0u8; 4];
        s.read(f, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"keep");
    }

    #[test]
    fn switching_files_breaks_sequential_run() {
        let mut s = FileStore::new(Device::disk_1992());
        let a = s.create("a", 2 * BLOCK_SIZE as usize);
        let b = s.create("b", 2 * BLOCK_SIZE as usize);
        let mut buf = vec![0u8; BLOCK_SIZE as usize];
        s.read(a, 0, &mut buf).unwrap();
        // Block 1 of file b is NOT sequential with block 0 of file a.
        let lat = s.read(b, BLOCK_SIZE, &mut buf).unwrap();
        assert_eq!(lat, Micros::from_millis(16));
    }
}
