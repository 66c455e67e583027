//! The private buffer pool of copy-on-access mode.
//!
//! §4.1.1: "each process has a private buffer pool to cache segments. The
//! buffer pool is implemented as a fixed size file divided into a number of
//! frames whose size is equal to the BeSS page size," mapped into the
//! process's address space. Replacement uses the frame-state clock of §4.2:
//! because the memory-mapped architecture leaves no reference bits, the
//! clock demotes *accessible* frames to *protected* and evicts frames still
//! *protected* on the next visit (they were not touched in between — a
//! touch would have faulted them back to accessible).
//!
//! Unlike the shared cache, pages here live at arbitrary reserved addresses
//! (the per-segment ranges of the swizzling scheme, §2.1), so the pool
//! records where each page is mapped in order to flip its protection.

use std::collections::HashMap;
use std::sync::Arc;

use bess_lock::order::{OrderedMutex, Rank};
use bess_obs::{Counter, Group, LatencyHistogram, Registry};
use bess_vm::{AddressSpace, FrameId, FrameState, HeapStore, PageStore, Protect, VAddr, VRange};

use crate::page::{DbPage, PageIo};

/// Errors from private-pool operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PoolError {
    /// Every frame is in active use and nothing could be evicted.
    PoolExhausted,
    /// The page is already mapped at a different address.
    AlreadyMapped {
        /// The page in question.
        page: DbPage,
    },
    /// The page source failed (e.g. a remote lock denied by the deadlock
    /// timeout).
    LoadFailed {
        /// The page in question.
        page: DbPage,
    },
    /// Writing a dirty page back to its source failed. The page was still
    /// evicted; the WAL is the durability backstop.
    WriteBackFailed {
        /// The page in question.
        page: DbPage,
        /// The underlying failure.
        reason: String,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::PoolExhausted => write!(f, "private buffer pool exhausted"),
            PoolError::AlreadyMapped { page } => {
                write!(f, "page {page} already mapped at another address")
            }
            PoolError::LoadFailed { page } => write!(f, "load of page {page} failed"),
            PoolError::WriteBackFailed { page, reason } => {
                write!(f, "write-back of page {page} failed: {reason}")
            }
        }
    }
}

impl std::error::Error for PoolError {}

struct Resident {
    frame: FrameId,
    addr: VAddr,
    dirty: bool,
    pinned: bool,
}

struct PoolInner {
    resident: HashMap<DbPage, Resident>,
    ring: Vec<DbPage>,
    hand: usize,
}

/// Counters kept by a [`PrivatePool`] — [`bess_obs`] handles registered
/// under the `cache.private.` prefix of [`PrivatePool::metrics`].
#[derive(Debug)]
pub struct PoolStats {
    /// Pages faulted in, loads from the page source (`cache.private.loads`).
    pub loads: Counter,
    /// Faults satisfied by a resident frame, re-protection only
    /// (`cache.private.hits`).
    pub hits: Counter,
    /// Frames evicted (`cache.private.evictions`).
    pub evictions: Counter,
    /// Dirty evictions written back (`cache.private.write_backs`).
    pub write_backs: Counter,
    /// Accessible -> protected clock demotions
    /// (`cache.private.clock_protected`).
    pub clock_protected: Counter,
}

impl PoolStats {
    fn new(group: &Group) -> PoolStats {
        PoolStats {
            loads: group.counter("loads"),
            hits: group.counter("hits"),
            evictions: group.counter("evictions"),
            write_backs: group.counter("write_backs"),
            clock_protected: group.counter("clock_protected"),
        }
    }
}

/// A fixed-capacity private buffer pool bound to one process's address
/// space.
pub struct PrivatePool {
    space: Arc<AddressSpace>,
    store: Arc<HeapStore>,
    io: Arc<dyn PageIo>,
    capacity: usize,
    inner: OrderedMutex<PoolInner>,
    group: Group,
    stats: PoolStats,
    fault_ns: LatencyHistogram,
}

impl PrivatePool {
    /// Creates a pool of `capacity` frames over `space`, filling misses
    /// from `io`.
    pub fn new(space: Arc<AddressSpace>, io: Arc<dyn PageIo>, capacity: usize) -> Self {
        assert!(capacity > 0, "pool needs at least one frame");
        let store = Arc::new(HeapStore::new(space.page_size() as usize));
        let group = Registry::new().group("cache.private");
        let stats = PoolStats::new(&group);
        let fault_ns = group.histogram("fault.ns");
        PrivatePool {
            space,
            store,
            io,
            capacity,
            inner: OrderedMutex::new(
                Rank::PrivatePool,
                "cache.private",
                PoolInner {
                    resident: HashMap::new(),
                    ring: Vec::new(),
                    hand: 0,
                },
            ),
            group,
            stats,
            fault_ns,
        }
    }

    /// The pool's address space.
    pub fn space(&self) -> &Arc<AddressSpace> {
        &self.space
    }

    /// Activity counters.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// The pool's metric group (`cache.private.*`), including the
    /// `cache.private.fault.ns` histogram over [`PrivatePool::fault_in`].
    pub fn metrics(&self) -> &Group {
        &self.group
    }

    /// Frames currently resident.
    pub fn resident_count(&self) -> usize {
        self.inner.lock().resident.len()
    }

    /// Pool capacity in frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn page_range(&self, addr: VAddr) -> VRange {
        VRange::new(addr.page_base(self.space.page_size()), self.space.page_size())
    }

    /// Faults `page` in at page-aligned address `addr` with protection
    /// `want`. If the page is already resident at `addr`, only its
    /// protection is raised. Evicts via the clock when full.
    pub fn fault_in(&self, page: DbPage, addr: VAddr, want: Protect) -> Result<FrameId, PoolError> {
        let _timer = self.fault_ns.start();
        let addr = addr.page_base(self.space.page_size());
        {
            let mut inner = self.inner.lock();
            if let Some(res) = inner.resident.get_mut(&page) {
                if res.addr != addr {
                    return Err(PoolError::AlreadyMapped { page });
                }
                if want == Protect::ReadWrite {
                    res.dirty = true;
                }
                let frame = res.frame;
                drop(inner);
                self.space
                    .protect(self.page_range(addr), want)
                    .expect("page reserved by segment layer");
                self.stats.hits.inc();
                return Ok(frame);
            }
            if inner.resident.len() >= self.capacity {
                self.evict_one(&mut inner)?;
            }
        }
        // Load outside the lock.
        let mut buf = vec![0u8; self.space.page_size() as usize];
        if self.io.load(page, &mut buf).is_err() {
            return Err(PoolError::LoadFailed { page });
        }
        let frame = self.store.alloc();
        self.store.write(frame, 0, &buf);
        let store: Arc<dyn PageStore> = Arc::clone(&self.store) as Arc<dyn PageStore>;
        self.space
            .map_page(addr, store, frame, want)
            .expect("page reserved by segment layer");
        {
            let mut inner = self.inner.lock();
            inner.resident.insert(
                page,
                Resident {
                    frame,
                    addr,
                    dirty: want == Protect::ReadWrite,
                    pinned: false,
                },
            );
            inner.ring.push(page);
        }
        self.stats.loads.inc();
        Ok(frame)
    }

    /// Faults a run of pages in with one batched load — the wave-2/-3
    /// prefetch path. Resident pages are re-protected exactly as in
    /// [`PrivatePool::fault_in`]; all misses go to the page source in a
    /// single [`PageIo::load_batch`] call (one batch read on an
    /// area-backed source) and are then mapped one by one under the
    /// same capacity/eviction rules as the single-page path. Stops at the
    /// first page that cannot be loaded or evicted for, leaving the pages
    /// before it resident.
    pub fn fault_in_batch(
        &self,
        pages: &[(DbPage, VAddr)],
        want: Protect,
    ) -> Result<(), PoolError> {
        let _timer = self.fault_ns.start();
        let psz = self.space.page_size();
        let mut hits: Vec<VAddr> = Vec::new();
        let mut misses: Vec<(DbPage, VAddr)> = Vec::new();
        {
            let mut inner = self.inner.lock();
            for &(page, addr) in pages {
                let addr = addr.page_base(psz);
                match inner.resident.get_mut(&page) {
                    Some(res) => {
                        if res.addr != addr {
                            return Err(PoolError::AlreadyMapped { page });
                        }
                        if want == Protect::ReadWrite {
                            res.dirty = true;
                        }
                        hits.push(addr);
                    }
                    None => misses.push((page, addr)),
                }
            }
        }
        for addr in hits {
            self.space
                .protect(self.page_range(addr), want)
                // LINT: allow(panic) — page reserved by the segment layer before fault-in
                .expect("page reserved by segment layer");
            self.stats.hits.inc();
        }
        // Load every miss outside the lock, as one batch.
        let miss_pages: Vec<DbPage> = misses.iter().map(|&(p, _)| p).collect();
        let loaded = self.io.load_batch(&miss_pages, psz as usize);
        for ((page, addr), data) in misses.into_iter().zip(loaded) {
            let Ok(data) = data else {
                return Err(PoolError::LoadFailed { page });
            };
            {
                let mut inner = self.inner.lock();
                if inner.resident.contains_key(&page) {
                    continue; // raced in since classification; keep it
                }
                if inner.resident.len() >= self.capacity {
                    // LINT: allow(blocking-under-lock) — the private pool is per-transaction state; synchronous eviction write-back under its uncontended lock is by design — device I/O is synchronous, as in the paper's BeSS servers (§3–§4).
                    self.evict_one(&mut inner)?;
                }
            }
            let frame = self.store.alloc();
            self.store.write(frame, 0, &data);
            let store: Arc<dyn PageStore> = Arc::clone(&self.store) as Arc<dyn PageStore>;
            self.space
                .map_page(addr, store, frame, want)
                // LINT: allow(panic) — page reserved by the segment layer before fault-in
                .expect("page reserved by segment layer");
            {
                let mut inner = self.inner.lock();
                inner.resident.insert(
                    page,
                    Resident {
                        frame,
                        addr,
                        dirty: want == Protect::ReadWrite,
                        pinned: false,
                    },
                );
                inner.ring.push(page);
            }
            self.stats.loads.inc();
        }
        Ok(())
    }

    /// One full clock rotation (at most), evicting the first victim.
    fn evict_one(&self, inner: &mut PoolInner) -> Result<(), PoolError> {
        // Two passes: the first demotes accessible frames, the second can
        // then find a protected victim.
        for _ in 0..inner.ring.len() * 2 {
            if inner.ring.is_empty() {
                break;
            }
            let idx = inner.hand % inner.ring.len();
            let page = inner.ring[idx];
            let res = inner.resident.get(&page).expect("ring entry resident");
            if res.pinned {
                inner.hand = (inner.hand + 1) % inner.ring.len().max(1);
                continue;
            }
            match self.space.frame_state(res.addr) {
                FrameState::Accessible => {
                    self.space
                        .protect(self.page_range(res.addr), Protect::None)
                        .expect("mapped page");
                    self.stats.clock_protected.inc();
                    inner.hand = (inner.hand + 1) % inner.ring.len();
                }
                FrameState::Protected => {
                    return self.do_evict(inner, page);
                }
                FrameState::Invalid => {
                    // Unmapped behind our back (segment released); drop it.
                    return self.do_evict(inner, page);
                }
            }
        }
        Err(PoolError::PoolExhausted)
    }

    /// Evicts `page` unconditionally. A failed write-back of a dirty page
    /// still completes the eviction (the WAL repairs the page at recovery)
    /// but is reported so commit-critical paths can refuse to proceed.
    fn do_evict(&self, inner: &mut PoolInner, page: DbPage) -> Result<(), PoolError> {
        let res = inner.resident.remove(&page).expect("resident");
        inner.ring.retain(|&p| p != page);
        if inner.hand >= inner.ring.len() {
            inner.hand = 0;
        }
        let mut write_back_failure = None;
        if res.dirty {
            let mut buf = vec![0u8; self.space.page_size() as usize];
            self.store.read(res.frame, 0, &mut buf);
            match self.io.write_back(page, &buf) {
                Ok(()) => {
                    self.stats.write_backs.inc();
                }
                Err(reason) => write_back_failure = Some(reason),
            }
        }
        if self.space.frame_state(res.addr) != FrameState::Invalid {
            self.space.unmap_page(res.addr).expect("mapped page");
        }
        self.store.free(res.frame);
        self.stats.evictions.inc();
        match write_back_failure {
            Some(reason) => Err(PoolError::WriteBackFailed { page, reason }),
            None => Ok(()),
        }
    }

    /// Copies out the current content of a resident page (used by the
    /// commit path to diff against the before-image).
    pub fn read_page_copy(&self, page: DbPage) -> Option<Vec<u8>> {
        let inner = self.inner.lock();
        let res = inner.resident.get(&page)?;
        let mut buf = vec![0u8; self.space.page_size() as usize];
        self.store.read(res.frame, 0, &mut buf);
        Some(buf)
    }

    /// Drops a resident page *without* writing it back, even if dirty —
    /// the abort path discards uncommitted content this way.
    pub fn discard(&self, page: DbPage) {
        let mut inner = self.inner.lock();
        if let Some(res) = inner.resident.get_mut(&page) {
            res.dirty = false;
        }
        if inner.resident.contains_key(&page) {
            // Cannot fail: the dirty flag was just cleared, so no
            // write-back happens.
            // LINT: allow(blocking-under-lock) — dirty flag cleared above, so do_evict cannot reach the write-back I/O.
            let _ = self.do_evict(&mut inner, page);
        }
    }

    /// Re-protects a resident page (e.g. back to read-only at commit so
    /// the next transaction's first write traps again, §2.3).
    pub fn protect_page(&self, page: DbPage, prot: Protect) {
        let inner = self.inner.lock();
        if let Some(res) = inner.resident.get(&page) {
            self.space
                .protect(self.page_range(res.addr), prot)
                .expect("resident page mapped");
        }
    }

    /// Clears every dirty flag without writing anything (the caller has
    /// already made the content durable through another channel, e.g. a
    /// commit that shipped page diffs).
    pub fn clear_dirty_flags(&self) {
        for (_, r) in self.inner.lock().resident.iter_mut() {
            r.dirty = false;
        }
    }

    /// Pages currently dirty.
    pub fn dirty_pages(&self) -> Vec<DbPage> {
        self.inner
            .lock()
            .resident
            .iter()
            .filter(|(_, r)| r.dirty)
            .map(|(p, _)| *p)
            .collect()
    }

    /// Marks `page` dirty (its process took a write fault).
    pub fn mark_dirty(&self, page: DbPage) {
        if let Some(res) = self.inner.lock().resident.get_mut(&page) {
            res.dirty = true;
        }
    }

    /// Pins `page` against eviction while the caller works on it directly.
    pub fn pin(&self, page: DbPage, pinned: bool) {
        if let Some(res) = self.inner.lock().resident.get_mut(&page) {
            res.pinned = pinned;
        }
    }

    /// Explicitly evicts `page` (e.g. the segment moved or the cache is
    /// being purged by a callback). Dirty content is written back; a failed
    /// write-back still evicts but is reported.
    pub fn evict(&self, page: DbPage) -> Result<(), PoolError> {
        let mut inner = self.inner.lock();
        if inner.resident.contains_key(&page) {
            // LINT: allow(blocking-under-lock) — the private pool is per-transaction state; synchronous eviction write-back under its uncontended lock is by design — device I/O is synchronous, as in the paper's BeSS servers (§3–§4).
            self.do_evict(&mut inner, page)?;
        }
        Ok(())
    }

    /// Writes back every dirty page, keeping them resident (commit-time
    /// flush). Stops at the first failed write-back, leaving that page
    /// dirty so the flush can be retried.
    pub fn flush_dirty(&self) -> Result<(), PoolError> {
        let mut inner = self.inner.lock();
        let page_size = self.space.page_size() as usize;
        for (page, res) in inner.resident.iter_mut() {
            if res.dirty {
                let mut buf = vec![0u8; page_size];
                self.store.read(res.frame, 0, &mut buf);
                self.io
                    // LINT: allow(blocking-under-lock) — the private pool is per-transaction state; synchronous write-back under its uncontended lock is by design — device I/O is synchronous, as in the paper's BeSS servers (§3–§4).
                    .write_back(*page, &buf)
                    .map_err(|reason| PoolError::WriteBackFailed { page: *page, reason })?;
                res.dirty = false;
                self.stats.write_backs.inc();
            }
        }
        Ok(())
    }

    /// Evicts everything (end of transaction for cache-less clients, §3:
    /// "when the transaction terminates, it ... cleans its private buffer
    /// pool"). All pages are evicted even on failure; the first failed
    /// write-back is reported.
    pub fn clear(&self) -> Result<(), PoolError> {
        let pages: Vec<DbPage> = self.inner.lock().resident.keys().copied().collect();
        let mut first_err = Ok(());
        for page in pages {
            let res = self.evict(page);
            if first_err.is_ok() {
                first_err = res;
            }
        }
        first_err
    }
}

impl std::fmt::Debug for PrivatePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrivatePool")
            .field("capacity", &self.capacity)
            .field("resident", &self.resident_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::MapIo;

    const PS: u64 = 256;

    fn setup(capacity: usize) -> (Arc<AddressSpace>, Arc<MapIo>, PrivatePool) {
        let space = Arc::new(AddressSpace::with_page_size(PS));
        let io = Arc::new(MapIo::new());
        let pool = PrivatePool::new(
            Arc::clone(&space),
            Arc::clone(&io) as Arc<dyn PageIo>,
            capacity,
        );
        (space, io, pool)
    }

    fn page(p: u64) -> DbPage {
        DbPage { area: 0, page: p }
    }

    #[test]
    fn fault_in_and_read() {
        let (space, io, pool) = setup(4);
        io.put(page(1), vec![0x42; PS as usize]);
        let range = space.reserve(PS, None);
        pool.fault_in(page(1), range.start(), Protect::Read).unwrap();
        assert_eq!(space.read_u32(range.start()).unwrap(), 0x42424242);
    }

    #[test]
    fn clock_evicts_lru_like_victim() {
        let (space, io, pool) = setup(2);
        let ranges: Vec<_> = (0..3).map(|_| space.reserve(PS, None)).collect();
        for (i, r) in ranges.iter().enumerate().take(2) {
            io.put(page(i as u64), vec![i as u8; PS as usize]);
            pool.fault_in(page(i as u64), r.start(), Protect::Read).unwrap();
        }
        assert_eq!(pool.resident_count(), 2);
        // Touch page 1 by re-reading after a demote cycle happens inside
        // the next fault_in; then bring in page 2 — the clock picks a
        // victim among untouched frames.
        pool.fault_in(page(2), ranges[2].start(), Protect::Read).unwrap();
        assert_eq!(pool.resident_count(), 2);
        assert_eq!(pool.stats().evictions.get(), 1);
    }

    #[test]
    fn touched_pages_get_second_chance() {
        let (space, io, pool) = setup(2);
        let r0 = space.reserve(PS, None);
        let r1 = space.reserve(PS, None);
        let r2 = space.reserve(PS, None);
        io.put(page(0), vec![10; PS as usize]);
        io.put(page(1), vec![11; PS as usize]);
        io.put(page(2), vec![12; PS as usize]);
        pool.fault_in(page(0), r0.start(), Protect::Read).unwrap();
        pool.fault_in(page(1), r1.start(), Protect::Read).unwrap();
        // Demote both (first clock pass behaviour): simulate by an explicit
        // eviction attempt that protects everything but evicts one. Then
        // touch page 0 so it is accessible again.
        pool.fault_in(page(2), r2.start(), Protect::Read).unwrap(); // evicts one of 0/1
        let survivor = if pool.resident_count() == 2 {
            // figure out which survived
            let s0 = space.frame_state(r0.start()) != FrameState::Invalid;
            if s0 {
                0
            } else {
                1
            }
        } else {
            panic!("expected 2 resident")
        };
        // Touch the survivor: faults back to accessible.
        let addr = if survivor == 0 { r0.start() } else { r1.start() };
        // After eviction sweep it is protected; direct read faults — but
        // pool pages at reserved ranges have no handler, so re-protect via
        // fault_in (the segment layer's handler does this in real use).
        pool.fault_in(page(survivor), addr, Protect::Read).unwrap();
        assert_eq!(space.frame_state(addr), FrameState::Accessible);
        assert_eq!(pool.stats().hits.get(), 1);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let (space, io, pool) = setup(1);
        let r0 = space.reserve(PS, None);
        let r1 = space.reserve(PS, None);
        pool.fault_in(page(0), r0.start(), Protect::ReadWrite).unwrap();
        space.write_u32(r0.start(), 0xDEADBEEF).unwrap();
        pool.fault_in(page(1), r1.start(), Protect::Read).unwrap();
        assert_eq!(io.write_backs(), 1);
        assert_eq!(
            u32::from_le_bytes(io.get(page(0), PS as usize)[0..4].try_into().unwrap()),
            0xDEADBEEF
        );
    }

    #[test]
    fn pinned_pages_survive_eviction() {
        let (space, io, pool) = setup(1);
        let _ = io;
        let r0 = space.reserve(PS, None);
        let r1 = space.reserve(PS, None);
        pool.fault_in(page(0), r0.start(), Protect::Read).unwrap();
        pool.pin(page(0), true);
        assert_eq!(
            pool.fault_in(page(1), r1.start(), Protect::Read).unwrap_err(),
            PoolError::PoolExhausted
        );
        pool.pin(page(0), false);
        pool.fault_in(page(1), r1.start(), Protect::Read).unwrap();
    }

    #[test]
    fn flush_dirty_keeps_pages_resident() {
        let (space, io, pool) = setup(2);
        let r0 = space.reserve(PS, None);
        pool.fault_in(page(0), r0.start(), Protect::ReadWrite).unwrap();
        space.write_u32(r0.start(), 77).unwrap();
        pool.flush_dirty().unwrap();
        assert_eq!(io.write_backs(), 1);
        assert_eq!(pool.resident_count(), 1);
        // Second flush: nothing dirty.
        pool.flush_dirty().unwrap();
        assert_eq!(io.write_backs(), 1);
    }

    #[test]
    fn clear_empties_pool() {
        let (space, io, pool) = setup(4);
        let _ = io;
        for p in 0..3 {
            let r = space.reserve(PS, None);
            pool.fault_in(page(p), r.start(), Protect::Read).unwrap();
        }
        pool.clear().unwrap();
        assert_eq!(pool.resident_count(), 0);
    }

    #[test]
    fn remap_at_other_address_rejected() {
        let (space, io, pool) = setup(4);
        let _ = io;
        let r0 = space.reserve(PS, None);
        let r1 = space.reserve(PS, None);
        pool.fault_in(page(0), r0.start(), Protect::Read).unwrap();
        assert!(matches!(
            pool.fault_in(page(0), r1.start(), Protect::Read),
            Err(PoolError::AlreadyMapped { .. })
        ));
        // After explicit eviction the page can move (data segment
        // relocation, §2.1).
        pool.evict(page(0)).unwrap();
        pool.fault_in(page(0), r1.start(), Protect::Read).unwrap();
    }
}
