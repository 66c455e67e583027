//! Database page identity and cache I/O traits.

use std::fmt;

/// Identifies a database page globally: `(storage area, absolute page)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DbPage {
    /// Storage area number.
    pub area: u32,
    /// Absolute page within the area.
    pub page: u64,
}

impl fmt::Display for DbPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.area, self.page)
    }
}

/// Where cache misses are filled from and dirty evictions written to — a
/// local storage area, or (on a client) the node-server / server connection.
pub trait PageIo: Send + Sync {
    /// Fills `buf` (one page) with the content of `page`. May fail — e.g.
    /// a remote fetch whose implicit lock was denied by the deadlock
    /// timeout; the failure surfaces as a protection violation at the
    /// faulting access.
    fn load(&self, page: DbPage, buf: &mut [u8]) -> Result<(), String>;

    /// Persists a dirty `page` being evicted. May fail — e.g. an I/O error
    /// on the backing area; the caller decides whether to surface it or
    /// rely on the WAL to repair the page at recovery.
    fn write_back(&self, page: DbPage, data: &[u8]) -> Result<(), String>;

    /// Loads several pages in one call, returning each page's content (one
    /// `page_size`-byte buffer) or error in request order. Failures are
    /// per-page. The default loops over [`PageIo::load`]; backends with a
    /// batch read (e.g. `AreaSet` over `StorageArea::read_pages_batch`)
    /// override it to hand the whole batch to the area at once.
    fn load_batch(&self, pages: &[DbPage], page_size: usize) -> Vec<Result<Vec<u8>, String>> {
        pages
            .iter()
            .map(|&p| {
                let mut buf = vec![0u8; page_size];
                self.load(p, &mut buf).map(|()| buf)
            })
            .collect()
    }
}

/// A [`PageIo`] over an in-memory map, for tests and benchmarks.
#[derive(Debug)]
pub struct MapIo {
    pages: bess_lock::OrderedMutex<std::collections::HashMap<DbPage, Vec<u8>>>,
    // LINT: allow(raw-counter) — test-backing-store bookkeeping (MapIo), not a product metric
    loads: std::sync::atomic::AtomicU64,
    // LINT: allow(raw-counter) — test-backing-store bookkeeping (MapIo), not a product metric
    write_backs: std::sync::atomic::AtomicU64,
}

impl Default for MapIo {
    fn default() -> Self {
        MapIo {
            pages: bess_lock::OrderedMutex::new(
                bess_lock::Rank::TestPageIo,
                "cache.mapio",
                std::collections::HashMap::new(),
            ),
            loads: std::sync::atomic::AtomicU64::new(0),
            write_backs: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

impl MapIo {
    /// Creates an empty backing map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Seeds a page's content.
    pub fn put(&self, page: DbPage, data: Vec<u8>) {
        self.pages.lock().insert(page, data);
    }

    /// Reads a page's content (zeroes if never written).
    pub fn get(&self, page: DbPage, len: usize) -> Vec<u8> {
        self.pages
            .lock()
            .get(&page)
            .cloned()
            .unwrap_or_else(|| vec![0; len])
    }

    /// How many loads were served.
    pub fn loads(&self) -> u64 {
        self.loads.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// How many write-backs were received.
    pub fn write_backs(&self) -> u64 {
        self.write_backs.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl PageIo for MapIo {
    fn load(&self, page: DbPage, buf: &mut [u8]) -> Result<(), String> {
        self.loads
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let pages = self.pages.lock();
        match pages.get(&page) {
            Some(data) => buf.copy_from_slice(&data[..buf.len()]),
            None => buf.fill(0),
        }
        Ok(())
    }

    fn write_back(&self, page: DbPage, data: &[u8]) -> Result<(), String> {
        self.write_backs
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.pages.lock().insert(page, data.to_vec());
        Ok(())
    }
}
