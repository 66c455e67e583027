//! A [`PageIo`] over a set of storage areas.

use std::collections::HashMap;
use std::sync::Arc;

use bess_lock::order::{OrderedRwLock, Rank};
use bess_storage::StorageArea;

use crate::page::{DbPage, PageIo};

/// Routes cache loads and write-backs to the storage areas of a server —
/// the [`PageIo`] used when the cache sits directly above disk (a BeSS
/// server, or a client embedded with one, §3).
pub struct AreaSet {
    areas: OrderedRwLock<HashMap<u32, Arc<StorageArea>>>,
}

impl Default for AreaSet {
    fn default() -> Self {
        AreaSet {
            areas: OrderedRwLock::new(Rank::AreaSet, "cache.areaset", HashMap::new()),
        }
    }
}

impl AreaSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) an area.
    pub fn add(&self, area: Arc<StorageArea>) {
        self.areas.write().insert(area.id().0, area);
    }

    /// Looks up an area by number.
    pub fn get(&self, id: u32) -> Option<Arc<StorageArea>> {
        self.areas.read().get(&id).cloned()
    }

    /// All registered area numbers.
    pub fn ids(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.areas.read().keys().copied().collect();
        v.sort_unstable();
        v
    }
}

impl PageIo for AreaSet {
    fn load(&self, page: DbPage, buf: &mut [u8]) -> Result<(), String> {
        let area = self
            .get(page.area)
            .ok_or_else(|| format!("no storage area {}", page.area))?;
        area.read_page(page.page, buf).map_err(|e| e.to_string())
    }

    fn write_back(&self, page: DbPage, data: &[u8]) -> Result<(), String> {
        let area = self
            .get(page.area)
            .ok_or_else(|| format!("no storage area {}", page.area))?;
        area.write_page(page.page, data)
            .map_err(|e| format!("write-back of {page} failed: {e}"))
    }

    fn load_batch(&self, pages: &[DbPage], _page_size: usize) -> Vec<Result<Vec<u8>, String>> {
        // Group by area in first-appearance order and read each group as
        // one batch; results scatter back to request order.
        let mut out: Vec<Result<Vec<u8>, String>> = pages
            .iter()
            .map(|p| Err(format!("no storage area {}", p.area)))
            .collect();
        let mut groups: Vec<(u32, Vec<usize>)> = Vec::new();
        for (i, p) in pages.iter().enumerate() {
            match groups.iter_mut().find(|(a, _)| *a == p.area) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((p.area, vec![i])),
            }
        }
        for (area_id, idxs) in groups {
            let Some(area) = self.get(area_id) else {
                continue; // the prefilled "no storage area" error stands
            };
            let group_pages: Vec<u64> = idxs.iter().map(|&i| pages[i].page).collect();
            for (&i, res) in idxs.iter().zip(area.read_pages_batch(&group_pages)) {
                out[i] = res.map_err(|e| e.to_string());
            }
        }
        out
    }
}

impl std::fmt::Debug for AreaSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AreaSet").field("areas", &self.ids()).finish()
    }
}

impl bess_storage::DiskSpace for AreaSet {
    fn page_size(&self) -> usize {
        // All areas in a set share one page size; sample any.
        self.areas
            .read()
            .values()
            .next()
            .map(|a| a.page_size())
            .unwrap_or(bess_storage::PAGE_SIZE)
    }

    fn alloc(&self, area: u32, pages: u32) -> bess_storage::StorageResult<bess_storage::DiskPtr> {
        let a = self
            .get(area)
            .ok_or(bess_storage::StorageError::BadPage(0))?;
        bess_storage::StorageArea::alloc(&a, pages)
    }

    fn free(&self, ptr: bess_storage::DiskPtr) -> bess_storage::StorageResult<()> {
        let a = self
            .get(ptr.area.0)
            .ok_or(bess_storage::StorageError::BadPage(ptr.start_page))?;
        bess_storage::StorageArea::free(&a, ptr)
    }

    fn read_at(
        &self,
        area: u32,
        page: u64,
        offset: usize,
        buf: &mut [u8],
    ) -> bess_storage::StorageResult<()> {
        let a = self
            .get(area)
            .ok_or(bess_storage::StorageError::BadPage(page))?;
        bess_storage::StorageArea::read_at(&a, page, offset, buf)
    }

    fn write_at(
        &self,
        area: u32,
        page: u64,
        offset: usize,
        data: &[u8],
    ) -> bess_storage::StorageResult<()> {
        let a = self
            .get(area)
            .ok_or(bess_storage::StorageError::BadPage(page))?;
        bess_storage::StorageArea::write_at(&a, page, offset, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bess_storage::{AreaConfig, AreaId};

    #[test]
    fn round_trip_through_area() {
        let set = AreaSet::new();
        let area = Arc::new(StorageArea::create_mem(AreaId(3), AreaConfig::default()).unwrap());
        let seg = area.alloc(1).unwrap();
        set.add(area);

        let page = DbPage {
            area: 3,
            page: seg.start_page,
        };
        let data = vec![0x3C; 4096];
        set.write_back(page, &data).unwrap();
        let mut buf = vec![0u8; 4096];
        set.load(page, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn corrupt_page_surfaces_through_load() {
        use bess_storage::fault::{FaultDisk, FaultPlan};
        use bess_storage::PAGE_HDR;
        let disk = FaultDisk::new(FaultPlan::unarmed());
        let area = Arc::new(
            StorageArea::create_faulty(AreaId(1), AreaConfig::default(), Arc::clone(&disk))
                .unwrap(),
        );
        let seg = area.alloc(1).unwrap();
        let ps = area.page_size();
        let set = AreaSet::new();
        let page = DbPage {
            area: 1,
            page: seg.start_page,
        };
        set.add(Arc::clone(&area));
        set.write_back(page, &vec![0x5A; ps]).unwrap();

        // Durably rot one data byte inside the page's slot: the cache must
        // get a typed error, never the rotted bytes.
        let off = seg.start_page * (PAGE_HDR + ps) as u64 + PAGE_HDR as u64 + 3;
        let mut b = [0u8; 1];
        disk.read_at(&mut b, off).unwrap();
        disk.write_at(&[b[0] ^ 0x80], off).unwrap();

        let mut buf = vec![0u8; ps];
        let err = set.load(page, &mut buf).unwrap_err();
        assert!(err.contains("corrupt page"), "got: {err}");
    }

    #[test]
    fn missing_area_errors() {
        let set = AreaSet::new();
        let mut buf = vec![0u8; 4096];
        assert!(set.load(DbPage { area: 9, page: 0 }, &mut buf).is_err());
    }
}
