//! The exact device op sequence of a storage area's batch entry points.
//!
//! The fault matrices arm a fault at the Nth device op per class, so the
//! order in which `read_pages_batch` and `write_at_lsn_batch` reach the
//! device is part of their contract. A recording device under a
//! `StorageArea` pins it.

use std::sync::{Arc, Mutex};

use bess_io::{IoDevice, MemDevice};
use bess_storage::{AreaConfig, AreaId, PageUpdate, StorageArea, StorageError, PAGE_HDR};

/// One observed device call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Read(u64),
    Write(u64),
    Sync,
    Grow(u64),
}

/// A memory device that records every op it serves.
struct Recording {
    inner: Arc<MemDevice>,
    log: Mutex<Vec<Op>>,
}

impl Recording {
    fn new() -> Arc<Self> {
        Arc::new(Recording {
            inner: MemDevice::new(),
            log: Mutex::new(Vec::new()),
        })
    }

    /// Returns and clears the ops recorded so far.
    fn take(&self) -> Vec<Op> {
        std::mem::take(&mut *self.log.lock().unwrap())
    }
}

impl IoDevice for Recording {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
        self.log.lock().unwrap().push(Op::Read(offset));
        self.inner.read_at(buf, offset)
    }

    fn write_at(&self, data: &[u8], offset: u64) -> std::io::Result<()> {
        self.log.lock().unwrap().push(Op::Write(offset));
        self.inner.write_at(data, offset)
    }

    fn grow_to(&self, bytes: u64) -> std::io::Result<()> {
        self.log.lock().unwrap().push(Op::Grow(bytes));
        self.inner.grow_to(bytes)
    }

    fn sync(&self) -> std::io::Result<()> {
        self.log.lock().unwrap().push(Op::Sync);
        self.inner.sync()
    }

    fn len(&self) -> std::io::Result<u64> {
        self.inner.len()
    }
}

/// An area on a recording device with three written data pages; returns
/// the pages and their slot offsets (learned from the recorded writes).
fn area_with_pages() -> (Arc<Recording>, StorageArea, Vec<u64>, Vec<u64>) {
    let dev = Recording::new();
    let area = StorageArea::create_on_device(
        AreaId(1),
        AreaConfig::default(),
        Arc::clone(&dev) as Arc<dyn IoDevice>,
    )
    .unwrap();
    let seg = area.alloc(3).unwrap();
    let pages: Vec<u64> = (0..3).map(|i| seg.start_page + i).collect();
    let mut offsets = Vec::new();
    for &p in &pages {
        dev.take();
        area.write_page(p, &vec![p as u8; area.page_size()]).unwrap();
        match dev.take().as_slice() {
            [Op::Write(off)] => offsets.push(*off),
            other => panic!("write_page issued {other:?}"),
        }
    }
    (dev, area, pages, offsets)
}

#[test]
fn batch_read_rereads_a_corrupt_page_after_all_batch_reads() {
    let (dev, area, pages, offs) = area_with_pages();
    // Rot one data byte of the middle page behind the area's back.
    let rot = offs[1] + PAGE_HDR as u64 + 5;
    let mut byte = [0u8; 1];
    dev.inner.read_at(&mut byte, rot).unwrap();
    dev.inner.write_at(&[byte[0] ^ 0xFF], rot).unwrap();

    let results = area.read_pages_batch(&pages);
    assert_eq!(
        dev.take(),
        vec![
            Op::Read(offs[0]),
            Op::Read(offs[1]),
            Op::Read(offs[2]),
            Op::Read(offs[1]),
        ],
        "every batch read first, then the one verify re-read"
    );
    assert_eq!(results[0].as_ref().unwrap()[0], pages[0] as u8);
    assert!(matches!(results[1], Err(StorageError::CorruptPage { .. })));
    assert_eq!(results[2].as_ref().unwrap()[0], pages[2] as u8);
}

#[test]
fn batch_apply_coalesces_patches_to_one_page() {
    let (dev, area, pages, offs) = area_with_pages();
    let updates = [
        PageUpdate { page: pages[0], offset: 0, data: b"ab", lsn: 7 },
        PageUpdate { page: pages[2], offset: 0, data: b"cd", lsn: 8 },
        PageUpdate { page: pages[0], offset: 10, data: b"ef", lsn: 9 },
    ];
    let results = area.write_at_lsn_batch(&updates);
    assert_eq!(
        dev.take(),
        vec![
            Op::Read(offs[0]),
            Op::Read(offs[2]),
            Op::Write(offs[0]),
            Op::Write(offs[2]),
        ],
        "one read and one write per distinct page, reads before writes"
    );
    assert_eq!(results.len(), 2);
    assert!(results.iter().all(|(_, r)| r.is_ok()));

    let mut back = vec![0u8; area.page_size()];
    area.read_page(pages[0], &mut back).unwrap();
    assert_eq!(&back[0..2], b"ab");
    assert_eq!(&back[10..12], b"ef");
    assert_eq!(area.verify_page(pages[0]).unwrap(), 9, "the last patch's lsn wins");
}
