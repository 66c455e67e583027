//! Pluggable I/O devices: what an [`crate::IoHandle`] drives.
//!
//! A device is a flat positioned byte store with the raw UNIX contract —
//! reads may come back short or interrupted (the handle applies the
//! policies in [`crate::retry`]), writes are all-or-error, `sync` makes
//! everything written so far durable. Devices compose by wrapping; the
//! fault-injection disk in `bess-storage` is a device too, which is how
//! the crash/corruption matrices drive the shipped I/O path.

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::sync::Arc;
use std::time::Duration;

use bess_lock::order::{OrderedRwLock, Rank};

/// A positioned byte store an [`crate::IoHandle`] can drive.
///
/// Implementations must be internally synchronized: concurrent callers
/// (commit apply, readers, the scrubber) share one device.
pub trait IoDevice: Send + Sync {
    /// Reads up to `buf.len()` bytes at `offset`, returning how many were
    /// served. `Ok(0)` means the end of the store. May return short counts
    /// and `ErrorKind::Interrupted` spuriously — the handle retries.
    fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<usize>;

    /// Writes all of `data` at `offset` (growing the store if needed),
    /// or fails.
    fn write_at(&self, data: &[u8], offset: u64) -> std::io::Result<()>;

    /// Grows the store to at least `bytes` bytes.
    fn grow_to(&self, bytes: u64) -> std::io::Result<()>;

    /// Forces everything written so far to stable storage.
    fn sync(&self) -> std::io::Result<()>;

    /// Current size of the store in bytes.
    fn len(&self) -> std::io::Result<u64>;

    /// Whether the store is empty.
    fn is_empty(&self) -> std::io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

/// An in-memory device (tests, benchmarks, volatile scratch). Writes past
/// the end grow the image; `sync` optionally sleeps for a configured
/// delay, the fsync-cost proxy benchmarks use to make sync amortization
/// measurable without a real disk.
pub struct MemDevice {
    bytes: OrderedRwLock<Vec<u8>>,
    sync_delay: Duration,
}

impl MemDevice {
    /// An empty in-memory device.
    pub fn new() -> Arc<Self> {
        Self::with_contents(Vec::new())
    }

    /// A device pre-loaded with `bytes`.
    pub fn with_contents(bytes: Vec<u8>) -> Arc<Self> {
        Self::with_sync_delay(bytes, Duration::ZERO)
    }

    /// A device whose `sync` sleeps for `sync_delay` (fsync proxy).
    pub fn with_sync_delay(bytes: Vec<u8>, sync_delay: Duration) -> Arc<Self> {
        Arc::new(MemDevice {
            bytes: OrderedRwLock::new(Rank::IoMemDevice, "io.mem.bytes", bytes),
            sync_delay,
        })
    }

    /// A copy of the current image (crash simulation reads the volatile
    /// image here and truncates it to the durable watermark itself).
    pub fn image(&self) -> Vec<u8> {
        self.bytes.read().clone()
    }
}

impl IoDevice for MemDevice {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
        let v = self.bytes.read();
        if offset >= v.len() as u64 {
            return Ok(0);
        }
        let avail = (v.len() as u64 - offset) as usize;
        let n = buf.len().min(avail);
        buf[..n].copy_from_slice(&v[offset as usize..offset as usize + n]);
        Ok(n)
    }

    fn write_at(&self, data: &[u8], offset: u64) -> std::io::Result<()> {
        let mut v = self.bytes.write();
        let end = offset as usize + data.len();
        if v.len() < end {
            v.resize(end, 0);
        }
        v[offset as usize..end].copy_from_slice(data);
        Ok(())
    }

    fn grow_to(&self, bytes: u64) -> std::io::Result<()> {
        let mut v = self.bytes.write();
        if (v.len() as u64) < bytes {
            v.resize(bytes as usize, 0);
        }
        Ok(())
    }

    fn sync(&self) -> std::io::Result<()> {
        if !self.sync_delay.is_zero() {
            std::thread::sleep(self.sync_delay);
        }
        Ok(())
    }

    fn len(&self) -> std::io::Result<u64> {
        Ok(self.bytes.read().len() as u64)
    }
}

/// A device over a real file, using positioned I/O (`pread`/`pwrite`).
pub struct FileDevice(File);

impl FileDevice {
    /// Wraps an open file.
    pub fn new(file: File) -> Arc<Self> {
        Arc::new(FileDevice(file))
    }
}

impl IoDevice for FileDevice {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
        self.0.read_at(buf, offset)
    }

    fn write_at(&self, data: &[u8], offset: u64) -> std::io::Result<()> {
        self.0.write_all_at(data, offset)
    }

    fn grow_to(&self, bytes: u64) -> std::io::Result<()> {
        self.0.set_len(bytes)
    }

    fn sync(&self) -> std::io::Result<()> {
        self.0.sync_data()
    }

    fn len(&self) -> std::io::Result<u64> {
        Ok(self.0.metadata()?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_device_round_trip_and_grow() {
        let dev = MemDevice::new();
        dev.write_at(b"hello", 10).unwrap(); // auto-grows
        assert_eq!(dev.len().unwrap(), 15);
        let mut buf = [0u8; 5];
        assert_eq!(dev.read_at(&mut buf, 10).unwrap(), 5);
        assert_eq!(&buf, b"hello");
        // Reads at/past the end are a clean EOF, not an error.
        assert_eq!(dev.read_at(&mut buf, 15).unwrap(), 0);
        // Short read across the end.
        assert_eq!(dev.read_at(&mut buf, 12).unwrap(), 3);
        dev.grow_to(100).unwrap();
        assert_eq!(dev.len().unwrap(), 100);
        // grow_to never shrinks.
        dev.grow_to(50).unwrap();
        assert_eq!(dev.len().unwrap(), 100);
    }
}
