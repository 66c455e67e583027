//! The device handle: how storage areas and the WAL issue device I/O.
//!
//! An [`IoHandle`] is one device plus the metrics that describe its
//! traffic. Every call runs synchronously on the caller's thread, so the
//! device observes exactly the sequence of calls its owner makes — the
//! property the fault-injection matrices calibrate against (a fault plan
//! arms at the Nth device op per class).
//!
//! The batch entry points ([`IoHandle::read_exact_batch`],
//! [`IoHandle::write_batch`]) issue their ops back to back in request
//! order. Each op keeps its own result, so one failure never fails its
//! neighbours, and the batch is recorded once in `io.batch.size`.

use std::sync::Arc;

use bess_obs::{Counter, Group, LatencyHistogram};

use crate::device::IoDevice;
use crate::retry;

/// A device and its I/O metrics. Metrics registered in the owner's group:
/// `io.op.ns` (device time per op) and `io.batch.size` (ops per call; a
/// single-op call counts as a batch of one).
pub struct IoHandle {
    dev: Arc<dyn IoDevice>,
    /// Transient read retries of [`Self::read_exact`] are charged here.
    retries: Counter,
    op_ns: LatencyHistogram,
    batch_size: LatencyHistogram,
}

impl IoHandle {
    /// A handle over `dev`, registering its metrics in `group` and
    /// charging transient read retries to `retries`.
    pub fn new(dev: Arc<dyn IoDevice>, group: &Group, retries: Counter) -> Self {
        IoHandle {
            dev,
            retries,
            op_ns: group.histogram("io.op.ns"),
            batch_size: group.histogram("io.batch.size"),
        }
    }

    /// A handle whose metrics go nowhere (bootstrap reads, tests).
    pub fn unregistered(dev: Arc<dyn IoDevice>) -> Self {
        IoHandle {
            dev,
            retries: Counter::unregistered(),
            op_ns: LatencyHistogram::unregistered(),
            batch_size: LatencyHistogram::unregistered(),
        }
    }

    fn timed<T>(&self, op: impl FnOnce(&dyn IoDevice) -> std::io::Result<T>) -> std::io::Result<T> {
        let _timer = self.op_ns.start();
        op(&*self.dev)
    }

    fn single<T>(&self, op: impl FnOnce(&dyn IoDevice) -> std::io::Result<T>) -> std::io::Result<T> {
        self.batch_size.record(1);
        self.timed(op)
    }

    fn record_batch(&self, ops: usize) {
        if ops > 0 {
            self.batch_size.record(ops as u64);
        }
    }

    fn read_exact_once(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        self.timed(|d| retry::read_exact_retrying(|b, off| d.read_at(b, off), buf, offset, &self.retries))
    }

    /// Fills `buf` from `offset` (storage-area policy, see
    /// [`retry::read_exact_retrying`]): short reads accumulate, transient
    /// errors retry, an early end of store is an error.
    pub fn read_exact(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        self.batch_size.record(1);
        self.read_exact_once(buf, offset)
    }

    /// Reads what the store holds of `buf.len()` bytes at `offset` and
    /// returns the count (log-tail policy, see [`retry::read_accumulating`]).
    pub fn read_short(&self, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
        self.single(|d| retry::read_accumulating(|b, off| d.read_at(b, off), buf, offset))
    }

    /// Writes all of `data` at `offset`.
    pub fn write(&self, data: &[u8], offset: u64) -> std::io::Result<()> {
        self.single(|d| d.write_at(data, offset))
    }

    /// Forces everything written so far to stable storage.
    pub fn sync(&self) -> std::io::Result<()> {
        self.single(|d| d.sync())
    }

    /// Grows the store to at least `len` bytes.
    pub fn grow(&self, len: u64) -> std::io::Result<()> {
        self.single(|d| d.grow_to(len))
    }

    /// Writes `data` at `offset`, then syncs — fail-fast: if the write
    /// fails, the sync never reaches the device. The group-commit force
    /// issues its whole round as one of these.
    pub fn write_sync(&self, data: &[u8], offset: u64) -> std::io::Result<()> {
        self.single(|d| {
            d.write_at(data, offset)?;
            d.sync()
        })
    }

    /// One exact read of `len` bytes per offset, in order, each with its
    /// own result.
    pub fn read_exact_batch(&self, offsets: &[u64], len: usize) -> Vec<std::io::Result<Vec<u8>>> {
        self.record_batch(offsets.len());
        offsets
            .iter()
            .map(|&offset| {
                let mut buf = vec![0u8; len];
                self.read_exact_once(&mut buf, offset)?;
                Ok(buf)
            })
            .collect()
    }

    /// One write per `(offset, data)`, in order, each with its own result.
    pub fn write_batch(&self, writes: &[(u64, Vec<u8>)]) -> Vec<std::io::Result<()>> {
        self.record_batch(writes.len());
        writes
            .iter()
            .map(|(offset, data)| self.timed(|d| d.write_at(data, *offset)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;

    /// A device whose writes always fail and which counts syncs.
    struct FailingWrites {
        syncs: std::sync::atomic::AtomicUsize,
    }

    impl IoDevice for FailingWrites {
        fn read_at(&self, _buf: &mut [u8], _offset: u64) -> std::io::Result<usize> {
            Ok(0)
        }

        fn write_at(&self, _data: &[u8], _offset: u64) -> std::io::Result<()> {
            Err(std::io::Error::other("injected write fault"))
        }

        fn grow_to(&self, _bytes: u64) -> std::io::Result<()> {
            Ok(())
        }

        fn sync(&self) -> std::io::Result<()> {
            self.syncs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(())
        }

        fn len(&self) -> std::io::Result<u64> {
            Ok(0)
        }
    }

    #[test]
    fn round_trip() {
        let dev = MemDevice::new();
        let io = IoHandle::unregistered(Arc::clone(&dev) as Arc<dyn IoDevice>);
        io.grow(64).unwrap();
        io.write(b"payload", 8).unwrap();
        io.sync().unwrap();
        let mut back = [0u8; 7];
        io.read_exact(&mut back, 8).unwrap();
        assert_eq!(&back, b"payload");
        assert_eq!(dev.len().unwrap(), 64);
    }

    #[test]
    fn write_sync_writes_then_syncs() {
        let io = IoHandle::unregistered(MemDevice::new());
        io.write_sync(b"chained", 0).unwrap();
        let mut back = [0u8; 7];
        io.read_exact(&mut back, 0).unwrap();
        assert_eq!(&back, b"chained");
    }

    #[test]
    fn faulted_write_in_write_sync_never_reaches_sync() {
        let dev = Arc::new(FailingWrites {
            syncs: std::sync::atomic::AtomicUsize::new(0),
        });
        let io = IoHandle::unregistered(Arc::clone(&dev) as Arc<dyn IoDevice>);
        assert!(io.write_sync(b"doomed", 0).is_err());
        assert_eq!(dev.syncs.load(std::sync::atomic::Ordering::Relaxed), 0);
        // A plain sync still reaches the device: the fail-fast is the chain's.
        io.sync().unwrap();
        assert_eq!(dev.syncs.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn inexact_read_reports_short_count() {
        let io = IoHandle::unregistered(MemDevice::new());
        io.write(&[9; 10], 0).unwrap();
        let mut buf = [0u8; 64];
        assert_eq!(io.read_short(&mut buf, 4).unwrap(), 6);
        assert_eq!(&buf[..6], &[9u8; 6]);
        // The exact flavor treats the same short read as an error.
        let err = io.read_exact(&mut buf, 4).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn metrics_count_ops_and_batches() {
        let registry = bess_obs::Registry::new();
        let group = registry.group("io_test");
        let io = IoHandle::new(MemDevice::new(), &group, Counter::unregistered());
        io.write(&[1; 8], 0).unwrap();
        io.write_batch(&[(0, vec![2; 8]), (8, vec![3; 8])]);
        let reads = io.read_exact_batch(&[0, 8, 64], 8);
        assert_eq!(reads[0].as_ref().unwrap(), &vec![2u8; 8]);
        assert_eq!(reads[1].as_ref().unwrap(), &vec![3u8; 8]);
        assert!(reads[2].is_err(), "a read past the end fails alone");
        let snap = registry.snapshot();
        let ops = snap.histogram("io_test.io.op.ns").unwrap();
        let batches = snap.histogram("io_test.io.batch.size").unwrap();
        assert_eq!(ops.count(), 6);
        assert_eq!(batches.count(), 3);
        assert_eq!(batches.sum, 6);
    }
}
