//! The benchmark's device seam: an [`IoDevice`] wrapper around the shipped
//! [`bess_io::FileDevice`], handed to `StorageArea::create_on_device`, and
//! the WAL force timer installed with `LogManager::set_force_hook`.
//!
//! The wrapper always counts bytes written (for write amplification).
//! While the shared [`Meter`] is timing, it also records the duration of
//! every read, write and sync, and of every group force from `AfterSwap`
//! to `AfterSync` — the per-layer device and WAL latencies of a traced run.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bess_io::IoDevice;
use bess_wal::ForcePoint;

thread_local! {
    /// When this thread, as a group-commit leader, passed `AfterSwap`.
    static FORCE_START: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Byte count and op timings shared by every metered device of a stack.
#[derive(Default)]
pub struct Meter {
    bytes_written: AtomicU64,
    timing: AtomicBool,
    reads: Mutex<Vec<u64>>,
    writes: Mutex<Vec<u64>>,
    syncs: Mutex<Vec<u64>>,
    forces: Mutex<Vec<u64>>,
}

/// Timed device operations, in nanoseconds.
#[derive(Debug, Default)]
pub struct DeviceTimes {
    /// `read_at` durations.
    pub reads: Vec<u64>,
    /// `write_at` durations.
    pub writes: Vec<u64>,
    /// `sync` durations.
    pub syncs: Vec<u64>,
    /// WAL group forces, `AfterSwap` to `AfterSync` (write + sync).
    pub forces: Vec<u64>,
}

impl Meter {
    /// Bytes written through every device sharing this meter.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Starts or stops recording op durations.
    pub fn set_timing(&self, on: bool) {
        self.timing.store(on, Ordering::Relaxed);
    }

    /// Takes the durations recorded so far.
    pub fn take_times(&self) -> DeviceTimes {
        DeviceTimes {
            reads: std::mem::take(&mut *self.reads.lock().expect("meter lock poisoned")),
            writes: std::mem::take(&mut *self.writes.lock().expect("meter lock poisoned")),
            syncs: std::mem::take(&mut *self.syncs.lock().expect("meter lock poisoned")),
            forces: std::mem::take(&mut *self.forces.lock().expect("meter lock poisoned")),
        }
    }

    /// The force hook body: the leader thread passes `AfterSwap`, writes
    /// and syncs the group, then passes `AfterSync`.
    pub fn force_point(&self, p: ForcePoint) {
        match p {
            ForcePoint::AfterSwap => {
                let now = self.timing.load(Ordering::Relaxed).then(Instant::now);
                FORCE_START.with(|s| s.set(now));
            }
            ForcePoint::AfterSync => {
                if let Some(start) = FORCE_START.with(|s| s.take()) {
                    let ns = start.elapsed().as_nanos() as u64;
                    self.forces.lock().expect("meter lock poisoned").push(ns);
                }
            }
        }
    }

    fn timed<T>(&self, into: &Mutex<Vec<u64>>, op: impl FnOnce() -> T) -> T {
        if !self.timing.load(Ordering::Relaxed) {
            return op();
        }
        let start = Instant::now();
        let out = op();
        let ns = start.elapsed().as_nanos() as u64;
        into.lock().expect("meter lock poisoned").push(ns);
        out
    }
}

/// An [`IoDevice`] that reports to a [`Meter`] and forwards to `inner`.
pub struct MeteredDevice {
    inner: Arc<dyn IoDevice>,
    meter: Arc<Meter>,
}

impl MeteredDevice {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn IoDevice>, meter: Arc<Meter>) -> Arc<MeteredDevice> {
        Arc::new(MeteredDevice { inner, meter })
    }
}

impl IoDevice for MeteredDevice {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
        self.meter
            .timed(&self.meter.reads, || self.inner.read_at(buf, offset))
    }

    fn write_at(&self, data: &[u8], offset: u64) -> std::io::Result<()> {
        self.meter
            .bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.meter
            .timed(&self.meter.writes, || self.inner.write_at(data, offset))
    }

    fn grow_to(&self, bytes: u64) -> std::io::Result<()> {
        self.inner.grow_to(bytes)
    }

    fn sync(&self) -> std::io::Result<()> {
        self.meter.timed(&self.meter.syncs, || self.inner.sync())
    }

    fn len(&self) -> std::io::Result<u64> {
        self.inner.len()
    }
}
