//! Deterministic fault injection for the I/O seams.
//!
//! Durability code is only as credible as the crashes it has survived, so
//! this module provides a *deterministic* faulty disk that both the storage
//! areas ([`crate::StorageArea`]) and the write-ahead log can run on. A
//! [`FaultPlan`] counts I/O operations by class (read / write / sync) and
//! arms exactly one fault at the Nth operation of a class; a [`FaultDisk`]
//! consults the plan on every operation and keeps **two byte images**:
//!
//! * the *volatile* image — what the running process observes (the OS page
//!   cache): every successful write lands here immediately;
//! * the *durable* image — what survives a crash (the platter): it only
//!   catches up to the volatile image on a successful `sync`.
//!
//! The model is deliberately adversarial: writes that were never synced are
//! lost on crash, a torn write deposits only its prefix *durably* (the
//! classic partial-sector on power failure), and a dropped sync reports
//! success while leaving the durable image stale (a lying fsync). Because
//! the plan is counter-based, each fault point is exactly reproducible —
//! crash matrices enumerate `(op index, fault kind)` pairs and replay them
//! without any randomness.
//!
//! After a crash (an armed [`FaultKind::Crash`] or [`FaultKind::Torn`], or
//! an explicit [`FaultDisk::crash`]), the disk is *poisoned*: all further
//! I/O fails like file descriptors of a dead process. [`FaultDisk::reopen`]
//! then models a process restart — the volatile image is discarded and
//! reloaded from the durable one, and a fresh plan (possibly arming a fault
//! *during recovery*, for double-crash tests) is installed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bess_lock::order::{OrderedMutex, Rank};

/// The classes of I/O operation a [`FaultPlan`] counts and can fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// Any positioned read.
    Read,
    /// Any positioned write.
    Write,
    /// A durability barrier (`fsync`/`fdatasync`).
    Sync,
}

impl OpClass {
    fn index(self) -> usize {
        match self {
            OpClass::Read => 0,
            OpClass::Write => 1,
            OpClass::Sync => 2,
        }
    }
}

/// What happens when the armed operation is reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails with an I/O error; the disk stays usable.
    Eio,
    /// (Writes) only the first `keep` bytes reach **both** images, then the
    /// disk is poisoned — a torn write at the moment of a crash.
    Torn {
        /// Bytes of the write that land before the tear.
        keep: usize,
    },
    /// (Reads) the read returns at most `len` bytes instead of filling the
    /// buffer; the disk stays usable, so a retry loop will make progress.
    Short {
        /// Maximum bytes returned by the faulted read.
        len: usize,
    },
    /// (Syncs) the sync reports success but the durable image is **not**
    /// advanced — an fsync that lied.
    DropSync,
    /// The operation fails and the disk is poisoned, as if the process died
    /// at this exact I/O.
    Crash,
    /// Silent corruption: one byte at absolute disk `offset` has `mask`
    /// XOR-ed into it. On a **read** the flip lands in the returned buffer
    /// only (a transient transfer error — re-reading sees clean data); on a
    /// **write** the flip lands in the volatile image after the write
    /// applies (platter rot — it persists and reaches the durable image on
    /// the next sync). The operation reports success either way.
    BitRot {
        /// Absolute disk offset of the rotted byte.
        offset: u64,
        /// Bits to flip (XOR mask; must be nonzero to corrupt).
        mask: u8,
    },
    /// Silent misdirection: the operation is served at absolute offset `to`
    /// instead of the requested one. A misdirected **write** deposits its
    /// bytes at `to` and acks; a misdirected **read** returns the bytes
    /// stored at `to`. The classic firmware addressing bug.
    Misdirected {
        /// Absolute disk offset the operation is redirected to.
        to: u64,
    },
    /// (Writes) the write is acknowledged but never applied to either
    /// image — a lost write. Reads and syncs treat it as a no-op.
    LostWrite,
}

struct ArmedFault {
    class: OpClass,
    /// 0-based index among operations of `class`.
    at: u64,
    kind: FaultKind,
}

/// A deterministic injection plan shared by every handle onto one disk.
///
/// The plan counts operations per [`OpClass`]. Run a workload once against
/// an unarmed plan to learn how many operations it issues, then enumerate
/// `(class, n, kind)` triples, arming a fresh plan for each run.
pub struct FaultPlan {
    // LINT: allow(raw-counter) — fault-plan op counters consulted by the armed trigger, not a metric
    counts: [AtomicU64; 3],
    armed: OrderedMutex<Option<ArmedFault>>,
    // LINT: allow(raw-counter) — single-shot fault-plan trip latch, not a metric
    fired: AtomicU64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            counts: Default::default(),
            armed: OrderedMutex::new(Rank::FaultArmed, "fault.armed", None),
            fired: AtomicU64::new(0),
        }
    }
}

impl FaultPlan {
    /// A plan with no armed fault (pure operation counting).
    pub fn unarmed() -> Arc<Self> {
        Arc::new(FaultPlan::default())
    }

    /// A plan that fires `kind` at the `nth` (0-based) operation of `class`.
    pub fn armed(class: OpClass, nth: u64, kind: FaultKind) -> Arc<Self> {
        let plan = FaultPlan::default();
        *plan.armed.lock() = Some(ArmedFault {
            class,
            at: nth,
            kind,
        });
        Arc::new(plan)
    }

    /// Operations of `class` observed so far.
    pub fn ops(&self, class: OpClass) -> u64 {
        self.counts[class.index()].load(Ordering::Relaxed)
    }

    /// How many faults have fired (0 or 1; a plan disarms after firing).
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// Counts one operation of `class` and returns the fault to inject, if
    /// this is the armed operation. The plan disarms after firing so retry
    /// loops make progress.
    fn on_op(&self, class: OpClass) -> Option<FaultKind> {
        let n = self.counts[class.index()].fetch_add(1, Ordering::Relaxed);
        let mut armed = self.armed.lock();
        match armed.as_ref() {
            Some(f) if f.class == class && f.at == n => {
                let kind = f.kind;
                *armed = None;
                self.fired.fetch_add(1, Ordering::Relaxed);
                Some(kind)
            }
            _ => None,
        }
    }
}

struct Images {
    volatile: Vec<u8>,
    durable: Vec<u8>,
}

/// A byte-addressed disk with a volatile and a durable image, driven by a
/// [`FaultPlan`]. Cloneable via `Arc`; one `FaultDisk` backs one storage
/// area or one log.
pub struct FaultDisk {
    images: OrderedMutex<Images>,
    plan: OrderedMutex<Arc<FaultPlan>>,
    poisoned: std::sync::atomic::AtomicBool,
}

fn injected(msg: &str) -> std::io::Error {
    std::io::Error::other(format!("injected fault: {msg}"))
}

impl FaultDisk {
    /// An empty disk driven by `plan`.
    pub fn new(plan: Arc<FaultPlan>) -> Arc<Self> {
        Arc::new(FaultDisk {
            images: OrderedMutex::new(
                Rank::FaultImages,
                "fault.images",
                Images {
                    volatile: Vec::new(),
                    durable: Vec::new(),
                },
            ),
            plan: OrderedMutex::new(Rank::FaultPlanSlot, "fault.plan", plan),
            poisoned: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// The plan currently consulted by this disk.
    pub fn plan(&self) -> Arc<FaultPlan> {
        Arc::clone(&self.plan.lock())
    }

    /// Replaces the plan without touching the images — used after fault-free
    /// setup (formatting an area, writing the log header) so the armed
    /// operation count starts at the workload's first I/O.
    pub fn arm(&self, plan: Arc<FaultPlan>) {
        *self.plan.lock() = plan;
    }

    /// Whether a crash fault has poisoned the disk.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }

    /// Poisons the disk: every subsequent operation fails, as after process
    /// death. Unsynced (volatile-only) bytes are lost at [`Self::reopen`].
    pub fn crash(&self) {
        self.poisoned.store(true, Ordering::Relaxed);
    }

    /// Models a process restart: discards the volatile image, reloads it
    /// from the durable one, clears the poison, and installs `plan` for the
    /// next epoch (arm it to inject faults *during recovery*).
    pub fn reopen(&self, plan: Arc<FaultPlan>) {
        let mut images = self.images.lock();
        images.volatile = images.durable.clone();
        *self.plan.lock() = plan;
        self.poisoned.store(false, Ordering::Relaxed);
    }

    /// Bytes in the volatile image (what `metadata().len()` would say).
    pub fn len(&self) -> u64 {
        self.images.lock().volatile.len() as u64
    }

    /// Whether the disk holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the durable image (what a post-crash open would see).
    pub fn durable_image(&self) -> Vec<u8> {
        self.images.lock().durable.clone()
    }

    fn check_poison(&self) -> std::io::Result<()> {
        if self.is_poisoned() {
            Err(injected("backend poisoned by simulated crash"))
        } else {
            Ok(())
        }
    }

    /// Positioned read. Returns the bytes copied, which may be fewer than
    /// `buf.len()` (short read at end of disk or under an armed
    /// [`FaultKind::Short`]); `Ok(0)` means end of disk.
    pub fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
        self.check_poison()?;
        let fault = self.plan().on_op(OpClass::Read);
        match fault {
            Some(FaultKind::Eio) => return Err(injected("read EIO")),
            Some(FaultKind::Crash) | Some(FaultKind::Torn { .. }) => {
                self.crash();
                return Err(injected("crash during read"));
            }
            _ => {}
        }
        // A misdirected read is served from the wrong address.
        let src = match fault {
            Some(FaultKind::Misdirected { to }) => to,
            _ => offset,
        };
        let images = self.images.lock();
        let data = &images.volatile;
        if src >= data.len() as u64 {
            return Ok(0);
        }
        let avail = (data.len() as u64 - src) as usize;
        let mut n = buf.len().min(avail);
        if let Some(FaultKind::Short { len }) = fault {
            n = n.min(len);
        }
        buf[..n].copy_from_slice(&data[src as usize..src as usize + n]);
        drop(images);
        // Transient transfer rot: the flip lands in the caller's buffer
        // only, so an immediate re-read observes clean data.
        if let Some(FaultKind::BitRot { offset: rot, mask }) = fault {
            if rot >= offset && rot < offset + n as u64 {
                buf[(rot - offset) as usize] ^= mask;
            }
        }
        Ok(n)
    }

    /// Positioned write into the volatile image (durable only after a
    /// successful [`Self::sync`]). The image grows as needed.
    pub fn write_at(&self, data: &[u8], offset: u64) -> std::io::Result<()> {
        self.check_poison()?;
        match self.plan().on_op(OpClass::Write) {
            Some(FaultKind::Eio) => return Err(injected("write EIO")),
            Some(FaultKind::Crash) => {
                self.crash();
                return Err(injected("crash before write"));
            }
            Some(FaultKind::Torn { keep }) => {
                // The write's prefix reaches the platter as the process
                // dies: apply it to BOTH images, then poison.
                let keep = keep.min(data.len());
                let mut images = self.images.lock();
                write_into(&mut images.volatile, &data[..keep], offset);
                write_into(&mut images.durable, &data[..keep], offset);
                drop(images);
                self.crash();
                return Err(injected("torn write"));
            }
            Some(FaultKind::LostWrite) => return Ok(()), // acked, never applied
            Some(FaultKind::Misdirected { to }) => {
                // The bytes land at the wrong address and the intended
                // slot keeps its stale contents; the caller sees success.
                write_into(&mut self.images.lock().volatile, data, to);
                return Ok(());
            }
            Some(FaultKind::BitRot { offset: rot, mask }) => {
                // The write applies, then one byte rots on the platter:
                // the flip persists in the volatile image and reaches the
                // durable one on the next sync.
                let mut images = self.images.lock();
                write_into(&mut images.volatile, data, offset);
                let rot = rot as usize;
                if rot < images.volatile.len() {
                    images.volatile[rot] ^= mask;
                }
                return Ok(());
            }
            Some(FaultKind::Short { .. }) | Some(FaultKind::DropSync) | None => {}
        }
        write_into(&mut self.images.lock().volatile, data, offset);
        Ok(())
    }

    /// Extends the volatile image to at least `bytes` (like `ftruncate`
    /// growing a file). Length changes are treated as journalled metadata:
    /// the durable image grows too, zero-filled.
    pub fn grow_to(&self, bytes: u64) -> std::io::Result<()> {
        self.check_poison()?;
        let mut images = self.images.lock();
        if (images.volatile.len() as u64) < bytes {
            images.volatile.resize(bytes as usize, 0);
        }
        if (images.durable.len() as u64) < bytes {
            images.durable.resize(bytes as usize, 0);
        }
        Ok(())
    }

    /// Durability barrier: the durable image catches up to the volatile
    /// one — unless an armed [`FaultKind::DropSync`] makes it lie.
    pub fn sync(&self) -> std::io::Result<()> {
        self.check_poison()?;
        match self.plan().on_op(OpClass::Sync) {
            Some(FaultKind::Eio) => return Err(injected("sync EIO")),
            Some(FaultKind::Crash) | Some(FaultKind::Torn { .. }) => {
                self.crash();
                return Err(injected("crash during sync"));
            }
            Some(FaultKind::DropSync) => return Ok(()), // the lie
            Some(FaultKind::Short { .. })
            | Some(FaultKind::BitRot { .. })
            | Some(FaultKind::Misdirected { .. })
            | Some(FaultKind::LostWrite)
            | None => {}
        }
        let mut images = self.images.lock();
        let volatile = images.volatile.clone();
        images.durable = volatile;
        Ok(())
    }
}

/// The fault disk is an [`bess_io::IoDevice`], so it slots under an
/// [`bess_io::IoHandle`] as middleware: the two-image durable/volatile
/// model observes exactly the op stream the handle issues, which is what
/// the crash/corruption matrices — calibrated to the Nth device op per
/// [`OpClass`] — count.
impl bess_io::IoDevice for FaultDisk {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
        FaultDisk::read_at(self, buf, offset)
    }

    fn write_at(&self, data: &[u8], offset: u64) -> std::io::Result<()> {
        FaultDisk::write_at(self, data, offset)
    }

    fn grow_to(&self, bytes: u64) -> std::io::Result<()> {
        FaultDisk::grow_to(self, bytes)
    }

    fn sync(&self) -> std::io::Result<()> {
        FaultDisk::sync(self)
    }

    fn len(&self) -> std::io::Result<u64> {
        Ok(FaultDisk::len(self))
    }
}

fn write_into(image: &mut Vec<u8>, data: &[u8], offset: u64) {
    let end = offset as usize + data.len();
    if image.len() < end {
        image.resize(end, 0);
    }
    image[offset as usize..end].copy_from_slice(data);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsynced_writes_are_lost_on_crash() {
        let disk = FaultDisk::new(FaultPlan::unarmed());
        disk.write_at(b"durable", 0).unwrap();
        disk.sync().unwrap();
        disk.write_at(b"volatile", 7).unwrap();
        disk.crash();
        assert!(disk.read_at(&mut [0u8; 1], 0).is_err(), "poisoned");
        disk.reopen(FaultPlan::unarmed());
        let mut buf = vec![0u8; 16];
        let n = disk.read_at(&mut buf, 0).unwrap();
        assert_eq!(&buf[..n], b"durable", "only synced bytes survive");
    }

    #[test]
    fn nth_write_faults_exactly_once() {
        let plan = FaultPlan::armed(OpClass::Write, 1, FaultKind::Eio);
        let disk = FaultDisk::new(Arc::clone(&plan));
        disk.write_at(b"a", 0).unwrap();
        assert!(disk.write_at(b"b", 1).is_err(), "second write faults");
        disk.write_at(b"c", 1).unwrap(); // plan disarmed: retry succeeds
        assert_eq!(plan.fired(), 1);
        assert_eq!(plan.ops(OpClass::Write), 3);
    }

    #[test]
    fn torn_write_leaves_prefix_durably() {
        let plan = FaultPlan::armed(OpClass::Write, 0, FaultKind::Torn { keep: 3 });
        let disk = FaultDisk::new(plan);
        assert!(disk.write_at(b"abcdef", 0).is_err());
        assert!(disk.is_poisoned());
        disk.reopen(FaultPlan::unarmed());
        let mut buf = vec![0u8; 8];
        let n = disk.read_at(&mut buf, 0).unwrap();
        assert_eq!(&buf[..n], b"abc", "prefix survived the tear");
    }

    #[test]
    fn dropped_sync_lies() {
        let plan = FaultPlan::armed(OpClass::Sync, 0, FaultKind::DropSync);
        let disk = FaultDisk::new(plan);
        disk.write_at(b"gone", 0).unwrap();
        disk.sync().unwrap(); // reports success
        disk.crash();
        disk.reopen(FaultPlan::unarmed());
        assert_eq!(disk.len(), 0, "the 'synced' bytes were lost");
    }

    #[test]
    fn read_bit_rot_is_transient() {
        let plan = FaultPlan::armed(OpClass::Read, 0, FaultKind::BitRot { offset: 2, mask: 0x80 });
        let disk = FaultDisk::new(plan);
        disk.write_at(b"abcdef", 0).unwrap();
        let mut buf = [0u8; 6];
        disk.read_at(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"ab\xe3def", "bit 7 of byte 2 flipped");
        disk.read_at(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"abcdef", "re-read sees clean data");
    }

    #[test]
    fn write_bit_rot_persists_and_syncs() {
        let plan = FaultPlan::armed(OpClass::Write, 0, FaultKind::BitRot { offset: 1, mask: 0x01 });
        let disk = FaultDisk::new(plan);
        disk.write_at(b"abc", 0).unwrap();
        disk.sync().unwrap();
        disk.crash();
        disk.reopen(FaultPlan::unarmed());
        let mut buf = [0u8; 3];
        disk.read_at(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"ac\x63", "rot survived the sync durably");
    }

    #[test]
    fn misdirected_write_lands_at_wrong_offset() {
        let plan = FaultPlan::armed(OpClass::Write, 1, FaultKind::Misdirected { to: 0 });
        let disk = FaultDisk::new(plan);
        disk.write_at(b"aaaa", 0).unwrap();
        disk.write_at(b"bbbb", 4).unwrap(); // acked, but lands at 0
        let mut buf = [0u8; 8];
        let n = disk.read_at(&mut buf, 0).unwrap();
        assert_eq!(&buf[..n], b"bbbb", "offset 4 never got its bytes");
    }

    #[test]
    fn misdirected_read_serves_wrong_sector() {
        let plan = FaultPlan::armed(OpClass::Read, 0, FaultKind::Misdirected { to: 4 });
        let disk = FaultDisk::new(plan);
        disk.write_at(b"aaaabbbb", 0).unwrap();
        let mut buf = [0u8; 4];
        disk.read_at(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"bbbb", "served the wrong sector");
        disk.read_at(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"aaaa", "next read is clean");
    }

    #[test]
    fn lost_write_is_acked_but_never_applied() {
        let plan = FaultPlan::armed(OpClass::Write, 1, FaultKind::LostWrite);
        let disk = FaultDisk::new(plan);
        disk.write_at(b"old", 0).unwrap();
        disk.write_at(b"new", 0).unwrap(); // lost
        let mut buf = [0u8; 3];
        disk.read_at(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"old");
    }

    #[test]
    fn short_read_returns_fewer_bytes_once() {
        let plan = FaultPlan::armed(OpClass::Read, 0, FaultKind::Short { len: 2 });
        let disk = FaultDisk::new(plan);
        disk.write_at(b"abcdef", 0).unwrap();
        let mut buf = [0u8; 6];
        assert_eq!(disk.read_at(&mut buf, 0).unwrap(), 2);
        assert_eq!(disk.read_at(&mut buf, 2).unwrap(), 4, "retry completes");
    }
}
