//! Property tests for [`IoHandle`]:
//!
//! * the device observes exactly the ops the caller issued, in call order
//!   (a batch issues its ops back to back, in request order);
//! * a failed op fails only its own call or batch slot — everything else
//!   completes normally;
//! * after a chain of writes to one offset, the last write wins.

use std::sync::{Arc, Mutex};

use bess_io::{IoDevice, IoHandle, MemDevice};
use proptest::prelude::*;

/// Offsets are page-aligned small integers so generated ops collide often.
const PAGE: u64 = 64;

/// One observed device call, for order assertions.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Observed {
    Read(u64),
    Write(u64),
    Sync,
    Grow(u64),
}

/// A device that records the order ops arrive in and fails any write whose
/// payload starts with the poison byte — the fault-injection stand-in.
struct RecordingDevice {
    inner: Arc<MemDevice>,
    log: Mutex<Vec<Observed>>,
}

const POISON: u8 = 0xFF;

impl RecordingDevice {
    fn new() -> Arc<Self> {
        Arc::new(RecordingDevice {
            inner: MemDevice::new(),
            log: Mutex::new(Vec::new()),
        })
    }

    fn observed(&self) -> Vec<Observed> {
        self.log.lock().unwrap().clone()
    }
}

impl IoDevice for RecordingDevice {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
        self.log.lock().unwrap().push(Observed::Read(offset));
        self.inner.read_at(buf, offset)
    }

    fn write_at(&self, data: &[u8], offset: u64) -> std::io::Result<()> {
        self.log.lock().unwrap().push(Observed::Write(offset));
        if data.first() == Some(&POISON) {
            return Err(std::io::Error::other("injected write fault"));
        }
        self.inner.write_at(data, offset)
    }

    fn grow_to(&self, bytes: u64) -> std::io::Result<()> {
        self.log.lock().unwrap().push(Observed::Grow(bytes));
        self.inner.grow_to(bytes)
    }

    fn sync(&self) -> std::io::Result<()> {
        self.log.lock().unwrap().push(Observed::Sync);
        self.inner.sync()
    }

    fn len(&self) -> std::io::Result<u64> {
        self.inner.len()
    }
}

/// A generated call: what kind, where, whether its write is poisoned.
#[derive(Clone, Debug)]
enum Spec {
    Read { page: u64 },
    Write { page: u64, poison: bool },
    Sync,
    Grow { pages: u64 },
    WriteSync { page: u64, poison: bool },
    WriteBatch { pages: Vec<(u64, bool)> },
}

fn payload(page: u64, poison: bool) -> Vec<u8> {
    let mut d = vec![(page % 251) as u8 + 1; PAGE as usize];
    if poison {
        d[0] = POISON;
    }
    d
}

impl Spec {
    /// The device ops this call must produce, in order.
    fn expected(&self) -> Vec<Observed> {
        match self {
            Spec::Read { page } => vec![Observed::Read(page * PAGE)],
            Spec::Write { page, .. } => vec![Observed::Write(page * PAGE)],
            Spec::Sync => vec![Observed::Sync],
            Spec::Grow { pages } => vec![Observed::Grow(pages * PAGE)],
            // Fail-fast: a poisoned write never reaches its sync.
            Spec::WriteSync { page, poison: true } => vec![Observed::Write(page * PAGE)],
            Spec::WriteSync { page, poison: false } => {
                vec![Observed::Write(page * PAGE), Observed::Sync]
            }
            Spec::WriteBatch { pages } => {
                pages.iter().map(|(p, _)| Observed::Write(p * PAGE)).collect()
            }
        }
    }

    /// Issues the call; returns one success flag per op result.
    fn issue(&self, io: &IoHandle) -> Vec<bool> {
        match self {
            Spec::Read { page } => {
                let mut buf = vec![0u8; PAGE as usize];
                vec![io.read_short(&mut buf, page * PAGE).is_ok()]
            }
            Spec::Write { page, poison } => vec![io.write(&payload(*page, *poison), page * PAGE).is_ok()],
            Spec::Sync => vec![io.sync().is_ok()],
            Spec::Grow { pages } => vec![io.grow(pages * PAGE).is_ok()],
            Spec::WriteSync { page, poison } => {
                vec![io.write_sync(&payload(*page, *poison), page * PAGE).is_ok()]
            }
            Spec::WriteBatch { pages } => {
                let writes: Vec<(u64, Vec<u8>)> =
                    pages.iter().map(|&(p, poison)| (p * PAGE, payload(p, poison))).collect();
                io.write_batch(&writes).iter().map(Result::is_ok).collect()
            }
        }
    }

    /// Which op results must fail.
    fn poisoned(&self) -> Vec<bool> {
        match self {
            Spec::Write { poison, .. } | Spec::WriteSync { poison, .. } => vec![*poison],
            Spec::WriteBatch { pages } => pages.iter().map(|&(_, poison)| poison).collect(),
            Spec::Read { .. } | Spec::Sync | Spec::Grow { .. } => vec![false],
        }
    }
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    prop_oneof![
        (0u64..8).prop_map(|page| Spec::Read { page }),
        (0u64..8, any::<bool>()).prop_map(|(page, poison)| Spec::Write { page, poison }),
        Just(Spec::Sync),
        (1u64..16).prop_map(|pages| Spec::Grow { pages }),
        (0u64..8, any::<bool>()).prop_map(|(page, poison)| Spec::WriteSync { page, poison }),
        prop::collection::vec((0u64..8, any::<bool>()), 0..5)
            .prop_map(|pages| Spec::WriteBatch { pages }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Call-order delivery + failure isolation: the device sees exactly
    /// the issued op sequence, and a poisoned op fails alone.
    #[test]
    fn faults_fail_only_their_own_op(
        specs in prop::collection::vec(spec_strategy(), 1..24),
    ) {
        let dev = RecordingDevice::new();
        let io = IoHandle::unregistered(Arc::clone(&dev) as Arc<dyn IoDevice>);
        for spec in &specs {
            let got = spec.issue(&io);
            let want: Vec<bool> = spec.poisoned().iter().map(|p| !p).collect();
            prop_assert_eq!(got, want, "op results of {:?}", spec);
        }
        let expected: Vec<Observed> = specs.iter().flat_map(Spec::expected).collect();
        prop_assert_eq!(dev.observed(), expected);
    }

    /// After a chain of writes to one offset — single calls and batches
    /// mixed — the image holds the last value written.
    #[test]
    fn last_write_wins_per_file(
        values in prop::collection::vec(1u8..251, 1..12),
        batch_from in 0usize..12,
    ) {
        let io = IoHandle::unregistered(MemDevice::new());
        let split = batch_from.min(values.len());
        for &v in &values[..split] {
            io.write(&[v; 16], 0).unwrap();
        }
        let batch: Vec<(u64, Vec<u8>)> = values[split..].iter().map(|&v| (0, vec![v; 16])).collect();
        for res in io.write_batch(&batch) {
            res.unwrap();
        }
        let mut back = [0u8; 16];
        io.read_exact(&mut back, 0).unwrap();
        prop_assert_eq!(back, [*values.last().unwrap(); 16]);
    }
}
