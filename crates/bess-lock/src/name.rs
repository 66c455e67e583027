//! Lockable resource names.

use std::fmt;

/// Identifies a transaction across the whole BeSS system.
///
/// Allocated by servers; unique per server and made globally unique by the
/// caller embedding a node number in the high bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// A lockable resource in the BeSS hierarchy.
///
/// The paper locks database pages (hardware-detected, §2.3) within files and
/// databases; object-level locking was future work (§2.3) and is supported
/// here by the `Object` granule for the software-based path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LockName {
    /// A whole database.
    Database(u32),
    /// A BeSS file within a database.
    File {
        /// Owning database.
        db: u32,
        /// File number within the database.
        file: u32,
    },
    /// An object segment, identified by its slotted segment's first page.
    Segment {
        /// Storage area holding the slotted segment.
        area: u32,
        /// First page of the slotted segment.
        page: u64,
    },
    /// A single page.
    Page {
        /// Storage area holding the page.
        area: u32,
        /// Absolute page number.
        page: u64,
    },
    /// A single object (software-based object-level locking).
    Object {
        /// Storage area holding the object's slot.
        area: u32,
        /// Page of the slot.
        page: u64,
        /// Slot index within the slotted segment.
        slot: u32,
    },
}

impl LockName {
    /// The storage area the resource lives in; database and file names
    /// span areas and have none.
    pub fn area(&self) -> Option<u32> {
        match self {
            LockName::Page { area, .. }
            | LockName::Segment { area, .. }
            | LockName::Object { area, .. } => Some(*area),
            LockName::Database(_) | LockName::File { .. } => None,
        }
    }
}

impl fmt::Display for LockName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockName::Database(db) => write!(f, "db{db}"),
            LockName::File { db, file } => write!(f, "db{db}/file{file}"),
            LockName::Segment { area, page } => write!(f, "seg@{area}:{page}"),
            LockName::Page { area, page } => write!(f, "page@{area}:{page}"),
            LockName::Object { area, page, slot } => write!(f, "obj@{area}:{page}[{slot}]"),
        }
    }
}
