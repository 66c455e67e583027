//! Device I/O for the BeSS workspace.
//!
//! The paper's BeSS servers do synchronous I/O from their own processes
//! (§3–§4). This crate is that seam: a storage area or a WAL owns one
//! [`IoHandle`] over a pluggable [`IoDevice`] and calls it directly, on
//! the caller's thread. A device therefore observes exactly the op
//! sequence its owner issues, which is what the fault-injection matrices
//! calibrate against.
//!
//! ## Layering
//!
//! Devices compose by wrapping (middleware): the fault-injection disk in
//! `bess-storage` is itself an `IoDevice`, and its two-image
//! durable/volatile model sits beneath whatever op stream the handle
//! issues. Integrity verify/seal hooks live one layer up, in
//! `bess-storage`, which seals slots before writing and verifies them
//! after reading; see DESIGN.md §17 for the full stack.
//!
//! ## Contract
//!
//! * ops reach the device in call order; a batch call issues its ops back
//!   to back in request order;
//! * a failed op fails only its own call (or its own slot of a batch);
//! * a `sync` makes every earlier write durable;
//! * [`IoHandle::write_sync`] is write then sync, fail-fast: a failed
//!   write never reaches the sync.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod device;
pub mod handle;
pub mod retry;

pub use device::{FileDevice, IoDevice, MemDevice};
pub use handle::IoHandle;
pub use retry::{read_accumulating, read_exact_retrying, MAX_READ_RETRIES};
