//! `stackbench`: the end-to-end benchmark of the BeSS client–server stack.
//!
//! One command runs one closed-loop workload for one seed against the
//! shipped `bess-server` stack inside one process — area and WAL files in
//! a scratch directory under the working directory, real `fsync`, the
//! inline I/O executor, zero wire latency, two client connections — and
//! prints every metric by name and unit:
//!
//! ```text
//! cargo run --release --manifest-path stackbench/Cargo.toml -- \
//!     --workload read_hotcold --seed 1 --seconds 40 --trace 0
//! ```
//!
//! A run sets the stack up seven times (`setup_s` is the median), warms up
//! for two seconds, then measures a steady window cut into one-second
//! slices. Each end-to-end metric ([`END_TO_END`]) is computed per slice
//! from the benchmark's own per-operation samples and reported at the
//! favourable-side decile over the slices (see `run::favourable`); the
//! p99 tails are printed with the run's facts but not gated. With
//! `--trace 1`, every other slice is traced and the run prints the
//! per-layer metrics ([`PER_LAYER`]) and the tracing overhead instead.
//! Every run ends with a restart from flushed bytes only and checks that
//! no acknowledged update was lost; it exits non-zero on any failed check.
//!
//! Workloads ([`Workload`]):
//! - `oltp_zipf`: one server, 65,536 64-byte objects on 1,024 pages, two
//!   caching clients, four zipf(0.99) objects per transaction, each
//!   written with probability 0.2. Stresses the commit path, callback
//!   locking and lock waits on hot pages.
//! - `oltp_partitioned`: `oltp_zipf` with the pages split between the two
//!   clients, so no page is shared: the commit path (WAL group force,
//!   commit apply) without callbacks or lock waits.
//! - `read_hotcold`: one server and one node server (256-slot shared
//!   cache), 4,096 stamped pages, two clients through the node-server
//!   gateway reading 8 HOTCOLD pages (7 in 8) or scanning 32 (1 in 8).
//!   Stresses the page-read path.
//! - `dist_2pc`: two servers of 4,096 pages, every transaction writes 64
//!   bytes on each, so every commit is a two-phase commit round.
//!
//! Every workload checks that no acknowledged update is lost and that
//! every read returns the bytes last committed. On the shipped stack,
//! `oltp_zipf` and `dist_2pc` fail that check (the ignored
//! `*_keeps_acknowledged_updates` self-tests name the two defects), so
//! `BENCHMARK.json` does not list them.

pub mod device;
pub mod gen;
pub mod run;
pub mod stack;
pub mod trace;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Zipf-skewed read/write transactions on one server.
    OltpZipf,
    /// Read-only HOTCOLD point reads and scans through a node server.
    ReadHotcold,
    /// Two-server write transactions, each a 2PC round.
    Dist2pc,
    /// `OltpZipf` with every page private to one client.
    OltpPartitioned,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::OltpZipf,
        Workload::OltpPartitioned,
        Workload::ReadHotcold,
        Workload::Dist2pc,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpZipf => "oltp_zipf",
            Workload::ReadHotcold => "read_hotcold",
            Workload::Dist2pc => "dist_2pc",
            Workload::OltpPartitioned => "oltp_partitioned",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// End-to-end metrics (`--trace 0`), name and unit, in print order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("txn_per_s", "txn/s"),
    ("txn_p50_us", "us"),
    ("commit_p50_us", "us"),
    ("read_p50_us", "us"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`), name and unit, in print order. Each
/// group's comment names the layer and the end-to-end metric and workload
/// a change to that layer should move; on the other workload the
/// prediction is no change.
pub const PER_LAYER: &[(&str, &str)] = &[
    // client (bess-server ClientConn), spans and registry:
    // txn_p50_us, txn_per_s on oltp_partitioned
    ("client.begin_us", "us"),
    ("client.fetch_us", "us"),
    ("client.commit_us", "us"),
    ("client.txn_self_us", "us"),
    ("client.fetch_rpcs_per_txn", "ratio"),
    ("client.lock_cache_hit_ratio", "ratio"),
    ("client.retries", "count"),
    // wire (bess-net): txn_per_s, read_p50_us on read_hotcold
    ("net.msgs_per_txn", "ratio"),
    ("net.trailers_per_txn", "ratio"),
    ("net.heartbeats_suppressed", "count"),
    // server dispatch (bess-server BessServer): commit_p50_us on
    // oltp_partitioned
    ("server.fetches_per_txn", "ratio"),
    ("server.callbacks_per_txn", "ratio"),
    ("server.commit_ns_mean", "ns"),
    // two-phase commit (bess-server): zero on both listed workloads;
    // commit_p50_us on dist_2pc once it can be listed
    ("server.2pc.prepares_per_commit", "ratio"),
    ("server.2pc.prepare_batch_avg", "ratio"),
    ("server.2pc.oneway_decides_per_commit", "ratio"),
    // node server and shared cache (bess-server NodeServer, bess-cache):
    // read_p50_us, txn_per_s on read_hotcold; zero on oltp_partitioned
    ("cache.shared.hit_ratio", "ratio"),
    ("cache.shared.evictions_per_read", "ratio"),
    ("nodeserver.remote_fetches_per_read", "ratio"),
    ("cache.shared.lookup_ns_mean", "ns"),
    // lock manager (bess-lock): no waits on either listed workload;
    // txn_p50_us on oltp_zipf once it can be listed
    ("lock.waits_per_request", "ratio"),
    ("lock.wait_ns_mean", "ns"),
    ("lock.timeouts", "count"),
    // WAL (bess-wal), registry and force hook: commit_p50_us on
    // oltp_partitioned; idle on read_hotcold
    ("wal.flushes_per_commit", "ratio"),
    ("wal.group_size_avg", "ratio"),
    ("wal.append_bytes_per_commit", "B"),
    ("wal.force_us", "us"),
    // I/O runtime (bess-io): read_p50_us on read_hotcold, commit_p50_us
    // on oltp_partitioned
    ("io.batch_size_avg", "ratio"),
    ("io.op_ns_mean", "ns"),
    // storage (bess-storage) and the metered device: read_p50_us on
    // read_hotcold, commit_p50_us on oltp_partitioned
    ("storage.page_reads_per_read", "ratio"),
    ("storage.page_writes_per_commit", "ratio"),
    ("storage.verify_failures", "count"),
    ("device.read_us", "us"),
    ("device.write_us", "us"),
    ("device.sync_us", "us"),
    ("device.bytes_written_per_commit", "B"),
    // whole-system figures that are zero by design or undefined on
    // read-only work, so they cannot carry an end-to-end bound
    ("write_amp", "ratio"),
    ("abort_pct", "%"),
    ("acked_lost", "count"),
    // the tracing itself
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];
