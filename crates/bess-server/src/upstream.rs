//! The server-facing half of a caching client.
//!
//! To the owning servers a node server is just another caching client that
//! holds data and locks for its node's applications (§3, Figure 2). An
//! application's [`ClientConn`](crate::ClientConn) and a node server
//! therefore talk upstream the same way, through one [`Upstream`]:
//!
//! * request ids: a per-connection incarnation plus a counter, so a
//!   reconnected node is never answered from a server's dedup window with a
//!   dead incarnation's reply;
//! * one retrying call: capped exponential backoff for transient failures,
//!   except for `AllocSegment`/`FreeSegment`, which are never retried;
//! * lease upkeep: every send is noted, and a heartbeat round skips the
//!   servers that real traffic renewed within the interval;
//! * routing by owner ([`Directory::lock_owner`], or the gateway when all
//!   traffic goes through a node server), `ReleaseCached` grouped by owner;
//! * the answer to a server callback, and commit routing (`Commit` to one
//!   owner, one `CommitGlobal` carrying every branch otherwise).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bess_lock::{CallbackResponse, LockCache, LockName};
use bess_net::{Caller, NetError, NodeId};
use bess_obs::{Counter, Group};
use parking_lot::Mutex;

use crate::client::{ClientError, ClientResult};
use crate::directory::Directory;
use crate::proto::{coordinator_of, Msg, PageUpdate};

/// Transient-failure retries per upstream call before giving up.
pub(crate) const MAX_RETRIES: u32 = 3;

/// Default base delay of the retry backoff.
pub(crate) const RETRY_BASE: Duration = Duration::from_millis(10);

/// Incarnation source for request ids. Every connection — client or node
/// server — draws a distinct value, so a process that crashes and
/// reconnects under the same [`NodeId`] issues request ids disjoint from
/// its previous life and cannot be answered from the server's dedup window
/// with a dead incarnation's recorded reply. Starts at 1 so an id built
/// from it is never 0 (`req == 0` opts out of deduplication). The network
/// is in-process, so a process-wide counter covers every reconnect the
/// fault matrix can produce — deterministically, with no randomness.
// LINT: allow(raw-counter) — process-wide incarnation-id allocator, not a metric
static NEXT_INCARNATION: AtomicU64 = AtomicU64::new(1);

fn fresh_incarnation() -> u64 {
    NEXT_INCARNATION.fetch_add(1, Ordering::Relaxed)
}

/// Builds a request id from an incarnation and a per-connection sequence
/// number: incarnation in the high 32 bits, sequence in the low 32. The
/// incarnation is nonzero, so the id is never the `req == 0` opt-out.
fn make_req(incarnation: u64, seq: u64) -> u64 {
    ((incarnation & 0xFFFF_FFFF) << 32) | (seq & 0xFFFF_FFFF)
}

/// Capped exponential backoff with deterministic jitter: `base << attempt`
/// clamped to 500ms, spread by a hash of `(node, attempt)` so retrying
/// clients don't stampede in lockstep — with no randomness, so fault
/// schedules stay reproducible.
fn backoff_delay(base: Duration, attempt: u32, node: u32) -> Duration {
    let shift = attempt.saturating_sub(1).min(6);
    let capped = base
        .saturating_mul(1u32 << shift)
        .min(Duration::from_millis(500));
    let mut h = (u64::from(node) << 32) | u64::from(attempt);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    // LINT: allow(cast) — capped at 500ms, far below u64 microseconds.
    let jitter_us = h % ((capped.as_micros() as u64) / 4 + 1);
    capped + Duration::from_micros(jitter_us)
}

/// One node's path to the owning servers.
pub(crate) struct Upstream {
    caller: Caller<Msg>,
    dir: Arc<Directory>,
    /// When set, every request goes here instead of to the owner: "every
    /// request goes through" the node's node server (§3).
    gateway: Option<NodeId>,
    rpc_timeout: Duration,
    retry_base: Duration,
    heartbeat_interval: Duration,
    incarnation: u64,
    /// Low-bits request counter for the deduplicated messages (commits).
    // LINT: allow(raw-counter) — request-id allocator for idempotent retry, not a metric
    next_req: AtomicU64,
    /// Last time any message went to each server.
    last_sent: Mutex<HashMap<u32, Instant>>,
    /// Start of the last heartbeat round.
    last_heartbeat: Mutex<Instant>,
    retries: Counter,
    heartbeats: Counter,
}

impl Upstream {
    /// An upstream path sending as `caller`'s node. Its `retries` and
    /// `heartbeats` counters register in `group`.
    pub(crate) fn new(
        caller: Caller<Msg>,
        dir: Arc<Directory>,
        gateway: Option<NodeId>,
        rpc_timeout: Duration,
        retry_base: Duration,
        heartbeat_interval: Duration,
        group: &Group,
    ) -> Upstream {
        Upstream {
            caller,
            dir,
            gateway,
            rpc_timeout,
            retry_base,
            heartbeat_interval,
            incarnation: fresh_incarnation(),
            next_req: AtomicU64::new(1),
            last_sent: Mutex::new(HashMap::new()),
            last_heartbeat: Mutex::new(Instant::now()),
            retries: group.counter("retries"),
            heartbeats: group.counter("heartbeats"),
        }
    }

    /// The outbound network handle (its stats carry the `net.*` counters).
    pub(crate) fn caller(&self) -> &Caller<Msg> {
        &self.caller
    }

    /// A fresh request id for a deduplicated RPC.
    pub(crate) fn fresh_req(&self) -> u64 {
        make_req(
            self.incarnation,
            self.next_req.fetch_add(1, Ordering::Relaxed),
        )
    }

    /// Where requests about `area` go.
    pub(crate) fn owner(&self, area: u32) -> ClientResult<NodeId> {
        self.gateway
            .or_else(|| self.dir.owner(area))
            .ok_or(ClientError::NoOwner(area))
    }

    /// Where lock requests and releases for `name` go.
    pub(crate) fn lock_owner(&self, name: &LockName) -> ClientResult<NodeId> {
        self.gateway
            .or_else(|| self.dir.lock_owner(name))
            .ok_or(ClientError::NoOwner(name.area().unwrap_or_default()))
    }

    fn note_sent(&self, to: NodeId) {
        self.last_sent.lock().insert(to.0, Instant::now());
    }

    /// Sends one RPC, retrying transient transport failures with capped
    /// exponential backoff. Only requests that are idempotent (reads,
    /// locks, releases, raw I/O replays) or deduplicated by the server
    /// (commits, which carry a request id) are retried. `AllocSegment` and
    /// `FreeSegment` are neither, so they fail fast: a retried alloc whose
    /// first delivery executed leaks a segment, and a retried free can
    /// free a segment another client was handed in the meantime. A frame's
    /// trailers ride every attempt; everything sent as a trailer is
    /// idempotent, and a deduplicated carrier never re-runs its trailers.
    pub(crate) fn call(&self, to: NodeId, msg: Msg) -> Result<Msg, NetError> {
        let carrier = match &msg {
            Msg::WithTrailers { msg, .. } => msg,
            m => m,
        };
        let retryable = !matches!(carrier, Msg::AllocSegment { .. } | Msg::FreeSegment { .. });
        self.note_sent(to);
        let mut attempt = 0u32;
        loop {
            match self.caller.call(to, msg.clone(), self.rpc_timeout) {
                Err(e) if retryable && e.is_transient() && attempt < MAX_RETRIES => {
                    attempt += 1;
                    self.retries.inc();
                    std::thread::sleep(backoff_delay(
                        self.retry_base,
                        attempt,
                        self.caller.node().0,
                    ));
                }
                reply => return reply,
            }
        }
    }

    /// Sends one one-way message.
    pub(crate) fn send(&self, to: NodeId, msg: Msg) {
        let _ = self.caller.send(to, msg);
        self.note_sent(to);
    }

    /// Renews this node's lease at every server in `targets`, at most once
    /// per heartbeat interval. A server renews the lease on *every*
    /// message, so a standalone heartbeat is pure overhead wherever real
    /// traffic went within the interval — those are suppressed and counted
    /// under `net.heartbeats.suppressed`.
    pub(crate) fn renew_leases(&self, targets: impl FnOnce() -> Vec<NodeId>) {
        let now = Instant::now();
        {
            let mut last = self.last_heartbeat.lock();
            if now.duration_since(*last) < self.heartbeat_interval {
                return;
            }
            *last = now;
        }
        for t in targets() {
            let recent = self
                .last_sent
                .lock()
                .get(&t.0)
                .is_some_and(|at| now.duration_since(*at) < self.heartbeat_interval);
            if recent {
                self.caller.stats().heartbeats_suppressed.inc();
                continue;
            }
            if self.caller.send(t, Msg::Heartbeat).is_ok() {
                self.note_sent(t);
                self.heartbeats.inc();
            }
        }
    }

    /// Returns cached locks to the servers that granted them, one
    /// `ReleaseCached` per owner.
    pub(crate) fn release_cached(&self, names: Vec<LockName>) {
        let mut by_owner: HashMap<NodeId, Vec<LockName>> = HashMap::new();
        for name in names {
            if let Ok(owner) = self.lock_owner(&name) {
                by_owner.entry(owner).or_default().push(name);
            }
        }
        for (owner, names) in by_owner {
            let _ = self.call(owner, Msg::ReleaseCached { names });
        }
    }

    /// Groups commit updates by the server they go to.
    pub(crate) fn by_owner(
        &self,
        updates: Vec<PageUpdate>,
    ) -> ClientResult<HashMap<NodeId, Vec<PageUpdate>>> {
        let mut by_owner: HashMap<NodeId, Vec<PageUpdate>> = HashMap::new();
        for u in updates {
            by_owner
                .entry(self.owner(u.page.area)?)
                .or_default()
                .push(u);
        }
        Ok(by_owner)
    }

    /// Commits transaction `txn`. One write owner and no `readers` take the
    /// one-message path: `Commit` there. Otherwise a single `CommitGlobal`
    /// carrying every write branch goes to the coordinator named by the
    /// global id `gtxn` returns (it is passed the lowest write owner);
    /// `readers` — servers the transaction only read — join the round as
    /// read-only participants and release its locks when they vote. `send`
    /// carries the frame, so the caller can add its trailers.
    pub(crate) fn commit(
        &self,
        txn: u64,
        by_owner: HashMap<NodeId, Vec<PageUpdate>>,
        readers: &[NodeId],
        gtxn: impl FnOnce(NodeId) -> ClientResult<u64>,
        send: impl FnOnce(NodeId, Msg) -> ClientResult<Msg>,
    ) -> ClientResult<()> {
        let Some(lowest) = by_owner.keys().min().copied() else {
            return Ok(());
        };
        let (to, msg) = if by_owner.len() == 1 && readers.is_empty() {
            let updates = by_owner.into_values().flatten().collect();
            let req = self.fresh_req();
            (lowest, Msg::Commit { txn, updates, req })
        } else {
            let gtxn = gtxn(lowest)?;
            let mut participants: Vec<u32> = by_owner.keys().chain(readers).map(|n| n.0).collect();
            participants.sort_unstable();
            participants.dedup();
            let mut branches: Vec<(u32, Vec<PageUpdate>)> = by_owner
                .into_iter()
                .map(|(owner, updates)| (owner.0, updates))
                .collect();
            branches.sort_unstable_by_key(|(p, _)| *p);
            let msg = Msg::CommitGlobal {
                gtxn,
                participants,
                req: self.fresh_req(),
                release_read_locks: !readers.is_empty(),
                branches,
            };
            (NodeId(coordinator_of(gtxn)), msg)
        };
        match send(to, msg)? {
            Msg::Ok | Msg::Decision { committed: true } => Ok(()),
            Msg::Decision { committed: false } => Err(ClientError::GlobalAbort),
            Msg::Err(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Server(format!("bad reply {other:?}"))),
        }
    }
}

/// Answers a server's `Callback` or `CallbackDowngrade` from `cache`.
/// `purge` drops the local copy of a page whose lock was released (or was
/// never cached). A callback for a lock whose request is still in flight
/// is deferred by the cache until the grant lands.
pub(crate) fn answer_callback(cache: &LockCache, msg: &Msg, purge: impl Fn(LockName)) -> Msg {
    match *msg {
        Msg::Callback { name } => match cache.callback(name) {
            CallbackResponse::Released | CallbackResponse::NotCached => {
                purge(name);
                Msg::CallbackReleased
            }
            CallbackResponse::Deferred => Msg::CallbackDeferred,
        },
        // A downgraded page stays valid for reading: no purge.
        Msg::CallbackDowngrade { name, to } => {
            if cache.callback_downgrade(name, to) {
                Msg::CallbackReleased
            } else {
                Msg::CallbackDeferred
            }
        }
        ref other => Msg::Err(format!("unexpected message: {other:?}")),
    }
}
