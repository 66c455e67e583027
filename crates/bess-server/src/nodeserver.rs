//! The BeSS node server.
//!
//! "A BeSS node server is a BeSS server that does not own any storage
//! areas. Consequently, each BeSS node server is a client of the BeSS
//! servers that acts as a server for the local applications. The BeSS node
//! server establishes a cache on the node it is running and it is
//! responsible for fetching the data requested by the local applications
//! from the BeSS servers that own the data. In addition, the BeSS node
//! server acquires locks on behalf of the local applications and responds
//! to callback requests issued by BeSS servers." (§3)
//!
//! Local applications reach the node server two ways (§4.1):
//!
//! * **copy on access** — over the message protocol (the simulated IPC),
//!   like any remote client, but served from the node's shared cache;
//! * **shared memory** — in-process, through a [`NodeHandle`] to the
//!   node's shared cache and transactions, paying no IPC at all.
//!
//! Towards the owning servers it is just another caching client: it talks
//! upstream through the same [`Upstream`] path as a
//! [`ClientConn`](crate::ClientConn) (retrying calls, lease upkeep,
//! callback answers, commit routing) and serves its applications on the
//! same serve loop as a [`BessServer`](crate::BessServer).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bess_obs::{Counter, Group, Registry};
use bess_cache::{DbPage, GetOutcome, PageIo, SharedCache};
use bess_lock::{CacheDecision, LockCache, LockManager, LockMode, LockName, TxnId};
use bess_net::{Network, NodeId};
use bess_vm::PageStore;
use bess_wal::{LogBody, LogManager, LogPageId, Lsn};
use parking_lot::{Condvar, Mutex};

use crate::client::ClientError;
use crate::directory::Directory;
use crate::proto::{Msg, PageUpdate};
use crate::server::serve_loop;
use crate::upstream::{answer_callback, Upstream, RETRY_BASE};

/// Node-server configuration.
#[derive(Clone, Debug)]
pub struct NodeServerConfig {
    /// The node this server runs on.
    pub node: NodeId,
    /// Cache slots in the shared cache.
    pub cache_slots: usize,
    /// Virtual frames (PVMA size) — may exceed `cache_slots` (§4.1.2).
    pub cache_vframes: usize,
    /// Page size.
    pub page_size: usize,
    /// Lock timeout for local lock waits.
    pub lock_timeout: Duration,
    /// RPC timeout towards owning servers (transient failures are retried
    /// with the client's default backoff).
    pub rpc_timeout: Duration,
    /// How often the node server renews its lease at the owning servers
    /// (it holds cached locks on behalf of its applications, so a silent
    /// node server would be reaped like any other client).
    pub heartbeat_interval: Duration,
}

impl NodeServerConfig {
    /// A config with test defaults.
    pub fn new(node: NodeId) -> Self {
        NodeServerConfig {
            node,
            cache_slots: 256,
            cache_vframes: 1024,
            page_size: bess_storage::PAGE_SIZE,
            lock_timeout: Duration::from_millis(500),
            rpc_timeout: Duration::from_secs(5),
            heartbeat_interval: Duration::from_millis(500),
        }
    }
}

/// Counters kept by a node server — [`bess_obs`] handles registered under
/// the `nodeserver.` prefix of [`NodeServer::metrics`].
#[derive(Debug)]
pub struct NodeServerStats {
    /// Requests served from the shared cache without contacting a server
    /// (`nodeserver.cache_hits`).
    pub cache_hits: Counter,
    /// Pages fetched from owning servers (`nodeserver.remote_fetches`).
    pub remote_fetches: Counter,
    /// Lock requests resolved locally, node-level lock already cached
    /// (`nodeserver.lock_local`).
    pub lock_local: Counter,
    /// Lock requests forwarded to owning servers
    /// (`nodeserver.lock_remote`).
    pub lock_remote: Counter,
    /// Callbacks received from servers (`nodeserver.callbacks`).
    pub callbacks: Counter,
    /// Commits forwarded (`nodeserver.commits`).
    pub commits: Counter,
    /// Distributed (2PC) commits forwarded
    /// (`nodeserver.global_commits`).
    pub global_commits: Counter,
    /// Commits made durable on the node's local log before shipping, §6
    /// client logging (`nodeserver.local_commits`).
    pub local_commits: Counter,
    /// Locally-committed transactions re-shipped after a node restart
    /// (`nodeserver.reshipped`).
    pub reshipped: Counter,
    /// Upstream RPC retries after transient network failures
    /// (`nodeserver.retries`).
    pub retries: Counter,
}

impl NodeServerStats {
    fn new(group: &Group) -> NodeServerStats {
        NodeServerStats {
            cache_hits: group.counter("cache_hits"),
            remote_fetches: group.counter("remote_fetches"),
            lock_local: group.counter("lock_local"),
            lock_remote: group.counter("lock_remote"),
            callbacks: group.counter("callbacks"),
            commits: group.counter("commits"),
            global_commits: group.counter("global_commits"),
            local_commits: group.counter("local_commits"),
            reshipped: group.counter("reshipped"),
            retries: group.counter("retries"),
        }
    }
}

struct NsInner {
    cfg: NodeServerConfig,
    dir: Arc<Directory>,
    up: Upstream,
    cache: Arc<SharedCache>,
    /// Local strict-2PL among the node's applications.
    local_locks: LockManager,
    /// Node-level cache of locks granted by the owning servers.
    lock_cache: Arc<LockCache>,
    /// Each application's current transaction, as named by its latest
    /// begin notice; a `ReleaseAll` naming any other one is stale and
    /// ignored (see the server's `node_txns`).
    app_txns: Mutex<HashMap<u32, u64>>,
    /// §6 client logging: the node's local write-ahead log. Commits become
    /// durable here first; shipping to the owning servers is write-behind.
    local_log: Option<Arc<LogManager>>,
    /// Transactions locally committed but not yet acknowledged by their
    /// owning servers: `txn -> (commit LSN, updates)`.
    unshipped: Mutex<HashMap<u64, (Lsn, Vec<PageUpdate>)>>,
    ship_done: Condvar,
    // LINT: allow(raw-counter) — local transaction-id allocator, not a metric
    next_txn: AtomicU64,
    running: AtomicBool,
    group: Group,
    stats: NodeServerStats,
}

/// A running node server.
pub struct NodeServer {
    inner: Arc<NsInner>,
    handle: Option<JoinHandle<()>>,
}

impl NodeServer {
    /// Starts a node server on the network.
    pub fn start(
        cfg: NodeServerConfig,
        dir: Arc<Directory>,
        net: &Arc<Network<Msg>>,
    ) -> NodeServer {
        Self::start_inner(cfg, dir, net, None).0
    }

    /// Starts a node server with **client logging** (§6 of the paper): the
    /// node's local disk holds a WAL; local transactions commit as soon as
    /// their records are forced there, and the updates ship to the owning
    /// servers write-behind. On restart over an existing log, commits the
    /// servers never acknowledged are re-shipped (the node's cached server
    /// locks still guard them). Returns the server and the number of
    /// transactions re-shipped during recovery.
    pub fn start_with_log(
        cfg: NodeServerConfig,
        dir: Arc<Directory>,
        net: &Arc<Network<Msg>>,
        log: LogManager,
    ) -> (NodeServer, u64) {
        Self::start_inner(cfg, dir, net, Some(Arc::new(log)))
    }

    fn start_inner(
        cfg: NodeServerConfig,
        dir: Arc<Directory>,
        net: &Arc<Network<Msg>>,
        local_log: Option<Arc<LogManager>>,
    ) -> (NodeServer, u64) {
        let cache = SharedCache::new(cfg.cache_slots, cfg.cache_vframes, cfg.page_size);
        let group = Registry::new().group("nodeserver");
        let inner = Arc::new(NsInner {
            up: Upstream::new(
                net.caller(cfg.node),
                Arc::clone(&dir),
                None,
                cfg.rpc_timeout,
                RETRY_BASE,
                cfg.heartbeat_interval,
                &group,
            ),
            local_locks: LockManager::new(cfg.lock_timeout),
            lock_cache: Arc::new(LockCache::new()),
            app_txns: Mutex::new(HashMap::new()),
            local_log,
            unshipped: Mutex::new(HashMap::new()),
            ship_done: Condvar::new(),
            cache,
            dir,
            next_txn: AtomicU64::new(1),
            running: AtomicBool::new(true),
            stats: NodeServerStats::new(&group),
            group,
            cfg,
        });
        // Fold the node's subsystem registries into its own: one dump of
        // NodeServer::metrics shows nodeserver.*, cache.shared.*, lock.*,
        // lock.cache.* and (with client logging) wal.* together.
        {
            let reg = inner.group.registry();
            reg.adopt("", inner.cache.metrics().registry());
            reg.adopt("", inner.local_locks.metrics().registry());
            reg.adopt("", inner.lock_cache.metrics().registry());
            if let Some(log) = &inner.local_log {
                reg.adopt("", log.metrics().registry());
            }
        }
        // Node-crash recovery: re-ship locally-committed transactions the
        // owners never acknowledged.
        let reshipped = inner.recover_local_log();
        let endpoint = net.register(inner.cfg.node);
        let loop_inner = Arc::clone(&inner);
        let handle = std::thread::spawn(move || {
            let handler = Arc::clone(&loop_inner);
            // Renew this node's lease at the owning servers so its cached
            // locks aren't reaped.
            serve_loop(
                endpoint,
                &loop_inner.running,
                move |from, msg| handler.handle(from, msg),
                loop_inner.cfg.heartbeat_interval,
                || loop_inner.up.renew_leases(|| loop_inner.dir.servers()),
            )
        });
        (
            NodeServer {
                inner,
                handle: Some(handle),
            },
            reshipped,
        )
    }

    /// The node's local log, when client logging is enabled.
    pub fn local_log(&self) -> Option<&Arc<LogManager>> {
        self.inner.local_log.as_ref()
    }

    /// Blocks until every locally-committed transaction has been shipped
    /// to (and acknowledged by) its owning servers.
    pub fn drain_shipments(&self) {
        self.inner.wait_unshipped(None);
    }

    /// This node server's node id.
    pub fn node(&self) -> NodeId {
        self.inner.cfg.node
    }

    /// The node server's metric group (`nodeserver.*` in its registry).
    pub fn metrics(&self) -> &Group {
        &self.inner.group
    }

    /// Activity counters.
    pub fn stats(&self) -> &NodeServerStats {
        &self.inner.stats
    }

    /// A cloneable, owner-independent handle to this node server, for
    /// shared-memory sessions that live in the same process (§4.1.2).
    pub fn handle(&self) -> NodeHandle {
        NodeHandle(Arc::clone(&self.inner))
    }

    /// Stops the node server gracefully: pending shipments drain and every
    /// lock cached at the owning servers is released. (Dropping without
    /// calling this models a node *crash*: the servers keep the node's
    /// locks, which is exactly what §6 re-shipping relies on.)
    pub fn shutdown(self) {
        // Bounded drain: shipments that cannot complete (an owner is down)
        // stay in the local log and re-ship at the next start.
        let deadline = std::time::Instant::now() + self.inner.cfg.rpc_timeout;
        let drained = {
            let mut pending = self.inner.unshipped.lock();
            while !pending.is_empty()
                && !self
                    .inner
                    .ship_done
                    .wait_until(&mut pending, deadline)
                    .timed_out()
            {}
            pending.is_empty()
        };
        // The unshipped transactions' locks stay at the servers for safety.
        if drained {
            self.inner.up.release_cached(self.inner.lock_cache.clear());
        }
        // Dropping `self` stops the serve loop.
    }
}

impl Drop for NodeServer {
    fn drop(&mut self) {
        self.inner.running.store(false, Ordering::Relaxed);
        // Wake callbacks waiting on shipments that may never complete, so
        // the serve loop's workers can finish. Notifying under the lock
        // means a waiter has either not checked `running` yet or is parked.
        {
            let _pending = self.inner.unshipped.lock();
            self.inner.ship_done.notify_all();
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl NsInner {
    fn handle(self: &Arc<Self>, from: NodeId, msg: Msg) -> Msg {
        // Piggybacked trailers from local applications (begin notices and
        // releases) run first, in frame order; none has a reply to return.
        let (msg, trailers) = msg.split_trailers();
        self.up.caller().stats().trailers.add(trailers.len() as u64);
        for t in trailers {
            self.handle(from, t);
        }
        match msg {
            // A local application's begin notice: its transaction id is
            // its own; it only scopes the application's next `ReleaseAll`.
            Msg::BeginTxn { txn } => {
                self.app_txns.lock().insert(from.0, txn);
                Msg::Ok
            }
            Msg::Lock { name, mode } => {
                match self.lock_for(TxnId(u64::from(from.0)), name, mode) {
                    Ok(()) => Msg::Granted,
                    Err(e) => Msg::Denied(e),
                }
            }
            Msg::FetchPage { page, mode } => {
                let name = LockName::Page {
                    area: page.area,
                    page: page.page,
                };
                if let Err(e) = self.lock_for(TxnId(u64::from(from.0)), name, mode) {
                    return Msg::Denied(e);
                }
                match self.page_bytes(page) {
                    Ok(data) => Msg::PageData(data),
                    Err(e) => Msg::Err(e),
                }
            }
            Msg::ReadPage { page } => match self.page_bytes(page) {
                Ok(data) => Msg::PageData(data),
                Err(e) => Msg::Err(e),
            },
            Msg::Commit { txn, updates, .. } => {
                match self.commit_local(txn, TxnId(u64::from(from.0)), updates) {
                    Ok(()) => Msg::Ok,
                    Err(e) => Msg::Err(e),
                }
            }
            Msg::Abort { .. } => {
                self.abort_local(TxnId(u64::from(from.0)));
                Msg::Ok
            }
            Msg::ReleaseAll { txn } => {
                // Held across the release so the application's next begin
                // notice cannot slip between the check and the unlock.
                let mut current = self.app_txns.lock();
                if current.get(&from.0).is_none_or(|t| *t == txn) {
                    current.remove(&from.0);
                    self.end_local_txn(TxnId(u64::from(from.0)));
                }
                Msg::Ok
            }
            // Disk-space requests are forwarded to the owning server.
            Msg::AllocSegment { area, .. }
            | Msg::FreeSegment { area, .. }
            | Msg::ReadAt { area, .. }
            | Msg::WriteAt { area, .. } => match self.up.owner(area) {
                Ok(owner) => self
                    .up
                    .call(owner, msg)
                    .unwrap_or_else(|e| Msg::Err(e.to_string())),
                Err(e) => Msg::Err(e.to_string()),
            },
            // A server calls back a lock this node caches.
            Msg::Callback { name } | Msg::CallbackDowngrade { name, .. } => {
                self.stats.callbacks.inc();
                // A stopping node keeps what it has not shipped.
                if !self.wait_unshipped(page_of(name)) {
                    return Msg::CallbackDeferred;
                }
                answer_callback(&self.lock_cache, &msg, |name| self.purge(name))
            }
            other => Msg::Err(format!("node server got unexpected: {other:?}")),
        }
    }

    /// Two-level locking: local strict 2PL among this node's applications,
    /// plus a node-level lock at the owning server (cached between
    /// transactions).
    fn lock_for(&self, txn: TxnId, name: LockName, mode: LockMode) -> Result<(), String> {
        self.local_locks
            .lock(txn, name, mode)
            .map_err(|e| e.to_string())?;
        match self.lock_cache.acquire(txn, name, mode) {
            CacheDecision::Hit => {
                self.stats.lock_local.inc();
                Ok(())
            }
            CacheDecision::Miss { need } => {
                self.stats.lock_remote.inc();
                let reply = self
                    .up
                    .lock_owner(&name)
                    .and_then(|owner| Ok(self.up.call(owner, Msg::Lock { name, mode: need })?));
                if let Ok(Msg::Granted) = reply {
                    self.lock_cache.grant(txn, name, need);
                    return Ok(());
                }
                self.lock_cache.abandon(name);
                match reply {
                    Ok(Msg::Denied(m)) => {
                        let _ = self.local_locks.unlock(txn, name);
                        Err(m)
                    }
                    Ok(other) => Err(format!("bad reply {other:?}")),
                    Err(e) => Err(e.to_string()),
                }
            }
        }
    }

    /// Serves page bytes from the shared cache, fetching from the owning
    /// server on a miss.
    fn page_bytes(&self, page: DbPage) -> Result<Vec<u8>, String> {
        match self.cache.get(page) {
            Ok(GetOutcome::Resident { slot, frame }) => {
                self.stats.cache_hits.inc();
                let mut buf = vec![0u8; self.cfg.page_size];
                self.cache.store().read(frame, 0, &mut buf);
                self.cache.dec_access(slot);
                Ok(buf)
            }
            Ok(GetOutcome::MustLoad {
                slot,
                frame,
                evicted,
            }) => {
                // The node server never holds uncommitted data, so dirty
                // evictions cannot occur; drop clean evictions silently.
                drop(evicted);
                match self.fetch_remote(page) {
                    Ok(data) => {
                        self.cache.store().write(frame, 0, &data);
                        self.cache.finish_load(slot, page);
                        self.cache.dec_access(slot);
                        Ok(data)
                    }
                    Err(e) => {
                        self.cache.abort_load(slot, page);
                        Err(e)
                    }
                }
            }
            Err(e) => {
                // Cache saturated: serve without caching.
                let _ = e;
                self.fetch_remote(page)
            }
        }
    }

    fn fetch_remote(&self, page: DbPage) -> Result<Vec<u8>, String> {
        self.stats.remote_fetches.inc();
        let owner = self.up.owner(page.area).map_err(|e| e.to_string())?;
        match self.up.call(owner, Msg::ReadPage { page }) {
            Ok(Msg::PageData(data)) => Ok(data),
            Ok(Msg::Err(e)) => Err(e),
            Ok(other) => Err(format!("bad reply {other:?}")),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Commits a local transaction. With a local log (§6), durability is
    /// local — the updates ship to the owning servers afterwards; without
    /// one, the commit is forwarded synchronously (2PC when several
    /// servers own data).
    fn commit_for(self: &Arc<Self>, txn: u64, updates: Vec<PageUpdate>) -> Result<(), String> {
        if let Some(log) = self.local_log.clone() {
            if updates.is_empty() {
                return Ok(());
            }
            // 1. Locally durable commit.
            let begin = log.append(txn, Lsn::NULL, LogBody::Begin);
            let mut prev = begin;
            for u in &updates {
                prev = log.append(
                    txn,
                    prev,
                    LogBody::Update {
                        page: LogPageId {
                            area: u.page.area,
                            page: u.page.page,
                        },
                        offset: u.offset,
                        before: u.before.clone(),
                        after: u.after.clone(),
                    },
                );
            }
            let commit = log.append(txn, prev, LogBody::Commit);
            log.flush(commit).map_err(|e| e.to_string())?;
            self.stats.local_commits.inc();
            // 2. Refresh the shared cache now: the node is the
            //    authority for its committed transactions.
            self.refresh_cache(&updates);
            self.unshipped.lock().insert(txn, (commit, updates.clone()));
            // 3. Write-behind shipping.
            let inner = Arc::clone(self);
            std::thread::spawn(move || {
                let ok = inner.ship(txn, &updates).is_ok();
                let mut pending = inner.unshipped.lock();
                if ok {
                    if let Some((commit, _)) = pending.remove(&txn) {
                        log.append(txn, commit, LogBody::End);
                    }
                }
                inner.ship_done.notify_all();
            });
            return Ok(());
        }
        let r = self.ship(txn, &updates);
        if r.is_ok() {
            self.refresh_cache(&updates);
        }
        r
    }

    fn refresh_cache(&self, updates: &[PageUpdate]) {
        for u in updates {
            if let Some((_, frame)) = self.cache.slot_of(u.page) {
                self.cache
                    .store()
                    .write(frame, u.offset as usize, &u.after);
            }
        }
        self.cache.drain_dirty();
    }

    /// Node-restart recovery for the local log: find locally-committed
    /// transactions without a shipped (`End`) marker and re-ship them.
    fn recover_local_log(self: &Arc<Self>) -> u64 {
        let Some(log) = self.local_log.clone() else {
            return 0;
        };
        let mut txn_updates: HashMap<u64, Vec<PageUpdate>> = HashMap::new();
        let mut committed: HashMap<u64, Lsn> = HashMap::new();
        let mut shipped: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for rec in log.iter() {
            match rec.body {
                LogBody::Update {
                    page,
                    offset,
                    ref before,
                    ref after,
                } => {
                    txn_updates.entry(rec.txn).or_default().push(PageUpdate {
                        page: DbPage {
                            area: page.area,
                            page: page.page,
                        },
                        offset,
                        before: before.clone(),
                        after: after.clone(),
                    });
                }
                LogBody::Commit => {
                    committed.insert(rec.txn, rec.lsn);
                }
                LogBody::End => {
                    shipped.insert(rec.txn);
                }
                _ => {}
            }
        }
        let mut reshipped = 0;
        let mut to_ship: Vec<(u64, Lsn)> = committed
            .iter()
            .filter(|(t, _)| !shipped.contains(t))
            .map(|(&t, &l)| (t, l))
            .collect();
        to_ship.sort_by_key(|&(_, l)| l);
        for (txn, commit) in to_ship {
            let updates = txn_updates.remove(&txn).unwrap_or_default();
            if self.ship(txn, &updates).is_ok() {
                log.append(txn, commit, LogBody::End);
                reshipped += 1;
                self.stats.reshipped.inc();
            }
        }
        let _ = log.flush_all();
        reshipped
    }

    /// Ships a commit to the owning servers (2PC when several own data,
    /// coordinated by the lowest write owner).
    fn ship(&self, txn: u64, updates: &[PageUpdate]) -> Result<(), String> {
        let by_owner = self.up.by_owner(updates.to_vec()).map_err(|e| e.to_string())?;
        let gtxn = |coordinator| match self.up.call(coordinator, Msg::BeginGlobal)? {
            Msg::TxnId(g) => Ok(g),
            other => Err(ClientError::Server(format!("bad reply {other:?}"))),
        };
        let send = |to, msg: Msg| {
            if matches!(msg, Msg::CommitGlobal { .. }) {
                self.stats.global_commits.inc();
            } else {
                self.stats.commits.inc();
            }
            Ok(self.up.call(to, msg)?)
        };
        self.up
            .commit(txn, by_owner, &[], gtxn, send)
            .map_err(|e| e.to_string())
    }

    /// Callback safety under write-behind shipping: before releasing a
    /// cached lock back to a server, every locally-committed-but-unshipped
    /// transaction touching that page must reach the server, or the next
    /// reader would see stale bytes. `None` (a non-page name, or a full
    /// drain) waits for every shipment. Returns `false` if the node server
    /// stopped first.
    fn wait_unshipped(&self, page: Option<DbPage>) -> bool {
        let mut pending = self.unshipped.lock();
        while pending
            .values()
            .any(|(_, ups)| page.is_none_or(|p| ups.iter().any(|u| u.page == p)))
        {
            if !self.running.load(Ordering::Relaxed) {
                return false;
            }
            self.ship_done.wait(&mut pending);
        }
        true
    }

    /// A fresh local transaction id.
    fn begin_local(&self) -> u64 {
        let seq = self.next_txn.fetch_add(1, Ordering::Relaxed);
        (u64::from(self.cfg.node.0) << 32) | seq
    }

    /// Commits `txn`, then ends the local transaction `locker` that holds
    /// its locks (an application's node id over the wire, the transaction
    /// itself in shared memory).
    fn commit_local(
        self: &Arc<Self>,
        txn: u64,
        locker: TxnId,
        updates: Vec<PageUpdate>,
    ) -> Result<(), String> {
        let r = self.commit_for(txn, updates);
        self.end_local_txn(locker);
        r
    }

    /// Aborts: dirty (uncommitted) pages are purged so later readers
    /// refetch clean content from the owning servers.
    fn abort_local(&self, locker: TxnId) {
        for (page, _) in self.cache.drain_dirty() {
            self.cache.purge(page);
        }
        self.end_local_txn(locker);
    }

    fn end_local_txn(&self, txn: TxnId) {
        self.local_locks.unlock_all(txn);
        let released = self.lock_cache.finish_txn(txn);
        released.iter().for_each(|name| self.purge(*name));
        self.up.release_cached(released);
    }

    /// Drops the shared-cache copy of a page whose node-level lock went
    /// back to its server.
    fn purge(&self, name: LockName) {
        if let Some(page) = page_of(name) {
            self.cache.purge(page);
        }
    }
}

/// The page a lock names, if it names one.
fn page_of(name: LockName) -> Option<DbPage> {
    match name {
        LockName::Page { area, page } => Some(DbPage { area, page }),
        _ => None,
    }
}

/// A cloneable handle to a running node server, exposing the in-process
/// (shared-memory-mode) interface: "the interface provided by the node
/// server is the same in both modes, it is just the process boundaries
/// that differ" (§4.1).
#[derive(Clone)]
pub struct NodeHandle(Arc<NsInner>);

impl NodeHandle {
    /// The node server's shared cache.
    pub fn shared_cache(&self) -> &Arc<SharedCache> {
        &self.0.cache
    }

    /// A page source for shared-memory views (no IPC).
    pub fn shared_io(&self) -> Arc<dyn PageIo> {
        Arc::new(NsIo(Arc::clone(&self.0)))
    }

    /// Begins a local transaction.
    pub fn begin(&self) -> u64 {
        self.0.begin_local()
    }

    /// Acquires a lock for a local transaction.
    pub fn lock(&self, txn: u64, name: LockName, mode: LockMode) -> Result<(), String> {
        self.0.lock_for(TxnId(txn), name, mode)
    }

    /// Commits a local transaction with its page updates.
    pub fn commit(&self, txn: u64, updates: Vec<PageUpdate>) -> Result<(), String> {
        self.0.commit_local(txn, TxnId(txn), updates)
    }

    /// Aborts a local transaction.
    pub fn abort(&self, txn: u64) {
        self.0.abort_local(TxnId(txn));
    }
}

/// [`PageIo`] for shared-memory views attached to the node server's cache:
/// loads go through the node server's fetch logic (no IPC — this is the
/// in-process path); dirty write-backs never reach the servers directly
/// (commits ship diffs instead), so they are dropped.
struct NsIo(Arc<NsInner>);

impl PageIo for NsIo {
    fn load(&self, page: DbPage, buf: &mut [u8]) -> Result<(), String> {
        let data = self.0.fetch_remote(page)?;
        buf.copy_from_slice(&data[..buf.len()]);
        Ok(())
    }

    fn write_back(&self, page: DbPage, _data: &[u8]) -> Result<(), String> {
        // Uncommitted shared-cache pages must not overwrite server state;
        // the commit path ships diffs. Eviction of a dirty shared page
        // before commit would lose data, so purge-before-evict is enforced
        // by keeping dirty pages accessed (see SharedView).
        let _ = page;
        Ok(())
    }
}
