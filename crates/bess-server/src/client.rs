//! The client connection: transactions, lock caching, callbacks.
//!
//! A [`ClientConn`] is one application machine's attachment to the BeSS
//! world. It speaks the [`Msg`] protocol to whichever server owns the data
//! (per the [`Directory`]), caches locks between transactions when
//! `caching` is on (the §3 inter-transaction caching that callback locking
//! makes consistent), answers server callbacks from a listener thread, and
//! keeps a local *overlay* of dirty pages so uncommitted state never
//! reaches a server before commit.
//!
//! It also implements [`PageIo`] (cache fills / write-backs for the
//! client's buffer pools) and [`DiskSpace`] (disk allocation and raw byte
//! I/O over RPC), which lets the entire `bess-segment` object machinery run
//! unchanged on a remote client.
//!
//! Its server-facing half — request ids, the retrying call, lease upkeep,
//! routing, callback answers and commit routing — is the [`Upstream`] it
//! shares with the node server; what stays here is transaction-scoped.
//!
//! The conversation with the servers is kept short:
//!
//! * transaction ids are allocated here, and a transaction's first frame
//!   to each server carries a [`Msg::BeginTxn`] notice as a trailer (a
//!   draining server refuses that frame);
//! * a non-caching client's end-of-transaction `ReleaseAll` rides the next
//!   frame to that server as a trailer, or goes out one-way from the
//!   listener's idle tick once it has waited a heartbeat interval. It names
//!   the transaction it ends, so a server that has already seen a later
//!   transaction's begin notice ignores it;
//! * a distributed commit is one [`Msg::CommitGlobal`] frame to the home
//!   server carrying every write branch; its global id comes from a small
//!   pool refilled by a `BeginGlobal` trailer on that same frame;
//! * a non-caching client enrols every server it touched in the round, so
//!   read-only participants release its locks when they vote. A caching
//!   client's locks outlive the transaction, so it never does this.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bess_cache::{DbPage, PageIo};
use bess_obs::{Counter, Group, LatencyHistogram, Registry};
use bess_lock::{CacheDecision, LockCache, LockMode, LockName, TxnId};
use bess_net::{NetError, Network, NodeId};
use bess_storage::{AreaId, DiskPtr, DiskSpace, StorageError, StorageResult};
use parking_lot::{Mutex, RwLock};

use crate::directory::Directory;
use crate::proto::{Msg, PageUpdate};
use crate::upstream::{answer_callback, Upstream, RETRY_BASE};

/// Hook invoked when a callback releases a cached lock.
pub type PurgeHook = Arc<dyn Fn(LockName) + Send + Sync>;

/// Errors from client operations.
#[derive(Debug)]
pub enum ClientError {
    /// The network failed.
    Net(NetError),
    /// A lock was denied (deadlock timeout).
    Denied(String),
    /// The server reported an error.
    Server(String),
    /// No transaction is active.
    NoTxn,
    /// No server owns the addressed area.
    NoOwner(u32),
    /// The distributed commit aborted.
    GlobalAbort,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Net(e) => write!(f, "network error: {e}"),
            ClientError::Denied(m) => write!(f, "lock denied: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::NoTxn => write!(f, "no active transaction"),
            ClientError::NoOwner(a) => write!(f, "no server owns area {a}"),
            ClientError::GlobalAbort => write!(f, "distributed commit aborted"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<NetError> for ClientError {
    fn from(e: NetError) -> Self {
        ClientError::Net(e)
    }
}

/// Result alias for client operations.
pub type ClientResult<T> = Result<T, ClientError>;

/// Client configuration.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// This client machine's node id.
    pub node: NodeId,
    /// The first server connected to — the 2PC coordinator for this
    /// client's distributed transactions (§3).
    pub home: NodeId,
    /// Whether data and locks are cached *between* transactions (clients
    /// with a node server / server on their machine). Without caching,
    /// locks are released and the cache is purged at end of transaction
    /// (§3, applications like the one on node 1 of Figure 2).
    pub caching: bool,
    /// RPC timeout.
    pub rpc_timeout: Duration,
    /// Page size (must match the servers').
    pub page_size: usize,
    /// When the application runs on a node with a node server, *every*
    /// request goes through it: "applications running on nodes with a BeSS
    /// server or a node server can access the entire distributed database
    /// space by communicating only with the local BeSS server or node
    /// server" (§3).
    pub gateway: Option<NodeId>,
    /// How often the listener thread renews this client's lease at every
    /// server it has touched. Must be well under the servers'
    /// `lease_duration` or an idle client gets reaped.
    pub heartbeat_interval: Duration,
    /// Base delay for the capped exponential retry backoff.
    pub retry_base: Duration,
}

impl ClientConfig {
    /// A config with test defaults.
    pub fn new(node: NodeId, home: NodeId) -> Self {
        ClientConfig {
            node,
            home,
            caching: true,
            rpc_timeout: Duration::from_secs(5),
            page_size: bess_storage::PAGE_SIZE,
            gateway: None,
            heartbeat_interval: Duration::from_millis(500),
            retry_base: RETRY_BASE,
        }
    }
}

/// Counters kept by a client connection — [`bess_obs`] handles registered
/// under the `client.` prefix of [`ClientConn::metrics`].
#[derive(Debug)]
pub struct ClientStats {
    /// Lock RPCs sent, cache misses (`client.lock_rpcs`).
    pub lock_rpcs: Counter,
    /// Lock requests served from the lock cache
    /// (`client.lock_cache_hits`).
    pub lock_cache_hits: Counter,
    /// Combined fetch (lock+data) RPCs (`client.fetch_rpcs`).
    pub fetch_rpcs: Counter,
    /// Data-only read RPCs (`client.read_rpcs`).
    pub read_rpcs: Counter,
    /// Commits acknowledged to the caller (`client.commits`). Failed
    /// commit attempts count under [`ClientStats::commit_failures`]
    /// instead — the scenario harness cross-checks acked client commits
    /// against server commits, which a combined counter double-counts.
    pub commits: Counter,
    /// Commit attempts that returned an error — server rejection, global
    /// abort, or exhausted retries (`client.commit_failures`).
    pub commit_failures: Counter,
    /// Aborts performed (`client.aborts`).
    pub aborts: Counter,
    /// Callbacks received (`client.callbacks`).
    pub callbacks: Counter,
    /// RPC retries after transient network failures (`client.retries`).
    pub retries: Counter,
    /// Heartbeats sent (`client.heartbeats`).
    pub heartbeats: Counter,
}

impl ClientStats {
    fn new(group: &Group) -> ClientStats {
        ClientStats {
            lock_rpcs: group.counter("lock_rpcs"),
            lock_cache_hits: group.counter("lock_cache_hits"),
            fetch_rpcs: group.counter("fetch_rpcs"),
            read_rpcs: group.counter("read_rpcs"),
            commits: group.counter("commits"),
            commit_failures: group.counter("commit_failures"),
            aborts: group.counter("aborts"),
            callbacks: group.counter("callbacks"),
            retries: group.counter("retries"),
            heartbeats: group.counter("heartbeats"),
        }
    }
}

/// A client machine's connection to the BeSS servers.
pub struct ClientConn {
    cfg: ClientConfig,
    up: Upstream,
    lock_cache: Arc<LockCache>,
    overlay: Mutex<HashMap<DbPage, Vec<u8>>>,
    current_txn: Mutex<Option<u64>>,
    servers_touched: Mutex<HashSet<NodeId>>,
    /// Servers the active transaction has already contacted: each one got
    /// its begin notice.
    txn_contacts: Mutex<HashSet<NodeId>>,
    /// Called when a callback releases a page lock so the owning pool can
    /// drop its copy of the page (cache consistency).
    purge_hook: RwLock<Option<PurgeHook>>,
    /// Lock mode used for implicit read fetches (S by default; IS when the
    /// session runs software object-level locking and serialises on object
    /// locks instead).
    read_mode: Mutex<LockMode>,
    /// Sequence for client-allocated transaction ids.
    // LINT: allow(raw-counter) — txn-id allocator, not a metric
    next_local_txn: AtomicU64,
    /// Prefetched global transaction ids, refilled from `TxnId` reply
    /// trailers.
    gtxn_pool: Mutex<Vec<u64>>,
    /// Servers owed a `ReleaseAll` (non-caching clients), with the
    /// transaction it ends and the time the debt was incurred; paid as a
    /// trailer on the next message there, or flushed by the listener's idle
    /// tick once it has waited a heartbeat interval without finding a
    /// carrier.
    pending_releases: Mutex<HashMap<NodeId, (u64, Instant)>>,
    /// Servers whose locks a read-only 2PC vote already released;
    /// end-of-transaction skips them.
    released_by_vote: Mutex<HashSet<NodeId>>,
    running: Arc<AtomicBool>,
    listener: Mutex<Option<JoinHandle<()>>>,
    group: Group,
    stats: ClientStats,
    /// Full client-observed round-trip of a commit RPC, send to reply
    /// (`client.commit.rtt.ns`).
    commit_rtt_ns: LatencyHistogram,
}

impl ClientConn {
    /// Connects to the network and starts the callback listener.
    pub fn connect(
        net: &Arc<Network<Msg>>,
        dir: Arc<Directory>,
        cfg: ClientConfig,
    ) -> Arc<ClientConn> {
        let endpoint = net.register(cfg.node);
        let group = Registry::new().group("client");
        let conn = Arc::new(ClientConn {
            up: Upstream::new(
                net.caller(cfg.node),
                dir,
                cfg.gateway,
                cfg.rpc_timeout,
                cfg.retry_base,
                cfg.heartbeat_interval,
                &group,
            ),
            cfg,
            lock_cache: Arc::new(LockCache::new()),
            overlay: Mutex::new(HashMap::new()),
            current_txn: Mutex::new(None),
            servers_touched: Mutex::new(HashSet::new()),
            txn_contacts: Mutex::new(HashSet::new()),
            purge_hook: RwLock::new(None),
            read_mode: Mutex::new(LockMode::S),
            next_local_txn: AtomicU64::new(1),
            gtxn_pool: Mutex::new(Vec::new()),
            pending_releases: Mutex::new(HashMap::new()),
            released_by_vote: Mutex::new(HashSet::new()),
            running: Arc::new(AtomicBool::new(true)),
            listener: Mutex::new(None),
            stats: ClientStats::new(&group),
            commit_rtt_ns: group.histogram("commit.rtt.ns"),
            group,
        });
        // One dump of ClientConn::metrics shows client.* beside the
        // lock.cache.* counters that explain its RPC savings.
        conn.group
            .registry()
            .adopt("", conn.lock_cache.metrics().registry());
        let listener_conn = Arc::clone(&conn);
        let running = Arc::clone(&conn.running);
        let handle = std::thread::spawn(move || {
            while running.load(Ordering::Relaxed) {
                match endpoint.recv(Duration::from_millis(50)) {
                    Ok(env) => {
                        let reply = listener_conn.handle_callback(&env.msg);
                        env.reply(reply);
                    }
                    Err(NetError::Timeout) => {
                        // Idle tick: pay release debts that found no
                        // carrier, then renew our lease at every server
                        // that could be holding state for us.
                        listener_conn.flush_stale_releases();
                        listener_conn.up.renew_leases(|| {
                            let mut targets: HashSet<NodeId> =
                                listener_conn.servers_touched.lock().clone();
                            targets.insert(
                                listener_conn.cfg.gateway.unwrap_or(listener_conn.cfg.home),
                            );
                            targets.into_iter().collect()
                        });
                    }
                    Err(_) => break,
                }
            }
        });
        *conn.listener.lock() = Some(handle);
        conn
    }

    /// This client's node id.
    pub fn node(&self) -> NodeId {
        self.cfg.node
    }

    /// The page size.
    pub fn page_size(&self) -> usize {
        self.cfg.page_size
    }

    /// The connection's metric group (`client.*` in its registry).
    pub fn metrics(&self) -> &Group {
        &self.group
    }

    /// Activity counters.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// The client's lock cache (for inspection in tests/benches).
    pub fn lock_cache(&self) -> &Arc<LockCache> {
        &self.lock_cache
    }

    /// Registers the hook called when a callback releases a lock (the
    /// session layer evicts the page from its buffer pool here).
    pub fn set_purge_hook(&self, hook: Option<PurgeHook>) {
        *self.purge_hook.write() = hook;
    }

    /// Sets the lock mode used by implicit read fetches ([`RemoteIo`]).
    pub fn set_read_mode(&self, mode: LockMode) {
        *self.read_mode.lock() = mode;
    }

    /// The current implicit read-fetch mode.
    pub fn read_mode(&self) -> LockMode {
        *self.read_mode.lock()
    }

    fn handle_callback(&self, msg: &Msg) -> Msg {
        self.stats.callbacks.inc();
        answer_callback(&self.lock_cache, msg, |name| {
            if let Some(hook) = self.purge_hook.read().clone() {
                hook(name);
            }
        })
    }

    /// Sends any `ReleaseAll` debts that have waited longer than a
    /// heartbeat interval without a carrier message to ride on.
    fn flush_stale_releases(&self) {
        let now = Instant::now();
        let stale: Vec<(NodeId, u64)> = {
            let mut pending = self.pending_releases.lock();
            let stale: Vec<(NodeId, u64)> = pending
                .iter()
                .filter(|(_, (_, since))| {
                    now.duration_since(*since) >= self.cfg.heartbeat_interval
                })
                .map(|(n, (txn, _))| (*n, *txn))
                .collect();
            for (n, _) in &stale {
                pending.remove(n);
            }
            stale
        };
        for (server, txn) in stale {
            // One-way is enough: `ReleaseAll` is idempotent and renews the
            // lease like any other message. It may race the next
            // transaction's first frame there; the server ignores it if
            // that frame's begin notice wins.
            self.up.send(server, Msg::ReleaseAll { txn });
        }
    }

    /// Trailers owed to `to` that should ride the next frame there: a
    /// `ReleaseAll` debt, and the begin notice when `msg` is the active
    /// transaction's first contact with `to`. (An abort notice is not a
    /// contact: it carries no work for the server.)
    fn take_trailers_for(&self, to: NodeId, msg: &Msg) -> Vec<Msg> {
        let mut trailers = Vec::new();
        if let Some((txn, _)) = self.pending_releases.lock().remove(&to) {
            trailers.push(Msg::ReleaseAll { txn });
        }
        if let Some(txn) = self.current_txn() {
            if !matches!(msg, Msg::Abort { .. }) && self.txn_contacts.lock().insert(to) {
                trailers.push(Msg::BeginTxn { txn });
            }
        }
        trailers
    }

    /// Absorbs a reply's trailers (gtxn-pool refills), returning the
    /// carrier reply.
    fn absorb_reply(&self, reply: Msg) -> Msg {
        let (reply, trailers) = reply.split_trailers();
        self.up.caller().stats().trailers.add(trailers.len() as u64);
        for t in trailers {
            if let Msg::TxnId(g) = t {
                self.gtxn_pool.lock().push(g);
            }
        }
        reply
    }

    /// Sends one RPC through the upstream path (which retries transient
    /// failures; see [`Upstream::call`]).
    fn rpc(&self, to: NodeId, msg: Msg) -> ClientResult<Msg> {
        self.rpc_with_trailers(to, msg, Vec::new())
    }

    /// [`Self::rpc`] with caller-supplied trailers riding the same frame
    /// (any `ReleaseAll` debt and begin notice for `to` join them).
    fn rpc_with_trailers(
        &self,
        to: NodeId,
        msg: Msg,
        mut trailers: Vec<Msg>,
    ) -> ClientResult<Msg> {
        self.servers_touched.lock().insert(to);
        // Piggyback any control debt for this server on the frame.
        trailers.extend(self.take_trailers_for(to, &msg));
        let noticed = trailers.iter().any(|t| matches!(t, Msg::BeginTxn { .. }));
        match self.up.call(to, Msg::with_trailers(msg, trailers)) {
            Ok(reply) => {
                let reply = self.absorb_reply(reply);
                if noticed && matches!(reply, Msg::Err(_)) {
                    // A refused notice refuses its carrier: the
                    // transaction was not admitted there, so the next
                    // frame carries the notice again (and a draining
                    // server refuses that one too).
                    self.txn_contacts.lock().remove(&to);
                }
                Ok(reply)
            }
            Err(e) => {
                if noticed {
                    // The notice may never have arrived: the next frame
                    // there carries it again.
                    self.txn_contacts.lock().remove(&to);
                }
                Err(e.into())
            }
        }
    }

    // ---- transactions ----------------------------------------------------

    /// Begins a transaction. The id is allocated locally — top bit set,
    /// node in bits 32..62 — so no server-issued id can collide with it,
    /// and no message is sent: each server learns of the transaction from
    /// the begin notice on its first frame there.
    pub fn begin(&self) -> ClientResult<u64> {
        let seq = self.next_local_txn.fetch_add(1, Ordering::Relaxed);
        let t = (1u64 << 63) | (u64::from(self.cfg.node.0) << 32) | (seq & 0xFFFF_FFFF);
        self.txn_contacts.lock().clear();
        *self.current_txn.lock() = Some(t);
        Ok(t)
    }

    /// The active transaction, if any.
    pub fn current_txn(&self) -> Option<u64> {
        *self.current_txn.lock()
    }

    /// Acquires `mode` on `name` for the active transaction, consulting the
    /// lock cache first (§3: "data and locks accessed by a transaction
    /// remain cached on the client").
    pub fn lock(&self, name: LockName, mode: LockMode) -> ClientResult<()> {
        let txn = self.current_txn().ok_or(ClientError::NoTxn)?;
        match self.lock_cache.acquire(TxnId(txn), name, mode) {
            CacheDecision::Hit => {
                self.stats.lock_cache_hits.inc();
                Ok(())
            }
            CacheDecision::Miss { need } => {
                self.stats.lock_rpcs.inc();
                let owner = self.up.lock_owner(&name);
                self.remote_acquire(txn, name, need, owner, Msg::Lock { name, mode: need })
                    .map(drop)
            }
        }
    }

    /// Fetches a page under `mode`, combining lock acquisition and data
    /// transfer in one message on a lock-cache miss.
    pub fn fetch_page(&self, page: DbPage, mode: LockMode) -> ClientResult<Vec<u8>> {
        let txn = self.current_txn().ok_or(ClientError::NoTxn)?;
        // Uncommitted local state shadows the server.
        if let Some(data) = self.overlay.lock().get(&page) {
            let data = data.clone();
            self.lock(
                LockName::Page {
                    area: page.area,
                    page: page.page,
                },
                mode,
            )?;
            return Ok(data);
        }
        let name = LockName::Page {
            area: page.area,
            page: page.page,
        };
        match self.lock_cache.acquire(TxnId(txn), name, mode) {
            CacheDecision::Hit => {
                self.stats.lock_cache_hits.inc();
                self.read_page(page)
            }
            CacheDecision::Miss { need } => {
                self.stats.fetch_rpcs.inc();
                let owner = self.up.owner(page.area);
                let msg = Msg::FetchPage { page, mode: need };
                match self.remote_acquire(txn, name, need, owner, msg)? {
                    Msg::PageData(data) => Ok(data),
                    other => Err(refusal(Ok(other))),
                }
            }
        }
    }

    /// Sends `msg`, a request for lock `name` in mode `need` that missed
    /// the lock cache, to `owner`. A grant lands in the cache; any other
    /// outcome ends the cache's in-flight request.
    fn remote_acquire(
        &self,
        txn: u64,
        name: LockName,
        need: LockMode,
        owner: ClientResult<NodeId>,
        msg: Msg,
    ) -> ClientResult<Msg> {
        match owner.and_then(|owner| self.rpc(owner, msg)) {
            Ok(reply @ (Msg::Granted | Msg::PageData(_))) => {
                self.lock_cache.grant(TxnId(txn), name, need);
                Ok(reply)
            }
            other => {
                self.lock_cache.abandon(name);
                Err(refusal(other))
            }
        }
    }

    /// Reads a page without locking (the lock is already held/cached).
    pub fn read_page(&self, page: DbPage) -> ClientResult<Vec<u8>> {
        if let Some(data) = self.overlay.lock().get(&page) {
            return Ok(data.clone());
        }
        self.stats.read_rpcs.inc();
        let owner = self.up.owner(page.area)?;
        match self.rpc(owner, Msg::ReadPage { page })? {
            Msg::PageData(data) => Ok(data),
            Msg::Err(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Server(format!("bad reply {other:?}"))),
        }
    }

    /// Commits the active transaction with the given page updates. Groups
    /// updates by owning server; multiple owners — or, for a non-caching
    /// client, one owner plus servers it only read — trigger two-phase
    /// commit through the home server (§3).
    pub fn commit(&self, updates: Vec<PageUpdate>) -> ClientResult<()> {
        let txn = self.current_txn().ok_or(ClientError::NoTxn)?;
        // Times the whole commit conversation — single-server fast path or
        // coordinated 2PC — as the client observes it, retries included.
        let _timer = self.commit_rtt_ns.start();
        let by_owner = self.up.by_owner(updates)?;
        let result = self.ship(txn, by_owner);
        // Only an acknowledged commit counts as a commit; a rejection or
        // global abort is a distinct outcome (previously both paths bumped
        // `client.commits`, so the counter drifted from reality under
        // faults).
        if result.is_ok() {
            self.stats.commits.inc();
        } else {
            self.stats.commit_failures.inc();
        }
        self.end_txn(txn)?;
        result
    }

    /// Routes the commit through [`Upstream::commit`]. A non-caching
    /// transaction that also *read* from servers it does not write enrols
    /// them, so they join a 2PC round as read-only participants and shed
    /// its locks at phase 1 instead of waiting for a `ReleaseAll`. A
    /// distributed commit's global id comes from the prefetched pool (a
    /// `BeginGlobal` trailer on the commit frame refills it; an empty pool
    /// costs one explicit round trip to the home server).
    fn ship(&self, txn: u64, by_owner: HashMap<NodeId, Vec<PageUpdate>>) -> ClientResult<()> {
        let readers: Vec<NodeId> = if self.effective_caching() {
            Vec::new()
        } else {
            let touched = self.servers_touched.lock();
            touched
                .iter()
                .filter(|s| !by_owner.contains_key(s))
                .copied()
                .collect()
        };
        let gtxn = |_| match self.gtxn_pool.lock().pop() {
            Some(g) => Ok(g),
            None => match self.rpc(self.cfg.home, Msg::BeginGlobal)? {
                Msg::TxnId(g) => Ok(g),
                other => Err(ClientError::Server(format!("bad reply {other:?}"))),
            },
        };
        let send = |to, msg| {
            let mut trailers = Vec::new();
            if matches!(msg, Msg::CommitGlobal { .. }) && self.gtxn_pool.lock().is_empty() {
                trailers.push(Msg::BeginGlobal);
            }
            self.rpc_with_trailers(to, msg, trailers)
        };
        let result = self.up.commit(txn, by_owner, &readers, gtxn, send);
        if matches!(result, Ok(()) | Err(ClientError::GlobalAbort)) {
            // Phase 1 ran whatever the outcome: the read-only participants
            // released our locks when they voted, so the end-of-transaction
            // ReleaseAll skips them. Write participants keep our grants.
            self.released_by_vote.lock().extend(readers);
        }
        result
    }

    /// Aborts the active transaction: uncommitted pages are discarded and
    /// (for non-caching clients) locks released.
    pub fn abort(&self) -> ClientResult<()> {
        let txn = self.current_txn().ok_or(ClientError::NoTxn)?;
        let _ = self.rpc(self.cfg.home, Msg::Abort { txn });
        self.stats.aborts.inc();
        self.end_txn(txn)
    }

    /// Whether this connection caches locks between transactions. Behind
    /// a node-server gateway the answer is always no: the *node server*
    /// performs the inter-transaction caching (§3), and it releases its
    /// local application locks at end of transaction — a client-side cache
    /// would bypass that and lose serialisation.
    fn effective_caching(&self) -> bool {
        self.cfg.caching && self.cfg.gateway.is_none()
    }

    fn end_txn(&self, txn: u64) -> ClientResult<()> {
        self.overlay.lock().clear();
        *self.current_txn.lock() = None;
        self.txn_contacts.lock().clear();
        if self.effective_caching() {
            // Locks stay cached; answer deferred callbacks now.
            let released = self.lock_cache.finish_txn(TxnId(txn));
            if let Some(hook) = self.purge_hook.read().clone() {
                released.iter().for_each(|name| hook(*name));
            }
            self.up.release_cached(released);
        } else {
            // Transaction-duration caching (§3): drop everything. Servers
            // whose read-only 2PC vote already released our locks are
            // skipped; the rest become debts paid as trailers on the next
            // frame there (the listener's idle tick is the fallback
            // carrier).
            self.lock_cache.clear();
            let released: HashSet<NodeId> =
                std::mem::take(&mut *self.released_by_vote.lock());
            let touched: Vec<NodeId> = self.servers_touched.lock().drain().collect();
            for server in touched {
                if released.contains(&server) {
                    continue;
                }
                self.pending_releases
                    .lock()
                    .insert(server, (txn, Instant::now()));
            }
        }
        Ok(())
    }

    /// Disconnects: stops the listener and releases every cached lock
    /// (deferred release debts are paid immediately).
    pub fn disconnect(&self) {
        let owed: Vec<(NodeId, u64)> = self
            .pending_releases
            .lock()
            .drain()
            .map(|(n, (txn, _))| (n, txn))
            .collect();
        for (server, txn) in owed {
            let _ = self.up.call(server, Msg::ReleaseAll { txn });
        }
        self.up.release_cached(self.lock_cache.clear());
        self.stop_listener();
    }

    fn stop_listener(&self) {
        self.running.store(false, Ordering::Relaxed);
        if let Some(h) = self.listener.lock().take() {
            let _ = h.join();
        }
    }

    /// Stores uncommitted page content locally (buffer-pool eviction of a
    /// dirty page mid-transaction lands here, never at the server).
    pub fn overlay_put(&self, page: DbPage, data: Vec<u8>) {
        self.overlay.lock().insert(page, data);
    }

    /// Current overlay content of a page.
    pub fn overlay_get(&self, page: DbPage) -> Option<Vec<u8>> {
        self.overlay.lock().get(&page).cloned()
    }

    /// Pages currently shadowed by the overlay.
    pub fn overlay_pages(&self) -> Vec<DbPage> {
        self.overlay.lock().keys().copied().collect()
    }
}

/// The error for a lock or fetch request that was not granted.
fn refusal(reply: ClientResult<Msg>) -> ClientError {
    match reply {
        Ok(Msg::Denied(m)) => ClientError::Denied(m),
        Ok(Msg::Err(e)) => ClientError::Server(e),
        Ok(other) => ClientError::Server(format!("bad reply {other:?}")),
        Err(e) => e,
    }
}

impl Drop for ClientConn {
    fn drop(&mut self) {
        self.stop_listener();
    }
}

/// [`PageIo`] over a client connection: loads consult the uncommitted
/// overlay, then fetch from the owning server with an S page lock when a
/// transaction is active; write-backs of dirty pages go to the overlay
/// (uncommitted data never reaches a server).
pub struct RemoteIo(pub Arc<ClientConn>);

impl PageIo for RemoteIo {
    fn load(&self, page: DbPage, buf: &mut [u8]) -> Result<(), String> {
        let data = if self.0.current_txn().is_some() {
            self.0.fetch_page(page, self.0.read_mode())
        } else {
            self.0.read_page(page)
        }
        .map_err(|e| e.to_string())?;
        buf.copy_from_slice(&data[..buf.len()]);
        Ok(())
    }

    fn write_back(&self, page: DbPage, data: &[u8]) -> Result<(), String> {
        self.0.overlay_put(page, data.to_vec());
        Ok(())
    }
}

/// [`DiskSpace`] over a client connection: disk allocation and raw byte
/// I/O are served by the owning servers via RPC.
pub struct RemoteSpace(pub Arc<ClientConn>);

impl RemoteSpace {
    /// Sends a disk request to the server owning `area`. Transport and
    /// server errors come back as storage errors.
    fn call(&self, area: u32, msg: Msg) -> StorageResult<Msg> {
        let corrupt = |e: ClientError| StorageError::Corrupt(e.to_string());
        let owner = self.0.up.owner(area).map_err(corrupt)?;
        match self.0.rpc(owner, msg).map_err(corrupt)? {
            Msg::Err(e) => Err(StorageError::Corrupt(e)),
            reply => Ok(reply),
        }
    }
}

fn bad_reply(reply: Msg) -> StorageError {
    StorageError::Corrupt(format!("bad reply {reply:?}"))
}

impl DiskSpace for RemoteSpace {
    fn page_size(&self) -> usize {
        self.0.cfg.page_size
    }

    fn alloc(&self, area: u32, pages: u32) -> StorageResult<DiskPtr> {
        match self.call(area, Msg::AllocSegment { area, pages })? {
            Msg::DiskSeg {
                area,
                start_page,
                pages,
            } => Ok(DiskPtr {
                area: AreaId(area),
                start_page,
                pages,
            }),
            other => Err(bad_reply(other)),
        }
    }

    fn free(&self, ptr: DiskPtr) -> StorageResult<()> {
        let msg = Msg::FreeSegment {
            area: ptr.area.0,
            start_page: ptr.start_page,
            pages: ptr.pages,
        };
        match self.call(ptr.area.0, msg)? {
            Msg::Ok => Ok(()),
            other => Err(bad_reply(other)),
        }
    }

    fn read_at(&self, area: u32, page: u64, offset: usize, buf: &mut [u8]) -> StorageResult<()> {
        let msg = Msg::ReadAt {
            area,
            page,
            // LINT: allow(cast) — `offset` lies within one page, far below u32::MAX.
            offset: offset as u32,
            len: buf.len() as u32,
        };
        match self.call(area, msg)? {
            Msg::Bytes(data) => {
                buf.copy_from_slice(&data);
                Ok(())
            }
            other => Err(bad_reply(other)),
        }
    }

    fn write_at(&self, area: u32, page: u64, offset: usize, data: &[u8]) -> StorageResult<()> {
        let msg = Msg::WriteAt {
            area,
            page,
            // LINT: allow(cast) — `offset` lies within one page, far below u32::MAX.
            offset: offset as u32,
            data: data.to_vec(),
        };
        match self.call(area, msg)? {
            Msg::Ok => Ok(()),
            other => Err(bad_reply(other)),
        }
    }
}
