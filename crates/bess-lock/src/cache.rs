//! The client-side lock cache for callback locking.
//!
//! "Client-server interaction is minimized by caching data and locks
//! between transactions running on the same client. Cache consistency is
//! provided by employing the callback locking algorithm" (§3, citing
//! Howard et al. and Lamb et al.).
//!
//! A [`LockCache`] lives on each client (or node server). Locks obtained
//! from a server are *cached* here when the transaction that acquired them
//! finishes; a later local transaction that needs a covered mode hits the
//! cache and avoids a server round trip. When another client wants a
//! conflicting lock, the server issues a **callback**; the cache releases
//! the lock immediately if no local transaction is using it, otherwise the
//! callback is deferred until the last local user finishes.
//!
//! A lock request that missed is *in flight* until the caller reports its
//! outcome ([`LockCache::grant`] or [`LockCache::abandon`]). A callback for
//! an in-flight name that is not cached yet is deferred rather than
//! answered "not cached": the server may have granted the lock an instant
//! ago, and the grant is then cached with the callback already pending.

use std::collections::{HashMap, HashSet};

use bess_obs::{Counter, Group, Registry};

use crate::mode::LockMode;
use crate::name::{LockName, TxnId};
use crate::order::{OrderedMutex, Rank};

/// Outcome of a local lock probe against the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheDecision {
    /// The cache holds a covering lock; no server message needed.
    Hit,
    /// The server must be asked for `need` (either nothing is cached or the
    /// cached mode is too weak).
    Miss {
        /// The mode to request from the server.
        need: LockMode,
    },
}

/// Response to a server callback for one resource.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallbackResponse {
    /// The lock was dropped from the cache; the server may grant the
    /// conflicting request.
    Released,
    /// A local transaction is using the lock; the release will happen when
    /// the last user finishes ([`LockCache::finish_txn`] returns it).
    Deferred,
    /// The resource was not cached here (e.g. raced with an earlier
    /// release); nothing to do.
    NotCached,
}

#[derive(Debug)]
struct CachedLock {
    mode: LockMode,
    users: HashSet<TxnId>,
    callback_pending: bool,
}

/// Counters kept by a [`LockCache`] — [`bess_obs`] handles registered
/// under the `lock.cache.` prefix of [`LockCache::metrics`].
#[derive(Debug)]
pub struct CacheStats {
    /// Probes answered from the cache (`lock.cache.hits`).
    pub hits: Counter,
    /// Probes that required a server request (`lock.cache.misses`).
    pub misses: Counter,
    /// Callbacks received (`lock.cache.callbacks`).
    pub callbacks: Counter,
    /// Callbacks answered with immediate release
    /// (`lock.cache.callback_released`).
    pub callback_released: Counter,
    /// Callbacks deferred because the lock was in use
    /// (`lock.cache.callback_deferred`).
    pub callback_deferred: Counter,
}

impl CacheStats {
    fn new(group: &Group) -> CacheStats {
        CacheStats {
            hits: group.counter("hits"),
            misses: group.counter("misses"),
            callbacks: group.counter("callbacks"),
            callback_released: group.counter("callback_released"),
            callback_deferred: group.counter("callback_deferred"),
        }
    }
}

/// A lock request sent to the server and not yet answered.
#[derive(Debug, Default)]
struct InFlight {
    /// Requests outstanding for the name.
    requests: u32,
    /// A callback arrived while they were outstanding and was deferred.
    called_back: bool,
}

#[derive(Debug, Default)]
struct Table {
    cached: HashMap<LockName, CachedLock>,
    in_flight: HashMap<LockName, InFlight>,
}

/// The per-client cache of locks granted by servers.
pub struct LockCache {
    locks: OrderedMutex<Table>,
    group: Group,
    stats: CacheStats,
}

impl LockCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        let group = Registry::new().group("lock.cache");
        let stats = CacheStats::new(&group);
        LockCache {
            locks: OrderedMutex::new(Rank::LockCache, "lock.cache", Table::default()),
            group,
            stats,
        }
    }

    /// Cache activity counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The cache's metric group (`lock.cache.*`).
    pub fn metrics(&self) -> &Group {
        &self.group
    }

    /// Probes the cache on behalf of local transaction `txn` wanting
    /// `mode`. On [`CacheDecision::Hit`] the transaction is registered as a
    /// user of the cached lock. On [`CacheDecision::Miss`] the request is
    /// in flight until the caller reports the server's answer with
    /// [`Self::grant`] or [`Self::abandon`].
    pub fn acquire(&self, txn: TxnId, name: LockName, mode: LockMode) -> CacheDecision {
        let mut locks = self.locks.lock();
        let need = match locks.cached.get_mut(&name) {
            Some(cached) if cached.mode.covers(mode) && !cached.callback_pending => {
                cached.users.insert(txn);
                self.stats.hits.inc();
                return CacheDecision::Hit;
            }
            // Cached but too weak: the server must upgrade to the supremum
            // of what is cached and what is wanted.
            Some(cached) if !cached.callback_pending => cached.mode.supremum(mode),
            _ => mode,
        };
        self.stats.misses.inc();
        locks.in_flight.entry(name).or_default().requests += 1;
        CacheDecision::Miss { need }
    }

    /// Records a lock granted by the server for `txn`, ending its in-flight
    /// request. A callback that arrived while the request was in flight
    /// leaves the lock marked for release when its users finish.
    pub fn grant(&self, txn: TxnId, name: LockName, mode: LockMode) {
        let mut locks = self.locks.lock();
        let called_back = Self::land(&mut locks, name, true);
        let entry = locks.cached.entry(name).or_insert_with(|| CachedLock {
            mode,
            users: HashSet::new(),
            callback_pending: false,
        });
        entry.mode = entry.mode.supremum(mode);
        entry.users.insert(txn);
        entry.callback_pending |= called_back;
    }

    /// Ends an in-flight request the server denied or that failed: nothing
    /// was granted, so nothing is cached. A deferred callback stays with
    /// any other request for the name still in flight.
    pub fn abandon(&self, name: LockName) {
        Self::land(&mut self.locks.lock(), name, false);
    }

    /// Ends one in-flight request for `name`. A granted request takes the
    /// deferred callback with it, returning whether there was one; the last
    /// request to land clears the entry.
    fn land(table: &mut Table, name: LockName, granted: bool) -> bool {
        let Some(flight) = table.in_flight.get_mut(&name) else {
            return false;
        };
        let called_back = granted && std::mem::take(&mut flight.called_back);
        flight.requests = flight.requests.saturating_sub(1);
        if flight.requests == 0 {
            table.in_flight.remove(&name);
        }
        called_back
    }

    /// Handles a server callback for `name`. Returns how the cache
    /// responded; on [`CallbackResponse::Deferred`] the eventual release is
    /// reported by [`Self::finish_txn`].
    pub fn callback(&self, name: LockName) -> CallbackResponse {
        self.stats.callbacks.inc();
        let mut locks = self.locks.lock();
        let table = &mut *locks;
        match table.cached.get_mut(&name) {
            None => match table.in_flight.get_mut(&name) {
                // The grant may be on its way: defer until it lands.
                Some(flight) => {
                    flight.called_back = true;
                    self.stats.callback_deferred.inc();
                    CallbackResponse::Deferred
                }
                None => CallbackResponse::NotCached,
            },
            Some(cached) if cached.users.is_empty() => {
                table.cached.remove(&name);
                self.stats.callback_released.inc();
                CallbackResponse::Released
            }
            Some(cached) => {
                cached.callback_pending = true;
                self.stats.callback_deferred.inc();
                CallbackResponse::Deferred
            }
        }
    }

    /// A server may also *downgrade-callback* a cached X lock to S (enough
    /// for a remote reader). If no local user holds it, the cached mode is
    /// weakened in place and `true` is returned.
    pub fn callback_downgrade(&self, name: LockName, to: LockMode) -> bool {
        self.stats.callbacks.inc();
        let mut locks = self.locks.lock();
        match locks.cached.get_mut(&name) {
            Some(cached) if cached.users.is_empty() && cached.mode.covers(to) => {
                cached.mode = to;
                self.stats.callback_released.inc();
                true
            }
            None => true,
            _ => {
                if let Some(cached) = locks.cached.get_mut(&name) {
                    cached.callback_pending = true;
                }
                self.stats.callback_deferred.inc();
                false
            }
        }
    }

    /// Ends `txn` locally: the transaction stops using its cached locks but
    /// the locks *stay cached* for future transactions (the whole point of
    /// callback locking). Returns the resources whose deferred callbacks
    /// can now be answered — the caller must send the releases to the
    /// server.
    pub fn finish_txn(&self, txn: TxnId) -> Vec<LockName> {
        let mut released = Vec::new();
        let mut locks = self.locks.lock();
        locks.cached.retain(|name, cached| {
            cached.users.remove(&txn);
            if cached.callback_pending && cached.users.is_empty() {
                released.push(*name);
                false
            } else {
                true
            }
        });
        released
    }

    /// Drops every cached lock (client shutdown, or a client without a node
    /// server whose locks are only cached for the transaction duration,
    /// §3). Returns the names so the caller can notify servers.
    pub fn clear(&self) -> Vec<LockName> {
        let mut locks = self.locks.lock();
        let names = locks.cached.keys().copied().collect();
        locks.cached.clear();
        names
    }

    /// The cached mode for `name`, if any.
    pub fn cached_mode(&self, name: LockName) -> Option<LockMode> {
        self.locks.lock().cached.get(&name).map(|c| c.mode)
    }

    /// Number of cached locks.
    pub fn len(&self) -> usize {
        self.locks.lock().cached.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.locks.lock().cached.is_empty()
    }
}

impl Default for LockCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(p: u64) -> LockName {
        LockName::Page { area: 0, page: p }
    }

    #[test]
    fn miss_then_grant_then_hit() {
        let cache = LockCache::new();
        assert_eq!(
            cache.acquire(TxnId(1), page(1), LockMode::S),
            CacheDecision::Miss { need: LockMode::S }
        );
        cache.grant(TxnId(1), page(1), LockMode::S);
        cache.finish_txn(TxnId(1));
        // Next transaction hits without a server message.
        assert_eq!(cache.acquire(TxnId(2), page(1), LockMode::S), CacheDecision::Hit);
        let s = cache.stats();
        assert_eq!((s.hits.get(), s.misses.get()), (1, 1));
    }

    #[test]
    fn weak_cached_mode_asks_for_supremum() {
        let cache = LockCache::new();
        cache.grant(TxnId(1), page(1), LockMode::S);
        cache.finish_txn(TxnId(1));
        assert_eq!(
            cache.acquire(TxnId(2), page(1), LockMode::X),
            CacheDecision::Miss { need: LockMode::X }
        );
        cache.grant(TxnId(2), page(1), LockMode::X);
        assert_eq!(cache.cached_mode(page(1)), Some(LockMode::X));
    }

    #[test]
    fn callback_on_idle_lock_releases_immediately() {
        let cache = LockCache::new();
        cache.grant(TxnId(1), page(1), LockMode::X);
        cache.finish_txn(TxnId(1));
        assert_eq!(cache.callback(page(1)), CallbackResponse::Released);
        assert!(cache.is_empty());
    }

    #[test]
    fn callback_on_lock_in_use_defers_until_finish() {
        let cache = LockCache::new();
        cache.grant(TxnId(1), page(1), LockMode::X);
        assert_eq!(cache.callback(page(1)), CallbackResponse::Deferred);
        // While deferred, new local transactions cannot use it.
        assert!(matches!(
            cache.acquire(TxnId(2), page(1), LockMode::S),
            CacheDecision::Miss { .. }
        ));
        let released = cache.finish_txn(TxnId(1));
        assert_eq!(released, vec![page(1)]);
        assert!(cache.is_empty());
    }

    #[test]
    fn callback_for_unknown_resource() {
        let cache = LockCache::new();
        assert_eq!(cache.callback(page(9)), CallbackResponse::NotCached);
    }

    #[test]
    fn downgrade_callback_weakens_idle_lock() {
        let cache = LockCache::new();
        cache.grant(TxnId(1), page(1), LockMode::X);
        cache.finish_txn(TxnId(1));
        assert!(cache.callback_downgrade(page(1), LockMode::S));
        assert_eq!(cache.cached_mode(page(1)), Some(LockMode::S));
        // Another local reader now hits.
        assert_eq!(cache.acquire(TxnId(2), page(1), LockMode::S), CacheDecision::Hit);
    }

    #[test]
    fn downgrade_callback_defers_when_in_use() {
        let cache = LockCache::new();
        cache.grant(TxnId(1), page(1), LockMode::X);
        assert!(!cache.callback_downgrade(page(1), LockMode::S));
        let released = cache.finish_txn(TxnId(1));
        assert_eq!(released, vec![page(1)]);
    }

    #[test]
    fn clear_returns_all_names() {
        let cache = LockCache::new();
        cache.grant(TxnId(1), page(1), LockMode::S);
        cache.grant(TxnId(1), page(2), LockMode::X);
        let mut names = cache.clear();
        names.sort();
        assert_eq!(names, vec![page(1), page(2)]);
        assert!(cache.is_empty());
    }

    #[test]
    fn callback_during_miss_defers_until_the_request_lands() {
        let cache = LockCache::new();
        assert!(matches!(
            cache.acquire(TxnId(1), page(1), LockMode::X),
            CacheDecision::Miss { .. }
        ));
        // The server called back before its grant reached us.
        assert_eq!(cache.callback(page(1)), CallbackResponse::Deferred);
        cache.grant(TxnId(1), page(1), LockMode::X);
        // The grant landed with the callback pending: no new user may hit,
        // and the release comes with the last user's end.
        assert!(matches!(
            cache.acquire(TxnId(2), page(1), LockMode::S),
            CacheDecision::Miss { .. }
        ));
        cache.abandon(page(1));
        assert_eq!(cache.finish_txn(TxnId(1)), vec![page(1)]);
        assert!(cache.is_empty());
        assert_eq!(cache.callback(page(1)), CallbackResponse::NotCached);

        // A denied request leaves no trace, deferred callback included.
        assert!(matches!(
            cache.acquire(TxnId(3), page(2), LockMode::X),
            CacheDecision::Miss { .. }
        ));
        assert_eq!(cache.callback(page(2)), CallbackResponse::Deferred);
        cache.abandon(page(2));
        assert!(cache.is_empty());
        assert_eq!(cache.callback(page(2)), CallbackResponse::NotCached);
        cache.grant(TxnId(4), page(2), LockMode::S);
        assert_eq!(
            cache.acquire(TxnId(5), page(2), LockMode::S),
            CacheDecision::Hit
        );
    }

    #[test]
    fn multiple_users_share_cached_lock() {
        let cache = LockCache::new();
        cache.grant(TxnId(1), page(1), LockMode::S);
        assert_eq!(cache.acquire(TxnId(2), page(1), LockMode::S), CacheDecision::Hit);
        assert_eq!(cache.callback(page(1)), CallbackResponse::Deferred);
        assert!(cache.finish_txn(TxnId(1)).is_empty(), "txn2 still using");
        assert_eq!(cache.finish_txn(TxnId(2)), vec![page(1)]);
    }
}
