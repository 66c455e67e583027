//! The lock manager: strict two-phase locking with timeout-based deadlock
//! detection.
//!
//! "The strict two phase locking algorithm is used for concurrency control"
//! and "timeouts are used for distributed deadlock detection" (§3). The
//! manager grants hierarchical modes FIFO, supports in-place upgrades
//! (which jump the queue, as is standard, to reduce upgrade deadlocks), and
//! resolves both local and distributed deadlocks by timing out waiters.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bess_obs::{Counter, Group, LatencyHistogram, Registry};
use parking_lot::Condvar;

use crate::mode::LockMode;
use crate::name::{LockName, TxnId};
use crate::order::{OrderedMutex, Rank};

/// Errors from lock operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockError {
    /// The wait exceeded the timeout — treated as a (possible) deadlock,
    /// exactly as the paper resolves deadlocks.
    Timeout {
        /// The waiting transaction.
        txn: TxnId,
        /// The contested resource.
        name: LockName,
        /// The requested mode.
        mode: LockMode,
    },
    /// An unlock/downgrade named a lock the transaction does not hold.
    NotHeld {
        /// The transaction.
        txn: TxnId,
        /// The resource.
        name: LockName,
    },
    /// A downgrade requested a mode not covered by the held mode.
    BadDowngrade {
        /// The held mode.
        held: LockMode,
        /// The requested weaker mode.
        requested: LockMode,
    },
}

impl std::fmt::Display for LockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockError::Timeout { txn, name, mode } => {
                write!(f, "{txn} timed out waiting for {mode:?} on {name} (possible deadlock)")
            }
            LockError::NotHeld { txn, name } => write!(f, "{txn} does not hold {name}"),
            LockError::BadDowngrade { held, requested } => {
                write!(f, "cannot downgrade {held:?} to non-covered {requested:?}")
            }
        }
    }
}

impl std::error::Error for LockError {}

/// Result alias for lock operations.
pub type LockResult<T> = Result<T, LockError>;

#[derive(Debug)]
enum WaitState {
    Waiting,
    Granted,
}

struct Waiter {
    txn: TxnId,
    mode: LockMode,
    upgrade: bool,
    state: OrderedMutex<WaitState>,
    cond: Condvar,
}

#[derive(Default)]
struct LockEntry {
    granted: Vec<(TxnId, LockMode)>,
    queue: VecDeque<Arc<Waiter>>,
}

impl LockEntry {
    fn can_grant(&self, txn: TxnId, mode: LockMode) -> bool {
        self.granted
            .iter()
            .all(|&(t, m)| t == txn || m.compatible(mode))
    }

    /// Grants every queue-front waiter whose mode is now compatible.
    fn promote(&mut self) -> Vec<Arc<Waiter>> {
        let mut woken = Vec::new();
        while let Some(front) = self.queue.front() {
            if !self.can_grant(front.txn, front.mode) {
                break;
            }
            let Some(w) = self.queue.pop_front() else {
                break;
            };
            if w.upgrade {
                if let Some(slot) = self.granted.iter_mut().find(|(t, _)| *t == w.txn) {
                    slot.1 = w.mode;
                } else {
                    // Holder released (aborted) while upgrade waited;
                    // grant as a fresh lock.
                    self.granted.push((w.txn, w.mode));
                }
            } else {
                self.granted.push((w.txn, w.mode));
            }
            woken.push(w);
        }
        woken
    }

    fn is_empty(&self) -> bool {
        self.granted.is_empty() && self.queue.is_empty()
    }
}

fn wake(woken: Vec<Arc<Waiter>>) {
    for w in woken {
        *w.state.lock() = WaitState::Granted;
        w.cond.notify_one();
    }
}

/// Counters kept by the lock manager — [`bess_obs`] handles registered
/// under the `lock.` prefix of [`LockManager::metrics`].
#[derive(Debug)]
pub struct LockStats {
    /// Total lock requests (`lock.requests`).
    pub requests: Counter,
    /// Requests granted without waiting (`lock.immediate`).
    pub immediate: Counter,
    /// Requests that waited (`lock.waits`).
    pub waits: Counter,
    /// Requests that timed out, deadlock victims (`lock.timeouts`).
    pub timeouts: Counter,
    /// Upgrade requests (`lock.upgrades`).
    pub upgrades: Counter,
}

impl LockStats {
    fn new(group: &Group) -> LockStats {
        LockStats {
            requests: group.counter("requests"),
            immediate: group.counter("immediate"),
            waits: group.counter("waits"),
            timeouts: group.counter("timeouts"),
            upgrades: group.counter("upgrades"),
        }
    }
}

const SHARDS: usize = 16;

/// The BeSS lock manager.
///
/// Thread-safe; one instance per server (and per node server, which locks
/// on behalf of its local applications, §3).
pub struct LockManager {
    shards: Vec<OrderedMutex<HashMap<LockName, LockEntry>>>,
    held: OrderedMutex<HashMap<TxnId, HashSet<LockName>>>,
    default_timeout: Duration,
    group: Group,
    stats: LockStats,
    wait_ns: LatencyHistogram,
}

impl LockManager {
    /// Creates a manager with the given deadlock timeout (the paper's
    /// resolution policy).
    pub fn new(default_timeout: Duration) -> Self {
        let group = Registry::new().group("lock");
        let stats = LockStats::new(&group);
        let wait_ns = group.histogram("wait.ns");
        LockManager {
            shards: (0..SHARDS)
                .map(|_| OrderedMutex::new(Rank::LockManagerShard, "lock.shard", HashMap::new()))
                .collect(),
            held: OrderedMutex::new(Rank::LockManagerHeld, "lock.held", HashMap::new()),
            default_timeout,
            group,
            stats,
            wait_ns,
        }
    }

    /// The configured deadlock timeout.
    pub fn default_timeout(&self) -> Duration {
        self.default_timeout
    }

    /// Lock activity counters.
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// The manager's metric group (`lock.*`), including the `lock.wait.ns`
    /// histogram of time spent blocked in [`LockManager::lock_timeout`].
    pub fn metrics(&self) -> &Group {
        &self.group
    }

    fn shard(&self, name: &LockName) -> &OrderedMutex<HashMap<LockName, LockEntry>> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        name.hash(&mut h);
        &self.shards[h.finish() as usize % SHARDS]
    }

    fn record_held(&self, txn: TxnId, name: LockName) {
        self.held.lock().entry(txn).or_default().insert(name);
    }

    /// Acquires `mode` on `name` for `txn` with the default timeout.
    pub fn lock(&self, txn: TxnId, name: LockName, mode: LockMode) -> LockResult<()> {
        self.lock_timeout(txn, name, mode, self.default_timeout)
    }

    /// Acquires `mode` on `name` for `txn`, waiting at most `timeout`.
    ///
    /// Re-requests of covered modes are free; stronger modes upgrade in
    /// place, jumping the wait queue.
    pub fn lock_timeout(
        &self,
        txn: TxnId,
        name: LockName,
        mode: LockMode,
        timeout: Duration,
    ) -> LockResult<()> {
        self.stats.requests.inc();
        let waiter = {
            let mut shard = self.shard(&name).lock();
            let entry = shard.entry(name).or_default();
            if let Some(pos) = entry.granted.iter().position(|(t, _)| *t == txn) {
                let current = entry.granted[pos].1;
                let needed = current.supremum(mode);
                if needed == current {
                    self.stats.immediate.inc();
                    return Ok(());
                }
                self.stats.upgrades.inc();
                if entry.can_grant(txn, needed) {
                    entry.granted[pos].1 = needed;
                    self.stats.immediate.inc();
                    return Ok(());
                }
                let w = Arc::new(Waiter {
                    txn,
                    mode: needed,
                    upgrade: true,
                    state: OrderedMutex::new(Rank::LockWaiter, "lock.waiter", WaitState::Waiting),
                    cond: Condvar::new(),
                });
                // Upgrades go to the front so a waiting reader cannot block
                // a holder's upgrade forever.
                entry.queue.push_front(Arc::clone(&w));
                w
            } else {
                if entry.queue.is_empty() && entry.can_grant(txn, mode) {
                    entry.granted.push((txn, mode));
                    self.stats.immediate.inc();
                    drop(shard);
                    self.record_held(txn, name);
                    return Ok(());
                }
                let w = Arc::new(Waiter {
                    txn,
                    mode,
                    upgrade: false,
                    state: OrderedMutex::new(Rank::LockWaiter, "lock.waiter", WaitState::Waiting),
                    cond: Condvar::new(),
                });
                entry.queue.push_back(Arc::clone(&w));
                w
            }
        };
        self.stats.waits.inc();
        // Records the blocked time into `lock.wait.ns` on every exit from
        // the wait loop (grant, late grant, or timeout) when it drops.
        let _wait_timer = self.wait_ns.start();

        let deadline = Instant::now() + timeout;
        let mut state = waiter.state.lock();
        loop {
            if matches!(*state, WaitState::Granted) {
                drop(state);
                self.record_held(txn, name);
                return Ok(());
            }
            if waiter.cond.wait_until(state.raw(), deadline).timed_out() {
                if matches!(*state, WaitState::Granted) {
                    drop(state);
                    self.record_held(txn, name);
                    return Ok(());
                }
                drop(state);
                // Remove ourselves from the queue; a racing grant may have
                // happened between the timeout and taking the shard lock.
                let mut shard = self.shard(&name).lock();
                if matches!(*waiter.state.lock(), WaitState::Granted) {
                    drop(shard);
                    self.record_held(txn, name);
                    return Ok(());
                }
                if let Some(entry) = shard.get_mut(&name) {
                    entry.queue.retain(|w| !Arc::ptr_eq(w, &waiter));
                    let woken = entry.promote();
                    if entry.is_empty() {
                        shard.remove(&name);
                    }
                    drop(shard);
                    wake(woken);
                }
                self.stats.timeouts.inc();
                return Err(LockError::Timeout { txn, name, mode });
            }
        }
    }

    /// Attempts to acquire without waiting. Returns `false` if it would
    /// have to wait.
    pub fn try_lock(&self, txn: TxnId, name: LockName, mode: LockMode) -> bool {
        self.stats.requests.inc();
        let mut shard = self.shard(&name).lock();
        let entry = shard.entry(name).or_default();
        if let Some(pos) = entry.granted.iter().position(|(t, _)| *t == txn) {
            let current = entry.granted[pos].1;
            let needed = current.supremum(mode);
            if needed == current || entry.can_grant(txn, needed) {
                entry.granted[pos].1 = needed;
                self.stats.immediate.inc();
                return true;
            }
            return false;
        }
        if entry.queue.is_empty() && entry.can_grant(txn, mode) {
            entry.granted.push((txn, mode));
            drop(shard);
            self.record_held(txn, name);
            self.stats.immediate.inc();
            return true;
        }
        false
    }

    /// The mode `txn` holds on `name`, if any.
    pub fn held(&self, txn: TxnId, name: LockName) -> Option<LockMode> {
        let shard = self.shard(&name).lock();
        shard
            .get(&name)
            .and_then(|e| e.granted.iter().find(|(t, _)| *t == txn).map(|&(_, m)| m))
    }

    /// All current holders of `name`.
    pub fn holders(&self, name: LockName) -> Vec<(TxnId, LockMode)> {
        let shard = self.shard(&name).lock();
        shard.get(&name).map(|e| e.granted.clone()).unwrap_or_default()
    }

    /// Resources currently held by `txn`.
    pub fn held_by(&self, txn: TxnId) -> Vec<LockName> {
        self.held
            .lock()
            .get(&txn)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Releases one lock. Used by the callback protocol, which may release
    /// individual cached locks between transactions.
    pub fn unlock(&self, txn: TxnId, name: LockName) -> LockResult<()> {
        {
            let mut held = self.held.lock();
            let removed = match held.get_mut(&txn) {
                Some(set) => {
                    let removed = set.remove(&name);
                    if removed && set.is_empty() {
                        held.remove(&txn);
                    }
                    removed
                }
                None => false,
            };
            if !removed {
                return Err(LockError::NotHeld { txn, name });
            }
        }
        self.release_internal(txn, name);
        Ok(())
    }

    /// Weakens a held lock to `to` (which must be covered by the held
    /// mode), promoting any now-compatible waiters.
    pub fn downgrade(&self, txn: TxnId, name: LockName, to: LockMode) -> LockResult<()> {
        let mut shard = self.shard(&name).lock();
        let entry = shard
            .get_mut(&name)
            .ok_or(LockError::NotHeld { txn, name })?;
        let slot = entry
            .granted
            .iter_mut()
            .find(|(t, _)| *t == txn)
            .ok_or(LockError::NotHeld { txn, name })?;
        if !slot.1.covers(to) {
            return Err(LockError::BadDowngrade {
                held: slot.1,
                requested: to,
            });
        }
        slot.1 = to;
        let woken = entry.promote();
        drop(shard);
        wake(woken);
        Ok(())
    }

    /// Releases every lock held by `txn` — the strict-2PL release at commit
    /// or abort.
    pub fn unlock_all(&self, txn: TxnId) {
        let names: Vec<LockName> = {
            let mut held = self.held.lock();
            held.remove(&txn)
                .map(|s| s.into_iter().collect())
                .unwrap_or_default()
        };
        for name in names {
            self.release_internal(txn, name);
        }
    }

    fn release_internal(&self, txn: TxnId, name: LockName) {
        let mut shard = self.shard(&name).lock();
        if let Some(entry) = shard.get_mut(&name) {
            entry.granted.retain(|(t, _)| *t != txn);
            let woken = entry.promote();
            if entry.is_empty() {
                shard.remove(&name);
            }
            drop(shard);
            wake(woken);
        }
    }
}

impl std::fmt::Debug for LockManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockManager")
            .field("timeout", &self.default_timeout)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::Arc;
    use std::thread;

    fn page(p: u64) -> LockName {
        LockName::Page { area: 0, page: p }
    }

    fn mgr() -> Arc<LockManager> {
        Arc::new(LockManager::new(Duration::from_millis(200)))
    }

    #[test]
    fn shared_locks_coexist() {
        let m = mgr();
        m.lock(TxnId(1), page(1), LockMode::S).unwrap();
        m.lock(TxnId(2), page(1), LockMode::S).unwrap();
        assert_eq!(m.holders(page(1)).len(), 2);
    }

    #[test]
    fn exclusive_conflicts_time_out() {
        let m = mgr();
        m.lock(TxnId(1), page(1), LockMode::X).unwrap();
        let err = m
            .lock_timeout(TxnId(2), page(1), LockMode::S, Duration::from_millis(50))
            .unwrap_err();
        assert!(matches!(err, LockError::Timeout { .. }));
        assert_eq!(m.stats().timeouts.get(), 1);
    }

    #[test]
    fn release_wakes_waiter() {
        let m = mgr();
        m.lock(TxnId(1), page(1), LockMode::X).unwrap();
        let m2 = Arc::clone(&m);
        let waiter = thread::spawn(move || {
            m2.lock_timeout(TxnId(2), page(1), LockMode::X, Duration::from_secs(5))
        });
        thread::sleep(Duration::from_millis(30));
        m.unlock_all(TxnId(1));
        waiter.join().unwrap().unwrap();
        assert_eq!(m.held(TxnId(2), page(1)), Some(LockMode::X));
    }

    #[test]
    fn re_request_of_covered_mode_is_free() {
        let m = mgr();
        m.lock(TxnId(1), page(1), LockMode::X).unwrap();
        m.lock(TxnId(1), page(1), LockMode::S).unwrap();
        m.lock(TxnId(1), page(1), LockMode::X).unwrap();
        assert_eq!(m.held(TxnId(1), page(1)), Some(LockMode::X));
    }

    #[test]
    fn upgrade_in_place() {
        let m = mgr();
        m.lock(TxnId(1), page(1), LockMode::S).unwrap();
        m.lock(TxnId(1), page(1), LockMode::X).unwrap();
        assert_eq!(m.held(TxnId(1), page(1)), Some(LockMode::X));
    }

    #[test]
    fn s_plus_ix_upgrades_to_six() {
        let m = mgr();
        m.lock(TxnId(1), LockName::File { db: 0, file: 1 }, LockMode::S)
            .unwrap();
        m.lock(TxnId(1), LockName::File { db: 0, file: 1 }, LockMode::IX)
            .unwrap();
        assert_eq!(
            m.held(TxnId(1), LockName::File { db: 0, file: 1 }),
            Some(LockMode::SIX)
        );
    }

    #[test]
    fn upgrade_waits_for_other_reader_then_succeeds() {
        let m = mgr();
        m.lock(TxnId(1), page(1), LockMode::S).unwrap();
        m.lock(TxnId(2), page(1), LockMode::S).unwrap();
        let m2 = Arc::clone(&m);
        let upgrader = thread::spawn(move || {
            m2.lock_timeout(TxnId(1), page(1), LockMode::X, Duration::from_secs(5))
        });
        thread::sleep(Duration::from_millis(30));
        m.unlock_all(TxnId(2));
        upgrader.join().unwrap().unwrap();
        assert_eq!(m.held(TxnId(1), page(1)), Some(LockMode::X));
    }

    #[test]
    fn upgrade_jumps_queue_ahead_of_new_readers() {
        let m = mgr();
        m.lock(TxnId(1), page(1), LockMode::S).unwrap();
        m.lock(TxnId(2), page(1), LockMode::S).unwrap();
        // Txn1 wants X (must wait for txn2); txn3 wants S and queues after.
        let m1 = Arc::clone(&m);
        let upgrader =
            thread::spawn(move || m1.lock_timeout(TxnId(1), page(1), LockMode::X, Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(30));
        let m3 = Arc::clone(&m);
        let reader =
            thread::spawn(move || m3.lock_timeout(TxnId(3), page(1), LockMode::S, Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(30));
        // Releasing txn2 should grant the upgrade first; the reader gets in
        // only after txn1 releases.
        m.unlock_all(TxnId(2));
        upgrader.join().unwrap().unwrap();
        assert_eq!(m.held(TxnId(1), page(1)), Some(LockMode::X));
        assert!(m.held(TxnId(3), page(1)).is_none());
        m.unlock_all(TxnId(1));
        reader.join().unwrap().unwrap();
    }

    #[test]
    fn deadlock_resolved_by_timeout() {
        let m = mgr();
        m.lock(TxnId(1), page(1), LockMode::X).unwrap();
        m.lock(TxnId(2), page(2), LockMode::X).unwrap();
        let m1 = Arc::clone(&m);
        let t1 = thread::spawn(move || {
            m1.lock_timeout(TxnId(1), page(2), LockMode::X, Duration::from_millis(150))
        });
        let m2 = Arc::clone(&m);
        let t2 = thread::spawn(move || {
            m2.lock_timeout(TxnId(2), page(1), LockMode::X, Duration::from_millis(150))
        });
        let r1 = t1.join().unwrap();
        let r2 = t2.join().unwrap();
        assert!(
            r1.is_err() || r2.is_err(),
            "at least one deadlock victim must time out"
        );
    }

    #[test]
    fn try_lock_does_not_wait() {
        let m = mgr();
        m.lock(TxnId(1), page(1), LockMode::X).unwrap();
        assert!(!m.try_lock(TxnId(2), page(1), LockMode::S));
        assert!(m.try_lock(TxnId(2), page(2), LockMode::S));
    }

    #[test]
    fn unlock_single_and_not_held() {
        let m = mgr();
        m.lock(TxnId(1), page(1), LockMode::S).unwrap();
        m.unlock(TxnId(1), page(1)).unwrap();
        assert!(m.held(TxnId(1), page(1)).is_none());
        assert!(matches!(
            m.unlock(TxnId(1), page(1)),
            Err(LockError::NotHeld { .. })
        ));
    }

    #[test]
    fn downgrade_wakes_readers() {
        let m = mgr();
        m.lock(TxnId(1), page(1), LockMode::X).unwrap();
        let m2 = Arc::clone(&m);
        let reader = thread::spawn(move || {
            m2.lock_timeout(TxnId(2), page(1), LockMode::S, Duration::from_secs(5))
        });
        thread::sleep(Duration::from_millis(30));
        m.downgrade(TxnId(1), page(1), LockMode::S).unwrap();
        reader.join().unwrap().unwrap();
        assert_eq!(m.held(TxnId(1), page(1)), Some(LockMode::S));
        assert_eq!(m.held(TxnId(2), page(1)), Some(LockMode::S));
    }

    #[test]
    fn downgrade_to_stronger_rejected() {
        let m = mgr();
        m.lock(TxnId(1), page(1), LockMode::S).unwrap();
        assert!(matches!(
            m.downgrade(TxnId(1), page(1), LockMode::X),
            Err(LockError::BadDowngrade { .. })
        ));
    }

    #[test]
    fn unlock_all_releases_everything() {
        let m = mgr();
        for p in 0..10 {
            m.lock(TxnId(1), page(p), LockMode::X).unwrap();
        }
        assert_eq!(m.held_by(TxnId(1)).len(), 10);
        m.unlock_all(TxnId(1));
        assert!(m.held_by(TxnId(1)).is_empty());
        for p in 0..10 {
            m.lock(TxnId(2), page(p), LockMode::X).unwrap();
        }
    }

    #[test]
    fn fifo_prevents_writer_starvation() {
        let m = mgr();
        m.lock(TxnId(1), page(1), LockMode::S).unwrap();
        // Writer queues.
        let mw = Arc::clone(&m);
        let writer = thread::spawn(move || {
            mw.lock_timeout(TxnId(2), page(1), LockMode::X, Duration::from_secs(5))
        });
        thread::sleep(Duration::from_millis(30));
        // A later reader must queue behind the writer, not sneak in.
        let mr = Arc::clone(&m);
        let reader = thread::spawn(move || {
            mr.lock_timeout(TxnId(3), page(1), LockMode::S, Duration::from_secs(5))
        });
        thread::sleep(Duration::from_millis(30));
        assert!(m.held(TxnId(3), page(1)).is_none(), "reader must not jump the writer");
        m.unlock_all(TxnId(1));
        writer.join().unwrap().unwrap();
        m.unlock_all(TxnId(2));
        reader.join().unwrap().unwrap();
    }

    #[test]
    fn concurrent_stress_is_serializable_per_resource() {
        // Many threads take X on the same counter resource and increment a
        // plain integer under it; the final count proves mutual exclusion.
        let m = mgr();
        let counter = Arc::new(Mutex::new(0u64));
        let mut handles = Vec::new();
        for t in 0..8 {
            let m = Arc::clone(&m);
            let counter = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                for i in 0..50 {
                    let txn = TxnId(t * 1000 + i);
                    m.lock_timeout(txn, page(42), LockMode::X, Duration::from_secs(10))
                        .unwrap();
                    {
                        let mut c = counter.lock();
                        let v = *c;
                        thread::yield_now();
                        *c = v + 1;
                    }
                    m.unlock_all(txn);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock(), 8 * 50);
    }
}

#[cfg(test)]
mod detect_tests {
    //! Timeout-based deadlock detection (§3) must leave nothing behind.
    use super::*;

    fn page(p: u64) -> LockName {
        LockName::Page { area: 0, page: p }
    }

    /// Regression: a timed-out waiter must leave no ghost entry in the
    /// queue. If it did, a later request compatible with the *holders*
    /// (but queued behind the ghost) would wait for no reason — or worse,
    /// a grant could land on the abandoned waiter and leak the lock.
    #[test]
    fn timed_out_waiter_leaves_no_ghost_in_queue() {
        let m = LockManager::new(Duration::from_millis(50));
        // Holder: S on the page. An X request conflicts and times out.
        m.lock(TxnId(1), page(5), LockMode::S).unwrap();
        assert!(matches!(
            m.lock_timeout(TxnId(2), page(5), LockMode::X, Duration::from_millis(50)),
            Err(LockError::Timeout { .. })
        ));
        // The ghost X waiter is gone: an S request compatible with the
        // S holder must be granted without waiting.
        assert!(
            m.try_lock(TxnId(3), page(5), LockMode::S),
            "compatible request blocked by a ghost waiter"
        );
        // And the timed-out transaction holds nothing on the page.
        assert!(m.held(TxnId(2), page(5)).is_none());
        assert!(m.held_by(TxnId(2)).is_empty());
        // Once everyone releases, the entry disappears entirely and an X
        // grant to the former waiter works immediately.
        m.unlock_all(TxnId(1));
        m.unlock_all(TxnId(3));
        assert!(m.try_lock(TxnId(2), page(5), LockMode::X));
    }
}
