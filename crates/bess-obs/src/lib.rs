//! The unified observability layer of the BeSS workspace.
//!
//! The paper justifies every architectural choice — two-level clock,
//! callback locking, the three-wave swizzling protocol — with measured
//! counters (§6). This crate is the substrate those measurements flow
//! through: lock-free [`Counter`]s and [`Gauge`]s (relaxed atomics), a
//! log-bucketed [`LatencyHistogram`] with mergeable snapshots, and a
//! hierarchical [`Registry`] with dot-separated names
//! (`wal.append.ns`, `cache.private.hits`, `lock.wait.ns`, …) that can be
//! dumped as text or JSON and diffed generically.
//!
//! Design rules (DESIGN.md §12):
//!
//! - Handles are cheap `Arc` clones; the hot path never takes a lock.
//!   The registry's map is only locked at registration and snapshot time.
//! - A component owns its metrics and registers them into its own
//!   registry at construction; a parent composes a unified view with
//!   [`Registry::adopt`], which clones the *handles* — values stay live.
//! - Durations are histograms named `*.ns`; byte counters end in
//!   `*_bytes`; everything else is a plain event counter.
//! - Timing can be disabled at runtime ([`Registry::set_timing`]) for
//!   overhead measurement.
//!
//! The feature-gated `obs-trace` journal (see [`journal`]) records
//! span-style begin/end events on the commit and fault-wave paths into a
//! fixed-size ring buffer.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod journal;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

pub use journal::{SpanEvent, SpanPhase};

/// Number of logarithmic buckets in a [`LatencyHistogram`]: one per bit
/// position of a `u64`, so any nanosecond value lands somewhere.
pub const BUCKETS: usize = 64;

/// Default capacity of the `obs-trace` ring journal.
pub const JOURNAL_CAP: usize = 4096;

// ---------------------------------------------------------------------------
// Counter / Gauge
// ---------------------------------------------------------------------------

/// A monotonically increasing event counter.
///
/// Cloning yields another handle onto the same value, which is how a
/// registry observes a component's live counters. All operations are
/// relaxed atomics — wait-free, no ordering implied.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not (yet) attached to any registry. Also what
    /// `Counter::default()` returns.
    pub fn unregistered() -> Counter {
        Counter::default()
    }

    /// Adds one; returns the *previous* value (handy for 1-in-N sampling
    /// decisions at zero extra cost).
    #[inline]
    pub fn inc(&self) -> u64 {
        self.add(1)
    }

    /// Adds `n`; returns the previous value.
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed)
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (resident pages, in-flight requests).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A gauge not attached to any registry.
    pub fn unregistered() -> Gauge {
        Gauge::default()
    }

    /// Sets the value outright.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Latency histogram
// ---------------------------------------------------------------------------

/// Bucket index for a recorded value: its bit length, i.e. bucket `i`
/// (for `1 <= i <= 62`) covers `[2^(i-1), 2^i - 1]` nanoseconds, bucket 0
/// holds exact zeros, and bucket 63 absorbs everything from `2^62` up.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (BUCKETS - v.leading_zeros() as usize).min(BUCKETS - 1)
}

/// The inclusive `(low, high)` value range of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < BUCKETS, "bucket index {i} out of range");
    match i {
        0 => (0, 0),
        63 => (1 << 62, u64::MAX),
        i => (1 << (i - 1), (1 << i) - 1),
    }
}

#[derive(Debug)]
struct HistInner {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    /// Runtime switch for the *timing* convenience path ([`
    /// LatencyHistogram::start`]): when off, no clock is read and nothing
    /// is recorded. Direct `record()` calls are unaffected.
    timing: AtomicBool,
}

/// A fixed 64-bucket log-scale (HDR-style) histogram of nanosecond
/// latencies. Recording is wait-free: one relaxed `fetch_add` per bucket
/// plus one for the running sum.
#[derive(Clone, Debug)]
pub struct LatencyHistogram(Arc<HistInner>);

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram(Arc::new(HistInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            timing: AtomicBool::new(true),
        }))
    }
}

impl LatencyHistogram {
    /// A histogram not attached to any registry.
    pub fn unregistered() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Records one observation of `ns` nanoseconds.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.0.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(ns, Ordering::Relaxed);
    }

    /// Whether the timing path is live.
    #[inline]
    pub fn timing(&self) -> bool {
        self.0.timing.load(Ordering::Relaxed)
    }

    /// Enables or disables the timing path at runtime.
    pub fn set_timing(&self, on: bool) {
        self.0.timing.store(on, Ordering::Relaxed);
    }

    /// Starts a timer that records into this histogram when dropped (or
    /// explicitly [`Timer::stop`]ped). When timing is disabled no clock is
    /// read.
    #[inline]
    pub fn start(&self) -> Timer<'_> {
        self.start_if(true)
    }

    /// Starts a timer only when `sample` is true *and* timing is enabled.
    /// Hot paths pass `prev_count & MASK == 0` from the companion
    /// counter's [`Counter::inc`] return value, timing 1-in-N events for
    /// near-zero steady-state cost while still populating p50/p99.
    #[inline]
    pub fn start_if(&self, sample: bool) -> Timer<'_> {
        let armed = sample && self.timing();
        Timer { start: armed.then(Instant::now), hist: self }
    }

    /// A point-in-time copy of the buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed)),
            sum: self.0.sum.load(Ordering::Relaxed),
        }
    }
}

/// A scope timer from [`LatencyHistogram::start`]; records on drop.
#[derive(Debug)]
pub struct Timer<'a> {
    start: Option<Instant>,
    hist: &'a LatencyHistogram,
}

impl Timer<'_> {
    /// Stops and records now (drop does the same; this just names it).
    pub fn stop(self) {}

    /// Discards the measurement (e.g. on an error path that should not
    /// pollute the latency distribution).
    pub fn cancel(mut self) {
        self.start = None;
    }
}

impl Drop for Timer<'_> {
    fn drop(&mut self) {
        if let Some(t0) = self.start.take() {
            // Nanoseconds since t0; truncation from u128 is unreachable
            // for any realistic duration (2^64 ns ≈ 584 years).
            self.hist.record(t0.elapsed().as_nanos() as u64);
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`]. Mergeable and
/// diffable, so per-shard histograms can be combined and intervals
/// measured.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observation counts per log bucket (see [`bucket_bounds`]).
    pub buckets: [u64; BUCKETS],
    /// Sum of all recorded values (for the mean).
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: [0; BUCKETS], sum: 0 }
    }
}

impl std::fmt::Debug for HistogramSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramSnapshot")
            .field("count", &self.count())
            .field("sum", &self.sum)
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .finish()
    }
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Arithmetic mean of recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    /// The value at quantile `q` in `[0, 1]`, reported as the upper bound
    /// of the bucket containing that rank (a conservative estimate; the
    /// log buckets bound the error to 2x).
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bounds(i).1;
            }
        }
        bucket_bounds(BUCKETS - 1).1
    }

    /// Median (upper bucket bound).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile (upper bucket bound).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Element-wise union of two snapshots (bucket-wise addition).
    /// Associative and commutative, so shard snapshots merge in any order.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i] + other.buckets[i]),
            // Wrapping, to match the relaxed fetch_add on the live sum.
            sum: self.sum.wrapping_add(other.sum),
        }
    }

    /// Element-wise difference `self - earlier`, for measuring an
    /// interval. Bucket counts saturate so a snapshot from a different
    /// epoch degrades to zeros; the sum wraps to stay the exact inverse
    /// of the wrapping additions that built it.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| {
                self.buckets[i].saturating_sub(earlier.buckets[i])
            }),
            sum: self.sum.wrapping_sub(earlier.sum),
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A handle to one registered metric.
#[derive(Clone, Debug)]
pub enum Metric {
    /// An event counter.
    Counter(Counter),
    /// An up/down value.
    Gauge(Gauge),
    /// A latency distribution.
    Histogram(LatencyHistogram),
}

/// A hierarchical metric registry: dot-separated names mapped to live
/// handles. Components register at construction; parents compose unified
/// views with [`Registry::adopt`]. The map is behind a mutex (rank
/// `ObsRegistry` in `lock_order.toml`) that the hot path never touches.
#[derive(Debug)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
    timing: AtomicBool,
    #[cfg(feature = "obs-trace")]
    journal: journal::Journal,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            metrics: Mutex::new(BTreeMap::new()),
            timing: AtomicBool::new(true),
            #[cfg(feature = "obs-trace")]
            journal: journal::Journal::new(JOURNAL_CAP),
        }
    }
}

fn join(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}.{name}")
    }
}

impl Registry {
    /// A fresh registry with timing enabled.
    pub fn new() -> Arc<Registry> {
        Arc::new(Registry::default())
    }

    /// A [`Group`] prefixing every registration with `prefix` (empty for
    /// the root).
    pub fn group(self: &Arc<Self>, prefix: &str) -> Group {
        Group { reg: Arc::clone(self), prefix: prefix.to_string() }
    }

    /// Gets or creates the counter registered as `name`. If `name` is
    /// already a different metric kind, returns an unregistered handle
    /// (a programmer error surfaced by the golden dump test, not a
    /// panic in the storage hot path).
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.metrics.lock();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            _ => Counter::default(),
        }
    }

    /// Gets or creates the gauge registered as `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.metrics.lock();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => Gauge::default(),
        }
    }

    /// Gets or creates the histogram registered as `name`, inheriting the
    /// registry's current timing switch.
    pub fn histogram(&self, name: &str) -> LatencyHistogram {
        let timing = self.timing.load(Ordering::Relaxed);
        let mut metrics = self.metrics.lock();
        let entry = metrics.entry(name.to_string()).or_insert_with(|| {
            let h = LatencyHistogram::default();
            h.set_timing(timing);
            Metric::Histogram(h)
        });
        match entry {
            Metric::Histogram(h) => h.clone(),
            _ => LatencyHistogram::default(),
        }
    }

    /// Registers an existing handle under `name`. Returns `false` (and
    /// leaves the registry unchanged) if the name is taken.
    pub fn register(&self, name: &str, metric: Metric) -> bool {
        let mut metrics = self.metrics.lock();
        match metrics.entry(name.to_string()) {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(metric);
                true
            }
            std::collections::btree_map::Entry::Occupied(_) => false,
        }
    }

    /// Clones every metric handle of `other` into this registry under
    /// `prefix` (live aliasing, not copying: both registries observe the
    /// same atomics). Names already present are left alone. Returns how
    /// many handles were adopted.
    pub fn adopt(&self, prefix: &str, other: &Registry) -> usize {
        let imported = other.metric_handles();
        let mut n = 0;
        let mut metrics = self.metrics.lock();
        for (name, handle) in imported {
            if let std::collections::btree_map::Entry::Vacant(v) =
                metrics.entry(join(prefix, &name))
            {
                v.insert(handle);
                n += 1;
            }
        }
        n
    }

    /// All (name, handle) pairs, for adoption.
    fn metric_handles(&self) -> Vec<(String, Metric)> {
        let metrics = self.metrics.lock();
        metrics.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// Enables or disables the timing paths of every histogram currently
    /// registered (and of those registered later).
    pub fn set_timing(&self, on: bool) {
        self.timing.store(on, Ordering::Relaxed);
        let metrics = self.metrics.lock();
        for metric in metrics.values() {
            if let Metric::Histogram(h) = metric {
                h.set_timing(on);
            }
        }
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let metrics = self.metrics.lock();
        let entries = metrics
            .iter()
            .map(|(name, m)| {
                let v = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), v)
            })
            .collect();
        RegistrySnapshot { entries }
    }

    /// Text exposition: one sorted `name value` line per metric (see
    /// [`RegistrySnapshot::dump`]).
    pub fn dump(&self) -> String {
        self.snapshot().dump()
    }

    /// JSON exposition (see [`RegistrySnapshot::to_json`]).
    pub fn dump_json(&self) -> String {
        self.snapshot().to_json()
    }

    /// Records a span event into the `obs-trace` journal. Compiles to
    /// nothing without the feature.
    #[inline]
    pub fn trace(&self, name: &'static str, phase: SpanPhase, arg: u64) {
        #[cfg(feature = "obs-trace")]
        self.journal.record(name, phase, arg);
        #[cfg(not(feature = "obs-trace"))]
        let _ = (name, phase, arg);
    }

    /// Opens a span: records `Begin` now and `End` when the guard drops.
    #[inline]
    pub fn span(&self, name: &'static str, arg: u64) -> SpanGuard<'_> {
        self.trace(name, SpanPhase::Begin, arg);
        SpanGuard { reg: self, name, arg }
    }

    /// Drains a copy of the journal's current contents (empty without the
    /// `obs-trace` feature).
    pub fn trace_events(&self) -> Vec<SpanEvent> {
        #[cfg(feature = "obs-trace")]
        {
            self.journal.events()
        }
        #[cfg(not(feature = "obs-trace"))]
        {
            Vec::new()
        }
    }
}

/// Guard from [`Registry::span`]: emits the `End` event on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    reg: &'a Registry,
    name: &'static str,
    arg: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.reg.trace(self.name, SpanPhase::End, self.arg);
    }
}

// ---------------------------------------------------------------------------
// Group
// ---------------------------------------------------------------------------

/// A registration handle scoped to a name prefix — what a component's
/// `metrics()` accessor returns. `group.counter("hits")` under prefix
/// `cache.private` registers `cache.private.hits`.
#[derive(Clone, Debug)]
pub struct Group {
    reg: Arc<Registry>,
    prefix: String,
}

impl Group {
    /// The backing registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.reg
    }

    /// This group's name prefix.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// A child group: `prefix.name`.
    pub fn sub(&self, name: &str) -> Group {
        Group { reg: Arc::clone(&self.reg), prefix: join(&self.prefix, name) }
    }

    /// Gets or creates `prefix.name` as a counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.reg.counter(&join(&self.prefix, name))
    }

    /// Gets or creates `prefix.name` as a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.reg.gauge(&join(&self.prefix, name))
    }

    /// Gets or creates `prefix.name` as a histogram.
    pub fn histogram(&self, name: &str) -> LatencyHistogram {
        self.reg.histogram(&join(&self.prefix, name))
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// The value of one metric at snapshot time. The histogram variant is
/// ~520 bytes of inline buckets — deliberate: snapshots are short-lived
/// value types and `Copy` matters more than the enum's footprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(clippy::large_enum_variant)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram contents.
    Histogram(HistogramSnapshot),
}

/// A point-in-time copy of a whole [`Registry`], diffable and mergeable.
/// This is the generic replacement for the twelve bespoke
/// `XStatsSnapshot` structs: one `delta()` instead of a hand-written
/// `since()` per subsystem.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// Sorted metric name → value.
    pub entries: BTreeMap<String, MetricValue>,
}

impl RegistrySnapshot {
    /// The raw value for `name`, if present.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.get(name)
    }

    /// Counter value for `name` (0 when absent or not a counter).
    pub fn counter(&self, name: &str) -> u64 {
        match self.entries.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Gauge value for `name` (0 when absent or not a gauge).
    pub fn gauge(&self, name: &str) -> i64 {
        match self.entries.get(name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Histogram snapshot for `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.entries.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Sum of every counter whose name matches `prefix` up to a `.` or
    /// exactly (for rollups like "all storage.a*.page_reads").
    pub fn counter_sum(&self, suffix: &str) -> u64 {
        self.entries
            .iter()
            .filter(|(name, _)| {
                name.as_str() == suffix || name.ends_with(&format!(".{suffix}"))
            })
            .map(|(_, v)| match v {
                MetricValue::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// Interval measurement `self - earlier`: counters and histograms
    /// subtract (saturating); gauges keep their current value. Metrics
    /// missing from `earlier` pass through unchanged.
    pub fn delta(&self, earlier: &RegistrySnapshot) -> RegistrySnapshot {
        let entries = self
            .entries
            .iter()
            .map(|(name, v)| {
                let d = match (v, earlier.entries.get(name)) {
                    (MetricValue::Counter(now), Some(MetricValue::Counter(then))) => {
                        MetricValue::Counter(now.saturating_sub(*then))
                    }
                    (MetricValue::Histogram(now), Some(MetricValue::Histogram(then))) => {
                        MetricValue::Histogram(now.since(then))
                    }
                    (v, _) => *v,
                };
                (name.clone(), d)
            })
            .collect();
        RegistrySnapshot { entries }
    }

    /// Copies every entry of `other` in under `prefix` (existing names
    /// win), composing snapshots from separate registries.
    pub fn merge(&mut self, prefix: &str, other: &RegistrySnapshot) {
        for (name, v) in &other.entries {
            self.entries.entry(join(prefix, name)).or_insert(*v);
        }
    }

    /// Adds `other` into `self` under `prefix`: counters sum, histograms
    /// merge bucket-wise, and gauges take `other`'s value. Where
    /// [`RegistrySnapshot::merge`] composes *disjoint* registries (first
    /// entry wins on collision), `absorb` aggregates *homologous* ones —
    /// e.g. rolling the `client.commit.rtt.ns` histograms of many client
    /// connections into a single fleet-wide distribution.
    pub fn absorb(&mut self, prefix: &str, other: &RegistrySnapshot) {
        for (name, v) in &other.entries {
            let key = join(prefix, name);
            match self.entries.get_mut(&key) {
                None => {
                    self.entries.insert(key, *v);
                }
                Some(mine) => {
                    *mine = match (&*mine, v) {
                        (MetricValue::Counter(a), MetricValue::Counter(b)) => {
                            MetricValue::Counter(a.saturating_add(*b))
                        }
                        (MetricValue::Histogram(a), MetricValue::Histogram(b)) => {
                            MetricValue::Histogram(a.merge(b))
                        }
                        _ => *v,
                    };
                }
            }
        }
    }

    /// Text exposition: `name value` per line; histograms render as
    /// `name count=N sum=N p50=N p99=N`.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.entries {
            match v {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "{name} {c}");
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "{name} {g}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "{name} count={} sum={} p50={} p99={}",
                        h.count(),
                        h.sum,
                        h.p50(),
                        h.p99()
                    );
                }
            }
        }
        out
    }

    /// JSON object mapping names to values; histograms become
    /// `{"count":..,"sum":..,"p50":..,"p99":..,"buckets":{"i":n,..}}`
    /// with only the non-empty buckets listed.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:", json_string(name));
            match v {
                MetricValue::Counter(c) => {
                    let _ = write!(out, "{c}");
                }
                MetricValue::Gauge(g) => {
                    let _ = write!(out, "{g}");
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        "{{\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{},\"buckets\":{{",
                        h.count(),
                        h.sum,
                        h.p50(),
                        h.p99()
                    );
                    let mut first = true;
                    for (b, &c) in h.buckets.iter().enumerate() {
                        if c != 0 {
                            if !first {
                                out.push(',');
                            }
                            let _ = write!(out, "\"{b}\":{c}");
                            first = false;
                        }
                    }
                    out.push_str("}}");
                }
            }
        }
        out.push('}');
        out
    }
}

/// Renders `s` as a quoted JSON string (escaping the control set).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_aggregates_where_merge_keeps_first() {
        let mk = |n: u64, ns: u64| {
            let reg = Registry::new();
            reg.counter("c").add(n);
            reg.histogram("h.ns").record(ns);
            reg.gauge("g").set(n as i64);
            reg.snapshot()
        };
        let a = mk(3, 100);
        let b = mk(5, 100_000);

        let mut merged = a.clone();
        merged.merge("", &b);
        assert_eq!(merged.counter("c"), 3, "merge keeps the existing entry");

        let mut absorbed = a.clone();
        absorbed.absorb("", &b);
        assert_eq!(absorbed.counter("c"), 8, "absorb sums counters");
        assert_eq!(absorbed.gauge("g"), 5, "absorb takes the newest gauge");
        let h = absorbed.histogram("h.ns").unwrap();
        assert_eq!(h.count(), 2, "absorb merges histogram buckets");
        assert!(h.p99() >= 100_000, "slow shard's tail survives the union");

        // Prefixed absorb lands under the prefix.
        let mut pre = RegistrySnapshot::default();
        pre.absorb("s0", &a);
        pre.absorb("s0", &b);
        assert_eq!(pre.counter("s0.c"), 8);
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::unregistered();
        assert_eq!(c.inc(), 0);
        assert_eq!(c.add(4), 1);
        assert_eq!(c.get(), 5);
        let alias = c.clone();
        alias.inc();
        assert_eq!(c.get(), 6);

        let g = Gauge::unregistered();
        g.set(10);
        g.add(5);
        g.sub(7);
        assert_eq!(g.get(), 8);
    }

    #[test]
    fn bucket_scheme_is_total_and_ordered() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 63);
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi);
            assert_eq!(bucket_of(lo), i, "lower bound of bucket {i}");
            assert_eq!(bucket_of(hi), i, "upper bound of bucket {i}");
        }
        // Buckets tile the whole u64 range with no gaps.
        for i in 1..BUCKETS {
            assert_eq!(bucket_bounds(i - 1).1.wrapping_add(1), bucket_bounds(i).0);
        }
    }

    #[test]
    fn histogram_quantiles() {
        let h = LatencyHistogram::unregistered();
        for _ in 0..98 {
            h.record(100); // bucket 7: [64, 127]
        }
        h.record(100_000); // bucket 17
        h.record(1_000_000); // bucket 20
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.p50(), 127);
        assert!(s.p99() >= 100_000);
        assert_eq!(s.mean(), (98 * 100 + 100_000 + 1_000_000) / 100);
    }

    #[test]
    fn timer_records_once() {
        let h = LatencyHistogram::unregistered();
        h.start().stop();
        {
            let _t = h.start();
        }
        h.start().cancel();
        h.start_if(false).stop();
        assert_eq!(h.snapshot().count(), 2);
        h.set_timing(false);
        h.start().stop();
        assert_eq!(h.snapshot().count(), 2);
    }

    #[test]
    fn concurrency_smoke_totals_exact() {
        const THREADS: usize = 8;
        const ITERS: u64 = 10_000;
        let c = Counter::unregistered();
        let h = LatencyHistogram::unregistered();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..ITERS {
                        c.inc();
                        h.record((t as u64) * 1000 + (i % 7));
                    }
                });
            }
        });
        assert_eq!(c.get(), THREADS as u64 * ITERS);
        let s = h.snapshot();
        assert_eq!(s.count(), THREADS as u64 * ITERS);
        let expected_sum: u64 =
            (0..THREADS as u64).map(|t| ITERS * t * 1000 + (0..ITERS).map(|i| i % 7).sum::<u64>()).sum();
        assert_eq!(s.sum, expected_sum);
    }

    #[test]
    fn registry_get_or_create_aliases() {
        let reg = Registry::new();
        let a = reg.counter("x.hits");
        let b = reg.counter("x.hits");
        a.inc();
        b.inc();
        assert_eq!(reg.snapshot().counter("x.hits"), 2);
        // Kind mismatch returns a detached handle, never corrupts.
        let stray = reg.gauge("x.hits");
        stray.set(99);
        assert_eq!(reg.snapshot().counter("x.hits"), 2);
    }

    #[test]
    fn groups_prefix_names() {
        let reg = Registry::new();
        let g = reg.group("cache").sub("private");
        g.counter("hits").inc();
        g.histogram("fault.ns").record(42);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("cache.private.hits"), 1);
        assert_eq!(snap.histogram("cache.private.fault.ns").unwrap().count(), 1);
    }

    #[test]
    fn adopt_aliases_live_handles() {
        let child = Registry::new();
        let hits = child.group("lock").counter("requests");
        let parent = Registry::new();
        assert_eq!(parent.adopt("", &child), 1);
        hits.add(3); // bumped AFTER adoption: parent sees it live
        assert_eq!(parent.snapshot().counter("lock.requests"), 3);
        // Re-adoption and collisions are no-ops.
        assert_eq!(parent.adopt("", &child), 0);
        let other = Registry::new();
        other.group("lock").counter("requests").add(100);
        assert_eq!(parent.adopt("", &other), 0);
        assert_eq!(parent.snapshot().counter("lock.requests"), 3);
        // Prefixed adoption namespaces a second instance.
        assert_eq!(parent.adopt("n2", &other), 1);
        assert_eq!(parent.snapshot().counter("n2.lock.requests"), 100);
    }

    #[test]
    fn snapshot_delta_and_dump() {
        let reg = Registry::new();
        let c = reg.counter("wal.appends");
        let h = reg.histogram("wal.append.ns");
        c.add(5);
        h.record(1000);
        let before = reg.snapshot();
        c.add(7);
        h.record(2000);
        h.record(3000);
        let d = reg.snapshot().delta(&before);
        assert_eq!(d.counter("wal.appends"), 7);
        assert_eq!(d.histogram("wal.append.ns").unwrap().count(), 2);
        let dump = reg.dump();
        assert!(dump.contains("wal.appends 12"), "dump:\n{dump}");
        assert!(dump.contains("wal.append.ns count=3"), "dump:\n{dump}");
    }

    #[test]
    fn counter_sum_rolls_up() {
        let reg = Registry::new();
        reg.counter("storage.a0.page_reads").add(2);
        reg.counter("storage.a1.page_reads").add(3);
        reg.counter("page_reads_unrelated").add(100);
        let s = reg.snapshot();
        assert_eq!(s.counter_sum("page_reads"), 5);
    }

    #[test]
    fn json_is_balanced_and_escaped() {
        let reg = Registry::new();
        reg.counter("a.b").add(1);
        reg.histogram("a.ns").record(7);
        reg.gauge("g").set(-4);
        let json = reg.dump_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced: {json}"
        );
        assert!(json.contains("\"a.b\":1"));
        assert!(json.contains("\"g\":-4"));
        assert!(json.contains("\"count\":1"));
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn set_timing_disables_existing_and_future() {
        let reg = Registry::new();
        let h1 = reg.histogram("one.ns");
        reg.set_timing(false);
        let h2 = reg.histogram("two.ns");
        h1.start().stop();
        h2.start().stop();
        assert_eq!(h1.snapshot().count(), 0);
        assert_eq!(h2.snapshot().count(), 0);
        // Direct record() is unaffected by the timing switch.
        h1.record(5);
        assert_eq!(h1.snapshot().count(), 1);
        reg.set_timing(true);
        h2.start().stop();
        assert_eq!(h2.snapshot().count(), 1);
    }
}
