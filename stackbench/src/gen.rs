//! Seeded input generation: the RNG, the access distributions, and the
//! per-client transaction schedules every workload replays.
//!
//! Everything here is a pure function of `(workload, scale, seed)`, so a
//! run can be reproduced from its seed and compared by its schedule
//! digest. The generator is self-contained (SplitMix64 + FNV-1a) so the
//! inputs do not shift when a vendored crate changes.

use crate::Workload;

/// SplitMix64: small, fast, and good enough for workload sampling.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a over the generated schedule: same seed, same digest.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one value in.
    pub fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Zipf-distributed ranks over `[0, n)` with skew `theta`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler (one pass over `n` weights).
    pub fn new(n: usize, theta: f64) -> Zipf {
        let mut cdf: Vec<f64> = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).collect();
        let total: f64 = cdf.iter().sum();
        let mut acc = 0.0;
        for w in cdf.iter_mut() {
            acc += *w / total;
            *w = acc;
        }
        Zipf { cdf }
    }

    /// Samples a rank (0 is the hottest).
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Spreads zipf ranks over the object space with a fixed bijection on
/// `[0, n)` (`n` a power of two): multiplication by an odd constant. Hot
/// objects then land on different pages, as they would in a real
/// database, instead of all sharing page 0.
pub fn scatter(rank: usize, n: usize) -> usize {
    debug_assert!(n.is_power_of_two());
    rank.wrapping_mul(0x9e37_79b1) & (n - 1)
}

/// Sizes of one run's data and schedules.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// `oltp_zipf`: 64-byte objects (64 per 4 KiB page).
    pub objects: usize,
    /// `read_hotcold`: stamped pages preloaded on the server.
    pub hot_cold_pages: usize,
    /// `read_hotcold`: pages in the hot set.
    pub hot_pages: usize,
    /// `dist_2pc`: pages in each server's area.
    pub dist_pages: usize,
    /// Transactions generated per client; a client that runs out wraps
    /// around to the start of its schedule.
    pub txns_per_client: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Scale {
        Scale {
            objects: 65_536,
            hot_cold_pages: 4_096,
            hot_pages: 410,
            dist_pages: 4_096,
            txns_per_client: 1 << 17,
        }
    }

    /// A small configuration for self-tests.
    pub fn tiny() -> Scale {
        Scale {
            objects: 4_096,
            hot_cold_pages: 256,
            hot_pages: 26,
            dist_pages: 256,
            txns_per_client: 1 << 10,
        }
    }
}

/// Objects touched by one `oltp_zipf` transaction.
pub const OLTP_OPS: usize = 4;
/// Share of `oltp_zipf` object operations that write.
pub const OLTP_WRITE_PROB: f64 = 0.2;
/// Zipf skew of `oltp_zipf`.
pub const OLTP_THETA: f64 = 0.99;
/// Pages read by one point-read `read_hotcold` transaction.
pub const POINT_READS: usize = 8;
/// Pages read by one scan `read_hotcold` transaction.
pub const SCAN_PAGES: usize = 32;
/// Probability that a `read_hotcold` point read hits the hot set.
pub const HOT_PROB: f64 = 0.8;

/// One scheduled transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Txn {
    /// `oltp_zipf`: distinct objects, each read or written.
    Objects(Vec<(u32, bool)>),
    /// `read_hotcold`: page indices to read, ascending (point reads are
    /// distinct and sorted; a scan is contiguous).
    Reads(Vec<u32>),
    /// `dist_2pc`: one page index on each server's area.
    Pair(u32, u32),
}

fn salt(w: Workload) -> u64 {
    let mut d = Digest::default();
    for b in w.name().bytes() {
        d.mix(u64::from(b));
    }
    d.value()
}

/// Generates every client's schedule and their digest.
pub fn schedules(w: Workload, scale: &Scale, seed: u64, clients: usize) -> (Vec<Vec<Txn>>, u64) {
    let mut digest = Digest::default();
    digest.mix(seed);
    digest.mix(salt(w));
    // The objects a client draws from: all of them, or, partitioned, those
    // on every `clients`-th page starting at its own index.
    let private = if w == Workload::OltpPartitioned {
        clients
    } else {
        1
    };
    let pool = scale.objects / private;
    let zipf = matches!(w, Workload::OltpZipf | Workload::OltpPartitioned)
        .then(|| Zipf::new(pool, OLTP_THETA));
    let per_page = PAGE_RECORDS;
    let mut out = Vec::with_capacity(clients);
    for c in 0..clients {
        let mut rng = Rng::new(seed ^ salt(w) ^ (c as u64 + 1).wrapping_mul(0xd1b5_4a32_d192_ed03));
        let mut txns = Vec::with_capacity(scale.txns_per_client);
        for _ in 0..scale.txns_per_client {
            let txn = match w {
                Workload::OltpZipf | Workload::OltpPartitioned => {
                    let zipf = zipf.as_ref().expect("zipf built for oltp workloads");
                    let mut ops: Vec<(u32, bool)> = Vec::with_capacity(OLTP_OPS);
                    while ops.len() < OLTP_OPS {
                        let local = scatter(zipf.sample(&mut rng), pool);
                        let page = (local / per_page) * private + c % private;
                        let obj = (page * per_page + local % per_page) as u32;
                        if ops.iter().any(|&(o, _)| o == obj) {
                            continue;
                        }
                        ops.push((obj, rng.unit() < OLTP_WRITE_PROB));
                    }
                    Txn::Objects(ops)
                }
                Workload::ReadHotcold => {
                    let n = scale.hot_cold_pages;
                    if rng.below(8) == 0 {
                        let start = rng.below(n - SCAN_PAGES + 1) as u32;
                        Txn::Reads((start..start + SCAN_PAGES as u32).collect())
                    } else {
                        let mut pages: Vec<u32> = Vec::with_capacity(POINT_READS);
                        while pages.len() < POINT_READS {
                            let p = if rng.unit() < HOT_PROB {
                                rng.below(scale.hot_pages)
                            } else {
                                scale.hot_pages + rng.below(n - scale.hot_pages)
                            } as u32;
                            if !pages.contains(&p) {
                                pages.push(p);
                            }
                        }
                        pages.sort_unstable();
                        Txn::Reads(pages)
                    }
                }
                Workload::Dist2pc => Txn::Pair(
                    rng.below(scale.dist_pages) as u32,
                    rng.below(scale.dist_pages) as u32,
                ),
            };
            match &txn {
                Txn::Objects(ops) => ops.iter().for_each(|&(o, wr)| {
                    digest.mix(u64::from(o));
                    digest.mix(u64::from(wr));
                }),
                Txn::Reads(pages) => {
                    digest.mix(pages.len() as u64);
                    pages.iter().for_each(|&p| digest.mix(u64::from(p)));
                }
                Txn::Pair(a, b) => {
                    digest.mix(u64::from(*a));
                    digest.mix(u64::from(*b));
                }
            }
            txns.push(txn);
        }
        out.push(txns);
    }
    (out, digest.value())
}

/// The 4 KiB stamp of a `read_hotcold` page: page number and seed in the
/// first 16 bytes, then a stream derived from both. A read returning any
/// other bytes is a wrong read.
pub fn page_stamp(page: u64, seed: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&page.to_le_bytes());
    out.extend_from_slice(&seed.to_le_bytes());
    let mut rng = Rng::new(page.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ seed);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Bytes in one counter record (an `oltp_zipf` object, a `dist_2pc`
/// branch write).
pub const RECORD: usize = 64;

/// Records per 4 KiB page.
pub const PAGE_RECORDS: usize = 4096 / RECORD;

/// The 64-byte record holding `count` acknowledged increments of object
/// `key`: the count, then 56 bytes derived from `(key, count)`. The
/// never-written record (count 0) is all zeros, as a fresh page is.
pub fn record(key: u64, count: u64) -> [u8; RECORD] {
    let mut out = [0u8; RECORD];
    if count == 0 {
        return out;
    }
    out[..8].copy_from_slice(&count.to_le_bytes());
    let mut rng = Rng::new(key.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ count);
    for chunk in out[8..].chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    out
}

/// Decodes a record: its count if the bytes are a valid record of `key`.
pub fn record_count(key: u64, bytes: &[u8]) -> Option<u64> {
    let count = u64::from_le_bytes(bytes[..8].try_into().ok()?);
    (bytes[..RECORD] == record(key, count)).then_some(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_is_a_bijection() {
        let n = 1 << 12;
        let mut seen = vec![false; n];
        for r in 0..n {
            seen[scatter(r, n)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn records_round_trip() {
        assert_eq!(record_count(7, &[0u8; RECORD]), Some(0));
        assert_eq!(record_count(7, &record(7, 300)), Some(300));
        assert_eq!(record_count(8, &record(7, 300)), None);
    }

    #[test]
    fn zipf_is_skewed() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Rng::new(1);
        let top10 = (0..10_000).filter(|_| z.sample(&mut rng) < 10).count();
        assert!(top10 > 2000, "top-10 drew {top10}/10000");
    }
}
