//! The benchmark's own checks: schedules are a function of the seed, a
//! tiny run of every listed workload passes its correctness checks, and
//! the metrics it prints are exactly the ones `BENCHMARK.json` declares.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use stackbench::gen::{schedules, Scale};
use stackbench::run::{run, RunCfg, CLIENTS};
use stackbench::{Workload, END_TO_END, PER_LAYER};

// ---------------------------------------------------------------------------
// A minimal JSON reader for BENCHMARK.json (no serde offline).
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum Json {
    /// `true`, `false` or `null` (the benchmark file uses none).
    Word,
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        while self.s[self.i] != b'"' {
            if self.s[self.i] == b'\\' {
                self.i += 1;
            }
            out.push(self.s[self.i] as char);
            self.i += 1;
        }
        self.i += 1;
        out
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' | b'f' | b'n' => {
                while self.i < self.s.len() && self.s[self.i].is_ascii_alphabetic() {
                    self.i += 1;
                }
                Json::Word
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii number");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|e| panic!("number {text}: {e}")),
                )
            }
        }
    }
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => panic!("not an array"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            _ => panic!("not a number"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(m) => m.keys().map(String::as_str).collect(),
            _ => panic!("not an object"),
        }
    }
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing bytes in BENCHMARK.json");
    v
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn listed_workloads() -> Vec<Workload> {
    benchmark_json()
        .get("workloads")
        .arr()
        .iter()
        .map(|w| {
            let name = w.get("name").str();
            Workload::parse(name).unwrap_or_else(|| panic!("unknown workload {name}"))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[test]
fn same_seed_same_schedule_digest() {
    let scale = Scale::tiny();
    for w in Workload::ALL {
        let (a, da) = schedules(w, &scale, 7, CLIENTS);
        let (b, db) = schedules(w, &scale, 7, CLIENTS);
        let (_, dc) = schedules(w, &scale, 8, CLIENTS);
        assert_eq!(a, b, "{}: schedules differ for one seed", w.name());
        assert_eq!(da, db, "{}: digests differ for one seed", w.name());
        assert_ne!(da, dc, "{}: seeds 7 and 8 share a digest", w.name());
    }
}

#[test]
fn partitioned_clients_share_no_page() {
    let (scheds, _) = schedules(Workload::OltpPartitioned, &Scale::tiny(), 3, CLIENTS);
    let per_page = stackbench::gen::PAGE_RECORDS as u32;
    for (c, sched) in scheds.iter().enumerate() {
        for txn in sched {
            let stackbench::gen::Txn::Objects(ops) = txn else {
                panic!("oltp_partitioned generated {txn:?}");
            };
            for &(obj, _) in ops {
                assert_eq!(
                    (obj / per_page) as usize % CLIENTS,
                    c,
                    "object {obj} off client {c}'s pages"
                );
            }
        }
    }
}

#[test]
fn metric_tables_match_benchmark_json() {
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), own(END_TO_END));
    assert_eq!(declared("per_layer"), own(PER_LAYER));
}

#[test]
fn benchmark_json_keeps_its_shape() {
    let b = benchmark_json();
    assert_eq!(
        b.keys(),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let secs = b.get("run_seconds").num();
    assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
    let workloads = b.get("workloads").arr();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(w.keys(), ["name", "why"]);
    }
    let bounds: Vec<(String, f64)> = b
        .get("end_to_end")
        .arr()
        .iter()
        .map(|m| {
            assert_eq!(m.keys(), ["better", "bound", "name", "unit"]);
            (m.get("name").str().to_string(), m.get("bound").num())
        })
        .collect();
    assert!(bounds.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
    let setup = bounds
        .iter()
        .find(|(n, _)| n == "setup_s")
        .expect("setup_s declared")
        .1;
    assert!(
        bounds.iter().all(|(_, b)| *b <= setup),
        "setup_s must carry the largest bound"
    );
    for m in b.get("per_layer").arr() {
        assert_eq!(m.keys(), ["better", "name", "unit"]);
    }
}

fn tiny(w: Workload, trace: bool, seconds: f64) -> RunCfg {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "selftest-{}-{}",
        w.name(),
        u8::from(trace)
    ));
    RunCfg {
        workload: w,
        seed: 5,
        seconds,
        warmup: 0.2,
        trace,
        scale: Scale::tiny(),
        setups: 2,
        work_dir: dir.join("stacks"),
        trace_out: dir.join("trace.tsv"),
    }
}

fn printed(cfg: &RunCfg) -> Vec<(String, String)> {
    let out = run(cfg).unwrap_or_else(|e| panic!("{} did not run: {e}", cfg.workload.name()));
    assert!(
        out.correct,
        "{} failed its checks: {:?}",
        cfg.workload.name(),
        out.problems
    );
    assert!(
        out.attempted > 0,
        "{} attempted nothing",
        cfg.workload.name()
    );
    assert!(out.metrics.iter().all(|m| m.value.is_finite()));
    out.metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn listed_workloads_pass_their_checks_and_print_the_declared_metrics() {
    for w in listed_workloads() {
        assert_eq!(
            printed(&tiny(w, false, 1.0)),
            declared("end_to_end"),
            "{}",
            w.name()
        );
        assert_eq!(
            printed(&tiny(w, true, 1.0)),
            declared("per_layer"),
            "{}",
            w.name()
        );
    }
}

// The two workloads below are implemented as specified but are not listed
// in BENCHMARK.json: on the shipped stack they lose acknowledged updates.
// Run them with `cargo test -- --ignored`.

#[test]
#[ignore = "lost updates: a lock callback that races a client's in-flight S-to-X upgrade \
            releases the cached S entry, the server then drops the just-granted X, and two \
            caching clients hold X on one page"]
fn oltp_zipf_keeps_acknowledged_updates() {
    printed(&tiny(Workload::OltpZipf, false, 3.0));
}

#[test]
#[ignore = "lost updates: a commit is acknowledged before the participant applies its \
            one-way decide, and the participant serves the page to the next reader first"]
fn dist_2pc_keeps_acknowledged_updates() {
    printed(&tiny(Workload::Dist2pc, false, 3.0));
}
