//! Command line of the benchmark:
//!
//! ```text
//! stackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run's facts as one JSON line, then, as the last line, the
//! result object `{"correct", "attempted", "failed", "metrics"}`. Exits
//! with 1 when a correctness check fails and 2 on a usage or set-up error.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use stackbench::gen::Scale;
use stackbench::run::{run, Outcome, RunCfg, CLIENTS};
use stackbench::Workload;

/// Environment variables of the I/O runtime that the benchmark must not
/// inherit: it measures the inline executor that ships.
const IO_ENV: [&str; 2] = ["BESS_IO_EXEC", "BESS_IO_WORKERS"];

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: stackbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(cwd: &Path) -> Result<RunCfg, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(usage());
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(usage()),
        }
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        return Err(usage());
    };
    Ok(RunCfg {
        workload,
        seed,
        seconds,
        warmup: 2.0,
        trace,
        scale: Scale::full(),
        setups: 7,
        work_dir: cwd.join(".stackbench_tmp"),
        trace_out: cwd
            .join(".stackbench_out")
            .join(format!("trace-{}.tsv", workload.name())),
    })
}

/// The checkout's commit, read from `.git` in the working directory only.
fn git_rev(cwd: &Path) -> String {
    let git = cwd.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({name})"))
}

/// The filesystem type holding `dir`, as `stat -f` reports it.
fn fs_type(dir: &Path) -> String {
    let _ = std::fs::create_dir_all(dir);
    std::process::Command::new("stat")
        .args(["-f", "-c", "%T"])
        .arg(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("stackbench: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = match parse_args(&cwd) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("stackbench: {e}");
            return ExitCode::from(2);
        }
    };
    let inherited: Vec<String> = IO_ENV
        .iter()
        .map(|k| {
            format!(
                "{k}={}",
                std::env::var(k).unwrap_or_else(|_| "<unset>".into())
            )
        })
        .collect();
    // Still single-threaded here, so editing the environment is sound.
    for k in IO_ENV {
        std::env::remove_var(k);
    }
    let tmp_fs = fs_type(&cfg.work_dir);
    let outcome = run(&cfg);
    let _ = std::fs::remove_dir(&cfg.work_dir);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("stackbench: {} failed: {e}", cfg.workload.name());
            return ExitCode::from(2);
        }
    };

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut facts: Vec<(&str, String)> = vec![
        ("workload", cfg.workload.name().into()),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("warmup_s", cfg.warmup.to_string()),
        ("trace", u8::from(cfg.trace).to_string()),
        ("git_rev", git_rev(&cwd)),
        ("nproc", nproc.to_string()),
        ("clients", CLIENTS.to_string()),
        ("schedule_digest", format!("{:016x}", outcome.digest)),
        ("io_env_inherited", inherited.join(" ")),
        (
            "io_executor",
            "inline (BESS_IO_EXEC unset, as shipped)".into(),
        ),
        ("tmp_fs", tmp_fs.clone()),
        (
            "label",
            format!(
                "wire latency zero (in-process bess-net); area and WAL files on the \
                 local {tmp_fs} filesystem with a real fsync; not a device claim"
            ),
        ),
    ];
    facts.extend(outcome.facts.iter().map(|(k, v)| (*k, v.clone())));
    for p in &outcome.problems {
        facts.push(("problem", p.clone()));
    }
    let facts: Vec<String> = facts
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"info\": {{{}}}}}", facts.join(", "));
    for m in &outcome.metrics {
        eprintln!("{:<40} {:>14.3} {}", m.name, m.value, m.unit);
    }
    for p in &outcome.problems {
        eprintln!("stackbench: check failed: {p}");
    }
    println!("{}", result_line(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
