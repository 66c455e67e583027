//! Client-side spans of a traced run.
//!
//! Each span records its name, start, end and parent; the spans of one
//! transaction share its trace id. They are kept in memory per client and
//! written out when the run ends. Server-side device and WAL force time
//! cannot be linked to a transaction from outside the program, so those
//! are reported per layer in aggregate instead (see `device`).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// One timed call, in nanoseconds since the run's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The transaction this span belongs to.
    pub trace: u64,
    /// Index of this span within its trace (0 is the root).
    pub id: u32,
    /// Index of the parent span, `None` for the root.
    pub parent: Option<u32>,
    /// Layer boundary the span times.
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
}

/// Duration of `span` minus the part of it covered by `children`.
pub fn self_time(span: &Span, children: &[Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (span.end - span.start).saturating_sub(covered)
}

/// Self times of every span, grouped by span name. `spans` holds whole
/// traces, each contiguous with its root first.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for trace in spans.chunk_by(|a, b| a.trace == b.trace) {
        for s in trace {
            let children: Vec<Span> = trace
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .copied()
                .collect();
            out.entry(s.name).or_default().push(self_time(s, &children));
        }
    }
    out
}

/// Writes the spans as tab-separated lines to `path`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "trace\tspan\tparent\tname\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            f,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.trace, s.id, parent, s.name, s.start, s.end
        )?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            trace: 1,
            id,
            parent,
            name: "x",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let root = span(0, None, 0, 100);
        let kids = [
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 40),
            span(3, Some(0), 90, 120),
        ];
        // Covered: [10, 40) and [90, 100) = 40.
        assert_eq!(self_time(&root, &kids), 60);
        assert_eq!(self_time(&root, &[]), 100);
    }
}
