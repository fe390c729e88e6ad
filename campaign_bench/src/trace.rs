//! In-memory spans around calls into the program's public functions.
//!
//! A span records its name, start, end, parent span and campaign id. The
//! spans stay in memory during the run and are written out as JSONL at
//! the end. A layer's self time is its span's duration minus the part of
//! that interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a recorded span.
pub type SpanId = usize;

/// No parent.
pub const ROOT: SpanId = usize::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: SpanId,
    campaign: usize,
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a root span for one campaign; close it with [`Tracer::close`].
    pub fn root(&mut self, name: &'static str, campaign: usize) -> SpanId {
        self.push(name, ROOT, campaign)
    }

    /// Opens a child span of `parent`; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let campaign = self.spans[parent].campaign;
        self.push(name, parent, campaign)
    }

    fn push(&mut self, name: &'static str, parent: SpanId, campaign: usize) -> SpanId {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            campaign,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = self.epoch.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Records a child span of `duration` ending where `parent` ends, for
    /// time the program measured itself inside the parent call.
    pub fn record_tail(&mut self, name: &'static str, parent: SpanId, duration: Duration) {
        let p = self.spans[parent];
        let duration = duration.min(p.end - p.start);
        self.spans.push(Span {
            name,
            start: p.end - duration,
            end: p.end,
            parent,
            campaign: p.campaign,
        });
    }

    /// Self time per span: duration minus the children's durations.
    fn self_times(&self) -> Vec<Duration> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child[s.parent] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end - s.start).saturating_sub(c))
            .collect()
    }

    /// Total self time and span count per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, (Duration, usize)> {
        let mut out: BTreeMap<&'static str, (Duration, usize)> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += t;
            e.1 += 1;
        }
        out
    }

    /// Durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Checks that every root span's self time plus its descendants'
    /// self times add up to its duration: each child lies inside its
    /// parent and siblings do not overlap. Returns the campaign ids of
    /// the roots that do not reconcile.
    pub fn unreconciled(&self) -> Vec<usize> {
        let selfs = self.self_times();
        let mut sum = vec![Duration::ZERO; self.spans.len()];
        let mut bad = Vec::new();
        // Children are recorded after their parents, so a reverse sweep
        // folds every subtree into its root.
        for i in (0..self.spans.len()).rev() {
            let s = self.spans[i];
            let total = sum[i] + selfs[i];
            if s.parent == ROOT {
                if total != s.end - s.start {
                    bad.push(s.campaign);
                }
                continue;
            }
            let p = self.spans[s.parent];
            if s.start < p.start || s.end > p.end {
                bad.push(s.campaign);
            }
            sum[s.parent] += total;
        }
        let mut last_end: BTreeMap<SpanId, Duration> = BTreeMap::new();
        for s in &self.spans {
            if s.parent == ROOT {
                continue;
            }
            let end = last_end.entry(s.parent).or_default();
            if s.start < *end {
                bad.push(s.campaign);
            }
            *end = (*end).max(s.end);
        }
        bad.sort_unstable();
        bad.dedup();
        bad
    }

    /// Writes every span as one JSONL line (times in ns from the start
    /// of the run).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"campaign\": {}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.campaign
            )
            .expect("string");
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_subtract_children_and_reconcile() {
        let mut tr = Tracer::new();
        let root = tr.root("campaign", 7);
        tr.time("miter.build", root, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        let solve = tr.open("incremental.solve_fault", root);
        std::thread::sleep(Duration::from_millis(2));
        tr.close(solve);
        tr.record_tail("incremental.solve", solve, Duration::from_millis(1));
        tr.close(root);
        let by_name = tr.self_time_by_name();
        let wall = tr.durations("campaign")[0];
        let sum: Duration = by_name.values().map(|(t, _)| *t).sum();
        assert_eq!(sum, wall);
        assert_eq!(by_name["incremental.solve"].0, Duration::from_millis(1));
        assert!(tr.unreconciled().is_empty());
    }

    #[test]
    fn overlapping_siblings_do_not_reconcile() {
        let mut tr = Tracer::new();
        let root = tr.root("campaign", 3);
        let a = tr.open("miter.build", root);
        let b = tr.open("cnf.encode", root);
        tr.close(a);
        tr.close(b);
        tr.close(root);
        assert_eq!(tr.unreconciled(), vec![3]);
    }
}
