//! Spans around the benchmark's calls into each engine layer.
//!
//! A span is opened before a call into a public engine function and closed
//! after it: name (`<crate>.<what>`), start, end, the span that was open
//! when it started, and the id of the op it belongs to. Spans stay in
//! memory and are written as JSON lines when the run ends. With tracing
//! off, [`Tracer::enter`]/[`Tracer::exit`] still time the call (the
//! end-to-end metrics need that) but record nothing.

use crate::stats::Samples;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<crate>.<what>`, e.g. `exec.suspend`.
    pub name: &'static str,
    /// Nanoseconds from the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Id shared by every span of one op.
    pub op: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span, returned by [`Tracer::enter`].
pub struct Open {
    idx: Option<usize>,
    start: Instant,
}

/// A closed span's index (when recorded) and length.
pub struct Closed {
    /// Index into the span list; `None` with tracing off.
    pub idx: Option<usize>,
    /// Wall-clock length of the span.
    pub elapsed: Duration,
}

impl Closed {
    /// Length in milliseconds.
    pub fn ms(&self) -> f64 {
        self.elapsed.as_secs_f64() * 1e3
    }
}

/// In-memory span recorder of one (single-threaded) client.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` times without recording.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// True when spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span under whichever span is open now.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        let start = Instant::now();
        let idx = self.enabled.then(|| {
            let at = (start - self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at,
                parent: self.open.last().copied(),
                op,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { idx, start }
    }

    /// Close the innermost open span, which must be `span`.
    pub fn exit(&mut self, span: Open) -> Closed {
        let elapsed = span.start.elapsed();
        if let Some(i) = span.idx {
            assert_eq!(self.open.pop(), Some(i), "spans must close innermost first");
            self.spans[i].end_ns = self.spans[i].start_ns + elapsed.as_nanos() as u64;
        }
        Closed {
            idx: span.idx,
            elapsed,
        }
    }

    /// Record a child of the closed span `parent` for time the engine
    /// reports having spent inside that call (e.g. the optimizer's
    /// `OptimizeReport::elapsed` inside a suspend). It is placed at the
    /// parent's start and clipped to the parent's length.
    pub fn reported_child(&mut self, parent: &Closed, name: &'static str, spent: Duration) {
        let Some(p) = parent.idx else { return };
        let (start_ns, op, len) = (
            self.spans[p].start_ns,
            self.spans[p].op,
            self.spans[p].dur_ns(),
        );
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + (spent.as_nanos() as u64).min(len),
            parent: Some(p),
            op,
        });
    }

    /// Self time of every span: its length minus its direct children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Lengths in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Samples {
        let mut out = Samples::new();
        out.extend(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64 / 1e6),
        );
        out
    }

    /// Self times in milliseconds of every span called `name`.
    pub fn self_ms(&self, name: &str) -> Samples {
        let own = self.self_ns();
        let mut out = Samples::new();
        out.extend(
            self.spans
                .iter()
                .zip(&own)
                .filter(|(s, _)| s.name == name)
                .map(|(_, ns)| *ns as f64 / 1e6),
        );
        out
    }

    /// Share of the root spans called `root` that no child span covers:
    /// time the benchmark spent in its own code inside an op.
    pub fn uncovered_share(&self, root: &str) -> f64 {
        let own = self.self_ns();
        let (mut bare, mut total) = (0u64, 0u64);
        for (s, ns) in self.spans.iter().zip(&own) {
            if s.name == root && s.parent.is_none() {
                bare += ns;
                total += s.dur_ns();
            }
        }
        crate::stats::ratio(bare as f64, total as f64)
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 7,
        }
    }

    fn fixed() -> Tracer {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("bench.job", 0, 100, None),
            span("exec.suspend", 10, 50, Some(0)),
            span("core.optimize", 10, 25, Some(1)),
            span("exec.resume", 50, 90, Some(0)),
        ];
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op: 100 - (40 + 40); suspend: 40 - 15; leaves keep their length.
        assert_eq!(fixed().self_ns(), vec![20, 25, 15, 40]);
    }

    #[test]
    fn self_times_of_a_tree_sum_to_its_root() {
        let t = fixed();
        assert_eq!(t.self_ns().iter().sum::<u64>(), 100);
        assert!((t.uncovered_share("bench.job") - 0.20).abs() < 1e-12);
    }

    #[test]
    fn enter_and_exit_nest_and_share_the_op_id() {
        let mut t = Tracer::new(true);
        let a = t.enter("bench.job", 3);
        let b = t.enter("exec.start", 3);
        t.exit(b);
        let closed = t.exit(a);
        t.reported_child(&closed, "core.optimize", Duration::from_secs(3600));
        let s = &t.spans;
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].parent, None);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        // A reported child is clipped to its parent.
        assert_eq!((s[2].parent, s[2].end_ns), (Some(0), s[0].end_ns));
    }

    #[test]
    fn a_disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let a = t.enter("bench.job", 1);
        let closed = t.exit(a);
        assert!(closed.idx.is_none());
        assert!(t.spans.is_empty());
    }
}
