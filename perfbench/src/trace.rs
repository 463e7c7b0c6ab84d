//! In-memory span recorder for the traced run.
//!
//! A span records a name, start, end, its parent span, and an id — the
//! exec index, shared by every span of one execution. Spans are kept
//! in memory while the run executes and written out when it ends. A
//! span's self time is its duration minus the time its child spans
//! cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span wraps (`layer.call`).
    pub name: &'static str,
    /// Exec index shared by all spans of one execution.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, in nanoseconds since the tracer was created.
    pub start: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Per-name totals over a finished trace.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed self time, in seconds.
    pub self_s: f64,
    /// Every span's duration, in nanoseconds (for percentiles).
    pub durations: Vec<u64>,
}

/// The span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) {
        let index = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(index);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let index = self.open.pop().expect("end() without a matching begin()");
        self.spans[index as usize].end = self.now();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, id);
        let out = f();
        self.end();
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name call counts, self times and durations.
    pub fn stats(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p as usize] += span.duration();
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let s = out.entry(span.name).or_default();
            s.calls += 1;
            s.self_s += span.duration().saturating_sub(children) as f64 * 1e-9;
            s.durations.push(span.duration());
        }
        out
    }

    /// Nanoseconds covered by the top-level spans whose name `keep`
    /// accepts and that start at or after `from` and end at or before
    /// `to`.
    pub fn covered_ns(&self, from: u64, to: u64, keep: impl Fn(&str) -> bool) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.start >= from && s.end <= to && keep(s.name))
            .map(Span::duration)
            .sum()
    }

    /// Writes the spans as tab-separated `index id name parent start_ns
    /// end_ns` lines.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tid\tname\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.id, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Measured cost of recording one span (a `begin`/`end` pair), in
/// nanoseconds: the median over batches of throwaway spans.
pub fn span_cost_ns() -> f64 {
    let mut per_span: Vec<f64> = (0..7)
        .map(|_| {
            let mut t = Tracer::new();
            let n = 20_000u64;
            let started = Instant::now();
            for i in 0..n {
                t.begin("calibrate", i);
                t.end();
            }
            std::hint::black_box(t.spans().len());
            started.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    crate::stats::median(&mut per_span)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.begin("outer", 0);
        t.span("inner", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end();
        let stats = t.stats();
        let outer = &stats["outer"];
        let inner = &stats["inner"];
        assert_eq!(outer.calls, 1);
        assert!(inner.self_s >= 0.005);
        assert!(outer.self_s < inner.self_s, "{outer:?} vs {inner:?}");
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}
