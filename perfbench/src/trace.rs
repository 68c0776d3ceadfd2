//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a layer name (`sched.plan`, `simcore.engine`, ...), an
//! optional scheduler-kind label, the request or cell it belongs to, its
//! start and end, the span that caused it, and an optional count (engine
//! events). Spans stay in memory while the workload runs and are written
//! out as JSON lines when it ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub kind: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder for one thread. When disabled it only runs the wrapped
/// calls, so the same driving code serves traced and untraced passes.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        kind: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        self.counted(name, kind, request, |t| (f(t), 0))
    }

    /// Run `f` inside a span whose count is the second value `f` returns.
    pub fn counted<T>(
        &mut self,
        name: &'static str,
        kind: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> (T, u64),
    ) -> T {
        if !self.enabled {
            return f(self).0;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            kind,
            request,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            count: 0,
        });
        self.stack.push(idx);
        let (out, count) = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.count = count;
        out
    }

    /// Move another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans with this name (any kind).
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total duration of the spans with this name, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::dur_ns).sum()
    }

    /// Mean duration in microseconds of the spans with this name (and
    /// kind, when given); 0 when there are none.
    pub fn mean_us(&self, name: &str, kind: Option<&str>) -> f64 {
        let (sum, n) = self
            .named(name)
            .filter(|s| kind.is_none_or(|k| s.kind == k))
            .fold((0u64, 0u64), |(sum, n), s| (sum + s.dur_ns(), n + 1));
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64 / 1e3
        }
    }

    /// Nanoseconds per counted unit over the spans with this name (and
    /// kind); 0 when nothing was counted.
    pub fn ns_per_count(&self, name: &str, kind: Option<&str>) -> f64 {
        let (ns, count) = self
            .named(name)
            .filter(|s| kind.is_none_or(|k| s.kind == k))
            .fold((0u64, 0u64), |(ns, c), s| (ns + s.dur_ns(), c + s.count));
        if count == 0 {
            0.0
        } else {
            ns as f64 / count as f64
        }
    }

    /// Per-name `(spans, total ns, self ns)`, where self time is a span's
    /// duration minus the time its child spans cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(child);
        }
        out
    }

    /// Print the per-layer summary on stderr and write every span as one
    /// JSON line to `path`.
    pub fn finish(&self, path: &Path) -> std::io::Result<()> {
        eprintln!("layer spans: name, spans, total ms, self ms");
        for (name, (n, total, own)) in self.summary() {
            eprintln!(
                "  {name:<28} {n:>9} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"kind\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"count\":{}}}",
                s.name,
                s.kind,
                s.request,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.count
            )?;
        }
        out.flush()?;
        eprintln!("wrote {} spans to {}", self.spans.len(), path.display());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("outer", "", 7, |t| {
            t.counted("inner", "umr", 7, |_| ((), 5));
        });
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].count, 5);
        let summary = t.summary();
        let (_, total, own) = summary["outer"];
        assert_eq!(own, total - t.spans()[1].dur_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("outer", "", 0, |_| 3), 3);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_reindexes_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin);
        a.span("x", "", 0, |_| ());
        let mut b = Tracer::new(true, origin);
        b.span("y", "", 1, |t| t.span("z", "", 1, |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
