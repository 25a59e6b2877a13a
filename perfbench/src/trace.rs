//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out when the run ends.
//!
//! Every span carries the index of the request it belongs to, so a
//! layer's self time is its span minus the spans whose parent it is.

use crate::stats::{self, Interval};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The benchmark's clock: nanoseconds since the run started.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock whose zero is now.
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// Nanoseconds since the clock started.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Traced runs record the spans of one request in this many (whole
/// requests, chosen by index), which keeps a long traced run's spans in
/// memory without dropping any.
pub const SAMPLE: u64 = 32;

/// Is request `req` one whose spans are recorded?
#[inline]
pub fn sampled(req: u64) -> bool {
    req.is_multiple_of(SAMPLE)
}

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Index of the request the span belongs to.
    pub req: u64,
    /// What was timed, named after the layer entry point.
    pub name: &'static str,
    /// Name of the enclosing span of the same request, if any.
    pub parent: Option<&'static str>,
    /// Start, ns on the run clock.
    pub start: u64,
    /// End, ns on the run clock.
    pub end: u64,
}

/// A per-thread span buffer with a fixed capacity, so recording never
/// allocates inside a timed phase. Spans past the capacity are counted
/// and dropped.
pub struct SpanBuf {
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanBuf {
    /// A buffer holding at most `cap` spans.
    pub fn with_capacity(cap: usize) -> SpanBuf {
        SpanBuf {
            spans: Vec::with_capacity(cap),
            dropped: 0,
        }
    }

    /// Record one span.
    #[inline]
    pub fn push(&mut self, span: Span) {
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }
}

/// Spans merged from every thread of one traced phase.
#[derive(Default)]
pub struct Trace {
    /// All recorded spans.
    pub spans: Vec<Span>,
    /// Spans dropped because a buffer was full.
    pub dropped: u64,
}

impl Trace {
    /// Merge per-thread buffers.
    pub fn absorb(&mut self, buf: SpanBuf) {
        self.spans.extend(buf.spans);
        self.dropped += buf.dropped;
    }

    /// Durations (ns) of every span called `name`, sorted ascending.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let mut d: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect();
        d.sort_unstable();
        d
    }

    /// Self times (ns) of every span called `name`, sorted ascending:
    /// each span minus the union of its same-request children.
    pub fn self_times(&self, name: &str) -> Vec<u64> {
        let mut children: BTreeMap<u64, Vec<Interval>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent == Some(name) {
                children.entry(s.req).or_default().push(Interval {
                    start: s.start,
                    end: s.end,
                });
            }
        }
        let mut out: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let kids = children.get(&s.req).map_or(&[][..], Vec::as_slice);
                stats::self_time(
                    Interval {
                        start: s.start,
                        end: s.end,
                    },
                    kids,
                )
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Write at most `limit` spans as CSV (`req,name,parent,start_ns,end_ns`).
    pub fn write_csv(&self, path: &std::path::Path, limit: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "req,name,parent,start_ns,end_ns")?;
        for s in self.spans.iter().take(limit) {
            writeln!(
                w,
                "{},{},{},{},{}",
                s.req,
                s.name,
                s.parent.unwrap_or(""),
                s.start,
                s.end
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_group_children_by_request() {
        let mut buf = SpanBuf::with_capacity(8);
        let span = |req, name, parent, start, end| Span {
            req,
            name,
            parent,
            start,
            end,
        };
        buf.push(span(0, "request", None, 0, 100));
        buf.push(span(0, "call", Some("request"), 10, 90));
        buf.push(span(1, "request", None, 100, 150));
        buf.push(span(1, "call", Some("request"), 100, 150));
        buf.push(span(2, "request", None, 200, 230));
        let mut t = Trace::default();
        t.absorb(buf);
        assert_eq!(t.self_times("request"), vec![0, 20, 30]);
        assert_eq!(t.durations("call"), vec![50, 80]);
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn full_buffer_counts_drops() {
        let mut buf = SpanBuf::with_capacity(1);
        let s = Span {
            req: 0,
            name: "x",
            parent: None,
            start: 0,
            end: 1,
        };
        buf.push(s);
        buf.push(s);
        let mut t = Trace::default();
        t.absorb(buf);
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.dropped, 1);
    }
}
