//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer (the program
//! itself is not instrumented). Each span has a name, a start, an end, a
//! parent and a request id; the spans of one served request share that
//! id. Spans stay in memory and are written out once, at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Record every `SAMPLE`-th per-operation span; phase spans are always
/// kept. Sampling bounds memory on multi-second runs without biasing the
/// per-span means.
pub const SAMPLE: u64 = 16;

/// One closed span. Times are nanoseconds since the tracer started.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique id (1-based; 0 means "no parent").
    pub id: u32,
    /// Parent span id, or 0.
    pub parent: u32,
    /// Request id shared by the spans of one request (0 for phases).
    pub req: u64,
    /// Layer name.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

/// An open span: its id and start.
#[derive(Clone, Copy, Debug)]
pub struct Open {
    id: u32,
    parent: u32,
    req: u64,
    name: &'static str,
    start: u64,
}

impl Open {
    /// The span's id, for parenting children.
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// The recorder. When off, every method is a cheap no-op.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    next: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            next: 1,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Whether per-operation span `seq` is in the sample.
    pub fn sampled(&self, seq: u64) -> bool {
        self.on && seq.is_multiple_of(SAMPLE)
    }

    /// Nanoseconds since the tracer started.
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the tracer's start to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Opens a span under `parent` (0 for none).
    pub fn open(&mut self, name: &'static str, parent: u32, req: u64) -> Open {
        let id = if self.on {
            self.next += 1;
            self.next - 1
        } else {
            0
        };
        Open {
            id,
            parent,
            req,
            name,
            start: if self.on { self.now() } else { 0 },
        }
    }

    /// Closes a span now.
    pub fn close(&mut self, o: Open) {
        if self.on {
            let end = self.now();
            self.spans.push(Span {
                id: o.id,
                parent: o.parent,
                req: o.req,
                name: o.name,
                start: o.start,
                end,
            });
        }
    }

    /// Records an already-timed span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        start: u64,
        end: u64,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.next;
        self.next += 1;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start,
            end,
        });
        id
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as a tab-separated line.
    ///
    /// # Errors
    ///
    /// File creation or write failures.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                f,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.req, s.name, s.start, s.end
            )?;
        }
        f.flush()
    }
}

/// Per-layer self time: `(spans, total self ns)` by span name. A span's
/// self time is its duration minus the part of it that the union of its
/// children's intervals covers (children may overlap, as pipelined
/// requests under one load phase do).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let (mut lo, mut hi) = (0u64, 0u64);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start), b.min(s.end));
                if b <= a {
                    continue;
                }
                if a > hi {
                    covered += hi - lo;
                    (lo, hi) = (a, b);
                } else {
                    hi = hi.max(b);
                }
            }
            covered += hi - lo;
        }
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += (s.end - s.start).saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, 0, "phase", 0, 100),
            span(2, 1, "req", 10, 40),
            span(3, 1, "req", 30, 60),  // overlaps the first: union 10..60
            span(4, 1, "req", 80, 120), // clipped to the parent's end
            span(5, 2, "decode", 35, 40),
        ];
        let t = self_times(&spans);
        assert_eq!(t["phase"], (1, 100 - 50 - 20));
        assert_eq!(t["req"], (3, (30 - 5) + 30 + 40));
        assert_eq!(t["decode"], (1, 5));
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let o = tr.open("x", 0, 0);
        tr.close(o);
        assert_eq!(tr.record("y", 0, 0, 1, 2), 0);
        assert!(tr.spans().is_empty());
        assert!(!tr.sampled(0));
    }

    #[test]
    fn ids_are_unique_and_parents_link() {
        let mut tr = Tracer::new(true);
        let root = tr.open("root", 0, 0);
        let child = tr.record("child", root.id(), 7, 1, 2);
        tr.close(root);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_ne!(s[0].id, s[1].id);
        assert_eq!(s[0].parent, root.id());
        assert_eq!(s[0].id, child);
        assert_eq!(s[0].req, 7);
    }
}
