//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from outside the program, around the calls into each
//! layer: name, start, end, the span that caused it, and the op they all
//! belong to. Nothing is written until the run ends. The benchmark is one
//! client thread, so the open-span stack gives every span its parent.

use crate::stats::self_time;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer-qualified name (`crate.module.function`).
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start: u64,
    /// End, ns since the recorder's origin.
    pub end: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The op (request) this span belongs to.
    pub op: u32,
}

/// Per-name totals of one traced pass.
#[derive(Clone, Debug, Default)]
pub struct LayerTotals {
    /// Summed self time per span name, ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Spans recorded per name.
    pub spans: BTreeMap<&'static str, u64>,
    /// Duration of every root span, ns, in op order.
    pub root_ns: Vec<u64>,
}

/// The span recorder.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span; a span opened with
    /// nothing open is a root and starts the next op.
    pub fn enter(&mut self, name: &'static str) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        if parent == NO_PARENT {
            self.op += 1;
        }
        let index = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op: self.op,
        });
        self.open.push(index);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now();
        if let Some(index) = self.open.pop() {
            self.spans[index as usize].end = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// The spans recorded since the last [`clear`](Self::clear).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Forgets every recorded span (buffers are kept).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.open.clear();
    }

    /// Self time and span count per name, plus every root's duration.
    pub fn totals(&self) -> LayerTotals {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                children[s.parent as usize].push((s.start, s.end));
            }
        }
        let mut totals = LayerTotals::default();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            *totals.self_ns.entry(s.name).or_insert(0) += self_time(s.start, s.end, kids);
            *totals.spans.entry(s.name).or_insert(0) += 1;
            if s.parent == NO_PARENT {
                totals.root_ns.push(s.end - s.start);
            }
        }
        totals
    }

    /// Writes the spans of the first `max_ops` ops as JSON lines:
    /// `{"op":…,"span":…,"parent":…,"name":…,"start_ns":…,"end_ns":…}`.
    pub fn write_jsonl(&self, path: &Path, max_ops: u32) -> std::io::Result<()> {
        let first_op = self.spans.first().map_or(0, |s| s.op);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            if s.op - first_op >= max_ops {
                break;
            }
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"op\":{},\"span\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span named `name` when a recorder is given, bare
/// otherwise — one code path for the traced and the untraced form of an op.
pub fn span_if<T>(rec: &mut Option<&mut Recorder>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(rec) => rec.span(name, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_assigns_parents_and_ops() {
        let mut rec = Recorder::new();
        rec.span("op", || ());
        rec.enter("op");
        rec.span("a", || ());
        rec.enter("b");
        rec.span("a", || ());
        rec.exit();
        rec.exit();
        let s = rec.spans();
        assert_eq!(s.len(), 5);
        assert_eq!((s[0].parent, s[0].op), (NO_PARENT, 1));
        assert_eq!((s[1].parent, s[1].op), (NO_PARENT, 2));
        assert_eq!((s[2].parent, s[3].parent, s[4].parent), (1, 1, 3));
        assert!(s.iter().all(|x| x.end >= x.start));
        let totals = rec.totals();
        assert_eq!(totals.spans["a"], 2);
        assert_eq!(totals.root_ns.len(), 2);
        // Self times of an op's spans add up to the op's duration.
        let op2: u64 = totals.root_ns[1];
        let own: u64 = [1usize, 2, 3, 4]
            .iter()
            .map(|&i| {
                let mut kids: Vec<(u64, u64)> = s
                    .iter()
                    .filter(|c| c.parent == i as u32)
                    .map(|c| (c.start, c.end))
                    .collect();
                self_time(s[i].start, s[i].end, &mut kids)
            })
            .sum();
        assert_eq!(own, op2);
    }
}
