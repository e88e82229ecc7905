//! Spans recorded by the benchmark around its own calls into each layer's
//! public functions. Spans live in memory and are written out once, when
//! the run ends. A disabled tracer only runs the closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// Id shared by every span of one solve or request (the root's id).
    pub trace: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    /// Open spans of this thread: (id, trace).
    stack: RefCell<Vec<(u64, u64)>>,
    next: RefCell<u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            next: RefCell::new(1),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = {
            let mut n = self.next.borrow_mut();
            *n += 1;
            *n - 1
        };
        let parent = self.stack.borrow().last().copied();
        let trace = parent.map_or(id, |(_, t)| t);
        self.stack.borrow_mut().push((id, trace));
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut().push(Span {
            id,
            trace,
            parent: parent.map(|(p, _)| p),
            name,
            start_ns,
            end_ns,
        });
        r
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Summed self time (ns) of every span named `name`.
    pub fn self_ns(&self, name: &str) -> f64 {
        let spans = self.spans.borrow();
        self_times(&spans)
            .into_iter()
            .zip(spans.iter())
            .filter(|(_, s)| s.name == name)
            .map(|(t, _)| t as f64)
            .sum()
    }
}

/// Self time of each span: its duration minus the union of the intervals
/// its direct children cover (children may overlap when they ran on
/// several threads).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur_ns();
            };
            kids.sort_unstable();
            let (mut covered, mut cur_lo, mut cur_hi) = (0u64, 0u64, 0u64);
            for &(lo, hi) in kids.iter() {
                let (lo, hi) = (lo.max(s.start_ns), hi.min(s.end_ns));
                if lo >= hi {
                    continue;
                }
                if lo > cur_hi {
                    covered += cur_hi - cur_lo;
                    (cur_lo, cur_hi) = (lo, hi);
                } else {
                    cur_hi = cur_hi.max(hi);
                }
            }
            covered += cur_hi - cur_lo;
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals: (count, total ms, self ms), sorted by self time.
pub fn summary(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let mut by: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for (s, st) in spans.iter().zip(self_times(spans)) {
        let e = by.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns() as f64 / 1e6;
        e.2 += st as f64 / 1e6;
    }
    let mut rows: Vec<_> = by.into_iter().map(|(n, (c, t, s))| (n, c, t, s)).collect();
    rows.sort_by(|a, b| b.3.total_cmp(&a.3));
    rows
}

/// Write spans as JSON lines to `path` (creating its directory).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"trace\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.trace, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            trace: 1,
            parent,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),
            span(4, Some(1), 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 30, 20, 30]);
    }

    #[test]
    fn nested_spans_share_the_root_trace() {
        let t = Tracer::new(true);
        t.span("a", || t.span("b", || ()));
        t.span("c", || ());
        let s = t.spans();
        let (a, b, c) = (s[1], s[0], s[2]);
        assert_eq!(b.parent, Some(a.id));
        assert_eq!(b.trace, a.id);
        assert_eq!(c.trace, c.id);
        assert!(Tracer::new(false).span("a", || 7) == 7);
    }
}
