//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A traced run wraps every operation in a root span and every public
//! call it makes in a child span; phase timings a call reports about
//! itself (`QueryStats`) are laid out as children of that call's span.
//! Spans stay in memory and are written out when the run ends. A
//! layer's *self time* is its span's duration minus the part of that
//! interval its direct children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed interval. Spans of one operation share `op`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub op: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread span log. All recorders of a run share one `epoch` so
/// their timestamps are comparable after [`Recorder::append`].
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Recorder { epoch, spans: Vec::with_capacity(capacity), open: Vec::new() }
    }

    /// The instant this recorder's timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn enter(&mut self, op: u32, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span { id, op, parent, name, start_ns, end_ns: start_ns });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`; returns its
    /// duration.
    pub fn exit(&mut self, id: u32) -> u64 {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    /// Lays `phases` (name, nanoseconds) end to end as closed children
    /// of the span `parent`, starting where the parent starts. The
    /// durations are what the call reported about itself; only their
    /// sum against the parent's duration carries meaning.
    pub fn phases(&mut self, parent: u32, phases: &[(&'static str, u64)]) {
        let (op, mut at) = {
            let p = &self.spans[parent as usize];
            (p.op, p.start_ns)
        };
        for &(name, ns) in phases {
            let id = self.spans.len() as u32;
            self.spans.push(Span { id, op, parent, name, start_ns: at, end_ns: at + ns });
            at += ns;
        }
    }

    /// Moves `other`'s spans behind this recorder's, renumbering them.
    pub fn append(&mut self, other: Recorder) {
        assert!(self.open.is_empty() && other.open.is_empty(), "append needs closed spans");
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += shift;
            if s.parent != NO_PARENT {
                s.parent += shift;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: `{id, op, parent, name, start_ns,
    /// end_ns}`; a root's parent is `null`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent =
                if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
            writeln!(
                w,
                "{{\"id\":{},\"op\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.op, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Totals of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name span count, total duration and self time. A child's
/// contribution is clipped to its parent's interval, so a child that
/// claims more than its parent lasted cannot drive self time negative.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let lo = s.start_ns.max(p.start_ns);
            let hi = s.end_ns.min(p.end_ns);
            covered[s.parent as usize] += hi.saturating_sub(lo);
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(covered[s.id as usize]);
    }
    out
}

/// Total length of the union of `intervals` (start, end): the time
/// during which at least one of them was open.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut open: Option<(u64, u64)> = None;
    for (lo, hi) in intervals {
        match open {
            Some((_, end)) if lo <= end => open = open.map(|(s, e)| (s, e.max(hi))),
            _ => {
                if let Some((s, e)) = open {
                    total += e - s;
                }
                open = Some((lo, hi));
            }
        }
    }
    total + open.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, op: 0, parent, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // op [0,100) holds call [10,90), which holds two sibling phases
        // [10,30) and [30,70); a third sibling sits directly under op.
        let spans = vec![
            span(0, NO_PARENT, "op", 0, 100),
            span(1, 0, "call", 10, 90),
            span(2, 1, "phase-a", 10, 30),
            span(3, 1, "phase-b", 30, 70),
            span(4, 0, "check", 90, 95),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"], NameTotals { count: 1, total_ns: 100, self_ns: 15 });
        assert_eq!(t["call"], NameTotals { count: 1, total_ns: 80, self_ns: 20 });
        assert_eq!(t["phase-a"].self_ns, 20);
        assert_eq!(t["phase-b"].self_ns, 40);
        assert_eq!(t["check"].self_ns, 5);
        // Self times of a tree add up to its root.
        assert_eq!(t.values().map(|n| n.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn overlong_child_is_clipped_to_its_parent() {
        let spans = vec![span(0, NO_PARENT, "call", 0, 50), span(1, 0, "phase", 0, 80)];
        assert_eq!(self_times(&spans)["call"].self_ns, 0);
    }

    #[test]
    fn recorder_nests_and_appends() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch, 8);
        let op = a.enter(7, "op");
        let call = a.enter(7, "call");
        a.exit(call);
        a.phases(call, &[("p1", 5), ("p2", 6)]);
        a.exit(op);
        let mut b = Recorder::new(epoch, 8);
        let op_b = b.enter(8, "op");
        b.exit(op_b);
        a.append(b);
        let s = a.spans();
        assert_eq!(s.len(), 5);
        assert_eq!((s[1].parent, s[2].parent, s[3].parent), (0, 1, 1));
        assert_eq!(s[3].start_ns, s[2].end_ns);
        assert_eq!((s[4].id, s[4].parent, s[4].op), (4, NO_PARENT, 8));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(0, 10), (5, 20), (30, 40)]), 30);
        assert_eq!(union_ns(vec![(5, 6), (0, 100)]), 100);
    }
}
