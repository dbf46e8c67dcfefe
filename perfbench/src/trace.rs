//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (the layer call, e.g. `xml.parse`), a start and an
//! end, the span that was open when it began (its parent), and a group id
//! shared by every span of one release or one request. Spans live in
//! memory while the run measures and are written out as JSON lines when
//! it ends. A layer's *self time* is its span's duration minus the part
//! of that interval its child spans cover.
//!
//! Recording is off in untraced runs: `span` then costs one branch.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub name: &'static str,
    pub group: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The span recorder. Single-threaded: the benchmark drives every layer
/// from one thread (the server's worker is observed from the client).
pub struct Tracer {
    enabled: Cell<bool>,
    epoch: Instant,
    spans: RefCell<Vec<SpanRec>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled: Cell::new(enabled),
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Switches recording on or off (the traced run alternates rounds to
    /// measure the recorder's own overhead).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` in group `group`; it closes when the
    /// guard drops. The innermost open span becomes its parent.
    pub fn span(&self, name: &'static str, group: u64) -> SpanGuard<'_> {
        if !self.enabled.get() {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let parent = self.open.borrow().last().copied();
        let start_ns = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans.push(SpanRec {
            name,
            group,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        let index = spans.len() - 1;
        self.open.borrow_mut().push(index);
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&self, name: &'static str, group: u64, f: impl FnOnce() -> R) -> R {
        let _span = self.span(name, group);
        f()
    }

    #[cfg(test)]
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.borrow().clone()
    }

    /// Per-name totals and self times over every recorded span.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans.borrow())
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"group\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.group, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(index) = self.index else {
            return;
        };
        let end = self.tracer.now_ns();
        if let Some(s) = self.tracer.spans.borrow_mut().get_mut(index) {
            s.end_ns = end;
        }
        let mut open = self.tracer.open.borrow_mut();
        if let Some(pos) = open.iter().rposition(|&i| i == index) {
            open.truncate(pos);
        }
    }
}

/// Self time of every span, aggregated by name: a span's duration minus
/// the part of its interval covered by its direct children.
pub fn layer_times(spans: &[SpanRec]) -> BTreeMap<&'static str, LayerTime> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| spans.get(p).map(|ps| (p, ps))) {
            let (pi, ps) = p;
            let lo = s.start_ns.max(ps.start_ns);
            let hi = s.end_ns.min(ps.end_ns);
            covered[pi] += hi.saturating_sub(lo);
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, cov) in spans.iter().zip(covered) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(cov);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> SpanRec {
        SpanRec {
            name,
            group: 1,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // release [0,100] → parse [10,30], merge [40,90] → index [50,70]
        let spans = vec![
            rec("release", None, 0, 100),
            rec("parse", Some(0), 10, 30),
            rec("merge", Some(0), 40, 90),
            rec("index", Some(2), 50, 70),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["release"].self_ns, 30);
        assert_eq!(t["release"].total_ns, 100);
        assert_eq!(t["parse"].self_ns, 20);
        assert_eq!(t["merge"].self_ns, 30);
        assert_eq!(t["index"].self_ns, 20);
        // a layer's self times sum to the root's total
        let sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn self_time_aggregates_by_name_and_clips_overhang() {
        let spans = vec![
            rec("request", None, 0, 10),
            rec("codec", Some(0), 0, 4),
            rec("codec", Some(0), 8, 14), // overhangs its parent by 4
            rec("request", None, 20, 25),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["request"].count, 2);
        assert_eq!(t["request"].self_ns, (10 - 4 - 2) + 5);
        assert_eq!(t["codec"].total_ns, 10);
    }

    #[test]
    fn recorder_nests_spans_and_shares_groups() {
        let tr = Tracer::new(true);
        {
            let _outer = tr.span("outer", 7);
            tr.time("inner", 7, || std::hint::black_box(1 + 1));
        }
        tr.time("after", 8, || ());
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].group, 7);
        assert_eq!(spans[2].parent, None);
        assert!(spans[0].end_ns >= spans[1].end_ns);

        let off = Tracer::new(false);
        off.time("ignored", 1, || ());
        assert!(off.spans().is_empty());
        let mut out = Vec::new();
        tr.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 3);
    }
}
