//! The benchmark's tracing: wall-clock spans recorded around each call
//! into a layer, and a trace sink that taps the program's own
//! `cgra_obs` events.
//!
//! Spans live in memory for the whole run and are written out once, at
//! the end. When tracing is off a [`Ctx`] carries no log and a span is a
//! plain function call.

use crate::stats;
use cgra_obs::{TraceEvent, TraceSink, Tracer};
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// The work item the span belongs to (0 outside items).
    pub item: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store shared by every worker of a run.
pub struct SpanLog {
    origin: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"item\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.item, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Where a call sits in the span tree: the log (if tracing), the
/// enclosing span and the item being worked on.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    log: Option<&'a SpanLog>,
    parent: Option<u32>,
    item: u64,
    /// Whether items tap the program's events.
    tap: bool,
}

impl<'a> Ctx<'a> {
    /// The root context of a run; `log` is `None` when tracing is off.
    pub fn root(log: Option<&'a SpanLog>) -> Self {
        Ctx {
            log,
            parent: None,
            item: 0,
            tap: log.is_some(),
        }
    }

    /// Whether spans are recorded.
    pub fn traced(&self) -> bool {
        self.log.is_some()
    }

    /// This context, tapping the program's events even when spans are
    /// off (for runs the trace oracle must replay).
    pub fn tapped(self) -> Self {
        Ctx { tap: true, ..self }
    }

    /// Run `f` inside a span called `name`; children opened through the
    /// context `f` receives record this span as their parent.
    pub fn span<R>(self, name: &'static str, f: impl FnOnce(Ctx<'a>) -> R) -> R {
        let Some(log) = self.log else {
            return f(self);
        };
        let id = log.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = log.now();
        let r = f(Ctx {
            parent: Some(id),
            ..self
        });
        let span = Span {
            id,
            parent: self.parent,
            item: self.item,
            name,
            start_ns,
            end_ns: log.now(),
        };
        log.spans.lock().expect("span log poisoned").push(span);
        r
    }

    /// [`span`](Self::span) for one work item: the item span and every
    /// span below it carry `item`.
    pub fn item<R>(self, name: &'static str, item: u64, f: impl FnOnce(Ctx<'a>) -> R) -> R {
        Ctx { item, ..self }.span(name, f)
    }

    /// A program tracer for one item, feeding a fresh [`Tap`] when
    /// events are tapped, and off otherwise.
    pub fn tap(&self) -> (Tracer, Option<Arc<Tap>>) {
        if self.tap {
            Tap::new()
        } else {
            (Tracer::off(), None)
        }
    }
}

/// A `cgra_obs` sink that keeps the events of one item in memory.
#[derive(Default)]
pub struct Tap(Mutex<Vec<TraceEvent>>);

impl Tap {
    pub fn new() -> (Tracer, Option<Arc<Tap>>) {
        let tap = Arc::new(Tap::default());
        (Tracer::new(tap.clone()), Some(tap))
    }

    pub fn drain(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.0.lock().expect("tap poisoned"))
    }
}

impl TraceSink for Tap {
    fn record(&self, ev: TraceEvent) {
        self.0.lock().expect("tap poisoned").push(ev);
    }
}

/// Program events counted by kind.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EventCounts {
    pub total: u64,
    /// Mapper searches started (`MapBegin`).
    pub searches: u64,
    /// Placement attempts that failed at an op (`Backtrack`).
    pub backtracks: u64,
    /// Complete attempts the validator rejected (`Evict`).
    pub evictions: u64,
    /// Searches that accepted a mapping (`MapEnd` with success).
    pub accepted: u64,
    /// Simulator events (`SimBegin` through `SimEnd`/`SimAbort`).
    pub sim: u64,
}

impl EventCounts {
    pub fn of(events: &[TraceEvent]) -> Self {
        let mut c = EventCounts {
            total: events.len() as u64,
            ..Default::default()
        };
        for ev in events {
            match ev {
                TraceEvent::MapBegin { .. } => c.searches += 1,
                TraceEvent::Backtrack { .. } => c.backtracks += 1,
                TraceEvent::Evict { .. } => c.evictions += 1,
                TraceEvent::MapEnd { success, .. } => c.accepted += u64::from(*success),
                TraceEvent::Place { .. }
                | TraceEvent::Route { .. }
                | TraceEvent::TransformBegin { .. }
                | TraceEvent::TransformEnd { .. } => {}
                _ => c.sim += 1,
            }
        }
        c
    }

    /// Every placement attempt: failed, evicted or accepted.
    pub fn attempts(&self) -> u64 {
        self.backtracks + self.evictions + self.accepted
    }

    pub fn add(&mut self, o: &EventCounts) {
        self.total += o.total;
        self.searches += o.searches;
        self.backtracks += o.backtracks;
        self.evictions += o.evictions;
        self.accepted += o.accepted;
        self.sim += o.sim;
    }
}

/// Self time per span name, and per name for spans directly under an
/// item (the item's own layer calls), plus the total item time.
#[derive(Debug, Default)]
pub struct SelfTimes {
    pub by_name: BTreeMap<&'static str, u64>,
    pub in_items: BTreeMap<&'static str, u64>,
    pub item_ns: u64,
}

impl SelfTimes {
    pub fn of(spans: &[Span]) -> Self {
        let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        let mut names: HashMap<u32, &'static str> = HashMap::new();
        for s in spans {
            names.insert(s.id, s.name);
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out = SelfTimes::default();
        for s in spans {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            let own = stats::self_time(s.start_ns, s.end_ns, kids);
            *out.by_name.entry(s.name).or_default() += own;
            if s.name == "item" {
                out.item_ns += s.end_ns - s.start_ns;
            } else if s.parent.and_then(|p| names.get(&p)) == Some(&"item") {
                *out.in_items.entry(s.name).or_default() += own;
            }
        }
        out
    }

    pub fn ms(&self, name: &str) -> f64 {
        self.by_name.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Share of item time spent in spans whose name starts with `prefix`.
    pub fn item_share_pct(&self, prefix: &str) -> f64 {
        let ns: u64 = self
            .in_items
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, v)| v)
            .sum();
        if self.item_ns == 0 {
            0.0
        } else {
            100.0 * ns as f64 / self.item_ns as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            item: 0,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_times_attribute_nested_spans() {
        let spans = vec![
            span(1, None, "pass", 0, 1000),
            span(2, Some(1), "item", 0, 400),
            span(3, Some(2), "mapper.baseline", 10, 110),
            span(4, Some(2), "mapper.constrained", 110, 390),
            span(5, Some(1), "item", 300, 900),
            span(6, Some(5), "mapper.constrained", 300, 800),
        ];
        let t = SelfTimes::of(&spans);
        // Two items overlap on [300, 400): the pass is covered by their
        // union [0, 900), not by their sum.
        assert_eq!(t.by_name["pass"], 100);
        assert_eq!(t.by_name["item"], 20 + 100);
        assert_eq!(t.by_name["mapper.constrained"], 280 + 500);
        assert_eq!(t.item_ns, 1000);
        assert!((t.item_share_pct("mapper") - 88.0).abs() < 1e-9);
        assert_eq!(t.item_share_pct("sim"), 0.0);
    }

    #[test]
    fn untraced_context_records_nothing() {
        let ctx = Ctx::root(None);
        assert_eq!(ctx.span("x", |c| c.item("item", 7, |_| 3)), 3);
        let (tracer, tap) = ctx.tap();
        assert!(!tracer.is_on() && tap.is_none());
        let (tracer, tap) = ctx.tapped().tap();
        assert!(tracer.is_on() && tap.is_some());
    }

    #[test]
    fn traced_context_links_parents_and_items() {
        let log = SpanLog::new();
        Ctx::root(Some(&log)).span("pass", |c| c.item("item", 9, |c| c.span("sim.mt", |_| ())));
        let spans = log.spans();
        let by = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        assert_eq!(by("sim.mt").parent, Some(by("item").id));
        assert_eq!(by("item").parent, Some(by("pass").id));
        assert_eq!((by("sim.mt").item, by("pass").item), (9, 0));
    }
}
