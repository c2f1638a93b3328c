//! Outside-in tracing: spans recorded by the benchmark around its own
//! calls into each layer, held in memory and written out as JSON lines
//! when the workload ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The pass, request or replay this span belongs to.
    pub trace: u64,
    /// Unique within the run (never 0).
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// `<module>.<operation>`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Work counted at this boundary.
    pub counts: Vec<(&'static str, u64)>,
}

/// A span that has started but not yet been recorded.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    trace: u64,
    id: u64,
    parent: Option<u64>,
    start: Instant,
}

impl Open {
    /// The span's trace id.
    pub fn trace(&self) -> u64 {
        self.trace
    }
}

/// The span recorder. A disabled tracer records nothing, so untraced runs
/// pay only for the `Instant::now` calls they make anyway.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Starts a span in `trace`, caused by `parent`.
    pub fn open(&self, trace: u64, parent: Option<&Open>) -> Open {
        Open {
            trace,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: parent.map(|p| p.id),
            start: Instant::now(),
        }
    }

    /// Records an open span as ending now.
    pub fn close(&self, open: Open, name: &'static str, counts: &[(&'static str, u64)]) {
        self.record(open, name, Instant::now(), counts);
    }

    /// Records an open span as ending at `end`.
    pub fn record(
        &self,
        open: Open,
        name: &'static str,
        end: Instant,
        counts: &[(&'static str, u64)],
    ) {
        if !self.on {
            return;
        }
        let span = Span {
            trace: open.trace,
            id: open.id,
            parent: open.parent,
            name,
            start_ns: self.ns(open.start),
            end_ns: self.ns(end).max(self.ns(open.start)),
            counts: counts.to_vec(),
        };
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .push(span);
    }

    /// Records a span with explicit bounds under `parent`.
    pub fn record_between(
        &self,
        parent: &Open,
        name: &'static str,
        start: Instant,
        end: Instant,
        counts: &[(&'static str, u64)],
    ) {
        let open = Open {
            start,
            ..self.open(parent.trace, Some(parent))
        };
        self.record(open, name, end, counts);
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn time<T>(&self, parent: &Open, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.open(parent.trace, Some(parent));
        let out = f();
        self.close(open, name, &[]);
        out
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A copy of the spans recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .clone()
    }

    /// Every recorded span, in recording order.
    pub fn finish(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("no span recorder panics while holding the lock")
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover (children running in parallel count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name, in seconds.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name).or_insert(0.0) += ns as f64 * 1e-9;
    }
    out
}

/// Writes spans as JSON lines:
/// `{"trace":…,"span":…,"parent":…|null,"name":…,"start_ns":…,"end_ns":…,"counts":{…}}`.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let counts: Vec<String> = s
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        writeln!(
            out,
            "{{\"trace\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"counts\":{{{}}}}}",
            s.trace,
            s.id,
            parent,
            s.name,
            s.start_ns,
            s.end_ns,
            counts.join(",")
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            trace: 1,
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(1, None, 0, 100),
            // Two parallel children overlapping on [20, 40].
            span(2, Some(1), 10, 40),
            span(3, Some(1), 20, 50),
            // A child recorded after its parent ended covers nothing.
            span(4, Some(1), 120, 130),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 30, 30, 10]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let root = t.open(1, None);
        t.time(&root, "a", || ());
        t.close(root, "root", &[]);
        assert!(t.finish().is_empty());
    }

    #[test]
    fn enabled_tracer_links_children_to_parents() {
        let t = Tracer::new(true);
        let root = t.open(7, None);
        t.time(&root, "child", || ());
        t.close(root, "root", &[("n", 3)]);
        let spans = t.finish();
        assert_eq!(spans.len(), 2);
        let (child, root) = (&spans[0], &spans[1]);
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(root.counts, vec![("n", 3)]);
        assert!(spans.iter().all(|s| s.trace == 7 && s.end_ns >= s.start_ns));
    }
}
