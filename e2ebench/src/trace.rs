//! In-memory spans recorded by the harness around each call into a
//! layer of the system under test.
//!
//! A span has a name, a start and end (nanoseconds since the run
//! began), the span that caused it, and the operation it belongs to.
//! Spans stay in memory and are written out once the run ends. With
//! tracing off a span costs one branch.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span recorder of one run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; it records itself when dropped. Id 0 means "no span"
/// (tracing off, or the root).
pub struct Open<'a> {
    tracer: &'a Tracer,
    pub id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    start: Instant,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span named `name` under `parent` for operation `op`.
    pub fn open(&self, name: &'static str, parent: u64, op: u64) -> Open<'_> {
        let id = if self.enabled {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            tracer: self,
            id,
            parent,
            op,
            name,
            start: Instant::now(),
        }
    }

    /// Runs `f` inside a span and returns its result with its wall time.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: u64,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let span = self.open(name, parent, op);
        let out = f();
        let took = span.start.elapsed();
        drop(span);
        (out, took)
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Count and self time per span name. Self time is the span's
    /// duration minus the part of it that its children cover (children
    /// on parallel threads may overlap; their union is subtracted once).
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, Duration)> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<&'static str, (u64, Duration)> = BTreeMap::new();
        for s in &spans {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| union_within(c, s.start_ns, s.end_ns));
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += Duration::from_nanos(own);
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let nanos = |t: Instant| {
            u64::try_from(t.duration_since(self.tracer.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        let span = Span {
            id: self.id,
            parent: self.parent,
            op: self.op,
            name: self.name,
            start_ns: nanos(self.start),
            end_ns: nanos(Instant::now()),
        };
        // A poisoned list only loses trace data; never panic in drop.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Total length of the union of `intervals`, clipped to `[lo, hi)`.
fn union_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(union_within(&[(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(union_within(&[(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(union_within(&[], 0, 10), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        {
            let parent = t.open("parent", 0, 0);
            std::thread::sleep(Duration::from_millis(5));
            let ((), _) = t.time("child", parent.id, 1, || {
                std::thread::sleep(Duration::from_millis(20));
            });
        }
        let s = t.summary();
        assert_eq!(s["parent"].0, 1);
        assert_eq!(s["child"].0, 1);
        assert!(s["child"].1 >= Duration::from_millis(20));
        assert!(s["parent"].1 < Duration::from_millis(20));
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let ((), took) = t.time("x", 0, 0, || {});
        assert!(took < Duration::from_secs(1));
        assert!(t.spans().is_empty());
    }
}
