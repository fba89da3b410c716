//! The benchmark's own spans, recorded around its calls into the
//! program's layers.
//!
//! Spans live in memory while a run measures and are written out once it
//! ends. A disabled [`Tracer`] records nothing, so the untraced run pays
//! only for the `Instant` reads its end-to-end metrics need anyway.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are microseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the tracer, never 0.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The layer boundary, e.g. `jit.exec`.
    pub name: &'static str,
    /// The request this span serves: a generation or genome on a tuning
    /// workload, a job on `service-churn`.
    pub request: u64,
    /// Start, µs since the epoch.
    pub start_us: f64,
    /// End, µs since the epoch.
    pub end_us: f64,
}

impl Span {
    /// Wall time covered, µs.
    #[must_use]
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; records itself when dropped. Inert when tracing is off.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    request: u64,
    start: Instant,
}

impl SpanGuard<'_> {
    /// This span's id, to pass as a child's parent (`None` when tracing
    /// is off).
    #[must_use]
    pub fn id(&self) -> Option<u64> {
        (self.id != 0).then_some(self.id)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.id != 0 {
            self.tracer.push(
                self.id,
                self.parent,
                self.name,
                self.request,
                self.start,
                Instant::now(),
            );
        }
    }
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span that closes when the guard drops.
    #[must_use]
    pub fn span(&self, name: &'static str, parent: Option<u64>, request: u64) -> SpanGuard<'_> {
        let id = if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        SpanGuard {
            tracer: self,
            id,
            parent,
            name,
            request,
            start: Instant::now(),
        }
    }

    /// Records a span whose interval was measured by the caller. Returns
    /// its id (`None` when tracing is off).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(id, parent, name, request, start, end);
        Some(id)
    }

    fn push(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let span = Span {
            id,
            parent,
            name,
            request,
            start_us: at(start),
            end_us: at(end),
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Every recorded span, ordered by start.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span buffer poisoned").clone();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.id.cmp(&b.id)));
        spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover. Children running in parallel on several
/// threads may overlap; their union is what is subtracted.
#[must_use]
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start_us;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_us));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.duration_us() - covered)
        })
        .collect()
}

/// Spans of one name, totalled.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    /// How many spans.
    pub count: u64,
    /// Summed duration, µs.
    pub total_us: f64,
    /// Summed self time (see [`self_times`]), µs.
    pub self_us: f64,
}

impl NameTotal {
    /// Mean self time per span, µs (0 for none).
    #[must_use]
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_us / self.count as f64
        }
    }
}

/// Span totals by name: what the per-layer time metrics are read from.
#[derive(Debug, Clone, Default)]
pub struct SpanTotals(HashMap<&'static str, NameTotal>);

impl SpanTotals {
    /// The totals of spans named `name` (all zero when there are none).
    #[must_use]
    pub fn get(&self, name: &str) -> NameTotal {
        self.0.get(name).copied().unwrap_or_default()
    }
}

/// Totals `spans` by name, with self times from [`self_times`].
#[must_use]
pub fn totals_by_name(spans: &[Span]) -> SpanTotals {
    let selfs = self_times(spans);
    let mut out: HashMap<&'static str, NameTotal> = HashMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_us += s.duration_us();
        t.self_us += selfs[&s.id];
    }
    SpanTotals(out)
}

/// Writes spans as JSON lines, one span per line.
///
/// # Errors
/// I/O failures.
pub fn write_jsonl(spans: &[Span], path: &Path) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"request\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.id, s.name, s.request, s.start_us, s.end_us
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    out.flush().map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_us: f64, end_us: f64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            request: 0,
            start_us,
            end_us,
        }
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        let spans = vec![
            span(1, None, 0.0, 100.0),
            span(2, Some(1), 10.0, 50.0),
            span(3, Some(1), 30.0, 70.0),
            span(4, Some(1), 90.0, 120.0),
        ];
        let selfs = self_times(&spans);
        // Children cover [10,70] and [90,100] of the parent.
        assert_eq!(selfs[&1], 30.0);
        assert_eq!(selfs[&2], 40.0);
    }

    #[test]
    fn totals_by_name_sum_durations_and_self_times() {
        let spans = vec![
            span(1, None, 0.0, 100.0),
            span(2, Some(1), 10.0, 50.0),
            span(3, None, 200.0, 260.0),
        ];
        let totals = totals_by_name(&spans);
        let t = totals.get("t");
        assert_eq!(t.count, 3);
        assert_eq!(t.total_us, 200.0);
        assert_eq!(t.self_us, 160.0);
        assert_eq!(totals.get("missing"), NameTotal::default());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let g = t.span("x", None, 0);
            assert_eq!(g.id(), None);
        }
        assert!(t.spans().is_empty());
    }
}
