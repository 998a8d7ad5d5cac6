//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer can be wrapped in a span
//! (name, start, end, parent, run id, optional machine-kind tag). Spans
//! are kept in memory and written out once, when the run ends. A
//! layer's self time is the duration of its spans minus the parts of
//! them that their child spans cover.
//!
//! With tracing off, [`Tracer::span`] only calls its closure: no clock
//! read, no lock, no allocation.

use std::collections::BTreeMap;
use std::io::Write;
use std::ops::Range;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span, used as the parent of nested spans.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    tag: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
}

/// Records spans from any thread; parents are passed explicitly, so a
/// span opened on a worker thread can hang under one opened on the main
/// thread.
pub struct Tracer {
    enabled: bool,
    run_id: u64,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool, run_id: u64) -> Tracer {
        Tracer {
            enabled,
            run_id,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id for its own children (`None` when tracing is
    /// off).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        self.tagged(name, "", parent, f)
    }

    /// [`Tracer::span`] with a tag (the machine-kind name of a
    /// simulation span).
    pub fn tagged<R>(
        &self,
        name: &'static str,
        tag: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(Span {
                name,
                tag,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        let r = f(Some(id));
        let end = self.now_ns();
        self.spans.lock().expect("span list poisoned")[id].end_ns = end;
        r
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Self time in seconds per `(name, tag)`, over the spans recorded
    /// in `range` (bounds from [`Tracer::mark`]; a phase's spans nest
    /// only under spans of the same phase).
    pub fn self_times(&self, range: Range<usize>) -> BTreeMap<(&'static str, &'static str), f64> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans[range.clone()] {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate().take(range.end).skip(range.start) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry((s.name, s.tag)).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The number of spans recorded so far, to delimit a phase.
    pub fn mark(&self) -> usize {
        self.spans.lock().expect("span list poisoned").len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":{},\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.run_id, s.name, s.tag, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true, 1);
        t.span("outer", None, |id| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            t.span("inner", id, |_| {
                std::thread::sleep(std::time::Duration::from_millis(50))
            });
        });
        let st = t.self_times(0..t.mark());
        let outer = st[&("outer", "")];
        let inner = st[&("inner", "")];
        assert!(inner >= 0.050, "inner {inner}");
        // Without the child subtracted, the outer span would exceed 55 ms.
        assert!((0.005..0.045).contains(&outer), "outer {outer}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false, 1);
        let v = t.span("x", None, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert_eq!(t.mark(), 0);
    }
}
