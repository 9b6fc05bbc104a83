//! In-memory span recording for the traced run.
//!
//! A span is a named host-time interval with an optional parent; all spans
//! of one request carry that request's id. Spans stay in memory while the
//! run measures and are written out as JSON lines when it ends. The
//! recorder is shared with pool workers (the timing backend wrapper opens
//! spans from them), so it sits behind a mutex.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One recorded interval, in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a span writer panicked while holding the recorder")
    }

    /// Opens a span now; [`Self::close`] sets its end.
    pub fn open(&self, name: &'static str, request: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span { name, request, parent, start_ns, end_ns: start_ns });
        spans.len() - 1
    }

    pub fn close(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.lock()[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, request, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.lock().iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of a span over `[start, end)`: its duration minus the part of
/// that interval its children cover. Children may overlap one another
/// (pool workers run them concurrently) and may stick out of the parent;
/// only the covered part of the parent's own interval is subtracted.
pub fn self_time_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|&(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

/// Self time of every span, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans.iter().zip(&children).map(|(s, c)| self_time_ns(s.start_ns, s.end_ns, c)).collect()
}

/// Per request, the summed duration of the spans named `name` that have
/// an ancestor named `under` (or any, for `None`), in request order.
pub fn per_request_ns(spans: &[Span], name: &str, under: Option<&str>) -> Vec<f64> {
    let mut sums: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        if let Some(anc) = under {
            let mut p = s.parent;
            let mut found = false;
            while let Some(i) = p {
                if spans[i].name == anc {
                    found = true;
                    break;
                }
                p = spans[i].parent;
            }
            if !found {
                continue;
            }
        }
        *sums.entry(s.request).or_default() += s.duration_ns();
    }
    sums.into_values().map(|v| v as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time_ns(10, 50, &[]), 40);
    }

    #[test]
    fn disjoint_children_are_subtracted() {
        assert_eq!(self_time_ns(0, 100, &[(10, 20), (40, 70)]), 60);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two concurrent children covering [10, 60) together.
        assert_eq!(self_time_ns(0, 100, &[(10, 50), (30, 60)]), 50);
        // A child nested in another child.
        assert_eq!(self_time_ns(0, 100, &[(10, 90), (20, 30)]), 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time_ns(50, 100, &[(0, 60), (90, 200)]), 30);
        assert_eq!(self_time_ns(50, 100, &[(0, 40)]), 50);
        assert_eq!(self_time_ns(0, 100, &[(0, 100)]), 0);
    }

    #[test]
    fn recorder_links_parents_and_aggregates_per_request() {
        let rec = Recorder::new();
        for req in 0..2 {
            let root = rec.open("request", req, None);
            let stage = rec.open("staged", req, Some(root));
            rec.time("gemm", req, Some(stage), || std::hint::black_box(req));
            rec.time("gemm", req, Some(stage), || std::hint::black_box(req));
            rec.close(stage);
            rec.time("gemm", req, Some(root), || std::hint::black_box(req));
            rec.close(root);
        }
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 10);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let all = per_request_ns(&spans, "gemm", None);
        let staged = per_request_ns(&spans, "gemm", Some("staged"));
        assert_eq!(all.len(), 2);
        assert_eq!(staged.len(), 2);
        assert!(staged.iter().zip(&all).all(|(s, a)| s <= a));
        let selfs = self_times(&spans);
        // A root's self time excludes its children's coverage.
        assert!(selfs[0] <= spans[0].duration_ns() - spans[1].duration_ns());
    }
}
