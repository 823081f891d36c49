//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (name, start, end, parent span) and kept in memory; they are written out
//! once, when the run ends. A span's *self time* is its duration minus the
//! part of its interval that its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`; the layer is the part before the first dot.
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Span recorder. A disabled tracer records nothing, so the same workload
/// code serves the untraced and the traced pass.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled with spans open");
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index].end = end;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let result = f();
        self.exit();
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(count, total nanoseconds)`.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut totals = BTreeMap::new();
        for span in &self.spans {
            let entry = totals.entry(span.name).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += span.nanos();
        }
        totals
    }

    /// Mean duration of the spans named `name`, in nanoseconds (0 if none).
    pub fn mean_nanos(&self, name: &str) -> f64 {
        let (count, total) = self.by_name().get(name).copied().unwrap_or((0, 0));
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    }

    /// Self time per layer, in seconds.
    pub fn self_seconds_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut layers = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_nanos(&self.spans)) {
            *layers.entry(span.layer()).or_insert(0.0) += own as f64 * 1e-9;
        }
        layers
    }

    /// Write every span as one tab-separated line:
    /// `index name start_ns end_ns parent` (`-` for a root span).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 48);
        out.push_str("index\tname\tstart_ns\tend_ns\tparent\n");
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{index}\t{}\t{}\t{}\t{parent}",
                span.name, span.start, span.end
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }
}

/// Self time of each span: its duration minus the union of its children's
/// intervals, clipped to its own interval.
pub fn self_nanos(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.nanos() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("bench.op", 0, 100, None),
            span("runtime.spawn", 10, 30, Some(0)),
            span("runtime.wait", 40, 90, Some(0)),
            span("env.record", 50, 60, Some(2)),
        ];
        assert_eq!(self_nanos(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = [
            span("bench.op", 100, 200, None),
            span("a.x", 90, 130, Some(0)),
            span("a.y", 120, 150, Some(0)),
            span("a.z", 180, 260, Some(0)),
        ];
        // Covered: [100, 150) and [180, 200) -> 70 of 100.
        assert_eq!(self_nanos(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_and_aggregates_by_layer() {
        let mut tracer = Tracer::new(true);
        tracer.span("bench.op", || ());
        tracer.enter("bench.op");
        tracer.span("runtime.wait", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.exit();
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.end >= s.start));
        let layers = tracer.self_seconds_by_layer();
        let total: f64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.nanos() as f64 * 1e-9)
            .sum();
        // Self times partition the root spans' time exactly.
        let sum: f64 = layers.values().sum();
        assert!((sum - total).abs() < 1e-12);
        assert!(layers["runtime"] >= 0.002);
        assert_eq!(tracer.by_name()["bench.op"].0, 2);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        tracer.span("bench.op", || ());
        assert!(tracer.spans().is_empty());
        assert_eq!(tracer.mean_nanos("bench.op"), 0.0);
    }
}
