//! The traced run's span store: spans are recorded from the benchmark's
//! own files, around the calls into each layer, kept in memory, and
//! written to `benchmark/out/trace-<workload>.json` when the run ends.
//! Tracing inside the program is a later change.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Duration;

/// One span. `parent` indexes another span of the same trace; spans of
/// one request share `req`.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The crate the time belongs to (`bench` for the load generator).
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: Option<u64>,
}

impl Span {
    pub fn new(name: &'static str, layer: &'static str, start: Duration, end: Duration) -> Span {
        Span {
            name,
            layer,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            parent: None,
            req: None,
        }
    }

    pub fn req(mut self, req: u64) -> Span {
        self.req = Some(req);
        self
    }

    pub fn parent(mut self, parent: usize) -> Span {
        self.parent = Some(parent);
        self
    }
}

#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
}

/// Spans written per trace file: enough for minutes of `walk`, a bounded
/// slice of `hot-read` (whose 5 s hold a few hundred thousand requests).
const MAX_WRITTEN: usize = 200_000;

impl Trace {
    /// Records a span and returns its index (for children's `parent`).
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes `{"workload":…, "spans":[{name,layer,start_ns,end_ns,parent,req},…]}`.
    ///
    /// # Errors
    ///
    /// File creation and write failures.
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
        write!(
            w,
            "{{\"workload\":\"{workload}\",\"recorded\":{},\"spans\":[",
            self.spans.len()
        )?;
        for (i, s) in self.spans.iter().take(MAX_WRITTEN).enumerate() {
            write!(
                w,
                "{}\n{{\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                if i > 0 { "," } else { "" },
                s.name,
                s.layer,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.req),
            )?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`.
/// `intervals` must be sorted by start.
pub fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals {
        if s >= hi {
            break;
        }
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn trace_file_is_valid_json_with_the_span_fields() {
        let mut t = Trace::default();
        let root = t.push(
            Span::new(
                "request",
                "bench",
                Duration::ZERO,
                Duration::from_nanos(900),
            )
            .req(7),
        );
        t.push(
            Span::new(
                "step",
                "daemon",
                Duration::from_nanos(100),
                Duration::from_nanos(400),
            )
            .req(7)
            .parent(root),
        );
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-trace-{}.json", std::process::id()));
        t.write(&path, "walk").unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let spans = doc.get("spans").unwrap().as_arr();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(spans[1].get("layer").unwrap().as_str(), Some("daemon"));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[0].get("req").unwrap().as_f64(), Some(7.0));
    }

    #[test]
    fn union_of_overlapping_intervals_is_not_double_counted() {
        let iv = [(0, 10), (5, 20), (30, 40), (35, 36), (100, 200)];
        assert_eq!(covered_ns(&iv, 0, 50), 30);
        assert_eq!(covered_ns(&iv, 8, 33), 12 + 3);
        assert_eq!(covered_ns(&iv, 41, 99), 0);
    }
}
