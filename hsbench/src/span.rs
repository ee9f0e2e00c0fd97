//! In-memory span recorder for the traced run.
//!
//! A span records its name, start, end, parent span and the request it
//! belongs to. Spans are kept in memory while the workload runs and are
//! written out once, when the run ends. With tracing off, `enter` and
//! `exit` record nothing.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::report::json_str;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    /// A recorder with tracing off.
    fn default() -> Tracer {
        Tracer::new(false, Instant::now())
    }
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch` (shared by the
    /// tracers of one run so merged spans line up).
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, request: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span; returns its duration in ms (0 with
    /// tracing off).
    pub fn exit(&mut self) -> f64 {
        if !self.on {
            return 0.0;
        }
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("exit without a matching enter");
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e6
    }

    /// Self time per span name, in ms: each span's duration minus the part
    /// of it its child spans cover, summed.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}}}",
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                s.request
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.enter("request", 1);
        t.enter("opt.plan", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let plan = t.exit();
        let req = t.exit();
        assert!(plan >= 2.0 && req >= plan);
        let s = t.self_ms();
        assert!((s["request"] - (req - plan)).abs() < 1e-9);
        assert!((s["opt.plan"] - plan).abs() < 1e-9);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.enter("request", 1);
        assert_eq!(t.exit(), 0.0);
        assert!(t.self_ms().is_empty());
    }
}
