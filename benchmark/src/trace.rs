//! Spans recorded by the benchmark around its calls into each layer. Kept
//! in memory and written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    /// Identifier shared by the spans of one request or one replay.
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a finished span and return its id (to parent children on).
    pub fn record(
        &mut self,
        parent: u32,
        trace: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
        });
        id
    }

    /// Total and self time per span name, microseconds. Self time is a
    /// span's duration minus the part its children cover (children of one
    /// parent never overlap here, so that part is their sum).
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for s in &self.spans {
            let total = (s.end_ns - s.start_ns) as f64 / 1e3;
            let own = total - child_ns[s.id as usize] as f64 / 1e3;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, total, own)),
            }
        }
        rows
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"trace\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}
