//! In-memory spans for the traced run, written out at the end in the
//! `qec-obs` JSON-lines format (`span_enter` / `span_close` events with
//! `id`, `parent`, `thread`, `depth` and `dur_ns`), so the repository's
//! `obs_report --trace` rolls them up unchanged.

use crate::report::json_escape;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Event {
    close: bool,
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    depth: usize,
    t_ns: u64,
    dur_ns: u64,
}

/// A span that has been entered and not yet closed.
#[must_use = "close the span to record its duration"]
pub struct Open {
    id: u64,
    start: Instant,
}

/// Single-threaded span recorder. Spans must close in LIFO order.
pub struct Spans {
    epoch: Instant,
    events: Vec<Event>,
    stack: Vec<(u64, &'static str)>,
    next_id: u64,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            events: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
            next_id: 1,
        }
    }

    fn now_ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        let start = Instant::now();
        self.events.push(Event {
            close: false,
            name,
            id,
            parent: self.stack.last().map(|&(p, _)| p),
            depth: self.stack.len(),
            t_ns: self.now_ns(start),
            dur_ns: 0,
        });
        self.stack.push((id, name));
        Open { id, start }
    }

    /// Closes `open` and returns its duration in nanoseconds.
    pub fn close(&mut self, open: Open) -> u64 {
        let end = Instant::now();
        let dur_ns = u64::try_from(end.duration_since(open.start).as_nanos()).unwrap_or(u64::MAX);
        let (id, name) = self.stack.pop().expect("close without an open span");
        assert_eq!(id, open.id, "spans must close in LIFO order");
        self.events.push(Event {
            close: true,
            name,
            id,
            parent: self.stack.last().map(|&(p, _)| p),
            depth: self.stack.len(),
            t_ns: self.now_ns(end),
            dur_ns,
        });
        dur_ns
    }

    /// The recorded events as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 120);
        for (seq, e) in self.events.iter().enumerate() {
            let parent = e.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"type\":\"{}\",\"seq\":{seq},\"t_ns\":{},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"thread\":1,\"depth\":{}",
                if e.close { "span_close" } else { "span_enter" },
                e.t_ns,
                json_escape(e.name),
                e.id,
                e.depth,
            ));
            if e.close {
                out.push_str(&format!(",\"dur_ns\":{}", e.dur_ns));
            }
            out.push_str("}\n");
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        assert!(self.stack.is_empty(), "unclosed spans at write-out");
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(self.to_jsonl().as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_balance_and_link_to_their_parent() {
        let mut spans = Spans::new();
        let outer = spans.enter("outer");
        let inner = spans.enter("inner");
        let inner_ns = spans.close(inner);
        let outer_ns = spans.close(outer);
        assert!(outer_ns >= inner_ns);
        let text = spans.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"type\":\"span_enter\",\"seq\":0,"));
        assert!(lines[0].contains("\"name\":\"outer\",\"id\":1,\"parent\":null"));
        assert!(
            lines[1].contains("\"name\":\"inner\",\"id\":2,\"parent\":1,\"thread\":1,\"depth\":1")
        );
        assert!(lines[2].starts_with("{\"type\":\"span_close\""));
        assert!(lines[2].contains(&format!("\"dur_ns\":{inner_ns}}}")));
        assert!(lines[3]
            .contains("\"name\":\"outer\",\"id\":1,\"parent\":null,\"thread\":1,\"depth\":0"));
    }
}
