//! The harness's stopwatch and span recorder.
//!
//! Every timing the benchmark takes goes through [`Tracer::begin`] /
//! [`Tracer::end`] around a call into a public function of the system, so
//! the traced and the untraced run read the clock at exactly the same
//! places; the traced run additionally keeps `{name, start, end, parent,
//! req}` in memory and writes them out at exit. Spans inside the program
//! are a later change — these are all recorded from outside.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// "No parent" marker in [`Span::parent`].
pub const ROOT: u32 = u32::MAX;

/// Spans kept per tracer. Past this the tracer keeps timing but stops
/// recording (and counts what it dropped), so a long run cannot grow
/// without bound.
const MAX_SPANS: usize = 400_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in this tracer, or [`ROOT`].
    pub parent: u32,
    /// Request / round identifier shared by the spans of one operation.
    pub req: u64,
}

/// An open span: returned by [`Tracer::begin`], consumed by
/// [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    start: Instant,
    /// Index of the recorded span, or [`ROOT`] when not recording.
    idx: u32,
}

/// Per-span-name totals, for the "where the time goes" table.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    recording: bool,
    spans: Vec<Span>,
    /// Indices of the currently open recorded spans, innermost last.
    open: Vec<u32>,
    dropped: u64,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (shared between the
    /// tracers of one run so their spans line up).
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            recording: false,
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
        }
    }

    /// Turns span recording on or off. Only call between operations (with
    /// no span open): the traced runs flip it per round to measure the
    /// recording overhead against otherwise identical rounds.
    pub fn set_recording(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "recording toggled inside a span");
        self.recording = on;
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span named `name` for operation `req` and starts its clock.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        let mut idx = ROOT;
        if self.recording {
            if self.spans.len() < MAX_SPANS {
                idx = self.spans.len() as u32;
                self.spans.push(Span {
                    name,
                    start_ns: 0,
                    end_ns: 0,
                    parent: self.open.last().copied().unwrap_or(ROOT),
                    req,
                });
                self.open.push(idx);
            } else {
                self.dropped += 1;
            }
        }
        // Read the clock last so bookkeeping stays outside the span.
        Open {
            start: Instant::now(),
            idx,
        }
    }

    /// Closes `open` and returns its duration in nanoseconds.
    pub fn end(&mut self, open: Open) -> u64 {
        let end = Instant::now();
        if open.idx != ROOT {
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(open.idx), "spans closed out of order");
            let (start_ns, end_ns) = (self.ns_since_epoch(open.start), self.ns_since_epoch(end));
            let span = &mut self.spans[open.idx as usize];
            span.start_ns = start_ns;
            span.end_ns = end_ns;
        }
        end.duration_since(open.start).as_nanos() as u64
    }

    /// Records an already-timed span (the serving loops take their own
    /// back-to-back timestamps). Returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        req: u64,
    ) -> u32 {
        if !self.recording {
            return ROOT;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns_since_epoch(start),
            end_ns: self.ns_since_epoch(end),
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != ROOT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let t = totals.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += duration;
            t.self_ns += duration.saturating_sub(children);
        }
        totals
    }

    /// The spans as JSON lines. `thread` labels this tracer's spans and
    /// `parent` indices are local to it (`null` for a root span).
    pub fn write_jsonl(&self, thread: usize, out: &mut String) {
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"thread\": {thread}, \"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": ",
                s.name, s.start_ns, s.end_ns
            );
            if s.parent == ROOT {
                out.push_str("null");
            } else {
                let _ = write!(out, "{}", s.parent);
            }
            let _ = writeln!(out, ", \"req\": {}}}", s.req);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::time::Duration;

    #[test]
    fn untraced_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        let open = t.begin("outer", 1);
        std::thread::sleep(Duration::from_millis(2));
        assert!(t.end(open) >= 2_000_000);
        assert!(t.spans().is_empty());
        assert!(t.totals().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent_and_self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now());
        t.set_recording(true);
        let outer = t.begin("outer", 7);
        let inner = t.begin("inner", 7);
        std::thread::sleep(Duration::from_millis(2));
        let inner_ns = t.end(inner);
        let outer_ns = t.end(outer);
        assert!(outer_ns >= inner_ns);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", ROOT));
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].req),
            ("inner", 0, 7)
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let totals = t.totals();
        assert_eq!(totals["inner"].self_ns, totals["inner"].total_ns);
        assert_eq!(
            totals["outer"].self_ns,
            totals["outer"].total_ns - totals["inner"].total_ns
        );
    }

    #[test]
    fn jsonl_lines_parse_and_carry_every_field() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        t.set_recording(true);
        let later = epoch + Duration::from_nanos(1500);
        let root = t.record("request", epoch, later, ROOT, 3);
        t.record("invoke", epoch, later, root, 3);
        let mut out = String::new();
        t.write_jsonl(2, &mut out);
        let lines: Vec<_> = out
            .lines()
            .map(|l| json::parse(l).expect("valid"))
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&json::Json::Null));
        assert_eq!(
            lines[1].get("parent").and_then(json::Json::as_f64),
            Some(0.0)
        );
        assert_eq!(
            lines[1].get("end_ns").and_then(json::Json::as_f64),
            Some(1500.0)
        );
        assert_eq!(
            lines[1].get("name").and_then(json::Json::as_str),
            Some("invoke")
        );
        assert_eq!(
            lines[1].get("thread").and_then(json::Json::as_f64),
            Some(2.0)
        );
    }
}
