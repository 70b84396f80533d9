//! Spans the benchmark records around its own calls into the library, kept in
//! memory and written at exit as Chrome trace-event JSON (load the file in
//! `chrome://tracing` or Perfetto).
//!
//! A disabled tracer records nothing; `begin` / `end` then cost one branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span, or `NONE` when tracing is off.
pub type SpanId = usize;
const NONE: SpanId = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<SpanId>,
    pub start_us: f64,
    pub end_us: f64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    stack: Vec<SpanId>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            enabled: false,
            epoch: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turn recording on or off (the benchmark traces alternate cycles).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Start a new op: every span until the next call shares this id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_us: self.epoch.elapsed().as_secs_f64() * 1e6,
            end_us: f64::NAN,
        });
        self.stack.push(id);
        id
    }

    pub fn end(&mut self, id: SpanId) {
        if id == NONE {
            return;
        }
        self.spans[id].end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
    }

    /// Per span name: (number of spans, total time, total self time) in ms. Self
    /// time is a span's duration minus the time its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut covered = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_us - s.start_us;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            let dur = s.end_us - s.start_us;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur / 1e3;
            e.2 += (dur - c) / 1e3;
        }
        out
    }

    /// The spans as Chrome trace-event JSON, with `meta` (already JSON) under
    /// `otherData`.
    pub fn chrome_json(&self, meta: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "\n{{\"name\":{},\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"span\":{},\"parent\":{}}}}}",
                json_str(s.name),
                s.start_us,
                s.end_us - s.start_us,
                s.op,
                i,
                parent
            );
        }
        let _ = write!(out, "\n],\"otherData\":{meta}}}\n");
        out
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
