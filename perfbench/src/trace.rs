//! In-memory span recorder for the traced run.
//!
//! One span per public library call: name, start, end, parent span and
//! op id. Spans stay in memory while the run measures and are written
//! out once it ends. A span's self time is its duration minus the
//! durations of its children.
//!
//! Two kinds of top-level span exist per op: the `op` span, whose
//! children are the staged pipeline calls (their durations sum to the
//! staged time the untraced op is compared against), and `probe` spans,
//! which re-run a layer in isolation to split a stage (the explorer
//! sweep inside a valence build, the canonicalizer) and are therefore
//! kept outside the op span.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The span arena of one traced run.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    /// Starts the next op: later spans carry its id.
    pub fn set_op(&mut self, op: u32) {
        assert!(self.open.is_empty(), "ops do not nest");
        self.op = op;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Records the span of a stage the pipeline reaches but does not
    /// enter on this input (no hook search after an adjacent pair, for
    /// instance): its duration is the clock read alone.
    pub fn skip(&mut self, name: &'static str) {
        self.span(name, |_| ());
    }

    /// Total seconds of the spans named `name` in op `op`.
    pub fn op_secs(&self, op: u32, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.op == op && s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Seconds of the staged calls of op `op`: the children of its `op`
    /// span.
    pub fn staged_secs(&self, op: u32) -> f64 {
        let Some(root) = self
            .spans
            .iter()
            .position(|s| s.op == op && s.name == "op" && s.parent.is_none())
        else {
            return 0.0;
        };
        self.spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(Span::secs)
            .sum()
    }

    /// Self time of span `idx` in nanoseconds.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let s = &self.spans[idx];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// The spans as JSON lines: `{"op", "name", "parent", "start_ns",
    /// "end_ns", "self_ns"}`.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"op\": {}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.op,
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(i)
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}
