//! In-memory host-time spans recorded by the benchmark around each public
//! call it makes into a simulator layer, written out at the end of a run as
//! Chrome `trace_event` JSON (the format Perfetto and `chrome://tracing`
//! open, like the simulator's own virtual-time traces).
//!
//! Spans live in the benchmark's code only: the simulator cannot see them,
//! so a traced run executes exactly the calls an untraced run does.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span. Times are seconds since the recorder
/// was created.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary name, e.g. `run_cfg.SVM` or `critpath.analyze`.
    pub name: String,
    /// Start, in seconds since the recorder's origin.
    pub start: f64,
    /// End, in seconds since the recorder's origin (equal to `start` while
    /// the span is open).
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index of the cell (within its pass) the span belongs to, if any.
    pub cell: Option<usize>,
    /// Index of the traced pass the span belongs to (`None` outside the
    /// traced passes, e.g. during set-up).
    pub pass: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Span recorder. When disabled, [`Spans::open`] and [`Spans::close`] do
/// nothing and record nothing.
pub struct Spans {
    on: bool,
    origin: Instant,
    pass: Option<usize>,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Handle of an open span (or of nothing, when recording is off).
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

impl Spans {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            pass: None,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Turn recording on or off; spans already recorded are kept.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Tag spans opened from now on with traced-pass index `pass`.
    pub fn set_pass(&mut self, pass: Option<usize>) {
        self.pass = pass;
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: impl Into<String>, cell: Option<usize>) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let t = self.now();
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start: t,
            end: t,
            parent: self.stack.last().copied(),
            cell,
            pass: self.pass,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Close `id` and every span opened inside it that is still open (a
    /// panic inside a cell can leave inner spans unclosed).
    pub fn close(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let t = self.now();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end = t;
            if top == id {
                break;
            }
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &str, cell: Option<usize>, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, cell);
        let r = f();
        self.close(id);
        r
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the spans named `name` in traced pass `pass`.
    pub fn total(&self, pass: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.pass == Some(pass) && s.name == name)
            .fold(0.0, |acc, s| acc + s.secs())
    }

    /// Chrome `trace_event` JSON: one complete (`"ph":"X"`) event per span
    /// on a single host-thread track, with the parent, cell and pass as
    /// arguments. `other_data` must be a JSON object; it is embedded as the
    /// format's `otherData` metadata.
    pub fn to_chrome_json(&self, other_data: &str) -> String {
        let mut out = String::with_capacity(256 + self.spans.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":");
        out.push_str(other_data);
        out.push_str(",\"traceEvents\":[\n");
        out.push_str(
            " {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{\"name\":\"perfbench\"}}",
        );
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                ",\n {{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"cell\":{},\"pass\":{}}}}}",
                escape(&s.name),
                s.start * 1e6,
                s.secs() * 1e6,
                i,
                opt(s.parent),
                opt(s.cell),
                opt(s.pass)
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

fn opt(v: Option<usize>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// Escape a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut o = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_totals() {
        let mut s = Spans::new(true);
        s.set_pass(Some(0));
        let outer = s.open("cell", Some(0));
        s.time("run_cfg.SVM", Some(0), || std::hint::black_box(1 + 1));
        let inner = s.open("left-open", Some(0));
        let _ = inner;
        s.close(outer);
        assert_eq!(s.spans().len(), 3);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert!(s.spans().iter().all(|sp| sp.end >= sp.start));
        assert!(s.total(0, "run_cfg.SVM") >= 0.0);
        assert_eq!(s.total(1, "run_cfg.SVM"), 0.0);
        let json = s.to_chrome_json("{}");
        assert!(json.contains("\"name\":\"run_cfg.SVM\""));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut s = Spans::new(false);
        let id = s.open("x", None);
        s.close(id);
        assert!(s.spans().is_empty());
    }
}
