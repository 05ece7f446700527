//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! Each thread records into its own [`Tracer`]; the tracers are merged and
//! written out once, at the end, as a Chrome trace-event JSON file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// The process-wide trace epoch, so every tracer's timestamps line up.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `sql.parse` (the layer is the prefix).
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The request (session or statement) the span belongs to.
    pub request: u64,
    /// Recording thread (Chrome trace track).
    pub tid: u32,
}

impl Span {
    /// The span's layer: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. A disabled tracer records nothing and
/// costs one branch per call.
pub struct Tracer {
    tid: u32,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer recording as thread `tid` (when `enabled`).
    pub fn new(tid: u32, enabled: bool) -> Tracer {
        Tracer {
            tid,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Start or stop recording (at a point where no span is open).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "no span is open");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
            tid: self.tid,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let i = self.open.pop().expect("end() matches a begin()");
        self.spans[i].end_ns = now;
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, request);
        let out = f();
        self.end();
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span was closed");
        self.spans
    }
}

/// Self time per layer, in nanoseconds: each span's duration minus the
/// part its children cover (children of one parent never overlap, since a
/// tracer is single-threaded).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        *out.entry(s.layer()).or_insert(0) += s.duration_ns().saturating_sub(covered);
    }
    out
}

/// Render spans (from any number of tracers, each span carrying its
/// thread) as Chrome trace-event JSON: complete (`"ph":"X"`) events in
/// microseconds, with the request id and parent index as arguments.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"request\":{},\"parent\":{}}}}}",
            s.name,
            s.layer(),
            s.tid,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.request,
            parent
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "server.open",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                request: 1,
                tid: 0,
            },
            Span {
                name: "sql.parse",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                request: 1,
                tid: 0,
            },
            Span {
                name: "core.open",
                start_ns: 50,
                end_ns: 90,
                parent: Some(0),
                request: 1,
                tid: 0,
            },
        ];
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["server"], 30);
        assert_eq!(by_layer["sql"], 30);
        assert_eq!(by_layer["core"], 40);
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":[{"));
        assert!(json.contains("\"name\":\"sql.parse\",\"cat\":\"sql\""));
        assert!(json.contains("\"args\":{\"request\":1,\"parent\":0}"));
        assert!(json.trim_end().ends_with("]}") || json.trim_end().ends_with("\"ns\"}"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(0, false);
        t.span("sql.parse", 1, || ());
        assert!(t.into_spans().is_empty());
    }
}
