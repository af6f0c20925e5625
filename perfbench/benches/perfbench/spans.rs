//! The in-memory span recorder of the traced run.

use std::time::Instant;

use pwu_perfbench::SpanRecord;

/// Handle of an open span; pass it back to [`Spans::end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

/// An in-memory span recorder. A disabled recorder records nothing and
/// costs one branch per call, so untraced runs carry no tracing work.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    records: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; `enabled = false` makes every call a no-op.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            records: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str, tag: &str, unit: &str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.records.len();
        let start_ns = self.now_ns();
        self.records.push(SpanRecord {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            tag: tag.to_string(),
            unit: unit.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `span` (and any span left open inside it).
    pub fn end(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.records[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Times `f` inside a span and returns its result.
    pub fn time<T>(&mut self, name: &str, tag: &str, unit: &str, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name, tag, unit);
        let out = f();
        self.end(span);
        out
    }

    /// Every recorded span, in begin order.
    #[must_use]
    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }
}
