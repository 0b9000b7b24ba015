//! An in-memory span recorder for the traced run. Spans sit around the
//! benchmark's own calls into each layer's public API; they are kept in
//! memory and written out once the run ends.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Span {
    /// Layer-qualified name, e.g. `report.render`.
    pub name: String,
    /// Start, µs since the recorder's origin.
    pub start_us: f64,
    /// End, µs since the recorder's origin.
    pub end_us: f64,
    /// Index of the span that caused this one, within the same request.
    pub parent: Option<usize>,
    /// The request (campaign, served request or probe) the span belongs to.
    pub request: u64,
}

/// Records spans when enabled; costs one branch per call when not.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    request: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose spans all belong to request 0.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            request: 0,
            spans: Vec::new(),
        }
    }

    /// Tags spans opened from now on with `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Opens a span; returns its id for [`Recorder::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        let now = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent,
            request: self.request,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        }
    }

    /// Records a span whose bounds were observed elsewhere.
    pub fn span_at(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name.to_string(),
            start_us: at(start),
            end_us: at(end),
            parent,
            request: self.request,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<T>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Appends spans recorded elsewhere (a child process) as request
    /// `request`, re-indexing their parents.
    pub fn adopt(&mut self, spans: Vec<Span>, request: u64) {
        if !self.enabled {
            return;
        }
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.request = request;
            s
        }));
    }

    /// Every span recorded, in open order.
    pub fn finish(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-layer totals of a span set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans of the layer.
    pub count: usize,
    /// Summed span durations, ms.
    pub busy_ms: f64,
    /// Busy time not covered by child spans, ms.
    pub self_ms: f64,
}

/// The layer of a span: its name up to the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Count, busy and self time per layer. A span's self time is its
/// duration minus the time its direct children cover (children of one
/// span run one after another, so their durations add).
pub fn summarize(spans: &[Span]) -> BTreeMap<String, LayerTotals> {
    let mut child_cover = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_cover[p] += s.end_us - s.start_us;
        }
    }
    let mut out: BTreeMap<String, LayerTotals> = BTreeMap::new();
    for (s, cover) in spans.iter().zip(child_cover) {
        let busy = (s.end_us - s.start_us) / 1e3;
        let totals = out.entry(layer_of(&s.name).to_string()).or_default();
        totals.count += 1;
        totals.busy_ms += busy;
        totals.self_ms += (busy - cover / 1e3).max(0.0);
    }
    out
}

/// Writes spans as JSON lines to `path`, creating its directory.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::new();
    for s in spans {
        out.push_str(&serde_json::to_string(s).expect("spans serialize"));
        out.push('\n');
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_child_spans() {
        let span = |name: &str, start: f64, end: f64, parent| Span {
            name: name.into(),
            start_us: start,
            end_us: end,
            parent,
            request: 1,
        };
        let spans = vec![
            span("campaign", 0.0, 10_000.0, None),
            span("report.render", 2_000.0, 5_000.0, Some(0)),
            span("report.json", 5_000.0, 6_000.0, Some(0)),
        ];
        let totals = summarize(&spans);
        assert_eq!(totals["campaign"].busy_ms, 10.0);
        assert_eq!(totals["campaign"].self_ms, 6.0);
        assert_eq!(totals["report"].count, 2);
        assert_eq!(totals["report"].self_ms, 4.0);
    }
}
