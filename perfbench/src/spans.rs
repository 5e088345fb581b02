//! Benchmark-side tracing: spans recorded in memory around the calls the
//! benchmark makes into each layer, written out once at the end.
//!
//! A span has a name, a start and end (nanoseconds since process start),
//! the span that encloses it, and the job id shared by every span of one
//! job. A span's self time is its duration minus the time its child
//! spans cover; with one root span opened at process start, the self
//! times of all spans sum exactly to the traced wall time, and the
//! root's own self time is the benchmark-side gap between layer calls.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::J;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    job: Option<u64>,
}

/// An in-memory span recorder. A disabled recorder still times the
/// closures it runs (callers use the durations) but keeps no spans.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder whose clock starts at `t0` (process start).
    pub fn new(t0: Instant, enabled: bool) -> Self {
        Tracer {
            t0,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (tagged with `job`), returning
    /// its value and its duration in seconds.
    pub fn span<R>(
        &mut self,
        name: &str,
        job: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        if !self.enabled {
            let r = f(self);
            return (r, start.elapsed().as_secs_f64());
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            job,
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        (r, start.elapsed().as_secs_f64())
    }

    /// Opens the root span (from process start); [`close_root`] ends it.
    pub fn open_root(&mut self) {
        if self.enabled {
            self.spans.push(Span {
                name: "run".to_owned(),
                start_ns: 0,
                end_ns: 0,
                parent: None,
                job: None,
            });
            self.stack.push(0);
        }
    }

    /// Closes the root span.
    pub fn close_root(&mut self) {
        if self.enabled {
            self.stack.clear();
            self.spans[0].end_ns = self.now_ns();
        }
    }

    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_ns - s.start_ns;
            }
        }
        own
    }

    /// Per span name: `(count, total seconds, self seconds)`.
    pub fn by_name(&self) -> BTreeMap<String, (u64, f64, f64)> {
        let own = self.self_ns();
        let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
        for (s, o) in self.spans.iter().zip(own) {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns) as f64 * 1e-9;
            e.2 += o as f64 * 1e-9;
        }
        out
    }

    /// Wall time of the root span, the sum of every span's self time,
    /// and the root's own self time (the gaps between layer calls).
    pub fn accounting(&self) -> J {
        let Some(root) = self.spans.first() else {
            return J::Null;
        };
        let own = self.self_ns();
        let total: u64 = own.iter().sum();
        J::obj([
            (
                "wall_s",
                J::Num((root.end_ns - root.start_ns) as f64 * 1e-9),
            ),
            ("sum_of_self_s", J::Num(total as f64 * 1e-9)),
            ("benchmark_gap_s", J::Num(own[0] as f64 * 1e-9)),
            ("spans", J::Int(self.spans.len() as u64)),
        ])
    }

    /// Every span, for the spans file.
    pub fn to_json(&self) -> J {
        let own = self.self_ns();
        J::Arr(
            self.spans
                .iter()
                .zip(own)
                .enumerate()
                .map(|(i, (s, o))| {
                    J::obj([
                        ("id", J::Int(i as u64)),
                        ("name", J::s(s.name.clone())),
                        ("start_ns", J::Int(s.start_ns)),
                        ("end_ns", J::Int(s.end_ns)),
                        ("self_ns", J::Int(o)),
                        ("parent", s.parent.map_or(J::Null, |p| J::Int(p as u64))),
                        ("job", s.job.map_or(J::Null, J::Int)),
                    ])
                })
                .collect(),
        )
    }
}
