//! Sample statistics and in-memory spans.
//!
//! **Percentiles.**  A timing is reported as its median plus a tail
//! percentile, and a tail percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it: p90 needs 100 samples, p99 needs
//! 1000.  [`percentile`] returns `None` below that, and the caller counts
//! the run as failed instead of printing a tail made of a handful of points.
//! End-to-end tails go through [`tail`], the median of per-window
//! quantiles, so one burst of interference from outside the program does
//! not decide a run's tail.
//!
//! **Spans.**  The traced run records one span per layer call, made from the
//! benchmark's own code around the program's public entry points.  Spans
//! stay in memory ([`Spans`]) and are written out once, when the run ends.
//! A span's *self time* is its duration minus the part of its interval
//! that its children cover (overlapping children counted once).

use std::time::Instant;

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of `samples` (any order), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.  The median of a
/// non-empty sample is always reported.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if q > 0.5 && beyond < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Most windows [`tail`] splits a sample into.
pub const MAX_WINDOWS: usize = 5;

/// A tail quantile robust to bursts: `samples` (in the order they were
/// taken) are cut into the largest odd number of equal consecutive
/// windows, at most [`MAX_WINDOWS`], in which the quantile still has
/// [`MIN_BEYOND`] samples beyond it, and the median of the windows'
/// quantiles is reported.  A burst of interference that lands in one
/// window moves one window's quantile, not the result.  With too few
/// samples for two windows, or for the median, this is [`percentile`].
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    if q <= 0.5 {
        return percentile(samples, q);
    }
    let per_window = (MIN_BEYOND as f64 / (1.0 - q)).ceil() as usize;
    let mut windows = (samples.len() / per_window.max(1)).min(MAX_WINDOWS);
    if windows.is_multiple_of(2) {
        windows = windows.saturating_sub(1);
    }
    if windows <= 1 {
        return percentile(samples, q);
    }
    let size = samples.len() / windows;
    let quantiles: Vec<f64> = samples
        .chunks(size)
        .take(windows)
        .filter_map(|w| percentile(w, q))
        .collect();
    median(&quantiles)
}

/// Median of `samples`, `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Arithmetic mean, 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// One recorded span.  Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call name.
    pub name: &'static str,
    /// Id of the command the span belongs to (shared by all its spans).
    pub command: u64,
    /// Index of the parent span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    children: Vec<Vec<usize>>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            children: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Spans::end`].
    pub fn begin(&mut self, name: &'static str, command: u64, parent: Option<usize>) -> usize {
        let start = self.now_ns();
        self.push(Span {
            name,
            command,
            parent,
            start_ns: start,
            end_ns: start,
        })
    }

    /// Closes span `index` now.
    pub fn end(&mut self, index: usize) {
        let now = self.now_ns();
        self.spans[index].end_ns = now;
    }

    /// Records a span whose times are already known.
    pub fn push(&mut self, span: Span) -> usize {
        let index = self.spans.len();
        if let Some(parent) = span.parent {
            self.children[parent].push(index);
        }
        self.spans.push(span);
        self.children.push(Vec::new());
        index
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        command: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(name, command, parent);
        let out = f();
        self.end(span);
        out
    }

    /// Every span, in the order they were opened.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `index`: its duration minus the union of its
    /// children's intervals, clipped to its own.
    pub fn self_ns(&self, index: usize) -> u64 {
        let span = &self.spans[index];
        let mut covered: Vec<(u64, u64)> = self.children[index]
            .iter()
            .map(|&c| {
                let child = &self.spans[c];
                (
                    child.start_ns.max(span.start_ns),
                    child.end_ns.min(span.end_ns),
                )
            })
            .filter(|(s, e)| e > s)
            .collect();
        covered.sort_unstable();
        let mut union = 0u64;
        let mut cursor = span.start_ns;
        for (start, end) in covered {
            let start = start.max(cursor);
            if end > start {
                union += end - start;
                cursor = end;
            }
        }
        span.duration_ns() - union
    }

    /// Durations (in `unit_ns` units) of every span named `name`.
    pub fn durations(&self, name: &str, unit_ns: f64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / unit_ns)
            .collect()
    }

    /// Writes every span as one JSON array
    /// `[index, name, command, parent (-1 = root), start_ns, end_ns]` per
    /// line.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "[{i},\"{}\",{},{parent},{},{}]",
                s.name, s.command, s.start_ns, s.end_ns
            ));
        }
        out.push_str("\n]");
    }
}
