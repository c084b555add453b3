//! In-memory span recording and exact order statistics.
//!
//! A [`Recorder`] that is switched off only reads the clock, so the
//! untraced run pays one `Instant::now()` pair per timed call. A
//! recorder that is switched on also keeps a [`Span`] per call (name,
//! start, end, parent span, and the solve or cell it belongs to) in
//! memory; the spans are written out once, when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within a run, starting at 1.
    pub id: u64,
    /// The enclosing span, or 0 at the top level.
    pub parent: u64,
    /// Layer boundary, e.g. `core.solve` or `coord.cell`.
    pub name: &'static str,
    /// Engine backend or other qualifier (may be empty).
    pub tag: &'static str,
    /// The solve seed, cell index or job index the span belongs to.
    pub subject: u64,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// Collects spans when switched on; only times calls when off.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder that keeps spans iff `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A recorder that keeps nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// Runs `f` (which receives this span's id, 0 when off) and
    /// returns its value with the elapsed wall time in seconds.
    pub fn span<R>(
        &self,
        name: &'static str,
        tag: &'static str,
        parent: u64,
        subject: u64,
        f: impl FnOnce(u64) -> R,
    ) -> (R, f64) {
        let id = if self.on {
            self.next_id.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            0
        };
        let start = Instant::now();
        let value = f(id);
        let end = Instant::now();
        if self.on {
            let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
            self.spans.lock().expect("span list lock").push(Span {
                id,
                parent,
                name,
                tag,
                subject,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
        (value, end.duration_since(start).as_secs_f64())
    }

    /// Number of spans kept so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list lock").len()
    }

    /// Writes every span as one JSON object per line, ordered by id.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = self.spans.lock().expect("span list lock").clone();
        spans.sort_by_key(|s| s.id);
        let mut out = String::new();
        for s in &spans {
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"tag\": \"{}\", \
                 \"subject\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.name, s.tag, s.subject, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Exact nearest-rank percentile of raw samples (`pct` in `(0, 100]`):
/// the smallest sample with at least `pct`% of the samples at or below
/// it. Returns NaN for an empty sample.
pub fn nearest_rank(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_ranks() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(nearest_rank(&v, 90.0), 5.0);
        assert_eq!(nearest_rank(&v, 20.0), 1.0);
        assert_eq!(nearest_rank(&[7.0, 8.0], 50.0), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn off_recorder_keeps_nothing_but_still_times() {
        let rec = Recorder::off();
        let (v, secs) = rec.span("x", "", 0, 0, |id| id);
        assert_eq!(v, 0);
        assert!(secs >= 0.0);
        assert_eq!(rec.len(), 0);
        let on = Recorder::new(true);
        let (outer, _) = on.span("outer", "", 0, 1, |id| {
            on.span("inner", "t", id, 2, |_| ());
            id
        });
        assert_eq!(outer, 1);
        let spans = on.spans.lock().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, outer);
    }
}
