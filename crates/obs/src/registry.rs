//! The named-metric registry and its deterministic snapshot form.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
use crate::trace::EventTracer;

/// One registered metric. Handles are `Arc`s so call sites can cache
/// them and update without touching the registry lock again.
#[derive(Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A registry of named counters, gauges, and histograms plus a
/// bounded event tracer. Names are dot-separated paths; the `timing.`
/// prefix marks wall-clock metrics that the stable rendering
/// excludes (see the crate docs for the full contract).
///
/// Metric handles are get-or-create: the first call for a name
/// registers it, later calls return the same atomic. Asking for an
/// existing name with a different metric kind panics — that is a
/// programming error, not a runtime condition.
#[derive(Debug, Default)]
pub struct ObsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
    tracer: EventTracer,
}

impl ObsRegistry {
    /// An empty registry with the default trace capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-create the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = self.metrics.lock().expect("obs registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric {name:?} already registered as {other:?}, wanted a counter"),
        }
    }

    /// Get-or-create the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut metrics = self.metrics.lock().expect("obs registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric {name:?} already registered as {other:?}, wanted a gauge"),
        }
    }

    /// Get-or-create the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut metrics = self.metrics.lock().expect("obs registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("metric {name:?} already registered as {other:?}, wanted a histogram"),
        }
    }

    /// The registry's event tracer.
    pub fn tracer(&self) -> &EventTracer {
        &self.tracer
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().expect("obs registry poisoned");
        let mut snapshot = Snapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    snapshot.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snapshot.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snapshot.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snapshot
    }

    /// Shorthand for `self.snapshot().render_stable()`.
    pub fn render_stable(&self) -> String {
        self.snapshot().render_stable()
    }
}

/// True when the metric name sits in the wall-clock section.
fn is_timing(name: &str) -> bool {
    name.starts_with("timing.")
}

/// A point-in-time copy of a registry's metrics, keyed by name in
/// sorted order. All payloads are integers (histograms are bucket
/// count vectors), so equality is exact and [`merge`](Self::merge)
/// is associative and commutative — snapshots from many workers fold
/// into one without floating-point drift.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram bucket counts by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// The counter's total, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The gauge's level, if registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// The histogram's buckets, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Folds `other` in: counters and histograms add, gauges take the
    /// maximum (the only order-independent combination for a level).
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &other.gauges {
            let slot = self.gauges.entry(name.clone()).or_insert(0);
            *slot = (*slot).max(*value);
        }
        for (name, hist) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .or_insert_with(HistogramSnapshot::empty)
                .merge(hist);
        }
    }

    /// The canonical deterministic form: every non-`timing.` metric,
    /// one per line, sorted by name. Counters and gauges print their
    /// integer value; histograms print their total count and raw
    /// nonzero buckets (`slot:count`). Because nothing here involves
    /// wall-clock or floating-point accumulation, this string is
    /// byte-identical across runs of the same deterministic work.
    pub fn render_stable(&self) -> String {
        let mut out = String::new();
        self.render_section(&mut out, false);
        out
    }

    /// Human-oriented rendering: the stable section followed by a
    /// `-- timing --` section with wall-clock histograms summarized
    /// as count plus p50/p90/p99 bracket edges.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_section(&mut out, false);
        let has_timing = self.counters.keys().any(|n| is_timing(n))
            || self.gauges.keys().any(|n| is_timing(n))
            || self.histograms.keys().any(|n| is_timing(n));
        if has_timing {
            out.push_str("-- timing --\n");
            self.render_section(&mut out, true);
        }
        out
    }

    fn render_section(&self, out: &mut String, timing: bool) {
        for (name, value) in &self.counters {
            if is_timing(name) == timing {
                let _ = writeln!(out, "{name} {value}");
            }
        }
        for (name, value) in &self.gauges {
            if is_timing(name) == timing {
                let _ = writeln!(out, "{name} {value}");
            }
        }
        for (name, hist) in &self.histograms {
            if is_timing(name) != timing {
                continue;
            }
            if timing {
                let _ = writeln!(
                    out,
                    "{name} count={} p50<={:.6} p90<={:.6} p99<={:.6}",
                    hist.count(),
                    hist.p50(),
                    hist.p90(),
                    hist.p99(),
                );
            } else {
                let _ = write!(out, "{name} count={}", hist.count());
                for (slot, &count) in hist.buckets.iter().enumerate() {
                    if count > 0 {
                        let _ = write!(out, " {slot}:{count}");
                    }
                }
                out.push('\n');
            }
        }
    }

    /// Prometheus-style text exposition: `hycim_`-prefixed names with
    /// dots mangled to underscores, counters as `counter`, gauges as
    /// `gauge`, histograms as cumulative `le` buckets plus `_count`.
    /// There is deliberately no `_sum` series — the histogram keeps
    /// no floating-point accumulator (see the crate docs). `timing.`
    /// metrics are included; scrapers are expected to cope with
    /// wall-clock.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let mangled = mangle(name);
            let _ = writeln!(out, "# TYPE {mangled} counter");
            let _ = writeln!(out, "{mangled} {value}");
        }
        for (name, value) in &self.gauges {
            let mangled = mangle(name);
            let _ = writeln!(out, "# TYPE {mangled} gauge");
            let _ = writeln!(out, "{mangled} {value}");
        }
        for (name, hist) in &self.histograms {
            let mangled = mangle(name);
            let _ = writeln!(out, "# TYPE {mangled} histogram");
            let mut cumulative = 0u64;
            for (slot, &count) in hist.buckets.iter().enumerate() {
                cumulative += count;
                if count == 0 && slot < hist.buckets.len() - 1 {
                    continue;
                }
                let le = if slot < HISTOGRAM_BUCKETS {
                    format!("{:e}", HistogramSnapshot::edge(slot))
                } else {
                    "+Inf".to_string()
                };
                let _ = writeln!(out, "{mangled}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{mangled}_count {}", hist.count());
        }
        out
    }
}

/// `service.jobs_done` → `hycim_service_jobs_done`.
fn mangle(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("hycim_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_per_name() {
        let obs = ObsRegistry::new();
        let a = obs.counter("x.events");
        let b = obs.counter("x.events");
        a.add(2);
        b.inc();
        assert_eq!(obs.snapshot().counter("x.events"), Some(3));
    }

    #[test]
    #[should_panic(expected = "wanted a gauge")]
    fn kind_mismatch_panics() {
        let obs = ObsRegistry::new();
        obs.counter("x");
        obs.gauge("x");
    }

    #[test]
    fn stable_rendering_sorts_and_excludes_timing() {
        let obs = ObsRegistry::new();
        obs.counter("b.second").add(2);
        obs.counter("a.first").inc();
        obs.gauge("q.depth").set(7);
        obs.histogram("sizes").record(3.0);
        obs.histogram("timing.wall").record(0.1);
        let stable = obs.render_stable();
        assert!(!stable.contains("timing."));
        let a = stable.find("a.first 1").expect("a.first rendered");
        let b = stable.find("b.second 2").expect("b.second rendered");
        assert!(a < b, "names are sorted");
        assert!(stable.contains("q.depth 7"));
        assert!(stable.contains("sizes count=1"));
        let full = obs.snapshot().render();
        assert!(full.contains("-- timing --"));
        assert!(full.contains("timing.wall count=1"));
    }

    #[test]
    fn merge_adds_counters_and_maxes_gauges() {
        let x = ObsRegistry::new();
        x.counter("n").add(2);
        x.gauge("depth").set(5);
        x.histogram("h").record(1.0);
        let y = ObsRegistry::new();
        y.counter("n").add(3);
        y.gauge("depth").set(2);
        y.histogram("h").record(2.0);
        let mut merged = x.snapshot();
        merged.merge(&y.snapshot());
        assert_eq!(merged.counter("n"), Some(5));
        assert_eq!(merged.gauge("depth"), Some(5));
        assert_eq!(merged.histogram("h").map(|h| h.count()), Some(2));
    }

    #[test]
    fn prometheus_form_mangles_names_and_cumulates() {
        let obs = ObsRegistry::new();
        obs.counter("service.jobs_done").add(4);
        obs.histogram("sizes").record(1.0);
        obs.histogram("sizes").record(1.0);
        let text = obs.snapshot().render_prometheus();
        assert!(text.contains("# TYPE hycim_service_jobs_done counter"));
        assert!(text.contains("hycim_service_jobs_done 4"));
        assert!(text.contains("hycim_sizes_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("hycim_sizes_count 2"));
        assert!(!text.contains("_sum"), "no f64 sum series by design");
    }
}
