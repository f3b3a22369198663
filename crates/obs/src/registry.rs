//! The metric registry and its deterministic renderers.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A fixed-bucket histogram: counts of observed values per upper bound
/// (`value <= bound`), plus an overflow bucket for everything larger.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    /// Inclusive upper bounds, strictly increasing.
    bounds: Vec<u64>,
    /// One count per bound.
    counts: Vec<u64>,
    /// Observations above the last bound.
    overflow: u64,
    /// Total observations.
    total: u64,
    /// Sum of observed values (for the mean).
    sum: u64,
    /// Largest observed value.
    max: u64,
}

impl Histogram {
    /// Creates a histogram with the given inclusive upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn with_bounds(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len()],
            overflow: 0,
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        match self.bounds.iter().position(|&b| value <= b) {
            Some(i) => self.counts[i] += 1,
            None => self.overflow += 1,
        }
        self.total += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// The inclusive upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts (aligned with [`bounds`](Self::bounds)).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations above the last bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest observed value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The `q`-quantile as the inclusive upper bound of the bucket where
    /// the cumulative count first reaches `ceil(q · total)` — a
    /// conservative (upper) estimate, exact at bucket boundaries.
    /// Observations past the last bound report [`max`](Self::max), and an
    /// empty histogram reports 0.
    ///
    /// # Panics
    ///
    /// Panics unless `q` lies in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must lie in [0, 1]");
        if self.total == 0 {
            return 0;
        }
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (count, bound) in self.counts.iter().zip(&self.bounds) {
            seen += count;
            if seen >= target {
                return *bound;
            }
        }
        self.max
    }

    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Reconstructs a histogram from its exported parts (the inverse of
    /// the getter set above) — used to round-trip histograms through
    /// stable byte encodings such as the bench cache.
    ///
    /// # Errors
    ///
    /// Returns a message when the parts are inconsistent: empty or
    /// unsorted bounds, a counts/bounds length mismatch, or a total that
    /// does not equal the bucket counts plus overflow (or a sum of them
    /// that overflows `u64`).
    pub fn from_parts(
        bounds: Vec<u64>,
        counts: Vec<u64>,
        overflow: u64,
        total: u64,
        sum: u64,
        max: u64,
    ) -> Result<Self, String> {
        if bounds.is_empty() {
            return Err("histogram needs at least one bucket".to_string());
        }
        if !bounds.windows(2).all(|w| w[0] < w[1]) {
            return Err("histogram bounds must be strictly increasing".to_string());
        }
        if counts.len() != bounds.len() {
            return Err(format!(
                "histogram has {} bounds but {} counts",
                bounds.len(),
                counts.len()
            ));
        }
        let counted = counts
            .iter()
            .try_fold(overflow, |acc, &c| acc.checked_add(c));
        if counted != Some(total) {
            return Err(format!(
                "histogram total {total} does not match its bucket counts plus {overflow} overflow"
            ));
        }
        Ok(Self {
            bounds,
            counts,
            overflow,
            total,
            sum,
            max,
        })
    }
}

/// Accumulated span-timer statistics for one name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStats {
    /// Completed spans.
    pub count: u64,
    /// Total wall time across those spans.
    pub total: Duration,
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, SpanStats>,
    /// Run-relative counters (cache hit rates, environment facts):
    /// deliberately excluded from the deterministic `to_json`/`to_csv`
    /// renderings because they may differ between two runs that produce
    /// byte-identical results (e.g. a cold vs a warm cache run).
    volatile: BTreeMap<String, u64>,
}

/// A thread-safe metric registry (see the crate docs for the
/// determinism contract).
///
/// All recording methods take `&self`; the registry can be shared by
/// reference across scoped threads.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

/// RAII guard returned by [`Registry::span`]: records the elapsed wall
/// time under its name when dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    registry: &'a Registry,
    name: String,
    started: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.registry
            .record_span(&self.name, self.started.elapsed());
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn with_inner<R>(&self, f: impl FnOnce(&mut Inner) -> R) -> R {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        f(&mut inner)
    }

    /// Increments a monotonic counter by 1.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Increments a monotonic counter by `delta`.
    pub fn add(&self, name: &str, delta: u64) {
        self.with_inner(|i| *i.counters.entry(name.to_string()).or_default() += delta);
    }

    /// Increments a *volatile* counter by `delta`. Volatile counters are
    /// run metadata (cache hits, bytes moved): they appear in
    /// [`Snapshot::render_table`] and via [`Snapshot::volatile`], but are
    /// excluded from the deterministic `metrics.json`/`metrics.csv`
    /// renderings, like span wall times.
    pub fn add_volatile(&self, name: &str, delta: u64) {
        self.with_inner(|i| *i.volatile.entry(name.to_string()).or_default() += delta);
    }

    /// Sets a gauge to `value` (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.with_inner(|i| {
            i.gauges.insert(name.to_string(), value);
        });
    }

    /// Raises a gauge to `value` if larger (high-water mark).
    pub fn max_gauge(&self, name: &str, value: f64) {
        self.with_inner(|i| {
            let g = i.gauges.entry(name.to_string()).or_insert(f64::MIN);
            if value > *g {
                *g = value;
            }
        });
    }

    /// Records `value` into the fixed-bucket histogram `name`. The
    /// bounds are fixed by the first call; later calls must pass the
    /// same bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` differ from the histogram's existing bounds.
    pub fn observe(&self, name: &str, bounds: &[u64], value: u64) {
        self.with_inner(|i| {
            let hist = i
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Histogram::with_bounds(bounds));
            assert_eq!(
                hist.bounds(),
                bounds,
                "histogram {name} re-registered with different bounds"
            );
            hist.record(value);
        });
    }

    /// Merges a pre-built histogram into the registry (bucket-wise sum;
    /// inserts when absent).
    ///
    /// # Panics
    ///
    /// Panics if an existing histogram under `name` has different bounds.
    pub fn merge_histogram(&self, name: &str, hist: &Histogram) {
        self.with_inner(|i| merge_histogram_into(&mut i.histograms, name, hist));
    }

    /// Starts a wall-clock span; the elapsed time is recorded under
    /// `name` when the returned guard drops.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        SpanGuard {
            registry: self,
            name: name.to_string(),
            started: Instant::now(),
        }
    }

    /// Records one completed span of `elapsed` wall time under `name`.
    pub fn record_span(&self, name: &str, elapsed: Duration) {
        self.with_inner(|i| {
            let s = i.spans.entry(name.to_string()).or_default();
            s.count += 1;
            s.total += elapsed;
        });
    }

    /// Takes an immutable snapshot of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        self.with_inner(|i| Snapshot {
            counters: i.counters.clone(),
            gauges: i.gauges.clone(),
            histograms: i.histograms.clone(),
            spans: i.spans.clone(),
            volatile: i.volatile.clone(),
        })
    }

    /// Folds a snapshot of another registry into this one: counters and
    /// volatile counters add, gauges take the maximum (inserting when
    /// absent), histograms merge bucket-wise, and span statistics add
    /// both hit counts and wall time.
    ///
    /// This is the primitive behind scoped observation: each pipeline
    /// task records into its own registry, and the per-task registries
    /// are merged in task order afterwards. Because counters, histogram
    /// buckets and span counts are additive and the deterministic
    /// renderers sort by name, the merged result is byte-identical to
    /// recording into one shared registry — regardless of the
    /// interleaving the worker pool produced. The max rule for gauges
    /// assumes cross-registry gauge names are either disjoint or
    /// high-water marks, which holds for every `bp-*` metric family.
    ///
    /// # Panics
    ///
    /// Panics if a histogram in `snap` has different bounds than an
    /// existing histogram of the same name (same as
    /// [`merge_histogram`](Self::merge_histogram)).
    pub fn merge_snapshot(&self, snap: &Snapshot) {
        self.with_inner(|i| {
            for (name, value) in &snap.counters {
                *i.counters.entry(name.clone()).or_default() += value;
            }
            for (name, value) in &snap.volatile {
                *i.volatile.entry(name.clone()).or_default() += value;
            }
            for (name, value) in &snap.gauges {
                let g = i.gauges.entry(name.clone()).or_insert(f64::MIN);
                if *value > *g {
                    *g = *value;
                }
            }
            for (name, hist) in &snap.histograms {
                merge_histogram_into(&mut i.histograms, name, hist);
            }
            for (name, stats) in &snap.spans {
                let s = i.spans.entry(name.clone()).or_default();
                s.count += stats.count;
                s.total += stats.total;
            }
        });
    }
}

/// Bucket-wise sum of `hist` into `histograms[name]`, inserting it when
/// absent.
///
/// # Panics
///
/// Panics if the existing histogram under `name` has different bounds.
fn merge_histogram_into(
    histograms: &mut BTreeMap<String, Histogram>,
    name: &str,
    hist: &Histogram,
) {
    match histograms.get_mut(name) {
        None => {
            histograms.insert(name.to_string(), hist.clone());
        }
        Some(existing) => {
            assert_eq!(
                existing.bounds(),
                hist.bounds(),
                "histogram {name} merged with different bounds"
            );
            for (c, add) in existing.counts.iter_mut().zip(&hist.counts) {
                *c += add;
            }
            existing.overflow += hist.overflow;
            existing.total += hist.total;
            existing.sum += hist.sum;
            existing.max = existing.max.max(hist.max);
        }
    }
}

/// A point-in-time copy of a [`Registry`], with the stable renderers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, SpanStats>,
    volatile: BTreeMap<String, u64>,
}

/// Escapes a string for a JSON key/value position.
///
/// Public so downstream renderers that interpolate metric names into
/// hand-written JSON (e.g. the bench pipeline report) can reuse the exact
/// escaping [`Snapshot::to_json`] applies.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Escapes a single CSV field per RFC 4180: quoted only when it contains a
/// comma, double quote, or line break, so well-formed metric names render
/// byte-identically to the unescaped form.
///
/// Public for the same reason as [`json_escape`]: downstream CSV renderers
/// that interpolate metric or trace names should share this escaping.
pub fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
        out
    } else {
        s.to_string()
    }
}

/// Formats an `f64` for JSON: finite values via Rust's shortest-roundtrip
/// `Display` (deterministic), non-finite values as `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Ensure a JSON number stays a number on re-parse ("1" not "1.0"
        // matters to byte-stability, not to JSON validity).
        s
    } else {
        "null".to_string()
    }
}

impl Snapshot {
    /// A counter's value (0 when never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A histogram, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Span statistics, if recorded.
    pub fn span_stats(&self, name: &str) -> Option<SpanStats> {
        self.spans.get(name).copied()
    }

    /// All counters in sorted-name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges in sorted-name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms in sorted-name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// All span statistics in sorted-name order.
    pub fn spans(&self) -> impl Iterator<Item = (&str, SpanStats)> {
        self.spans.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All volatile counters in sorted-name order.
    pub fn volatile(&self) -> impl Iterator<Item = (&str, u64)> {
        self.volatile.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// The deterministic `metrics.json` rendering: counters, gauges and
    /// histograms in sorted-name order, plus span *hit counts* (span
    /// wall times are intentionally excluded — see the crate docs).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"bp-obs/v1\",\n");

        out.push_str("  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}    \"{}\": {value}", json_escape(name));
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        out.push_str("  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    \"{}\": {}",
                json_escape(name),
                json_f64(*value)
            );
        }
        out.push_str(if self.gauges.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        out.push_str("  \"histograms\": {");
        for (i, (name, hist)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let bounds: Vec<String> = hist.bounds().iter().map(|b| b.to_string()).collect();
            let counts: Vec<String> = hist.counts().iter().map(|c| c.to_string()).collect();
            let _ = write!(
                out,
                "{sep}    \"{}\": {{\"bounds\": [{}], \"counts\": [{}], \"overflow\": {}, \"total\": {}, \"max\": {}}}",
                json_escape(name),
                bounds.join(", "),
                counts.join(", "),
                hist.overflow(),
                hist.total(),
                hist.max(),
            );
        }
        out.push_str(if self.histograms.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        out.push_str("  \"span_counts\": {");
        for (i, (name, stats)) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}    \"{}\": {}", json_escape(name), stats.count);
        }
        out.push_str(if self.spans.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });

        out.push_str("}\n");
        out
    }

    /// The deterministic `metrics.csv` rendering: one row per metric
    /// (`kind,name,field,value`), histogram buckets expanded to one row
    /// per bound. Span wall times are excluded, as in
    /// [`to_json`](Self::to_json).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,field,value\n");
        for (name, value) in &self.counters {
            let _ = writeln!(out, "counter,{},value,{value}", csv_field(name));
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "gauge,{},value,{}", csv_field(name), json_f64(*value));
        }
        for (name, hist) in &self.histograms {
            let name = csv_field(name);
            for (bound, count) in hist.bounds().iter().zip(hist.counts()) {
                let _ = writeln!(out, "histogram,{name},le_{bound},{count}");
            }
            let _ = writeln!(out, "histogram,{name},overflow,{}", hist.overflow());
            let _ = writeln!(out, "histogram,{name},total,{}", hist.total());
            let _ = writeln!(out, "histogram,{name},max,{}", hist.max());
        }
        for (name, stats) in &self.spans {
            let _ = writeln!(out, "span,{},count,{}", csv_field(name), stats.count);
        }
        out
    }

    /// A human-readable table of everything, including span wall times
    /// (this rendering is for eyes, not for diffing — wall times vary
    /// run to run).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            let width = self.counters.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<width$}  {value}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            let width = self.gauges.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "  {name:<width$}  {value}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, hist) in &self.histograms {
                let buckets: Vec<String> = hist
                    .bounds()
                    .iter()
                    .zip(hist.counts())
                    .map(|(b, c)| format!("<={b}:{c}"))
                    .collect();
                let _ = writeln!(
                    out,
                    "  {name}  total={} max={} [{}] overflow={}",
                    hist.total(),
                    hist.max(),
                    buckets.join(" "),
                    hist.overflow(),
                );
            }
        }
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            let width = self.spans.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, stats) in &self.spans {
                let _ = writeln!(
                    out,
                    "  {name:<width$}  count={} total={:.1} ms",
                    stats.count,
                    stats.total.as_secs_f64() * 1e3,
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let reg = Registry::new();
        reg.inc("a");
        reg.add("a", 4);
        reg.inc("b");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a"), 5);
        assert_eq!(snap.counter("b"), 1);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn gauges_set_and_max() {
        let reg = Registry::new();
        reg.set_gauge("g", 2.5);
        reg.set_gauge("g", 1.0);
        reg.max_gauge("hwm", 3.0);
        reg.max_gauge("hwm", 2.0);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("g"), Some(1.0));
        assert_eq!(snap.gauge("hwm"), Some(3.0));
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::with_bounds(&[1, 2, 4]);
        for v in [0, 1, 2, 3, 4, 5, 100] {
            h.record(v);
        }
        assert_eq!(h.counts(), &[2, 1, 2]); // <=1: {0,1}; <=2: {2}; <=4: {3,4}
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 7);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 115.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_rejected() {
        let _ = Histogram::with_bounds(&[2, 1]);
    }

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let mut h = Histogram::with_bounds(&[1, 2, 4, 8]);
        assert_eq!(h.quantile(0.5), 0); // empty
        for v in [1, 1, 2, 3, 4, 5, 6, 7, 8, 9] {
            h.record(v);
        }
        // 10 observations: 2 in <=1, 1 in <=2, 2 in <=4, 4 in <=8, 1 over.
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(0.2), 1);
        assert_eq!(h.quantile(0.5), 4);
        assert_eq!(h.quantile(0.9), 8);
        // Past the last bound: the tracked max, not a fake bucket.
        assert_eq!(h.quantile(1.0), 9);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn out_of_range_quantile_rejected() {
        Histogram::with_bounds(&[1]).quantile(1.5);
    }

    #[test]
    fn observe_and_merge_agree() {
        let reg = Registry::new();
        reg.observe("h", &[10, 20], 5);
        reg.observe("h", &[10, 20], 15);
        let mut local = Histogram::with_bounds(&[10, 20]);
        local.record(25);
        reg.merge_histogram("h", &local);
        let snap = reg.snapshot();
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.counts(), &[1, 1]);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn spans_record_counts_and_time() {
        let reg = Registry::new();
        {
            let _s = reg.span("work");
        }
        reg.record_span("work", Duration::from_millis(5));
        let stats = reg.snapshot().span_stats("work").unwrap();
        assert_eq!(stats.count, 2);
        assert!(stats.total >= Duration::from_millis(5));
    }

    #[test]
    fn json_is_deterministic_and_excludes_span_times() {
        let make = || {
            let reg = Registry::new();
            reg.add("z.last", 1);
            reg.add("a.first", 2);
            reg.set_gauge("g", 0.5);
            reg.observe("h", &[1, 2], 2);
            reg.record_span("s", Duration::from_millis(17));
            reg.snapshot()
        };
        let a = make().to_json();
        // A second registry with different span timing renders the same.
        let reg = Registry::new();
        reg.add("z.last", 1);
        reg.add("a.first", 2);
        reg.set_gauge("g", 0.5);
        reg.observe("h", &[1, 2], 2);
        reg.record_span("s", Duration::from_millis(9_999));
        let b = reg.snapshot().to_json();
        assert_eq!(a, b);
        // Sorted keys: a.first before z.last.
        assert!(a.find("a.first").unwrap() < a.find("z.last").unwrap());
        assert!(a.contains("\"span_counts\""));
        assert!(!a.contains("9999"));
    }

    #[test]
    fn csv_covers_every_kind() {
        let reg = Registry::new();
        reg.inc("c");
        reg.set_gauge("g", 2.0);
        reg.observe("h", &[1], 0);
        reg.record_span("s", Duration::from_millis(1));
        let csv = reg.snapshot().to_csv();
        assert!(csv.starts_with("kind,name,field,value\n"));
        assert!(csv.contains("counter,c,value,1"));
        assert!(csv.contains("gauge,g,value,2"));
        assert!(csv.contains("histogram,h,le_1,1"));
        assert!(csv.contains("histogram,h,overflow,0"));
        assert!(csv.contains("span,s,count,1"));
    }

    #[test]
    fn empty_snapshot_renders_valid_json() {
        let snap = Registry::new().snapshot();
        assert!(snap.is_empty());
        let json = snap.to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let reg = Registry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        reg.inc("shared");
                    }
                });
            }
        });
        assert_eq!(reg.snapshot().counter("shared"), 4000);
    }

    #[test]
    fn json_escaping_handles_special_chars() {
        let reg = Registry::new();
        reg.inc("weird\"name\\with\ncontrol");
        let json = reg.snapshot().to_json();
        assert!(json.contains("weird\\\"name\\\\with\\u000acontrol"));
    }

    #[test]
    fn csv_escaping_quotes_reserved_chars() {
        let reg = Registry::new();
        reg.inc("name,with\"comma");
        reg.set_gauge("g,1", 2.0);
        reg.observe("h,1", &[1], 1);
        reg.record_span("s,1", std::time::Duration::from_millis(1));
        let csv = reg.snapshot().to_csv();
        assert!(csv.contains("counter,\"name,with\"\"comma\",value,1"));
        assert!(csv.contains("gauge,\"g,1\",value,2"));
        assert!(csv.contains("histogram,\"h,1\",le_1,1"));
        assert!(csv.contains("span,\"s,1\",count,1"));
        // Every data row still has exactly four parsed fields.
        for line in csv.lines().skip(1) {
            assert_eq!(parse_csv_fields(line).len(), 4, "row: {line}");
        }
    }

    #[test]
    fn csv_escaping_leaves_clean_names_untouched() {
        assert_eq!(csv_field("net.events.inv"), "net.events.inv");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("a\"b"), "\"a\"\"b\"");
        assert_eq!(csv_field("a\nb"), "\"a\nb\"");
    }

    /// Minimal RFC-4180 field splitter for the escaping test above.
    fn parse_csv_fields(line: &str) -> Vec<String> {
        let mut fields = Vec::new();
        let mut field = String::new();
        let mut chars = line.chars().peekable();
        let mut quoted = false;
        while let Some(c) = chars.next() {
            match c {
                '"' if quoted => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        quoted = false;
                    }
                }
                '"' if field.is_empty() => quoted = true,
                ',' if !quoted => fields.push(std::mem::take(&mut field)),
                c => field.push(c),
            }
        }
        fields.push(field);
        fields
    }

    #[test]
    fn table_renders_all_sections() {
        let reg = Registry::new();
        reg.inc("c");
        reg.set_gauge("g", 1.5);
        reg.observe("h", &[1], 1);
        reg.record_span("s", Duration::from_millis(2));
        let table = reg.snapshot().render_table();
        for section in ["counters:", "gauges:", "histograms:", "spans:"] {
            assert!(table.contains(section), "missing {section}");
        }
    }
}
