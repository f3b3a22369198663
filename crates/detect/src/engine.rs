//! The detection engine: records in, alert records out.
//!
//! [`DetectEngine`] pairs a [`StreamState`] with a detector suite and
//! runs the suite once per crawler tick, stamping each firing into an
//! alert [`Tracer`]. It consumes exactly the net/crawler portion of a
//! trace — attack-category records live in a different time domain and
//! detect-category records are the engine's own output, so both are
//! skipped, which makes replaying a trace that already carries alerts
//! idempotent: the recomputed alert stream is byte-identical.
//!
//! `repro --detect` feeds the engine the run's merged trace once the
//! pipeline has finished, and `trace detect` feeds it an exported
//! `trace.bin`. Both carry the same records in the same order, so both
//! produce the same alert stream.

use crate::detector::{standard_suite, DetectConfig, Detector};
use crate::observe::{StreamState, Tick};
use bp_obs::trace::{TraceCategory, TraceRecord, Tracer};
use bp_obs::Registry;
use std::fmt::Write as _;

/// Streaming detection over trace records.
pub struct DetectEngine {
    state: StreamState,
    detectors: Vec<Box<dyn Detector>>,
    counts: Vec<u64>,
    alerts: Tracer,
}

impl std::fmt::Debug for DetectEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DetectEngine")
            .field("detectors", &self.names())
            .field("ticks", &self.state.ticks())
            .field("alerts", &self.alerts.len())
            .finish()
    }
}

impl DetectEngine {
    /// An engine running the standard four-detector suite.
    pub fn new(config: DetectConfig) -> Self {
        Self::with_detectors(standard_suite(config))
    }

    /// An engine running a custom suite (evaluation order = vec order).
    pub fn with_detectors(detectors: Vec<Box<dyn Detector>>) -> Self {
        let counts = vec![0; detectors.len()];
        Self {
            state: StreamState::new(),
            detectors,
            counts,
            alerts: Tracer::new(),
        }
    }

    /// Detector names, in evaluation order.
    pub fn names(&self) -> Vec<&'static str> {
        self.detectors.iter().map(|d| d.name()).collect()
    }

    /// Consumes one record; detectors run when it is a sample tick.
    pub fn feed(&mut self, r: &TraceRecord) {
        match r.kind.category() {
            TraceCategory::Attack | TraceCategory::Detect => return,
            TraceCategory::Net | TraceCategory::Crawler => {}
        }
        if let Some(tick) = self.state.consume(r) {
            self.run_suite(&tick);
        }
    }

    /// Consumes a record slice in order.
    pub fn feed_all(&mut self, records: &[TraceRecord]) {
        for r in records {
            self.feed(r);
        }
    }

    fn run_suite(&mut self, tick: &Tick) {
        for (i, d) in self.detectors.iter_mut().enumerate() {
            if let Some(alert) = d.observe(tick, &self.state) {
                self.counts[i] += 1;
                self.alerts
                    .record(d.kind(), tick.t_ms, alert.node, alert.a, alert.b);
            }
        }
    }

    /// Alerts emitted so far (the engine keeps running).
    pub fn alerts(&self) -> &[TraceRecord] {
        self.alerts.records()
    }

    /// Finalizes into a report.
    pub fn finish(self) -> DetectReport {
        let alert_counts = self
            .detectors
            .iter()
            .zip(&self.counts)
            .map(|(d, &n)| (d.name().to_string(), n))
            .collect();
        DetectReport {
            alerts: self.alerts.into_records(),
            alert_counts,
            ticks: self.state.ticks(),
            records: self.state.records(),
            inv_total: self.state.inv_total(),
            getdata_total: self.state.getdata_total(),
        }
    }
}

/// What one detection run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectReport {
    /// The alert stream, in emission order (tick-major, suite order
    /// within a tick).
    pub alerts: Vec<TraceRecord>,
    /// Alerts per detector, in suite order.
    pub alert_counts: Vec<(String, u64)>,
    /// Crawler ticks evaluated.
    pub ticks: u64,
    /// Records consumed (net + crawler).
    pub records: u64,
    /// Inv announcements seen (getdata/inv ratio numeratorless half).
    pub inv_total: u64,
    /// Getdata requests seen.
    pub getdata_total: u64,
}

impl DetectReport {
    /// The getdata/inv ratio observable, in milli (1000 = parity).
    pub fn getdata_per_inv_milli(&self) -> u64 {
        (self.getdata_total * 1000)
            .checked_div(self.inv_total)
            .unwrap_or(0)
    }

    /// Exports `detect.*` counters: consumed records/ticks, the total
    /// and per-detector alert counts, and the getdata/inv ratio.
    pub fn export_metrics(&self, reg: &Registry) {
        reg.add("detect.records", self.records);
        reg.add("detect.ticks", self.ticks);
        reg.add("detect.alerts", self.alerts.len() as u64);
        for (name, n) in &self.alert_counts {
            reg.add(&format!("detect.alerts.{name}"), *n);
        }
        reg.add("detect.getdata_per_inv_milli", self.getdata_per_inv_milli());
    }

    /// Deterministic plain-text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "records: {}   ticks: {}   getdata/inv: {} milli",
            self.records,
            self.ticks,
            self.getdata_per_inv_milli()
        );
        let _ = writeln!(out, "alerts: {}", self.alerts.len());
        for (name, n) in &self.alert_counts {
            let _ = writeln!(out, "  {name:<16} {n}");
        }
        if let (Some(first), Some(last)) = (self.alerts.first(), self.alerts.last()) {
            let _ = writeln!(
                out,
                "alert span: {}s..{}s",
                first.time / 1000,
                last.time / 1000
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_obs::trace::TraceKind;

    #[test]
    fn engine_skips_attack_and_detect_records() {
        let mut engine = DetectEngine::new(DetectConfig::default());
        engine.feed(&TraceRecord {
            time: 1,
            node: 0,
            kind: TraceKind::GridMine,
            a: 1,
            b: 1,
        });
        engine.feed(&TraceRecord {
            time: 2,
            node: u32::MAX,
            kind: TraceKind::DetectBlockAware,
            a: 500,
            b: 5,
        });
        let report = engine.finish();
        assert_eq!(report.records, 0);
        assert!(report.alerts.is_empty());
    }

    #[test]
    fn replaying_a_trace_with_alerts_is_idempotent() {
        // Build a stream that trips BlockAware, then replay the stream
        // plus its own alerts: the recomputed alerts must be identical.
        let mut base = vec![TraceRecord {
            time: 0,
            node: 2,
            kind: TraceKind::CrawlSample,
            a: 2,
            b: 0,
        }];
        for i in 0..30u64 {
            let t = (i + 1) * 60_000;
            base.push(TraceRecord {
                time: t,
                node: 0,
                kind: TraceKind::Mine,
                a: i,
                b: i + 1,
            });
            base.push(TraceRecord {
                time: t,
                node: 0,
                kind: TraceKind::BlockAccept,
                a: i,
                b: i + 1,
            });
            base.push(TraceRecord {
                time: t,
                node: 2,
                kind: TraceKind::CrawlSample,
                a: 1,
                b: i + 1,
            });
        }
        let mut engine = DetectEngine::new(DetectConfig::default());
        engine.feed_all(&base);
        let first = engine.finish();
        assert!(!first.alerts.is_empty(), "scenario should alert");

        let mut with_alerts = base.clone();
        with_alerts.extend_from_slice(&first.alerts);
        let mut engine = DetectEngine::new(DetectConfig::default());
        engine.feed_all(&with_alerts);
        let second = engine.finish();
        assert_eq!(first.alerts, second.alerts);
        assert_eq!(first.alert_counts, second.alert_counts);
    }
}
