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
//! [`OnlineTap`] adapts the engine to the pipeline's `TraceHub`: stream
//! deposits arrive in nondeterministic completion order, so the tap
//! buffers them keyed by `(rank, name)` — the hub's own merge key — and
//! [`OnlineTap::merged`] replays them in sorted order, reproducing the
//! exact byte stream an offline `trace.bin` replay would see.

use crate::detector::{standard_suite, DetectConfig, Detector};
use crate::observe::{StreamState, Tick};
use bp_obs::trace::{TraceCategory, TraceRecord, Tracer};
use bp_obs::Registry;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

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

/// Buffers `TraceHub` stream deposits for deterministic online replay.
///
/// Register a closure forwarding to [`absorb`](Self::absorb) as the
/// hub's tap; once the pipeline finishes, [`merged`](Self::merged)
/// yields the records in the hub's own `(rank, name)` merge order —
/// byte-identical to `hub.merged()` and therefore to the exported
/// `trace.bin`, at any worker count. Re-deposits of a stream key
/// overwrite (last wins), matching hub semantics.
#[derive(Debug, Default)]
pub struct OnlineTap {
    streams: Mutex<BTreeMap<(u32, String), Vec<TraceRecord>>>,
}

impl OnlineTap {
    /// An empty tap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores one stream deposit (thread-safe; called from worker
    /// threads as tasks publish their tracers).
    pub fn absorb(&self, rank: u32, name: &str, records: &[TraceRecord]) {
        self.streams
            .lock()
            .expect("tap lock")
            .insert((rank, name.to_string()), records.to_vec());
    }

    /// All buffered records, concatenated in ascending `(rank, name)`
    /// order.
    pub fn merged(&self) -> Vec<TraceRecord> {
        let streams = self.streams.lock().expect("tap lock");
        let mut out = Vec::with_capacity(streams.values().map(Vec::len).sum());
        for records in streams.values() {
            out.extend_from_slice(records);
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

    #[test]
    fn tap_merges_in_rank_order_regardless_of_deposit_order() {
        let tap = OnlineTap::new();
        let mk = |t: u64, kind: TraceKind| TraceRecord {
            time: t,
            node: 0,
            kind,
            a: 0,
            b: 0,
        };
        tap.absorb(2, "model", &[mk(5, TraceKind::ModelBisect)]);
        tap.absorb(0, "day", &[mk(1, TraceKind::Mine)]);
        tap.absorb(1, "grid", &[mk(3, TraceKind::GridMine)]);
        // Last wins on re-deposit.
        tap.absorb(0, "day", &[mk(2, TraceKind::Mine)]);
        let merged = tap.merged();
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].time, 2);
        assert_eq!(merged[1].kind, TraceKind::GridMine);
        assert_eq!(merged[2].kind, TraceKind::ModelBisect);
    }
}
