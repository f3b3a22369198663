//! The measurement crawler (Bitnodes stand-in).
//!
//! "Bitnodes maintains a persistent connection with all reachable nodes …
//! For each node, Bitnodes records the response time to calculate useful
//! information such as the latency, the uptime, and the latest block"
//! (§IV-A). The crawler here plays that role against the simulation: it
//! samples every node's lag on a fixed period (1-minute and 10-minute
//! periods, as in the paper) and records both the aggregate series
//! (Figure 6) and the full per-node lag matrix used by the temporal
//! vulnerability analysis (Table V).

use crate::asindex::AsSlotIndex;
use crate::matrix::LagMatrix;
use crate::series::{LagSample, LagSeries};
use bp_net::Simulation;
use bp_topology::{Asn, Snapshot};
use std::collections::HashMap;

/// A crawler that samples a [`Simulation`] on a fixed period.
#[derive(Debug, Clone)]
pub struct Crawler {
    sample_period_secs: u64,
}

/// Everything one crawl collected.
#[derive(Debug, Clone)]
pub struct CrawlResult {
    /// Aggregate per-class counts over time (Figure 6).
    pub series: LagSeries,
    /// Full per-node lag history (Table V input).
    pub matrix: LagMatrix,
    /// Per-sample synced-node counts per AS (Figure 8(b,c) / Table VII).
    pub synced_by_as: Vec<HashMap<Asn, usize>>,
}

impl Crawler {
    /// Creates a crawler sampling every `sample_period_secs` (the paper
    /// uses 600 for the long-run view and 60 for the fine-grained one).
    ///
    /// # Panics
    ///
    /// Panics if the period is zero.
    pub fn new(sample_period_secs: u64) -> Self {
        assert!(sample_period_secs > 0, "sample period must be positive");
        Self { sample_period_secs }
    }

    /// Drives the simulation for `duration_secs`, sampling after each
    /// period. The snapshot must be the one the simulation was built from
    /// (needed to join sim nodes back to their ASes).
    pub fn crawl(
        &self,
        sim: &mut Simulation,
        snapshot: &Snapshot,
        duration_secs: u64,
    ) -> CrawlResult {
        self.crawl_with_metrics(sim, snapshot, duration_secs, None)
    }

    /// [`crawl`](Self::crawl), recording the crawler's own sampling cost
    /// into `reg` when given: `crawler.samples` / `crawler.lag_cells`
    /// counters and a `crawler.sample` wall-clock span per sample (the
    /// span excludes the simulation's own run time, so it isolates what
    /// the lag collection costs). The crawl result is identical with or
    /// without a registry.
    pub fn crawl_with_metrics(
        &self,
        sim: &mut Simulation,
        snapshot: &Snapshot,
        duration_secs: u64,
        reg: Option<&bp_obs::Registry>,
    ) -> CrawlResult {
        let steps = duration_secs / self.sample_period_secs;
        let mut series = LagSeries::new();
        let mut matrix = LagMatrix::new(sim.node_count());
        let mut synced_by_as = Vec::with_capacity(steps as usize);

        // Join each sim node to its AS once, up front (see
        // [`AsSlotIndex`]): each sample then tallies synced nodes with a
        // dense counter bump per node instead of a snapshot lookup plus
        // hash-map insert, which dominates sampling cost at 13k nodes ×
        // 1-minute periods.
        let index = AsSlotIndex::build(sim, snapshot);
        let node_slot = index.node_slots();
        let mut counts = vec![0usize; index.slot_count()];
        let mut lags: Vec<u64> = Vec::new();

        for _ in 0..steps {
            sim.run_for_secs(self.sample_period_secs);
            let sample_span = reg.map(|r| r.span("crawler.sample"));
            sim.lags_into(&mut lags);
            series.push(LagSample::from_lags(sim.now(), &lags));
            matrix.push_row(&lags);
            // Flight-recorder sample tick (no-op unless the sim carries a
            // tracer): synced count plus network best, enough to rebuild
            // this sample from the trace alone.
            let synced_total = lags.iter().filter(|&&l| l == 0).count() as u64;
            sim.trace_crawl_sample(synced_total);

            counts.fill(0);
            for (i, &lag) in lags.iter().enumerate() {
                if lag == 0 {
                    counts[node_slot[i] as usize] += 1;
                }
            }
            // Only ASes that hosted a synced node get an entry, exactly
            // as the per-node entry API produced before.
            let mut by_as: HashMap<Asn, usize> = HashMap::new();
            for (slot, &count) in counts.iter().enumerate() {
                if count > 0 {
                    by_as.insert(index.asn_of_slot(slot as u32), count);
                }
            }
            synced_by_as.push(by_as);
            if let Some(reg) = reg {
                reg.inc("crawler.samples");
                reg.add("crawler.lag_cells", lags.len() as u64);
            }
            drop(sample_span);
        }

        CrawlResult {
            series,
            matrix,
            synced_by_as,
        }
    }
}

impl CrawlResult {
    /// Every `every`-th sample — samples `every − 1`, `2·every − 1`, … —
    /// of the series, the lag matrix and the per-AS counts together: the
    /// same crawl at an `every`-times longer sampling period.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn thin(&self, every: usize) -> Self {
        assert!(every > 0, "thinning step must be positive");
        Self {
            series: self
                .series
                .samples()
                .iter()
                .skip(every - 1)
                .step_by(every)
                .copied()
                .collect(),
            matrix: self.matrix.thin(every),
            synced_by_as: self
                .synced_by_as
                .iter()
                .skip(every - 1)
                .step_by(every)
                .cloned()
                .collect(),
        }
    }

    /// Appends a later crawl of the same simulation: its series, lag
    /// matrix rows and per-AS counts follow this crawl's.
    ///
    /// # Panics
    ///
    /// Panics if `later` starts before this crawl ends or covers a
    /// different node count.
    pub fn append(&mut self, later: Self) {
        for sample in later.series.samples() {
            self.series.push(*sample);
        }
        self.matrix.append(later.matrix);
        self.synced_by_as.extend(later.synced_by_as);
    }

    /// Ranks ASes by their total synced-node presence across all samples
    /// — Table VII's "top 5 ASes that hosted all the synchronized nodes".
    pub fn top_synced_ases(&self, k: usize) -> Vec<(Asn, f64)> {
        let mut totals: HashMap<Asn, usize> = HashMap::new();
        for sample in &self.synced_by_as {
            for (asn, count) in sample {
                *totals.entry(*asn).or_default() += count;
            }
        }
        let mut ranked: Vec<(Asn, usize)> = totals.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let denom = self.synced_by_as.len().max(1) as f64;
        ranked
            .into_iter()
            .take(k)
            .map(|(asn, total)| (asn, total as f64 / denom))
            .collect()
    }

    /// The per-sample synced count of one AS — a Figure 8(b,c) line.
    pub fn as_synced_series(&self, asn: Asn) -> Vec<(f64, f64)> {
        self.synced_by_as
            .iter()
            .zip(self.series.samples())
            .map(|(by_as, sample)| {
                (
                    sample.at.as_secs_f64(),
                    by_as.get(&asn).copied().unwrap_or(0) as f64,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lag::LagClass;
    use bp_mining::PoolCensus;
    use bp_net::NetConfig;
    use bp_topology::SnapshotConfig;

    fn setup() -> (Snapshot, Simulation) {
        let config = SnapshotConfig {
            scale: 0.02,
            tail_as_count: 40,
            version_tail: 10,
            up_fraction: 1.0,
            ..SnapshotConfig::paper()
        };
        let snap = Snapshot::generate(config);
        let sim = Simulation::new(&snap, &PoolCensus::paper_table_iv(), NetConfig::fast_test());
        (snap, sim)
    }

    #[test]
    fn crawl_produces_aligned_outputs() {
        let (snap, mut sim) = setup();
        let crawler = Crawler::new(60);
        let result = crawler.crawl(&mut sim, &snap, 1800);
        assert_eq!(result.series.len(), 30);
        assert_eq!(result.matrix.samples(), 30);
        assert_eq!(result.synced_by_as.len(), 30);
        assert_eq!(result.matrix.nodes(), sim.node_count());
    }

    #[test]
    fn fast_network_is_mostly_synced() {
        let (snap, mut sim) = setup();
        let crawler = Crawler::new(60);
        let result = crawler.crawl(&mut sim, &snap, 3600);
        assert!(
            result.series.mean_synced_fraction() > 0.8,
            "mean synced {}",
            result.series.mean_synced_fraction()
        );
    }

    #[test]
    fn synced_by_as_counts_are_consistent() {
        let (snap, mut sim) = setup();
        let crawler = Crawler::new(120);
        let result = crawler.crawl(&mut sim, &snap, 1200);
        for (by_as, sample) in result.synced_by_as.iter().zip(result.series.samples()) {
            let total: usize = by_as.values().sum();
            assert_eq!(total, sample.count(LagClass::Synced));
        }
    }

    #[test]
    fn top_synced_ases_are_largest_hosts() {
        let (snap, mut sim) = setup();
        let crawler = Crawler::new(120);
        let result = crawler.crawl(&mut sim, &snap, 2400);
        let top = result.top_synced_ases(5);
        assert_eq!(top.len(), 5);
        // Each named AS's series aligns with the sample count.
        let series = result.as_synced_series(top[0].0);
        assert_eq!(series.len(), result.series.len());
        // The #1 synced AS should be one of the big hosting anchors.
        let anchor_asns = [24940u32, 16276, 37963, 16509, 14061, 7922, 4134];
        assert!(
            anchor_asns.contains(&top[0].0 .0),
            "unexpected top AS {:?}",
            top[0].0
        );
    }

    #[test]
    fn thin_and_append_rebuild_a_coarser_crawl() {
        let (snap, mut sim) = setup();
        let (_, mut sim2) = setup();
        // 20 minutes at 60 s, thinned to 120 s, then 10 more minutes at
        // 120 s: the same as 30 minutes sampled at 120 s throughout.
        let mut joined = Crawler::new(60).crawl(&mut sim, &snap, 1200).thin(2);
        joined.append(Crawler::new(120).crawl(&mut sim, &snap, 600));
        let direct = Crawler::new(120).crawl(&mut sim2, &snap, 1800);
        assert_eq!(joined.series, direct.series);
        assert_eq!(joined.matrix, direct.matrix);
        assert_eq!(joined.synced_by_as, direct.synced_by_as);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_rejected() {
        let _ = Crawler::new(0);
    }

    #[test]
    fn metered_crawl_matches_unmetered() {
        let (snap, mut sim) = setup();
        let (_, mut sim2) = setup();
        let crawler = Crawler::new(60);
        let reg = bp_obs::Registry::new();
        let metered = crawler.crawl_with_metrics(&mut sim, &snap, 1800, Some(&reg));
        let plain = crawler.crawl(&mut sim2, &snap, 1800);
        assert_eq!(metered.series.samples(), plain.series.samples());
        assert_eq!(metered.synced_by_as, plain.synced_by_as);
        let snap2 = reg.snapshot();
        assert_eq!(snap2.counter("crawler.samples"), 30);
        assert_eq!(
            snap2.counter("crawler.lag_cells"),
            30 * sim.node_count() as u64
        );
        assert_eq!(snap2.span_stats("crawler.sample").unwrap().count, 30);
    }
}
