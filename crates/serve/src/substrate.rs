//! The write-once substrate the query engine serves from.
//!
//! A server pays the expensive pipeline inputs — calibrated snapshot,
//! pool census, the day crawl and its simulation — exactly once, then
//! every query borrows them immutably. No query reads the general crawl,
//! so the substrate does not hold one. Each part lives behind a
//! [`OnceLock`] cell: publishing twice is a bug (panics), and queries
//! that reach an unbuilt part fail loudly instead of silently rebuilding
//! it, mirroring the bench pipeline's `SharedInputs` discipline.

use bp_crawler::CrawlResult;
use bp_mining::PoolCensus;
use bp_net::Simulation;
use bp_topology::Snapshot;
use btcpart::Lab;
use std::sync::OnceLock;

/// The loaded substrate: static environment plus the day crawl.
#[derive(Debug, Default)]
pub struct Substrate {
    static_env: OnceLock<(Snapshot, PoolCensus)>,
    day: OnceLock<(CrawlResult, Lab)>,
}

impl Substrate {
    /// An empty substrate; publish parts with the `set_*` methods.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes the static environment (snapshot + census).
    ///
    /// # Panics
    ///
    /// Panics if the static environment was already published.
    pub fn set_static(&self, value: (Snapshot, PoolCensus)) {
        assert!(
            self.static_env.set(value).is_ok(),
            "static environment built twice"
        );
    }

    /// Publishes the one-day, minute-sampled crawl and its lab.
    ///
    /// # Panics
    ///
    /// Panics if the day crawl was already published.
    pub fn set_day(&self, value: (CrawlResult, Lab)) {
        assert!(self.day.set(value).is_ok(), "day crawl built twice");
    }

    /// Whether the static environment has been published.
    pub fn has_static(&self) -> bool {
        self.static_env.get().is_some()
    }

    /// Whether the day crawl has been published.
    pub fn has_day(&self) -> bool {
        self.day.get().is_some()
    }

    /// The calibrated snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the static environment is not loaded.
    pub fn snapshot(&self) -> &Snapshot {
        &self.static_part().0
    }

    /// The Table IV pool census.
    ///
    /// # Panics
    ///
    /// Panics if the static environment is not loaded.
    pub fn census(&self) -> &PoolCensus {
        &self.static_part().1
    }

    fn static_part(&self) -> &(Snapshot, PoolCensus) {
        self.static_env
            .get()
            .expect("query requires the static environment")
    }

    /// The day crawl result (per-node lag matrix and series).
    ///
    /// # Panics
    ///
    /// Panics if the day crawl is not loaded.
    pub fn day_crawl(&self) -> &CrawlResult {
        &self.day.get().expect("query requires the day crawl").0
    }

    /// The simulation state left behind by the day crawl — the peer
    /// graph eclipse cascades are evaluated against.
    ///
    /// # Panics
    ///
    /// Panics if the day crawl is not loaded.
    pub fn day_sim(&self) -> &Simulation {
        &self.day.get().expect("query requires the day crawl").1.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcpart::Scenario;

    #[test]
    fn parts_publish_once_and_read_back() {
        let sub = Substrate::new();
        assert!(!sub.has_static());
        sub.set_static(Scenario::new().scale(0.02).build_static());
        assert!(sub.has_static());
        assert!(sub.snapshot().node_count() > 0);
        assert!(!sub.census().is_empty());
        assert!(!sub.has_day());
    }

    #[test]
    #[should_panic(expected = "built twice")]
    fn double_publish_panics() {
        let sub = Substrate::new();
        sub.set_static(Scenario::new().scale(0.02).build_static());
        sub.set_static(Scenario::new().scale(0.02).build_static());
    }

    #[test]
    #[should_panic(expected = "requires the day crawl")]
    fn missing_part_fails_loudly() {
        let sub = Substrate::new();
        let _ = sub.day_crawl();
    }
}
