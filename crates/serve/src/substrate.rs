//! The substrate the query engine serves from.
//!
//! A server pays the expensive pipeline inputs — calibrated snapshot,
//! pool census, the day crawl and its simulation — exactly once, then
//! every query borrows them immutably. No query reads the general crawl,
//! so the substrate does not hold one. A substrate is built whole; one
//! built without the day crawl serves the static queries, and a query
//! that reaches the missing day fails loudly instead of silently
//! building it.

use bp_crawler::CrawlResult;
use bp_mining::PoolCensus;
use bp_net::Simulation;
use bp_topology::Snapshot;

/// The loaded substrate: static environment plus the day crawl.
#[derive(Debug)]
pub struct Substrate {
    static_env: (Snapshot, PoolCensus),
    day: Option<(CrawlResult, Simulation)>,
}

impl Substrate {
    /// A substrate over the static environment (snapshot + census) and,
    /// when given, the one-day, minute-sampled crawl and the simulation
    /// it left behind, which must run over that same snapshot.
    pub fn new(static_env: (Snapshot, PoolCensus), day: Option<(CrawlResult, Simulation)>) -> Self {
        Self { static_env, day }
    }

    /// The calibrated snapshot.
    pub fn snapshot(&self) -> &Snapshot {
        &self.static_env.0
    }

    /// The Table IV pool census.
    pub fn census(&self) -> &PoolCensus {
        &self.static_env.1
    }

    fn day(&self) -> &(CrawlResult, Simulation) {
        self.day.as_ref().expect("query requires the day crawl")
    }

    /// The day crawl result (per-node lag matrix and series).
    ///
    /// # Panics
    ///
    /// Panics if the substrate was built without the day crawl.
    pub fn day_crawl(&self) -> &CrawlResult {
        &self.day().0
    }

    /// The simulation state left behind by the day crawl — the peer
    /// graph eclipse cascades are evaluated against.
    ///
    /// # Panics
    ///
    /// Panics if the substrate was built without the day crawl.
    pub fn day_sim(&self) -> &Simulation {
        &self.day().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcpart::Scenario;

    #[test]
    fn parts_publish_once_and_read_back() {
        let sub = Substrate::new(Scenario::new().scale(0.02).build_static(), None);
        assert!(sub.snapshot().node_count() > 0);
        assert!(!sub.census().is_empty());
    }

    #[test]
    #[should_panic(expected = "requires the day crawl")]
    fn missing_part_fails_loudly() {
        let sub = Substrate::new(Scenario::new().scale(0.02).build_static(), None);
        let _ = sub.day_crawl();
    }
}
