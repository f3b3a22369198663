//! Per-node profiles.
//!
//! Table I of the paper characterises full nodes by connectivity family,
//! link speed, latency index and uptime index; the Bitnodes crawl also
//! records each node's software version and whether it is currently up.
//! A [`NodeProfile`] carries all of that static/slow-moving state; the
//! dynamic chain view lives in the network simulator.

use crate::ids::{Asn, ConnType, NodeAddr, NodeId, OrgId};

/// Named population scales for snapshot generation and the `repro`
/// harness. `Quick` and `Paper` are spellings of the continuous
/// `--scale` factor the CLI already accepts; `Huge` is the
/// million-node stress profile behind `repro --scale huge`, sized so
/// the paper's spatial claims can be probed at internet scale rather
/// than snapshot scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleProfile {
    /// 5 % of the paper population (~680 nodes): CI and perfbench.
    Quick,
    /// The paper's 13,635-node February 28, 2018 snapshot.
    Paper,
    /// Exactly 1,000,000 nodes, every node up. Built with the
    /// partial-Fisher–Yates samplers — the legacy rejection samplers
    /// degenerate into coupon collection at this population.
    Huge,
}

impl ScaleProfile {
    /// The linear factor this profile applies to the paper's 13,635
    /// nodes. `Huge`'s factor is calibrated so the rounded total is
    /// exactly one million.
    pub fn factor(self) -> f64 {
        match self {
            Self::Quick => 0.05,
            Self::Paper => 1.0,
            Self::Huge => 73.3407,
        }
    }

    /// Total nodes the profile generates (before the up-fraction cut;
    /// `Huge` keeps every node up).
    pub fn nodes(self) -> usize {
        match self {
            Self::Quick => 682,
            Self::Paper => 13_635,
            Self::Huge => 1_000_000,
        }
    }

    /// Documented peak-RSS budget, in MiB, for a full day of gossip at
    /// this scale. The huge-scale CI smoke job enforces its budget
    /// against the measured `VmHWM`; the smaller profiles' budgets are
    /// generous ceilings for regression tracking.
    pub fn memory_budget_mb(self) -> u64 {
        match self {
            Self::Quick => 256,
            Self::Paper => 2048,
            Self::Huge => 6144,
        }
    }

    /// Parses a named `--scale` spelling. Numeric scales are handled by
    /// the caller; only profile names resolve here.
    pub fn from_flag(raw: &str) -> Option<Self> {
        match raw {
            "quick" => Some(Self::Quick),
            "paper" => Some(Self::Paper),
            "huge" => Some(Self::Huge),
            _ => None,
        }
    }
}

/// Static profile of one full node, as a crawler would record it.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeProfile {
    /// Dense node index.
    pub id: NodeId,
    /// Network address (IPv4 / IPv6 / onion).
    pub addr: NodeAddr,
    /// Hosting AS (Tor nodes are grouped under a pseudo-AS, as the paper
    /// does: "We group TOR nodes and treat them as a single AS").
    pub asn: Asn,
    /// Owning organization of the hosting AS.
    pub org: OrgId,
    /// Index of the announced BGP prefix within the AS's prefix list that
    /// covers this node's address (`None` for non-IPv4 nodes).
    pub prefix_idx: Option<u32>,
    /// Link speed in Mbps (Table I: IPv4 μ = 25.04, Tor μ = 432.67).
    pub link_speed_mbps: f64,
    /// Latency index in `[0, 1]` — higher is *worse* response latency as
    /// Bitnodes scores it (IPv4 μ = 0.70, Tor μ = 0.24).
    pub latency_index: f64,
    /// Uptime index in `[0, 1]` — fraction of time reachable.
    pub uptime_index: f64,
    /// Whether the node was up at snapshot time (83.47 % in the paper).
    pub is_up: bool,
    /// Index into the software version census (Table VIII).
    pub version_idx: u32,
}

impl NodeProfile {
    /// The connectivity family.
    pub fn conn_type(&self) -> ConnType {
        self.addr.conn_type()
    }

    /// A propagation-quality score in `(0, 1]` combining latency and
    /// uptime: well-connected, reliable nodes relay faster. Used by the
    /// network simulator to derive per-edge delay multipliers.
    pub fn relay_quality(&self) -> f64 {
        let latency_quality = 1.0 - self.latency_index * 0.8;
        let uptime_quality = 0.2 + self.uptime_index * 0.8;
        (latency_quality * uptime_quality).clamp(0.05, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(latency: f64, uptime: f64) -> NodeProfile {
        NodeProfile {
            id: NodeId(0),
            addr: NodeAddr::V4(0x0A000001),
            asn: Asn(24940),
            org: OrgId(0),
            prefix_idx: Some(0),
            link_speed_mbps: 25.0,
            latency_index: latency,
            uptime_index: uptime,
            is_up: true,
            version_idx: 0,
        }
    }

    #[test]
    fn relay_quality_orders_nodes_sensibly() {
        let fast = profile(0.1, 0.9);
        let slow = profile(0.9, 0.3);
        assert!(fast.relay_quality() > slow.relay_quality());
    }

    #[test]
    fn relay_quality_bounded() {
        for lat in [0.0, 0.5, 1.0] {
            for up in [0.0, 0.5, 1.0] {
                let q = profile(lat, up).relay_quality();
                assert!((0.05..=1.0).contains(&q), "quality {q} out of range");
            }
        }
    }

    #[test]
    fn conn_type_follows_addr() {
        let p = profile(0.5, 0.5);
        assert_eq!(p.conn_type(), ConnType::IPv4);
    }

    #[test]
    fn scale_profiles_round_trip_and_round_to_their_populations() {
        for p in [ScaleProfile::Quick, ScaleProfile::Paper, ScaleProfile::Huge] {
            assert_eq!((13_635.0 * p.factor()).round() as usize, p.nodes());
            assert!(p.memory_budget_mb() > 0);
        }
        assert_eq!(ScaleProfile::from_flag("huge"), Some(ScaleProfile::Huge));
        assert_eq!(ScaleProfile::from_flag("0.5"), None);
        assert_eq!(ScaleProfile::from_flag("HUGE"), None);
    }
}
