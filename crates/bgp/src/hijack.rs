//! BGP hijack planning.
//!
//! Two attack flavours from the paper (§V-A):
//!
//! * **More-specific prefix hijack** — the attacker announces a longer
//!   prefix than the victim's; longest-prefix-match means *every* AS
//!   forwards the covered traffic to the attacker, so each hijacked
//!   prefix cleanly isolates all Bitcoin nodes inside it. Figure 4 counts
//!   how many such announcements are needed per victim AS.
//! * **Same-length origin hijack** — the attacker announces the victim's
//!   exact prefix; the Internet splits according to BGP preference, and
//!   only part of it (the *capture set*) routes to the attacker.
//!
//! [`HijackIndex`] plans the first kind and produces the paper's
//! cost/advantage accounting: "taking the number of isolated nodes as an
//! advantage and the number of prefixes to be hijacked as an effort";
//! [`origin_hijack`] computes the second.

use crate::graph::AsGraph;
use crate::routing::RouteMap;
use bp_topology::{Asn, NodeId, Snapshot};

/// Result of hijacking a set of prefixes inside one victim AS.
#[derive(Debug, Clone, PartialEq)]
pub struct HijackOutcome {
    /// The victim AS.
    pub victim: Asn,
    /// Number of prefixes announced (the attacker's effort).
    pub prefixes_hijacked: usize,
    /// Nodes whose traffic the attacker now intercepts (the advantage).
    pub isolated_nodes: Vec<NodeId>,
    /// Fraction of the victim AS's nodes isolated.
    pub fraction_of_as: f64,
}

impl HijackOutcome {
    /// The paper's cost/advantage ratio: prefixes per isolated node
    /// (lower = more efficient attack). `f64::INFINITY` when nothing was
    /// isolated.
    pub fn cost_per_node(&self) -> f64 {
        if self.isolated_nodes.is_empty() {
            f64::INFINITY
        } else {
            self.prefixes_hijacked as f64 / self.isolated_nodes.len() as f64
        }
    }
}

/// One AS's prebuilt hijack plan: its member count and per-prefix node
/// lists, largest population first.
#[derive(Debug, Clone)]
struct RankedAs {
    /// All member nodes in ascending id order, including ones without a
    /// covering IPv4 prefix.
    members: Vec<NodeId>,
    /// Per-prefix node lists, ranked descending by population. The rank
    /// is a stable sort over the registry's prefix order, so ties go to
    /// the prefix the registry lists first.
    prefixes: Vec<Vec<NodeId>>,
}

/// The more-specific prefix-hijack planner: a prebuilt, owned index over
/// a whole snapshot.
///
/// It ranks every AS's prefixes by node count once (one pass over the
/// node table) and answers each query with a map lookup plus an `O(k)`
/// scan, so a batch experiment and a long-running query engine read the
/// same ranking. It owns its data (no borrow of the snapshot), so a
/// server can keep it alongside the snapshot without self-referential
/// lifetimes.
#[derive(Debug, Clone, Default)]
pub struct HijackIndex {
    per_as: std::collections::BTreeMap<u32, RankedAs>,
}

impl HijackIndex {
    /// Builds the index: one pass over the registry and one over the
    /// node table.
    pub fn new(snapshot: &Snapshot) -> Self {
        let mut per_as: std::collections::BTreeMap<u32, RankedAs> = snapshot
            .registry
            .ases()
            .map(|record| {
                (
                    record.asn.0,
                    RankedAs {
                        members: Vec::new(),
                        prefixes: vec![Vec::new(); record.prefixes.len()],
                    },
                )
            })
            .collect();
        for i in 0..snapshot.node_count() as u32 {
            let n = snapshot.node(NodeId(i));
            let ranked = per_as.entry(n.asn.0).or_insert_with(|| RankedAs {
                members: Vec::new(),
                prefixes: Vec::new(),
            });
            ranked.members.push(n.id);
            if let Some(pi) = n.prefix_idx {
                ranked.prefixes[pi as usize].push(n.id);
            }
        }
        for ranked in per_as.values_mut() {
            // Stable sort: ties keep registry prefix order.
            ranked
                .prefixes
                .sort_by_key(|nodes| std::cmp::Reverse(nodes.len()));
        }
        Self { per_as }
    }

    /// ASes that host at least one node, ascending by number — the
    /// query universe a load generator draws targets from.
    pub fn populated_ases(&self) -> Vec<Asn> {
        self.per_as
            .iter()
            .filter(|(_, r)| !r.members.is_empty())
            .map(|(a, _)| Asn(*a))
            .collect()
    }

    /// Nodes hosted by `victim` (0 for an unknown AS).
    pub fn members(&self, victim: Asn) -> usize {
        self.per_as.get(&victim.0).map_or(0, |r| r.members.len())
    }

    /// The cumulative isolation curve of Figure 4: element `k-1` is the
    /// fraction of the AS's nodes isolated after hijacking its `k` most
    /// populated prefixes.
    ///
    /// Nodes without a covering IPv4 prefix (IPv6 carve-outs) cannot be
    /// isolated this way and cap the curve below 1.0, mirroring the
    /// paper's observation that a handful of nodes per AS resist prefix
    /// hijacks.
    pub fn isolation_curve(&self, victim: Asn) -> Vec<f64> {
        let Some(ranked) = self.per_as.get(&victim.0) else {
            return Vec::new();
        };
        if ranked.members.is_empty() {
            return Vec::new();
        }
        let total = ranked.members.len() as f64;
        let mut acc = 0usize;
        ranked
            .prefixes
            .iter()
            .map(|nodes| {
                acc += nodes.len();
                acc as f64 / total
            })
            .collect()
    }

    /// Minimum number of prefixes to isolate at least `fraction` of the
    /// victim's nodes, or `None` if the curve never reaches it.
    pub fn prefixes_for_fraction(&self, victim: Asn, fraction: f64) -> Option<usize> {
        self.isolation_curve(victim)
            .iter()
            .position(|f| *f + 1e-12 >= fraction)
            .map(|i| i + 1)
    }

    /// Executes a greedy hijack of the victim's `k` most populated
    /// prefixes and reports the outcome.
    pub fn hijack_top_prefixes(&self, victim: Asn, k: usize) -> HijackOutcome {
        let Some(ranked) = self.per_as.get(&victim.0) else {
            return HijackOutcome {
                victim,
                prefixes_hijacked: 0,
                isolated_nodes: Vec::new(),
                fraction_of_as: 0.0,
            };
        };
        let k = k.min(ranked.prefixes.len());
        let isolated: Vec<NodeId> = ranked
            .prefixes
            .iter()
            .take(k)
            .flat_map(|nodes| nodes.iter().copied())
            .collect();
        let fraction = if ranked.members.is_empty() {
            0.0
        } else {
            isolated.len() as f64 / ranked.members.len() as f64
        };
        HijackOutcome {
            victim,
            prefixes_hijacked: k,
            isolated_nodes: isolated,
            fraction_of_as: fraction,
        }
    }
}

/// Result of a same-length origin hijack computed over the routing graph.
#[derive(Debug, Clone, PartialEq)]
pub struct OriginHijack {
    /// ASes that route the contested prefix to the attacker.
    pub captured_ases: Vec<Asn>,
    /// Fraction of all ASes captured.
    pub captured_fraction: f64,
}

/// Computes which ASes a same-length origin hijack captures, given the
/// relationship graph. The victim keeps ASes that prefer its announcement;
/// the attacker takes the rest.
pub fn origin_hijack(graph: &AsGraph, victim: Asn, attacker: Asn) -> OriginHijack {
    origin_hijack_with_defense(graph, victim, attacker, &std::collections::HashSet::new())
}

/// Like [`origin_hijack`], but ASes in `defenders` deploy bogus-route
/// purging (Zhang et al., paper §VI): they reject the hijacker's
/// announcement and never re-export it, shielding themselves and every AS
/// whose only path to the attacker ran through them.
pub fn origin_hijack_with_defense(
    graph: &AsGraph,
    victim: Asn,
    attacker: Asn,
    defenders: &std::collections::HashSet<Asn>,
) -> OriginHijack {
    let victim_routes = RouteMap::compute(graph, victim);
    let attacker_routes = RouteMap::compute_with_blocked(graph, attacker, defenders);
    let captured = victim_routes.captured_by(&attacker_routes);
    let total = graph.len().max(1);
    OriginHijack {
        captured_fraction: captured.len() as f64 / total as f64,
        captured_ases: captured,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_topology::{Snapshot, SnapshotConfig};

    fn snap() -> Snapshot {
        Snapshot::generate(SnapshotConfig::test_small())
    }

    #[test]
    fn isolation_curve_is_monotone_and_bounded() {
        let s = snap();
        let curve = HijackIndex::new(&s).isolation_curve(Asn(24940));
        assert!(!curve.is_empty());
        for pair in curve.windows(2) {
            assert!(pair[0] <= pair[1] + 1e-12);
        }
        assert!(*curve.last().unwrap() <= 1.0);
        // Hetzner is concentrated: most nodes fall quickly.
        assert!(curve[14.min(curve.len() - 1)] > 0.6);
    }

    #[test]
    fn amazon_needs_many_more_prefixes_than_hetzner() {
        let index = HijackIndex::new(&snap());
        let hetzner = index.prefixes_for_fraction(Asn(24940), 0.8).unwrap();
        let amazon = index.prefixes_for_fraction(Asn(16509), 0.8).unwrap();
        assert!(amazon > hetzner * 3, "amazon {amazon} vs hetzner {hetzner}");
    }

    #[test]
    fn hijack_outcome_accounting() {
        let s = snap();
        let outcome = HijackIndex::new(&s).hijack_top_prefixes(Asn(24940), 15);
        assert_eq!(outcome.prefixes_hijacked, 15);
        assert!(outcome.fraction_of_as > 0.5);
        assert!(outcome.cost_per_node() < 1.0);
        // All isolated nodes really live in the victim AS.
        for id in &outcome.isolated_nodes {
            assert_eq!(s.node(*id).asn, Asn(24940));
        }
    }

    #[test]
    fn hijack_zero_prefixes_isolates_nothing() {
        let outcome = HijackIndex::new(&snap()).hijack_top_prefixes(Asn(24940), 0);
        assert!(outcome.isolated_nodes.is_empty());
        assert_eq!(outcome.cost_per_node(), f64::INFINITY);
    }

    #[test]
    fn unknown_as_yields_empty_curve() {
        let index = HijackIndex::new(&snap());
        assert!(index.isolation_curve(Asn(424242)).is_empty());
        assert_eq!(index.prefixes_for_fraction(Asn(424242), 0.5), None);
    }

    /// The index against the snapshot's own scans: every populated AS
    /// plus one unknown AS, the curve exact in `f64`, and each top-k
    /// hijack isolating exactly the top-k counts, all inside the victim.
    #[test]
    fn index_matches_snapshot_scans() {
        let s = snap();
        let index = HijackIndex::new(&s);
        let mut victims = index.populated_ases();
        assert_eq!(victims.len(), s.nodes_per_as().len());
        victims.push(Asn(424242));
        for asn in victims {
            let members = s.nodes_in_as(asn).len();
            let counts = s.prefix_node_counts(asn);
            assert_eq!(index.members(asn), members, "{asn:?}");
            let curve: Vec<f64> = if members == 0 {
                Vec::new()
            } else {
                counts
                    .iter()
                    .scan(0usize, |acc, c| {
                        *acc += c;
                        Some(*acc as f64 / members as f64)
                    })
                    .collect()
            };
            assert_eq!(index.isolation_curve(asn), curve, "curve of {asn:?}");
            for k in 0..=counts.len() + 1 {
                let outcome = index.hijack_top_prefixes(asn, k);
                let expected: usize = counts.iter().take(k).sum();
                assert_eq!(outcome.prefixes_hijacked, k.min(counts.len()));
                assert_eq!(outcome.isolated_nodes.len(), expected, "{asn:?} k={k}");
                assert!(outcome
                    .isolated_nodes
                    .iter()
                    .all(|id| s.node(*id).asn == asn));
            }
        }
    }

    #[test]
    fn route_purging_shrinks_the_capture_set() {
        let s = snap();
        let g = AsGraph::synthetic(&s.registry, 3);
        let undefended = origin_hijack(&g, Asn(24940), Asn(16509));
        // The biggest transit ASes deploy purging.
        let defenders: std::collections::HashSet<Asn> = (0..8).map(|i| Asn(65_000 + i)).collect();
        let defended = origin_hijack_with_defense(&g, Asn(24940), Asn(16509), &defenders);
        assert!(
            defended.captured_fraction < undefended.captured_fraction,
            "defense did not help: {} vs {}",
            defended.captured_fraction,
            undefended.captured_fraction
        );
        // Defenders themselves are never captured.
        for d in &defenders {
            assert!(!defended.captured_ases.contains(d));
        }
    }

    #[test]
    fn origin_hijack_captures_part_of_internet() {
        let s = snap();
        let g = AsGraph::synthetic(&s.registry, 3);
        let result = origin_hijack(&g, Asn(24940), Asn(16509));
        assert!(result.captured_fraction > 0.0);
        assert!(result.captured_fraction < 1.0);
        // The attacker itself is in its own capture set.
        assert!(result.captured_ases.contains(&Asn(16509)));
    }
}
