//! Spatial partitioning demo: plan a BGP prefix hijack against Hetzner
//! (AS24940), execute it against the live simulation, and measure both
//! node isolation and hash-power isolation — the paper's §V-A scenario.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example spatial_hijack
//! ```

use btcpart::attacks::spatial::{classical_attack_curve, eclipse_as};
use btcpart::bgp::HijackIndex;
use btcpart::topology::{Asn, Country};
use btcpart::Scenario;

fn main() {
    let mut lab = Scenario::new().scale(0.1).seed(7).fast_network().build();
    let victim = Asn(24940); // Hetzner Online

    // --- 1. Plan: how many prefixes must be hijacked? --------------------
    let hijacks = HijackIndex::new(&lab.snapshot);
    println!("== hijack planning against {victim} ==");
    for fraction in [0.5, 0.8, 0.95] {
        match hijacks.prefixes_for_fraction(victim, fraction) {
            Some(k) => println!(
                "isolate {:>3.0}% of its nodes: {k} prefixes",
                fraction * 100.0
            ),
            None => println!(
                "isolate {:>3.0}% of its nodes: unreachable",
                fraction * 100.0
            ),
        }
    }

    // The classical (whole-AS) baseline needs far more coarse-grained
    // effort for the same coverage.
    let classical = classical_attack_curve(&lab.snapshot, 10);
    println!("\nclassical attack baseline (whole ASes):");
    for (k, frac) in classical.iter().take(5) {
        println!("  hijack top-{k} ASes -> {:.1}% of all nodes", frac * 100.0);
    }

    // --- 2. Execute: impose the cut on the live network ------------------
    lab.sim.run_for_secs(2 * 600); // let the chain get going
    let report = eclipse_as(&mut lab.sim, &hijacks, &lab.census, victim, 15, 6 * 600);
    println!("\n== executed eclipse: 15 prefix hijacks for one hour ==");
    println!("prefixes hijacked: {}", report.prefixes_hijacked);
    println!(
        "isolated {} nodes ({:.1}% of the network)",
        report.isolated,
        report.network_fraction * 100.0
    );
    println!(
        "victim side fell {} blocks behind the main chain",
        report.victim_lag_blocks
    );
    println!(
        "{} confirmed transaction(s) were reversed when the partition healed",
        report.reversed_tx_events
    );

    // --- 3. Hash power: the AliBaba-sphere attack -------------------------
    let alibaba = [Asn(45102), Asn(37963), Asn(58563)];
    println!(
        "\nhijacking 3 ASes (AliBaba sphere) isolates {:.1}% of the hash rate",
        lab.census.isolated_share(&alibaba) * 100.0
    );

    // Nation-state variant: every Chinese AS cuts its Bitcoin traffic.
    let chinese_ases = lab.snapshot.registry.ases_in(Country::China);
    let china_hash = lab.census.isolated_share(&chinese_ases);
    let china_nodes: usize = chinese_ases
        .iter()
        .map(|asn| lab.snapshot.nodes_in_as(*asn).len())
        .sum();
    println!(
        "a Chinese national ban would cut {:.1}% of hash power and {} nodes ({:.1}%)",
        china_hash * 100.0,
        china_nodes,
        china_nodes as f64 * 100.0 / lab.snapshot.node_count() as f64
    );
}
