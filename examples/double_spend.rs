//! Double-spend across a partition — the economic payoff behind every
//! partitioning attack the paper analyses ("spatial partitioning …
//! facilitates other major attacks including double-spending attacks").
//!
//! A BGP-level cut isolates one mining pool's gateway. The attacker pays
//! a merchant there and spends the same coin at another pool's gateway on
//! the main side. Each side mines its own version; when the cut heals,
//! the longer chain wins and exactly one spend survives. The simulator
//! counts what was undone on the way: transactions the canonical chain
//! reversed, and confirmations individual nodes saw disappear. The
//! node-level count misses a reorg that completes by adopting orphaned
//! blocks, which is how a heal usually ends, so it can read 0 even
//! though the isolated gateway switched branch.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example double_spend
//! ```

use btcpart::Scenario;

fn main() {
    let mut lab = Scenario::new().scale(0.05).seed(7).fast_network().build();
    let sim = &mut lab.sim;
    sim.run_for_secs(60);

    let gateways: Vec<u32> = (0..sim.node_count() as u32)
        .filter(|&i| sim.is_gateway(i))
        .collect();
    let isolated = *gateways.last().expect("the census has pools");
    let main_side = gateways[0];

    // --- During the partition -------------------------------------------
    sim.set_partition(move |i| u32::from(i == isolated));
    let coin = 1;
    let pay_merchant = sim.submit_tx(isolated, coin).expect("the coin is unspent");
    let pay_exchange = sim
        .submit_tx(main_side, coin)
        .expect("the main side has not seen the merchant's payment");
    println!("cut off pool gateway {isolated}; the attacker pays the merchant there");
    println!("and spends the same coin at gateway {main_side} on the main side\n");
    sim.run_for_secs(12 * 600);
    println!(
        "after two hours: isolated gateway at height {}, main chain at height {}",
        sim.height_of(isolated).0,
        sim.height_of(main_side).0
    );

    // --- The partition heals ---------------------------------------------
    sim.clear_partition();
    sim.run_for_secs(6 * 600);
    let merchant_ok = sim.tx_confirmed(pay_merchant);
    let exchange_ok = sim.tx_confirmed(pay_exchange);
    println!("one hour after the heal:");
    println!("  merchant's payment confirmed: {merchant_ok}");
    println!("  exchange's payment confirmed: {exchange_ok}");
    println!(
        "  transactions reversed on the canonical chain: {}",
        sim.reversed_tx_total()
    );
    println!(
        "  confirmations nodes saw reversed:             {}",
        sim.node_reversals_total()
    );
    println!(
        "  double-spend relays rejected (first seen):    {}",
        sim.conflicts_rejected_total()
    );
    assert!(
        merchant_ok ^ exchange_ok,
        "exactly one spend of the coin must survive"
    );
}
