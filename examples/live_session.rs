//! A live campus broadcast: receivers join and leave mid-session and the
//! universal-tree Shapley mechanism re-prices every batch **from warm
//! state** — the session engine keeps the Moulin–Shenker drop loop's
//! subtree counts alive across batches and restarts the iteration from
//! the surviving receiver set instead of from scratch.
//!
//! Every batch's warm allocation is checked against a cold rebuild on the
//! current receiver set (byte-identical by the session contract), the
//! charged shares stay exactly budget balanced, and an MC session runs
//! alongside for the welfare view, checked against the one-shot MC
//! mechanism on the same bids.
//!
//! ```text
//! cargo run --example live_session
//! ```

use multicast_cost_sharing::prelude::*;
use multicast_cost_sharing::wireless::shapley_drop_run_from;

pub fn main() {
    // The campus: a jittered grid of relay masts, data centre at mast 0.
    let cfg = InstanceConfig {
        n: 24,
        dim: 2,
        kind: InstanceKind::Grid { spacing: 2.0 },
        seed: 11,
    };
    let net = WirelessNetwork::euclidean(cfg.generate(), PowerModel::free_space(), 0);
    let n = net.n_players();
    let shapley = UniversalShapleyMechanism::new(
        SubstrateBuilder::new(&net)
            .tree(TreeKind::Mst)
            .build_universal(),
    );
    let mc = UniversalMcMechanism::new(
        SubstrateBuilder::new(&net)
            .tree(TreeKind::Mst)
            .build_universal(),
    );

    // A day of churn: half the campus tunes in up front, then arrivals,
    // departures and rebids trickle through in batches.
    let trace = ChurnProcess::new(n, 8, 4, 25.0, 2026).generate();

    let mut live = shapley.session();
    let mut welfare_view = mc.session();
    let mut served_any = false;

    println!(
        "== live campus broadcast: {n} subscriber masts, {} churn batches ==\n",
        trace.batches.len()
    );
    println!("batch | events | served | revenue |   cost | max share | MC welfare");
    for (i, batch) in trace.batches.iter().enumerate() {
        // Warm path: absorb the batch, restart the drop loop from the
        // surviving set.
        live.apply_events(batch);
        let candidates = live.active_players();
        let bids = live.reported_profile();
        let out = live.reprice();

        // The session contract, checked live: a cold rebuild on the same
        // candidate set must agree byte for byte.
        let cold = shapley_drop_run_from(shapley.universal_tree(), &bids, &candidates);
        assert_eq!(out.receivers, cold.receivers, "warm/cold receiver drift");
        assert_eq!(out.shares, cold.shares, "warm/cold share drift");
        assert_eq!(out.served_cost, cold.served_cost, "warm/cold cost drift");

        // Shapley is exactly budget balanced after every batch.
        assert!(
            (out.revenue() - out.served_cost).abs() <= 1e-9 * (1.0 + out.served_cost),
            "batch {i}: revenue {} != cost {}",
            out.revenue(),
            out.served_cost
        );
        served_any |= !out.receivers.is_empty();

        // The MC session agrees with the one-shot mechanism on its bids.
        let eff = welfare_view.apply_batch(batch);
        let mc_bids = welfare_view.reported_profile();
        let one_shot = mc.run(&mc_bids);
        assert_eq!(
            eff.receivers, one_shot.receivers,
            "MC session/one-shot drift"
        );
        assert_eq!(eff.shares, one_shot.shares, "MC session/one-shot drift");

        let mc_welfare: f64 = eff
            .receivers
            .iter()
            .map(|&p| mc_bids[p] - eff.shares[p])
            .sum();
        let max_share = out.shares.iter().cloned().fold(0.0, f64::max);
        println!(
            "  {i:2}  |   {:3}  |   {:3}  | {:7.2} | {:6.2} |   {:7.3} | {:10.2}",
            batch.len(),
            out.receivers.len(),
            out.revenue(),
            out.served_cost,
            max_share,
            mc_welfare
        );
    }
    assert!(served_any, "the trace must actually serve someone");
    assert_eq!(live.n_events(), trace.n_events());
    println!(
        "\n{} events absorbed over {} batches; every batch exactly budget balanced and \
         byte-identical to a cold rebuild on the current receiver set",
        live.n_events(),
        live.n_batches()
    );
}
