//! A city-scale content platform: many multicast groups — news feeds,
//! match streams, firmware pushes — priced **concurrently** over one
//! station universe.
//!
//! One [`TreeSubstrate`] (network + cost-sorted CSR children) is built
//! once; every group is a warm per-group session sharing it through
//! `O(1)`-clone [`UniversalTree`] handles. The [`MulticastService`]
//! shards each churn step across a worker pool, and the outcomes are
//! byte-identical to serving every group alone on its own substrate —
//! the cross-group isolation contract this example re-checks live for
//! its largest group.
//!
//! ```text
//! cargo run --example multi_group
//! ```

use multicast_cost_sharing::prelude::*;
use multicast_cost_sharing::wireless::ShapleySession;

pub fn main() {
    // The city: a jittered grid of 49 relay masts, backbone at mast 0.
    let cfg = InstanceConfig {
        n: 49,
        dim: 2,
        kind: InstanceKind::Grid { spacing: 1.5 },
        seed: 5,
    };
    let net = WirelessNetwork::euclidean(cfg.generate(), PowerModel::free_space(), 0);
    let n = net.n_players();

    // One substrate, built once, shared by every group.
    let ut = SubstrateBuilder::new(&net)
        .tree(TreeKind::Spt)
        .build_universal();

    // Twelve concurrent groups with Zipf-distributed, overlapping member
    // sets and light/heavy per-group churn; even groups pay Shapley
    // prices (BB, group-strategyproof), odd groups VCG (efficient).
    let trace = MultiGroupProcess::new(n, 12, 6, 30.0, 77).generate();
    let mut service = MulticastService::new(&ut);
    for g in 0..trace.groups.len() {
        service.add_group(GroupMechanism::alternating(g));
    }

    // The isolation witness: group 0 served alone, on its own substrate.
    let own_substrate = SubstrateBuilder::new(&net)
        .tree(TreeKind::Spt)
        .build_universal();
    let mut alone = ShapleySession::new(&own_substrate);

    println!(
        "== multi-group service: {} masts, {} groups, {} events ==\n",
        n + 1,
        trace.groups.len(),
        trace.n_events()
    );
    println!("step | group sizes (members) | served/receiving | Σ revenue | Σ cost");
    let mut served_any = false;
    for b in 0..trace.n_batches() {
        let batches: Vec<Vec<ChurnEvent>> = trace
            .groups
            .iter()
            .map(|g| g.trace.batches[b].clone())
            .collect();
        let outcomes = service.step_all(&batches);

        // Cross-group isolation, checked live: the shared-substrate
        // outcome of group 0 equals the single-group session's.
        let reference = alone.apply_batch(&batches[0]);
        assert_eq!(outcomes[0].outcome, reference, "isolation violated");

        let served: usize = outcomes.iter().map(|o| o.outcome.receivers.len()).sum();
        served_any |= served > 0;
        let revenue: f64 = outcomes.iter().map(|o| o.outcome.revenue()).sum();
        let cost: f64 = outcomes.iter().map(|o| o.outcome.served_cost).sum();
        let sizes: Vec<usize> = trace.groups.iter().map(|g| g.members.len()).collect();
        println!(
            "{b:>4} | {:>21} | {served:>16} | {revenue:>9.2} | {cost:>6.2}",
            format!("{}…{}", sizes[0], sizes[sizes.len() - 1]),
        );

        // Per group: Shapley groups are exactly budget balanced on their
        // own served subtree; every charge respects VP by construction.
        for (g, out) in outcomes.iter().enumerate() {
            if GroupMechanism::alternating(g) == GroupMechanism::Shapley {
                let stations: Vec<usize> = out
                    .outcome
                    .receivers
                    .iter()
                    .map(|&p| net.station_of_player(p))
                    .collect();
                let c = ut.multicast_cost(&stations);
                assert!(
                    (out.outcome.revenue() - c).abs() <= 1e-9 * (1.0 + c),
                    "group {g} lost budget balance"
                );
            }
        }
    }
    assert!(served_any, "the trace must actually serve someone");
    assert_eq!(service.n_steps(), trace.n_batches());
    assert_eq!(service.n_events(), trace.n_events());

    println!(
        "\n{} steps, {} events ingested; every step byte-identical to isolated per-group \
         sessions (group 0 re-checked live).",
        service.n_steps(),
        service.n_events()
    );
}
