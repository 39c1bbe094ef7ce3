//! The shared Moulin–Shenker drop-loop driver over *index sets*.
//!
//! Every Moulin–Shenker-style mechanism in the workspace runs the same
//! iteration: compute the active players' shares, drop everyone who
//! cannot afford theirs, repeat until a fixpoint, charge the fixpoint
//! shares. That loop lives in one place, [`run_drop_loop_from`], so every
//! mechanism drops by the same test — one written for NaN: every
//! comparison with NaN is false, so a `bid < share − EPS` test alone
//! would serve and charge a NaN bidder.
//!
//! The driver works on plain index sets, so it has **no 64-player cap**:
//! a [`DropLoopMethod`] carries its own representation of the active
//! coalition and is told exactly which players drop, which lets
//! incremental implementations (the warm tree engines of
//! `wmcs-wireless`) update in `O(affected path)` instead of recomputing
//! from scratch. Methods that do price each coalition from scratch —
//! the mask-based [`crate::moulin::moulin_shenker`], the `α = 1` airport
//! shares and the Jain–Vazirani Steiner shares of `wmcs-mechanisms` —
//! share one adapter, [`Recompute`].
//!
//! Two entry points share one loop body:
//!
//! | entry point | initial coalition | caller |
//! |---|---|---|
//! | [`run_drop_loop`] | all `n` players (the paper's `U`) | one-shot mechanisms |
//! | [`run_drop_loop_from`] | an explicit subset | live sessions resuming from a surviving set |
//!
//! [`run_drop_loop_from`] is what makes the Moulin–Shenker iteration
//! *resumable*: a live session (`wmcs-wireless::session`) applies churn
//! events to its warm method state and restarts the iteration from the
//! current receiver set instead of from `U`. Invariants the caller must
//! uphold: the method's internal coalition already mirrors `initial`
//! exactly, `initial` is strictly ascending, and players outside
//! `initial` are never re-admitted (the Moulin–Shenker iteration only
//! ever shrinks the coalition). The fixpoint outcome is the maximal
//! affordable sub-coalition of `initial` whenever the method's shares
//! are cross-monotonic \[37, 38\].
//!
//! The contract is **coalition-indexed**: bids, per-round shares and
//! drop notices are indexed by position in `initial`, so a round costs
//! `O(round shares) + O(|initial|)` however large the universe; only the
//! returned [`MechanismOutcome`] is player-indexed. The fixpoint round's
//! shares are the shares charged — there is no final-share hook.

use crate::mechanism::MechanismOutcome;
use wmcs_geom::EPS;

/// A round-based cost-sharing method driven by [`run_drop_loop_from`].
///
/// It speaks positions in the initial coalition and mirrors the driver's
/// active subset via [`DropLoopMethod::drop_player`] notifications
/// (players only ever leave, never re-enter — the Moulin–Shenker
/// invariant).
pub trait DropLoopMethod {
    /// Number of players (the length of the outcome's share vector).
    fn n_players(&self) -> usize;

    /// Write the active coalition's shares into `out`, one per position
    /// of the initial coalition (dropped positions are ignored); the
    /// fixpoint round's are charged as they are. Called once per round
    /// with the **same driver-owned buffer** (the method clears and
    /// refills it), so a warm engine runs the whole iteration without a
    /// per-round allocation.
    fn round_shares_into(&mut self, out: &mut Vec<f64>);

    /// Remove the member at position `i`. Called once per dropped
    /// member, immediately after the round that dropped it.
    fn drop_player(&mut self, i: usize);

    /// Cost of the solution built for the currently-active coalition.
    /// Called once, after the fixpoint round.
    fn served_cost(&mut self) -> f64;
}

/// The index-set adapter for a method priced from scratch on each
/// coalition: it mirrors the driver's active players, and each round
/// `shares` is called on them (ascending player ids) and returns
/// player-indexed shares, whose entries for inactive players are
/// ignored. After the fixpoint round, `served_cost` prices the same
/// coalition. It starts from every player, so drive it with
/// [`run_drop_loop`], where coalition positions are player ids.
pub struct Recompute<S, C> {
    active: Vec<bool>,
    shares: S,
    served_cost: C,
}

impl<S, C> Recompute<S, C>
where
    S: FnMut(&[usize]) -> Vec<f64>,
    C: FnMut(&[usize]) -> f64,
{
    /// The adapter over `n_players` players, all active.
    pub fn new(n_players: usize, shares: S, served_cost: C) -> Self {
        Self {
            active: vec![true; n_players],
            shares,
            served_cost,
        }
    }

    fn active_players(&self) -> Vec<usize> {
        (0..self.active.len()).filter(|&p| self.active[p]).collect()
    }
}

impl<S, C> DropLoopMethod for Recompute<S, C>
where
    S: FnMut(&[usize]) -> Vec<f64>,
    C: FnMut(&[usize]) -> f64,
{
    fn n_players(&self) -> usize {
        self.active.len()
    }

    fn round_shares_into(&mut self, out: &mut Vec<f64>) {
        let players = self.active_players();
        *out = (self.shares)(&players);
    }

    fn drop_player(&mut self, p: usize) {
        self.active[p] = false;
    }

    fn served_cost(&mut self) -> f64 {
        let players = self.active_players();
        (self.served_cost)(&players)
    }
}

/// Run the Moulin–Shenker iteration `M(ξ)` \[37, 38\] over a
/// [`DropLoopMethod`]:
///
/// 1. start from all players active;
/// 2. each round, drop every player `i` whose bid `u_i` is not
///    `≥ ξ(R, i) − EPS` (so a NaN bid is always dropped);
/// 3. at the fixpoint, charge `ξ(R(u), i)` and serve `R(u)`.
///
/// If ξ is cross-monotonic the final set is the unique maximal
/// affordable coalition regardless of drop order, and `M(ξ)` is group
/// strategyproof with NPT, VP, CS and (β-approximate) budget balance
/// \[29, 37, 38\].
pub fn run_drop_loop(method: &mut impl DropLoopMethod, reported: &[f64]) -> MechanismOutcome {
    let all: Vec<usize> = (0..method.n_players()).collect();
    run_drop_loop_from(method, reported, &all)
}

/// Run the Moulin–Shenker iteration starting from the explicit coalition
/// `initial` instead of from all players — the resumable entry point a
/// live session uses to restart the drop loop from its current receiver
/// set after applying churn events.
///
/// Contract (callers must uphold, the driver asserts what it can):
///
/// * `initial` is strictly ascending and within `0..n_players`;
/// * `bids[i]` is the bid of player `initial[i]` (one per member);
/// * the method's internal coalition state already mirrors `initial`
///   exactly (for a warm engine: every join/leave since the last run has
///   been applied; for a cold start: the engine was built on `initial`).
///
/// Starting from a subset is exact, not approximate: with a
/// cross-monotonic method the fixpoint is the maximal affordable
/// sub-coalition of `initial`, and a warm engine whose state equals a
/// freshly built one produces a byte-identical outcome (the byte-identity
/// contract `wmcs-wireless::session` is property-tested against).
pub fn run_drop_loop_from(
    method: &mut impl DropLoopMethod,
    bids: &[f64],
    initial: &[usize],
) -> MechanismOutcome {
    let n = method.n_players();
    assert_eq!(bids.len(), initial.len(), "one bid per coalition member");
    debug_assert!(
        initial.windows(2).all(|w| w[0] < w[1]),
        "initial coalition must be strictly ascending"
    );
    assert!(
        initial.last().is_none_or(|&p| p < n),
        "initial coalition member out of range"
    );
    let mut active = vec![true; initial.len()];
    let mut n_active = initial.len();
    // One share buffer for the whole run, refilled each round — the
    // driver-side half of the allocation-free warm iteration.
    let mut shares: Vec<f64> = Vec::with_capacity(initial.len());
    loop {
        if n_active == 0 {
            return MechanismOutcome::empty(n);
        }
        method.round_shares_into(&mut shares);
        debug_assert_eq!(shares.len(), initial.len(), "one share per member");
        let mut dropped_any = false;
        for (i, &bid) in bids.iter().enumerate() {
            if active[i] && (bid.is_nan() || bid < shares[i] - EPS) {
                active[i] = false;
                n_active -= 1;
                method.drop_player(i);
                dropped_any = true;
            }
        }
        if !dropped_any {
            let mut out = MechanismOutcome::empty(n);
            for (i, &p) in initial.iter().enumerate() {
                if active[i] {
                    out.receivers.push(p);
                    out.shares[p] = shares[i];
                }
            }
            out.served_cost = method.served_cost();
            return out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An airport game: serving coalition `R` costs `max_{i∈R} need_i`,
    /// shared by the textbook airport (sequential-increment) rule —
    /// cross-monotonic, so the drop loop's fixpoint is the maximal
    /// affordable set. `needs[i]` belongs to position `i` of the
    /// coalition the driver starts from, in a game of `n` players.
    struct Airport {
        n: usize,
        needs: Vec<f64>,
        active: Vec<bool>,
    }

    impl Airport {
        /// The game whose coalition is every player.
        fn new(needs: Vec<f64>) -> Self {
            Self::on(needs.len(), needs)
        }

        /// A coalition with the given needs inside a game of `n` players.
        fn on(n: usize, needs: Vec<f64>) -> Self {
            let active = vec![true; needs.len()];
            Self { n, needs, active }
        }
    }

    impl DropLoopMethod for Airport {
        fn n_players(&self) -> usize {
            self.n
        }

        fn round_shares_into(&mut self, out: &mut Vec<f64>) {
            // Airport rule: sort active players by need; the increment
            // between consecutive needs is split among everyone at least
            // as demanding.
            let mut order: Vec<usize> = (0..self.needs.len()).filter(|&i| self.active[i]).collect();
            order.sort_by(|&a, &b| self.needs[a].total_cmp(&self.needs[b]).then(a.cmp(&b)));
            out.clear();
            out.resize(self.needs.len(), 0.0);
            let mut prev = 0.0;
            for (rank, &i) in order.iter().enumerate() {
                let delta = self.needs[i] - prev;
                prev = self.needs[i];
                let users = (order.len() - rank) as f64;
                let slice = delta / users;
                for &q in &order[rank..] {
                    out[q] += slice;
                }
            }
        }

        fn drop_player(&mut self, i: usize) {
            self.active[i] = false;
        }

        fn served_cost(&mut self) -> f64 {
            (0..self.needs.len())
                .filter(|&i| self.active[i])
                .map(|i| self.needs[i])
                .fold(0.0, f64::max)
        }
    }

    #[test]
    fn driver_has_no_64_player_cap() {
        // 100 players, needs 1..=100; utilities afford everyone.
        let n = 100;
        let needs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        let mut m = Airport::new(needs);
        let u = vec![1e6; n];
        let out = run_drop_loop(&mut m, &u);
        assert_eq!(out.receivers.len(), n);
        // Exact budget balance: revenue = max need = 100.
        assert!((out.revenue() - n as f64).abs() < 1e-9);
        assert!((out.served_cost - n as f64).abs() < 1e-9);
    }

    #[test]
    fn drop_cascade_reaches_the_maximal_affordable_set() {
        // Three players, needs [1, 2, 3]. Profile [0.2, 0.9, 3.0]:
        // round 1 shares [1/3, 1/3+1/2, 1/3+1/2+1] — players 0 and 1
        // drop; player 2 alone pays 3.0 and can afford it.
        let mut m = Airport::new(vec![1.0, 2.0, 3.0]);
        let out = run_drop_loop(&mut m, &[0.2, 0.9, 3.0]);
        assert_eq!(out.receivers, vec![2]);
        assert!((out.shares[2] - 3.0).abs() < 1e-9);
        assert_eq!(out.shares[0], 0.0);
    }

    #[test]
    fn everyone_dropping_yields_the_empty_outcome() {
        let mut m = Airport::new(vec![5.0, 5.0]);
        let out = run_drop_loop(&mut m, &[0.0, 0.0]);
        assert!(out.receivers.is_empty());
        assert_eq!(out.revenue(), 0.0);
        assert_eq!(out.served_cost, 0.0);
    }

    #[test]
    fn resuming_from_a_subset_matches_a_cold_start_on_that_subset() {
        // Airport game, needs 1..=6. Starting the loop from {1, 3, 4} of
        // the 6-player game must equal running the 3-player game that
        // contains just those needs, lifted back to player ids.
        let needs: Vec<f64> = (1..=6).map(|i| i as f64).collect();
        let u = [0.4, 2.0, 0.4, 3.0, 5.0, 0.4];
        let subset = vec![1usize, 3, 4];
        let bids: Vec<f64> = subset.iter().map(|&p| u[p]).collect();

        let mut warm = Airport::on(6, subset.iter().map(|&p| needs[p]).collect());
        let out = run_drop_loop_from(&mut warm, &bids, &subset);

        // Cold reference: the same airport game restricted to the subset.
        let mut cold = Airport::new(vec![2.0, 4.0, 5.0]);
        let cold_out = run_drop_loop(&mut cold, &[2.0, 3.0, 5.0]);
        let lifted: Vec<usize> = cold_out.receivers.iter().map(|&i| subset[i]).collect();
        assert_eq!(out.receivers, lifted);
        assert_eq!(out.shares.len(), 6, "the outcome stays player-indexed");
        for (i, &p) in subset.iter().enumerate() {
            assert!((out.shares[p] - cold_out.shares[i]).abs() < 1e-12);
        }
        assert_eq!(out.served_cost, cold_out.served_cost);
        // Players outside the initial set are never served or charged.
        assert_eq!(out.shares[0], 0.0);
        assert_eq!(out.shares[5], 0.0);
    }

    #[test]
    fn resuming_from_the_empty_set_serves_nobody() {
        let mut m = Airport::on(2, vec![]);
        let out = run_drop_loop_from(&mut m, &[], &[]);
        assert!(out.receivers.is_empty());
        assert_eq!(out.shares, vec![0.0, 0.0]);
        assert_eq!(out.served_cost, 0.0);
    }

    #[test]
    fn a_nan_bid_is_dropped_and_the_rest_served_as_without_it() {
        // Needs 1..=4, player 2 bids NaN. Every comparison with NaN is
        // false, so a `bid < share − EPS` test alone would serve and
        // charge it; it must be dropped in round 1 instead, and the
        // outcome must equal the same batch without player 2.
        let needs = vec![1.0, 2.0, 3.0, 4.0];
        let out = run_drop_loop(&mut Airport::new(needs.clone()), &[5.0, 5.0, f64::NAN, 5.0]);
        assert!(!out.is_receiver(2));
        assert_eq!(out.shares[2].to_bits(), 0.0f64.to_bits());

        let rest = [0usize, 1, 3];
        let mut without = Airport::on(4, rest.iter().map(|&p| needs[p]).collect());
        let expected = run_drop_loop_from(&mut without, &[5.0, 5.0, 5.0], &rest);
        assert_eq!(out.receivers, expected.receivers);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out.shares), bits(&expected.shares));
        assert_eq!(out.served_cost.to_bits(), expected.served_cost.to_bits());

        // A lone NaN bidder is never served.
        let out = run_drop_loop(&mut Airport::new(vec![1.0]), &[f64::NAN]);
        assert!(out.receivers.is_empty());
    }
}
