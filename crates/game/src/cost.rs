//! Cost functions over coalitions.

use std::cell::RefCell;
use std::collections::BTreeMap;

/// A coalition cost function `C : 2^N → R_{≥0}` with `C(∅) = 0`.
///
/// The paper's cost functions are the minimum (or approximate) power cost of
/// multicasting to the coalition (§1, §2, §3); the framework only assumes
/// non-negativity and `C(∅) = 0`, and *checks* the structural properties
/// (monotonicity, submodularity — Eqs. (1)–(2)) instead of assuming them.
pub trait CostFunction {
    /// Number of players `|N|`.
    fn n_players(&self) -> usize;

    /// Cost of serving the coalition given as a bitmask.
    fn cost_mask(&self, mask: u64) -> f64;

    /// Cost of serving the coalition given as a player list.
    fn cost_set(&self, players: &[usize]) -> f64 {
        self.cost_mask(crate::subset::mask_of(players))
    }

    /// Cost of the grand coalition.
    fn grand_cost(&self) -> f64 {
        self.cost_mask((1u64 << self.n_players()) - 1)
    }
}

impl<T: CostFunction + ?Sized> CostFunction for &T {
    fn n_players(&self) -> usize {
        (**self).n_players()
    }
    fn cost_mask(&self, mask: u64) -> f64 {
        (**self).cost_mask(mask)
    }
}

/// A cost function stored as an explicit table over all `2^n` coalitions.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplicitGame {
    n: usize,
    table: Vec<f64>,
}

impl ExplicitGame {
    /// Build from a table indexed by mask (`table.len() == 2^n`,
    /// `table\[0\] == 0`).
    pub fn new(n: usize, table: Vec<f64>) -> Self {
        assert!(n <= crate::subset::MAX_EXHAUSTIVE_PLAYERS);
        assert_eq!(table.len(), 1usize << n);
        assert_eq!(table[0], 0.0, "C(∅) must be 0");
        assert!(
            table.iter().all(|&c| c >= 0.0),
            "costs must be non-negative"
        );
        Self { n, table }
    }

    /// Tabulate a closure over all coalitions.
    pub fn from_fn(n: usize, mut f: impl FnMut(u64) -> f64) -> Self {
        let table: Vec<f64> = (0..(1u64 << n)).map(&mut f).collect();
        Self::new(n, table)
    }

    /// Tabulate (and thereby memoise) any [`CostFunction`].
    pub fn tabulate(c: &impl CostFunction) -> Self {
        Self::from_fn(c.n_players(), |mask| c.cost_mask(mask))
    }
}

impl CostFunction for ExplicitGame {
    fn n_players(&self) -> usize {
        self.n
    }

    fn cost_mask(&self, mask: u64) -> f64 {
        self.table[mask as usize]
    }
}

/// Memoising adapter around an expensive cost oracle (e.g. the exact MEMT
/// solver, which is itself exponential in the station count).
///
/// The memo table is a `BTreeMap` rather than a `HashMap`: the cache is
/// lookup-only today, but a deterministic container guarantees that any
/// future iteration (debug dumps, eviction, serialisation) can never
/// introduce order-dependence into results — `clippy.toml`'s
/// `disallowed-types` forbids the hashed forms workspace-wide. Lookups are
/// `O(log |cache|)` against an oracle call that is exponential in `n`, so
/// the tree walk is never measurable.
pub struct CachedCost<C: CostFunction> {
    inner: C,
    cache: RefCell<BTreeMap<u64, f64>>,
}

impl<C: CostFunction> CachedCost<C> {
    /// Wrap a cost oracle.
    pub fn new(inner: C) -> Self {
        Self {
            inner,
            cache: RefCell::new(BTreeMap::new()),
        }
    }

    /// Number of distinct coalitions evaluated so far.
    pub fn evaluations(&self) -> usize {
        self.cache.borrow().len()
    }
}

impl<C: CostFunction> CostFunction for CachedCost<C> {
    fn n_players(&self) -> usize {
        self.inner.n_players()
    }

    fn cost_mask(&self, mask: u64) -> f64 {
        if let Some(&c) = self.cache.borrow().get(&mask) {
            return c;
        }
        let c = self.inner.cost_mask(mask);
        self.cache.borrow_mut().insert(mask, c);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountingCost {
        calls: std::cell::Cell<usize>,
    }

    impl CostFunction for CountingCost {
        fn n_players(&self) -> usize {
            3
        }
        fn cost_mask(&self, mask: u64) -> f64 {
            self.calls.set(self.calls.get() + 1);
            mask.count_ones() as f64
        }
    }

    #[test]
    fn explicit_game_reads_table() {
        let g = ExplicitGame::from_fn(2, |m| m.count_ones() as f64 * 2.0);
        assert_eq!(g.cost_mask(0), 0.0);
        assert_eq!(g.cost_mask(0b11), 4.0);
        assert_eq!(g.cost_set(&[1]), 2.0);
        assert_eq!(g.grand_cost(), 4.0);
        assert_eq!(g.n_players(), 2);
    }

    #[test]
    fn tabulate_copies_oracle() {
        let oracle = CountingCost {
            calls: std::cell::Cell::new(0),
        };
        let g = ExplicitGame::tabulate(&oracle);
        assert_eq!(g.cost_mask(0b101), 2.0);
        assert_eq!(oracle.calls.get(), 8);
    }

    #[test]
    fn cache_avoids_recomputation() {
        let oracle = CountingCost {
            calls: std::cell::Cell::new(0),
        };
        let cached = CachedCost::new(oracle);
        assert_eq!(cached.cost_mask(0b11), 2.0);
        assert_eq!(cached.cost_mask(0b11), 2.0);
        assert_eq!(cached.cost_mask(0b01), 1.0);
        assert_eq!(cached.inner.calls.get(), 2);
        assert_eq!(cached.evaluations(), 2);
    }

    #[test]
    fn cache_is_query_order_independent() {
        // Determinism contract behind the BTreeMap choice: the sequence of
        // cost_mask answers (and the evaluation count) depends only on the
        // *set* of queried coalitions, never on the order they arrived in.
        let masks = [0b101u64, 0b011, 0b111, 0b001, 0b110];
        let forward = CachedCost::new(CountingCost {
            calls: std::cell::Cell::new(0),
        });
        let backward = CachedCost::new(CountingCost {
            calls: std::cell::Cell::new(0),
        });
        for &m in &masks {
            let _ = forward.cost_mask(m);
        }
        for &m in masks.iter().rev() {
            let _ = backward.cost_mask(m);
        }
        for &m in &masks {
            assert_eq!(
                forward.cost_mask(m).to_bits(),
                backward.cost_mask(m).to_bits()
            );
        }
        assert_eq!(forward.evaluations(), backward.evaluations());
    }

    #[test]
    #[should_panic(expected = "C(∅) must be 0")]
    fn nonzero_empty_cost_rejected() {
        let _ = ExplicitGame::new(1, vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_cost_rejected() {
        let _ = ExplicitGame::new(1, vec![0.0, -2.0]);
    }

    #[test]
    fn references_are_cost_functions_too() {
        let g = ExplicitGame::from_fn(2, |m| m.count_ones() as f64);
        let r: &ExplicitGame = &g;
        assert_eq!(CostFunction::grand_cost(&r), 2.0);
    }
}
