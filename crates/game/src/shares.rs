//! Player-indexed cost shares, stored as the entries a mechanism charges.

use std::iter::FusedIterator;
use std::ops::{Index, IndexMut};

/// The cost shares of a game of `n` players: read as a length-`n`
/// vector, stored as `(player, share)` entries in ascending player order.
/// Every player without an entry reads `+0.0`.
///
/// In the paper's mechanisms only receivers pay: voluntary participation
/// fixes every other share at 0 (§1). So a served outcome stores one
/// entry per charged receiver and costs `O(|R|)` bytes, not `O(n)`, and
/// building it allocates nothing sized by the universe. Mechanisms that
/// price densely convert with [`Shares::from`], which keeps every entry
/// whose bits are not `+0.0`.
///
/// **The dense view is the contract.** [`Shares::len`] is `n`;
/// `shares[p]` and [`Shares::iter`] read, bit for bit, what the length-`n`
/// vector this type replaced would hold; `==` compares those views with
/// f64 `==` per player (so NaN is unequal to itself and `−0.0 == +0.0`);
/// `shares[p] = x` and `shares[p] *= x` write as they would into that
/// vector. The type keeps the vector's reading surface rather than
/// aligning shares to the receiver list because the served-workload
/// benchmark (`perfbench/`) reads outcomes exactly that way: it checks
/// `len() == n`, indexes shares by player, iterates all `n` players,
/// zips two outcomes' shares, and counts [`Shares::capacity`] as outcome
/// bytes.
#[derive(Clone, Debug)]
pub struct Shares {
    n: usize,
    /// Strictly ascending by player, every player below `n`.
    entries: Vec<(usize, f64)>,
}

impl Shares {
    /// All `n` shares `+0.0`; allocates nothing.
    pub fn new(n: usize) -> Self {
        Self::with_capacity(n, 0)
    }

    /// All `n` shares `+0.0`, with room for `entries` stored entries —
    /// size a served outcome before filling it.
    pub fn with_capacity(n: usize, entries: usize) -> Self {
        Self {
            n,
            entries: Vec::with_capacity(entries),
        }
    }

    /// The number of players `n` (not the number of stored entries).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for a game of no players.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Stored entries the allocation has room for: the outcome's share
    /// footprint, in entries.
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Set `player`'s share. Appends when `player` is above the last
    /// stored player (an ascending fill never searches or shifts).
    ///
    /// # Panics
    /// If `player` is not below [`Shares::len`].
    pub fn set(&mut self, player: usize, share: f64) {
        match self.entries.last() {
            Some(&(last, _)) if player <= last => *self.entry(player) = share,
            _ => {
                self.check(player);
                self.entries.push((player, share));
            }
        }
    }

    /// The shares of players `0..n` in order, `+0.0` where nothing is
    /// stored.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            entries: &self.entries,
            next: 0,
            n: self.n,
        }
    }

    /// The dense length-`n` vector. `O(n)`: for checkers and tests.
    pub fn to_vec(&self) -> Vec<f64> {
        self.iter().copied().collect()
    }

    fn check(&self, player: usize) {
        assert!(
            player < self.n,
            "index out of bounds: the len is {} but the index is {player}",
            self.n
        );
    }

    /// `player`'s stored entry, inserted at `+0.0` if it has none.
    fn entry(&mut self, player: usize) -> &mut f64 {
        self.check(player);
        let i = match self.entries.binary_search_by_key(&player, |e| e.0) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (player, 0.0));
                i
            }
        };
        &mut self.entries[i].1
    }
}

impl From<Vec<f64>> for Shares {
    /// Keep every entry whose bits are not `+0.0`, so the dense view is
    /// `dense` bit for bit (`−0.0` and NaN are stored).
    fn from(dense: Vec<f64>) -> Self {
        let stored = |share: &f64| share.to_bits() != 0;
        let mut shares =
            Self::with_capacity(dense.len(), dense.iter().filter(|s| stored(s)).count());
        shares.entries.extend(
            dense
                .iter()
                .enumerate()
                .filter(|(_, s)| stored(s))
                .map(|(p, &s)| (p, s)),
        );
        shares
    }
}

impl PartialEq for Shares {
    /// The dense views compared with f64 `==` per player, as a merge over
    /// the stored entries.
    fn eq(&self, other: &Self) -> bool {
        if self.n != other.n {
            return false;
        }
        let (mut a, mut b) = (
            self.entries.iter().peekable(),
            other.entries.iter().peekable(),
        );
        loop {
            let Some(p) = a.peek().into_iter().chain(b.peek()).map(|e| e.0).min() else {
                return true;
            };
            let x = a.next_if(|e| e.0 == p).map_or(0.0, |e| e.1);
            let y = b.next_if(|e| e.0 == p).map_or(0.0, |e| e.1);
            if x != y {
                return false;
            }
        }
    }
}

impl Index<usize> for Shares {
    type Output = f64;

    fn index(&self, player: usize) -> &f64 {
        self.check(player);
        match self.entries.binary_search_by_key(&player, |e| e.0) {
            Ok(i) => &self.entries[i].1,
            Err(_) => &0.0,
        }
    }
}

impl IndexMut<usize> for Shares {
    /// Inserts a `+0.0` entry for `player` if it has none.
    fn index_mut(&mut self, player: usize) -> &mut f64 {
        self.entry(player)
    }
}

impl<'a> IntoIterator for &'a Shares {
    type Item = &'a f64;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// The dense iterator of [`Shares::iter`].
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    /// Stored entries not yet reached.
    entries: &'a [(usize, f64)],
    next: usize,
    n: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a f64;

    fn next(&mut self) -> Option<&'a f64> {
        if self.next == self.n {
            return None;
        }
        let p = self.next;
        self.next += 1;
        match self.entries.split_first() {
            Some(((q, share), rest)) if *q == p => {
                self.entries = rest;
                Some(share)
            }
            _ => Some(&0.0),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.n - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl FusedIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_ascending_fill_stores_exactly_its_entries() {
        let mut s = Shares::with_capacity(5, 2);
        s.set(1, 2.5);
        s.set(3, 0.0);
        assert_eq!(s.capacity(), 2);
        assert_eq!(s.to_vec(), [0.0, 2.5, 0.0, 0.0, 0.0]);
        assert_eq!(s.iter().len(), 5);
        assert_eq!(s[3].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn writes_below_the_last_entry_insert_in_order() {
        let mut s = Shares::new(4);
        s.set(3, 1.0);
        s[0] = 2.0;
        s[2] += 0.5;
        s.set(0, 4.0);
        assert_eq!(s.to_vec(), [4.0, 0.0, 0.5, 1.0]);
        assert_eq!(s, Shares::from(vec![4.0, 0.0, 0.5, 1.0]));
    }

    #[test]
    fn equality_is_per_player_f64_equality() {
        let zeros = Shares::new(3);
        assert_eq!(Shares::from(vec![0.0, -0.0, 0.0]), zeros);
        assert_ne!(Shares::new(2), zeros, "lengths differ");
        let nan = Shares::from(vec![0.0, f64::NAN, 0.0]);
        assert_ne!(nan, nan.clone());
    }

    #[test]
    #[should_panic(expected = "the len is 3 but the index is 3")]
    fn reading_past_the_last_player_panics() {
        let _ = Shares::new(3)[3];
    }

    #[test]
    #[should_panic(expected = "the len is 3 but the index is 7")]
    fn writing_past_the_last_player_panics() {
        Shares::new(3).set(7, 1.0);
    }
}
