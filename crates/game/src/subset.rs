//! Coalition bitmask utilities.
//!
//! Coalitions are `u64` bitmasks over player indices `0..n ≤ 25` (the
//! exhaustive enumerations are exponential, so the cap keeps them honest).

/// Maximum player count supported by exhaustive routines.
pub const MAX_EXHAUSTIVE_PLAYERS: usize = 25;

/// Bitmask of a player list.
pub fn mask_of(players: &[usize]) -> u64 {
    let mut m = 0u64;
    for &p in players {
        assert!(p < 64);
        m |= 1 << p;
    }
    m
}

/// Sorted member list of a bitmask.
pub fn members_of(mask: u64) -> Vec<usize> {
    (0..64).filter(|&i| mask & (1 << i) != 0).collect()
}

/// Number of players in a coalition.
#[inline]
pub fn size_of(mask: u64) -> usize {
    mask.count_ones() as usize
}

/// True if player `p` belongs to the coalition.
#[inline]
pub fn contains(mask: u64, p: usize) -> bool {
    mask & (1 << p) != 0
}

/// All subsets of `mask`, including the empty set and `mask` itself,
/// enumerated in increasing numeric order of the *sub-mask pattern*.
pub fn subsets_of(mask: u64) -> Vec<u64> {
    let mut out = Vec::with_capacity(1 << size_of(mask));
    let mut sub = 0u64;
    loop {
        out.push(sub);
        if sub == mask {
            break;
        }
        sub = (sub.wrapping_sub(mask)) & mask;
    }
    out
}

/// Precomputed factorials as `f64` (enough for coalition weights up to 25!).
pub fn factorials(n: usize) -> Vec<f64> {
    let mut f = vec![1.0f64; n + 1];
    for i in 1..=n {
        f[i] = f[i - 1] * i as f64;
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mask_roundtrip() {
        let players = vec![0, 3, 5];
        assert_eq!(mask_of(&players), 0b101001);
        assert_eq!(members_of(0b101001), players);
    }

    #[test]
    fn empty_mask() {
        assert_eq!(mask_of(&[]), 0);
        assert!(members_of(0).is_empty());
        assert_eq!(size_of(0), 0);
    }

    #[test]
    fn subsets_enumerates_power_set() {
        let subs = subsets_of(0b101);
        assert_eq!(subs.len(), 4);
        for s in [0b000, 0b001, 0b100, 0b101] {
            assert!(subs.contains(&s));
        }
    }

    #[test]
    fn subsets_of_empty_is_just_empty() {
        assert_eq!(subsets_of(0), vec![0]);
    }

    #[test]
    fn factorial_values() {
        let f = factorials(6);
        assert_eq!(f[0], 1.0);
        assert_eq!(f[5], 120.0);
        assert_eq!(f[6], 720.0);
    }

    #[test]
    fn contains_checks_bit() {
        assert!(contains(0b1010, 1));
        assert!(!contains(0b1010, 0));
    }

    proptest! {
        #[test]
        fn subset_count_is_power_of_two(mask in 0u64..(1 << 12)) {
            prop_assert_eq!(subsets_of(mask).len(), 1usize << size_of(mask));
        }

        #[test]
        fn every_subset_is_contained(mask in 0u64..(1 << 10)) {
            for s in subsets_of(mask) {
                prop_assert_eq!(s & mask, s);
            }
        }
    }
}
