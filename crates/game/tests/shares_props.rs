//! `Shares` reads exactly like the length-n `Vec<f64>` it replaced: random
//! writes through `set` and `IndexMut`, in any player order and with
//! every kind of float (signed zeros, NaNs with payloads, infinities,
//! subnormals, ordinary values), are mirrored into a plain vector, and
//! every read of the dense view must equal the mirror's bit for bit.

use proptest::prelude::*;
use wmcs_game::{MechanismOutcome, Shares};

/// One write: `(player, how, value class, value bits)`.
type Write = (usize, usize, usize, u64);

/// A float of the drawn class; `bits` picks the member of the class.
fn value(class: usize, bits: u64) -> f64 {
    const SIGN: u64 = 1 << 63;
    const MANTISSA: u64 = (1 << 52) - 1;
    match class {
        0 => 0.0,
        1 => -0.0,
        2 => f64::NAN,
        // Any NaN: either sign, any non-zero payload, quiet or signalling.
        3 => f64::from_bits(0x7ff0_0000_0000_0000 | (bits & (SIGN | MANTISSA)) | 1),
        4 => f64::INFINITY,
        5 => f64::NEG_INFINITY,
        // Subnormal (a zero when the mantissa draw is 0).
        6 => f64::from_bits(bits & (SIGN | MANTISSA)),
        7 => ((bits % 2_000_001) as f64 - 1e6) / 7.0,
        8 => [f64::MAX, f64::MIN_POSITIVE, -f64::MAX, f64::EPSILON][(bits % 4) as usize],
        _ => f64::from_bits(bits),
    }
}

/// A compound write, `*slot *= v` or `*slot += v`. Which NaN payload an
/// arithmetic result carries is unspecified and may differ between two
/// compiled copies of one expression (the operands may be swapped), so
/// the shares and the mirror go through this one function.
#[inline(never)]
fn compound(slot: &mut f64, v: f64, multiply: bool) {
    if multiply {
        *slot *= v;
    } else {
        *slot += v;
    }
}

/// Apply one write to both the shares and the mirror; a no-op when there
/// are no players.
fn apply(shares: &mut Shares, mirror: &mut [f64], (player, how, class, bits): Write) {
    if mirror.is_empty() {
        return;
    }
    let p = player % mirror.len();
    let v = value(class, bits);
    match how {
        0 => {
            shares.set(p, v);
            mirror[p] = v;
        }
        1 => {
            shares[p] = v;
            mirror[p] = v;
        }
        _ => {
            compound(&mut shares[p], v, how == 2);
            compound(&mut mirror[p], v, how == 2);
        }
    }
}

fn bits<'a>(values: impl IntoIterator<Item = &'a f64>) -> Vec<u64> {
    values.into_iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn shares_read_exactly_like_the_vector_they_replace(
        n in 0usize..65,
        writes in proptest::collection::vec((0usize..64, 0usize..4, 0usize..10, 0u64..u64::MAX), 0..96),
        mutation in (0usize..64, 0usize..4, 0usize..10, 0u64..u64::MAX),
    ) {
        let mut shares = Shares::new(n);
        let mut mirror = vec![0.0; n];
        for &w in &writes {
            apply(&mut shares, &mut mirror, w);
        }

        prop_assert_eq!(shares.len(), mirror.len());
        prop_assert_eq!(shares.is_empty(), mirror.is_empty());
        for p in 0..n {
            prop_assert_eq!(shares[p].to_bits(), mirror[p].to_bits(), "player {}", p);
        }
        prop_assert_eq!(shares.iter().len(), n);
        prop_assert_eq!(bits(shares.iter()), bits(&mirror));
        prop_assert_eq!(bits(&shares), bits(&mirror));
        prop_assert_eq!(bits(&shares.to_vec()), bits(&mirror));

        // Converting the mirror gives its dense view back, and `==`
        // agrees with the vector's own `==` (false once a NaN is in).
        let converted = Shares::from(mirror.clone());
        prop_assert_eq!(bits(&converted), bits(&mirror));
        prop_assert_eq!(converted == shares, mirror == mirror);
        prop_assert_eq!(shares == converted, mirror == mirror);

        // A copy with one more write compares as the mirrors do, in
        // both directions.
        let (mut copy, mut mirror_copy) = (shares.clone(), mirror.clone());
        apply(&mut copy, &mut mirror_copy, mutation);
        prop_assert_eq!(copy == shares, mirror_copy == mirror);
        prop_assert_eq!(shares == copy, mirror == mirror_copy);

        let out = MechanismOutcome {
            receivers: Vec::new(),
            shares,
            served_cost: 0.0,
        };
        // A NaN sum's payload is unspecified (see `compound`), so a NaN
        // revenue need only be NaN; every other sum is exact.
        let (revenue, sum) = (out.revenue(), mirror.iter().sum::<f64>());
        if sum.is_nan() {
            prop_assert!(revenue.is_nan(), "revenue {} for a NaN sum", revenue);
        } else {
            prop_assert_eq!(revenue.to_bits(), sum.to_bits());
        }
    }
}
