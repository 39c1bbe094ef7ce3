//! Fixture: violations inside `#[cfg(test)]` are exempt from the token
//! rules; the file is clean when scanned as Lib.

pub fn double(x: u64) -> u64 {
    x * 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn casts_and_literals_are_fine_in_tests() {
        assert_eq!(double(3) as u32, 6);
        assert!((0.5f64 - 0.5).abs() < 1e-9);
    }
}
