//! Strict CLI value parsing, shared by every flag that takes an
//! enumerated or numeric value.
//!
//! Every harness binary promises that a typo is a fatal usage error —
//! `--scale ful` must never silently run at a different scale, and
//! `--trace-mode striict` must never silently pick a decode policy. That
//! promise is only worth something if every flag enforces it the same
//! way, so this module is the single place the error shape lives:
//!
//! * [`one_of`] — enumerated values: `invalid {what} '{v}': expected one
//!   of a, b, c`.
//! * [`positive`] — integer values: `invalid {what} '{v}': expected a
//!   positive integer`.
//!
//! `Scale::parse`, `ReadMode::parse`, `--threads`, `--deadline-secs` and
//! the `--only`/`--benches` name lists all route through here, so their
//! error messages stay textually consistent and the tests can pin one
//! shape.

/// Parses an enumerated value against `choices` (name → value pairs).
///
/// # Errors
///
/// `invalid {what} '{v}': expected one of {names}` when `v` matches no
/// choice — the valid names are always listed, in the order given.
pub fn one_of<T: Copy>(what: &str, v: &str, choices: &[(&str, T)]) -> Result<T, String> {
    for (name, value) in choices {
        if *name == v {
            return Ok(*value);
        }
    }
    let names: Vec<&str> = choices.iter().map(|(n, _)| *n).collect();
    Err(format!(
        "invalid {what} '{v}': expected one of {}",
        names.join(", ")
    ))
}

/// Parses a strictly positive integer (`>= 1`).
///
/// # Errors
///
/// `invalid {what} '{v}': expected a positive integer` for anything that
/// does not parse or parses to zero.
pub fn positive(what: &str, v: &str) -> Result<u64, String> {
    match v.parse::<u64>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("invalid {what} '{v}': expected a positive integer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_of_accepts_each_choice_and_lists_them_on_error() {
        let choices = [("quick", 1u8), ("default", 2), ("full", 3)];
        assert_eq!(one_of("scale", "quick", &choices), Ok(1));
        assert_eq!(one_of("scale", "full", &choices), Ok(3));
        let e = one_of("scale", "ful", &choices).unwrap_err();
        assert_eq!(
            e,
            "invalid scale 'ful': expected one of quick, default, full"
        );
    }

    #[test]
    fn positive_rejects_zero_and_garbage() {
        assert_eq!(positive("thread count", "8"), Ok(8));
        for bad in ["0", "-2", "two", "1.5", ""] {
            let e = positive("thread count", bad).unwrap_err();
            assert!(e.contains("expected a positive integer"), "{e}");
            assert!(e.contains(bad), "{e}");
        }
    }
}
