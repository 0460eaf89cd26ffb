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
//! * [`positive`] / [`unsigned`] — integer values: `invalid {what} '{v}':
//!   expected a positive integer` (or `a non-negative integer`).
//! * [`key_values`] — `k=v,k=v` option specs (the `--sample` grammar),
//!   where an unknown key or malformed pair is fatal with the valid keys
//!   listed.
//!
//! `Scale::parse`, `ReadMode::parse`, `--threads`, `--deadline-secs`, the
//! `--only`/`--benches` name lists and the `--sample` spec all route
//! through here, so their error messages stay textually consistent and the
//! tests can pin one shape.

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

/// Parses a non-negative integer (`>= 0`).
///
/// # Errors
///
/// `invalid {what} '{v}': expected a non-negative integer` for anything
/// that does not parse as an unsigned integer.
pub fn unsigned(what: &str, v: &str) -> Result<u64, String> {
    v.parse::<u64>()
        .map_err(|_| format!("invalid {what} '{v}': expected a non-negative integer"))
}

/// Splits a `key=value,key=value` spec into pairs, validating each key
/// against `keys`. Empty segments are skipped, so trailing commas are
/// harmless; whitespace around segments is trimmed.
///
/// # Errors
///
/// A segment without `=` is `malformed {what} segment '{seg}': expected
/// key=value`; an unknown key lists the valid ones (same shape as
/// [`one_of`]).
pub fn key_values<'a>(
    what: &str,
    spec: &'a str,
    keys: &[&str],
) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut out = Vec::new();
    for seg in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let Some((k, v)) = seg.split_once('=') else {
            return Err(format!(
                "malformed {what} segment '{seg}': expected key=value"
            ));
        };
        let (k, v) = (k.trim(), v.trim());
        if !keys.contains(&k) {
            return Err(format!(
                "invalid {what} key '{k}': expected one of {}",
                keys.join(", ")
            ));
        }
        out.push((k, v));
    }
    Ok(out)
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

    #[test]
    fn unsigned_accepts_zero() {
        assert_eq!(unsigned("warmup", "0"), Ok(0));
        assert!(unsigned("warmup", "-1").is_err());
        assert!(unsigned("warmup", "x").is_err());
    }

    #[test]
    fn key_values_validates_keys_and_shape() {
        let pairs = key_values("sample spec", "k=4, window=100", &["k", "window"]).unwrap();
        assert_eq!(pairs, vec![("k", "4"), ("window", "100")]);
        assert_eq!(
            key_values("sample spec", "", &["k"]).unwrap(),
            Vec::<(&str, &str)>::new()
        );
        let e = key_values("sample spec", "k=4,dims=2", &["k", "window"]).unwrap_err();
        assert_eq!(
            e,
            "invalid sample spec key 'dims': expected one of k, window"
        );
        let e = key_values("sample spec", "k", &["k"]).unwrap_err();
        assert!(e.contains("expected key=value"), "{e}");
    }
}
