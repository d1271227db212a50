//! Shared helpers for the figure-regeneration and benchmark binaries of
//! the ADDC reproduction.
//!
//! The binaries regenerate the paper's evaluation artifacts (Fig. 6 is
//! `crn sweep`'s):
//!
//! | target | regenerates |
//! |--------|-------------|
//! | `fig4` | Fig. 4 (PCR closed forms, both constant variants) |
//! | `validate-bounds` | Theorem 1 / Theorem 2 numeric validation |
//! | `ablations` | PCR-constants, fairness, routing, PU-model ablations |
//! | `bench_sim` | `results/BENCH_sim.json` — dense-vs-sparse interference scaling |
//!
//! Run e.g. `cargo run -p crn-bench --release --bin validate-bounds --
//! --preset tiny`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod synthetic;

/// Extracts `--flag value` from an argument list, returning the remaining
/// positional arguments and the flag's value (if present).
///
/// # Panics
///
/// Panics if the flag is present without a following value.
#[must_use]
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        assert!(i + 1 < args.len(), "flag {flag} requires a value");
        let value = args.remove(i + 1);
        args.remove(i);
        Some(value)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_flag_extracts_and_removes() {
        let mut args = vec!["a".into(), "--preset".into(), "tiny".into(), "b".into()];
        assert_eq!(take_flag(&mut args, "--preset"), Some("tiny".into()));
        assert_eq!(args, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn take_flag_absent_is_none() {
        let mut args = vec!["a".into()];
        assert_eq!(take_flag(&mut args, "--preset"), None);
        assert_eq!(args.len(), 1);
    }

    #[test]
    #[should_panic(expected = "requires a value")]
    fn take_flag_without_value_panics() {
        let mut args = vec!["--preset".into()];
        let _ = take_flag(&mut args, "--preset");
    }
}
