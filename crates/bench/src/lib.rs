//! Shared harness utilities for the experiment binaries that regenerate
//! the paper's figures (see DESIGN.md's experiment index).
//!
//! Each binary accepts a suite argument (`mcnc`, `iscas`, `all`) and
//! simple `--key value` flags; run with `--help` for usage. Results are
//! printed as plain-text tables — the same rows/series the paper plots.

#![forbid(unsafe_code)]

use atpg_easy_circuits::suite::{self, NamedCircuit};

pub mod lint_cli;

/// Resolves a suite name to its circuits.
///
/// Accepted names: `mcnc`, `iscas`, `all` (both), `mult` (the C6288-like
/// multiplier the paper omitted).
pub fn resolve_suite(name: &str) -> Option<Vec<NamedCircuit>> {
    match name {
        "mcnc" => Some(suite::mcnc_like()),
        "iscas" => Some(suite::iscas_like()),
        "all" => {
            let mut v = suite::mcnc_like();
            v.extend(suite::iscas_like());
            Some(v)
        }
        "mult" => Some(vec![suite::c6288_like()]),
        _ => None,
    }
}

/// Minimal `--key value` flag parser over `std::env::args`-style input.
/// Returns `(positional, flags)`. A `--flag` followed by another `--flag`
/// (or by nothing) is a presence flag with an empty value — check it with
/// [`has_flag`].
pub fn parse_args(args: impl Iterator<Item = String>) -> (Vec<String>, Vec<(String, String)>) {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.peekable();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().unwrap_or_default(),
                _ => String::new(),
            };
            flags.push((key.to_string(), value));
        } else {
            positional.push(a);
        }
    }
    (positional, flags)
}

/// Looks up a flag value and parses it.
pub fn flag<T: std::str::FromStr>(flags: &[(String, String)], key: &str) -> Option<T> {
    flags
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.parse().ok())
}

/// Whether a flag was passed at all (with or without a value).
pub fn has_flag(flags: &[(String, String)], key: &str) -> bool {
    flags.iter().any(|(k, _)| k == key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_resolve() {
        assert!(resolve_suite("mcnc").is_some());
        assert!(resolve_suite("iscas").is_some());
        assert!(resolve_suite("all").unwrap().len() > resolve_suite("mcnc").unwrap().len());
        assert!(resolve_suite("nope").is_none());
    }

    #[test]
    fn args_parse() {
        let (pos, flags) = parse_args(
            ["iscas", "--cap", "50", "--fast"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(pos, vec!["iscas"]);
        assert_eq!(flag::<usize>(&flags, "cap"), Some(50));
        assert_eq!(flag::<usize>(&flags, "missing"), None);
        assert!(has_flag(&flags, "fast"));
        assert!(!has_flag(&flags, "missing"));
    }

    #[test]
    fn presence_flag_does_not_swallow_the_next_flag() {
        let (pos, flags) = parse_args(
            ["--incremental", "--window", "4", "mcnc"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(pos, vec!["mcnc"]);
        assert!(has_flag(&flags, "incremental"));
        assert_eq!(flag::<usize>(&flags, "window"), Some(4));
    }
}
