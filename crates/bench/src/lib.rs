//! Shared harness utilities for the experiment binaries that regenerate
//! the paper's figures (see DESIGN.md's experiment index).
//!
//! Each binary accepts a suite argument (`mcnc`, `iscas`, `all`) and
//! simple `--key value` flags; run with `--help` for usage. A flag value
//! that does not parse stops the binary with exit status 2. Results are
//! printed as plain-text tables — the same rows/series the paper plots.

#![forbid(unsafe_code)]

use std::str::FromStr;

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

/// Looks up a flag value and parses it; `None` if the flag is absent. A
/// value that does not parse is a usage error: the message names the
/// flag and the value, and the process exits with status 2.
pub fn flag<T: FromStr>(flags: &[(String, String)], key: &str) -> Option<T> {
    parse_flag(flags, key).unwrap_or_else(|message| {
        eprintln!("error: {message}");
        std::process::exit(2)
    })
}

/// The parsed value of `--key`: `Ok(None)` if the flag is absent, an
/// error naming the flag and the value if the value does not parse.
fn parse_flag<T: FromStr>(flags: &[(String, String)], key: &str) -> Result<Option<T>, String> {
    match flags.iter().find(|(k, _)| k == key) {
        None => Ok(None),
        Some((_, v)) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("invalid value '{v}' for --{key}")),
    }
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

    fn flags_of(args: &[&str]) -> Vec<(String, String)> {
        parse_args(args.iter().map(|s| s.to_string())).1
    }

    #[test]
    fn malformed_values_are_errors_naming_the_flag() {
        let flags = flags_of(&["--assert-speedup", "1,8", "--ratio", "1.8", "--out"]);
        assert_eq!(
            parse_flag::<f64>(&flags, "assert-speedup"),
            Err("invalid value '1,8' for --assert-speedup".to_string())
        );
        assert_eq!(parse_flag::<f64>(&flags, "ratio"), Ok(Some(1.8)));
        // A numeric flag given no value is malformed too.
        assert_eq!(
            parse_flag::<usize>(&flags, "out"),
            Err("invalid value '' for --out".to_string())
        );
        assert_eq!(parse_flag::<f64>(&flags, "missing"), Ok(None));
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
