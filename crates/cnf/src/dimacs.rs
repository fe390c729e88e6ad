//! DIMACS CNF reading and writing.
//!
//! The parser is strict where silence would corrupt a formula: literals
//! must stay within the variable count the header declares (a literal
//! beyond it used to grow the formula silently), the header may appear
//! only once (a second header used to discard every clause parsed so
//! far), and the declared variable count must fit the [`crate::Var`]
//! representation (a larger count used to truncate literal indices
//! modulo 2³²). The declared clause *count* is deliberately not
//! enforced — real-world DIMACS files get it wrong constantly and a
//! mismatch cannot corrupt the parsed formula.

use std::error::Error;
use std::fmt;

use crate::{CnfFormula, Lit};

/// The largest variable count a DIMACS header may declare: [`crate::Var`]
/// is a dense `u32` index, so anything larger would wrap literal indices.
pub const MAX_DIMACS_VARS: u64 = u32::MAX as u64;

/// Errors from DIMACS parsing. Line numbers are 1-based.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseDimacsError {
    /// The text contains no `p cnf` header at all.
    MissingHeader,
    /// A malformed `p ...` line (wrong field count, non-numeric counts,
    /// or a format other than `cnf`).
    BadHeader {
        /// Line the malformed header is on.
        line: usize,
    },
    /// A second `p cnf` header; the old parser silently discarded every
    /// clause parsed before it.
    DuplicateHeader {
        /// Line the second header is on.
        line: usize,
    },
    /// The header declares more variables than a [`crate::Var`] can
    /// index (> [`MAX_DIMACS_VARS`]); literals would silently wrap.
    TooManyVars {
        /// Line of the header.
        line: usize,
        /// The declared variable count.
        declared: u64,
    },
    /// A clause line appeared before any header.
    ClauseBeforeHeader {
        /// Line the stray clause is on.
        line: usize,
    },
    /// A token could not be parsed as an `i64`.
    BadToken {
        /// Line the token is on.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A literal references a variable beyond the header's declared
    /// count; the old parser silently grew the formula instead.
    LiteralOutOfRange {
        /// Line the literal is on.
        line: usize,
        /// The out-of-range DIMACS literal.
        lit: i64,
        /// The header's declared variable count.
        num_vars: usize,
    },
    /// The final clause was not terminated with `0`.
    UnterminatedClause,
}

impl fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDimacsError::MissingHeader => write!(f, "missing `p cnf` header"),
            ParseDimacsError::BadHeader { line } => {
                write!(f, "line {line}: malformed `p cnf` header")
            }
            ParseDimacsError::DuplicateHeader { line } => {
                write!(f, "line {line}: duplicate `p cnf` header")
            }
            ParseDimacsError::TooManyVars { line, declared } => write!(
                f,
                "line {line}: header declares {declared} variables \
                 (max {MAX_DIMACS_VARS})"
            ),
            ParseDimacsError::ClauseBeforeHeader { line } => {
                write!(f, "line {line}: clause before `p cnf` header")
            }
            ParseDimacsError::BadToken { line, token } => {
                write!(f, "line {line}: bad token `{token}`")
            }
            ParseDimacsError::LiteralOutOfRange {
                line,
                lit,
                num_vars,
            } => write!(
                f,
                "line {line}: literal {lit} out of range for {num_vars} variables"
            ),
            ParseDimacsError::UnterminatedClause => {
                write!(f, "final clause not terminated by 0")
            }
        }
    }
}

impl Error for ParseDimacsError {}

/// Serializes a formula in DIMACS CNF format.
pub fn write(f: &CnfFormula) -> String {
    let mut s = format!("p cnf {} {}\n", f.num_vars(), f.num_clauses());
    for clause in f.clauses() {
        for &lit in clause {
            s.push_str(&lit.to_dimacs().to_string());
            s.push(' ');
        }
        s.push_str("0\n");
    }
    s
}

/// Parses DIMACS CNF text.
///
/// # Errors
///
/// A [`ParseDimacsError`] describing the first problem found, with its
/// 1-based line number.
pub fn parse(text: &str) -> Result<CnfFormula, ParseDimacsError> {
    let mut formula: Option<CnfFormula> = None;
    let mut current: Vec<Lit> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if line.starts_with('p') {
            if formula.is_some() {
                return Err(ParseDimacsError::DuplicateHeader { line: lineno });
            }
            let parts: Vec<&str> = line.split_whitespace().collect();
            if parts.len() != 4 || parts[1] != "cnf" {
                return Err(ParseDimacsError::BadHeader { line: lineno });
            }
            let nv: u64 = parts[2]
                .parse()
                .map_err(|_| ParseDimacsError::BadHeader { line: lineno })?;
            let _clause_count: u64 = parts[3]
                .parse()
                .map_err(|_| ParseDimacsError::BadHeader { line: lineno })?;
            if nv > MAX_DIMACS_VARS {
                return Err(ParseDimacsError::TooManyVars {
                    line: lineno,
                    declared: nv,
                });
            }
            formula = Some(CnfFormula::new(nv as usize));
            continue;
        }
        let f = formula
            .as_mut()
            .ok_or(ParseDimacsError::ClauseBeforeHeader { line: lineno })?;
        for tok in line.split_whitespace() {
            let v: i64 = tok.parse().map_err(|_| ParseDimacsError::BadToken {
                line: lineno,
                token: tok.to_string(),
            })?;
            if v == 0 {
                f.add_clause(std::mem::take(&mut current));
            } else {
                if v.unsigned_abs() > f.num_vars() as u64 {
                    return Err(ParseDimacsError::LiteralOutOfRange {
                        line: lineno,
                        lit: v,
                        num_vars: f.num_vars(),
                    });
                }
                current.push(Lit::from_dimacs(v));
            }
        }
    }
    if !current.is_empty() {
        return Err(ParseDimacsError::UnterminatedClause);
    }
    formula.ok_or(ParseDimacsError::MissingHeader)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;
    use proptest::prelude::*;

    #[test]
    fn roundtrip() {
        let mut f = CnfFormula::new(3);
        f.add_clause(vec![
            Lit::positive(Var::from_index(0)),
            Lit::negative(Var::from_index(2)),
        ]);
        f.add_clause(vec![Lit::negative(Var::from_index(1))]);
        let text = write(&f);
        let g = parse(&text).unwrap();
        assert_eq!(g.num_vars(), 3);
        assert_eq!(g.num_clauses(), 2);
        assert_eq!(g, f);
    }

    #[test]
    fn comments_skipped() {
        let g = parse("c hi\np cnf 2 1\n1 -2 0\n").unwrap();
        assert_eq!(g.num_clauses(), 1);
    }

    #[test]
    fn missing_header() {
        assert_eq!(parse(""), Err(ParseDimacsError::MissingHeader));
        assert_eq!(
            parse("c only comments\n"),
            Err(ParseDimacsError::MissingHeader)
        );
    }

    #[test]
    fn clause_before_header() {
        assert_eq!(
            parse("1 0\np cnf 1 1\n"),
            Err(ParseDimacsError::ClauseBeforeHeader { line: 1 })
        );
    }

    #[test]
    fn unterminated() {
        assert_eq!(
            parse("p cnf 2 1\n1 -2\n"),
            Err(ParseDimacsError::UnterminatedClause)
        );
    }

    #[test]
    fn bad_token() {
        assert_eq!(
            parse("p cnf 1 1\nxyz 0\n"),
            Err(ParseDimacsError::BadToken {
                line: 2,
                token: "xyz".to_string()
            })
        );
    }

    #[test]
    fn multiline_clause() {
        let g = parse("p cnf 3 1\n1\n2\n3 0\n").unwrap();
        assert_eq!(g.num_clauses(), 1);
        assert_eq!(g.clause(0).len(), 3);
    }

    #[test]
    fn duplicate_header_rejected() {
        // The old parser silently dropped the first header's clauses.
        assert_eq!(
            parse("p cnf 2 1\n1 0\np cnf 2 1\n2 0\n"),
            Err(ParseDimacsError::DuplicateHeader { line: 3 })
        );
    }

    #[test]
    fn literal_out_of_range_rejected() {
        // The old parser silently grew the formula to 5 variables.
        assert_eq!(
            parse("p cnf 2 1\n1 -5 0\n"),
            Err(ParseDimacsError::LiteralOutOfRange {
                line: 2,
                lit: -5,
                num_vars: 2
            })
        );
    }

    #[test]
    fn huge_var_count_rejected() {
        // The old parser accepted this and then wrapped literal indices
        // modulo 2^32 inside `Var::from_index`.
        let text = format!("p cnf {} 1\n1 0\n", u64::from(u32::MAX) + 1);
        assert_eq!(
            parse(&text),
            Err(ParseDimacsError::TooManyVars {
                line: 1,
                declared: u64::from(u32::MAX) + 1
            })
        );
    }

    #[test]
    fn bad_header_shapes() {
        for text in [
            "p cnf 2\n",
            "p cnf two 1\n",
            "p cnf 2 one\n",
            "p dnf 2 1\n",
            "p cnf 2 1 extra\n",
            "p cnf -2 1\n",
        ] {
            assert_eq!(
                parse(text),
                Err(ParseDimacsError::BadHeader { line: 1 }),
                "{text:?}"
            );
        }
    }

    /// Bytes the corruption proptest splices into well-formed DIMACS
    /// text (all ASCII, so any insertion point is a char boundary).
    const CORRUPT_CHARSET: &[u8] = b" -0123456789pcnfdxyz\n\t";

    /// A random well-formed formula as a proptest strategy: clause lists
    /// of DIMACS literals over `nv` variables.
    fn formula_strategy() -> impl Strategy<Value = CnfFormula> {
        (1usize..20).prop_flat_map(|nv| {
            proptest::collection::vec(
                proptest::collection::vec(
                    (1..=nv as i64, any::<bool>()).prop_map(|(v, neg)| if neg { -v } else { v }),
                    0..6,
                ),
                0..12,
            )
            .prop_map(move |clauses| {
                let mut f = CnfFormula::new(nv);
                for c in clauses {
                    f.add_clause(c.into_iter().map(Lit::from_dimacs).collect());
                }
                f
            })
        })
    }

    proptest! {
        /// write → parse is the identity on well-formed formulas.
        #[test]
        fn proptest_roundtrip(f in formula_strategy()) {
            let g = parse(&write(&f)).unwrap();
            prop_assert_eq!(g.num_vars(), f.num_vars());
            prop_assert_eq!(g, f);
        }

        /// Arbitrary corruption of well-formed text never panics: the
        /// parser returns Ok or a typed error for every mutation.
        #[test]
        fn proptest_corrupted_input_never_panics(
            f in formula_strategy(),
            pos in 0usize..400,
            junk_codes in proptest::collection::vec(0usize..CORRUPT_CHARSET.len(), 0..8),
        ) {
            let junk: String = junk_codes
                .into_iter()
                .map(|i| CORRUPT_CHARSET[i] as char)
                .collect();
            let mut text = write(&f);
            let cut = pos.min(text.len());
            text.insert_str(cut, &junk);
            let _ = parse(&text);
        }

        /// Oversized literals are rejected, never silently absorbed.
        #[test]
        fn proptest_out_of_range_literal_rejected(
            nv in 1usize..10,
            excess in 1i64..1000,
            neg in any::<bool>(),
        ) {
            let lit = (nv as i64 + excess) * if neg { -1 } else { 1 };
            let text = format!("p cnf {nv} 1\n{lit} 0\n");
            prop_assert_eq!(
                parse(&text),
                Err(ParseDimacsError::LiteralOutOfRange {
                    line: 2,
                    lit,
                    num_vars: nv
                })
            );
        }
    }
}
