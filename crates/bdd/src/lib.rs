//! A reduced ordered binary decision diagram (ROBDD) package, built for
//! the paper's Section 6: contrasting the cut-width bound on
//! caching-based backtracking with the Berman \[1\] / McMillan \[19\] width
//! bounds on BDD size.
//!
//! CIRCUIT-SAT could also be decided by building the output BDD and
//! checking it differs from the constant 0; McMillan bounds that BDD by
//! `n · 2^(w_f · 2^(w_r))` over any linear arrangement with forward width
//! `w_f` and reverse width `w_r`
//! (the `directed_widths` helper lives in the cut-width crate's
//! `directed` module). The experiments pair that bound with measured BDD
//! sizes from this package.
//!
//! The implementation is a classic hash-consed node table with an apply
//! cache: see [`BddManager`].
//!
//! # Example
//!
//! ```
//! use atpg_easy_bdd::BddManager;
//!
//! let mut m = BddManager::new(2);
//! let a = m.var(0);
//! let b = m.var(1);
//! let f = m.and(a, b);
//! assert!(m.eval(f, &[true, true]));
//! assert!(!m.eval(f, &[true, false]));
//! assert_eq!(m.sat_count(f), 1.0);
//! ```

#![forbid(unsafe_code)]

mod circuit;
mod manager;

pub use circuit::{build_outputs, BuildError};
pub use manager::{BddManager, BddRef};
