//! Circuit cut-width machinery for the *atpg-easy* reproduction of
//! "Why is ATPG Easy?" (Section 4.2 and 5 of the paper).
//!
//! A circuit is viewed as an undirected [`Hypergraph`]: gates, primary
//! inputs and primary outputs are the nodes; each signal net is one
//! hyperedge spanning its driver and all its sinks. The *cut-width* of the
//! hypergraph under a linear ordering `h` (Definition 4.1) is the maximum,
//! over prefix cuts, of the number of hyperedges with nodes on both sides.
//!
//! Provided here:
//!
//! - [`ordering`]: cut-width and cut profiles under a given ordering;
//! - [`directed`]: forward/reverse wire widths and McMillan's BDD bound
//!   (the Section-6 contrast);
//! - [`exact`]: exact minimum cut-width / min-cut linear arrangement by
//!   Held–Karp-style subset dynamic programming (small graphs);
//! - [`bb`]: exact cut-width by branch and bound with dominance pruning
//!   (mid-size graphs; certifies the MLA estimator);
//! - [`fm`]: a Fiduccia–Mattheyses refinement engine;
//! - [`multilevel`]: multilevel (coarsen/partition/refine) bipartitioning
//!   — the hMETIS stand-in;
//! - [`io`]: hMETIS `.hgr` file I/O, for cross-checks with the original
//!   tool;
//! - [`mla`]: the paper's Section-5.2.1 procedure — recursive min-cut
//!   bisection down to small leaves, exact MLA at the leaves;
//! - [`tree`]: the smallest-subtree-first ordering realizing Lemma 5.2
//!   (`W ≤ (k−1)·log₂ n` for k-ary trees).
//!
//! # Example
//!
//! ```
//! use atpg_easy_cutwidth::{Hypergraph, ordering};
//!
//! // A triangle: three nodes, three 2-pin edges.
//! let h = Hypergraph::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]);
//! let w = ordering::cutwidth(&h, &[0, 1, 2]);
//! assert_eq!(w, 2);
//! ```

#![forbid(unsafe_code)]

pub mod bb;
pub mod directed;
pub mod exact;
pub mod fm;
mod hypergraph;
pub mod io;
pub mod mla;
pub mod multilevel;
pub mod ordering;
pub mod tree;

pub use hypergraph::{Hypergraph, NodeKind};
