//! The analytical core of the *atpg-easy* reproduction: the results of
//! "Why is ATPG Easy?" (Prasad, Chong, Keutzer, DAC 1999) as an API.
//!
//! - [`analysis`]: per-fault complexity ledgers (Lemma 4.3 ∘ Theorem 4.1
//!   mechanized on each ATPG instance);
//! - [`bounds`]: the complexity bounds — Lemma 4.1's sub-formula count,
//!   Theorem 4.1's `O(n · 2^(2·k_fo·W))` runtime, and the multi-output
//!   Equation 4.5;
//! - [`lemma42`]: the constructive ordering `h_ψ` for the ATPG miter and a
//!   mechanized check of `W(C_ψ^ATPG, h_ψ) ≤ 2·W(C, h) + 2`;
//! - [`multi_output`]: the Section-4.3 per-cone decomposition and the
//!   Equation-4.5 bound;
//! - [`predictor`]: the empirical log-bounded-width classifier used on the
//!   Figure-8 scatter data (Definition 5.1);
//! - [`experiment`]: the pipelines regenerating the paper's evaluation —
//!   Figure 1 (per-instance ATPG-SAT effort), Figure 8 (cut-width versus
//!   subcircuit size), and the Section-5.2.3 generated-circuit study;
//! - [`report`]: plain-text renderings of the series the paper plots;
//! - [`varorder`]: the bridge from hypergraph node orderings to solver
//!   variable orders.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod bounds;
pub mod experiment;
pub mod lemma42;
pub mod multi_output;
pub mod predictor;
pub mod report;
pub mod varorder;
