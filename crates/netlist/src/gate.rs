//! Gate kinds and the gate record itself.

use std::fmt;

use crate::NetId;

/// Number of 64-bit lanes in a [`PatternBlock`]: 4 lanes = 256 patterns
/// per simulation pass.
pub const LANES: usize = 4;

/// A block of `64 * LANES` bit-parallel simulation patterns: lane `l`
/// bit `p` is pattern `64 * l + p`. A plain fixed-size array keeps the
/// layout transparent to the optimizer — lane-wise loops over
/// `[u64; LANES]` compile to SIMD on every target that has it.
pub type PatternBlock = [u64; LANES];

/// A word of bit-parallel simulation patterns: every bit is one pattern,
/// and bits never interact, so one gate evaluation over a word evaluates
/// [`Lanes::PATTERNS`] input vectors at once.
///
/// Implemented for `u64` (64 patterns) and [`PatternBlock`] (256). The
/// simulation stack is written once over this trait; the caller's batch
/// size picks the width.
pub trait Lanes: Copy + PartialEq + fmt::Debug {
    /// Patterns per word.
    const PATTERNS: usize;
    /// Every pattern at logic 0.
    const ZERO: Self;
    /// Every pattern at logic 1.
    const ONES: Self;
    /// Pattern-wise AND.
    fn and(self, other: Self) -> Self;
    /// Pattern-wise OR.
    fn or(self, other: Self) -> Self;
    /// Pattern-wise XOR.
    fn xor(self, other: Self) -> Self;
    /// Pattern-wise complement.
    fn not(self) -> Self;
    /// Sets pattern `p` (`p < Self::PATTERNS`) to logic 1.
    fn set(&mut self, p: usize);
}

// Every method of both impls is `#[inline]`: the generic simulation code
// is instantiated in dependent crates, which inline a non-generic
// method from this crate only when it is marked.
impl Lanes for u64 {
    const PATTERNS: usize = 64;
    const ZERO: Self = 0;
    const ONES: Self = !0;
    #[inline]
    fn and(self, other: Self) -> Self {
        self & other
    }
    #[inline]
    fn or(self, other: Self) -> Self {
        self | other
    }
    #[inline]
    fn xor(self, other: Self) -> Self {
        self ^ other
    }
    #[inline]
    fn not(self) -> Self {
        !self
    }
    #[inline]
    fn set(&mut self, p: usize) {
        *self |= 1 << p;
    }
}

/// Lane `l` of a block is an independent `u64` word; the loops are
/// straight-line lane-wise bit logic the compiler autovectorizes (one
/// 256-bit op on AVX2, two 128-bit ops on SSE2).
impl Lanes for PatternBlock {
    const PATTERNS: usize = 64 * LANES;
    const ZERO: Self = [0; LANES];
    const ONES: Self = [!0; LANES];
    #[inline]
    fn and(mut self, other: Self) -> Self {
        for (a, b) in self.iter_mut().zip(other) {
            *a &= b;
        }
        self
    }
    #[inline]
    fn or(mut self, other: Self) -> Self {
        for (a, b) in self.iter_mut().zip(other) {
            *a |= b;
        }
        self
    }
    #[inline]
    fn xor(mut self, other: Self) -> Self {
        for (a, b) in self.iter_mut().zip(other) {
            *a ^= b;
        }
        self
    }
    #[inline]
    fn not(mut self) -> Self {
        for a in &mut self {
            *a = !*a;
        }
        self
    }
    #[inline]
    fn set(&mut self, p: usize) {
        self[p / 64] |= 1 << (p % 64);
    }
}

/// The logic function computed by a [`Gate`].
///
/// The paper maps every benchmark circuit to simple AND and OR gates,
/// allowing inversions (Section 2); the full set here lets parsers accept
/// the raw ISCAS85 / MCNC91 netlists before
/// [`decompose`](crate::decompose::decompose) reduces them to that form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Logical AND of all inputs. At least one input required.
    And,
    /// Logical OR of all inputs. At least one input required.
    Or,
    /// Negated AND.
    Nand,
    /// Negated OR.
    Nor,
    /// Exclusive OR (parity) of all inputs.
    Xor,
    /// Negated XOR.
    Xnor,
    /// Inverter; exactly one input.
    Not,
    /// Buffer; exactly one input.
    Buf,
    /// Constant 0; no inputs.
    Const0,
    /// Constant 1; no inputs.
    Const1,
}

impl GateKind {
    /// All gate kinds, in a fixed order. Useful for exhaustive tests.
    pub const ALL: [GateKind; 10] = [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
        GateKind::Const0,
        GateKind::Const1,
    ];

    /// Returns the valid range of fan-in counts for this kind as
    /// `(min, max)`, with `max = usize::MAX` meaning unbounded.
    pub fn fanin_bounds(self) -> (usize, usize) {
        match self {
            GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => (1, usize::MAX),
            GateKind::Xor | GateKind::Xnor => (1, usize::MAX),
            GateKind::Not | GateKind::Buf => (1, 1),
            GateKind::Const0 | GateKind::Const1 => (0, 0),
        }
    }

    /// Whether `n` is an admissible number of inputs for this kind.
    pub fn accepts_fanin(self, n: usize) -> bool {
        let (lo, hi) = self.fanin_bounds();
        n >= lo && n <= hi
    }

    /// Evaluates the gate function over bit-parallel input words: bit
    /// `p` of the result is the gate's output under pattern `p`.
    pub fn eval<W: Lanes>(self, inputs: &[W]) -> W {
        let and = || inputs.iter().fold(W::ONES, |acc, &w| acc.and(w));
        let or = || inputs.iter().fold(W::ZERO, |acc, &w| acc.or(w));
        let xor = || inputs.iter().fold(W::ZERO, |acc, &w| acc.xor(w));
        match self {
            GateKind::And => and(),
            GateKind::Or => or(),
            GateKind::Nand => and().not(),
            GateKind::Nor => or().not(),
            GateKind::Xor => xor(),
            GateKind::Xnor => xor().not(),
            GateKind::Not => inputs[0].not(),
            GateKind::Buf => inputs[0],
            GateKind::Const0 => W::ZERO,
            GateKind::Const1 => W::ONES,
        }
    }

    /// Evaluates the gate function over plain booleans.
    pub fn eval_bool(self, inputs: &[bool]) -> bool {
        let words: Vec<u64> = inputs.iter().map(|&b| if b { !0 } else { 0 }).collect();
        self.eval(&words) & 1 != 0
    }

    /// Whether this gate kind is an inverting single-input or constant
    /// "bookkeeping" gate (not a logic-combining node).
    pub fn is_trivial(self) -> bool {
        matches!(
            self,
            GateKind::Not | GateKind::Buf | GateKind::Const0 | GateKind::Const1
        )
    }

    /// The same function with the output inverted, e.g. `And` ↔ `Nand`.
    pub fn inverted(self) -> GateKind {
        match self {
            GateKind::And => GateKind::Nand,
            GateKind::Nand => GateKind::And,
            GateKind::Or => GateKind::Nor,
            GateKind::Nor => GateKind::Or,
            GateKind::Xor => GateKind::Xnor,
            GateKind::Xnor => GateKind::Xor,
            GateKind::Not => GateKind::Buf,
            GateKind::Buf => GateKind::Not,
            GateKind::Const0 => GateKind::Const1,
            GateKind::Const1 => GateKind::Const0,
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::And => "AND",
            GateKind::Or => "OR",
            GateKind::Nand => "NAND",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Not => "NOT",
            GateKind::Buf => "BUF",
            GateKind::Const0 => "CONST0",
            GateKind::Const1 => "CONST1",
        };
        f.write_str(s)
    }
}

/// A logic gate: a [`GateKind`], its input nets, and its single output net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// The logic function.
    pub kind: GateKind,
    /// Input nets, in positional order.
    pub inputs: Vec<NetId>,
    /// The net driven by this gate.
    pub output: NetId,
}

impl Gate {
    /// Number of inputs (fan-in) of this gate.
    pub fn fanin(&self) -> usize {
        self.inputs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_or_eval() {
        assert!(GateKind::And.eval_bool(&[true, true]));
        assert!(!GateKind::And.eval_bool(&[true, false]));
        assert!(GateKind::Or.eval_bool(&[true, false]));
        assert!(!GateKind::Or.eval_bool(&[false, false]));
    }

    #[test]
    fn inverting_kinds_eval() {
        assert!(!GateKind::Nand.eval_bool(&[true, true]));
        assert!(GateKind::Nor.eval_bool(&[false, false]));
        assert!(GateKind::Xor.eval_bool(&[true, false]));
        assert!(!GateKind::Xor.eval_bool(&[true, true]));
        assert!(GateKind::Xnor.eval_bool(&[true, true]));
        assert!(!GateKind::Not.eval_bool(&[true]));
        assert!(GateKind::Buf.eval_bool(&[true]));
    }

    #[test]
    fn constants_eval() {
        assert!(!GateKind::Const0.eval_bool(&[]));
        assert!(GateKind::Const1.eval_bool(&[]));
    }

    #[test]
    fn word_parallel_matches_bool() {
        // Three-input XOR across all 8 minterms packed into one word.
        let a = 0b10101010u64;
        let b = 0b11001100u64;
        let c = 0b11110000u64;
        let out = GateKind::Xor.eval(&[a, b, c]);
        for m in 0..8 {
            let expect =
                GateKind::Xor.eval_bool(&[a >> m & 1 != 0, b >> m & 1 != 0, c >> m & 1 != 0]);
            assert_eq!(out >> m & 1 != 0, expect, "minterm {m}");
        }
    }

    #[test]
    fn inverted_is_involution() {
        for k in GateKind::ALL {
            assert_eq!(k.inverted().inverted(), k);
        }
    }

    #[test]
    fn inverted_complements_output() {
        let ins = [true, false, true];
        for k in GateKind::ALL {
            let n = match k {
                GateKind::Not | GateKind::Buf => 1,
                GateKind::Const0 | GateKind::Const1 => 0,
                _ => 3,
            };
            assert_eq!(k.eval_bool(&ins[..n]), !k.inverted().eval_bool(&ins[..n]));
        }
    }

    #[test]
    fn fanin_bounds_enforced() {
        assert!(GateKind::Not.accepts_fanin(1));
        assert!(!GateKind::Not.accepts_fanin(2));
        assert!(GateKind::And.accepts_fanin(5));
        assert!(!GateKind::And.accepts_fanin(0));
        assert!(GateKind::Const0.accepts_fanin(0));
        assert!(!GateKind::Const1.accepts_fanin(1));
    }
}
