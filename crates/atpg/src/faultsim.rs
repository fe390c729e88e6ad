//! Parallel-pattern fault simulation.
//!
//! Simulates a word of input vectors at once (one per bit) against the
//! good circuit and, per fault, against the faulted circuit, reporting
//! which patterns detect the fault. ATPG tools use this for *fault
//! dropping*: every generated test is simulated against all remaining
//! faults so each SAT call typically retires many faults (TEGUS does
//! exactly this).
//!
//! Every layer is one implementation generic over the word ([`Lanes`]);
//! the caller's batch size picks the width. A single SAT vector rides a
//! `u64` ([`FaultSimulator::detect_batch_with`], up to 64 vectors), a
//! random-phase batch a [`PatternBlock`]
//! ([`FaultSimulator::detect_batch_wide`], up to [`WIDE_PATTERNS`]), so
//! random-pattern fault dropping costs one cone resimulation per 256
//! patterns. Both reuse caller-owned [`SimBuffers`], eliminating
//! per-call allocation on the campaign hot path.
//!
//! Faulty resimulation walks only the fault net's fan-out cone;
//! [`FaultSimulator::detect_mask_full`], a whole-circuit sweep, is kept
//! as its oracle for tests and benches.

use atpg_easy_netlist::{
    sim::{Lanes, PatternBlock, Simulator},
    GateId, NetId, Netlist,
};

use crate::Fault;

/// Patterns per wide batch: one [`PatternBlock`].
pub const WIDE_PATTERNS: usize = PatternBlock::PATTERNS;

/// Reusable scratch state for repeated detect calls. One instance per
/// campaign (or per parallel worker) amortizes every per-net buffer the
/// simulator needs — packed inputs, good values, and the
/// faulty-resimulation scratch, one set per width — across all (test
/// batch, fault list) pairs. A fresh default instance is equivalent but
/// allocates on first use.
#[derive(Debug, Clone, Default)]
pub struct SimBuffers {
    pub(crate) words: LaneBuffers<u64>,
    pub(crate) blocks: LaneBuffers<PatternBlock>,
}

/// The per-net buffers of one width, and the per-fault detection masks
/// of the last batch.
#[derive(Debug, Clone, Default)]
pub(crate) struct LaneBuffers<W> {
    inputs: Vec<W>,
    good: Vec<W>,
    scratch: Vec<W>,
    masks: Vec<W>,
}

/// Per-net fan-out cones, flattened into one arena.
///
/// `gates[start[n]..start[n + 1]]` is the topologically ordered fan-out
/// cone of net `n` (excluding its driver), as produced by
/// [`fanout_cone_gates`](atpg_easy_netlist::topo::fanout_cone_gates).
#[derive(Debug, Clone)]
struct ConeArena {
    start: Vec<usize>,
    gates: Vec<GateId>,
}

impl ConeArena {
    /// Equivalent to calling [`fanout_cone_gates`](atpg_easy_netlist::topo::fanout_cone_gates) for every net,
    /// but computes the fan-out adjacency once and reuses one marker
    /// buffer, so the whole arena costs O(nets × gates) with no per-net
    /// allocation churn.
    fn build(nl: &Netlist, order: &[GateId]) -> Self {
        let fanouts = nl.fanouts();
        let num_nets = nl.num_nets();
        let mut start = Vec::with_capacity(num_nets + 1);
        let mut gates = Vec::new();
        let mut seen = vec![false; num_nets];
        let mut touched: Vec<usize> = Vec::new();
        let mut stack: Vec<NetId> = Vec::new();
        start.push(0);
        for i in 0..num_nets {
            let root = NetId::from_index(i);
            stack.push(root);
            while let Some(net) = stack.pop() {
                if seen[net.index()] {
                    continue;
                }
                seen[net.index()] = true;
                touched.push(net.index());
                for &user in &fanouts[net.index()] {
                    let out = nl.gate(user).output;
                    if !seen[out.index()] {
                        stack.push(out);
                    }
                }
            }
            gates.extend(order.iter().copied().filter(|&g| {
                let out = nl.gate(g).output;
                seen[out.index()] && out != root
            }));
            start.push(gates.len());
            for t in touched.drain(..) {
                seen[t] = false;
            }
        }
        ConeArena { start, gates }
    }

    fn cone(&self, net: NetId) -> &[GateId] {
        &self.gates[self.start[net.index()]..self.start[net.index() + 1]]
    }
}

/// A reusable, cone-limited fault simulator for one circuit.
#[derive(Debug, Clone)]
pub struct FaultSimulator {
    sim: Simulator,
    cones: ConeArena,
}

impl FaultSimulator {
    /// Prepares the simulator: sorts the gates once and precomputes the
    /// fan-out cone of every net. The precomputation costs O(nets × gates)
    /// once; campaigns amortize it over every (test vector, fault) pair
    /// simulated for fault dropping.
    ///
    /// # Panics
    ///
    /// Panics if the netlist is cyclic.
    pub fn with_cones(nl: &Netlist) -> Self {
        let sim = Simulator::new(nl);
        let cones = ConeArena::build(nl, sim.order());
        FaultSimulator { sim, cones }
    }

    /// The topological gate order the simulator sweeps.
    pub(crate) fn order(&self) -> &[GateId] {
        self.sim.order()
    }

    /// The fan-out cone gates of `net`, in [`Self::order`].
    pub(crate) fn cone(&self, net: NetId) -> &[GateId] {
        self.cones.cone(net)
    }

    /// Good-circuit net values for [`Lanes::PATTERNS`] parallel patterns.
    pub fn good_values<W: Lanes>(&self, nl: &Netlist, inputs: &[W]) -> Vec<W> {
        self.sim.run(nl, inputs)
    }

    /// Whole-circuit reference path: resimulates every gate with the fault
    /// net forced. No campaign calls it; it is the equivalence oracle for
    /// [`Self::detect_mask_cone`].
    pub fn detect_mask_full<W: Lanes>(
        &self,
        nl: &Netlist,
        inputs: &[W],
        good: &[W],
        fault: Fault,
    ) -> W {
        let stuck = stuck_word(fault);
        // Cheap excitation pre-check: patterns where the good value of the
        // fault net already equals the stuck value can never detect.
        if good[fault.net.index()] == stuck {
            return W::ZERO;
        }
        let bad = self.sim.run_with_forced(nl, inputs, fault.net, stuck);
        nl.outputs().iter().fold(W::ZERO, |mask, &o| {
            mask.or(good[o.index()].xor(bad[o.index()]))
        })
    }

    /// Bitmask of the patterns that detect `fault`: re-evaluates only the
    /// fault net's fan-out cone. `scratch` must equal `good` on entry; it
    /// is restored before returning.
    pub fn detect_mask_cone<W: Lanes>(
        &self,
        nl: &Netlist,
        good: &[W],
        scratch: &mut [W],
        fault: Fault,
    ) -> W {
        let cone = self.cone(fault.net);
        let stuck = stuck_word(fault);
        if good[fault.net.index()] == stuck {
            return W::ZERO;
        }
        self.sim
            .resim_cone_forced(nl, good, scratch, fault.net, stuck, cone)
    }

    /// Simulates one batch of up to 64 vectors against a fault list,
    /// returning (per fault) whether it is detected by any pattern. Every
    /// per-net buffer comes from `bufs`, so a loop that reuses one
    /// [`SimBuffers`] across batches performs no per-call allocation.
    ///
    /// `vectors` holds one `Vec<bool>` per pattern (at most 64), riding
    /// one `u64` word per net. Patterns past the last vector simulate the
    /// all-zero input vector, and what it detects counts as detected.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 vectors are supplied or a vector has the
    /// wrong width.
    pub fn detect_batch_with(
        &self,
        nl: &Netlist,
        vectors: &[Vec<bool>],
        faults: &[Fault],
        bufs: &mut SimBuffers,
    ) -> Vec<bool> {
        detected(self.detect_batch_in(nl, vectors, faults.iter().copied(), &mut bufs.words))
    }

    /// Simulates one batch of up to [`WIDE_PATTERNS`] (256) vectors
    /// against a fault list in a **single** block-parallel pass,
    /// returning (per fault) whether any pattern detects it. Each fault
    /// costs one cone resimulation for all 256 patterns. Patterns past
    /// the last vector simulate the all-zero input vector, and what it
    /// detects counts as detected.
    ///
    /// # Panics
    ///
    /// Panics if more than [`WIDE_PATTERNS`] vectors are supplied or a
    /// vector has the wrong width.
    pub fn detect_batch_wide(
        &self,
        nl: &Netlist,
        vectors: &[Vec<bool>],
        faults: &[Fault],
        bufs: &mut SimBuffers,
    ) -> Vec<bool> {
        detected(self.detect_batch_in(nl, vectors, faults.iter().copied(), &mut bufs.blocks))
    }

    /// The one batch body behind both widths: pack, simulate the good
    /// circuit once, then one detection mask per fault of `faults`,
    /// borrowed from `bufs` — bit `p` of a mask is set iff pattern `p`
    /// detects that fault. `bufs` is one width of a [`SimBuffers`]:
    /// `words` for up to 64 vectors, `blocks` for up to 256.
    pub(crate) fn detect_batch_in<'b, W: Lanes>(
        &self,
        nl: &Netlist,
        vectors: &[Vec<bool>],
        faults: impl IntoIterator<Item = Fault>,
        bufs: &'b mut LaneBuffers<W>,
    ) -> &'b [W] {
        pack_vectors_into(nl, vectors, &mut bufs.inputs);
        self.sim.run_into(nl, &bufs.inputs, &mut bufs.good);
        bufs.scratch.clear();
        bufs.scratch.extend_from_slice(&bufs.good);
        let (good, scratch) = (&bufs.good, &mut bufs.scratch);
        bufs.masks.clear();
        bufs.masks.extend(
            faults
                .into_iter()
                .map(|f| self.detect_mask_cone(nl, good, scratch, f)),
        );
        &bufs.masks
    }
}

/// Whether each mask has any pattern set.
fn detected<W: Lanes>(masks: &[W]) -> Vec<bool> {
    masks.iter().map(|&m| m != W::ZERO).collect()
}

/// The word a stuck-at fault forces onto its net in every pattern.
fn stuck_word<W: Lanes>(fault: Fault) -> W {
    if fault.stuck {
        W::ONES
    } else {
        W::ZERO
    }
}

/// Packs up to [`Lanes::PATTERNS`] input vectors into one word per
/// primary input: pattern `p` occupies bit `p` (for a [`PatternBlock`],
/// lane `p / 64`, bit `p % 64`).
///
/// # Panics
///
/// Panics if a vector's width differs from the input count or more than
/// [`Lanes::PATTERNS`] vectors are given.
pub fn pack_vectors<W: Lanes>(nl: &Netlist, vectors: &[Vec<bool>]) -> Vec<W> {
    let mut words = Vec::new();
    pack_vectors_into(nl, vectors, &mut words);
    words
}

/// [`pack_vectors`] into a caller-owned buffer (resized as needed,
/// previous contents overwritten).
///
/// # Panics
///
/// Same conditions as [`pack_vectors`].
pub fn pack_vectors_into<W: Lanes>(nl: &Netlist, vectors: &[Vec<bool>], words: &mut Vec<W>) {
    assert!(
        vectors.len() <= W::PATTERNS,
        "at most {} vectors per batch",
        W::PATTERNS
    );
    let n = nl.num_inputs();
    words.clear();
    words.resize(n, W::ZERO);
    for (p, v) in vectors.iter().enumerate() {
        assert_eq!(v.len(), n, "vector width mismatch");
        for (w, &bit) in words.iter_mut().zip(v) {
            if bit {
                w.set(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::all_faults;
    use crate::verify;
    use atpg_easy_netlist::GateKind;

    fn xor_chain() -> Netlist {
        let mut nl = Netlist::new("x");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let t = nl.add_gate_named(GateKind::Xor, vec![a, b], "t").unwrap();
        let y = nl.add_gate_named(GateKind::Xor, vec![t, c], "y").unwrap();
        nl.add_output(y);
        nl
    }

    #[test]
    fn mask_agrees_with_single_vector_verify() {
        let nl = xor_chain();
        let fs = FaultSimulator::with_cones(&nl);
        let vectors: Vec<Vec<bool>> = (0..8u32)
            .map(|m| (0..3).map(|i| m >> i & 1 != 0).collect())
            .collect();
        let words: Vec<u64> = pack_vectors(&nl, &vectors);
        let good = fs.good_values(&nl, &words);
        let mut scratch = good.clone();
        for fault in all_faults(&nl) {
            let mask = fs.detect_mask_cone(&nl, &good, &mut scratch, fault);
            for (p, v) in vectors.iter().enumerate() {
                assert_eq!(
                    mask >> p & 1 != 0,
                    verify::detects(&nl, fault, v),
                    "fault {} pattern {p}",
                    fault.describe(&nl)
                );
            }
        }
    }

    #[test]
    fn cone_path_agrees_with_full_path() {
        let nl = xor_chain();
        let fs = FaultSimulator::with_cones(&nl);
        let vectors: Vec<Vec<bool>> = (0..8u32)
            .map(|m| (0..3).map(|i| m >> i & 1 != 0).collect())
            .collect();
        let words: Vec<u64> = pack_vectors(&nl, &vectors);
        let good = fs.good_values(&nl, &words);
        let mut scratch = good.clone();
        for fault in all_faults(&nl) {
            assert_eq!(
                fs.detect_mask_cone(&nl, &good, &mut scratch, fault),
                fs.detect_mask_full(&nl, &words, &good, fault),
                "fault {}",
                fault.describe(&nl)
            );
            assert_eq!(
                scratch,
                good,
                "scratch restored after {}",
                fault.describe(&nl)
            );
        }
    }

    #[test]
    fn xor_chain_every_fault_detected_by_some_pattern() {
        // XOR circuits propagate everything; all faults detectable.
        let nl = xor_chain();
        let fs = FaultSimulator::with_cones(&nl);
        let vectors: Vec<Vec<bool>> = (0..8u32)
            .map(|m| (0..3).map(|i| m >> i & 1 != 0).collect())
            .collect();
        let det = fs.detect_batch_with(&nl, &vectors, &all_faults(&nl), &mut SimBuffers::default());
        assert!(det.iter().all(|&d| d));
    }

    #[test]
    fn excitation_precheck() {
        // Constant-1 net: s-a-1 never excitable.
        let mut nl = Netlist::new("k");
        let a = nl.add_input("a");
        let k = nl.add_gate_named(GateKind::Const1, vec![], "k").unwrap();
        let y = nl.add_gate_named(GateKind::And, vec![a, k], "y").unwrap();
        nl.add_output(y);
        let fs = FaultSimulator::with_cones(&nl);
        let vectors = vec![vec![false], vec![true]];
        let det = fs.detect_batch_with(
            &nl,
            &vectors,
            &[Fault::stuck_at_1(k)],
            &mut SimBuffers::default(),
        );
        assert_eq!(det, vec![false]);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn too_many_vectors_panics() {
        let nl = xor_chain();
        let fs = FaultSimulator::with_cones(&nl);
        let vectors = vec![vec![false; 3]; 65];
        fs.detect_batch_with(&nl, &vectors, &[], &mut SimBuffers::default());
    }

    #[test]
    fn wide_batch_agrees_with_four_word_batches() {
        // 3 inputs → 8 minterms; replicate with alternating inversions to
        // fill a >64-pattern batch that still exercises every cone.
        let nl = xor_chain();
        let fs = FaultSimulator::with_cones(&nl);
        let faults = all_faults(&nl);
        let vectors: Vec<Vec<bool>> = (0..200u32)
            .map(|q| (0..3).map(|i| (q >> (i % 8)) & 1 != 0).collect())
            .collect();
        let mut bufs = SimBuffers::default();
        let wide = fs.detect_batch_wide(&nl, &vectors, &faults, &mut bufs);
        let mut narrow = vec![false; faults.len()];
        for chunk in vectors.chunks(64) {
            for (i, d) in fs
                .detect_batch_with(&nl, chunk, &faults, &mut bufs)
                .into_iter()
                .enumerate()
            {
                narrow[i] |= d;
            }
        }
        assert_eq!(wide, narrow, "256-wide and 4x64-wide dropping agree");
        // The whole-circuit reference path agrees too.
        let blocks: Vec<PatternBlock> = pack_vectors(&nl, &vectors);
        let good = fs.good_values(&nl, &blocks);
        let reference: Vec<bool> = faults
            .iter()
            .map(|&f| fs.detect_mask_full(&nl, &blocks, &good, f) != PatternBlock::ZERO)
            .collect();
        assert_eq!(wide, reference);
    }

    #[test]
    fn detect_batch_with_reuses_buffers() {
        let nl = xor_chain();
        let fs = FaultSimulator::with_cones(&nl);
        let faults = all_faults(&nl);
        let vectors: Vec<Vec<bool>> = (0..8u32)
            .map(|m| (0..3).map(|i| m >> i & 1 != 0).collect())
            .collect();
        let mut bufs = SimBuffers::default();
        let first = fs.detect_batch_with(&nl, &vectors, &faults, &mut bufs);
        let good_ptr = bufs.words.good.as_ptr();
        let second = fs.detect_batch_with(&nl, &vectors, &faults, &mut bufs);
        assert_eq!(first, second);
        let fresh = fs.detect_batch_with(&nl, &vectors, &faults, &mut SimBuffers::default());
        assert_eq!(first, fresh);
        assert_eq!(good_ptr, bufs.words.good.as_ptr(), "good buffer is reused");
    }

    #[test]
    fn pack_vectors_places_pattern_q_in_lane_q_div_64() {
        let nl = xor_chain();
        let mut vectors = vec![vec![false; 3]; 130];
        vectors[0][1] = true; // pattern 0 → lane 0, bit 0
        vectors[70][2] = true; // pattern 70 → lane 1, bit 6
        vectors[129][0] = true; // pattern 129 → lane 2, bit 1
        let blocks: Vec<PatternBlock> = pack_vectors(&nl, &vectors);
        assert_eq!(blocks[1][0], 1);
        assert_eq!(blocks[2][1], 1 << 6);
        assert_eq!(blocks[0][2], 1 << 1);
        assert_eq!(blocks[0][3], 0);
    }

    #[test]
    #[should_panic(expected = "at most 256")]
    fn too_many_wide_vectors_panics() {
        let nl = xor_chain();
        let fs = FaultSimulator::with_cones(&nl);
        let vectors = vec![vec![false; 3]; WIDE_PATTERNS + 1];
        fs.detect_batch_wide(&nl, &vectors, &[], &mut SimBuffers::default());
    }
}
