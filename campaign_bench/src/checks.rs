//! Output checks, run after the timed pass and outside every metric.
//!
//! Only what the program guarantees is checked: verdicts (never test
//! order or count, which depend on scheduling), vectors that must detect
//! their fault, and every verdict against exhaustive simulation.
//!
//! The pass keeps only what the checks read, packed ([`Verdicts`],
//! [`Packed`]), so that `peak_rss_mb` follows the program rather than
//! the harness.

use atpg_easy_atpg::campaign::{self, AtpgConfig, CampaignResult, FaultOutcome};
use atpg_easy_atpg::faultsim::{FaultSimulator, SimBuffers, WIDE_PATTERNS};
use atpg_easy_atpg::{verify, Fault, SolverChoice};
use atpg_easy_netlist::parser::bench;
use atpg_easy_netlist::sim::Simulator;
use atpg_easy_netlist::{NetId, Netlist};
use atpg_easy_sat::Limits;

/// Circuits with at most this many inputs get the exhaustive check.
pub const EXHAUSTIVE_INPUTS: usize = 16;

/// The sequential from-scratch configuration: a fresh CDCL solver per
/// fault, collapsing and dropping on, no random phase. It is both the
/// `seq_fresh` workload and the reference every other report must equal.
pub fn fresh_config() -> AtpgConfig {
    AtpgConfig {
        solver: SolverChoice::Cdcl,
        limits: Limits::none(),
        activation_clause: true,
        fault_dropping: true,
        collapse: true,
        dominance: false,
        random_patterns: 0,
        seed: 1,
        preflight: true,
        incremental: false,
        static_prune: false,
    }
}

/// Test vectors packed to bits, `⌈inputs / 64⌉` words each. The width is
/// set by the first vector pushed.
#[derive(Debug, Default, Clone)]
pub struct Packed {
    inputs: usize,
    count: usize,
    words: Vec<u64>,
    /// A vector of another width was pushed (and left out).
    malformed: bool,
}

impl Packed {
    fn per(&self) -> usize {
        self.inputs.div_ceil(64).max(1)
    }

    /// Appends `bits`; `false` (nothing appended, and the set marked
    /// malformed) when its width differs from the vectors already held.
    pub fn push(&mut self, bits: impl ExactSizeIterator<Item = bool>) -> bool {
        if self.count == 0 {
            self.inputs = bits.len();
        }
        if bits.len() != self.inputs {
            self.malformed = true;
            return false;
        }
        let start = self.words.len();
        self.words.resize(start + self.per(), 0);
        for (i, b) in bits.enumerate() {
            self.words[start + i / 64] |= u64::from(b) << (i % 64);
        }
        self.count += 1;
        true
    }

    pub fn malformed(&self) -> bool {
        self.malformed
    }

    pub fn vector(&self, i: usize) -> Vec<bool> {
        let w = &self.words[i * self.per()..(i + 1) * self.per()];
        (0..self.inputs).map(|b| w[b / 64] >> (b % 64) & 1 == 1).collect()
    }

    pub fn vectors(&self) -> impl Iterator<Item = Vec<bool>> + '_ {
        (0..self.count).map(|i| self.vector(i))
    }
}

/// A verdict as `detection_report` renders it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Detected = 0,
    Untestable = 1,
    Aborted = 2,
    /// Any other serve verdict (`deadline`): never the reference's.
    Other = 3,
}

impl Class {
    fn of(outcome: &FaultOutcome) -> Class {
        match outcome {
            FaultOutcome::Detected(_) | FaultOutcome::DetectedBySimulation => Class::Detected,
            FaultOutcome::Untestable | FaultOutcome::StaticallyRedundant => Class::Untestable,
            FaultOutcome::Aborted => Class::Aborted,
        }
    }

    /// The class of a serve `verdict` line's verdict.
    pub fn of_verdict(verdict: &str) -> Class {
        match verdict {
            "detected" => Class::Detected,
            "untestable" | "redundant" => Class::Untestable,
            "aborted" => Class::Aborted,
            _ => Class::Other,
        }
    }
}

/// What the checks read of one campaign's verdicts, packed: one word per
/// targeted fault in report order — the `(net, stuck, verdict)` triple
/// that `detection_report` renders — and every SAT vector with the index
/// of its fault.
#[derive(Debug, Default, Clone)]
pub struct Verdicts {
    faults: Vec<u64>,
    vectors: Packed,
    vector_faults: Vec<u32>,
}

impl Verdicts {
    /// Packs the verdicts of a campaign's records.
    pub fn of(result: &CampaignResult) -> Verdicts {
        let mut v = Verdicts::default();
        for r in &result.records {
            let vector = match &r.outcome {
                FaultOutcome::Detected(bits) => Some(bits.iter().copied()),
                _ => None,
            };
            v.push(
                r.fault.net.index() as u64,
                r.fault.stuck,
                Class::of(&r.outcome),
                vector,
            );
        }
        v
    }

    /// Appends the verdict of the next fault, with its SAT vector if any.
    pub fn push(
        &mut self,
        net: u64,
        stuck: bool,
        class: Class,
        vector: Option<impl ExactSizeIterator<Item = bool>>,
    ) {
        if let Some(bits) = vector {
            if self.vectors.push(bits) {
                self.vector_faults.push(self.faults.len() as u32);
            }
        }
        self.faults
            .push(net << 3 | u64::from(stuck) << 2 | class as u64);
    }

    fn fault(word: u64) -> Fault {
        let net = NetId::from_index((word >> 3) as usize);
        if word >> 2 & 1 == 1 {
            Fault::stuck_at_1(net)
        } else {
            Fault::stuck_at_0(net)
        }
    }

    fn class(word: u64) -> u64 {
        word & 3
    }

    /// Faults with a verdict.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    pub fn count(&self, class: Class) -> usize {
        self.faults
            .iter()
            .filter(|&&w| Self::class(w) == class as u64)
            .count()
    }

    /// Whether every verdict is `detected` or `untestable`.
    pub fn all_resolved(&self) -> bool {
        self.count(Class::Detected) + self.count(Class::Untestable) == self.len()
    }

    /// Whether both carry the same detection report.
    pub fn same_report(&self, other: &Verdicts) -> bool {
        self.faults == other.faults
    }

    pub fn detected_faults(&self) -> Vec<Fault> {
        self.faults
            .iter()
            .filter(|&&w| Self::class(w) == Class::Detected as u64)
            .map(|&w| Self::fault(w))
            .collect()
    }

    /// SAT vectors held.
    pub fn sat_count(&self) -> usize {
        self.vector_faults.len()
    }

    /// The SAT vectors with their faults.
    pub fn sat_vectors(&self) -> impl Iterator<Item = (Fault, Vec<bool>)> + '_ {
        self.vector_faults
            .iter()
            .enumerate()
            .map(|(i, &f)| (Self::fault(self.faults[f as usize]), self.vectors.vector(i)))
    }

    /// Whether a SAT vector's width differed from the others'.
    pub fn malformed(&self) -> bool {
        self.vectors.malformed()
    }

    /// Whether every SAT vector detects its fault, and every vector was
    /// well formed.
    pub fn vectors_detect(&self, nl: &Netlist) -> bool {
        !self.malformed() && self.sat_vectors().all(|(f, v)| detects(nl, f, &v))
    }

    /// Whether, on a circuit with at most [`EXHAUSTIVE_INPUTS`] inputs,
    /// exactly the faults reported detected are detected by some input
    /// minterm: a wrong `untestable` and a wrong `detected` both fail.
    /// Always true on wider circuits, where it is not run.
    pub fn agree_with_exhaustive(&self, nl: &Netlist) -> bool {
        if nl.num_inputs() > EXHAUSTIVE_INPUTS {
            return true;
        }
        if self.faults.iter().any(|&w| (w >> 3) as usize >= nl.num_nets()) {
            return false;
        }
        let faults: Vec<Fault> = self.faults.iter().map(|&w| Self::fault(w)).collect();
        exhaustively_detected(nl, &faults)
            .into_iter()
            .zip(&self.faults)
            .all(|(hit, &w)| {
                let class = Self::class(w);
                (hit && class == Class::Detected as u64)
                    || (!hit && class == Class::Untestable as u64)
            })
    }
}

/// Whether `vector` detects `fault` under `verify::detects`; false when
/// either does not fit the circuit.
pub fn detects(nl: &Netlist, fault: Fault, vector: &[bool]) -> bool {
    fault.net.index() < nl.num_nets()
        && vector.len() == nl.num_inputs()
        && verify::detects(nl, fault, vector)
}

/// What the sequential from-scratch engine says about one circuit.
pub struct Reference {
    pub netlist: Netlist,
    pub verdicts: Verdicts,
    /// Whether these verdicts agree with exhaustive simulation.
    pub exhaustive_ok: bool,
}

impl Reference {
    /// Runs the reference engine on `text`.
    pub fn compute(text: &str) -> Reference {
        let netlist = bench::parse(text).expect("workload text parses");
        let verdicts = Verdicts::of(&campaign::run(&netlist, &fresh_config()));
        Reference {
            exhaustive_ok: verdicts.agree_with_exhaustive(&netlist),
            netlist,
            verdicts,
        }
    }
}

/// The input words of the `w`-th run of 64 minterms.
fn minterm_words(inputs: usize, w: usize) -> Vec<u64> {
    const LOW: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    (0..inputs)
        .map(|i| match LOW.get(i) {
            Some(&mask) => mask,
            None if (w << 6) >> i & 1 == 1 => u64::MAX,
            None => 0,
        })
        .collect()
}

/// For each fault, whether any of the `2^inputs` input minterms detects
/// it. Simulates the whole circuit, good and faulted, with the netlist
/// simulator: independent of the cone-based fault simulator the
/// campaigns drop faults with.
///
/// # Panics
///
/// Panics above [`EXHAUSTIVE_INPUTS`] inputs.
pub fn exhaustively_detected(nl: &Netlist, faults: &[Fault]) -> Vec<bool> {
    let n = nl.num_inputs();
    assert!(
        n <= EXHAUSTIVE_INPUTS,
        "exhaustive simulation needs few inputs"
    );
    let mut hit = vec![false; faults.len()];
    let sim = Simulator::new(nl);
    let minterms = 1usize << n;
    let valid = if minterms >= 64 {
        u64::MAX
    } else {
        (1u64 << minterms) - 1
    };
    for w in 0..minterms.div_ceil(64) {
        if hit.iter().all(|&h| h) {
            break;
        }
        let words = minterm_words(n, w);
        let good = sim.run(nl, &words);
        for (h, f) in hit.iter_mut().zip(faults) {
            if *h {
                continue;
            }
            let bad = sim.run_with_forced(nl, &words, f.net, if f.stuck { u64::MAX } else { 0 });
            *h = nl
                .outputs()
                .iter()
                .any(|o| (good[o.index()] ^ bad[o.index()]) & valid != 0);
        }
    }
    hit
}

/// Whether `tests`, all of the circuit's width, detect every fault of
/// `faults`.
pub fn tests_cover(nl: &Netlist, tests: &Packed, faults: &[Fault]) -> bool {
    if tests.malformed() || (tests.count > 0 && tests.inputs != nl.num_inputs()) {
        return false;
    }
    let fs = FaultSimulator::with_cones(nl);
    let mut bufs = SimBuffers::default();
    let mut hit = vec![false; faults.len()];
    let tests: Vec<Vec<bool>> = tests.vectors().collect();
    for chunk in tests.chunks(WIDE_PATTERNS) {
        for (h, d) in hit
            .iter_mut()
            .zip(fs.detect_batch_wide(nl, chunk, faults, &mut bufs))
        {
            *h |= d;
        }
    }
    hit.iter().all(|&h| h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_vectors_round_trip() {
        let mut p = Packed::default();
        let a: Vec<bool> = (0..70).map(|i| i % 3 == 0).collect();
        let b: Vec<bool> = (0..70).map(|i| i % 5 == 1).collect();
        assert!(p.push(a.iter().copied()));
        assert!(p.push(b.iter().copied()));
        assert!(!p.malformed());
        assert!(!p.push([true].into_iter()));
        assert!(p.malformed());
        assert_eq!(p.vectors().collect::<Vec<_>>(), vec![a, b]);
    }

    #[test]
    fn exhaustive_check_catches_wrong_verdicts_both_ways() {
        // y = AND(a, NOT a) is constant 0: y s-a-0 is untestable, y s-a-1
        // is detected by every minterm.
        let nl = bench::parse(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\nna = NOT(a)\ny = AND(a, na)\nz = OR(a, b)\n",
        )
        .unwrap();
        let result = campaign::run(&nl, &fresh_config());
        let good = Verdicts::of(&result);
        assert!(good.agree_with_exhaustive(&nl));
        assert!(good.count(Class::Untestable) > 0);
        let mut flipped = result.clone();
        for wrong in [FaultOutcome::DetectedBySimulation, FaultOutcome::Untestable] {
            let i = flipped
                .records
                .iter()
                .position(|r| Class::of(&r.outcome) != Class::of(&wrong))
                .unwrap();
            let before = std::mem::replace(&mut flipped.records[i].outcome, wrong);
            assert!(!Verdicts::of(&flipped).agree_with_exhaustive(&nl));
            flipped.records[i].outcome = before;
        }
    }
}
