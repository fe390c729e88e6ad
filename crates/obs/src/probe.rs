//! The [`Probe`] trait: typed solver events with no-op defaults.
//!
//! Solvers are generic over `P: Probe + ?Sized` internally; the public
//! `solve()` entry point instantiates with [`NoProbe`] (a zero-sized type
//! whose methods are empty `#[inline]` bodies), so the compiler erases
//! every probe call. The probed entry point instantiates the same generic
//! at `dyn Probe`, paying virtual dispatch only when someone is listening.

use std::time::Duration;

/// Final status of a probed solve, mirroring `sat::Outcome` without the
/// model payload (this crate must not depend on the solver crates).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// A satisfying assignment was found.
    Sat,
    /// The formula was proved unsatisfiable.
    Unsat,
    /// A node/conflict/wall budget expired first.
    Aborted,
}

impl ProbeOutcome {
    /// Stable lowercase label used in traces and CSV output.
    pub fn label(self) -> &'static str {
        match self {
            ProbeOutcome::Sat => "sat",
            ProbeOutcome::Unsat => "unsat",
            ProbeOutcome::Aborted => "aborted",
        }
    }

    /// Inverse of [`ProbeOutcome::label`].
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "sat" => Some(ProbeOutcome::Sat),
            "unsat" => Some(ProbeOutcome::Unsat),
            "aborted" => Some(ProbeOutcome::Aborted),
            _ => None,
        }
    }
}

/// Receiver of solver events.
///
/// All methods default to no-ops so implementors subscribe only to what
/// they need. The trait is dyn-safe: campaign engines hold
/// `&mut dyn Probe` and solvers monomorphize over `P: Probe + ?Sized`.
pub trait Probe {
    /// Whether this probe wants events at all. Solvers use this to gate
    /// work that is only observable through the probe (e.g. reading the
    /// wall clock for `instance_end`). [`NoProbe`] returns `false`.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// A solve is starting on a formula of `vars` variables and
    /// `clauses` clauses.
    #[inline]
    fn instance_begin(&mut self, vars: usize, clauses: usize) {
        let _ = (vars, clauses);
    }

    /// The solver committed a branching decision at `depth`.
    #[inline]
    fn decision(&mut self, depth: usize) {
        let _ = depth;
    }

    /// The solver undid decisions back to `depth`.
    #[inline]
    fn backtrack(&mut self, depth: usize) {
        let _ = depth;
    }

    /// One literal was assigned by inference (unit propagation or the
    /// fixed-order scan in the chronological solvers).
    #[inline]
    fn propagation(&mut self) {}

    /// A clause became empty under the current assignment.
    #[inline]
    fn conflict(&mut self) {}

    /// The caching solver found the residual sub-formula in its UNSAT
    /// cache and pruned the subtree.
    #[inline]
    fn cache_hit(&mut self) {}

    /// The caching solver looked up a residual sub-formula and missed.
    #[inline]
    fn cache_miss(&mut self) {}

    /// The caching solver recorded a refuted sub-formula.
    #[inline]
    fn cache_insert(&mut self) {}

    /// CDCL learned a clause of `len` literals.
    #[inline]
    fn learned(&mut self, len: usize) {
        let _ = len;
    }

    /// An incremental solve started under `n` assumption literals
    /// (incremental CDCL only; fresh solves never emit this).
    #[inline]
    fn assumptions(&mut self, n: usize) {
        let _ = n;
    }

    /// An incremental solve started with `n` learnt clauses retained from
    /// earlier solves on the same instance (incremental CDCL only). A
    /// fresh solver always starts at 0 and never emits this, so the event
    /// distinguishes warm conflicts from cold ones in traces.
    #[inline]
    fn learnt_reused(&mut self, n: usize) {
        let _ = n;
    }

    /// CDCL restarted.
    #[inline]
    fn restart(&mut self) {}

    /// The solver polled its wall-clock deadline.
    #[inline]
    fn deadline_check(&mut self) {}

    /// The solve finished with `outcome` after `wall` of wall time.
    /// `wall` is [`Duration::ZERO`] when the probe reported itself
    /// disabled at `instance_begin` time.
    #[inline]
    fn instance_end(&mut self, outcome: ProbeOutcome, wall: Duration) {
        let _ = (outcome, wall);
    }
}

/// The zero-cost probe: a zero-sized type whose event methods are empty.
///
/// `solve()` on every solver routes through the same generic body as
/// `solve_probed()`, instantiated at `NoProbe`; the optimizer removes the
/// calls entirely, which the `probe` criterion bench guards.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoProbe;

impl Probe for NoProbe {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }
}

// The whole point: NoProbe carries no state, so monomorphized probe calls
// have nothing to touch.
const _: () = assert!(std::mem::size_of::<NoProbe>() == 0);

/// Machine-independent event totals for one solve, derived purely from
/// the probe stream. This is the cross-solver summary that replaces
/// ad-hoc per-solver stats in campaign reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Branching decisions committed.
    pub decisions: u64,
    /// Literals assigned by inference.
    pub propagations: u64,
    /// Empty clauses reached.
    pub conflicts: u64,
    /// Backtrack events.
    pub backtracks: u64,
    /// UNSAT-cache hits (caching solver only).
    pub cache_hits: u64,
    /// UNSAT-cache misses (caching solver only).
    pub cache_misses: u64,
    /// UNSAT-cache insertions (caching solver only).
    pub cache_inserts: u64,
    /// Clauses learned (CDCL only).
    pub learned: u64,
    /// Total literals across learned clauses (CDCL only).
    pub learned_lits: u64,
    /// Assumption literals set at solve start (incremental CDCL only).
    pub assumptions: u64,
    /// Learnt clauses retained from earlier solves and available at solve
    /// start (incremental CDCL only).
    pub learnt_reused: u64,
    /// Restarts (CDCL only).
    pub restarts: u64,
    /// Wall-clock deadline polls.
    pub deadline_checks: u64,
    /// Deepest decision level reached.
    pub max_depth: u64,
}

impl Counters {
    /// Element-wise accumulation, for per-worker and per-campaign totals.
    pub fn add(&mut self, other: &Counters) {
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.conflicts += other.conflicts;
        self.backtracks += other.backtracks;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_inserts += other.cache_inserts;
        self.learned += other.learned;
        self.learned_lits += other.learned_lits;
        self.assumptions += other.assumptions;
        self.learnt_reused += other.learnt_reused;
        self.restarts += other.restarts;
        self.deadline_checks += other.deadline_checks;
        self.max_depth = self.max_depth.max(other.max_depth);
    }
}

/// A probe that tallies the event stream into [`Counters`] plus the
/// instance envelope (sizes, outcome, wall time). One `CountingProbe` is
/// reused across many solves by a campaign worker; `instance_begin`
/// resets it.
#[derive(Clone, Debug, Default)]
pub struct CountingProbe {
    /// Event totals for the most recent (or in-progress) solve.
    pub counters: Counters,
    /// Variable count reported at `instance_begin`.
    pub vars: usize,
    /// Clause count reported at `instance_begin`.
    pub clauses: usize,
    /// Outcome reported at `instance_end`, if the solve finished.
    pub outcome: Option<ProbeOutcome>,
    /// Wall time reported at `instance_end`.
    pub wall: Duration,
}

impl CountingProbe {
    /// A fresh, zeroed probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all state; equivalent to what `instance_begin` does.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

impl Probe for CountingProbe {
    fn instance_begin(&mut self, vars: usize, clauses: usize) {
        self.reset();
        self.vars = vars;
        self.clauses = clauses;
    }

    fn decision(&mut self, depth: usize) {
        self.counters.decisions += 1;
        self.counters.max_depth = self.counters.max_depth.max(depth as u64);
    }

    fn backtrack(&mut self, _depth: usize) {
        self.counters.backtracks += 1;
    }

    fn propagation(&mut self) {
        self.counters.propagations += 1;
    }

    fn conflict(&mut self) {
        self.counters.conflicts += 1;
    }

    fn cache_hit(&mut self) {
        self.counters.cache_hits += 1;
    }

    fn cache_miss(&mut self) {
        self.counters.cache_misses += 1;
    }

    fn cache_insert(&mut self) {
        self.counters.cache_inserts += 1;
    }

    fn learned(&mut self, len: usize) {
        self.counters.learned += 1;
        self.counters.learned_lits += len as u64;
    }

    fn assumptions(&mut self, n: usize) {
        self.counters.assumptions += n as u64;
    }

    fn learnt_reused(&mut self, n: usize) {
        self.counters.learnt_reused += n as u64;
    }

    fn restart(&mut self) {
        self.counters.restarts += 1;
    }

    fn deadline_check(&mut self) {
        self.counters.deadline_checks += 1;
    }

    fn instance_end(&mut self, outcome: ProbeOutcome, wall: Duration) {
        self.outcome = Some(outcome);
        self.wall = wall;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive<P: Probe + ?Sized>(p: &mut P) {
        p.instance_begin(4, 9);
        p.assumptions(2);
        p.learnt_reused(5);
        p.decision(1);
        p.propagation();
        p.decision(2);
        p.conflict();
        p.backtrack(1);
        p.cache_miss();
        p.cache_insert();
        p.cache_hit();
        p.learned(3);
        p.restart();
        p.deadline_check();
        p.instance_end(ProbeOutcome::Unsat, Duration::from_micros(7));
    }

    #[test]
    fn counting_probe_tallies_every_event() {
        let mut p = CountingProbe::new();
        // Through `&mut dyn Probe`: the trait stays dyn-safe and events
        // reach the concrete probe behind the vtable.
        let dynp: &mut dyn Probe = &mut p;
        assert!(dynp.enabled());
        drive(dynp);
        assert_eq!(p.vars, 4);
        assert_eq!(p.clauses, 9);
        assert_eq!(p.outcome, Some(ProbeOutcome::Unsat));
        assert_eq!(p.wall, Duration::from_micros(7));
        let c = p.counters;
        assert_eq!(c.decisions, 2);
        assert_eq!(c.propagations, 1);
        assert_eq!(c.conflicts, 1);
        assert_eq!(c.backtracks, 1);
        assert_eq!(c.cache_hits, 1);
        assert_eq!(c.cache_misses, 1);
        assert_eq!(c.cache_inserts, 1);
        assert_eq!(c.learned, 1);
        assert_eq!(c.learned_lits, 3);
        assert_eq!(c.assumptions, 2);
        assert_eq!(c.learnt_reused, 5);
        assert_eq!(c.restarts, 1);
        assert_eq!(c.deadline_checks, 1);
        assert_eq!(c.max_depth, 2);
    }

    #[test]
    fn instance_begin_resets_counting_probe() {
        let mut p = CountingProbe::new();
        drive(&mut p);
        p.instance_begin(2, 3);
        assert_eq!(p.counters, Counters::default());
        assert_eq!(p.outcome, None);
        assert_eq!(p.vars, 2);
    }

    #[test]
    fn no_probe_is_disabled_and_zero_sized() {
        assert!(!NoProbe.enabled());
        assert_eq!(std::mem::size_of::<NoProbe>(), 0);
    }

    #[test]
    fn counters_add_sums_and_maxes_depth() {
        let mut a = Counters {
            decisions: 1,
            max_depth: 5,
            ..Counters::default()
        };
        let b = Counters {
            decisions: 2,
            conflicts: 4,
            max_depth: 3,
            ..Counters::default()
        };
        a.add(&b);
        assert_eq!(a.decisions, 3);
        assert_eq!(a.conflicts, 4);
        assert_eq!(a.max_depth, 5);
    }

    #[test]
    fn outcome_labels_round_trip() {
        for o in [
            ProbeOutcome::Sat,
            ProbeOutcome::Unsat,
            ProbeOutcome::Aborted,
        ] {
            assert_eq!(ProbeOutcome::from_label(o.label()), Some(o));
        }
        assert_eq!(ProbeOutcome::from_label("bogus"), None);
    }
}
