//! Solver outcomes, statistics and resource budgets.

use std::fmt;
use std::time::{Duration, Instant};

/// The verdict of a solve call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Satisfiable, with a complete model indexed by variable.
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
    /// The solver hit its [`Limits`] budget before deciding.
    Aborted,
}

impl Outcome {
    /// Whether the outcome is [`Outcome::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, Outcome::Sat(_))
    }

    /// Whether the outcome is [`Outcome::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, Outcome::Unsat)
    }

    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&[bool]> {
        match self {
            Outcome::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// Machine-independent work counters gathered during a solve.
///
/// `nodes` is the quantity Theorem 4.1 bounds for
/// [`CachingBacktracking`](crate::CachingBacktracking): the number of
/// backtracking-tree nodes expanded (one per variable assignment tried).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Backtracking-tree nodes expanded / decisions made.
    pub nodes: u64,
    /// Decision variables branched on (CDCL/DPLL terminology).
    pub decisions: u64,
    /// Literals set by unit propagation.
    pub propagations: u64,
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Sub-formula cache hits (caching backtracking only).
    pub cache_hits: u64,
    /// Entries resident in the sub-formula cache at the end.
    pub cache_entries: u64,
    /// Learnt clauses currently in the database (CDCL only).
    pub learnt_clauses: u64,
    /// Restarts performed (CDCL only).
    pub restarts: u64,
}

impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nodes={} decisions={} props={} conflicts={} cache_hits={}",
            self.nodes, self.decisions, self.propagations, self.conflicts, self.cache_hits
        )
    }
}

/// A completed solve: outcome plus statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// SAT / UNSAT / aborted.
    pub outcome: Outcome,
    /// Work performed.
    pub stats: SolverStats,
}

/// Resource budget. A solver that exhausts a budget returns
/// [`Outcome::Aborted`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Limits {
    /// Maximum backtracking nodes / decisions, `None` = unlimited.
    pub max_nodes: Option<u64>,
    /// Maximum conflicts (CDCL), `None` = unlimited.
    pub max_conflicts: Option<u64>,
    /// Wall-clock deadline for one solve call, `None` = unlimited. Unlike
    /// the node/conflict budgets this is machine-dependent; campaign
    /// engines use it so one pathological instance cannot stall a worker
    /// thread indefinitely.
    pub max_wall: Option<Duration>,
}

impl Limits {
    /// No limits: run to completion.
    pub fn none() -> Self {
        Limits::default()
    }

    /// Limit backtracking nodes / decisions.
    pub fn nodes(max: u64) -> Self {
        Limits {
            max_nodes: Some(max),
            ..Limits::default()
        }
    }

    /// Limit conflicts.
    pub fn conflicts(max: u64) -> Self {
        Limits {
            max_conflicts: Some(max),
            ..Limits::default()
        }
    }

    /// Limit wall-clock time per solve call.
    pub fn wall(max: Duration) -> Self {
        Limits {
            max_wall: Some(max),
            ..Limits::default()
        }
    }

    /// Adds a wall-clock deadline to an existing budget.
    pub fn with_wall(mut self, max: Duration) -> Self {
        self.max_wall = Some(max);
        self
    }

    /// The tighter of `self` and a wall budget of `max`: keeps any
    /// existing `max_wall` that is already stricter. Serving layers use
    /// this to map the remainder of a per-request deadline onto each
    /// solve call without loosening a budget the request asked for.
    #[must_use]
    pub fn clamp_wall(mut self, max: Duration) -> Self {
        self.max_wall = Some(match self.max_wall {
            Some(w) => w.min(max),
            None => max,
        });
        self
    }
}

/// How many [`Deadline::expired`] ticks elapse between actual clock reads.
const DEADLINE_CHECK_INTERVAL: u32 = 512;

/// Amortized wall-clock deadline checker.
///
/// Solvers tick this once per backtracking node (and CDCL additionally
/// once per propagation pass); the tick only reads the clock every
/// `DEADLINE_CHECK_INTERVAL` calls, so enforcement costs a decrement on
/// the hot path. The very first tick always reads the clock, so an
/// already-expired deadline (e.g. `Duration::ZERO`, or a campaign budget
/// spent before this solve started) aborts before any work is done; only
/// subsequent checks are amortized. With no `max_wall` configured every
/// call is a single branch on `None`.
#[derive(Debug, Clone)]
pub struct Deadline {
    deadline: Option<Instant>,
    countdown: u32,
    hit: bool,
}

impl Deadline {
    /// Starts the clock for one solve call under `limits`.
    pub fn start(limits: &Limits) -> Self {
        Deadline {
            deadline: limits.max_wall.map(|d| Instant::now() + d),
            // Force a clock read on the first tick: an already-expired
            // deadline must not get DEADLINE_CHECK_INTERVAL free nodes.
            countdown: 1,
            hit: false,
        }
    }

    /// Ticks the checker; `true` once the deadline has passed (and on
    /// every tick thereafter, so recursive solvers unwind promptly).
    ///
    /// Only every `DEADLINE_CHECK_INTERVAL`-th call consults the clock,
    /// so expiry is detected within that many ticks of the true instant.
    #[inline]
    pub fn expired(&mut self) -> bool {
        let Some(deadline) = self.deadline else {
            return false;
        };
        if self.hit {
            return true;
        }
        self.countdown -= 1;
        if self.countdown > 0 {
            return false;
        }
        self.countdown = DEADLINE_CHECK_INTERVAL;
        self.hit = Instant::now() >= deadline;
        self.hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accessors() {
        let sat = Outcome::Sat(vec![true]);
        assert!(sat.is_sat());
        assert!(!sat.is_unsat());
        assert_eq!(sat.model(), Some(&[true][..]));
        assert!(Outcome::Unsat.is_unsat());
        assert_eq!(Outcome::Unsat.model(), None);
        assert!(!Outcome::Aborted.is_sat());
    }

    #[test]
    fn limits_constructors() {
        assert_eq!(Limits::none().max_nodes, None);
        assert_eq!(Limits::nodes(10).max_nodes, Some(10));
        assert_eq!(Limits::conflicts(5).max_conflicts, Some(5));
        assert_eq!(
            Limits::wall(Duration::from_millis(7)).max_wall,
            Some(Duration::from_millis(7))
        );
        let combined = Limits::nodes(10).with_wall(Duration::from_secs(1));
        assert_eq!(combined.max_nodes, Some(10));
        assert_eq!(combined.max_wall, Some(Duration::from_secs(1)));
    }

    #[test]
    fn deadline_without_wall_never_expires() {
        let mut d = Deadline::start(&Limits::nodes(3));
        for _ in 0..10_000 {
            assert!(!d.expired());
        }
    }

    #[test]
    fn deadline_expires_and_stays_expired() {
        let mut d = Deadline::start(&Limits::wall(Duration::ZERO));
        assert!(
            d.expired(),
            "an already-expired deadline must fire on the first tick"
        );
        assert!(d.expired(), "expiry is sticky");
        assert!(d.expired());
    }

    #[test]
    fn deadline_first_check_is_not_amortized() {
        // A generous deadline: the first tick reads the clock and sees it
        // has not passed; the following ticks are amortized (no clock
        // read) and must also report not-expired.
        let mut d = Deadline::start(&Limits::wall(Duration::from_secs(3600)));
        for _ in 0..DEADLINE_CHECK_INTERVAL {
            assert!(!d.expired());
        }
    }

    #[test]
    fn stats_display() {
        let s = SolverStats {
            nodes: 3,
            ..Default::default()
        };
        assert!(s.to_string().contains("nodes=3"));
    }
}
