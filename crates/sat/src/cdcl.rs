//! CDCL: conflict-driven clause learning.
//!
//! A MiniSat-style solver — two-watched-literal propagation, first-UIP
//! conflict analysis, VSIDS variable activities with phase saving, Luby
//! restarts, and activity-based learnt-clause deletion. It stands in for
//! the engineered SAT engine inside TEGUS in the Figure-1 reproduction:
//! the paper's point is precisely that such solvers dispatch almost all
//! ATPG-SAT instances instantly.
//!
//! Two front-ends share the engine: [`Cdcl`] solves one formula from a
//! cold start, and [`IncrementalCdcl`] keeps the clause database, learnt
//! clauses, activities and saved phases alive across
//! [`IncrementalCdcl::solve_assuming`] calls — the MiniSat incremental
//! interface that TEGUS-style ATPG uses to solve thousands of per-fault
//! instances against one persistent solver.

use std::collections::BinaryHeap;
use std::time::Instant;

use atpg_easy_cnf::{CnfFormula, Lit, Var};

use crate::{
    probe_outcome, simple::splitmix64, Deadline, Limits, NoProbe, NoProof, Outcome, Probe,
    ProofSink, Solution, Solver, SolverStats,
};

const VAR_DECAY: f64 = 0.95;
const CLA_DECAY: f64 = 0.999;
const RESCALE_LIMIT: f64 = 1e100;
const RESTART_BASE: u64 = 64;

/// Conflict-driven clause-learning SAT solver.
///
/// One engine serves every [`Solver::solve`] call: each solve resets it
/// to a new engine's state, keeping the capacity of its buffers, so a
/// campaign that solves thousands of small instances allocates for the
/// largest one, not for each.
#[derive(Clone, Default)]
pub struct Cdcl {
    limits: Limits,
    stats: SolverStats,
    engine: Engine,
}

impl Cdcl {
    /// Solver with default configuration and no limits.
    pub fn new() -> Self {
        Cdcl::default()
    }

    /// Sets a resource budget (conflicts and/or decisions).
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }
}

impl std::fmt::Debug for Cdcl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cdcl")
            .field("limits", &self.limits)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// Where a clause's literals sit in the engine's arena, and its
/// learnt-clause bookkeeping.
#[derive(Debug, Clone)]
struct ClauseHeader {
    start: usize,
    len: usize,
    learnt: bool,
    activity: f64,
    deleted: bool,
}

impl ClauseHeader {
    fn range(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.len
    }
}

/// The solver state. [`Engine::reset`] defines a new engine; everything
/// else only moves from there.
#[derive(Clone, Default)]
struct Engine {
    /// The literals of every clause, problem and learnt, one clause after
    /// another in the order they were attached. A deleted learnt clause
    /// keeps its place.
    arena: Vec<Lit>,
    clauses: Vec<ClauseHeader>,
    /// Per literal code: indices of clauses currently watching that
    /// literal. Lists past `2 * num_vars` are empty leftovers of a larger
    /// earlier instance, kept for their capacity.
    watches: Vec<Vec<usize>>,
    assign: Vec<Option<bool>>,
    level: Vec<u32>,
    reason: Vec<Option<usize>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    /// Retired variables: every clause mentioning them is permanently
    /// satisfied at level 0 (e.g. an activation-clamped fault cone), so
    /// they are never decided and models complete them from the saved
    /// phase. Only [`IncrementalCdcl::retire_vars`] sets this.
    dead: Vec<bool>,
    var_inc: f64,
    cla_inc: f64,
    /// Max-heap of `(activity bits, variable index ^ tie)`, with lazy
    /// entries: `decide` skips assigned ones.
    heap: BinaryHeap<(u64, u32)>,
    /// XORed into every variable index the heap holds, so activity ties
    /// pop the lowest index first at `u32::MAX` (a one-shot solve) and
    /// the highest at 0 (the warm engine).
    tie: u32,
    phase: Vec<bool>,
    stats: SolverStats,
    num_learnt: usize,
    num_problem: usize,
    max_learnt: usize,
    /// Per-variable marks of `analyze` and `analyze_final`; all false
    /// between calls.
    seen: Vec<bool>,
    /// Per-variable marks of one `lit_redundant` call, listed in
    /// `visited_vars`; all false between calls.
    visited: Vec<bool>,
    visited_vars: Vec<usize>,
    /// The reason clauses `lit_redundant` still has to expand.
    stack: Vec<usize>,
    /// The clause `analyze` learnt, asserting literal first.
    learnt: Vec<Lit>,
}

/// The Luby restart sequence: 1,1,2,1,1,2,4,...
fn luby(mut i: u64) -> u64 {
    loop {
        // Find the subsequence containing i.
        let mut k = 1u32;
        while (1u64 << k) - 1 < i + 1 {
            k += 1;
        }
        if (1u64 << k) - 1 == i + 1 {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
    }
}

/// Sets `v` to `n` copies of `value`, keeping its capacity.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, value: T) {
    v.clear();
    v.resize(n, value);
}

impl Engine {
    fn with_vars(n: usize) -> Self {
        let mut e = Engine::default();
        e.reset(n, 0);
        e
    }

    /// Puts the engine into the state of a new engine over `n` variables
    /// with no clauses, breaking activity ties by `tie` (see
    /// [`Engine::tie`]). Only the buffers' capacity survives, so a reused
    /// engine searches exactly as a new one would.
    fn reset(&mut self, n: usize, tie: u32) {
        self.arena.clear();
        self.clauses.clear();
        self.watches.iter_mut().for_each(Vec::clear);
        if self.watches.len() < 2 * n {
            self.watches.resize_with(2 * n, Vec::new);
        }
        refill(&mut self.assign, n, None);
        refill(&mut self.level, n, 0);
        refill(&mut self.reason, n, None);
        self.trail.clear();
        self.trail_lim.clear();
        self.qhead = 0;
        refill(&mut self.activity, n, 0.0);
        refill(&mut self.dead, n, false);
        self.var_inc = 1.0;
        self.cla_inc = 1.0;
        self.heap.clear();
        self.heap.extend((0..n as u32).map(|v| (0u64, v ^ tie)));
        self.tie = tie;
        refill(&mut self.phase, n, false);
        self.stats = SolverStats::default();
        self.num_learnt = 0;
        self.num_problem = 0;
        self.max_learnt = 2000;
        refill(&mut self.seen, n, false);
        refill(&mut self.visited, n, false);
        self.visited_vars.clear();
        self.stack.clear();
        self.learnt.clear();
    }

    /// Extends the engine to `n` variables; existing state is untouched.
    fn grow_to(&mut self, n: usize) {
        let old = self.assign.len();
        if n <= old {
            return;
        }
        if self.watches.len() < 2 * n {
            self.watches.resize_with(2 * n, Vec::new);
        }
        self.assign.resize(n, None);
        self.level.resize(n, 0);
        self.reason.resize(n, None);
        self.activity.resize(n, 0.0);
        self.dead.resize(n, false);
        self.phase.resize(n, false);
        self.seen.resize(n, false);
        self.visited.resize(n, false);
        for v in old..n {
            self.heap.push((0u64, v as u32 ^ self.tie));
        }
    }

    fn value(&self, l: Lit) -> Option<bool> {
        self.assign[l.var().index()].map(|v| v == l.asserted_value())
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Enqueues `l` as true. Returns false if it contradicts the current
    /// assignment.
    fn enqueue(&mut self, l: Lit, from: Option<usize>) -> bool {
        match self.value(l) {
            Some(v) => v,
            None => {
                let vi = l.var().index();
                self.assign[vi] = Some(l.asserted_value());
                self.level[vi] = self.decision_level();
                self.reason[vi] = from;
                self.phase[vi] = l.asserted_value();
                self.trail.push(l);
                true
            }
        }
    }

    /// Two-watched-literal unit propagation. Returns a conflicting clause
    /// index if a conflict arises.
    fn propagate<P: Probe + ?Sized>(&mut self, probe: &mut P) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;
            let mut list = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            while i < list.len() {
                let ci = list[i];
                let c = &self.clauses[ci];
                if c.deleted {
                    list.swap_remove(i);
                    continue;
                }
                let (start, end) = (c.start, c.start + c.len);
                // Make sure the falsified literal is the second one.
                if self.arena[start] == false_lit {
                    self.arena.swap(start, start + 1);
                }
                let first = self.arena[start];
                if self.value(first) == Some(true) {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                for k in start + 2..end {
                    let cand = self.arena[k];
                    if self.value(cand) != Some(false) {
                        self.arena.swap(start + 1, k);
                        self.watches[cand.code()].push(ci);
                        list.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting on `first`.
                if self.value(first) == Some(false) {
                    self.watches[false_lit.code()] = list;
                    return Some(ci);
                }
                self.stats.propagations += 1;
                probe.propagation();
                self.enqueue(first, Some(ci));
                i += 1;
            }
            self.watches[false_lit.code()] = list;
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1.0 / RESCALE_LIMIT;
            }
            self.var_inc *= 1.0 / RESCALE_LIMIT;
        }
        self.heap.push((
            self.activity[v.index()].to_bits(),
            v.index() as u32 ^ self.tie,
        ));
    }

    fn bump_clause(&mut self, ci: usize) {
        self.clauses[ci].activity += self.cla_inc;
        if self.clauses[ci].activity > RESCALE_LIMIT {
            for c in &mut self.clauses {
                c.activity *= 1.0 / RESCALE_LIMIT;
            }
            self.cla_inc *= 1.0 / RESCALE_LIMIT;
        }
    }

    /// First-UIP conflict analysis. Leaves the learnt clause (asserting
    /// literal first) in `learnt` and returns the backjump level.
    fn analyze(&mut self, mut confl: usize) -> u32 {
        self.learnt.clear();
        self.learnt.push(Lit::from_code(0)); // the asserting slot
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut idx = self.trail.len();
        let cur_level = self.decision_level();
        loop {
            self.bump_clause(confl);
            for k in self.clauses[confl].range() {
                let q = self.arena[k];
                if Some(q) == p {
                    continue;
                }
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] == cur_level {
                        counter += 1;
                    } else {
                        self.learnt.push(q);
                    }
                }
            }
            // Walk back the trail to the next marked literal.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().index()] {
                    break;
                }
            }
            let pl = self.trail[idx];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            p = Some(pl);
            if counter == 0 {
                break;
            }
            confl = self.reason[pl.var().index()].expect("non-decision has a reason");
        }
        self.learnt[0] = !p.expect("loop ran at least once");
        // Conflict-clause minimization (MiniSat-style self-subsumption):
        // drop any non-asserting literal whose reason is entirely implied
        // by the other clause literals. `seen` marks exactly the
        // non-asserting literals' variables until every one is checked;
        // the kept ones move to the front in order.
        let mut kept = 1;
        for i in 1..self.learnt.len() {
            if !self.lit_redundant(self.learnt[i]) {
                self.learnt.swap(kept, i);
                kept += 1;
            }
        }
        for i in 1..self.learnt.len() {
            self.seen[self.learnt[i].var().index()] = false;
        }
        self.learnt.truncate(kept);
        // Backjump level: highest level among the non-asserting literals.
        self.learnt[1..]
            .iter()
            .map(|l| self.level[l.var().index()])
            .max()
            .unwrap_or(0)
    }

    /// Whether `l` is redundant in the learnt clause: every literal in its
    /// reason chain is either at level 0 or already marked in `seen`
    /// (i.e. in the clause). Conservative: a decision literal outside the
    /// clause makes the chain non-redundant.
    fn lit_redundant(&mut self, l: Lit) -> bool {
        let Some(reason0) = self.reason[l.var().index()] else {
            return false; // decision literal: cannot be resolved away
        };
        self.stack.push(reason0);
        let mut ok = true;
        'outer: while let Some(ci) = self.stack.pop() {
            for k in self.clauses[ci].range() {
                let q = self.arena[k];
                let vi = q.var().index();
                if q.var() == l.var() || self.level[vi] == 0 || self.seen[vi] || self.visited[vi] {
                    continue;
                }
                match self.reason[vi] {
                    Some(r) => {
                        self.visited[vi] = true;
                        self.visited_vars.push(vi);
                        self.stack.push(r);
                    }
                    None => {
                        ok = false;
                        break 'outer;
                    }
                }
            }
        }
        self.stack.clear();
        for vi in self.visited_vars.drain(..) {
            self.visited[vi] = false;
        }
        ok
    }

    /// Final-conflict analysis for a falsified assumption `p` (MiniSat's
    /// `analyzeFinal`): walks reasons backwards over the above-level-0
    /// trail, expanding implied literals through their reason clauses and
    /// keeping decisions — which, during assumption establishment, are
    /// exactly the previously-enqueued assumptions. Returns `p` together
    /// with the subset of assumption literals whose conjunction already
    /// contradicts `p`.
    fn analyze_final(&mut self, p: Lit) -> Vec<Lit> {
        let mut out = vec![p];
        if self.decision_level() == 0 {
            return out;
        }
        self.seen[p.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let l = self.trail[i];
            let vi = l.var().index();
            if !self.seen[vi] {
                continue;
            }
            match self.reason[vi] {
                None => out.push(l),
                Some(ci) => {
                    for k in self.clauses[ci].range() {
                        let q = self.arena[k];
                        if self.level[q.var().index()] > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
            }
            // Reason literals sit earlier on the trail, so no later
            // step reads this mark again.
            self.seen[vi] = false;
        }
        self.seen[p.var().index()] = false;
        out
    }

    fn cancel_until(&mut self, level: u32) {
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().expect("level > 0");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("trail non-empty");
                let vi = l.var().index();
                self.assign[vi] = None;
                self.reason[vi] = None;
                self.heap
                    .push((self.activity[vi].to_bits(), vi as u32 ^ self.tie));
            }
        }
        self.qhead = self.trail.len();
    }

    /// Copies `lits` into the arena, watches its first two literals and
    /// returns the clause index; the caller guarantees `lits.len() >= 2`.
    fn attach(&mut self, lits: &[Lit], learnt: bool) -> usize {
        debug_assert!(lits.len() >= 2);
        let ci = self.clauses.len();
        self.watches[lits[0].code()].push(ci);
        self.watches[lits[1].code()].push(ci);
        self.clauses.push(ClauseHeader {
            start: self.arena.len(),
            len: lits.len(),
            learnt,
            activity: 0.0,
            deleted: false,
        });
        self.arena.extend_from_slice(lits);
        if learnt {
            self.num_learnt += 1;
        } else {
            self.num_problem += 1;
        }
        ci
    }

    /// Adds the clause [`Engine::analyze`] left in `learnt`, after the
    /// backjump: a unit is enqueued as a fact, a longer clause is
    /// attached, bumped and made the reason of its asserting literal.
    fn learn(&mut self) {
        let asserting = self.learnt[0];
        if self.learnt.len() == 1 {
            self.enqueue(asserting, None);
        } else {
            let learnt = std::mem::take(&mut self.learnt);
            let ci = self.attach(&learnt, true);
            self.learnt = learnt;
            self.bump_clause(ci);
            self.enqueue(asserting, Some(ci));
        }
    }

    /// Deletes low-activity learnt clauses that are not currently
    /// reasons, emitting one DRAT deletion per clause dropped.
    fn reduce_db<S: ProofSink + ?Sized>(&mut self, sink: &mut S) {
        let mut learnt: Vec<usize> = (0..self.clauses.len())
            .filter(|&ci| {
                let c = &self.clauses[ci];
                c.learnt && !c.deleted && c.len > 2
            })
            .collect();
        learnt.sort_by(|&a, &b| {
            self.clauses[a]
                .activity
                .partial_cmp(&self.clauses[b].activity)
                .expect("activities are finite")
        });
        let locked: Vec<bool> = learnt
            .iter()
            .map(|&ci| {
                let l = self.arena[self.clauses[ci].start];
                self.reason[l.var().index()] == Some(ci) && self.assign[l.var().index()].is_some()
            })
            .collect();
        let target = learnt.len() / 2;
        let mut removed = 0usize;
        for (k, &ci) in learnt.iter().enumerate() {
            if removed >= target {
                break;
            }
            if locked[k] {
                continue;
            }
            self.clauses[ci].deleted = true;
            self.num_learnt -= 1;
            removed += 1;
            if sink.enabled() {
                sink.delete_clause(&self.arena[self.clauses[ci].range()]);
            }
        }
        // Deleted clauses are purged from watch lists lazily in propagate().
    }

    fn decide(&mut self) -> Option<Var> {
        while let Some((_, key)) = self.heap.pop() {
            let v = (key ^ self.tie) as usize;
            if self.assign[v].is_none() && !self.dead[v] {
                return Some(Var::from_index(v));
            }
        }
        // Fallback: linear scan (heap entries are lazy and may run out).
        self.assign
            .iter()
            .zip(&self.dead)
            .position(|(a, &dead)| a.is_none() && !dead)
            .map(Var::from_index)
    }
}

/// What one `search` call concluded.
enum SearchResult {
    Sat(Vec<bool>),
    /// UNSAT independent of assumptions: a level-0 conflict.
    Unsat,
    /// The assumptions contradict the clause database; carries the
    /// failing subset from [`Engine::analyze_final`].
    AssumptionsFailed(Vec<Lit>),
    Aborted,
}

/// Loads `formula`'s clauses into `e`. Returns false on an immediate
/// level-0 contradiction (empty clause or conflicting units).
fn load_formula(e: &mut Engine, formula: &CnfFormula) -> bool {
    for clause in formula.clauses() {
        match clause.len() {
            0 => return false,
            1 => {
                if !e.enqueue(clause[0], None) {
                    return false;
                }
            }
            _ => {
                e.attach(clause, false);
            }
        }
    }
    true
}

/// The CDCL main loop, generic over the probe so `solve()` monomorphizes
/// it away at [`NoProbe`]. Assumptions are established one per decision
/// level before any free decision (MiniSat style), so a restart replays
/// them and conflict analysis can never resolve on them — they have no
/// reason clause, which keeps every learnt clause a consequence of the
/// clause database alone and therefore sound across future calls with
/// different assumptions. Returns with the trail still extended; callers
/// cancel back to level 0 themselves.
fn search<P: Probe + ?Sized, S: ProofSink + ?Sized>(
    e: &mut Engine,
    assumptions: &[Lit],
    limits: &Limits,
    probe: &mut P,
    sink: &mut S,
) -> SearchResult {
    let mut restart_count: u64 = 0;
    let mut conflicts_until_restart = RESTART_BASE * luby(0);
    let mut conflicts_this_restart: u64 = 0;
    let mut deadline = Deadline::start(limits);

    loop {
        // One tick per main-loop iteration: each iteration performs one
        // bounded propagation pass plus either one conflict analysis or
        // one decision, so the clock is consulted often enough.
        probe.deadline_check();
        if deadline.expired() {
            return SearchResult::Aborted;
        }
        if let Some(confl) = e.propagate(probe) {
            e.stats.conflicts += 1;
            probe.conflict();
            conflicts_this_restart += 1;
            if let Some(max) = limits.max_conflicts {
                if e.stats.conflicts > max {
                    return SearchResult::Aborted;
                }
            }
            if e.decision_level() == 0 {
                // Conflict from level-0 propagation alone: the empty
                // clause is RUP over the database.
                sink.add_clause(&[]);
                return SearchResult::Unsat;
            }
            let bt_level = e.analyze(confl);
            e.cancel_until(bt_level);
            probe.backtrack(bt_level as usize);
            probe.learned(e.learnt.len());
            // 1UIP clauses (with self-subsumption minimization) are RUP
            // in emission order — the standard CDCL proof-logging fact.
            sink.add_clause(&e.learnt);
            e.learn();
            e.var_inc /= VAR_DECAY;
            e.cla_inc /= CLA_DECAY;
            if e.num_learnt > e.max_learnt {
                e.reduce_db(sink);
                e.max_learnt += e.max_learnt / 10;
            }
        } else {
            // No conflict.
            if conflicts_this_restart >= conflicts_until_restart {
                restart_count += 1;
                e.stats.restarts = restart_count;
                probe.restart();
                conflicts_this_restart = 0;
                conflicts_until_restart = RESTART_BASE * luby(restart_count);
                e.cancel_until(0);
                continue;
            }
            // Establish pending assumptions: assumption i lives at
            // decision level i+1. An already-true assumption gets an
            // empty dummy level so the index invariant survives
            // backjumps; a false one means the database refutes the
            // assumption set. Assumptions are not counted as decisions —
            // they are inputs, not search effort.
            let mut enqueued_assumption = false;
            while (e.decision_level() as usize) < assumptions.len() {
                let p = assumptions[e.decision_level() as usize];
                match e.value(p) {
                    Some(true) => e.trail_lim.push(e.trail.len()),
                    Some(false) => {
                        let failing = e.analyze_final(p);
                        if sink.enabled() {
                            // The failing-subset clause {¬l : l ∈ failing}
                            // is RUP: asserting the subset propagates the
                            // reason chains analyze_final walked back to
                            // the contradiction on `p`.
                            let clause: Vec<Lit> = failing.iter().map(|&l| !l).collect();
                            sink.add_clause(&clause);
                        }
                        return SearchResult::AssumptionsFailed(failing);
                    }
                    None => {
                        e.trail_lim.push(e.trail.len());
                        e.enqueue(p, None);
                        enqueued_assumption = true;
                        break;
                    }
                }
            }
            if enqueued_assumption {
                continue;
            }
            match e.decide() {
                None => {
                    // Complete assignment: SAT. Retired variables stay
                    // unassigned (their clauses are all level-0
                    // satisfied) and take their saved phase.
                    let model: Vec<bool> = e
                        .assign
                        .iter()
                        .zip(&e.phase)
                        .map(|(v, &ph)| v.unwrap_or(ph))
                        .collect();
                    sink.model(&model);
                    return SearchResult::Sat(model);
                }
                Some(v) => {
                    e.stats.decisions += 1;
                    e.stats.nodes += 1;
                    probe.decision(e.decision_level() as usize);
                    if let Some(max) = limits.max_nodes {
                        if e.stats.nodes > max {
                            return SearchResult::Aborted;
                        }
                    }
                    let phase = e.phase[v.index()];
                    e.trail_lim.push(e.trail.len());
                    e.enqueue(Lit::with_value(v, phase), None);
                }
            }
        }
    }
}

/// The saved phases a one-shot solve starts from: the top bit of a hash
/// of each variable's index and a seed taken from the formula's size.
/// Each instance starts from its own random-like vector, and the start
/// stays a function of the formula alone.
fn seed_phases(phase: &mut [bool], formula: &CnfFormula) {
    let size = [
        formula.num_vars(),
        formula.num_clauses(),
        formula.num_literals(),
    ];
    let seed = size.iter().fold(0, |h, &x| splitmix64(h ^ x as u64));
    for (v, p) in phase.iter_mut().enumerate() {
        *p = splitmix64(seed ^ v as u64) >> 63 == 1;
    }
}

/// One-shot front-end: `e` reset to a new engine for `formula`, no
/// assumptions. Activity ties go to the lowest index, so with a circuit
/// numbered inputs first the search decides primary inputs first and
/// lets propagation set the rest, each from its [`seed_phases`] phase.
fn run<P: Probe + ?Sized, S: ProofSink + ?Sized>(
    e: &mut Engine,
    formula: &CnfFormula,
    limits: &Limits,
    probe: &mut P,
    sink: &mut S,
) -> Solution {
    e.reset(formula.num_vars(), u32::MAX);
    seed_phases(&mut e.phase, formula);
    e.max_learnt = (formula.num_clauses() / 3).max(2000);
    if !load_formula(e, formula) {
        // An empty clause or contradictory units in the formula itself:
        // the empty clause is RUP over the axioms by unit propagation.
        sink.add_clause(&[]);
        return Solution {
            outcome: Outcome::Unsat,
            stats: e.stats,
        };
    }
    let result = search(e, &[], limits, probe, sink);
    e.stats.learnt_clauses = e.num_learnt as u64;
    let outcome = match result {
        SearchResult::Sat(model) => {
            debug_assert!(formula.eval_complete(&model));
            Outcome::Sat(model)
        }
        SearchResult::Unsat => Outcome::Unsat,
        SearchResult::AssumptionsFailed(_) => unreachable!("no assumptions passed"),
        SearchResult::Aborted => Outcome::Aborted,
    };
    Solution {
        outcome,
        stats: e.stats,
    }
}

impl Cdcl {
    fn solve_with<P: Probe + ?Sized, S: ProofSink + ?Sized>(
        &mut self,
        formula: &CnfFormula,
        probe: &mut P,
        sink: &mut S,
    ) -> Solution {
        // Reset the persistent counters so a reused solver starts clean.
        self.stats = SolverStats::default();
        let start = probe.enabled().then(Instant::now);
        probe.instance_begin(formula.num_vars(), formula.num_clauses());
        let solution = run(&mut self.engine, formula, &self.limits, probe, sink);
        self.stats = solution.stats;
        probe.instance_end(
            probe_outcome(&solution.outcome),
            start.map(|s| s.elapsed()).unwrap_or_default(),
        );
        solution
    }
}

impl Solver for Cdcl {
    fn solve(&mut self, formula: &CnfFormula) -> Solution {
        self.solve_with(formula, &mut NoProbe, &mut NoProof)
    }

    fn solve_probed(&mut self, formula: &CnfFormula, probe: &mut dyn Probe) -> Solution {
        self.solve_with(formula, probe, &mut NoProof)
    }

    fn solve_certified(
        &mut self,
        formula: &CnfFormula,
        probe: &mut dyn Probe,
        sink: &mut dyn ProofSink,
    ) -> Solution {
        // Dispatch on the sink once: the disabled case re-monomorphizes
        // at the `NoProof` ZST so proof hooks compile away exactly as in
        // `solve_probed`, instead of paying a vtable `enabled()` check
        // per emission site.
        if sink.enabled() {
            self.solve_with(formula, probe, sink)
        } else {
            self.solve_probed(formula, probe)
        }
    }

    fn set_limits(&mut self, limits: Limits) {
        self.limits = limits;
    }

    fn stats(&self) -> SolverStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "cdcl"
    }
}

/// Incremental CDCL with solving under assumptions.
///
/// The engine — clause database, learnt clauses, variable activities,
/// saved phases — persists across [`IncrementalCdcl::solve_assuming`]
/// calls. Clauses may be added between solves with
/// [`IncrementalCdcl::add_clause`]; variables grow on demand. Learnt
/// clauses are consequences of the clause database alone (assumptions
/// are never resolution pivots, see `search`), so everything learnt
/// while solving one fault's assumptions remains valid for the next
/// fault's disjoint assumption set — the warm-start effect the
/// incremental fault campaign measures.
pub struct IncrementalCdcl {
    engine: Engine,
    limits: Limits,
    stats: SolverStats,
    failed: Vec<Lit>,
    /// Latched false once the clause database itself is UNSAT (a level-0
    /// conflict or an empty clause); every later solve is UNSAT.
    ok: bool,
    /// The clause `add_clause` is normalizing.
    clause: Vec<Lit>,
}

impl IncrementalCdcl {
    /// An empty incremental solver over `num_vars` variables (more may
    /// be added later with [`IncrementalCdcl::new_var`] or implicitly by
    /// [`IncrementalCdcl::add_clause`]).
    pub fn new(num_vars: usize) -> Self {
        IncrementalCdcl {
            engine: Engine::with_vars(num_vars),
            limits: Limits::default(),
            stats: SolverStats::default(),
            failed: Vec::new(),
            ok: true,
            clause: Vec::new(),
        }
    }

    /// Sets a per-solve resource budget.
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Replaces the per-solve resource budget on a live solver. Unlike
    /// [`IncrementalCdcl::with_limits`] this keeps the warm clause
    /// database: serving layers tighten `max_wall` between solves as a
    /// request deadline approaches.
    pub fn set_limits(&mut self, limits: Limits) {
        self.limits = limits;
    }

    /// Number of variables the solver currently knows about.
    pub fn num_vars(&self) -> usize {
        self.engine.assign.len()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let n = self.engine.assign.len();
        self.engine.grow_to(n + 1);
        Var::from_index(n)
    }

    /// Ensures the solver knows about at least `n` variables.
    pub fn grow_to(&mut self, n: usize) {
        self.engine.grow_to(n);
    }

    /// Adds a clause to the persistent database. Returns false when the
    /// database became unsatisfiable (the clause simplified to empty
    /// under the level-0 assignment); the solver stays usable but every
    /// later solve reports UNSAT.
    ///
    /// The clause is normalized the way [`CnfFormula::add_clause`]
    /// normalizes: sorted, deduplicated, tautologies dropped. Literals
    /// already false at level 0 are removed; a clause with a literal
    /// already true at level 0 is dropped as satisfied.
    pub fn add_clause(&mut self, clause: impl AsRef<[Lit]>) -> bool {
        if !self.ok {
            return false;
        }
        debug_assert_eq!(self.engine.decision_level(), 0);
        let lits = &mut self.clause;
        lits.clear();
        lits.extend_from_slice(clause.as_ref());
        if let Some(max_var) = lits.iter().map(|l| l.var().index()).max() {
            self.engine.grow_to(max_var + 1);
        }
        lits.sort_unstable_by_key(|l| l.code());
        lits.dedup();
        // Tautology: after sorting, opposite literals of a variable are
        // adjacent.
        if lits.windows(2).any(|w| w[0].var() == w[1].var()) {
            return true;
        }
        lits.retain(|&l| self.engine.value(l) != Some(false));
        if lits.iter().any(|&l| self.engine.value(l) == Some(true)) {
            return true;
        }
        match lits.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                // Unit at level 0; propagation happens at the start of
                // the next solve.
                if !self.engine.enqueue(lits[0], None) {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.engine.attach(lits, false);
                true
            }
        }
    }

    /// Adds every clause of `formula`, growing to its variable count
    /// first so variable indices line up. Returns false when the
    /// database became unsatisfiable.
    pub fn add_formula(&mut self, formula: &CnfFormula) -> bool {
        self.engine.grow_to(formula.num_vars());
        let mut ok = true;
        for clause in formula.clauses() {
            ok &= self.add_clause(clause);
        }
        ok
    }

    /// Solves the accumulated database under `assumptions`. `Unsat`
    /// means the database together with the assumptions is
    /// unsatisfiable; [`IncrementalCdcl::failed_assumptions`]
    /// distinguishes an assumption-dependent refutation (non-empty
    /// subset) from a globally UNSAT database (empty).
    pub fn solve_assuming(&mut self, assumptions: &[Lit]) -> Solution {
        self.solve_assuming_with(assumptions, &mut NoProbe, &mut NoProof)
    }

    /// [`IncrementalCdcl::solve_assuming`] with a dyn probe attached.
    pub fn solve_assuming_probed(
        &mut self,
        assumptions: &[Lit],
        probe: &mut dyn Probe,
    ) -> Solution {
        self.solve_assuming_with(assumptions, probe, &mut NoProof)
    }

    /// [`IncrementalCdcl::solve_assuming`] with both a probe and a
    /// proof sink: learnt clauses, deletions and — on an
    /// assumption-caused UNSAT — the failing-subset clause
    /// `{¬l : l ∈ failed_assumptions}` stream into `sink`.
    pub fn solve_assuming_certified(
        &mut self,
        assumptions: &[Lit],
        probe: &mut dyn Probe,
        sink: &mut dyn ProofSink,
    ) -> Solution {
        // Same single dispatch as `Solver::solve_certified`: a disabled
        // sink re-monomorphizes at `NoProof` so the hooks compile away.
        if sink.enabled() {
            self.solve_assuming_with(assumptions, probe, sink)
        } else {
            self.solve_assuming_with(assumptions, probe, &mut NoProof)
        }
    }

    fn solve_assuming_with<P: Probe + ?Sized, S: ProofSink + ?Sized>(
        &mut self,
        assumptions: &[Lit],
        probe: &mut P,
        sink: &mut S,
    ) -> Solution {
        // Per-solve stats: the persistent engine's counters restart at
        // zero so each call reports only its own effort.
        self.engine.stats = SolverStats::default();
        self.failed.clear();
        let start = probe.enabled().then(Instant::now);
        probe.instance_begin(self.engine.assign.len(), self.engine.num_problem);
        probe.assumptions(assumptions.len());
        probe.learnt_reused(self.engine.num_learnt);
        if !self.ok {
            // The database was already refuted: either a previous solve
            // derived (and emitted) the empty clause, or `add_clause`
            // latched on a clause that level-0 propagation empties. In
            // both cases the empty clause is RUP here.
            sink.add_clause(&[]);
            self.engine.stats.learnt_clauses = self.engine.num_learnt as u64;
            self.stats = self.engine.stats;
            probe.instance_end(
                probe_outcome(&Outcome::Unsat),
                start.map(|s| s.elapsed()).unwrap_or_default(),
            );
            return Solution {
                outcome: Outcome::Unsat,
                stats: self.stats,
            };
        }
        if let Some(max_var) = assumptions.iter().map(|l| l.var().index()).max() {
            self.engine.grow_to(max_var + 1);
        }
        // Keep the learnt-clause budget proportional to the (growing)
        // problem size, as a cold start would.
        self.engine.max_learnt = self
            .engine
            .max_learnt
            .max((self.engine.num_problem / 3).max(2000));
        let result = search(&mut self.engine, assumptions, &self.limits, probe, sink);
        self.engine.stats.learnt_clauses = self.engine.num_learnt as u64;
        let outcome = match result {
            SearchResult::Sat(model) => Outcome::Sat(model),
            SearchResult::Unsat => {
                self.ok = false;
                Outcome::Unsat
            }
            SearchResult::AssumptionsFailed(failing) => {
                self.failed = failing;
                Outcome::Unsat
            }
            SearchResult::Aborted => Outcome::Aborted,
        };
        self.engine.cancel_until(0);
        self.stats = self.engine.stats;
        probe.instance_end(
            probe_outcome(&outcome),
            start.map(|s| s.elapsed()).unwrap_or_default(),
        );
        Solution {
            outcome,
            stats: self.stats,
        }
    }

    /// After an UNSAT solve: the subset of the assumption literals whose
    /// conjunction the database refutes (MiniSat's final conflict
    /// clause, unnegated). Empty when the database is UNSAT independent
    /// of assumptions.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.failed
    }

    /// Retires `vars`: the solver will never branch on them again, and
    /// SAT models complete them from the saved phase instead of a real
    /// assignment.
    ///
    /// Soundness contract (the caller asserts it): every clause that
    /// mentions a retired variable is permanently satisfied at decision
    /// level 0 — e.g. an activation-literal-guarded fault cone after its
    /// `(¬a_ψ)` clamp. Since such clauses can never propagate or
    /// conflict, any completion of the retired variables extends any
    /// model. Retiring a variable that still occurs in a live clause
    /// makes the solver unsound.
    pub fn retire_vars(&mut self, vars: impl IntoIterator<Item = Var>) {
        for v in vars {
            if v.index() < self.engine.dead.len() {
                self.engine.dead[v.index()] = true;
            }
        }
    }

    /// Live learnt clauses currently retained in the database.
    pub fn num_learnt(&self) -> usize {
        self.engine.num_learnt
    }

    /// Snapshots the live *problem* (non-learnt) clauses with two or more
    /// literals, as added via [`IncrementalCdcl::add_clause`]. Unit
    /// clauses live on the level-0 trail instead and are not included.
    /// Intended for encoding-hygiene audits (see the lint crate's
    /// activation pass), not for the solving hot path.
    pub fn problem_clauses(&self) -> Vec<Vec<Lit>> {
        self.engine
            .clauses
            .iter()
            .filter(|c| !c.learnt && !c.deleted)
            .map(|c| self.engine.arena[c.range()].to_vec())
            .collect()
    }

    /// Literals fixed at decision level 0 — root-level units, including
    /// activation-literal clamps added between solves.
    pub fn root_units(&self) -> Vec<Lit> {
        let end = self
            .engine
            .trail_lim
            .first()
            .copied()
            .unwrap_or(self.engine.trail.len());
        self.engine.trail[..end].to_vec()
    }

    /// Stats from the most recent solve.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }
}

impl std::fmt::Debug for IncrementalCdcl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalCdcl")
            .field("vars", &self.engine.assign.len())
            .field("problem_clauses", &self.engine.num_problem)
            .field("learnt_clauses", &self.engine.num_learnt)
            .field("ok", &self.ok)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CountingProbe, DratProof};

    fn lit(i: usize, pos: bool) -> Lit {
        Lit::with_value(Var::from_index(i), pos)
    }

    #[test]
    fn luby_sequence() {
        let expect = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn simple_sat() {
        let mut f = CnfFormula::new(3);
        f.add_clause(vec![lit(0, true), lit(1, true)]);
        f.add_clause(vec![lit(1, false), lit(2, true)]);
        f.add_clause(vec![lit(0, false), lit(2, false)]);
        let sol = Cdcl::new().solve(&f);
        let model = sol.outcome.model().expect("SAT");
        assert!(f.eval_complete(model));
    }

    #[test]
    fn simple_unsat() {
        let mut f = CnfFormula::new(2);
        for a in [true, false] {
            for b in [true, false] {
                f.add_clause(vec![lit(0, a), lit(1, b)]);
            }
        }
        assert!(Cdcl::new().solve(&f).outcome.is_unsat());
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // Variables p_{i,j}: pigeon i in hole j; i in 0..3, j in 0..2.
        let v = |i: usize, j: usize| lit(i * 2 + j, true);
        let nv = |i: usize, j: usize| lit(i * 2 + j, false);
        let mut f = CnfFormula::new(6);
        for i in 0..3 {
            f.add_clause(vec![v(i, 0), v(i, 1)]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in i1 + 1..3 {
                    f.add_clause(vec![nv(i1, j), nv(i2, j)]);
                }
            }
        }
        let sol = Cdcl::new().solve(&f);
        assert!(sol.outcome.is_unsat());
        assert!(sol.stats.conflicts > 0);
    }

    #[test]
    fn learns_unit_clauses() {
        // A chain that forces learning: (x0∨x1)(x0∨¬x1) implies x0.
        let mut f = CnfFormula::new(2);
        f.add_clause(vec![lit(0, true), lit(1, true)]);
        f.add_clause(vec![lit(0, true), lit(1, false)]);
        f.add_clause(vec![lit(0, false), lit(1, true)]);
        let sol = Cdcl::new().solve(&f);
        let model = sol.outcome.model().expect("SAT");
        assert!(model[0]);
    }

    #[test]
    fn conflict_budget() {
        // PHP(5,4) is UNSAT and needs some conflicts.
        let n_p = 5;
        let n_h = 4;
        let v = |i: usize, j: usize, pos: bool| lit(i * n_h + j, pos);
        let mut f = CnfFormula::new(n_p * n_h);
        for i in 0..n_p {
            f.add_clause((0..n_h).map(|j| v(i, j, true)).collect());
        }
        for j in 0..n_h {
            for i1 in 0..n_p {
                for i2 in i1 + 1..n_p {
                    f.add_clause(vec![v(i1, j, false), v(i2, j, false)]);
                }
            }
        }
        let sol = Cdcl::new().with_limits(Limits::conflicts(2)).solve(&f);
        assert_eq!(sol.outcome, Outcome::Aborted);
        let full = Cdcl::new().solve(&f);
        assert!(full.outcome.is_unsat());
    }

    /// PHP(`n_p`, `n_h`): pigeon `i` in hole `j` is variable `i * n_h + j`.
    fn pigeonhole(n_p: usize, n_h: usize) -> CnfFormula {
        let v = |i: usize, j: usize, pos: bool| lit(i * n_h + j, pos);
        let mut f = CnfFormula::new(n_p * n_h);
        for i in 0..n_p {
            f.add_clause((0..n_h).map(|j| v(i, j, true)).collect());
        }
        for j in 0..n_h {
            for i1 in 0..n_p {
                for i2 in i1 + 1..n_p {
                    f.add_clause(vec![v(i1, j, false), v(i2, j, false)]);
                }
            }
        }
        f
    }

    /// A random 3-CNF over `vars` variables (a fixed LCG, so the fixture
    /// never changes).
    fn random_3cnf(seed: u64, vars: usize, clauses: usize) -> CnfFormula {
        let mut state = seed;
        let mut next = move |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        let mut f = CnfFormula::new(vars);
        for _ in 0..clauses {
            f.add_clause((0..3).map(|_| lit(next(vars), next(2) == 0)).collect());
        }
        f
    }

    /// One `Cdcl` solving a sequence of formulas (more variables then
    /// fewer, SAT and UNSAT, learnt-clause deletion, an empty clause,
    /// contradictory units, an abort on the conflict budget and formulas
    /// after it) must answer
    /// each exactly as a new `Cdcl` does: the same outcome, model and
    /// stats, and the same certified proof steps and probe counters.
    #[test]
    fn reused_engine_solves_like_a_new_one() {
        let mut empty_clause = pigeonhole(3, 3);
        empty_clause.add_clause(Vec::new());
        let mut contradictory = random_3cnf(5, 12, 30);
        contradictory.add_clause(vec![lit(3, true)]);
        contradictory.add_clause(vec![lit(3, false)]);
        let none = Limits::none();
        let cases: Vec<(&str, CnfFormula, Limits, &str)> = vec![
            ("php(6,5)", pigeonhole(6, 5), none, "unsat"),
            ("small sat", random_3cnf(1, 8, 20), none, "sat"),
            ("reduce_db", random_3cnf(2, 200, 852), none, ""),
            ("empty clause", empty_clause, none, "unsat"),
            ("php(5,5)", pigeonhole(5, 5), none, "sat"),
            ("contradictory units", contradictory, none, "unsat"),
            ("budget", pigeonhole(7, 6), Limits::conflicts(40), "aborted"),
            ("after abort", random_3cnf(3, 30, 90), none, ""),
            ("php(5,4)", pigeonhole(5, 4), none, "unsat"),
            ("fewer vars", random_3cnf(4, 5, 12), none, ""),
        ];
        let mut reused = Cdcl::new();
        let mut deletions = 0;
        for (name, f, limits, expect) in &cases {
            reused.set_limits(*limits);
            let plain = reused.solve(f);
            assert_eq!(plain, Cdcl::new().with_limits(*limits).solve(f), "{name}");
            let label = match &plain.outcome {
                Outcome::Sat(_) => "sat",
                Outcome::Unsat => "unsat",
                Outcome::Aborted => "aborted",
            };
            assert!(expect.is_empty() || *expect == label, "{name}: {label}");

            let (mut probe, mut proof) = (CountingProbe::new(), DratProof::new());
            let certified = reused.solve_certified(f, &mut probe, &mut proof);
            let (mut new_probe, mut new_proof) = (CountingProbe::new(), DratProof::new());
            let new =
                Cdcl::new()
                    .with_limits(*limits)
                    .solve_certified(f, &mut new_probe, &mut new_proof);
            assert_eq!(certified, new, "{name}");
            assert_eq!(certified, plain, "{name}");
            assert_eq!(reused.stats(), new.stats, "{name}");
            assert_eq!(proof.steps(), new_proof.steps(), "{name}");
            assert_eq!(proof.recorded_model(), new_proof.recorded_model(), "{name}");
            assert_eq!(probe.counters, new_probe.counters, "{name}");
            deletions += proof.steps().iter().filter(|s| s.delete).count();
        }
        assert!(deletions > 0, "the sequence must exercise reduce_db");
    }

    #[test]
    fn fresh_solve_starts_from_the_seeded_phases() {
        // With no clauses nothing propagates: every variable is one
        // decision, made in its starting phase.
        let f = CnfFormula::new(40);
        let sol = Cdcl::new().solve(&f);
        let mut phases = vec![false; 40];
        seed_phases(&mut phases, &f);
        assert_eq!(sol.stats.decisions, 40);
        assert_eq!(sol.outcome.model(), Some(&phases[..]));
        assert!(phases.contains(&true) && phases.contains(&false));
    }

    /// `x_i = x_0 ⊕ flip[i]` for every `i > 0`: one decision sets every
    /// variable, and a first decision `x_v = p` makes `x_0 = p ⊕ flip[v]`.
    fn linked(flip: &[bool]) -> CnfFormula {
        let mut f = CnfFormula::new(flip.len());
        for (i, &s) in flip.iter().enumerate().skip(1) {
            f.add_clause(vec![lit(0, false), lit(i, !s)]);
            f.add_clause(vec![lit(0, true), lit(i, s)]);
        }
        f
    }

    #[test]
    fn fresh_solve_decides_the_lowest_variable_first() {
        // The flips depend only on the formula's size, so the seeded
        // phases are those of the final formula. They make `x_0` keep its
        // own phase only if variable 0 was decided first.
        let n = 12;
        let mut phases = vec![false; n];
        seed_phases(&mut phases, &linked(&vec![false; n]));
        let flip: Vec<bool> = phases.iter().map(|&p| p == phases[0]).collect();
        let f = linked(&flip);
        let sol = Cdcl::new().solve(&f);
        assert_eq!(sol.stats.decisions, 1);
        assert_eq!(sol.outcome.model().expect("SAT")[0], phases[0]);
    }

    #[test]
    fn incremental_solve_decides_the_highest_variable_first() {
        // The warm engine starts every phase at `false`; only a first
        // decision on the last variable makes `x_0` true.
        let n = 12;
        let mut flip = vec![false; n];
        flip[n - 1] = true;
        let mut s = IncrementalCdcl::new(n);
        assert!(s.add_formula(&linked(&flip)));
        let sol = s.solve_assuming(&[]);
        assert_eq!(sol.stats.decisions, 1);
        assert!(sol.outcome.model().expect("SAT")[0]);
    }

    #[test]
    fn empty_formula_sat() {
        let f = CnfFormula::new(4);
        let sol = Cdcl::new().solve(&f);
        assert!(sol.outcome.is_sat());
    }

    #[test]
    fn duplicate_unit_clauses_ok() {
        let mut f = CnfFormula::new(1);
        f.add_clause(vec![lit(0, true)]);
        f.add_clause(vec![lit(0, true)]);
        let sol = Cdcl::new().solve(&f);
        assert_eq!(sol.outcome.model(), Some(&[true][..]));
    }

    #[test]
    fn incremental_sat_and_unsat_under_assumptions() {
        // (x0 ∨ x1) ∧ (¬x1 ∨ x2)
        let mut s = IncrementalCdcl::new(3);
        assert!(s.add_clause(vec![lit(0, true), lit(1, true)]));
        assert!(s.add_clause(vec![lit(1, false), lit(2, true)]));
        let sol = s.solve_assuming(&[lit(0, false)]);
        let model = sol.outcome.model().expect("SAT under ¬x0");
        assert!(!model[0] && model[1] && model[2]);
        // Same instance, contradictory assumptions: UNSAT, but only
        // because of the assumptions.
        let sol = s.solve_assuming(&[lit(0, false), lit(1, false)]);
        assert!(sol.outcome.is_unsat());
        assert!(!s.failed_assumptions().is_empty());
        // And satisfiable again without them: the UNSAT above was not
        // latched.
        assert!(s.solve_assuming(&[]).outcome.is_sat());
    }

    #[test]
    fn failed_assumptions_are_a_refuting_subset() {
        // x0 → x1, assume [x2, x0, ¬x1]: the failing subset must
        // mention ¬x1 and x0 but never needs x2.
        let mut s = IncrementalCdcl::new(3);
        assert!(s.add_clause(vec![lit(0, false), lit(1, true)]));
        let sol = s.solve_assuming(&[lit(2, true), lit(0, true), lit(1, false)]);
        assert!(sol.outcome.is_unsat());
        let failed = s.failed_assumptions();
        assert!(!failed.is_empty());
        assert!(failed.iter().all(|l| l.var().index() != 2), "{failed:?}");
        for &l in failed {
            assert!(
                [lit(0, true), lit(1, false)].contains(&l),
                "unexpected failed assumption {l:?}"
            );
        }
    }

    #[test]
    fn contradictory_assumption_pair_fails() {
        let mut s = IncrementalCdcl::new(2);
        assert!(s.add_clause(vec![lit(0, true), lit(1, true)]));
        let sol = s.solve_assuming(&[lit(0, true), lit(0, false)]);
        assert!(sol.outcome.is_unsat());
        assert!(!s.failed_assumptions().is_empty());
    }

    #[test]
    fn add_clause_between_solves_with_activation_clamping() {
        // Activation-literal idiom: clause (¬a ∨ x0) only bites while
        // assuming a; afterwards the permanent unit ¬a retires it.
        let mut s = IncrementalCdcl::new(2);
        let a = Var::from_index(1);
        assert!(s.add_clause(vec![Lit::negative(a), lit(0, true)]));
        let sol = s.solve_assuming(&[Lit::positive(a)]);
        let model = sol.outcome.model().expect("SAT");
        assert!(model[0], "activated clause forces x0");
        // Clamp the activation variable off; the guarded clause is now
        // vacuous, so ¬x0 becomes satisfiable.
        assert!(s.add_clause(vec![Lit::negative(a)]));
        let sol = s.solve_assuming(&[lit(0, false)]);
        assert!(sol.outcome.is_sat());
        // Re-activating is now contradictory through the permanent unit.
        let sol = s.solve_assuming(&[Lit::positive(a)]);
        assert!(sol.outcome.is_unsat());
    }

    #[test]
    fn empty_clause_latches_global_unsat() {
        let mut s = IncrementalCdcl::new(1);
        assert!(s.add_clause(vec![lit(0, true)]));
        assert!(!s.add_clause(vec![lit(0, false)]));
        let sol = s.solve_assuming(&[]);
        assert!(sol.outcome.is_unsat());
        assert!(s.failed_assumptions().is_empty(), "not assumption-caused");
        // Latched: adding more clauses or retrying stays UNSAT.
        assert!(!s.add_clause(vec![lit(0, true)]));
        assert!(s.solve_assuming(&[lit(0, true)]).outcome.is_unsat());
    }

    #[test]
    fn learnt_clauses_persist_across_disjoint_assumption_sets() {
        // PHP(5,4) under vacuous assumptions on extra variables: the
        // second solve reuses clauses learnt by the first and must
        // refute strictly-or-equally cheaper while staying UNSAT.
        let n_p = 5;
        let n_h = 4;
        let v = |i: usize, j: usize, pos: bool| lit(i * n_h + j, pos);
        let mut s = IncrementalCdcl::new(n_p * n_h + 2);
        for i in 0..n_p {
            let clause: Vec<Lit> = (0..n_h).map(|j| v(i, j, true)).collect();
            assert!(s.add_clause(clause));
        }
        for j in 0..n_h {
            for i1 in 0..n_p {
                for i2 in i1 + 1..n_p {
                    assert!(s.add_clause(vec![v(i1, j, false), v(i2, j, false)]));
                }
            }
        }
        let free = n_p * n_h;
        let first = s.solve_assuming(&[lit(free, true)]);
        assert!(first.outcome.is_unsat());
        assert!(
            s.failed_assumptions().is_empty(),
            "PHP core does not involve the assumption"
        );
        // Global UNSAT is latched — but it was latched soundly, by a
        // level-0 conflict from learnt consequences of the DB alone.
        let second = s.solve_assuming(&[lit(free + 1, true)]);
        assert!(second.outcome.is_unsat());
        assert!(second.stats.conflicts <= first.stats.conflicts);
    }

    #[test]
    fn warm_solver_agrees_with_cold_solver_on_a_query_family() {
        // A SAT family sharing a hard core: warm solves must agree with
        // cold ones on every query. (The effort advantage of the warm
        // solver is a campaign-level claim, measured by the incremental
        // A/B bench, not asserted per-instance here.)
        let n_p = 5;
        let n_h = 5; // PHP(5,5) is SAT but conflict-rich under bad phases
        let v = |i: usize, j: usize, pos: bool| lit(i * n_h + j, pos);
        let mut base = CnfFormula::new(n_p * n_h);
        for i in 0..n_p {
            base.add_clause((0..n_h).map(|j| v(i, j, true)).collect());
        }
        for j in 0..n_h {
            for i1 in 0..n_p {
                for i2 in i1 + 1..n_p {
                    base.add_clause(vec![v(i1, j, false), v(i2, j, false)]);
                }
            }
        }
        let mut warm = IncrementalCdcl::new(base.num_vars());
        assert!(warm.add_formula(&base));
        for i in 0..n_p {
            // Assume pigeon i sits in hole 0.
            let assumption = v(i, 0, true);
            let ws = warm.solve_assuming(&[assumption]);
            let mut with_unit = base.clone();
            with_unit.add_clause(vec![assumption]);
            let cs = Cdcl::new().solve(&with_unit);
            assert_eq!(ws.outcome.is_sat(), cs.outcome.is_sat(), "pigeon {i}");
            if let Some(model) = ws.outcome.model() {
                assert!(base.eval_complete(model));
                assert!(model[assumption.var().index()]);
            }
        }
    }

    #[test]
    fn incremental_tautology_and_duplicate_handling() {
        let mut s = IncrementalCdcl::new(2);
        assert!(s.add_clause(vec![lit(0, true), lit(0, false)])); // dropped
        assert!(s.add_clause(vec![lit(1, true), lit(1, true)])); // unit x1
        let sol = s.solve_assuming(&[]);
        let model = sol.outcome.model().expect("SAT");
        assert!(model[1]);
    }

    #[test]
    fn new_var_and_grow_between_solves() {
        let mut s = IncrementalCdcl::new(1);
        assert!(s.add_clause(vec![lit(0, true)]));
        assert!(s.solve_assuming(&[]).outcome.is_sat());
        let v = s.new_var();
        assert_eq!(v.index(), 1);
        assert!(s.add_clause(vec![lit(0, false), Lit::positive(v)]));
        let sol = s.solve_assuming(&[Lit::negative(v)]);
        assert!(sol.outcome.is_unsat());
        assert_eq!(s.failed_assumptions(), &[Lit::negative(v)]);
    }
}
