//! The diagnostics framework: stable codes, severities, source locations,
//! and a [`Report`] container with human-readable and JSON rendering.
//!
//! Codes are stable identifiers (`N001`, `C003`, `O002`, …) that tools and
//! tests key on; renumbering an existing code is a breaking change. The
//! families mirror the pass families: `N*` netlist structure, `C*` CNF
//! formulas and encodings, `O*` ordering/width certificates.

use std::fmt;

use atpg_easy_obs::json_escape;

/// How bad a finding is.
///
/// `Error` findings invalidate downstream consumers (solvers, campaigns,
/// width claims); `Warning` findings are suspicious but survivable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious structure; downstream results remain meaningful.
    Warning,
    /// Malformed structure; downstream results are not to be trusted.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// A stable diagnostic code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Combinational cycle in the netlist.
    N001,
    /// Net with no driver that is not a primary input.
    N002,
    /// Net with more than one driver (or a driven primary input).
    N003,
    /// Dead logic: net that cannot reach any primary output.
    N004,
    /// Gate fan-in outside the kind's admissible range.
    N005,
    /// Net fan-out exceeds the configured `k_fo` bound.
    N006,
    /// Netlist has no primary outputs.
    N007,
    /// Tautological clause (contains `l` and `¬l`).
    C001,
    /// Clause duplicates an earlier clause (as a literal set).
    C002,
    /// Clause repeats a literal.
    C003,
    /// Variables that occur in no clause (index gaps).
    C004,
    /// Literal references a variable at or beyond `num_vars`.
    C005,
    /// Gate clause group disagrees with the gate's truth table.
    C006,
    /// Empty clause (formula trivially unsatisfiable).
    C007,
    /// Ordering is not a permutation of the hypergraph nodes.
    O001,
    /// Claimed cut-width differs from the recomputed `W(C, h)`.
    O002,
    /// Miter cut-width exceeds the Lemma 4.2 bound `2W + 2`.
    O003,
    /// Miter output structure invalid (outputs are not difference gates).
    O004,
    /// Trace line fails to parse as flat JSONL.
    T001,
    /// Duplicate instance sequence number within one circuit's trace.
    T002,
    /// Instance outcome label outside the Figure-1 set.
    T003,
    /// Campaign gauges disagree with the circuit's instance lines.
    T004,
    /// Activation literal occurs positively in a clause.
    A001,
    /// Clause guarded by more than one activation literal.
    A002,
    /// Activation variable overlaps the base range or is declared twice.
    A003,
    /// Unguarded clause references a variable outside the base range.
    A004,
    /// Proof stream is malformed (stray errors outside any solve bracket).
    P001,
    /// An UNSAT verdict whose derivation chain fails the RUP check.
    P002,
    /// A SAT verdict whose claimed model falsifies an axiom or assumption.
    P003,
    /// A verdict reported without any certificate (abort, cache shortcut).
    P004,
    /// `unsafe` block or impl without a `// SAFETY:` justification.
    S001,
    /// Raw `std::sync::atomic` use outside the `syncx` facade.
    S002,
    /// Mixed-ordering atomics module lacks `// ORDERING:` justifications.
    S003,
    /// `std::thread::spawn` outside the parallel engine.
    S004,
    /// Net with no structural path to any primary output (fault site
    /// unobservable; both stuck-at faults untestable).
    R001,
    /// Net provably constant under the static implication closure.
    R002,
    /// Stuck-at fault statically proved redundant (FIRE-style).
    R003,
    /// Implication-graph consistency violation (closure not transitive,
    /// contrapositive missing, or a net contradictory).
    R004,
    /// SCOAP testability outlier: fault effort far above the circuit
    /// median.
    R005,
}

impl Code {
    /// Every code, in family order. Tools iterate this to document or test
    /// the full set.
    pub const ALL: [Code; 39] = [
        Code::N001,
        Code::N002,
        Code::N003,
        Code::N004,
        Code::N005,
        Code::N006,
        Code::N007,
        Code::C001,
        Code::C002,
        Code::C003,
        Code::C004,
        Code::C005,
        Code::C006,
        Code::C007,
        Code::O001,
        Code::O002,
        Code::O003,
        Code::O004,
        Code::T001,
        Code::T002,
        Code::T003,
        Code::T004,
        Code::A001,
        Code::A002,
        Code::A003,
        Code::A004,
        Code::P001,
        Code::P002,
        Code::P003,
        Code::P004,
        Code::S001,
        Code::S002,
        Code::S003,
        Code::S004,
        Code::R001,
        Code::R002,
        Code::R003,
        Code::R004,
        Code::R005,
    ];

    /// The stable textual form (`"N001"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::N001 => "N001",
            Code::N002 => "N002",
            Code::N003 => "N003",
            Code::N004 => "N004",
            Code::N005 => "N005",
            Code::N006 => "N006",
            Code::N007 => "N007",
            Code::C001 => "C001",
            Code::C002 => "C002",
            Code::C003 => "C003",
            Code::C004 => "C004",
            Code::C005 => "C005",
            Code::C006 => "C006",
            Code::C007 => "C007",
            Code::O001 => "O001",
            Code::O002 => "O002",
            Code::O003 => "O003",
            Code::O004 => "O004",
            Code::T001 => "T001",
            Code::T002 => "T002",
            Code::T003 => "T003",
            Code::T004 => "T004",
            Code::A001 => "A001",
            Code::A002 => "A002",
            Code::A003 => "A003",
            Code::A004 => "A004",
            Code::P001 => "P001",
            Code::P002 => "P002",
            Code::P003 => "P003",
            Code::P004 => "P004",
            Code::S001 => "S001",
            Code::S002 => "S002",
            Code::S003 => "S003",
            Code::S004 => "S004",
            Code::R001 => "R001",
            Code::R002 => "R002",
            Code::R003 => "R003",
            Code::R004 => "R004",
            Code::R005 => "R005",
        }
    }

    /// The severity this code always reports at.
    pub fn severity(self) -> Severity {
        match self {
            Code::N001
            | Code::N002
            | Code::N003
            | Code::N005
            | Code::N006
            | Code::C005
            | Code::C006
            | Code::O001
            | Code::O002
            | Code::O003
            | Code::O004
            | Code::T001
            | Code::T002
            | Code::T003
            | Code::T004
            | Code::A001
            | Code::A002
            | Code::A003
            | Code::P001
            | Code::P002
            | Code::P003
            | Code::S001
            | Code::S002
            | Code::S003
            | Code::S004
            | Code::R004 => Severity::Error,
            Code::N004
            | Code::N007
            | Code::C001
            | Code::C002
            | Code::C003
            | Code::C004
            | Code::C007
            | Code::A004
            | Code::P004
            | Code::R001
            | Code::R002
            | Code::R003
            | Code::R005 => Severity::Warning,
        }
    }

    /// One-line description, suitable for documentation tables.
    pub fn summary(self) -> &'static str {
        match self {
            Code::N001 => "combinational cycle",
            Code::N002 => "undriven net that is not a primary input",
            Code::N003 => "net with multiple drivers",
            Code::N004 => "dead logic: net cannot reach any primary output",
            Code::N005 => "gate fan-in outside the kind's admissible range",
            Code::N006 => "net fan-out exceeds the configured k_fo bound",
            Code::N007 => "netlist has no primary outputs",
            Code::C001 => "tautological clause",
            Code::C002 => "duplicate clause",
            Code::C003 => "repeated literal within a clause",
            Code::C004 => "variables that occur in no clause",
            Code::C005 => "literal references a variable beyond num_vars",
            Code::C006 => "gate clause group disagrees with the gate truth table",
            Code::C007 => "empty clause (formula trivially UNSAT)",
            Code::O001 => "ordering is not a permutation of the nodes",
            Code::O002 => "claimed cut-width differs from recomputed W(C,h)",
            Code::O003 => "miter cut-width exceeds the Lemma 4.2 bound 2W+2",
            Code::O004 => "miter outputs are not XOR difference gates",
            Code::T001 => "trace line fails to parse as flat JSONL",
            Code::T002 => "duplicate instance sequence number in a circuit trace",
            Code::T003 => "instance outcome label outside the Figure-1 set",
            Code::T004 => "campaign gauges disagree with the instance lines",
            Code::A001 => "activation literal occurs positively in a clause",
            Code::A002 => "clause guarded by more than one activation literal",
            Code::A003 => "activation variable overlaps the base range or repeats",
            Code::A004 => "unguarded clause references a non-base variable",
            Code::P001 => "malformed proof stream (errors outside solve brackets)",
            Code::P002 => "UNSAT verdict fails the independent RUP check",
            Code::P003 => "SAT verdict's model falsifies an axiom or assumption",
            Code::P004 => "verdict reported without a certificate",
            Code::S001 => "unsafe block or impl without a SAFETY comment",
            Code::S002 => "raw std::sync::atomic use outside the syncx facade",
            Code::S003 => "mixed-ordering atomics without an ORDERING comment",
            Code::S004 => "std::thread::spawn outside the parallel engine",
            Code::R001 => "net cannot reach any primary output (faults unobservable)",
            Code::R002 => "net provably constant under static implications",
            Code::R003 => "stuck-at fault statically proved redundant",
            Code::R004 => "implication-graph consistency violation",
            Code::R005 => "SCOAP testability outlier",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where in the linted object a diagnostic points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Location {
    /// The object as a whole.
    General,
    /// A net, by dense index and name.
    Net {
        /// `NetId::index` of the net.
        index: usize,
        /// The net's name.
        name: String,
    },
    /// A gate, by dense index.
    Gate {
        /// `GateId::index` of the gate.
        index: usize,
    },
    /// A clause, by position in the formula.
    Clause {
        /// Clause index.
        index: usize,
    },
    /// A position in an ordering.
    Position {
        /// Ordering position.
        index: usize,
    },
    /// A line of a trace file (1-based).
    Line {
        /// Line number, starting at 1.
        line: usize,
    },
    /// A line of a source file (1-based), for source-analysis passes.
    Source {
        /// Path of the file, relative to the linted root.
        file: String,
        /// Line number, starting at 1.
        line: usize,
    },
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::General => Ok(()),
            Location::Net { index, name } => write!(f, " [net `{name}` #{index}]"),
            Location::Gate { index } => write!(f, " [gate #{index}]"),
            Location::Clause { index } => write!(f, " [clause #{index}]"),
            Location::Position { index } => write!(f, " [position #{index}]"),
            Location::Line { line } => write!(f, " [line {line}]"),
            Location::Source { file, line } => write!(f, " [{file}:{line}]"),
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// Severity (always `code.severity()`).
    pub severity: Severity,
    /// Where the finding points.
    pub location: Location,
    /// Human-readable detail.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic at the code's canonical severity.
    pub fn new(code: Code, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            location,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}{}",
            self.severity, self.code, self.message, self.location
        )
    }
}

/// A collection of diagnostics from one or more passes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Adds one finding.
    pub fn push(&mut self, diag: Diagnostic) {
        self.diagnostics.push(diag);
    }

    /// Adds a finding by parts, at the code's canonical severity.
    pub fn add(&mut self, code: Code, location: Location, message: impl Into<String>) {
        self.push(Diagnostic::new(code, location, message));
    }

    /// Appends every finding of `other`.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// All findings, in emission order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// Whether there are no findings at all.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Whether any error-severity finding is present.
    pub fn has_errors(&self) -> bool {
        self.errors() > 0
    }

    /// Whether a finding with `code` is present.
    pub fn has_code(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Findings carrying `code`.
    pub fn with_code(&self, code: Code) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// One line per finding plus a summary line, `rustc`-style.
    pub fn render_human(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{d}");
        }
        let _ = writeln!(
            out,
            "{} error(s), {} warning(s)",
            self.errors(),
            self.warnings()
        );
        out
    }

    /// The report as a JSON object with a `diagnostics` array; stable keys,
    /// no external dependencies.
    pub fn render_json(&self) -> String {
        use fmt::Write as _;
        let mut out = String::from("{\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\"",
                d.code,
                d.severity,
                json_escape(&d.message)
            );
            match &d.location {
                Location::General => {}
                Location::Net { index, name } => {
                    let _ = write!(
                        out,
                        ",\"net\":{{\"index\":{index},\"name\":\"{}\"}}",
                        json_escape(name)
                    );
                }
                Location::Gate { index } => {
                    let _ = write!(out, ",\"gate\":{index}");
                }
                Location::Clause { index } => {
                    let _ = write!(out, ",\"clause\":{index}");
                }
                Location::Position { index } => {
                    let _ = write!(out, ",\"position\":{index}");
                }
                Location::Line { line } => {
                    let _ = write!(out, ",\"line\":{line}");
                }
                Location::Source { file, line } => {
                    let _ = write!(out, ",\"file\":\"{}\",\"line\":{line}", json_escape(file));
                }
            }
            out.push('}');
        }
        let _ = write!(
            out,
            "],\"errors\":{},\"warnings\":{}}}",
            self.errors(),
            self.warnings()
        );
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_human())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for c in Code::ALL {
            assert!(seen.insert(c.as_str()), "duplicate code {c}");
            assert!(!c.summary().is_empty());
        }
        assert_eq!(Code::N001.as_str(), "N001");
        assert_eq!(Code::O004.as_str(), "O004");
    }

    #[test]
    fn report_counts_and_rendering() {
        let mut r = Report::new();
        r.add(
            Code::N002,
            Location::Net {
                index: 3,
                name: "x".into(),
            },
            "net `x` has no driver",
        );
        r.add(Code::N004, Location::General, "unused cone");
        assert_eq!(r.errors(), 1);
        assert_eq!(r.warnings(), 1);
        assert!(r.has_errors());
        assert!(r.has_code(Code::N002));
        assert!(!r.has_code(Code::N001));
        let human = r.render_human();
        assert!(human.contains("error[N002]"), "{human}");
        assert!(human.contains("warning[N004]"), "{human}");
        assert!(human.contains("1 error(s), 1 warning(s)"), "{human}");
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let mut r = Report::new();
        r.add(
            Code::C006,
            Location::Gate { index: 0 },
            "mismatch on \"weird\"\nname",
        );
        let json = r.render_json();
        assert!(json.contains("\\\"weird\\\"\\n"), "{json}");
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }

    #[test]
    fn merge_concatenates() {
        let mut a = Report::new();
        a.add(Code::N007, Location::General, "no outputs");
        let mut b = Report::new();
        b.add(Code::N001, Location::General, "cycle");
        a.merge(b);
        assert_eq!(a.len(), 2);
    }
}
