//! Structural lint driver: netlist, CNF-encoding, and width-certificate
//! checks over circuit files or the built-in benchmark suite.
//!
//! ```text
//! cargo run --release --bin lint -- [FILES...] [--all-circuits]
//!     [--trace FILE]... [--dimacs FILE --drat FILE] [--source ROOT]
//!     [--json] [--strict] [--max-fanout K] [--no-certs]
//! ```
//!
//! `FILES` are parsed by extension (`.bench` ISCAS / `.blif` BLIF).
//! `--all-circuits` lints every generator in the built-in suite instead.
//! `--implic` additionally runs the `R*` static-implication passes on
//! every netlist target (unreachable/constant nets, statically redundant
//! faults, implication-graph consistency, SCOAP testability outliers)
//! and prints a per-target implication/testability summary.
//! `--trace FILE` runs the `T*` JSONL-telemetry passes on a solver trace
//! (as written by the `trace` harness) instead of the netlist passes; it
//! can repeat and combines freely with circuit targets.
//! `--source ROOT` runs the `S*` source passes over the workspace's own
//! Rust code (`ROOT/crates/*/src/**/*.rs`): unsafe-comment, atomic-facade
//! and ordering-justification hygiene for the lock-free core.
//! `--dimacs FILE --drat FILE` (must appear together) runs the `P*`
//! certified-verdict passes on a standalone DIMACS formula and DRAT
//! refutation: every proof step is re-checked by the independent
//! `atpg-easy-proof` checker and the proof must end in the empty clause.
//! For each target the driver runs the `N*` netlist passes, encodes the
//! (XOR-decomposed) circuit with the Tseitin consistency encoder and runs
//! the `C*` passes against it, and — unless `--no-certs` — computes an
//! MLA ordering, validates the resulting width certificate (`O001`/`O002`),
//! and checks a sample-fault miter certificate against the Lemma 4.2
//! bound (`O003`/`O004`). Finally it solves a sample of faults through
//! the incremental campaign engine and audits the warm solver's clause
//! database for activation-literal hygiene (`A001`–`A004`).
//!
//! Exit codes: 0 clean, 1 diagnostics found (errors, or any finding with
//! `--strict`), 2 usage or I/O error.
//!
//! The logic lives here (rather than in the `lint` bin target) so that
//! both the workspace-root `lint` binary and the bench-crate one are thin
//! wrappers around [`run`].

use std::process::ExitCode;

use atpg_easy_atpg::{fault, miter, AtpgConfig, IncrementalAtpg};
use atpg_easy_cnf::circuit;
use atpg_easy_core::lemma42;
use atpg_easy_cutwidth::mla::{self, MlaConfig};
use atpg_easy_cutwidth::Hypergraph;
use atpg_easy_implic::StaticAnalysis;
use atpg_easy_lint::{
    activation as activation_lint, cert, cnf as cnf_lint, netlist as netlist_lint,
    redundancy as redundancy_lint, NetlistLintConfig, Report,
};
use atpg_easy_netlist::{decompose, parser, Netlist};
use atpg_easy_obs::json_escape_into;

const USAGE: &str = "usage: lint [FILES...] [--all-circuits] [--implic] [--trace FILE]... \
                     [--dimacs FILE --drat FILE] [--source ROOT] [--json] [--strict] \
                     [--max-fanout K] [--no-certs]";

struct Options {
    files: Vec<String>,
    traces: Vec<String>,
    dimacs: Option<String>,
    drat: Option<String>,
    source: Option<String>,
    all_circuits: bool,
    implic: bool,
    json: bool,
    strict: bool,
    max_fanout: Option<usize>,
    certs: bool,
}

fn parse_options(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        files: Vec::new(),
        traces: Vec::new(),
        dimacs: None,
        drat: None,
        source: None,
        all_circuits: false,
        implic: false,
        json: false,
        strict: false,
        max_fanout: None,
        certs: true,
    };
    let mut it = args.peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all-circuits" => opts.all_circuits = true,
            "--implic" => opts.implic = true,
            "--json" => opts.json = true,
            "--strict" => opts.strict = true,
            "--no-certs" => opts.certs = false,
            "--max-fanout" => {
                let v = it.next().ok_or("--max-fanout needs a value")?;
                opts.max_fanout = Some(v.parse().map_err(|_| format!("bad fanout `{v}`"))?);
            }
            "--trace" => {
                opts.traces.push(it.next().ok_or("--trace needs a file")?);
            }
            "--dimacs" => {
                opts.dimacs = Some(it.next().ok_or("--dimacs needs a file")?);
            }
            "--drat" => {
                opts.drat = Some(it.next().ok_or("--drat needs a file")?);
            }
            "--source" => {
                opts.source = Some(it.next().ok_or("--source needs a workspace root")?);
            }
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ => opts.files.push(a),
        }
    }
    if opts.dimacs.is_some() != opts.drat.is_some() {
        return Err("--dimacs and --drat must be given together".to_string());
    }
    if opts.files.is_empty()
        && opts.traces.is_empty()
        && opts.dimacs.is_none()
        && opts.source.is_none()
        && !opts.all_circuits
    {
        return Err(
            "no input: pass FILES, --trace FILE, --dimacs/--drat, --source ROOT \
             or --all-circuits"
                .to_string(),
        );
    }
    Ok(opts)
}

/// Runs every applicable pass family on one netlist.
fn lint_netlist(nl: &Netlist, opts: &Options) -> Report {
    let config = NetlistLintConfig {
        max_fanout: opts.max_fanout,
        ..NetlistLintConfig::default()
    };
    let mut report = netlist_lint::lint_with(nl, &config);
    // The CNF passes need a well-formed, encodable circuit; skip them when
    // the structural checks already failed (the encoder would panic or
    // error on the same defects).
    if report.has_errors() {
        return report;
    }

    // C* passes over the Tseitin consistency encoding (XORs decomposed to
    // fanin 2 first, as the ATPG pipeline does).
    match decompose::decompose(nl, usize::MAX) {
        Ok(flat) => match circuit::encode_consistency(&flat) {
            Ok(enc) => {
                report.merge(cnf_lint::lint(&enc.formula));
                report.merge(cnf_lint::lint_encoding(&flat, &enc.formula));
            }
            Err(e) => report.add(
                atpg_easy_lint::Code::C006,
                atpg_easy_lint::Location::General,
                format!("circuit failed to encode: {e}"),
            ),
        },
        Err(e) => report.add(
            atpg_easy_lint::Code::N005,
            atpg_easy_lint::Location::General,
            format!("XOR decomposition failed: {e}"),
        ),
    }

    // O* passes: self-check the MLA width certificate, then a sample-fault
    // miter against the Lemma 4.2 bound.
    if opts.certs && nl.num_outputs() > 0 {
        let h = Hypergraph::from_netlist(nl);
        let (w, order) = mla::estimate_cutwidth(&h, &MlaConfig::default());
        report.merge(cert::lint_width_claim(&h, &order, w));
        // Check the first fault whose miter the derived ordering fully
        // covers; unobservable faults yield the degenerate Const0 miter
        // whose derived ordering is empty, so validate only its structure.
        for &f in fault::collapse(nl).iter().take(8) {
            let m = miter::build(nl, f);
            let h_psi = lemma42::derived_ordering(nl, &m, &order);
            let hm = Hypergraph::from_netlist(&m.circuit);
            if h_psi.len() == hm.num_nodes() {
                report.merge(cert::lint_miter_certificate(&m.circuit, &h_psi, w));
                break;
            }
            report.merge(cert::lint_miter_structure(&m.circuit));
        }
    }

    // A* passes: activation-literal hygiene of the incremental encoding.
    // Solve a sample of collapsed faults through the warm engine, then
    // audit the resulting clause database against the base/activation
    // variable split.
    if nl.num_outputs() > 0 {
        if let Ok(flat) = decompose::decompose(nl, usize::MAX) {
            let config = AtpgConfig {
                incremental: true,
                ..AtpgConfig::default()
            };
            let mut warm = IncrementalAtpg::new(&flat, &config);
            for &f in fault::collapse(&flat).iter().take(8) {
                let _ = warm.solve_fault(f, &config, None);
            }
            let mut clauses = warm.solver().problem_clauses();
            clauses.extend(warm.solver().root_units().into_iter().map(|l| vec![l]));
            report.merge(activation_lint::lint_activation(
                &clauses,
                warm.base_vars(),
                warm.activation_vars(),
            ));
        }
    }
    report
}

/// One-line implication/testability summary printed by `--implic`.
fn implic_summary(nl: &Netlist, analysis: &StaticAnalysis) -> String {
    let s = analysis.engine.stats();
    let effort = nl
        .net_ids()
        .map(|n| analysis.scoap.fault_effort(n))
        .filter(|&e| e < atpg_easy_implic::SCOAP_INFINITY)
        .max()
        .unwrap_or(0);
    format!(
        "implic: {} nets, {} direct + {} extended edges, {} pairs, \
         {} round(s){}; {} constant net(s), {} redundant fault(s), \
         max SCOAP effort {}",
        s.nets,
        s.direct_edges,
        s.extended_edges,
        s.implication_pairs,
        s.rounds,
        if s.fixpoint { "" } else { " (round cap hit)" },
        analysis.constants.len(),
        analysis.redundant.len(),
        effort
    )
}

fn load_file(path: &str) -> Result<Netlist, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let nl = if path.ends_with(".blif") {
        parser::blif::parse(&text)
    } else if path.ends_with(".bench") {
        parser::bench::parse(&text)
    } else {
        return Err(format!(
            "`{path}`: unknown extension (expected .bench or .blif)"
        ));
    };
    nl.map_err(|e| format!("`{path}`: parse error: {e}"))
}

/// Entry point shared by the `lint` binaries; lints `std::env::args`
/// targets and returns the process exit code.
pub fn run() -> ExitCode {
    let opts = match parse_options(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    // (name, netlist) targets in lint order.
    let mut targets: Vec<(String, Netlist)> = Vec::new();
    for path in &opts.files {
        match load_file(path) {
            Ok(nl) => targets.push((path.clone(), nl)),
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::from(2);
            }
        }
    }
    if opts.all_circuits {
        let mut suite = crate::resolve_suite("all").expect("built-in suite");
        suite.extend(crate::resolve_suite("mult").expect("built-in suite"));
        targets.extend(suite.into_iter().map(|c| (c.name, c.netlist)));
    }

    // (name, report) per target: netlist passes (plus, with `--implic`,
    // the R* static-implication passes), then T* trace passes.
    let mut reports: Vec<(String, Report)> = Vec::new();
    for (name, nl) in &targets {
        let mut report = lint_netlist(nl, &opts);
        if opts.implic {
            let analysis = atpg_easy_implic::analyze(nl);
            if !opts.json {
                println!("{name}: {}", implic_summary(nl, &analysis));
            }
            report.merge(redundancy_lint::report_from(nl, &analysis));
        }
        reports.push((name.clone(), report));
    }
    for path in &opts.traces {
        match std::fs::read_to_string(path) {
            Ok(text) => reports.push((path.clone(), atpg_easy_lint::json::lint_trace(&text))),
            Err(e) => {
                eprintln!("error: cannot read `{path}`: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(root) = &opts.source {
        match atpg_easy_lint::source::lint_tree(
            std::path::Path::new(root),
            &atpg_easy_lint::SourceLintConfig::default(),
        ) {
            Ok(report) => reports.push((format!("source:{root}"), report)),
            Err(e) => {
                eprintln!("error: cannot scan `{root}`: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if let (Some(dimacs_path), Some(drat_path)) = (&opts.dimacs, &opts.drat) {
        let read = |path: &str| {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
        };
        match (read(dimacs_path), read(drat_path)) {
            (Ok(dimacs), Ok(drat)) => reports.push((
                format!("{dimacs_path} + {drat_path}"),
                atpg_easy_lint::proof::lint_standalone_drat(&dimacs, &drat),
            )),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let errors: usize = reports.iter().map(|(_, r)| r.errors()).sum();
    let warnings: usize = reports.iter().map(|(_, r)| r.warnings()).sum();
    if opts.json {
        println!("{}", json_envelope(&reports));
    } else {
        for (name, report) in &reports {
            if report.is_empty() {
                println!("{name}: clean");
            } else {
                println!("{name}:");
                print!("{}", report.render_human());
            }
        }
        println!(
            "lint: {} target(s), {errors} error(s), {warnings} warning(s)",
            reports.len()
        );
    }
    let fail = errors > 0 || (opts.strict && warnings > 0);
    if fail {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// The `--json` output: `{"targets":[...]}` with one
/// `{"target":NAME,"report":{...}}` object per linted target.
fn json_envelope(reports: &[(String, Report)]) -> String {
    let mut out = String::from("{\"targets\":[");
    for (i, (name, report)) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"target\":\"");
        json_escape_into(&mut out, name);
        out.push_str("\",\"report\":");
        out.push_str(report.render_json().trim_end());
        out.push('}');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_envelope_escapes_target_names() {
        let reports = vec![
            ("a\"b\\c\td\u{1}e.bench".to_string(), Report::default()),
            ("plain".to_string(), Report::default()),
        ];
        let out = json_envelope(&reports);
        let empty = Report::default().render_json();
        let want = format!(
            "{{\"targets\":[{{\"target\":\"a\\\"b\\\\c\\td\\u0001e.bench\",\"report\":{empty}}},\
             {{\"target\":\"plain\",\"report\":{empty}}}]}}"
        );
        assert_eq!(out, want);
        assert!(
            !out.chars().any(|c| (c as u32) < 0x20),
            "raw control characters inside a JSON string: {out:?}"
        );
    }
}
