//! `S*` passes: static analysis of the workspace's own Rust source.
//!
//! The parallel campaign engine ([`atpg::parallel`]) is lock-free code:
//! its correctness rests on atomic-ordering choices that the compiler
//! cannot check. These passes make the *justifications* for those
//! choices machine-checkable conventions instead of tribal knowledge:
//!
//! - **S001** — every `unsafe` block, fn, trait or impl carries a
//!   `// SAFETY:` comment (same line or the contiguous comment block
//!   immediately above). Every crate root forbids `unsafe_code` today, so
//!   this pass is the bar a future exception would have to clear.
//! - **S002** — no raw `std::sync::atomic` (or `core::sync::atomic`)
//!   use outside the `syncx` facade crate, so the loom-model cfg switch
//!   provably covers every atomic in the workspace.
//! - **S003** — in a file that mixes `Ordering::Relaxed` with
//!   acquire/release orderings, every `Relaxed` use carries an
//!   `// ORDERING:` comment arguing why the weakest ordering is sound
//!   there.
//! - **S004** — no `std::thread::spawn` outside the parallel engine
//!   (scoped spawns via `thread::scope` are allowed anywhere: they
//!   cannot leak a thread past their scope).
//!
//! The analysis is a token-level line scanner, not a full parser: it
//! tracks string literals, character literals, and line/block comments
//! so that pattern text inside strings (for instance, in this very
//! crate's diagnostic messages) never triggers a finding, and comment
//! text never looks like code. That is deliberate — the conventions the
//! passes enforce are line-local, and a scanner keeps the pass
//! dependency-free.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::diag::{Code, Location, Report};

/// Where the checked conventions have sanctioned exceptions.
///
/// Paths are relative to the linted root, `/`-separated; an entry
/// ending in `/` matches a whole subtree, otherwise an exact file.
#[derive(Debug, Clone)]
pub struct SourceLintConfig {
    /// Files allowed to name `std::sync::atomic` directly (S002): the
    /// facade that re-exports it.
    pub atomic_facade: Vec<String>,
    /// Files allowed to call `std::thread::spawn` (S004): the parallel
    /// engine and the facade's own thread module.
    pub spawn_sites: Vec<String>,
}

impl Default for SourceLintConfig {
    fn default() -> Self {
        SourceLintConfig {
            atomic_facade: vec!["crates/syncx/".into()],
            spawn_sites: vec![
                "crates/atpg/src/parallel.rs".into(),
                "crates/syncx/".into(),
                // The serve daemon's worker pool and per-connection
                // reader/writer threads spawn through the syncx facade;
                // its threads are detached by design (connections live
                // until EOF), so `thread::scope` cannot structure them.
                "crates/serve/".into(),
            ],
        }
    }
}

impl SourceLintConfig {
    fn allows(list: &[String], file: &str) -> bool {
        list.iter().any(|p| {
            if p.ends_with('/') {
                file.starts_with(p.as_str())
            } else {
                file == p
            }
        })
    }
}

/// One source line split into its code text (string literals blanked)
/// and its comment text (line comments and block-comment content).
#[derive(Debug, Default, Clone)]
struct ScanLine {
    code: String,
    comment: String,
}

impl ScanLine {
    /// Whether the line holds nothing but comment (and whitespace).
    fn comment_only(&self) -> bool {
        self.code.trim().is_empty() && !self.comment.trim().is_empty()
    }
}

/// Lexer state carried across lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Code,
    /// Inside `/* ... */`, with nesting depth (Rust block comments nest).
    Block(u32),
    /// Inside an ordinary `"..."` string that spans lines (trailing `\`).
    Str,
    /// Inside a raw string `r##"..."##` with the given hash count.
    RawStr(u32),
}

/// Splits source text into per-line code and comment parts.
///
/// String and char literals are blanked from the code part (their
/// delimiters survive, their content does not), so substring checks on
/// `code` can never match inside a literal.
fn scan(text: &str) -> Vec<ScanLine> {
    let mut out = Vec::new();
    let mut mode = Mode::Code;
    for raw_line in text.lines() {
        let mut line = ScanLine::default();
        let bytes: Vec<char> = raw_line.chars().collect();
        let mut i = 0;
        while i < bytes.len() {
            match mode {
                Mode::Block(depth) => {
                    if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                        mode = if depth > 1 {
                            Mode::Block(depth - 1)
                        } else {
                            Mode::Code
                        };
                        i += 2;
                    } else if bytes[i] == '/' && bytes.get(i + 1) == Some(&'*') {
                        mode = Mode::Block(depth + 1);
                        i += 2;
                    } else {
                        line.comment.push(bytes[i]);
                        i += 1;
                    }
                }
                // Ordinary strings span lines (bare newline or trailing
                // `\`); since linted code compiles, every string closes
                // eventually — no recovery heuristics needed.
                Mode::Str => match bytes[i] {
                    '\\' => i += 2,
                    '"' => {
                        line.code.push('"');
                        mode = Mode::Code;
                        i += 1;
                    }
                    _ => i += 1,
                },
                Mode::RawStr(hashes) => {
                    if bytes[i] == '"'
                        && bytes[i + 1..]
                            .iter()
                            .take(hashes as usize)
                            .filter(|&&c| c == '#')
                            .count()
                            == hashes as usize
                    {
                        mode = Mode::Code;
                        line.code.push('"');
                        i += 1 + hashes as usize;
                    } else {
                        i += 1;
                    }
                }
                Mode::Code => match bytes[i] {
                    '/' if bytes.get(i + 1) == Some(&'/') => {
                        line.comment.push_str(&raw_line[char_offset(raw_line, i)..]);
                        i = bytes.len();
                    }
                    '/' if bytes.get(i + 1) == Some(&'*') => {
                        mode = Mode::Block(1);
                        i += 2;
                    }
                    '"' => {
                        line.code.push('"');
                        mode = Mode::Str;
                        i += 1;
                    }
                    'r' if is_raw_string_start(&bytes, i) => {
                        let mut hashes = 0u32;
                        let mut j = i + 1;
                        while bytes.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        line.code.push('"');
                        mode = Mode::RawStr(hashes);
                        i = j + 1;
                    }
                    '\'' => {
                        // Char literal or lifetime. A literal closes with a
                        // quote after one (possibly escaped) char; a
                        // lifetime has no closing quote.
                        if bytes.get(i + 1) == Some(&'\\') && bytes.get(i + 3) == Some(&'\'') {
                            line.code.push_str("''");
                            i += 4;
                        } else if bytes.get(i + 2) == Some(&'\'') && bytes.get(i + 1) != Some(&'\'')
                        {
                            line.code.push_str("''");
                            i += 3;
                        } else {
                            line.code.push('\'');
                            i += 1;
                        }
                    }
                    c => {
                        line.code.push(c);
                        i += 1;
                    }
                },
            }
        }
        out.push(line);
    }
    out
}

/// Byte offset of the `idx`-th char of `s` (lines are short; linear is fine).
fn char_offset(s: &str, idx: usize) -> usize {
    s.char_indices().nth(idx).map(|(o, _)| o).unwrap_or(s.len())
}

/// Whether position `i` starts a raw string literal (`r"`, `r#"`, …) as
/// opposed to an identifier containing `r`.
fn is_raw_string_start(bytes: &[char], i: usize) -> bool {
    if i > 0 {
        let prev = bytes[i - 1];
        if prev.is_alphanumeric() || prev == '_' {
            return false;
        }
    }
    let mut j = i + 1;
    while bytes.get(j) == Some(&'#') {
        j += 1;
    }
    bytes.get(j) == Some(&'"')
}

/// Whether `needle` occurs in `hay` delimited by non-identifier chars.
fn has_token(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0
            || !hay[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == ':');
        let after = hay[at + needle.len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// First line of the statement (or expression) that line `i` continues:
/// walks upward past continuation lines — lines whose *predecessor* is
/// code that does not end in `;`, `{` or `}` (so a multi-line call's
/// argument lines resolve to the call's first line).
fn statement_start(lines: &[ScanLine], i: usize) -> usize {
    let mut j = i;
    while j > 0 {
        let prev = lines[j - 1].code.trim_end();
        if prev.is_empty() || prev.ends_with([';', '{', '}']) {
            break;
        }
        j -= 1;
    }
    j
}

/// Whether line `i` carries `marker` — on the line itself, in the
/// contiguous block of comment-only lines immediately above it, or
/// likewise at the first line of the multi-line statement it continues.
fn has_marker(lines: &[ScanLine], i: usize, marker: &str) -> bool {
    let mut anchors = vec![i];
    let start = statement_start(lines, i);
    if start != i {
        anchors.push(start);
    }
    for anchor in anchors {
        if lines[anchor].comment.contains(marker) {
            return true;
        }
        let mut j = anchor;
        while j > 0 && lines[j - 1].comment_only() {
            j -= 1;
            if lines[j].comment.contains(marker) {
                return true;
            }
        }
    }
    false
}

/// Runs the `S*` passes over one file's text. `file` is the root-relative
/// `/`-separated path used in locations and allowlist checks.
pub fn lint_file(file: &str, text: &str, config: &SourceLintConfig) -> Report {
    let mut report = Report::new();
    let lines = scan(text);

    // S003 applies only to files that mix Relaxed with stronger orderings.
    let uses_relaxed = lines.iter().any(|l| l.code.contains("Ordering::Relaxed"));
    let uses_strong = lines.iter().any(|l| {
        l.code.contains("Ordering::Acquire")
            || l.code.contains("Ordering::Release")
            || l.code.contains("Ordering::AcqRel")
    });
    let mixed_orderings = uses_relaxed && uses_strong;

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let at = |line| Location::Source {
            file: file.to_string(),
            line,
        };

        if has_token(&line.code, "unsafe") && !has_marker(&lines, idx, "SAFETY:") {
            report.add(
                Code::S001,
                at(lineno),
                "`unsafe` without a `// SAFETY:` justification on the line or \
                 in the comment block above",
            );
        }

        if (line.code.contains("std::sync::atomic") || line.code.contains("core::sync::atomic"))
            && !SourceLintConfig::allows(&config.atomic_facade, file)
        {
            report.add(
                Code::S002,
                at(lineno),
                "raw `std::sync::atomic` use outside the `syncx` facade; \
                 import atomics through `atpg_easy_syncx::atomic` so the \
                 loom model cfg covers them",
            );
        }

        if mixed_orderings
            && line.code.contains("Ordering::Relaxed")
            && !has_marker(&lines, idx, "ORDERING:")
        {
            report.add(
                Code::S003,
                at(lineno),
                "`Ordering::Relaxed` in a file that also uses acquire/release \
                 orderings, without an `// ORDERING:` justification",
            );
        }

        if line.code.contains("thread::spawn")
            && !SourceLintConfig::allows(&config.spawn_sites, file)
        {
            report.add(
                Code::S004,
                at(lineno),
                "`std::thread::spawn` outside the parallel engine; use \
                 `thread::scope` or route the work through `atpg::parallel`",
            );
        }
    }
    report
}

/// Collects the `.rs` files under `root/crates/*/src`, root-relative and
/// sorted for deterministic reports.
fn source_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    for entry in fs::read_dir(&crates)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the `S*` passes over every crate source file under `root`
/// (`crates/*/src/**/*.rs`; vendored stand-ins and integration tests are
/// out of scope — the conventions govern the workspace's own library
/// code).
pub fn lint_tree(root: &Path, config: &SourceLintConfig) -> io::Result<Report> {
    let mut report = Report::new();
    for path in source_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let text = fs::read_to_string(&path)?;
        report.merge(lint_file(&rel, &text, config));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(file: &str, text: &str) -> Report {
        lint_file(file, text, &SourceLintConfig::default())
    }

    #[test]
    fn s001_flags_bare_unsafe_and_accepts_safety_comments() {
        let bad = "fn f() {\n    unsafe { danger() };\n}\n";
        let r = lint("crates/x/src/lib.rs", bad);
        assert!(r.has_code(Code::S001), "{r}");

        let trailing = "fn f() {\n    unsafe { danger() }; // SAFETY: exclusive owner\n}\n";
        assert!(!lint("crates/x/src/lib.rs", trailing).has_code(Code::S001));

        let above = "// SAFETY: `p` outlives the call — see new().\n\
                     // It is never aliased.\n\
                     unsafe impl Send for X {}\n";
        assert!(!lint("crates/x/src/lib.rs", above).has_code(Code::S001));

        let gap = "// SAFETY: stale, detached by blank line\n\nunsafe impl Send for X {}\n";
        assert!(lint("crates/x/src/lib.rs", gap).has_code(Code::S001));
    }

    #[test]
    fn s001_ignores_unsafe_in_comments_and_strings() {
        let text = "// this fn is not unsafe at all\nlet s = \"unsafe\";\n";
        assert!(!lint("crates/x/src/lib.rs", text).has_code(Code::S001));
    }

    #[test]
    fn s002_flags_raw_atomics_outside_facade() {
        let text = "use std::sync::atomic::AtomicUsize;\n";
        assert!(lint("crates/atpg/src/parallel.rs", text).has_code(Code::S002));
        assert!(!lint("crates/syncx/src/lib.rs", text).has_code(Code::S002));
        // Inside a string or comment: not a use.
        let quoted = "let m = \"std::sync::atomic is banned\"; // std::sync::atomic\n";
        assert!(!lint("crates/x/src/lib.rs", quoted).has_code(Code::S002));
    }

    #[test]
    fn s003_requires_ordering_comments_only_in_mixed_files() {
        let relaxed_only = "a.load(Ordering::Relaxed);\nb.store(1, Ordering::Relaxed);\n";
        assert!(!lint("crates/x/src/lib.rs", relaxed_only).has_code(Code::S003));

        let mixed_bare = "a.load(Ordering::Relaxed);\nb.store(1, Ordering::Release);\n";
        assert!(lint("crates/x/src/lib.rs", mixed_bare).has_code(Code::S003));

        let mixed_justified = "// ORDERING: seeds the CAS; stale is one retry.\n\
                               a.load(Ordering::Relaxed);\n\
                               b.store(1, Ordering::Release);\n";
        assert!(!lint("crates/x/src/lib.rs", mixed_justified).has_code(Code::S003));
    }

    #[test]
    fn s004_flags_spawn_outside_the_engine() {
        let text = "std::thread::spawn(|| {});\n";
        assert!(lint("crates/obs/src/lib.rs", text).has_code(Code::S004));
        assert!(!lint("crates/atpg/src/parallel.rs", text).has_code(Code::S004));
        assert!(!lint("crates/syncx/src/thread.rs", text).has_code(Code::S004));
        // Scoped spawns are fine anywhere.
        let scoped = "thread::scope(|s| { s.spawn(|| {}); });\n";
        assert!(!lint("crates/obs/src/lib.rs", scoped).has_code(Code::S004));
    }

    #[test]
    fn s003_marker_above_a_multi_line_call_covers_continuation_lines() {
        let text = "b.store(1, Ordering::Release);\n\
                    // ORDERING: CAS failure publishes nothing.\n\
                    match c.compare_exchange_weak(\n\
                        at,\n\
                        at + 1,\n\
                        Ordering::Relaxed,\n\
                        Ordering::Relaxed,\n\
                    ) {\n";
        let r = lint("crates/x/src/lib.rs", text);
        assert!(!r.has_code(Code::S003), "{r}");
    }

    #[test]
    fn multi_line_strings_stay_blanked() {
        let text = "let a = \"first\n    unsafe std::sync::atomic second\n    third\";\nok();\n";
        let r = lint("crates/x/src/lib.rs", text);
        assert!(r.is_empty(), "{r}");
    }

    #[test]
    fn scanner_blanks_raw_strings_and_char_literals() {
        let text = "let r = r#\"unsafe std::sync::atomic\"#;\nlet c = '\"';\nlet q = \"a\";\n";
        let r = lint("crates/x/src/lib.rs", text);
        assert!(r.is_empty(), "{r}");
    }

    #[test]
    fn block_comments_are_comment_text() {
        let text = "/* SAFETY: covered by the block comment above */\nunsafe { f() };\n";
        assert!(!lint("crates/x/src/lib.rs", text).has_code(Code::S001));
        let inline = "unsafe { f() }; /* SAFETY: inline */\n";
        assert!(!lint("crates/x/src/lib.rs", inline).has_code(Code::S001));
    }

    #[test]
    fn locations_carry_file_and_line() {
        let r = lint("crates/x/src/lib.rs", "ok();\nunsafe { f() };\n");
        let d = r.with_code(Code::S001).next().expect("finding");
        assert_eq!(
            d.location,
            Location::Source {
                file: "crates/x/src/lib.rs".into(),
                line: 2
            }
        );
    }
}
