//! **mig-lint** — domain-specific static analysis for the sgx-migrate
//! workspace.
//!
//! Generic lints (clippy) can't see this codebase's security invariants:
//! that digest comparisons must be constant-time, that enclave-resident
//! code must not panic, that key material must not print and must
//! zeroize, and that the migration FSMs match every state by name.
//! mig-lint enforces those four with a hand-rolled scrubbing tokenizer —
//! no syntax-tree crate, no network, no dependencies.
//!
//! Findings can be suppressed per-site with
//! `// mig-lint: allow(<rule>, "<reason>")` on the same or preceding
//! line; an empty reason does not suppress. See the workspace README's
//! *Static analysis* section for the rule catalogue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod rules;
pub mod scan;
pub mod scrub;

use std::io;
use std::path::{Path, PathBuf};

use report::{Report, Violation};
use rules::{CrossFileFacts, RawViolation};
use scan::SourceFile;

/// Lints every `.rs` file under `root` except the fixture corpus.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let files = scan::walk_rs_files(root, false)?;
    lint_files(root, &files)
}

/// Lints the given files (paths relative to `root`).
pub fn lint_files(root: &Path, files: &[PathBuf]) -> io::Result<Report> {
    let mut report = Report::default();
    let mut defs: Vec<(usize, String, usize)> = Vec::new(); // (file idx, type, offset)
    let mut drops: Vec<String> = Vec::new();
    let mut sources = Vec::with_capacity(files.len());

    for rel in files {
        let file = SourceFile::load(root, rel)?;
        let mut raw: Vec<RawViolation> = Vec::new();
        raw.extend(rules::ct_compare(&file));
        raw.extend(rules::enclave_panic(&file));
        raw.extend(rules::no_wildcard_fsm(&file));
        let (hygiene, facts) = rules::secret_hygiene(&file);
        raw.extend(hygiene);
        let idx = sources.len();
        record_facts(&mut defs, &mut drops, idx, facts);
        for rv in raw {
            report.violations.push(resolve(&file, rv.rule, rv.offset));
        }
        sources.push(file);
    }

    // Cross-file pass: a must-zeroize type with no `impl Drop` anywhere
    // in the scanned set leaves key material in freed memory.
    for (idx, name, offset) in defs {
        if !drops.iter().any(|d| d == &name) {
            report
                .violations
                .push(resolve(&sources[idx], "secret-hygiene", offset));
        }
    }

    report.files_scanned = sources.len();
    report.finish();
    Ok(report)
}

fn record_facts(
    defs: &mut Vec<(usize, String, usize)>,
    drops: &mut Vec<String>,
    idx: usize,
    facts: CrossFileFacts,
) {
    for (name, offset) in facts.zeroize_defs {
        defs.push((idx, name, offset));
    }
    drops.extend(facts.drop_impls);
}

/// Maps a raw hit to a [`Violation`], applying annotations: an
/// `allow(rule, "reason")` on the finding's line or the line above
/// suppresses it, but only with a non-empty reason.
fn resolve(file: &SourceFile, rule: &'static str, offset: usize) -> Violation {
    let line = file.line_of(offset);
    let ann = file
        .annotations
        .iter()
        .find(|a| a.rule == rule && (a.line == line || a.line + 1 == line) && !a.reason.is_empty());
    Violation {
        rule,
        file: file.rel_path.clone(),
        line,
        snippet: file.line_text(line).to_string(),
        annotated: ann.is_some(),
        reason: ann.map(|a| a.reason.clone()).unwrap_or_default(),
    }
}

/// One self-test failure message.
pub type SelfTestError = String;

/// Runs the fixture self-test against the workspace `root`: for every
/// rule's fixture directory under `crates/lint/tests/fixtures/`,
/// `bad.rs` must produce at least one unannotated violation of that
/// rule, `clean.rs` none, and `allowed.rs` only annotated ones. This is
/// what CI runs to prove the rules still fire.
pub fn self_test(root: &Path) -> io::Result<Vec<SelfTestError>> {
    let mut errors = Vec::new();
    for rule in rules::RULES {
        for case in ["bad.rs", "clean.rs", "allowed.rs"] {
            let rel = PathBuf::from("crates/lint/tests/fixtures")
                .join(rule)
                .join(case);
            if !root.join(&rel).is_file() {
                errors.push(format!("missing fixture {}", rel.display()));
                continue;
            }
            let report = lint_files(root, std::slice::from_ref(&rel))?;
            let of_rule: Vec<_> = report
                .violations
                .iter()
                .filter(|v| v.rule == rule)
                .collect();
            let unannotated = of_rule.iter().filter(|v| !v.annotated).count();
            match case {
                "bad.rs" => {
                    if unannotated == 0 {
                        errors.push(format!("{rule}/bad.rs: expected an unannotated violation"));
                    }
                }
                "clean.rs" => {
                    if !of_rule.is_empty() {
                        errors.push(format!(
                            "{rule}/clean.rs: expected no violations, got {} at line {}",
                            of_rule.len(),
                            of_rule[0].line
                        ));
                    }
                }
                _ => {
                    if of_rule.is_empty() {
                        errors.push(format!("{rule}/allowed.rs: expected annotated violations"));
                    } else if unannotated != 0 {
                        errors.push(format!(
                            "{rule}/allowed.rs: {unannotated} violations not suppressed"
                        ));
                    }
                }
            }
        }
    }
    Ok(errors)
}
