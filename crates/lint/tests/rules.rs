//! Fixture-driven integration tests for the four mig-lint rules, plus
//! the workspace self-scan that keeps the codebase lint-clean. These are
//! the same checks CI runs via `cargo run -p mig-lint -- --self-test`.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

/// For every rule: `bad.rs` fires unannotated, `clean.rs` is silent,
/// `allowed.rs` fires but is fully suppressed by annotations.
#[test]
fn every_rule_fires_on_its_fixtures() {
    let errors = mig_lint::self_test(&workspace_root()).expect("fixtures readable");
    assert!(errors.is_empty(), "self-test failures: {errors:#?}");
}

/// The workspace itself must carry no unannotated violations, and every
/// suppression must state a reason.
#[test]
fn workspace_self_scan_is_clean() {
    let report = mig_lint::lint_workspace(&workspace_root()).expect("workspace readable");
    let bad: Vec<String> = report
        .unannotated()
        .map(|v| format!("{}:{} [{}] {}", v.file, v.line, v.rule, v.snippet))
        .collect();
    assert!(
        bad.is_empty(),
        "unannotated violations:\n{}",
        bad.join("\n")
    );
    for v in &report.violations {
        assert!(
            !v.reason.is_empty(),
            "{}:{} suppressed without a reason",
            v.file,
            v.line
        );
    }
    // Sanity: the scan actually covered the workspace, not an empty dir.
    assert!(
        report.files_scanned > 50,
        "only {} files scanned",
        report.files_scanned
    );
}

/// The JSON report is stable: sorted by (file, line, rule) and carrying
/// the summary block tooling keys on.
#[test]
fn json_report_is_stable_and_sorted() {
    let report = mig_lint::lint_workspace(&workspace_root()).expect("workspace readable");
    let keys: Vec<_> = report
        .violations
        .iter()
        .map(|v| (v.file.clone(), v.line, v.rule))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "violations not in (file, line, rule) order");

    let json = report.to_json();
    assert!(json.contains("\"summary\""));
    assert!(json.contains("\"files_scanned\""));
    assert!(json.contains("\"unannotated\": 0"));
}

/// A fixture seeded with a violation must make the whole run fail —
/// this is what the CI self-test step relies on.
#[test]
fn bad_fixture_fails_a_direct_scan() {
    let root = workspace_root();
    let rel = PathBuf::from("crates/lint/tests/fixtures/enclave-panic/bad.rs");
    let report = mig_lint::lint_files(&root, std::slice::from_ref(&rel)).expect("fixture readable");
    assert!(
        report.unannotated().count() >= 3,
        "expected indexing + unwrap + expect + panic hits, got {:#?}",
        report
            .violations
            .iter()
            .map(|v| (v.line, v.rule))
            .collect::<Vec<_>>()
    );
}
