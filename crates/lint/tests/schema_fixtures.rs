//! Exact-findings contract over `lint_fixtures/schema_workspace` — the
//! corpus for the telemetry schema family (S): two-way code ↔ docs
//! agreement.

use dbtune_lint::walk;
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../lint_fixtures/schema_workspace")
}

fn scan() -> dbtune_lint::report::Report {
    walk::scan_workspace(&fixture_root()).expect("fixture tree must be readable")
}

#[test]
fn schema_corpus_exact_findings() {
    let report = scan();
    let got: Vec<(String, usize, String)> =
        report.findings.iter().map(|f| (f.path.clone(), f.line, f.rule.clone())).collect();
    let want: Vec<(String, usize, String)> = [
        ("crates/core/src/emit.rs", 14, "S1"),
        ("crates/core/src/emit.rs", 19, "S1"),
        // Dead entries are reported where they live: the doc table rows
        // (paths outside crates/*/src carry findings too — suppression
        // simply never applies to them).
        ("docs/observability.md", 12, "S2"),
        ("docs/observability.md", 20, "S2"),
    ]
    .iter()
    .map(|(p, l, r)| (p.to_string(), *l, r.to_string()))
    .collect();
    assert_eq!(got, want, "schema-corpus findings drifted — update the corpus or the engine");
}

#[test]
fn schema_corpus_fails_the_gate_with_every_family_member() {
    let report = scan();
    assert!(!report.is_clean(), "the corpus must keep the gate red");
    let counts = report.counts();
    for rule in ["S1", "S2"] {
        assert!(
            counts.get(rule).copied().unwrap_or(0) >= 1,
            "rule {rule} found nothing in its known-bad corpus: {counts:?}"
        );
    }
}

#[test]
fn schema_corpus_documented_names_stay_silent() {
    let report = scan();
    // `app.requests`, `app.queue_depth`, and the `boot` span are
    // documented and emitted; none may appear in any finding.
    for clean in ["app.requests", "app.queue_depth", "`boot`"] {
        assert!(
            report.findings.iter().all(|f| !f.message.contains(clean)),
            "{clean} is documented and emitted but was flagged:\n{}",
            report.human()
        );
    }
}
