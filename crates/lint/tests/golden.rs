//! Golden gate over the real tree: the workspace must lint clean, and
//! the report digest is pinned like the chaos-smoke seeds so that any
//! drift — a new finding, a new suppression, a dropped one — fails
//! loudly and forces a deliberate re-pin.

use std::path::Path;

/// Pinned digest of the clean tree's lint report: FNV-1a-64 over the
/// sorted `(rule, file, class, count)` summary — deliberately free of
/// line numbers, so ordinary edits never churn it. Re-pin (and say why
/// in the commit) whenever a violation is fixed or a justified
/// suppression is added or removed. Today's pin is the digest of the
/// empty summary (the FNV-1a offset basis): zero findings, zero
/// suppressions.
const GOLDEN_DIGEST: u64 = 0xcbf2_9ce4_8422_2325;

fn workspace_root() -> std::path::PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    nb_lint::find_workspace_root(manifest).expect("workspace root above crates/lint")
}

#[test]
fn tree_is_lint_clean() {
    let root = workspace_root();
    let report = nb_lint::run_root(&root).expect("scan");
    assert!(
        !report.has_new(),
        "new lint findings — fix or add a justified nb-lint::allow:\n{}",
        report.render_human()
    );
    assert!(
        report.unused_allows.is_empty(),
        "stale nb-lint::allow directives — remove them:\n{}",
        report.render_human()
    );
}

#[test]
fn report_digest_matches_golden() {
    let root = workspace_root();
    let report = nb_lint::run_root(&root).expect("scan");
    assert_eq!(
        report.digest(),
        GOLDEN_DIGEST,
        "lint-report digest drifted (got {:016x}): a finding or suppression \
         changed — if intentional, re-pin GOLDEN_DIGEST\n{}",
        report.digest(),
        report.render_human()
    );
}

#[test]
fn readme_rules_table_is_generated_from_registry() {
    let root = workspace_root();
    let readme = std::fs::read_to_string(root.join("README.md")).expect("read README.md");
    const START: &str = "<!-- nb-lint-rules:start -->";
    const END: &str = "<!-- nb-lint-rules:end -->";
    let a = readme.find(START).expect("README missing nb-lint-rules:start marker") + START.len();
    let b = readme.find(END).expect("README missing nb-lint-rules:end marker");
    let in_readme = readme[a..b].trim();
    let generated = nb_lint::rules::rules_markdown();
    assert_eq!(
        in_readme,
        generated.trim(),
        "README rules table drifted from the rule registry — regenerate it \
         from `repro lint --rules` (rules.rs is the single source of truth)"
    );
}

#[test]
fn rules_table_is_stable_and_covers_all_rules() {
    let table = nb_lint::rules::rules_table();
    // Machine-readable contract: header + one row per rule, tab-separated.
    let mut lines = table.lines();
    assert_eq!(lines.next(), Some("id\tseverity\tzone\tsummary"));
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), nb_lint::rules::RULES.len());
    for (row, meta) in rows.iter().zip(nb_lint::rules::RULES) {
        let cols: Vec<&str> = row.split('\t').collect();
        assert_eq!(cols.len(), 4, "row has extra tabs: {row}");
        assert_eq!(cols[0], meta.id);
    }
    // Every rule that can fire is catalogued (IDs are unique and sorted
    // within their prefix families).
    let ids: Vec<&str> = nb_lint::rules::RULES.iter().map(|r| r.id).collect();
    for want in [
        "D001", "D002", "D003", "D004", "D005", "D006", "D007", "D008", "D009", "D010",
        "D011", "L001",
    ] {
        assert!(ids.contains(&want), "rule {want} missing from registry");
    }
}
