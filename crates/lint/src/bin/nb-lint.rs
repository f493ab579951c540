//! CLI driver for `nb-lint`.
//!
//! Usage: `nb-lint [ROOT] [--json PATH] [--quiet]`
//! or `nb-lint --rules` for the machine-readable rule table.
//!
//! With no ROOT, walks up from the current directory to the workspace
//! root. Exits 1 when new (un-suppressed) findings exist.

use std::path::PathBuf;
use std::process::exit;

fn main() {
    let mut root: Option<PathBuf> = None;
    let mut json_out: Option<PathBuf> = None;
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json_out = args.next().map(PathBuf::from),
            "--quiet" | "-q" => quiet = true,
            "--rules" => {
                print!("{}", nb_lint::rules::rules_table());
                return;
            }
            "--help" | "-h" => {
                eprintln!("usage: nb-lint [ROOT] [--json PATH] [--quiet] | --rules");
                return;
            }
            other if root.is_none() && !other.starts_with('-') => {
                root = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("nb-lint: unknown argument `{other}`");
                exit(2);
            }
        }
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = root
        .or_else(|| nb_lint::find_workspace_root(&cwd))
        .unwrap_or_else(|| {
            eprintln!("nb-lint: no workspace root found (no Cargo.toml with [workspace])");
            exit(2);
        });
    let report = match nb_lint::run_root(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("nb-lint: scan failed: {e}");
            exit(2);
        }
    };

    if let Some(p) = json_out {
        if let Err(e) = std::fs::write(&p, report.to_json()) {
            eprintln!("nb-lint: cannot write {}: {e}", p.display());
            exit(2);
        }
    }
    if !quiet {
        print!("{}", report.render_human());
    }
    if report.has_new() {
        exit(1);
    }
}
