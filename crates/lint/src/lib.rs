//! `nb-lint`: repo-aware static analysis for the nb workspace.
//!
//! Offline and dependency-free: a hand-rolled lexer ([`lexer`]) feeds a
//! token-pattern scanner ([`scan`]) that enforces the determinism and
//! protocol-safety invariants catalogued in DESIGN.md §10. The driver in
//! this module walks every workspace `.rs` file (excluding `shims/` and
//! build output), applies `nb-lint::allow` suppressions, and renders
//! human + JSON reports with a stable digest for golden pinning.

pub mod graph;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod scan;

use scan::{scan_file, Allow, Finding};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// FNV-1a 64-bit: the same digest primitive the chaos engine uses for
/// plan identity, so goldens across the repo share one fingerprint
/// algebra.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A suppression that fired, for reporting.
#[derive(Debug, Clone)]
pub struct Suppressed {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub reason: String,
}

/// An `nb-lint::allow` that matched nothing — usually a stale directive
/// left behind after a fix. Reported but non-failing.
#[derive(Debug, Clone)]
pub struct UnusedAllow {
    pub file: String,
    pub line: u32,
    pub rules: Vec<String>,
}

/// The outcome of a full-tree lint run.
#[derive(Debug, Default)]
pub struct Report {
    pub files_scanned: usize,
    /// Findings no `nb-lint::allow` covers: these fail the run.
    pub new: Vec<Finding>,
    pub suppressed: Vec<Suppressed>,
    pub unused_allows: Vec<UnusedAllow>,
}

impl Report {
    /// Whether the run should exit non-zero.
    pub fn has_new(&self) -> bool {
        !self.new.is_empty()
    }

    /// Stable digest over (rule, file, count) triples — deliberately
    /// line-number-free so that ordinary edits don't break the golden
    /// pin, while any added/removed finding or suppression does.
    pub fn digest(&self) -> u64 {
        let mut triples: Vec<(String, String, &'static str)> = Vec::new();
        let mut bump = |rule: &'static str, file: &str, class: &'static str| {
            triples.push((file.to_string(), rule.to_string(), class));
        };
        for f in &self.new {
            bump(f.rule, &f.file, "new");
        }
        for s in &self.suppressed {
            bump(s.rule, &s.file, "suppressed");
        }
        triples.sort();
        let mut acc = String::new();
        let mut i = 0;
        while i < triples.len() {
            let mut j = i;
            while j < triples.len() && triples[j] == triples[i] {
                j += 1;
            }
            let (file, rule, class) = &triples[i];
            acc.push_str(&format!("{rule}|{file}|{class}|{}\n", j - i));
            i = j;
        }
        fnv1a64(acc.as_bytes())
    }

    /// Hand-rolled JSON (no serde in this crate): stable field and
    /// entry order, so the report is byte-identical across runs.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str(&format!("  \"digest\": \"{:016x}\",\n", self.digest()));
        s.push_str("  \"new\": [\n");
        for (i, f) in self.new.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \"excerpt\": \"{}\"}}{}\n",
                f.rule,
                esc(&f.file),
                f.line,
                esc(&f.message),
                esc(&f.excerpt),
                if i + 1 < self.new.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"suppressed\": [\n");
        for (i, sp) in self.suppressed.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"reason\": \"{}\"}}{}\n",
                sp.rule,
                esc(&sp.file),
                sp.line,
                esc(&sp.reason),
                if i + 1 < self.suppressed.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"unused_allows\": [\n");
        for (i, u) in self.unused_allows.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"file\": \"{}\", \"line\": {}, \"rules\": \"{}\"}}{}\n",
                esc(&u.file),
                u.line,
                esc(&u.rules.join(",")),
                if i + 1 < self.unused_allows.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }

    /// Terminal-friendly rendering.
    pub fn render_human(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "nb-lint: {} files scanned, {} new finding(s), {} suppressed, digest {:016x}\n",
            self.files_scanned,
            self.new.len(),
            self.suppressed.len(),
            self.digest()
        ));
        for f in &self.new {
            s.push_str(&format!(
                "  [{}] {}:{}: {}\n      {}\n",
                f.rule, f.file, f.line, f.message, f.excerpt
            ));
        }
        for u in &self.unused_allows {
            s.push_str(&format!(
                "  [warn] {}:{}: unused nb-lint::allow({}) — remove it\n",
                u.file,
                u.line,
                u.rules.join(",")
            ));
        }
        if self.new.is_empty() {
            s.push_str("  clean.\n");
        }
        s
    }
}

/// Walks up from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Recursively collects workspace `.rs` files, sorted, as paths
/// relative to `root` with `/` separators. `shims/` (external-crate
/// stand-ins with their own conventions), `target/` and hidden
/// directories are excluded.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<String>> {
    fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> io::Result<()> {
        let mut entries: Vec<PathBuf> =
            fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        entries.sort();
        for p in entries {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with('.') {
                continue;
            }
            if p.is_dir() {
                if name == "target" || (p.parent() == Some(root) && name == "shims") {
                    continue;
                }
                walk(&p, root, out)?;
            } else if name.ends_with(".rs") {
                let rel = p
                    .strip_prefix(root)
                    .unwrap_or(&p)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(rel);
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

/// Runs the full lint pass over the workspace at `root`.
pub fn run_root(root: &Path) -> io::Result<Report> {
    let files = collect_rs_files(root)?;
    let mut sources = Vec::with_capacity(files.len());
    for rel in files {
        let src = fs::read_to_string(root.join(&rel))?;
        sources.push((rel, src));
    }
    Ok(run_sources(&sources))
}

/// The full pipeline over in-memory sources (workspace-relative path,
/// contents). Phase 1 runs the per-file token scanner; phase 2 builds
/// the item graph for the interprocedural rules (D009–D011), merging
/// their findings into the owning file before suppressions apply — so
/// those rules ride the exact same `nb-lint::allow` machinery.
pub fn run_sources(sources: &[(String, String)]) -> Report {
    let mut scans: Vec<(&str, scan::FileScan)> =
        sources.iter().map(|(rel, src)| (rel.as_str(), scan_file(rel, src))).collect();

    let item_graph = items::ItemGraph::build(sources);
    for f in graph::analyze(&item_graph) {
        if let Some((_, fscan)) = scans.iter_mut().find(|(p, _)| *p == f.file) {
            fscan.findings.push(f);
        }
    }
    for (_, fscan) in &mut scans {
        fscan.findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    }

    let mut report = Report { files_scanned: sources.len(), ..Report::default() };

    for (rel, fs_scan) in scans {
        let mut allow_used: Vec<bool> = vec![false; fs_scan.allows.len()];
        for f in fs_scan.findings {
            // L001 (malformed directive) cannot be suppressed.
            let allow_idx = if f.rule == "L001" {
                None
            } else {
                fs_scan.allows.iter().position(|a: &Allow| {
                    a.covers.contains(&f.line) && a.rules.iter().any(|r| r == f.rule)
                })
            };
            if let Some(ai) = allow_idx {
                allow_used[ai] = true;
                report.suppressed.push(Suppressed {
                    rule: f.rule,
                    file: f.file.clone(),
                    line: f.line,
                    reason: fs_scan.allows[ai].reason.clone(),
                });
                continue;
            }
            report.new.push(f);
        }
        for (ai, a) in fs_scan.allows.iter().enumerate() {
            if !allow_used[ai] {
                report.unused_allows.push(UnusedAllow {
                    file: rel.to_string(),
                    line: a.line,
                    rules: a.rules.clone(),
                });
            }
        }
    }
    report.new.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
        .suppressed
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
        .unused_allows
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}
