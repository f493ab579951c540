//! The `repro` binary's command-line contract: help comes from the
//! dispatch table, usage errors exit 2, `--out` is the only place a
//! report lands, `repro gate` writes nothing, and its clippy, figure and
//! census gates pass on the tree; EXPERIMENTS.md's generated tables
//! fail the figure gate when they differ from their rendering; the
//! clippy and benchmark-build gates fail closed without cargo.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn repro")
}

/// A fresh empty directory under cargo's per-target tmp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `repro.rs`'s dispatch table, by name.
const COMMANDS: [&str; 32] = [
    "help", "all", "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
    "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "ablation-timeout", "ablation-maxresp",
    "ablation-weights", "ablation-scale", "ablation-loss", "ablation-clock", "ablation-topology",
    "check", "experiments", "trace", "chaos", "scale", "census", "ab", "gate",
];

#[test]
fn help_lists_every_command_and_exits_zero() {
    let dir = scratch("repro_cli_help");
    let help = repro(&dir, &["help"]);
    assert_eq!(help.status.code(), Some(0));
    let text = String::from_utf8(help.stdout).expect("utf-8 help");
    let listed: Vec<&str> = text
        .lines()
        .skip_while(|l| *l != "commands:")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(listed, COMMANDS, "help must list the dispatch table, in order");
    assert_eq!(repro(&dir, &["--help"]).stdout, text.as_bytes());
}

#[test]
fn usage_errors_exit_two() {
    let dir = scratch("repro_cli_usage");
    for args in [
        &["--frobnicate"][..],
        &["frobnicate"],
        &["fig2", "--runs"],
        &["fig2", "--runs", "banana"],
        &["fig2", "--out", "x.json"],
        &["chaos", "--out", "/proc/nope/x.json", "--scenarios", "1"],
        &["gate", "frobnicate"],
        &["gate", "--out", "x.json"],
        &["lint"],
        &["lint", "--rules"],
        &["ab"],
        &["ab", "--parent", "HEAD", "--pairs", "0"],
        &["ab", "--parent", "HEAD", "--expect-move"],
    ] {
        let out = repro(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(!out.stderr.is_empty(), "{args:?} must say why");
    }
    assert_eq!(std::fs::read_dir(&dir).expect("scratch dir").count(), 0);
}

#[test]
fn chaos_writes_exactly_the_out_path() {
    let dir = scratch("repro_cli_chaos");
    let out = repro(&dir, &["chaos", "--scenarios", "1", "--out", "report.json"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("scratch dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert_eq!(written, ["report.json"], "the default CHAOS_campaign.json must not appear");
    let json = std::fs::read_to_string(dir.join("report.json")).expect("report");
    assert!(json.contains("\"base_seed\": 2005"), "{json}");
}

/// Every entry of `dir` with its bytes, in name order.
fn snapshot(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("scratch dir")
        .map(|e| {
            let e = e.expect("dir entry");
            (e.file_name(), std::fs::read(e.path()).expect("entry bytes"))
        })
        .collect();
    entries.sort();
    entries
}

#[test]
fn gate_fails_on_one_changed_byte_and_leaves_the_directory_as_it_found_it() {
    let dir = scratch("repro_cli_gate");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    let committed = std::fs::read(concat!(env!("CARGO_MANIFEST_DIR"), "/../../CHAOS_campaign.json"))
        .expect("the committed chaos report");

    let mut stale = committed.clone();
    let mid = stale.len() / 2;
    stale[mid] ^= 1;
    std::fs::write(dir.join("CHAOS_campaign.json"), &stale).expect("write stale copy");
    let before = snapshot(&dir);
    let out = repro(&dir, &["gate", "chaos"]);
    assert_eq!(out.status.code(), Some(1), "a changed byte must fail the gate");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("CHAOS_campaign.json"), "the failure names the file: {stderr}");
    // It shows the line that moved as the directory holds it and as the
    // tree regenerates it.
    let n = committed[..mid].iter().filter(|&&b| b == b'\n').count();
    let line = |text: &[u8]| String::from_utf8_lossy(text).lines().nth(n).expect("the changed line").to_string();
    assert!(stderr.contains(&format!("committed:   {}\n", line(&stale))), "{stderr}");
    assert!(stderr.contains(&format!("regenerated: {}\n", line(&committed))), "{stderr}");
    assert_eq!(snapshot(&dir), before, "the gate writes nothing, even on failure");

    std::fs::write(dir.join("CHAOS_campaign.json"), &committed).expect("restore the copy");
    let out = repro(&dir, &["gate", "chaos"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn gate_lint_passes_on_the_tree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = repro(&root, &["gate", "lint"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn gate_figs_passes_on_the_tree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = repro(&root, &["gate", "figs"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
}

/// EXPERIMENTS.md is golden like the CSVs: in a copy of the figure pins,
/// one changed cell of a generated table fails `repro gate figs`, naming
/// the file and the line, and `repro experiments` writes the committed
/// text back.
#[test]
fn gate_figs_fails_when_experiments_md_is_not_its_rendering() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = scratch("repro_cli_experiments");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    std::fs::create_dir_all(dir.join("artifacts/csv")).expect("create artifacts/csv");
    for entry in std::fs::read_dir(root.join("artifacts/csv")).expect("the committed CSVs").flatten() {
        std::fs::copy(entry.path(), dir.join("artifacts/csv").join(entry.file_name())).expect("copy a CSV");
    }
    std::fs::copy(root.join("artifacts/trace_output.txt"), dir.join("artifacts/trace_output.txt"))
        .expect("copy the trace");
    let committed = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("the committed EXPERIMENTS.md");
    let block = committed.find("<!-- table fig3 -->").expect("a generated fig3 table");
    let row = block + committed[block..].find("| 100 |").expect("fig3's row");
    let stale = format!("{}| 101 |{}", &committed[..row], &committed[row + "| 100 |".len()..]);
    std::fs::write(dir.join("EXPERIMENTS.md"), &stale).expect("write the stale copy");

    let out = repro(&dir, &["gate", "figs"]);
    assert_eq!(out.status.code(), Some(1), "a changed cell must fail the gate");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("FAIL: EXPERIMENTS.md: the tree regenerates it differently"), "{stderr}");
    assert!(stderr.contains("committed:   | 101 |"), "{stderr}");
    assert_eq!(stderr.matches("FAIL:").count(), 1, "only EXPERIMENTS.md moved: {stderr}");

    let out = repro(&dir, &["experiments"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let rewritten = std::fs::read_to_string(dir.join("EXPERIMENTS.md")).expect("the rewritten copy");
    assert!(rewritten == committed, "repro experiments writes the committed text back");
    let out = repro(&dir, &["gate", "figs"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
}

/// The census reads the tree and nothing else, so it is the cheapest
/// gate: the committed `CENSUS.json` must match a recount.
#[test]
fn gate_census_passes_on_the_tree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = repro(&root, &["gate", "census"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
}

/// The census gate holds every count to its committed ceiling: on a
/// one-crate tree, a count at its ceiling passes, one over it fails,
/// naming the count, its value and its ceiling, and one under it fails,
/// naming the ceiling to lower.
#[test]
fn gate_census_fails_a_count_above_its_ceiling() {
    let dir = scratch("repro_cli_ceilings");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    std::fs::create_dir_all(dir.join("crates/util/src")).expect("create crate");
    let lib = "pub struct UtilConfig {\n    pub a: u8,\n}\n";
    std::fs::write(dir.join("crates/util/src/lib.rs"), lib).expect("write lib.rs");
    std::fs::write(dir.join("DESIGN.md"), "# Design\n\nOne line.\n").expect("write DESIGN.md");
    assert_eq!(repro(&dir, &["census"]).status.code(), Some(0), "repro census writes CENSUS.json");
    let gate_with_design_ceiling = |ceiling: usize| {
        let mut ceilings = format!("design_md_lines = {ceiling}\nnon_test_lines.crates/util = 3\n");
        for lib in ["wire", "net", "broker", "core", "security", "bench"] {
            ceilings.push_str(&format!("non_test_lines.crates/{lib} = 0\n"));
        }
        ceilings.push_str(
            "test_only_pub = 0\nown_file_only_pub = 0\npub_setters = 0\ncontext_impls = 0\n\
             config_pub_fields.UtilConfig = 1\nignored_tests = 0\n",
        );
        std::fs::write(dir.join("CENSUS_ceilings.conf"), ceilings).expect("write ceilings");
        repro(&dir, &["gate", "census"])
    };
    let at = gate_with_design_ceiling(3);
    assert_eq!(at.status.code(), Some(0), "{}", String::from_utf8_lossy(&at.stderr));
    let over = gate_with_design_ceiling(2);
    assert_eq!(over.status.code(), Some(1), "a count above its ceiling fails the gate");
    let stderr = String::from_utf8_lossy(&over.stderr);
    assert!(stderr.contains("design_md_lines = 3, above its ceiling 2"), "{stderr}");
    let under = gate_with_design_ceiling(4);
    assert_eq!(under.status.code(), Some(1), "a count below its ceiling fails the gate");
    let stderr = String::from_utf8_lossy(&under.stderr);
    assert!(stderr.contains("design_md_lines = 3, below its ceiling 4: lower the ceiling to 3"), "{stderr}");
}

#[test]
fn gate_lint_fails_closed_when_cargo_cannot_be_run() {
    let dir = scratch("repro_cli_no_cargo");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["gate", "lint"])
        .current_dir(&dir)
        .env("PATH", &dir)
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(1), "a gate that cannot run must not pass");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot run cargo"), "the failure says why: {stderr}");
}

#[test]
fn gate_bench_fails_closed_when_cargo_cannot_be_run() {
    let dir = scratch("repro_cli_no_cargo_bench");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    std::fs::create_dir_all(dir.join("benchmark")).expect("create benchmark/");
    std::fs::write(dir.join("benchmark/Cargo.lock"), "# a lock\n").expect("write lock");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["gate", "bench"])
        .current_dir(&dir)
        .env("PATH", &dir)
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(1), "a gate that cannot run must not pass");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot run cargo"), "the failure says why: {stderr}");
    let lock = std::fs::read_to_string(dir.join("benchmark/Cargo.lock")).expect("read lock");
    assert_eq!(lock, "# a lock\n", "the lock is left as it was");
}
