//! The `repro` binary's command-line contract: help comes from the
//! dispatch table, usage errors exit 2, `--out` is the only place a
//! report lands, `repro gate` writes nothing, and its clippy, figure and
//! census gates pass on the tree; the clippy gate fails closed without
//! cargo.

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
const COMMANDS: [&str; 31] = [
    "help", "all", "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
    "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "ablation-timeout", "ablation-maxresp",
    "ablation-weights", "ablation-scale", "ablation-loss", "ablation-clock", "ablation-topology",
    "check", "trace", "chaos", "federation", "scale", "census", "gate",
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
    ] {
        let out = repro(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(!out.stderr.is_empty(), "{args:?} must say why");
    }
    assert_eq!(std::fs::read_dir(&dir).expect("scratch dir").count(), 0);
}

/// `--workers` sets how many threads the figures' runs shard across,
/// never what they print: a one-row-per-point figure, and an ablation
/// whose points yield a row per winning site.
#[test]
fn figures_print_the_same_bytes_at_any_worker_count() {
    let dir = scratch("repro_cli_workers");
    for (cmd, runs, title) in [("fig3", "12", "Figure 3"), ("ablation-weights", "4", "4 runs, seed 2005")] {
        let print = |workers: &str| {
            let out = repro(&dir, &[cmd, "--runs", runs, "--workers", workers]);
            assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
            out.stdout
        };
        let serial = print("1");
        assert!(String::from_utf8_lossy(&serial).contains(title), "{cmd}");
        assert_eq!(serial, print("3"), "{cmd}");
    }
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

/// The census reads the tree and nothing else, so it is the cheapest
/// gate: the committed `CENSUS.json` must match a recount.
#[test]
fn gate_census_passes_on_the_tree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = repro(&root, &["gate", "census"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
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
