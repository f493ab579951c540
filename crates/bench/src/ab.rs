//! `repro ab`: the repo benchmark (`BENCHMARK.json`, `benchmark/`) run
//! on a parent revision and on the working tree, in alternating pairs,
//! summarised into one committed file.
//!
//! `repro` reads no clock: the benchmark binary measures, and this
//! module exports the parent with `git archive`, builds both binaries in
//! their own target directories, spawns the runs and parses what each
//! prints. Pair `i` (from 1) runs the parent first when `i` is odd and
//! the change first when it is even, so a host that drifts over the
//! session favours neither side. The summary ([`summarize`]) keeps every
//! metric of every pair, each side's median, the parent's interquartile
//! range and the change's win count, and says whether each column that
//! is a pure function of the seed — every metric but [`HOST_METRICS`],
//! and both printed digests — was identical on every run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The metrics the benchmark times on the host, with whether higher is
/// better. Every other metric it prints is a pure function of the seed.
pub const HOST_METRICS: [(&str, bool); 2] = [("setup_s", false), ("ops_per_s", true)];

/// The digests the benchmark prints on its `#` summary line.
pub const DIGESTS: [&str; 2] = ["engine digest", "delivery digest"];

/// One benchmark run, as parsed from what it printed.
#[derive(Debug, Clone)]
pub struct Run {
    /// Every end-to-end metric of the result line, by name.
    pub metrics: BTreeMap<String, f64>,
    /// The [`DIGESTS`], in that order.
    pub digests: [String; 2],
}

/// Parses one run's standard output: the `#` line carrying the digests
/// and the closing JSON result line, which must say `"correct": true`.
pub fn parse_run(stdout: &str) -> Result<Run, String> {
    let result = stdout.lines().rfind(|l| l.starts_with('{')).ok_or("no result line")?;
    if !result.contains("\"correct\": true") {
        return Err(format!("the run was not correct: {result}"));
    }
    let mut metrics = BTreeMap::new();
    let (_, mut rest) = result.split_once("\"metrics\": {").ok_or("no metrics in the result line")?;
    const VALUE: &str = "\": {\"value\": ";
    while let Some(at) = rest.find(VALUE) {
        let name = rest[..at].rsplit('"').next().unwrap_or_default();
        let tail = &rest[at + VALUE.len()..];
        let end = tail.find([',', '}']).ok_or("an unterminated metric")?;
        let value = tail[..end].trim().parse().map_err(|e| format!("metric {name}: {e}"))?;
        metrics.insert(name.to_string(), value);
        rest = &tail[end..];
    }
    if metrics.is_empty() {
        return Err("no metric in the result line".to_string());
    }
    let digest = |label: &str| {
        let (_, tail) = stdout.split_once(&format!("{label} "))?;
        Some(tail.split(|c: char| !c.is_ascii_hexdigit()).next()?.to_string())
    };
    let [engine, delivery] = DIGESTS.map(digest);
    let missing = || format!("no {} or {} printed", DIGESTS[0], DIGESTS[1]);
    Ok(Run { metrics, digests: [engine.ok_or_else(missing)?, delivery.ok_or_else(missing)?] })
}

/// The value at quantile `q` of ascending `sorted`, interpolated
/// linearly between the two nearest ranks.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let at = q * last as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// Median and interquartile range (Q3 − Q1) of `values`.
pub fn median_iqr(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    (quantile(&sorted, 0.5), quantile(&sorted, 0.75) - quantile(&sorted, 0.25))
}

/// What `repro ab` was asked for.
pub struct Options {
    /// The revision to compare the working tree with.
    pub parent: String,
    pub pairs: usize,
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    /// Deterministic columns the change is meant to move.
    pub expect_move: Vec<String>,
}

fn json_list<T>(items: impl Iterator<Item = T>, show: impl Fn(T) -> String) -> String {
    items.map(show).collect::<Vec<_>>().join(", ")
}

/// The summary of `pairs` (each `(parent, change)`, run as `o` asks on
/// the parent `rev`) as the JSON that `repro ab` writes, and the
/// deterministic columns that moved without being named in
/// `o.expect_move`.
pub fn summarize(o: &Options, rev: &str, pairs: &[(Run, Run)]) -> (String, Vec<String>) {
    let mut unexpected = Vec::new();
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"parent\": \"{}\", \"pairs\": {},\n \
         \"order\": \"odd pairs parent first\", \"expect_move\": [{}],\n \"metrics\": {{",
        o.workload,
        o.seed,
        o.seconds,
        rev,
        pairs.len(),
        json_list(o.expect_move.iter(), |m| format!("\"{m}\""))
    );
    let names: Vec<&String> = pairs.first().map(|(p, _)| p.metrics.keys().collect()).unwrap_or_default();
    for (i, name) in names.iter().enumerate() {
        let side = |pick: fn(&(Run, Run)) -> &Run| -> Vec<f64> {
            pairs.iter().map(|pair| pick(pair).metrics.get(*name).copied().unwrap_or(f64::NAN)).collect()
        };
        let (parent, change) = (side(|p| &p.0), side(|p| &p.1));
        let host = HOST_METRICS.iter().find(|(host, _)| host == name);
        let higher = host.is_some_and(|&(_, higher)| higher);
        let wins = parent.iter().zip(&change).filter(|(p, c)| if higher { c > p } else { c < p }).count();
        let ((parent_median, parent_iqr), (change_median, _)) = (median_iqr(&parent), median_iqr(&change));
        let identical = parent.iter().chain(&change).all(|v| Some(v.to_bits()) == parent.first().map(|f| f.to_bits()));
        let verdict = if host.is_some() {
            String::new()
        } else {
            if !identical && !o.expect_move.contains(name) {
                unexpected.push(name.to_string());
            }
            format!(", \"identical\": {identical}")
        };
        let _ = write!(
            json,
            "{}\n  \"{name}\": {{\"better\": \"{}\", \"parent\": [{}], \"change\": [{}],\n    \
             \"parent_median\": {parent_median}, \"change_median\": {change_median}, \
             \"parent_iqr\": {parent_iqr}, \"change_wins\": {wins}{verdict}}}",
            if i == 0 { "" } else { "," },
            if higher { "higher" } else { "lower" },
            json_list(parent.iter(), f64::to_string),
            json_list(change.iter(), f64::to_string),
        );
    }
    json.push_str("},\n \"digests\": {");
    for (i, label) in DIGESTS.iter().enumerate() {
        let side = |pick: fn(&(Run, Run)) -> &Run| -> Vec<&str> {
            pairs.iter().map(|pair| pick(pair).digests[i].as_str()).collect()
        };
        let (parent, change) = (side(|p| &p.0), side(|p| &p.1));
        let identical = parent.iter().chain(&change).all(|d| Some(d) == parent.first());
        let name = label.replace(' ', "_");
        if !identical && !o.expect_move.contains(&name) {
            unexpected.push(name.clone());
        }
        let _ = write!(
            json,
            "{}\n  \"{name}\": {{\"parent\": [{}], \"change\": [{}], \"identical\": {identical}}}",
            if i == 0 { "" } else { "," },
            json_list(parent.iter(), |d| format!("\"{d}\"")),
            json_list(change.iter(), |d| format!("\"{d}\"")),
        );
    }
    json.push_str("}}\n");
    (json, unexpected)
}

fn command_output(cmd: &mut Command, what: &str) -> Result<Vec<u8>, String> {
    let out = cmd.stderr(Stdio::inherit()).output().map_err(|e| format!("cannot run {what}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{what} failed ({})", out.status));
    }
    Ok(out.stdout)
}

/// Builds the benchmark of the tree at `root` into `target`; returns the
/// binary.
fn build(root: &Path, target: &Path) -> Result<PathBuf, String> {
    let mut cargo = Command::new("cargo");
    cargo.args(["build", "--release", "--offline", "--quiet", "--manifest-path", "benchmark/Cargo.toml"]);
    command_output(cargo.arg("--target-dir").arg(target).current_dir(root), "cargo build of benchmark/")?;
    Ok(target.join("release/nb-benchmark"))
}

/// Runs `repro ab` from the repository at `root`: exports and builds
/// the parent under `target/ab/`, builds the tree's benchmark, puts
/// `benchmark/Cargo.lock` back as it was, runs the pairs and writes
/// `perf/ab-<workload>-<seed>-<parent>.json`. Returns that path and the
/// deterministic columns that moved unexpectedly.
pub fn run(root: &Path, o: &Options) -> Result<(PathBuf, Vec<String>), String> {
    const LOCK: &str = "benchmark/Cargo.lock";
    let mut git = Command::new("git");
    let rev = command_output(git.args(["rev-parse", "--short=12", &o.parent]).current_dir(root), "git rev-parse")?;
    let rev = String::from_utf8_lossy(&rev).trim().to_string();
    let dir = root.join("target/ab");
    let tree = dir.join(format!("parent-{rev}"));
    if !tree.exists() {
        let staging = dir.join(format!("staging-{rev}"));
        let _ = std::fs::remove_dir_all(&staging);
        std::fs::create_dir_all(&staging).map_err(|e| format!("cannot create {}: {e}", staging.display()))?;
        let mut git = Command::new("git");
        let tar = command_output(git.args(["archive", "--format=tar", &rev]).current_dir(root), "git archive")?;
        let mut untar = Command::new("tar")
            .arg("-x")
            .current_dir(&staging)
            .stdin(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot run tar: {e}"))?;
        untar.stdin.take().ok_or("tar has no stdin")?.write_all(&tar).map_err(|e| format!("tar: {e}"))?;
        if !untar.wait().is_ok_and(|s| s.success()) {
            return Err("tar could not extract the parent".to_string());
        }
        std::fs::rename(&staging, &tree).map_err(|e| format!("cannot move the export into place: {e}"))?;
    }
    let parent_bin = build(&tree, &dir.join("parent-build"))?;
    let lock = std::fs::read(root.join(LOCK)).map_err(|e| format!("cannot read {LOCK}: {e}"))?;
    let change_bin = build(root, &dir.join("change-build"));
    if std::fs::read(root.join(LOCK)).ok().as_ref() != Some(&lock) {
        std::fs::write(root.join(LOCK), &lock).map_err(|e| format!("cannot put {LOCK} back: {e}"))?;
    }
    let change_bin = change_bin?;
    let args = ["--workload", &o.workload, "--seed", &o.seed.to_string(), "--seconds", &o.seconds.to_string()];
    let once = |bin: &Path, cwd: &Path, side: &str| -> Result<Run, String> {
        let mut cmd = Command::new(bin);
        let out = command_output(cmd.args(args).args(["--trace", "0"]).current_dir(cwd), side)?;
        parse_run(&String::from_utf8_lossy(&out)).map_err(|e| format!("{side}: {e}"))
    };
    let mut pairs = Vec::new();
    for i in 1..=o.pairs {
        let (parent, change) = if i % 2 == 1 {
            let parent = once(&parent_bin, &tree, "the parent")?;
            (parent, once(&change_bin, root, "the change")?)
        } else {
            let change = once(&change_bin, root, "the change")?;
            (once(&parent_bin, &tree, "the parent")?, change)
        };
        let ops = |r: &Run| r.metrics.get("ops_per_s").copied().unwrap_or(f64::NAN);
        println!("pair {i}/{}: ops_per_s parent {:.0}, change {:.0}", o.pairs, ops(&parent), ops(&change));
        pairs.push((parent, change));
    }
    let (json, unexpected) = summarize(o, &rev, &pairs);
    let path = root.join("perf").join(format!("ab-{}-{}-{rev}.json", o.workload, o.seed));
    std::fs::create_dir_all(root.join("perf")).map_err(|e| format!("cannot create perf/: {e}"))?;
    std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok((path, unexpected))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the benchmark prints, trimmed to the lines `parse_run` reads.
    fn benchmark_output(ops: f64, heap: f64, engine: &str) -> String {
        format!(
            "# attach_geo: 2000 ops, 0 failed, 370951 events, engine digest {engine}, delivery digest a579feac1f0ef858\n\
             attach_geo  ops_per_s  {ops} 1/s\n\
             {{\"correct\": true, \"attempted\": 2000, \"failed\": 0, \"metrics\": {{\"setup_s\": {{\"value\": 0.004, \
             \"unit\": \"s\"}}, \"ops_per_s\": {{\"value\": {ops}, \"unit\": \"1/s\"}}, \"heap_peak_mib\": \
             {{\"value\": {heap}, \"unit\": \"MiB\"}}}}}}\n"
        )
    }

    #[test]
    fn a_run_parses_into_its_metrics_and_digests() {
        let run = parse_run(&benchmark_output(10651.84, 15.741742134094238, "63d3fbbeef1f383a")).unwrap();
        assert_eq!(run.metrics["ops_per_s"], 10651.84);
        assert_eq!(run.metrics["heap_peak_mib"], 15.741742134094238);
        assert_eq!(run.metrics.len(), 3);
        assert_eq!(run.digests, ["63d3fbbeef1f383a", "a579feac1f0ef858"]);
        let wrong = benchmark_output(1.0, 1.0, "0").replace("\"correct\": true", "\"correct\": false");
        assert!(parse_run(&wrong).unwrap_err().contains("not correct"));
        assert!(parse_run("# nothing else\n").is_err());
    }

    #[test]
    fn median_and_iqr_interpolate_between_ranks() {
        assert_eq!(median_iqr(&[4.0, 1.0, 3.0, 2.0]), (2.5, 1.5));
        assert_eq!(median_iqr(&[5.0, 1.0, 3.0]), (3.0, 2.0));
        assert_eq!(median_iqr(&[7.0]), (7.0, 0.0));
    }

    #[test]
    fn the_summary_counts_wins_and_flags_unexpected_moves() {
        let run = |ops, heap, engine| parse_run(&benchmark_output(ops, heap, engine)).unwrap();
        let pairs = [
            (run(100.0, 17.0, "aa"), run(110.0, 15.7, "aa")),
            (run(104.0, 17.0, "aa"), run(102.0, 15.7, "aa")),
            (run(96.0, 17.0, "aa"), run(120.0, 15.7, "aa")),
        ];
        let options = |expect_move: &[&str]| Options {
            parent: "HEAD~1".to_string(),
            pairs: pairs.len(),
            workload: "attach_geo".to_string(),
            seed: 2005,
            seconds: 8,
            expect_move: expect_move.iter().map(|m| m.to_string()).collect(),
        };
        let named = options(&["heap_peak_mib"]);
        let (json, unexpected) = summarize(&named, "c878dc0b384a", &pairs);
        assert!(unexpected.is_empty(), "{unexpected:?}");
        for expected in [
            r#""ops_per_s": {"better": "higher", "parent": [100, 104, 96], "change": [110, 102, 120]"#,
            r#""parent_median": 100, "change_median": 110, "parent_iqr": 4, "change_wins": 2}"#,
            r#""heap_peak_mib": {"better": "lower""#,
            r#""change_wins": 3, "identical": false}"#,
            r#""setup_s": {"better": "lower", "parent": [0.004, 0.004, 0.004]"#,
            r#""engine_digest": {"parent": ["aa", "aa", "aa"], "change": ["aa", "aa", "aa"], "identical": true}"#,
        ] {
            assert!(json.contains(expected), "{expected} not in {json}");
        }
        // Unnamed, the heap's move fails the comparison; so does a digest.
        let (_, unexpected) = summarize(&options(&[]), "c878dc0b384a", &pairs);
        assert_eq!(unexpected, ["heap_peak_mib"]);
        let mut moved = pairs.clone();
        moved[1].1.digests[0] = "bb".to_string();
        let (json, unexpected) = summarize(&named, "c878dc0b384a", &moved);
        assert_eq!(unexpected, ["engine_digest"]);
        assert!(json.contains("\"identical\": false}"));
    }
}
