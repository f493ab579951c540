//! `repro census` — the tree's size, knobs and known bugs, counted from
//! the source text into `CENSUS.json`, which `repro gate census` holds
//! byte for byte. A change that moves a count regenerates the file, so
//! its diff shows what the change did to the tree's size. The census
//! reads only the tree: no clock, no cargo, no build.
//!
//! It reads every `.rs` file under `crates/`, `src/`, `shims/`, `tests/`,
//! `examples/` and `benchmark/` (no `target` directory) and DESIGN.md. A
//! file under a `tests/` directory, and `timer_tests.rs`, is test code;
//! any other file is cut at its first column-0 `#[cfg(test)]`, and what
//! follows the cut is test code. The sections:
//!
//! * `rust_lines`: test and non-test lines per package (`nb` is the root
//!   package: `src/`, `tests/` and `examples/`), and their sum outside
//!   `benchmark/`;
//! * `test_only_pub`: each `pub fn` and `pub const` in the non-test code
//!   of the six library crates (`crates/{util,wire,net,broker,core,
//!   security}`) that no non-test code calls, with the files whose tests
//!   call it; `own_file_only_pub`: the ones only their own file's
//!   non-test code calls. Examples and every file under `benchmark/`
//!   count as non-test callers;
//! * `pub_setters`: each `pub fn set_*` of those crates, the settable
//!   knobs outside the `*Config` structs, with the files whose non-test
//!   code calls it;
//! * `context_impls`: the types that implement `Context`, test doubles
//!   included (actor unit tests share `nb_net::ScriptCtx`, so a new
//!   double shows here);
//! * `config_pub_fields`: the public fields of each `*Config` struct, the
//!   knob count;
//! * `ignored_tests`: every `#[ignore]`d test with its reason;
//! * `expects`: every `#[expect(…)]` with its lints;
//! * `design_md_lines`.
//!
//! Callers are matched by name: an identifier equal to the item's name,
//! outside comments, literals and `use` declarations, that is not the
//! name a `fn` or `const` defines, nor a field: after a `.` it counts
//! only when `(` or `::<` follows it (`x.name` is a field), and one
//! followed by a single `:` is a field, parameter or binding being
//! declared. A path `Type::name` is a caller even when it is passed as a
//! value. A `self.name(` call is the
//! one exception: it calls the `name` of the type whose `impl` encloses it
//! ([`owner`]), so it counts for that type's item alone. Otherwise a
//! test-only item that shares its name with one the system calls is
//! missed: `Scenario::digest`, whose only callers were tests, shared its
//! name with `ShardedSim::digest` and was found by reading.
//!
//! `CENSUS_ceilings.conf`, beside `CENSUS.json`, bounds the counts that
//! may only fall, in [`nb_util::Config`]'s `key = value` format: the
//! non-test lines of each of the six library crates
//! (`non_test_lines.crates/util`, …) and of this tool
//! (`non_test_lines.crates/bench`), `design_md_lines`, the row counts
//! of `test_only_pub`, `own_file_only_pub`, `pub_setters` and
//! `context_impls`, the public fields of each `*Config` struct
//! (`config_pub_fields.BrokerConfig`, …) and `ignored_tests`.
//! [`ceiling_failures`] names each count above its ceiling, each ceiling
//! with no count and each count with no ceiling, so a new crate, config
//! struct or test double cannot come in unbounded. A change that
//! lowers a count lowers its ceiling to match; raising a ceiling loosens
//! the check, and CHANGES.md says which ceiling, by how much and why.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use nb_util::Config;

/// The directories, relative to the workspace root, whose `.rs` files
/// the census reads.
const ROOTS: [&str; 6] = ["crates", "src", "shims", "tests", "examples", "benchmark"];

/// The library crates whose `pub` items the census looks for callers of.
const LIBRARIES: [&str; 6] = [
    "crates/util/src/",
    "crates/wire/src/",
    "crates/net/src/",
    "crates/broker/src/",
    "crates/core/src/",
    "crates/security/src/",
];

/// The `repro` tool's own package, whose non-test lines are bounded like
/// a library crate's.
const TOOL: &str = "crates/bench";

/// One Rust source file.
struct Source {
    /// Relative to the workspace root, `/`-separated.
    path: String,
    text: String,
    /// `text` with comments and literals blanked to spaces, byte for byte.
    code: String,
    /// The byte offset where test code begins (`text.len()` if none does).
    cut: usize,
}

impl Source {
    fn new(path: &str, text: String) -> Source {
        let code = blank(&text);
        let in_tests_dir = path.split('/').rev().skip(1).any(|dir| dir == "tests");
        let cut = if in_tests_dir || path.rsplit('/').next() == Some("timer_tests.rs") {
            0
        } else {
            line_starts(&code)
                .find(|&at| code[at..].starts_with("#[cfg(test)]"))
                .unwrap_or(code.len())
        };
        Source {
            path: path.to_string(),
            text,
            code,
            cut,
        }
    }

    /// The file's (non-test, test) line counts.
    fn lines(&self) -> (usize, usize) {
        (
            self.text[..self.cut].lines().count(),
            self.text[self.cut..].lines().count(),
        )
    }

    /// Whether a reference at byte `at` is test code for the caller
    /// census, where every file under `benchmark/` counts as a caller.
    fn test_at(&self, at: usize) -> bool {
        at >= self.cut && !self.path.starts_with("benchmark/")
    }
}

/// A `pub fn` or `pub const` of a library crate and the files that call
/// it.
struct PubItem {
    /// `Type::name`, or `name` for a free item.
    item: String,
    file: String,
    /// The files whose non-test code calls it, its own included, in path
    /// order.
    callers: Vec<String>,
    /// The files whose test code calls it, in path order.
    test_callers: Vec<String>,
}

impl PubItem {
    /// Whether no non-test code outside its own file calls it.
    fn uncalled(&self) -> bool {
        self.callers.iter().all(|c| *c == self.file)
    }

    /// Whether its own file's non-test code calls it.
    fn own_file_calls(&self) -> bool {
        self.callers.contains(&self.file)
    }

    /// Whether it is a `set_*` method or function.
    fn is_setter(&self) -> bool {
        self.item.rsplit("::").next().is_some_and(|name| name.starts_with("set_"))
    }
}

/// A use of a name: the file it is in, whether it is test code, and the
/// type a `self.name(` call resolves to.
type Ref<'a> = (usize, bool, Option<&'a str>);

/// Every `pub fn` and `pub const` in the non-test code of [`LIBRARIES`],
/// in path order.
fn pub_items(sources: &[Source]) -> Vec<PubItem> {
    let words: Vec<Vec<(usize, &str, bool)>> = sources.iter().map(|src| words(&src.code)).collect();
    let mut defs: Vec<(usize, usize, &str)> = Vec::new();
    for (i, src) in sources.iter().enumerate() {
        if !LIBRARIES.iter().any(|lib| src.path.starts_with(lib)) {
            continue;
        }
        let seq: Vec<&str> = words[i].iter().map(|w| w.1).collect();
        for (k, &(at, _, _)) in words[i]
            .iter()
            .enumerate()
            .take_while(|(_, w)| w.0 < src.cut)
        {
            let name = match seq[k..] {
                ["pub", "const", "fn", name, ..] | ["pub", "fn" | "const", name, ..] => name,
                _ => continue,
            };
            if !defs.iter().any(|&(j, _, n)| j == i && n == name) {
                defs.push((i, at, name));
            }
        }
    }
    let names: BTreeSet<&str> = defs.iter().map(|d| d.2).collect();
    let mut refs: BTreeMap<&str, BTreeSet<Ref<'_>>> = BTreeMap::new();
    for (j, src) in sources.iter().enumerate() {
        for &(at, word, refers) in &words[j] {
            if refers && names.contains(word) {
                let receiver = if self_call(&src.code, at, word) {
                    owner(&src.code, at)
                } else {
                    None
                };
                refs.entry(word).or_default().insert((j, src.test_at(at), receiver));
            }
        }
    }
    let none = BTreeSet::new();
    defs.into_iter()
        .map(|(i, at, name)| {
            let src = &sources[i];
            let ty = owner(&src.code, at);
            let refs = refs.get(name).unwrap_or(&none);
            let files = |in_tests: bool| {
                let files: BTreeSet<usize> = refs
                    .iter()
                    .filter(|&&(_, test, receiver)| {
                        test == in_tests && (receiver.is_none() || receiver == ty)
                    })
                    .map(|&(j, _, _)| j)
                    .collect();
                files.into_iter().map(|j| sources[j].path.clone()).collect()
            };
            PubItem {
                item: ty.map_or(name.to_string(), |ty| format!("{ty}::{name}")),
                file: src.path.clone(),
                callers: files(false),
                test_callers: files(true),
            }
        })
        .collect()
}

/// The file beside `CENSUS.json` that bounds its counts.
pub const CEILINGS: &str = "CENSUS_ceilings.conf";

/// One reading of the tree.
pub struct Census {
    /// `CENSUS.json`'s text.
    pub json: String,
    /// The counts [`CEILINGS`] bounds, by key.
    pub counts: BTreeMap<String, usize>,
}

/// Reads the tree under `root` and renders `CENSUS.json`.
pub fn census(root: &Path) -> io::Result<Census> {
    let mut paths = Vec::new();
    for dir in ROOTS {
        rust_files(root, Path::new(dir), &mut paths)?;
    }
    paths.sort();
    let sources = paths
        .iter()
        .map(|path| Ok(Source::new(path, std::fs::read_to_string(root.join(path))?)))
        .collect::<io::Result<Vec<Source>>>()?;
    let design = std::fs::read_to_string(root.join("DESIGN.md"))?;
    Ok(render(&sources, &design))
}

fn rust_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    if !root.join(dir).is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(root.join(dir))? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let path = dir.join(&name);
        if entry.file_type()?.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_files(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path.to_string_lossy().replace('\\', "/"));
        }
    }
    Ok(())
}

/// The package a file belongs to: `crates/<name>`, `shims/<name>`,
/// `benchmark`, or `nb` for the root package.
fn package(path: &str) -> &str {
    let mut parts = path.split('/');
    match (parts.next(), parts.next()) {
        (Some(top @ ("crates" | "shims")), Some(name)) => &path[..top.len() + 1 + name.len()],
        (Some("benchmark"), _) => "benchmark",
        _ => "nb",
    }
}

fn render(sources: &[Source], design: &str) -> Census {
    let mut lines: BTreeMap<(bool, &str), (usize, usize)> = BTreeMap::new();
    for src in sources {
        let pkg = package(&src.path);
        let (non_test, test) = src.lines();
        let row = lines.entry((pkg == "benchmark", pkg)).or_default();
        *row = (row.0 + non_test, row.1 + test);
    }
    let mut counts = BTreeMap::new();
    for pkg in LIBRARIES.iter().map(|lib| lib.trim_end_matches("/src/")).chain([TOOL]) {
        let non_test = lines.get(&(false, pkg)).map_or(0, |row| row.0);
        counts.insert(format!("non_test_lines.{pkg}"), non_test);
    }
    let mut out = String::from("{\n  \"rust_lines\": [\n");
    let rows: Vec<String> = lines
        .iter()
        .map(|((_, pkg), (non_test, test))| {
            format!("    {{\"package\": \"{pkg}\", \"non_test\": {non_test}, \"test\": {test}}}")
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    let outside = lines
        .iter()
        .filter(|((bench, _), _)| !bench)
        .map(|(_, &row)| row);
    let (non_test, test) = outside.fold((0, 0), |sum, row| (sum.0 + row.0, sum.1 + row.1));
    let _ = write!(
        out,
        "\n  ],\n  \"rust_lines_outside_benchmark\": {{\"non_test\": {non_test}, \"test\": {test}}},\n"
    );

    let items = pub_items(sources);
    for (section, own) in [("test_only_pub", false), ("own_file_only_pub", true)] {
        let rows: Vec<String> = items
            .iter()
            .filter(|u| u.uncalled() && u.own_file_calls() == own)
            .map(|u| {
                format!(
                    "{{\"item\": {}, \"file\": {}, \"test_callers\": {}}}",
                    json(&u.item),
                    json(&u.file),
                    json_list(&u.test_callers)
                )
            })
            .collect();
        counts.insert(section.to_string(), rows.len());
        write_section(&mut out, section, rows);
    }
    let setters: Vec<String> = items
        .iter()
        .filter(|u| u.is_setter())
        .map(|u| {
            format!(
                "{{\"item\": {}, \"file\": {}, \"callers\": {}}}",
                json(&u.item),
                json(&u.file),
                json_list(&u.callers)
            )
        })
        .collect();
    counts.insert("pub_setters".to_string(), setters.len());
    write_section(&mut out, "pub_setters", setters);
    let impls: Vec<String> = sources
        .iter()
        .flat_map(|src| {
            implementors(&src.code, "Context")
                .into_iter()
                .map(|ty| json(&format!("{}: {ty}", src.path)))
        })
        .collect();
    counts.insert("context_impls".to_string(), impls.len());
    write_section(&mut out, "context_impls", impls);
    let mut configs = Vec::new();
    for src in sources {
        for (name, fields) in config_fields(&src.code[..src.cut]) {
            *counts.entry(format!("config_pub_fields.{name}")).or_default() += fields.len();
            configs.push(format!(
                "{{\"struct\": {}, \"file\": {}, \"count\": {}, \"fields\": {}}}",
                json(name),
                json(&src.path),
                fields.len(),
                json_list(&fields)
            ));
        }
    }
    write_section(&mut out, "config_pub_fields", configs);
    let ignored: Vec<String> = sources
        .iter()
        .flat_map(|src| {
            ignored_tests(src).into_iter().map(|(test, reason)| {
                format!(
                    "{{\"test\": {}, \"reason\": {}}}",
                    json(&format!("{}::{test}", src.path)),
                    json(reason)
                )
            })
        })
        .collect();
    counts.insert("ignored_tests".to_string(), ignored.len());
    write_section(&mut out, "ignored_tests", ignored);
    let expects = sources.iter().flat_map(|src| {
        expected_lints(&src.code).into_iter().map(|lints| {
            format!(
                "{{\"file\": {}, \"lints\": {}}}",
                json(&src.path),
                json_list(&lints)
            )
        })
    });
    write_section(&mut out, "expects", expects);
    let design_md_lines = design.lines().count();
    counts.insert("design_md_lines".to_string(), design_md_lines);
    let _ = write!(out, "  \"design_md_lines\": {design_md_lines}\n}}\n");
    Census { json: out, counts }
}

/// Every way `counts` breaks the ceilings in `ceilings` (the text of
/// [`CEILINGS`]), one line each: a count above its ceiling, a count
/// below it (the ceiling is slack and must come down to the count), a
/// ceiling that bounds no count, a count with no ceiling, a ceiling that
/// is no number. Empty when every count sits at its ceiling.
pub fn ceiling_failures(counts: &BTreeMap<String, usize>, ceilings: &str) -> Vec<String> {
    let ceilings = match Config::parse(ceilings) {
        Ok(ceilings) => ceilings,
        Err(e) => return vec![e.to_string()],
    };
    let mut failures = Vec::new();
    for (key, _) in ceilings.iter() {
        let ceiling = match ceilings.get_u64(key, 0) {
            Ok(ceiling) => ceiling,
            Err(e) => {
                failures.push(e.to_string());
                continue;
            }
        };
        match counts.get(key) {
            None => failures.push(format!("{key}: the ceiling {ceiling} bounds no count")),
            Some(&count) if count as u64 > ceiling => {
                failures.push(format!("{key} = {count}, above its ceiling {ceiling}"));
            }
            Some(&count) if (count as u64) < ceiling => {
                failures.push(format!("{key} = {count}, below its ceiling {ceiling}: lower the ceiling to {count}"));
            }
            Some(_) => {}
        }
    }
    for (key, count) in counts {
        if ceilings.get(key).is_none() {
            failures.push(format!("{key} = {count} has no ceiling"));
        }
    }
    failures
}

fn write_section(out: &mut String, name: &str, rows: impl IntoIterator<Item = String>) {
    let rows: Vec<String> = rows.into_iter().map(|row| format!("    {row}")).collect();
    if rows.is_empty() {
        let _ = writeln!(out, "  \"{name}\": [],");
    } else {
        let _ = writeln!(out, "  \"{name}\": [\n{}\n  ],", rows.join(",\n"));
    }
}

fn json(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn json_list<S: AsRef<str>>(items: &[S]) -> String {
    let items: Vec<String> = items.iter().map(|s| json(s.as_ref())).collect();
    format!("[{}]", items.join(", "))
}

/// The byte offset of every line of `text`.
fn line_starts(text: &str) -> impl Iterator<Item = usize> + '_ {
    std::iter::once(0)
        .chain(text.match_indices('\n').map(|(at, _)| at + 1))
        .filter(move |&at| at < text.len())
}

fn is_word_byte(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

/// `text` with every comment and every string, char and byte literal
/// turned to spaces, newlines kept, so offsets and line numbers still
/// match the text.
fn blank(text: &str) -> String {
    let b = text.as_bytes();
    let mut out = b.to_vec();
    let mut i = 0;
    while i < b.len() {
        let end = match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => b[i..]
                .iter()
                .position(|&c| c == b'\n')
                .map_or(b.len(), |n| i + n),
            b'/' if b.get(i + 1) == Some(&b'*') => block_comment_end(b, i),
            b'"' => quoted_end(b, i),
            b'\'' => match char_literal_end(b, i) {
                Some(end) => end,
                None => {
                    i += 1;
                    continue;
                }
            },
            c if is_word_byte(c) => {
                let word_end = b[i..]
                    .iter()
                    .position(|&c| !is_word_byte(c))
                    .map_or(b.len(), |n| i + n);
                match raw_string_end(b, i, word_end) {
                    Some(end) => end,
                    None => {
                        i = word_end;
                        continue;
                    }
                }
            }
            _ => {
                i += 1;
                continue;
            }
        };
        for c in &mut out[i..end] {
            if *c != b'\n' {
                *c = b' ';
            }
        }
        i = end;
    }
    // Every blanked run starts and ends on an ASCII byte, so no
    // character is split.
    String::from_utf8(out).unwrap_or_default()
}

fn block_comment_end(b: &[u8], start: usize) -> usize {
    let (mut open, mut i) = (0usize, start);
    while i + 1 < b.len() {
        match (b[i], b[i + 1]) {
            (b'/', b'*') => open += 1,
            (b'*', b'/') => open -= 1,
            _ => {
                i += 1;
                continue;
            }
        }
        i += 2;
        if open == 0 {
            return i;
        }
    }
    b.len()
}

/// The end of the literal opened by the quote at `start`, escapes
/// skipped.
fn quoted_end(b: &[u8], start: usize) -> usize {
    let mut i = start + 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            c if c == b[start] => return i + 1,
            _ => i += 1,
        }
    }
    b.len()
}

/// The end of the char literal at `start`, `None` for a lifetime.
fn char_literal_end(b: &[u8], start: usize) -> Option<usize> {
    let first = *b.get(start + 1)?;
    if first == b'\\' {
        return Some(quoted_end(b, start));
    }
    let width = match first {
        0..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    };
    (b.get(start + 1 + width) == Some(&b'\'')).then_some(start + 2 + width)
}

/// The end of the raw string whose prefix is the word `b[start..word_end]`,
/// `None` when the word is no raw-string prefix.
fn raw_string_end(b: &[u8], start: usize, word_end: usize) -> Option<usize> {
    if !matches!(&b[start..word_end], b"r" | b"br") {
        return None;
    }
    let hashes = b[word_end..].iter().take_while(|&&c| c == b'#').count();
    let open = word_end + hashes;
    if b.get(open) != Some(&b'"') {
        return None;
    }
    let close = (open + 1..b.len()).find(|&i| {
        b[i] == b'"'
            && b[i + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == b'#')
                .count()
                == hashes
    });
    Some(close.map_or(b.len(), |i| i + 1 + hashes))
}

/// Each identifier in blanked `code` with its offset and whether it
/// refers to an item: not a number, not the name a `fn` or `const`
/// defines, not in a `use` declaration and not a field ([`field`]).
fn words(code: &str) -> Vec<(usize, &str, bool)> {
    let b = code.as_bytes();
    let mut out: Vec<(usize, &str, bool)> = Vec::new();
    let (mut i, mut in_use) = (0, false);
    while i < b.len() {
        if b[i] == b';' {
            in_use = false;
        }
        if !is_word_byte(b[i]) {
            i += 1;
            continue;
        }
        let end = b[i..]
            .iter()
            .position(|&c| !is_word_byte(c))
            .map_or(b.len(), |n| i + n);
        let word = &code[i..end];
        if !word.as_bytes()[0].is_ascii_digit() {
            in_use |= word == "use";
            let defined = matches!(out.last(), Some((_, "fn" | "const", _)));
            out.push((i, word, !in_use && !defined && !field(code, i, end)));
        }
        i = end;
    }
    out
}

/// Whether the identifier at bytes `at..end` of blanked `code` is a
/// field or a declared name: it follows a `.` (not a `..`) and neither
/// `(` nor `::<` follows it, or a single `:` follows it.
fn field(code: &str, at: usize, end: usize) -> bool {
    let before = code[..at].trim_end();
    let dotted = before.ends_with('.') && !before.ends_with("..");
    let after = code[end..].trim_start();
    let declared = after.starts_with(':') && !after.starts_with("::");
    declared || dotted && !(after.starts_with('(') || after.starts_with("::<"))
}

/// Whether the identifier `word` at byte `at` of blanked `code` is the
/// method of a `self.word(` call.
fn self_call(code: &str, at: usize, word: &str) -> bool {
    let receiver = code[..at].trim_end().strip_suffix('.').map(str::trim_end);
    let on_self = receiver
        .and_then(|r| r.strip_suffix("self"))
        .is_some_and(|r| !r.bytes().next_back().is_some_and(is_word_byte));
    let after = code[at + word.len()..].trim_start();
    on_self && (after.starts_with('(') || after.starts_with("::<"))
}

/// The type or module an item at byte `at` of `code` belongs to: the
/// nearest column-0 `impl`, `mod` or `trait` above it, `None` for an
/// item at column 0.
fn owner(code: &str, at: usize) -> Option<&str> {
    let line = code[..at].rfind('\n').map_or(0, |n| n + 1);
    if line == at {
        return None;
    }
    let header = code[..line].lines().rev().find(|l| {
        ["impl", "mod ", "pub mod ", "trait ", "pub trait "]
            .iter()
            .any(|p| l.starts_with(p))
    })?;
    let rest = match header.strip_prefix("impl") {
        Some(rest) => {
            let rest = rest.trim_start();
            let rest = if rest.starts_with('<') {
                skip_generics(rest)
            } else {
                rest
            };
            rest.split_once(" for ")
                .map_or(rest, |(_, ty)| ty)
                .trim_start()
        }
        None => header
            .trim_start_matches("pub ")
            .trim_start_matches("mod ")
            .trim_start_matches("trait "),
    };
    let rest = rest.strip_prefix("dyn ").unwrap_or(rest);
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(rest.len());
    rest[..end].rsplit("::").next()
}

fn skip_generics(s: &str) -> &str {
    let mut level = 0;
    for (i, c) in s.char_indices() {
        match c {
            '<' => level += 1,
            '>' => level -= 1,
            _ => {}
        }
        if level == 0 {
            return &s[i + 1..];
        }
    }
    ""
}

/// The self types of `code`'s `impl <trait_name> for …` blocks. A block
/// in a `macro_rules!` whose self type is a metavariable stands for each
/// row of the macro's invocation in the same file (a `[generics] Type =>
/// …;` row).
fn implementors(code: &str, trait_name: &str) -> Vec<String> {
    let mut out = Vec::new();
    for at in line_starts(code) {
        let line = code[at..].lines().next().unwrap_or("").trim_start();
        let Some((before, after)) = line
            .strip_prefix("impl")
            .and_then(|h| h.split_once(" for "))
        else {
            continue;
        };
        if before
            .rsplit(|c: char| !(c.is_alphanumeric() || c == '_'))
            .next()
            != Some(trait_name)
        {
            continue;
        }
        let ty = after.split('{').next().unwrap_or("").trim();
        if !ty.starts_with('$') {
            out.push(ty.to_string());
            continue;
        }
        let Some(name) = code[..at]
            .rsplit("macro_rules!")
            .next()
            .and_then(|r| r.split_whitespace().next())
        else {
            continue;
        };
        let Some(call) = code.find(&format!("{name}! {{")) else {
            continue;
        };
        let body = &code[call + name.len() + 3..];
        let body = &body[..body.find('}').unwrap_or(body.len())];
        out.extend(body.split(';').filter_map(|row| {
            let (ty, _) = row.split_once(']')?.1.split_once("=>")?;
            Some(ty.trim().to_string())
        }));
    }
    out
}

/// Each `pub struct …Config` in `code` with its `pub` field names.
fn config_fields(code: &str) -> Vec<(&str, Vec<&str>)> {
    let mut out = Vec::new();
    let mut lines = code.lines().map(str::trim_end);
    while let Some(line) = lines.next() {
        let header = line
            .trim_start()
            .strip_prefix("pub struct ")
            .and_then(|r| r.strip_suffix(" {"));
        let Some(name) = header.filter(|name| name.ends_with("Config")) else {
            continue;
        };
        let close = format!("{}}}", &line[..line.len() - line.trim_start().len()]);
        let fields = lines
            .by_ref()
            .take_while(|l| *l != close)
            .filter_map(|l| {
                l.trim_start()
                    .strip_prefix("pub ")?
                    .split_once(':')
                    .map(|(f, _)| f.trim())
            })
            .collect();
        out.push((name, fields));
    }
    out
}

/// Each `#[ignore]`d test of `src` with its reason.
fn ignored_tests(src: &Source) -> Vec<(&str, &str)> {
    line_starts(&src.code)
        .filter(|&at| {
            src.code[at..]
                .trim_start_matches([' ', '\t'])
                .starts_with("#[ignore")
        })
        .filter_map(|at| {
            let raw = src.text[at..].lines().next()?;
            let reason = raw
                .split_once('"')
                .and_then(|(_, r)| r.rsplit_once('"'))
                .map_or("", |r| r.0);
            let words = words(&src.code[at..]);
            let test = words.windows(2).find(|w| w[0].1 == "fn")?[1].1;
            Some((test, reason))
        })
        .collect()
}

/// The lints of each `#[expect(…)]` and `#![expect(…)]` in `code`.
fn expected_lints(code: &str) -> Vec<Vec<&str>> {
    line_starts(code)
        .filter_map(|at| {
            let line = code[at..].trim_start_matches([' ', '\t']);
            let args = line
                .strip_prefix("#[expect(")
                .or_else(|| line.strip_prefix("#![expect("))?;
            let args = &args[..args.find(")]").unwrap_or(args.len())];
            let lints = args.split(',').map(str::trim);
            Some(
                lints
                    .filter(|l| !l.is_empty() && !l.starts_with("reason"))
                    .collect(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source(path: &str, text: &str) -> Source {
        Source::new(path, text.to_string())
    }

    #[test]
    fn the_splitter_cuts_at_the_first_column_0_cfg_test() {
        let text = "fn a() {}\n    #[cfg(test)]\n    fn b() {}\n// #[cfg(test)]\nconst S: &str = \"\n#[cfg(test)]\";\n\n#[cfg(test)]\nmod tests {\n}\n#[cfg(test)]\n";
        assert_eq!(source("crates/x/src/lib.rs", text).lines(), (7, 4));
        assert_eq!(source("crates/x/src/lib.rs", "fn a() {}\n").lines(), (1, 0));
        for path in [
            "tests/t.rs",
            "crates/x/tests/t.rs",
            "benchmark/tests/t.rs",
            "crates/net/src/timer_tests.rs",
        ] {
            assert_eq!(
                source(path, "fn a() {}\nfn b() {}\n").lines(),
                (0, 2),
                "{path}"
            );
        }
    }

    #[test]
    fn blanking_keeps_offsets_and_hides_comments_and_literals() {
        let text = "let s = \"a // \\\" b\"; // c\nlet r = r#\"x\"y\"#; /* d /* e */ f */ let c = '\"'; fn f<'a>(x: &'a str) {}\n";
        let code = blank(text);
        assert_eq!(code.len(), text.len());
        assert_eq!(code.lines().count(), text.lines().count());
        let names: Vec<&str> = words(&code).into_iter().map(|w| w.1).collect();
        assert_eq!(
            names,
            ["let", "s", "let", "r", "let", "c", "fn", "f", "a", "x", "a", "str"]
        );
    }

    #[test]
    fn the_caller_matcher_sorts_items_by_who_calls_them() {
        let lib = "use crate::other::helper;\n\
                   pub fn called() {}\n\
                   pub fn only_tests() {}\n\
                   pub fn only_here() {}\n\
                   pub const LIMIT: u32 = 1;\n\
                   pub const fn from_bench() -> u32 { LIMIT }\n\
                   pub(crate) fn hidden() {}\n\
                   pub struct T;\n\
                   impl T {\n    pub fn method(&self) { only_here() }\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { super::only_tests(); T.method() }\n}\n";
        let other = "use nb_wire::only_tests;\n\
                     // only_tests() in a comment\n\
                     fn x() -> &'static str { called(); \"only_tests\" }\n\
                     fn only_tests() {}\n\
                     #[cfg(test)]\nmod tests {\n    fn t() { only_tests() }\n}\n";
        let sources = [
            source("benchmark/tests/bench.rs", "fn b() { from_bench(); }\n"),
            source("crates/core/src/other.rs", other),
            source("crates/wire/src/lib.rs", lib),
            source("tests/it.rs", "fn t() { only_tests(); hidden(); }\n"),
        ];
        let found: Vec<(String, bool, Vec<String>)> = pub_items(&sources)
            .into_iter()
            .filter(PubItem::uncalled)
            .map(|u| {
                let own = u.own_file_calls();
                (u.item, own, u.test_callers)
            })
            .collect();
        let expected = [
            (
                "only_tests",
                false,
                vec![
                    "crates/core/src/other.rs",
                    "crates/wire/src/lib.rs",
                    "tests/it.rs",
                ],
            ),
            ("only_here", true, vec![]),
            ("LIMIT", true, vec![]),
            ("T::method", false, vec!["crates/wire/src/lib.rs"]),
        ]
        .map(|(item, own, callers)| {
            (
                item.to_string(),
                own,
                callers.into_iter().map(String::from).collect(),
            )
        });
        assert_eq!(found, expected);
    }

    /// A type calling its own private `self.fault(…)` is no caller of
    /// another type's `pub fn fault`; a call on any other receiver still
    /// matches by name.
    #[test]
    fn a_self_call_counts_for_the_enclosing_impl_only() {
        let sim = "pub struct Sim;\n\
                   impl Sim {\n    pub fn fault(&mut self) {}\n    \
                   pub fn run(&mut self) { self.step() }\n    pub fn step(&mut self) {}\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t(s: &mut super::Sim) { s.fault() }\n}\n";
        let shard = "pub struct Shard;\n\
                     impl Shard {\n    pub fn go(&mut self) { self.fault(); self . step ( ) }\n    \
                     fn fault(&mut self) {}\n    fn step(&mut self) {}\n}\n";
        let sources = [
            source("crates/net/src/shard.rs", shard),
            source("crates/net/src/sim.rs", sim),
            source("examples/e.rs", "fn main(s: &mut Sim) { s.step(); Shard.go() }\n"),
        ];
        let found: Vec<(String, Vec<String>, Vec<String>)> = pub_items(&sources)
            .into_iter()
            .map(|u| (u.item, u.callers, u.test_callers))
            .collect();
        let files = |files: &[&str]| files.iter().map(|f| f.to_string()).collect::<Vec<_>>();
        let expected = [
            ("Shard::go", files(&["examples/e.rs"]), files(&[])),
            ("Sim::fault", files(&[]), files(&["crates/net/src/sim.rs"])),
            ("Sim::run", files(&[]), files(&[])),
            ("Sim::step", files(&["crates/net/src/sim.rs", "examples/e.rs"]), files(&[])),
        ]
        .map(|(item, callers, tests)| (item.to_string(), callers, tests));
        assert_eq!(found, expected);
    }

    /// A non-test field that shares a test-only function's name is no
    /// caller of it; a method call, a turbofish call and a path passed
    /// as a value are.
    #[test]
    fn a_field_access_is_no_call() {
        let joining = "pub struct JoiningBroker { joined: bool }\n\
                       impl JoiningBroker {\n    pub fn joined(&self) -> bool { self.joined }\n    \
                       pub fn finder(&self) {}\n    pub fn parse<T>(&self) {}\n}\n\
                       #[cfg(test)]\nmod tests {\n    fn t(j: &super::JoiningBroker) { j.joined(); }\n}\n";
        let runtime = "struct ScriptCtx { joined: Vec<u8>, finder: u8 }\n\
                       fn f(c: &mut ScriptCtx, j: &JoiningBroker) {\n    \
                       c.joined.push(1); c . joined .len(); let _ = c.finder; j.parse::<u8>();\n    \
                       let _ = ScriptCtx { ..c }; let _ = (0..2).map(JoiningBroker::finder);\n}\n";
        let sources = [
            source("crates/core/src/joining.rs", joining),
            source("crates/net/src/runtime.rs", runtime),
        ];
        let found: Vec<(String, Vec<String>, Vec<String>)> = pub_items(&sources)
            .into_iter()
            .map(|u| (u.item, u.callers, u.test_callers))
            .collect();
        let files = |files: &[&str]| files.iter().map(|f| f.to_string()).collect::<Vec<_>>();
        let expected = [
            ("JoiningBroker::joined", files(&[]), files(&["crates/core/src/joining.rs"])),
            ("JoiningBroker::finder", files(&["crates/net/src/runtime.rs"]), files(&[])),
            ("JoiningBroker::parse", files(&["crates/net/src/runtime.rs"]), files(&[])),
        ]
        .map(|(item, callers, tests)| (item.to_string(), callers, tests));
        assert_eq!(found, expected);
    }

    fn counts(rows: &[(&str, usize)]) -> BTreeMap<String, usize> {
        rows.iter().map(|&(key, count)| (key.to_string(), count)).collect()
    }

    #[test]
    fn ceiling_failures_name_each_broken_bound() {
        let found = counts(&[("design_md_lines", 1000), ("ignored_tests", 2)]);
        let at = "# c\ndesign_md_lines = 1000\nignored_tests = 2\n";
        assert!(ceiling_failures(&found, at).is_empty());
        let found = counts(&[
            ("config_pub_fields.NewConfig", 2),
            ("design_md_lines", 1001),
            ("ignored_tests", 1),
        ]);
        let ceilings = "design_md_lines = 1000\nignored_tests = 2\n\
                        non_test_lines.crates/gone = 10\nbad = many\n";
        assert_eq!(
            ceiling_failures(&found, ceilings),
            [
                "config key \"bad\" has value \"many\", expected an unsigned integer",
                "design_md_lines = 1001, above its ceiling 1000",
                "ignored_tests = 1, below its ceiling 2: lower the ceiling to 1",
                "non_test_lines.crates/gone: the ceiling 10 bounds no count",
                "config_pub_fields.NewConfig = 2 has no ceiling",
            ]
        );
        assert_eq!(ceiling_failures(&found, "no equals sign\n").len(), 1);
    }

    #[test]
    fn the_census_counts_what_the_ceilings_bound() {
        let lib = "pub struct NetConfig {\n    pub a: u8,\n}\npub fn only_tests() {}\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    #[ignore = \"later\"]\n    fn t() { super::only_tests() }\n    \
                   impl Context for Double {}\n}\n";
        let contexts = "impl Context for NodeCtx<'_> {}\nimpl Actor for Echo {}\n";
        let sources = [source("crates/net/src/lib.rs", lib), source("crates/net/src/node.rs", contexts)];
        let census = render(&sources, "# D\n\nx\n");
        let expected = counts(&[
            ("config_pub_fields.NetConfig", 1),
            ("context_impls", 2),
            ("design_md_lines", 3),
            ("ignored_tests", 1),
            ("non_test_lines.crates/bench", 0),
            ("non_test_lines.crates/broker", 0),
            ("non_test_lines.crates/core", 0),
            ("non_test_lines.crates/net", 6),
            ("non_test_lines.crates/security", 0),
            ("non_test_lines.crates/util", 0),
            ("non_test_lines.crates/wire", 0),
            ("own_file_only_pub", 0),
            ("pub_setters", 0),
            ("test_only_pub", 1),
        ]);
        assert_eq!(census.counts, expected);
    }

    #[test]
    fn the_setter_census_lists_each_pub_setter_with_its_non_test_callers() {
        let lib = "pub struct S;\n\
                   impl S {\n    pub fn set_used(&mut self) { self.set_own() }\n    \
                   pub fn set_own(&mut self) {}\n    pub fn set_benched(&mut self) {}\n    \
                   pub fn set_tested(&mut self) {}\n    pub(crate) fn set_hidden(&mut self) {}\n    \
                   pub fn settle(&self) {}\n}\n\
                   pub fn set_free() {}\n\
                   #[cfg(test)]\nmod tests {\n    fn t(s: &mut super::S) { s.set_tested() }\n}\n";
        let sources = [
            source("benchmark/src/w.rs", "fn w(s: &mut S) { s.set_benched() }\n"),
            source("crates/net/src/sim.rs", lib),
            source("examples/e.rs", "fn main() { S.set_used(); set_free() }\n"),
            source("tests/it.rs", "fn t(s: &mut S) { s.set_used(); s.settle() }\n"),
        ];
        let setters: Vec<(String, Vec<String>)> = pub_items(&sources)
            .into_iter()
            .filter(PubItem::is_setter)
            .map(|u| (u.item, u.callers))
            .collect();
        let expected = [
            ("S::set_used", vec!["examples/e.rs"]),
            ("S::set_own", vec!["crates/net/src/sim.rs"]),
            ("S::set_benched", vec!["benchmark/src/w.rs"]),
            ("S::set_tested", vec![]),
            ("set_free", vec!["examples/e.rs"]),
        ]
        .map(|(item, callers)| (item.to_string(), callers.into_iter().map(String::from).collect()));
        assert_eq!(setters, expected);
    }

    #[test]
    fn traits_configs_ignores_and_expects_are_read_off_the_code() {
        let text = "#![expect(clippy::panic, reason = \"a, b\")]\n\
                    pub struct NetConfig {\n    pub a: u8,\n    b: u8,\n    pub(crate) c: u8,\n    pub d: Vec<u8>,\n}\n\
                    impl<S: X> Context for Ctx<'_, S> {\n}\n\
                    impl NotContext for Y {}\n\
                    macro_rules! doubles {\n    ($($t:tt)*) => {\n        impl Context for $double {}\n    };\n}\n\
                    doubles! {\n    [] Script => Script, [];\n    [S: Bound] &mut S => S, [*];\n}\n\
                    #[test]\n#[ignore = \"ROADMAP item 9: not yet\"]\nfn later() {}\n";
        let src = source("crates/net/src/x.rs", text);
        assert_eq!(implementors(&src.code, "Context"), ["Ctx<'_, S>", "Script", "&mut S"]);
        assert_eq!(config_fields(&src.code), [("NetConfig", vec!["a", "d"])]);
        assert_eq!(ignored_tests(&src), [("later", "ROADMAP item 9: not yet")]);
        assert_eq!(expected_lints(&src.code), [vec!["clippy::panic"]]);
    }
}
