//! The per-file rule scanner: zones, token patterns, suppressions.
//!
//! Rule catalog (rationale in DESIGN.md §10):
//!
//! | rule | zone                  | enforces                                      |
//! |------|-----------------------|-----------------------------------------------|
//! | D001 | all but wall-clock    | no `Instant::now` / `SystemTime` / `UNIX_EPOCH`|
//! | D002 | deterministic zones   | no HashMap/HashSet *iteration*                 |
//! | D003 | everywhere scanned    | no `thread_rng` / `from_entropy` / `OsRng`     |
//! | D004 | core receive paths    | no `unwrap()`/`expect()`/index/`panic!`        |
//! | D005 | deterministic zones   | no float folds over hash-ordered iteration     |
//! | D006 | all but wall-clock    | seeded `pub fn`s read no ambient state         |
//! | D007 | wire receive crates   | no decode-for-one-field, no `Bytes.to_vec()`   |
//! | D008 | single-threaded zones | no threads/locks/atomics outside `shard.rs`     |
//! | L001 | everywhere scanned    | suppressions must carry a justification        |

use crate::lexer::{lex, LineComment, Tok, TokKind};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
    /// The trimmed source line, for reports.
    pub excerpt: String,
}

/// A parsed `nb-lint::allow(...)` directive.
#[derive(Debug, Clone)]
pub struct Allow {
    pub line: u32,
    pub rules: Vec<String>,
    pub reason: String,
    /// Lines this directive covers: its own and the next code line.
    pub covers: Vec<u32>,
}

/// The scan result for one file.
#[derive(Debug, Default)]
pub struct FileScan {
    pub findings: Vec<Finding>,
    pub allows: Vec<Allow>,
}

// ---------------------------------------------------------------------
// Zones
// ---------------------------------------------------------------------

/// Files where real wall-clock reads are the point: the bench crate and
/// the repo benchmark (`benchmark/`) measure real elapsed time.
/// D001/D006 do not apply here.
pub fn is_wall_clock_zone(path: &str) -> bool {
    path.starts_with("crates/bench/") || path.starts_with("benchmark/")
}

/// Deterministic zones: the simulation, protocol and service crates
/// whose outputs must be a pure function of the seed. D002/D005 apply
/// to non-test code here.
pub fn is_deterministic_zone(path: &str) -> bool {
    const ROOTS: [&str; 8] = [
        "crates/core/src/",
        "crates/net/src/",
        "crates/services/src/",
        "crates/util/src/",
        "crates/broker/src/",
        "crates/wire/src/",
        "crates/security/src/",
        "crates/lint/src/",
    ];
    ROOTS.iter().any(|r| path.starts_with(r))
}

/// Protocol receive paths: actors that parse and react to messages from
/// the network. Malformed or unexpected input must never panic them.
pub fn is_protocol_handler_zone(path: &str) -> bool {
    matches!(
        path,
        "crates/core/src/client.rs"
            | "crates/core/src/bdn.rs"
            | "crates/core/src/entity.rs"
            | "crates/core/src/responder.rs"
            // The federation merge path consumes peer-supplied sync
            // snapshots; malformed deltas must be counted, not panicked on.
            | "crates/core/src/federation.rs"
    )
}

/// Wire receive crates: everything that takes frames off the (simulated
/// or real) network. The zero-copy path (DESIGN.md §12) makes full
/// decodes and defensive byte copies avoidable here, so D007 flags the
/// two regressions that would quietly reintroduce them.
pub fn is_wire_receive_zone(path: &str) -> bool {
    path.starts_with("crates/broker/src/")
        || path.starts_with("crates/core/src/")
        || path.starts_with("crates/net/src/")
}

/// Single-threaded engine zones: `crates/net` and `crates/core` code
/// runs its event loops on one logical thread per LP, and every
/// determinism proof in DESIGN.md §13 leans on that. Ad-hoc
/// `thread::spawn`, locks or atomics here would let wall-clock
/// scheduling leak into protocol ordering. Only the shard executor
/// (`shard.rs`, whose epoch barrier is *designed* around worker
/// threads) is sanctioned.
pub fn is_single_threaded_zone(path: &str) -> bool {
    (path.starts_with("crates/net/src/") || path.starts_with("crates/core/src/"))
        && path != "crates/net/src/shard.rs"
}

/// Whether a whole file is test code (integration-test trees).
pub fn is_test_file(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/")
}

// ---------------------------------------------------------------------
// Scanner
// ---------------------------------------------------------------------

struct Scanner<'a> {
    path: &'a str,
    toks: Vec<Tok>,
    comments: Vec<LineComment>,
    lines: Vec<&'a str>,
    /// Inclusive line ranges of `#[cfg(test)]` / `#[test]` items.
    test_ranges: Vec<(u32, u32)>,
    whole_file_test: bool,
    /// Identifiers declared (in this file) with a HashMap/HashSet type.
    hash_names: Vec<String>,
    findings: Vec<Finding>,
}

/// Scans one file; `path` must be workspace-relative with `/` separators.
pub fn scan_file(path: &str, src: &str) -> FileScan {
    let lexed = lex(src);
    let mut s = Scanner {
        path,
        toks: lexed.toks,
        comments: lexed.comments,
        lines: src.lines().collect(),
        test_ranges: Vec::new(),
        whole_file_test: is_test_file(path),
        hash_names: Vec::new(),
        findings: Vec::new(),
    };
    s.find_test_ranges();
    s.collect_hash_names();
    s.rule_d001();
    s.rule_d002_d005();
    s.rule_d003();
    s.rule_d004();
    s.rule_d006();
    s.rule_d007();
    s.rule_d008();
    let (allows, mut directive_findings) = parse_allows(path, &s.comments, &s.toks, &s.lines);
    s.findings.append(&mut directive_findings);
    s.findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    FileScan { findings: s.findings, allows }
}

impl<'a> Scanner<'a> {
    fn excerpt(&self, line: u32) -> String {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    fn emit(&mut self, rule: &'static str, line: u32, message: String) {
        let excerpt = self.excerpt(line);
        self.findings.push(Finding {
            rule,
            file: self.path.to_string(),
            line,
            message,
            excerpt,
        });
    }

    fn in_test(&self, line: u32) -> bool {
        self.whole_file_test || self.test_ranges.iter().any(|&(a, b)| a <= line && line <= b)
    }

    fn ident(&self, i: usize, s: &str) -> bool {
        self.toks.get(i).is_some_and(|t| t.is_ident(s))
    }

    fn punct(&self, i: usize, c: char) -> bool {
        self.toks.get(i).is_some_and(|t| t.is_punct(c))
    }

    /// Index just past the matching close for the open bracket at `open`.
    fn skip_balanced(&self, open: usize, oc: char, cc: char) -> usize {
        let mut depth = 0usize;
        let mut i = open;
        while i < self.toks.len() {
            if self.punct(i, oc) {
                depth += 1;
            } else if self.punct(i, cc) {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        self.toks.len()
    }

    /// Marks the body of every `#[cfg(test)]` / `#[test]` item.
    fn find_test_ranges(&mut self) {
        let mut i = 0;
        while i + 1 < self.toks.len() {
            if self.punct(i, '#') && self.punct(i + 1, '[') {
                let attr_end = self.skip_balanced(i + 1, '[', ']');
                let is_test_attr = self.toks[i + 1..attr_end.saturating_sub(1)]
                    .iter()
                    .any(|t| t.is_ident("test"));
                if is_test_attr {
                    // Find the item body: first `{` before any `;`.
                    let mut j = attr_end;
                    while j < self.toks.len() && !self.punct(j, '{') && !self.punct(j, ';') {
                        j += 1;
                    }
                    if j < self.toks.len() && self.punct(j, '{') {
                        let end = self.skip_balanced(j, '{', '}');
                        let from = self.toks[i].line;
                        let to = self
                            .toks
                            .get(end.saturating_sub(1))
                            .map(|t| t.line)
                            .unwrap_or(from);
                        self.test_ranges.push((from, to));
                        i = end;
                        continue;
                    }
                }
                i = attr_end;
                continue;
            }
            i += 1;
        }
    }

    /// Records identifiers declared with a HashMap/HashSet type in this
    /// file: struct fields and params (`name: [&mut ][Mutex<]HashMap<…`)
    /// and let bindings (`let [mut] name = HashMap::new()`).
    fn collect_hash_names(&mut self) {
        for i in 0..self.toks.len() {
            let t = &self.toks[i];
            if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
                continue;
            }
            // Walk backwards over type-path / binding noise.
            let mut j = i;
            let mut name: Option<String> = None;
            while j > 0 {
                j -= 1;
                let p = &self.toks[j];
                let skip = p.is_punct('&')
                    || p.is_punct('<')
                    || p.is_punct(':')
                        && j > 0
                        && self.toks[j - 1].is_punct(':') // half of `::`
                    || p.is_ident("mut")
                    || p.is_ident("std")
                    || p.is_ident("collections")
                    || p.is_ident("sync")
                    || p.is_ident("Mutex")
                    || p.is_ident("RwLock")
                    || p.is_ident("Option")
                    || p.is_ident("Arc")
                    || p.kind == TokKind::Lifetime;
                if skip {
                    if p.is_punct(':') {
                        j -= 1; // consume both halves of `::`
                    }
                    continue;
                }
                if p.is_punct(':') {
                    // `name : Type` — the ident before the colon.
                    if j > 0 && self.toks[j - 1].kind == TokKind::Ident {
                        name = Some(self.toks[j - 1].text.clone());
                    }
                } else if p.is_punct('=') {
                    // `let [mut] name = HashMap::new()`.
                    let mut k = j;
                    while k > 0 {
                        k -= 1;
                        if self.toks[k].kind == TokKind::Ident
                            && !self.toks[k].is_ident("mut")
                        {
                            name = Some(self.toks[k].text.clone());
                            break;
                        }
                        if !self.toks[k].is_ident("mut") {
                            break;
                        }
                    }
                }
                break;
            }
            if let Some(n) = name {
                if !self.hash_names.contains(&n) {
                    self.hash_names.push(n);
                }
            }
        }
    }

    // D001: wall-clock reads.
    fn rule_d001(&mut self) {
        if is_wall_clock_zone(self.path) {
            return;
        }
        for i in 0..self.toks.len() {
            let t = &self.toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            let line = t.line;
            if t.text == "SystemTime" || t.text == "UNIX_EPOCH" {
                self.emit(
                    "D001",
                    line,
                    format!("wall-clock read `{}` outside the wall-clock zone", t.text),
                );
            } else if t.text == "Instant"
                && self.punct(i + 1, ':')
                && self.punct(i + 2, ':')
                && self.ident(i + 3, "now")
            {
                self.emit(
                    "D001",
                    line,
                    "wall-clock read `Instant::now` outside the wall-clock zone".to_string(),
                );
            }
        }
    }

    /// Walks backwards from the `.` of a method call, collecting the
    /// idents of the receiver chain (`self.shared.clocks.lock()` →
    /// [lock, clocks, shared]). Stops at the first token that cannot be
    /// part of a chain.
    fn receiver_chain(&self, mut i: usize) -> Vec<&str> {
        let mut out = Vec::new();
        loop {
            if i == 0 {
                break;
            }
            i -= 1;
            let t = &self.toks[i];
            if t.is_punct(')') {
                // Skip a call's argument list backwards.
                let mut depth = 1usize;
                while i > 0 && depth > 0 {
                    i -= 1;
                    if self.punct(i, ')') {
                        depth += 1;
                    } else if self.punct(i, '(') {
                        depth -= 1;
                    }
                }
                continue;
            }
            if t.is_punct('.') {
                continue;
            }
            if t.kind == TokKind::Ident {
                out.push(t.text.as_str());
                // A chain continues only through a preceding `.`.
                if i == 0 || !self.punct(i - 1, '.') {
                    break;
                }
                continue;
            }
            break;
        }
        out
    }

    // D002 + D005: hash iteration (and float folds over it).
    fn rule_d002_d005(&mut self) {
        if !is_deterministic_zone(self.path) || self.hash_names.is_empty() {
            return;
        }
        const ITER_METHODS: [&str; 8] = [
            "iter", "iter_mut", "keys", "values", "values_mut", "drain", "retain", "into_iter",
        ];
        let mut pending: Vec<(u32, String, usize)> = Vec::new();
        for i in 0..self.toks.len() {
            let t = &self.toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            let line = t.line;
            if self.in_test(line) {
                continue;
            }
            // `recv.iter()` style.
            if ITER_METHODS.contains(&t.text.as_str())
                && i > 0
                && self.punct(i - 1, '.')
                && self.punct(i + 1, '(')
            {
                let chain = self.receiver_chain(i - 1);
                if let Some(name) =
                    chain.iter().find(|n| self.hash_names.iter().any(|h| h == **n))
                {
                    pending.push((
                        line,
                        format!(
                            "hash-ordered iteration `{}.{}()` in a deterministic zone \
                             (use BTreeMap/BTreeSet or sorted keys)",
                            name, t.text
                        ),
                        i,
                    ));
                }
            }
            // `for x in &map` style.
            if t.is_ident("for") {
                // Find `in`, then scan the iterated expression up to `{`.
                let mut j = i + 1;
                while j < self.toks.len() && !self.toks[j].is_ident("in") && !self.punct(j, '{')
                {
                    j += 1;
                }
                if j < self.toks.len() && self.toks[j].is_ident("in") {
                    let mut k = j + 1;
                    let mut hit: Option<String> = None;
                    while k < self.toks.len() && !self.punct(k, '{') {
                        let e = &self.toks[k];
                        if e.kind == TokKind::Ident
                            && self.hash_names.iter().any(|h| h == &e.text)
                            // Only direct iteration: `map` or `&map`,
                            // not `map.get(...)` lookups inside the expr.
                            && !self.punct(k + 1, '.')
                        {
                            hit = Some(e.text.clone());
                        }
                        k += 1;
                    }
                    if let Some(name) = hit {
                        pending.push((
                            line,
                            format!(
                                "hash-ordered `for` loop over `{name}` in a deterministic \
                                 zone (use BTreeMap/BTreeSet or sorted keys)"
                            ),
                            i,
                        ));
                    }
                }
            }
        }
        for (line, msg, at) in pending {
            self.emit("D002", line, msg);
            // D005: a float fold in the same statement's iterator chain.
            let mut k = at;
            while k < self.toks.len() && !self.punct(k, ';') && self.toks[k].line <= line + 3 {
                let t = &self.toks[k];
                if (t.is_ident("sum") || t.is_ident("product") || t.is_ident("fold"))
                    && self.fold_is_float(k)
                {
                    self.emit(
                        "D005",
                        line,
                        format!(
                            "floating-point `{}` across hash-ordered iteration: \
                             accumulation order is not reproducible",
                            t.text
                        ),
                    );
                    break;
                }
                k += 1;
            }
        }
    }

    /// Whether the fold at token index `k` accumulates floats: the
    /// nearest type annotation walking backwards decides (integer folds
    /// are order-independent, so only float evidence trips D005). With
    /// no annotation in reach (fully inferred), we stay quiet — the
    /// heuristic needs positive evidence, as documented in DESIGN.md.
    fn fold_is_float(&self, k: usize) -> bool {
        const INT_TYPES: [&str; 12] = [
            "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128",
            "isize",
        ];
        let lo = k.saturating_sub(40);
        for j in (lo..k).rev() {
            let t = &self.toks[j];
            if t.kind != TokKind::Ident {
                continue;
            }
            if t.text == "f32" || t.text == "f64" {
                return true;
            }
            if INT_TYPES.contains(&t.text.as_str()) {
                return false;
            }
        }
        false
    }

    // D003: unseeded randomness.
    fn rule_d003(&mut self) {
        for i in 0..self.toks.len() {
            let t = &self.toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            if matches!(t.text.as_str(), "thread_rng" | "from_entropy" | "OsRng") {
                let line = t.line;
                let name = t.text.clone();
                self.emit(
                    "D003",
                    line,
                    format!("unseeded RNG source `{name}`: all randomness must flow from a seed"),
                );
            }
        }
    }

    // D004: panics in protocol receive paths.
    fn rule_d004(&mut self) {
        if !is_protocol_handler_zone(self.path) {
            return;
        }
        for i in 0..self.toks.len() {
            let t = &self.toks[i];
            let line = t.line;
            if self.in_test(line) {
                continue;
            }
            match t.kind {
                TokKind::Ident => {
                    if (t.text == "unwrap" || t.text == "expect")
                        && i > 0
                        && self.punct(i - 1, '.')
                        && self.punct(i + 1, '(')
                    {
                        let name = t.text.clone();
                        self.emit(
                            "D004",
                            line,
                            format!(
                                "`.{name}()` in a protocol handler: malformed input must be \
                                 counted, not panic the actor"
                            ),
                        );
                    } else if matches!(
                        t.text.as_str(),
                        "panic" | "unreachable" | "todo" | "unimplemented"
                    ) && self.punct(i + 1, '!')
                    {
                        let name = t.text.clone();
                        self.emit(
                            "D004",
                            line,
                            format!("`{name}!` in a protocol handler: propagate or count instead"),
                        );
                    }
                }
                TokKind::Punct if t.is_punct('[') => {
                    // Index expression `ident[...]` (attributes `#[`,
                    // macros `vec![`, types `<[` and literals `= [` all
                    // have a non-ident predecessor).
                    if i > 0 && self.toks[i - 1].kind == TokKind::Ident {
                        // Exclude type positions: `ident` preceded by `:`
                        // or `<` is a type path, not an expression.
                        let is_type_pos = i >= 2
                            && (self.punct(i - 2, ':') || self.punct(i - 2, '<'));
                        if !is_type_pos {
                            let recv = self.toks[i - 1].text.clone();
                            self.emit(
                                "D004",
                                line,
                                format!(
                                    "indexing `{recv}[…]` in a protocol handler can panic; \
                                     use `.get()`"
                                ),
                            );
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // D006: seeded pub fns must be pure functions of their arguments.
    fn rule_d006(&mut self) {
        if is_wall_clock_zone(self.path) {
            return;
        }
        let mut i = 0;
        while i < self.toks.len() {
            if !(self.ident(i, "pub") || self.ident(i, "fn")) {
                i += 1;
                continue;
            }
            // Accept `pub fn`, `pub(crate) fn`; plain `fn` is skipped
            // (non-pub helpers are covered transitively by their public
            // callers' tests, and the rule targets the API surface).
            let mut j = i;
            if self.ident(j, "pub") {
                j += 1;
                if self.punct(j, '(') {
                    j = self.skip_balanced(j, '(', ')');
                }
            } else {
                i += 1;
                continue;
            }
            if !self.ident(j, "fn") {
                i = j;
                continue;
            }
            let fn_line = self.toks[j].line;
            if self.in_test(fn_line) {
                i = j + 1;
                continue;
            }
            let name_idx = j + 1;
            // Parameter list.
            let mut k = name_idx;
            while k < self.toks.len() && !self.punct(k, '(') && !self.punct(k, '{') {
                k += 1;
            }
            if !self.punct(k, '(') {
                i = k;
                continue;
            }
            let params_end = self.skip_balanced(k, '(', ')');
            let seeded = self.toks[k..params_end].windows(2).any(|w| {
                w[0].kind == TokKind::Ident
                    && w[1].is_punct(':')
                    && (w[0].text == "seed"
                        || w[0].text.ends_with("_seed")
                        || w[0].text.starts_with("seed_"))
            });
            if !seeded {
                i = params_end;
                continue;
            }
            // Body.
            let mut bo = params_end;
            while bo < self.toks.len() && !self.punct(bo, '{') && !self.punct(bo, ';') {
                bo += 1;
            }
            if !self.punct(bo, '{') {
                i = bo;
                continue;
            }
            let body_end = self.skip_balanced(bo, '{', '}');
            let fn_name = self
                .toks
                .get(name_idx)
                .map(|t| t.text.clone())
                .unwrap_or_default();
            let mut impure: Vec<(u32, String)> = Vec::new();
            for b in bo..body_end.min(self.toks.len()) {
                let t = &self.toks[b];
                if t.kind != TokKind::Ident {
                    continue;
                }
                let bad = match t.text.as_str() {
                    "SystemTime" | "UNIX_EPOCH" | "thread_rng" | "from_entropy" | "OsRng" => {
                        Some(t.text.clone())
                    }
                    "Instant"
                        if self.punct(b + 1, ':')
                            && self.punct(b + 2, ':')
                            && self.ident(b + 3, "now") =>
                    {
                        Some("Instant::now".to_string())
                    }
                    "env"
                        if self.punct(b + 1, ':')
                            && self.punct(b + 2, ':')
                            && (self.ident(b + 3, "var") || self.ident(b + 3, "vars")) =>
                    {
                        Some("env::var".to_string())
                    }
                    "static" => Some("static item".to_string()),
                    _ => None,
                };
                if let Some(what) = bad {
                    impure.push((t.line, what));
                }
            }
            for (line, what) in impure {
                self.emit(
                    "D006",
                    line,
                    format!(
                        "seeded `pub fn {fn_name}` reads ambient state ({what}); it must be \
                         a pure function of its arguments"
                    ),
                );
            }
            i = params_end;
        }
    }

    // D008: ad-hoc threading primitives outside the shard executor.
    // `std::cmp::Ordering` (ubiquitous in comparators) shares its name
    // with `std::sync::atomic::Ordering`, so the bare ident is
    // deliberately NOT flagged — the `Atomic*` types that would
    // accompany a real atomic are the signal.
    fn rule_d008(&mut self) {
        if !is_single_threaded_zone(self.path) {
            return;
        }
        for i in 0..self.toks.len() {
            let t = &self.toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            let line = t.line;
            if self.in_test(line) {
                continue;
            }
            if t.text == "thread"
                && self.punct(i + 1, ':')
                && self.punct(i + 2, ':')
                && (self.ident(i + 3, "spawn") || self.ident(i + 3, "scope"))
            {
                let what = self.toks[i + 3].text.clone();
                self.emit(
                    "D008",
                    line,
                    format!(
                        "`thread::{what}` outside the shard executor: engine code is \
                         single-threaded per LP — put parallelism behind shard.rs"
                    ),
                );
            } else if matches!(t.text.as_str(), "Mutex" | "RwLock" | "Condvar") {
                let name = t.text.clone();
                self.emit(
                    "D008",
                    line,
                    format!(
                        "`{name}` outside the shard executor: shared mutable state \
                         makes event order depend on thread scheduling"
                    ),
                );
            } else if t
                .text
                .strip_prefix("Atomic")
                .is_some_and(|rest| rest.chars().next().is_some_and(|c| c.is_ascii_uppercase()))
            {
                let name = t.text.clone();
                self.emit(
                    "D008",
                    line,
                    format!(
                        "`{name}` outside the shard executor: atomics order by \
                         hardware timing, not virtual time"
                    ),
                );
            }
        }
    }

    /// Skips the narrowing bridge after a decode call: `?`, tuple
    /// indices, and `.unwrap()`/`.expect(..)`/`.ok()` all still carry
    /// the whole decoded message forward. Returns the index of the
    /// first token that consumes the result.
    fn skip_result_bridge(&self, mut j: usize) -> usize {
        loop {
            if self.punct(j, '?') {
                j += 1;
                continue;
            }
            if self.punct(j, '.') {
                if let Some(next) = self.toks.get(j + 1) {
                    if next.kind == TokKind::Num {
                        // Tuple access, e.g. `decode_framed(&f)?.1`.
                        j += 2;
                        continue;
                    }
                    if matches!(next.text.as_str(), "unwrap" | "expect" | "ok")
                        && self.punct(j + 2, '(')
                    {
                        j = self.skip_balanced(j + 2, '(', ')');
                        continue;
                    }
                }
            }
            return j;
        }
    }

    // D007: wire-path hygiene in the receive crates (DESIGN.md §12).
    fn rule_d007(&mut self) {
        if !is_wire_receive_zone(self.path) {
            return;
        }
        /// Field names that are `Bytes` on the wire structs: copying
        /// them out defeats the zero-copy payload path.
        const BYTES_FIELDS: [&str; 6] =
            ["payload", "ciphertext", "signature", "frame", "body", "bytes"];
        for i in 0..self.toks.len() {
            let t = &self.toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            let line = t.line;
            if self.in_test(line) {
                continue;
            }
            let is_to_vec = t.text == "to_vec";
            // (a) Full decode immediately narrowed to a single id/kind
            // read: `Message::from_bytes(&b)?.kind()` and friends parse
            // every field just to look at one — `frame::peek` reads it
            // at a fixed offset instead.
            let is_decode_call = (matches!(t.text.as_str(), "from_bytes" | "from_shared")
                && i >= 3
                && self.ident(i - 3, "Message")
                && self.punct(i - 2, ':')
                && self.punct(i - 1, ':'))
                || t.text == "decode_framed";
            if is_decode_call && self.punct(i + 1, '(') {
                let after = self.skip_result_bridge(self.skip_balanced(i + 1, '(', ')'));
                if self.punct(after, '.')
                    && (self.ident(after + 1, "id") || self.ident(after + 1, "kind"))
                {
                    let field =
                        self.toks.get(after + 1).map(|t| t.text.clone()).unwrap_or_default();
                    self.emit(
                        "D007",
                        line,
                        format!(
                            "full decode read only for `.{field}`: peek the frame header \
                             (`nb_wire::frame::peek`) instead of decoding the body"
                        ),
                    );
                }
            }
            // (b) Copying a Bytes payload field back into a Vec: the
            // receive path hands out refcounted slices precisely so this
            // copy never happens per delivery.
            if is_to_vec && i > 0 && self.punct(i - 1, '.') && self.punct(i + 1, '(') {
                let chain = self.receiver_chain(i - 1);
                if let Some(name) = chain
                    .iter()
                    .find(|n| BYTES_FIELDS.contains(&n.to_lowercase().as_str()))
                    .map(|n| n.to_string())
                {
                    self.emit(
                        "D007",
                        line,
                        format!(
                            "`{name}.to_vec()` copies a refcounted `Bytes` payload; clone \
                             the handle (or slice it) instead"
                        ),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------

/// Parses `nb-lint::allow(RULE[, RULE…], reason = "…")` directives out
/// of the line comments. A directive covers findings on its own line
/// (trailing comment) and on the next line that holds code.
fn parse_allows(
    path: &str,
    comments: &[LineComment],
    toks: &[Tok],
    lines: &[&str],
) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    for c in comments {
        // A directive must start the comment text; prose that merely
        // mentions `nb-lint::allow` (docs, this file) is not one.
        let trimmed = c.text.trim_start();
        if !trimmed.starts_with("nb-lint::allow") {
            continue;
        }
        let at = c.text.find("nb-lint::allow").unwrap_or(0);
        let excerpt = lines
            .get(c.line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default();
        let mut bad = |message: String| {
            findings.push(Finding {
                rule: "L001",
                file: path.to_string(),
                line: c.line,
                message,
                excerpt: excerpt.clone(),
            });
        };
        let rest = &c.text[at + "nb-lint::allow".len()..];
        let Some(open) = rest.find('(') else {
            bad("malformed suppression: expected `nb-lint::allow(RULE, reason = \"…\")`"
                .to_string());
            continue;
        };
        let Some(close) = rest.rfind(')') else {
            bad("malformed suppression: missing `)`".to_string());
            continue;
        };
        let inner = &rest[open + 1..close];
        // Split off `reason = "…"`.
        let (rule_part, reason) = match inner.find("reason") {
            None => (inner, None),
            Some(rp) => {
                let tail = &inner[rp + "reason".len()..];
                let reason = tail
                    .find('"')
                    .and_then(|q| {
                        let after = &tail[q + 1..];
                        after.find('"').map(|e| after[..e].to_string())
                    })
                    .filter(|r| !r.trim().is_empty());
                (&inner[..rp], reason)
            }
        };
        let rules: Vec<String> = rule_part
            .split([',', ' '])
            .map(|r| r.trim())
            .filter(|r| !r.is_empty())
            .map(|r| r.to_string())
            .collect();
        let rules_ok = !rules.is_empty()
            && rules.iter().all(|r| {
                r.len() == 4
                    && (r.starts_with('D') || r.starts_with('L'))
                    && r[1..].chars().all(|ch| ch.is_ascii_digit())
            });
        if !rules_ok {
            bad(format!(
                "malformed suppression: bad rule list `{}`",
                rule_part.trim()
            ));
            continue;
        }
        let Some(reason) = reason else {
            bad("suppression without a justification: add `reason = \"…\"`".to_string());
            continue;
        };
        // Covered lines: the directive's own line and the next code
        // line. Attributes (`#[...]` / `#![...]`, stacked or spanning
        // lines) between the directive and the item don't consume the
        // coverage — both the attribute lines and the item line are
        // covered, so a suppression above `#[derive(...)]` reaches the
        // item it annotates.
        let mut covers = vec![c.line];
        if let Some(mut i) = toks.iter().position(|t| t.line > c.line) {
            while i < toks.len() && toks[i].is_punct('#') {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.is_punct('!')) {
                    j += 1;
                }
                if !toks.get(j).is_some_and(|t| t.is_punct('[')) {
                    break;
                }
                let mut depth = 0usize;
                while j < toks.len() {
                    if toks[j].is_punct('[') {
                        depth += 1;
                    } else if toks[j].is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                for t in toks.iter().take(j.min(toks.len() - 1) + 1).skip(i) {
                    if !covers.contains(&t.line) {
                        covers.push(t.line);
                    }
                }
                i = j + 1;
            }
            if let Some(t) = toks.get(i) {
                if !covers.contains(&t.line) {
                    covers.push(t.line);
                }
            }
        }
        allows.push(Allow { line: c.line, rules, reason, covers });
    }
    (allows, findings)
}
