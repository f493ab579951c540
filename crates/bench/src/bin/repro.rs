//! `repro` — regenerates every table and figure of the paper and runs
//! the seed-pure campaigns (`chaos`, `scale`); `repro
//! experiments` writes EXPERIMENTS.md's tables from the pinned ones;
//! `repro census` counts the tree; `repro gate` runs clippy over the
//! workspace and checks that the tree still regenerates every committed
//! figure, report, EXPERIMENTS.md table and count. `repro help` prints
//! the command table ([`COMMANDS`]) and the flags.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use nb_bench::campaign::{run_campaign, ScenarioResult};
use nb_bench::census::{ceiling_failures, Census, CEILINGS};
use nb_bench::parallel::ParallelExecutor;
use nb_bench::table::fill_blocks;
use nb_bench::*;
use nb_broker::TopologyKind;

/// Tracks live heap bytes for `repro scale`'s memory-per-entity column.
/// Library tests run without it (the column reads 0 and is flagged
/// `alloc_counting: false`).
#[global_allocator]
static ALLOC: nb_bench::alloc::CountingAlloc = nb_bench::alloc::CountingAlloc;

struct Args {
    cmd: String,
    /// `gate`'s operand: the one report to check.
    target: Option<String>,
    runs: usize,
    seed: u64,
    csv: Option<PathBuf>,
    out: Option<PathBuf>,
    workers: Option<usize>,
    scenarios: usize,
    tier: String,
    brokers: Option<usize>,
    entities: Option<usize>,
    topology: Option<String>,
    /// `ab`: the revision to compare the working tree with.
    parent: Option<String>,
    pairs: usize,
    workload: String,
    seconds: u64,
    expect_move: Vec<String>,
}

const FLAGS: &str = "  --runs N         runs per experiment (default 120, the paper protocol; sweeps cap it)
  --seed N         root seed (default 2005)
  --csv DIR        also write machine-readable CSVs of the figures into DIR
  --out PATH       where a report-writing command puts its JSON
  --workers N      worker threads (default: one per core, at most 16; scale: 1);
                   never changes a figure, table or report byte
  --scenarios N    chaos campaign scenarios (default 10)
  --tier T         scale: small|large|all (default all)
  --brokers N, --entities N, --topology star|linear|geo|isp
                   scale: one custom tier instead of --tier
  --parent REV     ab: the revision the working tree is compared with (required)
  --pairs N        ab: alternating pairs of benchmark runs (default 10)
  --workload W     ab: the benchmark workload (default attach_geo)
  --seconds T      ab: each run's --seconds (default 8, the benchmark's least)
  --expect-move M  ab: a deterministic column the change moves (repeatable)";

/// What a `repro` sub-command does.
enum Run {
    /// A table, figure or ablation: `repro all` runs each, in table
    /// order, and `--csv DIR` also writes it to `DIR/<name>.csv`. A
    /// `pinned` table is seeded, so `repro gate figs` compares it with
    /// `artifacts/csv/<name>.csv`; the others time the host.
    Table { make: fn(&str, &Args) -> Table, pinned: bool },
    /// A topology diagram, which `repro all` also prints.
    Diagram(TopologyKind),
    /// Prints only.
    Print(fn(&str, &Args)),
    /// Writes a JSON report: its default `--out`, which is also the
    /// committed file `repro gate` checks, and how to produce it — the
    /// JSON and whether every invariant held.
    Report(&'static str, fn(&Args) -> (String, bool)),
}

/// One `repro` sub-command.
struct Command {
    name: &'static str,
    help: &'static str,
    run: Run,
}

const fn cmd(name: &'static str, help: &'static str, run: fn(&str, &Args)) -> Command {
    Command { name, help, run: Run::Print(run) }
}

const fn table(name: &'static str, help: &'static str, make: fn(&str, &Args) -> Table) -> Command {
    Command { name, help, run: Run::Table { make, pinned: true } }
}

const fn timed(name: &'static str, help: &'static str, make: fn(&str, &Args) -> Table) -> Command {
    Command { name, help, run: Run::Table { make, pinned: false } }
}

const fn diagram(name: &'static str, help: &'static str, kind: TopologyKind) -> Command {
    Command { name, help, run: Run::Diagram(kind) }
}

const fn report(
    name: &'static str,
    help: &'static str,
    out: &'static str,
    run: fn(&Args) -> (String, bool),
) -> Command {
    Command { name, help, run: Run::Report(out, run) }
}

const COMMANDS: &[Command] = &[
    cmd("help", "this listing", print_help),
    cmd("all", "every table, figure and ablation below, in this order", run_all),
    table("table1", "machine inventory", |_, _| table1()),
    diagram("fig1", "unconnected topology diagram", TopologyKind::Unconnected),
    table("fig2", "sub-activity breakdown, unconnected topology", swept),
    table("fig3", "discovery time, client at FSU", swept),
    table("fig4", "discovery time, client at Cardiff", swept),
    table("fig5", "discovery time, client at UMN", swept),
    table("fig6", "discovery time, client at NCSA", swept),
    table("fig7", "discovery time, client at Bloomington", swept),
    diagram("fig8", "star topology diagram", TopologyKind::Star),
    table("fig9", "sub-activity breakdown, star topology", swept),
    diagram("fig10", "linear topology diagram", TopologyKind::Linear),
    table("fig11", "sub-activity breakdown, linear topology", swept),
    table("fig12", "multicast-only discovery", swept),
    timed("fig13", "certificate validation cost (host wall clock)", security),
    timed("fig14", "sign+encrypt+extract cost (host wall clock)", security),
    table("ablation-timeout", "collection-timeout sweep", swept),
    table("ablation-maxresp", "max-responses cap sweep", swept),
    table("ablation-weights", "selection-weight presets", swept),
    table("ablation-scale", "broker-count scaling", swept),
    table("ablation-loss", "UDP loss sensitivity", swept),
    table("ablation-clock", "NTP residual sensitivity", swept),
    table("ablation-topology", "overlay shapes at 10 brokers", swept),
    cmd("check", "self-verify every qualitative claim (exit 1 on failure)", run_check),
    cmd(
        "experiments",
        "rewrite EXPERIMENTS.md's generated tables from the pinned ones (--runs 120 --seed 2005)",
        run_experiments,
    ),
    cmd("trace", "message-flow trace of one discovery", |_, args| print!("{}", trace(args.seed))),
    report(
        "chaos",
        "seeded fault-injection campaign (exit 1 if an invariant fails)",
        "CHAOS_campaign.json",
        chaos_report,
    ),
    report(
        "scale",
        "WAN scale campaign on the sharded engine (exit 1 if an invariant fails)",
        "BENCH_scale.json",
        scale_report,
    ),
    report(
        "census",
        "the tree's lines, test-only pub items, trait implementors, config knobs, \
         #[ignore]s and #[expect]s, read from the source",
        CENSUS_PIN,
        |_| (census_of(&workspace_root()).unwrap_or_else(|e| fail(&e)).json, true),
    ),
    cmd(
        "ab",
        "--parent REV: the benchmark on REV and on the working tree in alternating pairs, \
         into perf/ab-<workload>-<seed>-<rev>.json; exit 1 if a deterministic column moved unnamed",
        run_ab,
    ),
    cmd(
        "gate",
        "[lint|bench|figs|chaos|scale|census] run clippy, build and test \
         benchmark/, then regenerate the committed figures, reports (at 1 and 4 workers) and \
         census; exit 1 on a clippy, build or test failure or any byte of difference",
        run_gate,
    ),
];

fn find(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// Usage and IO errors exit 2 (1 is reserved for a failed gate).
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The value following `flag`, parsed; exits 2 when missing or malformed.
fn value<T: std::str::FromStr>(
    flag: &str,
    argv: &mut impl Iterator<Item = String>,
    what: &str,
) -> T {
    let parsed = argv.next().and_then(|v| v.parse().ok());
    parsed.unwrap_or_else(|| fail(&format!("{flag} needs {what}")))
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Args {
    let mut args = Args {
        cmd: "all".to_string(),
        target: None,
        runs: PAPER_RUNS,
        seed: 2005,
        csv: None,
        out: None,
        workers: None,
        scenarios: 10,
        tier: "all".to_string(),
        brokers: None,
        entities: None,
        topology: None,
        parent: None,
        pairs: 10,
        workload: "attach_geo".to_string(),
        seconds: 8,
        expect_move: Vec::new(),
    };
    while let Some(arg) = argv.next() {
        let flag = arg.as_str();
        match flag {
            "--runs" => args.runs = value(flag, &mut argv, "a number"),
            "--seed" => args.seed = value(flag, &mut argv, "a number"),
            "--csv" => args.csv = Some(value(flag, &mut argv, "a directory")),
            "--out" => args.out = Some(value(flag, &mut argv, "a path")),
            "--workers" => args.workers = Some(value(flag, &mut argv, "a number")),
            "--scenarios" => args.scenarios = value(flag, &mut argv, "a number"),
            "--tier" => args.tier = value(flag, &mut argv, "small|large|all"),
            "--brokers" => args.brokers = Some(value(flag, &mut argv, "a number")),
            "--entities" => args.entities = Some(value(flag, &mut argv, "a number")),
            "--topology" => args.topology = Some(value(flag, &mut argv, "star|linear|geo|isp")),
            "--parent" => args.parent = Some(value(flag, &mut argv, "a revision")),
            "--pairs" => args.pairs = value(flag, &mut argv, "a number"),
            "--workload" => args.workload = value(flag, &mut argv, "a workload"),
            "--seconds" => args.seconds = value(flag, &mut argv, "a number"),
            "--expect-move" => args.expect_move.push(value(flag, &mut argv, "a metric or digest name")),
            "--help" => args.cmd = "help".to_string(),
            _ if !flag.starts_with('-') && args.cmd == "gate" => args.target = Some(arg),
            _ if !flag.starts_with('-') => args.cmd = arg,
            _ => fail(&format!("unknown flag {flag}; try `repro help`")),
        }
    }
    args
}

fn print_help(_: &str, _: &Args) {
    println!("usage: repro [COMMAND] [FLAGS]   (default command: all)\n\ncommands:");
    for c in COMMANDS {
        match c.run {
            Run::Report(out, _) => println!("  {:<18} {} [--out {out}]", c.name, c.help),
            _ => println!("  {:<18} {}", c.name, c.help),
        }
    }
    println!("\nflags:\n{FLAGS}");
}

fn run_all(_: &str, args: &Args) {
    for c in COMMANDS {
        match c.run {
            Run::Table { make, .. } => show(c.name, args, &make(c.name, args)),
            Run::Diagram(kind) => print_diagram(c.name, kind),
            Run::Print(_) | Run::Report(..) => {}
        }
    }
}

/// Prints `table`, then writes it as `<dir>/<name>.csv` under `--csv DIR`.
fn show(name: &str, args: &Args, table: &Table) {
    println!("{table}");
    if let Some(dir) = &args.csv {
        write_csv(dir, name, table);
    }
}

/// Writes `table` as `<dir>/<name>.csv`; exits 2 when it cannot.
fn write_csv(dir: &Path, name: &str, table: &Table) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        fail(&format!("cannot create {}: {e}", dir.display()));
    }
    let path = dir.join(format!("{name}.csv"));
    if let Err(e) = std::fs::write(&path, table.to_csv()) {
        fail(&format!("cannot write {}: {e}", path.display()));
    }
    println!("wrote {}\n", path.display());
}

fn print_diagram(name: &str, kind: TopologyKind) {
    println!("=== Figure {}: {} topology ===", &name[3..], kind.label());
    println!("{}", topology_figure(kind));
}

/// The executor `--workers N` asks for, or the default one.
fn executor(args: &Args) -> ParallelExecutor {
    args.workers.map_or_else(ParallelExecutor::new, ParallelExecutor::with_workers)
}

/// The paper's five metrics for one timing figure.
fn summary(title: String, s: &nb_util::Summary) -> Table {
    let columns = [("n", 0), ("mean_ms", 3), ("std_dev", 3), ("max", 3), ("min", 3), ("error", 3)];
    Table::new(title, &columns, [row![s.n, s.mean, s.std_dev, s.max, s.min, s.error]])
}

/// The discovery table command `name` prints: its [`Sweep`], run.
fn swept(name: &str, args: &Args) -> Table {
    Sweep::named(name).expect("a sweep command names a sweep").run(executor(args), args.seed, args.runs)
}

fn security(name: &str, args: &Args) -> Table {
    let iters = args.runs.max(PAPER_RUNS);
    let (what, s) = match name {
        "fig13" => {
            ("validate an X.509-style certificate", figure_cert_validation(args.seed, iters))
        }
        _ => (
            "sign+encrypt and later extract the BrokerDiscoveryRequest",
            figure_sign_encrypt(args.seed, iters),
        ),
    };
    summary(format!("Figure {}: time to {what} ({iters} iterations)", &name[3..]), &s)
}

/// The message flow of one star-topology discovery, as `repro trace`
/// prints it and `artifacts/trace_output.txt` pins it.
fn trace(seed: u64) -> String {
    use nb_discovery::scenario::ScenarioBuilder;
    use nb_net::wan::BLOOMINGTON;
    use nb_net::{Sim, Trace};
    use std::fmt::Write;
    let builder = ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, seed);
    let (recorder, log) = Trace::new();
    let sim = builder.describe().traced(&recorder).build(Sim::with_clock_profile);
    let mut scenario = builder.scenario(sim);
    log.take(); // the warm-up's
    let outcome = scenario.run_discovery_once();
    let trace = log.take();
    let mut out = format!(
        "=== Message flow of one discovery (star topology, seed {seed}) ===\n\
         {:<12} {:<22} {:<24} {:<8} {:>6}\n",
        "t (ms)", "from", "to", "via", "bytes"
    );
    let t0 = trace.first().map(|r| r.at).unwrap_or_default();
    let name = |n: nb_wire::NodeId| scenario.sim.node_name(n).to_string();
    for rec in &trace {
        let _ = writeln!(
            out,
            "{:<12.2} {:<22} {:<24} {:<8} {:>6}  {}",
            (rec.at - t0).as_secs_f64() * 1e3,
            name(rec.from.node),
            name(rec.to.node),
            if rec.stream { "stream" } else { "udp" },
            rec.msg.body_len(),
            rec.msg.kind(),
        );
    }
    let _ = writeln!(
        out,
        "\n{} messages; discovered {:?} in {:?}",
        trace.len(),
        outcome.chosen.map(name),
        outcome.phases.total()
    );
    out
}

fn run_check(_: &str, args: &Args) {
    println!(
        "=== Self-verification: the paper's qualitative claims \
         ({} runs per experiment, seed {}) ===",
        args.runs, args.seed
    );
    let checks = shape_checks(executor(args), args.seed, args.runs.clamp(10, 40));
    for c in &checks {
        println!("  [{}] {}", if c.passed { "PASS" } else { "FAIL" }, c.claim);
        println!("         {}", c.evidence);
    }
    println!();
    let failed = checks.iter().filter(|c| !c.passed).count();
    if failed > 0 {
        eprintln!("{failed} claim(s) FAILED");
        std::process::exit(1);
    }
    println!("all {} claims hold", checks.len());
}

/// Prints a row's failed invariants under it.
fn print_failures<S>(row: &ScenarioResult<S>) {
    for inv in row.invariants.iter().filter(|i| !i.passed) {
        println!("    [FAIL] {}: {}", inv.name, inv.detail);
    }
}

/// `repro chaos`: runs the fault campaign, prints its table and each
/// failed invariant.
fn chaos_report(args: &Args) -> (String, bool) {
    // Scenarios are independent, so they shard across workers; the
    // report bytes are identical whatever count is used.
    let workers = executor(args).workers();
    let report = run_campaign(args.seed, args.scenarios.max(1), workers, nb_bench::chaos::scenario);
    println!(
        "=== Chaos campaign: {} scenarios from base seed {}, {} workers ===",
        report.scenarios.len(),
        report.base_seed,
        workers
    );
    println!(
        "{:<20} {:>6} {:>8} {:>18} {:>10} {:>8} {:>7}",
        "scenario", "seed", "faults", "plan digest", "failovers", "stale", "verdict"
    );
    for s in &report.scenarios {
        println!(
            "{:<20} {:>6} {:>8} {:>18} {:>10} {:>8} {:>7}",
            s.name,
            s.seed,
            s.faults,
            format!("{:016x}", s.plan_digest),
            s.stats.failovers,
            s.stats.stale_targets_skipped,
            if s.passed() { "PASS" } else { "FAIL" }
        );
        print_failures(s);
    }
    (report.to_json(), report.passed())
}

/// `repro scale`: the JSON carries no wall-clock or worker field (the
/// events/sec column stays on stdout), so it is byte-identical at any
/// `--workers`.
fn scale_report(args: &Args) -> (String, bool) {
    use nb_bench::scale::{self, TierSpec};
    use nb_net::topogen::TopologyKind as WanKind;

    let workers = args.workers.unwrap_or(1).max(1);
    let custom = args.brokers.is_some() || args.entities.is_some() || args.topology.is_some();
    let tiers: Vec<TierSpec> = if custom {
        let kind = match args.topology.as_deref().unwrap_or("geo") {
            "star" => WanKind::Star,
            "linear" => WanKind::Linear,
            "geo" => WanKind::RandomGeometric,
            "isp" => WanKind::HierarchicalIsp,
            other => fail(&format!("--topology {other}: expected star|linear|geo|isp")),
        };
        vec![TierSpec {
            name: "custom",
            kind,
            brokers: args.brokers.unwrap_or(100),
            entities: args.entities.unwrap_or(10_000),
        }]
    } else {
        scale::default_tiers(&args.tier).unwrap_or_else(|| {
            fail(&format!("--tier {}: expected small|large|all", args.tier))
        })
    };

    println!(
        "=== Scale campaign: {} tier(s), seed {}, {} worker(s) ===",
        tiers.len(),
        args.seed,
        workers
    );
    let report = scale::run_campaign(&tiers, args.seed, workers);
    println!(
        "{:<14} {:>7} {:>8} {:>4} {:>12} {:>9} {:>11} {:>9} {:>9} {:>9} {:>7} {:>7} {:>7}",
        "tier", "brokers", "entities", "rgns", "events", "evts/sec", "attach_ms",
        "p50_us", "p99_us", "p999_us", "wire/e", "mem/e", "dedup/e"
    );
    for row in &report.scenarios {
        let t = &row.stats;
        println!(
            "{:<14} {:>7} {:>8} {:>4} {:>12} {:>9.0} {:>11} {:>9} {:>9} {:>9} {:>7} {:>7} {:>7}",
            row.name,
            t.brokers,
            t.entities,
            t.regions,
            t.events,
            t.events_per_sec(),
            t.time_to_all_attached_us / 1_000,
            t.discovery_p50_us,
            t.discovery_p99_us,
            t.discovery_p999_us,
            t.wire_bytes_per_entity,
            t.mem_bytes_per_entity,
            t.dedup_bytes_per_entity,
        );
        print_failures(row);
    }
    (report.to_json(), report.passed())
}

/// The nearest directory at or above the current one whose `Cargo.toml`
/// declares `[workspace]`; exits 2 when there is none.
fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let declares_workspace = |dir: &&Path| {
        std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|t| t.contains("[workspace]"))
    };
    let Some(root) = cwd.ancestors().find(declares_workspace) else {
        fail(&format!("no workspace root found from {}", cwd.display()));
    };
    root.to_path_buf()
}

/// `repro ab`: see [`nb_bench::ab`]. Exits 2 on a usage error, 1 when a
/// build or run fails or a deterministic column moved that no
/// `--expect-move` names.
fn run_ab(_: &str, args: &Args) {
    let Some(parent) = args.parent.clone() else {
        fail("ab needs --parent REV");
    };
    if args.pairs == 0 {
        fail("--pairs needs a number above 0");
    }
    let options = nb_bench::ab::Options {
        parent,
        pairs: args.pairs,
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        expect_move: args.expect_move.clone(),
    };
    match nb_bench::ab::run(&workspace_root(), &options) {
        Ok((path, unexpected)) if unexpected.is_empty() => println!("wrote {}", path.display()),
        Ok((path, unexpected)) => {
            gate_failed(&path.display().to_string(), &format!("moved without --expect-move: {}", unexpected.join(", ")))
        }
        Err(e) => gate_failed("ab", &e),
    }
}

/// What `repro gate` checks, in order: `lint` runs clippy, `bench`
/// builds and tests the benchmark, `figs` the committed figures, `census` the
/// committed count, every other entry is a committed report and the
/// flags it is regenerated with.
const GATES: [(&str, &str); 6] = [
    ("lint", ""),
    ("bench", ""),
    ("figs", ""),
    ("chaos", "--scenarios 3 --seed 11"),
    ("scale", "--tier small --seed 2005"),
    ("census", ""),
];

/// `repro gate [NAME]`: runs [`lint_gate`], [`bench_gate`] and
/// [`figs_gate`], then regenerates each committed report (all of
/// [`GATES`] without a name) in memory at 1 and 4 workers, then
/// [`census_gate`], writing nothing, and exits 1 naming the file on a
/// failed invariant, a 1-vs-4 difference or any byte that differs from
/// the committed copy.
fn run_gate(_: &str, args: &Args) {
    let target = args.target.as_deref();
    let gates: Vec<(&str, &str)> =
        GATES.into_iter().filter(|&(name, _)| target.is_none_or(|t| t == name)).collect();
    if gates.is_empty() {
        fail(&format!(
            "gate {:?}: expected lint|bench|figs|chaos|scale|census",
            target.unwrap_or("")
        ));
    }
    let root = workspace_root();
    for (name, flags) in gates {
        match name {
            "lint" => lint_gate(&root),
            "bench" => bench_gate(&root),
            "figs" => figs_gate(&root),
            "census" => census_gate(&root),
            _ => report_gate(&root, name, flags),
        }
    }
}

/// Regenerates the committed report `name` with `flags` at 1 and 4
/// workers and compares each with the committed bytes.
fn report_gate(root: &Path, name: &str, flags: &str) {
    let Some(Command { run: Run::Report(file, report), .. }) = find(name) else {
        unreachable!("GATES names a report-writing command");
    };
    let committed = std::fs::read_to_string(root.join(file))
        .unwrap_or_else(|e| gate_failed(file, &format!("cannot read the committed copy: {e}")));
    for workers in [1, 4] {
        let argv = format!("{name} {flags} --workers {workers}");
        let (json, passed) = report(&parse_args(argv.split_whitespace().map(String::from)));
        if !passed {
            gate_failed(file, &format!("an invariant failed at {workers} worker(s)"));
        }
        if let Some(departure) = departure(&committed, &json) {
            gate_failed(
                file,
                &if workers == 1 {
                    format!("the tree regenerates it differently {departure}")
                } else {
                    format!("it differs between 1 and 4 workers {departure}")
                },
            );
        }
    }
    println!("{file}: byte-identical to the committed copy at 1 and 4 workers");
}

/// Every pinned (seeded) table, by command name, at the defaults the
/// pins are made at: `--runs 120 --seed 2005`.
fn pinned_tables() -> Vec<(&'static str, Table)> {
    let args = parse_args(std::iter::empty());
    COMMANDS
        .iter()
        .filter_map(|c| match c.run {
            Run::Table { make, pinned: true } => Some((c.name, make(c.name, &args))),
            _ => None,
        })
        .collect()
}

/// `doc` (EXPERIMENTS.md) with each `<!-- table NAME -->` block rendered
/// from pinned table NAME.
fn render_experiments(doc: &str, tables: &[(&str, Table)]) -> Result<String, String> {
    fill_blocks(doc, |name| tables.iter().find(|(n, _)| *n == name).map(|(_, t)| t.to_markdown()))
}

/// `repro experiments`: rewrites EXPERIMENTS.md's generated blocks in
/// place; exits 2 when the file cannot be read or written or names a
/// table that is not pinned.
fn run_experiments(_: &str, _: &Args) {
    let path = workspace_root().join(EXPERIMENTS);
    let doc = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
    let filled = render_experiments(&doc, &pinned_tables()).unwrap_or_else(|e| fail(&format!("{EXPERIMENTS}: {e}")));
    if let Err(e) = std::fs::write(&path, filled) {
        fail(&format!("cannot write {}: {e}", path.display()));
    }
    println!("wrote {}", path.display());
}

/// `repro gate figs`: regenerates every pinned table's CSV and the trace
/// at the defaults (`--runs 120 --seed 2005`) in memory and compares each
/// with its committed copy under `artifacts/`, and EXPERIMENTS.md with
/// its rendering from the same tables; a committed CSV that no pinned
/// table writes fails too. It names every file that fails before it
/// exits, so one run lists a whole re-pin.
fn figs_gate(root: &Path) {
    let tables = pinned_tables();
    let mut pins: Vec<(String, String)> =
        tables.iter().map(|(name, table)| (format!("artifacts/csv/{name}.csv"), table.to_csv())).collect();
    pins.push((TRACE_PIN.to_string(), trace(parse_args(std::iter::empty()).seed)));
    let listing = std::fs::read_dir(root.join("artifacts/csv"))
        .unwrap_or_else(|e| gate_failed("artifacts/csv", &format!("cannot list it: {e}")));
    let committed: BTreeMap<String, Result<String, String>> = listing
        .flatten()
        .map(|entry| format!("artifacts/csv/{}", entry.file_name().to_string_lossy()))
        .chain([TRACE_PIN.to_string(), EXPERIMENTS.to_string()])
        .map(|file| {
            let text = std::fs::read_to_string(root.join(&file)).map_err(|e| e.to_string());
            (file, text)
        })
        .collect();
    let rendered = match committed.get(EXPERIMENTS) {
        Some(Ok(doc)) => render_experiments(doc, &tables).unwrap_or_else(|e| gate_failed(EXPERIMENTS, &e)),
        _ => String::new(),
    };
    pins.push((EXPERIMENTS.to_string(), rendered));
    let failures = pin_failures(&pins, &committed);
    for (file, why) in &failures {
        eprintln!("FAIL: {file}: {why}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    println!(
        "artifacts/: {} figure CSVs and trace_output.txt byte-identical to the committed copies, \
         and {EXPERIMENTS}'s tables to their rendering",
        tables.len()
    );
}

/// The trace `repro gate figs` holds beside the CSVs.
const TRACE_PIN: &str = "artifacts/trace_output.txt";

/// The document whose generated tables `repro experiments` writes and
/// `repro gate figs` holds.
const EXPERIMENTS: &str = "EXPERIMENTS.md";

/// What `repro census` writes and `repro gate census` holds.
const CENSUS_PIN: &str = "CENSUS.json";

/// [`nb_bench::census::census`] of the tree under `root`, or why it
/// could not be read.
fn census_of(root: &Path) -> Result<Census, String> {
    nb_bench::census::census(root).map_err(|e| format!("cannot read the tree: {e}"))
}

/// `repro gate census`: recounts the tree under `root`, compares the
/// count with the committed `CENSUS.json`, then holds each count to its
/// ceiling in [`CEILINGS`], naming every count above or below one.
fn census_gate(root: &Path) {
    let fresh = census_of(root).unwrap_or_else(|e| gate_failed(CENSUS_PIN, &e));
    let committed = std::fs::read_to_string(root.join(CENSUS_PIN)).map_err(|e| e.to_string());
    let pins = [(CENSUS_PIN.to_string(), fresh.json)];
    if let Some((file, why)) =
        pin_failures(&pins, &BTreeMap::from([(CENSUS_PIN.to_string(), committed)])).first()
    {
        gate_failed(file, &format!("{why}\n  `repro census` rewrites it"));
    }
    let ceilings = std::fs::read_to_string(root.join(CEILINGS))
        .unwrap_or_else(|e| gate_failed(CEILINGS, &format!("cannot read it: {e}")));
    let failures = ceiling_failures(&fresh.counts, &ceilings);
    for why in &failures {
        eprintln!("FAIL: {CEILINGS}: {why}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    println!("{CENSUS_PIN}: byte-identical to the committed copy, every count at its ceiling in {CEILINGS}");
}

/// Every way the regenerated `pins` (file, text) fail their committed
/// copies (file → text, or why it could not be read), as (file, why):
/// first each pin that is missing, unreadable or different (with its
/// first differing line), in pin order, then each committed file no pin
/// writes.
fn pin_failures(
    pins: &[(String, String)],
    committed: &BTreeMap<String, Result<String, String>>,
) -> Vec<(String, String)> {
    let mut failures: Vec<(String, String)> = pins
        .iter()
        .filter_map(|(file, fresh)| {
            let why = match committed.get(file) {
                None => "there is no committed copy".to_string(),
                Some(Err(e)) => format!("cannot read the committed copy: {e}"),
                Some(Ok(old)) => format!("the tree regenerates it differently {}", departure(old, fresh)?),
            };
            Some((file.clone(), why))
        })
        .collect();
    failures.extend(
        committed
            .keys()
            .filter(|file| !pins.iter().any(|(pinned, _)| pinned == *file))
            .map(|file| (file.clone(), "no pinned table writes it".to_string())),
    );
    failures
}

/// `repro gate lint`: clippy over every workspace target, with the levels
/// in `[workspace.lints]` and the lists in `clippy.toml`, building into
/// `target/clippy` so it never waits on another build's lock. It fails on
/// any clippy error, and fails closed when cargo or clippy cannot be run.
fn lint_gate(root: &Path) {
    let status = std::process::Command::new("cargo")
        .args(["clippy", "--offline", "--quiet", "--workspace", "--all-targets", "--target-dir"])
        .arg(root.join("target/clippy"))
        .current_dir(root)
        .status();
    match status {
        Ok(s) if s.success() => println!("clippy: no errors in any workspace target"),
        Ok(s) => gate_failed("cargo clippy", &format!("it failed ({s}); its errors are above")),
        Err(e) => gate_failed("cargo clippy", &format!("cannot run cargo: {e}")),
    }
}

/// `repro gate bench`: `cargo test` of the benchmark crate under
/// `benchmark/`, building into `target/bench-check`, so a library change
/// can neither break the benchmark's build nor its harness tests (a
/// traced rep matching an untraced one, the traced Fig 2 build matching
/// `ScenarioBuilder`'s) unnoticed. Cargo rewrites `benchmark/Cargo.lock`
/// when the lock lags the tree, so the gate reads the lock's bytes first
/// and puts them back after: it leaves `benchmark/` as it found it. Like
/// the clippy gate it fails closed when cargo cannot be run.
fn bench_gate(root: &Path) {
    const LOCK: &str = "benchmark/Cargo.lock";
    let lock = std::fs::read(root.join(LOCK))
        .unwrap_or_else(|e| gate_failed(LOCK, &format!("cannot read it: {e}")));
    let status = std::process::Command::new("cargo")
        .args(["test", "--offline", "--quiet"])
        .args(["--manifest-path", "benchmark/Cargo.toml", "--target-dir", "target/bench-check"])
        .current_dir(root)
        .status();
    if std::fs::read(root.join(LOCK)).ok().as_ref() != Some(&lock) {
        std::fs::write(root.join(LOCK), &lock)
            .unwrap_or_else(|e| gate_failed(LOCK, &format!("cannot put it back: {e}")));
    }
    match status {
        Ok(s) if s.success() => println!("benchmark/: builds against the tree and its tests pass"),
        Ok(s) => gate_failed("cargo test benchmark", &format!("it failed ({s}); its errors are above")),
        Err(e) => gate_failed("cargo test benchmark", &format!("cannot run cargo: {e}")),
    }
}

fn gate_failed(file: &str, why: &str) -> ! {
    eprintln!("FAIL: {file}: {why}");
    std::process::exit(1);
}

/// Where `fresh` first departs from `committed`, as every gate reports
/// it: the 1-based line and that line in each, `None` when the two are
/// byte-identical.
fn departure(committed: &str, fresh: &str) -> Option<String> {
    let same = || committed.lines().zip(fresh.lines()).take_while(|(x, y)| x == y).count();
    let line = (committed != fresh).then(|| same() + 1)?;
    let [was, now] = [committed, fresh].map(|text| text.lines().nth(line - 1).unwrap_or("<end of file>"));
    Some(format!("from line {line} on\n  committed:   {was}\n  regenerated: {now}"))
}

fn main() {
    let args = parse_args(std::env::args().skip(1));
    let Some(command) = find(&args.cmd) else {
        fail(&format!("unknown command {:?}; try `repro help`", args.cmd));
    };
    match command.run {
        Run::Report(default, report) => {
            let path = args.out.clone().unwrap_or_else(|| PathBuf::from(default));
            let (json, passed) = report(&args);
            if let Err(e) = std::fs::write(&path, json) {
                fail(&format!("cannot write {}: {e}", path.display()));
            }
            println!("wrote {}", path.display());
            if !passed {
                eprintln!("{} FAILED: an invariant failed", command.name);
                std::process::exit(1);
            }
        }
        _ if args.out.is_some() => {
            fail(&format!("{} writes no report; --out does not apply", args.cmd))
        }
        Run::Table { make, .. } => show(command.name, &args, &make(command.name, &args)),
        Run::Diagram(kind) => print_diagram(command.name, kind),
        Run::Print(run) => run(command.name, &args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_names_are_unique() {
        for (i, c) in COMMANDS.iter().enumerate() {
            assert!(COMMANDS[..i].iter().all(|d| d.name != c.name), "duplicate {}", c.name);
        }
    }

    #[test]
    fn all_expands_only_to_printing_table_entries() {
        let in_all = |c: &Command| matches!(c.run, Run::Table { .. } | Run::Diagram(_));
        let first = COMMANDS.iter().position(in_all).expect("a figure command");
        let count = COMMANDS.iter().filter(|c| in_all(c)).count();
        let run: Vec<&str> = COMMANDS[first..first + count].iter().map(|c| c.name).collect();
        assert!(COMMANDS[first..first + count].iter().all(in_all), "one block: {run:?}");
        assert_eq!((run[0], run[count - 1]), ("table1", "ablation-topology"), "paper order");
        let unpinned: Vec<&str> = COMMANDS
            .iter()
            .filter(|c| matches!(c.run, Run::Table { pinned: false, .. }))
            .map(|c| c.name)
            .collect();
        assert_eq!(unpinned, ["fig13", "fig14"], "only the host wall-clock figures go unpinned");
        let pinned = COMMANDS.iter().filter(|c| matches!(c.run, Run::Table { pinned: true, .. }));
        let discovery: Vec<&str> = pinned.map(|c| c.name).filter(|&n| n != "table1").collect();
        let sweeps: Vec<&str> = nb_bench::sweep::sweeps().iter().map(|s| s.name).collect();
        assert_eq!(discovery, sweeps, "every discovery table is a sweep, in command order");
    }

    #[test]
    fn report_writing_commands_have_a_default_out() {
        let writers: Vec<&str> =
            COMMANDS.iter().filter(|c| matches!(c.run, Run::Report(..))).map(|c| c.name).collect();
        assert_eq!(writers, ["chaos", "scale", "census"]);
        let gated: Vec<&str> = GATES.iter().map(|g| g.0).collect();
        assert_eq!(
            gated,
            ["lint", "bench", "figs", "chaos", "scale", "census"],
            "clippy, the benchmark's build and tests, the figures, every report, then the census"
        );
    }

    #[test]
    fn flags_land_in_their_fields_and_the_last_command_wins() {
        let argv = "fig2 --runs 7 --seed 9 --out x.json --workers 3 chaos";
        let args = parse_args(argv.split(' ').map(String::from));
        assert_eq!((args.cmd.as_str(), args.runs, args.seed), ("chaos", 7, 9));
        assert_eq!(args.out, Some(PathBuf::from("x.json")));
        assert_eq!(args.workers, Some(3));
        let gate = parse_args("gate scale".split(' ').map(String::from));
        assert_eq!((gate.cmd.as_str(), gate.target.as_deref()), ("gate", Some("scale")));
    }

    #[test]
    fn the_figs_comparison_names_every_failing_file() {
        let pin = |file: &str, text: &str| (file.to_string(), text.to_string());
        let pins = [
            pin("a.csv", "h\n1\n"),
            pin("b.csv", "h\n2\n3\n"),
            pin("c.csv", "h\n"),
            pin("d.csv", "h\n"),
            pin("e.csv", "h\nx\n"),
        ];
        let committed: BTreeMap<String, Result<String, String>> = [
            ("a.csv", Ok("h\n1\n")),
            ("b.csv", Ok("h\n2\n4\n")),
            ("d.csv", Err("denied")),
            ("e.csv", Ok("h\n")),
            ("stray.csv", Ok("h\n")),
        ]
        .into_iter()
        .map(|(file, text)| (file.to_string(), text.map(String::from).map_err(String::from)))
        .collect();
        let failures = pin_failures(&pins, &committed);
        let expected = [
            ("b.csv", "the tree regenerates it differently from line 3 on\n  committed:   4\n  regenerated: 3"),
            ("c.csv", "there is no committed copy"),
            ("d.csv", "cannot read the committed copy: denied"),
            ("e.csv", "the tree regenerates it differently from line 2 on\n  committed:   <end of file>\n  regenerated: x"),
            ("stray.csv", "no pinned table writes it"),
        ]
        .map(|(file, why)| (file.to_string(), why.to_string()));
        assert_eq!(failures, expected);
        let clean: BTreeMap<String, Result<String, String>> =
            pins.iter().map(|(file, text)| (file.clone(), Ok(text.clone()))).collect();
        assert!(pin_failures(&pins, &clean).is_empty());
    }
}
