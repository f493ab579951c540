//! `repro` — regenerates every table and figure of the paper and runs
//! the seed-pure campaigns (`chaos`, `federation`, `scale`); `repro gate`
//! runs clippy over the workspace and checks that the tree still
//! regenerates every committed report. `repro help` prints the command
//! table ([`COMMANDS`]) and the flags.

use std::path::{Path, PathBuf};

use nb_bench::campaign::{fault_scenario, run_campaign, FaultCampaign, ScenarioResult};
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
}

const FLAGS: &str = "  --runs N         runs per experiment (default 120, the paper protocol)
  --seed N         root seed (default 2005)
  --csv DIR        also write machine-readable CSVs of the figures into DIR
  --out PATH       where a report-writing command puts its JSON
  --workers N      worker threads (chaos, federation, scale); never changes a report byte
  --scenarios N    campaign scenarios (chaos, federation; default 10)
  --tier T         scale: small|large|all (default all)
  --brokers N, --entities N, --topology star|linear|geo|isp
                   scale: one custom tier instead of --tier";

/// What a `repro` sub-command does.
enum Run {
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
    cmd("all", "every table, figure and ablation below, in paper order", run_all),
    cmd("table1", "machine inventory", run_table1),
    cmd("fig1", "unconnected topology diagram", run_topology_figure),
    cmd("fig2", "sub-activity breakdown, unconnected topology", run_breakdown),
    cmd("fig3", "discovery time, client at FSU", run_site_times),
    cmd("fig4", "discovery time, client at Cardiff", run_site_times),
    cmd("fig5", "discovery time, client at UMN", run_site_times),
    cmd("fig6", "discovery time, client at NCSA", run_site_times),
    cmd("fig7", "discovery time, client at Bloomington", run_site_times),
    cmd("fig8", "star topology diagram", run_topology_figure),
    cmd("fig9", "sub-activity breakdown, star topology", run_breakdown),
    cmd("fig10", "linear topology diagram", run_topology_figure),
    cmd("fig11", "sub-activity breakdown, linear topology", run_breakdown),
    cmd("fig12", "multicast-only discovery", run_multicast),
    cmd("fig13", "certificate validation cost (host wall clock)", run_security),
    cmd("fig14", "sign+encrypt+extract cost (host wall clock)", run_security),
    cmd("ablation-timeout", "collection-timeout sweep", run_ablation_timeout),
    cmd("ablation-maxresp", "max-responses cap sweep", run_ablation_maxresp),
    cmd("ablation-weights", "selection-weight presets", run_ablation_weights),
    cmd("ablation-scale", "broker-count scaling", run_ablation_scale),
    cmd("ablation-loss", "UDP loss sensitivity", run_ablation_loss),
    cmd("ablation-clock", "NTP residual sensitivity", run_ablation_clock),
    cmd("ablation-topology", "overlay shapes at 10 brokers", run_ablation_topology),
    cmd("ablation-bulk", "bulk transfer across the overlay", run_ablation_bulk),
    cmd("check", "self-verify every qualitative claim (exit 1 on failure)", run_check),
    cmd("trace", "message-flow trace of one discovery", run_trace),
    report(
        "chaos",
        "seeded fault-injection campaign (exit 1 if an invariant fails)",
        "CHAOS_campaign.json",
        chaos_report,
    ),
    report(
        "federation",
        "federated-BDN anti-entropy campaign (exit 1 if an invariant fails)",
        "BENCH_federation.json",
        federation_report,
    ),
    report(
        "scale",
        "WAN scale campaign on the sharded engine (exit 1 if an invariant fails)",
        "BENCH_scale.json",
        scale_report,
    ),
    cmd(
        "gate",
        "[lint|chaos|federation|scale] run clippy, then regenerate the committed reports at \
         1 and 4 workers; exit 1 on a clippy error or any byte of difference",
        run_gate,
    ),
];

/// What `repro all` expands to, paper order.
const ALL: [&str; 23] = [
    "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
    "fig11", "fig12", "fig13", "fig14", "ablation-timeout", "ablation-maxresp",
    "ablation-weights", "ablation-scale", "ablation-loss", "ablation-clock",
    "ablation-topology", "ablation-bulk",
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
            Run::Print(_) => println!("  {:<18} {}", c.name, c.help),
        }
    }
    println!("\nflags:\n{FLAGS}");
}

fn run_all(_: &str, args: &Args) {
    for name in ALL {
        let Some(Command { run: Run::Print(run), .. }) = find(name) else {
            unreachable!("ALL names a printing table entry");
        };
        run(name, args);
    }
}

/// Writes `rows` as `<dir>/<name>.csv` when CSV export is active.
fn write_csv(args: &Args, name: &str, header: &str, rows: impl Iterator<Item = String>) {
    let Some(dir) = &args.csv else { return };
    if let Err(e) = std::fs::create_dir_all(dir) {
        fail(&format!("cannot create {}: {e}", dir.display()));
    }
    let path = dir.join(format!("{name}.csv"));
    let body: String =
        std::iter::once(header.to_string()).chain(rows).map(|line| line + "\n").collect();
    if let Err(e) = std::fs::write(&path, body) {
        fail(&format!("cannot write {}: {e}", path.display()));
    }
    println!("wrote {}", path.display());
}

/// CSV + the paper's five-metric table for one summary figure.
fn print_summary(name: &str, args: &Args, title: &str, s: &nb_util::Summary) {
    write_csv(
        args,
        name,
        "n,mean_ms,std_dev,max,min,error",
        [format!("{},{},{},{},{},{}", s.n, s.mean, s.std_dev, s.max, s.min, s.error)].into_iter(),
    );
    println!("{}", format_summary(&format!("=== {title} ==="), s));
}

fn run_table1(_: &str, _: &Args) {
    println!("=== Table 1: machines used in the testing process ===");
    println!("{}", table1());
}

/// The paper topology behind a diagram (1/8/10) or breakdown (2/9/11)
/// figure, with the figure number.
fn figure_topology(name: &str) -> (TopologyKind, u32) {
    let figno: u32 = name[3..].parse().expect("figN");
    let kind = match figno {
        1 | 2 => TopologyKind::Unconnected,
        8 | 9 => TopologyKind::Star,
        _ => TopologyKind::Linear,
    };
    (kind, figno)
}

fn run_topology_figure(name: &str, _: &Args) {
    let (kind, figno) = figure_topology(name);
    println!("=== Figure {figno}: {} topology ===", kind.label());
    println!("{}", topology_figure(kind));
}

fn run_breakdown(name: &str, args: &Args) {
    let (kind, figno) = figure_topology(name);
    let rows = figure_breakdown(kind, args.seed, args.runs);
    write_csv(args, name, "phase,share", rows.iter().map(|(l, s)| format!("{l},{s}")));
    println!(
        "{}",
        format_breakdown(
            &format!(
                "=== Figure {figno}: % time per discovery sub-activity, {} topology \
                 (client in Bloomington, {} runs, seed {}) ===",
                kind.label(),
                args.runs,
                args.seed
            ),
            &rows
        )
    );
}

fn run_site_times(name: &str, args: &Args) {
    let figno: u32 = name[3..].parse().expect("figN");
    let (_, site, label) =
        site_figures().into_iter().find(|(f, _, _)| *f == figno).expect("figs 3-7");
    let s = figure_site_times(site, args.seed, args.runs);
    let title = format!(
        "Figure {figno}: discovery time, client in {label} \
         (unconnected topology, {} runs, seed {})",
        args.runs, args.seed
    );
    print_summary(name, args, &title, &s);
}

fn run_multicast(name: &str, args: &Args) {
    let s = figure_multicast(args.seed, args.runs, 2);
    let title = format!(
        "Figure 12: broker discovery using ONLY multicast \
         (2 lab brokers reachable, {} runs, seed {})",
        args.runs, args.seed
    );
    print_summary(name, args, &title, &s);
}

fn run_security(name: &str, args: &Args) {
    let iters = args.runs.max(PAPER_RUNS);
    let (s, title) = if name == "fig13" {
        (
            figure_cert_validation(args.seed, iters),
            format!("Figure 13: time to validate an X.509-style certificate ({iters} iterations)"),
        )
    } else {
        (
            figure_sign_encrypt(args.seed, iters),
            format!(
                "Figure 14: time to sign+encrypt and later extract the \
                 BrokerDiscoveryRequest ({iters} iterations)"
            ),
        )
    };
    print_summary(name, args, &title, &s);
}

fn run_ablation_timeout(name: &str, args: &Args) {
    println!("=== Ablation: collection-timeout sweep (star topology) ===");
    println!("{:>12} {:>14} {:>16}", "timeout (ms)", "total (ms)", "responses");
    let rows = ablation_timeout(args.seed, args.runs.min(30));
    write_csv(
        args,
        name,
        "timeout_ms,total_ms,responses",
        rows.iter().map(|(t, x, y)| format!("{t},{x},{y}")),
    );
    for (t, total, resp) in rows {
        println!("{t:>12} {total:>14.1} {resp:>16.2}");
    }
    println!();
}

fn run_ablation_maxresp(name: &str, args: &Args) {
    println!("=== Ablation: max-responses cap sweep (star topology) ===");
    println!("{:>12} {:>14} {:>16}", "cap", "total (ms)", "responses");
    let rows = ablation_max_responses(args.seed, args.runs.min(30));
    write_csv(
        args,
        name,
        "cap,total_ms,responses",
        rows.iter().map(|(c, x, y)| format!("{c},{x},{y}")),
    );
    for (cap, total, resp) in rows {
        println!("{cap:>12} {total:>14.1} {resp:>16.2}");
    }
    println!();
}

fn run_ablation_weights(_: &str, args: &Args) {
    println!("=== Ablation: selection-weight presets (winning site, star) ===");
    for (preset, wins) in ablation_weights(args.seed, args.runs.min(30)) {
        let row: Vec<String> = wins.iter().map(|(site, c)| format!("{site}:{c}")).collect();
        println!("  {preset:<16} {}", row.join("  "));
    }
    println!();
}

fn run_ablation_loss(name: &str, args: &Args) {
    println!("=== Ablation: UDP loss sensitivity (unconnected topology) ===");
    println!("{:>12} {:>10} {:>12} {:>12}", "loss factor", "success", "responses", "total (ms)");
    let rows = ablation_loss(args.seed, args.runs.min(30));
    write_csv(
        args,
        name,
        "loss_factor,success_rate,responses,total_ms",
        rows.iter().map(|(f, s, r, t)| format!("{f},{s},{r},{t}")),
    );
    for (f, succ, resp, total) in rows {
        println!("{f:>12.1} {:>9.0}% {resp:>12.2} {total:>12.1}", succ * 100.0);
    }
    println!();
}

fn run_ablation_clock(name: &str, args: &Args) {
    println!(
        "=== Ablation: NTP residual sensitivity (proximity-only selection, \
         target set of 1 — no ping disambiguation) ==="
    );
    println!("{:>16} {:>16} {:>20}", "residual", "nearest chosen", "extra distance (ms)");
    let rows = ablation_clock(args.seed, args.runs.min(40) as u64);
    write_csv(
        args,
        name,
        "residual,nearest_rate,extra_distance_ms",
        rows.iter().map(|(l, r, e)| format!("{l},{r},{e}")),
    );
    for (label, rate, err) in rows {
        println!("{label:>16} {:>15.0}% {err:>20.1}", rate * 100.0);
    }
    println!();
}

fn run_ablation_bulk(name: &str, args: &Args) {
    println!(
        "=== Ablation: bulk transfer across the overlay \
         (10 Mbit/s WAN, fragmentation + optional LZSS) ==="
    );
    println!(
        "{:>12} {:>12} {:>12} {:>14}",
        "size (KiB)", "compressed", "fragments", "virtual (ms)"
    );
    let rows = ablation_bulk(args.seed);
    write_csv(
        args,
        name,
        "size_bytes,compressed,fragments,virtual_ms",
        rows.iter().map(|(s, c, f, t)| format!("{s},{c},{f},{t}")),
    );
    for (size, compressed, frags, t) in rows {
        println!(
            "{:>12} {:>12} {frags:>12} {t:>14.1}",
            size / 1024,
            if compressed { "lzss" } else { "raw" }
        );
    }
    println!();
}

fn run_ablation_topology(name: &str, args: &Args) {
    println!("=== Ablation: overlay shapes at 10 brokers ===");
    println!("{:>14} {:>12} {:>12} {:>10}", "topology", "total (ms)", "wait share", "diameter");
    let rows = ablation_topology(args.seed, args.runs.min(20));
    write_csv(
        args,
        name,
        "topology,total_ms,wait_share,diameter",
        rows.iter().map(|(k, t, w, d)| {
            format!("{k},{t},{w},{}", d.map(|d| d.to_string()).unwrap_or_default())
        }),
    );
    for (kind, total, wait, diam) in rows {
        let d = diam.map(|d| d.to_string()).unwrap_or_else(|| "-".into());
        println!("{kind:>14} {total:>12.1} {:>11.0}% {d:>10}", wait * 100.0);
    }
    println!();
}

fn run_ablation_scale(name: &str, args: &Args) {
    println!("=== Ablation: broker-count scaling (mean total ms) ===");
    println!("{:>10} {:>14} {:>14}", "brokers", "topology", "total (ms)");
    let rows = ablation_scale(args.seed, args.runs.min(20));
    write_csv(
        args,
        name,
        "brokers,topology,total_ms",
        rows.iter().map(|(n, k, t)| format!("{n},{k},{t}")),
    );
    for (n, kind, total) in rows {
        println!("{n:>10} {kind:>14} {total:>14.1}");
    }
    println!();
}

fn run_trace(_: &str, args: &Args) {
    use nb_discovery::scenario::ScenarioBuilder;
    use nb_net::wan::BLOOMINGTON;
    let seed = args.seed;
    let mut scenario = ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, seed).build();
    scenario.sim.enable_trace();
    let outcome = scenario.run_discovery_once();
    let trace = scenario.sim.take_trace();
    println!(
        "=== Message flow of one discovery (star topology, seed {seed}) ===\n\
         {:<12} {:<22} {:<24} {:<8} {:>6}",
        "t (ms)", "from", "to", "via", "bytes"
    );
    let t0 = trace.first().map(|r| r.at).unwrap_or_default();
    let name = |n: nb_wire::NodeId| scenario.sim.node_name(n).to_string();
    for rec in &trace {
        println!(
            "{:<12.2} {:<22} {:<24} {:<8} {:>6}  {}",
            (rec.at - t0).as_secs_f64() * 1e3,
            name(rec.from.node),
            name(rec.to.node),
            if rec.stream { "stream" } else { "udp" },
            rec.bytes,
            rec.kind,
        );
    }
    println!(
        "\n{} messages; discovered {:?} in {:?}",
        trace.len(),
        outcome.chosen.map(name),
        outcome.phases.total()
    );
}

fn run_check(_: &str, args: &Args) {
    println!(
        "=== Self-verification: the paper's qualitative claims \
         ({} runs per experiment, seed {}) ===",
        args.runs, args.seed
    );
    let checks = shape_checks(args.seed, args.runs.clamp(10, 40));
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

/// Runs fault campaign `C` and prints its table: the columns every
/// fault campaign has, two of its own (`extra`: header and width;
/// `cells`: a scenario's values), and each failed invariant.
fn fault_report<C: FaultCampaign + Send>(
    args: &Args,
    name_width: usize,
    extra: [(&str, usize); 2],
    cells: impl Fn(&C) -> [String; 2],
) -> (String, bool) {
    // Scenarios are independent, so they shard across workers; the
    // report bytes are identical whatever count is used.
    let workers = args
        .workers
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get().min(16)));
    let report = run_campaign(args.seed, args.scenarios.max(1), workers, fault_scenario::<C>);
    let campaign = C::CAMPAIGN;
    println!(
        "=== {}{} campaign: {} scenarios from base seed {}, {} workers ===",
        campaign[..1].to_uppercase(),
        &campaign[1..],
        report.scenarios.len(),
        report.base_seed,
        workers
    );
    let [(h0, w0), (h1, w1)] = extra;
    println!(
        "{:<name_width$} {:>6} {:>8} {:>18} {h0:>w0$} {h1:>w1$} {:>7}",
        "scenario", "seed", "faults", "plan digest", "verdict"
    );
    for s in &report.scenarios {
        let [c0, c1] = cells(&s.stats);
        println!(
            "{:<name_width$} {:>6} {:>8} {:>18} {c0:>w0$} {c1:>w1$} {:>7}",
            s.name,
            s.seed,
            s.faults,
            format!("{:016x}", s.plan_digest),
            if s.passed() { "PASS" } else { "FAIL" }
        );
        print_failures(s);
    }
    (report.to_json(), report.passed())
}

fn chaos_report(args: &Args) -> (String, bool) {
    fault_report::<nb_bench::chaos::ScenarioStats>(
        args,
        20,
        [("failovers", 10), ("stale", 8)],
        |s| [s.failovers.to_string(), s.stale_targets_skipped.to_string()],
    )
}

fn federation_report(args: &Args) -> (String, bool) {
    fault_report::<nb_bench::federation::ScenarioStats>(
        args,
        26,
        [("attached", 9), ("conv.rds", 9)],
        |s| [format!("{}/{}", s.attached, s.total_entities), s.convergence_rounds.to_string()],
    )
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
        "=== Scale campaign: {} tier(s), seed {}, {} worker(s), {} shards ===",
        tiers.len(),
        args.seed,
        workers,
        scale::SCALE_SHARDS
    );
    let report = scale::run_campaign(&tiers, args.seed, workers);
    println!(
        "{:<14} {:>7} {:>8} {:>4} {:>12} {:>9} {:>11} {:>9} {:>9} {:>9} {:>7} {:>7}",
        "tier", "brokers", "entities", "rgns", "events", "evts/sec", "attach_ms",
        "p50_us", "p99_us", "p999_us", "wire/e", "mem/e"
    );
    for row in &report.scenarios {
        let t = &row.stats;
        println!(
            "{:<14} {:>7} {:>8} {:>4} {:>12} {:>9.0} {:>11} {:>9} {:>9} {:>9} {:>7} {:>7}",
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

/// What `repro gate` checks, in order: `lint` runs clippy, every other
/// entry is a committed report and the flags it is regenerated with.
const GATES: [(&str, &str); 4] = [
    ("lint", ""),
    ("chaos", "--scenarios 3 --seed 11"),
    ("federation", "--scenarios 10 --seed 2005"),
    ("scale", "--tier small --seed 2005"),
];

/// `repro gate [NAME]`: runs [`lint_gate`], then regenerates each
/// committed report (all of [`GATES`] without a name) in memory at 1 and
/// 4 workers, writing nothing, and exits 1 naming the file on a failed
/// invariant, a 1-vs-4 difference or any byte that differs from the
/// committed copy.
fn run_gate(_: &str, args: &Args) {
    let target = args.target.as_deref();
    let gates: Vec<(&str, &str)> =
        GATES.into_iter().filter(|&(name, _)| target.is_none_or(|t| t == name)).collect();
    if gates.is_empty() {
        fail(&format!("gate {:?}: expected lint|chaos|federation|scale", target.unwrap_or("")));
    }
    let root = workspace_root();
    for (name, flags) in gates {
        if name == "lint" {
            lint_gate(&root);
            continue;
        }
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
            if let Some(line) = first_difference(&committed, &json) {
                gate_failed(
                    file,
                    &if workers == 1 {
                        format!("the tree regenerates it differently from line {line} on")
                    } else {
                        format!("it differs between 1 and 4 workers from line {line} on")
                    },
                );
            }
        }
        println!("{file}: byte-identical to the committed copy at 1 and 4 workers");
    }
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

fn gate_failed(file: &str, why: &str) -> ! {
    eprintln!("FAIL: {file}: {why}");
    std::process::exit(1);
}

/// The 1-based line of `b` that first differs from `a`, `None` when the
/// two are byte-identical.
fn first_difference(a: &str, b: &str) -> Option<usize> {
    (a != b).then(|| a.lines().zip(b.lines()).take_while(|(x, y)| x == y).count() + 1)
}

fn main() {
    let args = parse_args(std::env::args().skip(1));
    let Some(command) = find(&args.cmd) else {
        fail(&format!("unknown command {:?}; try `repro help`", args.cmd));
    };
    match command.run {
        Run::Print(run) => {
            if args.out.is_some() {
                fail(&format!("{} writes no report; --out does not apply", args.cmd));
            }
            run(command.name, &args);
        }
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
        for name in ALL {
            let c = find(name).unwrap_or_else(|| panic!("`all` names {name}, not in the table"));
            assert!(
                matches!(c.run, Run::Print(_)),
                "`all` must not rewrite the committed {name} report"
            );
        }
    }

    #[test]
    fn report_writing_commands_have_a_default_out() {
        let writers: Vec<&str> =
            COMMANDS.iter().filter(|c| matches!(c.run, Run::Report(..))).map(|c| c.name).collect();
        assert_eq!(writers, ["chaos", "federation", "scale"]);
        let gated: Vec<&str> = GATES.iter().map(|g| g.0).collect();
        assert_eq!(gated, ["lint", "chaos", "federation", "scale"], "clippy, then every report");
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
}
