//! The repo benchmark. See `README.md` beside this crate for the
//! workloads, the metric map and how to read the output; the contract
//! with the driver is `BENCHMARK.json` at the repo root.
//!
//! ```text
//! nb-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! nb-benchmark layers [--seed N]
//! ```
//!
//! Run from the repo root. Prints every metric by name with its unit,
//! then one JSON result line. Exits 1 if a validity gate fails or the
//! metric names differ from those `BENCHMARK.json` declares, 2 on a
//! usage error.

mod alloc;
mod clock;
mod deploy;
mod json;
mod layers;
mod metrics;
mod reference;
mod run;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use workload::Workload;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const MANIFEST: &str = "BENCHMARK.json";
const DEFAULT_SEED: u64 = 2005;

struct Args {
    layers_only: bool,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: nb-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       nb-benchmark layers [--seed N]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        layers_only: false,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "layers" => args.layers_only = true,
            "--workload" => {
                let name = value("--workload")?;
                args.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !args.layers_only && args.workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn print_metrics(scope: &str, metrics: &[metrics::Metric]) {
    for m in metrics {
        println!("{scope:<11} {:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.layers_only {
        return match metrics::ex_situ(&layers::run(args.seed)) {
            Ok(m) => {
                print_metrics("layers", &m);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let manifest = match std::fs::read_to_string(MANIFEST)
        .map_err(|e| e.to_string())
        .and_then(|t| json::parse(&t))
    {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{MANIFEST} (run from the repo root): {e}");
            return ExitCode::FAILURE;
        }
    };
    let w = args.workload.expect("checked by parse_args");
    let (section, mut report) = if args.trace {
        ("per_layer", run::traced(w, args.seed, args.seconds))
    } else {
        ("end_to_end", run::end_to_end(w, args.seed, args.seconds))
    };
    if let Err(e) = metrics::check_declared(&manifest, section, &report.metrics) {
        report.problems.push(e);
    }
    for n in &report.notes {
        println!("# {n}");
    }
    print_metrics(w.name(), &report.metrics);
    for p in &report.problems {
        eprintln!("INVALID: {p}");
    }
    println!("{}", report.json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
