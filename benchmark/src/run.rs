//! One invocation: repeat a workload, gate it, reduce it to metrics.

use std::fmt::Write as _;

use crate::alloc;
use crate::clock::{CpuClock, HostClock};
use crate::json::quote;
use crate::layers;
use crate::metrics::{self, Metric, TracedRun};
use crate::reference;
use crate::trace::{self, Collected, Ledger, CALLS};
use crate::workload::{HostSample, Outcome, Rep, Workload};

/// Largest `trace.unattributed_share` a traced run may report. The
/// share compares two host times, each a fastest-of-a-few, so it
/// carries their noise: on the machine this was written on it read
/// 0.01–0.23 over two dozen runs of unchanged code (README, "Per-layer
/// metrics"). The gate sits at twice that, to catch a ledger that has
/// come apart rather than to certify one to the percent.
pub const MAX_UNATTRIBUTED: f64 = 0.5;
/// Where trace files go, relative to the checkout root.
pub const OUT_DIR: &str = "benchmark/out";

/// What an invocation reports.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Validity-gate failures (empty when the run is correct).
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Lines for the human reader (rep counts, digests).
    pub notes: Vec<String>,
}

/// JSON has no NaN or infinity. A run that computed one has already
/// failed ([`reject_undefined`]); this only keeps its output parseable.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The driver's result line.
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = finite(m.value);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
                quote(m.name),
                quote(m.unit)
            );
        }
        s.push_str("}}");
        s
    }
}

/// Keeps a rep's host sample and fails the run unless the rep did
/// exactly the same work as the run's first: same ops, events, traffic,
/// latencies and both digests. The outcome itself is dropped — holding
/// N latency vectors would make `heap_peak_mib` depend on N.
fn admit(what: &str, first: &Outcome, rep: Rep, problems: &mut Vec<String>) -> HostSample {
    if rep.outcome != *first {
        problems.push(format!(
            "a {what} rep disagrees with the first rep: events {} vs {}, engine digest \
             {:016x} vs {:016x}, delivery digest {:016x} vs {:016x}",
            rep.outcome.events,
            first.events,
            rep.outcome.engine_digest,
            first.engine_digest,
            rep.outcome.delivery_digest,
            first.delivery_digest
        ));
    }
    rep.host
}

fn outcome_notes(w: Workload, o: &Outcome) -> Vec<String> {
    let mut notes = vec![format!(
        "{}: {} ops, {} failed, {} events, engine digest {:016x}, delivery digest {:016x}",
        w.name(),
        o.ops,
        o.failed,
        o.events,
        o.engine_digest,
        o.delivery_digest
    )];
    notes.extend(o.failures.iter().map(|f| format!("failed op: {f}")));
    notes
}

/// A metric that is not a number is a failed run, not a zero: JSON has
/// no NaN, so it prints as 0, but `correct` goes false with it.
fn reject_undefined(metrics: &[Metric], problems: &mut Vec<String>) {
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        problems.push(format!("metric {} is undefined ({})", m.name, m.value));
    }
}

/// Wall and CPU time since a run began: how much of the one was the
/// other says how much of the host the run had.
struct RunClock {
    wall: HostClock,
    cpu: CpuClock,
}

impl RunClock {
    fn start() -> RunClock {
        RunClock {
            wall: HostClock::now(),
            cpu: CpuClock::now(),
        }
    }

    fn on_cpu_ratio(&self) -> f64 {
        self.cpu.elapsed().as_secs_f64() / self.wall.elapsed().as_secs_f64()
    }
}

/// `--trace 0`: [`Workload::reps`] identical untraced reps with a sample
/// of the reference kernel either side of each, reduced to the
/// end-to-end metrics. `seconds` fixes the rep count and is the time the
/// reps are sized to fit: a run whose reps need four times that in CPU
/// time is not the run `BENCHMARK.json` describes, and fails. (Twice is
/// within what the host does on its own — README, "Noise" — and wall
/// time is no test at all: with the hypervisor running someone else
/// half the time, a 15 s run takes 50 s.)
pub fn end_to_end(w: Workload, seed: u64, seconds: f64) -> Report {
    let clock = RunClock::start();
    let mut problems = Vec::new();
    let mut reference = vec![reference::sample()];
    let mut reps: Vec<HostSample> = Vec::new();
    let mut outcome: Option<Outcome> = None;
    let mut heap_peak = 0;
    for _ in 0..w.reps(seconds) {
        // The yardstick's heap is gone before the rep's peak is taken.
        alloc::reset_peak();
        let rep = w.rep(seed, false);
        heap_peak = heap_peak.max(alloc::snapshot().peak);
        reference.push(reference::sample());
        match &outcome {
            None => {
                reps.push(rep.host);
                outcome = Some(rep.outcome);
            }
            Some(o) => reps.push(admit("later", o, rep, &mut problems)),
        }
    }
    let o = outcome.expect("at least MIN_REPS reps");
    let took = clock.cpu.elapsed().as_secs_f64();
    if took > 4.0 * seconds {
        problems.push(format!(
            "{} reps took {took:.1} s of CPU time, over four times the {seconds} s they are sized \
             for",
            reps.len()
        ));
    }
    let mut notes = outcome_notes(w, &o);
    notes.push(format!(
        "{} identical reps in {took:.1} s of CPU time, {:.2} of the wall time",
        reps.len(),
        clock.on_cpu_ratio()
    ));
    let describe = |what: &str, mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        format!(
            "{what}, CPU s: fastest {:.4}, median {:.4}, slowest {:.4}, IQR/median {:.4}",
            v[0],
            crate::stats::median(&v),
            v[v.len() - 1],
            crate::stats::spread(&v)
        )
    };
    notes.push(describe("one set-up", metrics::setup_seconds(&reps)));
    notes.push(describe("measure phase", metrics::measure_seconds(&reps)));
    notes.push(describe(
        "reference kernel",
        reference.iter().map(|d| d.as_secs_f64()).collect(),
    ));
    let host = metrics::HostTimes::of(&reps, &reference);
    let metrics = metrics::end_to_end(&o, &host, &reps, heap_peak);
    reject_undefined(&metrics, &mut problems);
    Report {
        attempted: o.ops,
        failed: o.failed,
        problems,
        metrics,
        notes,
    }
}

/// `--trace 1`: untraced reps (the overhead baseline) alternating with
/// as many traced ones, the tracer's own cost calibrated on no-op work,
/// then the ex-situ probes; reduced to the per-layer metrics and written
/// out as `trace_<workload>.json`.
pub fn traced(w: Workload, seed: u64, seconds: f64) -> Report {
    let clock = RunClock::start();
    // Half as many reps of each kind as a `--trace 0` run does in all.
    let pairs = w.reps(seconds) / 2;
    let mut problems = Vec::new();
    let first = w.rep(seed, false);
    let o = first.outcome;
    let mut untraced = vec![first.host];
    let mut traced = Vec::with_capacity(pairs);
    let mut reference = vec![reference::sample()];
    trace::install(0);
    // Alternating keeps a slow spell of the host from landing on one
    // kind only. Transparency: the wrappers must not change what the
    // system does, so traced reps are held to the untraced first rep.
    trace::span(trace::RUN, || {
        for i in 0..pairs {
            if i > 0 {
                reference.push(trace::paused(reference::sample));
                let plain = trace::paused(|| w.rep(seed, false));
                untraced.push(admit("untraced", &o, plain, &mut problems));
            }
            trace::set_rep(i as u32);
            traced.push(admit("traced", &o, w.rep(seed, true), &mut problems));
        }
    });
    let collected = trace::uninstall();
    let on_cpu_ratio = clock.on_cpu_ratio();
    let calibration = trace::calibrate();
    let probes = layers::run(seed);
    let run = TracedRun {
        workload: w,
        outcome: &o,
        untraced: &untraced,
        traced: &traced,
        collected: &collected,
        calibration: &calibration,
        on_cpu_ratio,
        reference: &reference,
    };
    let mut metrics = metrics::in_situ(&run);
    match metrics::ex_situ(&probes) {
        Ok(m) => metrics.extend(m),
        Err(e) => problems.push(e),
    }
    reject_undefined(&metrics, &mut problems);
    let unattributed = metrics
        .iter()
        .find(|m| m.name == "trace.unattributed_share")
        .map_or(f64::NAN, |m| m.value);
    // An undefined share is no pass either.
    if unattributed.is_nan() || unattributed > MAX_UNATTRIBUTED {
        problems.push(format!(
            "trace.unattributed_share {unattributed:.4} > {MAX_UNATTRIBUTED}: the ledger, net of \
             the calibrated tracer cost, does not add up to the untraced measure phase"
        ));
    }
    let mut notes = outcome_notes(w, &o);
    match write_trace_file(w, seed, pairs, &collected, &metrics) {
        Ok(path) => notes.push(format!("trace written to {path}")),
        Err(e) => problems.push(format!("writing the trace file: {e}")),
    }
    Report {
        attempted: o.ops,
        failed: o.failed,
        problems,
        metrics,
        notes,
    }
}

fn ledger_json(l: &Ledger) -> String {
    let mut s = String::from("{\"handlers\": [");
    for (i, (layer, kind, st)) in l.handlers().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}{{\"layer\": {}, \"kind\": {}, \"count\": {}, \"total_ns\": {}, \"self_ns\": {}, \"log2_hist\": {:?}}}",
            quote(layer.name()),
            quote(kind),
            st.count,
            st.total_ns,
            st.self_ns(),
            st.hist
        );
    }
    s.push_str("], \"calls\": [");
    for (i, call) in CALLS.iter().enumerate() {
        let st = l.call(*call);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}{{\"call\": {}, \"count\": {}, \"total_ns\": {}, \"log2_hist\": {:?}}}",
            quote(call.name()),
            st.count,
            st.total_ns,
            st.hist
        );
    }
    s.push_str("]}");
    s
}

fn write_trace_file(
    w: Workload,
    seed: u64,
    traced_reps: usize,
    c: &Collected,
    metrics: &[Metric],
) -> std::io::Result<String> {
    let mut s = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"traced_reps\": {traced_reps},\n",
        quote(w.name())
    );
    s.push_str("\"span_totals\": [");
    for (i, (name, in_measure, t)) in c.totals.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}{{\"name\": {}, \"in_measure\": {in_measure}, \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            quote(name),
            t.count,
            t.total_ns,
            t.self_ns
        );
    }
    let _ = write!(
        s,
        "],\n\"setup\": {},\n\"measure\": {},\n",
        ledger_json(&c.setup),
        ledger_json(&c.measure)
    );
    s.push_str("\"metrics\": {");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = finite(m.value);
        let _ = write!(s, "{sep}{}: {value}", quote(m.name));
    }
    let _ = write!(
        s,
        "}},\n\"spans_dropped\": {},\n\"spans\": [",
        c.spans_dropped
    );
    for (i, sp) in c.spans.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "{sep}{{\"id\": {}, \"parent\": {parent}, \"name\": {}, \"rep\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            sp.id,
            quote(sp.name),
            sp.rep,
            sp.start_ns,
            sp.end_ns
        );
    }
    s.push_str("\n]}\n");
    std::fs::create_dir_all(OUT_DIR)?;
    let path = format!("{OUT_DIR}/trace_{}.json", w.name());
    std::fs::write(&path, s)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn result_line_is_the_contract_shape() {
        let r = Report {
            attempted: 10,
            failed: 0,
            problems: Vec::new(),
            metrics: vec![
                Metric {
                    name: "setup_s",
                    unit: "s",
                    value: 0.8127,
                },
                Metric {
                    name: "broken",
                    unit: "ns",
                    value: f64::NAN,
                },
            ],
            notes: Vec::new(),
        };
        let v = json::parse(&r.json_line()).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&json::Value::Bool(true)));
        assert_eq!(v.get("attempted"), Some(&json::Value::Number(10.0)));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s").unwrap().get("value"),
            Some(&json::Value::Number(0.8127))
        );
        assert_eq!(
            m.get("setup_s")
                .unwrap()
                .get("unit")
                .and_then(json::Value::as_str),
            Some("s")
        );
        assert_eq!(
            m.get("broken").unwrap().get("value"),
            Some(&json::Value::Number(0.0))
        );
        let bad = Report { failed: 1, ..r };
        assert!(!bad.correct());
    }
}
