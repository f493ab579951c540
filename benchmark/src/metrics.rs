//! The metric tables (name, unit) and how each value is computed from
//! a run's repetitions. `BENCHMARK.json` declares the same names with
//! their direction and bound; [`check_declared`] fails a run whose
//! names differ from it in either direction.

use crate::alloc::mib;
use crate::json::Value;
use crate::stats::{fastest, median, percentile};
use crate::trace::{Calibration, Call, Collected, Layer, Stat, CALLS, ENGINE, HARNESS, MEASURE};
use crate::workload::{HostSample, Outcome, Workload};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// End-to-end metrics, printed with `--trace 0`. "sim" quantities are
/// virtual time or counts of the modelled network and repeat exactly
/// for a seed; "host" quantities are this machine's.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("sim_latency_p50_ms", "ms"),
    ("sim_latency_p99_ms", "ms"),
    ("wire_bytes_per_op", "B"),
    ("events_per_op", "count"),
    ("allocs_per_op", "count"),
    ("heap_peak_mib", "MiB"),
];

/// Per-layer metrics computed in situ from a traced run.
pub const IN_SITU: [(&str, &str); 36] = [
    ("net.engine_self_share", "ratio"),
    ("net.engine_self_ns_per_event", "ns"),
    ("net.send_share", "ratio"),
    ("net.send_ns_per_call", "ns"),
    ("net.sends_per_op", "count"),
    ("net.timers_per_op", "count"),
    ("net.stream_msgs_per_op", "count"),
    ("net.datagrams_per_op", "count"),
    ("net.segments_per_op", "count"),
    ("net.frames_per_segment", "count"),
    ("net.lost_ratio", "ratio"),
    ("broker.handler_share", "ratio"),
    ("broker.publish_ns_per_msg", "ns"),
    ("broker.discovery_ns_per_msg", "ns"),
    ("broker.subscribe_ns_per_msg", "ns"),
    ("broker.link_ns_per_msg", "ns"),
    ("broker.msgs_per_op", "count"),
    ("core.bdn_share", "ratio"),
    ("core.bdn_ns_per_msg", "ns"),
    ("core.entity_share", "ratio"),
    ("core.entity_ns_per_msg", "ns"),
    ("core.client_share", "ratio"),
    ("core.client_ns_per_msg", "ns"),
    ("core.retransmits_per_op", "count"),
    ("core.duplicates_dropped_ratio", "ratio"),
    ("alloc.bytes_per_op", "B"),
    ("alloc.setup_mib", "MiB"),
    ("bench.harness_share", "ratio"),
    ("bench.latency_samples", "count"),
    ("bench.on_cpu_ratio", "ratio"),
    ("bench.reference_ms", "ms"),
    ("trace.handler_cost_ns", "ns"),
    ("trace.call_cost_ns", "ns"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// Per-layer metrics from the ex-situ probes ([`crate::layers`]).
pub const EX_SITU: [(&str, &str); 20] = [
    ("wire.encode_v1_ns", "ns"),
    ("wire.decode_v1_ns", "ns"),
    ("wire.peek_ns", "ns"),
    ("wire.forward_hop_ns", "ns"),
    ("wire.encode_v2_ns_per_frame", "ns"),
    ("wire.decode_v2_ns_per_frame", "ns"),
    ("wire.v2_bytes_ratio", "ratio"),
    ("wire.topic_parse_ns", "ns"),
    ("broker.match_memo_ns", "ns"),
    ("broker.match_cold_ns", "ns"),
    ("broker.subscribe_ns", "ns"),
    ("broker.unsubscribe_ns", "ns"),
    ("util.dedup_insert_ns", "ns"),
    ("util.uuid_ns", "ns"),
    ("net.sim_null_event_ns", "ns"),
    ("net.shard_null_event_ns", "ns"),
    ("net.fate_roll_ns", "ns"),
    ("net.topogen_ms", "ms"),
    ("core.bdn_discovery_ns", "ns"),
    ("core.shortlist_ns", "ns"),
];

/// Attaches `table`'s units to `values`, which must name exactly the
/// table's metrics (any order): a value can then never land under
/// another metric's name.
fn label(
    table: &[(&'static str, &'static str)],
    values: &[(&str, f64)],
) -> Result<Vec<Metric>, String> {
    if let Some((stray, _)) = values
        .iter()
        .find(|(n, _)| !table.iter().any(|(t, _)| t == n))
    {
        return Err(format!(
            "computed metric {stray} is not in the metric table"
        ));
    }
    table
        .iter()
        .map(|&(name, unit)| {
            values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, value)| Metric { name, unit, value })
                .ok_or_else(|| format!("metric {name} was not computed"))
        })
        .collect()
}

/// `num / den`, NaN when there is nothing to divide by: a metric that
/// is undefined must not pass for one that is zero.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        f64::NAN
    } else {
        num / den
    }
}

/// Each rep's measure phase, CPU seconds.
pub fn measure_seconds(reps: &[HostSample]) -> Vec<f64> {
    reps.iter().map(|r| r.measure.as_secs_f64()).collect()
}

/// Each rep's set-up (one of its batch), CPU seconds.
pub fn setup_seconds(reps: &[HostSample]) -> Vec<f64> {
    reps.iter()
        .map(|r| r.setup.as_secs_f64() / f64::from(r.setups))
        .collect()
}

/// A run's host times in *reference seconds* ([`crate::reference`]).
///
/// Rep `i` ran between yardstick samples `i` and `i + 1`; the mean of
/// the two is what the host was worth while it ran, and the rep's CPU
/// time is scaled by it. A phase's time is then the **median** over the
/// reps: a host that changes speed mid-run moves a rep and its own
/// yardstick together, where the run's fastest rep and the run's
/// fastest yardstick sample would come from different moments (README,
/// "Noise", has the measurements that chose this over fastest-of-N).
pub struct HostTimes {
    /// One set-up, reference seconds.
    pub setup_s: f64,
    /// One rep's measure phase, reference seconds.
    pub measure_s: f64,
}

impl HostTimes {
    /// `reference` holds one sample more than there are `reps`.
    pub fn of(reps: &[HostSample], reference: &[std::time::Duration]) -> HostTimes {
        assert_eq!(
            reference.len(),
            reps.len() + 1,
            "a yardstick sample either side of each rep"
        );
        let nominal = crate::reference::NOMINAL.as_secs_f64();
        let scaled = |cpu_s: Vec<f64>| {
            let per_rep: Vec<f64> = cpu_s
                .iter()
                .zip(reference.windows(2))
                .map(|(s, y)| s * nominal / ((y[0] + y[1]).as_secs_f64() / 2.0))
                .collect();
            median(&per_rep)
        };
        HostTimes {
            setup_s: scaled(setup_seconds(reps)),
            measure_s: scaled(measure_seconds(reps)),
        }
    }
}

/// The end-to-end metrics of a run of identical untraced reps: `o` is
/// the outcome they all produced, `reps` each one's host measurements.
pub fn end_to_end(
    o: &Outcome,
    host: &HostTimes,
    reps: &[HostSample],
    heap_peak_bytes: u64,
) -> Vec<Metric> {
    let ops = o.ops as f64;
    // The first rep also pays one-off lazy initialisation (the topic
    // interner, thread-locals); the minimum is the steady count.
    let allocs = reps
        .iter()
        .map(|r| r.allocs)
        .min()
        .expect("at least one rep");
    label(
        &END_TO_END,
        &[
            ("setup_s", host.setup_s),
            ("ops_per_s", ops / host.measure_s),
            (
                "sim_latency_p50_ms",
                percentile(&o.latencies_us, 50, 100) as f64 / 1e3,
            ),
            (
                "sim_latency_p99_ms",
                percentile(&o.latencies_us, 99, 100) as f64 / 1e3,
            ),
            ("wire_bytes_per_op", o.net.bytes as f64 / ops),
            ("events_per_op", o.events as f64 / ops),
            ("allocs_per_op", allocs as f64 / ops),
            ("heap_peak_mib", mib(heap_peak_bytes)),
        ],
    )
    .expect("the end-to-end table and its computation agree")
}

/// Which of the broker layer's four cost classes a message kind is.
fn broker_class(kind: &str) -> &'static str {
    match kind {
        "publish" => "publish",
        "publish-system" | "discovery-request" | "ping" | "advertisement" | "bdn-advertisement" => {
            "discovery"
        }
        "client-subscribe" | "client-unsubscribe" | "subscribe" | "unsubscribe"
        | "client-connect" | "client-disconnect" => "subscribe",
        _ => "link",
    }
}

/// What a traced run feeds the in-situ metrics.
pub struct TracedRun<'a> {
    pub workload: Workload,
    /// The outcome every rep, traced or not, produced.
    pub outcome: &'a Outcome,
    /// Untraced reps of the same seed (the overhead baseline).
    pub untraced: &'a [HostSample],
    /// The traced reps `collected` covers.
    pub traced: &'a [HostSample],
    pub collected: &'a Collected,
    /// What the wrappers themselves cost on this host, now.
    pub calibration: &'a Calibration,
    /// The reps' CPU time ÷ their wall time: the share of the host the
    /// run had.
    pub on_cpu_ratio: f64,
    /// Samples of the reference kernel taken between the reps: the
    /// in-situ ns below are as measured, not scaled by it.
    pub reference: &'a [std::time::Duration],
}

/// Whether per-layer metric `name` has nothing to measure on `w`: the
/// layer is not deployed there, or gets no such message in the measure
/// phase. Such a metric prints 0 (the driver wants every name from every
/// workload). Any *other* metric that comes out undefined fails the run.
fn idle_on(w: Workload, name: &str) -> bool {
    use Workload::{PaperFigs, PubsubV1, PubsubV2};
    let pubsub = matches!(w, PubsubV1 | PubsubV2);
    match name {
        // No data publishes outside pubsub; no discovery, attach or
        // datagram traffic inside its measure phase.
        "broker.publish_ns_per_msg" => !pubsub,
        "broker.discovery_ns_per_msg"
        | "broker.subscribe_ns_per_msg"
        | "core.bdn_ns_per_msg"
        | "net.lost_ratio" => pubsub,
        "core.entity_ns_per_msg" => w == PaperFigs,
        "core.client_ns_per_msg" => w != PaperFigs,
        "net.frames_per_segment" => w != PubsubV2,
        _ => false,
    }
}

/// The in-situ per-layer metrics.
///
/// The wrappers cost time themselves — four clock reads and two ledger
/// updates per event, as much as a cheap handler — and that time lands
/// in the ledger: inside the intervals the wrappers time, in the
/// handler around a timed call, in the engine around a timed handler.
/// `run.calibration` says how much per handler and per call, and every
/// time below is net of it. Shares are of the measure phase net of all
/// of it (`trace.self_share` says how much that was), so they describe
/// the phase as it runs untraced, and sum to 1. What holds them honest
/// is `trace.unattributed_share`: the net phase against the measure
/// phase of the untraced reps, which the tracer never touched.
pub fn in_situ(run: &TracedRun<'_>) -> Vec<Metric> {
    let c = run.collected;
    let o = run.outcome;
    let cal = run.calibration;
    let reps = run.traced.len() as f64;
    let ops = o.ops as f64;
    let (ops_all, events_all) = (ops * reps, o.events as f64 * reps);

    let measure = c.total(MEASURE, true);
    let engine = c.total(ENGINE, true).total_ns as f64;
    let harness_spans = c.total(HARNESS, true).total_ns as f64;
    let ledger = &c.measure;
    let handlers = ledger.all_handlers();
    let calls = ledger.all_calls();
    let sends = CALLS
        .iter()
        .filter(|c| **c != Call::SetTimer)
        .map(|c| ledger.call(*c))
        .fold(Stat::default(), |mut acc, s| {
            acc.count += s.count;
            acc.total_ns += s.total_ns;
            acc
        });

    // Tracer time by where it lands, then each bucket net of it.
    let call_outside_ns = cal.call_ns - cal.call_inside_ns;
    let handler_outside_ns = cal.handler_ns - cal.handler_inside_ns;
    let tracer = handlers.count as f64 * cal.handler_ns + calls.count as f64 * cal.call_ns;
    let call_time = |s: &Stat| s.total_ns as f64 - s.count as f64 * cal.call_inside_ns;
    let self_time = |s: &Stat| {
        s.self_ns() as f64
            - s.count as f64 * cal.handler_inside_ns
            - s.child_calls as f64 * call_outside_ns
    };
    let engine_self =
        engine - handlers.total_ns as f64 - handlers.count as f64 * handler_outside_ns;
    let net_measure = measure.total_ns as f64 - tracer;

    let per = |s: &Stat| ratio(self_time(s), s.count as f64);
    let layer = |layer: Layer| ledger.sum(|l, _| l == layer);
    let broker = layer(Layer::Broker);
    let broker_of =
        |class: &str| per(&ledger.sum(|l, k| l == Layer::Broker && broker_class(k) == class));
    let (bdn, entity, client) = (
        layer(Layer::Bdn),
        layer(Layer::Entity),
        layer(Layer::Client),
    );
    let bdn_requests = ledger
        .sum(|l, k| l == Layer::Bdn && k == "discovery-request")
        .count as f64;
    // The harness's own: its actors, its spans, and the measure span's
    // self time (the loop around the engine calls).
    let harness = self_time(&layer(Layer::Harness)) + harness_spans + measure.self_ns as f64;

    let share = |ns: f64| ratio(ns, net_measure);
    let alloc_bytes = run
        .untraced
        .iter()
        .map(|r| r.alloc_bytes)
        .min()
        .expect("untraced reps");
    // Per rep, each kind's fastest: the traced phase, the part of it
    // the calibration says was the tracer, and the untraced phase.
    let (traced_s, untraced_s) = (
        fastest(&measure_seconds(run.traced)),
        fastest(&measure_seconds(run.untraced)),
    );
    let tracer_s = tracer / reps / 1e9;
    let mut metrics = label(
        &IN_SITU,
        &[
            ("net.engine_self_share", share(engine_self)),
            (
                "net.engine_self_ns_per_event",
                ratio(engine_self, events_all),
            ),
            ("net.send_share", share(call_time(&calls))),
            (
                "net.send_ns_per_call",
                ratio(call_time(&sends), sends.count as f64),
            ),
            ("net.sends_per_op", ratio(sends.count as f64, ops_all)),
            (
                "net.timers_per_op",
                ratio(ledger.call(Call::SetTimer).count as f64, ops_all),
            ),
            ("net.stream_msgs_per_op", o.net.stream_msgs as f64 / ops),
            (
                "net.datagrams_per_op",
                o.net.datagrams_delivered as f64 / ops,
            ),
            ("net.segments_per_op", o.net.segments as f64 / ops),
            (
                "net.frames_per_segment",
                ratio(o.net.frames_coalesced as f64, o.net.segments as f64),
            ),
            (
                "net.lost_ratio",
                ratio(o.net.datagrams_lost as f64, o.net.datagrams_sent as f64),
            ),
            ("broker.handler_share", share(self_time(&broker))),
            ("broker.publish_ns_per_msg", broker_of("publish")),
            ("broker.discovery_ns_per_msg", broker_of("discovery")),
            ("broker.subscribe_ns_per_msg", broker_of("subscribe")),
            ("broker.link_ns_per_msg", broker_of("link")),
            ("broker.msgs_per_op", ratio(broker.count as f64, ops_all)),
            ("core.bdn_share", share(self_time(&bdn))),
            ("core.bdn_ns_per_msg", per(&bdn)),
            ("core.entity_share", share(self_time(&entity))),
            ("core.entity_ns_per_msg", per(&entity)),
            ("core.client_share", share(self_time(&client))),
            ("core.client_ns_per_msg", per(&client)),
            (
                "core.retransmits_per_op",
                ratio((bdn_requests - o.bdn_ops as f64 * reps).max(0.0), ops_all),
            ),
            (
                "core.duplicates_dropped_ratio",
                ratio(
                    o.duplicates_dropped as f64,
                    (o.duplicates_dropped + o.dedup_admitted) as f64,
                ),
            ),
            ("alloc.bytes_per_op", alloc_bytes as f64 / ops),
            ("alloc.setup_mib", mib(run.untraced[0].setup_live_bytes)),
            ("bench.harness_share", share(harness)),
            ("bench.latency_samples", o.latencies_us.len() as f64),
            ("bench.on_cpu_ratio", run.on_cpu_ratio),
            (
                "bench.reference_ms",
                median(
                    &run.reference
                        .iter()
                        .map(|d| d.as_secs_f64() * 1e3)
                        .collect::<Vec<_>>(),
                ),
            ),
            ("trace.handler_cost_ns", cal.handler_ns),
            ("trace.call_cost_ns", cal.call_ns),
            ("trace.overhead_ratio", traced_s / untraced_s - 1.0),
            ("trace.self_share", tracer_s / traced_s),
            // The traced phase net of the tracer against the untraced
            // phase: what tracing cost that the calibration cannot see.
            (
                "trace.unattributed_share",
                ((traced_s - tracer_s) / untraced_s - 1.0).abs(),
            ),
        ],
    )
    .expect("the in-situ table and its computation agree");
    for m in &mut metrics {
        if m.value.is_nan() && idle_on(run.workload, m.name) {
            m.value = 0.0;
        }
    }
    metrics
}

/// The ex-situ probe results as metrics, in table order.
pub fn ex_situ(probes: &[(&'static str, f64)]) -> Result<Vec<Metric>, String> {
    label(&EX_SITU, probes)
}

/// Checks `printed` against the `section` (`end_to_end` / `per_layer`)
/// of a parsed `BENCHMARK.json`: same names, same units, nothing
/// missing on either side.
pub fn check_declared(manifest: &Value, section: &str, printed: &[Metric]) -> Result<(), String> {
    let declared = manifest
        .get(section)
        .ok_or(format!("BENCHMARK.json has no `{section}`"))?;
    let mut problems = Vec::new();
    for d in declared.items() {
        let name = d.get("name").and_then(Value::as_str).unwrap_or("?");
        match printed.iter().find(|m| m.name == name) {
            None => problems.push(format!("declared but not printed: {name}")),
            Some(m) if d.get("unit").and_then(Value::as_str) != Some(m.unit) => {
                problems.push(format!(
                    "{name}: printed unit `{}` differs from declared",
                    m.unit
                ));
            }
            Some(_) => {}
        }
    }
    for m in printed {
        let known = declared
            .items()
            .iter()
            .any(|d| d.get("name").and_then(Value::as_str) == Some(m.name));
        if !known {
            problems.push(format!("printed but not declared: {}", m.name));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "BENCHMARK.json `{section}` mismatch: {}",
            problems.join("; ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(IN_SITU.iter())
            .chain(EX_SITU.iter())
            .map(|(n, _)| *n)
            .collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a metric name is used twice");
        assert!(IN_SITU.len() + EX_SITU.len() <= 128);
        for n in all {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
    }

    /// The shares the in-situ metrics hand to each layer are the whole
    /// of the measure phase net of the tracer, whatever the calibration
    /// says the tracer cost; what is undefined on a workload prints 0.
    #[test]
    fn layer_shares_sum_to_one() {
        use crate::workload::attach_geo::rep_sized;
        let plain = rep_sized(7, false, 40, 1);
        crate::trace::install(0);
        let traced = rep_sized(7, true, 40, 1);
        let collected = crate::trace::uninstall();
        let run = TracedRun {
            workload: Workload::AttachGeo,
            outcome: &plain.outcome,
            untraced: std::slice::from_ref(&plain.host),
            traced: std::slice::from_ref(&traced.host),
            collected: &collected,
            calibration: &Calibration {
                handler_ns: 90.0,
                handler_inside_ns: 35.0,
                call_ns: 70.0,
                call_inside_ns: 30.0,
            },
            on_cpu_ratio: 1.0,
            reference: &[crate::reference::NOMINAL],
        };
        let m = in_situ(&run);
        let value = |name: &str| m.iter().find(|x| x.name == name).expect(name).value;
        let shares = [
            "net.engine_self_share",
            "net.send_share",
            "broker.handler_share",
            "core.bdn_share",
            "core.entity_share",
            "core.client_share",
            "bench.harness_share",
        ];
        let sum: f64 = shares.iter().map(|s| value(s)).sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares sum to {sum}");
        assert!(value("broker.handler_share") > 0.0 && value("core.entity_share") > 0.0);
        assert!(value("trace.self_share") > 0.0 && value("trace.self_share") < 1.0);
        // No bare client and no data publish on this workload: idle, so 0.
        assert_eq!(value("core.client_ns_per_msg"), 0.0);
        assert_eq!(value("broker.publish_ns_per_msg"), 0.0);
        assert!(m.iter().all(|x| x.value.is_finite()), "{m:?}");
        assert_eq!(m.len(), IN_SITU.len());
    }

    /// Each rep is scaled by the yardstick either side of it, and the
    /// phase is the median rep: a host that is half as fast for some
    /// reps, or for all of them, reads the same.
    #[test]
    fn host_times_follow_the_yardstick() {
        use std::time::Duration;
        let nominal = crate::reference::NOMINAL;
        let rep = |slowdown: u32| HostSample {
            setup: Duration::from_millis(320) * slowdown,
            setups: 32,
            measure: Duration::from_millis(1_500) * slowdown,
            allocs: 0,
            alloc_bytes: 0,
            setup_live_bytes: 0,
        };
        let steady = HostTimes::of(&[rep(1), rep(1), rep(1)], &[nominal; 4]);
        assert!((steady.setup_s - 0.010).abs() < 1e-12 && (steady.measure_s - 1.5).abs() < 1e-12);
        let slow = HostTimes::of(&[rep(2), rep(2), rep(2)], &[nominal * 2; 4]);
        assert!((slow.measure_s - 1.5).abs() < 1e-12);
        // The host halves its speed after the first rep.
        let shifted = HostTimes::of(
            &[rep(1), rep(2), rep(2)],
            &[nominal, nominal, nominal * 2, nominal * 2],
        );
        // The rep astride the change is scaled by the mean of the two.
        assert!(
            (shifted.measure_s - 1.5).abs() < 1e-12,
            "{}",
            shifted.measure_s
        );
    }

    #[test]
    fn an_undefined_metric_is_not_a_zero() {
        assert!(ratio(1.0, 0.0).is_nan());
        assert_eq!(ratio(0.0, 4.0), 0.0);
        // Idle where the layer is absent, and only there.
        assert!(idle_on(Workload::PubsubV1, "core.bdn_ns_per_msg"));
        assert!(!idle_on(Workload::AttachGeo, "core.bdn_ns_per_msg"));
        assert!(idle_on(Workload::PubsubV1, "net.frames_per_segment"));
        assert!(!idle_on(Workload::PubsubV2, "net.frames_per_segment"));
        assert!(!idle_on(Workload::PubsubV2, "net.send_ns_per_call"));
    }

    #[test]
    fn declared_check_catches_both_directions_and_units() {
        let manifest = json::parse(
            r#"{"end_to_end": [{"name": "setup_s", "unit": "s"}, {"name": "ops_per_s", "unit": "1/s"}]}"#,
        )
        .unwrap();
        let m = |name, unit| Metric {
            name,
            unit,
            value: 1.0,
        };
        assert!(check_declared(
            &manifest,
            "end_to_end",
            &[m("setup_s", "s"), m("ops_per_s", "1/s")]
        )
        .is_ok());
        let missing = check_declared(&manifest, "end_to_end", &[m("setup_s", "s")]).unwrap_err();
        assert!(
            missing.contains("declared but not printed: ops_per_s"),
            "{missing}"
        );
        let extra = check_declared(
            &manifest,
            "end_to_end",
            &[m("setup_s", "s"), m("ops_per_s", "1/s"), m("bogus", "s")],
        )
        .unwrap_err();
        assert!(extra.contains("printed but not declared: bogus"), "{extra}");
        let unit = check_declared(
            &manifest,
            "end_to_end",
            &[m("setup_s", "ms"), m("ops_per_s", "1/s")],
        );
        assert!(unit.unwrap_err().contains("unit"));
        assert!(check_declared(&manifest, "per_layer", &[]).is_err());
    }
}
