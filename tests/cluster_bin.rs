//! The `cluster` binary end to end: the shipped example config runs to a
//! full summary and prints the same bytes every time, the bytes committed
//! in `artifacts/cluster_output.txt`; a config with an unresolvable
//! reference, a malformed number or a `bdns` entry that is not a bdn
//! fails with exit 2 and a message naming the offending key or node.

use std::process::{Command, Output};

fn cluster(config: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cluster"))
        .arg(config)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("cluster binary runs")
}

#[test]
fn example_config_discovers_and_is_reproducible() {
    let first = cluster("examples/cluster.conf");
    assert!(first.status.success(), "exit {:?}", first.status.code());
    let out = String::from_utf8(first.stdout.clone()).expect("utf-8 summary");
    let summary_of = |node: &str| {
        let (_, summary) = out.split_once("=== cluster summary ===").expect("summary printed");
        summary
            .lines()
            .find(|l| l.split_whitespace().next() == Some(node))
            .unwrap_or_else(|| panic!("no summary line for {node} in:\n{out}"))
            .to_string()
    };

    for client in ["app-1", "app-2"] {
        let line = summary_of(client);
        let (_, rest) = line.split_once("run 0: -> ").unwrap_or_else(|| panic!("{line}"));
        let broker = rest.split_whitespace().next().expect("chosen broker");
        assert!(["hub", "edge-a", "edge-b"].contains(&broker), "{line}");
        let (_, counts) = rest.split_once('(').expect("response count");
        let responses: u32 = counts.split_whitespace().next().unwrap().parse().expect("a count");
        assert!(responses > 0, "{line}");
    }
    assert!(summary_of("locator").contains("registry=3"), "three brokers advertise to the BDN");

    let second = cluster("examples/cluster.conf");
    assert!(second.status.success());
    assert_eq!(first.stdout, second.stdout, "seeded, virtual time: byte-identical stdout");

    let golden = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("artifacts/cluster_output.txt"),
    )
    .expect("committed golden");
    assert!(
        out == golden,
        "stdout differs from artifacts/cluster_output.txt; first differing line: {:?}",
        out.lines().zip(golden.lines()).find(|(a, b)| a != b)
    );
}

/// Runs `cluster` on a config written to a temporary file, and removes it.
fn cluster_with(file: &str, config: &str) -> Output {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(file);
    std::fs::write(&path, config).expect("write config");
    let out = cluster(path.to_str().expect("utf-8 temp path"));
    std::fs::remove_file(&path).expect("remove config");
    out
}

/// Asserts `out` failed with exit 2 and `needle` on stderr.
fn assert_rejected(out: &Output, needle: &str) {
    assert_eq!(out.status.code(), Some(2), "stdout: {}", String::from_utf8_lossy(&out.stdout));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(needle), "stderr: {err}");
}

#[test]
fn unresolvable_neighbor_is_rejected() {
    // A broker may only dial a bdn or another broker: a client is created
    // after every broker, so this reference can never resolve.
    let out = cluster_with(
        "cluster-bad.conf",
        "node.locator.role = bdn\n\
         node.hub.role = broker\n\
         node.hub.bdns = locator\n\
         node.hub.neighbors = app\n\
         node.app.role = client\n\
         node.app.bdns = locator\n",
    );
    assert_rejected(&out, "creation order is bdn < broker < client");
}

#[test]
fn malformed_numbers_are_rejected_with_their_key() {
    let base = "node.locator.role = bdn\n\
                node.hub.role = broker\n\
                node.hub.bdns = locator\n\
                node.app.role = client\n\
                node.app.bdns = locator\n";
    for (file, line, key) in [
        ("cluster-realm.conf", "node.app.realm = seven\n", "\"node.app.realm\""),
        ("cluster-wide-realm.conf", "node.hub.realm = 70000\n", "\"node.hub.realm\""),
        (
            "cluster-after.conf",
            "node.app.discover.after.ms = soon\n",
            "\"node.app.discover.after.ms\"",
        ),
    ] {
        assert_rejected(&cluster_with(file, &format!("{base}{line}")), key);
    }
}

#[test]
fn bdns_entry_naming_a_broker_or_client_is_rejected() {
    for (file, config, needle) in [
        (
            "cluster-bdns-broker.conf",
            "node.locator.role = bdn\n\
             node.hub.role = broker\n\
             node.hub.bdns = locator\n\
             node.app.role = client\n\
             node.app.bdns = hub\n",
            "node app: bdns entry \"hub\" is a broker, not a bdn",
        ),
        (
            "cluster-bdns-client.conf",
            "node.locator.role = bdn\n\
             node.hub.role = broker\n\
             node.hub.bdns = app\n\
             node.app.role = client\n\
             node.app.bdns = locator\n",
            "node hub: bdns entry \"app\" is a client, not a bdn",
        ),
    ] {
        assert_rejected(&cluster_with(file, config), needle);
    }
}
