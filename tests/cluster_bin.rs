//! The `cluster` binary end to end: the shipped example config runs to a
//! full summary, prints the same bytes every time, and a config whose
//! references cannot be resolved fails with the documented message.

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
}

#[test]
fn unresolvable_neighbor_is_rejected() {
    // A broker may only dial a bdn or another broker: a client is created
    // after every broker, so this reference can never resolve.
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cluster-bad.conf");
    std::fs::write(
        &path,
        "node.locator.role = bdn\n\
         node.hub.role = broker\n\
         node.hub.bdns = locator\n\
         node.hub.neighbors = app\n\
         node.app.role = client\n\
         node.app.bdns = locator\n",
    )
    .expect("write config");
    let out = cluster(path.to_str().expect("utf-8 temp path"));
    std::fs::remove_file(&path).expect("remove config");

    assert_ne!(out.status.code(), Some(0));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("creation order is bdn < broker < client"), "stderr: {err}");
}
