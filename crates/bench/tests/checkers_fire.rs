//! Campaign invariants seen to fail. A checker nobody has seen fire is
//! no evidence that it inspects anything, so each case here hands a
//! campaign runner a deployment with one deliberately broken actor and
//! asserts that the row fails that invariant and says why in its
//! detail. The broken actors wrap the real ones through `Deployment`'s
//! public factories; no production code knows about them.
//!
//! The scale campaign's `heap_ceiling` reads the counting allocator, so
//! this binary installs it. This file must stay one test, the only one
//! in its binary: libtest runs tests on parallel threads, and a sibling
//! would allocate into the same counter.

use std::any::Any;

use nb_bench::alloc::CountingAlloc;
use nb_bench::scale::{describe_tier, run_description, TierSpec, MAX_MEM_BYTES_PER_ENTITY};
use nb_net::runtime::IdleActor;
use nb_net::topogen::TopologyKind;
use nb_net::{Actor, Context, Incoming};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap each broken entity holds on top of the real one's: alone more
/// than `heap_ceiling` allows an entity.
const PIN: usize = 20 * 1024;

/// An entity that holds [`PIN`] bytes it never reads. `as_any` forwards
/// to the inner actor, so the runner still sees an `Entity`.
struct Pinning {
    inner: Box<dyn Actor>,
    _pinned: Vec<u8>,
}

impl Actor for Pinning {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.inner.on_start(ctx);
    }

    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        self.inner.on_incoming(event, ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

#[test]
fn heap_ceiling_fails_a_tier_whose_entities_each_pin_20_kib() {
    assert!(PIN as u64 > MAX_MEM_BYTES_PER_ENTITY);
    let spec = TierSpec {
        name: "pinning",
        kind: TopologyKind::Star,
        brokers: 4,
        entities: 40,
    };
    let real = run_description(&spec, 2005, 1, || describe_tier(&spec, 2005));
    assert!(real.passed(), "the real tier fails: {:?}", real.invariants);
    let row = run_description(&spec, 2005, 1, || {
        let (mut tier, digest) = describe_tier(&spec, 2005);
        for &e in &tier.entities {
            let node = &mut tier.sim.nodes[e.0 as usize];
            let mut entity = std::mem::replace(&mut node.make, Box::new(|| Box::new(IdleActor)));
            node.make = Box::new(move || {
                Box::new(Pinning {
                    inner: entity(),
                    _pinned: vec![0xA5; PIN],
                })
            });
        }
        (tier, digest)
    });

    assert!(
        row.stats.alloc_counting,
        "the counting allocator saw no heap"
    );
    let bytes = row.stats.mem_bytes_per_entity;
    assert!(
        bytes >= real.stats.mem_bytes_per_entity + PIN as u64,
        "{bytes} heap bytes/entity pinned, {} without the pin",
        real.stats.mem_bytes_per_entity
    );
    let heap = row
        .invariants
        .iter()
        .find(|i| i.name == "heap_ceiling")
        .expect("a heap_ceiling row");
    assert!(!heap.passed, "heap_ceiling passed: {}", heap.detail);
    assert!(
        heap.detail.contains(&format!("{bytes} heap bytes/entity")),
        "the detail names no bytes: {}",
        heap.detail
    );
    // Only the pinned heap broke the row: the wrapped fleet still attached.
    let others: Vec<_> = row
        .invariants
        .iter()
        .filter(|i| i.name != "heap_ceiling")
        .collect();
    assert!(others.iter().all(|i| i.passed), "{others:?}");
}
