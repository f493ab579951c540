//! The engine's worker pool is quiescent when its run returns.
//!
//! `repro scale`'s heap column is the difference of two `live_bytes()`
//! readings taken on the main thread; a worker of an earlier 4-worker
//! run that is still exiting, freeing its thread-locals, moves it.
//! `ShardedSim`'s epoch workers, the one pool in the tree, must
//! therefore have joined their threads, thread-local destructors
//! included, before a run returns. The thread-local here sleeps before
//! freeing its buffer, so a pool that returns early is caught freeing
//! it between two readings. This binary counts with its own
//! `#[global_allocator]` and must stay one test: a sibling test would
//! allocate into the same counter.

use std::cell::RefCell;
use std::time::Duration;

use nb_bench::alloc::{live_bytes, CountingAlloc};
use nb_net::{impl_actor_any, Actor, Context, Incoming, RealmId, ShardedSim};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A 1 MiB buffer freed 20 ms into its thread's exit.
struct SlowToFree(Vec<u8>);

impl Drop for SlowToFree {
    fn drop(&mut self) {
        std::thread::sleep(Duration::from_millis(20));
        drop(std::mem::take(&mut self.0));
    }
}

thread_local! {
    static BALLAST: RefCell<Option<SlowToFree>> = const { RefCell::new(None) };
}

fn touch_ballast() {
    BALLAST.with(|b| {
        b.borrow_mut().get_or_insert_with(|| SlowToFree(vec![1; 1 << 20]));
    });
}

/// Touches the ballast on whichever worker thread runs its timer.
struct Toucher;

impl Actor for Toucher {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        ctx.set_timer(Duration::from_millis(1), 0);
    }
    fn on_incoming(&mut self, event: Incoming, _ctx: &mut dyn Context) {
        if let Incoming::Timer { .. } = event {
            touch_ballast();
        }
    }
    impl_actor_any!();
}

#[test]
fn worker_pools_join_their_threads_before_returning() {
    let mut sim = ShardedSim::new(7);
    for i in 0..8 {
        sim.add_node(&format!("n{i}"), RealmId(0), Box::new(Toucher));
    }
    sim.set_workers(4);
    sim.run_for(Duration::from_millis(50));
    // The heap must not move in the 100 ms after the run returned.
    let after_run = live_bytes();
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(live_bytes(), after_run, "a worker freed heap after `run_for` returned");
}
