//! Parallel scenario execution.
//!
//! The figure suite runs each experiment 120 times; the runs are
//! independent deployments, so they shard across worker threads
//! ([`crate::discoveries`]), as do campaign scenarios. Results merge
//! back in index order, which makes the output a pure function of the
//! jobs — byte-identical whether the executor uses one worker or
//! sixteen. The determinism property test in
//! `tests/parallel_determinism.rs` holds the executor to exactly that.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Shards independent runs across worker threads.
#[derive(Debug, Clone, Copy)]
pub struct ParallelExecutor {
    workers: usize,
}

impl Default for ParallelExecutor {
    fn default() -> Self {
        ParallelExecutor::new()
    }
}

impl ParallelExecutor {
    /// The default executor: one worker per visible core, capped at 16.
    pub fn new() -> ParallelExecutor {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(16));
        ParallelExecutor { workers }
    }

    /// An executor with an explicit worker count.
    pub fn with_workers(workers: usize) -> ParallelExecutor {
        ParallelExecutor { workers: workers.max(1) }
    }

    /// The reference executor: runs every job inline on this thread, in
    /// index order. The parallel path must reproduce its output exactly.
    pub fn serial() -> ParallelExecutor {
        ParallelExecutor { workers: 1 }
    }

    /// Worker threads this executor uses.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `job(0..count)` and returns the results in index order.
    ///
    /// Workers claim the next index from a shared counter, so stragglers
    /// never leave a thread idle while runs remain; ordering is restored
    /// on merge.
    pub fn run<R, F>(&self, count: usize, job: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.workers == 1 || count <= 1 {
            return (0..count).map(job).collect();
        }
        // The counter publishes nothing but itself, hence `Relaxed`.
        let next = AtomicUsize::new(0);
        let (result_tx, result_rx) = mpsc::channel::<(usize, R)>();
        let (job, next) = (&job, &next);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers.min(count))
                .map(|_| {
                    let result_tx = result_tx.clone();
                    scope.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count || result_tx.send((i, job(i))).is_err() {
                            break;
                        }
                    })
                })
                .collect();
            drop(result_tx);
            let mut slots: Vec<Option<R>> = (0..count).map(|_| None).collect();
            while let Ok((i, out)) = result_rx.recv() {
                slots[i] = Some(out);
            }
            // The scope alone waits only for each closure to return; a
            // join waits for the thread to exit, thread-local destructors
            // included, so no worker frees heap after `run` returns.
            for handle in handles {
                if let Err(panic) = handle.join() {
                    std::panic::resume_unwind(panic);
                }
            }
            slots
                .into_iter()
                .enumerate()
                .map(|(i, slot)| slot.unwrap_or_else(|| panic!("run {i} produced no result")))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discoveries;
    use nb_broker::TopologyKind;
    use nb_discovery::scenario::ScenarioBuilder;
    use nb_net::wan::BLOOMINGTON;

    #[test]
    fn run_preserves_index_order() {
        let ex = ParallelExecutor::with_workers(4);
        let out = ex.run(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_executor_runs_inline() {
        let ex = ParallelExecutor::serial();
        assert_eq!(ex.workers(), 1);
        assert_eq!(ex.run(5, |i| i + 1), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn parallel_discoveries_match_serial_exactly() {
        let builder = ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, 0);
        let serial = discoveries(ParallelExecutor::serial(), &builder, 41, 6);
        let parallel = discoveries(ParallelExecutor::with_workers(4), &builder, 41, 6);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s, p);
        }
    }
}
