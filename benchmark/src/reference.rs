//! A fixed piece of work that has nothing to do with the repo: the
//! yardstick host-time metrics are scaled by.
//!
//! The host's speed is not a constant. On the shared guest this was
//! written on, the same code ran 35–50 % slower (in CPU time, so not
//! counting the time the hypervisor gave to someone else) from one
//! minute to the next, and stayed there for an hour — a busy sibling
//! hyperthread, most likely. No fastest-of-N survives that: every
//! sample is slow. So each `--trace 0` run times this kernel between
//! its reps, as it times them, and reports host time in *reference
//! seconds*: CPU seconds × [`NOMINAL`] ÷ the kernel's fastest sample. A
//! host twice as slow takes twice as long over both, and the metric
//! stays where it was.
//!
//! The kernel is ordered-map, allocator and hashing work over a heap of
//! a few MiB — what the engines and brokers do with their time — and
//! touches no code of the repo, so a change under test cannot move the
//! yardstick. It is deterministic: same work every sample.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Duration;

use crate::clock::CpuClock;

/// What one sample of the kernel took on the host this was written on,
/// at its fastest, when the first baseline was recorded (0.094–0.098 s;
/// 0.135–0.158 s in its slow spells). Reference seconds are CPU seconds
/// on a host in that state; the value is otherwise arbitrary, and
/// changing it rescales every host-time metric, so it never changes.
pub const NOMINAL: Duration = Duration::from_millis(95);

/// Map operations per sample.
const STEPS: u64 = 400_000;

/// One sample: inserts, look-ups and removals of small heap values in
/// an ordered map that settles at a few tens of thousands of entries,
/// keyed by a fixed LCG stream, with an FNV fold over what is read.
fn kernel() -> u64 {
    let mut map: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut digest = 0xCBF2_9CE4_8422_2325_u64;
    for step in 0..STEPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let key = (x >> 47) as u32;
        match step % 4 {
            0 | 1 => {
                let len = 24 + (x & 63) as usize;
                map.insert(key, vec![(x >> 8) as u8; len]);
            }
            2 => {
                if let Some((_, value)) = map.range(key..).next() {
                    for &b in value {
                        digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
                    }
                }
            }
            _ => {
                map.remove(&key);
            }
        }
    }
    digest ^ map.len() as u64
}

/// Times one sample of the kernel, in this thread's CPU time. One whole
/// sample, not pieces of one: timed in 25 ms pieces, each taken from
/// its fastest sample, the kernel found quiet moments of a flickering
/// host that no 0.3 s sample of a workload could, and read 1.3× slow
/// when the workload was 1.9× slow.
pub fn sample() -> Duration {
    let t = CpuClock::now();
    black_box(kernel());
    t.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_does_the_same_work_every_time() {
        assert_eq!(kernel(), kernel());
    }
}
