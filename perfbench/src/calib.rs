//! The host-speed probe.
//!
//! The benchmark's host is shared: other tenants on the same physical
//! cores slow branchy, allocation-heavy code such as this repository's
//! simulator by up to 45% for seconds at a time, while a pure arithmetic
//! loop barely notices. This module is a fixed kernel of the same kind —
//! a small stack-machine interpreter feeding a hash map and a B-tree — that
//! shares none of the repository's code. The runner times it between
//! batches of jobs; the ratio of its time to [`REFERENCE_NS`] measures how
//! slow the host was around each batch, and the run's timings are scaled
//! by it (see the crate docs). A change to the library cannot move the
//! probe, so it cannot hide a regression or fake a gain.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Probe time on the reference host, in nanoseconds: a round figure near
/// the probe's median on the 2-vCPU Intel Xeon VM the first baseline was
/// taken on. Timings are reported as if every batch had run on a host
/// where the probe takes this long.
pub const REFERENCE_NS: f64 = 600_000.0;

#[derive(Clone, Copy)]
enum Op {
    Load(usize),
    Store(usize),
    Add,
    MulMod,
    JumpIfNonZero(usize),
    Decrement(usize),
    Push(i64),
}

/// Counts `mem[0]` down to zero, mixing `mem[1..4]` on every trip.
const PROGRAM: [Op; 12] = [
    Op::Load(1),
    Op::Load(2),
    Op::MulMod,
    Op::Push(7),
    Op::Add,
    Op::Store(1),
    Op::Load(3),
    Op::Load(1),
    Op::Add,
    Op::Store(3),
    Op::Decrement(0),
    Op::JumpIfNonZero(0),
];

fn interpret(code: &[Op], mem: &mut [i64]) {
    let mut stack: Vec<i64> = Vec::with_capacity(8);
    let mut pc = 0;
    while pc < code.len() {
        match code[pc] {
            Op::Load(a) => stack.push(mem[a]),
            Op::Store(a) => mem[a] = stack.pop().unwrap_or(0),
            Op::Add => {
                let b = stack.pop().unwrap_or(0);
                let a = stack.pop().unwrap_or(0);
                stack.push(a.wrapping_add(b));
            }
            Op::MulMod => {
                let b = stack.pop().unwrap_or(1);
                let a = stack.pop().unwrap_or(1);
                stack.push(a.wrapping_mul(b) % 1_000_003);
            }
            Op::JumpIfNonZero(t) => {
                if stack.pop().unwrap_or(0) != 0 {
                    pc = t;
                    continue;
                }
            }
            Op::Decrement(a) => {
                mem[a] -= 1;
                stack.push(mem[a]);
            }
            Op::Push(v) => stack.push(v),
        }
        pc += 1;
    }
}

/// One unit of probe work.
fn unit(seed: u64) -> u64 {
    let mut acc = seed;
    let mut map: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut tree: BTreeMap<u64, u64> = BTreeMap::new();
    for i in 0..40u64 {
        let mut mem = vec![200, (acc % 97) as i64 + 1, 3, 0];
        interpret(black_box(&PROGRAM), &mut mem);
        acc = acc
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(mem[1] as u64 ^ mem[3] as u64);
        map.entry(acc % 512).or_default().push(i);
        *tree.entry(acc % 256).or_default() += 1;
    }
    acc ^ map.len() as u64 ^ tree.len() as u64
}

/// Runs the probe once and returns its host time in nanoseconds.
pub fn probe_ns() -> u64 {
    let start = Instant::now();
    let mut acc = 0;
    for seed in 0..2 {
        acc ^= unit(black_box(seed));
    }
    black_box(acc);
    u64::try_from(start.elapsed().as_nanos()).expect("probe shorter than 584 years")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_does_the_same_work_every_time() {
        assert_eq!(unit(3), unit(3));
        assert_ne!(unit(3), unit(4));
        assert!(probe_ns() > 0);
    }
}
