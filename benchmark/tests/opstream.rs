//! `--seed` → inputs: the same seed gives the same inputs, another seed
//! another stream with the same amount of work, and no generated op can fail.

use pmemcpy_benchmark::gen::{key_prefix, KvOp, KvSpec, ValuePool};
use pmemcpy_benchmark::workloads::{kv, Scale};

const SPEC: KvSpec = KvSpec {
    keys: 300,
    ops: 6000,
    min_len: 64,
    max_len: 16 << 10,
};

#[test]
fn the_same_seed_gives_the_identical_op_stream() {
    assert_eq!(SPEC.stream(7), SPEC.stream(7));
    assert_eq!(key_prefix(7), key_prefix(7));
    let (a, b) = (
        ValuePool::new(7, SPEC.max_len),
        ValuePool::new(7, SPEC.max_len),
    );
    assert_eq!(a.value(3, 2, 500), b.value(3, 2, 500));
}

#[test]
fn another_seed_gives_another_stream() {
    assert_ne!(SPEC.stream(7).ops, SPEC.stream(8).ops);
    assert_ne!(key_prefix(7), key_prefix(8));
    let (a, b) = (
        ValuePool::new(7, SPEC.max_len),
        ValuePool::new(8, SPEC.max_len),
    );
    assert_ne!(a.value(3, 2, 500), b.value(3, 2, 500));
}

#[test]
fn the_op_mix_is_45_50_5() {
    let s = SPEC.stream(1);
    assert_eq!(s.ops.len(), SPEC.ops as usize);
    let count = |f: fn(&KvOp) -> bool| s.ops.iter().filter(|o| f(o)).count() as f64;
    let n = SPEC.ops as f64;
    // Exact per block of twenty, except while nothing is live yet (loads and
    // removes turn into stores), which is a handful of ops at the start.
    assert!((count(|o| matches!(o, KvOp::Store { .. })) / n - 0.45).abs() < 0.002);
    assert!((count(|o| matches!(o, KvOp::Load { .. })) / n - 0.50).abs() < 0.002);
    assert!((count(|o| matches!(o, KvOp::Remove { .. })) / n - 0.05).abs() < 0.002);
}

/// Replay a stream against a model: every load and remove must hit a live
/// key, every load must expect what the last store wrote, and the `live` table
/// must be what the replay ends with.
#[test]
fn no_generated_op_can_fail_and_the_final_state_is_as_declared() {
    for seed in [1, 2, 99] {
        let s = SPEC.stream(seed);
        let mut model: Vec<Option<(u32, u32)>> = vec![None; SPEC.keys as usize];
        let mut overwrites = 0;
        for op in &s.ops {
            match *op {
                KvOp::Store { key, version, len } => {
                    assert!((SPEC.min_len..=SPEC.max_len).contains(&len));
                    overwrites += usize::from(model[key as usize].is_some());
                    model[key as usize] = Some((version, len));
                }
                KvOp::Load { key, version, len } => {
                    assert_eq!(
                        model[key as usize],
                        Some((version, len)),
                        "seed {seed} key {key}"
                    );
                }
                KvOp::Remove { key } => {
                    assert!(
                        model[key as usize].take().is_some(),
                        "seed {seed} key {key}"
                    );
                }
            }
        }
        assert_eq!(model, s.live);
        assert!(overwrites > 0, "the stream must include overwrites");
        assert!(
            s.live.iter().any(Option::is_none),
            "some key must end removed"
        );
    }
}

/// Whole store rounds write every size class once, so the stored bytes do not
/// depend on the seed — only their order and their keys do.
#[test]
fn stored_bytes_do_not_depend_on_the_seed() {
    let spec = kv::spec(Scale::Selfcheck);
    let stored = |seed| -> u64 {
        spec.stream(seed)
            .ops
            .iter()
            .map(|o| match o {
                KvOp::Store { len, .. } => *len as u64,
                _ => 0,
            })
            .sum()
    };
    let rounds = |seed| {
        spec.stream(seed)
            .ops
            .iter()
            .filter(|o| matches!(o, KvOp::Store { .. }))
            .count() as f64
            / spec.keys as f64
    };
    // 1800 stores over 450 keys: four whole rounds (give or take the few
    // stores that replace loads before anything is live).
    assert!((rounds(1) - 4.0).abs() < 0.01);
    let (a, b) = (stored(1) as f64, stored(2) as f64);
    assert!((a - b).abs() / a < 0.005, "stored bytes {a} vs {b}");
}
