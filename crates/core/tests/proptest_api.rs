//! Property-style tests of the pMEMCPY public API: arbitrary store/load
//! sequences model-checked against a HashMap, across serializers and
//! layouts; region reads checked against direct indexing. Driven by a
//! seeded deterministic generator (offline replacement for the former
//! proptest dependency; same invariants, reproducible cases).

use mpi_sim::{Comm, World};
use pmem_sim::{DetRng, Machine, PersistenceMode, PmemDevice};
use pmemcpy::{MmapTarget, Options, Pmem};
use simfs::{MountMode, SimFs};
use std::collections::HashMap;
use std::sync::Arc;

fn mapped(opts: Options, on_fs: bool) -> (Pmem, Comm, Arc<SimFs>) {
    let machine = Machine::chameleon();
    let dev = PmemDevice::new(Arc::clone(&machine), 32 << 20, PersistenceMode::Fast);
    let fs = SimFs::mount_all(
        PmemDevice::new(Arc::clone(&machine), 32 << 20, PersistenceMode::Fast),
        MountMode::Dax,
    );
    let comm = Comm::new(World::new(machine, 1), 0);
    let mut pmem = Pmem::with_options(opts);
    let target = if on_fs {
        MmapTarget::Fs { fs: &fs, dir: "/p" }
    } else {
        MmapTarget::DevDax(&dev)
    };
    pmem.mmap(target, &comm).unwrap();
    (pmem, comm, fs)
}

#[derive(Debug, Clone)]
enum Op {
    StoreSlice(u8, Vec<f64>),
    LoadSlice(u8),
    StoreScalar(u8, f64),
    LoadScalar(u8),
    Remove(u8),
}

fn arb_op(rng: &mut DetRng) -> Op {
    let k = rng.gen_range(0, 6) as u8;
    match rng.pick_weighted(&[3, 2, 2, 2, 1]) {
        0 => {
            let v: Vec<f64> = (0..rng.gen_range(1, 200)).map(|_| rng.any_f64()).collect();
            Op::StoreSlice(k, v)
        }
        1 => Op::LoadSlice(k),
        2 => Op::StoreScalar(k, rng.any_f64()),
        3 => Op::LoadScalar(k),
        _ => Op::Remove(k),
    }
}

#[test]
fn api_matches_hashmap_model() {
    let mut rng = DetRng::new(0xAB1);
    let serializers = ["bp4", "cereal", "capnp-lite"];
    for case in 0..24 {
        let ops: Vec<Op> = (0..rng.gen_range(1, 40))
            .map(|_| arb_op(&mut rng))
            .collect();
        let on_fs = rng.index(2) == 1;
        let serializer = serializers[rng.index(serializers.len())].to_string();

        let opts = Options {
            serializer,
            ..Options::default()
        };
        let (mut pmem, _comm, _fs) = mapped(opts, on_fs);
        // Model: key -> either a slice or a scalar.
        let mut slices: HashMap<String, Vec<f64>> = HashMap::new();
        let mut scalars: HashMap<String, f64> = HashMap::new();
        for op in ops {
            match op {
                Op::StoreSlice(k, v) => {
                    let key = format!("s{k}");
                    pmem.store_slice(&key, &v).unwrap();
                    scalars.remove(&key);
                    slices.insert(key, v);
                }
                Op::LoadSlice(k) => {
                    let key = format!("s{k}");
                    match slices.get(&key) {
                        Some(v) => {
                            let got = pmem.load_slice::<f64>(&key).unwrap();
                            assert_eq!(
                                got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                                v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                                "case {case}"
                            );
                        }
                        None => {
                            if !scalars.contains_key(&key) {
                                assert!(pmem.load_slice::<f64>(&key).is_err(), "case {case}");
                            }
                        }
                    }
                }
                Op::StoreScalar(k, v) => {
                    let key = format!("s{k}");
                    pmem.store_scalar(&key, v).unwrap();
                    slices.remove(&key);
                    scalars.insert(key, v);
                }
                Op::LoadScalar(k) => {
                    let key = format!("s{k}");
                    if let Some(v) = scalars.get(&key) {
                        let got = pmem.load_scalar::<f64>(&key).unwrap();
                        assert_eq!(got.to_bits(), v.to_bits(), "case {case}");
                    }
                }
                Op::Remove(k) => {
                    let key = format!("s{k}");
                    let existed = slices.remove(&key).is_some() | scalars.remove(&key).is_some();
                    let removed = pmem.remove(&key).unwrap();
                    assert_eq!(removed, existed, "case {case}");
                }
            }
        }
        // Final sweep: everything in the model is loadable.
        for (key, v) in &slices {
            let got = pmem.load_slice::<f64>(key).unwrap();
            assert_eq!(got.len(), v.len(), "case {case}");
        }
        pmem.munmap().unwrap();
    }
}

#[test]
fn region_reads_match_direct_indexing() {
    let mut rng = DetRng::new(0x4E61);
    for case in 0..24 {
        let gx = rng.gen_range(2, 10);
        let gy = rng.gen_range(2, 10);
        let gz = rng.gen_range(2, 10);
        let (fx, fy, fz) = (rng.next_f64(), rng.next_f64(), rng.next_f64());

        let (mut pmem, _comm, _fs) = mapped(Options::default(), false);
        let global = [gx, gy, gz];
        let total = (gx * gy * gz) as usize;
        // Whole array stored as one block; values = linear index.
        let data: Vec<f64> = (0..total).map(|i| i as f64).collect();
        pmem.alloc::<f64>("v", &global).unwrap();
        pmem.store_block("v", &data, &[0, 0, 0], &global).unwrap();

        // Arbitrary interior region derived from the fractions.
        let off = [
            (fx * (gx - 1) as f64) as u64,
            (fy * (gy - 1) as f64) as u64,
            (fz * (gz - 1) as f64) as u64,
        ];
        let dims = [gx - off[0], gy - off[1], gz - off[2]];
        let n = (dims[0] * dims[1] * dims[2]) as usize;
        let mut region = vec![0f64; n];
        pmem.load_region("v", &mut region, &off, &dims).unwrap();
        for x in 0..dims[0] {
            for y in 0..dims[1] {
                for z in 0..dims[2] {
                    let gl = ((off[0] + x) * gy + (off[1] + y)) * gz + (off[2] + z);
                    let r = (x * dims[1] * dims[2] + y * dims[2] + z) as usize;
                    assert_eq!(region[r], gl as f64, "case {case}");
                }
            }
        }
        pmem.munmap().unwrap();
    }
}
