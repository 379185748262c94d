//! The benchmark's own input generators. `--seed` feeds these and nothing
//! else: the product crates only ever see the generated keys, sizes and bytes.
//!
//! What a seed changes is chosen so that the *amount* of work stays the same
//! from seed to seed while its *placement* does not: key names keep their
//! length but hash to other buckets, the key-value op stream keeps its op mix
//! and its multiset of value sizes but orders and assigns them differently.
//! Virtual-clock metrics therefore move by hash-placement effects only, and a
//! change tuned to one seed's layout shows on another.

/// SplitMix64: tiny, seedable, and good enough to shuffle an op stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (n > 0). The modulo bias is below 2⁻³² for the sizes
    /// used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fixed-width key prefix of a seed: every seed gives keys of the same
/// length (so per-key metadata bytes do not change) that hash elsewhere.
pub fn key_prefix(seed: u64) -> String {
    format!("s{:08x}", mix(seed ^ 0x70_6d65_6d63_7079) as u32)
}

/// One operation of the mixed key-value stream. Loads carry the version and
/// length they must observe, so the reader can check what it got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    Store { key: u32, version: u32, len: u32 },
    Load { key: u32, version: u32, len: u32 },
    Remove { key: u32 },
}

/// Shape of the mixed key-value workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvSpec {
    pub keys: u32,
    pub ops: u32,
    pub min_len: u32,
    pub max_len: u32,
}

/// The op mix, per block of twenty: 45 % stores, 50 % loads, 5 % removes.
const BLOCK: [u8; 20] = [
    b'S', b'S', b'S', b'S', b'S', b'S', b'S', b'S', b'S', b'L', b'L', b'L', b'L', b'L', b'L', b'L',
    b'L', b'L', b'L', b'R',
];

/// A generated op stream and the state it must leave behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvStream {
    pub ops: Vec<KvOp>,
    /// Per key: the `(version, len)` live after the last op, `None` if the
    /// key ends removed or was never stored.
    pub live: Vec<Option<(u32, u32)>>,
}

impl KvSpec {
    /// The `slot`-th of `keys` log-spaced value lengths from `min_len` to
    /// `max_len`.
    pub fn size_class(&self, slot: u32) -> u32 {
        let span = self.max_len as f64 / self.min_len as f64;
        let frac = slot as f64 / (self.keys.max(2) - 1) as f64;
        ((self.min_len as f64 * span.powf(frac)).round() as u32).clamp(self.min_len, self.max_len)
    }

    /// Generate the stream for `seed`. Stores walk a seeded permutation of
    /// the keys round after round, and a key's length moves to another size
    /// class with each version, so every round stores every size class once:
    /// the stored bytes do not depend on the seed, their order and their keys
    /// do. Loads and removes walk their own permutations and skip keys that
    /// are not live, so no generated op can fail; while nothing is live yet
    /// they turn into stores.
    pub fn stream(&self, seed: u64) -> KvStream {
        assert!(self.keys > 0 && self.min_len > 0 && self.min_len <= self.max_len);
        let mut rng = Rng::new(seed);
        let perm = |rng: &mut Rng| {
            let mut p: Vec<u32> = (0..self.keys).collect();
            rng.shuffle(&mut p);
            p
        };
        let (store_perm, load_perm, remove_perm) = (perm(&mut rng), perm(&mut rng), perm(&mut rng));
        let mut slot_of = vec![0u32; self.keys as usize];
        for (slot, &key) in store_perm.iter().enumerate() {
            slot_of[key as usize] = slot as u32;
        }
        let mut versions = vec![0u32; self.keys as usize];
        let mut live: Vec<Option<(u32, u32)>> = vec![None; self.keys as usize];
        let mut live_count = 0u32;
        let (mut stores, mut load_cur, mut remove_cur) = (0usize, 0usize, 0usize);
        let next_live = |cur: &mut usize, perm: &[u32], live: &[Option<(u32, u32)>]| loop {
            let key = perm[*cur % perm.len()];
            *cur += 1;
            if live[key as usize].is_some() {
                return key;
            }
        };
        let mut ops = Vec::with_capacity(self.ops as usize);
        let mut block = BLOCK;
        while ops.len() < self.ops as usize {
            rng.shuffle(&mut block);
            for &kind in block.iter().take(self.ops as usize - ops.len()) {
                let kind = if live_count == 0 { b'S' } else { kind };
                ops.push(match kind {
                    b'S' => {
                        let key = store_perm[stores % store_perm.len()];
                        stores += 1;
                        let k = key as usize;
                        versions[k] += 1;
                        // A stride coprime to nothing in particular: any fixed
                        // stride maps a round's slots onto all size classes.
                        let class =
                            (slot_of[k] as u64 + versions[k] as u64 * 7919) % self.keys as u64;
                        let len = self.size_class(class as u32);
                        if live[k].replace((versions[k], len)).is_none() {
                            live_count += 1;
                        }
                        KvOp::Store {
                            key,
                            version: versions[k],
                            len,
                        }
                    }
                    b'L' => {
                        let key = next_live(&mut load_cur, &load_perm, &live);
                        let (version, len) =
                            live[key as usize].expect("next_live returns live keys");
                        KvOp::Load { key, version, len }
                    }
                    _ => {
                        let key = next_live(&mut remove_cur, &remove_perm, &live);
                        live[key as usize] = None;
                        live_count -= 1;
                        KvOp::Remove { key }
                    }
                });
            }
        }
        KvStream { ops, live }
    }
}

/// Seeded bytes that every value is a window of: a value is addressed by
/// `(key, version, len)`, needs no copy to produce, and can be recomputed for
/// verification.
#[derive(Debug, Clone)]
pub struct ValuePool {
    bytes: Vec<u8>,
    max_len: usize,
}

impl ValuePool {
    pub fn new(seed: u64, max_len: u32) -> Self {
        let max_len = max_len as usize;
        let mut bytes = vec![0u8; max_len + (1 << 20)];
        Rng::new(seed ^ 0x76_616c_7565).fill(&mut bytes);
        ValuePool { bytes, max_len }
    }

    pub fn value(&self, key: u32, version: u32, len: u32) -> &[u8] {
        assert!(len as usize <= self.max_len);
        let windows = (self.bytes.len() - self.max_len) as u64;
        let off = (mix((key as u64) << 32 | version as u64) % windows) as usize;
        &self.bytes[off..off + len as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefixes_have_one_width_and_differ_by_seed() {
        let a = key_prefix(1);
        let b = key_prefix(2);
        assert_eq!(a.len(), 9);
        assert_eq!(b.len(), 9);
        assert_ne!(a, b);
        assert_eq!(a, key_prefix(1));
    }

    #[test]
    fn size_classes_span_the_range() {
        let spec = KvSpec {
            keys: 100,
            ops: 0,
            min_len: 64,
            max_len: 16384,
        };
        assert_eq!(spec.size_class(0), 64);
        assert_eq!(spec.size_class(99), 16384);
        assert!((0..99).all(|s| spec.size_class(s) <= spec.size_class(s + 1)));
    }
}
