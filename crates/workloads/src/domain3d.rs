//! The paper's evaluation workload (§4.1): a write-only 3-D domain
//! decomposition and its symmetric read-back.
//!
//! *"In the write-only case, we generate 10 3-D rectangles. For each test, a
//! total of 40 GB of data is generated and the 40 GB is divided equally
//! among the processes. Each element in the rectangle is a double precision
//! floating point value."* The model is a large-memory regular stencil code
//! (S3D combustion was the inspiration).

use crate::decomp::BlockDecomp;

/// Specification of one run of the §4.1 workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domain3dSpec {
    /// Total bytes across all variables (the paper: 40 GB).
    pub total_bytes: u64,
    /// Number of 3-D variables (the paper: 10).
    pub nvars: usize,
    /// Ranks sharing the domain.
    pub nprocs: u64,
}

impl Domain3dSpec {
    /// The paper's configuration at a chosen scale. `total_bytes` is the
    /// *real* data volume; the benchmark harness sets the machine's
    /// `byte_scale` so the modelled volume is 40 GB regardless.
    pub fn paper(nprocs: u64, total_bytes: u64) -> Self {
        Domain3dSpec {
            total_bytes,
            nvars: 10,
            nprocs,
        }
    }

    /// Derive near-cubic global dimensions so that `nvars` f64 arrays total
    /// approximately `total_bytes`. Dimensions are rounded to multiples of
    /// 12, which every balanced grid for 8–48 ranks divides evenly — the
    /// paper divides its 40 GB equally among processes, and at full scale
    /// remainder imbalance is negligible; rounding keeps that true at
    /// reduced scale too.
    pub(crate) fn global_dims(&self) -> Vec<u64> {
        let elements = self.total_bytes / 8 / self.nvars as u64;
        let side = (elements as f64).cbrt().floor().max(12.0) as u64;
        let side = (side / 12).max(1) * 12;
        let nz = (elements / (side * side)).max(12);
        let nz = (nz / 12).max(1) * 12;
        vec![side, side, nz]
    }

    /// The exact byte volume the rounded dimensions produce.
    pub fn actual_bytes(&self) -> u64 {
        self.global_dims().iter().product::<u64>() * 8 * self.nvars as u64
    }

    /// Instantiate the decomposition.
    pub fn decompose(&self) -> BlockDecomp {
        BlockDecomp::new(&self.global_dims(), self.nprocs)
    }

    /// Variable names, S3D-flavoured.
    pub fn var_names(&self) -> Vec<String> {
        const BASE: [&str; 10] = ["rho", "u", "v", "w", "E", "T", "P", "Y_H2", "Y_O2", "Y_H2O"];
        (0..self.nvars)
            .map(|i| {
                if i < BASE.len() {
                    BASE[i].to_string()
                } else {
                    format!("Y_SP{i}")
                }
            })
            .collect()
    }
}

/// Deterministic element value: a function of variable index and the global
/// linear element index, exactly representable in f64 so verification can be
/// bit-exact.
#[inline]
pub fn element_value(var: usize, global_linear: u64) -> f64 {
    (var as u64 * 1_000_003 + global_linear % (1 << 40)) as f64 * 0.5
}

/// Generate `rank`'s dense block of variable `var` (row-major local order).
pub fn generate_block(decomp: &BlockDecomp, var: usize, rank: u64) -> Vec<f64> {
    let (off, dims) = decomp.block(rank);
    let g = &decomp.global_dims;
    let mut out = Vec::with_capacity((dims[0] * dims[1] * dims[2]) as usize);
    for x in 0..dims[0] {
        for y in 0..dims[1] {
            for z in 0..dims[2] {
                let gl = ((off[0] + x) * g[1] + (off[1] + y)) * g[2] + (off[2] + z);
                out.push(element_value(var, gl));
            }
        }
    }
    out
}

/// Verify a read-back block bit-exactly; returns the number of mismatches.
pub fn verify_block(decomp: &BlockDecomp, var: usize, rank: u64, data: &[f64]) -> usize {
    let expected = generate_block(decomp, var, rank);
    if expected.len() != data.len() {
        return expected.len().max(data.len());
    }
    expected
        .iter()
        .zip(data)
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count()
}

/// View an f64 slice as bytes (little-endian host assumption, as everywhere
/// in the on-device formats).
pub fn as_bytes(data: &[f64]) -> &[u8] {
    // SAFETY: f64 has no invalid bit patterns and we only reinterpret
    // plain-old-data for I/O.
    unsafe { std::slice::from_raw_parts(data.as_ptr() as *const u8, data.len() * 8) }
}

/// View a mutable f64 slice as bytes.
pub fn as_bytes_mut(data: &mut [f64]) -> &mut [u8] {
    // SAFETY: as above.
    unsafe { std::slice::from_raw_parts_mut(data.as_mut_ptr() as *mut u8, data.len() * 8) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_spec_dimensions_cover_the_volume() {
        let spec = Domain3dSpec::paper(24, 40 << 30);
        let dims = spec.global_dims();
        let vol = spec.actual_bytes();
        // Within 10% of 40 GB (cube-root flooring + grid rounding).
        let target = 40u64 << 30;
        assert!((vol as f64) > (target as f64) * 0.90, "vol={vol}");
        assert!(vol <= target, "vol={vol}");
        // Every paper grid divides the dims evenly -> balanced blocks.
        for d in dims {
            assert_eq!(d % 12, 0);
        }
    }

    #[test]
    fn blocks_are_balanced_for_paper_rank_counts() {
        let spec = Domain3dSpec::paper(24, 32 << 20);
        for nprocs in [8u64, 16, 24, 32, 48] {
            let d = crate::decomp::BlockDecomp::new(&spec.global_dims(), nprocs);
            let sizes: Vec<u64> = (0..nprocs).map(|r| d.block_elements(r)).collect();
            assert_eq!(
                sizes.iter().min(),
                sizes.iter().max(),
                "imbalance at {nprocs} ranks"
            );
        }
    }

    #[test]
    fn ten_distinct_variable_names() {
        let spec = Domain3dSpec::paper(8, 1 << 20);
        let names = spec.var_names();
        assert_eq!(names.len(), 10);
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn generation_is_deterministic_and_verifiable() {
        let spec = Domain3dSpec {
            total_bytes: 1 << 20,
            nvars: 2,
            nprocs: 4,
        };
        let d = spec.decompose();
        for var in 0..2 {
            for rank in 0..4 {
                let block = generate_block(&d, var, rank);
                assert_eq!(block.len() as u64, d.block_elements(rank));
                assert_eq!(verify_block(&d, var, rank, &block), 0);
            }
        }
    }

    #[test]
    fn different_vars_and_ranks_have_different_data() {
        let spec = Domain3dSpec {
            total_bytes: 1 << 20,
            nvars: 2,
            nprocs: 2,
        };
        let d = spec.decompose();
        let a = generate_block(&d, 0, 0);
        let b = generate_block(&d, 1, 0);
        let c = generate_block(&d, 0, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn verify_detects_corruption() {
        let spec = Domain3dSpec {
            total_bytes: 1 << 18,
            nvars: 1,
            nprocs: 1,
        };
        let d = spec.decompose();
        let mut block = generate_block(&d, 0, 0);
        block[7] += 1.0;
        assert_eq!(verify_block(&d, 0, 0, &block), 1);
    }

    #[test]
    fn byte_views_round_trip() {
        let data = vec![1.5f64, -2.25, 0.0];
        let bytes = as_bytes(&data).to_vec();
        let mut back = vec![0f64; 3];
        as_bytes_mut(&mut back).copy_from_slice(&bytes);
        assert_eq!(back, data);
    }
}
