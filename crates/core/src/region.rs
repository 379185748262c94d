//! Arbitrary-region reads: assemble any rectangular sub-box of a decomposed
//! array from the per-rank blocks that cover it.
//!
//! The paper's evaluation reads are symmetric (each rank reads back the
//! block it wrote); this module implements the general case HDF5's
//! hyperslabs provide — a read that spans several writers' blocks — on top
//! of pMEMCPY's per-block storage, by intersecting the requested box with
//! every stored block of the variable. It exercises the claim that the
//! block-per-writer layout still supports analysis-style access patterns.

use crate::api::{self, Pmem};
use crate::element::{slice_as_bytes_mut, Element};
use crate::error::{PmemCpyError, Result};

/// The intersection of two boxes, or None if disjoint.
/// Boxes are (offset, dims) pairs of equal rank.
pub(crate) fn intersect(
    a_off: &[u64],
    a_dims: &[u64],
    b_off: &[u64],
    b_dims: &[u64],
) -> Option<(Vec<u64>, Vec<u64>)> {
    let nd = a_off.len();
    let mut off = Vec::with_capacity(nd);
    let mut dims = Vec::with_capacity(nd);
    for d in 0..nd {
        let lo = a_off[d].max(b_off[d]);
        let hi = (a_off[d] + a_dims[d]).min(b_off[d] + b_dims[d]);
        if hi <= lo {
            return None;
        }
        off.push(lo);
        dims.push(hi - lo);
    }
    Some((off, dims))
}

/// Copy box `sect` (global coordinates) from a dense `src` block at
/// (src_off, src_dims) into a dense `dst` region at (dst_off, dst_dims).
/// Element size is `esize` bytes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn copy_box(
    esize: usize,
    sect_off: &[u64],
    sect_dims: &[u64],
    src: &[u8],
    src_off: &[u64],
    src_dims: &[u64],
    dst: &mut [u8],
    dst_off: &[u64],
    dst_dims: &[u64],
) {
    let nd = sect_off.len();
    // Row-major strides of src and dst boxes.
    let strides = |dims: &[u64]| -> Vec<u64> {
        let mut s = vec![1u64; nd];
        for d in (0..nd.saturating_sub(1)).rev() {
            s[d] = s[d + 1] * dims[d + 1];
        }
        s
    };
    let ss = strides(src_dims);
    let ds = strides(dst_dims);
    let row = (sect_dims[nd - 1] as usize) * esize;
    let outer: u64 = sect_dims[..nd - 1].iter().product::<u64>().max(1);
    let mut idx = vec![0u64; nd.saturating_sub(1)];
    for _ in 0..outer {
        let mut s_lin = sect_off[nd - 1] - src_off[nd - 1];
        let mut d_lin = sect_off[nd - 1] - dst_off[nd - 1];
        for d in 0..nd - 1 {
            s_lin += (sect_off[d] + idx[d] - src_off[d]) * ss[d];
            d_lin += (sect_off[d] + idx[d] - dst_off[d]) * ds[d];
        }
        let s = s_lin as usize * esize;
        let t = d_lin as usize * esize;
        dst[t..t + row].copy_from_slice(&src[s..s + row]);
        for d in (0..nd - 1).rev() {
            idx[d] += 1;
            if idx[d] < sect_dims[d] {
                break;
            }
            idx[d] = 0;
        }
    }
}

impl Pmem {
    /// Load an arbitrary rectangular region of the decomposed array `id`
    /// into `dst` (dense row-major, `region_dims` shaped). The region may
    /// span any number of stored blocks; every element must be covered by
    /// some block or the call fails with `OutOfBounds`.
    ///
    /// Not supported with the `raw` serializer (it erases the per-block
    /// shape metadata the assembly needs).
    pub fn load_region<T: Element>(
        &self,
        id: &str,
        dst: &mut [T],
        region_off: &[u64],
        region_dims: &[u64],
    ) -> Result<()> {
        if !self.options().resolve_serializer()?.self_describing() {
            return Err(PmemCpyError::Config(
                "load_region needs a self-describing serializer".into(),
            ));
        }
        let (dtype, global) = self.load_dims(id)?;
        self.check_dtype(id, dtype, T::DTYPE)?;
        api::validate_block(id, &global, region_off, region_dims)?;
        api::check_elements(id, region_dims, dst.len())?;
        let want = dst.len() as u64;

        let (layout, _machine) = self.layout_and_machine()?;
        let clock = self.clock()?;
        let esize = T::DTYPE.size() as usize;
        let prefix = format!("{id}#block@");
        let mut covered = 0u64;
        let dst_bytes = slice_as_bytes_mut(dst);
        for key in layout.keys(clock) {
            if !key.starts_with(&prefix) {
                continue;
            }
            let hdr = layout.stat(clock, &key)?;
            let (b_off, b_dims) = (&hdr.meta.offsets, &hdr.meta.dims);
            let Some((s_off, s_dims)) = intersect(region_off, region_dims, b_off, b_dims) else {
                continue;
            };
            // Load the whole block (per-block records are the I/O unit),
            // then copy the intersection into place.
            let mut batch = self.read_batch();
            let h = batch.load_bytes(key);
            let block = batch.commit()?.take(h);
            copy_box(
                esize,
                &s_off,
                &s_dims,
                &block,
                b_off,
                b_dims,
                dst_bytes,
                region_off,
                region_dims,
            );
            covered += s_dims.iter().product::<u64>();
        }
        if covered < want {
            return Err(PmemCpyError::OutOfBounds {
                id: id.to_string(),
                detail: format!(
                    "region only covered by stored blocks for {covered}/{want} elements"
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_basic_cases() {
        // Overlapping.
        let s = intersect(&[0, 0], &[4, 4], &[2, 2], &[4, 4]).unwrap();
        assert_eq!(s, (vec![2, 2], vec![2, 2]));
        // Contained.
        let s = intersect(&[1, 1], &[2, 2], &[0, 0], &[10, 10]).unwrap();
        assert_eq!(s, (vec![1, 1], vec![2, 2]));
        // Disjoint.
        assert!(intersect(&[0], &[4], &[4], &[4]).is_none());
        // Touching (empty).
        assert!(intersect(&[0, 0], &[2, 2], &[2, 0], &[2, 2]).is_none());
    }

    #[test]
    fn copy_box_moves_the_right_bytes() {
        // src: 4x4 block at (0,0) filled with its linear index.
        let src: Vec<u8> = (0..16u8).collect();
        // dst: 2x2 region at (1,1).
        let mut dst = vec![0u8; 4];
        copy_box(
            1,
            &[1, 1],
            &[2, 2],
            &src,
            &[0, 0],
            &[4, 4],
            &mut dst,
            &[1, 1],
            &[2, 2],
        );
        assert_eq!(dst, vec![5, 6, 9, 10]);
    }

    #[test]
    fn copy_box_3d() {
        // 2x2x2 source at origin, copy the z=1 plane into a 2x2x1 region.
        let src: Vec<u8> = (0..8u8).collect();
        let mut dst = vec![0u8; 4];
        copy_box(
            1,
            &[0, 0, 1],
            &[2, 2, 1],
            &src,
            &[0, 0, 0],
            &[2, 2, 2],
            &mut dst,
            &[0, 0, 1],
            &[2, 2, 1],
        );
        assert_eq!(dst, vec![1, 3, 5, 7]);
    }
}
