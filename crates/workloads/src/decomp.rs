//! Process-grid factorization and block decomposition (MPI_Dims_create
//! analogue + block partitioning with remainders).

/// Factor `nprocs` into `nd` grid dimensions as evenly as possible
/// (descending), like `MPI_Dims_create`.
pub(crate) fn balanced_grid(nprocs: u64, nd: usize) -> Vec<u64> {
    assert!(nprocs > 0 && nd > 0);
    let mut dims = vec![1u64; nd];
    let mut rest = nprocs;
    // Peel prime factors largest-first onto the currently-smallest dim.
    let mut factors = vec![];
    let mut n = rest;
    let mut p = 2;
    while p * p <= n {
        while n.is_multiple_of(p) {
            factors.push(p);
            n /= p;
        }
        p += 1;
    }
    if n > 1 {
        factors.push(n);
    }
    factors.sort_unstable_by(|a, b| b.cmp(a));
    for f in factors {
        let i = (0..nd).min_by_key(|&i| dims[i]).expect("nd > 0");
        dims[i] *= f;
        rest /= f;
    }
    debug_assert_eq!(rest, 1);
    dims.sort_unstable_by(|a, b| b.cmp(a));
    dims
}

/// A block decomposition of a global N-D array over a process grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockDecomp {
    pub global_dims: Vec<u64>,
    pub grid: Vec<u64>,
}

impl BlockDecomp {
    /// Decompose `global_dims` over `nprocs` ranks with a balanced grid.
    pub fn new(global_dims: &[u64], nprocs: u64) -> Self {
        let grid = balanced_grid(nprocs, global_dims.len());
        for (d, (&g, &p)) in global_dims.iter().zip(&grid).enumerate() {
            assert!(g >= p, "dim {d}: extent {g} smaller than grid {p}");
        }
        BlockDecomp {
            global_dims: global_dims.to_vec(),
            grid,
        }
    }

    pub fn nprocs(&self) -> u64 {
        self.grid.iter().product()
    }

    /// Grid coordinates of `rank` (row-major over the grid).
    pub(crate) fn coords(&self, rank: u64) -> Vec<u64> {
        assert!(rank < self.nprocs());
        let nd = self.grid.len();
        let mut c = vec![0u64; nd];
        let mut r = rank;
        for d in (0..nd).rev() {
            c[d] = r % self.grid[d];
            r /= self.grid[d];
        }
        c
    }

    /// `(offsets, dims)` of the block owned by `rank`. Remainder elements go
    /// to the leading ranks of each dimension (standard block partitioning).
    pub fn block(&self, rank: u64) -> (Vec<u64>, Vec<u64>) {
        let coords = self.coords(rank);
        let nd = self.grid.len();
        let mut offsets = vec![0u64; nd];
        let mut dims = vec![0u64; nd];
        for d in 0..nd {
            let (n, p, c) = (self.global_dims[d], self.grid[d], coords[d]);
            let base = n / p;
            let rem = n % p;
            dims[d] = base + u64::from(c < rem);
            offsets[d] = c * base + c.min(rem);
        }
        (offsets, dims)
    }

    /// Elements in `rank`'s block.
    pub fn block_elements(&self, rank: u64) -> u64 {
        self.block(rank).1.iter().product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_grid_matches_mpi_conventions() {
        assert_eq!(balanced_grid(8, 3), vec![2, 2, 2]);
        assert_eq!(balanced_grid(24, 3), vec![4, 3, 2]);
        assert_eq!(balanced_grid(48, 3), vec![4, 4, 3]);
        assert_eq!(balanced_grid(7, 3), vec![7, 1, 1]);
        assert_eq!(balanced_grid(1, 3), vec![1, 1, 1]);
        assert_eq!(balanced_grid(16, 2), vec![4, 4]);
    }

    #[test]
    fn grid_product_equals_nprocs() {
        for n in 1..=64u64 {
            let g = balanced_grid(n, 3);
            assert_eq!(g.iter().product::<u64>(), n, "n={n}");
        }
    }

    #[test]
    fn blocks_tile_the_global_array_exactly() {
        for nprocs in [1u64, 2, 3, 8, 24, 48] {
            let d = BlockDecomp::new(&[50, 60, 70], nprocs);
            let total: u64 = (0..nprocs).map(|r| d.block_elements(r)).sum();
            assert_eq!(total, 50 * 60 * 70, "nprocs={nprocs}");
        }
    }

    #[test]
    fn blocks_are_disjoint() {
        let d = BlockDecomp::new(&[10, 10, 10], 8);
        let mut seen = vec![false; 1000];
        for r in 0..8 {
            let (off, dims) = d.block(r);
            for x in off[0]..off[0] + dims[0] {
                for y in off[1]..off[1] + dims[1] {
                    for z in off[2]..off[2] + dims[2] {
                        let i = (x * 100 + y * 10 + z) as usize;
                        assert!(!seen[i], "element {i} owned twice");
                        seen[i] = true;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn remainders_go_to_leading_ranks() {
        let d = BlockDecomp::new(&[10], 3);
        assert_eq!(d.block(0), (vec![0], vec![4]));
        assert_eq!(d.block(1), (vec![4], vec![3]));
        assert_eq!(d.block(2), (vec![7], vec![3]));
    }

    #[test]
    fn load_is_balanced_within_one_row() {
        let d = BlockDecomp::new(&[100, 100, 100], 24);
        let sizes: Vec<u64> = (0..24).map(|r| d.block_elements(r)).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        // Equal share within a few percent (the paper divides 40 GB equally).
        assert!(
            (max - min) as f64 / (max as f64) < 0.1,
            "min={min} max={max}"
        );
    }
}
