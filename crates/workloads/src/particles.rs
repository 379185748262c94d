//! VPIC-style particle workload — the second canonical pattern from the
//! paper's workload source (Lofstead et al., "Six degrees of scientific
//! data" \[28\]): each rank owns a flat list of particles (position,
//! momentum, id), sizes may be *uneven* across ranks, and I/O is a 1-D
//! concatenation rather than an N-D decomposition.
//!
//! Exercises the I/O stack differently from the 3-D stencil: uneven block
//! sizes, interleaved component arrays, and integer + float payloads.

/// One particle: the classic 6 phase-space components plus a tag.
/// Stored as a struct-of-arrays (one array per component), the layout
/// particle codes actually write.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Particle {
    pub x: f64,
    pub y: f64,
    pub z: f64,
    pub ux: f64,
    pub uy: f64,
    pub uz: f64,
    pub id: u64,
}

/// Component names, in storage order.
pub const COMPONENTS: [&str; 7] = ["x", "y", "z", "ux", "uy", "uz", "id"];

/// Specification of a particle run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParticleSpec {
    /// Total particles across all ranks.
    pub total: u64,
    pub nprocs: u64,
}

impl ParticleSpec {
    pub fn new(total: u64, nprocs: u64) -> Self {
        assert!(nprocs > 0 && total >= nprocs);
        ParticleSpec { total, nprocs }
    }

    /// Particle count of `rank`. Deliberately uneven (±25% in a deterministic
    /// pattern) to exercise non-uniform block handling, with remainders
    /// folded into the last rank.
    pub fn count_of(&self, rank: u64) -> u64 {
        let base = self.total / self.nprocs;
        let jitter = base / 4;
        if self.nprocs == 1 {
            return self.total;
        }
        if rank == self.nprocs - 1 {
            // Whatever is left.
            self.total - (0..self.nprocs - 1).map(|r| self.count_of(r)).sum::<u64>()
        } else if rank.is_multiple_of(2) {
            base + jitter
        } else {
            base - jitter
        }
    }

    /// Global index of `rank`'s first particle.
    pub fn offset_of(&self, rank: u64) -> u64 {
        (0..rank).map(|r| self.count_of(r)).sum()
    }
}

/// Deterministic particle value for the global index `g`.
pub(crate) fn particle_at(g: u64) -> Particle {
    let f = |salt: u64| ((g.wrapping_mul(2654435761).wrapping_add(salt) % (1 << 40)) as f64) * 1e-6;
    Particle {
        x: f(1),
        y: f(2),
        z: f(3),
        ux: f(4),
        uy: f(5),
        uz: f(6),
        id: g,
    }
}

/// Generate `rank`'s particles.
pub fn generate_particles(spec: &ParticleSpec, rank: u64) -> Vec<Particle> {
    let off = spec.offset_of(rank);
    (0..spec.count_of(rank))
        .map(|i| particle_at(off + i))
        .collect()
}

/// Extract one float component as a dense array (struct-of-arrays view).
pub fn component_f64(particles: &[Particle], comp: &str) -> Vec<f64> {
    particles
        .iter()
        .map(|p| match comp {
            "x" => p.x,
            "y" => p.y,
            "z" => p.z,
            "ux" => p.ux,
            "uy" => p.uy,
            "uz" => p.uz,
            other => panic!("not a float component: {other}"),
        })
        .collect()
}

/// Extract the id component.
pub fn component_ids(particles: &[Particle]) -> Vec<u64> {
    particles.iter().map(|p| p.id).collect()
}

/// Rebuild particles from component arrays; panics on length mismatch.
pub fn assemble(comps: &[Vec<f64>; 6], ids: &[u64]) -> Vec<Particle> {
    let n = ids.len();
    for c in comps {
        assert_eq!(c.len(), n, "component length mismatch");
    }
    (0..n)
        .map(|i| Particle {
            x: comps[0][i],
            y: comps[1][i],
            z: comps[2][i],
            ux: comps[3][i],
            uy: comps[4][i],
            uz: comps[5][i],
            id: ids[i],
        })
        .collect()
}

/// Verify a rank's reassembled particles; returns mismatch count.
pub fn verify_particles(spec: &ParticleSpec, rank: u64, got: &[Particle]) -> usize {
    let expected = generate_particles(spec, rank);
    if expected.len() != got.len() {
        return expected.len().max(got.len());
    }
    expected.iter().zip(got).filter(|(a, b)| a != b).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_partition_the_total() {
        for nprocs in [1u64, 2, 3, 8, 24] {
            let spec = ParticleSpec::new(100_000, nprocs);
            let sum: u64 = (0..nprocs).map(|r| spec.count_of(r)).sum();
            assert_eq!(sum, 100_000, "nprocs={nprocs}");
            // Offsets are consistent with counts.
            for r in 1..nprocs {
                assert_eq!(
                    spec.offset_of(r),
                    spec.offset_of(r - 1) + spec.count_of(r - 1)
                );
            }
        }
    }

    #[test]
    fn counts_are_uneven_by_design() {
        let spec = ParticleSpec::new(100_000, 8);
        let counts: Vec<u64> = (0..8).map(|r| spec.count_of(r)).collect();
        assert!(counts.iter().max() > counts.iter().min());
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = ParticleSpec::new(10_000, 4);
        let a = generate_particles(&spec, 2);
        let b = generate_particles(&spec, 2);
        assert_eq!(a, b);
        assert_eq!(verify_particles(&spec, 2, &a), 0);
    }

    #[test]
    fn soa_round_trip() {
        let spec = ParticleSpec::new(5_000, 3);
        let parts = generate_particles(&spec, 1);
        let comps = [
            component_f64(&parts, "x"),
            component_f64(&parts, "y"),
            component_f64(&parts, "z"),
            component_f64(&parts, "ux"),
            component_f64(&parts, "uy"),
            component_f64(&parts, "uz"),
        ];
        let ids = component_ids(&parts);
        let back = assemble(&comps, &ids);
        assert_eq!(back, parts);
    }

    #[test]
    fn ids_are_globally_unique() {
        let spec = ParticleSpec::new(9_999, 5);
        let mut all: Vec<u64> = (0..5)
            .flat_map(|r| component_ids(&generate_particles(&spec, r)))
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 9_999);
    }

    #[test]
    fn verify_detects_corruption() {
        let spec = ParticleSpec::new(1_000, 2);
        let mut parts = generate_particles(&spec, 0);
        parts[10].ux += 1.0;
        assert_eq!(verify_particles(&spec, 0, &parts), 1);
    }
}
