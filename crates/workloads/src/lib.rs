//! # workloads — scientific I/O workload generators
//!
//! The paper evaluates with a 3-D domain-decomposition write and its
//! symmetric read-back (§4.1), modelled on large regular stencil codes like
//! S3D. This crate provides the decomposition math
//! ([`decomp::BlockDecomp`], an `MPI_Dims_create` analogue), the workload
//! specification ([`domain3d::Domain3dSpec`]: 10 double-precision 3-D
//! variables totalling a configurable volume), deterministic data generation
//! and bit-exact verification.

#![warn(unreachable_pub)]

mod decomp;
mod domain3d;
pub mod particles;
mod storm;

pub use decomp::BlockDecomp;
pub use domain3d::{
    as_bytes, as_bytes_mut, element_value, generate_block, verify_block, Domain3dSpec,
};
pub use storm::StormSpec;
