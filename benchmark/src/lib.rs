//! The repository's benchmark: both clocks, end to end and per crate.
//!
//! Everything here measures the product crates *from outside*: it times calls
//! into their public functions and reads the counters they already export
//! (`Machine::stats`, `MetricsRegistry::snapshot`). See `README.md` for the
//! glossary of names, the workloads and the method.

pub mod comparator;
pub mod compare;
pub mod defs;
pub mod gen;
pub mod json;
pub mod ladder;
pub mod layers;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
