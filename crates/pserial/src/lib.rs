//! # pserial — pluggable serialization that can target PMEM directly
//!
//! §3 of the paper: *"pMEMCPY serializes the data using well-known, portable
//! serialization libraries, such as BP4, CapnProto, and cereal. By default,
//! the BP4 serialization (same as ADIOS) is used; however, other
//! serialization tools can be added, and serialization can be completely
//! disabled."* And crucially: *"pMEMCPY can serialize the data directly into
//! PMEM without first placing it in DRAM."*
//!
//! The [`io::WriteSink`]/[`io::ReadSource`] traits are the mechanism for the
//! second sentence: formats never allocate staging buffers — they stream
//! header and payload into whatever destination the caller provides, which
//! in the core library is the DAX mapping itself.
//!
//! Formats:
//! * [`bp4::Bp4`] — BP4-like, self-describing with min/max characteristics
//!   and trailing record lengths (the paper's default).
//! * [`cereal::Cereal`] — plain field-ordered binary archive.
//! * [`capnp_lite::CapnpLite`] — word-aligned, near-zero encode cost.
//! * [`raw::Raw`] — serialization disabled; metadata lives elsewhere.

pub mod bp4;
pub mod capnp_lite;
pub mod cereal;
pub mod error;
pub mod io;
pub mod raw;
pub mod traits;
pub mod types;

pub use bp4::Bp4;
pub use capnp_lite::CapnpLite;
pub use cereal::Cereal;
pub use error::{Result, SerialError};
pub use io::{ReadSource, SliceSink, SliceSource, WriteSink};
pub use raw::Raw;
pub use traits::{Serializer, VarHeader};
pub use types::{Datatype, VarMeta};

/// Look up a format by its registry name.
pub fn by_name(name: &str) -> Option<&'static dyn Serializer> {
    static BP4: Bp4 = Bp4;
    static CEREAL: Cereal = Cereal;
    static CAPNP: CapnpLite = CapnpLite;
    static RAW: Raw = Raw;
    match name {
        "bp4" => Some(&BP4),
        "cereal" => Some(&CEREAL),
        "capnp-lite" => Some(&CAPNP),
        "raw" => Some(&RAW),
        _ => None,
    }
}

/// All registered formats (for conformance tests and ablation benches).
pub fn all_formats() -> Vec<&'static dyn Serializer> {
    ["bp4", "cereal", "capnp-lite", "raw"]
        .iter()
        .map(|n| by_name(n).expect("registry self-consistency"))
        .collect()
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn registry_finds_every_format() {
        for s in all_formats() {
            assert_eq!(by_name(s.name()).unwrap().name(), s.name());
        }
        assert!(by_name("hdf5").is_none());
    }

    #[test]
    fn every_format_honours_its_length_contract() {
        let meta = VarMeta::block("var/with/path", Datatype::F64, &[6, 6], &[0, 3], &[6, 3]);
        let payload: Vec<u8> = (0..18u64)
            .flat_map(|i| (i as f64 * 0.5).to_le_bytes())
            .collect();
        for s in all_formats() {
            let mut buf = Vec::new();
            s.write_var(&meta, &payload, &mut buf).unwrap();
            assert_eq!(
                buf.len() as u64,
                s.serialized_len(&meta, payload.len() as u64),
                "format {}",
                s.name()
            );
        }
    }

    #[test]
    fn self_describing_formats_round_trip_meta() {
        let meta = VarMeta::block("T", Datatype::F32, &[10, 20], &[5, 0], &[5, 20]);
        let payload = vec![3u8; meta.payload_len() as usize];
        for s in all_formats() {
            if s.name() == "raw" {
                continue;
            }
            let mut buf = Vec::new();
            s.write_var(&meta, &payload, &mut buf).unwrap();
            let (hdr, got) = s.read_var(&mut SliceSource::new(&buf)).unwrap();
            assert_eq!(hdr.meta, meta, "format {}", s.name());
            assert_eq!(got, payload, "format {}", s.name());
        }
    }

    #[test]
    fn formats_reject_each_others_streams() {
        let meta = VarMeta::scalar("x", Datatype::U64);
        let payload = 1u64.to_le_bytes();
        for writer in all_formats() {
            let mut buf = Vec::new();
            writer.write_var(&meta, &payload, &mut buf).unwrap();
            for reader in all_formats() {
                if reader.name() == writer.name() {
                    continue;
                }
                assert!(
                    reader.read_header(&mut SliceSource::new(&buf)).is_err(),
                    "{} accepted a {} stream",
                    reader.name(),
                    writer.name()
                );
            }
        }
    }

    #[test]
    fn cost_factors_are_ordered_sensibly() {
        let f = |n: &str| by_name(n).unwrap().cpu_cost_factor();
        assert!(f("raw") < f("capnp-lite"));
        assert!(f("capnp-lite") < f("cereal"));
        assert!(f("cereal") < f("bp4"));
    }
}
