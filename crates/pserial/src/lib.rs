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
//! Formats, by their [`by_name`] registry name:
//! * `"bp4"` ([`Bp4`]) — BP4-like, self-describing with min/max
//!   characteristics and trailing record lengths (the paper's default).
//! * `"cereal"` — plain field-ordered binary archive.
//! * `"capnp-lite"` — word-aligned, near-zero encode cost.
//! * `"raw"` — serialization disabled; metadata lives elsewhere.

#![warn(unreachable_pub)]

mod bp4;
mod capnp_lite;
mod cereal;
mod error;
pub mod io;
mod raw;
mod traits;
mod types;

pub use bp4::Bp4;
use capnp_lite::CapnpLite;
use cereal::Cereal;
pub use error::{Result, SerialError};
pub use io::{ReadSource, SliceSource, WriteSink};
use raw::Raw;
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

    /// `header_len` is where `read_header` leaves its source, the first
    /// payload byte, in every format and for any name length, rank and
    /// payload (up to three 256-byte windows); at most 8 bytes follow the
    /// payload: BP4's trailer is 8, capnp-lite's padding 0 to 7.
    #[test]
    fn header_len_is_where_the_payload_starts() {
        for s in all_formats() {
            for name_len in [1, 7, 8, 9, 100, 255, 256, 300] {
                for ndims in 0..=4u64 {
                    let dims: Vec<u64> = (1..=ndims).collect();
                    let offsets = vec![0; dims.len()];
                    let name = "n".repeat(name_len);
                    let meta = VarMeta::block(name, Datatype::U8, &dims, &offsets, &dims);
                    for len in [0, 1, 7, 9, 255, 256, 257, 512, 767, 768] {
                        let mut buf = Vec::new();
                        s.write_var(&meta, &vec![0xA5; len], &mut buf).unwrap();
                        let mut src = SliceSource::new(&buf);
                        s.read_header(&mut src).unwrap();
                        let (h, at) = (s.header_len(&meta), (s.name(), name_len, ndims, len));
                        assert_eq!(src.position(), h, "{at:?}");
                        let after = buf.len() as u64 - h - len as u64;
                        assert!(after <= 8, "{at:?}: {after} bytes after the payload");
                    }
                }
            }
        }
    }

    #[test]
    fn self_describing_formats_round_trip_meta() {
        let meta = VarMeta::block("T", Datatype::F32, &[10, 20], &[5, 0], &[5, 20]);
        let payload = vec![3u8; meta.payload_len() as usize];
        for s in all_formats() {
            if !s.self_describing() {
                assert_eq!(s.name(), "raw", "only raw stores bytes alone");
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
