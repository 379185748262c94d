//! Raw mode: "serialization can be completely disabled" (§3).
//!
//! The payload is stored verbatim behind a 16-byte length frame; all
//! structural metadata (dtype, dims) lives elsewhere — in pMEMCPY's case, in
//! the automatically-stored `<id>#dims` companion entry. Decoding therefore
//! returns a bytes-only meta; callers re-attach the real metadata.

use crate::error::{Result, SerialError};
use crate::io::*;
use crate::traits::{Serializer, VarHeader};
use crate::types::{Datatype, VarMeta};

pub(crate) const MAGIC: u32 = 0x5241_5731; // "RAW1"

#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Raw;

impl Serializer for Raw {
    fn name(&self) -> &'static str {
        "raw"
    }

    fn cpu_cost_factor(&self) -> f64 {
        0.0 // pure memcpy
    }

    fn self_describing(&self) -> bool {
        false
    }

    fn serialized_len(&self, meta: &VarMeta, payload_len: u64) -> u64 {
        self.header_len(meta) + payload_len
    }

    fn header_len(&self, _meta: &VarMeta) -> u64 {
        4 + 4 + 8 // magic + pad + len
    }

    fn write_var(&self, meta: &VarMeta, payload: &[u8], sink: &mut dyn WriteSink) -> Result<()> {
        let start = sink.position();
        put_u32(sink, MAGIC)?;
        put_u32(sink, 0)?; // reserved/padding: keeps the payload 8-aligned
        put_u64(sink, payload.len() as u64)?;
        sink.put(payload)?;
        debug_assert_eq!(
            sink.position() - start,
            self.serialized_len(meta, payload.len() as u64)
        );
        Ok(())
    }

    fn read_header(&self, src: &mut dyn ReadSource) -> Result<VarHeader> {
        let magic = get_u32(src)?;
        if magic != MAGIC {
            return Err(SerialError::BadMagic {
                expected: "RAW1",
                found: magic.to_le_bytes().to_vec(),
            });
        }
        let _pad = get_u32(src)?;
        let payload_len = get_u64(src)?;
        Ok(VarHeader {
            meta: VarMeta {
                name: String::new(),
                dtype: Datatype::U8,
                dims: vec![payload_len],
                offsets: vec![0],
                global_dims: vec![payload_len],
            },
            payload_len,
            min: None,
            max: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::SliceSource;

    #[test]
    fn round_trip_is_verbatim() {
        let meta = VarMeta::local_array("ignored", Datatype::F64, &[2]);
        let payload = vec![1u8, 2, 3, 4, 5];
        let mut buf = Vec::new();
        Raw.write_var(&meta, &payload, &mut buf).unwrap();
        assert_eq!(buf.len(), 16 + 5);
        assert_eq!(&buf[16..], &payload[..]);
        let (hdr, got) = Raw.read_var(&mut SliceSource::new(&buf)).unwrap();
        assert_eq!(hdr.payload_len, 5);
        assert_eq!(got, payload);
        // Structural meta is intentionally not preserved.
        assert_eq!(hdr.meta.name, "");
    }

    #[test]
    fn has_the_smallest_overhead() {
        use crate::{bp4::Bp4, capnp_lite::CapnpLite, cereal::Cereal};
        let meta = VarMeta::local_array("abc", Datatype::F64, &[100]);
        let raw = Raw.serialized_len(&meta, 800);
        assert!(raw < Cereal.serialized_len(&meta, 800));
        assert!(raw < CapnpLite.serialized_len(&meta, 800));
        assert!(raw < Bp4.serialized_len(&meta, 800));
    }
}
