//! cereal-like binary archive (the C++ `cereal` library the paper lists as a
//! pluggable backend): a plain field-ordered little-endian binary archive
//! with no alignment, no characteristics, no trailer.

use crate::error::{Result, SerialError};
use crate::io::*;
use crate::traits::{Serializer, VarHeader};
use crate::types::{Datatype, VarMeta};

pub(crate) const MAGIC: u32 = 0x4352_4C31; // "CRL1"

#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Cereal;

impl Serializer for Cereal {
    fn name(&self) -> &'static str {
        "cereal"
    }

    fn cpu_cost_factor(&self) -> f64 {
        // Field-by-field archive encoding, no data pass.
        0.25
    }

    fn serialized_len(&self, meta: &VarMeta, payload_len: u64) -> u64 {
        self.header_len(meta) + payload_len
    }

    fn header_len(&self, meta: &VarMeta) -> u64 {
        4 // magic
            + 4 + meta.name.len() as u64
            + 1 // dtype
            + 1 // ndims
            + 3 * 8 * meta.dims.len() as u64
            + 8 // payload_len
    }

    fn write_var(&self, meta: &VarMeta, payload: &[u8], sink: &mut dyn WriteSink) -> Result<()> {
        let start = sink.position();
        put_u32(sink, MAGIC)?;
        put_str(sink, &meta.name)?;
        put_u8(sink, meta.dtype.code())?;
        put_u8(sink, meta.dims.len() as u8)?;
        for d in 0..meta.dims.len() {
            put_u64(sink, meta.dims[d])?;
            put_u64(sink, meta.global_dims[d])?;
            put_u64(sink, meta.offsets[d])?;
        }
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
                expected: "CRL1",
                found: magic.to_le_bytes().to_vec(),
            });
        }
        let name = get_str(src)?;
        let dtype = Datatype::from_code(get_u8(src)?)?;
        let ndims = get_u8(src)? as usize;
        if ndims > 16 {
            return Err(SerialError::Corrupt(format!("implausible ndims {ndims}")));
        }
        let (mut dims, mut gdims, mut offs) = (vec![], vec![], vec![]);
        for _ in 0..ndims {
            dims.push(get_u64(src)?);
            gdims.push(get_u64(src)?);
            offs.push(get_u64(src)?);
        }
        let payload_len = get_u64(src)?;
        Ok(VarHeader {
            meta: VarMeta {
                name,
                dtype,
                dims,
                offsets: offs,
                global_dims: gdims,
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
    fn round_trip() {
        let meta = VarMeta::block("u", Datatype::F32, &[10, 10, 10], &[0, 5, 0], &[10, 5, 10]);
        let payload = vec![7u8; meta.payload_len() as usize];
        let mut buf = Vec::new();
        Cereal.write_var(&meta, &payload, &mut buf).unwrap();
        assert_eq!(
            buf.len() as u64,
            Cereal.serialized_len(&meta, payload.len() as u64)
        );
        let mut src = SliceSource::new(&buf);
        let (hdr, got) = Cereal.read_var(&mut src).unwrap();
        assert_eq!(hdr.meta, meta);
        assert_eq!(got, payload);
        assert_eq!(hdr.min, None);
        assert_eq!(src.remaining(), 0);
    }

    #[test]
    fn is_denser_than_bp4() {
        use crate::bp4::Bp4;
        let meta = VarMeta::local_array("x", Datatype::F64, &[100]);
        assert!(Cereal.serialized_len(&meta, 800) < Bp4.serialized_len(&meta, 800));
    }

    #[test]
    fn rejects_foreign_magic() {
        let mut buf = Vec::new();
        crate::bp4::Bp4
            .write_var(&VarMeta::scalar("s", Datatype::U8), &[1], &mut buf)
            .unwrap();
        assert!(Cereal.read_header(&mut SliceSource::new(&buf)).is_err());
    }
}
