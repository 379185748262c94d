//! BP4-like serialization: the paper's default format (same family as
//! ADIOS2's BP4).
//!
//! The real BP4 groups variables into per-writer "process groups" with a
//! trailing index; the properties that matter for the evaluation are kept:
//! self-describing records written in producer order, per-block dimension
//! triplets (local/global/offset — BP's "box" decomposition metadata), data
//! characteristics (min/max) computed at write time, and a trailing record
//! length enabling backward scans (BP's minifooter idiom).

use crate::error::{Result, SerialError};
use crate::io::*;
use crate::traits::{characterize, Serializer, VarHeader};
use crate::types::{Datatype, VarMeta};

pub(crate) const MAGIC: u32 = 0x4250_4C34; // "BPL4"
const VERSION: u8 = 4;

/// The BP4-like format singleton.
#[derive(Debug, Default, Clone, Copy)]
pub struct Bp4;

impl Serializer for Bp4 {
    fn name(&self) -> &'static str {
        "bp4"
    }

    fn cpu_cost_factor(&self) -> f64 {
        // Header encoding plus a full characterization pass over the data.
        0.5
    }

    fn serialized_len(&self, meta: &VarMeta, payload_len: u64) -> u64 {
        self.header_len(meta) + payload_len + 8 // trailing record length
    }

    fn header_len(&self, meta: &VarMeta) -> u64 {
        4 + 1 // magic + version
            + 4 + meta.name.len() as u64 // name
            + 1 // dtype
            + 1 // ndims
            + 3 * 8 * meta.dims.len() as u64 // dims, global_dims, offsets
            + 1 + 16 // characteristic count + min/max
            + 8 // payload_len
    }

    fn write_var(&self, meta: &VarMeta, payload: &[u8], sink: &mut dyn WriteSink) -> Result<()> {
        let start = sink.position();
        put_u32(sink, MAGIC)?;
        put_u8(sink, VERSION)?;
        put_str(sink, &meta.name)?;
        put_u8(sink, meta.dtype.code())?;
        put_u8(sink, meta.dims.len() as u8)?;
        for d in 0..meta.dims.len() {
            put_u64(sink, meta.dims[d])?;
            put_u64(sink, meta.global_dims[d])?;
            put_u64(sink, meta.offsets[d])?;
        }
        let (min, max) = characterize(meta, payload);
        put_u8(sink, 2)?; // characteristic count
        put_f64(sink, min)?;
        put_f64(sink, max)?;
        put_u64(sink, payload.len() as u64)?;
        // The trailer counts the whole record, its own 8 bytes included.
        let record_len = sink.position() - start + payload.len() as u64 + 8;
        sink.put_with_tail(payload, &record_len.to_le_bytes())?;
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
                expected: "BPL4",
                found: magic.to_le_bytes().to_vec(),
            });
        }
        let version = get_u8(src)?;
        if version != VERSION {
            return Err(SerialError::Corrupt(format!(
                "unsupported BP version {version}"
            )));
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
        let nchar = get_u8(src)?;
        if nchar != 2 {
            return Err(SerialError::Corrupt(format!(
                "expected 2 characteristics, got {nchar}"
            )));
        }
        let min = get_f64(src)?;
        let max = get_f64(src)?;
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
            min: Some(min),
            max: Some(max),
        })
    }

    fn read_payload(&self, src: &mut dyn ReadSource, dst: &mut [u8]) -> Result<()> {
        src.get(dst)?;
        // Consume the trailing record length.
        let _record_len = get_u64(src)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::SliceSource;

    fn sample() -> (VarMeta, Vec<u8>) {
        let meta = VarMeta::block("density", Datatype::F64, &[8, 8], &[4, 0], &[4, 8]);
        let payload: Vec<u8> = (0..32).flat_map(|i| (i as f64).to_le_bytes()).collect();
        (meta, payload)
    }

    #[test]
    fn round_trip_preserves_meta_and_payload() {
        let (meta, payload) = sample();
        let mut buf = Vec::new();
        Bp4.write_var(&meta, &payload, &mut buf).unwrap();
        let mut src = SliceSource::new(&buf);
        let (hdr, got) = Bp4.read_var(&mut src).unwrap();
        assert_eq!(hdr.meta, meta);
        assert_eq!(got, payload);
        assert_eq!(src.remaining(), 0);
    }

    #[test]
    fn length_prediction_is_exact() {
        let (meta, payload) = sample();
        let mut buf = Vec::new();
        Bp4.write_var(&meta, &payload, &mut buf).unwrap();
        assert_eq!(
            buf.len() as u64,
            Bp4.serialized_len(&meta, payload.len() as u64)
        );
    }

    #[test]
    fn characteristics_are_recorded() {
        let (meta, payload) = sample();
        let mut buf = Vec::new();
        Bp4.write_var(&meta, &payload, &mut buf).unwrap();
        let hdr = Bp4.read_header(&mut SliceSource::new(&buf)).unwrap();
        assert_eq!(hdr.min, Some(0.0));
        assert_eq!(hdr.max, Some(31.0));
    }

    #[test]
    fn trailing_record_len_supports_backward_scan() {
        let (meta, payload) = sample();
        let mut buf = Vec::new();
        Bp4.write_var(&meta, &payload, &mut buf).unwrap();
        let record_len = u64::from_le_bytes(buf[buf.len() - 8..].try_into().unwrap());
        assert_eq!(record_len as usize, buf.len());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let buf = vec![0u8; 64];
        assert!(matches!(
            Bp4.read_header(&mut SliceSource::new(&buf)),
            Err(SerialError::BadMagic { .. })
        ));
    }

    #[test]
    fn scalar_round_trip() {
        let meta = VarMeta::scalar("step", Datatype::U64);
        let payload = 42u64.to_le_bytes().to_vec();
        let mut buf = Vec::new();
        Bp4.write_var(&meta, &payload, &mut buf).unwrap();
        let (hdr, got) = Bp4.read_var(&mut SliceSource::new(&buf)).unwrap();
        assert_eq!(hdr.meta, meta);
        assert_eq!(got, payload);
    }
}
