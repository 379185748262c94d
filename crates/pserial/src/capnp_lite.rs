//! Cap'n-Proto-style format (the paper lists CapnProto as a backend): a
//! word-aligned layout whose payload sits at an 8-byte boundary, so a reader
//! with access to the mapped bytes could use the data in place. Encoding is
//! near-free (no data transformation), which is reflected in the low CPU
//! cost factor.

use crate::error::{Result, SerialError};
use crate::io::*;
use crate::traits::{Serializer, VarHeader};
use crate::types::{Datatype, VarMeta};

pub const MAGIC: u32 = 0x4350_4C31; // "CPL1"

#[derive(Debug, Default, Clone, Copy)]
pub struct CapnpLite;

/// Round `n` up to a multiple of 8 (one word).
fn word_align(n: u64) -> u64 {
    (n + 7) & !7
}

impl CapnpLite {
    /// Unpadded header length for `meta`.
    fn raw_header_len(meta: &VarMeta) -> u64 {
        4 // magic
            + 4 // header words (for in-place navigation)
            + 8 // payload_len
            + 1 // dtype
            + 1 // ndims
            + 4 + meta.name.len() as u64
            + 3 * 8 * meta.dims.len() as u64
    }

    /// Padded (word-aligned) header length.
    fn header_len(meta: &VarMeta) -> u64 {
        word_align(Self::raw_header_len(meta))
    }
}

impl Serializer for CapnpLite {
    fn name(&self) -> &'static str {
        "capnp-lite"
    }

    fn cpu_cost_factor(&self) -> f64 {
        // Zero-copy-style: fixed header, payload laid down verbatim.
        0.1
    }

    fn serialized_len(&self, meta: &VarMeta, payload_len: u64) -> u64 {
        Self::header_len(meta) + word_align(payload_len)
    }

    fn write_var(&self, meta: &VarMeta, payload: &[u8], sink: &mut dyn WriteSink) -> Result<()> {
        let start = sink.position();
        let header_len = Self::header_len(meta);
        put_u32(sink, MAGIC)?;
        put_u32(sink, (header_len / 8) as u32)?;
        put_u64(sink, payload.len() as u64)?;
        put_u8(sink, meta.dtype.code())?;
        put_u8(sink, meta.dims.len() as u8)?;
        put_str(sink, &meta.name)?;
        for d in 0..meta.dims.len() {
            put_u64(sink, meta.dims[d])?;
            put_u64(sink, meta.global_dims[d])?;
            put_u64(sink, meta.offsets[d])?;
        }
        // Pad header to the word boundary.
        let pad = header_len - (sink.position() - start);
        sink.put(&[0u8; 8][..pad as usize])?;
        sink.put(payload)?;
        let pad = word_align(payload.len() as u64) - payload.len() as u64;
        sink.put(&[0u8; 8][..pad as usize])?;
        debug_assert_eq!(
            sink.position() - start,
            self.serialized_len(meta, payload.len() as u64)
        );
        Ok(())
    }

    fn read_header(&self, src: &mut dyn ReadSource) -> Result<VarHeader> {
        let start = src.position();
        let magic = get_u32(src)?;
        if magic != MAGIC {
            return Err(SerialError::BadMagic {
                expected: "CPL1",
                found: magic.to_le_bytes().to_vec(),
            });
        }
        let header_words = get_u32(src)? as u64;
        let payload_len = get_u64(src)?;
        let dtype = Datatype::from_code(get_u8(src)?)?;
        let ndims = get_u8(src)? as usize;
        if ndims > 16 {
            return Err(SerialError::Corrupt(format!("implausible ndims {ndims}")));
        }
        let name = get_str(src)?;
        let (mut dims, mut gdims, mut offs) = (vec![], vec![], vec![]);
        for _ in 0..ndims {
            dims.push(get_u64(src)?);
            gdims.push(get_u64(src)?);
            offs.push(get_u64(src)?);
        }
        // Skip header padding to land on the word-aligned payload.
        let consumed = src.position() - start;
        let header_len = header_words * 8;
        if consumed > header_len {
            return Err(SerialError::Corrupt(
                "header overruns its declared size".into(),
            ));
        }
        src.skip(header_len - consumed)?;
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

    fn read_payload(&self, src: &mut dyn ReadSource, dst: &mut [u8]) -> Result<()> {
        src.get(dst)?;
        // Consume payload padding.
        src.skip(word_align(dst.len() as u64) - dst.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::SliceSource;

    #[test]
    fn round_trip_with_odd_sizes() {
        // Name and payload lengths chosen to exercise both padding paths.
        let meta = VarMeta::block("odd-named-var", Datatype::U8, &[13], &[3], &[7]);
        let payload = vec![0xABu8; 7];
        let mut buf = Vec::new();
        CapnpLite.write_var(&meta, &payload, &mut buf).unwrap();
        assert_eq!(buf.len() % 8, 0, "stream must stay word-aligned");
        assert_eq!(buf.len() as u64, CapnpLite.serialized_len(&meta, 7));
        let mut src = SliceSource::new(&buf);
        let (hdr, got) = CapnpLite.read_var(&mut src).unwrap();
        assert_eq!(hdr.meta, meta);
        assert_eq!(got, payload);
        assert_eq!(src.remaining(), 0);
    }

    #[test]
    fn payload_is_word_aligned_in_stream() {
        let meta = VarMeta::local_array("x", Datatype::F64, &[4]);
        let payload: Vec<u8> = (0..4).flat_map(|i| (i as f64).to_le_bytes()).collect();
        let mut buf = Vec::new();
        CapnpLite.write_var(&meta, &payload, &mut buf).unwrap();
        let header_len = CapnpLite::header_len(&meta) as usize;
        assert_eq!(header_len % 8, 0);
        assert_eq!(&buf[header_len..header_len + 32], &payload[..]);
    }

    #[test]
    fn two_records_back_to_back() {
        let m1 = VarMeta::scalar("a", Datatype::U64);
        let m2 = VarMeta::local_array("bb", Datatype::U8, &[3]);
        let mut buf = Vec::new();
        CapnpLite
            .write_var(&m1, &7u64.to_le_bytes(), &mut buf)
            .unwrap();
        CapnpLite.write_var(&m2, &[1, 2, 3], &mut buf).unwrap();
        let mut src = SliceSource::new(&buf);
        let (h1, p1) = CapnpLite.read_var(&mut src).unwrap();
        let (h2, p2) = CapnpLite.read_var(&mut src).unwrap();
        assert_eq!(h1.meta, m1);
        assert_eq!(p1, 7u64.to_le_bytes());
        assert_eq!(h2.meta, m2);
        assert_eq!(p2, [1, 2, 3]);
        assert_eq!(src.remaining(), 0);
    }
}
