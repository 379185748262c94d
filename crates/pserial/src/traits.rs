//! The serializer interface all formats implement.

use crate::error::Result;
use crate::io::{ReadSource, WriteSink};
use crate::types::VarMeta;

/// A decoded variable header: everything needed to place the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct VarHeader {
    pub meta: VarMeta,
    pub payload_len: u64,
    /// Format-computed data characteristics (BP-style min/max), if any.
    pub min: Option<f64>,
    pub max: Option<f64>,
}

/// A self-describing variable serialization format.
///
/// Contract: `write_var` emits exactly `serialized_len(meta, payload.len())`
/// bytes; after `read_header` the source is positioned at the first payload
/// byte, so the payload can be streamed *directly into the caller's buffer*
/// (no staging copy — the property pMEMCPY exploits in both directions).
pub trait Serializer: Send + Sync {
    fn name(&self) -> &'static str;

    /// Relative CPU cost of encoding one byte (multiplies the machine's
    /// base `serialize_ns_per_byte`). 0.0 = pure memcpy.
    fn cpu_cost_factor(&self) -> f64;

    /// Whether a decoded header carries the record's dtype and shape. A
    /// format that stores bytes only (raw) answers `false`: its readers
    /// re-attach the metadata themselves.
    fn self_describing(&self) -> bool {
        true
    }

    /// Exact on-wire size for this meta + payload length.
    fn serialized_len(&self, meta: &VarMeta, payload_len: u64) -> u64;

    /// The bytes `read_header` consumes for `meta`: where the payload
    /// starts. At most 8 bytes follow the payload (a trailer, padding).
    fn header_len(&self, meta: &VarMeta) -> u64;

    /// Encode header + payload into `sink`.
    fn write_var(&self, meta: &VarMeta, payload: &[u8], sink: &mut dyn WriteSink) -> Result<()>;

    /// Decode the header, leaving `src` at the payload start.
    fn read_header(&self, src: &mut dyn ReadSource) -> Result<VarHeader>;

    /// Stream the payload into `dst` (len from the header).
    fn read_payload(&self, src: &mut dyn ReadSource, dst: &mut [u8]) -> Result<()> {
        src.get(dst)
    }

    /// Convenience: decode header + payload into a fresh buffer.
    fn read_var(&self, src: &mut dyn ReadSource) -> Result<(VarHeader, Vec<u8>)> {
        let hdr = self.read_header(src)?;
        let mut payload = vec![0u8; hdr.payload_len as usize];
        self.read_payload(src, &mut payload)?;
        Ok((hdr, payload))
    }
}

/// Shared min/max characterization used by the BP4-like format (and
/// available to any other format that wants data statistics).
pub(crate) fn characterize(meta: &VarMeta, payload: &[u8]) -> (f64, f64) {
    use crate::types::Datatype::*;
    let esize = meta.dtype.size() as usize;
    if payload.is_empty() || esize == 0 || payload.len() < esize {
        return (0.0, 0.0);
    }
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for chunk in payload.chunks_exact(esize) {
        let v = match meta.dtype {
            U8 => chunk[0] as f64,
            I32 => i32::from_le_bytes(chunk.try_into().unwrap()) as f64,
            U32 => u32::from_le_bytes(chunk.try_into().unwrap()) as f64,
            I64 => i64::from_le_bytes(chunk.try_into().unwrap()) as f64,
            U64 => u64::from_le_bytes(chunk.try_into().unwrap()) as f64,
            F32 => f32::from_le_bytes(chunk.try_into().unwrap()) as f64,
            F64 => f64::from_le_bytes(chunk.try_into().unwrap()),
        };
        min = min.min(v);
        max = max.max(v);
    }
    (min, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Datatype;

    #[test]
    fn characterize_f64_finds_extrema() {
        let meta = VarMeta::local_array("x", Datatype::F64, &[4]);
        let vals = [3.0f64, -1.5, 8.25, 0.0];
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(characterize(&meta, &bytes), (-1.5, 8.25));
    }

    #[test]
    fn characterize_i32() {
        let meta = VarMeta::local_array("x", Datatype::I32, &[3]);
        let bytes: Vec<u8> = [-7i32, 2, 5].iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(characterize(&meta, &bytes), (-7.0, 5.0));
    }

    #[test]
    fn characterize_empty_is_zero() {
        let meta = VarMeta::scalar("x", Datatype::F64);
        assert_eq!(characterize(&meta, &[]), (0.0, 0.0));
    }
}
