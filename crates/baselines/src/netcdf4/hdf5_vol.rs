//! HDF5-flavoured file header for the NetCDF-4 baseline.
//!
//! NetCDF-4 files *are* HDF5 files: an 8-byte format signature, a superblock,
//! and one object header per dataset recording its dataspace (global dims),
//! datatype and contiguous-layout data address. This codec keeps that
//! structure (signature, superblock, per-variable object headers, 512-byte
//! data alignment) in a simplified binary encoding.

use crate::contiguous::{Codec, VarPlacement};
use crate::pio::{PioError, Result};

/// The HDF5 format signature.
pub(crate) const HDF5_SIGNATURE: [u8; 8] = [0x89, b'H', b'D', b'F', b'\r', b'\n', 0x1a, b'\n'];
/// HDF5 aligns raw data chunks; 512 mirrors the classic default.
pub(crate) const DATA_ALIGN: u64 = 512;

/// The header codec of a NetCDF-4 file.
pub(super) struct Hdf5;

impl Codec for Hdf5 {
    /// Encode the full file header of `vars`, one f64 dataset each of shape
    /// `global_dims`; returns (bytes, per-variable placements). Data regions
    /// start after the header, each aligned to [`DATA_ALIGN`].
    fn encode(global_dims: &[u64], vars: &[String]) -> (Vec<u8>, Vec<VarPlacement>) {
        let mut buf = Vec::new();
        buf.extend_from_slice(&HDF5_SIGNATURE);
        buf.extend_from_slice(&0u64.to_le_bytes()); // superblock v0 stub
        buf.extend_from_slice(&(vars.len() as u32).to_le_bytes());

        // First pass: compute header size (object headers have known sizes).
        let mut header_len = buf.len() as u64;
        for name in vars {
            header_len += 4 + name.len() as u64 + 1 + 1 + 8 * global_dims.len() as u64 + 8;
        }
        // Second pass: lay out data addresses and emit object headers.
        let byte_len = global_dims.iter().product::<u64>() * 8;
        let mut placements = Vec::with_capacity(vars.len());
        let mut cursor = header_len.div_ceil(DATA_ALIGN) * DATA_ALIGN;
        for name in vars {
            buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
            buf.extend_from_slice(name.as_bytes());
            buf.push(6); // datatype class: IEEE f64
            buf.push(global_dims.len() as u8);
            for &g in global_dims {
                buf.extend_from_slice(&g.to_le_bytes());
            }
            buf.extend_from_slice(&cursor.to_le_bytes());
            placements.push(VarPlacement {
                name: name.clone(),
                data_offset: cursor,
            });
            cursor = (cursor + byte_len).div_ceil(DATA_ALIGN) * DATA_ALIGN;
        }
        debug_assert_eq!(buf.len() as u64, header_len);
        (buf, placements)
    }

    /// Decode the placements from a header produced by [`Codec::encode`].
    fn decode(bytes: &[u8]) -> Result<Vec<VarPlacement>> {
        if bytes.len() < 20 || bytes[..8] != HDF5_SIGNATURE {
            return Err(PioError::Format("not an HDF5 signature".into()));
        }
        let nvars = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        let mut pos = 20;
        let mut placements = Vec::with_capacity(nvars);
        for _ in 0..nvars {
            let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
                if *pos + n > bytes.len() {
                    return Err(PioError::Format("truncated HDF5 header".into()));
                }
                let s = &bytes[*pos..*pos + n];
                *pos += n;
                Ok(s)
            };
            let nlen = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
            let name = String::from_utf8(take(&mut pos, nlen)?.to_vec())
                .map_err(|_| PioError::Format("bad dataset name".into()))?;
            let class = take(&mut pos, 1)?[0];
            if class != 6 {
                return Err(PioError::Format(format!(
                    "unsupported datatype class {class}"
                )));
            }
            let nd = take(&mut pos, 1)?[0] as usize;
            take(&mut pos, 8 * nd)?; // dataspace: the global dims
            let addr = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
            placements.push(VarPlacement {
                name,
                data_offset: addr,
            });
        }
        Ok(placements)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<String> {
        vec!["rho".into(), "velocity_u".into()]
    }

    #[test]
    fn encode_decode_round_trips() {
        let (bytes, placements) = Hdf5::encode(&[16, 16, 16], &sample());
        assert_eq!(Hdf5::decode(&bytes).unwrap(), placements);
        let names: Vec<_> = placements.iter().map(|p| p.name.clone()).collect();
        assert_eq!(names, sample());
    }

    #[test]
    fn data_addresses_are_aligned_and_disjoint() {
        let (bytes, placements) = Hdf5::encode(&[16, 16, 16], &sample());
        assert!(placements[0].data_offset >= bytes.len() as u64);
        for p in &placements {
            assert_eq!(p.data_offset % DATA_ALIGN, 0);
        }
        assert!(placements[1].data_offset >= placements[0].data_offset + 16 * 16 * 16 * 8);
    }

    #[test]
    fn rejects_non_hdf5_bytes() {
        assert!(Hdf5::decode(b"CDF\x05 something else entirely").is_err());
        assert!(Hdf5::decode(&HDF5_SIGNATURE).is_err()); // truncated
    }
}
