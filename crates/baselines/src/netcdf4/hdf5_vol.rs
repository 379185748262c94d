//! HDF5-flavoured file header for the NetCDF-4 baseline.
//!
//! NetCDF-4 files *are* HDF5 files: an 8-byte format signature, a superblock,
//! and one object header per dataset recording its dataspace (global dims),
//! datatype and contiguous-layout data address. This codec keeps that
//! structure (signature, superblock, per-variable object headers, 512-byte
//! data alignment) in a simplified binary encoding.

use crate::contiguous::VarPlacement;
use crate::pio::{PioError, Result};

/// The HDF5 format signature.
pub(crate) const HDF5_SIGNATURE: [u8; 8] = [0x89, b'H', b'D', b'F', b'\r', b'\n', 0x1a, b'\n'];
/// HDF5 aligns raw data chunks; 512 mirrors the classic default.
pub(crate) const DATA_ALIGN: u64 = 512;

/// One dataset's definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Dataset {
    pub name: String,
    pub global_dims: Vec<u64>,
}

impl Dataset {
    pub(crate) fn byte_len(&self) -> u64 {
        self.global_dims.iter().product::<u64>() * 8
    }
}

/// Encode the full file header; returns (bytes, per-variable placements).
/// Data regions start after the header, each aligned to [`DATA_ALIGN`].
pub(crate) fn encode_header(datasets: &[Dataset]) -> (Vec<u8>, Vec<VarPlacement>) {
    let mut buf = Vec::new();
    buf.extend_from_slice(&HDF5_SIGNATURE);
    buf.extend_from_slice(&0u64.to_le_bytes()); // superblock v0 stub
    buf.extend_from_slice(&(datasets.len() as u32).to_le_bytes());

    // First pass: compute header size (object headers have known sizes).
    let mut header_len = buf.len() as u64;
    for d in datasets {
        header_len += 4 + d.name.len() as u64 + 1 + 1 + 8 * d.global_dims.len() as u64 + 8;
    }
    // Second pass: lay out data addresses and emit object headers.
    let mut placements = Vec::with_capacity(datasets.len());
    let mut cursor = header_len.div_ceil(DATA_ALIGN) * DATA_ALIGN;
    for d in datasets {
        buf.extend_from_slice(&(d.name.len() as u32).to_le_bytes());
        buf.extend_from_slice(d.name.as_bytes());
        buf.push(6); // datatype class: IEEE f64
        buf.push(d.global_dims.len() as u8);
        for &g in &d.global_dims {
            buf.extend_from_slice(&g.to_le_bytes());
        }
        buf.extend_from_slice(&cursor.to_le_bytes());
        placements.push(VarPlacement {
            name: d.name.clone(),
            data_offset: cursor,
        });
        cursor = (cursor + d.byte_len()).div_ceil(DATA_ALIGN) * DATA_ALIGN;
    }
    debug_assert_eq!(buf.len() as u64, header_len);
    (buf, placements)
}

/// Decode a header produced by [`encode_header`].
pub(crate) fn decode_header(bytes: &[u8]) -> Result<(Vec<Dataset>, Vec<VarPlacement>)> {
    if bytes.len() < 20 || bytes[..8] != HDF5_SIGNATURE {
        return Err(PioError::Format("not an HDF5 signature".into()));
    }
    let nvars = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    let mut pos = 20;
    let mut datasets = Vec::with_capacity(nvars);
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
        let mut dims = Vec::with_capacity(nd);
        for _ in 0..nd {
            dims.push(u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()));
        }
        let addr = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
        placements.push(VarPlacement {
            name: name.clone(),
            data_offset: addr,
        });
        datasets.push(Dataset {
            name,
            global_dims: dims,
        });
    }
    Ok((datasets, placements))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Dataset> {
        vec![
            Dataset {
                name: "rho".into(),
                global_dims: vec![16, 16, 16],
            },
            Dataset {
                name: "velocity_u".into(),
                global_dims: vec![16, 16, 16],
            },
        ]
    }

    #[test]
    fn encode_decode_round_trips() {
        let ds = sample();
        let (bytes, placements) = encode_header(&ds);
        let (ds2, placements2) = decode_header(&bytes).unwrap();
        assert_eq!(ds, ds2);
        assert_eq!(placements, placements2);
    }

    #[test]
    fn data_addresses_are_aligned_and_disjoint() {
        let ds = sample();
        let (bytes, placements) = encode_header(&ds);
        assert!(placements[0].data_offset >= bytes.len() as u64);
        for p in &placements {
            assert_eq!(p.data_offset % DATA_ALIGN, 0);
        }
        assert!(placements[1].data_offset >= placements[0].data_offset + ds[0].byte_len());
    }

    #[test]
    fn rejects_non_hdf5_bytes() {
        assert!(decode_header(b"CDF\x05 something else entirely").is_err());
        assert!(decode_header(&HDF5_SIGNATURE).is_err()); // truncated
    }
}
