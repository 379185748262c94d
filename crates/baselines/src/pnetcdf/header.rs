//! CDF-5 style header for the pNetCDF baseline.
//!
//! pNetCDF keeps NetCDF-3's single self-describing header (extended for
//! 64-bit in CDF-5): magic `CDF\x05`, a dimension list, and a variable list
//! whose entries carry dimension ids, the external type, the variable size
//! and its `begin` byte offset. Data follows the header, packed (no HDF5
//! object headers, no 512-byte alignment — one structural difference from
//! the NetCDF-4 container).

use crate::contiguous::{Codec, VarPlacement};
use crate::pio::{PioError, Result};

pub(crate) const CDF5_MAGIC: [u8; 4] = [b'C', b'D', b'F', 0x05];
/// NC_DOUBLE external type code.
pub(crate) const NC_DOUBLE: u32 = 6;

/// The header codec of a pNetCDF file.
pub(super) struct Cdf5;

impl Codec for Cdf5 {
    /// Encode a CDF-5-style header for f64 variables sharing one dimension set.
    /// Returns (bytes, placements).
    fn encode(global_dims: &[u64], vars: &[String]) -> (Vec<u8>, Vec<VarPlacement>) {
        let mut buf = Vec::new();
        buf.extend_from_slice(&CDF5_MAGIC);
        buf.extend_from_slice(&0u64.to_le_bytes()); // numrecs (no record dim)

        // dim_list: shared by every variable.
        buf.extend_from_slice(&(global_dims.len() as u32).to_le_bytes());
        for (i, &d) in global_dims.iter().enumerate() {
            let name = format!("dim{i}");
            buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
            buf.extend_from_slice(name.as_bytes());
            buf.extend_from_slice(&d.to_le_bytes());
        }

        // var_list sizing pass.
        buf.extend_from_slice(&(vars.len() as u32).to_le_bytes());
        let mut header_len = buf.len() as u64;
        for name in vars {
            header_len += 4 + name.len() as u64 // name
                + 4 // ndims
                + 4 * global_dims.len() as u64 // dimids
                + 4 // type
                + 8 // vsize
                + 8; // begin
        }
        let vsize: u64 = global_dims.iter().product::<u64>() * 8;
        let mut begin = header_len;
        let mut placements = Vec::with_capacity(vars.len());
        for name in vars {
            buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
            buf.extend_from_slice(name.as_bytes());
            buf.extend_from_slice(&(global_dims.len() as u32).to_le_bytes());
            for i in 0..global_dims.len() {
                buf.extend_from_slice(&(i as u32).to_le_bytes());
            }
            buf.extend_from_slice(&NC_DOUBLE.to_le_bytes());
            buf.extend_from_slice(&vsize.to_le_bytes());
            buf.extend_from_slice(&begin.to_le_bytes());
            placements.push(VarPlacement {
                name: name.clone(),
                data_offset: begin,
            });
            begin += vsize;
        }
        debug_assert_eq!(buf.len() as u64, header_len);
        (buf, placements)
    }

    /// Decode the placements from a header produced by [`Codec::encode`].
    fn decode(bytes: &[u8]) -> Result<Vec<VarPlacement>> {
        if bytes.len() < 4 || bytes[..4] != CDF5_MAGIC {
            return Err(PioError::Format("not a CDF-5 header".into()));
        }
        let mut pos = 12; // magic + numrecs
        let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
            if *pos + n > bytes.len() {
                return Err(PioError::Format("truncated CDF-5 header".into()));
            }
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        let ndims = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        for _ in 0..ndims {
            let nlen = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
            take(&mut pos, nlen + 8)?; // dim name, dim length
        }
        let nvars = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        let mut placements = Vec::with_capacity(nvars);
        for _ in 0..nvars {
            let nlen = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
            let name = String::from_utf8(take(&mut pos, nlen)?.to_vec())
                .map_err(|_| PioError::Format("bad var name".into()))?;
            let vd = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
            take(&mut pos, 4 * vd)?; // dimids
            let ty = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
            if ty != NC_DOUBLE {
                return Err(PioError::Format(format!("unsupported external type {ty}")));
            }
            take(&mut pos, 8)?; // vsize
            let begin = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
            placements.push(VarPlacement {
                name,
                data_offset: begin,
            });
        }
        Ok(placements)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trips() {
        let vars = vec!["rho".to_string(), "E".to_string()];
        let (bytes, placements) = Cdf5::encode(&[10, 20, 30], &vars);
        assert_eq!(Cdf5::decode(&bytes).unwrap(), placements);
        let names: Vec<_> = placements.iter().map(|p| p.name.clone()).collect();
        assert_eq!(names, vars);
    }

    #[test]
    fn data_is_packed_immediately_after_header() {
        let (bytes, placements) = Cdf5::encode(&[4, 4], &["a".to_string(), "b".to_string()]);
        assert_eq!(placements[0].data_offset, bytes.len() as u64);
        assert_eq!(placements[1].data_offset, bytes.len() as u64 + 4 * 4 * 8);
    }

    #[test]
    fn rejects_hdf5_bytes() {
        let sig = [0x89, b'H', b'D', b'F', b'\r', b'\n', 0x1a, b'\n'];
        assert!(Cdf5::decode(&sig).is_err());
    }
}
