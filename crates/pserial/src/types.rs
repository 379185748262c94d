//! Value model: typed N-D array variables, the currency of PIO libraries.

use crate::error::{Result, SerialError};

/// Element datatypes the I/O stack understands (the HDF5/NetCDF basics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Datatype {
    U8,
    I32,
    U32,
    I64,
    U64,
    F32,
    F64,
}

impl Datatype {
    /// Element size in bytes.
    pub const fn size(self) -> u64 {
        match self {
            Datatype::U8 => 1,
            Datatype::I32 | Datatype::U32 | Datatype::F32 => 4,
            Datatype::I64 | Datatype::U64 | Datatype::F64 => 8,
        }
    }

    /// Stable wire code.
    pub const fn code(self) -> u8 {
        match self {
            Datatype::U8 => 0,
            Datatype::I32 => 1,
            Datatype::U32 => 2,
            Datatype::I64 => 3,
            Datatype::U64 => 4,
            Datatype::F32 => 5,
            Datatype::F64 => 6,
        }
    }

    pub fn from_code(c: u8) -> Result<Self> {
        Ok(match c {
            0 => Datatype::U8,
            1 => Datatype::I32,
            2 => Datatype::U32,
            3 => Datatype::I64,
            4 => Datatype::U64,
            5 => Datatype::F32,
            6 => Datatype::F64,
            other => return Err(SerialError::UnknownCode(other)),
        })
    }
}

/// Metadata describing one stored variable (or one rank's block of it).
///
/// `dims` are the *local* block dimensions; `offsets` position the block in
/// the `global_dims` array (empty for non-decomposed variables). This is the
/// "minimal metadata necessary to deserialize the data structures" the paper
/// promises, plus the decomposition info ADIOS also records per block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarMeta {
    pub name: String,
    pub dtype: Datatype,
    pub dims: Vec<u64>,
    pub offsets: Vec<u64>,
    pub global_dims: Vec<u64>,
}

impl VarMeta {
    /// A scalar (zero-dimensional) variable.
    pub fn scalar(name: impl Into<String>, dtype: Datatype) -> Self {
        VarMeta {
            name: name.into(),
            dtype,
            dims: vec![],
            offsets: vec![],
            global_dims: vec![],
        }
    }

    /// A dense local array with no global decomposition.
    pub fn local_array(name: impl Into<String>, dtype: Datatype, dims: &[u64]) -> Self {
        VarMeta {
            name: name.into(),
            dtype,
            dims: dims.to_vec(),
            offsets: vec![0; dims.len()],
            global_dims: dims.to_vec(),
        }
    }

    /// A rank's block of a globally-decomposed array.
    pub fn block(
        name: impl Into<String>,
        dtype: Datatype,
        global_dims: &[u64],
        offsets: &[u64],
        dims: &[u64],
    ) -> Self {
        assert_eq!(global_dims.len(), offsets.len());
        assert_eq!(global_dims.len(), dims.len());
        VarMeta {
            name: name.into(),
            dtype,
            dims: dims.to_vec(),
            offsets: offsets.to_vec(),
            global_dims: global_dims.to_vec(),
        }
    }

    /// Number of elements in the local block (1 for scalars).
    #[cfg(test)]
    fn elements(&self) -> u64 {
        self.dims.iter().product::<u64>().max(1)
    }

    /// Payload bytes of the local block.
    #[cfg(test)]
    pub(crate) fn payload_len(&self) -> u64 {
        self.elements() * self.dtype.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datatype_codes_round_trip() {
        for dt in [
            Datatype::U8,
            Datatype::I32,
            Datatype::U32,
            Datatype::I64,
            Datatype::U64,
            Datatype::F32,
            Datatype::F64,
        ] {
            assert_eq!(Datatype::from_code(dt.code()).unwrap(), dt);
        }
        assert!(Datatype::from_code(99).is_err());
    }

    #[test]
    fn sizes_are_the_native_ones() {
        assert_eq!(Datatype::F64.size(), 8);
        assert_eq!(Datatype::F32.size(), 4);
        assert_eq!(Datatype::U8.size(), 1);
    }

    #[test]
    fn scalar_meta_has_one_element() {
        let m = VarMeta::scalar("t", Datatype::F64);
        assert_eq!(m.elements(), 1);
        assert_eq!(m.payload_len(), 8);
    }

    #[test]
    fn block_meta_computes_payload() {
        let m = VarMeta::block(
            "rho",
            Datatype::F64,
            &[100, 100, 100],
            &[0, 50, 0],
            &[100, 50, 100],
        );
        assert_eq!(m.elements(), 500_000);
        assert_eq!(m.payload_len(), 4_000_000);
    }
}
