//! Typed elements and plain-old-data structs storable through the API.
//!
//! The paper's API is templated (`pmem.store<T>(...)`). In Rust the same
//! surface is a pair of traits:
//!
//! * [`Element`] — primitive numeric types with a wire [`Datatype`], used for
//!   arrays (`store_slice`, `store_block`, ...).
//! * [`Pod`] — fixed-layout structs ("compound types") that can be stored
//!   byte-wise; implement it with [`impl_pod!`](crate::impl_pod) after making the struct
//!   `#[repr(C)]` and padding-free.

use pserial::Datatype;

/// A primitive element type with a stable wire representation.
///
/// # Safety
/// Implementors must be `Copy` types with no padding and no invalid bit
/// patterns, whose in-memory layout is exactly `DTYPE.size()` little-endian
/// bytes (true for the std numeric types on every supported target).
pub unsafe trait Element: Copy + 'static {
    const DTYPE: Datatype;
}

// SAFETY (all): std numeric types are POD with the advertised sizes.
unsafe impl Element for u8 {
    const DTYPE: Datatype = Datatype::U8;
}
unsafe impl Element for i32 {
    const DTYPE: Datatype = Datatype::I32;
}
unsafe impl Element for u32 {
    const DTYPE: Datatype = Datatype::U32;
}
unsafe impl Element for i64 {
    const DTYPE: Datatype = Datatype::I64;
}
unsafe impl Element for u64 {
    const DTYPE: Datatype = Datatype::U64;
}
unsafe impl Element for f32 {
    const DTYPE: Datatype = Datatype::F32;
}
unsafe impl Element for f64 {
    const DTYPE: Datatype = Datatype::F64;
}

/// View a slice of elements as bytes.
pub(crate) fn slice_as_bytes<T: Element>(data: &[T]) -> &[u8] {
    // SAFETY: Element guarantees POD layout.
    unsafe { std::slice::from_raw_parts(data.as_ptr() as *const u8, std::mem::size_of_val(data)) }
}

/// View a mutable slice of elements as bytes.
pub(crate) fn slice_as_bytes_mut<T: Element>(data: &mut [T]) -> &mut [u8] {
    // SAFETY: Element guarantees POD layout and all bit patterns are valid.
    unsafe {
        std::slice::from_raw_parts_mut(data.as_mut_ptr() as *mut u8, std::mem::size_of_val(data))
    }
}

/// A fixed-layout struct storable byte-wise (a "compound type").
///
/// # Safety
/// Implementors must be `#[repr(C)]`, `Copy`, contain no padding bytes and
/// no invalid bit patterns (no bools, enums, or references).
pub unsafe trait Pod: Copy + 'static {}

/// Declare a struct as [`Pod`]. Checks size against the sum the caller
/// asserts, which catches accidental padding at compile time.
///
/// ```
/// use pmemcpy::impl_pod;
/// #[repr(C)]
/// #[derive(Clone, Copy, PartialEq, Debug)]
/// struct Particle { x: f64, y: f64, z: f64, id: u64 }
/// impl_pod!(Particle, 32);
/// ```
#[macro_export]
macro_rules! impl_pod {
    ($ty:ty, $size:expr) => {
        const _: () = assert!(
            std::mem::size_of::<$ty>() == $size,
            concat!("padding or size mismatch in Pod impl for ", stringify!($ty))
        );
        // SAFETY: caller asserts repr(C), Copy, no padding per macro contract.
        unsafe impl $crate::Pod for $ty {}
    };
}

/// View a Pod value as bytes.
pub(crate) fn pod_as_bytes<T: Pod>(v: &T) -> &[u8] {
    // SAFETY: Pod guarantees no padding / valid bit patterns.
    unsafe { std::slice::from_raw_parts(v as *const T as *const u8, std::mem::size_of::<T>()) }
}

/// Rebuild a Pod value from bytes.
pub(crate) fn pod_from_bytes<T: Pod>(bytes: &[u8]) -> T {
    assert_eq!(bytes.len(), std::mem::size_of::<T>(), "Pod size mismatch");
    // SAFETY: size checked; Pod allows any bit pattern.
    unsafe { std::ptr::read_unaligned(bytes.as_ptr() as *const T) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_byte_views_round_trip() {
        let data = [1.5f64, -2.0, 3.25];
        let bytes = slice_as_bytes(&data).to_vec();
        assert_eq!(bytes.len(), 24);
        let mut back = [0f64; 3];
        slice_as_bytes_mut(&mut back).copy_from_slice(&bytes);
        assert_eq!(back, data);
    }

    #[repr(C)]
    #[derive(Clone, Copy, PartialEq, Debug)]
    struct Particle {
        x: f64,
        y: f64,
        z: f64,
        id: u64,
    }
    impl_pod!(Particle, 32);

    #[test]
    fn pod_round_trip() {
        let p = Particle {
            x: 1.0,
            y: 2.0,
            z: 3.0,
            id: 42,
        };
        let bytes = pod_as_bytes(&p).to_vec();
        assert_eq!(bytes.len(), 32);
        let q: Particle = pod_from_bytes(&bytes);
        assert_eq!(p, q);
    }

    #[test]
    fn dtype_constants_match_sizes() {
        assert_eq!(
            <f64 as Element>::DTYPE.size() as usize,
            std::mem::size_of::<f64>()
        );
        assert_eq!(
            <u32 as Element>::DTYPE.size() as usize,
            std::mem::size_of::<u32>()
        );
        assert_eq!(
            <u8 as Element>::DTYPE.size() as usize,
            std::mem::size_of::<u8>()
        );
    }
}
