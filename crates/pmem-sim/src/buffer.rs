//! A shared, concurrently-writable byte buffer: the device's backing store.
//!
//! HPC ranks write *disjoint* extents of the same device concurrently, which
//! Rust's `&mut` aliasing rules can't express through a shared handle. The
//! buffer therefore hands out raw-pointer copies internally and exposes a
//! safe-looking range API with one documented contract:
//!
//! > Concurrent accesses through a `SharedBuffer` must target disjoint byte
//! > ranges whenever at least one of them is a write.
//!
//! Every allocator in this workspace (the PMDK-style object allocator, the
//! simulated filesystem's extent allocator) hands out non-overlapping extents,
//! so the contract holds by construction; the debug-only overlap detector in
//! the device layer exists to catch violations in tests.

use std::cell::UnsafeCell;

/// Fixed-size shared byte buffer, zero-initialized.
pub(crate) struct SharedBuffer {
    data: Box<[UnsafeCell<u8>]>,
}

// SAFETY: access discipline is documented above; all mutation goes through
// raw pointers on disjoint ranges, equivalent to `&mut [u8]` splitting.
unsafe impl Send for SharedBuffer {}
unsafe impl Sync for SharedBuffer {}

impl SharedBuffer {
    /// Allocate `len` zeroed bytes.
    pub(crate) fn new(len: usize) -> Self {
        // A Vec of zeroed u8 transmutes layout-compatibly to UnsafeCell<u8>.
        let v: Vec<UnsafeCell<u8>> = (0..len).map(|_| UnsafeCell::new(0)).collect();
        SharedBuffer {
            data: v.into_boxed_slice(),
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    fn ptr(&self) -> *mut u8 {
        self.data.as_ptr() as *mut u8
    }

    /// Copy `src` into the buffer at `off`.
    ///
    /// Panics if the range is out of bounds. Concurrent calls must target
    /// disjoint ranges (see module docs).
    #[inline]
    pub(crate) fn write(&self, off: usize, src: &[u8]) {
        assert!(
            off.checked_add(src.len())
                .is_some_and(|end| end <= self.len()),
            "SharedBuffer write out of bounds: off={off} len={} cap={}",
            src.len(),
            self.len()
        );
        // SAFETY: bounds checked above; disjointness is the caller contract.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr().add(off), src.len());
        }
    }

    /// Copy from the buffer at `off` into `dst`.
    #[inline]
    pub(crate) fn read(&self, off: usize, dst: &mut [u8]) {
        assert!(
            off.checked_add(dst.len())
                .is_some_and(|end| end <= self.len()),
            "SharedBuffer read out of bounds: off={off} len={} cap={}",
            dst.len(),
            self.len()
        );
        // SAFETY: bounds checked above; disjointness is the caller contract.
        unsafe {
            std::ptr::copy_nonoverlapping(self.ptr().add(off), dst.as_mut_ptr(), dst.len());
        }
    }

    /// Zero the given range.
    pub(crate) fn zero(&self, off: usize, len: usize) {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= self.len()),
            "SharedBuffer zero out of bounds: off={off} len={len} cap={}",
            self.len()
        );
        // SAFETY: bounds checked above; disjointness is the caller contract.
        unsafe {
            std::ptr::write_bytes(self.ptr().add(off), 0, len);
        }
    }

    /// Read a copy of the range as a `Vec` (convenience for tests/metadata).
    pub(crate) fn read_vec(&self, off: usize, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.read(off, &mut v);
        v
    }

    /// Run `f` over the range as a borrowed slice — a zero-copy read.
    ///
    /// The disjointness contract extends over the whole call: no concurrent
    /// write may target `[off, off+len)` while `f` runs. All extents handed
    /// out by the workspace allocators are disjoint per record, so readers
    /// of committed records satisfy this by construction.
    #[inline]
    pub(crate) fn with_slice<R>(&self, off: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= self.len()),
            "SharedBuffer with_slice out of bounds: off={off} len={len} cap={}",
            self.len()
        );
        // SAFETY: bounds checked above; disjointness is the caller contract,
        // so no `&mut` alias of this range exists while the borrow lives.
        let slice = unsafe { std::slice::from_raw_parts(self.ptr().add(off) as *const u8, len) };
        f(slice)
    }

    /// Copy `len` bytes from `src_off` in `src` to `dst_off` in `self`.
    /// The two buffers may be the same object only if the ranges are disjoint.
    pub(crate) fn copy_from(&self, dst_off: usize, src: &SharedBuffer, src_off: usize, len: usize) {
        assert!(src_off + len <= src.len() && dst_off + len <= self.len());
        // SAFETY: bounds checked; caller guarantees disjointness.
        unsafe {
            std::ptr::copy_nonoverlapping(
                src.ptr().add(src_off) as *const u8,
                self.ptr().add(dst_off),
                len,
            );
        }
    }
}

impl std::fmt::Debug for SharedBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedBuffer")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn starts_zeroed() {
        let b = SharedBuffer::new(64);
        assert_eq!(b.read_vec(0, 64), vec![0u8; 64]);
    }

    #[test]
    fn write_then_read_round_trips() {
        let b = SharedBuffer::new(16);
        b.write(4, &[1, 2, 3, 4]);
        let mut out = [0u8; 4];
        b.read(4, &mut out);
        assert_eq!(out, [1, 2, 3, 4]);
        // Neighbours untouched.
        assert_eq!(b.read_vec(0, 4), vec![0; 4]);
        assert_eq!(b.read_vec(8, 8), vec![0; 8]);
    }

    #[test]
    fn zero_clears_range() {
        let b = SharedBuffer::new(8);
        b.write(0, &[0xFF; 8]);
        b.zero(2, 4);
        assert_eq!(b.read_vec(0, 8), vec![0xFF, 0xFF, 0, 0, 0, 0, 0xFF, 0xFF]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn write_past_end_panics() {
        let b = SharedBuffer::new(8);
        b.write(6, &[0; 4]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_overflow_panics() {
        let b = SharedBuffer::new(8);
        b.write(usize::MAX, &[0; 2]);
    }

    #[test]
    fn concurrent_disjoint_writes() {
        let b = Arc::new(SharedBuffer::new(64 * 1024));
        let mut handles = vec![];
        for i in 0..8usize {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                let chunk = vec![i as u8 + 1; 8 * 1024];
                b.write(i * 8 * 1024, &chunk);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..8usize {
            assert!(b.read_vec(i * 8192, 8192).iter().all(|&x| x == i as u8 + 1));
        }
    }

    #[test]
    fn with_slice_borrows_without_copying() {
        let b = SharedBuffer::new(16);
        b.write(4, &[1, 2, 3, 4]);
        let sum: u32 = b.with_slice(4, 4, |s| s.iter().map(|&x| x as u32).sum());
        assert_eq!(sum, 10);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn with_slice_past_end_panics() {
        let b = SharedBuffer::new(8);
        b.with_slice(6, 4, |_| ());
    }

    #[test]
    fn copy_between_buffers() {
        let a = SharedBuffer::new(8);
        let b = SharedBuffer::new(8);
        a.write(0, &[9; 8]);
        b.copy_from(2, &a, 1, 4);
        assert_eq!(b.read_vec(0, 8), vec![0, 0, 9, 9, 9, 9, 0, 0]);
    }
}
