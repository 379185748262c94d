//! Extent allocation over the device for file data.
//!
//! Files in the simulated filesystem are **single-extent**: each file's data
//! occupies one contiguous device range. This mirrors how a freshly-formatted
//! DAX filesystem lays out preallocated files, and it is what makes
//! whole-file `mmap` trivially contiguous. Growth that does not fit in place
//! relocates the extent (the VFS charges the copy).
//!
//! The allocator is a volatile first-fit free list with coalescing —
//! filesystem metadata durability is out of scope for the reproduction (the
//! paper never crash-tests the filesystem; the journaling cost is folded into
//! syscall constants).

use crate::error::{FsError, Result};
use std::collections::BTreeMap;

/// First-fit extent allocator with offset-ordered coalescing free list.
#[derive(Debug)]
pub(crate) struct ExtentAllocator {
    /// start -> len of each free range.
    free: BTreeMap<u64, u64>,
}

/// A contiguous device range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Extent {
    pub start: u64,
    pub len: u64,
}

impl ExtentAllocator {
    pub(crate) fn new(start: u64, len: u64) -> Self {
        let mut free = BTreeMap::new();
        if len > 0 {
            free.insert(start, len);
        }
        ExtentAllocator { free }
    }

    #[cfg(test)]
    fn free_bytes(&self) -> u64 {
        self.free.values().sum()
    }

    /// Allocate a contiguous extent of exactly `len` bytes (first fit).
    pub(crate) fn alloc(&mut self, len: u64) -> Result<Extent> {
        if len == 0 {
            return Ok(Extent { start: 0, len: 0 });
        }
        let found = self
            .free
            .iter()
            .find(|(_, &flen)| flen >= len)
            .map(|(&s, &flen)| (s, flen));
        let (start, flen) = found.ok_or(FsError::NoSpace { requested: len })?;
        self.free.remove(&start);
        if flen > len {
            self.free.insert(start + len, flen - len);
        }
        Ok(Extent { start, len })
    }

    /// Return an extent to the free pool, coalescing with neighbours.
    pub(crate) fn release(&mut self, ext: Extent) {
        if ext.len == 0 {
            return;
        }
        let mut start = ext.start;
        let mut len = ext.len;
        // Merge with predecessor.
        if let Some((&ps, &pl)) = self.free.range(..start).next_back() {
            assert!(ps + pl <= start, "double free / overlap at {start:#x}");
            if ps + pl == start {
                self.free.remove(&ps);
                start = ps;
                len += pl;
            }
        }
        // Merge with successor.
        if let Some((&ns, &nl)) = self.free.range(start + len..).next() {
            if start + len == ns {
                self.free.remove(&ns);
                len += nl;
            }
        }
        assert!(
            self.free.range(start..start + len).next().is_none(),
            "free range overlap at {start:#x}"
        );
        self.free.insert(start, len);
    }

    /// Try to grow `ext` in place to `new_len`; true on success.
    pub(crate) fn grow_in_place(&mut self, ext: &mut Extent, new_len: u64) -> bool {
        if new_len <= ext.len {
            return true;
        }
        let need = new_len - ext.len;
        let next_start = ext.start + ext.len;
        if let Some(&flen) = self.free.get(&next_start) {
            if flen >= need {
                self.free.remove(&next_start);
                if flen > need {
                    self.free.insert(next_start + need, flen - need);
                }
                ext.len = new_len;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_release_restores_pool() {
        let mut a = ExtentAllocator::new(0, 1000);
        let e1 = a.alloc(100).unwrap();
        let e2 = a.alloc(200).unwrap();
        assert_eq!(a.free_bytes(), 700);
        a.release(e1);
        a.release(e2);
        assert_eq!(a.free_bytes(), 1000);
        // Fully coalesced: a single 1000-byte alloc succeeds.
        assert!(a.alloc(1000).is_ok());
    }

    #[test]
    fn first_fit_prefers_lowest_offset() {
        let mut a = ExtentAllocator::new(0, 1000);
        let e1 = a.alloc(100).unwrap();
        let _e2 = a.alloc(100).unwrap();
        a.release(e1);
        let e3 = a.alloc(50).unwrap();
        assert_eq!(e3.start, 0);
    }

    #[test]
    fn no_space_is_an_error() {
        let mut a = ExtentAllocator::new(0, 100);
        assert!(matches!(a.alloc(200), Err(FsError::NoSpace { .. })));
        // Fragmented: 2×40 free but not contiguous.
        let e1 = a.alloc(40).unwrap();
        let _e2 = a.alloc(20).unwrap();
        let _e3 = a.alloc(40).unwrap();
        a.release(e1);
        assert!(a.alloc(60).is_err());
    }

    #[test]
    fn grow_in_place_uses_adjacent_free_space() {
        let mut a = ExtentAllocator::new(0, 1000);
        let mut e = a.alloc(100).unwrap();
        assert!(a.grow_in_place(&mut e, 500));
        assert_eq!(e, Extent { start: 0, len: 500 });
        assert_eq!(a.free_bytes(), 500);
        // Block the neighbourhood and try again.
        let _wall = a.alloc(500).unwrap();
        assert!(!a.grow_in_place(&mut e, 600));
    }

    #[test]
    fn zero_len_operations_are_noops() {
        let mut a = ExtentAllocator::new(0, 100);
        let e = a.alloc(0).unwrap();
        assert_eq!(e.len, 0);
        a.release(e);
        assert_eq!(a.free_bytes(), 100);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn double_release_is_caught() {
        let mut a = ExtentAllocator::new(0, 1000);
        let e = a.alloc(64).unwrap();
        a.release(e);
        a.release(e);
    }
}
