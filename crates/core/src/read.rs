//! Group-lookup read batches: the read-side mirror of [`crate::WriteBatch`].
//!
//! A rank's restart/analysis step usually loads many variables back to back;
//! the classic path pays one metadata lookup round per key. A [`ReadBatch`]
//! collects the whole step and commits it through the bulk read seam
//! ([`Layout::load_many`](crate::layout::Layout::load_many) →
//! `PersistentHashtable::get_ref_many`): keys sharing a hashtable bucket are
//! resolved by a single chain walk, every header is decoded exactly once,
//! and each payload streams straight from the DAX mapping into its
//! destination — caller-provided buffers for the `_into` variants, freshly
//! sized allocations otherwise.
//!
//! ```text
//! let mut batch = pmem.read_batch();
//! let h = batch.load_slice::<f64>("temperature")?;
//! batch.load_block_into("A", &mut block, &off, &dims)?;
//! let mut results = batch.commit()?;
//! let temperature = results.take(h);
//! ```

use crate::api::{self, Pmem};
use crate::batch::MAX_GROUP_KEYS;
use crate::element::{slice_as_bytes_mut, Element};
use crate::error::{PmemCpyError, Result};
use crate::layout::ReadConsumer;
use pserial::{Datatype, VarHeader};
use std::any::Any;
use std::marker::PhantomData;

/// An allocation-erased `Vec<T>` the pipeline can fill byte-wise and the
/// caller can take back typed.
trait AnyVec: Any {
    fn bytes_mut(&mut self) -> &mut [u8];
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<T: Element> AnyVec for Vec<T> {
    fn bytes_mut(&mut self) -> &mut [u8] {
        slice_as_bytes_mut(self)
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Allocate a `Vec<T>` sized to the record's payload (element count derived
/// from the wire dtype size, as `Pmem::load_slice` always did).
fn make_slice_vec<T: Element>(_key: &str, payload_len: u64) -> Result<Box<dyn AnyVec>> {
    let n = (payload_len / T::DTYPE.size()) as usize;
    Ok(Box::new(vec![unsafe { std::mem::zeroed::<T>() }; n]))
}

/// Allocate a one-element `Vec<T>` for a scalar; a payload of any other
/// size fails the pipeline's exact-length check, as `load_scalar` always did.
fn make_scalar_vec<T: Element>(_key: &str, _payload_len: u64) -> Result<Box<dyn AnyVec>> {
    Ok(Box::new(vec![unsafe { std::mem::zeroed::<T>() }; 1]))
}

/// Where one staged key's payload lands.
enum Slot<'a> {
    /// A caller-provided buffer (`load_slice_into`, `load_block_into`).
    Into(&'a mut [u8]),
    /// A batch-owned allocation sized once the header is decoded.
    Alloc {
        make: fn(&str, u64) -> Result<Box<dyn AnyVec>>,
        vec: Option<Box<dyn AnyVec>>,
    },
}

/// A typed claim ticket on one staged read, redeemed against
/// [`ReadResults`] after [`ReadBatch::commit`].
pub struct GetHandle<T> {
    idx: usize,
    _marker: PhantomData<fn() -> T>,
}

/// A staged group of loads, resolved together. Created by
/// [`Pmem::read_batch`].
pub struct ReadBatch<'a> {
    pmem: &'a Pmem,
    keys: Vec<String>,
    expects: Vec<Option<Datatype>>,
    slots: Vec<Slot<'a>>,
}

/// The per-group [`ReadConsumer`]: hands the pipeline each record's
/// destination bytes once its header (and so its payload length) is known.
struct GroupConsumer<'s, 'a> {
    keys: &'s [String],
    slots: &'s mut [Slot<'a>],
}

impl ReadConsumer for GroupConsumer<'_, '_> {
    fn dst(&mut self, idx: usize, hdr: &VarHeader) -> Result<&mut [u8]> {
        match &mut self.slots[idx] {
            Slot::Into(buf) => Ok(buf),
            Slot::Alloc { make, vec } => {
                let v = make(&self.keys[idx], hdr.payload_len)?;
                Ok(vec.insert(v).bytes_mut())
            }
        }
    }
}

impl<'a> ReadBatch<'a> {
    pub(crate) fn new(pmem: &'a Pmem) -> Self {
        ReadBatch {
            pmem,
            keys: Vec::new(),
            expects: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// Staged loads not yet committed.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The dtype the committed header must carry for element type `T`; the
    /// raw serializer erases type metadata, so no expectation there.
    fn expect_for<T: Element>(&self) -> Option<Datatype> {
        if self.pmem.options().serializer == "raw" {
            None
        } else {
            Some(T::DTYPE)
        }
    }

    fn push<T>(&mut self, key: String, expect: Option<Datatype>, slot: Slot<'a>) -> GetHandle<T> {
        let idx = self.keys.len();
        self.keys.push(key);
        self.expects.push(expect);
        self.slots.push(slot);
        GetHandle {
            idx,
            _marker: PhantomData,
        }
    }

    /// Stage a scalar load (see [`Pmem::load_scalar`]); redeem with
    /// [`ReadResults::take_scalar`].
    pub fn load_scalar<T: Element>(&mut self, id: &str) -> Result<GetHandle<T>> {
        let expect = self.expect_for::<T>();
        Ok(self.push(
            id.to_string(),
            expect,
            Slot::Alloc {
                make: make_scalar_vec::<T>,
                vec: None,
            },
        ))
    }

    /// Stage a dense 1-D array load (see [`Pmem::load_slice`]); the vector
    /// is sized from the stored header at commit. Redeem with
    /// [`ReadResults::take`].
    pub fn load_slice<T: Element>(&mut self, id: &str) -> Result<GetHandle<Vec<T>>> {
        let expect = self.expect_for::<T>();
        Ok(self.push(
            id.to_string(),
            expect,
            Slot::Alloc {
                make: make_slice_vec::<T>,
                vec: None,
            },
        ))
    }

    /// Stage a dense 1-D array load into a caller-provided buffer (see
    /// [`Pmem::load_slice_into`]). The payload streams straight into `dst`
    /// at commit; the buffer length must match the stored element count.
    pub fn load_slice_into<T: Element>(
        &mut self,
        id: &str,
        dst: &'a mut [T],
    ) -> Result<GetHandle<()>> {
        let expect = self.expect_for::<T>();
        Ok(self.push(id.to_string(), expect, Slot::Into(slice_as_bytes_mut(dst))))
    }

    /// Stage this rank's block of the decomposed array `id` (see
    /// [`Pmem::load_block`]). Bounds against the global dims are the write
    /// side's concern; here `dst` must match the block's element count.
    pub fn load_block_into<T: Element>(
        &mut self,
        id: &str,
        dst: &'a mut [T],
        offsets: &[u64],
        dims: &[u64],
    ) -> Result<GetHandle<()>> {
        api::check_elements(id, dims, dst.len())?;
        let key = api::block_key(id, offsets);
        let expect = self.expect_for::<T>();
        Ok(self.push(key, expect, Slot::Into(slice_as_bytes_mut(dst))))
    }

    /// Stage a raw byte load of an internal companion key (`#dims`,
    /// `#attr:`); no dtype expectation.
    pub(crate) fn load_bytes(&mut self, key: String) -> GetHandle<Vec<u8>> {
        self.push(
            key,
            None,
            Slot::Alloc {
                make: make_slice_vec::<u8>,
                vec: None,
            },
        )
    }

    /// Resolve every staged load through the bulk read pipeline: groups of
    /// up to [`MAX_GROUP_KEYS`] keys each get one grouped lookup, one header
    /// pass, and direct payload streaming. Returns the redeemable results.
    pub fn commit(self) -> Result<ReadResults> {
        let ReadBatch {
            pmem,
            keys,
            expects,
            mut slots,
        } = self;
        let (layout, _machine) = pmem.layout_and_machine()?;
        let clock = pmem.clock()?;
        let mut headers = Vec::with_capacity(keys.len());
        for (kchunk, schunk) in keys
            .chunks(MAX_GROUP_KEYS)
            .zip(slots.chunks_mut(MAX_GROUP_KEYS))
        {
            let key_refs: Vec<&str> = kchunk.iter().map(|k| k.as_str()).collect();
            let mut consumer = GroupConsumer {
                keys: kchunk,
                slots: schunk,
            };
            headers.extend(layout.load_many(clock, &key_refs, &mut consumer)?);
        }
        for (i, hdr) in headers.iter().enumerate() {
            if let Some(expect) = expects[i] {
                if hdr.meta.dtype != expect {
                    return Err(PmemCpyError::ShapeMismatch {
                        id: keys[i].clone(),
                        detail: format!("stored dtype {:?}, requested {expect:?}", hdr.meta.dtype),
                    });
                }
            }
        }
        Ok(ReadResults {
            headers,
            owned: slots
                .into_iter()
                .map(|s| match s {
                    Slot::Alloc { vec, .. } => vec,
                    Slot::Into(_) => None,
                })
                .collect(),
        })
    }
}

/// Committed results of a [`ReadBatch`], redeemed by [`GetHandle`].
pub struct ReadResults {
    headers: Vec<VarHeader>,
    owned: Vec<Option<Box<dyn AnyVec>>>,
}

impl ReadResults {
    /// The decoded header of a staged read.
    pub fn header<T>(&self, h: &GetHandle<T>) -> &VarHeader {
        &self.headers[h.idx]
    }

    /// Take ownership of a batch-allocated vector. Panics if called twice
    /// with handles of the same index.
    pub fn take<T: Element>(&mut self, h: GetHandle<Vec<T>>) -> Vec<T> {
        let boxed = self.owned[h.idx]
            .take()
            .expect("result already taken or slot used a caller buffer");
        *boxed
            .into_any()
            .downcast::<Vec<T>>()
            .expect("handle type matches its staged slot")
    }

    /// Take a scalar result (see [`ReadBatch::load_scalar`]).
    pub fn take_scalar<T: Element>(&mut self, h: GetHandle<T>) -> T {
        let v: Vec<T> = {
            let boxed = self.owned[h.idx]
                .take()
                .expect("result already taken or slot used a caller buffer");
            *boxed
                .into_any()
                .downcast::<Vec<T>>()
                .expect("handle type matches its staged slot")
        };
        v[0]
    }
}
