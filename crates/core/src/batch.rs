//! Group-commit write batches.
//!
//! A rank's output step usually stores many variables back to back; the
//! classic path pays one pool transaction, one allocator pass and one
//! stripe-lock round per key. A [`WriteBatch`] collects the whole step and
//! commits it through the bulk seams instead
//! ([`Layout::store_many`](crate::layout::Layout::store_many) →
//! `PersistentHashtable::put_many` → `Heap::alloc_many`): one transaction,
//! one allocator pass, one entry-count update per group, with every value
//! serialized straight into its PMEM window, its block and entry headers
//! riding the record's first store, before the group is published. The
//! group's stripes are held across the serialization, the heap lock is
//! not: ranks copy their records side by side.
//!
//! ```text
//! let mut batch = pmem.batch();
//! for v in vars { batch.store_block(v.name, &v.data, &off, &dims)?; }
//! batch.commit()?;
//! ```
//!
//! Crash contract: each committed group is atomic — a crash mid-commit rolls
//! back the *entire* group (none of its keys visible, replaced values
//! intact). A batch is split into consecutive atomic groups at
//! [`MAX_GROUP_KEYS`] keys (well inside the transaction lane's log) and at a
//! repeated key (see [`WriteBatch::commit`]).

use crate::api::{self, Pmem};
use crate::element::{pod_as_bytes, slice_as_bytes, Element, Pod};
use crate::error::Result;
use crate::layout::PutRequest;
use pserial::{Datatype, VarMeta};
use std::borrow::Cow;
use std::collections::HashSet;

/// Largest group committed as one pool transaction. The lane's one log
/// bounds a group: a key logs at most 52 bytes (an intent, its head, an
/// unlink word, a replaced block's state word), 64 keys 3 328 of 16 376.
pub(crate) const MAX_GROUP_KEYS: usize = 64;

struct PendingPut<'a> {
    key: String,
    meta: VarMeta,
    payload: Cow<'a, [u8]>,
}

/// A staged group of stores, committed together. Created by
/// [`Pmem::batch`].
pub struct WriteBatch<'a> {
    pmem: &'a Pmem,
    pending: Vec<PendingPut<'a>>,
}

impl<'a> WriteBatch<'a> {
    pub(crate) fn new(pmem: &'a Pmem) -> Self {
        WriteBatch {
            pmem,
            pending: Vec::new(),
        }
    }

    /// Staged puts not yet committed.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    fn push(&mut self, key: String, meta: VarMeta, payload: Cow<'a, [u8]>) {
        self.pending.push(PendingPut { key, meta, payload });
    }

    /// Stage a scalar store (see [`Pmem::store_scalar`]).
    pub fn store_scalar<T: Element>(&mut self, id: &str, value: T) -> Result<()> {
        let meta = VarMeta::scalar(id, T::DTYPE);
        let bytes = slice_as_bytes(std::slice::from_ref(&value)).to_vec();
        self.push(id.to_string(), meta, Cow::Owned(bytes));
        Ok(())
    }

    /// Stage a dense 1-D array store (see [`Pmem::store_slice`]). The data
    /// is borrowed, not copied: it is serialized straight into PMEM at
    /// [`WriteBatch::commit`].
    pub fn store_slice<T: Element>(&mut self, id: &str, data: &'a [T]) -> Result<()> {
        let meta = VarMeta::local_array(id, T::DTYPE, &[data.len() as u64]);
        self.push(id.to_string(), meta, Cow::Borrowed(slice_as_bytes(data)));
        Ok(())
    }

    /// Stage a fixed-layout struct store (see [`Pmem::store_pod`]).
    pub(crate) fn store_pod<T: Pod>(&mut self, id: &str, value: &'a T) -> Result<()> {
        let meta = VarMeta::local_array(id, Datatype::U8, &[std::mem::size_of::<T>() as u64]);
        self.push(id.to_string(), meta, Cow::Borrowed(pod_as_bytes(value)));
        Ok(())
    }

    /// Stage the `"<id>#dims"` companion of a decomposed array (see
    /// [`Pmem::alloc`]). Blocks of `id` staged later in the same batch
    /// resolve their dims from this entry without a readback.
    pub fn alloc<T: Element>(&mut self, id: &str, global_dims: &[u64]) -> Result<()> {
        let key = api::dims_key(id);
        let payload = api::encode_dims_payload(T::DTYPE, global_dims);
        let meta = VarMeta::local_array(&key, Datatype::U8, &[payload.len() as u64]);
        self.push(key, meta, Cow::Owned(payload));
        Ok(())
    }

    /// Stage this rank's block of the decomposed array `id` (see
    /// [`Pmem::store_block`]). Dims come from a pending [`WriteBatch::alloc`]
    /// in this batch if present, otherwise from the stored `"<id>#dims"`
    /// entry.
    pub fn store_block<T: Element>(
        &mut self,
        id: &str,
        data: &'a [T],
        offsets: &[u64],
        dims: &[u64],
    ) -> Result<()> {
        let (dtype, global) = self.resolve_dims(id)?;
        self.pmem.check_dtype(id, dtype, T::DTYPE)?;
        api::validate_block(id, &global, offsets, dims)?;
        api::check_elements(id, dims, data.len())?;
        let meta = VarMeta::block(id, T::DTYPE, &global, offsets, dims);
        let key = api::block_key(id, offsets);
        self.push(key, meta, Cow::Borrowed(slice_as_bytes(data)));
        Ok(())
    }

    /// Stage a string attribute (see [`Pmem::set_attr`]).
    pub fn set_attr(&mut self, id: &str, name: &str, value: &str) -> Result<()> {
        let key = api::attr_key(id, name);
        let meta = VarMeta::local_array(&key, Datatype::U8, &[value.len() as u64]);
        self.push(key, meta, Cow::Owned(value.as_bytes().to_vec()));
        Ok(())
    }

    fn resolve_dims(&self, id: &str) -> Result<(Datatype, Vec<u64>)> {
        let dims_key = api::dims_key(id);
        if let Some(p) = self.pending.iter().rev().find(|p| p.key == dims_key) {
            return api::decode_dims_payload(id, &p.payload);
        }
        self.pmem.load_dims(id)
    }

    /// Commit every staged put through the bulk reservation pipeline. This is
    /// the one place commit groups are formed: a group ends at
    /// `MAX_GROUP_KEYS` keys or just before a key it already holds (so a
    /// batch may store a key twice, and the later value wins on every
    /// target). Each group gets one pool transaction and one allocator pass
    /// — under write-behind, one WAL record — and a crash mid-group rolls
    /// that whole group back.
    pub fn commit(self) -> Result<()> {
        let (layout, _machine) = self.pmem.layout_and_machine()?;
        let clock = self.pmem.clock()?;
        let mut rest = &self.pending[..];
        while !rest.is_empty() {
            let window = &rest[..rest.len().min(MAX_GROUP_KEYS)];
            let mut seen = HashSet::with_capacity(window.len());
            let n = (window.iter().position(|p| !seen.insert(&p.key))).unwrap_or(window.len());
            let puts: Vec<PutRequest<'_>> = rest[..n]
                .iter()
                .map(|p| PutRequest {
                    key: &p.key,
                    meta: &p.meta,
                    payload: &p.payload,
                })
                .collect();
            layout.store_many(clock, &puts)?;
            rest = &rest[n..];
        }
        Ok(())
    }
}
