//! Serialization sinks/sources over DAX mappings: the zero-staging seam.
//!
//! These adapters are what makes pMEMCPY's headline optimization concrete:
//! the serializer writes a record *into the mapped PMEM region* and reads it
//! back out of it (charged with fault accounting and, if enabled, the
//! MAP_SYNC penalty) — a payload is never copied into an intermediate DRAM
//! buffer in either direction.
//!
//! A serializer emits a record header field by field (`put_u32`, `get_u8`,
//! …), and a CPU does not turn a 4-byte store followed by a 1-byte store to
//! the same cacheline into two media operations. Both adapters therefore
//! keep one [`WINDOW`] of bytes on the CPU: the sink combines small `put`s
//! into one `store`, the source serves small `get`s out of one read-ahead
//! `load`. "Zero staging" with a window means: at most one window of
//! header-sized bytes is assembled on the CPU per access, a `put` or `get`
//! of a window or more goes straight between the caller's slice and the
//! mapping, every record byte crosses the mapping exactly once, and
//! `dram_bytes_copied` stays 0. A record of any size is one store on the
//! way in, header and trailer with the payload ([`WriteSink::put_with_tail`]).
//! On the way out, a record whose hashtable entry names its header length
//! is one load at any size ([`load_split`]): the header into the window,
//! the payload straight into the caller's buffer and the trailer behind
//! the header, split destinations of one [`DaxMapping::load_parts`]. A
//! record nothing names the header of (a per-key file, read through
//! [`MappingSource`]) is one load up to a window and two above it: the
//! header's window, then the payload with the trailer read ahead.
//!
//! A sink may also start its window with a *head*: the metadata that lies
//! right before the record on media ([`MappingSink::headed`]). The
//! hashtable hands every fill its block header and entry header, so block
//! header, entry, key and the record's first window leave in one store,
//! and the whole in one flush ([`DaxMapping::store_headed`] /
//! [`DaxMapping::flush_headed`] charge each byte as the separate stores
//! did — the head unscaled — and save only the per-operation costs). A
//! head longer than a window (a long key) is stored on its own, ahead of
//! the record.

use pmem_sim::{Clock, DaxMapping, WINDOW};
use pserial::{ReadSource, Result as SResult, SerialError, SliceSource, WriteSink};

/// `[base, base + limit)` must lie inside `mapping`. A window that does not
/// is a reservation bug or a corrupt `ValueRef` (whose sum may not even fit
/// a `usize`); it surfaces as [`SerialError::ShortBuffer`], not a
/// rank-poisoning panic.
fn check_window(mapping: &DaxMapping, base: usize, limit: usize) -> SResult<()> {
    match base.checked_add(limit) {
        Some(end) if end <= mapping.len() => Ok(()),
        _ => Err(SerialError::ShortBuffer {
            need: (base as u64).saturating_add(limit as u64),
            have: mapping.len() as u64,
        }),
    }
}

/// `pos + n` if an access of `n` bytes at `pos` stays inside `limit`.
fn end_within(pos: usize, n: usize, limit: usize) -> Option<usize> {
    pos.checked_add(n).filter(|&end| end <= limit)
}

/// A [`WriteSink`] that streams into a DAX mapping at a fixed base offset.
/// [`MappingSink::finish`] stores what the window still holds: a sink that
/// is dropped without it has not written its last bytes.
pub(crate) struct MappingSink<'a> {
    mapping: &'a DaxMapping,
    clock: &'a Clock,
    base: usize,
    pos: usize,
    limit: usize,
    /// `window[..held]`: the head, until the first store takes it, then
    /// the record bytes up to `pos` accepted but not yet stored.
    window: [u8; WINDOW],
    held: usize,
    /// The lengths of the head's structures still in the window.
    head: [usize; 2],
}

impl<'a> MappingSink<'a> {
    /// A sink for the record at `[base, base+limit)` of `mapping`.
    pub(crate) fn new(
        mapping: &'a DaxMapping,
        clock: &'a Clock,
        base: usize,
        limit: usize,
    ) -> SResult<Self> {
        check_window(mapping, base, limit)?;
        Ok(MappingSink {
            mapping,
            clock,
            base,
            pos: 0,
            limit,
            window: [0; WINDOW],
            held: 0,
            head: [0; 2],
        })
    }

    /// A sink whose first store also carries `head`: the metadata structures
    /// that lie, back to back, right before the record at `base`, charged as
    /// the metadata plane charges them ([`DaxMapping::store_headed`]). Heads
    /// that do not fit one window are stored ahead of the record, alone.
    pub(crate) fn headed(
        mapping: &'a DaxMapping,
        clock: &'a Clock,
        base: usize,
        limit: usize,
        head: [&[u8]; 2],
    ) -> SResult<Self> {
        let mut sink = Self::new(mapping, clock, base, limit)?;
        let meta = head.iter().map(|h| h.len()).sum::<usize>();
        if meta > base {
            return Err(SerialError::ShortBuffer {
                need: meta as u64,
                have: base as u64,
            });
        }
        if meta > WINDOW {
            mapping.store_headed(clock, base - meta, &head, &head.map(<[u8]>::len));
            return Ok(sink);
        }
        for h in head {
            sink.window[sink.held..sink.held + h.len()].copy_from_slice(h);
            sink.held += h.len();
        }
        sink.head = head.map(<[u8]>::len);
        Ok(sink)
    }

    /// One store for everything the window holds, then `payload` and `tail`.
    fn flush(&mut self, payload: &[u8], tail: &[u8]) {
        if self.held + payload.len() + tail.len() > 0 {
            let (at, held) = (self.base + self.pos - self.held, &self.window[..self.held]);
            let parts = [held, payload, tail];
            self.mapping
                .store_headed(self.clock, at, &parts, &self.head);
            (self.held, self.head) = (0, [0; 2]);
        }
    }

    /// Store what the window still holds; returns the bytes written. The
    /// caller persists the record only after this.
    pub(crate) fn finish(mut self) -> usize {
        self.flush(&[], &[]);
        self.pos
    }
}

impl WriteSink for MappingSink<'_> {
    fn put(&mut self, bytes: &[u8]) -> SResult<()> {
        self.put_with_tail(bytes, &[])
    }

    /// A payload of a window or more goes from the caller's slice, its tail
    /// behind it, in the window's store; anything smaller through the window.
    fn put_with_tail(&mut self, payload: &[u8], tail: &[u8]) -> SResult<()> {
        if payload.len() < WINDOW && !tail.is_empty() {
            return self.put(payload).and_then(|()| self.put(tail));
        }
        let n = payload.len() + tail.len();
        let Some(end) = end_within(self.pos, n, self.limit) else {
            return Err(SerialError::ShortBuffer {
                need: (self.pos as u64).saturating_add(n as u64),
                have: self.limit as u64,
            });
        };
        if n >= WINDOW {
            self.flush(payload, tail);
        } else {
            if self.held + n > WINDOW {
                self.flush(&[], &[]);
            }
            self.window[self.held..self.held + n].copy_from_slice(payload);
            self.held += n;
        }
        self.pos = end;
        Ok(())
    }

    fn position(&self) -> u64 {
        self.pos as u64
    }
}

/// Load the record at `[base, base + limit)` whose first `head` bytes are
/// its header — the bytes a reader decodes before it knows where the rest
/// goes — in one access: the header into a window, then as much of the
/// rest as `dst` holds straight into `dst`, and what is left (BP4's
/// trailer, padding) into the window behind the header; `decode` then reads
/// the header, all of it. Without a `dst` only the header is loaded. No
/// byte is loaded twice or past the record, and none is copied on the CPU.
pub(crate) fn load_split<R>(
    mapping: &DaxMapping,
    clock: &Clock,
    (base, limit, head): (usize, usize, usize),
    dst: Option<&mut [u8]>,
    decode: impl FnOnce(&mut SliceSource<'_>) -> SResult<R>,
) -> SResult<R> {
    check_window(mapping, base, limit)?;
    if head == 0 || head > limit {
        let what = format!("a header of {head} bytes in a {limit}-byte record");
        return Err(SerialError::Corrupt(what));
    }
    let end = if dst.is_some() { limit } else { head };
    let dst = dst.unwrap_or_default();
    let direct = dst.len().min(end - head);
    // A header and tail over a window (a long name) take a buffer of their own.
    let (mut window, mut spill) = ([0; WINDOW], None);
    let kept = match end - direct {
        n if n <= WINDOW => &mut window[..n],
        n => &mut spill.insert(vec![0; n])[..],
    };
    let (header, tail) = kept.split_at_mut(head);
    mapping.load_parts(clock, base, &mut [&mut *header, &mut dst[..direct], tail]);
    let mut src = SliceSource::new(header);
    let out = decode(&mut src)?;
    match src.remaining() {
        0 => Ok(out),
        n => Err(SerialError::Corrupt(format!(
            "a header {n} bytes short of {head}"
        ))),
    }
}

/// A [`ReadSource`] that streams out of a DAX mapping. It never loads a
/// record byte twice, and never one past `limit`: the next record may be
/// another rank's, mid-write.
pub(crate) struct MappingSource<'a> {
    mapping: &'a DaxMapping,
    clock: &'a Clock,
    base: usize,
    pos: usize,
    limit: usize,
    /// `window[next..held]` is the record bytes `[pos, pos + held - next)`,
    /// loaded but not yet consumed.
    window: [u8; WINDOW],
    next: usize,
    held: usize,
}

impl<'a> MappingSource<'a> {
    pub(crate) fn new(
        mapping: &'a DaxMapping,
        clock: &'a Clock,
        base: usize,
        limit: usize,
    ) -> SResult<Self> {
        check_window(mapping, base, limit)?;
        Ok(MappingSource {
            mapping,
            clock,
            base,
            pos: 0,
            limit,
            window: [0; WINDOW],
            next: 0,
            held: 0,
        })
    }
}

impl ReadSource for MappingSource<'_> {
    fn get(&mut self, dst: &mut [u8]) -> SResult<()> {
        let Some(end) = end_within(self.pos, dst.len(), self.limit) else {
            return Err(SerialError::Corrupt(format!(
                "mapping source underrun: need {} at {}, window {}",
                dst.len(),
                self.pos,
                self.limit
            )));
        };
        // Whatever is buffered goes first; the rest is one load — into `dst`
        // itself when it is a window or more, else through the window — that
        // reads up to a window of the record after it ahead.
        let (buffered, rest) = dst.split_at_mut(dst.len().min(self.held - self.next));
        buffered.copy_from_slice(&self.window[self.next..self.next + buffered.len()]);
        self.next += buffered.len();
        if !rest.is_empty() {
            let at = end - rest.len();
            let direct = if rest.len() >= WINDOW { rest.len() } else { 0 };
            let (direct, through) = rest.split_at_mut(direct);
            self.held = WINDOW.min(self.limit - at - direct.len());
            let dsts = &mut [direct, &mut self.window[..self.held]];
            self.mapping.load_parts(self.clock, self.base + at, dsts);
            through.copy_from_slice(&self.window[..through.len()]);
            self.next = through.len();
        }
        self.pos = end;
        Ok(())
    }

    fn skip(&mut self, n: u64) -> SResult<()> {
        let end = usize::try_from(n).ok();
        let Some(end) = end.and_then(|n| end_within(self.pos, n, self.limit)) else {
            return Err(SerialError::Corrupt(
                "mapping source skip past window".into(),
            ));
        };
        // Bytes skipped out of the window are dropped with it, not loaded.
        self.next = self.held.min(self.next + (end - self.pos));
        self.pos = end;
        Ok(())
    }

    fn position(&self) -> u64 {
        self.pos as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::{DetRng, Machine, MetricsRegistry, PersistenceMode, PmemDevice, SimTime};
    use pserial::{all_formats, Bp4, Datatype, Serializer, SliceSource, VarMeta};
    use std::sync::Arc;

    const LEN: usize = 1 << 20;
    /// Where the tests put their records: one page in, already faulted.
    const AT: usize = 4096;

    /// A metered mapping whose page at [`AT`] is already touched, so a clock
    /// delta over accesses there is media charges and nothing else.
    fn fixture() -> (Arc<DaxMapping>, Clock, Arc<MetricsRegistry>) {
        fixture_on(Machine::chameleon())
    }

    fn fixture_on(machine: Arc<Machine>) -> (Arc<DaxMapping>, Clock, Arc<MetricsRegistry>) {
        let registry = MetricsRegistry::new();
        machine.set_metrics(Arc::clone(&registry));
        let dev = PmemDevice::new(machine, LEN, PersistenceMode::Fast);
        let clock = Clock::new();
        let m = DaxMapping::new(&clock, dev, 0, LEN, false);
        m.load(&clock, AT, &mut [0]);
        (m, clock, registry)
    }

    /// What a run of accesses did to the machine: media operations by
    /// primitive name, bytes by direction, virtual time.
    #[derive(Debug, PartialEq)]
    struct Cost {
        stores: u64,
        loads: u64,
        written: u64,
        read: u64,
        time: SimTime,
    }

    fn cost_on(
        (m, clock, registry): &(Arc<DaxMapping>, Clock, Arc<MetricsRegistry>),
        accesses: impl FnOnce(&DaxMapping, &Clock),
    ) -> Cost {
        let ops = |name| registry.snapshot().hists.get(name).map_or(0, |h| h.count);
        let stats = || m.device().machine().stats.snapshot();
        let (stores, loads, before, t0) =
            (ops("pmem.write"), ops("pmem.read"), stats(), clock.now());
        accesses(m, clock);
        let delta = stats().delta_since(&before);
        assert_eq!(delta.dram_bytes_copied, 0, "zero-staging property violated");
        Cost {
            stores: ops("pmem.write") - stores,
            loads: ops("pmem.read") - loads,
            written: delta.pmem_bytes_written,
            read: delta.pmem_bytes_read,
            time: clock.now() - t0,
        }
    }

    /// The same, on a fresh machine: the reference a seam cost is held to.
    fn cost_of(accesses: impl FnOnce(&DaxMapping, &Clock)) -> Cost {
        cost_on(&fixture(), accesses)
    }

    fn write_record(
        s: &dyn Serializer,
        m: &DaxMapping,
        clock: &Clock,
        base: usize,
        meta: &VarMeta,
        payload: &[u8],
    ) -> usize {
        let need = s.serialized_len(meta, payload.len() as u64) as usize;
        let mut sink = MappingSink::new(m, clock, base, need).unwrap();
        s.write_var(meta, payload, &mut sink).unwrap();
        assert_eq!(sink.finish(), need, "{}", s.name());
        need
    }

    fn read_record(
        s: &dyn Serializer,
        m: &DaxMapping,
        clock: &Clock,
        base: usize,
        limit: usize,
    ) -> Vec<u8> {
        let mut src = MappingSource::new(m, clock, base, limit).unwrap();
        let hdr = s.read_header(&mut src).unwrap();
        let mut got = vec![0u8; hdr.payload_len as usize];
        s.read_payload(&mut src, &mut got).unwrap();
        got
    }

    #[test]
    fn serialize_through_mapping_round_trips() {
        let (m, clock, _) = fixture();
        let meta = VarMeta::local_array("x", Datatype::F64, &[16]);
        let payload: Vec<u8> = (0..16).flat_map(|i| (i as f64).to_le_bytes()).collect();
        let need = write_record(&Bp4, &m, &clock, AT, &meta, &payload);

        let mut src = MappingSource::new(&m, &clock, AT, need).unwrap();
        let (hdr, got) = Bp4.read_var(&mut src).unwrap();
        assert_eq!(hdr.meta, meta);
        assert_eq!(got, payload);
    }

    /// A record that fits one window is one media operation in each
    /// direction, in every format (an 8-byte BP4 record was fifteen), and
    /// costs exactly what one store / one load of its length costs.
    #[test]
    fn a_record_within_one_window_is_one_store_and_one_load() {
        let meta = VarMeta::local_array("v", Datatype::U8, &[8]);
        let payload = [0xA5u8; 8];
        for s in all_formats() {
            let fx = fixture();
            let mut need = 0;
            let put = cost_on(&fx, |m, c| {
                need = write_record(s, m, c, AT, &meta, &payload)
            });
            assert!(need <= WINDOW, "{}: {need}", s.name());
            let one_store = cost_of(|m, c| m.store(c, AT, &vec![0; need]));
            assert_eq!((put.stores, &put), (1, &one_store), "{}", s.name());

            let get = cost_on(&fx, |m, c| {
                assert_eq!(read_record(s, m, c, AT, need), payload, "{}", s.name());
            });
            let one_load = cost_of(|m, c| m.load(c, AT, &mut vec![0; need]));
            assert_eq!((get.loads, &get), (1, &one_load), "{}", s.name());
        }
    }

    /// A payload of a window or more never passes through the window, and
    /// every byte moves once in each direction: the header and BP4's
    /// trailer leave in the payload's store (the trailer in a second before,
    /// three stores before that); the header is one load, the payload
    /// another that reads what follows it of the record ahead (three loads
    /// for BP4 before).
    #[test]
    fn a_large_payload_moves_between_the_callers_slice_and_the_mapping() {
        let meta = VarMeta::local_array("field", Datatype::F64, &[4096]);
        let payload = DetRng::new(7).bytes(4096 * 8);
        for s in all_formats() {
            let fx = fixture();
            let mut need = 0;
            let put = cost_on(&fx, |m, c| {
                need = write_record(s, m, c, AT, &meta, &payload)
            });
            assert_eq!(put.stores, 1, "{}: {put:?}", s.name());
            assert_eq!(put.written, need as u64, "{}", s.name());
            let get = cost_on(&fx, |m, c| {
                assert_eq!(read_record(s, m, c, AT, need), payload, "{}", s.name());
            });
            assert_eq!(get.loads, 2, "{}: {get:?}", s.name());
            assert_eq!(get.read, need as u64, "{}", s.name());
        }
    }

    /// A read-ahead stops at its record's end: the bytes after it may be
    /// another rank's record, mid-write.
    #[test]
    fn a_window_never_reaches_past_its_record() {
        let (meta, payload) = (VarMeta::local_array("a", Datatype::U8, &[8]), [1u8; 8]);
        for s in all_formats() {
            let fx = fixture();
            let first = write_record(s, &fx.0, &fx.1, AT, &meta, &payload);
            fx.0.store(&fx.1, AT + first, &[0xFF; 2 * WINDOW]);
            let get = cost_on(&fx, |m, c| {
                assert_eq!(read_record(s, m, c, AT, first), payload, "{}", s.name());
            });
            assert_eq!((get.loads, get.read), (1, first as u64), "{}", s.name());
            // A header-only read of a long record takes one window of it.
            let long = VarMeta::local_array("b", Datatype::U8, &[4 * WINDOW as u64]);
            let need = write_record(s, &fx.0, &fx.1, AT, &long, &[2u8; 4 * WINDOW]);
            let stat = cost_on(&fx, |m, c| {
                let mut src = MappingSource::new(m, c, AT, need).unwrap();
                assert_eq!(
                    s.read_header(&mut src).unwrap().payload_len,
                    4 * WINDOW as u64
                );
            });
            assert_eq!((stat.loads, stat.read), (1, WINDOW as u64), "{}", s.name());
        }
    }

    /// Whatever sizes arrive in whatever order, the windows change how many
    /// accesses there are and nothing else: the sink leaves the bytes a
    /// `Vec<u8>` sink holds, the source returns what a `SliceSource` does,
    /// and no byte crosses the mapping twice.
    #[test]
    fn any_sequence_of_sizes_matches_the_plain_sinks() {
        let mut rng = DetRng::new(0x5EA4);
        // Sizes around the window's edges as often as anywhere else.
        let size = |rng: &mut DetRng| match rng.index(4) {
            0 => rng.index(16),
            1 => WINDOW - 2 + rng.index(5),
            _ => rng.index(3 * WINDOW + 1),
        };
        for case in 0..200 {
            let fx = fixture();
            let chunks: Vec<Vec<u8>> = (0..rng.index(12))
                .map(|_| {
                    let n = size(&mut rng);
                    rng.bytes(n)
                })
                .collect();
            let mut plain = Vec::new();
            let put = cost_on(&fx, |m, c| {
                let total = chunks.iter().map(Vec::len).sum();
                let mut sink = MappingSink::new(m, c, AT, total).unwrap();
                for chunk in &chunks {
                    sink.put(chunk).unwrap();
                    plain.put(chunk).unwrap();
                    assert_eq!(sink.position(), plain.position());
                }
                assert!(sink.put(&[0]).is_err(), "case {case}: wrote past its limit");
                assert_eq!(sink.finish(), total);
            });
            assert_eq!(put.written, plain.len() as u64, "case {case}");
            assert_eq!(
                fx.0.device().read_vec_untimed(AT, plain.len()),
                plain,
                "case {case}"
            );

            let mut consumed = 0u64;
            let get = cost_on(&fx, |m, c| {
                let mut src = MappingSource::new(m, c, AT, plain.len()).unwrap();
                let mut reference = SliceSource::new(&plain);
                while reference.remaining() > 0 {
                    let n = size(&mut rng).min(reference.remaining());
                    if rng.index(3) == 0 {
                        src.skip(n as u64).unwrap();
                        reference.skip(n as u64).unwrap();
                    } else {
                        let (mut got, mut want) = (vec![0u8; n], vec![0u8; n]);
                        src.get(&mut got).unwrap();
                        reference.get(&mut want).unwrap();
                        assert_eq!(got, want, "case {case} at {}", src.position());
                        consumed += n as u64;
                    }
                    assert_eq!(src.position(), reference.position());
                }
                assert!(src.get(&mut [0]).is_err() && src.skip(1).is_err());
            });
            assert!(
                consumed <= get.read && get.read <= plain.len() as u64,
                "case {case}: {get:?}"
            );
        }
    }

    /// A record stored behind its heads — an interior block's header and
    /// its entry's — charges each byte as the three stores it replaces did:
    /// the heads unscaled, the record at `byte_scale`, page faults over the
    /// record only, and as many flushed lines. Only two write latencies
    /// and two flush bases are saved. At `byte_scale` 1000 the planes
    /// differ most; a per-line cost of 1 ns makes the lines visible.
    #[test]
    fn a_headed_store_charges_each_byte_as_its_three_stores_did() {
        let config = pmem_sim::MachineConfig {
            byte_scale: 1000,
            flush_per_line: SimTime::from_nanos(1),
            ..pmem_sim::MachineConfig::chameleon_skylake()
        };
        let (meta, payload) = (VarMeta::local_array("v", Datatype::U8, &[8]), [7u8; 8]);
        let need = Bp4.serialized_len(&meta, 8) as usize;
        let (block, entry) = ([0xB0u8; 32], [0xE0u8; 54]);
        // The heads open a page no access has touched yet.
        let (heads, rec) = (2 * 4096, 2 * 4096 + 86);
        let run = |accesses: &dyn Fn(&DaxMapping, &Clock)| {
            let (m, clock, registry) = fixture_on(Machine::new(config.clone()));
            let (before, t0) = (m.device().machine().stats.snapshot(), clock.now());
            accesses(&m, &clock);
            let ops = registry.snapshot().hists;
            let sum = |name| {
                ops.get(name)
                    .map_or((0, 0), |h| (h.count, h.sum.as_nanos()))
            };
            let stats = m.device().machine().stats.snapshot().delta_since(&before);
            let media = m.device().read_vec_untimed(heads, 86 + need);
            let (flushes, flush_ns) = sum("flush");
            let lines = flush_ns - flushes * config.flush_base.as_nanos();
            let stores = sum("pmem.write").0 + sum("pmem.meta_write").0;
            let time = clock.now() - t0;
            (
                media,
                stats.pmem_bytes_written,
                stats.page_faults,
                lines,
                (stores, flushes),
                time,
            )
        };
        let one = run(&|m, c| {
            let mut sink = MappingSink::headed(m, c, rec, need, [&block, &entry]).unwrap();
            Bp4.write_var(&meta, &payload, &mut sink).unwrap();
            assert_eq!(sink.finish(), need);
            m.flush_headed(c, heads, 86 + need, &[32, 54]);
        });
        let three = run(&|m, c| {
            let dev = m.device();
            dev.write_meta(c, heads, &block);
            dev.flush(c, heads, 32);
            let mut sink = MappingSink::new(m, c, rec, need).unwrap();
            Bp4.write_var(&meta, &payload, &mut sink).unwrap();
            assert_eq!(sink.finish(), need);
            m.flush(c, rec, need);
            dev.write_meta(c, heads + 32, &entry);
            dev.flush(c, heads + 32, 54);
        });
        assert_eq!(
            (&one.0, one.1, one.2, one.3),
            (&three.0, three.1, three.2, three.3)
        );
        assert_eq!((one.4, three.4), ((1, 1), (3, 3)));
        assert_eq!(three.2, 1000, "one page of the record, scaled");
        let saved = (config.pmem_write_latency + config.flush_base) * 2;
        let slack = three.5 - one.5;
        assert!(
            slack.as_nanos().abs_diff(saved.as_nanos()) <= 2,
            "{slack:?} vs {saved:?}"
        );
    }

    /// A group of 64 fresh 8-byte puts through `Pmem` stores each record as
    /// one `pmem.write` that carries its block and entry headers: past the
    /// first put, each costs one metadata write (its head word) and two
    /// flushes (its window, its head word) — three stores and four flushes
    /// before — and the group pays 6 fences: its one count store (two:
    /// its log spills past the lane's first line, and one store and one
    /// flush more than a one-key group's), the carve, the commit. A one-key
    /// group pays 5 metadata writes, 6 flushes and 5 fences, the group 69,
    /// 133 and 6 (7, 8, 6 and 70, 134, 6 while the undo records, the intent
    /// slots and the header line were three stores; 8 fences while the head
    /// records had a count store of their own).
    #[test]
    fn a_fresh_small_put_is_one_store_with_its_heads() {
        use crate::{MmapTarget, Pmem};
        let machine = Machine::chameleon();
        let registry = MetricsRegistry::new();
        machine.set_metrics(Arc::clone(&registry));
        let dev = PmemDevice::new(Arc::clone(&machine), 32 << 20, PersistenceMode::Fast);
        let comm = mpi_sim::Comm::new(mpi_sim::World::new(Arc::clone(&machine), 1), 0);
        let mut pmem = Pmem::new();
        pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
        pmem.store_scalar("warm", 0u64).unwrap();
        let ops = |name| registry.snapshot().hists.get(name).map_or(0, |h| h.count);
        let group = |keys: std::ops::Range<u64>| {
            let (writes, meta, before) = (
                ops("pmem.write"),
                ops("pmem.meta_write"),
                machine.stats.snapshot(),
            );
            let mut batch = pmem.batch();
            for i in keys {
                batch.store_scalar(&format!("key{i:04}"), i).unwrap();
            }
            batch.commit().unwrap();
            let d = machine.stats.snapshot().delta_since(&before);
            (
                ops("pmem.write") - writes,
                ops("pmem.meta_write") - meta,
                d.flush_calls,
                d.fences,
            )
        };
        let one = group(0..1);
        let (writes, meta, flushes, fences) = group(1..65);
        assert_eq!((one.0, writes), (1, 64));
        assert_eq!((one.1, one.2, one.3), (5, 6, 5));
        assert_eq!(
            (meta, flushes, fences),
            (one.1 + 63 + 1, one.2 + 2 * 63 + 1, 6)
        );
        pmem.munmap().unwrap();
    }

    /// The lane ledger of what `kv_mixed` does one key at a time, through
    /// `Pmem`: an overwrite and a remove, each `(fences, metadata writes)`.
    #[test]
    fn a_one_key_overwrite_and_remove_pay_exact_ledgers() {
        use crate::{MmapTarget, Pmem};
        let machine = Machine::chameleon();
        let registry = MetricsRegistry::new();
        machine.set_metrics(Arc::clone(&registry));
        let dev = PmemDevice::new(Arc::clone(&machine), 32 << 20, PersistenceMode::Fast);
        let comm = mpi_sim::Comm::new(mpi_sim::World::new(Arc::clone(&machine), 1), 0);
        let mut pmem = Pmem::new();
        pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
        for key in ["a", "b", "c"] {
            pmem.store_slice::<u8>(key, &[1; 64]).unwrap();
        }
        let ledger = |op: &dyn Fn()| {
            let meta = || (registry.snapshot().hists.get("pmem.meta_write")).map_or(0, |h| h.count);
            let (meta_before, before) = (meta(), machine.stats.snapshot());
            op();
            let fences = machine.stats.snapshot().delta_since(&before).fences;
            (fences, meta() - meta_before)
        };
        // The fresh put's 5 fences: the old block's state word, the head
        // word and the alloc intent are records in the lane's first line,
        // one store with the carve's count store, and the FREE store rides
        // the commit's fence. Metadata writes: the count store, the carve's
        // tail and commit header, the head word, the FREE word, IDLE ((6, 8)
        // while the undo append, the intent slot and the header line were
        // three stores; (8, 9) while COMMITTING, the freed header and a back
        // link were stores of their own; (10, 12) while the records had a
        // count store of their own after the carve; 16 fences and 16 writes
        // while every lane transition was a store of its own).
        let overwrite = ledger(&|| pmem.store_slice::<u8>("b", &[2; 64]).unwrap());
        assert_eq!(overwrite, (5, 6));
        // The freed block's state word and the unlink's record in the count
        // store's line (ACTIVE), the unlinked word and the FREE word behind
        // the commit's one fence, IDLE: 3 fences, 4 writes ((4, 5) while the
        // records were an append of their own; (7, 9) while COMMITTING and
        // the heap's merge and stale flip were stores of their own; 13
        // fences and 13 writes before that).
        let remove = ledger(&|| assert!(pmem.remove("c").unwrap()));
        assert_eq!(remove, (3, 4));
        pmem.munmap().unwrap();
    }

    /// A hashtable get is one load: through `Pmem`, a 1 KiB `load_slice`
    /// is one `pmem.read` of its record's `serialized_len` bytes, the
    /// payload landing straight in the returned vector — warm, and cold
    /// after a remount, when the walk's header fetch names the header
    /// length (two loads, header first, before). An 8-byte get is one load
    /// too, and a buffer of the wrong length is refused as it always was.
    #[test]
    fn a_mapped_get_is_one_load_of_its_record_warm_and_cold() {
        use crate::{MmapTarget, Pmem, PmemCpyError};
        let machine = Machine::chameleon();
        let registry = MetricsRegistry::new();
        machine.set_metrics(Arc::clone(&registry));
        let dev = PmemDevice::new(Arc::clone(&machine), 32 << 20, PersistenceMode::Fast);
        let comm = mpi_sim::Comm::new(mpi_sim::World::new(Arc::clone(&machine), 1), 0);
        let mut pmem = Pmem::new();
        pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
        let big: Vec<f64> = (0..128).map(f64::from).collect();
        pmem.store_slice("big", &big).unwrap();
        pmem.store_scalar("small", 7u64).unwrap();
        let (big_len, small_len) = (
            pmem.raw_record("big").unwrap().len(),
            pmem.raw_record("small").unwrap().len(),
        );
        assert!(
            big_len > 1024 && small_len < WINDOW,
            "{big_len} {small_len}"
        );
        let hist = |name| {
            registry
                .snapshot()
                .hists
                .get(name)
                .map_or((0, 0), |h| (h.count, h.sum.as_nanos()))
        };
        // Loads, and their time against one load of `len` bytes.
        let one_load = |len: usize, get: &dyn Fn()| {
            let (before, (n, ns)) = (machine.stats.snapshot(), hist("pmem.read"));
            get();
            let copied = machine
                .stats
                .snapshot()
                .delta_since(&before)
                .dram_bytes_copied;
            let (n2, ns2) = hist("pmem.read");
            let reference = cost_of(|m, c| m.load(c, AT, &mut vec![0; len])).time;
            assert_eq!((n2 - n, ns2 - ns, copied), (1, reference.as_nanos(), 0));
        };
        for pass in ["warm", "cold"] {
            let p = &pmem;
            one_load(big_len, &|| {
                assert_eq!(p.load_slice::<f64>("big").unwrap(), big, "{pass}")
            });
            one_load(small_len, &|| {
                assert_eq!(p.load_scalar::<u64>("small").unwrap(), 7, "{pass}")
            });
            for n in [127, 129] {
                let err = p.load_slice_into("big", &mut vec![0f64; n]).unwrap_err();
                assert!(
                    matches!(err, PmemCpyError::ShapeMismatch { .. }),
                    "{pass}: {err}"
                );
                let want = format!("payload 1024 bytes, buffer {} bytes", n * 8);
                assert_eq!(
                    err.to_string(),
                    format!("shape mismatch for \"big\": {want}")
                );
            }
            pmem.munmap().unwrap();
            crate::registry::release_pool(&dev);
            pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
        }
        pmem.munmap().unwrap();
    }

    #[test]
    fn sink_writes_charge_pmem_not_dram() {
        let put = cost_of(|m, c| {
            let mut sink = MappingSink::new(m, c, 0, 1024).unwrap();
            sink.put(&[1u8; 1024]).unwrap();
            assert_eq!(sink.finish(), 1024);
        });
        assert_eq!((put.stores, put.written), (1, 1024));
    }

    #[test]
    fn sink_respects_its_window() {
        let (m, clock, _) = fixture();
        let mut sink = MappingSink::new(&m, &clock, 0, 8).unwrap();
        let err = sink.put(&[0u8; 16]).unwrap_err();
        assert!(matches!(
            err,
            SerialError::ShortBuffer { need: 16, have: 8 }
        ));
        // Nothing was written: the overflow check precedes the store.
        assert_eq!(sink.finish(), 0);
        assert_eq!(m.device().machine().stats.snapshot().pmem_bytes_written, 0);
    }

    #[test]
    fn windows_outside_the_mapping_are_errors() {
        let (m, clock, _) = fixture();
        let len = m.len();
        assert!(MappingSink::new(&m, &clock, len, 16).is_err());
        assert!(MappingSource::new(&m, &clock, len - 8, 16).is_err());
        // A corrupt `ValueRef`: the sum wraps in release and trips the
        // overflow check in debug unless it is a checked add.
        let wild = usize::MAX - 4;
        assert!(matches!(
            MappingSink::new(&m, &clock, wild, 16),
            Err(SerialError::ShortBuffer { .. })
        ));
        assert!(matches!(
            MappingSource::new(&m, &clock, wild, 16),
            Err(SerialError::ShortBuffer { .. })
        ));
    }

    #[test]
    fn source_underrun_is_an_error() {
        let (m, clock, _) = fixture();
        let mut src = MappingSource::new(&m, &clock, 0, 4).unwrap();
        let mut buf = [0u8; 8];
        assert!(src.get(&mut buf).is_err());
        assert!(src.skip(8).is_err());
        assert!(src.skip(u64::MAX).is_err());
        assert_eq!(src.position(), 0);
    }
}
