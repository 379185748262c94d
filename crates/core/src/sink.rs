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
//! `dram_bytes_copied` stays 0. An 8-byte BP4 record (about 100 bytes) is one
//! store on the way in and one load on the way out; a large record is
//! header / payload / trailer = three accesses in each direction.

use pmem_sim::{Clock, DaxMapping};
use pserial::{ReadSource, Result as SResult, SerialError, WriteSink};

/// Size of the write-combining and read-ahead windows: the internal block of
/// the modelled media ("Persistent Memory I/O Primitives" measures Optane at
/// 256 bytes), which is also more than any header the four formats emit for
/// the benchmark's variables. One constant, not a tunable.
const WINDOW: usize = 256;

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
pub struct MappingSink<'a> {
    mapping: &'a DaxMapping,
    clock: &'a Clock,
    base: usize,
    pos: usize,
    limit: usize,
    /// The record bytes `[pos - held, pos)`, accepted but not yet stored.
    window: [u8; WINDOW],
    held: usize,
}

impl<'a> MappingSink<'a> {
    /// A sink for the record at `[base, base+limit)` of `mapping`.
    pub fn new(
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
        })
    }

    /// One store for everything the window holds.
    fn flush(&mut self) {
        if self.held > 0 {
            let at = self.base + self.pos - self.held;
            self.mapping
                .store(self.clock, at, &self.window[..self.held]);
            self.held = 0;
        }
    }

    /// Store what the window still holds; returns the bytes written. The
    /// caller persists the record only after this.
    pub(crate) fn finish(mut self) -> usize {
        self.flush();
        self.pos
    }
}

impl WriteSink for MappingSink<'_> {
    fn put(&mut self, bytes: &[u8]) -> SResult<()> {
        let Some(end) = end_within(self.pos, bytes.len(), self.limit) else {
            return Err(SerialError::ShortBuffer {
                need: (self.pos as u64).saturating_add(bytes.len() as u64),
                have: self.limit as u64,
            });
        };
        if bytes.len() >= WINDOW {
            // A payload: straight from the caller's slice to the mapping.
            self.flush();
            self.mapping.store(self.clock, self.base + self.pos, bytes);
        } else {
            if self.held + bytes.len() > WINDOW {
                self.flush();
            }
            self.window[self.held..self.held + bytes.len()].copy_from_slice(bytes);
            self.held += bytes.len();
        }
        self.pos = end;
        Ok(())
    }

    fn position(&self) -> u64 {
        self.pos as u64
    }
}

/// A [`ReadSource`] that streams out of a DAX mapping. It never loads a
/// record byte twice, and never one past `limit`: the next record may be
/// another rank's, mid-write.
pub struct MappingSource<'a> {
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
    pub fn new(
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
        // Whatever is buffered goes first; the rest is loaded once — into
        // `dst` itself when it is a window or more, else as the head of a
        // fresh read-ahead.
        let (buffered, rest) = dst.split_at_mut(dst.len().min(self.held - self.next));
        buffered.copy_from_slice(&self.window[self.next..self.next + buffered.len()]);
        self.next += buffered.len();
        let at = end - rest.len();
        if rest.len() >= WINDOW {
            self.mapping.load(self.clock, self.base + at, rest);
        } else if !rest.is_empty() {
            self.held = WINDOW.min(self.limit - at);
            self.mapping
                .load(self.clock, self.base + at, &mut self.window[..self.held]);
            rest.copy_from_slice(&self.window[..rest.len()]);
            self.next = rest.len();
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
        let machine = Machine::chameleon();
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

    /// A payload of a window or more never passes through the window:
    /// header / payload / trailer, every byte once, in each direction.
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
            assert!(put.stores <= 3, "{}: {put:?}", s.name());
            assert_eq!(put.written, need as u64, "{}", s.name());
            let get = cost_on(&fx, |m, c| {
                assert_eq!(read_record(s, m, c, AT, need), payload, "{}", s.name());
            });
            assert!(get.loads <= 3, "{}: {get:?}", s.name());
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
