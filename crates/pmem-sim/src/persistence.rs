//! Cacheline-granularity persistence tracking for crash simulation.
//!
//! Real PMEM sits behind the CPU cache hierarchy: a store is *visible*
//! immediately, a flushed line (CLWB) is on its way to media, and only the
//! fence that drains the write-pending queue makes it *certain*. To test
//! crash consistency we keep a shadow copy of the device — its durable
//! image — and three states per cacheline: writes mark lines **dirty**,
//! `flush` moves the covered dirty lines to **flushed**, `fence` copies
//! every flushed line into the shadow (**fenced**). At a power failure the
//! dirty and the flushed-unfenced lines are *in flight*: any subset of them
//! may have reached media. [`PersistenceTracker::in_flight`] lists them,
//! [`PersistenceTracker::image`] materialises the durable image plus a
//! chosen subset, [`crash_subsets`] picks the subsets to try, and
//! [`PersistenceTracker::crash_restore`] with the empty subset is the
//! classic pessimistic crash.
//!
//! Tracking costs 2× memory, so the device only enables it in
//! [`crate::device::PersistenceMode::Tracked`]; the benchmark configurations
//! use `Fast` (no shadow) since they never crash.

use crate::buffer::SharedBuffer;
use crate::rng::DetRng;
use crate::sync::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

pub const CACHELINE: usize = 64;

/// One bit per cacheline, concurrently settable.
#[derive(Debug)]
pub struct DirtyBitmap {
    words: Box<[AtomicU64]>,
    lines: usize,
}

impl DirtyBitmap {
    pub fn new(bytes: usize) -> Self {
        let lines = bytes.div_ceil(CACHELINE);
        let words = (0..lines.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        DirtyBitmap { words, lines }
    }

    #[inline]
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// Mark every line overlapping `[off, off+len)` dirty: one atomic per
    /// 64-line word.
    pub fn mark_range(&self, off: usize, len: usize) {
        if len == 0 {
            return;
        }
        let first = off / CACHELINE;
        let last = (off + len - 1) / CACHELINE;
        for (word, mask) in word_masks(first, last) {
            self.words[word].fetch_or(mask, Ordering::Relaxed);
        }
    }

    /// Clear the dirty lines overlapping `[off, off+len)`, one atomic per
    /// 64-line word, handing each maximal run of consecutive dirty lines to
    /// `run(first line, line count)` in ascending order. Returns how many
    /// lines were dirty.
    pub fn take_range(&self, off: usize, len: usize, mut run: impl FnMut(usize, usize)) -> usize {
        if len == 0 {
            return 0;
        }
        let first = off / CACHELINE;
        let last = ((off + len - 1) / CACHELINE).min(self.lines.saturating_sub(1));
        if first > last {
            return 0;
        }
        let mut taken = 0;
        // The run still open at the end of the previous word: (start, count).
        let mut open: Option<(usize, usize)> = None;
        for (word, mask) in word_masks(first, last) {
            let mut bits = self.words[word].fetch_and(!mask, Ordering::Relaxed) & mask;
            taken += bits.count_ones() as usize;
            while bits != 0 {
                let lo = bits.trailing_zeros() as usize;
                let n = (bits >> lo).trailing_ones() as usize;
                bits &= u64::MAX.checked_shl((lo + n) as u32).unwrap_or(0);
                let start = word * 64 + lo;
                match &mut open {
                    Some((s, count)) if *s + *count == start => *count += n,
                    _ => {
                        if let Some((s, count)) = open.replace((start, n)) {
                            run(s, count);
                        }
                    }
                }
            }
        }
        if let Some((s, count)) = open {
            run(s, count);
        }
        taken
    }

    pub fn is_dirty(&self, line: usize) -> bool {
        self.words[line / 64].load(Ordering::Relaxed) & (1 << (line % 64)) != 0
    }

    pub fn count_dirty(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Every dirty line, ascending.
    pub fn dirty_lines(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, word)| {
            let bits = word.load(Ordering::Relaxed);
            (0..64)
                .filter(move |b| bits >> b & 1 == 1)
                .map(move |b| w * 64 + b)
        })
    }

    pub fn clear_all(&self) {
        for w in self.words.iter() {
            w.store(0, Ordering::Relaxed);
        }
    }
}

/// The bitmap words that lines `first..=last` touch, each with the mask of
/// those lines inside it.
fn word_masks(first: usize, last: usize) -> impl Iterator<Item = (usize, u64)> {
    (first / 64..=last / 64).map(move |word| {
        let lo = if word == first / 64 { first % 64 } else { 0 };
        let hi = if word == last / 64 { last % 64 } else { 63 };
        (word, (u64::MAX >> (63 - hi)) & (u64::MAX << lo))
    })
}

/// Where an in-flight cacheline stands at a crash point. Either kind may or
/// may not have reached media; only a fence settles it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Stored, not flushed: the cache may have evicted it on its own.
    Dirty,
    /// Flushed toward media, no fence since: maybe durable.
    Flushed,
}

/// One in-flight cacheline at a crash point and the bytes that would reach
/// media if it did (see [`PersistenceTracker::in_flight`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InFlightLine {
    pub line: usize,
    pub state: LineState,
    pub bytes: Vec<u8>,
}

/// A run of lines one flush sent toward media that no fence has retired.
#[derive(Debug)]
struct FlushedRun {
    line: usize,
    count: usize,
    /// The run's bytes as flushed, captured only if a later store rewrites
    /// one of its lines before the fence; otherwise the working buffer
    /// still holds them.
    captured: Option<Vec<u8>>,
}

impl FlushedRun {
    fn span(&self, limit: usize) -> (usize, usize) {
        span(self.line, self.count, limit)
    }
}

/// `(byte offset, byte length)` of `count` lines from `line` on a device of
/// `limit` bytes, whose last line may be short.
fn span(line: usize, count: usize, limit: usize) -> (usize, usize) {
    let start = line * CACHELINE;
    (start, (count * CACHELINE).min(limit - start))
}

/// Shadow-copy persistence tracker with three states per line: *dirty*
/// (stored), *flushed* (maybe durable) and *fenced* (durable — in the
/// shadow). One stated simplification: a fence retires every flushed line of
/// the device, whichever rank flushed it — exact for one rank.
#[derive(Debug)]
pub struct PersistenceTracker {
    /// The durable image: what every fence so far has made certain.
    shadow: SharedBuffer,
    dirty: DirtyBitmap,
    /// Flushed, unfenced runs in flush order. The lock also serializes
    /// flush/fence/crash so a crash sees a consistent shadow.
    flushed: Mutex<Vec<FlushedRun>>,
    /// `flushed.len()`, so a store only takes the lock when a flush is
    /// awaiting its fence. Relaxed: it publishes nothing — the runs are read
    /// under the lock — and a store racing another rank's flush may
    /// legitimately count as before it.
    flushed_runs: AtomicUsize,
}

impl PersistenceTracker {
    pub fn new(bytes: usize) -> Self {
        PersistenceTracker {
            shadow: SharedBuffer::new(bytes),
            dirty: DirtyBitmap::new(bytes),
            flushed: Mutex::new(Vec::new()),
            flushed_runs: AtomicUsize::new(0),
        }
    }

    /// Record that `[off, off+len)` of `working` is about to be overwritten
    /// (call before the store): a flushed run the store touches keeps the
    /// bytes it was flushed with.
    pub fn record_write(&self, working: &SharedBuffer, off: usize, len: usize) {
        if len != 0 && self.flushed_runs.load(Ordering::Relaxed) != 0 {
            let (first, last) = (off / CACHELINE, (off + len - 1) / CACHELINE);
            for run in self.flushed.lock().iter_mut() {
                if run.captured.is_none() && run.line <= last && first < run.line + run.count {
                    let (start, n) = run.span(working.len());
                    run.captured = Some(working.read_vec(start, n));
                }
            }
        }
        self.dirty.mark_range(off, len);
    }

    /// Flush the dirty lines of `[off, off+len)` toward media: they stop
    /// being dirty and become durable at the next [`Self::fence`]. Returns
    /// the number of lines flushed.
    pub fn flush(&self, off: usize, len: usize) -> usize {
        let mut flushed = self.flushed.lock();
        let taken = self.dirty.take_range(off, len, |line, count| {
            flushed.push(FlushedRun {
                line,
                count,
                captured: None,
            })
        });
        self.flushed_runs.store(flushed.len(), Ordering::Relaxed);
        taken
    }

    /// Retire every flushed run into the durable image.
    pub fn fence(&self, working: &SharedBuffer) {
        let mut flushed = self.flushed.lock();
        for run in flushed.drain(..) {
            let (start, n) = run.span(working.len());
            match run.captured {
                Some(bytes) => self.shadow.write(start, &bytes),
                None => self.shadow.copy_from(start, working, start, n),
            }
        }
        self.flushed_runs.store(0, Ordering::Relaxed);
    }

    /// Flush + fence of `[off, off+len)` alone: its dirty lines go straight
    /// to the durable image and no other line's state moves (the untimed
    /// persist of layers the cost model must not see).
    pub fn persist_range(&self, working: &SharedBuffer, off: usize, len: usize) {
        let _g = self.flushed.lock();
        self.dirty.take_range(off, len, |line, count| {
            let (start, n) = span(line, count, working.len());
            self.shadow.copy_from(start, working, start, n);
        });
    }

    /// The lines a power failure right now may or may not find on media:
    /// flushed-unfenced ones in flush order, then dirty ones in address
    /// order, each with the bytes it would carry. A line flushed and stored
    /// to again appears once in each state; applied in this order the later
    /// store wins.
    pub fn in_flight(&self, working: &SharedBuffer) -> Vec<InFlightLine> {
        let flushed = self.flushed.lock();
        let mut out = Vec::new();
        let mut push = |line, state, bytes| out.push(InFlightLine { line, state, bytes });
        for run in flushed.iter() {
            let (start, n) = run.span(working.len());
            let bytes = match &run.captured {
                Some(bytes) => bytes.clone(),
                None => working.read_vec(start, n),
            };
            for (i, chunk) in bytes.chunks(CACHELINE).enumerate() {
                push(run.line + i, LineState::Flushed, chunk.to_vec());
            }
        }
        for line in self.dirty.dirty_lines() {
            let (start, n) = span(line, 1, working.len());
            push(line, LineState::Dirty, working.read_vec(start, n));
        }
        out
    }

    /// The image media holds if exactly `reached` of the in-flight lines
    /// made it: the durable image with those lines applied in order.
    pub fn image(&self, reached: &[InFlightLine]) -> Vec<u8> {
        let _g = self.flushed.lock();
        let mut image = self.shadow.read_vec(0, self.shadow.len());
        for l in reached {
            image[l.line * CACHELINE..][..l.bytes.len()].copy_from_slice(&l.bytes);
        }
        image
    }

    /// Simulated power failure in which exactly `reached` of the in-flight
    /// lines made it to media (none: every unfenced store is lost): they
    /// join the durable image, the working buffer is restored from it and
    /// nothing is in flight any more.
    pub fn crash_restore(&self, working: &SharedBuffer, reached: &[InFlightLine]) {
        let mut flushed = self.flushed.lock();
        for l in reached {
            self.shadow.write(l.line * CACHELINE, &l.bytes);
        }
        working.copy_from(0, &self.shadow, 0, working.len());
        self.dirty.clear_all();
        flushed.clear();
        self.flushed_runs.store(0, Ordering::Relaxed);
    }

    /// Number of lines currently dirty (stored, not flushed).
    pub fn dirty_lines(&self) -> usize {
        self.dirty.count_dirty()
    }
}

/// Which subsets of `n` in-flight lines to materialise at one crash point,
/// each as the ascending indices of the lines that reached media. Up to
/// [`EXHAUSTIVE_LINES`] lines: all `2^n`. Beyond: none, all, and `samples`
/// subsets drawn from `rng` (each line kept with probability one half), so
/// a failure replays from the seed.
pub fn crash_subsets(n: usize, samples: usize, rng: &mut DetRng) -> Vec<Vec<usize>> {
    let of_mask = |mask: u64| (0..n).filter(|i| mask >> i & 1 == 1).collect();
    if n <= EXHAUSTIVE_LINES {
        return (0..1u64 << n).map(of_mask).collect();
    }
    let mut out = vec![Vec::new(), (0..n).collect()];
    out.extend((0..samples).map(|_| (0..n).filter(|_| rng.index(2) == 1).collect()));
    out
}

/// Largest in-flight set [`crash_subsets`] enumerates exhaustively (16
/// images a crash point).
pub const EXHAUSTIVE_LINES: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    /// `take_range` as (runs, lines the runs cover); checks the runs are
    /// maximal (ascending, never adjacent) and add up to the return value.
    fn take(bm: &DirtyBitmap, off: usize, len: usize) -> (Vec<(usize, usize)>, Vec<usize>) {
        let mut runs = vec![];
        let taken = bm.take_range(off, len, |line, count| runs.push((line, count)));
        assert!(
            runs.windows(2).all(|w| w[0].0 + w[0].1 < w[1].0),
            "{runs:?}"
        );
        let lines: Vec<usize> = runs.iter().flat_map(|&(l, n)| l..l + n).collect();
        assert_eq!(taken, lines.len());
        (runs, lines)
    }

    #[test]
    fn bitmap_marks_and_takes_line_spans() {
        let bm = DirtyBitmap::new(1024);
        bm.mark_range(60, 10); // straddles lines 0 and 1
        assert!(bm.is_dirty(0));
        assert!(bm.is_dirty(1));
        assert!(!bm.is_dirty(2));
        assert_eq!(take(&bm, 0, 1024).1, vec![0, 1]);
        assert_eq!(bm.count_dirty(), 0);
    }

    #[test]
    fn bitmap_take_is_range_scoped() {
        let bm = DirtyBitmap::new(4096);
        bm.mark_range(0, 64);
        bm.mark_range(2048, 64);
        assert_eq!(take(&bm, 0, 64).1, vec![0]);
        assert!(bm.is_dirty(32)); // line at byte 2048 untouched
    }

    #[test]
    fn bitmap_empty_range_is_noop() {
        let bm = DirtyBitmap::new(1024);
        bm.mark_range(100, 0);
        assert_eq!(bm.count_dirty(), 0);
        assert!(take(&bm, 0, 0).1.is_empty());
    }

    #[test]
    fn bitmap_runs_cross_word_boundaries() {
        // 200 lines: words 0..=3, the last one partial.
        let bm = DirtyBitmap::new(200 * CACHELINE);
        // Lines 60..=130 span three words and come back as one run.
        bm.mark_range(60 * CACHELINE, 71 * CACHELINE);
        assert_eq!(bm.count_dirty(), 71);
        assert!(!bm.is_dirty(59) && bm.is_dirty(60) && bm.is_dirty(130) && !bm.is_dirty(131));
        // A take that starts and ends mid-word leaves both flanks dirty.
        assert_eq!(take(&bm, 63 * CACHELINE, 66 * CACHELINE).0, vec![(63, 66)]);
        assert_eq!(take(&bm, 0, 200 * CACHELINE).0, vec![(60, 3), (129, 2)]);
        // Exactly one whole word, and a range running past the last line.
        bm.mark_range(64 * CACHELINE, 64 * CACHELINE);
        bm.mark_range(199 * CACHELINE, CACHELINE);
        assert_eq!(
            take(&bm, 0, 1 << 20).0,
            vec![(64, 64), (199, 1)],
            "take clamps to the bitmap"
        );
        assert_eq!(bm.count_dirty(), 0);
    }

    #[test]
    fn bitmap_takes_only_the_dirty_part_of_a_range() {
        let bm = DirtyBitmap::new(256 * CACHELINE);
        for line in [3, 4, 5, 63, 64, 100, 127, 128, 129, 200] {
            bm.mark_range(line * CACHELINE, 1);
        }
        let (runs, _) = take(&bm, 4 * CACHELINE, 125 * CACHELINE); // lines 4..=128
        assert_eq!(runs, vec![(4, 2), (63, 2), (100, 1), (127, 2)]);
        assert_eq!(take(&bm, 0, 256 * CACHELINE).1, vec![3, 129, 200]);
    }

    #[test]
    fn bitmap_matches_a_per_line_model_on_random_sequences() {
        const LINES: usize = 300; // a partial last word
        for seed in 0..8 {
            let mut rng = DetRng::new(seed);
            let bm = DirtyBitmap::new(LINES * CACHELINE - 17);
            let mut model = [false; LINES];
            for _ in 0..400 {
                let off = rng.index(LINES * CACHELINE - 17);
                let len = rng.index((LINES * CACHELINE - 17 - off).min(40 * CACHELINE) + 1);
                let lines = if len == 0 {
                    0..0
                } else {
                    off / CACHELINE..(off + len - 1) / CACHELINE + 1
                };
                if rng.index(3) > 0 {
                    bm.mark_range(off, len);
                    model[lines].fill(true);
                } else {
                    let expect: Vec<usize> = lines.clone().filter(|&l| model[l]).collect();
                    assert_eq!(take(&bm, off, len).1, expect, "seed {seed}");
                    model[lines].fill(false);
                }
                let dirty = model.iter().filter(|&&d| d).count();
                assert_eq!(bm.count_dirty(), dirty, "seed {seed}");
            }
            assert!((0..LINES).all(|l| bm.is_dirty(l) == model[l]));
        }
    }

    #[test]
    fn flush_copies_whole_runs_and_the_short_last_line() {
        // 1000 bytes: the last line holds 40 bytes.
        let working = SharedBuffer::new(1000);
        let t = PersistenceTracker::new(1000);
        let bytes: Vec<u8> = (0..1000).map(|i| (i % 251) as u8 + 1).collect();
        working.write(0, &bytes);
        t.record_write(&working, 0, 128);
        t.record_write(&working, 900, 100);
        assert_eq!(t.flush(0, 1000), 4); // lines 0, 1, 14, 15
        t.fence(&working);
        working.zero(0, 1000);
        t.crash_restore(&working, &[]);
        let back = working.read_vec(0, 1000);
        assert_eq!(back[..128], bytes[..128]);
        assert!(back[128..896].iter().all(|&b| b == 0));
        assert_eq!(back[896..], bytes[896..]);
    }

    #[test]
    fn unflushed_stores_are_lost_on_crash() {
        let working = SharedBuffer::new(256);
        let t = PersistenceTracker::new(256);

        working.write(0, &[1; 64]);
        t.record_write(&working, 0, 64);
        t.flush(0, 64);
        t.fence(&working); // persisted

        working.write(64, &[2; 64]);
        t.record_write(&working, 64, 64); // NOT flushed

        t.crash_restore(&working, &[]);
        assert_eq!(working.read_vec(0, 64), vec![1; 64]); // survived
        assert_eq!(working.read_vec(64, 64), vec![0; 64]); // lost
    }

    #[test]
    fn flush_reports_line_count() {
        let working = SharedBuffer::new(512);
        let t = PersistenceTracker::new(512);
        working.write(10, &[7; 100]);
        t.record_write(&working, 10, 100);
        // Bytes 10..110 straddle lines 0 and 1.
        assert_eq!(t.flush(0, 512), 2);
        assert_eq!(t.flush(0, 512), 0); // idempotent
    }

    #[test]
    fn partial_flush_persists_only_covered_lines() {
        let working = SharedBuffer::new(256);
        let t = PersistenceTracker::new(256);
        working.write(0, &[9; 256]);
        t.record_write(&working, 0, 256);
        t.flush(0, 64); // only the first line
        t.fence(&working);
        t.crash_restore(&working, &[]);
        assert_eq!(working.read_vec(0, 64), vec![9; 64]);
        assert_eq!(working.read_vec(64, 192), vec![0; 192]);
    }

    #[test]
    fn dirty_line_count_tracks_outstanding_writes() {
        let t = PersistenceTracker::new(1024);
        t.record_write(&SharedBuffer::new(1024), 0, 128);
        assert_eq!(t.dirty_lines(), 2);
    }

    /// Store `bytes` at `off` the way the device does: tracker first.
    fn store(t: &PersistenceTracker, working: &SharedBuffer, off: usize, bytes: &[u8]) {
        t.record_write(working, off, bytes.len());
        working.write(off, bytes);
    }

    #[test]
    fn a_flushed_line_is_not_durable_until_the_fence() {
        let working = SharedBuffer::new(256);
        let t = PersistenceTracker::new(256);
        store(&t, &working, 0, &[1; 64]);
        t.flush(0, 64);
        store(&t, &working, 64, &[2; 64]);
        let lines = t.in_flight(&working);
        assert_eq!(
            lines.iter().map(|l| (l.line, l.state)).collect::<Vec<_>>(),
            vec![(0, LineState::Flushed), (1, LineState::Dirty)]
        );
        // Any subset may have reached media; the fence settles line 0 only.
        assert_eq!(t.image(&[])[..128], [0; 128]);
        assert_eq!(t.image(&lines[1..])[..64], [0; 64]);
        assert_eq!(t.image(&lines[1..])[64..128], [2; 64]);
        t.fence(&working);
        assert_eq!(t.in_flight(&working), lines[1..]);
        t.crash_restore(&working, &[]);
        assert_eq!(working.read_vec(0, 64), vec![1; 64]);
        assert_eq!(working.read_vec(64, 64), vec![0; 64]);
        assert!(t.in_flight(&working).is_empty());
    }

    #[test]
    fn a_fence_retires_the_bytes_a_line_was_flushed_with() {
        let working = SharedBuffer::new(128);
        let t = PersistenceTracker::new(128);
        store(&t, &working, 0, &[1; 64]);
        t.flush(0, 64);
        store(&t, &working, 0, &[2; 8]); // rewritten before the fence
        let lines = t.in_flight(&working);
        assert_eq!(lines.len(), 2, "once flushed (old bytes), once dirty (new)");
        assert_eq!(lines[0].bytes, vec![1; 64]);
        assert_eq!(lines[1].bytes[..8], [2; 8]);
        assert_eq!(
            t.image(&lines)[..8],
            [2; 8],
            "applied in order, the later store wins"
        );
        t.fence(&working);
        t.crash_restore(&working, &[]);
        assert_eq!(working.read_vec(0, 64), vec![1; 64]);
    }

    #[test]
    fn a_crash_keeps_exactly_the_lines_said_to_have_reached_media() {
        let working = SharedBuffer::new(256);
        let t = PersistenceTracker::new(256);
        store(&t, &working, 0, &[7; 192]);
        let lines = t.in_flight(&working);
        t.crash_restore(&working, &[lines[2].clone()]);
        assert_eq!(working.read_vec(0, 128), vec![0; 128]);
        assert_eq!(working.read_vec(128, 64), vec![7; 64]);
    }

    #[test]
    fn persist_range_moves_no_other_line() {
        let working = SharedBuffer::new(256);
        let t = PersistenceTracker::new(256);
        store(&t, &working, 0, &[1; 64]);
        t.flush(0, 64);
        store(&t, &working, 64, &[2; 64]);
        store(&t, &working, 128, &[3; 64]);
        t.persist_range(&working, 128, 64);
        assert_eq!(t.in_flight(&working).len(), 2);
        t.crash_restore(&working, &[]);
        assert_eq!(working.read_vec(0, 128), vec![0; 128]);
        assert_eq!(working.read_vec(128, 64), vec![3; 64]);
    }

    #[test]
    fn subsets_are_exhaustive_when_small_and_replayable_when_sampled() {
        let mut rng = DetRng::new(9);
        assert_eq!(crash_subsets(0, 8, &mut rng), vec![Vec::<usize>::new()]);
        let all = crash_subsets(3, 8, &mut rng);
        assert_eq!(all.len(), 8);
        assert!(all.contains(&vec![]) && all.contains(&vec![0, 2]) && all.contains(&vec![0, 1, 2]));
        let sampled = crash_subsets(40, 6, &mut DetRng::new(5));
        assert_eq!(sampled.len(), 8);
        assert_eq!(sampled[0], Vec::<usize>::new());
        assert_eq!(sampled[1], (0..40).collect::<Vec<_>>());
        assert_eq!(sampled, crash_subsets(40, 6, &mut DetRng::new(5)));
    }
}
