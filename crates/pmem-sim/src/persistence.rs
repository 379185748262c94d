//! Cacheline-granularity persistence tracking for crash simulation.
//!
//! Real PMEM sits behind the CPU cache hierarchy: a store is *visible*
//! immediately but *persistent* only after the line is flushed (CLWB) and a
//! fence drains the write-pending queue. To test crash consistency we keep a
//! shadow copy of the device representing its durable image: writes mark
//! cachelines dirty, `flush` copies the covered lines from the working buffer
//! into the shadow, and a simulated power failure discards the working buffer
//! in favour of the shadow.
//!
//! Tracking costs 2× memory, so the device only enables it in
//! [`crate::device::PersistenceMode::Tracked`]; the benchmark configurations
//! use `Fast` (no shadow) since they never crash.

use crate::buffer::SharedBuffer;
use crate::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Shadow-copy persistence tracker.
#[derive(Debug)]
pub struct PersistenceTracker {
    shadow: SharedBuffer,
    dirty: DirtyBitmap,
    /// Serializes flush/crash so a crash sees a consistent shadow.
    flush_lock: Mutex<()>,
}

impl PersistenceTracker {
    pub fn new(bytes: usize) -> Self {
        PersistenceTracker {
            shadow: SharedBuffer::new(bytes),
            dirty: DirtyBitmap::new(bytes),
            flush_lock: Mutex::new(()),
        }
    }

    /// Record that `[off, off+len)` of the working buffer was overwritten.
    pub fn record_write(&self, off: usize, len: usize) {
        self.dirty.mark_range(off, len);
    }

    /// Persist the dirty lines of `[off, off+len)`: copy them from `working`
    /// into the shadow, one copy per run of consecutive dirty lines. Returns
    /// the number of lines persisted.
    pub fn flush(&self, working: &SharedBuffer, off: usize, len: usize) -> usize {
        let _g = self.flush_lock.lock();
        self.dirty.take_range(off, len, |line, count| {
            let start = line * CACHELINE;
            let end = (start + count * CACHELINE).min(working.len());
            self.shadow.copy_from(start, working, start, end - start);
        })
    }

    /// Simulated power failure: restore the working buffer from the durable
    /// shadow, discarding all unflushed stores.
    pub fn crash_restore(&self, working: &SharedBuffer) {
        let _g = self.flush_lock.lock();
        working.copy_from(0, &self.shadow, 0, working.len());
        self.dirty.clear_all();
    }

    /// Number of lines currently dirty (unpersisted).
    pub fn dirty_lines(&self) -> usize {
        self.dirty.count_dirty()
    }
}

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
        t.record_write(0, 128);
        t.record_write(900, 100);
        assert_eq!(t.flush(&working, 0, 1000), 4); // lines 0, 1, 14, 15
        working.zero(0, 1000);
        t.crash_restore(&working);
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
        t.record_write(0, 64);
        t.flush(&working, 0, 64); // persisted

        working.write(64, &[2; 64]);
        t.record_write(64, 64); // NOT flushed

        t.crash_restore(&working);
        assert_eq!(working.read_vec(0, 64), vec![1; 64]); // survived
        assert_eq!(working.read_vec(64, 64), vec![0; 64]); // lost
    }

    #[test]
    fn flush_reports_line_count() {
        let working = SharedBuffer::new(512);
        let t = PersistenceTracker::new(512);
        working.write(10, &[7; 100]);
        t.record_write(10, 100);
        // Bytes 10..110 straddle lines 0 and 1.
        assert_eq!(t.flush(&working, 0, 512), 2);
        assert_eq!(t.flush(&working, 0, 512), 0); // idempotent
    }

    #[test]
    fn partial_flush_persists_only_covered_lines() {
        let working = SharedBuffer::new(256);
        let t = PersistenceTracker::new(256);
        working.write(0, &[9; 256]);
        t.record_write(0, 256);
        t.flush(&working, 0, 64); // only the first line
        t.crash_restore(&working);
        assert_eq!(working.read_vec(0, 64), vec![9; 64]);
        assert_eq!(working.read_vec(64, 192), vec![0; 192]);
    }

    #[test]
    fn dirty_line_count_tracks_outstanding_writes() {
        let t = PersistenceTracker::new(1024);
        t.record_write(0, 128);
        assert_eq!(t.dirty_lines(), 2);
    }
}
