//! Crash points found by what the flight recorder says happened before them.
//!
//! A tracked device's crash points are its flushes and fences
//! (`PmemDevice::at_crash_points`), and `PmemDevice::crash_at` keeps the
//! durable image at one of them. A test that crashes through the public API
//! cannot mark a point inside a library call; the flight ring can: its events
//! are durable when recorded and are no crash points themselves, so a first
//! run notes how many events precede each point and the test picks the points
//! that fall between the events it names. The run must be deterministic, and
//! short enough that the ring does not wrap.

// Each test target that includes this module uses its own share of it.
#![allow(dead_code)]

use pmdk_sim::doctor::{read_flight, read_lanes};
use pmdk_sim::layout::flight_start;
use pmem_sim::flight::{hdr, EventCode};
use pmem_sim::{Machine, PersistenceMode, PmemDevice};
use std::sync::{Arc, Mutex};

/// Where a run's crash points fall among its flight events.
pub struct Timeline {
    /// How many events the ring held at each crash point.
    marks: Vec<usize>,
    /// The run's events, oldest first.
    codes: Vec<Option<EventCode>>,
}

impl Timeline {
    /// Run `run` against `dev` (tracked, its crash-point hook still free),
    /// noting at every crash point how many flight events came before it.
    pub fn of(dev: &PmemDevice, run: impl FnOnce()) -> Timeline {
        let marks = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&marks);
        dev.at_crash_points(move |dev| {
            let next_seq = dev.read_vec_untimed((flight_start() + hdr::NEXT_SEQ) as usize, 8);
            let recorded = u64::from_le_bytes(next_seq.try_into().unwrap());
            sink.lock().unwrap().push(recorded as usize);
        });
        run();
        let events = read_flight(dev);
        assert_eq!(
            events.first().map_or(0, |e| e.seq),
            0,
            "the flight ring wrapped"
        );
        let marks = std::mem::take(&mut *marks.lock().unwrap());
        let codes = events.iter().map(|e| e.event()).collect();
        Timeline { marks, codes }
    }

    /// The crash points that come right after the events `before` and right
    /// before the events `after` (each oldest first).
    pub fn between(&self, before: &[EventCode], after: &[EventCode]) -> Vec<usize> {
        let at = |from: usize, want: &[EventCode]| {
            let got = self.codes.get(from..from + want.len());
            got.is_some_and(|got| got.iter().zip(want).all(|(g, w)| *g == Some(*w)))
        };
        (0..self.marks.len())
            .filter(|&k| {
                let m = self.marks[k];
                m >= before.len() && at(m - before.len(), before) && at(m, after)
            })
            .collect()
    }
}

/// The durable image at crash point `k` of `run` against `dev` (tracked, its
/// crash-point hook still free).
pub fn image_at(dev: &PmemDevice, k: usize, run: impl FnOnce()) -> Vec<u8> {
    let crashed = dev.crash_at(k);
    run();
    let (points, image) = crashed();
    image.unwrap_or_else(|| panic!("crash point {k} of a run with {points}"))
}

/// `image` on a device of its own, all of it durable.
pub fn device_with(image: &[u8], mode: PersistenceMode) -> Arc<PmemDevice> {
    let dev = PmemDevice::new(Machine::chameleon(), image.len(), mode);
    dev.write_untimed(0, image);
    if mode == PersistenceMode::Tracked {
        dev.persist_untimed(0, image.len());
    }
    dev
}

/// The first of `points`, in the order given, whose image (`image(k)`)
/// holds an ACTIVE lane. Forwards, a crash there finds a transaction's first
/// count store durable; backwards, a transaction logged in full and not
/// committed.
pub fn first_active<'a>(
    points: impl IntoIterator<Item = &'a usize>,
    image: impl Fn(usize) -> Arc<PmemDevice>,
) -> usize {
    *(points.into_iter())
        .find(|&&k| read_lanes(&image(k)).active > 0)
        .expect("a point with an ACTIVE lane")
}
