//! Fence-aware crash-state exploration (DESIGN §13.3).
//!
//! A crash test that keeps the image at one crash point, every unfenced line
//! dropped, sees one image. Hardware admits many more: at a power failure
//! any subset of the *in-flight* cachelines — stored or flushed, not yet
//! fenced — may have reached media. This target walks them. A scenario runs
//! on a `Tracked` device whose crash-point hook fires before **every flush
//! and every fence**; at each point the harness asks
//! `pmem_sim::crash_subsets` which subsets to try (all of them up to
//! `EXHAUSTIVE_LINES` in-flight lines, `SAMPLES` seeded draws plus
//! none/all beyond), materialises *durable image + subset*, runs the real
//! recovery on it and judges the result:
//!
//! * pool scenarios: `PmemPool::open` (lane recovery), `check_heap`, the
//!   `pmdk_sim::doctor` walks, and the transaction's all-or-nothing state;
//! * table scenarios: the above plus `PersistentHashtable::open` and the
//!   content contract — every acknowledged put byte-identical, the put in
//!   flight entirely old or entirely new, and an acknowledged key it
//!   overwrites never without both its values;
//! * `Pmem` scenarios, inline and write-behind, on a table that never
//!   splits and on one that is mid-split most of the time: `Pmem::mmap`
//!   (lane recovery → table open → `WriteBehindState::attach` replay), the
//!   same content contract through the public API (a commit group in flight
//!   is all or nothing, byte-exact, in both modes), `munmap`, and then
//!   `pmemcpy-doctor`'s verdict on what is left;
//! * recovery itself: a write-behind pool crashed inside a checkpoint
//!   drain's migration chunk, recovered by `PmemPool::open` +
//!   `PersistentHashtable::open` and crashed there; every image must recover
//!   to the durable table, and mount to the contents, the first-level image
//!   recovers and mounts to.
//!
//! The state budget is fixed: a first pass counts the scenario's crash
//! points, the second explores them under `STATE_BUDGET` images (every
//! point when they fit, a stride of them otherwise). Everything is seeded
//! from `SEED`; a failure names the seed, the crash-point index and the
//! subset, and re-running the test replays it.
//!
//! The negative control is a hand-written publish protocol on a bare
//! device: without the fence between flushing the payload and publishing
//! it the explorer must find the image in which the flag is durable and
//! the payload is not; with the fence it must find none.

mod support;

use mpi_sim::{Comm, World};
use pmdk_sim::doctor::{read_lanes, walk_hashtable, walk_heap};
use pmdk_sim::hashtable::fnv1a;
use pmdk_sim::layout::{
    heap_start, lane_log, lane_offset, walk_blocks, BlockHeader, BLOCK_ALLOC, BLOCK_FREE,
    BLOCK_HEADER_SIZE, ENT_KEY, HDR_HEADS,
};
use pmdk_sim::{PersistentHashtable, PmdkError, PmemPool};
use pmem_sim::flight::EventCode::{SplitBegin, TxBegin, TxCommit};
use pmem_sim::{crash_subsets, Clock, DetRng, Machine, PersistenceMode, PmemDevice};
use pmemcpy::{registry, MmapTarget, Options, Pmem};
use pmemcpy_bench::doctor::diagnose;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use support::{device_with, first_active, image_at, Timeline};

/// Seed of every sampled subset; printed with each scenario's tally.
const SEED: u64 = 0x21;
/// Images one scenario may materialise and recover.
const STATE_BUDGET: usize = 4000;
/// Sampled subsets per crash point with more than `EXHAUSTIVE_LINES` lines
/// in flight (on top of none and all).
const SAMPLES: usize = 6;

const POOL_BYTES: usize = 1 << 20;
const LAYOUT: &str = "crash-states";

// ---- the harness ----

/// What a scenario tells the harness about the contract: `M` is the model
/// the judge reads, and the scenario updates it around every operation —
/// what the operation may leave behind before it starts, what holds once it
/// has returned.
struct Explorer<M> {
    model: Mutex<M>,
    /// Crash points are skipped while set (see [`Explorer::paused`]).
    paused: AtomicBool,
}

impl<M> Explorer<M> {
    fn update(&self, f: impl FnOnce(&mut M)) {
        f(&mut self.model.lock().unwrap());
    }

    /// Run `f` with crash points off. `Pmem::mmap` holds the process-wide
    /// pool registry lock while it recovers, and judging an image mounts
    /// too: a crash point inside a mount would wait on its own thread.
    fn paused<T>(&self, f: impl FnOnce() -> T) -> T {
        self.paused.store(true, Ordering::Relaxed);
        let out = f();
        self.paused.store(false, Ordering::Relaxed);
        out
    }
}

#[derive(Debug, Default)]
struct Tally {
    points: usize,
    images: usize,
    max_in_flight: usize,
    failures: Vec<String>,
}

/// Explore `scenario` over a device of `bytes`. `setup` builds the
/// scenario's starting state (it is not explored); `judge(model, image)`
/// recovers the image device and says what is wrong with it, if anything.
fn explore<S, M: Send + 'static>(
    name: &str,
    bytes: usize,
    setup: impl Fn(&Arc<PmemDevice>) -> (S, M),
    judge: impl Fn(&M, &Arc<PmemDevice>) -> Result<(), String> + Send + Sync + 'static,
    scenario: impl Fn(&S, &Explorer<M>),
) -> Tally {
    let tracked = || PmemDevice::new(Machine::chameleon(), bytes, PersistenceMode::Tracked);
    let explorer = |model| {
        Arc::new(Explorer {
            model: Mutex::new(model),
            paused: AtomicBool::new(false),
        })
    };

    // Pass 1: how many crash points does the scenario have?
    let dev = tracked();
    let (state, model) = setup(&dev);
    let ex = explorer(model);
    let counted = Arc::new(AtomicUsize::new(0));
    let (count, pausing) = (Arc::clone(&counted), Arc::clone(&ex));
    dev.at_crash_points(move |_| {
        if !pausing.paused.load(Ordering::Relaxed) {
            count.fetch_add(1, Ordering::Relaxed);
        }
    });
    scenario(&state, &ex);
    let points = counted.load(Ordering::Relaxed);
    drop(state);
    registry::release_pool(&dev);

    // Pass 2: the same run, judged. Every `stride`-th point, `cap` images
    // each at most, so the whole scenario stays under the budget.
    let stride = points.div_ceil(STATE_BUDGET).max(1);
    let cap = (STATE_BUDGET * stride / points.max(1)).max(1);
    let dev = tracked();
    let (state, model) = setup(&dev);
    let ex = explorer(model);
    let tally = Arc::new(Mutex::new(Tally::default()));
    let scratch = PmemDevice::new(Machine::chameleon(), bytes, PersistenceMode::Fast);
    let rng = Mutex::new(DetRng::new(SEED));
    let judge = Arc::new(judge);
    let (hook_ex, hook_tally, label) = (Arc::clone(&ex), Arc::clone(&tally), name.to_string());
    let (hook_judge, hook_scratch) = (Arc::clone(&judge), Arc::clone(&scratch));
    dev.at_crash_points(move |dev| {
        let (judge, scratch) = (&hook_judge, &hook_scratch);
        if hook_ex.paused.load(Ordering::Relaxed) {
            return;
        }
        let mut tally = hook_tally.lock().unwrap();
        let point = tally.points;
        tally.points += 1;
        if point % stride != 0 || !tally.failures.is_empty() {
            return;
        }
        let lines = dev.in_flight();
        tally.max_in_flight = tally.max_in_flight.max(lines.len());
        let mut rng = rng.lock().unwrap();
        let mut subsets = crash_subsets(lines.len(), SAMPLES, &mut rng);
        while subsets.len() > cap {
            subsets.swap_remove(rng.index(subsets.len()));
        }
        let model = hook_ex.model.lock().unwrap();
        for subset in subsets {
            let reached: Vec<_> = subset.iter().map(|&i| lines[i].clone()).collect();
            scratch.write_untimed(0, &dev.crash_image(&reached));
            tally.images += 1;
            let verdict = catch_unwind(AssertUnwindSafe(|| judge(&model, scratch)))
                .unwrap_or_else(|_| Err("recovery panicked".into()));
            registry::release_pool(scratch);
            if let Err(why) = verdict {
                let all: Vec<_> = lines.iter().map(|l| (l.line, l.state)).collect();
                tally.failures.push(format!(
                    "{label}: seed {SEED:#x}, crash point {point} of {points}, lines {subset:?} \
                     of the {} in flight {all:?} reached media: {why}",
                    lines.len()
                ));
                return;
            }
        }
    });
    scenario(&state, &ex);
    drop(state);
    registry::release_pool(&dev);
    // The scenario's last fence is behind us: what is durable now is what
    // every acknowledgement promised.
    let lines = dev.in_flight();
    scratch.write_untimed(0, &dev.crash_image(&[]));
    let mut tally = std::mem::take(&mut *tally.lock().unwrap());
    if let Err(why) = judge(&ex.model.lock().unwrap(), &scratch) {
        let n = lines.len();
        tally.failures.push(format!(
            "{name}: after the last fence ({n} lines left in flight): {why}"
        ));
    }
    registry::release_pool(&scratch);
    assert_eq!(
        tally.points, points,
        "{name}: the scenario is deterministic"
    );
    println!(
        "crash_states[{name}]: seed {SEED:#x}, budget {STATE_BUDGET}: {points} crash points, \
         stride {stride}, {} images, at most {} lines in flight",
        tally.images, tally.max_in_flight
    );
    tally
}

fn assert_clean(tally: Tally) {
    assert!(tally.failures.is_empty(), "{}", tally.failures.join("\n"));
    assert!(
        tally.images > tally.points.min(STATE_BUDGET) / 2,
        "{tally:?}"
    );
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---- the negative control: a bare device and a hand-written protocol ----

const PAYLOAD: [u8; 64] = [0xAA; 64];
const FLAG_AT: usize = 128;

/// Store the payload, flush it, (fence,) then store and persist the word
/// that publishes it.
fn publish(dev: &PmemDevice, fence: bool) {
    let clock = Clock::new();
    dev.write(&clock, 0, &PAYLOAD);
    dev.flush(&clock, 0, PAYLOAD.len());
    if fence {
        dev.drain(&clock);
    }
    dev.write(&clock, FLAG_AT, &1u64.to_le_bytes());
    dev.persist(&clock, FLAG_AT, 8);
}

fn published_payload_is_whole(_: &(), image: &Arc<PmemDevice>) -> Result<(), String> {
    let flag = image.read_vec_untimed(FLAG_AT, 8) != [0; 8];
    if flag && image.read_vec_untimed(0, 64) != PAYLOAD {
        return Err("the flag is durable and the payload it publishes is not".into());
    }
    Ok(())
}

#[test]
fn a_missing_fence_yields_a_violating_image_and_the_fence_removes_it() {
    let run = |name, fence| {
        explore(
            name,
            4096,
            |dev| (Arc::clone(dev), ()),
            published_payload_is_whole,
            move |dev: &Arc<PmemDevice>, _| publish(dev, fence),
        )
    };
    let unfenced = run("control/unfenced", false);
    assert_eq!(unfenced.failures.len(), 1, "{unfenced:?}");
    // Already before the flag's own flush: the payload is flushed, the flag
    // merely stored, and the cache evicted the flag first.
    assert!(
        unfenced.failures[0].contains("crash point 1 of 3"),
        "{unfenced:?}"
    );
    assert_clean(run("control/fenced", true));
}

// ---- pool scenarios: transactions over raw allocations ----

/// One state a pool may be found in: these bytes at these offsets and this
/// many bytes allocated.
#[derive(Debug, Clone, PartialEq)]
struct PoolState {
    bytes: BTreeMap<u64, Vec<u8>>,
    allocated: u64,
}

/// The states a recovered pool may be in: one between transactions, two
/// (before, after) while one is in flight.
#[derive(Debug, Default)]
struct PoolModel {
    allowed: Vec<PoolState>,
}

/// Recover `image` as a pool and hold it to the structural half of the
/// contract: it opens, no lane is left busy, the heap walks and the
/// volatile allocator agrees with it.
fn recovered_pool(image: &Arc<PmemDevice>, layout: &str) -> Result<Arc<PmemPool>, String> {
    let pool = PmemPool::open(&Clock::new(), Arc::clone(image), layout).map_err(text)?;
    pool.check_heap().map_err(text)?;
    let lanes = read_lanes(image);
    if !lanes.all_idle() {
        return Err(format!("lanes left busy after recovery: {:?}", lanes.busy));
    }
    let heap = walk_heap(image);
    if !heap.ok() {
        return Err(format!("heap walk: {}", heap.errors.join("; ")));
    }
    Ok(pool)
}

fn judge_pool(model: &PoolModel, image: &Arc<PmemDevice>) -> Result<(), String> {
    let pool = recovered_pool(image, LAYOUT)?;
    let before = &model.allowed[0];
    let found = PoolState {
        bytes: before
            .bytes
            .iter()
            .map(|(&off, b)| (off, image.read_vec_untimed(off as usize, b.len())))
            .collect(),
        allocated: pool.allocated_bytes(),
    };
    if model.allowed.contains(&found) {
        return Ok(());
    }
    Err(format!("found {found:?}, allowed {:?}", model.allowed))
}

struct PoolFixture {
    pool: Arc<PmemPool>,
    clock: Clock,
    root: u64,
    /// A live block between two others: freeing it leaves a hole whose
    /// reuse splits a free block that has a physical successor.
    hole: u64,
    victim: u64,
}

fn pool_fixture(dev: &Arc<PmemDevice>) -> (PoolFixture, PoolModel) {
    let clock = Clock::new();
    let pool = PmemPool::create(&clock, Arc::clone(dev), LAYOUT).unwrap();
    let root = pool.root(&clock, 64).unwrap();
    pool.write_bytes(&clock, root, &[1u8; 64]);
    let hole = pool.alloc(&clock, 1024).unwrap();
    let victim = pool.alloc(&clock, 128).unwrap();
    let state = PoolState {
        bytes: BTreeMap::from([(root, vec![1u8; 64])]),
        allocated: pool.allocated_bytes(),
    };
    let fixture = PoolFixture {
        pool,
        clock,
        root,
        hole,
        victim,
    };
    let model = PoolModel {
        allowed: vec![state],
    };
    (fixture, model)
}

/// Run one transaction that takes the pool from its current state to
/// `after(current)`, or — `commits == false` — aborts back to it.
fn pool_step(
    fx: &PoolFixture,
    ex: &Explorer<PoolModel>,
    commits: bool,
    after: impl FnOnce(&mut PoolState),
    body: impl FnOnce(&mut pmdk_sim::Tx<'_>) -> Result<(), PmdkError>,
) {
    ex.update(|m| {
        let mut next = m.allowed[0].clone();
        after(&mut next);
        if commits {
            m.allowed.push(next);
        }
    });
    let outcome = fx.pool.tx(&fx.clock, body);
    assert_eq!(outcome.is_ok(), commits, "{outcome:?}");
    ex.update(|m| {
        m.allowed = vec![m.allowed.pop().unwrap()];
        // The model's arithmetic is the allocator's.
        assert_eq!(m.allowed[0].allocated, fx.pool.allocated_bytes());
    });
}

/// A non-transactional allocator call that moves `allocated` by `delta`:
/// either side of it is a state the pool may be found in.
fn pool_call(fx: &PoolFixture, ex: &Explorer<PoolModel>, delta: i64, call: impl FnOnce()) {
    ex.update(|m| {
        let mut next = m.allowed[0].clone();
        next.allocated = next.allocated.wrapping_add_signed(delta);
        m.allowed.push(next);
    });
    call();
    ex.update(|m| {
        m.allowed.remove(0);
        assert_eq!(m.allowed[0].allocated, fx.pool.allocated_bytes());
    });
}

/// alloc + undo-free stores + the snapshotted word that publishes them.
fn alloc_and_publish(fx: &PoolFixture, ex: &Explorer<PoolModel>) {
    let root = fx.root;
    pool_step(
        fx,
        ex,
        true,
        |s| {
            s.bytes.get_mut(&root).unwrap()[16..24].fill(3);
            s.allocated += 256;
        },
        |tx| {
            let fresh = tx.alloc(200)?;
            tx.write_new(fresh, &[3u8; 200]);
            tx.set(root + 16, &[3u8; 8])
        },
    );
}

/// Whether `image` holds an ACTIVE lane's alloc intent whose own header
/// says ALLOC *inside* a block the heap walk sees FREE: a group whose
/// interior headers landed and whose commit header did not. Freeing such an
/// entry on the header's word would corrupt the heap.
fn holds_an_uncommitted_group(image: &Arc<PmemDevice>) -> bool {
    let mut free = vec![];
    walk_blocks(image, heap_start(), image.size() as u64, |block| {
        if let Ok((at, h)) = block {
            if h.state == BLOCK_FREE {
                free.push(at + BLOCK_HEADER_SIZE..at + BLOCK_HEADER_SIZE + h.size);
            }
        }
        true
    });
    let says_alloc = |payload: u64| {
        BlockHeader::read(image, payload - BLOCK_HEADER_SIZE).is_ok_and(|h| h.state == BLOCK_ALLOC)
    };
    (lane_log(&**image, lane_offset(0))
        .unwrap_or_default()
        .iter())
    .filter(|r| r.is_intent())
    .any(|r| free.iter().any(|f| f.contains(&r.off) && f.start != r.off) && says_alloc(r.off))
}

#[test]
fn transactions_are_all_or_nothing_in_every_crash_state() {
    let uncommitted_groups = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&uncommitted_groups);
    let judge = move |model: &PoolModel, image: &Arc<PmemDevice>| {
        if holds_an_uncommitted_group(image) {
            seen.fetch_add(1, Ordering::Relaxed);
        }
        judge_pool(model, image)
    };
    let tally = explore("tx", POOL_BYTES, pool_fixture, judge, |fx, ex| {
        let (root, word) = (fx.root, |b: u8| vec![b; 8]);
        // Two snapshotted words.
        pool_step(
            fx,
            ex,
            true,
            |s| s.bytes.get_mut(&root).unwrap()[..16].fill(2),
            |tx| {
                tx.set(root, &word(2))?;
                tx.set(root + 8, &word(2))
            },
        );
        // A free outside any transaction: the hole the next steps reuse.
        pool_call(fx, ex, -1024, || fx.pool.free(&fx.clock, fx.hole).unwrap());
        alloc_and_publish(fx, ex);
        // A deferred free and a group allocation in one transaction. Between
        // the group's intents and its commit header the interior headers
        // already say ALLOC inside a free block.
        pool_step(
            fx,
            ex,
            true,
            |s| {
                s.bytes.get_mut(&root).unwrap()[24..32].fill(4);
                s.allocated = s.allocated - 128 + 64 + 256 + 64;
            },
            |tx| {
                tx.free(fx.victim)?;
                for at in tx.alloc_many(&[64, 200, 64], fx.pool.headers(&fx.clock))? {
                    tx.write_new(at, &[4u8; 64]);
                }
                tx.set(root + 24, &word(4))
            },
        );
        // Fresh stores only: the commit itself has to fence them.
        pool_step(
            fx,
            ex,
            true,
            |s| s.allocated += 64,
            |tx| {
                let fresh = tx.alloc(64)?;
                tx.write_new(fresh, &[5u8; 64]);
                Ok(())
            },
        );
        // An abort the application asked for rolls back in place.
        pool_step(
            fx,
            ex,
            false,
            |_| {},
            |tx| {
                tx.alloc(512)?;
                tx.set(root + 32, &word(6))?;
                Err(PmdkError::TxFailure("abort".into()))
            },
        );
        // A fragmented heap: a 320-byte hole behind a pinned block, and
        // ballast that leaves a 352-byte last block. No one block holds a
        // pair of 256s, so the group is two carves — the hole whole, then a
        // split of the last block — behind one set of intents.
        let alloc = |size: u64| {
            let mut at = 0;
            pool_call(fx, ex, size as i64, || {
                at = fx.pool.alloc(&fx.clock, size).unwrap()
            });
            at
        };
        let gap = alloc(320);
        alloc(64);
        alloc(fx.pool.free_bytes() - 352 - BLOCK_HEADER_SIZE);
        pool_call(fx, ex, -320, || fx.pool.free(&fx.clock, gap).unwrap());
        let passes = || fx.pool.device().machine().stats.snapshot().alloc_passes;
        let before = passes();
        pool_step(
            fx,
            ex,
            true,
            |s| {
                s.bytes.get_mut(&root).unwrap()[40..48].fill(7);
                s.allocated += 320 + 256;
            },
            |tx| {
                for at in tx.alloc_many(&[200, 200], fx.pool.headers(&fx.clock))? {
                    tx.write_new(at, &[7u8; 200]);
                }
                tx.set(root + 40, &word(7))
            },
        );
        assert_eq!(passes() - before, 2, "the group took two carves");
    });
    assert_clean(tally);
    assert!(uncommitted_groups.load(Ordering::Relaxed) > 0);
}

/// Found by this explorer in PR 21 (seed 0x21, scenario `tx`, crash point
/// 36, the alloc header's line reaching media) and tolerated until PR 22:
/// `Tx::alloc` filled its intent slot only after the heap had handed the
/// offset out, so a crash between the heap's commit header and the slot's
/// fence left the block allocated with no intent to free it by. The intent
/// is durable before the carve now.
#[test]
fn an_allocation_is_never_durable_before_its_intent() {
    assert_clean(explore(
        "tx/alloc-intent",
        POOL_BYTES,
        pool_fixture,
        judge_pool,
        alloc_and_publish,
    ));
}

/// Media keeps adjacent FREE blocks apart; the free map merges them. The
/// hole and the victim behind it are freed — the first outside a
/// transaction, the second in one after a set, its FREE word behind a count
/// store of its own —
/// into one region with the heap's free tail, and a transaction carves
/// 1 100 bytes from its start and fills them before its commit header,
/// across the victim's header: the region's merged header is stored first,
/// fenced by the count store, so no image holds a fill where the walk reads
/// a header, and the carve is all or nothing.
#[test]
fn a_carve_across_adjacent_free_blocks_is_all_or_nothing_in_every_crash_state() {
    let tally = explore(
        "tx/merge",
        POOL_BYTES,
        pool_fixture,
        judge_pool,
        |fx, ex| {
            pool_call(fx, ex, -1024, || fx.pool.free(&fx.clock, fx.hole).unwrap());
            // A free staged after the set's count store: the commit stores
            // one more before the FREE word.
            let root = fx.root;
            pool_step(
                fx,
                ex,
                true,
                |s| {
                    s.bytes.get_mut(&root).unwrap()[..8].fill(8);
                    s.allocated -= 128;
                },
                |tx| {
                    tx.set(root, &[8u8; 8])?;
                    tx.free(fx.victim)
                },
            );
            assert_eq!(walk_heap(fx.pool.device()).free_blocks, 3);
            pool_step(
                fx,
                ex,
                true,
                |s| {
                    s.bytes.get_mut(&root).unwrap()[8..16].fill(9);
                    s.allocated += 1152;
                },
                |tx| {
                    let dev = fx.pool.device();
                    let fill = |_: usize, at: &[u64], _: &[u8]| {
                        dev.write_meta(&fx.clock, at[0] as usize, &[9u8; 1100]);
                        dev.flush(&fx.clock, at[0] as usize, 1100);
                        Ok(())
                    };
                    let at = tx.alloc_many(&[1100], fill)?;
                    assert_eq!(at, [fx.hole], "the carve starts at the hole");
                    tx.set(root + 8, &[9u8; 8])
                },
            );
            assert_eq!(walk_heap(fx.pool.device()).free_blocks, 1);
        },
    );
    assert_clean(tally);
}

// ---- table scenarios: the persistent hashtable on its own pool ----

/// The content contract over keys `K` and owed values `V`.
#[derive(Debug)]
struct Contract<K, V> {
    /// Every acknowledged key.
    acked: BTreeMap<K, V>,
    /// What the operation in flight does, all of it or none: key → what is
    /// owed for it afterwards (`None`: removed).
    in_flight: BTreeMap<K, Option<V>>,
}

impl<K, V> Default for Contract<K, V> {
    fn default() -> Self {
        Contract {
            acked: BTreeMap::new(),
            in_flight: BTreeMap::new(),
        }
    }
}

impl<K: Ord + Clone, V: Clone> Contract<K, V> {
    fn begin(&mut self, op: impl IntoIterator<Item = (K, Option<V>)>) {
        self.in_flight = op.into_iter().collect();
    }

    fn ack(&mut self) {
        self.acked = self.after();
        self.in_flight.clear();
    }

    /// Every acknowledged key the operation in flight overwrites: the key,
    /// its acknowledged value and the one it is being given. Whatever else
    /// a crash leaves, such a key holds one of the two.
    fn overwrites(&self) -> impl Iterator<Item = (&K, &V, &V)> {
        (self.in_flight.iter()).filter_map(|(k, new)| Some((k, self.acked.get(k)?, new.as_ref()?)))
    }

    /// The acknowledged contents with the operation in flight applied.
    fn after(&self) -> BTreeMap<K, V> {
        let mut after = self.acked.clone();
        for (key, val) in &self.in_flight {
            match val {
                Some(val) => after.insert(key.clone(), val.clone()),
                None => after.remove(key),
            };
        }
        after
    }
}

#[derive(Debug, Default)]
struct TableModel {
    header: u64,
    contract: Contract<Vec<u8>, Vec<u8>>,
}

impl TableModel {
    /// `found` is the acknowledged contents, with the operation in flight
    /// applied entirely or not at all.
    fn admits(&self, found: &BTreeMap<Vec<u8>, Vec<u8>>) -> Result<(), String> {
        let Contract { acked, in_flight } = &self.contract;
        let show = |k: &Vec<u8>| String::from_utf8_lossy(k).into_owned();
        for (key, old, new) in self.contract.overwrites() {
            if found.get(key).is_none_or(|f| f != old && f != new) {
                return Err(format!(
                    "acknowledged {} lost its old and its new value",
                    show(key)
                ));
            }
        }
        if found == acked || *found == self.contract.after() {
            return Ok(());
        }
        let settled = || acked.iter().filter(|(k, _)| !in_flight.contains_key(*k));
        let lost: Vec<_> = settled()
            .filter(|(k, _)| !found.contains_key(*k))
            .map(|(k, _)| show(k))
            .collect();
        let wrong: Vec<_> = settled()
            .filter(|(k, v)| found.get(*k).is_some_and(|f| f != *v))
            .map(|(k, _)| show(k))
            .collect();
        Err(format!(
            "contents are neither before nor after the operation in flight on {:?}: \
             {} keys found, {} acknowledged; lost {lost:?}, wrong bytes {wrong:?}",
            in_flight.keys().map(show).collect::<Vec<_>>(),
            found.len(),
            acked.len(),
        ))
    }
}

fn judge_table(model: &TableModel, image: &Arc<PmemDevice>) -> Result<(), String> {
    let pool = recovered_pool(image, LAYOUT)?;
    let clock = Clock::new();
    let ht = PersistentHashtable::open(&clock, &pool, model.header).map_err(text)?;
    let found: BTreeMap<_, _> = (ht.keys(&clock).into_iter())
        .map(|k| {
            let v = ht.get(&clock, &k).ok_or("a listed key has no value")?;
            Ok((k, v))
        })
        .collect::<Result<_, String>>()?;
    model.admits(&found)?;
    if ht.len(&clock) != found.len() as u64 {
        return Err(format!("len {} over {} keys", ht.len(&clock), found.len()));
    }
    let walk = walk_hashtable(image, model.header);
    if !walk.ok() || walk.reachable != found.len() as u64 {
        let errors = walk.errors.join("; ");
        return Err(format!(
            "doctor walk: {} reachable, {errors}",
            walk.reachable
        ));
    }
    // The recovered table takes a mutation: nothing is left half-linked.
    ht.put(&clock, b"\0probe", b"x").map_err(text)?;
    pool.check_heap().map_err(text)
}

struct TableFixture {
    ht: PersistentHashtable,
    pool: Arc<PmemPool>,
    clock: Clock,
}

fn table_fixture(buckets: u64) -> impl Fn(&Arc<PmemDevice>) -> (TableFixture, TableModel) {
    move |dev| {
        let clock = Clock::new();
        let pool = PmemPool::create(&clock, Arc::clone(dev), LAYOUT).unwrap();
        let ht = PersistentHashtable::create(&clock, &pool, buckets).unwrap();
        let model = TableModel {
            header: ht.header_offset(),
            ..TableModel::default()
        };
        (TableFixture { ht, pool, clock }, model)
    }
}

fn key(i: u32) -> Vec<u8> {
    format!("key-{i:03}").into_bytes()
}

/// A value that differs per key and per generation, 8..72 bytes: some fit
/// the entry's first cacheline, some straddle two.
fn value(i: u32, generation: u8) -> Vec<u8> {
    vec![generation ^ i as u8; 8 + (i as usize * 13 + generation as usize * 29) % 64]
}

fn put(fx: &TableFixture, ex: &Explorer<TableModel>, i: u32, generation: u8) {
    let v = value(i, generation);
    ex.update(|m| m.contract.begin([(key(i), Some(v.clone()))]));
    fx.ht.put(&fx.clock, &key(i), &v).unwrap();
    ex.update(|m| m.contract.ack());
}

fn remove(fx: &TableFixture, ex: &Explorer<TableModel>, i: u32) {
    ex.update(|m| m.contract.begin([(key(i), None)]));
    assert!(fx.ht.remove(&fx.clock, &key(i)).unwrap());
    ex.update(|m| m.contract.ack());
}

#[test]
fn puts_replaces_and_removes_are_atomic_in_every_crash_state() {
    let scenario = |fx: &TableFixture, ex: &Explorer<TableModel>| {
        for i in 0..6 {
            put(fx, ex, i, 1);
        }
        put(fx, ex, 1, 2);
        put(fx, ex, 3, 2);
        remove(fx, ex, 0);
        remove(fx, ex, 4);
        put(fx, ex, 0, 3);
        put(fx, ex, 5, 4);
        assert!(!fx.ht.splitting() && fx.ht.bucket_count() == 16);
    };
    assert_clean(explore(
        "table",
        POOL_BYTES,
        table_fixture(16),
        judge_table,
        scenario,
    ));
}

/// A value of several 256-byte windows, 600..800 bytes: its heads ride
/// its first window.
fn long_value(i: u32, generation: u8) -> Vec<u8> {
    vec![generation ^ i as u8; 600 + (i as usize * 37 + generation as usize * 11) % 200]
}

/// One group put of `ids` at `generation`, values made by `value` and
/// written by the fill — each into its entry, behind the head it shares a
/// store with, flushed — before the transaction links them.
fn group(
    fx: &TableFixture,
    ex: &Explorer<TableModel>,
    ids: std::ops::Range<u32>,
    generation: u8,
    value: fn(u32, u8) -> Vec<u8>,
) {
    let values: Vec<_> = ids.clone().map(|i| value(i, generation)).collect();
    let keys: Vec<_> = ids.map(key).collect();
    let reqs: Vec<(&[u8], u64, u64)> = (keys.iter().zip(&values))
        .map(|(k, v)| (k.as_slice(), v.len() as u64, 0))
        .collect();
    ex.update(|m| {
        let puts = keys.iter().cloned().zip(values.iter().cloned().map(Some));
        m.contract.begin(puts)
    });
    let dev = fx.pool.device();
    (fx.ht.put_many(&fx.clock, &reqs, |i, v, head| {
        let start = v.offset as usize - head[0].len() - head[1].len();
        let whole = [head[0], head[1], &values[i]].concat();
        dev.write(&fx.clock, start, &whole);
        dev.flush(&fx.clock, start, whole.len());
        Ok(())
    }))
    .unwrap();
    ex.update(|m| m.contract.ack());
}

#[test]
fn a_64_key_reservation_is_all_or_nothing_in_every_crash_state() {
    let scenario = |fx: &TableFixture, ex: &Explorer<TableModel>| {
        group(fx, ex, 0..64, 1, value);
        // Half replacements, half fresh keys, in one group.
        group(fx, ex, 32..96, 2, value);
        // Values longer than a window, replacing and fresh.
        group(fx, ex, 92..100, 3, long_value);
        assert!(!fx.ht.splitting() && fx.ht.bucket_count() == 256);
    };
    assert_clean(explore(
        "group",
        POOL_BYTES,
        table_fixture(256),
        judge_table,
        scenario,
    ));
}

/// A group that overwrites acknowledged keys only, some of them sharing a
/// bucket: at no crash point does one of them read neither its old nor its
/// new bytes (before the values came first, a crash after the commit and
/// before a value's persist lost both).
#[test]
fn an_overwritten_key_keeps_its_old_or_its_new_value_in_every_crash_state() {
    let scenario = |fx: &TableFixture, ex: &Explorer<TableModel>| {
        group(fx, ex, 0..48, 1, value);
        group(fx, ex, 0..48, 2, value);
        group(fx, ex, 8..40, 3, value);
        assert!(!fx.ht.splitting() && fx.ht.bucket_count() == 128);
    };
    assert_clean(explore(
        "overwrite",
        POOL_BYTES,
        table_fixture(128),
        judge_table,
        scenario,
    ));
}

/// If the next mutation begins a split, make the block its doubled
/// directory will be handed recycled memory full of pointer-shaped garbage:
/// a block that size — kept apart from the free tail by a live block after
/// it, so freeing it coalesces nothing — gets self-pointers in its even
/// words and the entries of live keys from other buckets in its odd ones,
/// and is freed for the split's allocation to reuse. Crash points are off
/// meanwhile; returns the block.
fn poison_the_next_directory(fx: &TableFixture, ex: &Explorer<TableModel>) -> Option<u64> {
    let (clock, buckets) = (&fx.clock, fx.ht.bucket_count());
    if fx.ht.splitting() || 2 * fx.ht.len(clock) <= buckets {
        return None;
    }
    let slots = 2 * buckets;
    ex.paused(|| {
        let block = fx.pool.alloc(clock, slots * 8).unwrap();
        fx.pool.alloc(clock, 64).unwrap();
        let live: Vec<(u64, u64)> = (fx.ht.keys(clock).iter())
            .map(|k| {
                let entry = fx.ht.get_ref(clock, k).unwrap().offset - ENT_KEY - k.len() as u64;
                (fnv1a(k) % slots, entry)
            })
            .collect();
        let garbage: Vec<u8> = (0..slots)
            .map(|b| match b % 2 {
                0 => block + b * 8,
                _ => live.iter().find(|&&(home, _)| home != b).unwrap().1,
            })
            .flat_map(u64::to_le_bytes)
            .collect();
        fx.pool.write_bytes(clock, block, &garbage);
        fx.pool.free(clock, block).unwrap();
        Some(block)
    })
}

/// Every split of this scenario doubles the directory onto a poisoned block
/// (see [`poison_the_next_directory`]), so every mid-split crash image holds
/// garbage, not zeros, in the slots the cursor has not passed.
#[test]
fn a_split_is_consistent_from_its_first_chunk_to_its_retirement() {
    let scenario = |fx: &TableFixture, ex: &Explorer<TableModel>| {
        let directory = || {
            fx.pool
                .read_u64(&fx.clock, fx.ht.header_offset() + HDR_HEADS)
        };
        let mut reused = 0;
        let mut step = |op: &dyn Fn()| {
            let poisoned = poison_the_next_directory(fx, ex);
            op();
            if let Some(block) = poisoned {
                assert_eq!(directory(), block, "the split reused the poisoned block");
                reused += 1;
            }
        };
        // 16 → 32 → 64 → 128 buckets: the splits begin at the 9th, 17th and
        // 33rd live key and take 2, 4 and 8 helped chunks to retire.
        for i in 0..48 {
            step(&|| put(fx, ex, i, 1));
            if i % 7 == 6 {
                step(&|| remove(fx, ex, i - 3));
            }
            if i % 11 == 10 {
                step(&|| put(fx, ex, i - 5, 2));
            }
        }
        assert_eq!(reused, 3, "each split began on a poisoned block");
        assert!(!fx.ht.splitting(), "the last split retired");
        assert_eq!(fx.ht.bucket_count(), 128);
    };
    assert_clean(explore(
        "split",
        POOL_BYTES,
        table_fixture(16),
        judge_table,
        scenario,
    ));
}

// ---- Pmem scenarios: the whole library, inline and write-behind ----

/// A commit group is all or nothing, byte-exact, in both modes: under
/// write-behind it is one WAL record, inline one transaction that publishes
/// values it has already written.
#[derive(Debug)]
struct PmemModel {
    opts: Options,
    contract: Contract<String, Vec<u64>>,
}

fn single_rank(machine: &Arc<Machine>) -> Comm {
    Comm::new(World::new(Arc::clone(machine), 1), 0)
}

fn mount(dev: &Arc<PmemDevice>, opts: &Options) -> Result<Pmem, String> {
    let mut pmem = Pmem::with_options(opts.clone());
    pmem.mmap(MmapTarget::DevDax(dev), &single_rank(dev.machine()))
        .map_err(text)?;
    Ok(pmem)
}

fn judge_pmem(model: &PmemModel, image: &Arc<PmemDevice>) -> Result<(), String> {
    let Contract { acked, in_flight } = &model.contract;
    let mut pmem = mount(image, &model.opts)?;
    let found: BTreeSet<String> = pmem.keys().map_err(text)?.into_iter().collect();
    let settled = |k: &&String| !in_flight.contains_key(*k);
    for (key, want) in acked.iter().filter(|(k, _)| settled(k)) {
        match pmem.load_slice::<u64>(key) {
            Ok(got) if &got == want => {}
            Ok(_) => return Err(format!("acknowledged {key} reads back different bytes")),
            Err(e) => return Err(format!("acknowledged {key}: {e}")),
        }
    }
    if let Some(stray) = (found.iter().filter(settled)).find(|k| !acked.contains_key(*k)) {
        return Err(format!("{stray} is listed and was never acknowledged"));
    }
    for (key, old, new) in model.contract.overwrites() {
        if !(pmem.load_slice::<u64>(key)).is_ok_and(|got| got == *old || got == *new) {
            return Err(format!("acknowledged {key} lost its old and its new value"));
        }
    }
    // The keys in flight are all as acknowledged, or all as the group left
    // them.
    let holds = |want: &BTreeMap<String, Vec<u64>>| {
        in_flight.keys().all(|key| match want.get(key) {
            Some(want) => pmem.load_slice::<u64>(key).is_ok_and(|got| &got == want),
            None => !found.contains(key),
        })
    };
    if !holds(acked) && !holds(&model.contract.after()) {
        let keys: Vec<_> = in_flight.keys().collect();
        return Err(format!(
            "the group in flight on {keys:?} is partially visible"
        ));
    }
    pmem.munmap().map_err(text)?;
    unmapped_cleanly(image)
}

/// The doctor's verdict on an image recovered and unmapped, then the pool's.
fn unmapped_cleanly(image: &Arc<PmemDevice>) -> Result<(), String> {
    let report = diagnose(image)?;
    if report.failed() {
        let failed: Vec<_> = (report.verdicts.iter())
            .filter(|v| v.status == pmemcpy_bench::doctor::Status::Fail)
            .map(|v| format!("{}: {}", v.check, v.detail))
            .collect();
        return Err(format!("doctor after recovery + unmount: {failed:?}"));
    }
    recovered_pool(image, "pmemcpy").map(drop)
}

fn slice(i: u64, generation: u64) -> Vec<u64> {
    (0..4 + i % 9)
        .map(|j| generation << 32 | i << 8 | j)
        .collect()
}

fn id(i: u64) -> String {
    format!("var{i:02}")
}

/// One `WriteBatch::commit` of `ids` at `generation`.
fn commit(pmem: &Pmem, ex: &Explorer<PmemModel>, ids: std::ops::Range<u64>, generation: u64) {
    let values: Vec<_> = ids.clone().map(|i| (id(i), slice(i, generation))).collect();
    ex.update(|m| {
        let puts = values.iter().map(|(k, v)| (k.clone(), Some(v.clone())));
        m.contract.begin(puts)
    });
    let mut batch = pmem.batch();
    for (key, v) in &values {
        batch.store_slice(key, v).unwrap();
    }
    batch.commit().unwrap();
    ex.update(|m| m.contract.ack());
}

/// The scenario's state: its handle, and its device for the re-attach.
type PmemFixture = (std::cell::RefCell<Pmem>, Arc<PmemDevice>);

fn pmem_scenario((pmem, dev): &PmemFixture, ex: &Explorer<PmemModel>) {
    let opts = ex.model.lock().unwrap().opts.clone();
    {
        let pmem = pmem.borrow();
        commit(&pmem, ex, 0..3, 1);
        // An overwriting store: a batch of one.
        commit(&pmem, ex, 1..2, 2);
        commit(&pmem, ex, 3..12, 1);
        ex.update(|m| m.contract.begin([(id(4), None)]));
        assert!(pmem.remove(&id(4)).unwrap());
        ex.update(|m| m.contract.ack());
        // Overwrites and fresh keys in one group; under write-behind the
        // ring (8 KiB) has filled and drained on its own by now.
        commit(&pmem, ex, 8..20, 3);
        // Append → checkpoint drain → truncate (a no-op inline).
        pmem.checkpoint().unwrap();
        commit(&pmem, ex, 0..2, 4);
    }
    // Unmap (final drain + count fold), re-attach, go on.
    pmem.borrow_mut().munmap().unwrap();
    *pmem.borrow_mut() = ex.paused(|| mount(dev, &opts)).unwrap();
    commit(&pmem.borrow(), ex, 18..24, 5);
    pmem.borrow_mut().munmap().unwrap();
}

fn explore_pmem(name: &str, write_behind: bool, buckets: u64) {
    let opts = Options {
        hashtable_buckets: buckets,
        wal_capacity: 8192,
        write_behind,
        ..Options::default()
    };
    let setup = |dev: &Arc<PmemDevice>| {
        let model = PmemModel {
            opts: opts.clone(),
            contract: Contract::default(),
        };
        let pmem = std::cell::RefCell::new(mount(dev, &opts).unwrap());
        ((pmem, Arc::clone(dev)), model)
    };
    assert_clean(explore(name, POOL_BYTES, setup, judge_pmem, pmem_scenario));
}

#[test]
fn inline_on_a_table_that_never_splits() {
    explore_pmem("inline/fixed", false, 1024);
}

#[test]
fn inline_while_the_table_splits() {
    explore_pmem("inline/mid-split", false, 16);
}

#[test]
fn write_behind_on_a_table_that_never_splits() {
    explore_pmem("write-behind/fixed", true, 1024);
}

#[test]
fn write_behind_while_the_table_splits() {
    explore_pmem("write-behind/mid-split", true, 16);
}

// ---- recovery: the media-writing half of a mount, crashed itself ----

/// Every image of a recovery that crashed recovers to what the image it
/// started from recovers to: this durable table, and through a mount these
/// keys and raw records.
#[derive(Debug)]
struct RecoveryModel {
    opts: Options,
    table: BTreeMap<Vec<u8>, Vec<u8>>,
    contents: BTreeMap<String, Vec<u8>>,
}

/// The media-writing half of a mount on `dev` — lane recovery, then the
/// table's open — and the table it leaves, key
/// by key: what a mount's WAL replay would mask, since every key of a
/// crashed drain is still in the log.
fn recovered_table(dev: &Arc<PmemDevice>) -> Result<BTreeMap<Vec<u8>, Vec<u8>>, String> {
    let clock = Clock::new();
    let pool = PmemPool::open(&clock, Arc::clone(dev), "pmemcpy").map_err(text)?;
    let header = pool.read_u64(&clock, pool.root(&clock, 8).map_err(text)?);
    let ht = PersistentHashtable::open(&clock, &pool, header).map_err(text)?;
    let table: BTreeMap<_, _> = (ht.keys(&clock).into_iter())
        .map(|key| ht.get(&clock, &key).map(|v| (key, v)))
        .collect::<Option<_>>()
        .ok_or("a listed key has no value")?;
    match ht.len(&clock) as usize {
        n if n == table.len() => Ok(table),
        n => Err(format!("the table counts {n} and lists {}", table.len())),
    }
}

fn contents(pmem: &Pmem) -> Result<BTreeMap<String, Vec<u8>>, String> {
    (pmem.keys().map_err(text)?.into_iter())
        .map(|key| Ok((key.clone(), pmem.raw_record(&key).map_err(text)?)))
        .collect()
}

fn judge_recovery(model: &RecoveryModel, image: &Arc<PmemDevice>) -> Result<(), String> {
    if recovered_table(image)? != model.table {
        return Err("the recovered table differs".into());
    }
    let mut pmem = mount(image, &model.opts)?;
    let found = contents(&pmem)?;
    if found != model.contents {
        let differ: Vec<_> = (model.contents.keys().chain(found.keys()))
            .filter(|k| found.get(*k) != model.contents.get(*k))
            .collect();
        return Err(format!("recovered contents differ on {differ:?}"));
    }
    pmem.munmap().map_err(text)?;
    unmapped_cleanly(image)
}

/// Write-behind groups, then a checkpoint whose drain splits the table:
/// the run the first-level crash is a point of. The second group's put
/// splits the table's 8 buckets to 16 and drains 64 more keys into them, so
/// the third one's put begins the split to 32 over chains of eight: its
/// first chunk relinks dozens of entries.
fn drain_that_splits(dev: &Arc<PmemDevice>, opts: &Options) {
    let pmem = mount(dev, opts).unwrap();
    for (ids, generation) in [(0..64, 1), (64..128, 1), (2..9, 2), (128..134, 1)] {
        let values: Vec<_> = ids.map(|i| (id(i), slice(i, generation))).collect();
        let mut batch = pmem.batch();
        for (key, v) in &values {
            batch.store_slice(key, v).unwrap();
        }
        batch.commit().unwrap();
    }
    pmem.checkpoint().unwrap();
    drop(pmem);
    registry::release_pool(dev);
}

/// Recovery is restartable: a write-behind pool crashed inside a checkpoint
/// drain's migration chunk — an ACTIVE lane of at least 16 undo records,
/// pending WAL records, a split in flight — is recovered by
/// `PmemPool::open` (lane rollback: every pre-image stored and flushed,
/// then one fence, so subsets of the restored lines are tried) and
/// `PersistentHashtable::open`, and that recovery is crashed at every one
/// of its crash points. Without the
/// registry no crash point waits on its lock; WAL replay only reads.
#[test]
fn recovery_is_restartable_from_every_crash_point() {
    let opts = Options {
        hashtable_buckets: 8,
        wal_capacity: 1 << 16,
        write_behind: true,
        ..Options::default()
    };
    let tracked = || PmemDevice::new(Machine::chameleon(), POOL_BYTES, PersistenceMode::Tracked);
    let crashed = |k| {
        let dev = tracked();
        image_at(&dev, k, || drain_that_splits(&dev, &opts))
    };
    let dev = tracked();
    let timeline = Timeline::of(&dev, || drain_that_splits(&dev, &opts));
    let step = timeline.between(&[TxBegin], &[TxCommit, SplitBegin]);
    // The last crash point before the commit point of the step that begins
    // the split: every relink and header word logged, for the rollback to
    // restore.
    let k = first_active(step.iter().rev(), |k| {
        device_with(&crashed(k), PersistenceMode::Fast)
    });
    let image = crashed(k);

    let first = device_with(&image, PersistenceMode::Fast);
    let status = |d: &pmemcpy_bench::doctor::Diagnosis, check| {
        (d.verdicts.iter())
            .find(|v| v.check == check)
            .map(|v| v.status)
    };
    let lanes = read_lanes(&first);
    let records = lanes.busy.iter().map(|l| l.records).max().unwrap_or(0);
    assert!(records >= 16, "16 word records: {lanes:?}");
    let d = diagnose(&first).unwrap();
    use pmemcpy_bench::doctor::Status::{Fail, Info};
    for (check, want) in [("lanes", Fail), ("ht-split", Info), ("wal-pending", Info)] {
        assert_eq!(status(&d, check), Some(want), "{check}: {:?}", d.verdicts);
    }
    let table = recovered_table(&first).unwrap();
    let mut pmem = mount(&first, &opts).unwrap();
    let contents = contents(&pmem).unwrap();
    pmem.munmap().unwrap();
    registry::release_pool(&first);
    assert_eq!(contents.len(), 134);

    let setup = |dev: &Arc<PmemDevice>| {
        dev.write_untimed(0, &image);
        dev.persist_untimed(0, image.len());
        let model = RecoveryModel {
            opts: opts.clone(),
            table: table.clone(),
            contents: contents.clone(),
        };
        (Arc::clone(dev), model)
    };
    let recover = |dev: &Arc<PmemDevice>, _: &Explorer<RecoveryModel>| {
        recovered_table(dev).unwrap();
    };
    assert_clean(explore(
        "recovery",
        POOL_BYTES,
        setup,
        judge_recovery,
        recover,
    ));
}

// ---- the first mount: formatting a fresh device ----

/// A fresh device's first `Pmem::mmap` formats it: a crash anywhere in that
/// mount must leave an image the next `mmap` takes — no superblock magic (a
/// device it formats afresh) or a whole pool. `PmemPool::create` persists
/// the superblock page last, its first cacheline the commit point (DESIGN
/// §13.4). A crashed mount holds the pool registry's lock, which judging
/// mounts through again, so each run keeps its images at one crash point
/// and they are judged once it is over.
#[test]
fn a_first_mount_crashed_anywhere_leaves_an_image_that_mounts() {
    let opts = Options::default();
    let tracked = || PmemDevice::new(Machine::chameleon(), POOL_BYTES, PersistenceMode::Tracked);
    let first_mount = |dev: &Arc<PmemDevice>| {
        mount(dev, &opts).unwrap().munmap().unwrap();
        registry::release_pool(dev);
    };
    let dev = tracked();
    let counted = dev.crash_at(usize::MAX);
    first_mount(&dev);
    let (points, _) = counted();
    let (mut images, mut failures) = (0, vec![]);
    for k in 0..points {
        let dev = tracked();
        let kept = Arc::new(Mutex::new(vec![]));
        let (keep, seen) = (Arc::clone(&kept), AtomicUsize::new(0));
        let rng = Mutex::new(DetRng::new(SEED ^ k as u64));
        dev.at_crash_points(move |dev| {
            if seen.fetch_add(1, Ordering::Relaxed) != k {
                return;
            }
            let lines = dev.in_flight();
            for subset in crash_subsets(lines.len(), SAMPLES, &mut rng.lock().unwrap()) {
                let reached: Vec<_> = subset.iter().map(|&i| lines[i].clone()).collect();
                keep.lock()
                    .unwrap()
                    .push((subset, dev.crash_image(&reached)));
            }
        });
        first_mount(&dev);
        for (subset, image) in kept.lock().unwrap().drain(..) {
            let image = device_with(&image, PersistenceMode::Fast);
            let verdict = mount(&image, &opts).and_then(|mut pmem| {
                pmem.store_scalar("after", k as u64).map_err(text)?;
                pmem.munmap().map_err(text)
            });
            registry::release_pool(&image);
            images += 1;
            if let Err(why) = verdict.and_then(|()| unmapped_cleanly(&image)) {
                failures.push(format!(
                    "first mount: seed {SEED:#x}, crash point {k} of {points}, lines {subset:?} \
                     reached media: {why}"
                ));
            }
        }
    }
    println!("crash_states[first mount]: {points} crash points, {images} images");
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert!(images > points, "{images} images of {points} points");
}
