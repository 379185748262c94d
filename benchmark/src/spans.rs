//! Harness spans: one record around every call the benchmark makes into
//! `core` (`pmemcpy`) and `mpi_sim`, on both clocks.
//!
//! The product crates are not edited by the change that defines the
//! benchmark, so these spans sit at the crate boundary, in the benchmark's
//! own code. Each rank owns a [`Recorder`]; an untraced run keeps only the
//! virtual latency of puts and gets (two relaxed loads per call), a traced
//! run also reads the host clock and keeps the full span in memory until the
//! process writes `spans_<workload>.json` at exit.

use crate::json;
use mpi_sim::Comm;
use pmem_sim::Clock;
use std::sync::Arc;
use std::time::Instant;

/// The calls the harness makes, named `<layer>.<call>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// The body `mpi_sim::run_world_mode` runs for one rank; the parent of
    /// every other span of that rank.
    Rank,
    Mmap,
    Put,
    Get,
    Remove,
    Munmap,
    Barrier,
}

impl Call {
    pub fn name(self) -> &'static str {
        match self {
            Call::Rank => "mpi_sim.rank",
            Call::Mmap => "core.mmap",
            Call::Put => "core.put",
            Call::Get => "core.get",
            Call::Remove => "core.remove",
            Call::Munmap => "core.munmap",
            Call::Barrier => "mpi_sim.barrier",
        }
    }
}

/// One finished call. Times are nanoseconds: host since the iteration's
/// epoch, virtual on the rank's clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub call: Call,
    pub id: u64,
    pub parent: Option<u64>,
    pub rank: u32,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub sim_start_ns: u64,
    pub sim_end_ns: u64,
}

impl Span {
    pub fn host_ns(&self) -> u64 {
        self.host_end_ns - self.host_start_ns
    }

    pub fn sim_ns(&self) -> u64 {
        self.sim_end_ns - self.sim_start_ns
    }
}

/// Span id: iteration · rank · op#, packed so ids of one iteration sort by
/// rank and then by call order.
pub fn span_id(iteration: u32, rank: u32, op: u32) -> u64 {
    ((iteration as u64 & 0xffff) << 48) | ((rank as u64 & 0xffff) << 32) | op as u64
}

/// Per-rank recorder; see the module docs.
pub struct Recorder {
    clock: Arc<Clock>,
    epoch: Instant,
    traced: bool,
    iteration: u32,
    rank: u32,
    next_op: u32,
    root: (u64, u64),
    pub put_sim_ns: Vec<u64>,
    pub get_sim_ns: Vec<u64>,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// Start recording rank `comm.rank()`; `epoch` is the host instant the
    /// timed phase began, shared by all ranks so host times line up.
    pub fn start(comm: &Comm, epoch: Instant, iteration: u32, traced: bool) -> Self {
        let clock = comm.clock_arc();
        let root = (epoch.elapsed().as_nanos() as u64, clock.now().as_nanos());
        Recorder {
            clock,
            epoch,
            traced,
            iteration,
            rank: comm.rank() as u32,
            next_op: 1,
            root,
            put_sim_ns: Vec::new(),
            get_sim_ns: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Run `f` as one `call`, recording its span.
    pub fn time<T>(&mut self, call: Call, f: impl FnOnce() -> T) -> T {
        let sim0 = self.clock.now().as_nanos();
        let host0 = self.traced.then(|| self.epoch.elapsed().as_nanos() as u64);
        let out = f();
        let sim1 = self.clock.now().as_nanos();
        match call {
            Call::Put => self.put_sim_ns.push(sim1 - sim0),
            Call::Get => self.get_sim_ns.push(sim1 - sim0),
            _ => {}
        }
        if let Some(host0) = host0 {
            let op = self.next_op;
            self.next_op += 1;
            self.spans.push(Span {
                call,
                id: span_id(self.iteration, self.rank, op),
                parent: Some(span_id(self.iteration, self.rank, 0)),
                rank: self.rank,
                host_start_ns: host0,
                host_end_ns: self.epoch.elapsed().as_nanos() as u64,
                sim_start_ns: sim0,
                sim_end_ns: sim1,
            });
        }
        out
    }

    /// Close the rank's root span and hand the recorder back.
    pub fn finish(mut self) -> Self {
        if self.traced {
            self.spans.push(Span {
                call: Call::Rank,
                id: span_id(self.iteration, self.rank, 0),
                parent: None,
                rank: self.rank,
                host_start_ns: self.root.0,
                host_end_ns: self.epoch.elapsed().as_nanos() as u64,
                sim_start_ns: self.root.1,
                sim_end_ns: self.clock.now().as_nanos(),
            });
        }
        self
    }
}

/// The span file: one JSON array, one object per span.
pub fn spans_json(workload: &str, spans: &[Span]) -> String {
    let mut out = format!("{{\"workload\":{},\"spans\":[", json::quote(workload));
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"rank\":{},\"host_start_ns\":{},\"host_end_ns\":{},\"sim_start_ns\":{},\"sim_end_ns\":{}}}",
            s.call.name(),
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.rank,
            s.host_start_ns,
            s.host_end_ns,
            s.sim_start_ns,
            s.sim_end_ns
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn ids_order_by_iteration_rank_and_call() {
        assert!(span_id(0, 1, 0) > span_id(0, 0, 99));
        assert!(span_id(1, 0, 0) > span_id(0, 23, 99));
        assert_eq!(span_id(2, 3, 4) & 0xffff_ffff, 4);
    }

    #[test]
    fn span_file_is_valid_json() {
        let s = Span {
            call: Call::Put,
            id: span_id(0, 1, 2),
            parent: Some(span_id(0, 1, 0)),
            rank: 1,
            host_start_ns: 5,
            host_end_ns: 9,
            sim_start_ns: 100,
            sim_end_ns: 250,
        };
        let root = Span {
            call: Call::Rank,
            parent: None,
            ..s.clone()
        };
        let doc = Json::parse(&spans_json("w", &[s, root])).unwrap();
        let spans = doc.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("core.put"));
        assert_eq!(spans[1].get("parent"), Some(&Json::Null));
    }
}
