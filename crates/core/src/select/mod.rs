//! Region-selection algorithms: NET, LEI, and trace combination.
//!
//! All selectors implement [`RegionSelector`] and are driven by the
//! [`Simulator`](crate::Simulator) with three kinds of events, mirroring
//! the structure of the paper's INTERPRETED-BRANCH-TAKEN procedures
//! (Figures 5 and 13):
//!
//! - [`RegionSelector::on_transfer`] — a control transfer observed while
//!   interpreting, *before* its target executes; this is where active
//!   trace growth evaluates its stop conditions;
//! - [`RegionSelector::on_arrival`] — an interpreter arrival whose
//!   target missed the code cache (every interpreted taken branch, plus
//!   landings from code-cache exits); this is where profiling counters
//!   live;
//! - [`RegionSelector::on_block`] — a basic block executed by the
//!   interpreter; active trace growth extends here.
//!
//! Any event may complete one or more regions, which the simulator
//! inserts into the cache immediately.
//!
//! Every event names the program blocks involved by [`BlockId`] as
//! well as by address, so selector state lives in dense tables indexed
//! by block (the profiling counters, LEI's history hash, the edge
//! profile, FORM-TRACE's in-trace marks) and cache probes use
//! [`CodeCache::lookup_block`] instead of hashing addresses.

mod adore;
mod boa;
mod combined_lei;
mod combined_net;
mod counters;
pub mod form;
pub mod history;
pub mod lei;
mod net;
mod observe;
mod profile;
mod region_cfg;
pub mod rejoin;
mod wiggins;

pub use form::{GrownTrace, TraceGrower};
pub use history::HistoryBuffer;

use adore::AdoreSelector;
use boa::BoaSelector;
use combined_lei::CombinedLeiSelector;
use combined_net::CombinedNetSelector;
use lei::LeiSelector;
use net::NetSelector;
use wiggins::WigginsRedstoneSelector;

use crate::cache::{CodeCache, Region};
use crate::config::SimConfig;
use crate::sim::engine::Engine;
use crate::sim::faults::CounterFault;
use rsel_program::{Addr, BlockId, Program};
use rsel_trace::DecodedStream;

/// An interpreter arrival at a block whose address missed the code
/// cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Address of the transferring instruction (`None` only for the
    /// run's first block).
    pub src: Option<Addr>,
    /// The block whose terminator is `src`: the previous step's block
    /// (`None` when no step preceded this one).
    pub src_block: Option<BlockId>,
    /// The arrival address (start of the block about to execute).
    pub tgt: Addr,
    /// The program block starting at `tgt`.
    pub tgt_block: BlockId,
    /// Whether the arrival was via a taken branch (as opposed to the
    /// fall-through side of a code-cache exit).
    pub taken: bool,
    /// Whether control just left the code cache through an exit stub.
    pub from_cache_exit: bool,
}

/// A region-selection algorithm.
///
/// Implementations return the regions they have decided to promote to
/// the code cache; the simulator inserts them and, when the current
/// branch target is now cached, transfers control into the new region
/// (the "jump newT" of Figure 5).
pub trait RegionSelector {
    /// A control transfer observed while interpreting, before the
    /// target block executes: from the terminator `src` of block
    /// `src_block` to `tgt`, the start of block `tgt_block`. `taken`
    /// distinguishes taken branches from fall-through. The default
    /// selects nothing.
    fn on_transfer(
        &mut self,
        _cache: &CodeCache,
        _src: Addr,
        _src_block: BlockId,
        _tgt: Addr,
        _tgt_block: BlockId,
        _taken: bool,
    ) -> Vec<Region> {
        Vec::new()
    }

    /// An interpreter arrival whose target missed the cache.
    fn on_arrival(&mut self, cache: &CodeCache, arrival: Arrival) -> Vec<Region>;

    /// Block `block`, starting at `start`, executed by the
    /// interpreter. The default selects nothing.
    fn on_block(&mut self, _cache: &CodeCache, _start: Addr, _block: BlockId) -> Vec<Region> {
        Vec::new()
    }

    /// A profiling-counter fault struck (see
    /// [`sim::faults`](crate::sim::faults)): the selector's counters
    /// were saturated or lost. Implementations must absorb either
    /// without panicking; profiling quality may degrade, correctness
    /// may not. The default ignores the fault (for selectors with no
    /// mutable profiling state).
    fn on_fault(&mut self, _fault: CounterFault) {}

    /// Profiling counters currently allocated.
    fn counters_in_use(&self) -> usize;

    /// Peak number of simultaneously allocated counters (Figure 10).
    fn peak_counters(&self) -> usize;

    /// Bytes currently used to store observed traces (Figure 18);
    /// zero for non-combining selectors.
    fn observed_bytes(&self) -> usize {
        0
    }

    /// Peak bytes ever used to store observed traces (Figure 18).
    fn peak_observed_bytes(&self) -> usize {
        0
    }

    /// Short human-readable algorithm name.
    fn name(&self) -> &'static str;

    /// Replays steps `[start, end)` of a decoded stream through the
    /// simulator's arrival core with this selector's hooks called
    /// statically: every implementation, plug-ins included, gets its
    /// own copy of the replay loop with the hooks inlined, and
    /// [`Simulator::replay_decoded_range`](crate::Simulator::replay_decoded_range)
    /// reaches it with one vtable call per range. Nothing outside this
    /// crate can name the engine argument, so this method can be
    /// neither called nor overridden there.
    #[doc(hidden)]
    fn replay_range(
        &mut self,
        engine: &mut Engine<'_>,
        stream: &DecodedStream,
        start: usize,
        end: usize,
        fast_forward: bool,
    ) {
        engine.replay_range(self, stream, start, end, fast_forward);
    }
}

/// The region-selection algorithms: the four the paper evaluates, plus
/// models of the four related systems its §5 discusses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SelectorKind {
    /// Next-Executing Tail (the Dynamo baseline).
    Net,
    /// Last-Executed Iteration (paper §3).
    Lei,
    /// NET with trace combination (paper §4).
    CombinedNet,
    /// LEI with trace combination (paper §4).
    CombinedLei,
    /// Mojo: NET with a lower threshold for trace-exit targets (§5).
    Mojo,
    /// BOA: per-branch direction counts, traces follow the majority
    /// direction (§5).
    Boa,
    /// Wiggins/Redstone: PC sampling plus branch instrumentation (§5).
    WigginsRedstone,
    /// ADORE: sampled four-branch paths from a PMU model (§5).
    Adore,
}

impl SelectorKind {
    /// The four algorithms of the paper's evaluation, in presentation
    /// order.
    pub fn all() -> [SelectorKind; 4] {
        [
            SelectorKind::Net,
            SelectorKind::Lei,
            SelectorKind::CombinedNet,
            SelectorKind::CombinedLei,
        ]
    }

    /// Every implemented algorithm, including the §5 related-work
    /// models.
    pub fn extended() -> [SelectorKind; 8] {
        [
            SelectorKind::Net,
            SelectorKind::Lei,
            SelectorKind::CombinedNet,
            SelectorKind::CombinedLei,
            SelectorKind::Mojo,
            SelectorKind::Boa,
            SelectorKind::WigginsRedstone,
            SelectorKind::Adore,
        ]
    }

    /// The algorithm's display name.
    pub fn name(self) -> &'static str {
        match self {
            SelectorKind::Net => "NET",
            SelectorKind::Lei => "LEI",
            SelectorKind::CombinedNet => "combined NET",
            SelectorKind::CombinedLei => "combined LEI",
            SelectorKind::Mojo => "Mojo",
            SelectorKind::Boa => "BOA",
            SelectorKind::WigginsRedstone => "Wiggins/Redstone",
            SelectorKind::Adore => "ADORE",
        }
    }

    /// Instantiates the selector over `program` with `config`.
    ///
    /// The returned selector is `Send`, so a simulator holding it can
    /// migrate between worker threads (the multi-tenant runtime moves
    /// sessions across a thread pool between epochs).
    pub fn make<'p>(
        self,
        program: &'p Program,
        config: &SimConfig,
    ) -> Box<dyn RegionSelector + Send + 'p> {
        config.validate();
        match self {
            SelectorKind::Net => Box::new(NetSelector::new(program, config)),
            SelectorKind::Lei => Box::new(LeiSelector::new(program, config)),
            SelectorKind::CombinedNet => Box::new(CombinedNetSelector::new(program, config)),
            SelectorKind::CombinedLei => Box::new(CombinedLeiSelector::new(program, config)),
            SelectorKind::Mojo => Box::new(NetSelector::mojo(program, config)),
            SelectorKind::Boa => Box::new(BoaSelector::new(program, config)),
            SelectorKind::WigginsRedstone => {
                Box::new(WigginsRedstoneSelector::new(program, config))
            }
            SelectorKind::Adore => Box::new(AdoreSelector::new(program, config)),
        }
    }
}

impl std::fmt::Display for SelectorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The arrival at `tgt` from `src`, with both blocks resolved in
/// `program` — how unit tests drive a selector without a simulator.
#[cfg(test)]
fn arrival(
    program: &Program,
    src: Option<Addr>,
    tgt: Addr,
    taken: bool,
    from_cache_exit: bool,
) -> Arrival {
    Arrival {
        src,
        src_block: src
            .and_then(|s| program.block_containing(s))
            .map(|b| b.id()),
        tgt,
        tgt_block: program
            .block_at(tgt)
            .expect("arrivals target block starts")
            .id(),
        taken,
        from_cache_exit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_have_distinct_names() {
        let names: Vec<&str> = SelectorKind::extended().iter().map(|k| k.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), 8);
        assert_eq!(dedup.len(), 8);
        assert_eq!(SelectorKind::Net.to_string(), "NET");
    }

    #[test]
    fn paper_kinds_are_a_prefix_of_extended() {
        assert_eq!(SelectorKind::extended()[..4], SelectorKind::all());
    }
}
