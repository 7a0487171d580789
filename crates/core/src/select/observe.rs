//! Storage for observed traces under trace combination (paper §4.2.1).

use crate::fxhash::FxHashMap;
use rsel_program::{Addr, Program};
use rsel_trace::CompactTrace;

/// Stores the observed traces per hot branch target, with the byte
/// accounting behind the paper's Figure 18.
///
/// "In order to delay all analysis until a region is selected, we store
/// each observed trace independently" (§4.2.1): traces are only
/// compared when the target's region is finally combined, at which
/// point [`ObservationStore::take`] removes them and releases their
/// memory.
///
/// A real system keeps the compact encoding (Figure 14) and decodes it
/// at combination. The selectors already hold each trace's block path
/// from forming it, so the store keeps that path and charges it at its
/// compact encoding's [`CompactTrace::byte_len`]: Figure 18's bytes are
/// the encoding's, and combination reads the paths without decoding.
/// Debug builds decode every encoding as it is stored and check the
/// result against the path, so the decoder stays the oracle.
#[derive(Clone, Debug, Default)]
pub struct ObservationStore {
    traces: FxHashMap<Addr, Observed>,
    bytes: usize,
    peak: usize,
}

/// The observed paths for one target and the compact bytes they are
/// charged.
#[derive(Clone, Debug, Default)]
struct Observed {
    paths: Vec<Vec<Addr>>,
    bytes: usize,
}

impl ObservationStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ObservationStore::default()
    }

    /// Stores one observed trace for `target`: its block path `blocks`,
    /// charged at the size of `compact`, the path's encoding.
    pub fn add(
        &mut self,
        program: &Program,
        target: Addr,
        blocks: Vec<Addr>,
        compact: &CompactTrace,
    ) {
        debug_assert_eq!(
            compact.decode(program).map(|d| d.blocks).as_ref(),
            Ok(&blocks),
            "an observed trace's encoding decodes to its formed path"
        );
        let bytes = compact.byte_len();
        self.bytes += bytes;
        self.peak = self.peak.max(self.bytes);
        let observed = self.traces.entry(target).or_default();
        observed.paths.push(blocks);
        observed.bytes += bytes;
    }

    /// Number of traces currently stored for `target`.
    #[cfg(test)]
    fn count(&self, target: Addr) -> usize {
        self.traces.get(&target).map_or(0, |o| o.paths.len())
    }

    /// Removes and returns the block paths of all traces stored for
    /// `target`, releasing their memory.
    pub fn take(&mut self, target: Addr) -> Vec<Vec<Addr>> {
        let observed = self.traces.remove(&target).unwrap_or_default();
        self.bytes -= observed.bytes;
        observed.paths
    }

    /// Bytes currently charged for stored traces.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Maximum bytes ever charged (Figure 18's numerator).
    pub fn peak_bytes(&self) -> usize {
        self.peak
    }

    /// Number of targets with outstanding observations.
    #[cfg(test)]
    fn targets(&self) -> usize {
        self.traces.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsel_program::ProgramBuilder;
    use rsel_trace::{AddrWidth, TraceRecorder};

    /// A(cond->C) ; B ; C(ret)
    fn program() -> Program {
        let mut b = ProgramBuilder::new();
        let f = b.function("f", 0x100);
        let a = b.block(f);
        let _ = b.block(f);
        let c = b.block_with(f, 0);
        b.cond_branch(a, c);
        b.ret(c);
        b.build().unwrap()
    }

    /// The path A -> C (branch taken) and its encoding.
    fn observed(p: &Program) -> (Vec<Addr>, CompactTrace) {
        let s: Vec<Addr> = p.blocks().iter().map(|b| b.start()).collect();
        let mut r = TraceRecorder::new(s[0], AddrWidth::W32);
        r.record_cond(true);
        let end = p.block_at(s[2]).unwrap().terminator().addr();
        (vec![s[0], s[2]], r.finish(end))
    }

    #[test]
    fn bytes_track_additions_and_removals() {
        let p = program();
        let (path, t) = observed(&p);
        let per = t.byte_len();
        let mut s = ObservationStore::new();
        s.add(&p, Addr::new(1), path.clone(), &t);
        s.add(&p, Addr::new(1), path.clone(), &t);
        s.add(&p, Addr::new(2), path.clone(), &t);
        assert_eq!(s.bytes(), 3 * per);
        assert_eq!(s.peak_bytes(), 3 * per);
        assert_eq!(s.count(Addr::new(1)), 2);
        assert_eq!(s.targets(), 2);
        let taken = s.take(Addr::new(1));
        assert_eq!(taken, vec![path.clone(), path]);
        assert_eq!(s.bytes(), per);
        assert_eq!(s.peak_bytes(), 3 * per, "peak is a high-water mark");
        assert_eq!(s.count(Addr::new(1)), 0);
    }

    #[test]
    fn take_missing_target_is_empty() {
        let mut s = ObservationStore::new();
        assert!(s.take(Addr::new(9)).is_empty());
        assert_eq!(s.bytes(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "decodes to its formed path")]
    fn debug_builds_check_the_path_against_its_encoding() {
        let p = program();
        let (path, t) = observed(&p);
        ObservationStore::new().add(&p, Addr::new(1), path[..1].to_vec(), &t);
    }
}
