//! `Region` construction checked against a map-based model.
//!
//! The model below builds a region the straightforward way — an
//! address-to-slot map plus one successor list per block — and is kept
//! deliberately independent of the production representation. Random
//! block paths and observed-edge sets are drawn from the suite programs;
//! both constructors must agree with the model on membership, edge
//! order, classification, exit stubs, cycle spanning and errors.

use proptest::prelude::*;
use regionsel::core::SimError;
use regionsel::core::cache::{Region, TransferClass};
use regionsel::program::{Addr, InstKind, Program};
use regionsel::workloads::{Scale, suite};
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

/// The twelve suite programs at test scale, built once.
fn programs() -> &'static [Program] {
    static PROGRAMS: OnceLock<Vec<Program>> = OnceLock::new();
    PROGRAMS.get_or_init(|| suite().iter().map(|w| w.build(7, Scale::Test).0).collect())
}

/// A block's static continuations, in the order the region code lists
/// them (taken target before fall-through).
fn continuations(p: &Program, a: Addr) -> Vec<Addr> {
    let b = p.block_at(a).expect("member blocks exist");
    match b.terminator_kind() {
        InstKind::Straight => vec![b.fallthrough_addr()],
        InstKind::CondBranch { target } => vec![target, b.fallthrough_addr()],
        InstKind::Jump { target } | InstKind::Call { target } => vec![target],
        InstKind::IndirectJump | InstKind::IndirectCall | InstKind::Ret => vec![],
    }
}

/// A region as the model builds it.
struct Model {
    entry: Addr,
    blocks: Vec<Addr>,
    index: HashMap<Addr, usize>,
    edges: HashMap<Addr, Vec<Addr>>,
}

impl Model {
    fn members(p: &Program, blocks: &[Addr]) -> Result<HashMap<Addr, usize>, SimError> {
        if blocks.is_empty() {
            return Err(SimError::EmptyRegion);
        }
        if let Some(&a) = blocks.iter().find(|&&a| p.block_at(a).is_none()) {
            return Err(SimError::UnknownBlock(a));
        }
        let mut index = HashMap::new();
        for (i, &a) in blocks.iter().enumerate() {
            if index.insert(a, i).is_some() {
                return Err(SimError::DuplicateBlock(a));
            }
        }
        Ok(index)
    }

    fn trace(p: &Program, path: &[Addr]) -> Result<Model, SimError> {
        let index = Model::members(p, path)?;
        let entry = path[0];
        let mut edges: HashMap<Addr, Vec<Addr>> = HashMap::new();
        for w in path.windows(2) {
            edges.entry(w[0]).or_default().push(w[1]);
        }
        for &b in path {
            if continuations(p, b).contains(&entry) {
                let e = edges.entry(b).or_default();
                if !e.contains(&entry) {
                    e.push(entry);
                }
            }
        }
        Ok(Model {
            entry,
            blocks: path.to_vec(),
            index,
            edges,
        })
    }

    fn combined(
        p: &Program,
        blocks: &[Addr],
        observed: &[(Addr, Addr)],
    ) -> Result<Model, SimError> {
        let index = Model::members(p, blocks)?;
        let mut edges: HashMap<Addr, Vec<Addr>> = HashMap::new();
        let mut seen = HashSet::new();
        for &(from, to) in observed {
            if !index.contains_key(&from) {
                return Err(SimError::EdgeFromUnknownBlock(from));
            }
            if index.contains_key(&to) && seen.insert((from, to)) {
                edges.entry(from).or_default().push(to);
            }
        }
        for &b in blocks {
            for c in continuations(p, b) {
                if index.contains_key(&c) && seen.insert((b, c)) {
                    edges.entry(b).or_default().push(c);
                }
            }
        }
        Ok(Model {
            entry: blocks[0],
            blocks: blocks.to_vec(),
            index,
            edges,
        })
    }

    fn successors(&self, a: Addr) -> &[Addr] {
        self.edges.get(&a).map_or(&[], Vec::as_slice)
    }

    fn classify(&self, from: Addr, to: Addr) -> TransferClass {
        if to == self.entry {
            TransferClass::Cycle
        } else if self.successors(from).contains(&to) {
            TransferClass::Internal
        } else {
            TransferClass::Exit
        }
    }

    /// `(from, target)` for every exit stub, in block order.
    fn stubs(&self, p: &Program) -> Vec<(Addr, Option<Addr>)> {
        let mut out = Vec::new();
        for &b in &self.blocks {
            for c in continuations(p, b) {
                if !self.successors(b).contains(&c) {
                    out.push((b, Some(c)));
                }
            }
            if p.block_at(b).unwrap().terminator_kind().is_indirect() {
                out.push((b, None));
            }
        }
        out
    }

    fn spans_cycle(&self) -> bool {
        self.edges.values().any(|s| s.contains(&self.entry))
    }
}

/// Asserts that `r` and the model agree on everything the region
/// answers. `probes` are extra addresses (members or not) to query.
fn assert_agrees(p: &Program, r: &Region, m: &Model, probes: &[Addr]) -> Result<(), TestCaseError> {
    let starts: Vec<Addr> = r.blocks().iter().map(|b| b.start()).collect();
    prop_assert_eq!(&starts, &m.blocks);
    prop_assert_eq!(r.entry(), m.entry);
    for b in r.blocks() {
        let src = p.block_at(b.start()).unwrap();
        prop_assert_eq!(b.inst_count() as usize, src.len());
        prop_assert_eq!(b.byte_size(), src.byte_size());
        prop_assert_eq!(b.terminator(), src.terminator_kind());
    }
    let mut addrs: Vec<Addr> = m.blocks.clone();
    addrs.extend_from_slice(probes);
    for &a in &addrs {
        prop_assert_eq!(r.contains_block(a), m.index.contains_key(&a));
        prop_assert_eq!(r.block_slot(a), m.index.get(&a).copied());
        prop_assert_eq!(r.successors(a), m.successors(a), "successors of {}", a);
        for &t in &addrs {
            prop_assert_eq!(r.has_edge(a, t), m.successors(a).contains(&t));
        }
    }
    for (slot, &from) in m.blocks.iter().enumerate() {
        let mut targets = addrs.clone();
        targets.extend(continuations(p, from));
        for &t in &targets {
            let class = m.classify(from, t);
            prop_assert_eq!(r.classify(from, t), class, "{} -> {}", from, t);
            let (cs, ts) = r.classify_slot(slot as u32, t);
            prop_assert_eq!(cs, class, "slot {} -> {}", slot, t);
            match class {
                TransferClass::Cycle => prop_assert_eq!(ts, 0),
                TransferClass::Internal => prop_assert_eq!(ts as usize, m.index[&t]),
                TransferClass::Exit => {}
            }
        }
    }
    let stubs: Vec<(Addr, Option<Addr>)> = r.stubs().iter().map(|s| (s.from, s.target)).collect();
    prop_assert_eq!(stubs, m.stubs(p));
    prop_assert_eq!(r.spans_cycle(), m.spans_cycle());
    Ok(())
}

/// Builds a block path: mostly following a random static continuation
/// (so paths form real traces and loop back to their entry), sometimes
/// jumping to an arbitrary block, and — when `dup` is set — ending with
/// a repeat of an earlier block.
fn draw_path(p: &Program, picks: &[u64], dup: Option<usize>) -> Vec<Addr> {
    let blocks = p.blocks();
    let mut path = vec![blocks[picks[0] as usize % blocks.len()].start()];
    for &pick in &picks[1..] {
        let last = *path.last().unwrap();
        let next: Vec<Addr> = continuations(p, last)
            .into_iter()
            .filter(|c| p.block_at(*c).is_some() && !path.contains(c))
            .collect();
        let a = if pick % 4 != 0 && !next.is_empty() {
            next[(pick / 4) as usize % next.len()]
        } else {
            blocks[(pick / 4) as usize % blocks.len()].start()
        };
        if !path.contains(&a) {
            path.push(a);
        }
    }
    if let Some(d) = dup {
        let again = path[d % path.len()];
        path.push(again);
    }
    path
}

/// Probe addresses: the static continuations of every member (the
/// targets the simulator classifies) plus a few arbitrary blocks and a
/// non-block address.
fn probes(p: &Program, path: &[Addr], extra: &[u64]) -> Vec<Addr> {
    let blocks = p.blocks();
    let mut out: Vec<Addr> = path.iter().flat_map(|&a| continuations(p, a)).collect();
    out.extend(
        extra
            .iter()
            .map(|&x| blocks[x as usize % blocks.len()].start()),
    );
    out.push(blocks[0].start().offset(1));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn trace_regions_match_the_map_model(
        prog in 0usize..12,
        picks in prop::collection::vec(any::<u64>(), 1..24),
        dup in 0usize..512,
        extra in prop::collection::vec(any::<u64>(), 0..6),
    ) {
        let p = &programs()[prog];
        let path = draw_path(p, &picks, (dup < 48).then_some(dup));
        let got = Region::try_trace(p, &path);
        match Model::trace(p, &path) {
            Ok(m) => {
                let r = got.expect("the model accepts the path");
                assert_agrees(p, &r, &m, &probes(p, &path, &extra))?;
            }
            Err(e) => prop_assert_eq!(got.err(), Some(e)),
        }
    }

    #[test]
    fn combined_regions_match_the_map_model(
        prog in 0usize..12,
        picks in prop::collection::vec(any::<u64>(), 1..24),
        dup in 0usize..512,
        edge_picks in prop::collection::vec((any::<u64>(), any::<u64>()), 0..40),
        extra in prop::collection::vec(any::<u64>(), 0..6),
    ) {
        let p = &programs()[prog];
        let blocks = draw_path(p, &picks, (dup < 48).then_some(dup));
        // Observed edges: mostly between members, sometimes to a
        // foreign block (dropped) and rarely from one (an error).
        let all = p.blocks();
        let observed: Vec<(Addr, Addr)> = edge_picks
            .iter()
            .map(|&(f, t)| {
                let from = if f % 256 == 0 {
                    all[(f / 256) as usize % all.len()].start()
                } else {
                    blocks[(f / 256) as usize % blocks.len()]
                };
                let to = if t % 5 == 0 {
                    all[(t / 5) as usize % all.len()].start()
                } else {
                    blocks[(t / 5) as usize % blocks.len()]
                };
                (from, to)
            })
            .collect();
        let got = Region::try_combined(p, &blocks, &observed);
        match Model::combined(p, &blocks, &observed) {
            Ok(m) => {
                let r = got.expect("the model accepts the region");
                assert_agrees(p, &r, &m, &probes(p, &blocks, &extra))?;
            }
            Err(e) => prop_assert_eq!(got.err(), Some(e)),
        }
    }
}

#[test]
fn errors_name_the_offending_address() {
    let p = &programs()[0];
    let s: Vec<Addr> = p.blocks().iter().take(4).map(|b| b.start()).collect();
    // The first repeated block is named, not the first block repeated.
    assert_eq!(
        Region::try_trace(p, &[s[0], s[1], s[2], s[1], s[0]]).err(),
        Some(SimError::DuplicateBlock(s[1]))
    );
    assert_eq!(
        Region::try_combined(p, &[s[0], s[1], s[1]], &[]).err(),
        Some(SimError::DuplicateBlock(s[1]))
    );
    // The first edge from outside the region is named, even after
    // edges that are merely dropped.
    assert_eq!(
        Region::try_combined(
            p,
            &[s[0], s[1]],
            &[(s[0], s[3]), (s[2], s[0]), (s[3], s[0])]
        )
        .err(),
        Some(SimError::EdgeFromUnknownBlock(s[2]))
    );
}
