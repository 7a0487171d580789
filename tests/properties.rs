//! Property-based tests over the core data structures and algorithms.

use proptest::prelude::*;
use regionsel::core::metrics::cover_set_size;
use regionsel::core::select::history::HistoryBuffer;
use regionsel::core::select::rejoin::mark_rejoining_paths;
use regionsel::program::{Addr, ProgramBuilder};
use regionsel::trace::{AddrWidth, BitString, TraceRecorder};
use std::collections::HashMap;

// ---------------------------------------------------------------------
// BitString
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn bitstring_round_trips(pushes in prop::collection::vec((any::<u64>(), 1u32..=64), 0..50)) {
        let mut b = BitString::new();
        for (v, n) in &pushes {
            b.push_bits(*v, *n);
        }
        let total: usize = pushes.iter().map(|(_, n)| *n as usize).sum();
        prop_assert_eq!(b.bit_len(), total);
        prop_assert_eq!(b.byte_len(), total.div_ceil(8));
        let mut r = b.reader();
        for (v, n) in &pushes {
            let mask = if *n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            prop_assert_eq!(r.read_bits(*n), Some(v & mask));
        }
        prop_assert_eq!(r.read_bit(), None);
    }

    #[test]
    fn bitstring_push_bits_matches_single_bit_pushes(
        pushes in prop::collection::vec((any::<u64>(), 0u32..=64), 0..40),
    ) {
        let mut whole = BitString::new();
        let mut single = BitString::new();
        for &(v, n) in &pushes {
            whole.push_bits(v, n);
            for i in (0..n).rev() {
                single.push_bit((v >> i) & 1 == 1);
            }
        }
        // Same bit and byte length, same bytes.
        prop_assert_eq!(whole.bit_len(), single.bit_len());
        prop_assert_eq!(whole.byte_len(), single.byte_len());
        prop_assert_eq!(&whole, &single);
        let (mut r, mut s) = (whole.reader(), single.reader());
        for &(_, n) in &pushes {
            prop_assert_eq!(r.read_bits(n), s.read_bits(n));
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn bitstring_random_access_matches_sequential(
        pushes in prop::collection::vec(any::<bool>(), 1..200),
        probe in 0usize..200,
    ) {
        let mut b = BitString::new();
        for &bit in &pushes {
            b.push_bit(bit);
        }
        if probe < pushes.len() {
            prop_assert_eq!(b.bits_at(probe, 1), Some(u64::from(pushes[probe])));
        } else {
            prop_assert_eq!(b.bits_at(probe, 1), None);
        }
    }
}

// ---------------------------------------------------------------------
// Compact trace codec over randomly generated ladder programs
// ---------------------------------------------------------------------

/// A "ladder" program: N blocks laid out sequentially, each ending in a
/// conditional branch to a strictly later block; the final block
/// returns. All walks are finite and forward.
fn ladder(n_blocks: usize, straights: &[u8], hops: &[u8]) -> regionsel::program::Program {
    let mut b = ProgramBuilder::new();
    let f = b.function("ladder", 0x1000);
    let ids: Vec<_> = (0..n_blocks)
        .map(|i| b.block_with(f, u32::from(straights[i % straights.len()] % 4)))
        .collect();
    for (i, &id) in ids.iter().enumerate() {
        if i + 1 == n_blocks {
            b.ret(id);
        } else {
            let hop = 1 + usize::from(hops[i % hops.len()]) % (n_blocks - i - 1).max(1);
            b.cond_branch(id, ids[(i + hop).min(n_blocks - 1)]);
        }
    }
    b.build().expect("ladder is well-formed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn compact_codec_round_trips_on_random_walks(
        n_blocks in 2usize..24,
        straights in prop::collection::vec(any::<u8>(), 1..8),
        hops in prop::collection::vec(any::<u8>(), 1..8),
        outcomes in prop::collection::vec(any::<bool>(), 0..32),
        width in prop::sample::select(vec![AddrWidth::W32, AddrWidth::W64]),
    ) {
        let p = ladder(n_blocks, &straights, &hops);
        // Walk the ladder with the given cond outcomes, recording.
        let start = p.entry();
        let mut rec = TraceRecorder::new(start, width);
        let mut walked = vec![];
        let mut addr = start;
        let mut k = 0;
        let mut last;
        loop {
            let inst = p.inst_at(addr).expect("on path");
            walked.push(addr);
            last = addr;
            use regionsel::program::InstKind;
            addr = match inst.kind() {
                InstKind::Straight => inst.fallthrough_addr(),
                InstKind::CondBranch { target } => {
                    if k >= outcomes.len() {
                        break; // end the trace at this branch
                    }
                    let taken = outcomes[k];
                    k += 1;
                    rec.record_cond(taken);
                    if taken { target } else { inst.fallthrough_addr() }
                }
                InstKind::Ret => break,
                _ => unreachable!("ladders only have cond branches and rets"),
            };
        }
        let ct = rec.finish(last);
        let decoded = ct.decode(&p).expect("decodes against its own program");
        prop_assert_eq!(decoded.insts, walked);
    }
}

// ---------------------------------------------------------------------
// MARK-REJOINING-PATHS vs. brute-force reachability
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn rejoin_marking_equals_reachability(
        n in 2usize..16,
        edge_bits in prop::collection::vec(any::<bool>(), 16 * 16),
        marked_bits in prop::collection::vec(any::<bool>(), 16),
    ) {
        // Slot 0 is the entry.
        let succs: Vec<Vec<usize>> = (0..n)
            .map(|i| (0..n).filter(|&j| edge_bits[i * 16 + j]).collect())
            .collect();
        let mut init: Vec<bool> = marked_bits[..n].to_vec();
        init[0] = true; // the entry is always marked
        let got = mark_rejoining_paths(&succs, init.clone());

        // Brute force: a node is marked iff an initially-marked node is
        // reachable from it.
        let expect: Vec<bool> = (0..n)
            .map(|u| {
                let mut seen = vec![false; n];
                let mut stack = vec![u];
                seen[u] = true;
                while let Some(v) = stack.pop() {
                    if init[v] {
                        return true;
                    }
                    for &w in &succs[v] {
                        if !seen[w] {
                            seen[w] = true;
                            stack.push(w);
                        }
                    }
                }
                false
            })
            .collect();
        prop_assert_eq!(got.marked, expect);
        prop_assert!(got.iterations >= 1);
    }
}

// ---------------------------------------------------------------------
// Cover sets
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn cover_set_is_minimal_and_monotone(
        per in prop::collection::vec(1u64..10_000, 1..40),
        frac_pct in 1u32..=100,
    ) {
        let total: u64 = per.iter().sum();
        let frac = f64::from(frac_pct) / 100.0;
        let k = cover_set_size(&per, total, frac).expect("attainable within total");
        // Using the k largest regions reaches the goal...
        let mut sorted = per.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top_k: u64 = sorted.iter().take(k).sum();
        prop_assert!(top_k as f64 >= total as f64 * frac);
        // ...and k-1 do not (minimality).
        if k > 0 {
            let top_km1: u64 = sorted.iter().take(k - 1).sum();
            prop_assert!((top_km1 as f64) < total as f64 * frac);
        }
        // Monotonicity in the fraction.
        if frac_pct > 1 {
            let smaller = cover_set_size(&per, total, f64::from(frac_pct - 1) / 100.0)
                .expect("attainable");
            prop_assert!(smaller <= k);
        }
    }
}

// ---------------------------------------------------------------------
// History buffer vs. a naive model
// ---------------------------------------------------------------------

#[derive(Default)]
struct NaiveBuffer {
    cap: usize,
    entries: Vec<(u64, Addr, Addr)>, // (seq, src, tgt)
    hash: HashMap<Addr, u64>,
    next: u64,
}

impl NaiveBuffer {
    fn insert(&mut self, src: Addr, tgt: Addr) -> (u64, Option<Addr>) {
        let mut dropped = None;
        if self.entries.len() == self.cap {
            let (seq, _, t) = self.entries.remove(0);
            if self.hash.get(&t) == Some(&seq) {
                self.hash.remove(&t);
                dropped = Some(t);
            }
        }
        let seq = self.next;
        self.next += 1;
        self.entries.push((seq, src, tgt));
        (seq, dropped)
    }

    /// Truncates and rebuilds the whole target hash, returning the
    /// removed targets that no longer appear at all, ascending.
    fn truncate_after(&mut self, seq: u64) -> Vec<Addr> {
        let removed: Vec<Addr> = self
            .entries
            .iter()
            .filter(|(s, _, _)| *s > seq)
            .map(|(_, _, t)| *t)
            .collect();
        self.entries.retain(|(s, _, _)| *s <= seq);
        self.hash.clear();
        for (s, _, t) in &self.entries {
            self.hash.insert(*t, *s);
        }
        let mut gone: Vec<Addr> = removed
            .into_iter()
            .filter(|t| !self.hash.contains_key(t))
            .collect();
        gone.sort_unstable();
        gone.dedup();
        gone
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn history_buffer_matches_naive_model(
        cap in 1usize..12,
        ops in prop::collection::vec((0u8..3, 0u64..8, 0u64..8), 1..80),
    ) {
        let mut real = HistoryBuffer::new(cap, 8);
        let mut naive = NaiveBuffer { cap, ..NaiveBuffer::default() };
        let mut live_seqs: Vec<u64> = vec![];
        for (op, x, y) in ops {
            // Target `0x10 + y` starts block `y`.
            let (src, tgt, block) = (Addr::new(0x10 + x), Addr::new(0x10 + y), y as usize);
            match op {
                0 => {
                    let (s1, d1) = real.insert(src, tgt, block, false);
                    let (s2, d2) = naive.insert(src, tgt);
                    prop_assert_eq!(s1, s2);
                    prop_assert_eq!(d1.map(|(t, _)| t), d2);
                    live_seqs.push(s1);
                    real.update_hash(block, s1);
                    naive.hash.insert(tgt, s2);
                }
                1 => {
                    prop_assert_eq!(real.lookup(block), naive.hash.get(&tgt).copied());
                }
                _ => {
                    if let Some(&seq) = live_seqs.get((x as usize) % live_seqs.len().max(1)) {
                        let gone: Vec<Addr> =
                            real.truncate_after(seq).into_iter().map(|(t, _)| t).collect();
                        prop_assert_eq!(gone, naive.truncate_after(seq));
                    }
                }
            }
            // Every target's hashed occurrence matches the model, whose
            // truncation rebuilds the whole hash.
            for b in 0..8 {
                let t = Addr::new(0x10 + b);
                prop_assert_eq!(real.lookup(b as usize), naive.hash.get(&t).copied(), "target {}", t);
            }
            prop_assert_eq!(real.len(), naive.entries.len());
            let real_tgts: Vec<Addr> =
                real.branches_after(0).map(|e| e.tgt).collect();
            // Skip the first entry when seq 0 is still buffered (the
            // iterator is strictly-after).
            let naive_tgts: Vec<Addr> = naive
                .entries
                .iter()
                .filter(|(s, _, _)| *s > 0)
                .map(|(_, _, t)| *t)
                .collect();
            prop_assert_eq!(real_tgts, naive_tgts);
        }
    }
}
