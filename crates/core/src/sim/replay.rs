//! Batch replay of decoded streams, with buffer recycling and a
//! guarded spin-phase fast-forward.
//!
//! The matrix harness replays one recording through many selectors;
//! this module is the hot path of that fan-out. It consumes a
//! [`DecodedStream`] (decode-once struct-of-arrays, `rsel_trace`)
//! directly — no per-step [`Step`](rsel_program::Step) rebuild, no
//! block-table hashing — through the same arrival core as the live
//! path, so replay stays bit-identical by construction.
//!
//! # The spin fast-forward
//!
//! Decoding marks *spin phases*: maximal runs where the stream repeats
//! the same short step cycle (`SpinPhase`). At a phase, the replay loop
//! executes one full period normally (the *warm-up*, where first-touch
//! side effects land: predecessor-set inserts, lazy-link recording),
//! snapshots the observable counters, executes a second period (the
//! *verify*), and compares. The fast-forward applies only when the
//! verify period proves itself pure-counter:
//!
//! - every instruction was served from the cache (`Δtotal == Δcache`);
//! - no interpreted taken branch, so no selector hook ran
//!   (`Δinterpreted_taken == 0` — together with the cache check this
//!   covers every selector call site in the arrival core);
//! - nothing was selected, retired, flushed, or invalidated
//!   (`Δregions_selected == Δinsts_selected == 0`, retired/cache
//!   length and flush count unchanged, resilience stats unchanged);
//! - the execution state closed the loop (mode, previous block and
//!   pending-exit flag equal to the snapshot).
//!
//! Under those guards each further period is a state-identical replay
//! of the verify period (region transitions are allowed: re-recording
//! an existing link and re-inserting an observed exit edge are
//! idempotent), so the remaining `reps - 2` periods are applied as one
//! multiplication over the measured deltas — O(1) per phase instead of
//! O(steps). Any guard failure simply falls back to stepping; the
//! fast-forward is an optimization, never a semantics change. The
//! fast-forward is disabled outright while a fault injector is active:
//! skipping steps would desynchronize the per-block fault schedule.

use super::Simulator;
use super::engine::{Engine, Mode, NO_EXIT, RegionRuntime};
use crate::cache::RegionId;
use crate::fxhash::FxHashSet;
use crate::metrics::report::{RegionReport, ResilienceStats};
use crate::select::RegionSelector;
use rsel_program::Addr;
use rsel_trace::DecodedStream;

/// Recyclable per-run buffers of a [`Simulator`], so a replay fan-out
/// (many simulators built one after another on the same worker) stops
/// re-allocating its dense side tables for every cell.
///
/// Obtain one from a finished simulator with
/// [`Simulator::into_scratch`] and pass it to [`Simulator::recycled`];
/// a `Default` scratch donates nothing and behaves like
/// [`Simulator::new`].
#[derive(Debug, Default)]
pub struct ReplayScratch {
    pub(super) exec_preds: Vec<FxHashSet<Addr>>,
    pub(super) exit_edges: Vec<FxHashSet<(RegionId, Addr)>>,
    pub(super) last_pred: Vec<[u64; 2]>,
    pub(super) last_exit: Vec<[(RegionId, Addr); 2]>,
    pub(super) runtime: Vec<RegionRuntime>,
    pub(super) retired: Vec<RegionReport>,
    pub(super) ff: FfBuffers,
}

/// The spin fast-forward's working buffers, reused by every phase
/// attempt so that an attempt allocates nothing once they have grown.
#[derive(Debug, Default)]
pub(super) struct FfBuffers {
    /// Regions the warm-up period visited, ascending.
    warm: Vec<usize>,
    /// Regions the verify period visited, ascending.
    verify: Vec<usize>,
    /// Pre-verify runtime rows of the `warm` regions: `(region index,
    /// value)`, ascending.
    rows: Vec<(usize, RegionRuntime)>,
    /// `(region index, per-period delta)` for every region a verified
    /// period touched.
    deltas: Vec<(usize, RegionRuntime)>,
}

impl ReplayScratch {
    /// Clears and resizes the donated buffers for a program with
    /// `block_count` blocks, returning them ready for a fresh run.
    pub(super) fn prepare(mut self, block_count: usize) -> Self {
        for s in &mut self.exec_preds {
            s.clear();
        }
        self.exec_preds.resize(block_count, FxHashSet::default());
        for s in &mut self.exit_edges {
            s.clear();
        }
        self.exit_edges.resize(block_count, FxHashSet::default());
        self.last_pred.clear();
        self.last_pred.resize(block_count, [u64::MAX; 2]);
        self.last_exit.clear();
        self.last_exit.resize(block_count, [NO_EXIT; 2]);
        self.runtime.clear();
        self.runtime.reserve(block_count);
        self.retired.clear();
        self
    }
}

/// The observable state compared across two consecutive periods of a
/// candidate spin phase.
struct FfSnapshot {
    total_insts: u64,
    cache_insts: u64,
    interpreted_taken: u64,
    transitions: u64,
    transition_distance_sum: u64,
    transition_page_crossings: u64,
    regions_selected: u64,
    insts_selected: u64,
    retired_len: usize,
    cache_len: usize,
    flushes: u64,
    mode: Mode,
    left_cache: bool,
    prev_block: Option<(Addr, usize)>,
    runtime_len: usize,
    resilience: ResilienceStats,
}

/// Per-period deltas of a verified spin period, applied
/// multiplicatively for the skipped repetitions (the runtime rows'
/// deltas are in [`FfBuffers::deltas`]).
struct FfDelta {
    insts: u64,
    transitions: u64,
    distance: u64,
    page_crossings: u64,
}

impl<'p> Simulator<'p> {
    /// Tears a finished simulator down to its recyclable buffers (see
    /// [`ReplayScratch`]).
    pub fn into_scratch(self) -> ReplayScratch {
        let e = self.engine;
        ReplayScratch {
            exec_preds: e.exec_preds,
            exit_edges: e.exit_edges,
            last_pred: e.last_pred,
            last_exit: e.last_exit,
            runtime: e.runtime,
            retired: e.retired,
            ff: e.ff,
        }
    }

    /// Replays a whole decoded stream through the system — equivalent
    /// to [`Simulator::run`] over the stream's steps, with the spin
    /// fast-forward enabled.
    ///
    /// The stream must have been decoded against this simulator's
    /// program.
    pub fn replay_decoded(&mut self, stream: &DecodedStream) {
        self.replay_decoded_range(stream, 0, stream.len(), true);
    }

    /// Replays steps `[start, end)` of a decoded stream (`end` is
    /// clamped to the stream length).
    ///
    /// Ranges must be fed contiguously: the caller replays `[0, a)`,
    /// then `[a, b)`, and so on, on the same simulator — the epoch
    /// pattern of the serving runtime. A *fresh* simulator (one that
    /// has executed nothing yet) may instead start anywhere in the
    /// stream: that is how a reconnecting tenant resumes from a
    /// checkpoint, and the first step simply arrives with no
    /// predecessor, like a program's first block. `fast_forward`
    /// force-enables or disables the spin fast-forward (it is
    /// additionally disabled whenever a fault injector is active);
    /// results are bit-identical either way.
    ///
    /// The range makes one call through the selector's vtable, into
    /// the replay loop compiled for the selector's concrete type
    /// ([`RegionSelector::replay_range`]), where every hook call is
    /// static.
    pub fn replay_decoded_range(
        &mut self,
        stream: &DecodedStream,
        start: usize,
        end: usize,
        fast_forward: bool,
    ) {
        self.selector
            .replay_range(&mut self.engine, stream, start, end, fast_forward);
    }
}

impl Engine<'_> {
    /// The replay loop behind [`Simulator::replay_decoded_range`],
    /// driving the selector `sel` of static type `S`.
    pub(crate) fn replay_range<S: RegionSelector + ?Sized>(
        &mut self,
        sel: &mut S,
        stream: &DecodedStream,
        start: usize,
        end: usize,
        fast_forward: bool,
    ) {
        let end = end.min(stream.len());
        if start >= end {
            return;
        }
        debug_assert!(
            start == 0
                || self.prev_block.is_none()
                || self.prev_block.map(|(_, b)| b) == Some(stream.block_index(start - 1)),
            "ranges must continue the same stream on the same simulator \
             (only a fresh simulator may resume mid-stream)"
        );
        let phases = stream.phases();
        let ff = fast_forward && !self.injector.active();
        let mut pp = phases.partition_point(|ph| (ph.start as usize) < start);
        let mut i = start;
        while i < end {
            if ff && pp < phases.len() {
                let ph = phases[pp];
                let s = ph.start as usize;
                if s < i {
                    // Overtaken (a previous epoch ended mid-phase).
                    pp += 1;
                    continue;
                }
                if s == i {
                    pp += 1;
                    let p = ph.period as usize;
                    let usable = ((end - s) / p).min(ph.reps as usize);
                    if usable >= 3 {
                        i = self.ff_phase(sel, stream, s, p, s + usable * p);
                        continue;
                    }
                }
            }
            self.exec_decoded(sel, stream, i);
            i += 1;
        }
    }

    /// Executes step `i` of the decoded stream through the shared
    /// arrival core — the batch twin of [`Simulator::arrive`].
    #[inline]
    fn exec_decoded<S: RegionSelector + ?Sized>(
        &mut self,
        sel: &mut S,
        stream: &DecodedStream,
        i: usize,
    ) {
        let bidx = stream.block_index(i);
        let target = stream.block_start(bidx);
        let len = u64::from(stream.block_len(bidx));
        let entry = stream.entry_at(i);
        self.arrive_with(sel, bidx, target, len, entry, |prev| {
            // The previous step of a contiguous replay is the previous
            // stream entry (also for a fresh simulator resuming
            // mid-stream); its terminator address was resolved once at
            // decode time.
            let from = if i > 0 {
                Some(stream.block_index(i - 1))
            } else {
                prev
            };
            from.map(|b| (b, stream.term_addr(b)))
        });
    }

    /// Runs one detected spin phase spanning steps `[start, phase_end)`
    /// (a whole number of `period`-step repetitions), fast-forwarding
    /// as soon as one repetition verifies as pure-counter. Returns the
    /// step index the outer loop should resume from.
    ///
    /// The phase is attempted repeatedly, two periods at a time: early
    /// repetitions usually mutate state (the selector is still
    /// profiling the loop, then selects it), so the first attempts
    /// fail their guards — but once the loop settles into the cache a
    /// later attempt verifies and the whole remainder is applied
    /// arithmetically. Failed attempts cost only the steps they would
    /// have executed anyway plus an O(period) snapshot.
    fn ff_phase<S: RegionSelector + ?Sized>(
        &mut self,
        sel: &mut S,
        stream: &DecodedStream,
        start: usize,
        period: usize,
        phase_end: usize,
    ) -> usize {
        let mut b = std::mem::take(&mut self.ff);
        let mut i = start;
        let mut resume = None;
        while i + 3 * period <= phase_end {
            // Warm-up period (or the previous failed verify): note
            // every region the loop visits, so the snapshot covers
            // exactly the runtime rows the next period can touch.
            self.exec_period(sel, stream, i, period, &mut b.warm);
            i += period;
            let snap = self.ff_snapshot(&b.warm, &mut b.rows);
            self.exec_period(sel, stream, i, period, &mut b.verify);
            i += period;
            // A runtime row can only change on the region that was
            // current at a step boundary; every boundary region of the
            // verify period must therefore be in the snapshot (the
            // boundary before its first step is the warm period's last
            // push).
            let covered = b.verify.iter().all(|r| b.warm.binary_search(r).is_ok());
            if !covered {
                continue;
            }
            if let Some(delta) = self.ff_delta(&snap, &b.rows, &mut b.deltas) {
                let skip = (phase_end - i) / period;
                self.ff_apply(&delta, &b.deltas, skip as u64);
                resume = Some(i + skip * period);
                break;
            }
        }
        self.ff = b;
        resume.unwrap_or(i)
    }

    /// Executes steps `[from, from + period)`, collecting into
    /// `touched` (ascending, deduplicated) every region the loop was in
    /// after a step.
    fn exec_period<S: RegionSelector + ?Sized>(
        &mut self,
        sel: &mut S,
        stream: &DecodedStream,
        from: usize,
        period: usize,
        touched: &mut Vec<usize>,
    ) {
        touched.clear();
        for k in from..from + period {
            self.exec_decoded(sel, stream, k);
            if let Mode::InCache { region, .. } = self.mode {
                touched.push(region.index());
            }
        }
        touched.sort_unstable();
        touched.dedup();
    }

    /// Snapshots the guarded counters, and the runtime rows of
    /// `touched` (ascending region indices) into `rows`.
    fn ff_snapshot(&self, touched: &[usize], rows: &mut Vec<(usize, RegionRuntime)>) -> FfSnapshot {
        rows.clear();
        rows.extend(
            touched
                .iter()
                .map(|&r| (r, self.runtime.get(r).copied().unwrap_or_default())),
        );
        FfSnapshot {
            total_insts: self.total_insts,
            cache_insts: self.cache_insts,
            interpreted_taken: self.interpreted_taken,
            transitions: self.transitions,
            transition_distance_sum: self.transition_distance_sum,
            transition_page_crossings: self.transition_page_crossings,
            regions_selected: self.regions_selected,
            insts_selected: self.insts_selected,
            retired_len: self.retired.len(),
            cache_len: self.cache.len(),
            flushes: self.cache.flushes(),
            mode: self.mode,
            left_cache: self.left_cache,
            prev_block: self.prev_block,
            runtime_len: self.runtime.len(),
            resilience: self.resilience.clone(),
        }
    }

    /// Checks the fast-forward guards against the snapshot (and its
    /// runtime `rows`) taken one period ago and, when every guard
    /// holds, returns the verified per-period deltas, with the runtime
    /// rows' deltas written to `deltas`. `None` means the period was
    /// not pure-counter and the phase must keep stepping.
    fn ff_delta(
        &self,
        s: &FfSnapshot,
        rows: &[(usize, RegionRuntime)],
        deltas: &mut Vec<(usize, RegionRuntime)>,
    ) -> Option<FfDelta> {
        let insts = self.total_insts - s.total_insts;
        let all_cached = self.cache_insts - s.cache_insts == insts;
        if !all_cached
            || self.interpreted_taken != s.interpreted_taken
            || self.regions_selected != s.regions_selected
            || self.insts_selected != s.insts_selected
            || self.retired.len() != s.retired_len
            || self.cache.len() != s.cache_len
            || self.cache.flushes() != s.flushes
            || self.mode != s.mode
            || self.left_cache != s.left_cache
            || self.prev_block != s.prev_block
            || self.runtime.len() != s.runtime_len
            || self.resilience != s.resilience
        {
            return None;
        }
        deltas.clear();
        deltas.extend(rows.iter().filter_map(|&(i, then)| {
            let now = self.runtime.get(i).copied().unwrap_or_default();
            (now != then).then_some((
                i,
                RegionRuntime {
                    executions: now.executions - then.executions,
                    cycle_ends: now.cycle_ends - then.cycle_ends,
                    insts_executed: now.insts_executed - then.insts_executed,
                },
            ))
        }));
        Some(FfDelta {
            insts,
            transitions: self.transitions - s.transitions,
            distance: self.transition_distance_sum - s.transition_distance_sum,
            page_crossings: self.transition_page_crossings - s.transition_page_crossings,
        })
    }

    /// Applies `periods` repetitions of a verified period's deltas.
    fn ff_apply(&mut self, d: &FfDelta, deltas: &[(usize, RegionRuntime)], periods: u64) {
        self.total_insts += d.insts * periods;
        self.cache_insts += d.insts * periods;
        self.transitions += d.transitions * periods;
        self.transition_distance_sum += d.distance * periods;
        self.transition_page_crossings += d.page_crossings * periods;
        for &(i, dd) in deltas {
            let rt = &mut self.runtime[i];
            rt.executions += dd.executions * periods;
            rt.cycle_ends += dd.cycle_ends * periods;
            rt.insts_executed += dd.insts_executed * periods;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::select::SelectorKind;
    use rsel_program::Executor;
    use rsel_program::patterns::ScenarioBuilder;
    use rsel_trace::CompactStream;

    fn hot_loop(s: &mut ScenarioBuilder) {
        let f = s.function("main", 0x1000);
        let lp = s.counted_loop(f, 3, 100_000);
        s.ret_from(f, lp.exit);
    }

    fn interproc_loop(s: &mut ScenarioBuilder) {
        let main = s.function("main", 0x4000);
        let callee = s.function("callee", 0x1000);
        let head = s.block(main, 2);
        let latch = s.block(main, 1);
        s.call(head, callee);
        s.branch_trips(latch, head, 50_000);
        let done = s.block(main, 0);
        s.ret(done);
        let c0 = s.block(callee, 2);
        s.ret(c0);
    }

    fn recorded(
        build: impl Fn(&mut ScenarioBuilder),
        seed: u64,
    ) -> (rsel_program::Program, CompactStream) {
        let mut s = ScenarioBuilder::new(seed);
        build(&mut s);
        let (p, spec) = s.build().unwrap();
        let stream = CompactStream::record(Executor::new(&p, spec));
        (p, stream)
    }

    fn replay_reports(
        build: impl Fn(&mut ScenarioBuilder) + Copy,
        cfg: &SimConfig,
    ) -> Vec<(
        SelectorKind,
        crate::metrics::RunReport,
        crate::metrics::RunReport,
    )> {
        let (p, stream) = recorded(build, 1);
        let decoded = DecodedStream::decode(stream, &p);
        SelectorKind::extended()
            .into_iter()
            .map(|kind| {
                let mut a = Simulator::new(&p, kind.make(&p, cfg), cfg);
                a.run(decoded.compact().replay(&p));
                let mut b = Simulator::new(&p, kind.make(&p, cfg), cfg);
                b.replay_decoded(&decoded);
                (kind, a.report(), b.report())
            })
            .collect()
    }

    #[test]
    fn decoded_replay_matches_step_replay() {
        let cfg = SimConfig::default();
        for build in [
            hot_loop as fn(&mut ScenarioBuilder),
            interproc_loop as fn(&mut ScenarioBuilder),
        ] {
            for (kind, step_rep, decoded_rep) in replay_reports(build, &cfg) {
                assert_eq!(step_rep, decoded_rep, "{kind}");
            }
        }
    }

    #[test]
    fn fast_forward_on_and_off_are_identical() {
        let cfg = SimConfig::default();
        let (p, stream) = recorded(hot_loop, 1);
        let decoded = DecodedStream::decode(stream, &p);
        assert!(
            !decoded.phases().is_empty(),
            "the hot loop must present a spin phase"
        );
        for kind in SelectorKind::extended() {
            let mut on = Simulator::new(&p, kind.make(&p, &cfg), &cfg);
            on.replay_decoded_range(&decoded, 0, decoded.len(), true);
            let mut off = Simulator::new(&p, kind.make(&p, &cfg), &cfg);
            off.replay_decoded_range(&decoded, 0, decoded.len(), false);
            assert_eq!(on.report(), off.report(), "{kind}");
        }
    }

    #[test]
    fn ranged_replay_matches_monolithic() {
        let cfg = SimConfig::default();
        let (p, stream) = recorded(interproc_loop, 1);
        let decoded = DecodedStream::decode(stream, &p);
        for epoch_len in [1usize, 7, 1000, decoded.len()] {
            let mut epoch = Simulator::new(&p, SelectorKind::Lei.make(&p, &cfg), &cfg);
            let mut at = 0;
            while at < decoded.len() {
                let end = (at + epoch_len).min(decoded.len());
                epoch.replay_decoded_range(&decoded, at, end, true);
                at = end;
            }
            let mut mono = Simulator::new(&p, SelectorKind::Lei.make(&p, &cfg), &cfg);
            mono.replay_decoded(&decoded);
            assert_eq!(epoch.report(), mono.report(), "epoch_len {epoch_len}");
        }
    }

    #[test]
    fn recycled_scratch_changes_nothing() {
        let cfg = SimConfig::default();
        let (p, stream) = recorded(hot_loop, 1);
        let decoded = DecodedStream::decode(stream, &p);
        let mut fresh = Simulator::new(&p, SelectorKind::Net.make(&p, &cfg), &cfg);
        fresh.replay_decoded(&decoded);
        let fresh_report = fresh.report();
        let mut scratch = fresh.into_scratch();
        // Run a different selector through the recycled buffers, then
        // the same one again: both must match their fresh equivalents.
        let mut other = Simulator::recycled(&p, SelectorKind::Lei.make(&p, &cfg), &cfg, scratch);
        other.replay_decoded(&decoded);
        let other_report = other.report();
        let mut lei_fresh = Simulator::new(&p, SelectorKind::Lei.make(&p, &cfg), &cfg);
        lei_fresh.replay_decoded(&decoded);
        assert_eq!(other_report, lei_fresh.report());
        scratch = other.into_scratch();
        let mut again = Simulator::recycled(&p, SelectorKind::Net.make(&p, &cfg), &cfg, scratch);
        again.replay_decoded(&decoded);
        assert_eq!(again.report(), fresh_report);
    }

    #[test]
    fn fast_forward_disabled_under_fault_injection() {
        use crate::sim::faults::FaultConfig;
        let cfg = SimConfig {
            faults: FaultConfig {
                seed: 42,
                smc_write_ppm: 2_000,
                flush_wave_ppm: 500,
                counter_fault_ppm: 300,
                ..FaultConfig::default()
            },
            ..SimConfig::default()
        };
        let (p, stream) = recorded(hot_loop, 1);
        let decoded = DecodedStream::decode(stream, &p);
        // With an active injector the detector is bypassed even when
        // force-enabled; both replays must equal the live stepping run.
        let mut live = Simulator::new(&p, SelectorKind::Net.make(&p, &cfg), &cfg);
        live.run(decoded.compact().replay(&p));
        for ff in [true, false] {
            let mut sim = Simulator::new(&p, SelectorKind::Net.make(&p, &cfg), &cfg);
            sim.replay_decoded_range(&decoded, 0, decoded.len(), ff);
            let rep = sim.report();
            assert!(rep.resilience.fault_events() > 0);
            assert_eq!(rep, live.report(), "ff={ff}");
        }
    }
}
