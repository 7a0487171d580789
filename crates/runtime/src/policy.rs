//! The adaptive selector policy engine.
//!
//! The paper's central observation is that no single region-selection
//! algorithm dominates: which selector wins depends on the workload's
//! control-flow character, and (for phased programs) on *when* you ask.
//! The engine turns that observation into an online policy, one engine
//! per tenant:
//!
//! 1. **Explore** — run each candidate [`SelectorKind`] for one epoch
//!    and score it by observed hit rate minus a code-expansion penalty
//!    (cache capacity is shared, so expansion is charged, not free);
//! 2. **Exploit** — switch to the best-scoring candidate and stay on
//!    it, tracking an exponential moving average of its score;
//! 3. **Re-explore** — when the score drops well below the moving
//!    average (a phase shift: the program's hot working set changed),
//!    restart exploration from scratch.
//!
//! Every decision is a pure function of epoch deltas, so the engine is
//! deterministic and never couples tenants to each other or to the
//! worker count.
//!
//! # Stream-adaptive candidates
//!
//! The fixed explore schedule has two pathologies the paper's
//! workload-dependence observation predicts: a short-stream tenant
//! burns its whole session exploring and never exploits, and every
//! tenant pays the same exploration cost regardless of how obvious its
//! control-flow character is. With [`PolicyConfig::adaptive`] on,
//! [`derive_tenant_policy`] specializes the candidate list per tenant
//! *before serving starts*, from data that is already deterministic:
//! the decoded stream's length and its decode-time
//! [`StreamStats`](rsel_trace::StreamStats). A feature-conditioned
//! prior selector is moved to the front of the list (loop-heavy
//! streams lean LEI-shaped, branchy ones lean combined, straight-line
//! ones NET), and the explore schedule is truncated so a tenant with
//! `E` expected epochs explores at most `ceil(E / 2)` candidates —
//! short streams reach exploit, long streams may explore the full
//! extended set. The derivation is a pure function of
//! `(PolicyConfig, TenantSpec)`, so the snapshot loader can re-derive
//! each tenant's candidate list and per-tenant state stays portable.

use crate::session::{EpochStats, TenantSpec};
use rsel_core::select::SelectorKind;

/// Smoothing factor for the exploit-phase score average.
const EMA_ALPHA: f64 = 0.3;

/// Tuning knobs for the policy engine.
#[derive(Clone, Debug)]
pub struct PolicyConfig {
    /// Candidate selectors, explored in order. Must be non-empty.
    pub candidates: Vec<SelectorKind>,
    /// Weight of the code-expansion term in the score
    /// (`hit_rate - expansion_weight * expansion`). Expansion per epoch
    /// is small (insts copied / insts executed), so the weight is
    /// large.
    pub expansion_weight: f64,
    /// How far the score must fall below the exploit-phase average
    /// before the engine declares a phase shift and re-explores.
    pub drop_margin: f64,
    /// Epochs executing fewer instructions than this carry no signal
    /// (e.g. the trailing sliver of a stream) and make no decision.
    pub min_epoch_insts: u64,
    /// Stream-adaptive mode: derive each tenant's candidate list from
    /// its decoded stream ([`derive_tenant_policy`]) instead of using
    /// `candidates` verbatim. Off by default — the legacy fixed
    /// schedule stays bit-identical.
    pub adaptive: bool,
    /// Steps per serving epoch, used (only when `adaptive`) to
    /// estimate how many epochs a stream will run and truncate the
    /// explore schedule to fit. Keep equal to the scheduler's
    /// `ServeConfig::epoch_len`.
    pub epoch_len: usize,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            candidates: SelectorKind::all().to_vec(),
            expansion_weight: 8.0,
            drop_margin: 0.15,
            min_epoch_insts: 1000,
            adaptive: false,
            epoch_len: 4096,
        }
    }
}

/// The program-shape features a tenant's adaptive policy was derived
/// from, kept for the report: what the engine saw, which prior it
/// chose, and how long its truncated explore schedule is.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PolicyFeatures {
    /// Expected serving epochs (`ceil(stream steps / epoch_len)`).
    pub expected_epochs: u64,
    /// Executed blocks in the recorded stream.
    pub blocks: u64,
    /// Mean instructions per executed block.
    pub mean_block_insts: f64,
    /// Taken branches per executed block.
    pub taken_density: f64,
    /// Backward taken branches over all taken branches (loopiness).
    pub backward_fraction: f64,
    /// The feature-conditioned prior: the first candidate explored.
    pub prior: SelectorKind,
    /// Length of the truncated explore schedule.
    pub explore_len: u32,
}

/// Specializes `base` for one tenant (see the module docs): picks a
/// feature-conditioned prior selector, moves it to the front of the
/// candidate list, and truncates the list to `ceil(E / 2)` entries for
/// a stream expected to run `E` epochs, so exploration never eats the
/// whole session. A pure function of its arguments — the snapshot
/// loader re-derives the same list when validating persisted state.
///
/// With `base.adaptive` off this is the identity: the base config
/// comes back unchanged and no features are reported.
pub fn derive_tenant_policy(
    base: &PolicyConfig,
    spec: &TenantSpec,
) -> (PolicyConfig, Option<PolicyFeatures>) {
    if !base.adaptive {
        return (base.clone(), None);
    }
    let stats = spec.stream_stats();
    let blocks = stats.blocks.max(1);
    let mean_block_insts = stats.instructions as f64 / blocks as f64;
    let taken_density = stats.taken_branches as f64 / blocks as f64;
    let backward_fraction = if stats.taken_branches == 0 {
        0.0
    } else {
        stats.backward_taken as f64 / stats.taken_branches as f64
    };
    let expected_epochs = (spec.len() as u64)
        .div_ceil(base.epoch_len.max(1) as u64)
        .max(1);
    // The prior leans on the paper's characterization of the
    // algorithms: loop-dominated streams favor the backward-taken
    // anchoring of LEI, densely branchy ones the combined variants'
    // wider join heuristics, and long straight-line blocks NET's
    // next-executing-tail growth.
    let prior = if backward_fraction >= 0.5 {
        SelectorKind::Lei
    } else if taken_density >= 0.6 {
        SelectorKind::CombinedLei
    } else if mean_block_insts >= 6.0 {
        SelectorKind::Net
    } else {
        SelectorKind::CombinedNet
    };
    let mut candidates = Vec::with_capacity(base.candidates.len());
    if let Some(pos) = base.candidates.iter().position(|&k| k == prior) {
        candidates.push(base.candidates[pos]);
        candidates.extend(
            base.candidates
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != pos)
                .map(|(_, &k)| k),
        );
    } else {
        // A prior outside the configured pool falls back to the
        // configured order.
        candidates.extend(base.candidates.iter().copied());
    }
    let budget = expected_epochs
        .div_ceil(2)
        .clamp(1, candidates.len() as u64) as usize;
    candidates.truncate(budget);
    let features = PolicyFeatures {
        expected_epochs,
        blocks: stats.blocks,
        mean_block_insts,
        taken_density,
        backward_fraction,
        prior: candidates[0],
        explore_len: candidates.len() as u32,
    };
    (
        PolicyConfig {
            candidates,
            ..base.clone()
        },
        Some(features),
    )
}

/// Why the engine switched selectors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwitchReason {
    /// Moving on to the next unexplored candidate.
    Explore,
    /// Exploration finished; adopting the best-scoring candidate.
    Exploit,
    /// The exploited score collapsed; restarting exploration.
    PhaseShift,
}

impl SwitchReason {
    /// Stable lower-case label for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            SwitchReason::Explore => "explore",
            SwitchReason::Exploit => "exploit",
            SwitchReason::PhaseShift => "phase-shift",
        }
    }
}

/// One selector switch, as logged in the [`ServeReport`](crate::ServeReport).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwitchRecord {
    /// The tenant that switched.
    pub tenant: u16,
    /// Its workload name.
    pub workload: &'static str,
    /// The tenant's epoch count at the switch.
    pub epoch: u64,
    /// Selector before the switch.
    pub from: SelectorKind,
    /// Selector after the switch.
    pub to: SelectorKind,
    /// Why.
    pub reason: SwitchReason,
}

/// A [`PolicyEngine`]'s exportable state: everything the engine has
/// learned, detached from its configuration. Produced by
/// [`PolicyEngine::export`], persisted by the snapshot layer
/// ([`crate::snapshot`]), and turned back into a live engine by
/// [`PolicyEngine::restore`].
///
/// Scores are positional with the candidate list, and the state
/// carries the candidates it was learned under: a snapshot can never
/// be replayed against a different candidate set silently
/// ([`PolicyEngine::restore`] rejects the mismatch).
#[derive(Clone, Debug, PartialEq)]
pub struct PolicyState {
    /// Whether the engine is exploring (`true`) or exploiting.
    pub exploring: bool,
    /// Index of the next candidate to explore (meaningful only while
    /// exploring; always in `1..=candidates.len()`).
    pub next: u32,
    /// Index of the candidate currently running.
    pub current: u32,
    /// The candidate selectors the state was learned under, in
    /// exploration order.
    pub candidates: Vec<SelectorKind>,
    /// Exploration scores, one slot per candidate.
    pub scores: Vec<Option<f64>>,
    /// Exploit-phase moving average of the score.
    pub ema: f64,
    /// Switches decided so far.
    pub switches: u64,
}

#[derive(Clone, Copy, Debug)]
enum Phase {
    /// Exploring; `next` is the index of the next candidate to try.
    Explore { next: usize },
    /// Settled on the current candidate.
    Exploit,
}

/// Per-tenant online selector choice (see the module docs).
#[derive(Debug)]
pub struct PolicyEngine {
    config: PolicyConfig,
    phase: Phase,
    /// Index of the candidate currently running.
    current: usize,
    /// Exploration scores, one per candidate.
    scores: Vec<Option<f64>>,
    /// Exploit-phase moving average of the score.
    ema: f64,
    switches: u64,
}

impl PolicyEngine {
    /// Creates an engine; the session must start on
    /// [`PolicyEngine::current`], the first candidate.
    ///
    /// # Panics
    ///
    /// Panics if `config.candidates` is empty.
    pub fn new(config: PolicyConfig) -> Self {
        assert!(!config.candidates.is_empty(), "need at least one candidate");
        let n = config.candidates.len();
        // An adaptive engine whose schedule was truncated to a single
        // candidate has nothing to explore: it exploits from epoch 0,
        // which is what lets a one-epoch tenant report a first exploit
        // round at all.
        let phase = if config.adaptive && n == 1 {
            Phase::Exploit
        } else {
            Phase::Explore { next: 1 }
        };
        PolicyEngine {
            config,
            phase,
            current: 0,
            scores: vec![None; n],
            ema: 0.0,
            switches: 0,
        }
    }

    /// The selector the engine wants running now.
    pub fn current(&self) -> SelectorKind {
        self.config.candidates[self.current]
    }

    /// Whether the engine has settled on a candidate (exploit phase).
    pub fn exploiting(&self) -> bool {
        matches!(self.phase, Phase::Exploit)
    }

    /// The candidate selectors, in exploration order.
    pub fn candidates(&self) -> &[SelectorKind] {
        &self.config.candidates
    }

    /// Exports the engine's learned state (see [`PolicyState`]).
    pub fn export(&self) -> PolicyState {
        PolicyState {
            exploring: matches!(self.phase, Phase::Explore { .. }),
            next: match self.phase {
                Phase::Explore { next } => next as u32,
                Phase::Exploit => 0,
            },
            current: self.current as u32,
            candidates: self.config.candidates.clone(),
            scores: self.scores.clone(),
            ema: self.ema,
            switches: self.switches,
        }
    }

    /// Rebuilds an engine from exported state, continuing exactly where
    /// the exporting engine left off — the same phase, per-candidate
    /// scores, moving average, and switch count ([`PolicyEngine::switches`]
    /// keeps accumulating across the restore, the way
    /// `Simulator::set_selector` carries peak floors across selector
    /// swaps).
    ///
    /// Returns `None` when `state` is inconsistent with `config`: a
    /// candidate list or score-slot count that does not match the
    /// configuration, an index out of range, or a non-finite
    /// score/average.
    pub fn restore(config: PolicyConfig, state: &PolicyState) -> Option<Self> {
        let n = config.candidates.len();
        if n == 0 || state.candidates != config.candidates {
            return None;
        }
        if state.scores.len() != n || (state.current as usize) >= n {
            return None;
        }
        if state.exploring && !(1..=n).contains(&(state.next as usize)) {
            return None;
        }
        if !state.ema.is_finite() || state.scores.iter().flatten().any(|s| !s.is_finite()) {
            return None;
        }
        Some(PolicyEngine {
            config,
            phase: if state.exploring {
                Phase::Explore {
                    next: state.next as usize,
                }
            } else {
                Phase::Exploit
            },
            current: state.current as usize,
            scores: state.scores.clone(),
            ema: state.ema,
            switches: state.switches,
        })
    }

    /// Switches decided so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Scores one epoch of the current selector.
    fn score(&self, stats: &EpochStats) -> f64 {
        stats.hit_rate() - self.config.expansion_weight * stats.expansion()
    }

    /// Feeds one epoch's deltas; returns the selector to switch to (and
    /// why) if the engine decided to move, `None` to stay put.
    pub fn on_epoch(&mut self, stats: &EpochStats) -> Option<(SelectorKind, SwitchReason)> {
        if stats.insts < self.config.min_epoch_insts {
            return None; // too little signal; keep the current selector
        }
        let score = self.score(stats);
        match self.phase {
            Phase::Explore { next } => {
                self.scores[self.current] = Some(score);
                if next < self.config.candidates.len() {
                    // Try the next candidate for one epoch.
                    self.phase = Phase::Explore { next: next + 1 };
                    self.switch_to(next, SwitchReason::Explore)
                } else {
                    // Everyone scored: adopt the best (ties fall to the
                    // earliest candidate, deterministically).
                    let best = self
                        .scores
                        .iter()
                        .enumerate()
                        .max_by(|(ai, a), (bi, b)| {
                            a.partial_cmp(b)
                                .expect("scores are finite")
                                .then(bi.cmp(ai))
                        })
                        .map(|(i, _)| i)
                        .expect("candidates is non-empty");
                    self.phase = Phase::Exploit;
                    self.ema = self.scores[best].expect("explored every candidate");
                    if best == self.current {
                        None
                    } else {
                        self.switch_to(best, SwitchReason::Exploit)
                    }
                }
            }
            Phase::Exploit => {
                // A single-candidate adaptive engine has no
                // alternative to re-explore; cycling back through
                // Explore would only flicker `exploiting()` off.
                let sole = self.config.adaptive && self.config.candidates.len() == 1;
                if score < self.ema - self.config.drop_margin && !sole {
                    // Phase shift: the winner stopped winning. Restart
                    // exploration from candidate 0.
                    self.scores.fill(None);
                    self.phase = Phase::Explore { next: 1 };
                    if self.current == 0 {
                        // Already on candidate 0: next epoch scores it.
                        None
                    } else {
                        self.switch_to(0, SwitchReason::PhaseShift)
                    }
                } else {
                    self.ema = (1.0 - EMA_ALPHA) * self.ema + EMA_ALPHA * score;
                    None
                }
            }
        }
    }

    fn switch_to(
        &mut self,
        index: usize,
        reason: SwitchReason,
    ) -> Option<(SelectorKind, SwitchReason)> {
        self.current = index;
        self.switches += 1;
        Some((self.config.candidates[index], reason))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch(insts: u64, cache: u64, selected: u64) -> EpochStats {
        EpochStats {
            steps: insts / 3,
            insts,
            cache_insts: cache,
            insts_selected: selected,
            ..EpochStats::default()
        }
    }

    #[test]
    fn explores_every_candidate_then_exploits_the_best() {
        let mut e = PolicyEngine::new(PolicyConfig::default());
        assert_eq!(e.current(), SelectorKind::Net);
        // NET scores 0.50, LEI 0.90, combined NET 0.40, combined LEI 0.60.
        let scores = [5000u64, 9000, 4000, 6000];
        let mut moves = Vec::new();
        for &cache in &scores {
            if let Some(m) = e.on_epoch(&epoch(10_000, cache, 0)) {
                moves.push(m);
            }
        }
        assert_eq!(moves.len(), 4, "three explore hops plus the adoption");
        assert_eq!(moves[3], (SelectorKind::Lei, SwitchReason::Exploit));
        assert_eq!(e.current(), SelectorKind::Lei);
        assert_eq!(e.switches(), 4);
        // Steady scores keep it exploiting.
        assert_eq!(e.on_epoch(&epoch(10_000, 9000, 0)), None);
    }

    #[test]
    fn expansion_is_charged_against_the_score() {
        let mut e = PolicyEngine::new(PolicyConfig::default());
        // NET: hit 0.9 but copies 5% of executed insts -> 0.9 - 8*0.05 = 0.5.
        // LEI: hit 0.8, copies nothing -> 0.8. LEI wins.
        e.on_epoch(&epoch(10_000, 9000, 500));
        e.on_epoch(&epoch(10_000, 8000, 0));
        e.on_epoch(&epoch(10_000, 1000, 0));
        let last = e.on_epoch(&epoch(10_000, 1000, 0));
        assert_eq!(last, Some((SelectorKind::Lei, SwitchReason::Exploit)));
    }

    #[test]
    fn score_collapse_triggers_re_exploration() {
        let mut e = PolicyEngine::new(PolicyConfig::default());
        for _ in 0..4 {
            e.on_epoch(&epoch(10_000, 9000, 0)); // everyone scores 0.9
        }
        assert_eq!(e.current(), SelectorKind::Net, "tie falls to the first");
        assert_eq!(e.on_epoch(&epoch(10_000, 8800, 0)), None, "small dip: stay");
        // The hot set changed: hit rate collapses far below the average.
        let m = e.on_epoch(&epoch(10_000, 2000, 0));
        // Already on candidate 0, so no switch is emitted, but the next
        // epochs walk the candidates again.
        assert_eq!(m, None);
        let m = e.on_epoch(&epoch(10_000, 2000, 0));
        assert_eq!(m, Some((SelectorKind::Lei, SwitchReason::Explore)));
    }

    #[test]
    fn phase_shift_switches_back_to_first_candidate() {
        let mut e = PolicyEngine::new(PolicyConfig::default());
        // LEI ends up the winner.
        for &cache in &[5000u64, 9000, 4000, 6000] {
            e.on_epoch(&epoch(10_000, cache, 0));
        }
        assert_eq!(e.current(), SelectorKind::Lei);
        let m = e.on_epoch(&epoch(10_000, 1000, 0));
        assert_eq!(m, Some((SelectorKind::Net, SwitchReason::PhaseShift)));
    }

    #[test]
    fn export_restore_round_trips_and_keeps_deciding() {
        // Drive an engine mid-exploration, freeze it, thaw it, and
        // check the thawed engine is indistinguishable from the
        // original — state-identical and decision-identical.
        let mut e = PolicyEngine::new(PolicyConfig::default());
        e.on_epoch(&epoch(10_000, 5000, 0));
        e.on_epoch(&epoch(10_000, 9000, 0));
        let state = e.export();
        assert!(state.exploring);
        assert_eq!(state.switches, 2);
        let mut r = PolicyEngine::restore(PolicyConfig::default(), &state).unwrap();
        assert_eq!(r.export(), state);
        assert_eq!(r.current(), e.current());
        let next = epoch(10_000, 4000, 0);
        assert_eq!(r.on_epoch(&next), e.on_epoch(&next));
        assert_eq!(r.export(), e.export());
        // An exploit-phase engine round-trips too, including the EMA.
        e.on_epoch(&epoch(10_000, 6000, 0));
        assert!(e.exploiting());
        let state = e.export();
        let r = PolicyEngine::restore(PolicyConfig::default(), &state).unwrap();
        assert!(r.exploiting());
        assert_eq!(r.export(), state);
    }

    #[test]
    fn restore_rejects_inconsistent_state() {
        let good = PolicyEngine::new(PolicyConfig::default()).export();
        let cfg = PolicyConfig::default;
        assert!(PolicyEngine::restore(cfg(), &good).is_some());
        let mut bad = good.clone();
        bad.scores.pop();
        assert!(PolicyEngine::restore(cfg(), &bad).is_none(), "score count");
        let mut bad = good.clone();
        bad.candidates.reverse();
        assert!(
            PolicyEngine::restore(cfg(), &bad).is_none(),
            "foreign candidate list"
        );
        let mut bad = good.clone();
        bad.current = 99;
        assert!(PolicyEngine::restore(cfg(), &bad).is_none(), "current oob");
        let mut bad = good.clone();
        bad.next = 0;
        assert!(PolicyEngine::restore(cfg(), &bad).is_none(), "next oob");
        let mut bad = good.clone();
        bad.ema = f64::NAN;
        assert!(PolicyEngine::restore(cfg(), &bad).is_none(), "NaN ema");
        let mut bad = good;
        bad.scores[0] = Some(f64::INFINITY);
        assert!(PolicyEngine::restore(cfg(), &bad).is_none(), "inf score");
    }

    #[test]
    fn tiny_epochs_make_no_decision() {
        let mut e = PolicyEngine::new(PolicyConfig::default());
        assert_eq!(e.on_epoch(&epoch(10, 10, 0)), None);
        assert_eq!(e.current(), SelectorKind::Net, "still on the first");
        assert_eq!(e.switches(), 0);
    }

    #[test]
    fn extended_pool_explores_all_eight_then_exploits() {
        let config = PolicyConfig {
            candidates: SelectorKind::extended().to_vec(),
            ..PolicyConfig::default()
        };
        let mut e = PolicyEngine::new(config);
        // Candidate 5 (BOA) scores best; everyone else ties at 0.5.
        let mut moves = Vec::new();
        for i in 0..8u64 {
            let cache = if i == 5 { 9000 } else { 5000 };
            if let Some(m) = e.on_epoch(&epoch(10_000, cache, 0)) {
                moves.push(m);
            }
        }
        assert_eq!(moves.len(), 8, "seven explore hops plus the adoption");
        assert_eq!(moves[7], (SelectorKind::Boa, SwitchReason::Exploit));
        assert!(e.exploiting());
        assert_eq!(e.current(), SelectorKind::Boa);
    }

    #[test]
    fn extended_state_export_restore_round_trips() {
        let config = || PolicyConfig {
            candidates: SelectorKind::extended().to_vec(),
            ..PolicyConfig::default()
        };
        let mut e = PolicyEngine::new(config());
        for i in 0..5u64 {
            e.on_epoch(&epoch(10_000, 4000 + i * 500, 0));
        }
        let state = e.export();
        assert_eq!(state.candidates.len(), 8);
        let mut r = PolicyEngine::restore(config(), &state).unwrap();
        assert_eq!(r.export(), state);
        let next = epoch(10_000, 7000, 0);
        assert_eq!(r.on_epoch(&next), e.on_epoch(&next));
        // The legacy 4-candidate config must reject extended state.
        assert!(PolicyEngine::restore(PolicyConfig::default(), &state).is_none());
    }

    fn spec() -> TenantSpec {
        TenantSpec::record(&rsel_workloads::suite()[0], 7, rsel_workloads::Scale::Test)
    }

    #[test]
    fn non_adaptive_derivation_is_the_identity() {
        let base = PolicyConfig::default();
        let (derived, features) = derive_tenant_policy(&base, &spec());
        assert_eq!(derived.candidates, base.candidates);
        assert!(features.is_none());
    }

    #[test]
    fn adaptive_derivation_is_deterministic_and_prior_leads() {
        let base = PolicyConfig {
            adaptive: true,
            ..PolicyConfig::default()
        };
        let spec = spec();
        let (a, fa) = derive_tenant_policy(&base, &spec);
        let (b, fb) = derive_tenant_policy(&base, &spec);
        assert_eq!(a.candidates, b.candidates, "pure function of its inputs");
        assert_eq!(fa, fb);
        let f = fa.expect("adaptive mode reports features");
        assert_eq!(a.candidates[0], f.prior, "the prior is explored first");
        assert_eq!(a.candidates.len(), f.explore_len as usize);
        assert!(!a.candidates.is_empty());
        assert!(a.candidates.len() <= base.candidates.len());
        // Every derived candidate comes from the configured pool, and
        // none repeats.
        for (i, c) in a.candidates.iter().enumerate() {
            assert!(base.candidates.contains(c));
            assert!(!a.candidates[..i].contains(c));
        }
    }

    #[test]
    fn short_streams_get_truncated_schedules_that_reach_exploit() {
        let spec = spec();
        // An epoch as long as the whole stream: one expected epoch,
        // so the schedule truncates to the prior alone.
        let base = PolicyConfig {
            adaptive: true,
            epoch_len: spec.len(),
            ..PolicyConfig::default()
        };
        let (derived, features) = derive_tenant_policy(&base, &spec);
        let f = features.unwrap();
        assert_eq!(f.expected_epochs, 1);
        assert_eq!(derived.candidates.len(), 1);
        let mut e = PolicyEngine::new(derived);
        assert!(e.exploiting(), "a sole candidate exploits from epoch 0");
        assert_eq!(e.current(), f.prior);
        // Even a collapsing score cannot flicker it back to exploring —
        // there is nothing else to explore.
        e.on_epoch(&epoch(10_000, 9000, 0));
        assert_eq!(e.on_epoch(&epoch(10_000, 100, 0)), None);
        assert!(e.exploiting());
        assert_eq!(e.switches(), 0);
    }

    #[test]
    fn long_streams_keep_the_full_extended_pool() {
        let spec = spec();
        // Tiny epochs: expected epochs far exceed 2 * 8 candidates.
        let base = PolicyConfig {
            adaptive: true,
            epoch_len: 1,
            candidates: SelectorKind::extended().to_vec(),
            ..PolicyConfig::default()
        };
        let (derived, features) = derive_tenant_policy(&base, &spec);
        assert_eq!(derived.candidates.len(), 8, "nothing truncated");
        let f = features.unwrap();
        assert_eq!(f.explore_len, 8);
        assert_eq!(derived.candidates[0], f.prior);
    }
}
