//! The session scheduler: bounded admission, parallel epochs, a
//! deterministic decision barrier, and a contained failure domain.
//!
//! [`serve`] (cold) and [`serve_warm`] (from a [`WarmStart`]) build a
//! private `Scheduler` — validation, per-tenant setup, and the warm
//! restore happen in `Scheduler::new` — and run it one round at a
//! time until no tenant is owed service.
//!
//! Every tenant is in exactly one `TenantState` — Scheduled (due to
//! arrive at a round), Waiting (in the admission line), Active (holding
//! a session slot), or terminally Finished or Quarantined — and
//! `Scheduler::transition`, the only code that changes it, checks each
//! change against the table of legal transitions in debug builds.
//! Every round is the same ordered list of phases, one scheduler
//! method each:
//!
//! 1. **Arrivals** (`arrive`) — every Scheduled tenant whose round has
//!    come becomes Waiting, joining the back of the line in tenant
//!    order.
//! 2. **Admission** (`admit`) — the front of the queue becomes Active,
//!    up to `max_active` concurrent sessions. Arrivals that do not fit
//!    the queue are deferred — the backpressure the [`QueueStats`]
//!    expose. A zero-capacity queue means "no buffering": the line is
//!    admitted from directly and everyone in it is deferred. Under
//!    sustained overload an optional admission timeout *sheds*
//!    deferred tenants: they go back to Scheduled and retry after an
//!    exponential backoff, so the line never silently grows a convoy.
//! 3. **Epochs** (`run_epochs`) — one epoch of every Active session,
//!    fanned out over `jobs` scoped worker threads. Sessions only
//!    touch their own simulator and publish commutative occupancy
//!    updates to the shared map, so worker scheduling cannot affect
//!    any result. Every epoch runs inside a panic boundary: a session
//!    that panics (or that poisoned its lock) comes back `Crashed`
//!    instead of killing the serve.
//! 4. **Barrier** — with the workers joined, every cross-tenant
//!    decision happens serially in tenant order:
//!    1. `settle` counts each epoch and feeds the dip tracker, then
//!       moves every tenant that ran out of Active where it must go:
//!       a crashed session to Quarantined (its partial metrics kept)
//!       or to Scheduled for its one cold retry; a finished one to
//!       Finished; and one with a churn event due to Scheduled —
//!       disconnects checkpoint first, crashes rewind to their last
//!       checkpoint. Every departure releases the tenant's shard bytes
//!       and store refs (`release`), and a torn-down session's
//!       counters fold into the tenant's report row (the last
//!       session's at the end of the run).
//!    2. `relieve_pressure` resolves overflowing shards. Each one
//!       plans its whole victim set — the resident with the most bytes
//!       sheds half its remaining regions there, repeatedly, until the
//!       shard fits — then applies it with one eviction pass per victim
//!       tenant. In share mode the store plans the wave over
//!       deduplicated entries instead, largest first.
//!    3. `decide` feeds each epoch to its tenant's policy engine and
//!       applies the selector switches it asks for.
//!    4. `checkpoint_round` takes the periodic checkpoints of the
//!       tenants still Active that crash recovery rewinds to.
//!
//! When every tenant is Finished or Quarantined,
//! `into_outcome` assembles the report, the per-tenant run reports,
//! and the final snapshot.
//!
//! # Churn and chaos
//!
//! A [`ChurnConfig`] turns the static population into seeded traffic:
//! staggered arrivals, graceful mid-run disconnects that checkpoint
//! and later reconnect warm (resuming the recorded stream where the
//! checkpoint cut it), and crashes that recover from the *last*
//! checkpoint, re-executing everything since. Every lifecycle is a
//! pure function of the churn seed and the tenant id — like the fault
//! schedules, worker count cannot perturb it — so the outcome stays
//! byte-identical for every `jobs` value under any churn schedule. A
//! [`ChaosConfig`] additionally plants a deterministic poison pill (a
//! real panic inside one chosen epoch) to exercise the quarantine
//! path end to end.
//!
//! The outcome is byte-identical for every `jobs` value, warm-started
//! or not, churned or not, and every outcome carries a
//! [`ServeSnapshot`] of the final state so the
//! next run can warm-start from it.

use crate::churn::{ChaosConfig, ChurnConfig, LifecycleEvent, LifecycleKind, TenantLifecycle};
use crate::policy::{PolicyConfig, PolicyEngine, SwitchRecord, derive_tenant_policy};
use crate::report::{
    DipTracker, QueueStats, ServeOutcome, ServeReport, ShardReport, TenantSummary, wait_bucket,
};
use crate::session::{EpochStats, TenantSession, TenantSpec};
use crate::shard::SharedCacheMap;
use crate::snapshot::{
    ServeSnapshot, SnapshotError, TenantSnapshot, WarmStart, tenant_snapshot_bytes,
};
use crate::store::{RegionStore, StoreShardStats, debug_check_consistency};
use TenantState::*;
use rsel_core::{RegionId, SimConfig};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::panic::{AssertUnwindSafe, catch_unwind};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Derives tenant `tenant`'s fault-schedule seed from the run's base
/// seed (a SplitMix64-style finalizer over the pair).
///
/// Every tenant session owns its own
/// [`FaultInjector`](rsel_core::sim::faults::FaultInjector) seeded with
/// this value, so a tenant's self-modifying-code schedule is a function
/// of the base seed and its id alone — worker count, admission order,
/// and the other tenants cannot perturb it. That is what keeps a
/// faulted serve byte-identical for every `jobs` value. The churn
/// layer derives its per-tenant lifecycle seeds the same way (over a
/// salted base, so the streams never collide).
pub fn tenant_fault_seed(base: u64, tenant: u16) -> u64 {
    let mut z = base ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(tenant) + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Why a serve could not run (or could not set up). Runtime defects in
/// a single tenant never surface here — those quarantine the tenant
/// and the serve completes; this type covers only conditions where no
/// meaningful run exists.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// More tenant specs than tenant ids (`u16`).
    TooManyTenants(usize),
    /// A degenerate configuration knob (zero epoch length, active
    /// limit, or shard count, or inconsistent churn knobs).
    InvalidConfig(&'static str),
    /// The warm-start state does not match the specs or policy
    /// configuration (tenant count, workload names, candidate list).
    Snapshot(SnapshotError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::TooManyTenants(n) => {
                write!(f, "{n} tenant specs exceed the u16 tenant-id space")
            }
            ServeError::InvalidConfig(why) => write!(f, "invalid serve configuration: {why}"),
            ServeError::Snapshot(e) => write!(f, "warm-start state rejected: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> Self {
        ServeError::Snapshot(e)
    }
}

/// Configuration for a serving run.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Per-session simulator configuration.
    pub sim: SimConfig,
    /// Adaptive-policy tuning (candidates, scoring, phase-shift
    /// sensitivity). A one-candidate pool serves every session on that
    /// selector forever.
    pub policy: PolicyConfig,
    /// Steps each session replays per round.
    pub epoch_len: usize,
    /// Most sessions allowed to run concurrently.
    pub max_active: usize,
    /// Bounded admission-queue capacity.
    pub queue_capacity: usize,
    /// Shards in the shared cache map.
    pub shard_count: usize,
    /// Per-shard byte budget; overflowing a shard triggers pressure
    /// eviction at the next barrier.
    pub shard_capacity: u64,
    /// Seeded tenant churn: staggered arrivals, disconnects,
    /// reconnects, crashes. Inert by default.
    pub churn: ChurnConfig,
    /// Targeted chaos injection (poison pill). Inert by default.
    pub chaos: ChaosConfig,
    /// Rounds between periodic per-tenant checkpoints (what crash
    /// recovery rewinds to); zero checkpoints only at graceful
    /// disconnects.
    pub checkpoint_every: u64,
    /// Rounds an arrival may wait deferred behind the queue before
    /// being shed (pushed back with exponential backoff); zero
    /// disables shedding.
    pub admission_timeout: u64,
    /// Reconnect cold: a reconnecting tenant resumes its stream at
    /// the checkpoint position but with an *empty* cache and fresh
    /// blacklist — the control arm for measuring what checkpointed
    /// warm reconnects are worth.
    pub reconnect_cold: bool,
    /// Content-addressed region sharing: identical regions across
    /// tenants are deduplicated through the
    /// [`RegionStore`] — each shard charges
    /// *unique* bytes against `shard_capacity` (logical per-tenant
    /// bytes stay reported), regions shard by content key instead of
    /// `(tenant, entry)`, and pressure eviction drops shared entries
    /// from every referencing tenant at once.
    pub share: bool,
    /// Rounds a quarantined tenant sits out before re-admission with
    /// a fresh cold session (one retry per tenant — a second
    /// quarantine drops it for the run). Zero keeps the original
    /// behavior: quarantine drops the tenant immediately.
    pub quarantine_penalty: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            sim: SimConfig::default(),
            policy: PolicyConfig::default(),
            epoch_len: 4096,
            max_active: 8,
            queue_capacity: 2,
            shard_count: 16,
            shard_capacity: 2048,
            churn: ChurnConfig::default(),
            chaos: ChaosConfig::default(),
            checkpoint_every: 0,
            admission_timeout: 0,
            reconnect_cold: false,
            share: false,
            quarantine_penalty: 0,
        }
    }
}

/// Serves every spec to completion on `jobs` worker threads from a
/// cold start; the result is identical for any `jobs >= 1`. See
/// [`serve_warm`] to warm-start from a snapshot.
///
/// # Errors
///
/// [`ServeError::TooManyTenants`] if `specs` holds more than
/// `u16::MAX` tenants; [`ServeError::InvalidConfig`] if the
/// configuration is degenerate (zero epoch length, active limit, or
/// shard count, or inconsistent churn knobs).
pub fn serve(
    specs: &[TenantSpec],
    config: &ServeConfig,
    jobs: usize,
) -> Result<ServeOutcome, ServeError> {
    Ok(Scheduler::new(specs, config, None)?.run(jobs))
}

/// Serves every spec on `jobs` worker threads, warm-starting from
/// `warm`: each restored tenant's policy engine resumes with the
/// snapshot's learned scores and phase, and its code cache starts
/// pre-populated with the snapshot's regions (rebuilt against the
/// live program). Tenants whose slot is `None` — rejected by the
/// lenient loader ([`load_warm_start`](crate::load_warm_start)) —
/// cold-start; the carried rejection count surfaces as
/// [`warm_rejected_tenants`](ServeReport::warm_rejected_tenants) in
/// the report. A whole [`ServeSnapshot`] warm-starts through
/// [`ServeSnapshot::into_warm_start`]. The result is identical for any
/// `jobs >= 1`.
///
/// `warm` must come from the snapshot loaders (or an outcome of a run
/// over the same specs and policy configuration) — the loaders are
/// the validation boundary that turns corrupt or mismatched snapshots
/// into typed errors.
///
/// # Errors
///
/// Everything [`serve`] returns, plus [`ServeError::Snapshot`] when
/// `warm` does not match `specs`/`config` (tenant count, workload
/// names, candidate list) — states the loaders never produce.
pub fn serve_warm(
    specs: &[TenantSpec],
    config: &ServeConfig,
    jobs: usize,
    warm: &WarmStart,
) -> Result<ServeOutcome, ServeError> {
    Ok(Scheduler::new(specs, config, Some(warm))?.run(jobs))
}

/// A tenant's last persisted state: the `RSNP` tenant section plus
/// where in the recorded stream it was cut and the tenant's lifetime
/// epoch count at that moment.
struct Checkpoint {
    snap: TenantSnapshot,
    pos: usize,
    epoch: u64,
}

/// What one active session did this round.
#[derive(Clone, Copy, Debug)]
enum Outcome {
    /// The epoch completed and produced deltas.
    Ran(EpochStats),
    /// The session panicked mid-epoch (or its lock was found
    /// poisoned) — the tenant is quarantined at the barrier.
    Crashed,
}

/// The session in a tenant's slot. Poison-tolerant: a panicking epoch
/// leaves the session at its last consistent assignment, and the
/// barrier quarantines the tenant anyway.
fn slot<'s, 'p>(cell: &'s mut Mutex<TenantSession<'p>>) -> &'s mut TenantSession<'p> {
    cell.get_mut().unwrap_or_else(PoisonError::into_inner)
}

/// Folds a torn-down session's counters into its tenant's report row,
/// and its SMC invalidations into the run's per-shard totals.
fn fold_session(s: &mut TenantSummary, session: &TenantSession<'_>, shard_smc: &mut [u64]) {
    let res = session.resilience();
    s.total_insts += session.total_insts();
    s.cache_insts += session.cache_insts();
    s.insts_selected += session.insts_selected();
    s.regions_selected += session.regions_selected();
    s.smc_events += res.smc_events;
    s.smc_invalidated += res.invalidated_regions;
    s.pressure_evicted += res.pressure_evicted_regions;
    s.reformations += res.reformations;
    s.blacklisted_targets += res.blacklisted_targets;
    s.blacklist_hits += res.blacklist_hits;
    for (s, &n) in session.smc_by_shard().iter().enumerate() {
        shard_smc[s] += n;
    }
}

/// Captures `session`'s persistent state as an `RSNP` tenant section.
fn freeze_tenant(session: &TenantSession<'_>, engine: &PolicyEngine) -> TenantSnapshot {
    TenantSnapshot {
        workload: session.workload().to_string(),
        selector: session.kind(),
        policy: engine.export(),
        regions: session.region_snapshots(),
        blacklist: session.blacklist_snapshot(),
    }
}

/// The policy engine as of `checkpoint`: restored from its policy
/// state, or fresh without one. `None` if the state does not fit
/// `policy` (a snapshot taken under another candidate list).
fn engine_at(policy: &PolicyConfig, checkpoint: Option<&Checkpoint>) -> Option<PolicyEngine> {
    match checkpoint {
        Some(c) => PolicyEngine::restore(policy.clone(), &c.snap.policy),
        None => Some(PolicyEngine::new(policy.clone())),
    }
}

/// Everything the scheduler tracks for one tenant, across all of its
/// sessions.
struct Tenant<'p> {
    spec: &'p TenantSpec,
    /// Simulator configuration carrying the tenant's own fault seed.
    sim: SimConfig,
    /// The tenant's policy (stream-derived under an adaptive base;
    /// the features it was derived from are in the summary).
    policy: PolicyConfig,
    engine: PolicyEngine,
    /// The session the tenant runs on while Active, resumes on when
    /// next admitted (opened as it left), or ended on, kept for the
    /// final report. Only the worker running the tenant's epoch locks
    /// it.
    session: Mutex<TenantSession<'p>>,
    /// Last persisted state: what a crash rewinds to and a reconnect
    /// resumes from.
    checkpoint: Option<Checkpoint>,
    /// Churn events still to come, in lifetime-epoch order.
    events: VecDeque<LifecycleEvent>,
    /// Rounds the next shed pushes the tenant back.
    backoff: u64,
    dips: DipTracker,
    /// Switch decisions a rewind (crash or quarantine retry) threw
    /// away — the log keeps them (they happened), the engine does not.
    forgotten_switches: u64,
    /// The tenant's report row, written in place: lifecycle events as
    /// they happen, and each torn-down session's counters exactly once
    /// (at teardown, or at the end for the final session), so
    /// crash-recovery re-execution counts as the work it is.
    summary: TenantSummary,
}

impl<'p> Tenant<'p> {
    /// Sets tenant `t` up: its fault seed, policy, lifecycle, engine,
    /// and first session — restored from `warm` when given, which
    /// doubles as the tenant's first checkpoint (a crash before any
    /// new checkpoint recovers to it). Also returns the round of its
    /// first arrival.
    fn new(
        t: usize,
        spec: &'p TenantSpec,
        config: &ServeConfig,
        warm: Option<&TenantSnapshot>,
    ) -> Result<(Self, u64), ServeError> {
        let id = t as u16;
        // The fault schedule is seeded from the base seed and the id,
        // so it is a property of the tenant alone. With all fault
        // rates zero the seed is never drawn.
        let mut sim = config.sim.clone();
        sim.faults.seed = tenant_fault_seed(config.sim.faults.seed, id);
        // A stream-adaptive base policy derives the tenant's candidate
        // schedule from its decoded stream shape (a pure function of
        // config and spec — the snapshot loader re-derives the same).
        let (policy, features) = derive_tenant_policy(&config.policy, spec);
        let checkpoint = warm.map(|snap| Checkpoint {
            snap: snap.clone(),
            pos: 0,
            epoch: 0,
        });
        let engine =
            engine_at(&policy, checkpoint.as_ref()).ok_or(SnapshotError::BadPolicyState(id))?;
        let session = match warm {
            Some(snap) => TenantSession::restore(id, spec, snap, &sim, config.shard_count)?,
            None => TenantSession::new(id, spec, engine.current(), &sim, config.shard_count),
        };
        // The lifecycle is generated upfront from the churn seed — a
        // pure per-tenant function, so any worker count replays the
        // same traffic.
        let horizon = spec.len().div_ceil(config.epoch_len) as u64 + 1;
        let lifecycle = TenantLifecycle::generate(&config.churn, id, horizon);
        let tenant = Tenant {
            spec,
            sim,
            policy,
            engine,
            session: Mutex::new(session),
            checkpoint,
            events: lifecycle.events.into(),
            backoff: 2,
            dips: DipTracker::default(),
            forgotten_switches: 0,
            summary: TenantSummary {
                tenant: id,
                workload: spec.name(),
                policy_features: features,
                ..TenantSummary::default()
            },
        };
        Ok((tenant, lifecycle.arrival_round))
    }

    /// Counts an epoch; its deltas otherwise feed only the policy
    /// engine and the dip tracker.
    fn fold_epoch(&mut self, e: &EpochStats) {
        self.summary.epochs += 1;
        // Epochs that executed nothing say nothing about the cache.
        if e.insts > 0 {
            self.dips.on_epoch(e.hit_rate(), e.smc_invalidated > 0);
        }
    }

    /// Checkpoints the live session where its stream stands now.
    fn checkpoint(&mut self) {
        let session = slot(&mut self.session);
        let snap = freeze_tenant(session, &self.engine);
        self.summary.checkpoints += 1;
        self.summary.checkpoint_bytes = tenant_snapshot_bytes(&snap);
        self.checkpoint = Some(Checkpoint {
            snap,
            pos: session.pos(),
            epoch: self.summary.epochs,
        });
    }

    /// Rewinds the policy engine to the checkpoint (fresh without
    /// one); the switches decided since are logged but forgotten.
    fn rewind_engine(&mut self) {
        let kept = self
            .checkpoint
            .as_ref()
            .map_or(0, |c| c.snap.policy.switches);
        self.forgotten_switches += self.engine.switches() - kept;
        self.engine = engine_at(&self.policy, self.checkpoint.as_ref())
            .unwrap_or_else(|| PolicyEngine::new(self.policy.clone()));
    }

    /// Tears the session down, folding its counters in, and opens the
    /// one the tenant resumes on when next admitted: warm from its
    /// checkpoint and resumed at the checkpoint's stream position, or
    /// cold at that position under `reconnect_cold`; cold from the top
    /// without a checkpoint.
    fn reopen(&mut self, t: usize, config: &ServeConfig, shard_smc: &mut [u64]) {
        let (id, shards) = (t as u16, config.shard_count);
        let cp = self.checkpoint.as_ref();
        // A checkpoint captured from a live session always rebuilds;
        // if it somehow does not, degrade to a cold resume rather than
        // failing the serve.
        let warm = cp
            .filter(|_| !config.reconnect_cold)
            .and_then(|cp| TenantSession::restore(id, self.spec, &cp.snap, &self.sim, shards).ok());
        let mut session = warm.unwrap_or_else(|| {
            TenantSession::new(id, self.spec, self.engine.current(), &self.sim, shards)
        });
        session.seek(cp.map_or(0, |cp| cp.pos));
        let old = std::mem::replace(slot(&mut self.session), session);
        fold_session(&mut self.summary, &old, shard_smc);
    }
}

/// Where a tenant stands in its lifecycle; [`Scheduler::transition`]
/// lists the legal moves between these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TenantState {
    /// Due to (re)arrive at round `at`. `since` is the admission-latency
    /// clock: the round it asked for service, which a shed keeps — a
    /// shed tenant's wait is honest about the whole time.
    Scheduled { at: u64, since: u64 },
    /// In the waiting line since round `joined`. A tenant behind the
    /// queue has been deferred every round since then.
    Waiting { since: u64, joined: u64 },
    /// Holds a session slot and runs an epoch every round.
    Active,
    /// Ran its whole stream.
    Finished,
    /// Taken out of rotation for good after its session panicked.
    Quarantined,
}

/// One serving run's state, advanced one round at a time (see the
/// module docs for the phase order).
struct Scheduler<'a> {
    config: &'a ServeConfig,
    warm: Option<&'a WarmStart>,
    tenants: Vec<Tenant<'a>>,
    /// Each tenant's lifecycle state; only [`Scheduler::transition`]
    /// writes it.
    states: Vec<TenantState>,
    /// The Waiting tenants, first come first served. The first
    /// `queue_capacity` are the bounded queue, the rest are deferred
    /// behind it.
    waiting: VecDeque<usize>,
    map: SharedCacheMap,
    /// Share mode: the content-addressed store dedups identical
    /// regions across tenants; absent, every tenant pays for its own
    /// copies.
    store: Option<RegionStore>,
    q: QueueStats,
    switches: Vec<SwitchRecord>,
    /// SMC invalidations per shard, folded from torn-down sessions.
    shard_smc: Vec<u64>,
    /// The chaos pill is one-shot per serve: once it fired (and the
    /// tenant was quarantined), a retried session must not re-arm it —
    /// it models a transient defect, and an eternal pill would make
    /// the retry path untestable.
    poison_spent: bool,
    round: u64,
}

impl<'a> Scheduler<'a> {
    /// Validates the configuration and sets every tenant up, restoring
    /// warm slots.
    fn new(
        specs: &'a [TenantSpec],
        config: &'a ServeConfig,
        warm: Option<&'a WarmStart>,
    ) -> Result<Self, ServeError> {
        if specs.len() > u16::MAX as usize {
            return Err(ServeError::TooManyTenants(specs.len()));
        }
        if config.epoch_len == 0 {
            return Err(ServeError::InvalidConfig("epochs must make progress"));
        }
        if config.max_active == 0 {
            return Err(ServeError::InvalidConfig(
                "need at least one active session",
            ));
        }
        if config.shard_count == 0 {
            return Err(ServeError::InvalidConfig("need at least one shard"));
        }
        config.churn.check().map_err(ServeError::InvalidConfig)?;
        if let Some(w) = warm.filter(|w| w.tenants.len() != specs.len()) {
            return Err(SnapshotError::TenantCountMismatch {
                snapshot: w.tenants.len().min(u16::MAX as usize) as u16,
                specs: specs.len(),
            }
            .into());
        }
        let mut tenants = Vec::with_capacity(specs.len());
        let mut states = Vec::with_capacity(specs.len());
        for (t, spec) in specs.iter().enumerate() {
            let warm = warm.and_then(|w| w.tenants[t].as_ref());
            let (tenant, at) = Tenant::new(t, spec, config, warm)?;
            tenants.push(tenant);
            states.push(Scheduled { at, since: at });
        }
        Ok(Scheduler {
            config,
            warm,
            tenants,
            states,
            waiting: VecDeque::new(),
            map: SharedCacheMap::new(config.shard_count, config.shard_capacity),
            store: config.share.then(|| RegionStore::new(config.shard_count)),
            q: QueueStats::default(),
            switches: Vec::new(),
            shard_smc: vec![0; config.shard_count],
            poison_spent: false,
            round: 0,
        })
    }

    /// Serves rounds until every tenant is Finished or Quarantined.
    fn run(mut self, jobs: usize) -> ServeOutcome {
        while self
            .states
            .iter()
            .any(|s| !matches!(s, Finished | Quarantined))
        {
            self.round(jobs);
        }
        self.into_outcome()
    }

    /// Moves tenant `t` to `to` — the only writer of tenant states.
    /// Entering a terminal state closes the tenant's report row.
    fn transition(&mut self, t: usize, to: TenantState) {
        let from = self.states[t];
        debug_assert!(
            matches!(
                (from, to),
                (Scheduled { .. }, Waiting { .. })
                    | (Waiting { .. }, Active | Scheduled { .. })
                    | (Active, Finished | Scheduled { .. } | Quarantined)
            ),
            "tenant {t}: illegal lifecycle transition {from:?} -> {to:?}"
        );
        if matches!(to, Finished | Quarantined) {
            let s = &mut self.tenants[t].summary;
            (s.finished_round, s.quarantined) = (self.round, to == Quarantined);
        }
        self.states[t] = to;
    }

    /// The Active tenants, in tenant order.
    fn active(&self) -> Vec<usize> {
        (0..self.states.len())
            .filter(|&t| self.states[t] == Active)
            .collect()
    }

    /// One round: arrivals, admission, the parallel epochs, then the
    /// serial barrier.
    fn round(&mut self, jobs: usize) {
        self.arrive();
        self.admit();
        let ran = self.active();
        let outcomes = self.run_epochs(&ran, jobs);
        self.map.end_round();
        if let Some(store) = self.store.as_mut() {
            store.end_round();
        }
        let deciders = self.settle(&ran, &outcomes);
        self.relieve_pressure();
        self.decide(&deciders);
        self.checkpoint_round();
        // First round at which each tenant's engine was exploiting —
        // for warm-restored engines already past exploration, that is
        // their first active round (even if they also finish in it).
        for &t in &ran {
            let tenant = &mut self.tenants[t];
            if tenant.summary.first_exploit_round.is_none() && tenant.engine.exploiting() {
                tenant.summary.first_exploit_round = Some(self.round);
            }
        }
        self.round += 1;
    }

    /// Every Scheduled tenant due by this round joins the back of the
    /// waiting line, in tenant order.
    fn arrive(&mut self) {
        for t in 0..self.states.len() {
            match self.states[t] {
                Scheduled { at: joined, since } if joined <= self.round => {
                    self.transition(t, Waiting { since, joined });
                    self.waiting.push_back(t);
                }
                _ => {}
            }
        }
    }

    /// Admits from the front of the queue up to the active limit, sheds
    /// deferred tenants past the admission timeout, and samples the
    /// queue statistics.
    fn admit(&mut self) {
        let (round, capacity) = (self.round, self.config.queue_capacity);
        let active = self.states.iter().filter(|&&s| s == Active).count();
        // Admission draws on the queue; a zero-capacity queue buffers
        // nothing, so the whole line is admitted from directly.
        let reach = if capacity == 0 { usize::MAX } else { capacity };
        let admitted = (self.config.max_active - active)
            .min(reach)
            .min(self.waiting.len());
        for t in self.waiting.drain(..admitted).collect::<Vec<_>>() {
            let Waiting { since, .. } = self.states[t] else {
                unreachable!("the waiting line holds only Waiting tenants");
            };
            self.transition(t, Active);
            let tenant = &mut self.tenants[t];
            if self.config.chaos.poison_tenant == Some(t as u16) && !self.poison_spent {
                // The pill fires at a *lifetime* epoch; a session that
                // starts mid-life arms the remainder.
                let epochs = tenant.summary.epochs;
                let remaining = self.config.chaos.poison_epoch.saturating_sub(epochs);
                slot(&mut tenant.session).poison_after(remaining);
            }
            // Reconnects and quarantine retries were counted when they
            // were booked; only a first admission records anything.
            let wait = round - since;
            let s = &mut tenant.summary;
            if !s.admitted {
                (s.admitted, s.admitted_round, s.admission_wait) = (true, round, wait);
            }
            // Every admission (first, reconnect, retry) lands one
            // sample in the log2 wait histogram.
            self.q.admission_wait_hist[wait_bucket(wait)] += 1;
            self.q.admissions += 1;
        }
        // Overload shedding: tenants deferred behind the queue past the
        // timeout go back out and retry after an exponential backoff,
        // instead of convoying forever. A tenant behind the queue has
        // been deferred every round since it joined the line.
        let timeout = self.config.admission_timeout;
        let queued = capacity.min(self.waiting.len());
        let mut i = queued;
        while let Some(&t) = self.waiting.get(i) {
            match self.states[t] {
                Waiting { since, joined } if timeout > 0 && round + 1 - joined >= timeout => {
                    self.waiting.remove(i);
                    // A shed tenant is still owed service, so its retry
                    // always arrives before the run ends: count it now.
                    self.q.shed_arrivals += 1;
                    let tenant = &mut self.tenants[t];
                    let at = round + tenant.backoff;
                    tenant.backoff = (tenant.backoff * 2).min(64);
                    self.transition(t, Scheduled { at, since });
                }
                _ => i += 1,
            }
        }
        let q = &mut self.q;
        q.peak_active = q.peak_active.max((active + admitted) as u64);
        q.peak_queue_depth = q.peak_queue_depth.max(queued as u64);
        q.queued_tenant_rounds += queued as u64;
        q.deferred_tenant_rounds += (self.waiting.len() - queued) as u64;
    }

    /// Runs one epoch of every session in `active` on up to `jobs`
    /// worker threads, inside the failure domain: a panic (e.g. a
    /// poison pill) or an already-poisoned lock yields `Crashed` for
    /// the barrier to quarantine; nothing unwinds past here, on any
    /// worker. Outcomes come back in `active` order.
    fn run_epochs(&self, active: &[usize], jobs: usize) -> Vec<Outcome> {
        let run_one = |t: usize| -> Outcome {
            let ran = catch_unwind(AssertUnwindSafe(|| {
                let mut session = self.tenants[t].session.lock().ok()?;
                let e = session.run_epoch(self.config.epoch_len);
                match &self.store {
                    Some(store) => session.publish_shared(&self.map, store),
                    None => session.publish_occupancy(&self.map),
                }
                Some(e)
            }));
            match ran {
                Ok(Some(e)) => Outcome::Ran(e),
                _ => Outcome::Crashed,
            }
        };
        if jobs <= 1 || active.len() <= 1 {
            return active.iter().map(|&t| run_one(t)).collect();
        }
        let slots: Vec<Mutex<Option<Outcome>>> = active.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..jobs.min(active.len()) {
                scope.spawn(|| {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&t) = active.get(i) else { break };
                        let o = run_one(t);
                        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(o);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .unwrap_or(Outcome::Crashed)
            })
            .collect()
    }

    /// Barrier: counts each epoch that ran, then moves every tenant
    /// that should not stay Active out — quarantined, finished, or
    /// churned. Returns the epochs the policy engines decide on, in
    /// tenant order: those of tenants still Active, plus — under a
    /// stream-adaptive policy — the final epoch of tenants that just
    /// finished (a short stream's last explore epoch is often its last
    /// epoch, and without that decision the engine would never reach
    /// exploit).
    fn settle(&mut self, ran: &[usize], outcomes: &[Outcome]) -> Vec<(usize, EpochStats)> {
        let mut deciders = Vec::with_capacity(ran.len());
        for (&t, &outcome) in ran.iter().zip(outcomes) {
            let Outcome::Ran(e) = outcome else {
                self.quarantine(t);
                continue;
            };
            let tenant = &mut self.tenants[t];
            tenant.fold_epoch(&e);
            if slot(&mut tenant.session).finished() {
                // The session is kept for the final report and
                // snapshot; only its shard bytes (and store refs) go.
                self.release(t);
                self.transition(t, Finished);
                if self.config.policy.adaptive {
                    deciders.push((t, e));
                }
                continue;
            }
            match tenant
                .events
                .front()
                .filter(|ev| ev.at_epoch <= tenant.summary.epochs)
            {
                Some(&ev) => self.depart(t, ev),
                None => deciders.push((t, e)),
            }
        }
        deciders
    }

    /// Releases a departing tenant's shard bytes and store refs.
    fn release(&mut self, t: usize) {
        self.map.clear_tenant(t as u16);
        if let Some(store) = self.store.as_mut() {
            store.release_tenant(t as u16);
        }
    }

    /// The failure domain: tenant `t`'s session panicked (or its lock
    /// was poisoned). Whatever consistent state it reached stays for
    /// the final report; the tenant leaves rotation — for good, or
    /// until its one cold retry — and everyone else keeps serving.
    fn quarantine(&mut self, t: usize) {
        self.release(t);
        if self.config.chaos.poison_tenant == Some(t as u16) {
            self.poison_spent = true;
        }
        let penalty = self.config.quarantine_penalty;
        let tenant = &mut self.tenants[t];
        tenant.session.clear_poison();
        if penalty == 0 || tenant.summary.quarantine_retries > 0 {
            self.transition(t, Quarantined);
            return;
        }
        // Retry: tear the defective session down entirely (its
        // counters fold in — the work happened), rewind the engine to
        // a fresh start, and re-admit cold after the penalty. A second
        // quarantine drops the tenant for good.
        tenant.summary.quarantine_retries += 1;
        tenant.checkpoint = None;
        tenant.rewind_engine();
        tenant.reopen(t, self.config, &mut self.shard_smc);
        let at = self.round + penalty;
        self.transition(t, Scheduled { at, since: at });
    }

    /// Applies tenant `t`'s due churn event: a graceful disconnect
    /// checkpoints where the stream was cut, a crash loses everything
    /// since the last checkpoint (re-executed after recovery). Either
    /// way the session is torn down and the tenant comes back after
    /// the event's gap.
    fn depart(&mut self, t: usize, ev: LifecycleEvent) {
        self.release(t);
        let tenant = &mut self.tenants[t];
        tenant.events.pop_front();
        match ev.kind {
            LifecycleKind::Disconnect => {
                tenant.summary.disconnects += 1;
                tenant.checkpoint();
            }
            LifecycleKind::Crash => {
                tenant.summary.crashes += 1;
                let cp_epoch = tenant.checkpoint.as_ref().map_or(0, |c| c.epoch);
                tenant.summary.recovered_epochs += tenant.summary.epochs - cp_epoch;
                tenant.rewind_engine();
            }
        }
        tenant.reopen(t, self.config, &mut self.shard_smc);
        // A departed tenant is still owed service, so it always
        // reconnects before the run ends: count the reconnect now.
        tenant.summary.reconnects += 1;
        let at = self.round + ev.gap;
        self.transition(t, Scheduled { at, since: at });
    }

    /// Barrier: resolves every overflowing shard. In share mode the
    /// budget covers *unique* bytes and the store plans each wave —
    /// evicting a shared entry drops it from every referencing tenant
    /// at once; otherwise [`Scheduler::relieve_shard`] plans it.
    fn relieve_pressure(&mut self) {
        let capacity = self.config.shard_capacity;
        let Some(store) = self.store.as_mut() else {
            for shard in self.map.overflowing() {
                self.relieve_shard(shard);
            }
            return;
        };
        for shard in store.overflowing(capacity) {
            self.map.note_wave(shard);
            // Group the doomed keys by holder tenant; each victim
            // tenant takes one eviction pass, in tenant order.
            let mut by_tenant: BTreeMap<u16, Vec<u64>> = BTreeMap::new();
            for (key, entry) in &store.plan_wave(shard, capacity) {
                for &holder in &entry.holders {
                    by_tenant.entry(holder).or_default().push(*key);
                }
            }
            for (t, keys) in by_tenant {
                let (evicted, left) =
                    slot(&mut self.tenants[t as usize].session).evict_shared(shard, &keys);
                self.map.note_shed(shard, evicted);
                self.map.set_load(shard, t, left);
            }
        }
        store.check_invariants();
        debug_check_consistency(store, &mut self.map);
    }

    /// The pressure planner for one overflowing unshared shard: the
    /// resident with the most bytes in the shard (lowest tenant id on
    /// ties) sheds the first half of its remaining regions there, in
    /// selection order, repeatedly, until the shard fits. The whole victim set is planned before anything
    /// is evicted, then applied with one eviction pass per victim
    /// tenant: the repeated cache rebuilds of per-batch eviction were
    /// quadratic in the region count.
    fn relieve_shard(&mut self, shard: usize) {
        self.map.note_wave(shard);
        // The shard's residents `(tenant, bytes)`, ascending tenant
        // order.
        let mut load = self.map.shard_load(shard);
        // Per-victim surviving regions (fetched lazily; only victims
        // pay the scan) and planned evictions.
        let mut remaining: BTreeMap<u16, VecDeque<(RegionId, u64)>> = BTreeMap::new();
        let mut doomed: BTreeMap<u16, Vec<RegionId>> = BTreeMap::new();
        while load.iter().map(|l| l.1).sum::<u64>() > self.map.capacity() {
            // Ties go to the lowest tenant id (the vec is ascending).
            let victim = (0..load.len()).fold(0, |v, i| if load[i].1 > load[v].1 { i } else { v });
            let (tv, bytes) = load[victim];
            if bytes == 0 {
                break; // nothing shedable is left in this shard
            }
            let regs = remaining.entry(tv).or_insert_with(|| {
                slot(&mut self.tenants[tv as usize].session)
                    .shard_regions(shard)
                    .into()
            });
            let plan = doomed.entry(tv).or_default();
            if regs.is_empty() {
                // The map says the tenant holds bytes here but no live
                // region backs them; zero the entry so the wave cannot
                // spin on it.
                load[victim] = (tv, 0);
                self.map.note_shed(shard, 0);
                break;
            }
            let count = regs.len().div_ceil(2);
            plan.extend(regs.drain(..count).map(|r| r.0));
            self.map.note_shed(shard, count as u64);
            load[victim].1 = regs.iter().map(|r| r.1).sum();
        }
        // Apply the plan, one eviction pass per victim tenant, and
        // publish what each victim has left.
        for (t, bytes) in load {
            let Some(ids) = doomed.get(&t) else { continue };
            if !ids.is_empty() {
                slot(&mut self.tenants[t as usize].session).evict_planned(shard, ids, bytes);
            }
            self.map.set_load(shard, t, bytes);
        }
    }

    /// Barrier: feeds each decider's epoch to its policy engine, in
    /// tenant order, and applies (and logs) the switches it decides.
    fn decide(&mut self, deciders: &[(usize, EpochStats)]) {
        for &(t, e) in deciders {
            let tenant = &mut self.tenants[t];
            let Some((kind, reason)) = tenant.engine.on_epoch(&e) else {
                continue;
            };
            let session = slot(&mut tenant.session);
            self.switches.push(SwitchRecord {
                tenant: t as u16,
                workload: session.workload(),
                epoch: tenant.summary.epochs,
                from: session.kind(),
                to: kind,
                reason,
            });
            session.switch_selector(kind, &tenant.sim);
        }
    }

    /// Barrier: periodic checkpoints — what crash recovery rewinds to.
    /// Taken after policy decisions so a checkpoint never resurrects a
    /// selector the engine just abandoned.
    fn checkpoint_round(&mut self) {
        let every = self.config.checkpoint_every;
        if every > 0 && (self.round + 1).is_multiple_of(every) {
            for t in self.active() {
                self.tenants[t].checkpoint();
            }
        }
    }

    /// Assembles the deterministic reports and the final snapshot.
    fn into_outcome(mut self) -> ServeOutcome {
        let config = self.config;
        self.q.rounds = self.round;
        let mut tenants = Vec::with_capacity(self.tenants.len());
        let mut run_reports = Vec::with_capacity(self.tenants.len());
        let mut snapshot_tenants = Vec::with_capacity(self.tenants.len());
        for (t, tenant) in self.tenants.iter_mut().enumerate() {
            let id = t as u16;
            // Sessions are freed with the scheduler, after every report
            // is built: freeing each one as soon as its report was done
            // interleaved large frees with the reports' allocations and
            // doubled the page faults of the next serve in the process.
            let session = slot(&mut tenant.session);
            fold_session(&mut tenant.summary, session, &mut self.shard_smc);
            // The engine is the authority on its own switch count; the
            // global log (plus any decisions a rewind forgot) must
            // agree with it.
            debug_assert_eq!(
                tenant.engine.switches() + tenant.forgotten_switches,
                self.switches.iter().filter(|s| s.tenant == id).count() as u64
                    + self
                        .warm
                        .and_then(|w| w.tenants[t].as_ref())
                        .map_or(0, |ts| ts.policy.switches),
                "engine switch count drifted from the switch log"
            );
            // The row is complete but for what only the end knows.
            let dip = std::mem::take(&mut tenant.dips).finish();
            let mut summary = std::mem::take(&mut tenant.summary);
            summary.final_selector = session.kind().name();
            summary.switches = tenant.engine.switches() + tenant.forgotten_switches;
            summary.smc_dips = dip.dips;
            summary.max_dip_depth = dip.max_depth;
            summary.max_dip_recovery_epochs = dip.max_recovery_epochs;
            tenants.push(summary);
            run_reports.push(session.report());
            snapshot_tenants.push(freeze_tenant(session, &tenant.engine));
        }
        let total_insts = tenants.iter().map(|t| t.total_insts).sum();
        let store_totals = self.store.as_ref().map(|s| s.totals()).unwrap_or_default();
        let store_stats: Vec<StoreShardStats> = match self.store {
            Some(s) => s.into_stats(),
            None => vec![StoreShardStats::default(); config.shard_count],
        };
        let shards = self
            .map
            .into_stats()
            .into_iter()
            .enumerate()
            .map(|(i, (s, final_bytes))| ShardReport {
                shard: i,
                peak_bytes: s.peak_bytes,
                contended_rounds: s.contended_rounds,
                pressure_waves: s.pressure_waves,
                shed_actions: s.shed_actions,
                evicted_regions: s.evicted_regions,
                smc_invalidated: self.shard_smc[i],
                final_bytes,
                unique_bytes: store_stats[i].peak_unique_bytes,
                logical_bytes: store_stats[i].peak_logical_bytes,
                shared_refs: store_stats[i].peak_shared_refs,
            })
            .collect();

        ServeOutcome {
            report: ServeReport {
                epoch_len: config.epoch_len,
                shard_count: config.shard_count,
                shard_capacity: config.shard_capacity,
                max_active: config.max_active,
                queue_capacity: config.queue_capacity,
                warm_started: self.warm.is_some(),
                warm_regions_restored: self.warm.map_or(0, WarmStart::region_count),
                warm_rejected_tenants: self.warm.map_or(0, |w| w.rejected),
                smc_write_ppm: config.sim.faults.smc_write_ppm,
                fault_seed: config.sim.faults.seed,
                flush_wave_ppm: config.sim.faults.flush_wave_ppm,
                counter_fault_ppm: config.sim.faults.counter_fault_ppm,
                churn_active: config.churn.active(),
                churn_seed: config.churn.seed,
                checkpoint_every: config.checkpoint_every,
                share_active: config.share,
                unique_bytes: store_totals.unique_bytes,
                logical_bytes: store_totals.logical_bytes,
                shared_refs: store_totals.shared_refs,
                queue: self.q,
                tenants,
                shards,
                switches: self.switches,
                total_insts,
                insts_per_sec: None,
            },
            run_reports,
            snapshot: ServeSnapshot {
                tenants: snapshot_tenants,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsel_workloads::{Scale, suite};

    fn two_specs() -> Vec<TenantSpec> {
        suite()
            .iter()
            .take(2)
            .map(|w| TenantSpec::record(w, 7, Scale::Test))
            .collect()
    }

    fn churn_config() -> ServeConfig {
        ServeConfig {
            churn: ChurnConfig {
                seed: 5,
                arrival_spread: 3,
                max_disconnects: 2,
                max_gap: 2,
                crash_percent: 50,
            },
            checkpoint_every: 2,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn serves_everything_to_completion() {
        let specs = two_specs();
        let out = serve(&specs, &ServeConfig::default(), 1).unwrap();
        assert_eq!(out.report.tenants.len(), 2);
        assert_eq!(out.run_reports.len(), 2);
        for (t, rep) in out.report.tenants.iter().zip(&out.run_reports) {
            assert!(t.total_insts > 0);
            assert_eq!(t.total_insts, rep.total_insts);
            assert_eq!(t.cache_insts, rep.cache_insts);
        }
        let sum: u64 = out.report.tenants.iter().map(|t| t.total_insts).sum();
        assert_eq!(out.report.total_insts, sum);
        assert!(out.report.insts_per_round() > 0.0);
    }

    #[test]
    fn unchurned_summaries_match_their_run_reports() {
        // Without churn every tenant runs one session from the top, so
        // its summary's session counters must equal that session's run
        // report — under pressure eviction and SMC kills alike.
        let specs: Vec<TenantSpec> = suite()
            .iter()
            .take(6)
            .map(|w| TenantSpec::record(w, 7, Scale::Test))
            .collect();
        let mut config = ServeConfig {
            shard_capacity: 512,
            ..ServeConfig::default()
        };
        config.sim.faults.seed = 2005;
        config.sim.faults.smc_write_ppm = 200;
        config.sim.faults.flush_wave_ppm = 50;
        let out = serve(&specs, &config, 2).unwrap();
        for (t, rep) in out.report.tenants.iter().zip(&out.run_reports) {
            let res = &rep.resilience;
            let copied: u64 = rep.regions.iter().map(|r| r.insts_copied).sum();
            assert_eq!(
                (t.total_insts, t.cache_insts),
                (rep.total_insts, rep.cache_insts),
                "tenant {}",
                t.tenant
            );
            assert_eq!(
                (t.regions_selected, t.insts_selected),
                (rep.regions.len() as u64, copied),
                "tenant {}",
                t.tenant
            );
            assert_eq!(
                [
                    t.smc_events,
                    t.smc_invalidated,
                    t.pressure_evicted,
                    t.reformations,
                    t.blacklisted_targets,
                    t.blacklist_hits,
                ],
                [
                    res.smc_events,
                    res.invalidated_regions,
                    res.pressure_evicted_regions,
                    res.reformations,
                    res.blacklisted_targets,
                    res.blacklist_hits,
                ],
                "tenant {}",
                t.tenant
            );
        }
        let evicted: u64 = out.report.tenants.iter().map(|t| t.pressure_evicted).sum();
        assert!(evicted > 0, "the 512-byte shards must overflow");
        assert!(out.report.smc_invalidated_regions() > 0, "SMC must kill");
    }

    #[test]
    fn bounded_queue_exerts_backpressure() {
        let specs: Vec<TenantSpec> = suite()
            .iter()
            .take(6)
            .map(|w| TenantSpec::record(w, 7, Scale::Test))
            .collect();
        let config = ServeConfig {
            max_active: 2,
            queue_capacity: 1,
            ..ServeConfig::default()
        };
        let out = serve(&specs, &config, 2).unwrap();
        let q = &out.report.queue;
        assert_eq!(q.admissions, 6, "everyone is eventually admitted");
        assert_eq!(q.peak_active, 2);
        assert_eq!(q.peak_queue_depth, 1);
        assert!(q.deferred_tenant_rounds > 0, "arrivals piled up: {q:?}");
        assert_eq!(q.shed_arrivals, 0, "no timeout, no shedding");
        // Later tenants were admitted later.
        let rounds: Vec<u64> = out
            .report
            .tenants
            .iter()
            .map(|t| t.admitted_round)
            .collect();
        assert!(rounds.windows(2).all(|w| w[0] <= w[1]), "{rounds:?}");
        assert!(rounds[5] > rounds[0]);
    }

    #[test]
    fn static_mode_never_switches() {
        // Static serving is a one-candidate pool: the engine scores its
        // only selector and settles on it.
        let specs = two_specs();
        let config = ServeConfig {
            policy: PolicyConfig {
                candidates: vec![rsel_core::select::SelectorKind::Net],
                ..PolicyConfig::default()
            },
            ..ServeConfig::default()
        };
        let out = serve(&specs, &config, 1).unwrap();
        assert!(out.report.switches.is_empty());
        for t in &out.report.tenants {
            assert_eq!(t.final_selector, "NET");
            assert_eq!(t.switches, 0);
        }
    }

    #[test]
    fn degenerate_configs_are_typed_errors() {
        let specs = two_specs();
        let config = ServeConfig {
            epoch_len: 0,
            ..ServeConfig::default()
        };
        let err = serve(&specs, &config, 1).unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
        let config = ServeConfig {
            churn: ChurnConfig {
                crash_percent: 101,
                ..ChurnConfig::default()
            },
            ..ServeConfig::default()
        };
        let err = serve(&specs, &config, 1).unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn zero_capacity_queue_terminates_and_admits_everyone() {
        // Regression: queue_capacity = 0 used to livelock — nothing
        // could ever enter a queue that holds zero tenants, so the
        // admission loop spun forever with everybody pending.
        let specs: Vec<TenantSpec> = suite()
            .iter()
            .take(4)
            .map(|w| TenantSpec::record(w, 7, Scale::Test))
            .collect();
        let config = ServeConfig {
            max_active: 2,
            queue_capacity: 0,
            ..ServeConfig::default()
        };
        let out = serve(&specs, &config, 2).unwrap();
        let q = &out.report.queue;
        assert_eq!(q.admissions, 4, "everyone is admitted directly");
        assert_eq!(q.peak_active, 2);
        assert_eq!(q.peak_queue_depth, 0, "nothing is ever buffered");
        assert_eq!(q.queued_tenant_rounds, 0);
        assert!(q.deferred_tenant_rounds > 0, "arrivals still wait: {q:?}");
        for t in &out.report.tenants {
            assert!(t.total_insts > 0, "every tenant ran to completion");
        }
    }

    #[test]
    fn summary_switches_agree_with_the_switch_log() {
        let specs = two_specs();
        let out = serve(&specs, &ServeConfig::default(), 1).unwrap();
        for t in &out.report.tenants {
            let logged = out
                .report
                .switches
                .iter()
                .filter(|s| s.tenant == t.tenant)
                .count() as u64;
            assert_eq!(t.switches, logged, "tenant {}", t.tenant);
        }
    }

    #[test]
    fn warm_start_runs_from_the_snapshot() {
        let specs = two_specs();
        let config = ServeConfig::default();
        let cold = serve(&specs, &config, 1).unwrap();
        let warm =
            serve_warm(&specs, &config, 1, &cold.snapshot.clone().into_warm_start()).unwrap();
        assert!(warm.report.warm_started);
        assert!(!cold.report.warm_started);
        assert_eq!(cold.report.warm_regions_restored, 0);
        assert_eq!(
            warm.report.warm_regions_restored,
            cold.snapshot.region_count()
        );
        // The warm run replays the same streams, so totals agree even
        // though the cache starts hot.
        assert_eq!(cold.report.total_insts, warm.report.total_insts);
        for (c, w) in cold.report.tenants.iter().zip(&warm.report.tenants) {
            assert!(w.switches >= c.switches, "switch count carries over");
        }
    }

    #[test]
    fn tenant_fault_seeds_are_distinct_and_stable() {
        let a = tenant_fault_seed(7, 0);
        let b = tenant_fault_seed(7, 1);
        let c = tenant_fault_seed(8, 0);
        assert_ne!(a, b, "tenants get distinct schedules");
        assert_ne!(a, c, "the base seed matters");
        assert_eq!(a, tenant_fault_seed(7, 0), "pure function of its inputs");
    }

    fn smc_config() -> ServeConfig {
        let mut config = ServeConfig::default();
        config.sim.faults.seed = 42;
        config.sim.faults.smc_write_ppm = 4_000;
        config
    }

    #[test]
    fn smc_serving_is_identical_for_every_worker_count() {
        let specs: Vec<TenantSpec> = suite()
            .iter()
            .take(4)
            .map(|w| TenantSpec::record(w, 7, Scale::Test))
            .collect();
        let config = smc_config();
        let one = serve(&specs, &config, 1).unwrap();
        let eight = serve(&specs, &config, 8).unwrap();
        assert_eq!(one.report, eight.report);
        assert_eq!(one.run_reports, eight.run_reports);
        assert_eq!(one.snapshot, eight.snapshot);
        assert!(
            one.report.smc_invalidated_regions() > 0,
            "this rate must strike over the test streams: {:?}",
            one.report.tenants
        );
        assert_eq!(one.report.smc_write_ppm, 4_000);
        assert_eq!(one.report.fault_seed, 42);
        // Shard attribution conserves the per-tenant counts.
        let by_shard: u64 = one.report.shards.iter().map(|s| s.smc_invalidated).sum();
        assert_eq!(by_shard, one.report.smc_invalidated_regions());
    }

    #[test]
    fn flush_and_counter_faults_serve_identically_for_every_worker_count() {
        // The flush-wave and counter-fault scenarios, measured the way
        // the SMC one is: per-tenant seeded schedules, worker-count
        // identity, and the configured rates echoed in the report.
        let specs = two_specs();
        let mut config = ServeConfig::default();
        config.sim.faults.seed = 2005;
        config.sim.faults.flush_wave_ppm = 2_000;
        config.sim.faults.counter_fault_ppm = 2_000;
        let one = serve(&specs, &config, 1).unwrap();
        let eight = serve(&specs, &config, 8).unwrap();
        assert_eq!(one.report, eight.report);
        assert_eq!(one.run_reports, eight.run_reports);
        assert_eq!(one.snapshot, eight.snapshot);
        assert_eq!(one.report.flush_wave_ppm, 2_000);
        assert_eq!(one.report.counter_fault_ppm, 2_000);
        let waves: u64 = one
            .run_reports
            .iter()
            .map(|r| r.resilience.flush_waves)
            .sum();
        assert!(waves > 0, "flush waves must strike at this rate");
        let ctr: u64 = one
            .run_reports
            .iter()
            .map(|r| r.resilience.counter_faults)
            .sum();
        assert!(ctr > 0, "counter faults must strike at this rate");
    }

    #[test]
    fn smc_snapshot_round_trips_the_blacklist() {
        let specs = two_specs();
        let mut config = smc_config();
        config.sim.faults.smc_write_ppm = 50_000; // hammer the cache
        config.sim.faults.blacklist_after = 2;
        let cold = serve(&specs, &config, 1).unwrap();
        assert!(
            cold.report.blacklisted_targets() > 0,
            "this rate must demote something: {:?}",
            cold.report.tenants
        );
        assert!(
            cold.snapshot
                .tenants
                .iter()
                .any(|t| !t.blacklist.is_empty()),
            "demotions persist in the snapshot"
        );
        let warm =
            serve_warm(&specs, &config, 2, &cold.snapshot.clone().into_warm_start()).unwrap();
        assert!(warm.report.warm_started);
        assert_eq!(warm.report.warm_rejected_tenants, 0);
    }

    #[test]
    fn serve_warm_cold_starts_rejected_slots() {
        let specs = two_specs();
        let config = ServeConfig::default();
        let cold = serve(&specs, &config, 1).unwrap();
        let mut warm = cold.snapshot.clone().into_warm_start();
        warm.tenants[1] = None; // as if the lenient loader rejected it
        warm.rejected = 1;
        let out = serve_warm(&specs, &config, 1, &warm).unwrap();
        assert!(out.report.warm_started);
        assert_eq!(out.report.warm_rejected_tenants, 1);
        assert_eq!(
            out.report.warm_regions_restored,
            cold.snapshot.tenants[0].regions.len() as u64,
            "only the surviving slot restores"
        );
        // The rejected tenant replays the same stream from cold, so
        // totals still match the cold run.
        assert_eq!(out.report.total_insts, cold.report.total_insts);
        // A fully rejected warm start is just a cold run that says so.
        let none = serve_warm(
            &specs,
            &config,
            1,
            &WarmStart {
                tenants: vec![None, None],
                rejected: 2,
            },
        )
        .unwrap();
        assert_eq!(none.report.warm_rejected_tenants, 2);
        assert_eq!(none.report.warm_regions_restored, 0);
        assert_eq!(none.report.total_insts, cold.report.total_insts);
    }

    #[test]
    fn mismatched_snapshot_is_a_typed_error() {
        let specs = two_specs();
        let config = ServeConfig::default();
        let cold = serve(&specs, &config, 1).unwrap();
        let mut snap = cold.snapshot;
        snap.tenants.pop();
        let err = serve_warm(&specs, &config, 1, &snap.clone().into_warm_start()).unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::Snapshot(SnapshotError::TenantCountMismatch { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn churned_serving_completes_and_is_identical_for_every_worker_count() {
        let specs: Vec<TenantSpec> = suite()
            .iter()
            .take(4)
            .map(|w| TenantSpec::record(w, 7, Scale::Test))
            .collect();
        let config = churn_config();
        let one = serve(&specs, &config, 1).unwrap();
        let eight = serve(&specs, &config, 8).unwrap();
        assert_eq!(one.report, eight.report);
        assert_eq!(one.run_reports, eight.run_reports);
        assert_eq!(one.snapshot, eight.snapshot);
        assert!(one.report.churn_active);
        assert!(
            one.report.disconnects() + one.report.crashes() > 0,
            "this schedule must churn somebody: {:?}",
            one.report.tenants
        );
        assert_eq!(
            one.report.reconnects(),
            one.report.disconnects() + one.report.crashes(),
            "every departed tenant came back"
        );
        assert_eq!(one.report.quarantined_tenants(), 0, "clean path");
        // Everyone still finishes their whole workload; crash recovery
        // re-executes work, so totals can only grow versus a calm run.
        let calm = serve(&specs, &ServeConfig::default(), 1).unwrap();
        for (churned, base) in one.report.tenants.iter().zip(&calm.report.tenants) {
            assert!(!churned.quarantined);
            assert!(
                churned.total_insts >= base.total_insts,
                "tenant {} lost work: {} < {}",
                churned.tenant,
                churned.total_insts,
                base.total_insts
            );
        }
    }

    #[test]
    fn crash_recovery_resumes_from_the_last_checkpoint() {
        let specs = two_specs();
        let config = ServeConfig {
            churn: ChurnConfig {
                seed: 11,
                arrival_spread: 0,
                max_disconnects: 0,
                max_gap: 1,
                crash_percent: 100,
            },
            checkpoint_every: 2,
            ..ServeConfig::default()
        };
        let out = serve(&specs, &config, 2).unwrap();
        assert_eq!(out.report.crashes(), 2, "every tenant crashes once");
        assert!(out.report.checkpoints_taken() > 0);
        assert!(out.report.checkpoint_bytes() > 0);
        assert_eq!(out.report.quarantined_tenants(), 0);
        // Recovered tenants finish their workloads: lifetime totals
        // cover at least the whole stream (re-execution can only add).
        let calm = serve(&specs, &ServeConfig::default(), 1).unwrap();
        for (crashed, base) in out.report.tenants.iter().zip(&calm.report.tenants) {
            assert!(crashed.total_insts >= base.total_insts);
            assert_eq!(crashed.crashes, 1);
            assert_eq!(crashed.reconnects, 1);
        }
    }

    #[test]
    fn warm_churned_serving_is_identical_for_every_worker_count() {
        let specs = two_specs();
        let calm = serve(&specs, &ServeConfig::default(), 1).unwrap();
        let config = churn_config();
        let warm = calm.snapshot.clone().into_warm_start();
        let one = serve_warm(&specs, &config, 1, &warm).unwrap();
        let eight = serve_warm(&specs, &config, 8, &warm).unwrap();
        assert_eq!(one.report, eight.report);
        assert_eq!(one.run_reports, eight.run_reports);
        assert_eq!(one.snapshot, eight.snapshot);
        assert!(one.report.warm_started && one.report.churn_active);
    }

    #[test]
    fn poison_pill_quarantines_exactly_one_tenant() {
        let specs: Vec<TenantSpec> = suite()
            .iter()
            .take(3)
            .map(|w| TenantSpec::record(w, 7, Scale::Test))
            .collect();
        let config = ServeConfig {
            chaos: ChaosConfig {
                poison_tenant: Some(1),
                poison_epoch: 2,
            },
            ..ServeConfig::default()
        };
        let one = serve(&specs, &config, 1).unwrap();
        let eight = serve(&specs, &config, 8).unwrap();
        assert_eq!(one.report, eight.report, "quarantine is deterministic");
        assert_eq!(one.run_reports, eight.run_reports);
        assert_eq!(one.snapshot, eight.snapshot);
        assert_eq!(one.report.quarantined_tenants(), 1);
        assert!(one.report.tenants[1].quarantined);
        assert_eq!(one.report.tenants[1].epochs, 2, "died entering epoch 2");
        // The failure domain held: everyone else finished their full
        // workload exactly as on the clean path.
        let calm = serve(&specs, &ServeConfig::default(), 1).unwrap();
        for t in [0usize, 2] {
            assert!(!one.report.tenants[t].quarantined);
            assert_eq!(
                one.report.tenants[t].total_insts, calm.report.tenants[t].total_insts,
                "tenant {t} unaffected by the quarantine"
            );
        }
    }

    #[test]
    fn quarantine_retry_readmits_once_with_a_fresh_session() {
        let specs: Vec<TenantSpec> = suite()
            .iter()
            .take(3)
            .map(|w| TenantSpec::record(w, 7, Scale::Test))
            .collect();
        let config = ServeConfig {
            chaos: ChaosConfig {
                poison_tenant: Some(1),
                poison_epoch: 2,
            },
            quarantine_penalty: 3,
            ..ServeConfig::default()
        };
        let one = serve(&specs, &config, 1).unwrap();
        let eight = serve(&specs, &config, 8).unwrap();
        assert_eq!(one.report, eight.report, "retry is deterministic");
        assert_eq!(one.run_reports, eight.run_reports);
        assert_eq!(one.snapshot, eight.snapshot);
        // The pill fired once, the tenant sat out the penalty, came
        // back cold, and this time (the pill is spent) finished.
        assert_eq!(one.report.quarantine_retries(), 1);
        assert_eq!(one.report.tenants[1].quarantine_retries, 1);
        assert_eq!(one.report.quarantined_tenants(), 0, "the retry saved it");
        let calm = serve(&specs, &ServeConfig::default(), 1).unwrap();
        assert!(
            one.report.tenants[1].total_insts >= calm.report.tenants[1].total_insts,
            "the fresh session replays the whole workload"
        );
        for t in [0usize, 2] {
            assert_eq!(
                one.report.tenants[t].total_insts, calm.report.tenants[t].total_insts,
                "tenant {t} unaffected by the retry"
            );
        }
    }

    #[test]
    fn zero_penalty_keeps_quarantine_permanent() {
        let specs = two_specs();
        let config = ServeConfig {
            chaos: ChaosConfig {
                poison_tenant: Some(0),
                poison_epoch: 1,
            },
            ..ServeConfig::default()
        };
        let out = serve(&specs, &config, 1).unwrap();
        assert_eq!(out.report.quarantined_tenants(), 1);
        assert_eq!(out.report.quarantine_retries(), 0);
    }

    #[test]
    fn admission_wait_histogram_accounts_every_admission() {
        let specs: Vec<TenantSpec> = suite()
            .iter()
            .take(6)
            .map(|w| TenantSpec::record(w, 7, Scale::Test))
            .collect();
        let config = ServeConfig {
            max_active: 2,
            queue_capacity: 1,
            ..ServeConfig::default()
        };
        let out = serve(&specs, &config, 1).unwrap();
        let q = &out.report.queue;
        assert_eq!(
            q.admission_wait_hist.iter().sum::<u64>(),
            q.admissions,
            "one histogram sample per admission"
        );
        assert!(q.admission_wait_hist[0] > 0, "someone got in immediately");
        assert!(
            q.admission_wait_hist[1..].iter().sum::<u64>() > 0,
            "the bounded queue made someone wait: {:?}",
            q.admission_wait_hist
        );
        // With no churn everyone arrives at round zero, so each
        // tenant's wait is exactly its admission round.
        for t in &out.report.tenants {
            assert_eq!(t.admission_wait, t.admitted_round);
        }
        assert!(out.report.mean_admission_wait() > 0.0);
    }

    #[test]
    fn shared_serving_dedups_identical_tenants() {
        // Four replicas of two workloads: the store should hold one
        // copy of each workload's regions while eight tenants run.
        let specs = TenantSpec::replicate(two_specs(), 4);
        let config = ServeConfig {
            share: true,
            ..ServeConfig::default()
        };
        let one = serve(&specs, &config, 1).unwrap();
        let eight = serve(&specs, &config, 8).unwrap();
        assert_eq!(one.report, eight.report, "share mode is deterministic");
        assert_eq!(one.run_reports, eight.run_reports);
        assert_eq!(one.snapshot, eight.snapshot);
        assert!(one.report.share_active);
        assert!(one.report.unique_bytes > 0);
        assert!(one.report.shared_refs > 0, "replicas shared entries");
        assert!(
            one.report.dedup_ratio() > 1.5,
            "homogeneous tenants must dedup: {}",
            one.report.dedup_ratio()
        );
        // The dedup payoff: unique bytes stay near the 1-replica run
        // instead of scaling with the tenant count.
        let base = serve(&two_specs(), &config, 1).unwrap();
        assert!(
            one.report.unique_bytes <= 2 * base.report.unique_bytes,
            "unique bytes scaled with replicas: {} vs {}",
            one.report.unique_bytes,
            base.report.unique_bytes
        );
        // Per-shard stats are populated and consistent.
        for s in &one.report.shards {
            assert!(s.unique_bytes <= s.logical_bytes);
        }
    }

    #[test]
    fn share_mode_does_not_change_any_tenants_execution() {
        // Parity: with capacity high enough that pressure never fires,
        // sharing is pure accounting — every tenant's run report and
        // snapshot must be byte-identical to the unshared serve.
        let specs = two_specs();
        let off_cfg = ServeConfig {
            shard_capacity: u64::MAX,
            ..ServeConfig::default()
        };
        let on_cfg = ServeConfig {
            share: true,
            shard_capacity: u64::MAX,
            ..ServeConfig::default()
        };
        let off = serve(&specs, &off_cfg, 1).unwrap();
        let on = serve(&specs, &on_cfg, 1).unwrap();
        assert_eq!(off.run_reports, on.run_reports);
        assert_eq!(off.snapshot, on.snapshot);
        assert_eq!(off.report.total_insts, on.report.total_insts);
        assert!(!off.report.share_active && on.report.share_active);
        assert_eq!(off.report.unique_bytes, 0, "store inert with sharing off");
    }

    #[test]
    fn shared_snapshot_warm_starts_and_rededups() {
        // Snapshots store per-tenant regions (RSNP unchanged); a warm
        // start into share mode re-dedups them on load.
        let specs = TenantSpec::replicate(two_specs(), 2);
        let config = ServeConfig {
            share: true,
            ..ServeConfig::default()
        };
        let cold = serve(&specs, &config, 1).unwrap();
        let warm = cold.snapshot.clone().into_warm_start();
        let warm1 = serve_warm(&specs, &config, 1, &warm).unwrap();
        let warm8 = serve_warm(&specs, &config, 8, &warm).unwrap();
        assert_eq!(warm1.report, warm8.report);
        assert_eq!(warm1.run_reports, warm8.run_reports);
        assert_eq!(warm1.snapshot, warm8.snapshot);
        assert!(warm1.report.warm_started);
        assert!(warm1.report.unique_bytes > 0);
        assert!(
            warm1.report.dedup_ratio() > 1.0,
            "restored replicas re-dedup: {}",
            warm1.report.dedup_ratio()
        );
    }

    #[test]
    fn overload_sheds_arrivals_and_still_serves_everyone() {
        let specs: Vec<TenantSpec> = suite()
            .iter()
            .take(6)
            .map(|w| TenantSpec::record(w, 7, Scale::Test))
            .collect();
        let config = ServeConfig {
            max_active: 1,
            queue_capacity: 1,
            admission_timeout: 2,
            ..ServeConfig::default()
        };
        let one = serve(&specs, &config, 1).unwrap();
        let four = serve(&specs, &config, 4).unwrap();
        assert_eq!(one.report, four.report);
        let q = &one.report.queue;
        assert!(q.shed_arrivals > 0, "sustained pressure must shed: {q:?}");
        for t in &one.report.tenants {
            assert!(t.total_insts > 0, "tenant {} was starved", t.tenant);
        }
    }

    /// A config whose shards overflow constantly, so pressure waves
    /// fire on every path the eviction policy touches.
    fn pressured_config() -> ServeConfig {
        ServeConfig {
            shard_count: 4,
            shard_capacity: 384,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn pressure_eviction_fires_and_stays_deterministic() {
        let specs: Vec<TenantSpec> = suite()
            .iter()
            .take(8)
            .map(|w| TenantSpec::record(w, 7, Scale::Test))
            .collect();
        let one = serve(&specs, &pressured_config(), 1).unwrap();
        let eight = serve(&specs, &pressured_config(), 8).unwrap();
        assert_eq!(one.report, eight.report, "pressure eviction is 1-vs-8 safe");
        assert_eq!(one.run_reports, eight.run_reports);
        assert_eq!(one.snapshot, eight.snapshot);
        assert!(
            one.report.shed_actions() > 0,
            "the squeeze must actually squeeze"
        );
        let evicted: u64 = one.report.tenants.iter().map(|t| t.pressure_evicted).sum();
        assert!(evicted > 0, "pressure fired but evicted nothing");
    }

    #[test]
    fn pressure_eviction_composes_with_the_shared_store() {
        let specs = TenantSpec::replicate(two_specs(), 3);
        let config = ServeConfig {
            share: true,
            ..pressured_config()
        };
        let one = serve(&specs, &config, 1).unwrap();
        let eight = serve(&specs, &config, 8).unwrap();
        assert_eq!(one.report, eight.report);
        assert_eq!(one.run_reports, eight.run_reports);
        assert_eq!(one.snapshot, eight.snapshot);
        assert!(one.report.shed_actions() > 0, "shared shards overflowed");
    }

    #[test]
    fn stream_adaptive_policy_leaves_no_tenant_unexploited() {
        // The whole suite, stream lengths from one epoch up: every
        // tenant's schedule must be sized so its engine reaches the
        // exploit phase before its stream runs out.
        let specs: Vec<TenantSpec> = suite()
            .iter()
            .map(|w| TenantSpec::record(w, 7, Scale::Test))
            .collect();
        let config = ServeConfig {
            policy: PolicyConfig {
                adaptive: true,
                ..PolicyConfig::default()
            },
            ..ServeConfig::default()
        };
        let out = serve(&specs, &config, 2).unwrap();
        assert_eq!(out.report.never_exploited(), 0, "{:#?}", {
            let stuck: Vec<_> = out
                .report
                .tenants
                .iter()
                .filter(|t| t.first_exploit_round.is_none())
                .map(|t| (t.tenant, t.workload, t.epochs))
                .collect();
            stuck
        });
        for t in &out.report.tenants {
            let f = t.policy_features.expect("adaptive derivation ran");
            assert!(f.explore_len >= 1);
            assert_eq!(
                u64::from(f.explore_len),
                f.expected_epochs.div_ceil(2).clamp(1, 4),
                "tenant {} explore budget drifted from its stream shape",
                t.tenant
            );
        }
    }

    #[test]
    fn extended_pool_serves_identically_on_any_worker_count() {
        let specs: Vec<TenantSpec> = suite()
            .iter()
            .take(6)
            .map(|w| TenantSpec::record(w, 7, Scale::Test))
            .collect();
        let config = ServeConfig {
            policy: PolicyConfig {
                adaptive: true,
                candidates: rsel_core::select::SelectorKind::extended().to_vec(),
                ..PolicyConfig::default()
            },
            ..pressured_config()
        };
        let one = serve(&specs, &config, 1).unwrap();
        let eight = serve(&specs, &config, 8).unwrap();
        assert_eq!(one.report, eight.report, "extended pool is 1-vs-8 safe");
        assert_eq!(one.run_reports, eight.run_reports);
        assert_eq!(one.snapshot, eight.snapshot);
        assert_eq!(one.report.never_exploited(), 0);
        // Long-enough streams keep more than the core four candidates
        // — the extended pool is actually in play.
        assert!(
            one.report
                .tenants
                .iter()
                .any(|t| t.policy_features.is_some_and(|f| f.explore_len > 4)),
            "no tenant ever saw the extended candidates"
        );
    }
}
