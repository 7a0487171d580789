//! The session scheduler: bounded admission, parallel epochs, a
//! deterministic decision barrier, and a contained failure domain.
//!
//! [`serve`] (cold) and [`serve_warm`] (from a [`WarmStart`]) build a
//! private `Scheduler` — validation, per-tenant setup, and the warm
//! restore happen in `Scheduler::new` — and run it one round at a
//! time until no tenant is owed service. Every round is the same
//! ordered list of phases, one scheduler method each:
//!
//! 1. **Arrivals** (`arrive`) — tenants due this round join the
//!    pending line in tenant order: first arrivals (at round zero, or
//!    staggered by a churn schedule), reconnects, quarantine retries,
//!    and shed arrivals coming back.
//! 2. **Admission** (`admit`) — the pending line fills a bounded queue
//!    (`queue_capacity`), and the queue feeds up to `max_active`
//!    concurrent sessions. A full queue defers arrivals — the
//!    backpressure the [`QueueStats`] expose. A
//!    zero-capacity queue means "no buffering": arrivals are admitted
//!    directly up to `max_active` and the rest stay deferred. Under
//!    sustained overload an optional admission timeout *sheds*
//!    waiting arrivals: they are pushed back out and retry after an
//!    exponential backoff, so the queue never silently grows a convoy.
//! 3. **Epochs** (`run_epochs`) — one epoch of every active session,
//!    fanned out over `jobs` scoped worker threads. Sessions only
//!    touch their own simulator and publish commutative occupancy
//!    updates to the shared map, so worker scheduling cannot affect
//!    any result. Every epoch runs inside a panic boundary: a session
//!    that panics (or that poisoned its lock) comes back `Crashed`
//!    instead of killing the serve.
//! 4. **Barrier** — with the workers joined, every cross-tenant
//!    decision happens serially in tenant order:
//!    1. `settle` folds the epoch deltas, then quarantines crashed
//!       sessions (taken out of rotation with their partial metrics
//!       kept, or scheduled for their one cold retry), retires
//!       finished ones, and applies churn events: disconnects
//!       checkpoint first, crashes rewind to their last checkpoint.
//!       Every departure releases the tenant's shard bytes and store
//!       refs (`release`).
//!    2. `relieve_pressure` resolves overflowing shards. Each one
//!       plans its whole victim set — the resident with the most bytes
//!       sheds half its remaining regions there, repeatedly, until the
//!       shard fits — then applies it with one eviction pass per victim
//!       tenant. In share mode the store plans the wave over
//!       deduplicated entries instead, largest first.
//!    3. `decide` feeds each epoch to its tenant's policy engine and
//!       applies the selector switches it asks for.
//!    4. `checkpoint_round` takes the periodic checkpoints that crash
//!       recovery rewinds to.
//!
//! When the last tenant has finished (or been quarantined for good),
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
use crate::policy::{
    PolicyConfig, PolicyEngine, PolicyFeatures, SwitchRecord, derive_tenant_policy,
};
use crate::report::{
    DipTracker, QueueStats, ServeOutcome, ServeReport, ShardReport, TenantSummary, wait_bucket,
};
use crate::session::{EpochStats, TenantSession, TenantSpec};
use crate::shard::SharedCacheMap;
use crate::snapshot::{
    ServeSnapshot, SnapshotError, TenantSnapshot, WarmStart, tenant_snapshot_bytes,
};
use crate::store::{RegionStore, StoreShardStats, debug_check_consistency};
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
    /// Rounds an arrival may wait in the deferred set before being
    /// shed (pushed back with exponential backoff); zero disables
    /// shedding.
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
fn slot<'s, 'p>(
    cell: &'s mut Mutex<Option<TenantSession<'p>>>,
) -> &'s mut Option<TenantSession<'p>> {
    cell.get_mut().unwrap_or_else(PoisonError::into_inner)
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
    /// The tenant's policy (stream-derived under an adaptive base)
    /// and the features it was derived from.
    policy: PolicyConfig,
    features: Option<PolicyFeatures>,
    engine: PolicyEngine,
    /// The live session; `None` while the tenant is away. Finished and
    /// quarantined sessions stay for the final report. Only the worker
    /// running the tenant's epoch locks it.
    session: Mutex<Option<TenantSession<'p>>>,
    /// Last persisted state: what a crash rewinds to and a reconnect
    /// resumes from.
    checkpoint: Option<Checkpoint>,
    /// Churn events still to come, in lifetime-epoch order.
    events: VecDeque<LifecycleEvent>,
    /// Round of the latest (re)arrival — the admission-latency clock.
    /// Shed pushbacks do not reset it: a shed tenant's wait is honest
    /// about the whole time since it first asked for service.
    arrived_at: u64,
    /// Rounds spent deferred since the last admission or shed.
    waiting_rounds: u64,
    /// Rounds the next shed pushes the tenant back.
    backoff: u64,
    /// Round of the first admission and the wait before it; `None`
    /// until the tenant is first admitted.
    admitted: Option<(u64, u64)>,
    finished_round: u64,
    first_exploit_round: Option<u64>,
    quarantined: bool,
    quarantine_retries: u64,
    dips: DipTracker,
    // Cross-session counters: epoch deltas accumulate every round (so
    // crash-recovery re-execution counts as the work it is), and each
    // torn-down session's monotone counters fold in exactly once (at
    // teardown, or at the end for the final session).
    epochs: u64,
    total_insts: u64,
    cache_insts: u64,
    insts_selected: u64,
    regions_selected: u64,
    smc_events: u64,
    smc_invalidated: u64,
    pressure_evicted: u64,
    reformations: u64,
    blacklisted_targets: u64,
    blacklist_hits: u64,
    disconnects: u64,
    reconnects: u64,
    crashes: u64,
    recovered_epochs: u64,
    checkpoints: u64,
    checkpoint_bytes: u64,
    /// Switch decisions a rewind (crash or quarantine retry) threw
    /// away — the log keeps them (they happened), the engine does not.
    forgotten_switches: u64,
}

impl<'p> Tenant<'p> {
    /// Sets tenant `t` up: its fault seed, policy, lifecycle, engine,
    /// and first session — restored from `warm` when given, which
    /// doubles as the tenant's first checkpoint (a crash before any
    /// new checkpoint recovers to it).
    fn new(
        t: usize,
        spec: &'p TenantSpec,
        config: &ServeConfig,
        warm: Option<&TenantSnapshot>,
    ) -> Result<Self, ServeError> {
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
        Ok(Tenant {
            spec,
            sim,
            policy,
            features,
            engine,
            session: Mutex::new(Some(session)),
            checkpoint,
            events: lifecycle.events.into(),
            arrived_at: lifecycle.arrival_round,
            waiting_rounds: 0,
            backoff: 2,
            admitted: None,
            finished_round: 0,
            first_exploit_round: None,
            quarantined: false,
            quarantine_retries: 0,
            dips: DipTracker::default(),
            epochs: 0,
            total_insts: 0,
            cache_insts: 0,
            insts_selected: 0,
            regions_selected: 0,
            smc_events: 0,
            smc_invalidated: 0,
            pressure_evicted: 0,
            reformations: 0,
            blacklisted_targets: 0,
            blacklist_hits: 0,
            disconnects: 0,
            reconnects: 0,
            crashes: 0,
            recovered_epochs: 0,
            checkpoints: 0,
            checkpoint_bytes: 0,
            forgotten_switches: 0,
        })
    }

    fn fold_epoch(&mut self, e: &EpochStats) {
        self.epochs += 1;
        self.total_insts += e.insts;
        self.cache_insts += e.cache_insts;
        self.insts_selected += e.insts_selected;
        self.regions_selected += e.regions_selected;
        self.smc_events += e.smc_events;
        self.smc_invalidated += e.smc_invalidated;
        // Epochs that executed nothing say nothing about the cache.
        if e.insts > 0 {
            self.dips.on_epoch(e.hit_rate(), e.smc_invalidated > 0);
        }
    }

    /// Folds a torn-down session's monotone counters in, and its SMC
    /// invalidations into the run's per-shard totals.
    fn fold_session(&mut self, session: &TenantSession<'_>, shard_smc: &mut [u64]) {
        let res = session.resilience();
        self.pressure_evicted += res.pressure_evicted_regions;
        self.reformations += res.reformations;
        self.blacklisted_targets += res.blacklisted_targets;
        self.blacklist_hits += res.blacklist_hits;
        for (s, &n) in session.smc_by_shard().iter().enumerate() {
            shard_smc[s] += n;
        }
    }

    /// Checkpoints the live session where its stream stands now.
    fn checkpoint(&mut self) {
        let Some(session) = slot(&mut self.session).as_ref() else {
            return;
        };
        let snap = freeze_tenant(session, &self.engine);
        self.checkpoints += 1;
        self.checkpoint_bytes = tenant_snapshot_bytes(&snap);
        self.checkpoint = Some(Checkpoint {
            snap,
            pos: session.pos(),
            epoch: self.epochs,
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

    /// The session a (re)admitted tenant runs on: warm from its
    /// checkpoint and resumed at the checkpoint's stream position, or
    /// cold at that position under `reconnect_cold`; cold from the top
    /// without a checkpoint.
    fn reopen(&self, t: usize, config: &ServeConfig) -> TenantSession<'p> {
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
        session
    }
}

/// One serving run's state, advanced one round at a time (see the
/// module docs for the phase order).
struct Scheduler<'a> {
    config: &'a ServeConfig,
    warm: Option<&'a WarmStart>,
    tenants: Vec<Tenant<'a>>,
    map: SharedCacheMap,
    /// Share mode: the content-addressed store dedups identical
    /// regions across tenants; absent, every tenant pays for its own
    /// copies.
    store: Option<RegionStore>,
    /// Arrival book: round -> tenants (re)arriving at it.
    due: BTreeMap<u64, Vec<usize>>,
    /// Arrivals deferred behind the bounded queue, in arrival order.
    pending: VecDeque<usize>,
    queue: VecDeque<usize>,
    /// Running sessions, ascending tenant order.
    active: Vec<usize>,
    q: QueueStats,
    switches: Vec<SwitchRecord>,
    /// SMC invalidations per shard, folded from torn-down sessions.
    shard_smc: Vec<u64>,
    /// The chaos pill is one-shot per serve: once it fired (and the
    /// tenant was quarantined), a retried session must not re-arm it —
    /// it models a transient defect, and an eternal pill would make
    /// the retry path untestable.
    poison_spent: bool,
    total_insts: u64,
    round: u64,
    /// Tenants still owed service: neither finished nor quarantined.
    live: usize,
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
        let mut due: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (t, spec) in specs.iter().enumerate() {
            let tenant = Tenant::new(t, spec, config, warm.and_then(|w| w.tenants[t].as_ref()))?;
            due.entry(tenant.arrived_at).or_default().push(t);
            tenants.push(tenant);
        }
        Ok(Scheduler {
            config,
            warm,
            tenants,
            map: SharedCacheMap::new(config.shard_count, config.shard_capacity),
            store: config.share.then(|| RegionStore::new(config.shard_count)),
            due,
            pending: VecDeque::new(),
            queue: VecDeque::new(),
            active: Vec::new(),
            q: QueueStats::default(),
            switches: Vec::new(),
            shard_smc: vec![0; config.shard_count],
            poison_spent: false,
            total_insts: 0,
            round: 0,
            live: specs.len(),
        })
    }

    /// Serves rounds until no tenant is owed service.
    fn run(mut self, jobs: usize) -> ServeOutcome {
        while self.live > 0 {
            self.round(jobs);
        }
        self.into_outcome()
    }

    /// One round: arrivals, admission, the parallel epochs, then the
    /// serial barrier.
    fn round(&mut self, jobs: usize) {
        self.arrive();
        self.admit();
        let outcomes = self.run_epochs(jobs);
        self.map.end_round();
        if let Some(store) = self.store.as_mut() {
            store.end_round();
        }
        let ran = std::mem::take(&mut self.active);
        let deciders = self.settle(&ran, &outcomes);
        self.relieve_pressure();
        self.decide(&deciders);
        self.checkpoint_round();
        // First round at which each tenant's engine was exploiting —
        // for warm-restored engines already past exploration, that is
        // their first active round (even if they also finish in it).
        for &t in &ran {
            let tenant = &mut self.tenants[t];
            if tenant.first_exploit_round.is_none() && tenant.engine.exploiting() {
                tenant.first_exploit_round = Some(self.round);
            }
        }
        self.round += 1;
    }

    /// Moves every tenant due by this round onto the pending line, in
    /// tenant order.
    fn arrive(&mut self) {
        let later = self.due.split_off(&(self.round + 1));
        let mut arrivals: Vec<usize> = std::mem::replace(&mut self.due, later)
            .into_values()
            .flatten()
            .collect();
        arrivals.sort_unstable();
        for t in arrivals {
            if !self.tenants[t].quarantined {
                self.pending.push_back(t);
            }
        }
    }

    /// Tops the bounded queue up from the pending line.
    fn fill_queue(&mut self) {
        let room = self.config.queue_capacity.saturating_sub(self.queue.len());
        let n = room.min(self.pending.len());
        self.queue.extend(self.pending.drain(..n));
    }

    /// Admits up to the active limit, sheds arrivals stuck past the
    /// admission timeout, and samples the queue statistics.
    fn admit(&mut self) {
        let free = self.config.max_active - self.active.len();
        let to_admit: Vec<usize> = if self.config.queue_capacity == 0 {
            // A zero-capacity queue buffers nothing: arrivals are
            // admitted directly up to the active limit. (Routing them
            // through the queue would livelock — nothing could ever
            // enter a queue that holds zero tenants.)
            let n = free.min(self.pending.len());
            self.pending.drain(..n).collect()
        } else {
            self.fill_queue();
            let n = free.min(self.queue.len());
            let admitted = self.queue.drain(..n).collect();
            // Arrivals keep the bounded queue full while the round
            // runs; whoever does not fit is deferred behind it
            // (backpressure).
            self.fill_queue();
            admitted
        };
        let round = self.round;
        for t in to_admit {
            let tenant = &mut self.tenants[t];
            if slot(&mut tenant.session).is_none() {
                let session = tenant.reopen(t, self.config);
                *slot(&mut tenant.session) = Some(session);
            }
            if self.config.chaos.poison_tenant == Some(t as u16) && !self.poison_spent {
                // The pill fires at a *lifetime* epoch; a session that
                // starts mid-life arms the remainder.
                let remaining = self.config.chaos.poison_epoch.saturating_sub(tenant.epochs);
                if let Some(session) = slot(&mut tenant.session).as_mut() {
                    session.poison_after(remaining);
                }
            }
            // Reconnects and quarantine retries were counted when they
            // were booked; only a first admission records anything.
            let wait = round - tenant.arrived_at;
            tenant.admitted.get_or_insert((round, wait));
            // Every admission (first, reconnect, retry) lands one
            // sample in the log2 wait histogram.
            self.q.admission_wait_hist[wait_bucket(wait)] += 1;
            tenant.waiting_rounds = 0;
            self.active.push(t);
            self.q.admissions += 1;
        }
        // Overload shedding: arrivals stuck behind the queue past the
        // timeout are pushed back out and retry after an exponential
        // backoff, instead of convoying forever.
        let timeout = self.config.admission_timeout;
        if timeout > 0 {
            self.pending.retain(|&t| {
                let tenant = &mut self.tenants[t];
                tenant.waiting_rounds += 1;
                if tenant.waiting_rounds < timeout {
                    return true;
                }
                // A shed tenant is still owed service, so its retry
                // always arrives before the run ends: count it now.
                self.q.shed_arrivals += 1;
                self.q.admission_retries += 1;
                tenant.waiting_rounds = 0;
                self.due.entry(round + tenant.backoff).or_default().push(t);
                tenant.backoff = (tenant.backoff * 2).min(64);
                false
            });
        }
        self.active.sort_unstable();
        let q = &mut self.q;
        q.peak_active = q.peak_active.max(self.active.len() as u64);
        q.peak_queue_depth = q.peak_queue_depth.max(self.queue.len() as u64);
        q.queued_tenant_rounds += self.queue.len() as u64;
        q.deferred_tenant_rounds += self.pending.len() as u64;
    }

    /// Runs one epoch of every active session on up to `jobs` worker
    /// threads, inside the failure domain: a panic (e.g. a poison
    /// pill) or an already-poisoned lock yields `Crashed` for the
    /// barrier to quarantine; nothing unwinds past here, on any
    /// worker. Outcomes come back in `active` order.
    fn run_epochs(&self, jobs: usize) -> Vec<Outcome> {
        let run_one = |t: usize| -> Outcome {
            let ran = catch_unwind(AssertUnwindSafe(|| {
                let mut guard = self.tenants[t].session.lock().ok()?;
                let session = guard.as_mut()?;
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
        if jobs <= 1 || self.active.len() <= 1 {
            return self.active.iter().map(|&t| run_one(t)).collect();
        }
        let slots: Vec<Mutex<Option<Outcome>>> =
            self.active.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..jobs.min(self.active.len()) {
                scope.spawn(|| {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&t) = self.active.get(i) else { break };
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

    /// Barrier: folds each epoch that ran, then quarantines, retires,
    /// or churns every tenant that ran, and re-forms the active set
    /// from the rest. Returns the epochs the policy engines decide on,
    /// in tenant order: those of tenants still active, plus — under a
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
            self.total_insts += e.insts;
            let tenant = &mut self.tenants[t];
            tenant.fold_epoch(&e);
            if slot(&mut tenant.session)
                .as_ref()
                .is_some_and(|s| s.finished())
            {
                // The session is kept for the final report and
                // snapshot; only its shard bytes (and store refs) go.
                tenant.finished_round = self.round;
                self.release(t);
                self.live -= 1;
                if self.config.policy.adaptive {
                    deciders.push((t, e));
                }
                continue;
            }
            match tenant
                .events
                .front()
                .filter(|ev| ev.at_epoch <= tenant.epochs)
            {
                Some(&ev) => self.depart(t, ev),
                None => {
                    self.active.push(t);
                    deciders.push((t, e));
                }
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
        let round = self.round;
        let penalty = self.config.quarantine_penalty;
        let tenant = &mut self.tenants[t];
        tenant.session.clear_poison();
        if penalty == 0 || tenant.quarantine_retries > 0 {
            tenant.quarantined = true;
            tenant.finished_round = round;
            self.live -= 1;
            return;
        }
        // Retry: tear the defective session down entirely (its
        // monotone counters fold in — the work happened), rewind the
        // engine to a fresh start, and re-admit cold after the
        // penalty. A second quarantine drops the tenant for good.
        tenant.quarantine_retries += 1;
        self.q.quarantine_retries += 1;
        if let Some(session) = slot(&mut tenant.session).take() {
            tenant.fold_session(&session, &mut self.shard_smc);
        }
        tenant.checkpoint = None;
        tenant.rewind_engine();
        tenant.arrived_at = round + penalty;
        self.due.entry(tenant.arrived_at).or_default().push(t);
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
                tenant.disconnects += 1;
                tenant.checkpoint();
            }
            LifecycleKind::Crash => {
                tenant.crashes += 1;
                let cp_epoch = tenant.checkpoint.as_ref().map_or(0, |c| c.epoch);
                tenant.recovered_epochs += tenant.epochs - cp_epoch;
                tenant.rewind_engine();
            }
        }
        if let Some(session) = slot(&mut tenant.session).take() {
            tenant.fold_session(&session, &mut self.shard_smc);
        }
        // A departed tenant is still owed service, so it always
        // reconnects before the run ends: count the reconnect now.
        tenant.reconnects += 1;
        tenant.arrived_at = self.round + ev.gap;
        self.due.entry(tenant.arrived_at).or_default().push(t);
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
                let (evicted, left) = slot(&mut self.tenants[t as usize].session)
                    .as_mut()
                    .map_or((0, 0), |s| s.evict_shared(shard, &keys));
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
                    .as_ref()
                    .map(|s| s.shard_regions(shard))
                    .unwrap_or_default()
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
                if let Some(session) = slot(&mut self.tenants[t as usize].session).as_mut() {
                    session.evict_planned(shard, ids, bytes);
                }
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
            if let Some(session) = slot(&mut tenant.session).as_mut() {
                self.switches.push(SwitchRecord {
                    tenant: t as u16,
                    workload: session.workload(),
                    epoch: tenant.epochs,
                    from: session.kind(),
                    to: kind,
                    reason,
                });
                session.switch_selector(kind, &tenant.sim);
            }
        }
    }

    /// Barrier: periodic checkpoints — what crash recovery rewinds to.
    /// Taken after policy decisions so a checkpoint never resurrects a
    /// selector the engine just abandoned.
    fn checkpoint_round(&mut self) {
        let every = self.config.checkpoint_every;
        if every > 0 && (self.round + 1).is_multiple_of(every) {
            for &t in &self.active {
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
            // Every tenant ends holding a session (finished and
            // quarantined sessions are retained); materialize an empty
            // one defensively if that invariant ever breaks.
            let session = slot(&mut tenant.session).take().unwrap_or_else(|| {
                TenantSession::new(
                    id,
                    tenant.spec,
                    tenant.engine.current(),
                    &tenant.sim,
                    config.shard_count,
                )
            });
            tenant.fold_session(&session, &mut self.shard_smc);
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
            let dip = std::mem::take(&mut tenant.dips).finish();
            let (admitted_round, admission_wait) = tenant.admitted.unwrap_or_default();
            tenants.push(TenantSummary {
                tenant: id,
                workload: session.workload(),
                final_selector: session.kind().name(),
                epochs: tenant.epochs,
                switches: tenant.engine.switches() + tenant.forgotten_switches,
                admitted: tenant.admitted.is_some(),
                admitted_round,
                admission_wait,
                finished_round: tenant.finished_round,
                first_exploit_round: tenant.first_exploit_round,
                total_insts: tenant.total_insts,
                cache_insts: tenant.cache_insts,
                insts_selected: tenant.insts_selected,
                regions_selected: tenant.regions_selected,
                pressure_evicted: tenant.pressure_evicted,
                policy_features: tenant.features,
                smc_events: tenant.smc_events,
                smc_invalidated: tenant.smc_invalidated,
                reformations: tenant.reformations,
                blacklisted_targets: tenant.blacklisted_targets,
                blacklist_hits: tenant.blacklist_hits,
                disconnects: tenant.disconnects,
                reconnects: tenant.reconnects,
                crashes: tenant.crashes,
                recovered_epochs: tenant.recovered_epochs,
                checkpoints: tenant.checkpoints,
                checkpoint_bytes: tenant.checkpoint_bytes,
                quarantined: tenant.quarantined,
                quarantine_retries: tenant.quarantine_retries,
                smc_dips: dip.dips,
                max_dip_depth: dip.max_depth,
                max_dip_recovery_epochs: dip.max_recovery_epochs,
            });
            run_reports.push(session.report());
            snapshot_tenants.push(freeze_tenant(&session, &tenant.engine));
            // Back into its slot: sessions are freed with the scheduler,
            // after every report is built. Freeing each one as soon as
            // its report was done interleaved large frees with the
            // reports' allocations and doubled the page faults of the
            // next serve in the same process.
            *slot(&mut tenant.session) = Some(session);
        }
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
                total_insts: self.total_insts,
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
        assert!(q.admission_retries > 0, "shed arrivals retry: {q:?}");
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
