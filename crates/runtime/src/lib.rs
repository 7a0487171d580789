//! Multi-tenant serving runtime for region selection.
//!
//! The paper's framework simulates one program at a time; this crate
//! turns that machinery into a *serving subsystem* that runs many
//! tenant sessions concurrently against shared selection
//! infrastructure — the production shape the roadmap aims at, and the
//! setting "Beyond Static Policies" motivates: no single selection
//! policy wins across workloads and phases, so the selector must be
//! picked per tenant, online.
//!
//! Four pieces:
//!
//! - [`shard`] — a **sharded shared code cache**: every tenant still
//!   owns its region namespace (regions from different programs can
//!   never collide or be shared), but all tenants draw from shared
//!   capacity, accounted across N fxhash-addressed shards with
//!   per-shard locking. A shard over its byte budget triggers a
//!   pressure wave that sheds the heaviest tenants' oldest regions
//!   through the resilience hooks (`Simulator::evict_regions`), so
//!   evictions show up in each tenant's
//!   [`ResilienceStats`](rsel_core::ResilienceStats) (reformations, severed links, recovery transitions) exactly like
//!   any other cache-pressure event.
//! - [`session`] — a **tenant session**: one recorded workload replayed
//!   epoch by epoch through a [`Simulator`](rsel_core::Simulator) that
//!   persists across epochs (cache and metrics survive; the selector
//!   may be swapped at epoch boundaries).
//! - [`policy`] — an **adaptive policy engine** per tenant: explores
//!   the candidate [`SelectorKind`](rsel_core::SelectorKind)s one
//!   epoch each, scores them by observed hit rate minus a code
//!   expansion penalty, then exploits the winner — re-exploring when
//!   the score collapses (a phase shift).
//! - [`serve`](mod@serve) — the **session scheduler**, entered through
//!   [`serve()`] (cold) or [`serve_warm`] (from a [`WarmStart`]). Each
//!   round runs the same ordered phases: arrivals join the waiting
//!   line; admission draws on a bounded queue that feeds up to
//!   `max_active` concurrent sessions (shedding arrivals stuck past an
//!   admission timeout); one epoch of every active session runs across
//!   `jobs` worker threads inside a panic boundary; then a serial
//!   barrier, in tenant order, settles quarantines, finished tenants,
//!   and churn departures, relieves shard pressure, applies policy
//!   decisions, and takes periodic checkpoints.
//! - [`store`] — a **content-addressed shared region store**
//!   (opt-in via [`ServeConfig::share`]): identical regions across
//!   tenants — homogeneous traffic replaying the same recordings —
//!   are fxhashed by canonical content ([`region_key`]) and
//!   deduplicated into refcounted per-shard entries, so each shard
//!   charges *unique* bytes against its budget while per-tenant
//!   logical bytes stay reported, and pressure eviction drops a
//!   shared entry from every referencing tenant at once.
//! - [`snapshot`] — **persistence**: a versioned binary
//!   [`ServeSnapshot`] format capturing every tenant's learned policy
//!   state, cached regions, and fault blacklist, with a
//!   strict-validation loader ([`load_snapshot`]) and a lenient one
//!   ([`load_warm_start`]) that degrades stale tenants to cold starts,
//!   so the next run can warm-start ([`serve_warm`]) instead of
//!   re-exploring from scratch.
//!
//! Serving can also run **under fault traffic**: with nonzero
//! [`FaultConfig`](rsel_core::FaultConfig) rates in
//! [`ServeConfig::sim`], every tenant session carries its own
//! deterministic self-modifying-code, flush-wave, and counter-fault
//! schedule (seeded per tenant via [`tenant_fault_seed`]), and the
//! [`ServeReport`] breaks out invalidations taken, blacklist activity,
//! and hit-rate dip depth/recovery per tenant and per shard.
//!
//! And it can run **under churn**: [`churn`] generates seeded tenant
//! lifecycles — staggered arrivals, graceful disconnects that
//! checkpoint and reconnect warm, crashes that recover from their last
//! checkpoint — and a chaos poison pill that exercises the scheduler's
//! **failure domain**: a session that panics is quarantined at the
//! next barrier (partial metrics kept, everyone else unaffected)
//! instead of killing the serve, and setup problems surface as typed
//! [`ServeError`]s rather than panics. Sustained arrival pressure is
//! handled by admission shedding with exponential backoff
//! ([`ServeConfig::admission_timeout`]).
//!
//! # Determinism
//!
//! The merged per-tenant [`RunReport`](rsel_core::RunReport)s and the
//! [`ServeReport`] are **byte-identical for any worker count**. Within
//! a round, sessions only touch their own simulator plus commutative
//! shard accounting; every cross-tenant decision (admission, pressure
//! eviction, policy switching) happens at the round barrier in tenant
//! order. Nothing wall-clock-dependent enters a report: throughput is
//! measured in simulated instructions per scheduler round.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod policy;
pub mod report;
pub mod serve;
pub mod session;
pub mod shard;
pub mod snapshot;
pub mod store;

pub use churn::{ChaosConfig, ChurnConfig, LifecycleEvent, LifecycleKind, TenantLifecycle};
pub use policy::{PolicyConfig, PolicyEngine, PolicyState, SwitchReason, SwitchRecord};
pub use report::{
    DipSummary, DipTracker, QueueStats, ServeOutcome, ServeReport, ShardReport, TenantSummary,
};
pub use serve::{ServeConfig, ServeError, serve, serve_warm, tenant_fault_seed};
pub use session::{EpochStats, TenantSession, TenantSpec};
pub use shard::{SharedCacheMap, shard_of};
pub use snapshot::{
    RegionSnapshot, ServeSnapshot, SnapshotError, TenantSnapshot, WarmStart, load_snapshot,
    load_warm_start, save_snapshot, tenant_snapshot_bytes,
};
pub use store::{RegionStore, StoreEntry, StoreShardStats, StoreTotals, region_key, shard_of_key};
