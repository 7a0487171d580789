//! Property tests for the content-addressed region store.
//!
//! Two layers. The first drives a [`RegionStore`] directly through
//! arbitrary acquire/release/departure/pressure-wave sequences against
//! a naive mirror model and checks the structural invariants after
//! every step: refcount conservation (the store's refs equal the
//! model's live holdings), no dangling entries (an entry with zero
//! holders must not exist), and `unique_bytes <= logical_bytes` per
//! shard and in total. The second serves small replicated populations
//! with sharing on and off and asserts content parity: when capacity
//! is high enough that pressure never fires, sharing is pure
//! accounting — every tenant's run report and snapshot must be
//! byte-identical to the unshared serve, cold and under crash-heavy
//! churn (the serve itself re-checks store/map consistency at every
//! barrier in debug builds, which these tests run under).

use proptest::prelude::*;
use rsel_runtime::{ChurnConfig, RegionStore, ServeConfig, TenantSpec, serve};
use rsel_workloads::{Scale, suite};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// One synthetic store operation. Keys and tenants are drawn from
/// small ranges so sequences actually collide (that is where sharing
/// and the refcount edge cases live).
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Tenant takes a ref on a key (skipped if it already holds one —
    /// a live session never double-acquires).
    Acquire { key: u64, tenant: u16 },
    /// Tenant drops its ref on a key (the store treats unknown keys as
    /// a no-op, so this needs no precondition).
    Release { key: u64, tenant: u16 },
    /// Departure/quarantine/crash teardown: every ref the tenant holds
    /// goes at once, without consulting any session state.
    ReleaseTenant { tenant: u16 },
    /// A pressure wave against one shard down to `capacity` unique
    /// bytes, largest entries first.
    Wave { shard: usize, capacity: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Weighting (the vendored prop_oneof has no weight syntax): a
    // selector in 0..8 biases toward acquires so sequences actually
    // build up shared state before tearing it down.
    (0u8..8, 0u64..24, 0u16..6, 0usize..4, 0u64..64).prop_map(
        |(pick, key, tenant, shard, capacity)| match pick {
            0..=3 => Op::Acquire { key, tenant },
            4 | 5 => Op::Release { key, tenant },
            6 => Op::ReleaseTenant { tenant },
            _ => Op::Wave { shard, capacity },
        },
    )
}

/// Deterministic size for a synthetic key — content-addressed entries
/// always carry the same byte size for the same key.
fn key_bytes(key: u64) -> u64 {
    key % 7 + 1
}

/// Deterministic shard for a synthetic key (4-shard store).
fn key_shard(key: u64) -> usize {
    (key % 4) as usize
}

proptest! {
    /// Arbitrary op sequences keep the store consistent with a naive
    /// model: same refs, no dangling entries, unique <= logical.
    #[test]
    fn op_sequences_conserve_refcounts(ops in prop::collection::vec(op_strategy(), 0..120)) {
        let mut store = RegionStore::new(4);
        // The mirror: (shard, key) -> holder set.
        let mut model: BTreeMap<(usize, u64), BTreeSet<u16>> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Acquire { key, tenant } => {
                    let shard = key_shard(key);
                    let holders = model.entry((shard, key)).or_default();
                    if holders.insert(tenant) {
                        store.acquire(shard, key, key_bytes(key), tenant);
                    }
                }
                Op::Release { key, tenant } => {
                    let shard = key_shard(key);
                    if let Some(holders) = model.get_mut(&(shard, key)) {
                        if holders.remove(&tenant) && holders.is_empty() {
                            model.remove(&(shard, key));
                        }
                    }
                    store.release(shard, key, tenant);
                }
                Op::ReleaseTenant { tenant } => {
                    let mut expect = 0u64;
                    model.retain(|_, holders| {
                        if holders.remove(&tenant) {
                            expect += 1;
                        }
                        !holders.is_empty()
                    });
                    prop_assert_eq!(store.release_tenant(tenant), expect);
                }
                Op::Wave { shard, capacity } => {
                    let wave = store.plan_wave(shard, capacity);
                    for (key, entry) in &wave {
                        let removed = model.remove(&(shard, *key));
                        prop_assert!(removed.is_some(), "wave evicted an unknown entry");
                        let holders: Vec<u16> = removed.unwrap().into_iter().collect();
                        prop_assert_eq!(&holders, &entry.holders, "holder lists agree");
                    }
                    prop_assert!(store.unique_bytes(shard) <= capacity || wave.is_empty());
                }
            }
            // Structural invariants hold after every single step.
            store.check_invariants();
            let model_refs: u64 = model.values().map(|h| h.len() as u64).sum();
            prop_assert_eq!(store.total_refs(), model_refs, "refcount conservation");
            prop_assert_eq!(store.total_entries(), model.len() as u64, "no dangling entries");
            for shard in 0..4 {
                prop_assert!(store.unique_bytes(shard) <= store.logical_bytes(shard));
            }
        }
        // Peaks sampled at a barrier keep the same ordering.
        store.end_round();
        let t = store.totals();
        prop_assert!(t.unique_bytes <= t.logical_bytes);
    }
}

/// Two recorded workloads, built once for every serve-level case.
fn specs() -> &'static Vec<TenantSpec> {
    static FIX: OnceLock<Vec<TenantSpec>> = OnceLock::new();
    FIX.get_or_init(|| {
        suite()
            .iter()
            .take(2)
            .map(|w| TenantSpec::record(w, 2005, Scale::Test))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Share-on vs share-off content parity: with capacity high enough
    /// that pressure never fires, sharing must not change any tenant's
    /// execution — same run reports, same snapshot regions — for any
    /// replica count and worker count.
    #[test]
    fn sharing_preserves_region_content(replicas in 1usize..4, jobs in 1usize..5) {
        let population = TenantSpec::replicate(specs().clone(), replicas);
        let off = ServeConfig {
            shard_capacity: u64::MAX,
            ..ServeConfig::default()
        };
        let on = ServeConfig { share: true, ..off.clone() };
        let base = serve(&population, &off, jobs).unwrap();
        let shared = serve(&population, &on, jobs).unwrap();
        prop_assert_eq!(&base.run_reports, &shared.run_reports);
        prop_assert_eq!(&base.snapshot, &shared.snapshot);
        if replicas > 1 {
            prop_assert!(
                shared.report.dedup_ratio() > 1.0,
                "replicas must share: {}",
                shared.report.dedup_ratio()
            );
        }
    }

    /// Crash-heavy churn with sharing on: departures, crash recovery,
    /// and re-admissions must release and re-acquire refs without ever
    /// tripping the barrier's store/map consistency checks (which run
    /// under debug assertions in this build), and stay worker-count
    /// deterministic.
    #[test]
    fn churned_shared_serving_stays_consistent(seed in 0u64..32) {
        let population = TenantSpec::replicate(specs().clone(), 2);
        let config = ServeConfig {
            share: true,
            churn: ChurnConfig {
                seed,
                arrival_spread: 3,
                max_disconnects: 2,
                max_gap: 2,
                crash_percent: 75,
            },
            checkpoint_every: 2,
            ..ServeConfig::default()
        };
        let one = serve(&population, &config, 1).unwrap();
        let four = serve(&population, &config, 4).unwrap();
        prop_assert_eq!(&one.report, &four.report);
        prop_assert_eq!(&one.run_reports, &four.run_reports);
        prop_assert_eq!(&one.snapshot, &four.snapshot);
        for t in &one.report.tenants {
            prop_assert!(!t.quarantined, "clean churn path");
        }
    }
}
