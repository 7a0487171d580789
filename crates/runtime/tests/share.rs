//! Golden determinism tests for share mode: the replicated suite
//! served through the content-addressed region store must stay
//! byte-identical for every worker count — cold, warm-started, under
//! self-modifying-code fault traffic, and under full chaos (churn +
//! faults + checkpoints) — while actually deduplicating the
//! homogeneous replicas' regions.

use rsel_runtime::{ChurnConfig, ServeConfig, ServeOutcome, TenantSpec, serve, serve_warm};
use rsel_workloads::Scale;

const SEED: u64 = 2005;

/// The twelve-workload suite, each workload replicated twice —
/// homogeneous pairs that should dedup against each other.
fn replicated_suite() -> Vec<TenantSpec> {
    TenantSpec::replicate(TenantSpec::record_suite(SEED, Scale::Test), 2)
}

fn shared_config() -> ServeConfig {
    ServeConfig {
        share: true,
        ..ServeConfig::default()
    }
}

fn chaos_shared_config() -> ServeConfig {
    let mut config = ServeConfig {
        share: true,
        churn: ChurnConfig {
            seed: SEED,
            arrival_spread: 6,
            max_disconnects: 2,
            max_gap: 3,
            crash_percent: 50,
        },
        checkpoint_every: 2,
        quarantine_penalty: 4,
        ..ServeConfig::default()
    };
    config.sim.faults.seed = SEED;
    config.sim.faults.smc_write_ppm = 2_000;
    config.sim.faults.flush_wave_ppm = 500;
    config.sim.faults.counter_fault_ppm = 500;
    config
}

fn assert_identical(one: &ServeOutcome, eight: &ServeOutcome, what: &str) {
    assert_eq!(
        one.report.to_json(),
        eight.report.to_json(),
        "{what}: ServeReport JSON must not depend on the worker count"
    );
    assert_eq!(one.report, eight.report, "{what}: report diverged");
    assert_eq!(one.run_reports, eight.run_reports, "{what}: runs diverged");
    assert_eq!(one.snapshot, eight.snapshot, "{what}: snapshot diverged");
}

#[test]
fn cold_shared_serving_is_identical_and_dedups() {
    let specs = replicated_suite();
    let config = shared_config();
    let one = serve(&specs, &config, 1).unwrap();
    let eight = serve(&specs, &config, 8).unwrap();
    assert_identical(&one, &eight, "cold shared");

    let rep = &one.report;
    assert!(rep.share_active);
    assert!(rep.unique_bytes > 0);
    assert!(rep.shared_refs > 0, "paired replicas must share entries");
    assert!(
        rep.dedup_ratio() > 1.2,
        "doubled suite must dedup: {}",
        rep.dedup_ratio()
    );
    assert!(rep.unique_bytes <= rep.logical_bytes);
    for s in &rep.shards {
        assert!(s.unique_bytes <= s.logical_bytes, "shard {}", s.shard);
    }

    // The payoff against the unshared serve of the same population:
    // pressure (driven by unique bytes, which dedup halves) evicts
    // fewer regions.
    let unshared = serve(&specs, &ServeConfig::default(), 8).unwrap();
    let evicted =
        |o: &ServeOutcome| -> u64 { o.report.shards.iter().map(|s| s.evicted_regions).sum() };
    assert!(
        evicted(&one) <= evicted(&unshared),
        "sharing must not increase pressure evictions: {} vs {}",
        evicted(&one),
        evicted(&unshared)
    );
}

#[test]
fn warm_shared_serving_is_identical_across_worker_counts() {
    // Snapshots store per-tenant regions (the RSNP format is unchanged
    // by share mode); a warm start re-dedups them on load.
    let specs = replicated_suite();
    let config = shared_config();
    let snapshot = serve(&specs, &config, 2).unwrap().snapshot;
    let warm = snapshot.clone().into_warm_start();
    let warm1 = serve_warm(&specs, &config, 1, &warm).unwrap();
    let warm8 = serve_warm(&specs, &config, 8, &warm).unwrap();
    assert_identical(&warm1, &warm8, "warm shared");
    assert!(warm1.report.warm_started);
    assert!(warm1.report.warm_regions_restored > 0);
    assert!(
        warm1.report.dedup_ratio() > 1.2,
        "restored replicas re-dedup: {}",
        warm1.report.dedup_ratio()
    );
}

#[test]
fn smc_faulted_shared_serving_is_identical_across_worker_counts() {
    // Self-modifying code invalidates regions mid-flight; the share
    // map must release the dead refs and the serve must stay
    // byte-identical for every worker count.
    let specs = replicated_suite();
    let mut config = shared_config();
    config.sim.faults.seed = SEED;
    config.sim.faults.smc_write_ppm = 2_000;
    let one = serve(&specs, &config, 1).unwrap();
    let eight = serve(&specs, &config, 8).unwrap();
    assert_identical(&one, &eight, "SMC shared");
    assert!(
        one.report.smc_invalidated_regions() > 0,
        "the fault schedule must actually strike at this rate"
    );
    assert!(one.report.dedup_ratio() > 1.0);
}

#[test]
fn chaotic_shared_serving_is_identical_across_worker_counts() {
    // The full stack at once: sharing, churn (staggered arrivals,
    // disconnects, crashes), periodic checkpoints, fault traffic, and
    // quarantine retries enabled. Every departure path must release
    // its store refs (the barrier re-checks store/map consistency in
    // this debug build) and the whole serve must stay byte-identical.
    let specs = replicated_suite();
    let config = chaos_shared_config();
    let one = serve(&specs, &config, 1).unwrap();
    let eight = serve(&specs, &config, 8).unwrap();
    assert_identical(&one, &eight, "chaotic shared");

    let rep = &one.report;
    assert!(rep.churn_active && rep.share_active);
    assert!(rep.disconnects() + rep.crashes() > 0, "somebody churned");
    // Staggered arrivals can leave the peak-unique barrier with no
    // replica overlap, so the observed ratio may legitimately be 1.0
    // here; the calm goldens above assert the stronger bound.
    assert!(rep.unique_bytes > 0);
    assert!(rep.dedup_ratio() >= 1.0, "{}", rep.dedup_ratio());
    assert_eq!(rep.quarantined_tenants(), 0, "clean path");

    // And identically again from a warm start over the chaos schedule.
    let calm = serve(&specs, &shared_config(), 2).unwrap();
    let warm = calm.snapshot.clone().into_warm_start();
    let warm1 = serve_warm(&specs, &config, 1, &warm).unwrap();
    let warm8 = serve_warm(&specs, &config, 8, &warm).unwrap();
    assert_identical(&warm1, &warm8, "warm chaotic shared");
    assert!(warm1.report.warm_started && warm1.report.churn_active);
}
