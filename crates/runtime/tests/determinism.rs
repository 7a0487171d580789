//! Golden determinism and acceptance tests for the serving runtime.
//!
//! The full twelve-tenant suite is served at test scale with the
//! default configuration, once serially and once on eight workers; the
//! [`ServeReport`] JSON, the aggregate report, and every per-tenant
//! [`RunReport`] must be byte-for-byte / structurally identical. The
//! same run must exhibit the behaviours the runtime exists to produce:
//! a full active set, shard pressure, backpressure, and adaptive
//! selector switches.

use rsel_runtime::{ChurnConfig, ServeConfig, ServeOutcome, TenantSpec, serve, serve_warm};
use rsel_workloads::Scale;

const SEED: u64 = 2005;

fn run(jobs: usize) -> ServeOutcome {
    let specs = TenantSpec::record_suite(SEED, Scale::Test);
    serve(&specs, &ServeConfig::default(), jobs).unwrap()
}

/// The full chaos schedule the golden tests serve under: churn
/// (staggered arrivals, disconnects, crashes), periodic checkpoints,
/// and fault traffic (SMC + flush waves + counter faults) all at once.
fn chaos_config() -> ServeConfig {
    let mut config = ServeConfig {
        churn: ChurnConfig {
            seed: SEED,
            arrival_spread: 6,
            max_disconnects: 2,
            max_gap: 3,
            crash_percent: 50,
        },
        checkpoint_every: 2,
        ..ServeConfig::default()
    };
    config.sim.faults.seed = SEED;
    config.sim.faults.smc_write_ppm = 2_000;
    config.sim.faults.flush_wave_ppm = 500;
    config.sim.faults.counter_fault_ppm = 500;
    config
}

#[test]
fn serial_and_parallel_runs_are_identical() {
    let serial = run(1);
    let parallel = run(8);
    // Byte-identical JSON, structurally identical report.
    assert_eq!(
        serial.report.to_json(),
        parallel.report.to_json(),
        "ServeReport JSON must not depend on the worker count"
    );
    assert_eq!(serial.report, parallel.report);
    // Every tenant's full run report matches too — down to per-region
    // stats, resilience counters, and domination analysis.
    assert_eq!(serial.run_reports.len(), parallel.run_reports.len());
    for (t, (a, b)) in serial
        .run_reports
        .iter()
        .zip(&parallel.run_reports)
        .enumerate()
    {
        assert_eq!(a, b, "tenant {t} diverged across worker counts");
    }
    // The captured snapshot is part of the deterministic outcome.
    assert_eq!(serial.snapshot, parallel.snapshot);
}

#[test]
fn warm_started_runs_are_identical_across_worker_counts() {
    // The core invariant must survive a warm start: a run restored
    // from a snapshot is byte-identical for every worker count.
    let specs = TenantSpec::record_suite(SEED, Scale::Test);
    let config = ServeConfig::default();
    let snapshot = serve(&specs, &config, 2).unwrap().snapshot;
    let warm = snapshot.clone().into_warm_start();
    let warm1 = serve_warm(&specs, &config, 1, &warm).unwrap();
    let warm8 = serve_warm(&specs, &config, 8, &warm).unwrap();
    assert!(warm1.report.warm_started && warm8.report.warm_started);
    assert!(warm1.report.warm_regions_restored > 0);
    assert_eq!(
        warm1.report.to_json(),
        warm8.report.to_json(),
        "warm ServeReport JSON must not depend on the worker count"
    );
    assert_eq!(warm1.report, warm8.report);
    assert_eq!(warm1.run_reports, warm8.run_reports);
    assert_eq!(warm1.snapshot, warm8.snapshot);
}

#[test]
fn smc_faulted_runs_are_identical_across_worker_counts() {
    // The robustness invariant: a serve under self-modifying-code
    // traffic is still byte-identical for every worker count, because
    // each tenant's fault schedule is seeded from the tenant id alone.
    let specs = TenantSpec::record_suite(SEED, Scale::Test);
    let mut config = ServeConfig::default();
    config.sim.faults.seed = SEED;
    config.sim.faults.smc_write_ppm = 2_000;
    let one = serve(&specs, &config, 1).unwrap();
    let eight = serve(&specs, &config, 8).unwrap();
    assert_eq!(
        one.report.to_json(),
        eight.report.to_json(),
        "faulted ServeReport JSON must not depend on the worker count"
    );
    assert_eq!(one.report, eight.report);
    assert_eq!(one.run_reports, eight.run_reports);
    assert_eq!(one.snapshot, eight.snapshot);
    assert!(
        one.report.smc_invalidated_regions() > 0,
        "the fault schedule must actually strike at this rate"
    );
    assert!(
        one.report.tenants.iter().any(|t| t.smc_dips > 0),
        "invalidation waves must dent some hit-rate curve"
    );

    // The invariant survives warm-starting from the faulted snapshot
    // (which carries each tenant's blacklist state).
    let warm = one.snapshot.clone().into_warm_start();
    let warm1 = serve_warm(&specs, &config, 1, &warm).unwrap();
    let warm8 = serve_warm(&specs, &config, 8, &warm).unwrap();
    assert_eq!(
        warm1.report.to_json(),
        warm8.report.to_json(),
        "warm faulted ServeReport JSON must not depend on the worker count"
    );
    assert_eq!(warm1.report, warm8.report);
    assert_eq!(warm1.run_reports, warm8.run_reports);
    assert_eq!(warm1.snapshot, warm8.snapshot);
}

#[test]
fn chaotic_runs_are_identical_across_worker_counts() {
    // The tentpole robustness golden: the full suite served under
    // churn (staggered arrivals, mid-run disconnects reconnecting warm
    // from their checkpoints, crashes recovering from their last
    // checkpoint) *and* fault traffic, byte-identical for every worker
    // count — cold and warm.
    let specs = TenantSpec::record_suite(SEED, Scale::Test);
    let config = chaos_config();
    let one = serve(&specs, &config, 1).unwrap();
    let eight = serve(&specs, &config, 8).unwrap();
    assert_eq!(
        one.report.to_json(),
        eight.report.to_json(),
        "chaotic ServeReport JSON must not depend on the worker count"
    );
    assert_eq!(one.report, eight.report);
    assert_eq!(one.run_reports, eight.run_reports);
    assert_eq!(one.snapshot, eight.snapshot);

    // The schedule actually churned, recovery actually ran, and the
    // clean path quarantined nobody.
    let rep = &one.report;
    assert!(rep.churn_active);
    assert!(
        rep.disconnects() > 0,
        "nobody disconnected: {:?}",
        rep.tenants
    );
    assert!(rep.crashes() > 0, "nobody crashed: {:?}", rep.tenants);
    assert_eq!(rep.reconnects(), rep.disconnects() + rep.crashes());
    assert!(rep.checkpoints_taken() > 0);
    assert!(rep.checkpoint_bytes() > 0);
    assert_eq!(rep.quarantined_tenants(), 0, "clean path");
    // Every tenant — including the crashed and reconnected ones —
    // still finished its whole workload.
    let calm = run(1);
    for (chaos, base) in rep.tenants.iter().zip(&calm.report.tenants) {
        assert!(
            chaos.total_insts >= base.total_insts,
            "tenant {} lost work under chaos",
            chaos.tenant
        );
    }

    // And the whole schedule replays identically from a warm start.
    let warm = calm.snapshot.clone().into_warm_start();
    let warm1 = serve_warm(&specs, &config, 1, &warm).unwrap();
    let warm8 = serve_warm(&specs, &config, 8, &warm).unwrap();
    assert_eq!(
        warm1.report.to_json(),
        warm8.report.to_json(),
        "warm chaotic ServeReport JSON must not depend on the worker count"
    );
    assert_eq!(warm1.report, warm8.report);
    assert_eq!(warm1.run_reports, warm8.run_reports);
    assert_eq!(warm1.snapshot, warm8.snapshot);
    assert!(warm1.report.warm_started && warm1.report.churn_active);
    assert_eq!(warm1.report.quarantined_tenants(), 0);
}

#[test]
fn default_run_exhibits_the_serving_behaviours() {
    let out = run(8);
    let rep = &out.report;

    // All twelve tenants served to completion.
    assert_eq!(rep.tenants.len(), 12);
    for t in &rep.tenants {
        assert!(t.total_insts > 0, "{} never ran", t.workload);
        assert!(t.epochs > 0);
        assert!(t.finished_round >= t.admitted_round);
    }

    // The active set actually filled: >= 8 concurrent tenant sessions
    // over the shared sharded cache.
    assert!(
        rep.queue.peak_active >= 8,
        "peak_active = {}",
        rep.queue.peak_active
    );
    // The bounded queue was exercised.
    assert!(rep.queue.peak_queue_depth > 0);
    assert!(
        rep.queue.deferred_tenant_rounds > 0,
        "twelve arrivals behind a two-slot queue must defer"
    );

    // Shard pressure fired and evicted regions; the evictions surface
    // in tenants' resilience stats exactly like any pressure event.
    assert!(rep.pressure_waves() > 0, "no shard ever overflowed");
    assert!(
        rep.shed_actions() >= rep.pressure_waves(),
        "every wave sheds at least once"
    );
    let evicted: u64 = rep.shards.iter().map(|s| s.evicted_regions).sum();
    let shed: u64 = rep.tenants.iter().map(|t| t.pressure_evicted).sum();
    assert!(evicted > 0);
    assert_eq!(evicted, shed, "shard ledger and tenant ledger agree");
    let resilience: u64 = out
        .run_reports
        .iter()
        .map(|r| r.resilience.pressure_evicted_regions)
        .sum();
    assert_eq!(shed, resilience);

    // Multiple tenants shared shards within single rounds.
    assert!(rep.contended_rounds() > 0, "no shard was ever shared");

    // The policy engine switched selectors — including on gcc, the
    // phase-shifting workload.
    assert!(!rep.switches.is_empty());
    assert!(
        rep.switches.iter().any(|s| s.workload == "gcc"),
        "gcc (phased) never switched"
    );
    // Every switch log entry is attributable to a served tenant.
    for s in &rep.switches {
        assert!((s.tenant as usize) < rep.tenants.len());
        assert_ne!(s.from, s.to, "a switch must change the selector");
    }

    // Throughput is reported in simulated instructions per round.
    assert!(rep.insts_per_round() > 0.0);
    let sum: u64 = rep.tenants.iter().map(|t| t.total_insts).sum();
    assert_eq!(rep.total_insts, sum);
}

#[test]
fn shard_capacity_bounds_hold_at_every_report() {
    // After the final barrier every shard must be at or under budget:
    // pressure waves shed until the shard fits (or nothing is left).
    let out = run(4);
    for s in &out.report.shards {
        assert!(
            s.final_bytes <= out.report.shard_capacity,
            "shard {} closed over budget ({} > {})",
            s.shard,
            s.final_bytes,
            out.report.shard_capacity
        );
    }
}

#[test]
fn json_is_well_formed_enough_to_diff() {
    let rep = run(2).report;
    let json = rep.to_json();
    assert!(json.starts_with("{\n"));
    assert!(json.ends_with("}\n"));
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "balanced braces"
    );
    for key in [
        "\"bench\": \"serve\"",
        "\"rounds\":",
        "\"insts_per_round\":",
        "\"warm_started\": false",
        "\"warm_regions_restored\": 0",
        "\"warm_rejected_tenants\": 0",
        "\"smc_write_ppm\": 0",
        "\"fault_seed\": 0",
        "\"flush_wave_ppm\": 0",
        "\"counter_fault_ppm\": 0",
        "\"churn_active\": false",
        "\"churn_seed\": 0",
        "\"checkpoint_every\": 0",
        "\"shed_arrivals\": 0",
        "\"admission_retries\": 0",
        "\"smc_invalidated_regions\": 0",
        "\"blacklisted_targets\": 0",
        "\"disconnects\": 0",
        "\"reconnects\": 0",
        "\"crashes\": 0",
        "\"recovered_epochs\": 0",
        "\"quarantined_tenants\": 0",
        "\"checkpoints_taken\": 0",
        "\"checkpoint_bytes\": 0",
        "\"quarantined\": false",
        "\"max_dip_depth\":",
        "\"pressure_waves\":",
        "\"shed_actions\":",
        "\"first_exploit_round\":",
        "\"tenants\":",
        "\"shards\":",
        "\"switches\":",
    ] {
        assert!(json.contains(key), "missing {key}");
    }
    // Nothing wall-clock or worker-count shaped may appear.
    assert!(!json.contains("jobs"), "worker count must not leak");
    assert!(!json.contains("_ms"), "wall time must not leak");
}
