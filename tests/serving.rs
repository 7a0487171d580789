//! Serving-runtime fingerprints: byte-exact goldens for the scheduler.
//!
//! Each scenario serves a test-scale population on one and on two
//! workers, demands the two outcomes be identical, and then pins an
//! fxhash of the outcome — the `ServeReport` JSON, every per-tenant
//! `RunReport`, and the saved `RSNP` snapshot bytes — to a constant.
//! Worker-count identity alone proves determinism; the constants prove
//! the behaviour itself is unchanged, which is what lets a refactor of
//! the serving loop claim it is byte-identical.
//!
//! If a change *means* to alter serving behaviour, re-derive the
//! constant it moves (the failure message prints the new value) and
//! explain the shift in the commit.

use rsel_program::fxhash::FxHasher;
use rsel_runtime::{
    ChaosConfig, ChurnConfig, ServeConfig, ServeOutcome, TenantSpec, save_snapshot, serve,
    serve_warm,
};
use rsel_workloads::{Scale, suite};
use std::hash::Hasher;

const SEED: u64 = 2005;

/// The first `n` suite workloads, recorded at test scale.
fn population(n: usize) -> Vec<TenantSpec> {
    suite()
        .iter()
        .take(n)
        .map(|w| TenantSpec::record(w, SEED, Scale::Test))
        .collect()
}

/// The serve bin's default policy: stream-adaptive explore schedules.
fn adaptive() -> ServeConfig {
    let mut config = ServeConfig::default();
    config.policy.adaptive = true;
    config.policy.epoch_len = config.epoch_len;
    config
}

/// Fingerprints a whole outcome: report JSON, run reports, snapshot.
fn fingerprint(out: &ServeOutcome) -> u64 {
    let mut h = FxHasher::default();
    h.write(out.report.to_json().as_bytes());
    for r in &out.run_reports {
        h.write(format!("{r:?}").as_bytes());
    }
    let mut snap = Vec::new();
    save_snapshot(&out.snapshot, &mut snap).expect("in-memory write");
    h.write(&snap);
    h.finish()
}

/// Serves on 1 and 2 workers through `run`, checks the outcomes are
/// identical, and checks the fingerprint against `golden`.
fn check(name: &str, golden: u64, run: impl Fn(usize) -> ServeOutcome) -> ServeOutcome {
    let one = run(1);
    let two = run(2);
    assert_eq!(one.report.to_json(), two.report.to_json(), "{name}: report");
    assert_eq!(one.run_reports, two.run_reports, "{name}: run reports");
    assert_eq!(one.snapshot, two.snapshot, "{name}: snapshot");
    let got = fingerprint(&one);
    assert_eq!(got, golden, "{name}: fingerprint moved to {got:#018x}");
    one
}

#[test]
fn cold_and_warm_serving_are_pinned() {
    let specs = population(12);
    let config = ServeConfig::default();
    let cold = check("cold", 0x2df8150e7178cedc, |jobs| {
        serve(&specs, &config, jobs).unwrap()
    });
    let warm_start = cold.snapshot.clone().into_warm_start();
    let warm = check("warm", 0x9fc7c02dacf67ce9, |jobs| {
        serve_warm(&specs, &config, jobs, &warm_start).unwrap()
    });
    assert!(warm.report.warm_started && warm.report.warm_regions_restored > 0);
}

#[test]
fn shared_replicas_are_pinned() {
    let specs = TenantSpec::replicate(population(4), 4);
    let config = ServeConfig {
        share: true,
        ..ServeConfig::default()
    };
    let out = check("share x4", 0x089d16b32d09d819, |jobs| {
        serve(&specs, &config, jobs).unwrap()
    });
    assert!(out.report.shared_refs > 0, "replicas must share");
}

#[test]
fn chaos_serving_is_pinned() {
    let specs = population(12);
    let mut config = ServeConfig {
        churn: ChurnConfig {
            seed: SEED,
            arrival_spread: 6,
            max_disconnects: 2,
            max_gap: 3,
            crash_percent: 50,
        },
        checkpoint_every: 2,
        ..adaptive()
    };
    config.sim.faults.seed = SEED;
    config.sim.faults.smc_write_ppm = 200;
    config.sim.faults.flush_wave_ppm = 50;
    let out = check("chaos", 0x0ba1e1712676b639, |jobs| {
        serve(&specs, &config, jobs).unwrap()
    });
    assert!(out.report.reconnects() > 0 && out.report.checkpoints_taken() > 0);
}

#[test]
fn pressured_eviction_is_pinned() {
    let specs = population(12);
    let config = ServeConfig {
        shard_capacity: 512,
        ..adaptive()
    };
    let out = check("pressure", 0x8814d02ac531ced1, |jobs| {
        serve(&specs, &config, jobs).unwrap()
    });
    assert!(out.report.shed_actions() > 0, "the squeeze must squeeze");
}

#[test]
fn quarantine_retry_is_pinned() {
    let specs = population(6);
    let config = ServeConfig {
        chaos: ChaosConfig {
            poison_tenant: Some(1),
            poison_epoch: 2,
        },
        quarantine_penalty: 3,
        ..adaptive()
    };
    let out = check("poison", 0x265872d5fe083aed, |jobs| {
        serve(&specs, &config, jobs).unwrap()
    });
    assert_eq!(out.report.quarantine_retries(), 1);
}

#[test]
fn overload_shedding_is_pinned() {
    let specs = population(12);
    let config = ServeConfig {
        max_active: 2,
        queue_capacity: 1,
        admission_timeout: 2,
        ..ServeConfig::default()
    };
    let out = check("overload", 0x733914325092f667, |jobs| {
        serve(&specs, &config, jobs).unwrap()
    });
    assert!(out.report.queue.shed_arrivals > 0 && out.report.queue.admission_retries > 0);
}
