//! Tenant-lifecycle properties of the serving scheduler.
//!
//! Random serving configurations — admission limits, a bounded or
//! zero-capacity queue, an admission timeout, periodic checkpoints,
//! seeded churn, a poison pill with or without a retry penalty, and
//! warm or cold reconnects — drive a four-tenant test-scale population
//! through every lifecycle path. Whatever the path, each tenant must be
//! admitted, come back from every departure, and end either finished,
//! having run its whole stream (exactly that stream when nothing was
//! re-executed), or quarantined, which only the poisoned tenant without
//! a retry penalty may be. The queue statistics must account every
//! admission, and the outcome must not depend on the worker count.
//! Debug builds also check every lifecycle transition these runs take
//! against the scheduler's table of legal transitions.

use proptest::prelude::*;
use rsel_runtime::{ChaosConfig, ChurnConfig, ServeConfig, ServeOutcome, TenantSpec, serve};
use rsel_workloads::{Scale, suite};
use std::sync::OnceLock;

/// Four test-scale tenants, recorded once for every case.
fn population() -> &'static [TenantSpec] {
    static SPECS: OnceLock<Vec<TenantSpec>> = OnceLock::new();
    SPECS.get_or_init(|| {
        suite()
            .iter()
            .take(4)
            .map(|w| TenantSpec::record(w, 2005, Scale::Test))
            .collect()
    })
}

/// Checks the per-tenant and run-wide lifecycle laws on one outcome.
fn check_lifecycle(
    out: &ServeOutcome,
    config: &ServeConfig,
    specs: &[TenantSpec],
) -> Result<(), TestCaseError> {
    let report = &out.report;
    let rounds = report.queue.rounds;
    for (t, spec) in report.tenants.iter().zip(specs) {
        let id = t.tenant;
        let stream = spec.stream_stats().instructions;
        prop_assert!(t.admitted, "tenant {id} was never admitted");
        prop_assert!(
            t.finished_round < rounds,
            "tenant {id} ended at round {} of {rounds}",
            t.finished_round
        );
        prop_assert_eq!(
            t.reconnects,
            t.disconnects + t.crashes,
            "tenant {} must come back from every departure",
            id
        );
        prop_assert!(t.quarantine_retries <= 1, "tenant {id} retried twice");
        if t.quarantine_retries > 0 || t.quarantined {
            prop_assert_eq!(
                config.chaos.poison_tenant,
                Some(id),
                "only the poisoned tenant may be quarantined"
            );
        }
        // The pill is one-shot, so a retried tenant always finishes
        // and only a zero penalty leaves a tenant quarantined.
        if t.quarantined {
            prop_assert_eq!(
                config.quarantine_penalty,
                0,
                "tenant {} was never retried",
                id
            );
            continue;
        }
        // Finished: the whole stream ran, and re-execution only adds.
        if t.recovered_epochs == 0 && t.quarantine_retries == 0 {
            prop_assert_eq!(
                t.total_insts,
                stream,
                "tenant {} ran other than its recorded stream",
                id
            );
        } else {
            prop_assert!(t.total_insts >= stream, "tenant {id} did not finish");
        }
    }
    let q = &report.queue;
    prop_assert_eq!(
        q.admissions,
        q.admission_wait_hist.iter().sum::<u64>(),
        "one wait sample per admission"
    );
    prop_assert_eq!(
        report.total_insts,
        report.tenants.iter().map(|t| t.total_insts).sum::<u64>()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn every_tenant_reaches_one_terminal_state(
        max_active in 1usize..=3,
        queue_capacity in 0usize..=2,
        admission_timeout in 0u64..=3,
        checkpoint_every in 0u64..=2,
        churn_seed in 0u64..1_000_000,
        arrival_spread in 0u64..=4,
        max_disconnects in 0u32..=2,
        max_gap in 1u64..=3,
        crash_percent in 0u8..=100,
        poison in 0u16..=4,
        poison_epoch in 0u64..=3,
        quarantine_penalty in 0u64..=3,
        reconnect_cold in any::<bool>(),
    ) {
        let specs = population();
        let config = ServeConfig {
            max_active,
            queue_capacity,
            admission_timeout,
            checkpoint_every,
            churn: ChurnConfig {
                seed: churn_seed,
                arrival_spread,
                max_disconnects,
                max_gap,
                crash_percent,
            },
            // Tenant 4 does not exist: a fifth of the cases run without
            // a pill.
            chaos: ChaosConfig {
                poison_tenant: (poison < 4).then_some(poison),
                poison_epoch,
            },
            quarantine_penalty,
            reconnect_cold,
            ..ServeConfig::default()
        };
        let one = serve(specs, &config, 1).unwrap();
        check_lifecycle(&one, &config, specs)?;
        let two = serve(specs, &config, 2).unwrap();
        prop_assert_eq!(one.report.to_json(), two.report.to_json());
        prop_assert_eq!(&one.run_reports, &two.run_reports);
        prop_assert_eq!(&one.snapshot, &two.snapshot);
    }
}
