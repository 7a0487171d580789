//! Golden tests for the record-once/replay-many pipeline: replaying a
//! compact recording must be indistinguishable — bit-for-bit at the
//! `RunReport` level — from re-executing the workload live, and the
//! parallel matrix must equal the serial matrix cell for cell.

use rsel_bench::harness::{replay, run_matrix_serial_live, run_matrix_with_jobs, run_one};
use rsel_core::SimConfig;
use rsel_core::select::SelectorKind;
use rsel_core::sim::faults::FaultConfig;
use rsel_runtime::TenantSpec;
use rsel_workloads::{Scale, suite};

/// A fault schedule aggressive enough to fire at Test scale.
fn faulty_config() -> SimConfig {
    SimConfig {
        faults: FaultConfig {
            seed: 77,
            smc_write_ppm: 2_000,
            flush_wave_ppm: 1_000,
            counter_fault_ppm: 1_000,
            ..FaultConfig::default()
        },
        ..SimConfig::default()
    }
}

#[test]
fn replay_equals_live_for_every_selector() {
    let cfg = SimConfig::default();
    let workloads = suite();
    for w in workloads.iter().take(3) {
        let rec = TenantSpec::record(w, 2005, Scale::Test);
        for kind in SelectorKind::extended() {
            let live = run_one(w, kind, 2005, Scale::Test, &cfg);
            let replayed = replay(&rec, kind, &cfg);
            assert_eq!(replayed, live, "{} under {kind}", w.name());
        }
    }
}

#[test]
fn replay_equals_live_with_fault_injection() {
    let cfg = faulty_config();
    let w = &suite()[0];
    let rec = TenantSpec::record(w, 2005, Scale::Test);
    for kind in SelectorKind::extended() {
        let live = run_one(w, kind, 2005, Scale::Test, &cfg);
        let replayed = replay(&rec, kind, &cfg);
        assert_eq!(replayed, live, "{} under {kind} with faults", w.name());
    }
}

#[test]
fn parallel_matrix_equals_serial_matrix() {
    let cfg = SimConfig::default();
    let kinds = SelectorKind::extended();
    let serial = run_matrix_serial_live(&kinds, 2005, Scale::Test, &cfg);
    let parallel = run_matrix_with_jobs(&kinds, 2005, Scale::Test, &cfg, 4);
    assert_eq!(serial.workloads(), parallel.workloads());
    for &w in serial.workloads() {
        for &k in &kinds {
            assert_eq!(serial.report(w, k), parallel.report(w, k), "{w} {k}");
        }
    }
}

#[test]
fn parallel_matrix_equals_serial_matrix_under_faults() {
    let cfg = faulty_config();
    let kinds = [SelectorKind::Net, SelectorKind::Lei, SelectorKind::Adore];
    let serial = run_matrix_serial_live(&kinds, 2005, Scale::Test, &cfg);
    let parallel = run_matrix_with_jobs(&kinds, 2005, Scale::Test, &cfg, 3);
    for &w in serial.workloads() {
        for &k in &kinds {
            assert_eq!(serial.report(w, k), parallel.report(w, k), "{w} {k}");
        }
    }
}
