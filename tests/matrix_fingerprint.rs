//! Record/replay matrix fingerprints: byte-exact goldens for the
//! selectors.
//!
//! Every suite workload is recorded once at test scale and replayed
//! through each of the eight selectors of `SelectorKind::extended()`,
//! the same 12 × 8 matrix the figure binaries and the `perf` bin run.
//! Each selector's column of `RunReport`s is hashed (fxhash of the
//! `Debug` output, in suite order) and pinned to a constant. Together
//! with the serving fingerprints in `tests/serving.rs`, these let a
//! change to trace formation, combination or the replay loop claim it
//! is byte-identical.
//!
//! The matrix is pinned under three configurations. The default never
//! flushes, invalidates or blacklists, so two more columns reach the
//! recovery paths: a bounded cache small enough to flush, and a fault
//! schedule with self-modifying-code writes, flush waves and counter
//! faults. Each asserts that its paths were actually taken.
//!
//! If a change *means* to alter selection behaviour, re-derive the
//! constant it moves (the failure message prints the new value) and
//! explain the shift in the commit.

use regionsel::core::select::SelectorKind;
use regionsel::core::{RunReport, SimConfig, Simulator};
use regionsel::program::Executor;
use regionsel::program::fxhash::FxHasher;
use regionsel::trace::{CompactStream, DecodedStream};
use regionsel::workloads::{Scale, suite};
use std::hash::Hasher;

/// The seed every figure binary uses (`rsel_bench::DEFAULT_SEED`).
const SEED: u64 = 2005;

/// Per-selector fingerprints of the test-scale matrix.
const GOLDEN: [(SelectorKind, u64); 8] = [
    (SelectorKind::Net, 0x2aed44e75e1c3207),
    (SelectorKind::Lei, 0x220db018949cc770),
    (SelectorKind::CombinedNet, 0x3c9e029c0536673e),
    (SelectorKind::CombinedLei, 0x8396c1cc8463a3d9),
    (SelectorKind::Mojo, 0x1dc0796ca00890d7),
    (SelectorKind::Boa, 0x25829d830cbb58e0),
    (SelectorKind::WigginsRedstone, 0x7d98253c1a7525f6),
    (SelectorKind::Adore, 0x992932fbd1cdd023),
];

/// Per-selector fingerprints under a 2 KiB bounded cache.
const BOUNDED_GOLDEN: [(SelectorKind, u64); 8] = [
    (SelectorKind::Net, 0xe3f54b15882e8273),
    (SelectorKind::Lei, 0x40fc25241d8ff3a9),
    (SelectorKind::CombinedNet, 0xd7e8c15a39232fae),
    (SelectorKind::CombinedLei, 0x496db081b2b6840f),
    (SelectorKind::Mojo, 0xbcc9b29e5525871d),
    (SelectorKind::Boa, 0x0495e509d980aee2),
    (SelectorKind::WigginsRedstone, 0x7d98253c1a7525f6),
    (SelectorKind::Adore, 0x992932fbd1cdd023),
];

/// Per-selector fingerprints under SMC writes, flush waves and
/// counter faults.
const FAULTED_GOLDEN: [(SelectorKind, u64); 8] = [
    (SelectorKind::Net, 0x2962aa9b8012df98),
    (SelectorKind::Lei, 0x4d08ca81fbb27a16),
    (SelectorKind::CombinedNet, 0xa5072b98215118ce),
    (SelectorKind::CombinedLei, 0xf754df4a045fa62f),
    (SelectorKind::Mojo, 0x4f352bb3b9b1ccc9),
    (SelectorKind::Boa, 0x52760aa7bdd06b2d),
    (SelectorKind::WigginsRedstone, 0x9bb2554bfb1f60c7),
    (SelectorKind::Adore, 0x4ab5e556b88d0d80),
];

/// Replays the test-scale matrix under `config`, checks each
/// selector's fingerprint against `golden`, and returns every report.
fn check_matrix(config: &SimConfig, golden: &[(SelectorKind, u64); 8]) -> Vec<RunReport> {
    let kinds = SelectorKind::extended();
    let mut hashers = [FxHasher::default(); 8];
    let mut reports = Vec::new();
    for w in suite() {
        let (program, spec) = w.build(SEED, Scale::Test);
        let decoded = DecodedStream::decode(
            CompactStream::record(Executor::new(&program, spec)),
            &program,
        );
        for (h, &kind) in hashers.iter_mut().zip(&kinds) {
            let mut sim = Simulator::new(&program, kind.make(&program, config), config);
            sim.replay_decoded(&decoded);
            let report = sim.report();
            h.write(format!("{report:?}").as_bytes());
            reports.push(report);
        }
    }
    let got: Vec<(SelectorKind, u64)> = kinds
        .iter()
        .zip(&hashers)
        .map(|(&k, h)| (k, h.finish()))
        .collect();
    let moved: Vec<String> = got
        .iter()
        .zip(golden)
        .filter(|(g, want)| g != want)
        .map(|((k, v), _)| format!("{k}: {v:#018x}"))
        .collect();
    assert!(moved.is_empty(), "fingerprints moved: {}", moved.join(", "));
    reports
}

#[test]
fn replay_matrix_is_pinned() {
    check_matrix(&SimConfig::default(), &GOLDEN);
}

#[test]
fn bounded_cache_matrix_is_pinned() {
    let config = SimConfig {
        cache_capacity: Some(2048),
        ..SimConfig::default()
    };
    let reports = check_matrix(&config, &BOUNDED_GOLDEN);
    assert!(
        reports.iter().any(|r| r.cache_flushes > 0),
        "the bounded cache must flush"
    );
}

#[test]
fn faulted_matrix_is_pinned() {
    let mut config = SimConfig::default();
    config.faults.seed = SEED;
    config.faults.smc_write_ppm = 200;
    config.faults.flush_wave_ppm = 50;
    config.faults.counter_fault_ppm = 100;
    let reports = check_matrix(&config, &FAULTED_GOLDEN);
    let struck = |f: fn(&RunReport) -> u64| reports.iter().map(f).sum::<u64>();
    assert!(
        struck(|r| r.resilience.smc_events) > 0,
        "SMC writes must strike"
    );
    assert!(
        struck(|r| r.resilience.invalidated_regions) > 0,
        "SMC must invalidate"
    );
    assert!(
        struck(|r| r.resilience.flush_waves) > 0,
        "flush waves must strike"
    );
    assert!(
        struck(|r| r.resilience.counter_faults) > 0,
        "counter faults must strike"
    );
    assert!(
        struck(|r| r.resilience.blacklist_hits) > 0,
        "blacklisted selections must be dropped"
    );
}
