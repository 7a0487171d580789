//! Mojo is NET with a separate threshold for code-cache exit targets
//! (paper §5). With that threshold set equal to NET's, the two must
//! select exactly the same regions: every suite workload, replayed at
//! test scale, yields equal `RunReport`s apart from the selector name.
//!
//! The check runs under the three configurations
//! `tests/matrix_fingerprint.rs` pins: the default, a 2 KiB bounded
//! cache that flushes, and a schedule of self-modifying-code writes,
//! flush waves and counter faults.

use regionsel::core::select::SelectorKind;
use regionsel::core::{RunReport, SimConfig, Simulator};
use regionsel::program::Executor;
use regionsel::trace::{CompactStream, DecodedStream};
use regionsel::workloads::{Scale, suite};

/// The seed every figure binary uses (`rsel_bench::DEFAULT_SEED`).
const SEED: u64 = 2005;

/// Replays every suite workload through NET and Mojo under `config`
/// with Mojo's exit threshold equal to NET's, and asserts the
/// reports agree once the selector name is cleared.
fn assert_mojo_matches_net(config: SimConfig) {
    let config = SimConfig {
        mojo_exit_threshold: config.net_threshold,
        ..config
    };
    for w in suite() {
        let (program, spec) = w.build(SEED, Scale::Test);
        let compact = CompactStream::record(Executor::new(&program, spec));
        let decoded = DecodedStream::decode(compact, &program);
        let [net, mojo] = [SelectorKind::Net, SelectorKind::Mojo].map(|kind| {
            let mut sim = Simulator::new(&program, kind.make(&program, &config), &config);
            sim.replay_decoded(&decoded);
            RunReport {
                selector: String::new(),
                ..sim.report()
            }
        });
        assert!(
            !net.regions.is_empty(),
            "{}: NET selected nothing",
            w.name()
        );
        assert_eq!(net, mojo, "{}: Mojo diverged from NET", w.name());
    }
}

#[test]
fn mojo_at_the_net_threshold_is_net() {
    assert_mojo_matches_net(SimConfig::default());
    assert_mojo_matches_net(SimConfig {
        cache_capacity: Some(2048),
        ..SimConfig::default()
    });
    let mut faulted = SimConfig::default();
    faulted.faults.seed = SEED;
    faulted.faults.smc_write_ppm = 200;
    faulted.faults.flush_wave_ppm = 50;
    faulted.faults.counter_fault_ppm = 100;
    assert_mojo_matches_net(faulted);
}
