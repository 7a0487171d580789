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
//! If a change *means* to alter selection behaviour, re-derive the
//! constant it moves (the failure message prints the new value) and
//! explain the shift in the commit.

use regionsel::core::select::SelectorKind;
use regionsel::core::{SimConfig, Simulator};
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

#[test]
fn replay_matrix_is_pinned() {
    let config = SimConfig::default();
    let kinds = SelectorKind::extended();
    let mut hashers = [FxHasher::default(); 8];
    for w in suite() {
        let (program, spec) = w.build(SEED, Scale::Test);
        let decoded = DecodedStream::decode(
            CompactStream::record(Executor::new(&program, spec)),
            &program,
        );
        for (h, &kind) in hashers.iter_mut().zip(&kinds) {
            let mut sim = Simulator::new(&program, kind.make(&program, &config), &config);
            sim.replay_decoded(&decoded);
            h.write(format!("{:?}", sim.report()).as_bytes());
        }
    }
    let got: Vec<(SelectorKind, u64)> = kinds
        .iter()
        .zip(&hashers)
        .map(|(&k, h)| (k, h.finish()))
        .collect();
    let moved: Vec<String> = got
        .iter()
        .zip(&GOLDEN)
        .filter(|(g, want)| g != want)
        .map(|((k, v), _)| format!("{k}: {v:#018x}"))
        .collect();
    assert!(moved.is_empty(), "fingerprints moved: {}", moved.join(", "));
}
