//! Property tests for the compact (v2) stream loader's robustness.
//!
//! `load_compact_stream` is fed corrupted inputs — truncations at every
//! possible length and single-bit flips at arbitrary positions — and
//! must always either return a typed [`StreamIoError`] or a stream that
//! is fully valid against the program, every taken-branch source
//! included. It must never panic, and it must never silently yield a
//! *short* stream: a corrupted byte count that drops steps is detected
//! via the trailing-data check.

use proptest::prelude::*;
use rsel_program::{BehaviorSpec, BlockId, Entry, Executor, Program, ProgramBuilder};
use rsel_trace::{CompactStream, load_compact_stream, save_compact_stream};

/// A looping program with conditional, indirect, and return branches,
/// so recorded streams exercise every entry-tag kind.
fn program(seed: u64) -> (Program, BehaviorSpec) {
    let mut b = ProgramBuilder::new();
    let f = b.function("main", 0x1000);
    let head = b.block(f);
    let sw = b.block(f);
    let h1 = b.block(f);
    let h2 = b.block(f);
    let latch = b.block(f);
    let out = b.block_with(f, 0);
    let _ = head;
    b.indirect_jump(sw);
    b.jump(h1, latch);
    b.jump(h2, latch);
    b.cond_branch(latch, head);
    b.ret(out);
    let p = b.build().unwrap();
    let mut spec = BehaviorSpec::new(seed);
    spec.indirect_weighted(
        p.block(sw).branch_addr().unwrap(),
        vec![(p.block(h1).start(), 3), (p.block(h2).start(), 1)],
    );
    spec.loop_trips(p.block(latch).branch_addr().unwrap(), 40);
    (p, spec)
}

fn recorded_bytes(seed: u64) -> (Program, CompactStream, Vec<u8>) {
    let (p, spec) = program(seed);
    let stream = CompactStream::record(Executor::new(&p, spec));
    let mut buf = Vec::new();
    save_compact_stream(&stream, &mut buf).unwrap();
    (p, stream, buf)
}

proptest! {
    /// Every proper prefix of a v2 file is rejected with a typed error;
    /// no truncation parses as a shorter-but-valid stream.
    #[test]
    fn truncation_always_errors(seed in 0u64..50, cut in 0usize..400) {
        let (p, _, buf) = recorded_bytes(seed);
        let cut = cut % buf.len();
        let err = load_compact_stream(&p, &buf[..cut]);
        prop_assert!(err.is_err(), "prefix of {cut} bytes must not parse");
    }

    /// A single flipped bit anywhere in the file never panics the
    /// loader, and whatever parses is fully valid: the same length as
    /// the original and replayable against the program without panics.
    #[test]
    fn bit_flips_error_or_stay_fully_valid(
        seed in 0u64..50,
        byte in 0usize..4096,
        bit in 0u8..8,
    ) {
        let (p, original, mut buf) = recorded_bytes(seed);
        let byte = byte % buf.len();
        buf[byte] ^= 1 << bit;
        match load_compact_stream(&p, buf.as_slice()) {
            Err(_) => {} // typed rejection is always acceptable
            Ok(loaded) => {
                // The flip was in a payload byte the format cannot
                // distinguish from legitimate data (another valid block
                // index, a different branch source). The stream must
                // still be complete and replayable.
                prop_assert_eq!(loaded.len(), original.len(),
                    "accepted stream silently changed length");
                prop_assert_eq!(loaded.replay(&p).count(), original.len());
                // Every taken source it accepts leaves the previous
                // step's block at its terminator.
                let mut prev: Option<BlockId> = None;
                for (i, step) in loaded.replay(&p).enumerate() {
                    if let Entry::Taken { src, .. } = step.entry {
                        let term = prev.map(|b| p.block(b).terminator().addr());
                        prop_assert_eq!(term, Some(src), "misaligned source at step {}", i);
                    }
                    prev = Some(step.block);
                }
            }
        }
    }

    /// Appending garbage after a well-formed stream is detected: a
    /// corrupted count field can never make the loader stop early and
    /// accept the rest as slack.
    #[test]
    fn trailing_bytes_rejected(seed in 0u64..50, extra in 1usize..16) {
        let (p, _, mut buf) = recorded_bytes(seed);
        buf.extend(vec![0u8; extra]);
        let err = load_compact_stream(&p, buf.as_slice());
        prop_assert!(err.is_err(), "trailing {extra} bytes must be rejected");
    }
}

#[test]
fn pristine_file_still_round_trips() {
    let (p, stream, buf) = recorded_bytes(7);
    let loaded = load_compact_stream(&p, buf.as_slice()).unwrap();
    assert_eq!(loaded, stream);
}
