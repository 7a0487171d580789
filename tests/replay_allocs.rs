//! Heap allocations of a recycled replay do not grow with the number of
//! spin phases.
//!
//! The spin fast-forward runs once per detected spin phase. Its working
//! buffers live in [`ReplayScratch`], so once a scratch has been through
//! one run, replaying a program with ten short spin phases or a thousand
//! of them must allocate exactly the same: every allocation left belongs
//! to building the simulator, its selector and its regions, none to the
//! phases.
//!
//! A counting global allocator tallies allocations per thread, because
//! test threads run in parallel.

use regionsel::core::select::SelectorKind;
use regionsel::core::{ReplayScratch, SimConfig, Simulator};
use regionsel::program::Executor;
use regionsel::program::patterns::ScenarioBuilder;
use regionsel::trace::{CompactStream, DecodedStream};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// This thread's `(allocations, bytes)` so far.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    // `try_with` stays silent while the thread tears down.
    let _ = ALLOCATED.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the bookkeeping touches only a thread-local counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocated() -> (u64, u64) {
    ALLOCATED.with(Cell::get)
}

/// An outer loop of `outer` iterations around a short inner loop: one
/// spin phase per outer iteration.
fn spin_program(outer: u32) -> (regionsel::program::Program, DecodedStream) {
    let mut s = ScenarioBuilder::new(5);
    let f = s.function("main", 0x1000);
    let head = s.block(f, 1);
    s.counted_loop(f, 2, 40);
    let latch = s.block(f, 1);
    s.branch_trips(latch, head, outer);
    let done = s.block(f, 0);
    s.ret(done);
    let (p, spec) = s.build().unwrap();
    let stream = CompactStream::record(Executor::new(&p, spec));
    let decoded = DecodedStream::decode(stream, &p);
    (p, decoded)
}

/// Allocations `(count, bytes)` of one replay on a recycled scratch,
/// after a first replay has grown the scratch's buffers.
fn replay_allocations(outer: u32) -> (u64, u64) {
    // A low threshold settles selection within the first outer
    // iterations, so both programs select the same regions.
    let cfg = SimConfig {
        net_threshold: 2,
        ..SimConfig::default()
    };
    let (p, decoded) = spin_program(outer);
    assert!(
        decoded.phases().len() >= outer as usize,
        "each outer iteration presents a spin phase"
    );
    let mut scratch = ReplayScratch::default();
    for _ in 0..2 {
        let mut sim = Simulator::recycled(&p, SelectorKind::Net.make(&p, &cfg), &cfg, scratch);
        sim.replay_decoded(&decoded);
        scratch = sim.into_scratch();
    }
    let before = allocated();
    let mut sim = Simulator::recycled(&p, SelectorKind::Net.make(&p, &cfg), &cfg, scratch);
    sim.replay_decoded(&decoded);
    drop(sim.into_scratch());
    let after = allocated();
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn spin_phases_do_not_allocate() {
    let few = replay_allocations(10);
    let many = replay_allocations(1_000);
    assert!(few.0 > 0, "the counter sees the simulator being built");
    assert_eq!(
        few, many,
        "(allocations, bytes) with 10 vs 1000 spin phases"
    );
}
