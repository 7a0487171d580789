//! Extension (paper §4.4, "Effect on Optimization"): opportunities the
//! selected regions offer a downstream optimizer.
//!
//! The paper argues combined regions beat traces for optimization:
//! internal joins allow compensation-free redundancy elimination, and a
//! cycle with an in-region preheader enables loop-invariant code motion
//! that "even a trace that spans a cycle cannot perform ... because it
//! has nowhere outside the cycle to move an instruction". This binary
//! quantifies those opportunities per selector.

use rsel_bench::scale_or_exit;
use rsel_core::metrics::analyze_optimization;
use rsel_core::select::SelectorKind;
use rsel_core::{SimConfig, Simulator};
use rsel_program::Executor;
use rsel_workloads::{Scale, suite};

fn main() {
    let scale = scale_or_exit(Scale::Full);
    let config = SimConfig::default();
    println!("## Extension: optimization opportunities in selected regions (\u{a7}4.4)\n");
    println!(
        "{:<13} {:>8} {:>8} {:>8} {:>8} {:>11}",
        "selector", "regions", "joins", "splits", "cyclic", "hoistable"
    );
    for kind in SelectorKind::all() {
        let mut total = rsel_core::metrics::OptimizationOpportunities::default();
        for w in suite() {
            let (program, spec) = w.build(2005, scale);
            let mut sim = Simulator::new(&program, kind.make(&program, &config), &config);
            sim.run(Executor::new(&program, spec));
            total.merge(&analyze_optimization(sim.cache()));
        }
        println!(
            "{:<13} {:>8} {:>8} {:>8} {:>8} {:>11}",
            kind.name(),
            total.regions,
            total.internal_joins,
            total.internal_splits,
            total.cyclic_regions,
            total.hoistable_cycles
        );
    }
    println!("\npaper: traces have no joins and cannot hoist out of their own");
    println!("cycles; combined regions provide both, and combined LEI most of all.");
}
