//! Extension (paper §2.3): behaviour under a *bounded* code cache.
//!
//! "Our region-selection algorithms should help improve the performance
//! of dynamic optimization systems with bounded code caches, because
//! our algorithms reduce code duplication and produce fewer cached
//! regions. This improves memory performance, reduces the overhead of
//! cache management, and regenerates fewer evicted regions. Detailed
//! investigation of these effects, however, is outside the scope of
//! this paper."
//!
//! This binary performs that investigation: the cache flushes entirely
//! when full (Dynamo's policy) and we sweep the capacity, counting
//! flushes, regions regenerated, and the hit rate for each selector.

use rsel_bench::scale_or_exit;
use rsel_core::select::SelectorKind;
use rsel_core::{SimConfig, Simulator};
use rsel_program::Executor;
use rsel_workloads::{Scale, suite};

fn main() {
    let scale = scale_or_exit(Scale::Full);
    println!("## Extension: bounded code cache (suite totals per capacity)\n");
    println!(
        "{:>9}  {:<13} {:>8} {:>9} {:>9}",
        "capacity", "selector", "flushes", "regions", "hit rate"
    );
    for capacity in [2_000u64, 6_000, 20_000] {
        for kind in SelectorKind::all() {
            let config = SimConfig {
                cache_capacity: Some(capacity),
                ..SimConfig::default()
            };
            let mut flushes = 0u64;
            let mut regions = 0usize;
            let mut cache_insts = 0u64;
            let mut total_insts = 0u64;
            for w in suite() {
                let (program, spec) = w.build(2005, scale);
                let mut sim = Simulator::new(&program, kind.make(&program, &config), &config);
                sim.run(Executor::new(&program, spec));
                let r = sim.report();
                flushes += r.cache_flushes;
                regions += r.region_count();
                cache_insts += r.cache_insts;
                total_insts += r.total_insts;
            }
            println!(
                "{capacity:>8}B  {:<13} {flushes:>8} {regions:>9} {:>8.2}%",
                kind.name(),
                100.0 * cache_insts as f64 / total_insts as f64
            );
        }
        println!();
    }
    println!("paper's prediction: selectors that select fewer regions (LEI, and");
    println!("especially the combined selectors) regenerate fewer regions at the");
    println!("same capacity. Note the flush *count* can cut both ways: LEI's");
    println!("individual regions are larger, so at very small capacities a");
    println!("flush-everything policy fires more often even though far fewer");
    println!("regions are regenerated overall.");
}
