//! Extension: resilience under a deterministic fault schedule.
//!
//! Sweeps seeded fault rates — self-modifying-code writes that
//! invalidate overlapping regions, cache-pressure flush waves, and
//! profiling-counter corruption — across every selector, reporting how
//! much cache residency survives, how often invalidated regions
//! reform, and how many thrashing targets get blacklisted.
//!
//! All schedules derive from `FaultConfig::seed`, so every line of
//! this table is exactly reproducible.

use rsel_bench::scale_or_exit;
use rsel_core::cache::code_cache::INDEX_PAGE_BYTES;
use rsel_core::select::SelectorKind;
use rsel_core::{CodeCache, FaultConfig, Region, SimConfig, Simulator};
use rsel_program::{Addr, Executor, ProgramBuilder};
use rsel_workloads::{Scale, suite};
use std::time::Instant;

struct Sweep {
    label: &'static str,
    faults: FaultConfig,
}

fn sweeps() -> Vec<Sweep> {
    let base = FaultConfig {
        seed: 2005,
        ..FaultConfig::default()
    };
    vec![
        Sweep {
            label: "none",
            faults: base.clone(),
        },
        Sweep {
            label: "smc-low",
            faults: FaultConfig {
                smc_write_ppm: 20,
                ..base.clone()
            },
        },
        Sweep {
            label: "smc-high",
            faults: FaultConfig {
                smc_write_ppm: 200,
                ..base.clone()
            },
        },
        Sweep {
            label: "pressure",
            faults: FaultConfig {
                flush_wave_ppm: 100,
                ..base.clone()
            },
        },
        Sweep {
            label: "counters",
            faults: FaultConfig {
                counter_fault_ppm: 1_000,
                ..base.clone()
            },
        },
        Sweep {
            label: "combined",
            faults: FaultConfig {
                smc_write_ppm: 50,
                flush_wave_ppm: 50,
                counter_fault_ppm: 500,
                ..base
            },
        },
    ]
}

fn main() {
    let scale = scale_or_exit(Scale::Full);
    println!("## Extension: resilience under faults (suite totals per schedule)\n");
    println!(
        "{:>9}  {:<13} {:>8} {:>7} {:>7} {:>7} {:>7} {:>9} {:>9}",
        "schedule",
        "selector",
        "faults",
        "inval",
        "reform",
        "evict",
        "blist",
        "hit rate",
        "under flt"
    );
    for sweep in sweeps() {
        for kind in SelectorKind::extended() {
            let config = SimConfig {
                faults: sweep.faults.clone(),
                ..SimConfig::default()
            };
            let mut events = 0u64;
            let mut invalidated = 0u64;
            let mut reformed = 0u64;
            let mut evicted = 0u64;
            let mut blacklisted = 0u64;
            let mut cache_insts = 0u64;
            let mut total_insts = 0u64;
            let mut under_cache = 0u64;
            let mut under_total = 0u64;
            for w in suite() {
                let (program, spec) = w.build(2005, scale);
                let mut sim = Simulator::new(&program, kind.make(&program, &config), &config);
                sim.run(Executor::new(&program, spec));
                let r = sim.report();
                let res = &r.resilience;
                events += res.fault_events();
                invalidated += res.invalidated_regions;
                reformed += res.reformations;
                evicted += res.pressure_evicted_regions;
                blacklisted += res.blacklisted_targets;
                cache_insts += r.cache_insts;
                total_insts += r.total_insts;
                if let (Some(t0), Some(c0)) = (
                    res.total_insts_at_first_fault,
                    res.cache_insts_at_first_fault,
                ) {
                    under_total += r.total_insts - t0;
                    under_cache += r.cache_insts - c0;
                }
            }
            let hit = 100.0 * cache_insts as f64 / total_insts.max(1) as f64;
            let under = if under_total == 0 {
                "-".to_string()
            } else {
                format!("{:>8.2}%", 100.0 * under_cache as f64 / under_total as f64)
            };
            println!(
                "{:>9}  {:<13} {events:>8} {invalidated:>7} {reformed:>7} {evicted:>7} \
                 {blacklisted:>7} {hit:>8.2}% {under:>9}",
                sweep.label,
                kind.name(),
            );
        }
        println!();
    }
    println!("reading the table: selectors recover from SMC invalidation by");
    println!("re-selecting the hot region (reform tracks inval); pressure waves");
    println!("evict without blaming targets, so nothing is blacklisted; only");
    println!("repeatedly-invalidated entries are demoted, and the 'under flt'");
    println!("column shows the hit rate measured from the first fault onward.");

    invalidation_cost_microbench();
}

/// Microbenchmark: resolving an SMC write's doomed-region set via the
/// page index vs. the retained linear scan, as the live-region count
/// grows. The indexed query touches O(pages dirtied) buckets, so its
/// cost stays flat; the scan is linear in the live population. Wall
/// times vary by machine — the *ratio trend* is the result.
fn invalidation_cost_microbench() {
    // Wall-clock numbers go to stderr, keeping stdout byte-identical
    // across reruns (the determinism probe diffs two stdout captures).
    eprintln!("\n## Invalidation cost: page index vs. full scan (64 B SMC writes)\n");
    eprintln!(
        "{:>8} {:>12} {:>12} {:>9}",
        "regions", "scan ns/op", "index ns/op", "speedup"
    );
    const SPACING: u64 = 64;
    const BASE: u64 = 0x10_0000;
    const QUERIES: u64 = 20_000;
    for &n in &[1024usize, 4096, 16384] {
        // `n` live single-block regions at 64-byte spacing: one index
        // page holds ~8 of them, and a 64 B write spans at most two
        // pages regardless of `n`.
        let mut b = ProgramBuilder::new();
        for i in 0..n {
            let f = b.function(&format!("f{i}"), BASE + (i as u64) * SPACING);
            let blk = b.block_with(f, 1);
            b.ret(blk);
        }
        let p = b.build().expect("disjoint leaf functions are well-formed");
        let mut cache = CodeCache::new();
        for blk in p.blocks() {
            cache.insert(Region::trace(&p, &[blk.start()]));
        }
        let span = SPACING; // one simulated SMC write's dirty range
        let query = |i: u64| {
            // Stride through the population so every query is a miss
            // or near-miss somewhere different (defeats branch/cache
            // warm-up favouring either side).
            let lo = BASE + (i * 8_191) % (n as u64 * SPACING);
            (Addr::new(lo), Addr::new(lo + span))
        };
        let timed = |f: &dyn Fn(Addr, Addr) -> usize| {
            let mut hits = 0usize;
            let t = Instant::now();
            for i in 0..QUERIES {
                let (lo, hi) = query(i);
                hits += f(lo, hi);
            }
            (t.elapsed().as_nanos() as f64 / QUERIES as f64, hits)
        };
        let (scan_ns, scan_hits) = timed(&|lo, hi| cache.regions_overlapping_scan(lo, hi).len());
        let (index_ns, index_hits) = timed(&|lo, hi| cache.regions_overlapping(lo, hi).len());
        assert_eq!(scan_hits, index_hits, "the index must agree with the scan");
        eprintln!(
            "{n:>8} {scan_ns:>12.0} {index_ns:>12.0} {:>8.1}x",
            scan_ns / index_ns.max(1.0)
        );
    }
    eprintln!("\n(64 B writes touch at most 2 of the {INDEX_PAGE_BYTES} B index pages,");
    eprintln!("so indexed resolution cost is flat in the live-region count.)");
}
