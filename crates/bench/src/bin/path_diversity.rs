//! Workload characterization: hot-path diversity (paper §1).
//!
//! "As shown by Ball and Larus, the number of paths that comprise 90%
//! of execution in modern commercial software is often one to two
//! orders of magnitude greater than in the standard benchmark programs
//! used to develop NET. As the number of related paths grows, the
//! extent of trace separation and the amount of code duplication grow
//! with it."
//!
//! This binary validates the synthetic suite's design: gzip/bzip2-style
//! workloads concentrate execution in a handful of paths, while the
//! gcc/vortex-style workloads spread it over many.

use rsel_bench::scale_or_exit;
use rsel_core::select::SelectorKind;
use rsel_core::{SimConfig, Simulator};
use rsel_program::Executor;
use rsel_trace::PathProfile;
use rsel_workloads::{Scale, suite};

const PATH_LEN: usize = 8;
const SAMPLE_STEPS: usize = 2_000_000;

fn main() {
    let scale = scale_or_exit(Scale::Full);
    println!("## Workload characterization: {PATH_LEN}-block hot-path diversity\n");
    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>14}",
        "workload", "paths", "90% paths", "99% paths", "LEI/NET trans"
    );
    let config = SimConfig::default();
    for w in suite() {
        let (program, spec) = w.build(2005, scale);
        let steps: Vec<_> = Executor::new(&program, spec).take(SAMPLE_STEPS).collect();
        let prof = PathProfile::collect(PATH_LEN, &steps);
        // Pair the diversity number with the LEI/NET transition ratio
        // to show the paper's claim: more paths, more separation for a
        // single-path selector to suffer from.
        let ratio = {
            let mut out = [0f64; 2];
            for (i, kind) in [SelectorKind::Net, SelectorKind::Lei].iter().enumerate() {
                let (program, spec) = w.build(2005, scale);
                let mut sim = Simulator::new(&program, kind.make(&program, &config), &config);
                sim.run(Executor::new(&program, spec));
                out[i] = sim.report().region_transitions as f64;
            }
            out[1] / out[0].max(1.0)
        };
        println!(
            "{:<10} {:>10} {:>12} {:>12} {:>14.2}",
            w.name(),
            prof.distinct(),
            prof.hot_path_count(0.9),
            prof.hot_path_count(0.99),
            ratio
        );
    }
    println!("\npaper: path-rich programs (gcc, vortex) are where separation and");
    println!("duplication bite; path-poor ones (gzip, bzip2) have tiny hot sets.");
}
