//! Ablation: sensitivity of LEI to its two parameters — the history
//! buffer size (paper uses 500, "small enough to require little memory
//! but large enough to capture very long cycles", §3.2) and the cycle
//! threshold `T_cyc` (35).
//!
//! Reports the LEI/NET region-transition ratio and LEI hit rate per
//! setting, aggregated over the suite.

use rsel_bench::{DEFAULT_SEED, geomean, run_matrix, scale_or_exit};
use rsel_core::SimConfig;
use rsel_core::select::SelectorKind;
use rsel_workloads::Scale;

fn main() {
    let scale = scale_or_exit(Scale::Full);
    println!("## Ablation: LEI parameter sensitivity (aggregates over the suite)\n");
    println!(
        "{:>8}  {:>6}  {:>12}  {:>9}  {:>8}",
        "buffer", "T_cyc", "trans./NET", "hit rate", "regions"
    );
    for (history, threshold) in [
        (50usize, 35u32),
        (200, 35),
        (500, 35),
        (2000, 35),
        (500, 10),
        (500, 50),
        (500, 100),
    ] {
        let config = SimConfig {
            history_size: history,
            lei_threshold: threshold,
            ..SimConfig::default()
        };
        let m = run_matrix(
            &[SelectorKind::Net, SelectorKind::Lei],
            DEFAULT_SEED,
            scale,
            &config,
        );
        let mut ratios = Vec::new();
        let mut hits = Vec::new();
        let mut regions = 0usize;
        for &w in m.workloads() {
            let lei = m.report(w, SelectorKind::Lei);
            let net = m.report(w, SelectorKind::Net);
            ratios.push(lei.region_transitions as f64 / net.region_transitions.max(1) as f64);
            hits.push(lei.hit_rate());
            regions += lei.region_count();
        }
        let hit = hits.iter().sum::<f64>() / hits.len() as f64;
        println!(
            "{history:>8}  {threshold:>6}  {:>12.3}  {:>8.2}%  {regions:>8}",
            geomean(&ratios),
            100.0 * hit
        );
    }
    println!("\npaper setting: buffer 500, T_cyc 35");
}
