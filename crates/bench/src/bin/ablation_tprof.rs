//! Ablation (paper footnote 8): trace combination with `T_prof = 5`,
//! `T_min = 2` instead of the default 15/5.
//!
//! The paper: "setting T_prof = 5 and T_min = 2 results in smaller but
//! similar improvements" — combination remains effective with far fewer
//! observations.

use rsel_bench::{DEFAULT_SEED, Table, geomean, run_matrix, scale_or_exit};
use rsel_core::SimConfig;
use rsel_core::select::SelectorKind;
use rsel_workloads::Scale;

fn main() {
    let scale = scale_or_exit(Scale::Full);
    let kinds = [SelectorKind::Net, SelectorKind::CombinedNet];
    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    let mut per_setting = Vec::new();
    for (t_prof, t_min) in [(15u32, 5u32), (5, 2)] {
        let config = SimConfig {
            t_prof,
            t_min,
            ..SimConfig::default()
        };
        eprintln!("running T_prof={t_prof}, T_min={t_min}...");
        let m = run_matrix(&kinds, DEFAULT_SEED, scale, &config);
        let mut ratios = Vec::new();
        for &w in m.workloads() {
            let r = m.report(w, SelectorKind::CombinedNet).region_transitions as f64
                / m.report(w, SelectorKind::Net).region_transitions.max(1) as f64;
            ratios.push(r);
            match rows.iter_mut().find(|(n, _)| n == w) {
                Some((_, v)) => v.push(r),
                None => rows.push((w.to_string(), vec![r])),
            }
        }
        per_setting.push(geomean(&ratios));
    }
    let mut t = Table::new(
        "Ablation: cNET/NET region transitions by (T_prof, T_min)",
        &["(15,5)", "(5,2)"],
    );
    for (name, vals) in &rows {
        t.row(name, vals);
    }
    print!("{}", t.render());
    println!(
        "\ngeomeans: (15,5) {:.2}, (5,2) {:.2} — paper: smaller but similar improvements",
        per_setting[0], per_setting[1]
    );
}
