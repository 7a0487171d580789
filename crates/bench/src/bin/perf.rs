//! Performance benchmark for the matrix harness: times the record,
//! replay, full-matrix (record-once/replay-many, parallel), and
//! serial-live phases, plus a serial replay of the recorded suite per
//! selector, verifies that replay is report-identical to live execution
//! for every selector, and writes `BENCH_perf.json`.
//!
//! Scale selection follows `RSEL_SCALE` (`test` or `full`); when the
//! variable is unset both scales are measured, and any other value
//! exits with status 1. Worker count follows
//! `RSEL_JOBS`. Exits non-zero if any replayed report diverges from
//! its live counterpart.

use rsel_bench::harness::{
    DEFAULT_SEED, record_suite, replay, replay_matrix, run_matrix_serial_live, run_matrix_with_jobs,
};
use rsel_bench::{jobs_from_env, scale_from_env};
use rsel_core::SimConfig;
use rsel_core::select::SelectorKind;
use rsel_runtime::TenantSpec;
use rsel_workloads::Scale;
use std::time::Instant;

/// Serial-live wall time of the 12 x 8 Test-scale matrix measured at
/// the pre-change commit (before record/replay, parallel fan-out, and
/// the FxHash/dense-table hot paths), mean of 3 runs on the reference
/// container. The acceptance criterion compares the new full-matrix
/// time against this number.
const PRE_CHANGE_SERIAL_LIVE_TEST_MS: f64 = 543.2;

/// Full-scale wall time of the 12 x 8 record/replay matrix measured at
/// the pre-change commit (step-iterator replay, before the
/// decode-once/batch-dispatch/spin-fast-forward engine), on the
/// reference container. The full-scale acceptance criterion compares
/// the new full-matrix time against this number.
const PRE_CHANGE_FULL_MATRIX_FULL_MS: f64 = 7064.4;

struct ScaleResult {
    scale: &'static str,
    workloads: usize,
    selectors: usize,
    record_ms: f64,
    replay_ms: f64,
    replay_ms_by_selector: Vec<(SelectorKind, f64)>,
    full_matrix_ms: f64,
    serial_live_ms: f64,
    stream_bytes: usize,
    stream_steps: usize,
    replay_matches_live: bool,
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Serial wall time of replaying every recorded workload through each
/// selector in turn: where the matrix's replay time goes.
fn replay_by_selector(
    recorded: &[TenantSpec],
    kinds: &[SelectorKind],
    config: &SimConfig,
) -> Vec<(SelectorKind, f64)> {
    kinds
        .iter()
        .map(|&kind| {
            let t = Instant::now();
            for r in recorded {
                std::hint::black_box(replay(r, kind, config));
            }
            (kind, ms(t))
        })
        .collect()
}

fn measure(scale: Scale, name: &'static str, jobs: usize) -> ScaleResult {
    let config = SimConfig::default();
    let kinds = SelectorKind::extended();

    // Full pipeline from scratch (record + replay), as a figure binary
    // would run it. Measured first so it sees the same heap a figure
    // binary does (at Full scale the streams are hundreds of
    // megabytes, and first-touch page faults on a heap already holding
    // a previous copy can inflate the phase by seconds), and taken as
    // the best of two runs so a single host-noise or fault-storm spike
    // cannot distort the committed figure.
    let t = Instant::now();
    let full = run_matrix_with_jobs(&kinds, DEFAULT_SEED, scale, &config, jobs);
    let first_ms = ms(t);
    drop(full);
    let t = Instant::now();
    let full = run_matrix_with_jobs(&kinds, DEFAULT_SEED, scale, &config, jobs);
    let full_matrix_ms = first_ms.min(ms(t));

    let t = Instant::now();
    let recorded = record_suite(DEFAULT_SEED, scale);
    let record_ms = ms(t);
    let stream_bytes: usize = recorded.iter().map(|r| r.stream().byte_size()).sum();
    let stream_steps: usize = recorded.iter().map(|r| r.stream().len()).sum();

    let t = Instant::now();
    let replayed = replay_matrix(&recorded, &kinds, &config, jobs);
    let replay_ms = ms(t);
    let replay_ms_by_selector = replay_by_selector(&recorded, &kinds, &config);

    // The old pipeline: every cell re-executed live, serially.
    let t = Instant::now();
    let serial = run_matrix_serial_live(&kinds, DEFAULT_SEED, scale, &config);
    let serial_live_ms = ms(t);

    let mut replay_matches_live = true;
    for &w in serial.workloads() {
        for &k in &kinds {
            if serial.report(w, k) != replayed.report(w, k)
                || serial.report(w, k) != full.report(w, k)
            {
                eprintln!("DIVERGENCE: {w} under {k}: replay != live");
                replay_matches_live = false;
            }
        }
    }

    ScaleResult {
        scale: name,
        workloads: serial.workloads().len(),
        selectors: kinds.len(),
        record_ms,
        replay_ms,
        replay_ms_by_selector,
        full_matrix_ms,
        serial_live_ms,
        stream_bytes,
        stream_steps,
        replay_matches_live,
    }
}

fn json_scale(r: &ScaleResult, out: &mut String) {
    out.push_str("    {\n");
    out.push_str(&format!("      \"scale\": \"{}\",\n", r.scale));
    out.push_str(&format!("      \"workloads\": {},\n", r.workloads));
    out.push_str(&format!("      \"selectors\": {},\n", r.selectors));
    out.push_str(&format!("      \"record_ms\": {:.1},\n", r.record_ms));
    out.push_str(&format!("      \"replay_ms\": {:.1},\n", r.replay_ms));
    let by_selector: Vec<String> = r
        .replay_ms_by_selector
        .iter()
        .map(|(k, ms)| format!("\"{k}\": {ms:.1}"))
        .collect();
    out.push_str(&format!(
        "      \"replay_ms_by_selector\": {{{}}},\n",
        by_selector.join(", ")
    ));
    out.push_str(&format!(
        "      \"full_matrix_ms\": {:.1},\n",
        r.full_matrix_ms
    ));
    out.push_str(&format!(
        "      \"serial_live_ms\": {:.1},\n",
        r.serial_live_ms
    ));
    out.push_str(&format!("      \"stream_steps\": {},\n", r.stream_steps));
    out.push_str(&format!("      \"stream_bytes\": {},\n", r.stream_bytes));
    out.push_str(&format!(
        "      \"speedup_vs_serial_live\": {:.2},\n",
        r.serial_live_ms / r.full_matrix_ms
    ));
    if r.scale == "test" {
        out.push_str(&format!(
            "      \"baseline_serial_live_ms\": {PRE_CHANGE_SERIAL_LIVE_TEST_MS:.1},\n"
        ));
        out.push_str(
            "      \"baseline_source\": \"pre-change serial pipeline, mean of 3 runs on the same container\",\n",
        );
        out.push_str(&format!(
            "      \"speedup_vs_baseline\": {:.2},\n",
            PRE_CHANGE_SERIAL_LIVE_TEST_MS / r.full_matrix_ms
        ));
    } else if r.scale == "full" {
        out.push_str(&format!(
            "      \"baseline_full_matrix_ms\": {PRE_CHANGE_FULL_MATRIX_FULL_MS:.1},\n"
        ));
        out.push_str(
            "      \"baseline_source\": \"pre-change step-iterator record/replay matrix on the same container\",\n",
        );
        out.push_str(&format!(
            "      \"speedup_vs_baseline\": {:.2},\n",
            PRE_CHANGE_FULL_MATRIX_FULL_MS / r.full_matrix_ms
        ));
    }
    out.push_str(&format!(
        "      \"replay_matches_live\": {}\n",
        r.replay_matches_live
    ));
    out.push_str("    }");
}

fn main() {
    let jobs = jobs_from_env();
    let scales: Vec<(Scale, &'static str)> = match scale_from_env() {
        Ok(Some(Scale::Test)) => vec![(Scale::Test, "test")],
        Ok(Some(Scale::Full)) => vec![(Scale::Full, "full")],
        Ok(None) => vec![(Scale::Test, "test"), (Scale::Full, "full")],
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    let mut results = Vec::new();
    for &(scale, name) in &scales {
        eprintln!("measuring {name} scale ({jobs} jobs)...");
        let r = measure(scale, name, jobs);
        eprintln!(
            "  record {:.1} ms, replay {:.1} ms, full matrix {:.1} ms, serial live {:.1} ms ({:.2}x)",
            r.record_ms,
            r.replay_ms,
            r.full_matrix_ms,
            r.serial_live_ms,
            r.serial_live_ms / r.full_matrix_ms
        );
        results.push(r);
    }

    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"perf\",\n");
    out.push_str(&format!("  \"seed\": {DEFAULT_SEED},\n"));
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    out.push_str("  \"scales\": [\n");
    for (i, r) in results.iter().enumerate() {
        json_scale(r, &mut out);
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");

    std::fs::write("BENCH_perf.json", &out).expect("write BENCH_perf.json");
    println!("{out}");

    if results.iter().any(|r| !r.replay_matches_live) {
        eprintln!("FAIL: replayed reports diverge from live execution");
        std::process::exit(1);
    }
}
