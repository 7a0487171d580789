//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <matrix|serve_replicas|serve_chaos> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run records the twelve-workload suite at several seeds derived
//! from `--seed` (the set-up), then repeats one operation until
//! `--seconds` of wall time have passed, checking every result against
//! an independently computed reference. The last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end figures;
//! with `--trace 1` they are the layer-by-layer ledger, taken with a
//! span around each call the benchmark makes into a layer.
//!
//! Workloads:
//!
//! - `matrix` — the record/replay matrix: every recorded suite program
//!   replayed through all eight selectors. Exercises the simulator's
//!   replay loop and the selectors; bypasses the serving runtime.
//! - `serve_replicas` — four replicas of each recorded program served
//!   through the content-addressed shared region store. Exercises the
//!   scheduler, the barrier, the policy engine and deduplication, with
//!   no faults and no churn.
//! - `serve_chaos` — every recorded program served once under seeded
//!   churn (staggered arrivals, disconnects, crashes recovered from
//!   checkpoints) plus self-modifying-code and flush-wave faults.
//!   Exercises the failure domain, checkpointing, pressure eviction and
//!   the fault injector, which also turns off the spin fast-forward.
//!
//! Timings are wall-clock on one worker thread. The host these figures
//! come from is shared: its speed drops by up to ~1.7x for seconds at a
//! time, so the end-to-end operation time is the 5th percentile of a
//! run's operations, which lands in the host's undisturbed state as
//! long as that state holds for a twentieth of the run.

use rsel_bench::harness::{RecordedWorkload, record_suite, replay_matrix, run_matrix_serial_live};
use rsel_core::{RunReport, SelectorKind, SimConfig, Simulator};
use rsel_program::Executor;
use rsel_runtime::{
    ChurnConfig, ServeConfig, ServeOutcome, ServeReport, TenantSession, TenantSpec, serve,
    tenant_fault_seed,
};
use rsel_trace::{CompactStream, DecodedStream};
use rsel_workloads::{Scale, suite};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Input size: the test scale (~10^5 executed blocks per program)
/// keeps one operation well under a second, so a run holds enough
/// operations for a steady percentile.
const SCALE: Scale = Scale::Test;

/// Suite populations recorded per run (see [`input_seeds`]).
const INPUT_SETS: u64 = 8;

/// Worker threads for the timed operations. One, because the host has
/// two cores shared with other machines: a second worker's stalls hold
/// every round's barrier and add more noise than signal.
const WORKERS: usize = 1;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: u32 = 9;

/// Churn and fault seed of `serve_chaos`. Fixed, unlike the programs:
/// a serve's chaos schedule moves its cost per instruction by ~10% as
/// a whole (one early crash reshapes the queue for everyone after it),
/// which no number of tenants averages out.
const CHAOS_SEED: u64 = 2005;

/// Replicas of each recorded program in `serve_replicas`.
const REPLICAS: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Matrix,
    ServeReplicas,
    ServeChaos,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "matrix" => Workload::Matrix,
                    "serve_replicas" => Workload::ServeReplicas,
                    "serve_chaos" => Workload::ServeChaos,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if s > 0 => seconds = Some(s),
                _ => {
                    return Err(format!(
                        "--seconds must be a positive integer, got {value:?}"
                    ));
                }
            },
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The suite seeds of one run, derived from `--seed` by SplitMix64, so
/// a run averages over several program populations instead of resting
/// on one draw.
fn input_seeds(seed: u64) -> Vec<u64> {
    (0..INPUT_SETS)
        .map(|i| {
            let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile of `values`, which must be non-empty.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Repeats `op` until `seconds` of wall time have passed, at least
/// once; `op` reports whether its result was correct. Between
/// operations it calls `setup` until the run has set up [`SETUP_REPS`]
/// times (counting the set-up before the run): once after the first
/// operation, the rest spread evenly over the run, so the set-up
/// samples the host in the same states the operations do. Returns the
/// operations attempted and failed.
fn repeat(
    seconds: u64,
    samples: &mut Samples,
    mut setup: impl FnMut(&mut Samples),
    mut op: impl FnMut(&mut Samples) -> Result<bool, String>,
) -> Result<(u64, u64), String> {
    let start = Instant::now();
    let run = Duration::from_secs(seconds);
    let (mut attempted, mut failed, mut setups) = (0, 0, 1u32);
    while attempted == 0 || start.elapsed() < run {
        attempted += 1;
        if !op(samples)? {
            failed += 1;
        }
        if setups < SETUP_REPS && start.elapsed() >= run * (setups - 1) / (SETUP_REPS - 1) {
            setup(samples);
            setups += 1;
        }
    }
    Ok((attempted, failed))
}

/// Wall time of `f` in seconds; its result is dropped afterwards.
fn time_s<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    let out = f();
    let s = t.elapsed().as_secs_f64();
    drop(out);
    s
}

/// What a run samples, one entry per set-up or operation: with
/// tracing off the set-up and operation times, with tracing on the
/// layer spans (in milliseconds).
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    op_ms: Vec<f64>,
    build: Vec<f64>,
    record: Vec<f64>,
    decode: Vec<f64>,
    op: Vec<f64>,
    replay: Vec<f64>,
    report: Vec<f64>,
    other: Vec<f64>,
}

impl Samples {
    /// One set-up pass with a span around each layer: program
    /// construction, recording through the executor, and decoding.
    fn traced_setup(&mut self, seeds: &[u64]) {
        let mut spans = [Duration::ZERO; 3];
        for &seed in seeds {
            for w in suite() {
                let t = Instant::now();
                let (program, spec) = w.build(seed, SCALE);
                spans[0] += t.elapsed();
                let t = Instant::now();
                let stream = CompactStream::record(Executor::new(&program, spec));
                spans[1] += t.elapsed();
                let t = Instant::now();
                drop(DecodedStream::decode(stream, &program));
                spans[2] += t.elapsed();
            }
        }
        self.build.push(ms(spans[0]));
        self.record.push(ms(spans[1]));
        self.decode.push(ms(spans[2]));
    }

    /// One operation: its whole time and the parts spent replaying in
    /// the simulator and assembling reports; the rest is `other`.
    fn traced_op(&mut self, op: f64, replay: f64, report: f64) {
        self.op.push(op);
        self.replay.push(replay);
        self.report.push(report);
        self.other.push(op - replay - report);
    }

    fn ledger(&self) -> Vec<Metric> {
        vec![
            ("build_ms", median(&self.build), "ms"),
            ("record_ms", median(&self.record), "ms"),
            ("decode_ms", median(&self.decode), "ms"),
            ("op_ms", median(&self.op), "ms"),
            ("replay_ms", median(&self.replay), "ms"),
            ("report_ms", median(&self.report), "ms"),
            ("other_ms", median(&self.other), "ms"),
        ]
    }
}

/// A metric's name, value and unit.
type Metric = (&'static str, f64, &'static str);

/// Deterministic counts of one operation; every operation of a run
/// repeats them (each is checked against the reference result).
struct Counts {
    sim_insts: u64,
    stream_steps: u64,
    cache_insts: u64,
    regions_selected: u64,
    selector_switches: u64,
    pressure_waves: u64,
    evicted_regions: u64,
    recovered_epochs: u64,
    dedup_ratio: f64,
}

impl Counts {
    fn metrics(&self) -> Vec<Metric> {
        let hit_pct = 100.0 * self.cache_insts as f64 / self.sim_insts.max(1) as f64;
        vec![
            ("sim_insts", self.sim_insts as f64, "count"),
            ("stream_steps", self.stream_steps as f64, "count"),
            ("cache_hit_pct", hit_pct, "%"),
            ("regions_selected", self.regions_selected as f64, "count"),
            ("selector_switches", self.selector_switches as f64, "count"),
            ("pressure_waves", self.pressure_waves as f64, "count"),
            ("evicted_regions", self.evicted_regions as f64, "count"),
            ("recovered_epochs", self.recovered_epochs as f64, "count"),
            ("dedup_ratio", self.dedup_ratio, "x"),
        ]
    }
}

/// What one run measured.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn new(
        args: &Args,
        checked: bool,
        (attempted, failed): (u64, u64),
        samples: &Samples,
        counts: &Counts,
    ) -> Self {
        let metrics = if args.trace {
            let mut m = samples.ledger();
            m.extend(counts.metrics());
            m
        } else {
            let op = percentile(&samples.op_ms, 0.05);
            vec![
                ("op_p5_ms", op, "ms"),
                (
                    "sim_minsts_per_s",
                    counts.sim_insts as f64 / op / 1e3,
                    "Minst/s",
                ),
                ("setup_s", median(&samples.setup_s), "s"),
            ]
        };
        Outcome {
            correct: checked && failed == 0,
            attempted,
            failed,
            metrics,
        }
    }
}

fn run_matrix(args: &Args) -> Result<Outcome, String> {
    let kinds: &[SelectorKind] = &SelectorKind::extended();
    let config = SimConfig::default();
    let seeds = input_seeds(args.seed);
    let record = || {
        seeds
            .iter()
            .map(|&s| record_suite(s, SCALE))
            .collect::<Vec<_>>()
    };
    let mut samples = Samples::default();
    let t = Instant::now();
    let sets = record();
    samples.setup_s.push(t.elapsed().as_secs_f64());

    // The oracle: every cell executed live (each program re-run through
    // its executor, nothing recorded), which replay must match exactly.
    let live: Vec<_> = seeds
        .iter()
        .map(|&s| run_matrix_serial_live(kinds, s, SCALE, &config))
        .collect();
    let cells = || {
        sets.iter().zip(&live).flat_map(move |(set, live)| {
            set.iter()
                .flat_map(move |r| kinds.iter().map(move |&k| live.report(r.name(), k)))
        })
    };
    let counts = Counts {
        sim_insts: cells().map(|r| r.total_insts).sum(),
        stream_steps: sets
            .iter()
            .flatten()
            .map(|r| r.stream().len() as u64)
            .sum::<u64>()
            * kinds.len() as u64,
        cache_insts: cells().map(|r| r.cache_insts).sum(),
        regions_selected: cells().map(|r| r.region_count() as u64).sum(),
        selector_switches: 0,
        pressure_waves: 0,
        evicted_regions: 0,
        recovered_epochs: 0,
        dedup_ratio: 0.0,
    };

    let tally = repeat(
        args.seconds,
        &mut samples,
        |samples| match args.trace {
            true => samples.traced_setup(&seeds),
            false => samples.setup_s.push(time_s(record)),
        },
        |samples| {
            if args.trace {
                let (reports, spans) = traced_matrix(&sets, kinds, &config);
                samples.traced_op(spans[0], spans[1], spans[2]);
                return Ok(reports.iter().eq(cells()));
            }
            let t = Instant::now();
            let results: Vec<_> = sets
                .iter()
                .map(|set| replay_matrix(set, kinds, &config, WORKERS))
                .collect();
            samples.op_ms.push(ms(t.elapsed()));
            Ok(results.iter().zip(&live).all(|(m, live)| {
                m.workloads()
                    .iter()
                    .all(|&w| kinds.iter().all(|&k| m.report(w, k) == live.report(w, k)))
            }))
        },
    )?;
    Ok(Outcome::new(args, true, tally, &samples, &counts))
}

/// One serial pass over the matrix with spans around the simulator's
/// replay and its report assembly. Returns the reports in cell order
/// and the pass, replay and report times in milliseconds.
fn traced_matrix(
    sets: &[Vec<RecordedWorkload>],
    kinds: &[SelectorKind],
    config: &SimConfig,
) -> (Vec<RunReport>, [f64; 3]) {
    let start = Instant::now();
    let (mut replay, mut report) = (Duration::ZERO, Duration::ZERO);
    let mut reports = Vec::new();
    let mut scratch = Default::default();
    for r in sets.iter().flatten() {
        for &k in kinds {
            let mut sim = Simulator::recycled(
                r.program(),
                k.make(r.program(), config),
                config,
                std::mem::take(&mut scratch),
            );
            let t = Instant::now();
            sim.replay_decoded(r.decoded());
            replay += t.elapsed();
            let t = Instant::now();
            reports.push(sim.report());
            report += t.elapsed();
            scratch = sim.into_scratch();
        }
    }
    (reports, [ms(start.elapsed()), ms(replay), ms(report)])
}

fn serve_config(workload: Workload) -> ServeConfig {
    let mut config = ServeConfig::default();
    // The serve bin's default policy: stream-shaped explore schedules.
    config.policy.epoch_len = config.epoch_len;
    config.policy.adaptive = true;
    match workload {
        Workload::ServeReplicas => config.share = true,
        Workload::ServeChaos => {
            config.churn = ChurnConfig {
                seed: CHAOS_SEED,
                arrival_spread: 6,
                max_disconnects: 2,
                max_gap: 3,
                crash_percent: 50,
            };
            config.checkpoint_every = 2;
            config.sim.faults.seed = CHAOS_SEED;
            config.sim.faults.smc_write_ppm = 200;
            config.sim.faults.flush_wave_ppm = 50;
        }
        Workload::Matrix => unreachable!("the matrix does not serve"),
    }
    config
}

/// Replays every tenant's stream alone through a session, with the
/// tenant's own fault schedule and the selector schedule it followed
/// in `reference`: the tenant-local simulator work of a serve, without
/// the scheduler. Returns each tenant's executed instructions and the
/// wall time in milliseconds.
fn solo_sessions(
    specs: &[TenantSpec],
    config: &ServeConfig,
    reference: &ServeReport,
) -> Result<(Vec<u64>, f64), String> {
    let start = Instant::now();
    let mut insts = Vec::with_capacity(specs.len());
    for (t, spec) in specs.iter().enumerate() {
        let mut switches = reference
            .switches
            .iter()
            .filter(|s| usize::from(s.tenant) == t)
            .peekable();
        let first = match switches.peek() {
            Some(s) => s.from,
            None => {
                let name = reference.tenants[t].final_selector;
                SelectorKind::extended()
                    .into_iter()
                    .find(|k| k.name() == name)
                    .ok_or_else(|| format!("unknown selector {name:?}"))?
            }
        };
        let mut sim = config.sim.clone();
        sim.faults.seed = tenant_fault_seed(config.sim.faults.seed, t as u16);
        let mut session = TenantSession::new(t as u16, spec, first, &sim, config.shard_count);
        while !session.finished() {
            while let Some(s) = switches.next_if(|s| s.epoch <= session.epochs_run()) {
                session.switch_selector(s.to, &sim);
            }
            session.run_epoch(config.epoch_len);
        }
        insts.push(session.total_insts());
    }
    Ok((insts, ms(start.elapsed())))
}

/// Checks the serving invariants the reference outcome must satisfy;
/// returns the first violation.
fn check_serve(workload: Workload, out: &ServeOutcome, solo_insts: &[u64]) -> Result<(), String> {
    let rep = &out.report;
    if rep.tenants.len() != solo_insts.len() {
        return Err(format!(
            "{} tenants reported, {} served",
            rep.tenants.len(),
            solo_insts.len()
        ));
    }
    for (t, &solo) in rep.tenants.iter().zip(solo_insts) {
        if !t.admitted || t.quarantined {
            return Err(format!(
                "tenant {} ({}) did not finish",
                t.tenant, t.workload
            ));
        }
        // Serving decides what is cached, never what executes: each
        // tenant executes its whole stream, plus the epochs a crash
        // made it re-execute from its last checkpoint.
        let conserved = match t.recovered_epochs {
            0 => t.total_insts == solo,
            _ => t.total_insts > solo,
        };
        if !conserved {
            return Err(format!(
                "tenant {} ({}) executed {} insts, its stream holds {solo}",
                t.tenant, t.workload, t.total_insts
            ));
        }
    }
    if rep.total_insts != rep.tenants.iter().map(|t| t.total_insts).sum::<u64>() {
        return Err("total_insts is not the sum over tenants".into());
    }
    let exercised = match workload {
        Workload::ServeReplicas => {
            rep.shared_refs > 0 && rep.unique_bytes <= rep.logical_bytes && rep.dedup_ratio() > 1.0
        }
        Workload::ServeChaos => {
            rep.reconnects() > 0 && rep.checkpoints_taken() > 0 && rep.smc_invalidated_regions() > 0
        }
        Workload::Matrix => true,
    };
    if !exercised {
        return Err("the workload's mechanism never engaged".into());
    }
    Ok(())
}

fn run_serve(args: &Args) -> Result<Outcome, String> {
    let config = serve_config(args.workload);
    let replicas = match args.workload {
        Workload::ServeReplicas => REPLICAS,
        _ => 1,
    };
    let seeds = input_seeds(args.seed);
    let record = || {
        let population = seeds
            .iter()
            .flat_map(|&s| TenantSpec::record_suite(s, SCALE))
            .collect();
        TenantSpec::replicate(population, replicas)
    };
    let mut samples = Samples::default();
    let t = Instant::now();
    let specs = record();
    samples.setup_s.push(t.elapsed().as_secs_f64());

    let serve_on = |jobs: usize| {
        serve(&specs, &config, jobs).map_err(|e| format!("serve rejected the configuration: {e}"))
    };
    // The reference is the serial serve. It must keep the serving
    // invariants, an eight-worker serve must reproduce it byte for
    // byte, and so must every timed operation.
    let reference = serve_on(1)?;
    let reference_json = reference.report.to_json();
    let (solo_insts, _) = solo_sessions(&specs, &config, &reference.report)?;
    let checked = check_serve(args.workload, &reference, &solo_insts).and_then(|()| {
        let parallel = serve_on(8)?;
        match parallel.report.to_json() == reference_json
            && parallel.run_reports == reference.run_reports
        {
            true => Ok(()),
            false => Err("the outcome differs between 1 and 8 workers".to_string()),
        }
    });
    if let Err(e) = &checked {
        eprintln!("perfbench: {e}");
    }

    let rep = &reference.report;
    let counts = Counts {
        sim_insts: rep.total_insts,
        stream_steps: specs.iter().map(|s| s.len() as u64).sum(),
        cache_insts: rep.tenants.iter().map(|t| t.cache_insts).sum(),
        regions_selected: rep.tenants.iter().map(|t| t.regions_selected).sum(),
        selector_switches: rep.switches.len() as u64,
        pressure_waves: rep.pressure_waves(),
        evicted_regions: rep.tenants.iter().map(|t| t.pressure_evicted).sum(),
        recovered_epochs: rep.recovered_epochs(),
        dedup_ratio: if rep.share_active {
            rep.dedup_ratio()
        } else {
            0.0
        },
    };

    let tally = repeat(
        args.seconds,
        &mut samples,
        |samples| match args.trace {
            true => samples.traced_setup(&seeds),
            false => samples.setup_s.push(time_s(record)),
        },
        |samples| {
            let t = Instant::now();
            let out = serve_on(WORKERS)?;
            let serve_ms = ms(t.elapsed());
            if args.trace {
                let t = Instant::now();
                let json = out.report.to_json();
                let report_ms = ms(t.elapsed());
                let (_, replay_ms) = solo_sessions(&specs, &config, rep)?;
                samples.traced_op(serve_ms + report_ms, replay_ms, report_ms);
                return Ok(json == reference_json && out.run_reports == reference.run_reports);
            }
            samples.op_ms.push(serve_ms);
            Ok(out.report == reference.report
                && out.run_reports == reference.run_reports
                && out.snapshot == reference.snapshot)
        },
    )?;
    Ok(Outcome::new(
        args,
        checked.is_ok(),
        tally,
        &samples,
        &counts,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Workload::Matrix => run_matrix(&args),
        Workload::ServeReplicas | Workload::ServeChaos => run_serve(&args),
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
