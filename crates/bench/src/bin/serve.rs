//! Multi-tenant serving benchmark: serves the twelve-workload suite
//! through the `rsel-runtime` scheduler and writes `BENCH_serve.json`.
//!
//! Scale follows `RSEL_SCALE` (`test` or `full`, default `test` — a
//! full-scale serve replays ~10⁸ recorded steps). Worker count for the
//! headline run follows `RSEL_JOBS`. The scheduler's report contains
//! nothing wall-clock- or worker-count-dependent; the single
//! exception in the file is `insts_per_sec`, which this bin measures
//! from the headline run's wall time and stamps in *after* the
//! determinism cross-check has passed on the wall-clock-free report.
//!
//! Every knob below passes one checked parser: a value that does not
//! parse, does not fit the knob's type, is zero where a count must be
//! at least one, or is not one of a knob's listed choices is reported
//! by name and exits 1.
//!
//! Fault traffic is enabled with the `RSEL_SMC_*` knobs (all rates in
//! events per million executed blocks):
//!
//! - `RSEL_SMC_PPM` — self-modifying-code write rate;
//! - `RSEL_SMC_SPAN` — maximum bytes one write dirties (default 64);
//! - `RSEL_SMC_SEED` — base fault seed (each tenant's schedule is
//!   derived from it and the tenant id, so the outcome stays
//!   byte-identical across worker counts);
//! - `RSEL_FLUSH_PPM` — cache-pressure flush-wave rate;
//! - `RSEL_CTR_PPM` — hardware-counter fault rate (one epoch of
//!   profile data dropped per strike);
//! - `RSEL_BLACKLIST_AFTER` — invalidations of one entry before it is
//!   demoted to interpretation (default 3).
//!
//! Tenant churn is enabled with the `RSEL_CHURN_*` knobs (the
//! schedule is a pure function of the seed, so any combination stays
//! byte-identical across worker counts):
//!
//! - `RSEL_CHURN_SEED` — base lifecycle seed (per-tenant schedules
//!   derive from it and the tenant id);
//! - `RSEL_CHURN_SPREAD` — arrivals staggered over this many rounds;
//! - `RSEL_CHURN_DISCONNECTS` — max clean disconnects per tenant;
//! - `RSEL_CHURN_GAP` — max rounds a tenant stays offline (default 4);
//! - `RSEL_CHURN_CRASH_PCT` — percent chance one event is a crash
//!   (recovers from the last checkpoint) instead of a clean
//!   disconnect;
//! - `RSEL_CHECKPOINT_EVERY` — write a per-tenant recovery checkpoint
//!   every N rounds (0 disables; crashes then replay from scratch);
//! - `RSEL_ADMIT_TIMEOUT` — shed arrivals that wait more than N
//!   rounds for admission (0 = wait forever);
//! - `RSEL_RECONNECT_COLD` — nonzero makes reconnects resume at the
//!   checkpointed stream position with an empty cache instead of the
//!   checkpointed one (for measuring what warm reconnects buy).
//!
//! The content-addressed shared region store is controlled by:
//!
//! - `RSEL_SHARE` — nonzero enables share mode: identical regions
//!   across tenants are deduplicated into refcounted per-shard store
//!   entries, shard pressure is charged against *unique* bytes, and
//!   the report gains `unique_bytes`/`logical_bytes`/`dedup_ratio`/
//!   `shared_refs`;
//! - `RSEL_REPLICAS` — serve N copies of each suite workload
//!   (default 1), interleaved so identical tenants are co-admitted —
//!   the homogeneous-traffic shape sharing is built for;
//! - `RSEL_QUARANTINE_PENALTY` — a quarantined tenant (one whose
//!   session panicked) is retried once with a fresh cold session
//!   after this many rounds (0 = quarantine stays permanent).
//!
//! Selection-policy and eviction behavior:
//!
//! - `RSEL_POLICY` — `adaptive` (default) derives each tenant's
//!   explore schedule from its decoded stream shape (short streams
//!   get truncated schedules sized to reach exploit before they
//!   finish); `extended` additionally explores all eight selector
//!   algorithms instead of the core four; `legacy` restores the fixed
//!   four-candidate schedule for every tenant;
//! - `RSEL_SHARDS` / `RSEL_SHARD_CAP` — shard count (default 16) and
//!   per-shard byte budget (default 2048), for dialing cache pressure
//!   up or down.
//!
//! `RSEL_SNAPSHOT=path` enables warm-start persistence. Loading is
//! *lenient* by default: a tenant whose saved state no longer matches
//! the serving configuration cold-starts with a stderr warning (and is
//! counted in `warm_rejected_tenants`), and a structurally unreadable
//! file downgrades the whole run to a cold start. A nonzero
//! `RSEL_SNAPSHOT_STRICT` restores the old behaviour where any defect
//! is a hard error. The end-of-run snapshot is always written
//! back to the path.
//!
//! At test scale (or whenever `RSEL_CROSSCHECK` is nonzero) the outcome is
//! re-served on 1 and 8 workers and the bin exits non-zero if the
//! outcomes diverge. Full-scale runs skip the cross-check by default:
//! it triples an already ~10⁸-step serve, and the determinism suite
//! covers the invariant at test scale.

use rsel_bench::harness::DEFAULT_SEED;
use rsel_bench::jobs_from_env;
use rsel_core::SelectorKind;
use rsel_runtime::{
    ChurnConfig, ServeConfig, ServeOutcome, ServeReport, ServeSnapshot, TenantSpec, WarmStart,
    serve, serve_warm,
};
use rsel_workloads::Scale;
use std::fmt;
use std::time::Instant;

/// A rejected `RSEL_*` knob. The bin reports it and exits 1: a typo
/// must neither panic nor silently serve a configuration nobody asked
/// for.
#[derive(Debug, PartialEq)]
enum KnobError {
    /// The value is not an unsigned integer.
    NotANumber { knob: &'static str, value: String },
    /// The value does not fit the knob's type (it would truncate).
    OutOfRange {
        knob: &'static str,
        value: u64,
        ty: &'static str,
    },
    /// A count that must be at least one was zero.
    Zero(&'static str),
    /// A value outside the knob's fixed choices.
    Unknown {
        knob: &'static str,
        value: String,
        expected: &'static str,
    },
    /// Individually valid knobs that the configuration check rejects.
    Rejected { knobs: &'static str, why: String },
}

impl fmt::Display for KnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KnobError::NotANumber { knob, value } => {
                write!(f, "{knob} must be an unsigned integer, got {value:?}")
            }
            KnobError::OutOfRange { knob, value, ty } => {
                write!(f, "{knob}={value} does not fit a {ty}")
            }
            KnobError::Zero(knob) => write!(f, "{knob} must be at least 1"),
            KnobError::Unknown {
                knob,
                value,
                expected,
            } => write!(f, "{knob} must be {expected}, got {value:?}"),
            KnobError::Rejected { knobs, why } => write!(f, "{knobs} knobs rejected: {why}"),
        }
    }
}

/// Reads knob `name` through `var` as a `T`, `default` when unset. The
/// one checked parser every numeric knob goes through.
fn knob<T: TryFrom<u64>>(
    var: &impl Fn(&str) -> Option<String>,
    name: &'static str,
    default: T,
) -> Result<T, KnobError> {
    let Some(raw) = var(name) else {
        return Ok(default);
    };
    let value: u64 = raw.trim().parse().map_err(|_| KnobError::NotANumber {
        knob: name,
        value: raw.clone(),
    })?;
    T::try_from(value).map_err(|_| KnobError::OutOfRange {
        knob: name,
        value,
        ty: std::any::type_name::<T>(),
    })
}

/// [`knob`] for a count that must be at least one.
fn count_knob(
    var: &impl Fn(&str) -> Option<String>,
    name: &'static str,
    default: usize,
) -> Result<usize, KnobError> {
    match knob(var, name, default)? {
        0 => Err(KnobError::Zero(name)),
        n => Ok(n),
    }
}

/// Everything the bin reads from `RSEL_*` knobs besides the snapshot
/// path.
struct Knobs {
    config: ServeConfig,
    scale: Scale,
    replicas: usize,
    policy_mode: &'static str,
    /// Re-serve on 1 and 8 workers and compare (always at test scale).
    crosscheck: bool,
    /// Any snapshot defect is a hard error instead of a cold start.
    strict: bool,
}

/// Parses and validates every knob, reading variables through `var`.
fn knobs(var: impl Fn(&str) -> Option<String>) -> Result<Knobs, KnobError> {
    let scale = match var("RSEL_SCALE").as_deref() {
        None | Some("test") => Scale::Test,
        Some("full") => Scale::Full,
        Some(other) => {
            return Err(KnobError::Unknown {
                knob: "RSEL_SCALE",
                value: other.to_string(),
                expected: "test or full",
            });
        }
    };
    let mut config = ServeConfig::default();
    let faults = &mut config.sim.faults;
    faults.smc_write_ppm = knob(&var, "RSEL_SMC_PPM", 0)?;
    faults.smc_max_span = knob(&var, "RSEL_SMC_SPAN", 64)?;
    faults.seed = knob(&var, "RSEL_SMC_SEED", 0)?;
    faults.flush_wave_ppm = knob(&var, "RSEL_FLUSH_PPM", 0)?;
    faults.counter_fault_ppm = knob(&var, "RSEL_CTR_PPM", 0)?;
    faults.blacklist_after = knob(&var, "RSEL_BLACKLIST_AFTER", 3)?;
    faults.check().map_err(|e| KnobError::Rejected {
        knobs: "RSEL_SMC_*",
        why: e.to_string(),
    })?;
    config.churn = ChurnConfig {
        seed: knob(&var, "RSEL_CHURN_SEED", 0)?,
        arrival_spread: knob(&var, "RSEL_CHURN_SPREAD", 0)?,
        max_disconnects: knob(&var, "RSEL_CHURN_DISCONNECTS", 0)?,
        max_gap: knob(&var, "RSEL_CHURN_GAP", 4)?,
        crash_percent: knob(&var, "RSEL_CHURN_CRASH_PCT", 0)?,
    };
    config.churn.check().map_err(|why| KnobError::Rejected {
        knobs: "RSEL_CHURN_*",
        why: why.to_string(),
    })?;
    config.checkpoint_every = knob(&var, "RSEL_CHECKPOINT_EVERY", 0)?;
    config.admission_timeout = knob(&var, "RSEL_ADMIT_TIMEOUT", 0)?;
    config.reconnect_cold = knob::<u64>(&var, "RSEL_RECONNECT_COLD", 0)? != 0;
    config.share = knob::<u64>(&var, "RSEL_SHARE", 0)? != 0;
    config.quarantine_penalty = knob(&var, "RSEL_QUARANTINE_PENALTY", 0)?;
    config.shard_count = count_knob(&var, "RSEL_SHARDS", config.shard_count)?;
    config.shard_capacity = knob(&var, "RSEL_SHARD_CAP", config.shard_capacity)?;
    // The policy engine needs the serving epoch length to size each
    // tenant's explore schedule against its stream.
    config.policy.epoch_len = config.epoch_len;
    let policy_mode = match var("RSEL_POLICY").as_deref() {
        Some("legacy") => "legacy",
        None | Some("adaptive") => "adaptive",
        Some("extended") => {
            config.policy.candidates = SelectorKind::extended().to_vec();
            "extended"
        }
        Some(other) => {
            return Err(KnobError::Unknown {
                knob: "RSEL_POLICY",
                value: other.to_string(),
                expected: "legacy, adaptive, or extended",
            });
        }
    };
    config.policy.adaptive = policy_mode != "legacy";
    Ok(Knobs {
        config,
        scale,
        replicas: count_knob(&var, "RSEL_REPLICAS", 1)?,
        policy_mode,
        crosscheck: knob::<u64>(&var, "RSEL_CROSSCHECK", 0)? != 0 || matches!(scale, Scale::Test),
        strict: knob::<u64>(&var, "RSEL_SNAPSHOT_STRICT", 0)? != 0,
    })
}

fn main() {
    let jobs = jobs_from_env();
    let Knobs {
        config,
        scale,
        replicas,
        policy_mode,
        crosscheck,
        strict,
    } = knobs(|name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned()))
        .unwrap_or_else(|e| {
            eprintln!("FAIL: {e}");
            std::process::exit(1);
        });
    let snapshot_path = std::env::var_os("RSEL_SNAPSHOT").map(std::path::PathBuf::from);

    if config.sim.faults.active() {
        eprintln!(
            "fault traffic enabled: {} smc ppm (span {} B), {} flush ppm, \
             {} counter ppm, blacklist after {}, seed {}",
            config.sim.faults.smc_write_ppm,
            config.sim.faults.smc_max_span,
            config.sim.faults.flush_wave_ppm,
            config.sim.faults.counter_fault_ppm,
            config.sim.faults.blacklist_after,
            config.sim.faults.seed,
        );
    }
    if policy_mode != "legacy" {
        eprintln!(
            "policy: {policy_mode} (stream-shaped explore schedules, {} candidates)",
            config.policy.candidates.len()
        );
    }
    if config.churn.active() {
        eprintln!(
            "churn enabled: seed {}, spread {}, <= {} disconnects/tenant \
             (gap <= {}, {}% crash), checkpoint every {}, admit timeout {}{}",
            config.churn.seed,
            config.churn.arrival_spread,
            config.churn.max_disconnects,
            config.churn.max_gap,
            config.churn.crash_percent,
            config.checkpoint_every,
            config.admission_timeout,
            if config.reconnect_cold {
                ", cold reconnects"
            } else {
                ""
            },
        );
    }

    eprintln!("recording the suite ({scale:?} scale)...");
    let t = Instant::now();
    let mut specs = TenantSpec::record_suite(DEFAULT_SEED, scale);
    eprintln!("  recorded in {:.1} ms", t.elapsed().as_secs_f64() * 1e3);
    if replicas > 1 {
        // Replicas clone the recordings (Arc-shared), not the serve
        // state — each copy is an independent tenant.
        specs = TenantSpec::replicate(specs, replicas);
        eprintln!("  replicated x{replicas}: {} tenants", specs.len());
    }
    if config.share {
        eprintln!("share mode enabled: content-addressed region store");
    }

    // Warm-start from the snapshot when one is present on disk. The
    // lenient loader degrades semantically stale tenants to cold
    // slots; under RSEL_SNAPSHOT_STRICT anything short of a fully
    // valid snapshot is a hard failure.
    let warm: Option<WarmStart> = match &snapshot_path {
        Some(path) if path.exists() => {
            if strict {
                match ServeSnapshot::load_from_path(&specs, &config.policy, path) {
                    Ok(snap) => {
                        eprintln!(
                            "warm-starting from {} ({} regions, strict)",
                            path.display(),
                            snap.region_count()
                        );
                        Some(snap.into_warm_start())
                    }
                    Err(e) => {
                        eprintln!("FAIL: snapshot {} rejected: {e}", path.display());
                        std::process::exit(1);
                    }
                }
            } else {
                match WarmStart::load_from_path(&specs, &config.policy, path) {
                    Ok(w) => {
                        eprintln!(
                            "warm-starting from {} ({} regions, {}/{} tenants restored)",
                            path.display(),
                            w.region_count(),
                            w.restored_tenants(),
                            specs.len()
                        );
                        Some(w)
                    }
                    Err(e) => {
                        eprintln!(
                            "warning: snapshot {} unreadable, cold-starting the run: {e}",
                            path.display()
                        );
                        None
                    }
                }
            }
        }
        _ => None,
    };

    // A rejected configuration is a typed error, not a panic: report
    // it and exit non-zero so a misconfigured CI leg fails loudly.
    let run = |jobs: usize| -> ServeOutcome {
        let outcome = match &warm {
            Some(w) => serve_warm(&specs, &config, jobs, w),
            None => serve(&specs, &config, jobs),
        };
        outcome.unwrap_or_else(|e| {
            eprintln!("FAIL: serve rejected the configuration: {e}");
            std::process::exit(1);
        })
    };

    eprintln!("serving {} tenants on {jobs} workers...", specs.len());
    let t = Instant::now();
    let mut out = run(jobs);
    let serve_ms = t.elapsed().as_secs_f64() * 1e3;
    let rep = &out.report;
    eprintln!(
        "  served in {serve_ms:.1} ms: {} rounds, {:.0} insts/round, \
         peak {} active, {} pressure waves ({} shed actions), {} selector switches",
        rep.queue.rounds,
        rep.insts_per_round(),
        rep.queue.peak_active,
        rep.pressure_waves(),
        rep.shed_actions(),
        rep.switches.len()
    );
    {
        let exploit = match rep.mean_rounds_to_first_exploit() {
            Some(v) => format!("{v:.1}"),
            None => "n/a".to_string(),
        };
        eprintln!(
            "  exploit: {} mean rounds to first exploit, {} tenant(s) never got there",
            exploit,
            rep.never_exploited(),
        );
    }
    if config.sim.faults.active() {
        let dips: u64 = rep.tenants.iter().map(|t| t.smc_dips).sum();
        let worst = rep
            .tenants
            .iter()
            .map(|t| t.max_dip_depth)
            .fold(0.0f64, f64::max);
        eprintln!(
            "  resilience: {} regions invalidated, {} targets blacklisted, \
             {} hit-rate dips (deepest {:.4})",
            rep.smc_invalidated_regions(),
            rep.blacklisted_targets(),
            dips,
            worst,
        );
    }
    if config.churn.active() {
        eprintln!(
            "  churn: {} disconnects, {} crashes, {} reconnects, \
             {} recovered epochs, {} checkpoints ({} B), \
             {} shed arrivals, {} quarantined \
             ({} retried), mean admission wait {:.2} rounds",
            rep.disconnects(),
            rep.crashes(),
            rep.reconnects(),
            rep.recovered_epochs(),
            rep.checkpoints_taken(),
            rep.checkpoint_bytes(),
            rep.queue.shed_arrivals,
            rep.quarantined_tenants(),
            rep.quarantine_retries(),
            rep.mean_admission_wait(),
        );
    }
    if config.share {
        eprintln!(
            "  dedup: {} unique B for {} logical B (ratio {:.2}) at the \
             peak barrier, {} shared refs",
            rep.unique_bytes,
            rep.logical_bytes,
            rep.dedup_ratio(),
            rep.shared_refs,
        );
    }
    if rep.warm_rejected_tenants > 0 {
        eprintln!(
            "  {} tenant(s) cold-started after snapshot rejection",
            rep.warm_rejected_tenants
        );
    }

    // When warm-started, serve the same suite cold and report what the
    // snapshot bought: aggregate hit rate and mean rounds from
    // admission to the first exploit-phase decision.
    if warm.is_some() {
        eprintln!("serving cold for comparison...");
        let cold = serve(&specs, &config, jobs).unwrap_or_else(|e| {
            eprintln!("FAIL: cold comparison serve rejected: {e}");
            std::process::exit(1);
        });
        let hit = |r: &ServeReport| {
            let cached: u64 = r.tenants.iter().map(|t| t.cache_insts).sum();
            cached as f64 / r.total_insts as f64
        };
        let exploit = |r: &ServeReport| match r.mean_rounds_to_first_exploit() {
            Some(v) => format!("{v:.1}"),
            None => "n/a".to_string(),
        };
        eprintln!(
            "  cold: {:.4} hit rate, {} mean rounds to first exploit",
            hit(&cold.report),
            exploit(&cold.report)
        );
        eprintln!(
            "  warm: {:.4} hit rate, {} mean rounds to first exploit",
            hit(rep),
            exploit(rep)
        );
    }

    // Cross-check: the serving outcome may not depend on the worker
    // count. Run serial and 8-way (warm-started the same way as the
    // headline run) and demand identity — reports and rendered bytes.
    let mut ok = true;
    if crosscheck {
        eprintln!("cross-checking RSEL_JOBS=1 vs RSEL_JOBS=8...");
        let serial = run(1);
        let parallel = run(8);
        if serial.report.to_json() != parallel.report.to_json() || serial.report != parallel.report
        {
            eprintln!("DIVERGENCE: ServeReport differs between 1 and 8 workers");
            ok = false;
        }
        if serial.run_reports != parallel.run_reports {
            eprintln!("DIVERGENCE: per-tenant RunReports differ between 1 and 8 workers");
            ok = false;
        }
        if serial.snapshot != parallel.snapshot {
            eprintln!("DIVERGENCE: end-of-run snapshot differs between 1 and 8 workers");
            ok = false;
        }
        if out.report != serial.report {
            eprintln!("DIVERGENCE: headline run ({jobs} workers) differs from serial");
            ok = false;
        }
    } else {
        eprintln!("skipping 1-vs-8 cross-check (full scale; set RSEL_CROSSCHECK=1 to force)");
    }

    // Wall-clock throughput is stamped in only now — after the
    // cross-check compared the wall-clock-free reports — so the
    // measured time can never participate in (or break) the 1-vs-8
    // identity.
    if serve_ms > 0.0 {
        out.report.insts_per_sec = Some(out.report.total_insts as f64 / serve_ms * 1e3);
    }

    // Persist the end-of-run state so the next invocation warm-starts.
    if let Some(path) = &snapshot_path {
        out.snapshot.save_to_path(path).expect("write snapshot");
        eprintln!(
            "wrote snapshot to {} ({} regions)",
            path.display(),
            out.snapshot.region_count()
        );
    }

    let json = out.report.to_json();
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("{json}");

    if !ok {
        eprintln!("FAIL: serving outcome depends on the worker count");
        std::process::exit(1);
    }
    if crosscheck {
        eprintln!("ok: outcome identical across worker counts");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses knobs from `pairs` as if they were the environment.
    fn parse(pairs: &[(&str, &str)]) -> Result<Knobs, KnobError> {
        knobs(|name| {
            pairs
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    fn rejection(pairs: &[(&str, &str)]) -> KnobError {
        match parse(pairs) {
            Ok(_) => panic!("{pairs:?} must be rejected"),
            Err(e) => e,
        }
    }

    #[test]
    fn unset_knobs_take_the_defaults() {
        let k = parse(&[]).unwrap();
        assert!(matches!(k.scale, Scale::Test));
        assert_eq!(k.replicas, 1);
        assert_eq!(k.policy_mode, "adaptive");
        assert!(k.config.policy.adaptive);
        assert_eq!(k.config.shard_count, ServeConfig::default().shard_count);
        assert_eq!(k.config.sim.faults.smc_max_span, 64);
        assert_eq!(k.config.churn.max_gap, 4);
    }

    #[test]
    fn set_knobs_reach_the_config() {
        let k = parse(&[
            ("RSEL_SCALE", "full"),
            ("RSEL_SMC_PPM", "200"),
            ("RSEL_CHURN_CRASH_PCT", "50"),
            ("RSEL_SHARDS", "4"),
            ("RSEL_REPLICAS", "8"),
            ("RSEL_SHARE", "1"),
            ("RSEL_POLICY", "extended"),
        ])
        .unwrap();
        assert!(matches!(k.scale, Scale::Full));
        assert_eq!(k.config.sim.faults.smc_write_ppm, 200);
        assert_eq!(k.config.churn.crash_percent, 50);
        assert_eq!(k.config.shard_count, 4);
        assert_eq!(k.replicas, 8);
        assert!(k.config.share);
        assert_eq!(k.config.policy.candidates, SelectorKind::extended());
    }

    #[test]
    fn reconnect_cold_is_a_checked_number() {
        assert!(!parse(&[]).unwrap().config.reconnect_cold);
        for (value, on) in [("0", false), ("1", true), ("2", true)] {
            let k = parse(&[("RSEL_RECONNECT_COLD", value)]).unwrap();
            assert_eq!(k.config.reconnect_cold, on, "RSEL_RECONNECT_COLD={value}");
        }
        assert_eq!(
            rejection(&[("RSEL_RECONNECT_COLD", "yes")]),
            KnobError::NotANumber {
                knob: "RSEL_RECONNECT_COLD",
                value: "yes".to_string()
            }
        );
    }

    #[test]
    fn snapshot_strict_and_crosscheck_are_checked_numbers() {
        let full = ("RSEL_SCALE", "full");
        let k = parse(&[full]).unwrap();
        assert!(!k.strict && !k.crosscheck);
        for (value, on) in [("0", false), ("1", true), ("2", true)] {
            let k = parse(&[
                full,
                ("RSEL_SNAPSHOT_STRICT", value),
                ("RSEL_CROSSCHECK", value),
            ])
            .unwrap();
            assert_eq!(k.strict, on, "RSEL_SNAPSHOT_STRICT={value}");
            assert_eq!(k.crosscheck, on, "RSEL_CROSSCHECK={value}");
        }
        // Test scale always cross-checks.
        assert!(parse(&[("RSEL_CROSSCHECK", "0")]).unwrap().crosscheck);
        for knob in ["RSEL_SNAPSHOT_STRICT", "RSEL_CROSSCHECK"] {
            assert_eq!(
                rejection(&[(knob, "yes")]),
                KnobError::NotANumber {
                    knob,
                    value: "yes".to_string()
                }
            );
        }
    }

    #[test]
    fn truncating_values_are_rejected() {
        assert_eq!(
            rejection(&[("RSEL_CHURN_CRASH_PCT", "300")]),
            KnobError::OutOfRange {
                knob: "RSEL_CHURN_CRASH_PCT",
                value: 300,
                ty: "u8"
            }
        );
        assert_eq!(
            rejection(&[("RSEL_SMC_PPM", "4294967496")]),
            KnobError::OutOfRange {
                knob: "RSEL_SMC_PPM",
                value: 4_294_967_496,
                ty: "u32"
            }
        );
    }

    #[test]
    fn zero_counts_are_rejected() {
        assert_eq!(
            rejection(&[("RSEL_SHARDS", "0")]),
            KnobError::Zero("RSEL_SHARDS")
        );
        assert_eq!(
            rejection(&[("RSEL_REPLICAS", "0")]),
            KnobError::Zero("RSEL_REPLICAS")
        );
    }

    #[test]
    fn unknown_choices_are_rejected() {
        assert!(matches!(
            rejection(&[("RSEL_SCALE", "huge")]),
            KnobError::Unknown {
                knob: "RSEL_SCALE",
                ..
            }
        ));
        assert!(matches!(
            rejection(&[("RSEL_POLICY", "greedy")]),
            KnobError::Unknown {
                knob: "RSEL_POLICY",
                ..
            }
        ));
    }

    #[test]
    fn unparsable_values_are_errors_not_panics() {
        for (knob, value) in [("RSEL_SMC_SEED", "abc"), ("RSEL_SHARD_CAP", "-1")] {
            assert_eq!(
                rejection(&[(knob, value)]),
                KnobError::NotANumber {
                    knob,
                    value: value.to_string()
                }
            );
        }
    }

    #[test]
    fn inconsistent_knobs_are_rejected() {
        let e = rejection(&[("RSEL_CHURN_CRASH_PCT", "101")]);
        assert!(
            matches!(
                e,
                KnobError::Rejected {
                    knobs: "RSEL_CHURN_*",
                    ..
                }
            ),
            "{e}"
        );
        let e = rejection(&[("RSEL_SMC_PPM", "2000000")]);
        assert!(
            matches!(
                e,
                KnobError::Rejected {
                    knobs: "RSEL_SMC_*",
                    ..
                }
            ),
            "{e}"
        );
    }
}
