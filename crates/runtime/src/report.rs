//! Serving-run reports: deterministic aggregates and their JSON form.
//!
//! Nothing in a [`ServeReport`] depends on wall-clock time or the
//! worker count: throughput is measured in simulated instructions per
//! scheduler round, contention in rounds where a shard was updated by
//! several tenants, queue depths in tenant-rounds. The JSON rendering
//! is hand-rolled with a fixed field order, so equal reports produce
//! byte-identical files.

use crate::policy::{PolicyFeatures, SwitchRecord};
use crate::snapshot::ServeSnapshot;
use rsel_core::metrics::RunReport;

/// Buckets in the log2 admission-wait histogram.
pub const WAIT_BUCKETS: usize = 16;

/// The log2 histogram bucket a wait of `rounds` falls in: bucket 0 is
/// an immediate admission (zero rounds waited), bucket `k >= 1` covers
/// waits in `[2^(k-1), 2^k)`, and the last bucket absorbs everything
/// longer.
pub fn wait_bucket(rounds: u64) -> usize {
    if rounds == 0 {
        0
    } else {
        (64 - rounds.leading_zeros() as usize).min(WAIT_BUCKETS - 1)
    }
}

/// Admission-queue and scheduler statistics for a serving run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Scheduler rounds executed.
    pub rounds: u64,
    /// Sessions admitted from the queue into the active set.
    pub admissions: u64,
    /// Most sessions ever concurrently active in one round.
    pub peak_active: u64,
    /// Most sessions ever waiting in the admission queue.
    pub peak_queue_depth: u64,
    /// Tenant-rounds spent waiting in the bounded queue.
    pub queued_tenant_rounds: u64,
    /// Tenant-rounds spent deferred *behind* the full queue — the
    /// backpressure the bounded queue exerts on arrivals.
    pub deferred_tenant_rounds: u64,
    /// Arrivals shed under overload: a tenant that waited past the
    /// admission timeout is pushed back out of the waiting line and
    /// told to retry after an exponential backoff.
    pub shed_arrivals: u64,
    /// Log2 histogram of rounds waited from (re)arrival to admission,
    /// one sample per admission: bucket 0 is an immediate admission,
    /// bucket `k >= 1` covers waits in `[2^(k-1), 2^k)` rounds (see
    /// [`wait_bucket`]).
    pub admission_wait_hist: [u64; WAIT_BUCKETS],
}

/// One shard's lifetime statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Peak occupancy observed at any round barrier.
    pub peak_bytes: u64,
    /// Rounds in which two or more tenants updated the shard.
    pub contended_rounds: u64,
    /// Barriers at which the shard exceeded capacity (at most one per
    /// round, however many shed actions resolving the wave took).
    pub pressure_waves: u64,
    /// Individual eviction calls applied while resolving pressure
    /// waves.
    pub shed_actions: u64,
    /// Regions evicted from the shard by pressure.
    pub evicted_regions: u64,
    /// Regions killed in the shard by self-modifying-code writes
    /// (attributed by the entry address of each invalidated region).
    pub smc_invalidated: u64,
    /// Occupancy when the run ended.
    pub final_bytes: u64,
    /// Share mode: peak unique (deduplicated) bytes the shard's store
    /// held at any barrier. Zero with sharing off.
    pub unique_bytes: u64,
    /// Share mode: peak logical bytes (every holder charged) at any
    /// barrier. Zero with sharing off.
    pub logical_bytes: u64,
    /// Share mode: peak refs beyond each entry's first holder — the
    /// region copies dedup avoided storing. Zero with sharing off.
    pub shared_refs: u64,
}

/// One tenant's serving summary.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantSummary {
    /// Tenant id (admission order).
    pub tenant: u16,
    /// Workload name.
    pub workload: &'static str,
    /// Selector driving the session when it ended.
    pub final_selector: &'static str,
    /// Epochs the session ran.
    pub epochs: u64,
    /// Selector switches decided by the tenant's policy engine. A
    /// warm-started engine keeps accumulating across the restore, so
    /// this includes switches carried over from the snapshot.
    pub switches: u64,
    /// Whether the tenant was ever admitted into the active set. A
    /// tenant can finish a serve unadmitted only in degenerate setups
    /// (it was quarantined before first admission); `admitted_round`
    /// and `admission_wait` are meaningless when this is `false`.
    pub admitted: bool,
    /// Round the session entered the active set.
    pub admitted_round: u64,
    /// Rounds the tenant waited from first arrival to first admission
    /// (the admission latency the queue and active limit cost it).
    pub admission_wait: u64,
    /// Round the session finished.
    pub finished_round: u64,
    /// First round at which the tenant's policy engine was in the
    /// exploit phase (`None` if it never got there). A warm-started
    /// tenant restored mid-exploit records its first active round.
    pub first_exploit_round: Option<u64>,
    /// Total instructions executed.
    pub total_insts: u64,
    /// Instructions served from the code cache.
    pub cache_insts: u64,
    /// Instructions ever copied into the cache (monotone expansion).
    pub insts_selected: u64,
    /// Regions ever selected (monotone).
    pub regions_selected: u64,
    /// Regions evicted from this tenant by shard pressure.
    pub pressure_evicted: u64,
    /// Stream-shape features the stream-adaptive policy derived this
    /// tenant's candidate schedule from; `None` under a non-adaptive
    /// base policy.
    pub policy_features: Option<PolicyFeatures>,
    /// Self-modifying-code writes that struck the tenant.
    pub smc_events: u64,
    /// Regions killed by those writes.
    pub smc_invalidated: u64,
    /// Regions re-formed at an entry address that had previously been
    /// invalidated or evicted — the re-selection recovery work.
    pub reformations: u64,
    /// Entry addresses demoted to the blacklist (graceful
    /// degradation: they serve from the interpreter for a cooldown
    /// instead of thrashing the cache).
    pub blacklisted_targets: u64,
    /// Selections dropped because their entry was blacklisted.
    pub blacklist_hits: u64,
    /// Graceful mid-run disconnects the tenant's lifecycle scheduled
    /// (each one checkpoints the session and tears it down).
    pub disconnects: u64,
    /// Re-admissions after a disconnect or crash — the churn the
    /// tenant survived. (Shed arrivals retry but are first
    /// admissions, so they do not count here.)
    pub reconnects: u64,
    /// Mid-run crashes (recovery re-runs everything since the last
    /// checkpoint).
    pub crashes: u64,
    /// Epochs re-executed during crash recovery: work done after the
    /// last checkpoint that the crash threw away.
    pub recovered_epochs: u64,
    /// Per-tenant checkpoints written (periodic and at disconnects).
    pub checkpoints: u64,
    /// Serialized size of the tenant's *last* checkpoint, in bytes
    /// (zero if none was ever taken).
    pub checkpoint_bytes: u64,
    /// Whether the tenant was quarantined: its session panicked or
    /// poisoned a lock, the failure was contained, and the tenant was
    /// taken out of rotation with its partial metrics kept. With
    /// retries enabled this is only set once the retry also failed.
    pub quarantined: bool,
    /// Times the tenant was re-admitted with a fresh cold session
    /// after a quarantine (at most one under the one-retry policy).
    pub quarantine_retries: u64,
    /// Hit-rate dips opened by invalidation waves (see
    /// [`DipTracker`]).
    pub smc_dips: u64,
    /// Deepest hit-rate drop below the pre-dip baseline, absolute.
    pub max_dip_depth: f64,
    /// Longest recovery, in epochs, from a dip back to 95 % of the
    /// pre-dip baseline hit rate.
    pub max_dip_recovery_epochs: u64,
}

impl TenantSummary {
    /// Fraction of the tenant's instructions served from the cache.
    pub fn hit_rate(&self) -> f64 {
        if self.total_insts == 0 {
            0.0
        } else {
            self.cache_insts as f64 / self.total_insts as f64
        }
    }
}

/// Everything measured over one serving run.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeReport {
    /// Steps per epoch.
    pub epoch_len: usize,
    /// Shards in the shared cache map.
    pub shard_count: usize,
    /// Per-shard byte budget.
    pub shard_capacity: u64,
    /// Active-session ceiling.
    pub max_active: usize,
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// Whether the run was warm-started from a snapshot.
    pub warm_started: bool,
    /// Regions restored into tenant caches before the first round.
    pub warm_regions_restored: u64,
    /// Tenants whose snapshot was rejected by the lenient loader and
    /// who therefore cold-started (always zero under the strict
    /// loader, which fails the whole file instead).
    pub warm_rejected_tenants: u64,
    /// Self-modifying-code write rate the run was served under, in
    /// events per million executed blocks (zero = fault layer inert).
    pub smc_write_ppm: u32,
    /// Base fault seed; each tenant's schedule is derived from it and
    /// the tenant id, so worker count cannot affect any schedule.
    pub fault_seed: u64,
    /// Pressure flush-wave rate the run was served under, in events
    /// per million executed blocks.
    pub flush_wave_ppm: u32,
    /// Counter-fault rate (saturations and resets) the run was served
    /// under, in events per million profile updates.
    pub counter_fault_ppm: u32,
    /// Whether a churn schedule (staggered arrivals, disconnects,
    /// crashes) was active.
    pub churn_active: bool,
    /// Base churn seed; like `fault_seed`, every tenant's lifecycle
    /// derives from it and the tenant id alone.
    pub churn_seed: u64,
    /// Rounds between periodic per-tenant checkpoints (zero =
    /// checkpoint only at graceful disconnects).
    pub checkpoint_every: u64,
    /// Whether the content-addressed region store deduplicated
    /// identical regions across tenants.
    pub share_active: bool,
    /// Share mode: peak total unique bytes the store held at any
    /// barrier, summed over shards. Zero with sharing off.
    pub unique_bytes: u64,
    /// Share mode: total logical bytes at the barrier where the unique
    /// peak was observed (same moment, so the ratio is a real observed
    /// dedup factor). Zero with sharing off.
    pub logical_bytes: u64,
    /// Share mode: peak total refs beyond each entry's first holder.
    /// Zero with sharing off.
    pub shared_refs: u64,
    /// Scheduler and queue statistics.
    pub queue: QueueStats,
    /// Per-tenant summaries, in tenant order.
    pub tenants: Vec<TenantSummary>,
    /// Per-shard statistics, in shard order.
    pub shards: Vec<ShardReport>,
    /// Every selector switch, in decision order.
    pub switches: Vec<SwitchRecord>,
    /// Total simulated instructions across all tenants.
    pub total_insts: u64,
    /// Wall-clock throughput in simulated instructions per second,
    /// measured and filled in by the *caller* (the bench binary, after
    /// its determinism cross-check). Always `None` from the scheduler
    /// itself — wall time is nondeterministic and must never
    /// participate in the 1-vs-N identity.
    pub insts_per_sec: Option<f64>,
}

impl ServeReport {
    /// Serving throughput: simulated instructions per scheduler round
    /// (the run's deterministic stand-in for wall-clock throughput).
    pub fn insts_per_round(&self) -> f64 {
        if self.queue.rounds == 0 {
            0.0
        } else {
            self.total_insts as f64 / self.queue.rounds as f64
        }
    }

    /// Pressure waves summed over all shards.
    pub fn pressure_waves(&self) -> u64 {
        self.shards.iter().map(|s| s.pressure_waves).sum()
    }

    /// Shed actions summed over all shards.
    pub fn shed_actions(&self) -> u64 {
        self.shards.iter().map(|s| s.shed_actions).sum()
    }

    /// Mean rounds from admission to the first exploit-phase round,
    /// over the tenants that got there; `None` if none did. The
    /// warm-start payoff metric: a restored mid-exploit engine scores
    /// zero.
    pub fn mean_rounds_to_first_exploit(&self) -> Option<f64> {
        let waits: Vec<u64> = self
            .tenants
            .iter()
            .filter_map(|t| t.first_exploit_round.map(|r| r - t.admitted_round))
            .collect();
        if waits.is_empty() {
            None
        } else {
            Some(waits.iter().sum::<u64>() as f64 / waits.len() as f64)
        }
    }

    /// Tenants whose policy engine never reached the exploit phase —
    /// the complement of [`mean_rounds_to_first_exploit`]'s
    /// population. Under a stream-adaptive policy this should be zero:
    /// short streams get truncated explore schedules sized to reach
    /// exploit before they finish.
    ///
    /// [`mean_rounds_to_first_exploit`]:
    /// ServeReport::mean_rounds_to_first_exploit
    pub fn never_exploited(&self) -> u64 {
        self.tenants
            .iter()
            .filter(|t| t.first_exploit_round.is_none())
            .count() as u64
    }

    /// Shard-contended rounds summed over all shards.
    pub fn contended_rounds(&self) -> u64 {
        self.shards.iter().map(|s| s.contended_rounds).sum()
    }

    /// Regions killed by self-modifying-code writes, summed over all
    /// tenants.
    pub fn smc_invalidated_regions(&self) -> u64 {
        self.tenants.iter().map(|t| t.smc_invalidated).sum()
    }

    /// Entry addresses demoted to the blacklist, summed over all
    /// tenants.
    pub fn blacklisted_targets(&self) -> u64 {
        self.tenants.iter().map(|t| t.blacklisted_targets).sum()
    }

    /// Graceful disconnects summed over all tenants.
    pub fn disconnects(&self) -> u64 {
        self.tenants.iter().map(|t| t.disconnects).sum()
    }

    /// Reconnects (re-admissions after churn) summed over all tenants.
    pub fn reconnects(&self) -> u64 {
        self.tenants.iter().map(|t| t.reconnects).sum()
    }

    /// Mid-run crashes summed over all tenants.
    pub fn crashes(&self) -> u64 {
        self.tenants.iter().map(|t| t.crashes).sum()
    }

    /// Epochs re-executed during crash recovery, summed over all
    /// tenants.
    pub fn recovered_epochs(&self) -> u64 {
        self.tenants.iter().map(|t| t.recovered_epochs).sum()
    }

    /// Tenants the failure domain quarantined instead of letting their
    /// defect kill the serve. Zero on every clean path.
    pub fn quarantined_tenants(&self) -> u64 {
        self.tenants.iter().filter(|t| t.quarantined).count() as u64
    }

    /// Per-tenant checkpoints written, summed over all tenants.
    pub fn checkpoints_taken(&self) -> u64 {
        self.tenants.iter().map(|t| t.checkpoints).sum()
    }

    /// Serialized size of every tenant's last checkpoint, summed — the
    /// steady-state footprint of the checkpoint store.
    pub fn checkpoint_bytes(&self) -> u64 {
        self.tenants.iter().map(|t| t.checkpoint_bytes).sum()
    }

    /// Quarantine retries summed over all tenants.
    pub fn quarantine_retries(&self) -> u64 {
        self.tenants.iter().map(|t| t.quarantine_retries).sum()
    }

    /// Logical over unique bytes at the peak-occupancy barrier: how
    /// many copies of the average cached byte dedup avoided storing.
    /// 1.0 when nothing was shared, 0.0 when the store never held
    /// anything (sharing off or an empty run).
    pub fn dedup_ratio(&self) -> f64 {
        if self.unique_bytes == 0 {
            0.0
        } else {
            self.logical_bytes as f64 / self.unique_bytes as f64
        }
    }

    /// Mean rounds from first arrival to first admission, over the
    /// tenants that *were* admitted — a never-admitted tenant has no
    /// admission wait, and averaging its zero in would understate the
    /// latency everyone else paid. 0.0 when no tenant was admitted.
    pub fn mean_admission_wait(&self) -> f64 {
        let waits: Vec<u64> = self
            .tenants
            .iter()
            .filter(|t| t.admitted)
            .map(|t| t.admission_wait)
            .collect();
        if waits.is_empty() {
            0.0
        } else {
            waits.iter().sum::<u64>() as f64 / waits.len() as f64
        }
    }

    /// Renders the report as JSON with a fixed field order: equal
    /// reports yield byte-identical strings, for any worker count.
    pub fn to_json(&self) -> String {
        let mut o = String::from("{\n");
        o.push_str("  \"bench\": \"serve\",\n");
        o.push_str(&format!("  \"epoch_len\": {},\n", self.epoch_len));
        o.push_str(&format!("  \"shard_count\": {},\n", self.shard_count));
        o.push_str(&format!("  \"shard_capacity\": {},\n", self.shard_capacity));
        o.push_str(&format!("  \"max_active\": {},\n", self.max_active));
        o.push_str(&format!("  \"queue_capacity\": {},\n", self.queue_capacity));
        o.push_str(&format!("  \"warm_started\": {},\n", self.warm_started));
        o.push_str(&format!(
            "  \"warm_regions_restored\": {},\n",
            self.warm_regions_restored
        ));
        o.push_str(&format!(
            "  \"warm_rejected_tenants\": {},\n",
            self.warm_rejected_tenants
        ));
        o.push_str(&format!("  \"smc_write_ppm\": {},\n", self.smc_write_ppm));
        o.push_str(&format!("  \"fault_seed\": {},\n", self.fault_seed));
        o.push_str(&format!("  \"flush_wave_ppm\": {},\n", self.flush_wave_ppm));
        o.push_str(&format!(
            "  \"counter_fault_ppm\": {},\n",
            self.counter_fault_ppm
        ));
        o.push_str(&format!("  \"churn_active\": {},\n", self.churn_active));
        o.push_str(&format!("  \"churn_seed\": {},\n", self.churn_seed));
        o.push_str(&format!(
            "  \"checkpoint_every\": {},\n",
            self.checkpoint_every
        ));
        o.push_str(&format!("  \"share_active\": {},\n", self.share_active));
        o.push_str(&format!("  \"rounds\": {},\n", self.queue.rounds));
        o.push_str(&format!("  \"total_insts\": {},\n", self.total_insts));
        o.push_str(&format!(
            "  \"insts_per_round\": {:.1},\n",
            self.insts_per_round()
        ));
        o.push_str(&format!(
            "  \"insts_per_sec\": {},\n",
            match self.insts_per_sec {
                Some(v) => format!("{v:.1}"),
                None => "null".to_string(),
            }
        ));
        o.push_str(&format!("  \"admissions\": {},\n", self.queue.admissions));
        o.push_str(&format!("  \"peak_active\": {},\n", self.queue.peak_active));
        o.push_str(&format!(
            "  \"peak_queue_depth\": {},\n",
            self.queue.peak_queue_depth
        ));
        o.push_str(&format!(
            "  \"queued_tenant_rounds\": {},\n",
            self.queue.queued_tenant_rounds
        ));
        o.push_str(&format!(
            "  \"deferred_tenant_rounds\": {},\n",
            self.queue.deferred_tenant_rounds
        ));
        o.push_str(&format!(
            "  \"shed_arrivals\": {},\n",
            self.queue.shed_arrivals
        ));
        // Every shed arrival retries until admitted, so retries equal
        // sheds: shedding delays work, never drops it.
        o.push_str(&format!(
            "  \"admission_retries\": {},\n",
            self.queue.shed_arrivals
        ));
        o.push_str(&format!(
            "  \"pressure_waves\": {},\n",
            self.pressure_waves()
        ));
        o.push_str(&format!("  \"shed_actions\": {},\n", self.shed_actions()));
        o.push_str(&format!(
            "  \"contended_rounds\": {},\n",
            self.contended_rounds()
        ));
        o.push_str(&format!(
            "  \"smc_invalidated_regions\": {},\n",
            self.smc_invalidated_regions()
        ));
        o.push_str(&format!(
            "  \"blacklisted_targets\": {},\n",
            self.blacklisted_targets()
        ));
        o.push_str(&format!("  \"disconnects\": {},\n", self.disconnects()));
        o.push_str(&format!("  \"reconnects\": {},\n", self.reconnects()));
        o.push_str(&format!("  \"crashes\": {},\n", self.crashes()));
        o.push_str(&format!(
            "  \"recovered_epochs\": {},\n",
            self.recovered_epochs()
        ));
        o.push_str(&format!(
            "  \"quarantined_tenants\": {},\n",
            self.quarantined_tenants()
        ));
        o.push_str(&format!(
            "  \"checkpoints_taken\": {},\n",
            self.checkpoints_taken()
        ));
        o.push_str(&format!(
            "  \"checkpoint_bytes\": {},\n",
            self.checkpoint_bytes()
        ));
        o.push_str(&format!(
            "  \"quarantine_retries\": {},\n",
            self.quarantine_retries()
        ));
        o.push_str(&format!(
            "  \"mean_rounds_to_first_exploit\": {},\n",
            match self.mean_rounds_to_first_exploit() {
                Some(v) => format!("{v:.4}"),
                None => "null".to_string(),
            }
        ));
        o.push_str(&format!(
            "  \"never_exploited\": {},\n",
            self.never_exploited()
        ));
        // Dedup metrics only exist when the shared store ran; emitting
        // zeros with sharing off made "no store" indistinguishable
        // from "a store that never held anything".
        if self.share_active {
            o.push_str(&format!("  \"unique_bytes\": {},\n", self.unique_bytes));
            o.push_str(&format!("  \"logical_bytes\": {},\n", self.logical_bytes));
            o.push_str(&format!("  \"shared_refs\": {},\n", self.shared_refs));
            o.push_str(&format!("  \"dedup_ratio\": {:.4},\n", self.dedup_ratio()));
        } else {
            o.push_str("  \"unique_bytes\": null,\n");
            o.push_str("  \"logical_bytes\": null,\n");
            o.push_str("  \"shared_refs\": null,\n");
            o.push_str("  \"dedup_ratio\": null,\n");
        }
        o.push_str(&format!(
            "  \"mean_admission_wait\": {:.4},\n",
            self.mean_admission_wait()
        ));
        let hist: Vec<String> = self
            .queue
            .admission_wait_hist
            .iter()
            .map(|n| n.to_string())
            .collect();
        o.push_str(&format!(
            "  \"admission_wait_hist\": [{}],\n",
            hist.join(", ")
        ));
        o.push_str("  \"tenants\": [\n");
        for (i, t) in self.tenants.iter().enumerate() {
            let first_exploit = match t.first_exploit_round {
                Some(r) => r.to_string(),
                None => "null".to_string(),
            };
            let features = match &t.policy_features {
                None => "null".to_string(),
                Some(f) => format!(
                    "{{\"expected_epochs\": {}, \"blocks\": {}, \
                     \"mean_block_insts\": {:.4}, \"taken_density\": {:.4}, \
                     \"backward_fraction\": {:.4}, \"prior\": \"{}\", \
                     \"explore_len\": {}}}",
                    f.expected_epochs,
                    f.blocks,
                    f.mean_block_insts,
                    f.taken_density,
                    f.backward_fraction,
                    f.prior.name(),
                    f.explore_len,
                ),
            };
            o.push_str(&format!(
                "    {{\"tenant\": {}, \"workload\": \"{}\", \"final_selector\": \"{}\", \
                 \"epochs\": {}, \"switches\": {}, \"admitted\": {}, \"admitted_round\": {}, \
                 \"admission_wait\": {}, \
                 \"finished_round\": {}, \"first_exploit_round\": {}, \"total_insts\": {}, \
                 \"cache_insts\": {}, \"hit_rate\": {:.4}, \"insts_selected\": {}, \
                 \"regions_selected\": {}, \"pressure_evicted\": {}, \"smc_events\": {}, \
                 \"smc_invalidated\": {}, \"reformations\": {}, \"blacklisted_targets\": {}, \
                 \"blacklist_hits\": {}, \"disconnects\": {}, \"reconnects\": {}, \
                 \"crashes\": {}, \"recovered_epochs\": {}, \"checkpoints\": {}, \
                 \"checkpoint_bytes\": {}, \"quarantined\": {}, \
                 \"quarantine_retries\": {}, \"smc_dips\": {}, \
                 \"max_dip_depth\": {:.4}, \"max_dip_recovery_epochs\": {}, \
                 \"policy_features\": {}}}{}\n",
                t.tenant,
                t.workload,
                t.final_selector,
                t.epochs,
                t.switches,
                t.admitted,
                t.admitted_round,
                t.admission_wait,
                t.finished_round,
                first_exploit,
                t.total_insts,
                t.cache_insts,
                t.hit_rate(),
                t.insts_selected,
                t.regions_selected,
                t.pressure_evicted,
                t.smc_events,
                t.smc_invalidated,
                t.reformations,
                t.blacklisted_targets,
                t.blacklist_hits,
                t.disconnects,
                t.reconnects,
                t.crashes,
                t.recovered_epochs,
                t.checkpoints,
                t.checkpoint_bytes,
                t.quarantined,
                t.quarantine_retries,
                t.smc_dips,
                t.max_dip_depth,
                t.max_dip_recovery_epochs,
                features,
                if i + 1 < self.tenants.len() { "," } else { "" }
            ));
        }
        o.push_str("  ],\n");
        o.push_str("  \"shards\": [\n");
        for (i, s) in self.shards.iter().enumerate() {
            let (unique, logical, refs) = if self.share_active {
                (
                    s.unique_bytes.to_string(),
                    s.logical_bytes.to_string(),
                    s.shared_refs.to_string(),
                )
            } else {
                ("null".into(), "null".into(), "null".into())
            };
            o.push_str(&format!(
                "    {{\"shard\": {}, \"peak_bytes\": {}, \"contended_rounds\": {}, \
                 \"pressure_waves\": {}, \"shed_actions\": {}, \"evicted_regions\": {}, \
                 \"smc_invalidated\": {}, \"final_bytes\": {}, \"unique_bytes\": {}, \
                 \"logical_bytes\": {}, \"shared_refs\": {}}}{}\n",
                s.shard,
                s.peak_bytes,
                s.contended_rounds,
                s.pressure_waves,
                s.shed_actions,
                s.evicted_regions,
                s.smc_invalidated,
                s.final_bytes,
                unique,
                logical,
                refs,
                if i + 1 < self.shards.len() { "," } else { "" }
            ));
        }
        o.push_str("  ],\n");
        o.push_str("  \"switches\": [\n");
        for (i, s) in self.switches.iter().enumerate() {
            o.push_str(&format!(
                "    {{\"tenant\": {}, \"workload\": \"{}\", \"epoch\": {}, \
                 \"from\": \"{}\", \"to\": \"{}\", \"reason\": \"{}\"}}{}\n",
                s.tenant,
                s.workload,
                s.epoch,
                s.from.name(),
                s.to.name(),
                s.reason.as_str(),
                if i + 1 < self.switches.len() { "," } else { "" }
            ));
        }
        o.push_str("  ]\n}\n");
        o
    }
}

/// A serving run's full outcome: the aggregate report, every tenant's
/// complete [`RunReport`] in tenant order (for the determinism
/// cross-check and downstream figure code), and a snapshot of the
/// final serving state for the next run to warm-start from.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeOutcome {
    /// The aggregate serving report.
    pub report: ServeReport,
    /// Per-tenant full run reports, in tenant order.
    pub run_reports: Vec<RunReport>,
    /// The run's final state (policy engines and cached regions),
    /// ready to persist with
    /// [`save_snapshot`](crate::snapshot::save_snapshot).
    pub snapshot: ServeSnapshot,
}

/// Tracks hit-rate dips caused by invalidation waves over one
/// tenant's epochs.
///
/// Calm epochs (no invalidations, no open dip) feed an exponential
/// moving average of the hit rate — the *baseline*. An epoch that
/// loses regions to self-modifying code opens a *dip*; the dip stays
/// open (its depth is the worst shortfall below the baseline) until
/// the hit rate climbs back to 95 % of the baseline, at which point
/// the recovery length in epochs is recorded. The tracker is pure
/// arithmetic over the deterministic epoch stream, so its summary is
/// byte-identical for every worker count.
#[derive(Clone, Debug, Default)]
pub struct DipTracker {
    baseline: Option<f64>,
    open: Option<Dip>,
    dips: u64,
    max_depth: f64,
    max_recovery: u64,
}

#[derive(Clone, Copy, Debug)]
struct Dip {
    depth: f64,
    epochs: u64,
}

impl DipTracker {
    /// Baseline EMA weight for the newest calm epoch.
    const ALPHA: f64 = 0.25;
    /// A dip closes when the hit rate reaches this fraction of the
    /// pre-dip baseline.
    const RECOVERY_FRACTION: f64 = 0.95;

    /// Feeds one epoch: its cache hit rate and whether it lost any
    /// regions to invalidation. Epochs that executed nothing should
    /// not be fed — a 0/0 hit rate says nothing about the cache.
    pub fn on_epoch(&mut self, hit_rate: f64, invalidated: bool) {
        if invalidated && self.open.is_none() {
            self.dips += 1;
            self.open = Some(Dip {
                depth: 0.0,
                epochs: 0,
            });
        }
        if let Some(mut dip) = self.open.take() {
            let base = self.baseline.unwrap_or(hit_rate);
            dip.epochs += 1;
            dip.depth = dip.depth.max(base - hit_rate);
            if hit_rate >= Self::RECOVERY_FRACTION * base {
                self.max_depth = self.max_depth.max(dip.depth);
                self.max_recovery = self.max_recovery.max(dip.epochs);
            } else {
                self.open = Some(dip);
            }
        } else {
            let b = self.baseline.get_or_insert(hit_rate);
            *b = Self::ALPHA * hit_rate + (1.0 - Self::ALPHA) * *b;
        }
    }

    /// Closes any still-open dip (a run can end mid-recovery) and
    /// returns the dip statistics.
    pub fn finish(mut self) -> DipSummary {
        if let Some(dip) = self.open.take() {
            self.max_depth = self.max_depth.max(dip.depth);
            self.max_recovery = self.max_recovery.max(dip.epochs);
        }
        DipSummary {
            dips: self.dips,
            max_depth: self.max_depth,
            max_recovery_epochs: self.max_recovery,
        }
    }
}

/// What a [`DipTracker`] measured over a tenant's run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DipSummary {
    /// Invalidation-induced dips observed.
    pub dips: u64,
    /// Deepest drop below the pre-dip baseline, absolute hit rate.
    pub max_depth: f64,
    /// Longest recovery back to 95 % of the baseline, in epochs.
    pub max_recovery_epochs: u64,
}

#[cfg(test)]
mod tests {
    use super::{DipTracker, WAIT_BUCKETS, wait_bucket};

    #[test]
    fn wait_buckets_are_log2_with_a_zero_bucket() {
        assert_eq!(wait_bucket(0), 0, "immediate admissions get bucket 0");
        assert_eq!(wait_bucket(1), 1);
        assert_eq!(wait_bucket(2), 2);
        assert_eq!(wait_bucket(3), 2);
        assert_eq!(wait_bucket(4), 3);
        assert_eq!(wait_bucket(7), 3);
        assert_eq!(wait_bucket(1 << 13), 14);
        assert_eq!(wait_bucket(1 << 20), WAIT_BUCKETS - 1, "the tail absorbs");
        assert_eq!(wait_bucket(u64::MAX), WAIT_BUCKETS - 1);
    }

    #[test]
    fn calm_runs_report_no_dips() {
        let mut t = DipTracker::default();
        for _ in 0..50 {
            t.on_epoch(0.9, false);
        }
        let s = t.finish();
        assert_eq!(s.dips, 0);
        assert_eq!(s.max_depth, 0.0);
        assert_eq!(s.max_recovery_epochs, 0);
    }

    #[test]
    fn a_wave_opens_one_dip_and_recovery_is_timed() {
        let mut t = DipTracker::default();
        for _ in 0..20 {
            t.on_epoch(0.9, false); // baseline settles near 0.9
        }
        t.on_epoch(0.5, true); // wave strikes: dip opens
        t.on_epoch(0.6, false); // still below 95 % of baseline
        t.on_epoch(0.7, false);
        t.on_epoch(0.89, false); // recovered
        for _ in 0..5 {
            t.on_epoch(0.9, false);
        }
        let s = t.finish();
        assert_eq!(s.dips, 1);
        assert!(s.max_depth > 0.35 && s.max_depth < 0.45, "{}", s.max_depth);
        assert_eq!(s.max_recovery_epochs, 4);
    }

    #[test]
    fn back_to_back_waves_extend_the_open_dip() {
        let mut t = DipTracker::default();
        for _ in 0..20 {
            t.on_epoch(0.9, false);
        }
        t.on_epoch(0.5, true);
        t.on_epoch(0.4, true); // second wave while still down: same dip
        t.on_epoch(0.9, false);
        let s = t.finish();
        assert_eq!(s.dips, 1, "an open dip absorbs further waves");
        assert!(s.max_depth > 0.45, "{}", s.max_depth);
        assert_eq!(s.max_recovery_epochs, 3);
    }

    #[test]
    fn a_run_ending_mid_dip_still_counts_it() {
        let mut t = DipTracker::default();
        for _ in 0..10 {
            t.on_epoch(0.9, false);
        }
        t.on_epoch(0.3, true);
        t.on_epoch(0.4, false);
        let s = t.finish(); // never recovered
        assert_eq!(s.dips, 1);
        assert!(s.max_depth > 0.5);
        assert_eq!(s.max_recovery_epochs, 2);
    }
}
