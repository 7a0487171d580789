//! Snapshot/warm-start persistence for the serving runtime.
//!
//! A serving run ends with everything the paper says is expensive to
//! learn: which selector wins for each tenant (the policy engine's
//! scores and phase) and the hot working set itself (the code cache).
//! A cold restart throws both away and re-explores from scratch. This
//! module persists that learned state in a versioned binary
//! [`ServeSnapshot`] so the next run can warm-start.
//!
//! Two design rules, both borrowed from `rsel_trace`'s compact stream
//! format:
//!
//! - **Strict validation.** The loader resolves every field against
//!   the tenant specs and policy configuration it will be replayed
//!   under: wrong magic/version, unknown selector tags, candidate
//!   lists that differ from the configuration, policy state the engine
//!   rejects, region blocks that do not exist in the tenant's program,
//!   and trailing bytes all produce a typed [`SnapshotError`] — never
//!   a panic, never a silent partial restore.
//! - **Re-derive, don't trust.** A snapshot stores only region
//!   *shape* — entry address, block path, observed edges. Stubs, size
//!   estimates, and cache offsets are rebuilt against the live
//!   [`Program`](rsel_program::Program) on restore, so a snapshot can
//!   never smuggle stale layout into a run.
//!
//! Strictness has one deliberate relief valve: [`load_warm_start`]
//! parses with the same framing rules but downgrades *per-tenant
//! semantic* failures (a candidate list from another configuration, a
//! rejected policy state, a region that no longer rebuilds) to a cold
//! start for that tenant, warning on stderr and counting the rejection
//! — so one stale tenant in an otherwise good snapshot no longer
//! throws away everyone else's warm state. Structural failures (bad
//! magic, framing, truncation, trailing bytes) still reject the file.
//!
//! Share mode ([`ServeConfig::share`](crate::ServeConfig::share))
//! changes nothing here: snapshots always store each tenant's regions
//! under its own namespace, exactly as unshared serving would, and the
//! RSNP format carries no store state. A warm start under share mode
//! simply re-hashes the restored regions through
//! [`region_key`](crate::region_key) at the first publish barrier and
//! re-deduplicates them into the content-addressed store — so the same
//! snapshot file round-trips between shared and unshared runs.
//!
//! # Format (version 2)
//!
//! Little-endian throughout.
//!
//! ```text
//! magic            b"RSNP"
//! version          u16 (= 2)
//! tenant_count     u16
//! per tenant:
//!   name_len       u8, then name bytes (UTF-8 workload name)
//!   selector       u8 (selector tag, see below)
//!   exploring      u8 (0 = exploit, 1 = explore)
//!   next           u32 (next candidate while exploring, else 0)
//!   current        u32 (index of the running candidate)
//!   candidates     u32, then per candidate:
//!     kind         u8 (selector tag)
//!     has_score    u8 (0/1), then score f64 bits if 1
//!   ema            f64 bits
//!   switches       u64
//!   region_count   u32, then per region:
//!     kind         u8 (0 = trace, 1 = combined)
//!     entry        u64
//!     block_count  u32, then block start addresses u64 each
//!     edge_count   u32, then (from u64, to u64) pairs
//!   blacklist      u32, then per entry (strictly ascending by address):
//!     entry        u64 (entry address)
//!     count        u32 (invalidations suffered)
//! ```
//!
//! Version 2 added the per-tenant blacklist section: the SMC-fault
//! backoff counts survive a restart, so a warm-started run re-demotes
//! a hostile target on its first new invalidation instead of
//! re-learning the whole history.
//!
//! Selector tags are the positions in
//! [`SelectorKind::extended`](rsel_core::SelectorKind::extended)
//! (0 = NET … 7 = ADORE). Storing each candidate's kind next to its
//! score means a snapshot saved under one candidate configuration can
//! never be replayed against another silently
//! ([`SnapshotError::CandidateMismatch`]).

use crate::policy::{PolicyConfig, PolicyEngine, PolicyState, derive_tenant_policy};
use crate::session::TenantSpec;
use rsel_core::select::SelectorKind;
use rsel_core::{Region, RegionKind, SimError};
use rsel_program::Addr;
use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"RSNP";
const VERSION: u16 = 2;

const KIND_TRACE: u8 = 0;
const KIND_COMBINED: u8 = 1;

/// An error loading a serve snapshot.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input does not start with the snapshot magic.
    BadMagic,
    /// The format version is not supported.
    BadVersion(u16),
    /// A structural tag byte (exploring flag, score presence, region
    /// kind) is invalid.
    BadTag(u8),
    /// A selector tag names no implemented selector.
    UnknownSelector(u8),
    /// The snapshot serves a different tenant population.
    TenantCountMismatch {
        /// Tenants stored in the snapshot.
        snapshot: u16,
        /// Tenant specs it was asked to warm.
        specs: usize,
    },
    /// A tenant's workload name disagrees with its spec.
    WorkloadMismatch {
        /// The tenant id.
        tenant: u16,
        /// Workload name stored in the snapshot.
        snapshot: String,
        /// Workload name of the spec at that position.
        spec: &'static str,
    },
    /// A tenant's stored candidate list disagrees with the policy
    /// configuration the snapshot is being replayed under.
    CandidateMismatch {
        /// The tenant id.
        tenant: u16,
    },
    /// A tenant's policy state is internally inconsistent (indices out
    /// of range, non-finite scores, or a running selector that is not
    /// the current candidate).
    BadPolicyState(u16),
    /// A tenant's region cannot be rebuilt against its program.
    BadRegion {
        /// The tenant id.
        tenant: u16,
        /// Why the rebuild failed.
        source: SimError,
    },
    /// A structural invariant of the format is violated.
    Malformed(&'static str),
    /// The input continues past the end of a well-formed snapshot.
    TrailingData,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o failed: {e}"),
            SnapshotError::BadMagic => write!(f, "not a serve snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::BadTag(t) => write!(f, "invalid snapshot tag {t}"),
            SnapshotError::UnknownSelector(t) => write!(f, "unknown selector tag {t}"),
            SnapshotError::TenantCountMismatch { snapshot, specs } => {
                write!(
                    f,
                    "snapshot holds {snapshot} tenants but {specs} specs given"
                )
            }
            SnapshotError::WorkloadMismatch {
                tenant,
                snapshot,
                spec,
            } => write!(
                f,
                "tenant {tenant} snapshot records workload {snapshot:?} but spec is {spec:?}"
            ),
            SnapshotError::CandidateMismatch { tenant } => {
                write!(
                    f,
                    "tenant {tenant} candidate list differs from the configuration"
                )
            }
            SnapshotError::BadPolicyState(t) => {
                write!(f, "tenant {t} policy state is inconsistent")
            }
            SnapshotError::BadRegion { tenant, source } => {
                write!(f, "tenant {tenant} region cannot be rebuilt: {source}")
            }
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapshotError::TrailingData => {
                write!(f, "input continues past the end of the snapshot")
            }
        }
    }
}

impl Error for SnapshotError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::BadRegion { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Stable on-disk tag for a selector kind (its position in
/// [`SelectorKind::extended`]).
fn selector_tag(kind: SelectorKind) -> u8 {
    SelectorKind::extended()
        .iter()
        .position(|&k| k == kind)
        .expect("extended() lists every selector") as u8
}

fn tag_selector(tag: u8) -> Result<SelectorKind, SnapshotError> {
    SelectorKind::extended()
        .get(tag as usize)
        .copied()
        .ok_or(SnapshotError::UnknownSelector(tag))
}

/// One cached region's persisted shape: just enough to rebuild it
/// against the tenant's program ([`RegionSnapshot::rebuild`]). Stubs,
/// sizes, and layout are re-derived on restore, never stored.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionSnapshot {
    /// Trace or combined.
    pub kind: RegionKind,
    /// The region's single entry address (always `blocks[0]`).
    pub entry: Addr,
    /// Copied block start addresses, in region order (the trace path
    /// for trace regions).
    pub blocks: Vec<Addr>,
    /// Internal edges. Empty for trace regions, whose edges are a pure
    /// function of the path; the full observed set for combined
    /// regions.
    pub edges: Vec<(Addr, Addr)>,
}

impl RegionSnapshot {
    /// Captures a live region's shape.
    pub fn capture(region: &Region) -> Self {
        let blocks: Vec<Addr> = region.blocks().iter().map(|b| b.start()).collect();
        let edges = match region.kind() {
            RegionKind::Trace => Vec::new(),
            RegionKind::Combined => blocks
                .iter()
                .flat_map(|&from| region.successors(from).iter().map(move |&to| (from, to)))
                .collect(),
        };
        RegionSnapshot {
            kind: region.kind(),
            entry: region.entry(),
            blocks,
            edges,
        }
    }

    /// Rebuilds the region against `program`, re-deriving edges, exit
    /// stubs, and size estimates from the live block bodies.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] if the snapshot's own invariants
    /// are broken (trace with stored edges, entry not the first
    /// block); the underlying [`SimError`] if a block or edge does not
    /// exist in `program`.
    pub fn rebuild(&self, program: &rsel_program::Program) -> Result<Region, SnapshotError> {
        if self.blocks.first() != Some(&self.entry) {
            return Err(SnapshotError::Malformed(
                "region entry is not its first block",
            ));
        }
        let build = match self.kind {
            RegionKind::Trace => {
                if !self.edges.is_empty() {
                    return Err(SnapshotError::Malformed("trace region stores edges"));
                }
                Region::try_trace(program, &self.blocks)
            }
            RegionKind::Combined => Region::try_combined(program, &self.blocks, &self.edges),
        };
        build.map_err(|source| SnapshotError::BadRegion { tenant: 0, source })
    }
}

/// One tenant's persisted serving state: its identity, the selector
/// it was running, everything its policy engine had learned, and the
/// shape of every region in its code cache.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantSnapshot {
    /// Workload name, validated against the spec on load.
    pub workload: String,
    /// The selector driving the session when the snapshot was taken.
    pub selector: SelectorKind,
    /// The policy engine's exported state.
    pub policy: PolicyState,
    /// Every cached region, in selection order.
    pub regions: Vec<RegionSnapshot>,
    /// The SMC-fault blacklist's persistent counts, `(entry,
    /// invalidations)` in ascending entry order (cooldown deadlines
    /// are run-relative and never persisted).
    pub blacklist: Vec<(Addr, u32)>,
}

/// A whole serving run's persisted state, one [`TenantSnapshot`] per
/// tenant in tenant order. Produced at the end of every serve (each
/// [`ServeOutcome`](crate::ServeOutcome) carries one) and fed back
/// through [`ServeSnapshot::into_warm_start`] and
/// [`serve_warm`](crate::serve::serve_warm) to warm-start the next
/// run.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeSnapshot {
    /// Per-tenant state, in tenant order.
    pub tenants: Vec<TenantSnapshot>,
}

impl ServeSnapshot {
    /// Total regions stored across all tenants.
    pub fn region_count(&self) -> u64 {
        self.tenants.iter().map(|t| t.regions.len() as u64).sum()
    }

    /// Saves the snapshot to `path` (see [`save_snapshot`]).
    ///
    /// # Errors
    ///
    /// Propagates any I/O error.
    pub fn save_to_path<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        save_snapshot(self, &mut w)?;
        w.flush()
    }

    /// Loads and validates a snapshot from `path` (see
    /// [`load_snapshot`]).
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] on I/O failure or any validation
    /// failure against `specs`/`policy`.
    pub fn load_from_path<P: AsRef<Path>>(
        specs: &[TenantSpec],
        policy: &PolicyConfig,
        path: P,
    ) -> Result<Self, SnapshotError> {
        load_snapshot(specs, policy, BufReader::new(File::open(path)?))
    }

    /// Converts a fully validated snapshot into a [`WarmStart`] with
    /// every tenant restorable and no rejections.
    pub fn into_warm_start(self) -> WarmStart {
        WarmStart {
            tenants: self.tenants.into_iter().map(Some).collect(),
            rejected: 0,
        }
    }
}

/// A per-tenant warm-start plan: each slot either carries a validated
/// [`TenantSnapshot`] to restore or is `None`, meaning that tenant
/// starts cold. Produced by [`load_warm_start`] (which degrades
/// semantically stale tenants instead of rejecting the file) or by
/// [`ServeSnapshot::into_warm_start`] (all restorable).
#[derive(Clone, Debug, PartialEq)]
pub struct WarmStart {
    /// Per-tenant restore state, in tenant order; `None` = cold start.
    pub tenants: Vec<Option<TenantSnapshot>>,
    /// Tenants whose snapshot state was rejected during loading.
    pub rejected: u64,
}

impl WarmStart {
    /// Tenants that will actually restore from snapshot state.
    pub fn restored_tenants(&self) -> usize {
        self.tenants.iter().filter(|t| t.is_some()).count()
    }

    /// Total regions staged for restoration.
    pub fn region_count(&self) -> u64 {
        self.tenants
            .iter()
            .flatten()
            .map(|t| t.regions.len() as u64)
            .sum()
    }

    /// Loads a warm-start plan from `path` (see [`load_warm_start`]).
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] on I/O failure or a *structural*
    /// defect of the file; per-tenant semantic mismatches degrade to
    /// cold slots instead.
    pub fn load_from_path<P: AsRef<Path>>(
        specs: &[TenantSpec],
        policy: &PolicyConfig,
        path: P,
    ) -> Result<Self, SnapshotError> {
        load_warm_start(specs, policy, BufReader::new(File::open(path)?))
    }
}

/// Writes `snapshot` to `writer` in the version-2 binary format.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
///
/// # Panics
///
/// Panics if a workload name exceeds 255 bytes or a tenant holds more
/// than `u32::MAX` regions — neither can come from a real serving run.
pub fn save_snapshot<W: Write>(snapshot: &ServeSnapshot, mut writer: W) -> io::Result<()> {
    writer.write_all(MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    writer.write_all(&(snapshot.tenants.len() as u16).to_le_bytes())?;
    for t in &snapshot.tenants {
        write_tenant(t, &mut writer)?;
    }
    Ok(())
}

/// Writes one tenant's section of the version-2 format — the unit the
/// churn layer's per-tenant checkpoints are accounted in.
fn write_tenant<W: Write>(t: &TenantSnapshot, writer: &mut W) -> io::Result<()> {
    assert!(
        t.workload.len() <= u8::MAX as usize,
        "workload name too long"
    );
    writer.write_all(&[t.workload.len() as u8])?;
    writer.write_all(t.workload.as_bytes())?;
    writer.write_all(&[selector_tag(t.selector)])?;
    writer.write_all(&[t.policy.exploring as u8])?;
    writer.write_all(&t.policy.next.to_le_bytes())?;
    writer.write_all(&t.policy.current.to_le_bytes())?;
    writer.write_all(&(t.policy.scores.len() as u32).to_le_bytes())?;
    for (i, score) in t.policy.scores.iter().enumerate() {
        // Candidate kinds ride next to their scores so the loader
        // can refuse a foreign candidate configuration.
        let kind = t
            .policy
            .candidates
            .get(i)
            .copied()
            .expect("one candidate per score slot");
        writer.write_all(&[selector_tag(kind)])?;
        match score {
            Some(s) => {
                writer.write_all(&[1])?;
                writer.write_all(&s.to_bits().to_le_bytes())?;
            }
            None => writer.write_all(&[0])?,
        }
    }
    writer.write_all(&t.policy.ema.to_bits().to_le_bytes())?;
    writer.write_all(&t.policy.switches.to_le_bytes())?;
    writer.write_all(&(t.regions.len() as u32).to_le_bytes())?;
    for r in &t.regions {
        let kind = match r.kind {
            RegionKind::Trace => KIND_TRACE,
            RegionKind::Combined => KIND_COMBINED,
        };
        writer.write_all(&[kind])?;
        writer.write_all(&r.entry.raw().to_le_bytes())?;
        writer.write_all(&(r.blocks.len() as u32).to_le_bytes())?;
        for b in &r.blocks {
            writer.write_all(&b.raw().to_le_bytes())?;
        }
        writer.write_all(&(r.edges.len() as u32).to_le_bytes())?;
        for &(from, to) in &r.edges {
            writer.write_all(&from.raw().to_le_bytes())?;
            writer.write_all(&to.raw().to_le_bytes())?;
        }
    }
    writer.write_all(&(t.blacklist.len() as u32).to_le_bytes())?;
    for &(entry, count) in &t.blacklist {
        writer.write_all(&entry.raw().to_le_bytes())?;
        writer.write_all(&count.to_le_bytes())?;
    }
    Ok(())
}

/// The exact size, in bytes, `snap` occupies in the version-2 format —
/// what a per-tenant churn checkpoint costs. Measured by running the
/// real writer against a counting sink, so it can never drift from the
/// serialization.
pub fn tenant_snapshot_bytes(snap: &TenantSnapshot) -> u64 {
    struct CountingSink(u64);
    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0 += buf.len() as u64;
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    let mut sink = CountingSink(0);
    write_tenant(snap, &mut sink).expect("counting sink cannot fail");
    sink.0
}

fn read_u8<R: Read>(r: &mut R) -> Result<u8, SnapshotError> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, SnapshotError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, SnapshotError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_flag<R: Read>(r: &mut R) -> Result<bool, SnapshotError> {
    match read_u8(r)? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(SnapshotError::BadTag(t)),
    }
}

/// One tenant's record as parsed off the wire, before any semantic
/// validation. Everything that decides *framing* (counts, flag bytes,
/// region kind tags) has been checked; everything that depends on the
/// specs or the policy configuration has not.
struct RawTenant {
    workload: String,
    selector: u8,
    exploring: bool,
    next: u32,
    current: u32,
    /// Per candidate: its selector tag and optional score.
    candidates: Vec<(u8, Option<f64>)>,
    ema: f64,
    switches: u64,
    regions: Vec<RegionSnapshot>,
    blacklist: Vec<(Addr, u32)>,
}

/// Parses one tenant record. Errors here are structural — the reader
/// cannot be trusted past them, so they always reject the whole file.
fn read_tenant<R: Read>(reader: &mut R) -> Result<RawTenant, SnapshotError> {
    let name_len = read_u8(reader)? as usize;
    let mut name = vec![0u8; name_len];
    reader.read_exact(&mut name)?;
    let workload = String::from_utf8(name)
        .map_err(|_| SnapshotError::Malformed("workload name is not UTF-8"))?;
    let selector = read_u8(reader)?;
    let exploring = read_flag(reader)?;
    let next = read_u32(reader)?;
    let current = read_u32(reader)?;
    let candidate_count = read_u32(reader)? as usize;
    let mut candidates = Vec::with_capacity(candidate_count.min(1 << 10));
    for _ in 0..candidate_count {
        let tag = read_u8(reader)?;
        let score = if read_flag(reader)? {
            Some(f64::from_bits(read_u64(reader)?))
        } else {
            None
        };
        candidates.push((tag, score));
    }
    let ema = f64::from_bits(read_u64(reader)?);
    let switches = read_u64(reader)?;
    let region_count = read_u32(reader)? as usize;
    let mut regions = Vec::with_capacity(region_count.min(1 << 20));
    for _ in 0..region_count {
        let kind = match read_u8(reader)? {
            KIND_TRACE => RegionKind::Trace,
            KIND_COMBINED => RegionKind::Combined,
            tag => return Err(SnapshotError::BadTag(tag)),
        };
        let entry = Addr::new(read_u64(reader)?);
        let block_count = read_u32(reader)? as usize;
        let mut blocks = Vec::with_capacity(block_count.min(1 << 20));
        for _ in 0..block_count {
            blocks.push(Addr::new(read_u64(reader)?));
        }
        let edge_count = read_u32(reader)? as usize;
        let mut edges = Vec::with_capacity(edge_count.min(1 << 20));
        for _ in 0..edge_count {
            let from = Addr::new(read_u64(reader)?);
            let to = Addr::new(read_u64(reader)?);
            edges.push((from, to));
        }
        regions.push(RegionSnapshot {
            kind,
            entry,
            blocks,
            edges,
        });
    }
    let blacklist_count = read_u32(reader)? as usize;
    let mut blacklist = Vec::with_capacity(blacklist_count.min(1 << 20));
    for _ in 0..blacklist_count {
        let entry = Addr::new(read_u64(reader)?);
        let count = read_u32(reader)?;
        blacklist.push((entry, count));
    }
    Ok(RawTenant {
        workload,
        selector,
        exploring,
        next,
        current,
        candidates,
        ema,
        switches,
        regions,
        blacklist,
    })
}

/// Validates a parsed tenant record against its spec and the policy
/// configuration. Errors here are semantic: the file is well-formed
/// but this tenant's state does not apply to this run — the strict
/// loader rejects the file, the lenient loader cold-starts the tenant.
fn validate_tenant(
    tenant: u16,
    raw: RawTenant,
    spec: &TenantSpec,
    policy: &PolicyConfig,
) -> Result<TenantSnapshot, SnapshotError> {
    if raw.workload != spec.name() {
        return Err(SnapshotError::WorkloadMismatch {
            tenant,
            snapshot: raw.workload,
            spec: spec.name(),
        });
    }
    // Adaptive mode derives each tenant's candidate list from its
    // stream; the derivation is a pure function of (config, spec), so
    // the loader reproduces exactly the list the tenant served under
    // and validates the persisted state against that.
    let (policy, _) = derive_tenant_policy(policy, spec);
    let policy = &policy;
    let selector = tag_selector(raw.selector)?;
    if raw.candidates.len() != policy.candidates.len() {
        return Err(SnapshotError::CandidateMismatch { tenant });
    }
    let mut scores = Vec::with_capacity(raw.candidates.len());
    for (i, &(tag, score)) in raw.candidates.iter().enumerate() {
        if tag_selector(tag)? != policy.candidates[i] {
            return Err(SnapshotError::CandidateMismatch { tenant });
        }
        scores.push(score);
    }
    let state = PolicyState {
        exploring: raw.exploring,
        next: raw.next,
        current: raw.current,
        scores,
        ema: raw.ema,
        switches: raw.switches,
        candidates: policy.candidates.clone(),
    };
    // The engine is the authority on state consistency; anything it
    // rejects, the loader rejects.
    if PolicyEngine::restore(policy.clone(), &state).is_none() {
        return Err(SnapshotError::BadPolicyState(tenant));
    }
    if policy.candidates[raw.current as usize] != selector {
        return Err(SnapshotError::BadPolicyState(tenant));
    }
    let mut entries = HashSet::with_capacity(raw.regions.len());
    for snap in &raw.regions {
        if !entries.insert(snap.entry) {
            return Err(SnapshotError::BadRegion {
                tenant,
                source: SimError::DuplicateRegionEntry(snap.entry),
            });
        }
        // Prove the region rebuilds against the live program now, so a
        // warm start can only fail before any state is built.
        snap.rebuild(spec.program()).map_err(|e| match e {
            SnapshotError::BadRegion { source, .. } => SnapshotError::BadRegion { tenant, source },
            other => other,
        })?;
    }
    if !raw.blacklist.windows(2).all(|w| w[0].0 < w[1].0) {
        return Err(SnapshotError::Malformed(
            "blacklist entries are not strictly ascending",
        ));
    }
    Ok(TenantSnapshot {
        workload: spec.name().to_string(),
        selector,
        policy: state,
        regions: raw.regions,
        blacklist: raw.blacklist,
    })
}

/// Reads the fixed header, leaving the reader at the first tenant
/// record.
fn read_header<R: Read>(reader: &mut R, specs: &[TenantSpec]) -> Result<(), SnapshotError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut u16b = [0u8; 2];
    reader.read_exact(&mut u16b)?;
    let version = u16::from_le_bytes(u16b);
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    reader.read_exact(&mut u16b)?;
    let tenant_count = u16::from_le_bytes(u16b);
    if tenant_count as usize != specs.len() {
        return Err(SnapshotError::TenantCountMismatch {
            snapshot: tenant_count,
            specs: specs.len(),
        });
    }
    Ok(())
}

/// A well-formed snapshot consumes the input exactly.
fn expect_eof<R: Read>(reader: &mut R) -> Result<(), SnapshotError> {
    let mut probe = [0u8; 1];
    match reader.read(&mut probe) {
        Ok(0) => Ok(()),
        Ok(_) => Err(SnapshotError::TrailingData),
        Err(e) => Err(SnapshotError::Io(e)),
    }
}

/// Reads and fully validates a snapshot from `reader` against the
/// tenant `specs` and `policy` configuration it will warm.
///
/// Validation is strict: every region is rebuilt against its tenant's
/// program (and discarded —
/// [`TenantSession::restore`](crate::TenantSession::restore) rebuilds
/// again into a live simulator), every policy state must be one
/// [`PolicyEngine::restore`] accepts, and the input must end exactly
/// where the format says it does. For the variant that degrades stale
/// tenants instead of rejecting the file, see [`load_warm_start`].
///
/// # Errors
///
/// Returns a [`SnapshotError`] describing the first violation found.
pub fn load_snapshot<R: Read>(
    specs: &[TenantSpec],
    policy: &PolicyConfig,
    mut reader: R,
) -> Result<ServeSnapshot, SnapshotError> {
    read_header(&mut reader, specs)?;
    let mut tenants = Vec::with_capacity(specs.len());
    for (t, spec) in specs.iter().enumerate() {
        let raw = read_tenant(&mut reader)?;
        tenants.push(validate_tenant(t as u16, raw, spec, policy)?);
    }
    expect_eof(&mut reader)?;
    Ok(ServeSnapshot { tenants })
}

/// Reads a snapshot from `reader` with graceful per-tenant
/// degradation: framing is as strict as [`load_snapshot`], but a
/// tenant whose state is *semantically* stale — recorded under a
/// different candidate configuration, a policy state the engine
/// rejects, a workload or region set that no longer matches the spec —
/// is downgraded to a cold start (its slot in the returned
/// [`WarmStart`] is `None`) with a warning on stderr, instead of
/// rejecting every other tenant's warm state along with it.
///
/// # Errors
///
/// Returns a [`SnapshotError`] only for structural defects: I/O
/// failure, bad magic/version, a tenant count that does not match
/// `specs`, broken framing, or trailing bytes.
pub fn load_warm_start<R: Read>(
    specs: &[TenantSpec],
    policy: &PolicyConfig,
    mut reader: R,
) -> Result<WarmStart, SnapshotError> {
    read_header(&mut reader, specs)?;
    let mut tenants = Vec::with_capacity(specs.len());
    let mut rejected = 0u64;
    for (t, spec) in specs.iter().enumerate() {
        let raw = read_tenant(&mut reader)?;
        match validate_tenant(t as u16, raw, spec, policy) {
            Ok(snap) => tenants.push(Some(snap)),
            Err(e) => {
                eprintln!("warning: tenant {t} snapshot rejected, cold-starting it: {e}");
                tenants.push(None);
                rejected += 1;
            }
        }
    }
    expect_eof(&mut reader)?;
    Ok(WarmStart { tenants, rejected })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{ServeConfig, serve};
    use rsel_workloads::{Scale, suite};

    fn specs() -> Vec<TenantSpec> {
        suite()
            .iter()
            .take(2)
            .map(|w| TenantSpec::record(w, 7, Scale::Test))
            .collect()
    }

    fn served_snapshot(specs: &[TenantSpec]) -> ServeSnapshot {
        serve(specs, &ServeConfig::default(), 1).unwrap().snapshot
    }

    fn to_bytes(snap: &ServeSnapshot) -> Vec<u8> {
        let mut buf = Vec::new();
        save_snapshot(snap, &mut buf).unwrap();
        buf
    }

    #[test]
    fn round_trips_bytewise_and_structurally() {
        let specs = specs();
        let snap = served_snapshot(&specs);
        assert!(snap.region_count() > 0, "the run cached something");
        let buf = to_bytes(&snap);
        let loaded = load_snapshot(&specs, &PolicyConfig::default(), buf.as_slice()).unwrap();
        assert_eq!(loaded, snap);
        // Saving the loaded snapshot reproduces the bytes exactly.
        assert_eq!(to_bytes(&loaded), buf);
    }

    #[test]
    fn bad_magic_version_and_trailing_data_rejected() {
        let specs = specs();
        let snap = served_snapshot(&specs);
        let policy = PolicyConfig::default();
        let err = load_snapshot(&specs, &policy, b"NOPE".as_slice()).unwrap_err();
        assert!(matches!(err, SnapshotError::BadMagic), "{err}");
        let mut buf = to_bytes(&snap);
        buf[4] = 0xff;
        let err = load_snapshot(&specs, &policy, buf.as_slice()).unwrap_err();
        assert!(matches!(err, SnapshotError::BadVersion(_)), "{err}");
        let mut buf = to_bytes(&snap);
        buf.push(0);
        let err = load_snapshot(&specs, &policy, buf.as_slice()).unwrap_err();
        assert!(matches!(err, SnapshotError::TrailingData), "{err}");
        let mut buf = to_bytes(&snap);
        buf.truncate(buf.len() - 3);
        let err = load_snapshot(&specs, &policy, buf.as_slice()).unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)), "{err}");
    }

    #[test]
    fn foreign_population_rejected() {
        let specs = specs();
        let snap = served_snapshot(&specs);
        let policy = PolicyConfig::default();
        let buf = to_bytes(&snap);
        // Fewer specs than the snapshot serves.
        let err = load_snapshot(&specs[..1], &policy, buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, SnapshotError::TenantCountMismatch { .. }),
            "{err}"
        );
        // Same count, different workloads.
        let reordered: Vec<TenantSpec> = suite()
            .iter()
            .skip(2)
            .take(2)
            .map(|w| TenantSpec::record(w, 7, Scale::Test))
            .collect();
        let err = load_snapshot(&reordered, &policy, buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, SnapshotError::WorkloadMismatch { .. }),
            "{err}"
        );
        // Same workloads, different candidate configuration.
        let extended = PolicyConfig {
            candidates: SelectorKind::extended().to_vec(),
            ..PolicyConfig::default()
        };
        let err = load_snapshot(&specs, &extended, buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, SnapshotError::CandidateMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn corrupt_selector_and_policy_rejected() {
        let specs = specs();
        let snap = served_snapshot(&specs);
        let policy = PolicyConfig::default();
        // The selector tag sits right after the tenant's name.
        let name_len = snap.tenants[0].workload.len();
        let mut buf = to_bytes(&snap);
        let tag_at = 4 + 2 + 2 + 1 + name_len;
        buf[tag_at] = 0xee;
        let err = load_snapshot(&specs, &policy, buf.as_slice()).unwrap_err();
        assert!(matches!(err, SnapshotError::UnknownSelector(0xee)), "{err}");
        // A selector that is a real candidate but not the policy's
        // current one is inconsistent state, not a corruption.
        let mut bad = snap.clone();
        let current = bad.tenants[0].policy.current as usize;
        bad.tenants[0].selector = PolicyConfig::default().candidates[(current + 1) % 4];
        let err = load_snapshot(&specs, &policy, to_bytes(&bad).as_slice()).unwrap_err();
        assert!(matches!(err, SnapshotError::BadPolicyState(0)), "{err}");
        let mut bad = snap.clone();
        bad.tenants[0].policy.ema = f64::NAN;
        let err = load_snapshot(&specs, &policy, to_bytes(&bad).as_slice()).unwrap_err();
        assert!(matches!(err, SnapshotError::BadPolicyState(0)), "{err}");
    }

    #[test]
    fn regions_are_validated_against_the_program() {
        let specs = specs();
        let snap = served_snapshot(&specs);
        let policy = PolicyConfig::default();
        // A region whose blocks exist nowhere in the program.
        let mut bad = snap.clone();
        bad.tenants[0].regions.push(RegionSnapshot {
            kind: RegionKind::Trace,
            entry: Addr::new(0xdead_beef),
            blocks: vec![Addr::new(0xdead_beef)],
            edges: Vec::new(),
        });
        let err = load_snapshot(&specs, &policy, to_bytes(&bad).as_slice()).unwrap_err();
        assert!(
            matches!(err, SnapshotError::BadRegion { tenant: 0, .. }),
            "{err}"
        );
        // Two regions with the same entry cannot coexist in a cache.
        let mut bad = snap.clone();
        let dup = bad.tenants[0].regions[0].clone();
        bad.tenants[0].regions.push(dup);
        let err = load_snapshot(&specs, &policy, to_bytes(&bad).as_slice()).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::BadRegion {
                    tenant: 0,
                    source: SimError::DuplicateRegionEntry(_),
                }
            ),
            "{err}"
        );
        // A trace region must not store edges.
        let mut bad = snap;
        if let Some(i) = bad.tenants[0]
            .regions
            .iter()
            .position(|r| r.kind == RegionKind::Trace)
        {
            let entry = bad.tenants[0].regions[i].entry;
            bad.tenants[0].regions[i].edges.push((entry, entry));
            let err = load_snapshot(&specs, &policy, to_bytes(&bad).as_slice()).unwrap_err();
            assert!(matches!(err, SnapshotError::Malformed(_)), "{err}");
        }
    }
}
