//! Region selection for dynamic optimization systems.
//!
//! This crate implements the contribution of the MICRO 2005 paper
//! *Improving Region Selection in Dynamic Optimization Systems*
//! (Hiniker, Hazelwood, Smith):
//!
//! - a simulated Dynamo-style dynamic optimization system: an
//!   interpreter that profiles taken branches and an unbounded
//!   [`cache::CodeCache`] holding single-entry regions with
//!   exit stubs and lazy inter-region linking (paper §2.1);
//! - the **NET** (Next-Executing Tail) baseline selector
//!   ([`SelectorKind::Net`]);
//! - the **LEI** (Last-Executed Iteration) cyclic-trace selector built
//!   on a branch-history buffer ([`SelectorKind::Lei`], paper
//!   Figures 5–6);
//! - **trace combination** applied to either base
//!   ([`SelectorKind::CombinedNet`], [`SelectorKind::CombinedLei`],
//!   paper Figures 13–15);
//! - every metric of the paper's evaluation ([`metrics`]): hit rate,
//!   code expansion, exit stubs, region transitions, spanned/executed
//!   cycle ratios, 90% cover sets, profiling-counter peaks,
//!   exit-domination analysis, and observed-trace memory overhead.
//!
//! # Quick start
//!
//! ```
//! use rsel_program::patterns::ScenarioBuilder;
//! use rsel_core::{sim::Simulator, select::SelectorKind, config::SimConfig};
//!
//! // A loop that calls a function on its dominant path (paper Fig. 2).
//! let mut s = ScenarioBuilder::new(7);
//! let main = s.function("main", 0x4000);
//! let callee = s.function("callee", 0x1000); // lower address
//! let head = s.block(main, 2);
//! let latch = s.block(main, 1);
//! s.call(head, callee);
//! s.branch_trips(latch, head, 5000);
//! let done = s.block(main, 0);
//! s.ret(done);
//! let c0 = s.block(callee, 2);
//! s.ret(c0);
//! let (program, spec) = s.build().unwrap();
//!
//! let config = SimConfig::default();
//! let mut sim = Simulator::new(&program, SelectorKind::Lei.make(&program, &config), &config);
//! sim.run(rsel_program::Executor::new(&program, spec));
//! let report = sim.report();
//! assert!(report.hit_rate() > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod error;
pub mod metrics;
pub mod select;
pub mod sim;

pub use cache::{CodeCache, Region, RegionId, RegionKind};
pub use config::SimConfig;
pub use error::SimError;
pub use metrics::{ResilienceStats, RunReport};
pub use rsel_program::fxhash;
pub use select::{RegionSelector, SelectorKind};
pub use sim::faults::FaultConfig;
pub use sim::{ReplayScratch, Simulator};
