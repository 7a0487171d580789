//! Event streams and the compact trace codec.
//!
//! This crate supplies the pieces of the paper's framework that deal
//! with *recorded execution*:
//!
//! - [`BitString`]: a bit-packed append/read buffer;
//! - [`CompactTrace`]: the exact compact trace representation of the
//!   paper's Figure 14 (two bits for most branches, explicit targets for
//!   indirect branches, a terminator code plus the trace-end address),
//!   with faithful byte accounting so the observed-trace memory overhead
//!   of Figure 18 can be measured;
//! - [`CompactTrace::decode`]: reconstruction of the recorded block
//!   path against a [`Program`](rsel_program::Program), a block at a
//!   time, rejecting addresses off a block boundary;
//! - [`stream`]: [`CompactStream`], the one recorded form of an
//!   executor stream (5 bytes per step), and summary statistics;
//! - [`stream_io`]: its binary file format, with a loader that checks
//!   every block index and branch source against the program;
//! - [`decoded`]: the decode-once struct-of-arrays execution format
//!   ([`DecodedStream`]) with spin-phase detection, the input of the
//!   simulator's batch replay path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitstring;
pub mod compact;
pub mod decoded;
pub mod paths;
pub mod stream;
pub mod stream_io;

pub use bitstring::{BitReader, BitString};
pub use compact::{AddrWidth, CompactTrace, DecodeError, DecodedPath, TraceRecorder};
pub use decoded::{DecodedStream, SpinPhase};
pub use paths::PathProfile;
pub use stream::{CompactStream, StreamStats};
pub use stream_io::{StreamIoError, load_compact_stream, save_compact_stream};
