//! Binary serialization of recorded execution streams.
//!
//! Record a workload's execution once and replay it offline against any
//! number of selectors — what the paper's framework does by replaying
//! Pin-collected block streams. The format (version 2) is little-endian:
//! magic, version, step count and taken-branch count, then the
//! [`CompactStream`]'s block indices, entry tags and taken-branch
//! sources as three contiguous arrays. Loading validates every block
//! index, tag and branch source against the program, so a stream can
//! never desynchronize silently from the binary it claims to describe.

use crate::stream::{CompactStream, ENTRY_FALLTHROUGH, ENTRY_START, ENTRY_TAKEN_BASE, tag_to_kind};
use rsel_program::{Addr, Program};
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"RSEL";
const VERSION: u16 = 2;

/// An error loading a recorded stream.
#[derive(Debug)]
#[non_exhaustive]
pub enum StreamIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input does not start with the stream magic.
    BadMagic,
    /// The format version is not supported.
    BadVersion(u16),
    /// A structural tag byte is invalid.
    BadTag(u8),
    /// A step names a block index out of range for the program
    /// (reported as an address-shaped diagnostic).
    UnknownBlock(Addr),
    /// The input continues past the end of a well-formed stream — a
    /// corrupted length field would otherwise be parsed as a silently
    /// shorter stream.
    TrailingData,
    /// The taken-branch source count does not match the entry tags.
    TakenCountMismatch {
        /// Count stored in the stream header.
        header: u64,
        /// Taken entries implied by the tag array.
        tags: u64,
    },
    /// A taken entry's branch source is not the terminator of the
    /// previous step's block (or the entry is the first step). The
    /// executor only records terminator-to-block-start transfers, and
    /// FORM-TRACE relies on it.
    MisalignedSource {
        /// Index of the offending step.
        step: u64,
        /// The recorded branch source.
        src: Addr,
    },
}

impl fmt::Display for StreamIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamIoError::Io(e) => write!(f, "stream i/o failed: {e}"),
            StreamIoError::BadMagic => write!(f, "not a recorded stream (bad magic)"),
            StreamIoError::BadVersion(v) => write!(f, "unsupported stream version {v}"),
            StreamIoError::BadTag(t) => write!(f, "invalid record tag {t}"),
            StreamIoError::UnknownBlock(a) => {
                write!(f, "stream references unknown block {a}")
            }
            StreamIoError::TrailingData => {
                write!(f, "input continues past the end of the stream")
            }
            StreamIoError::TakenCountMismatch { header, tags } => {
                write!(
                    f,
                    "header claims {header} taken branches but tags encode {tags}"
                )
            }
            StreamIoError::MisalignedSource { step, src } => write!(
                f,
                "taken entry at step {step} has source {src}, not the previous block's terminator"
            ),
        }
    }
}

impl Error for StreamIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StreamIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StreamIoError {
    fn from(e: io::Error) -> Self {
        StreamIoError::Io(e)
    }
}

/// Writes `stream` in the compact (version 2) on-disk format: block
/// indices, entry tags, and taken-branch sources as three contiguous
/// little-endian arrays.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
pub fn save_compact_stream<W: Write>(stream: &CompactStream, mut writer: W) -> io::Result<()> {
    let (blocks, tags, srcs) = stream.raw_parts();
    writer.write_all(MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    writer.write_all(&(blocks.len() as u64).to_le_bytes())?;
    writer.write_all(&(srcs.len() as u64).to_le_bytes())?;
    for b in blocks {
        writer.write_all(&b.to_le_bytes())?;
    }
    writer.write_all(tags)?;
    for s in srcs {
        writer.write_all(&s.raw().to_le_bytes())?;
    }
    Ok(())
}

/// Reads a compact (version 2) stream from `reader`, validating every
/// block index, entry tag and taken-branch source against `program`.
///
/// # Errors
///
/// Returns a [`StreamIoError`] on I/O failure, malformed input, a
/// block index out of range for `program`, a taken-source count that
/// does not match the tags, or a taken-branch source that is not the
/// previous step's block terminator.
pub fn load_compact_stream<R: Read>(
    program: &Program,
    mut reader: R,
) -> Result<CompactStream, StreamIoError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(StreamIoError::BadMagic);
    }
    let mut u16b = [0u8; 2];
    reader.read_exact(&mut u16b)?;
    let version = u16::from_le_bytes(u16b);
    if version != VERSION {
        return Err(StreamIoError::BadVersion(version));
    }
    let mut u64b = [0u8; 8];
    reader.read_exact(&mut u64b)?;
    let count = u64::from_le_bytes(u64b) as usize;
    reader.read_exact(&mut u64b)?;
    let taken = u64::from_le_bytes(u64b) as usize;
    let block_count = program.blocks().len();
    let mut blocks = Vec::with_capacity(count.min(1 << 24));
    let mut u32b = [0u8; 4];
    for _ in 0..count {
        reader.read_exact(&mut u32b)?;
        let idx = u32::from_le_bytes(u32b);
        if idx as usize >= block_count {
            // Out-of-range indices have no address to report; surface
            // the raw index as an address-shaped diagnostic.
            return Err(StreamIoError::UnknownBlock(Addr::new(u64::from(idx))));
        }
        blocks.push(idx);
    }
    let mut tags = vec![0u8; count];
    reader.read_exact(&mut tags)?;
    let mut expected_taken = 0usize;
    for &t in &tags {
        match t {
            ENTRY_START | ENTRY_FALLTHROUGH => {}
            t if t >= ENTRY_TAKEN_BASE && tag_to_kind(t - ENTRY_TAKEN_BASE).is_some() => {
                expected_taken += 1;
            }
            t => return Err(StreamIoError::BadTag(t)),
        }
    }
    if expected_taken != taken {
        return Err(StreamIoError::TakenCountMismatch {
            header: taken as u64,
            tags: expected_taken as u64,
        });
    }
    let mut srcs = Vec::with_capacity(taken.min(1 << 24));
    for (step, _) in tags
        .iter()
        .enumerate()
        .filter(|&(_, &t)| t >= ENTRY_TAKEN_BASE)
    {
        reader.read_exact(&mut u64b)?;
        let src = Addr::new(u64::from_le_bytes(u64b));
        let prev_term = step
            .checked_sub(1)
            .map(|prev| program.blocks()[blocks[prev] as usize].terminator().addr());
        if prev_term != Some(src) {
            return Err(StreamIoError::MisalignedSource {
                step: step as u64,
                src,
            });
        }
        srcs.push(src);
    }
    // A well-formed stream consumes the input exactly; anything left
    // means a corrupted length field shrank the parse, and accepting it
    // would silently yield a short stream.
    let mut probe = [0u8; 1];
    match reader.read(&mut probe) {
        Ok(0) => {}
        Ok(_) => return Err(StreamIoError::TrailingData),
        Err(e) => return Err(StreamIoError::Io(e)),
    }
    Ok(CompactStream::from_raw_parts(blocks, tags, srcs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsel_program::{BehaviorSpec, Executor, ProgramBuilder};

    fn program_and_stream() -> (Program, CompactStream) {
        let mut b = ProgramBuilder::new();
        let f = b.function("main", 0x100);
        let head = b.block(f);
        let body = b.block(f);
        let exit = b.block_with(f, 0);
        let _ = head;
        b.cond_branch(body, head);
        b.ret(exit);
        let p = b.build().unwrap();
        let mut spec = BehaviorSpec::new(1);
        spec.loop_trips(p.block(body).branch_addr().unwrap(), 20);
        let stream = CompactStream::record(Executor::new(&p, spec));
        (p, stream)
    }

    fn saved(stream: &CompactStream) -> Vec<u8> {
        let mut buf = Vec::new();
        save_compact_stream(stream, &mut buf).unwrap();
        buf
    }

    #[test]
    fn bad_magic_rejected() {
        let (p, _) = program_and_stream();
        let err = load_compact_stream(&p, b"NOPE".as_slice()).unwrap_err();
        assert!(matches!(err, StreamIoError::BadMagic), "{err}");
    }

    #[test]
    fn truncated_input_is_an_io_error() {
        let (p, stream) = program_and_stream();
        let mut buf = saved(&stream);
        buf.truncate(buf.len() - 3);
        let err = load_compact_stream(&p, buf.as_slice()).unwrap_err();
        assert!(matches!(err, StreamIoError::Io(_)), "{err}");
    }

    #[test]
    fn wrong_program_detected() {
        let (_, stream) = program_and_stream();
        let buf = saved(&stream);
        // A different program with fewer blocks.
        let mut b = ProgramBuilder::new();
        let f = b.function("other", 0x9000);
        let x = b.block(f);
        b.ret(x);
        let other = b.build().unwrap();
        let err = load_compact_stream(&other, buf.as_slice()).unwrap_err();
        assert!(matches!(err, StreamIoError::UnknownBlock(_)), "{err}");
    }

    #[test]
    fn version_mismatch_detected() {
        let (p, stream) = program_and_stream();
        let mut buf = saved(&stream);
        // The retired per-step format was version 1.
        buf[4..6].copy_from_slice(&1u16.to_le_bytes());
        let err = load_compact_stream(&p, buf.as_slice()).unwrap_err();
        assert!(matches!(err, StreamIoError::BadVersion(1)), "{err}");
    }

    #[test]
    fn compact_round_trip() {
        let (p, stream) = program_and_stream();
        let loaded = load_compact_stream(&p, saved(&stream).as_slice()).unwrap();
        assert_eq!(loaded, stream);
    }

    #[test]
    fn file_is_header_plus_payload() {
        let (_, stream) = program_and_stream();
        // Magic, version, two counts, then exactly the in-memory
        // payload.
        assert_eq!(saved(&stream).len(), 4 + 2 + 8 + 8 + stream.byte_size());
    }

    #[test]
    fn misaligned_taken_source_rejected() {
        let (p, stream) = program_and_stream();
        let mut buf = saved(&stream);
        // Move the first taken source from its block's terminator into
        // the block body.
        let srcs_at = buf.len() - 8 * stream.taken_count();
        let src = u64::from_le_bytes(buf[srcs_at..srcs_at + 8].try_into().unwrap());
        let inside = p.block_containing(Addr::new(src)).unwrap().start();
        assert_ne!(inside.raw(), src, "the source block has a body");
        buf[srcs_at..srcs_at + 8].copy_from_slice(&inside.raw().to_le_bytes());
        let err = load_compact_stream(&p, buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, StreamIoError::MisalignedSource { src, .. } if src == inside),
            "{err}"
        );
    }

    #[test]
    fn taken_first_step_rejected() {
        let (p, stream) = program_and_stream();
        let mut buf = saved(&stream);
        // Retag step 0 as taken and give it a source: the counts agree,
        // but no earlier block exists to have branched.
        let count = stream.len();
        let tags_at = 4 + 2 + 8 + 8 + 4 * count;
        buf[tags_at] = ENTRY_TAKEN_BASE;
        let taken = stream.taken_count() as u64 + 1;
        buf[14..22].copy_from_slice(&taken.to_le_bytes());
        let srcs_at = tags_at + count;
        let src = p.blocks()[0].terminator().addr().raw().to_le_bytes();
        buf.splice(srcs_at..srcs_at, src);
        let err = load_compact_stream(&p, buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, StreamIoError::MisalignedSource { step: 0, .. }),
            "{err}"
        );
    }
}
