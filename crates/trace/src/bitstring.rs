//! A bit-packed append-only buffer with sequential reads.

use std::fmt;

/// An append-only sequence of bits, packed into bytes.
///
/// Bits are appended most-significant-first within each pushed value and
/// read back in the same order by a [`BitReader`]. The byte length
/// reported by [`BitString::byte_len`] is the storage the paper charges
/// when accounting for observed-trace memory (§4.3.4).
///
/// ```
/// use rsel_trace::BitString;
/// let mut b = BitString::new();
/// b.push_bits(0b10, 2);
/// b.push_bits(0xabcd, 16);
/// assert_eq!(b.bit_len(), 18);
/// assert_eq!(b.byte_len(), 3);
/// let mut r = b.reader();
/// assert_eq!(r.read_bits(2), Some(0b10));
/// assert_eq!(r.read_bits(16), Some(0xabcd));
/// assert_eq!(r.read_bits(1), None);
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitString {
    bytes: Vec<u8>,
    bit_len: usize,
}

impl BitString {
    /// Creates an empty bit string.
    pub fn new() -> Self {
        BitString::default()
    }

    /// Appends the low `n` bits of `value`, most-significant-first.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn push_bits(&mut self, value: u64, n: u32) {
        assert!(n <= 64, "cannot push more than 64 bits at once");
        // Fill the last byte's free low bits, then whole bytes, from the
        // most significant of the `left` bits still to write.
        let mut left = n;
        while left > 0 {
            let used = (self.bit_len % 8) as u32;
            if used == 0 {
                self.bytes.push(0);
            }
            let take = (8 - used).min(left);
            let chunk = (value >> (left - take)) & ((1 << take) - 1);
            *self.bytes.last_mut().expect("a byte holds the free bits") |=
                (chunk as u8) << (8 - used - take);
            self.bit_len += take as usize;
            left -= take;
        }
    }

    /// Appends a single bit.
    pub fn push_bit(&mut self, bit: bool) {
        let byte_idx = self.bit_len / 8;
        let bit_idx = 7 - (self.bit_len % 8);
        if byte_idx == self.bytes.len() {
            self.bytes.push(0);
        }
        if bit {
            self.bytes[byte_idx] |= 1 << bit_idx;
        }
        self.bit_len += 1;
    }

    /// Number of bits stored.
    pub fn bit_len(&self) -> usize {
        self.bit_len
    }

    /// Whether no bits are stored.
    pub fn is_empty(&self) -> bool {
        self.bit_len == 0
    }

    /// Number of bytes of storage (bits rounded up to whole bytes).
    pub fn byte_len(&self) -> usize {
        self.bit_len.div_ceil(8)
    }

    /// A sequential reader positioned at the first bit.
    pub fn reader(&self) -> BitReader<'_> {
        BitReader {
            bits: self,
            pos: 0,
            end: self.bit_len,
        }
    }

    /// A sequential reader over the bit range `start..end`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > bit_len()`.
    pub fn range_reader(&self, start: usize, end: usize) -> BitReader<'_> {
        assert!(
            start <= end && end <= self.bit_len,
            "bit range out of bounds"
        );
        BitReader {
            bits: self,
            pos: start,
            end,
        }
    }

    /// Reads `n` bits starting at bit position `pos` without a reader.
    ///
    /// Returns `None` if the range extends past the end.
    pub fn bits_at(&self, pos: usize, n: u32) -> Option<u64> {
        if pos + n as usize > self.bit_len {
            return None;
        }
        self.range_reader(pos, pos + n as usize).read_bits(n)
    }
}

impl fmt::Debug for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitString[{} bits:", self.bit_len)?;
        let shown = self.bit_len.min(64);
        f.write_str(" ")?;
        let mut r = self.reader();
        for _ in 0..shown {
            let bit = r.read_bit().expect("within bit_len");
            f.write_str(if bit { "1" } else { "0" })?;
        }
        if self.bit_len > shown {
            f.write_str("…")?;
        }
        f.write_str("]")
    }
}

/// Sequential reader over a [`BitString`].
#[derive(Clone, Debug)]
pub struct BitReader<'a> {
    bits: &'a BitString,
    pos: usize,
    end: usize,
}

impl BitReader<'_> {
    /// Reads one bit; `None` when exhausted.
    pub fn read_bit(&mut self) -> Option<bool> {
        if self.pos >= self.end {
            return None;
        }
        let byte = self.bits.bytes[self.pos / 8];
        let bit = (byte >> (7 - self.pos % 8)) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    /// Reads `n` bits as a most-significant-first integer; `None` if
    /// fewer than `n` bits remain (the reader position is unspecified
    /// afterwards in that case).
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn read_bits(&mut self, n: u32) -> Option<u64> {
        assert!(n <= 64, "cannot read more than 64 bits at once");
        let mut v = 0u64;
        for _ in 0..n {
            v = (v << 1) | u64::from(self.read_bit()?);
        }
        Some(v)
    }

    /// Number of bits remaining.
    pub fn remaining(&self) -> usize {
        self.end - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed_widths() {
        let mut b = BitString::new();
        b.push_bits(0b1, 1);
        b.push_bits(0b01, 2);
        b.push_bits(0xdead_beef, 32);
        b.push_bits(0x1234_5678_9abc_def0, 64);
        let mut r = b.reader();
        assert_eq!(r.read_bits(1), Some(1));
        assert_eq!(r.read_bits(2), Some(1));
        assert_eq!(r.read_bits(32), Some(0xdead_beef));
        assert_eq!(r.read_bits(64), Some(0x1234_5678_9abc_def0));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn byte_len_rounds_up() {
        let mut b = BitString::new();
        assert_eq!(b.byte_len(), 0);
        assert!(b.is_empty());
        b.push_bit(true);
        assert_eq!(b.byte_len(), 1);
        b.push_bits(0, 7);
        assert_eq!(b.byte_len(), 1);
        b.push_bit(false);
        assert_eq!(b.byte_len(), 2);
        assert_eq!(b.bit_len(), 9);
    }

    #[test]
    fn reading_past_end_returns_none() {
        let mut b = BitString::new();
        b.push_bits(0b101, 3);
        let mut r = b.reader();
        assert_eq!(r.read_bits(3), Some(0b101));
        assert_eq!(r.read_bit(), None);
        let mut r2 = b.reader();
        assert_eq!(r2.read_bits(4), None, "partial read fails");
    }

    #[test]
    fn bit_order_is_msb_first() {
        let mut b = BitString::new();
        b.push_bits(0b10, 2);
        let mut r = b.reader();
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_bit(), Some(false));
    }

    #[test]
    fn debug_shows_bits() {
        let mut b = BitString::new();
        b.push_bits(0b1010, 4);
        assert_eq!(format!("{b:?}"), "BitString[4 bits: 1010]");
    }

    #[test]
    fn push_bits_packs_like_single_bits() {
        // Every width at every starting bit offset, including pushes
        // that fill a partial byte exactly or span several bytes.
        let value = 0x8f3a_5c61_d2e7_b409_u64;
        for offset in 0..8u32 {
            for n in 0..=64u32 {
                let mut whole = BitString::new();
                let mut single = BitString::new();
                for k in 0..offset {
                    whole.push_bit(k % 2 == 0);
                    single.push_bit(k % 2 == 0);
                }
                whole.push_bits(value, n);
                for i in (0..n).rev() {
                    single.push_bit((value >> i) & 1 == 1);
                }
                whole.push_bits(0b101, 3);
                single.push_bit(true);
                single.push_bit(false);
                single.push_bit(true);
                assert_eq!(whole, single, "offset {offset}, {n} bits");
                assert_eq!(whole.bytes.len(), whole.byte_len());
            }
        }
    }

    #[test]
    #[should_panic(expected = "64 bits")]
    fn oversized_push_panics() {
        BitString::new().push_bits(0, 65);
    }
}
