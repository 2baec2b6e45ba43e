//! Growable packed buffer: sequential append at a fixed bit width.
//!
//! [`crate::PackedArray`] is immutable; IMM's estimation phase instead
//! *grows* the RRR array round by round. `PackedBuf` supports that:
//! single-threaded `push` with the same bit layout.

use crate::nbits::mask;

/// An appendable bit-packed vector with a fixed width per element.
#[derive(Clone, Debug, PartialEq)]
pub struct PackedBuf {
    words: Vec<u64>,
    len: usize,
    nbits: u32,
}

impl PackedBuf {
    /// An empty buffer storing `nbits`-bit values.
    ///
    /// # Panics
    /// Panics if `nbits` is outside `1..=64`.
    pub fn new(nbits: u32) -> Self {
        assert!((1..=64).contains(&nbits), "bits per value must be 1..=64");
        Self {
            words: Vec::new(),
            len: 0,
            nbits,
        }
    }

    /// An empty buffer pre-sized for `capacity` elements.
    pub fn with_capacity(nbits: u32, capacity: usize) -> Self {
        let mut b = Self::new(nbits);
        b.words.reserve((capacity * nbits as usize).div_ceil(64));
        b
    }

    /// Element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no elements are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Width per element, bits.
    #[inline]
    pub fn bits_per_value(&self) -> u32 {
        self.nbits
    }

    /// Appends a value.
    ///
    /// # Panics
    /// Panics if `value` does not fit in the configured width.
    #[inline]
    pub fn push(&mut self, value: u64) {
        let m = mask(self.nbits);
        assert!(
            value <= m,
            "value {value} does not fit in {} bits",
            self.nbits
        );
        let bit = self.len * self.nbits as usize;
        let word = bit >> 6;
        let off = (bit & 63) as u32;
        if word >= self.words.len() {
            self.words.push(0);
        }
        self.words[word] |= value << off;
        if off + self.nbits > 64 {
            // High part spills into the next (new) word.
            self.words.push(value >> (64 - off));
        }
        self.len += 1;
    }

    /// Decodes element `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        let bit = i * self.nbits as usize;
        let word = bit >> 6;
        let off = (bit & 63) as u32;
        let lo = self.words[word] >> off;
        let v = if off + self.nbits > 64 {
            lo | (self.words.get(word + 1).copied().unwrap_or(0) << (64 - off))
        } else {
            lo
        };
        v & mask(self.nbits)
    }

    /// Appends elements `start..end`, decoded as `u32`, to `out`.
    ///
    /// Sequential decode with a rolling bit cursor, like
    /// [`crate::PackedArray::extend_decode_u32`]: a straddling element's high part
    /// is shifted in without a branch (the double shift yields 0 when the
    /// element ends in its first word), where [`PackedBuf::get`] branches
    /// on every element. Values wider than 32 bits are truncated; callers
    /// pack vertex ids.
    ///
    /// # Panics
    /// Panics if `start > end` or `end > self.len()`.
    #[inline]
    pub fn extend_decode_u32(&self, start: usize, end: usize, out: &mut Vec<u32>) {
        assert!(
            start <= end && end <= self.len,
            "decode range out of bounds"
        );
        let nbits = self.nbits as usize;
        let m = mask(self.nbits);
        let words = &self.words[..];
        let mut bit = start * nbits;
        out.extend((start..end).map(|_| {
            let (w, off) = (bit >> 6, (bit & 63) as u32);
            bit += nbits;
            // Past the last word there is no next word; an element that
            // fits its word reads nothing from it.
            let next = words.get(w + 1).copied().unwrap_or(0);
            let lo = words[w] >> off;
            let hi = (next << 1) << (63 - off);
            ((lo | hi) & m) as u32
        }));
    }

    /// Appends elements `start..end` of `src` (same width), copying the
    /// packed bits 64 at a time: one shifted word read and at most two
    /// word writes per 64 bits, with no per-element decode or encode.
    ///
    /// # Panics
    /// Panics if the widths differ, `start > end` or `end > src.len()`.
    pub fn extend_from_buf(&mut self, src: &PackedBuf, start: usize, end: usize) {
        assert_eq!(self.nbits, src.nbits, "widths must match");
        assert!(start <= end && end <= src.len, "copy range out of bounds");
        let nbits = self.nbits as usize;
        let bits = (end - start) * nbits;
        let (from, to) = (start * nbits, self.len * nbits);
        // Bits past `len` are zero, so the copy ORs in.
        self.words.resize((to + bits).div_ceil(64), 0);
        let mut done = 0;
        while done < bits {
            let take = (bits - done).min(64) as u32;
            let (src_bit, dst_bit) = (from + done, to + done);
            let (i, o) = (src_bit >> 6, (src_bit & 63) as u32);
            let hi = match (o, src.words.get(i + 1)) {
                (1.., Some(&w)) => w << (64 - o),
                _ => 0,
            };
            let chunk = ((src.words[i] >> o) | hi) & mask(take);
            let (j, d) = (dst_bit >> 6, (dst_bit & 63) as u32);
            self.words[j] |= chunk << d;
            if d + take > 64 {
                self.words[j + 1] |= chunk >> (64 - d);
            }
            done += take as usize;
        }
        self.len += end - start;
    }

    /// Heap bytes of the packed words.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_and_get() {
        let mut b = PackedBuf::new(7);
        for v in [5u64, 123, 99, 43, 7] {
            b.push(v);
        }
        assert_eq!(b.len(), 5);
        assert_eq!(
            (0..5).map(|i| b.get(i)).collect::<Vec<_>>(),
            vec![5, 123, 99, 43, 7]
        );
    }

    #[test]
    fn straddling_pushes() {
        let mut b = PackedBuf::new(33);
        let vals: Vec<u64> = (0..20).map(|i| (1u64 << 32) + i).collect();
        for &v in &vals {
            b.push(v);
        }
        assert_eq!((0..20).map(|i| b.get(i)).collect::<Vec<_>>(), vals);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn rejects_wide_values() {
        let mut b = PackedBuf::new(4);
        b.push(16);
    }

    #[test]
    fn empty_buffer() {
        let b = PackedBuf::new(8);
        assert!(b.is_empty());
        assert_eq!(b.bytes(), 0);
    }

    proptest! {
        /// At every width from 1 to 32, the rolling decode of any range
        /// equals per-index `get`s, and the bulk append of any range of
        /// another buffer equals pushing its elements one by one — onto a
        /// buffer holding a prefix of any length, so the copy lands at every
        /// bit phase and its runs straddle word boundaries on both sides.
        #[test]
        fn rolling_decode_and_bulk_append_match_get_and_push(
            raw in prop::collection::vec(any::<u64>(), 0..300),
            prefix_raw in prop::collection::vec(any::<u64>(), 0..80),
            cut in any::<usize>(),
            cut_a in any::<usize>(),
            cut_b in any::<usize>(),
        ) {
            let mut bounds = [cut_a % (raw.len() + 1), cut_b % (raw.len() + 1)];
            bounds.sort_unstable();
            let [start, end] = bounds;
            for nbits in 1u32..=32 {
                let mut src = PackedBuf::new(nbits);
                for &v in &raw {
                    src.push(v & mask(nbits));
                }

                let mut out = vec![7u32; 2]; // pre-existing contents must survive
                src.extend_decode_u32(start, end, &mut out);
                let want: Vec<u32> = (start..end).map(|i| src.get(i) as u32).collect();
                prop_assert_eq!(&out[..2], &[7u32; 2]);
                prop_assert_eq!(&out[2..], &want[..], "nbits {}", nbits);

                let mut bulk = PackedBuf::new(nbits);
                for &v in &prefix_raw[..cut % (prefix_raw.len() + 1)] {
                    bulk.push(v & mask(nbits));
                }
                let mut pushed = bulk.clone();
                bulk.extend_from_buf(&src, start, end);
                for i in start..end {
                    pushed.push(src.get(i));
                }
                prop_assert_eq!(&bulk, &pushed, "nbits {}", nbits);
                // Appending keeps working after a bulk append.
                bulk.push(mask(nbits));
                pushed.push(mask(nbits));
                prop_assert_eq!(&bulk, &pushed, "nbits {}", nbits);
            }
        }

        #[test]
        fn roundtrip_incremental(
            vals in prop::collection::vec(0u64..(1 << 20), 0..500),
        ) {
            let mut b = PackedBuf::with_capacity(20, vals.len());
            for &v in &vals {
                b.push(v);
            }
            for (i, &v) in vals.iter().enumerate() {
                prop_assert_eq!(b.get(i), v);
            }
        }
    }
}
