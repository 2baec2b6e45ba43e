//! Immutable bit-packed array.

use crate::nbits::{bits_for, mask};

/// A read-only array of unsigned integers stored at `bits_per_value` bits
/// each, concatenated across 64-bit words (values may straddle a word
/// boundary, as in Figure 1 of the paper).
#[derive(Clone, Debug, PartialEq)]
pub struct PackedArray {
    /// Packed payload plus one trailing zero word, so decoders may always
    /// read `words[word + 1]` and reassemble straddling values branch-free.
    words: Vec<u64>,
    /// Words actually carrying payload (excludes the padding word) — the
    /// count every byte-accounting figure is based on.
    data_words: usize,
    len: usize,
    nbits: u32,
}

impl PackedArray {
    /// Packs `values`, sizing the width from the maximum element.
    pub fn from_values(values: &[u64]) -> Self {
        let max = values.iter().copied().max().unwrap_or(0);
        Self::from_values_with_bits(values, bits_for(max))
    }

    /// Packs `values` at an explicit width.
    ///
    /// # Panics
    /// Panics if any value needs more than `nbits` bits, or if
    /// `nbits` is outside `1..=64`.
    pub fn from_values_with_bits(values: &[u64], nbits: u32) -> Self {
        assert!((1..=64).contains(&nbits), "bits per value must be 1..=64");
        let m = mask(nbits);
        let total_bits = values.len() * nbits as usize;
        let data_words = total_bits.div_ceil(64);
        let mut words = vec![0u64; data_words + 1];
        for (i, &v) in values.iter().enumerate() {
            assert!(v <= m, "value {v} does not fit in {nbits} bits");
            let bit = i * nbits as usize;
            let word = bit >> 6;
            let off = (bit & 63) as u32;
            words[word] |= v << off;
            if off + nbits > 64 {
                words[word + 1] |= v >> (64 - off);
            }
        }
        Self {
            words,
            data_words,
            len: values.len(),
            nbits,
        }
    }

    /// Convenience for `u32` sources (vertex ids).
    pub fn from_u32s(values: &[u32]) -> Self {
        let max = values.iter().copied().max().unwrap_or(0) as u64;
        let nbits = bits_for(max);
        let m = mask(nbits);
        let total_bits = values.len() * nbits as usize;
        let data_words = total_bits.div_ceil(64);
        let mut words = vec![0u64; data_words + 1];
        for (i, &v) in values.iter().enumerate() {
            let v = v as u64;
            debug_assert!(v <= m);
            let bit = i * nbits as usize;
            let word = bit >> 6;
            let off = (bit & 63) as u32;
            words[word] |= v << off;
            if off + nbits > 64 {
                words[word + 1] |= v >> (64 - off);
            }
        }
        Self {
            words,
            data_words,
            len: values.len(),
            nbits,
        }
    }

    /// Element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the array holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Width of each element in bits.
    #[inline]
    pub fn bits_per_value(&self) -> u32 {
        self.nbits
    }

    /// Decodes element `i`.
    ///
    /// # Panics
    /// Panics (in debug) if `i` is out of bounds; release reads garbage the
    /// same way a device kernel would, so callers bound-check at the edges.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let bit = i * self.nbits as usize;
        let word = bit >> 6;
        let off = (bit & 63) as u32;
        // The padding word makes `word + 1` always readable, and
        // `(hi << 1) << (63 - off)` is `hi << (64 - off)` for `off > 0` but
        // exactly 0 for `off == 0` — no straddle branch to mispredict.
        let lo = self.words[word] >> off;
        let hi = (self.words[word + 1] << 1) << (63 - off);
        (lo | hi) & mask(self.nbits)
    }

    /// Appends elements `start..end`, decoded as `u32`, to `out`.
    ///
    /// Sequential decode with a rolling bit cursor — the traversal hot loop
    /// reads whole CSC rows, and amortizing the index arithmetic across the
    /// row is markedly cheaper than a [`PackedArray::get`] per element.
    /// Values wider than 32 bits are truncated; callers pack vertex ids.
    #[inline]
    pub fn extend_decode_u32(&self, start: usize, end: usize, out: &mut Vec<u32>) {
        debug_assert!(start <= end && end <= self.len);
        let nbits = self.nbits as usize;
        let m = mask(self.nbits);
        let bit = start * nbits;
        let words = &self.words[..];
        // Short ranges — CSC rows mostly — fit one two-word window entirely;
        // decode them with a single pair of loads and per-element shifts.
        // (`extend` over an exact-size range writes without per-element
        // capacity checks, unlike a `push` loop.)
        if end > start && (end - start) * nbits + (bit & 63) <= 128 {
            let word = bit >> 6;
            let win = words[word] as u128 | ((words[word + 1] as u128) << 64);
            let off = (bit & 63) as u32;
            out.extend(
                (0..(end - start) as u32)
                    .map(|j| ((win >> (off + j * self.nbits)) as u64 & m) as u32),
            );
            return;
        }
        out.extend((start..end).map(|i| {
            let bit = i * nbits;
            let word = bit >> 6;
            let off = (bit & 63) as u32;
            // Branch-free straddle reassembly (see [`PackedArray::get`]):
            // the trailing padding word keeps `word + 1` in bounds, and the
            // double shift zeroes the high half exactly when `off == 0`.
            let lo = words[word] >> off;
            let hi = (words[word + 1] << 1) << (63 - off);
            ((lo | hi) & m) as u32
        }));
    }

    /// Heap bytes of the packed representation — the numerator of every
    /// memory-saving figure in the paper.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.data_words * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn decode(a: &PackedArray) -> Vec<u64> {
        (0..a.len()).map(|i| a.get(i)).collect()
    }

    #[test]
    fn figure1_example() {
        // 5 values, 7 bits each = 35 bits -> one 64-bit word (the paper's
        // 32-bit containers need two; same bit stream either way).
        let a = PackedArray::from_values(&[5, 123, 99, 43, 7]);
        assert_eq!(a.bits_per_value(), 7);
        assert_eq!(a.bytes(), 8);
        // Plain u32 storage: 20 bytes. Packed: 8. That is the 160 -> 64 bit
        // reduction of Figure 1.
        assert_eq!(decode(&a), vec![5, 123, 99, 43, 7]);
    }

    #[test]
    fn values_straddle_word_boundaries() {
        // 7 bits x 10 = 70 bits: element 9 spans words 0 and 1.
        let vals: Vec<u64> = (0..10).map(|i| (i * 13) % 128).collect();
        let a = PackedArray::from_values_with_bits(&vals, 7);
        assert_eq!(decode(&a), vals);
    }

    #[test]
    fn empty_array() {
        let a = PackedArray::from_values(&[]);
        assert_eq!(a.len(), 0);
        assert!(a.is_empty());
        assert_eq!(a.bytes(), 0);
        assert_eq!(decode(&a), Vec::<u64>::new());
    }

    #[test]
    fn all_zeros_still_addressable() {
        let a = PackedArray::from_values(&[0, 0, 0]);
        assert_eq!(a.bits_per_value(), 1);
        assert_eq!(decode(&a), vec![0, 0, 0]);
    }

    #[test]
    fn full_width_values() {
        let vals = [u64::MAX, 0, u64::MAX / 3];
        let a = PackedArray::from_values(&vals);
        assert_eq!(a.bits_per_value(), 64);
        assert_eq!(decode(&a), vals);
    }

    #[test]
    fn thirty_three_bit_values() {
        // Just past the u32 boundary: straddles guaranteed.
        let vals: Vec<u64> = (0..50).map(|i| (1u64 << 32) + i * 7).collect();
        let a = PackedArray::from_values(&vals);
        assert_eq!(a.bits_per_value(), 33);
        assert_eq!(decode(&a), vals);
    }

    #[test]
    fn from_u32s_matches_from_values() {
        let v32: Vec<u32> = vec![1, 500_000, 123, 999_999];
        let v64: Vec<u64> = v32.iter().map(|&x| x as u64).collect();
        assert_eq!(PackedArray::from_u32s(&v32), PackedArray::from_values(&v64));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn rejects_oversized_values() {
        PackedArray::from_values_with_bits(&[200], 7);
    }

    #[test]
    fn range_decode_at_exact_word_boundaries() {
        // 8 bits x 8 values = 64 bits: every 8th element starts a word, so
        // these ranges begin and end exactly on word boundaries — the frame
        // edges block decoders jump to.
        let vals: Vec<u64> = (0..40).map(|i| (i * 37) % 256).collect();
        let a = PackedArray::from_values_with_bits(&vals, 8);
        for (start, end) in [(0, 8), (8, 16), (8, 40), (16, 24), (0, 40)] {
            let mut out = Vec::new();
            a.extend_decode_u32(start, end, &mut out);
            let want: Vec<u32> = vals[start..end].iter().map(|&v| v as u32).collect();
            assert_eq!(out, want, "range {start}..{end}");
        }
    }

    #[test]
    fn range_decode_zero_length_anywhere() {
        let vals: Vec<u64> = (0..20).map(|i| i * 3).collect();
        // 13 bits: ranges land mid-word; zero-length decodes (empty RRR
        // sets, empty CSC rows) must neither read nor write.
        let a = PackedArray::from_values_with_bits(&vals, 13);
        for start in [0, 1, 4, 19, 20] {
            let mut out = vec![9u32];
            a.extend_decode_u32(start, start, &mut out);
            assert_eq!(out, vec![9], "start {start}");
        }
    }

    #[test]
    fn range_decode_straddling_value_at_range_edges() {
        // 7 bits: element 9 straddles words 0 and 1; ranges that start or
        // end on the straddler exercise the two-word reassembly at the
        // cursor's first and last step.
        let vals: Vec<u64> = (0..20).map(|i| (i * 13) % 128).collect();
        let a = PackedArray::from_values_with_bits(&vals, 7);
        for (start, end) in [(9, 10), (0, 10), (9, 20), (10, 20)] {
            let mut out = Vec::new();
            a.extend_decode_u32(start, end, &mut out);
            let want: Vec<u32> = vals[start..end].iter().map(|&v| v as u32).collect();
            assert_eq!(out, want, "range {start}..{end}");
        }
    }

    proptest! {
        #[test]
        fn block_decode_roundtrips_any_nbits_width(
            vals in prop::collection::vec(0u64..(1 << 20), 1..200),
            width in 20u32..33,
            cut_a in any::<usize>(),
            cut_b in any::<usize>(),
        ) {
            // Random explicit widths (not derived from the max value), so
            // boundary phases the natural width never hits are covered.
            let a = PackedArray::from_values_with_bits(&vals, width);
            let mut bounds = [cut_a % (vals.len() + 1), cut_b % (vals.len() + 1)];
            bounds.sort_unstable();
            let [start, end] = bounds;
            let mut out = Vec::new();
            a.extend_decode_u32(start, end, &mut out);
            let want: Vec<u32> = vals[start..end].iter().map(|&v| v as u32).collect();
            prop_assert_eq!(out, want);
        }

        #[test]
        fn roundtrip_any_values(vals in prop::collection::vec(any::<u64>(), 0..200)) {
            let a = PackedArray::from_values(&vals);
            prop_assert_eq!(decode(&a), vals);
        }

        #[test]
        fn roundtrip_any_width(
            vals in prop::collection::vec(0u64..128, 0..300),
            extra in 7u32..64,
        ) {
            // Any width wide enough must round-trip identically.
            let a = PackedArray::from_values_with_bits(&vals, extra);
            prop_assert_eq!(decode(&a), vals);
        }

        #[test]
        fn packed_never_larger_than_plain_u64(vals in prop::collection::vec(any::<u64>(), 1..200)) {
            let a = PackedArray::from_values(&vals);
            prop_assert!(a.bytes() <= vals.len() * 8 + 8);
        }

        #[test]
        fn range_decode_matches_per_index_gets(
            vals in prop::collection::vec(any::<u32>(), 1..200),
            cut_a in any::<usize>(),
            cut_b in any::<usize>(),
        ) {
            let a = PackedArray::from_u32s(&vals);
            let mut bounds = [cut_a % (vals.len() + 1), cut_b % (vals.len() + 1)];
            bounds.sort_unstable();
            let [start, end] = bounds;
            let mut out = vec![7u32; 3]; // pre-existing contents must survive
            a.extend_decode_u32(start, end, &mut out);
            prop_assert_eq!(&out[..3], &[7u32; 3]);
            let decoded: Vec<u32> = (start..end).map(|i| a.get(i) as u32).collect();
            prop_assert_eq!(&out[3..], &decoded[..]);
        }
    }
}
