//! The fused IC scan's window test: which edges of a keystream window
//! accept.
//!
//! The scan draws one keystream word per in-edge and accepts edge `i` iff
//! `words[i] >> 8 <= thresholds[i]` ([`crate::device_graph::weight_threshold`]).
//! [`accept_mask`] answers that for a whole window of up to [`WINDOW_WORDS`]
//! words at once, as a bitmask, so the scan visits only the accepted
//! positions in ascending order: a window usually accepts a handful of its
//! words, and only those read a neighbor and `M`.
//!
//! The test picks its backend at run time, the way the ChaCha refill does:
//!
//! 1. AVX-512F: sixteen words per compare, the window's last partial chunk
//!    under a load mask;
//! 2. portable: [`ACCEPT_CHUNK`] words at a time, with one OR-reduced
//!    compare (which LLVM vectorizes) ruling out a chunk before its
//!    per-word bits are formed.
//!
//! Both return the scalar rule's bits exactly, so the choice never changes
//! a sample.

use crate::device_graph::RowThresholds;

/// The most keystream words one window holds: the ChaCha8 buffer of eight
/// 16-word blocks that [`rand_chacha::ChaCha8Rng::peek_words`] exposes.
pub(crate) const WINDOW_WORDS: usize = 128;

/// Words the portable backend tests at once. With the AVX-512VL refill and
/// the row prefetch in place, eight measured faster than sixteen or
/// thirty-two.
const ACCEPT_CHUNK: usize = 8;

/// Bit `i` is set iff `words[i] >> 8 <= thresholds.get(i)`: the edges of
/// the window that accept. Per-edge `thresholds` must cover the window.
///
/// # Panics
///
/// If `words` holds more than [`WINDOW_WORDS`] words, or per-edge
/// `thresholds` fewer than `words`.
#[inline]
pub(crate) fn accept_mask(words: &[u32], thresholds: RowThresholds<'_>) -> u128 {
    assert!(
        words.len() <= WINDOW_WORDS,
        "window of {} words",
        words.len()
    );
    if let RowThresholds::PerEdge(ts) = thresholds {
        assert!(ts.len() >= words.len(), "thresholds shorter than window");
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: AVX-512F was detected at run time, and the lengths were
        // checked above.
        return unsafe { x86::accept_mask_avx512(words, thresholds) };
    }
    accept_mask_portable(words, thresholds)
}

/// The portable backend of [`accept_mask`].
fn accept_mask_portable(words: &[u32], thresholds: RowThresholds<'_>) -> u128 {
    match thresholds {
        RowThresholds::Shared(t) => chunked_mask(words, |_| [t; ACCEPT_CHUNK], |_| t),
        RowThresholds::PerEdge(ts) => {
            let (chunks, rest) = ts[..words.len()].as_chunks::<ACCEPT_CHUNK>();
            chunked_mask(words, |c| chunks[c], |j| rest[j])
        }
    }
}

/// [`accept_mask`] over `ACCEPT_CHUNK`-word chunks: `chunk(c)` gives the
/// thresholds of chunk `c`, and `tail(j)` that of the `j`-th word after
/// the last whole chunk.
#[inline(always)]
fn chunked_mask(
    words: &[u32],
    chunk: impl Fn(usize) -> [u32; ACCEPT_CHUNK],
    tail: impl Fn(usize) -> u32,
) -> u128 {
    let (chunks, rest) = words.as_chunks::<ACCEPT_CHUNK>();
    let mut mask = 0u128;
    for (c, w) in chunks.iter().enumerate() {
        let t = chunk(c);
        // Most chunks accept nothing: one vector compare rules a whole
        // chunk out.
        if w.iter()
            .zip(&t)
            .fold(false, |any, (&w, &t)| any | (w >> 8 <= t))
        {
            for (j, (&w, &t)) in w.iter().zip(&t).enumerate() {
                mask |= u128::from(w >> 8 <= t) << (c * ACCEPT_CHUNK + j);
            }
        }
    }
    let base = chunks.len() * ACCEPT_CHUNK;
    for (j, &w) in rest.iter().enumerate() {
        mask |= u128::from(w >> 8 <= tail(j)) << (base + j);
    }
    mask
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::RowThresholds;
    use std::arch::x86_64::*;

    /// [`super::accept_mask`] sixteen words per compare. The last chunk of
    /// a window loads and compares only its live lanes, so nothing past
    /// `words.len()` is read.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F, `words` must hold at most 128 words,
    /// and per-edge thresholds at least `words.len()`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn accept_mask_avx512(words: &[u32], thresholds: RowThresholds<'_>) -> u128 {
        let n = words.len();
        let splat = _mm512_set1_epi32(match thresholds {
            RowThresholds::Shared(t) => t as i32,
            RowThresholds::PerEdge(_) => 0,
        });
        let mut mask = 0u128;
        let mut c = 0;
        while c < n {
            let live: __mmask16 = if n - c >= 16 { !0 } else { (1 << (n - c)) - 1 };
            // SAFETY: lanes outside `live` are neither read nor compared,
            // and the live ones lie within `words` and the thresholds.
            let w = unsafe { _mm512_maskz_loadu_epi32(live, words.as_ptr().add(c).cast()) };
            let t = match thresholds {
                RowThresholds::Shared(_) => splat,
                RowThresholds::PerEdge(ts) => unsafe {
                    _mm512_maskz_loadu_epi32(live, ts.as_ptr().add(c).cast())
                },
            };
            let accepted = _mm512_mask_cmple_epu32_mask(live, _mm512_srli_epi32::<8>(w), t);
            mask |= u128::from(accepted) << c;
            c += 16;
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The rule every backend must reproduce, bit by bit.
    fn scalar(words: &[u32], thresholds: RowThresholds<'_>) -> u128 {
        words.iter().enumerate().fold(0, |m, (i, &w)| {
            m | u128::from(w >> 8 <= thresholds.get(i)) << i
        })
    }

    type Backend = fn(&[u32], RowThresholds<'_>) -> u128;

    /// Every compiled backend, by name.
    fn backends() -> Vec<(&'static str, Backend)> {
        #[allow(unused_mut)]
        let mut out: Vec<(&'static str, Backend)> = vec![
            ("portable", accept_mask_portable),
            ("dispatch", accept_mask),
        ];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F was detected at run time; the caller passes
            // windows of at most 128 words with thresholds covering them.
            out.push(("avx512f", |w, t| unsafe { x86::accept_mask_avx512(w, t) }));
        }
        out
    }

    /// Windows of every length `0..=128` against the limits 0, 2^24 − 1,
    /// 2^24 and `u32::MAX`, shared and per edge, with words one below, at
    /// and one above each limit's whole-word form `(t << 8) | 0xFF`, and
    /// random words.
    #[test]
    fn backends_match_the_scalar_rule() {
        const LIMITS: [u32; 4] = [0, (1 << 24) - 1, 1 << 24, u32::MAX];
        let mut rng = ChaCha8Rng::seed_from_u64(29);
        let near = |t: u32, k: u32| {
            let limit = t.checked_mul(256).map_or(u32::MAX, |x| x | 0xFF);
            [limit.wrapping_sub(1), limit, limit.wrapping_add(1)][k as usize % 3]
        };
        let mut checked = 0usize;
        for len in 0..=WINDOW_WORDS {
            for &t in &LIMITS {
                let words: Vec<u32> = (0..len as u32)
                    .map(|i| match rng.gen_range(0..4) {
                        0 => rng.gen(),
                        _ => near(t, i),
                    })
                    .collect();
                // Per-edge limits cycle through `LIMITS` and run one past
                // the window, as a row longer than the window does.
                let per_edge: Vec<u32> = (0..=len).map(|i| LIMITS[(i + len) % 4]).collect();
                let mixed: Vec<u32> = (0..len)
                    .map(|i| near(per_edge[i], rng.gen_range(0..3)))
                    .collect();
                for (ws, ts) in [
                    (&words, RowThresholds::Shared(t)),
                    (&words, RowThresholds::PerEdge(&per_edge)),
                    (&mixed, RowThresholds::PerEdge(&per_edge)),
                ] {
                    let want = scalar(ws, ts);
                    assert!(
                        len == WINDOW_WORDS || want >> len == 0,
                        "bits past the window"
                    );
                    for (name, backend) in backends() {
                        assert_eq!(backend(ws, ts), want, "{name}: len {len}, {ts:?}");
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked >= 129 * 4 * 3 * 2, "{checked} windows");
    }
}
