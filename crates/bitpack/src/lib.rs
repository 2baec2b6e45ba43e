#![warn(missing_docs)]

//! # eim-bitpack
//!
//! Log encoding (bit-packing) as used by eIM (§3.1, Figure 1): every value of
//! an array is stored with exactly `nb = ceil(log2(x_max + 1))` bits, with
//! values allowed to span container boundaries. The paper packs into 32-bit
//! containers; we use 64-bit words — the natural word width on modern
//! hosts — which encodes the identical bit stream and halves the boundary
//! crossings.
//!
//! Three layers:
//! * [`PackedArray`] — immutable packed array, built in one pass.
//! * [`PackedBuf`] — the growable packed buffer the RRR store appends to.
//!   The paper packs RRR sets from many GPU blocks with a thread-safe
//!   encoder; here the fused sampler's blocks write plain per-block arenas,
//!   and one host writer packs them into the store after the arenas merge,
//!   so no packed write is ever concurrent.
//! * [`PackedCsc`] — a whole CSC graph (offsets + in-neighbors packed,
//!   weights either plain or derived) with the memory accounting behind
//!   Figure 4 / §4.2.
//!
//! ```
//! use eim_bitpack::PackedArray;
//!
//! // The Figure 1 example: five integers, max 123 -> 7 bits each.
//! let a = PackedArray::from_values(&[5, 123, 99, 43, 7]);
//! assert_eq!(a.bits_per_value(), 7);
//! assert_eq!(a.get(1), 123);
//! assert_eq!((0..a.len()).map(|i| a.get(i)).collect::<Vec<_>>(), [5, 123, 99, 43, 7]);
//! ```

mod buf;
mod csc;
mod mem;
mod nbits;
mod packed;

pub use buf::PackedBuf;
pub use csc::PackedCsc;
pub use mem::MemoryReport;
pub use nbits::bits_for;
pub use packed::PackedArray;
