//! The spatial INT8 pre-pass shared by the three baselines that quantize
//! their input in the spatial domain (paper Fig. 2 ❶): DirectInt8, and the
//! DownScale and UpCast schemes of the Winograd executor.
//!
//! The layer's input is quantized **once** into a zero-padded
//! `[B][hp][wp][C_p]` byte image, so overlapping filter windows and tiles
//! re-read INT8 bytes instead of re-quantizing FP32 (the oneDNN behaviour
//! the paper contrasts with in §5.3: its transform reads 4× fewer input
//! bytes than LoWino's). Every value goes through the tier-dispatched
//! [`quantize_lanes`] — one quantizer for all three executors. What differs
//! between them is data, not code:
//!
//! * the **offset**: DirectInt8 feeds the bytes straight to the u8×i8
//!   kernel, so it quantizes with the +128 compensation and its halo holds
//!   the compensated zero, 128; the Winograd schemes read the bytes as i8
//!   and their halo holds 0;
//! * the **halo**: `H + 2p` rows for the direct convolution, the full tile
//!   extent (ragged edge tiles read past `H + 2p`) for the Winograd schemes.

use core::ops::Range;

use lowino_quant::{count_saturated_i8, count_saturated_u8};
use lowino_simd::vecf32::{quantize_lanes, VecTier};
use lowino_tensor::{round_up, AlignedBuf, BlockedImage, ConvShape, LANES};

/// A layer's input quantized once into a padded byte image.
pub struct SpatialInt8 {
    /// The spatial-domain input scale.
    alpha_in: f32,
    /// Add the +128 compensation (u8 operands); else the bytes are i8.
    compensate: bool,
    /// `[B][hp][wp][C_p]`, filled once per execute; the halo keeps the
    /// quantized zero it was allocated with.
    qbuf: AlignedBuf<u8>,
    hp: usize,
    wp: usize,
    cp: usize,
}

impl SpatialInt8 {
    /// An image of `hp × wp` padded pixels per batch item (at least
    /// `(H + 2p) × (W + 2p)`), the halo set to the quantized zero.
    pub(super) fn new(spec: &ConvShape, (hp, wp): (usize, usize), alpha_in: f32, compensate: bool) -> Self {
        debug_assert!(hp >= spec.h + 2 * spec.pad && wp >= spec.w + 2 * spec.pad);
        let cp = round_up(spec.in_c, LANES);
        let mut qbuf = AlignedBuf::zeroed(spec.batch * hp * wp * cp);
        if compensate {
            qbuf.fill(128);
        }
        Self { alpha_in, compensate, qbuf, hp, wp, cp }
    }

    /// Index of channel group `cb` of padded pixel `(b, y, x)`.
    pub(super) fn offset(&self, b: usize, y: usize, x: usize, cb: usize) -> usize {
        ((b * self.hp + y) * self.wp + x) * self.cp + cb * LANES
    }

    /// The image as the last execute left it.
    pub(super) fn bytes(&self) -> &[u8] {
        self.qbuf.as_slice()
    }

    /// The image read as i8 (meaningful without compensation).
    pub(super) fn as_i8(&self) -> &[i8] {
        let bytes = self.bytes();
        // SAFETY: same allocation and length; every byte is a valid i8.
        unsafe { core::slice::from_raw_parts(bytes.as_ptr().cast::<i8>(), bytes.len()) }
    }

    /// The pre-pass over image rows `rows` (of `B·H`): every value of the
    /// row through [`quantize_lanes`]. Returns how many values sit on the
    /// ±127 clamp bounds (padding channels quantize to zero and never do).
    ///
    /// # Safety
    ///
    /// No other thread may read the image or quantize any of `rows` during
    /// the call (one task per `(b, y)` row, read after the phase barrier).
    pub(super) unsafe fn quantize_rows(&self, vt: VecTier, spec: &ConvShape, input: &BlockedImage, rows: Range<usize>) -> u64 {
        let mut saturated = 0;
        for row in rows {
            let (b, y) = (row / spec.h, row % spec.h);
            for x in 0..spec.w {
                for cb in 0..self.cp / LANES {
                    let off = self.offset(b, y + spec.pad, x + spec.pad, cb);
                    debug_assert!(off + LANES <= self.qbuf.len());
                    // SAFETY: the 64 bytes at `off` are inside the image and
                    // belong to row `(b, y)`, which the caller's contract
                    // makes this call's alone.
                    let dst = unsafe { core::slice::from_raw_parts_mut(self.qbuf.as_ptr().add(off).cast_mut(), LANES) };
                    quantize_lanes(vt, input.lanes(b, cb, y, x), self.alpha_in, self.compensate, dst);
                    saturated += if self.compensate {
                        count_saturated_u8(dst)
                    } else {
                        // SAFETY: the same 64 bytes, read as i8.
                        count_saturated_i8(unsafe { core::slice::from_raw_parts(dst.as_ptr().cast::<i8>(), LANES) })
                    };
                }
            }
        }
        saturated
    }

    /// Channel group `cb` of the tile at `(b, y0, x0)` as an `n×n×64` patch
    /// of widened INT8 values. The pad offset shifts the origin into the
    /// padded image, so indices are always in bounds and halo pixels read
    /// zeros.
    pub(super) fn gather_tile<T: From<i8>>(
        &self,
        pad: usize,
        b: usize,
        (y0, x0): (isize, isize),
        cb: usize,
        n: usize,
        patch: &mut [T],
    ) {
        debug_assert!(!self.compensate);
        let (y0, x0) = ((y0 + pad as isize) as usize, (x0 + pad as isize) as usize);
        let q = self.as_i8();
        for i in 0..n {
            for j in 0..n {
                let off = self.offset(b, y0 + i, x0 + j, cb);
                for (d, &s) in patch[(i * n + j) * LANES..][..LANES].iter_mut().zip(&q[off..off + LANES]) {
                    *d = T::from(s);
                }
            }
        }
    }
}
