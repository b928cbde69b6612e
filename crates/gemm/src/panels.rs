//! GEMM operand panels in the customised layouts of paper Table 1 — one
//! panel per operand, generic over the element ([`Operands`]):
//!
//! * [`VPanelOf`] — transformed inputs: per tile position `t`, an `N × C_p`
//!   row-major matrix (`C_p = C` rounded up to 64, so every 64-channel block
//!   of a u8 row is one aligned cache line; padding channels are zero, which
//!   the compensation algebra renders inert).
//! * [`UPanelOf`] — transformed filters: per `t`, the word interleave
//!   `[C_p/w] × [K_p] × [w]` with `w = 4 / size_of::<E::U>()` channels of one
//!   `k` per 32-bit word — for i8 the VNNI layout of paper §4.3.2 (*"a
//!   sub-matrix u is stored in a specific layout, which has been reordered
//!   to the size of (C_blk/4) × (K_blk × 4)"*), for i16 the `vpdpwssd`
//!   pair, for f32 plain k-major rows — plus, for u8×i8 only, the
//!   compensation rows `Z̄[t][k] = −128·Σ_c U[t][c][k]` (Eq. 9).
//! * [`ZPanelOf`] — GEMM outputs scattered for the output transform: layout
//!   `[K_p/64] × [N] × [T] × 64` 32-bit lanes, so stage ③ reads each tile's
//!   `T × 64` block contiguously (the paper's scatter-with-non-temporal-stores
//!   design, §4.2.3/§4.3).
//!
//! Seen as 32-bit words the layouts are the same for every element: a `V`
//! row is `C_p` channels of words, a `U` word-row is `K_p` words (4 u8, 2
//! i16 or 1 f32 channels of one `k` each). The one GEMM driver walks
//! nothing else.

use lowino_tensor::align::Pod;
use lowino_tensor::{round_up, AlignedBuf, LANES};

use crate::kernel::Element;

/// `C` padding granularity (one cache line of u8 channels).
pub const C_ALIGN: usize = LANES; // 64
/// `K` padding granularity (one ZMM of i32 lanes × 4 groups = 64).
pub const K_ALIGN: usize = LANES; // 64

// -------------------------------------------------------------- elements

/// The 32-bit lane types a `Z` panel holds: `i32` sums of the integer
/// elements, `f32` sums of the FP32 one.
pub trait Lane: Pod {}
impl Lane for i32 {}
impl Lane for f32 {}

/// A GEMM element type: the lane types of its three operands and the
/// kernel's fold over them.
pub trait Operands: Sized + Send + Sync + 'static {
    /// What one 32-bit word holds, and so the micro-kernel's fold.
    const ELEMENT: Element;
    /// `V`'s lane.
    type V: Pod;
    /// `U`'s lane; `4 / size_of` of it share a word.
    type U: Pod;
    /// `Z`'s lane.
    type Z: Lane;
}

/// `u8 × i8 → i32` under `vpdpbusd` — LoWino's GEMM: `V` is +128
/// compensated, so `U` carries the `Z̄` rows that make the unsigned product
/// exact (Eq. 9).
#[derive(Clone, Copy, Debug)]
pub struct U8I8;

/// `i16 × i16 → i32` under `vpdpwssd` — the up-casting baseline (paper
/// §2.3, ncnn-style). Widening the transformed operands to INT16 avoids
/// transform overflow but forces the multiply stage onto `vpdpwssd`: 32
/// multiplies per 512-bit instruction instead of `vpdpbusd`'s 64. That
/// architectural 2× is the whole difference — a word holds 2 channels
/// instead of 4, and the same driver and kernel walk twice as many words.
/// Signed, so no compensation.
#[derive(Clone, Copy, Debug)]
pub struct I16;

/// `f32 × f32 → f32` — the full-precision Winograd baseline: 16 MACs per
/// multiply-add pair against `vpdpbusd`'s 64, the 4× theoretical gap of
/// paper §2.1 and the reference point for the §5.1 claim that LoWino
/// reaches 1.9×/2.6× over the best FP32 implementation.
///
/// Rounding rule: each output is `acc += v·u` over the channels in
/// ascending order from `+0.0`, the product rounded before the add — on
/// every tier, under every blocking (a partial sum parked in `Z` between
/// `C` chunks is the same f32). A fused multiply-add would round once and
/// change bits.
#[derive(Clone, Copy, Debug)]
pub struct F32;

impl Operands for U8I8 {
    const ELEMENT: Element = Element::U8I8;
    type V = u8;
    type U = i8;
    type Z = i32;
}

impl Operands for I16 {
    const ELEMENT: Element = Element::I16;
    type V = i16;
    type U = i16;
    type Z = i32;
}

impl Operands for F32 {
    const ELEMENT: Element = Element::F32;
    type V = f32;
    type U = f32;
    type Z = f32;
}

// ---------------------------------------------------------------- VPanel

/// Transformed-input panel: `[T] × [N] × [C_p]` of `E::V`.
#[derive(Clone, Debug)]
pub struct VPanelOf<E: Operands> {
    buf: AlignedBuf<E::V>,
    t: usize,
    n: usize,
    c: usize,
    cp: usize,
}

/// The u8 `V` panel of the u8×i8 GEMM.
pub type VPanel = VPanelOf<U8I8>;

impl<E: Operands> VPanelOf<E> {
    /// Allocate a zeroed panel for `t` tile positions, `n` tiles, `c`
    /// logical input channels.
    pub fn new(t: usize, n: usize, c: usize) -> Self {
        let cp = round_up(c, C_ALIGN);
        Self { buf: AlignedBuf::zeroed(t * n * cp), t, n, c, cp }
    }

    /// (T, N, C, C_p).
    pub fn dims(&self) -> (usize, usize, usize, usize) {
        (self.t, self.n, self.c, self.cp)
    }

    /// Padded channel stride.
    #[inline]
    pub fn cp(&self) -> usize {
        self.cp
    }

    /// Bytes of one row.
    #[inline]
    pub(crate) fn row_bytes(&self) -> usize {
        self.cp * size_of::<E::V>()
    }

    #[inline]
    fn row_offset(&self, t: usize, n: usize) -> usize {
        debug_assert!(t < self.t && n < self.n);
        (t * self.n + n) * self.cp
    }

    /// One tile row (all padded channels) — 64-byte aligned.
    #[inline]
    pub fn row(&self, t: usize, n: usize) -> &[E::V] {
        let o = self.row_offset(t, n);
        &self.buf.as_slice()[o..o + self.cp]
    }

    /// Mutable tile row.
    #[inline]
    pub fn row_mut(&mut self, t: usize, n: usize) -> &mut [E::V] {
        let o = self.row_offset(t, n);
        &mut self.buf.as_mut_slice()[o..o + self.cp]
    }

    /// Single element accessor (tests / reference paths).
    #[inline]
    pub fn get(&self, t: usize, n: usize, c: usize) -> E::V {
        debug_assert!(c < self.cp);
        self.buf.as_slice()[self.row_offset(t, n) + c]
    }

    /// Single element setter (tests / reference paths).
    #[inline]
    pub fn set(&mut self, t: usize, n: usize, c: usize, v: E::V) {
        debug_assert!(c < self.cp);
        let o = self.row_offset(t, n) + c;
        self.buf.as_mut_slice()[o] = v;
    }

    /// Raw pointer to a row start (for the unsafe micro-kernels).
    #[inline]
    pub fn row_ptr(&self, t: usize, n: usize) -> *const E::V {
        // SAFETY: `row_offset` is inside the buffer (debug-asserted).
        unsafe { self.buf.as_ptr().add(self.row_offset(t, n)) }
    }

    /// Raw mutable row pointer through a shared reference — used by the
    /// parallel input transform, whose static schedule writes disjoint
    /// `(tile, channel-block)` cache lines.
    ///
    /// # Safety
    ///
    /// Callers must not create overlapping concurrent writes.
    #[inline]
    pub unsafe fn row_ptr_shared(&self, t: usize, n: usize) -> *mut E::V {
        self.row_ptr(t, n) as *mut E::V
    }
}

// ---------------------------------------------------------------- UPanel

/// Transformed-filter panel: `[T] × [C_p/w] × [K_p] × [w]` of `E::U`, `w`
/// channels per 32-bit word, plus the per-position compensation rows `Z̄`
/// where `E` is u8×i8.
#[derive(Clone, Debug)]
pub struct UPanelOf<E: Operands> {
    buf: AlignedBuf<E::U>,
    /// `[T][K_p]` compensation rows; empty for the signed elements.
    zbar: AlignedBuf<i32>,
    t: usize,
    c: usize,
    cp: usize,
    k: usize,
    kp: usize,
}

/// The interleaved i8 `U` panel (with `Z̄`) of the u8×i8 GEMM.
pub type UPanel = UPanelOf<U8I8>;

impl<E: Operands> UPanelOf<E> {
    /// Channels per 32-bit word.
    const W: usize = 4 / size_of::<E::U>();

    /// Allocate a zeroed panel.
    pub fn new(t: usize, c: usize, k: usize) -> Self {
        let cp = round_up(c, C_ALIGN);
        let kp = round_up(k, K_ALIGN);
        let zbar = if E::ELEMENT == Element::U8I8 { t * kp } else { 0 };
        Self { buf: AlignedBuf::zeroed(t * cp * kp), zbar: AlignedBuf::zeroed(zbar), t, c, cp, k, kp }
    }

    /// (T, C, C_p, K, K_p).
    pub fn dims(&self) -> (usize, usize, usize, usize, usize) {
        (self.t, self.c, self.cp, self.k, self.kp)
    }

    /// Padded K stride.
    #[inline]
    pub fn kp(&self) -> usize {
        self.kp
    }

    /// Padded C stride.
    #[inline]
    pub fn cp(&self) -> usize {
        self.cp
    }

    #[inline]
    fn offset(&self, t: usize, c: usize, k: usize) -> usize {
        debug_assert!(t < self.t && c < self.cp && k < self.kp);
        ((t * (self.cp / Self::W) + c / Self::W) * self.kp + k) * Self::W + c % Self::W
    }

    /// Logical element accessor (`U[t][c][k]`).
    #[inline]
    pub fn get(&self, t: usize, c: usize, k: usize) -> E::U {
        self.buf.as_slice()[self.offset(t, c, k)]
    }

    /// Logical element setter; a u8×i8 panel wants
    /// [`UPanel::finalize_compensation`] afterwards.
    #[inline]
    pub fn set(&mut self, t: usize, c: usize, k: usize, v: E::U) {
        let o = self.offset(t, c, k);
        self.buf.as_mut_slice()[o] = v;
    }

    /// Byte pointer to word `k` of word-row 0 of `U[t]`. Within the returned
    /// region the micro-kernel advances [`Self::word_stride`] bytes per
    /// word-row and reads 64-byte rows of 16 `k` words.
    #[inline]
    pub fn block_ptr(&self, t: usize, k: usize) -> *const i8 {
        debug_assert!(t < self.t && k < self.kp);
        // SAFETY: the offset is in bounds by construction.
        unsafe { (self.buf.as_ptr() as *const i8).add(t * self.cp * self.kp * size_of::<E::U>() + k * 4) }
    }

    /// Bytes between consecutive word-rows.
    #[inline]
    pub fn word_stride(&self) -> usize {
        self.kp * 4
    }

    /// `Z̄[t]`, where the panel carries compensation rows.
    #[inline]
    pub(crate) fn compensation(&self, t: usize) -> Option<&[i32]> {
        let z = self.zbar.as_slice();
        (!z.is_empty()).then(|| &z[t * self.kp..(t + 1) * self.kp])
    }
}

impl UPanel {
    /// Recompute the compensation rows `Z̄[t][k] = −128·Σ_c U[t][c][k]`
    /// (paper Eq. 9 — computed in the offline filter-transformation stage).
    pub fn finalize_compensation(&mut self) {
        for t in 0..self.t {
            for k in 0..self.kp {
                let s: i32 = (0..self.cp).map(|c| i32::from(self.get(t, c, k))).sum();
                self.zbar.as_mut_slice()[t * self.kp + k] = -128 * s;
            }
        }
    }

    /// The compensation row for tile position `t` (length `K_p`).
    #[inline]
    pub fn zbar(&self, t: usize) -> &[i32] {
        &self.zbar.as_slice()[t * self.kp..(t + 1) * self.kp]
    }
}

// ---------------------------------------------------------------- ZPanel

/// GEMM-output panel: `[K_p/64] × [N] × [T] × [64]` 32-bit lanes.
#[derive(Clone, Debug)]
pub struct ZPanelOf<T: Lane> {
    buf: AlignedBuf<T>,
    kg: usize,
    n: usize,
    t: usize,
    k: usize,
}

/// The `i32` output panel of the u8×i8 and i16 GEMMs.
pub type ZPanel = ZPanelOf<i32>;

impl<T: Lane> ZPanelOf<T> {
    /// Allocate a zeroed panel.
    pub fn new(t: usize, n: usize, k: usize) -> Self {
        let kp = round_up(k, K_ALIGN);
        Self {
            buf: AlignedBuf::zeroed((kp / LANES) * n * t * LANES),
            kg: kp / LANES,
            n,
            t,
            k,
        }
    }

    /// (T, N, K, K-groups).
    pub fn dims(&self) -> (usize, usize, usize, usize) {
        (self.t, self.n, self.k, self.kg)
    }

    /// The whole panel as one flat slice (snapshot/diff in tests).
    pub fn as_slice(&self) -> &[T] {
        self.buf.as_slice()
    }

    /// The contiguous `T × 64` block for (k-group, tile) — exactly what
    /// the output transform consumes.
    #[inline]
    pub fn tile_block(&self, kg: usize, n: usize) -> &[T] {
        debug_assert!(kg < self.kg && n < self.n);
        let o = (kg * self.n + n) * self.t * LANES;
        &self.buf.as_slice()[o..o + self.t * LANES]
    }

    #[inline]
    fn offset(&self, t: usize, n: usize, k: usize) -> usize {
        debug_assert!(t < self.t && n < self.n && k < self.kg * LANES);
        ((k / LANES * self.n + n) * self.t + t) * LANES + k % LANES
    }

    /// Element accessor `Z[t][n][k]`.
    #[inline]
    pub fn get(&self, t: usize, n: usize, k: usize) -> T {
        self.buf.as_slice()[self.offset(t, n, k)]
    }

    /// Element setter (reference paths).
    #[inline]
    pub fn set(&mut self, t: usize, n: usize, k: usize, v: T) {
        let o = self.offset(t, n, k);
        self.buf.as_mut_slice()[o] = v;
    }

    /// Row stride in lanes between consecutive tiles `n`.
    #[inline]
    pub fn n_stride(&self) -> usize {
        self.t * LANES
    }

    /// Raw store pointer through a shared reference — used by the parallel
    /// GEMM driver, whose static schedule guarantees disjoint `(t, n)`
    /// regions per thread.
    ///
    /// # Safety
    ///
    /// Callers must not create overlapping concurrent writes.
    #[inline]
    pub unsafe fn store_ptr_shared(&self, t: usize, n: usize, k: usize) -> *mut T {
        debug_assert!(k.is_multiple_of(16));
        self.buf.as_ptr().add(self.offset(t, n, k)) as *mut T
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vpanel_geometry_and_padding() {
        let v = VPanel::new(4, 3, 100);
        assert_eq!(v.dims(), (4, 3, 100, 128));
        assert_eq!(v.row(0, 0).len(), 128);
        assert!(v.row(3, 2).iter().all(|&x| x == 0));
        // Rows are cache-line aligned.
        assert_eq!(v.row_ptr(1, 1) as usize % 64, 0);
    }

    #[test]
    fn vpanel_set_get_round_trip() {
        let mut v = VPanel::new(2, 4, 8);
        v.set(1, 3, 7, 200);
        assert_eq!(v.get(1, 3, 7), 200);
        assert_eq!(v.get(1, 3, 6), 0);
    }

    #[test]
    fn upanel_interleave_layout() {
        let mut u = UPanel::new(1, 8, 64);
        u.set(0, 0, 0, 1);
        u.set(0, 1, 0, 2);
        u.set(0, 2, 0, 3);
        u.set(0, 3, 0, 4);
        u.set(0, 4, 0, 5); // next c4 group
        // First 4 bytes at block start must be channels 0..4 of k = 0.
        let p = u.block_ptr(0, 0);
        // SAFETY: reading inside the allocation.
        let first: &[i8] = unsafe { core::slice::from_raw_parts(p, 4) };
        assert_eq!(first, &[1, 2, 3, 4]);
        // Channel 4 lives one c4-stride further.
        let second: &[i8] =
            unsafe { core::slice::from_raw_parts(p.add(u.word_stride()), 1) };
        assert_eq!(second, &[5]);
    }

    #[test]
    fn upanel_compensation_rows() {
        let mut u = UPanel::new(2, 4, 16);
        for c in 0..4 {
            u.set(1, c, 3, 10);
        }
        u.set(1, 0, 5, -7);
        u.finalize_compensation();
        assert_eq!(u.zbar(1)[3], -128 * 40);
        assert_eq!(u.zbar(1)[5], -128 * -7);
        assert_eq!(u.zbar(1)[0], 0);
        assert_eq!(u.zbar(0)[3], 0);
    }

    #[test]
    fn zpanel_scatter_geometry() {
        let mut z = ZPanel::new(16, 3, 128);
        assert_eq!(z.dims(), (16, 3, 128, 2));
        z.set(5, 2, 100, -42);
        assert_eq!(z.get(5, 2, 100), -42);
        // The (kg=1, n=2) block contains t-major 64-lane groups.
        let block = z.tile_block(1, 2);
        assert_eq!(block.len(), 16 * 64);
        assert_eq!(block[5 * 64 + 36], -42); // k=100 -> lane 36 of group 1
    }

    #[test]
    fn zpanel_store_ptr_matches_get() {
        let z = ZPanel::new(4, 2, 64);
        // SAFETY: in-bounds write of 16 lanes, nothing else writes `z`.
        unsafe {
            let p = z.store_ptr_shared(2, 1, 16);
            for i in 0..16 {
                *p.add(i) = i as i32 + 1;
            }
        }
        for i in 0..16 {
            assert_eq!(z.get(2, 1, 16 + i), i as i32 + 1);
        }
        assert_eq!(z.n_stride(), 4 * 64);
    }

    #[test]
    fn f32_panels() {
        let mut v = VPanelOf::<F32>::new(2, 3, 17);
        assert_eq!(v.dims(), (2, 3, 17, 64));
        v.row_mut(1, 2)[16] = 1.5;
        assert_eq!(v.row(1, 2)[16], 1.5);
        let mut u = UPanelOf::<F32>::new(2, 17, 30);
        assert_eq!(u.dims(), (2, 17, 64, 30, 64));
        u.set(0, 16, 29, -2.0);
        assert_eq!(u.get(0, 16, 29), -2.0);
        // One channel per word: the row of channel 16 is word-row 16.
        let p = u.block_ptr(0, 29);
        // SAFETY: reading one word inside the allocation.
        let word = unsafe { *(p.add(16 * u.word_stride()) as *const f32) };
        assert_eq!(word, -2.0);
        let mut z = ZPanelOf::<f32>::new(4, 2, 65);
        z.set(3, 1, 64, 7.0);
        assert_eq!(z.get(3, 1, 64), 7.0);
        assert_eq!(z.tile_block(1, 1)[3 * 64], 7.0);
    }

    #[test]
    fn i16_panels() {
        let mut v = VPanelOf::<I16>::new(1, 2, 3);
        assert_eq!(v.dims(), (1, 2, 3, 64));
        v.row_mut(0, 1)[2] = -300;
        assert_eq!(v.row(0, 1)[2], -300);
        let mut u = UPanelOf::<I16>::new(1, 3, 20);
        assert_eq!(u.dims(), (1, 3, 64, 20, 64));
        // Channel pairs per word: channel 2 opens the second word-row.
        u.set(0, 2, 5, -7);
        let p = u.block_ptr(0, 5);
        // SAFETY: reading one word inside the allocation.
        let pair = unsafe { *(p.add(u.word_stride()) as *const [i16; 2]) };
        assert_eq!(pair, [-7, 0]);
        assert!(u.compensation(0).is_none());
    }
}
