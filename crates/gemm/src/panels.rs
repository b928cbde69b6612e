//! GEMM operand panels in the customised layouts of paper Table 1.
//!
//! * [`VPanel`] — transformed inputs: per tile position `t`, an `N × C_p`
//!   row-major u8 matrix (`C_p = C` rounded up to 64 so every channel block
//!   is one aligned cache line; padding channels are zero bytes, which the
//!   compensation algebra renders inert).
//! * [`UPanel`] — transformed filters: per `t`, the VNNI interleave
//!   `[C_p/4] × [K_p × 4]` i8 (paper §4.3.2: *"a sub-matrix u is stored in a
//!   specific layout, which has been reordered to the size of
//!   (C_blk/4) × (K_blk × 4)"*), plus the compensation row
//!   `Z̄[t][k] = −128·Σ_c U[t][c][k]` (Eq. 9).
//! * [`ZPanel`] — GEMM outputs scattered for the output transform: layout
//!   `[K_p/64] × [N] × [T] × 64` i32, so stage ③ reads each tile's `T × 64`
//!   block contiguously (the paper's scatter-with-non-temporal-stores
//!   design, §4.2.3/§4.3).
//!
//! FP32 and INT16 sibling panels serve the full-precision and up-casting
//! baselines with identical geometry — and, seen as 32-bit words, identical
//! layouts: every `V` is `[T][N]` rows of words, every `U` is `[T]` blocks of
//! word-rows of `K_p·4` bytes (a word holding 4 u8, 2 i16 or 1 f32 channels
//! of one `k`), every `Z` is `[K_p/64][N][T][64]` 32-bit lanes. `VWords` and
//! `UWords` are those views; the one GEMM driver walks nothing else.

use core::marker::PhantomData;

use lowino_tensor::align::Pod;
use lowino_tensor::{round_up, AlignedBuf, LANES};

/// `C` padding granularity for the u8/i8 panels (one cache line).
pub const C_ALIGN: usize = LANES; // 64
/// `K` padding granularity (one ZMM of i32 lanes × 4 groups = 64).
pub const K_ALIGN: usize = LANES; // 64

// ------------------------------------------------------------ word views

/// Read-only view of a transformed-input panel of any element type as
/// `[T][N]` rows of 32-bit words, `row_bytes` apart.
#[derive(Clone, Copy, Debug)]
pub(crate) struct VWords<'a> {
    base: *const u8,
    /// (T, N, C, C_p) in the panel's own elements.
    pub(crate) dims: (usize, usize, usize, usize),
    pub(crate) row_bytes: usize,
    _panel: PhantomData<&'a [u8]>,
}

impl VWords<'_> {
    /// Byte pointer to row `(t, n)`.
    #[inline]
    pub(crate) fn row_ptr(&self, t: usize, n: usize) -> *const u8 {
        debug_assert!(t < self.dims.0 && n < self.dims.1);
        // SAFETY: the row lies inside the panel the view was taken from.
        unsafe { self.base.add((t * self.dims.1 + n) * self.row_bytes) }
    }
}

/// Read-only view of a transformed-filter panel of any element type as
/// `[T]` blocks of word-rows, each `K_p·4` bytes (`K_p` words, one per `k`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct UWords<'a> {
    base: *const i8,
    /// (T, C, C_p, K, K_p) in the panel's own elements.
    pub(crate) dims: (usize, usize, usize, usize, usize),
    t_bytes: usize,
    /// The `[T][K_p]` compensation rows (u8×i8 panels only).
    zbar: Option<&'a [i32]>,
}

impl<'a> UWords<'a> {
    /// Byte pointer to word `k` of word-row 0 of `U[t]`; the next word-row
    /// is [`Self::word_stride`] bytes on.
    #[inline]
    pub(crate) fn block_ptr(&self, t: usize, k: usize) -> *const i8 {
        debug_assert!(t < self.dims.0 && k < self.dims.4);
        // SAFETY: the offset lies inside the panel the view was taken from.
        unsafe { self.base.add(t * self.t_bytes + k * 4) }
    }

    /// Bytes between consecutive word-rows.
    #[inline]
    pub(crate) fn word_stride(&self) -> usize {
        self.dims.4 * 4
    }

    /// `Z̄[t]`, when the panel carries compensation rows.
    #[inline]
    pub(crate) fn zbar(&self, t: usize) -> Option<&'a [i32]> {
        let kp = self.dims.4;
        self.zbar.map(|z| &z[t * kp..(t + 1) * kp])
    }
}

// SAFETY: both views are read-only addresses into a panel borrowed for
// `'a`; the panels are `Sync` (plain `AlignedBuf`s), so sharing or sending
// a view is sharing `&Panel`.
unsafe impl Send for VWords<'_> {}
unsafe impl Sync for VWords<'_> {}
unsafe impl Send for UWords<'_> {}
unsafe impl Sync for UWords<'_> {}

// ---------------------------------------------------------------- VPanel

/// Transformed-input panel: `[T] × [N] × [C_p]` u8.
#[derive(Clone, Debug)]
pub struct VPanel {
    buf: AlignedBuf<u8>,
    t: usize,
    n: usize,
    c: usize,
    cp: usize,
}

impl VPanel {
    /// Allocate a zeroed panel for `t` tile positions, `n` tiles, `c`
    /// logical input channels.
    pub fn new(t: usize, n: usize, c: usize) -> Self {
        let cp = round_up(c, C_ALIGN);
        Self {
            buf: AlignedBuf::zeroed(t * n * cp),
            t,
            n,
            c,
            cp,
        }
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

    #[inline]
    fn row_offset(&self, t: usize, n: usize) -> usize {
        debug_assert!(t < self.t && n < self.n);
        (t * self.n + n) * self.cp
    }

    /// One tile row (all padded channels) — 64-byte aligned.
    #[inline]
    pub fn row(&self, t: usize, n: usize) -> &[u8] {
        let o = self.row_offset(t, n);
        &self.buf.as_slice()[o..o + self.cp]
    }

    /// Mutable tile row.
    #[inline]
    pub fn row_mut(&mut self, t: usize, n: usize) -> &mut [u8] {
        let o = self.row_offset(t, n);
        &mut self.buf.as_mut_slice()[o..o + self.cp]
    }

    /// Single element accessor (tests / reference paths).
    #[inline]
    pub fn get(&self, t: usize, n: usize, c: usize) -> u8 {
        debug_assert!(c < self.cp);
        self.buf.as_slice()[self.row_offset(t, n) + c]
    }

    /// Single element setter (tests / reference paths).
    #[inline]
    pub fn set(&mut self, t: usize, n: usize, c: usize, v: u8) {
        debug_assert!(c < self.cp);
        let o = self.row_offset(t, n) + c;
        self.buf.as_mut_slice()[o] = v;
    }

    /// Raw pointer to a row start (for the unsafe micro-kernels).
    #[inline]
    pub fn row_ptr(&self, t: usize, n: usize) -> *const u8 {
        // SAFETY of later arithmetic relies on row_offset bounds checks.
        unsafe { self.buf.as_ptr().add(self.row_offset(t, n)) }
    }

    /// Zero the whole panel (workspace reuse between layers).
    pub fn clear(&mut self) {
        self.buf.zero_fill();
    }

    /// The panel as rows of 32-bit words (4 channels each).
    pub(crate) fn words(&self) -> VWords<'_> {
        VWords { base: self.buf.as_ptr(), dims: self.dims(), row_bytes: self.cp, _panel: PhantomData }
    }

    /// Raw mutable row pointer through a shared reference — used by the
    /// parallel input transform, whose static schedule writes disjoint
    /// `(tile, channel-block)` cache lines.
    ///
    /// # Safety
    ///
    /// Callers must not create overlapping concurrent writes.
    #[inline]
    pub unsafe fn row_ptr_shared(&self, t: usize, n: usize) -> *mut u8 {
        self.buf.as_ptr().add(self.row_offset(t, n)) as *mut u8
    }
}

// ---------------------------------------------------------------- UPanel

/// Transformed-filter panel: `[T] × [C_p/4] × [K_p] × [4]` i8, plus the
/// per-position compensation rows `Z̄`.
#[derive(Clone, Debug)]
pub struct UPanel {
    buf: AlignedBuf<i8>,
    zbar: AlignedBuf<i32>,
    t: usize,
    c: usize,
    cp: usize,
    k: usize,
    kp: usize,
}

impl UPanel {
    /// Allocate a zeroed panel.
    pub fn new(t: usize, c: usize, k: usize) -> Self {
        let cp = round_up(c, C_ALIGN);
        let kp = round_up(k, K_ALIGN);
        Self {
            buf: AlignedBuf::zeroed(t * (cp / 4) * kp * 4),
            zbar: AlignedBuf::zeroed(t * kp),
            t,
            c,
            cp,
            k,
            kp,
        }
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
        ((t * (self.cp / 4) + c / 4) * self.kp + k) * 4 + (c % 4)
    }

    /// Logical element accessor (`U[t][c][k]`).
    #[inline]
    pub fn get(&self, t: usize, c: usize, k: usize) -> i8 {
        self.buf.as_slice()[self.offset(t, c, k)]
    }

    /// Logical element setter. Call [`finalize_compensation`] afterwards.
    ///
    /// [`finalize_compensation`]: UPanel::finalize_compensation
    #[inline]
    pub fn set(&mut self, t: usize, c: usize, k: usize, v: i8) {
        let o = self.offset(t, c, k);
        self.buf.as_mut_slice()[o] = v;
    }

    /// Recompute the compensation rows `Z̄[t][k] = −128·Σ_c U[t][c][k]`
    /// (paper Eq. 9 — computed in the offline filter-transformation stage).
    pub fn finalize_compensation(&mut self) {
        for t in 0..self.t {
            for k in 0..self.kp {
                let mut s = 0i32;
                for c in 0..self.cp {
                    s += i32::from(self.get(t, c, k));
                }
                let o = t * self.kp + k;
                self.zbar.as_mut_slice()[o] = -128 * s;
            }
        }
    }

    /// The compensation row for tile position `t` (length `K_p`).
    #[inline]
    pub fn zbar(&self, t: usize) -> &[i32] {
        &self.zbar.as_slice()[t * self.kp..(t + 1) * self.kp]
    }

    /// Raw pointer to the interleaved block `(t, c4 = 0, k)`.
    ///
    /// Within the returned region the micro-kernel advances by
    /// `k_p·4` bytes per 4-channel group and reads 64-byte rows of
    /// `16 k-lanes × 4 channel bytes`.
    #[inline]
    pub fn block_ptr(&self, t: usize, k: usize) -> *const i8 {
        debug_assert!(t < self.t && k < self.kp);
        let o = (t * (self.cp / 4)) * self.kp * 4 + k * 4;
        // SAFETY: offset is in bounds by construction.
        unsafe { self.buf.as_ptr().add(o) }
    }

    /// Stride in bytes between consecutive 4-channel groups.
    #[inline]
    pub fn c4_stride(&self) -> usize {
        self.kp * 4
    }

    /// The panel as word-rows (4 channels of one `k` per word) plus `Z̄`.
    pub(crate) fn words(&self) -> UWords<'_> {
        UWords {
            base: self.buf.as_ptr(),
            dims: self.dims(),
            t_bytes: self.cp * self.kp,
            zbar: Some(self.zbar.as_slice()),
        }
    }
}

// ---------------------------------------------------------------- ZPanel

/// The 32-bit lane types a `Z` panel holds: `i32` sums of the integer
/// elements, `f32` sums of the FP32 one.
pub trait Lane: Pod {}
impl Lane for i32 {}
impl Lane for f32 {}

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
/// The FP32 GEMM's output panel — same scatter geometry.
pub type ZPanelF32 = ZPanelOf<f32>;

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

    /// Raw mutable pointer for the micro-kernel store at `(t, n, k)`;
    /// `k` must be 16-aligned. Row stride (n → n+1) is `T·64` lanes.
    #[inline]
    pub fn store_ptr(&mut self, t: usize, n: usize, k: usize) -> *mut T {
        debug_assert!(k.is_multiple_of(16));
        let o = self.offset(t, n, k);
        // SAFETY: offset in bounds by construction.
        unsafe { self.buf.as_mut_ptr().add(o) }
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

// ------------------------------------------------- FP32 / INT16 variants

macro_rules! simple_v_panel {
    ($vname:ident, $elem:ty, $calign:expr) => {
        /// Transformed-input panel (`[T] × [N] × [C_p]`).
        #[derive(Clone, Debug)]
        pub struct $vname {
            buf: AlignedBuf<$elem>,
            t: usize,
            n: usize,
            c: usize,
            cp: usize,
        }

        impl $vname {
            /// Allocate a zeroed panel.
            pub fn new(t: usize, n: usize, c: usize) -> Self {
                let cp = round_up(c, $calign);
                Self {
                    buf: AlignedBuf::zeroed(t * n * cp),
                    t,
                    n,
                    c,
                    cp,
                }
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

            /// One tile row.
            #[inline]
            pub fn row(&self, t: usize, n: usize) -> &[$elem] {
                let o = (t * self.n + n) * self.cp;
                &self.buf.as_slice()[o..o + self.cp]
            }

            /// Mutable tile row.
            #[inline]
            pub fn row_mut(&mut self, t: usize, n: usize) -> &mut [$elem] {
                let o = (t * self.n + n) * self.cp;
                &mut self.buf.as_mut_slice()[o..o + self.cp]
            }

            /// Raw mutable row pointer through a shared reference (parallel
            /// input transform; disjoint writes per static schedule).
            ///
            /// # Safety
            ///
            /// Callers must not create overlapping concurrent writes.
            #[inline]
            pub unsafe fn row_ptr_shared(&self, t: usize, n: usize) -> *mut $elem {
                debug_assert!(t < self.t && n < self.n);
                self.buf.as_ptr().add((t * self.n + n) * self.cp) as *mut $elem
            }

            /// The panel as rows of 32-bit words.
            pub(crate) fn words(&self) -> VWords<'_> {
                VWords {
                    base: self.buf.as_ptr() as *const u8,
                    dims: self.dims(),
                    row_bytes: self.cp * core::mem::size_of::<$elem>(),
                    _panel: PhantomData,
                }
            }
        }
    };
}

macro_rules! simple_u_panel {
    ($uname:ident, $elem:ty, $calign:expr) => {
        /// Transformed-filter panel (`[T] × [C_p] × [K_p]`, k-major rows).
        #[derive(Clone, Debug)]
        pub struct $uname {
            buf: AlignedBuf<$elem>,
            t: usize,
            c: usize,
            cp: usize,
            k: usize,
            kp: usize,
        }

        impl $uname {
            /// Allocate a zeroed panel.
            pub fn new(t: usize, c: usize, k: usize) -> Self {
                let cp = round_up(c, $calign);
                let kp = round_up(k, K_ALIGN);
                Self {
                    buf: AlignedBuf::zeroed(t * cp * kp),
                    t,
                    c,
                    cp,
                    k,
                    kp,
                }
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

            /// The K-major row for `(t, c)`.
            #[inline]
            pub fn row(&self, t: usize, c: usize) -> &[$elem] {
                debug_assert!(t < self.t && c < self.cp);
                let o = (t * self.cp + c) * self.kp;
                &self.buf.as_slice()[o..o + self.kp]
            }

            /// Mutable K-major row.
            #[inline]
            pub fn row_mut(&mut self, t: usize, c: usize) -> &mut [$elem] {
                debug_assert!(t < self.t && c < self.cp);
                let o = (t * self.cp + c) * self.kp;
                &mut self.buf.as_mut_slice()[o..o + self.kp]
            }

            /// The panel as word-rows: one channel row of `K_p` words each.
            pub(crate) fn words(&self) -> UWords<'_> {
                const { assert!(core::mem::size_of::<$elem>() == 4) };
                UWords {
                    base: self.buf.as_ptr() as *const i8,
                    dims: self.dims(),
                    t_bytes: self.cp * self.kp * 4,
                    zbar: None,
                }
            }
        }
    };
}

simple_v_panel!(VPanelF32, f32, 64);
simple_u_panel!(UPanelF32, f32, 64);
simple_v_panel!(VPanelI16, i16, 64);

/// INT16 transformed-filter panel for the up-casting baseline:
/// `[T] × [C_p/2] × [K_p] × [2]` — the `vpdpwssd` pair interleave (the
/// INT16 analogue of [`UPanel`]'s 4-byte interleave).
#[derive(Clone, Debug)]
pub struct UPanelI16 {
    buf: AlignedBuf<i16>,
    t: usize,
    c: usize,
    cp: usize,
    k: usize,
    kp: usize,
}

impl UPanelI16 {
    /// Allocate a zeroed panel.
    pub fn new(t: usize, c: usize, k: usize) -> Self {
        let cp = round_up(c, C_ALIGN);
        let kp = round_up(k, K_ALIGN);
        Self {
            buf: AlignedBuf::zeroed(t * (cp / 2) * kp * 2),
            t,
            c,
            cp,
            k,
            kp,
        }
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
        ((t * (self.cp / 2) + c / 2) * self.kp + k) * 2 + (c % 2)
    }

    /// Logical element accessor (`U[t][c][k]`).
    #[inline]
    pub fn get(&self, t: usize, c: usize, k: usize) -> i16 {
        self.buf.as_slice()[self.offset(t, c, k)]
    }

    /// Logical element setter.
    #[inline]
    pub fn set(&mut self, t: usize, c: usize, k: usize, v: i16) {
        let o = self.offset(t, c, k);
        self.buf.as_mut_slice()[o] = v;
    }

    /// The panel as word-rows (a channel pair of one `k` per word).
    pub(crate) fn words(&self) -> UWords<'_> {
        UWords {
            base: self.buf.as_ptr() as *const i8,
            dims: self.dims(),
            t_bytes: self.cp / 2 * self.kp * 4,
            zbar: None,
        }
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
        v.clear();
        assert_eq!(v.get(1, 3, 7), 0);
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
            unsafe { core::slice::from_raw_parts(p.add(u.c4_stride()), 1) };
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
        let mut z = ZPanel::new(4, 2, 64);
        let p = z.store_ptr(2, 1, 16);
        // SAFETY: in-bounds write of 16 lanes.
        unsafe {
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
        let mut v = VPanelF32::new(2, 3, 17);
        assert_eq!(v.dims(), (2, 3, 17, 64));
        v.row_mut(1, 2)[16] = 1.5;
        assert_eq!(v.row(1, 2)[16], 1.5);
        let mut u = UPanelF32::new(2, 17, 30);
        assert_eq!(u.dims(), (2, 17, 64, 30, 64));
        u.row_mut(0, 16)[29] = -2.0;
        assert_eq!(u.row(0, 16)[29], -2.0);
        let mut z = ZPanelF32::new(4, 2, 65);
        z.set(3, 1, 64, 7.0);
        assert_eq!(z.get(3, 1, 64), 7.0);
        assert_eq!(z.tile_block(1, 1)[3 * 64], 7.0);
    }

    #[test]
    fn i16_panels() {
        let mut v = VPanelI16::new(1, 2, 3);
        assert_eq!(v.dims(), (1, 2, 3, 64));
        v.row_mut(0, 1)[2] = -300;
        assert_eq!(v.row(0, 1)[2], -300);
        let u = UPanelI16::new(1, 3, 20);
        assert_eq!(u.dims(), (1, 3, 64, 20, 64));
    }
}
