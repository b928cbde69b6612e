//! The customised blocked activation layout of paper Table 1.
//!
//! Activations are stored as `B × [C/φσ] × H × W × (φσ)` with the `φσ = 64`
//! channel block innermost. Channels are padded up to a multiple of 64 with
//! zeros. Consequences (paper §4.1):
//!
//! * every per-pixel channel group is 256 consecutive bytes of `f32`
//!   (4 aligned 512-bit registers), enabling fully vectorised transforms that
//!   operate lane-wise across 64 channels;
//! * the Winograd input transform writes exactly one 64-byte cache line of
//!   quantised `u8` per (tile-position, channel-block), matching the paper's
//!   non-temporal cache-line stores;
//! * adjacent computations touch a small contiguous region, reducing cache
//!   and TLB misses.

use crate::align::AlignedBuf;
use crate::tensor4::Tensor4;
use crate::{round_up, LANES};

/// Backing storage of a [`BlockedImage`]: either an owned allocation or a
/// borrowed window of a caller-managed arena (the graph engine's
/// liveness-planned activation arena — see `lowino-nn`).
#[derive(Debug)]
enum Storage {
    /// The image owns its buffer (the default; every public constructor).
    Owned(AlignedBuf<f32>),
    /// A raw window into an external arena. The creator
    /// ([`BlockedImage::from_arena_ptr`]) guarantees validity, alignment
    /// and exclusivity for the image's lifetime.
    Arena {
        ptr: *mut f32,
        len: usize,
    },
}

impl Storage {
    #[inline]
    fn as_slice(&self) -> &[f32] {
        match self {
            Storage::Owned(buf) => buf.as_slice(),
            // SAFETY: `from_arena_ptr`'s contract — valid for `len` reads,
            // initialised, exclusive to this image.
            Storage::Arena { ptr, len } => unsafe { core::slice::from_raw_parts(*ptr, *len) },
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [f32] {
        match self {
            Storage::Owned(buf) => buf.as_mut_slice(),
            // SAFETY: as above, plus `&mut self` makes the access unique.
            Storage::Arena { ptr, len } => unsafe {
                core::slice::from_raw_parts_mut(*ptr, *len)
            },
        }
    }

    #[inline]
    fn as_ptr(&self) -> *const f32 {
        match self {
            Storage::Owned(buf) => buf.as_ptr(),
            Storage::Arena { ptr, .. } => *ptr,
        }
    }
}

/// Pixels per chunk of [`BlockedImage::fill_from_nchw`]: 64 pixels of 64
/// lanes are 16 KiB of destination, resident in L1 while they are filled.
const FILL_PIXELS: usize = 64;

/// A batch of images in the blocked `B × [C/64] × H × W × 64` `f32` layout.
#[derive(Debug)]
pub struct BlockedImage {
    buf: Storage,
    batch: usize,
    /// Logical (unpadded) channel count.
    channels: usize,
    /// Channel blocks: `ceil(channels / 64)`.
    c_blocks: usize,
    h: usize,
    w: usize,
}

// SAFETY: the owned variant is Send + Sync via `AlignedBuf`; the arena
// variant's window is exclusive to this image by `from_arena_ptr`'s
// contract, so sharing the image shares an exclusively-owned region —
// exactly the `AlignedBuf` situation with the allocation held elsewhere.
unsafe impl Send for BlockedImage {}
unsafe impl Sync for BlockedImage {}

/// Deep copy: cloning an arena-backed image detaches it into an owned
/// buffer (clones never alias the arena).
impl Clone for BlockedImage {
    fn clone(&self) -> Self {
        Self {
            buf: Storage::Owned(AlignedBuf::from_slice(self.buf.as_slice())),
            batch: self.batch,
            channels: self.channels,
            c_blocks: self.c_blocks,
            h: self.h,
            w: self.w,
        }
    }
}

impl BlockedImage {
    /// Allocate a zero-filled blocked image.
    pub fn zeros(batch: usize, channels: usize, h: usize, w: usize) -> Self {
        let c_blocks = round_up(channels, LANES) / LANES;
        Self {
            buf: Storage::Owned(AlignedBuf::zeroed(batch * c_blocks * h * w * LANES)),
            batch,
            channels,
            c_blocks,
            h,
            w,
        }
    }

    /// Number of `f32` elements a blocked image of this shape occupies
    /// (the planner's slot-size unit): `batch · ⌈C/64⌉ · H · W · 64`.
    pub fn storage_len(batch: usize, channels: usize, h: usize, w: usize) -> usize {
        let c_blocks = round_up(channels, LANES) / LANES;
        batch * c_blocks * h * w * LANES
    }

    /// Wrap a window of a caller-managed arena as a blocked image —
    /// **no allocation**, the graph engine's activation-slot constructor.
    ///
    /// # Safety
    ///
    /// * `ptr` must be valid for reads and writes of
    ///   [`Self::storage_len`]`(batch, channels, h, w)` `f32`s for the
    ///   whole lifetime of the returned image, 64-byte aligned, and
    ///   initialised (e.g. a window of a zeroed [`AlignedBuf`]);
    /// * the window must not be accessed through any other pointer while
    ///   the image (or anything borrowed from it) is alive, except via the
    ///   image's own `unsafe` shared-writer escapes
    ///   ([`Self::lanes_ptr_shared`]) under their documented schedules;
    /// * channel-padding lanes must be zero (or be zeroed by the first
    ///   writer) — every consumer assumes padding reads as `0.0`.
    pub unsafe fn from_arena_ptr(
        ptr: *mut f32,
        batch: usize,
        channels: usize,
        h: usize,
        w: usize,
    ) -> Self {
        let c_blocks = round_up(channels, LANES) / LANES;
        debug_assert!(ptr.addr().is_multiple_of(crate::CACHE_LINE));
        Self {
            buf: Storage::Arena {
                ptr,
                len: batch * c_blocks * h * w * LANES,
            },
            batch,
            channels,
            c_blocks,
            h,
            w,
        }
    }

    /// Whether this image borrows an external arena window (planner
    /// introspection for tests).
    pub fn is_arena_backed(&self) -> bool {
        matches!(self.buf, Storage::Arena { .. })
    }

    /// Pack an NCHW tensor into the blocked layout (padding channels with 0).
    pub fn from_nchw(t: &Tensor4) -> Self {
        let (n, c, h, w) = t.dims();
        let mut img = Self::zeros(n, c, h, w);
        img.fill_from_nchw(t);
        img
    }

    /// Overwrite the whole image with an NCHW tensor of the same dims,
    /// channel padding zeroed — every lane is written, so an arena window
    /// holding a dead tensor's bits loads cleanly.
    ///
    /// One pass over the image, 64 pixels at a time: the chunk's padding
    /// lanes are zeroed, then each channel's contiguous run of the NCHW
    /// plane is written at a 64-lane stride. The chunk's destination
    /// (16 KiB) stays in L1 until every one of its lanes is written, and
    /// each channel plane is read front to back.
    ///
    /// # Panics
    ///
    /// Panics when `t`'s dims are not the image's.
    pub fn fill_from_nchw(&mut self, t: &Tensor4) {
        assert_eq!(t.dims(), self.dims(), "NCHW tensor dims mismatch");
        let (channels, c_blocks, plane) = (self.channels, self.c_blocks, self.h * self.w);
        if plane == 0 {
            return;
        }
        let src = t.data();
        for (bc, block) in self.buf.as_mut_slice().chunks_exact_mut(plane * LANES).enumerate() {
            let (b, cb) = (bc / c_blocks, bc % c_blocks);
            let lanes = (channels - cb * LANES).min(LANES);
            let planes = &src[(b * channels + cb * LANES) * plane..];
            for (i, chunk) in block.chunks_mut(FILL_PIXELS * LANES).enumerate() {
                if lanes < LANES {
                    chunk.fill(0.0);
                }
                let p0 = i * FILL_PIXELS;
                for l in 0..lanes {
                    let run = &planes[l * plane + p0..][..chunk.len() / LANES];
                    for (px, &v) in chunk.chunks_exact_mut(LANES).zip(run) {
                        px[l] = v;
                    }
                }
            }
        }
    }

    /// Unpack back to an NCHW tensor (dropping channel padding).
    pub fn to_nchw(&self) -> Tensor4 {
        let mut t = Tensor4::zeros(self.batch, self.channels, self.h, self.w);
        for b in 0..self.batch {
            for ch in 0..self.channels {
                let (cb, cl) = (ch / LANES, ch % LANES);
                for y in 0..self.h {
                    for x in 0..self.w {
                        *t.at_mut(b, ch, y, x) = self.buf.as_slice()[self.offset(b, cb, y, x) + cl];
                    }
                }
            }
        }
        t
    }

    /// (batch, logical channels, H, W).
    #[inline]
    pub fn dims(&self) -> (usize, usize, usize, usize) {
        (self.batch, self.channels, self.h, self.w)
    }

    /// Number of 64-channel blocks (channels padded).
    #[inline]
    pub fn c_blocks(&self) -> usize {
        self.c_blocks
    }

    /// Flat offset of the 64-lane group at `(b, c_block, y, x)`.
    #[inline]
    pub fn offset(&self, b: usize, c_block: usize, y: usize, x: usize) -> usize {
        debug_assert!(b < self.batch && c_block < self.c_blocks && y < self.h && x < self.w);
        (((b * self.c_blocks + c_block) * self.h + y) * self.w + x) * LANES
    }

    /// The 64 channel lanes at a pixel.
    #[inline]
    pub fn lanes(&self, b: usize, c_block: usize, y: usize, x: usize) -> &[f32] {
        let off = self.offset(b, c_block, y, x);
        &self.buf.as_slice()[off..off + LANES]
    }

    /// Mutable 64 channel lanes at a pixel.
    #[inline]
    pub fn lanes_mut(&mut self, b: usize, c_block: usize, y: usize, x: usize) -> &mut [f32] {
        let off = self.offset(b, c_block, y, x);
        &mut self.buf.as_mut_slice()[off..off + LANES]
    }

    /// Copy the 64 lanes at `(b, c_block, y, x)` into `dst`, reading zeros
    /// when `(y, x)` falls outside the image (zero-padding halo).
    #[inline]
    pub fn read_lanes_padded(&self, b: usize, c_block: usize, y: isize, x: isize, dst: &mut [f32]) {
        debug_assert_eq!(dst.len(), LANES);
        if y < 0 || x < 0 || y as usize >= self.h || x as usize >= self.w {
            dst.fill(0.0);
        } else {
            dst.copy_from_slice(self.lanes(b, c_block, y as usize, x as usize));
        }
    }

    /// Whole buffer (blocked order).
    #[inline]
    pub fn data(&self) -> &[f32] {
        self.buf.as_slice()
    }

    /// Mutable whole buffer (blocked order).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.buf.as_mut_slice()
    }

    /// Largest absolute value over the logical (unpadded) channels.
    pub fn max_abs(&self) -> f32 {
        // Padding lanes are always zero, so scanning everything is fine.
        self.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Raw mutable pointer to the 64-lane group at `(b, c_block, y, x)`
    /// through a shared reference — used by parallel writers whose static
    /// schedule guarantees disjoint pixel regions per thread.
    ///
    /// # Safety
    ///
    /// Callers must not create overlapping concurrent writes.
    #[inline]
    pub unsafe fn lanes_ptr_shared(&self, b: usize, c_block: usize, y: usize, x: usize) -> *mut f32 {
        let off = self.offset(b, c_block, y, x);
        self.buf.as_ptr().add(off) as *mut f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize, c: usize, h: usize, w: usize) -> Tensor4 {
        Tensor4::from_fn(n, c, h, w, |b, ch, y, x| {
            (b * 7919 + ch * 131 + y * 17 + x) as f32 * 0.25 - 3.0
        })
    }

    #[test]
    fn round_trip_exact_block() {
        let t = sample(2, 64, 5, 6);
        let img = BlockedImage::from_nchw(&t);
        assert_eq!(img.c_blocks(), 1);
        assert_eq!(img.to_nchw().max_abs_diff(&t), 0.0);
    }

    #[test]
    fn round_trip_padded_channels() {
        for c in [1, 3, 63, 65, 100, 130] {
            let t = sample(1, c, 3, 4);
            let img = BlockedImage::from_nchw(&t);
            assert_eq!(img.c_blocks(), c.div_ceil(64), "c={c}");
            assert_eq!(img.to_nchw().max_abs_diff(&t), 0.0, "c={c}");
        }
    }

    #[test]
    fn channel_padding_is_zero() {
        let t = sample(1, 3, 2, 2);
        let img = BlockedImage::from_nchw(&t);
        let lanes = img.lanes(0, 0, 0, 0);
        for l in 3..64 {
            assert_eq!(lanes[l], 0.0);
        }
    }

    #[test]
    fn lanes_are_contiguous_per_pixel() {
        let t = sample(1, 128, 2, 2);
        let img = BlockedImage::from_nchw(&t);
        // Channel 64..128 live in block 1.
        let lanes = img.lanes(0, 1, 1, 1);
        for l in 0..64 {
            assert_eq!(lanes[l], t.at(0, 64 + l, 1, 1));
        }
    }

    #[test]
    fn padded_reads_return_zero_outside() {
        let t = sample(1, 4, 2, 2);
        let img = BlockedImage::from_nchw(&t);
        let mut dst = [1.0f32; 64];
        img.read_lanes_padded(0, 0, -1, 0, &mut dst);
        assert!(dst.iter().all(|&v| v == 0.0));
        img.read_lanes_padded(0, 0, 0, 2, &mut dst);
        assert!(dst.iter().all(|&v| v == 0.0));
        img.read_lanes_padded(0, 0, 1, 1, &mut dst);
        assert_eq!(dst[0], t.at(0, 0, 1, 1));
    }

    #[test]
    fn offsets_are_64_byte_like_strides() {
        let img = BlockedImage::zeros(1, 64, 4, 4);
        assert_eq!(img.offset(0, 0, 0, 1) - img.offset(0, 0, 0, 0), 64);
        assert_eq!(img.offset(0, 0, 1, 0) - img.offset(0, 0, 0, 0), 4 * 64);
    }

    #[test]
    fn fill_overwrites_every_lane_and_matches_the_element_order() {
        // Planes longer and shorter than one fill chunk, channel counts on
        // and off the 64-lane grid, batched.
        for (n, c, h, w) in [(2, 3, 3, 5), (1, 64, 9, 9), (2, 70, 11, 7), (1, 130, 1, 1), (1, 5, 0, 3)] {
            let t = sample(n, c, h, w);
            let mut img = BlockedImage::zeros(n, c, h, w);
            img.data_mut().fill(f32::NAN);
            img.fill_from_nchw(&t);
            for b in 0..n {
                for cb in 0..img.c_blocks() {
                    for y in 0..h {
                        for x in 0..w {
                            for (l, &v) in img.lanes(b, cb, y, x).iter().enumerate() {
                                let ch = cb * LANES + l;
                                let want = if ch < c { t.at(b, ch, y, x) } else { 0.0 };
                                assert_eq!(v.to_bits(), want.to_bits(), "{n}x{c}x{h}x{w} at {b},{ch},{y},{x}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "dims mismatch")]
    fn fill_rejects_other_dims() {
        BlockedImage::zeros(1, 3, 4, 4).fill_from_nchw(&sample(1, 3, 4, 5));
    }

    #[test]
    fn arena_backed_image_round_trips_and_clones_deeply() {
        let t = sample(1, 3, 2, 2);
        let owned = BlockedImage::from_nchw(&t);
        let len = BlockedImage::storage_len(1, 3, 2, 2);
        assert_eq!(owned.data().len(), len);

        let mut arena = crate::AlignedBuf::<f32>::zeroed(len);
        // SAFETY: window covers exactly one image and is used only through
        // `img` below.
        let mut img = unsafe { BlockedImage::from_arena_ptr(arena.as_mut_ptr(), 1, 3, 2, 2) };
        assert!(img.is_arena_backed());
        img.data_mut().copy_from_slice(owned.data());
        assert_eq!(img.to_nchw().data(), t.data());

        // Cloning detaches from the arena: mutating the clone must not be
        // visible through the arena window.
        let mut clone = img.clone();
        assert!(!clone.is_arena_backed());
        clone.data_mut()[0] += 5.0;
        assert_eq!(img.data()[0], owned.data()[0]);
    }
}
