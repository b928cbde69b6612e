//! 64-byte-aligned heap buffers.
//!
//! Every array that the LoWino kernels touch is allocated through
//! [`AlignedBuf`], which guarantees [`crate::CACHE_LINE`]-byte alignment and a
//! length that is a multiple of the element count per cache line. This is the
//! prerequisite for the aligned 512-bit loads/stores and the non-temporal
//! cache-line stores of paper §4.2.1.

use core::fmt;
use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};

use crate::CACHE_LINE;

/// Sealed marker for plain-old-data element types usable in [`AlignedBuf`].
///
/// # Safety
///
/// Implementors must be `Copy`, have no padding, no invalid bit patterns and
/// be valid when zero-initialised.
pub unsafe trait Pod: Copy + Default + Send + Sync + 'static {}

unsafe impl Pod for u8 {}
unsafe impl Pod for i8 {}
unsafe impl Pod for i16 {}
unsafe impl Pod for u16 {}
unsafe impl Pod for i32 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for f32 {}
unsafe impl Pod for i64 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for f64 {}

/// A fixed-size, zero-initialised, 64-byte-aligned heap buffer of POD
/// elements.
///
/// Unlike `Vec<T>`, the alignment is guaranteed regardless of `T`, and the
/// buffer cannot grow (kernel workspaces are sized once by the planner and
/// then reused, per the "reusing collections" idiom).
pub struct AlignedBuf<T: Pod> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: AlignedBuf owns its allocation exclusively; T: Send + Sync.
unsafe impl<T: Pod> Send for AlignedBuf<T> {}
unsafe impl<T: Pod> Sync for AlignedBuf<T> {}

/// An empty buffer (no allocation) — the start state of grow-on-demand
/// scratch slots.
impl<T: Pod> Default for AlignedBuf<T> {
    fn default() -> Self {
        Self::zeroed(0)
    }
}

impl<T: Pod> AlignedBuf<T> {
    /// Allocate a zero-filled buffer of `len` elements, 64-byte aligned.
    ///
    /// A zero-length buffer performs no allocation.
    ///
    /// # Panics
    ///
    /// Panics if the byte size overflows `isize` (allocation-size limit).
    pub fn zeroed(len: usize) -> Self {
        if len == 0 {
            return Self {
                ptr: core::ptr::NonNull::dangling().as_ptr(),
                len: 0,
            };
        }
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size (len > 0, size_of::<T>() > 0 for
        // all Pod impls) and valid alignment.
        let ptr = unsafe { alloc_zeroed(layout) } as *mut T;
        if ptr.is_null() {
            handle_alloc_error(layout);
        }
        Self { ptr, len }
    }

    /// Allocate and fill from a slice.
    pub fn from_slice(src: &[T]) -> Self {
        let mut buf = Self::zeroed(src.len());
        buf.as_mut_slice().copy_from_slice(src);
        buf
    }

    fn layout(len: usize) -> Layout {
        let bytes = len
            .checked_mul(core::mem::size_of::<T>())
            .expect("AlignedBuf size overflow");
        Layout::from_size_align(bytes, CACHE_LINE.max(core::mem::align_of::<T>()))
            .expect("invalid AlignedBuf layout")
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Immutable view of the whole buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: ptr is valid for len elements (or dangling with len == 0,
        // which is allowed for zero-length slices), properly aligned, and the
        // contents are always initialised (zeroed at allocation).
        unsafe { core::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Mutable view of the whole buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: as above, plus we hold &mut self so the access is unique.
        unsafe { core::slice::from_raw_parts_mut(self.ptr, self.len) }
    }

    /// Raw const pointer to the first element (64-byte aligned).
    #[inline]
    pub fn as_ptr(&self) -> *const T {
        self.ptr
    }

    /// Raw mutable pointer to the first element (64-byte aligned).
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut T {
        self.ptr
    }

    /// Overwrite every element with zero.
    pub fn zero_fill(&mut self) {
        // SAFETY: the buffer is valid for `len` elements and all Pod types
        // are valid all-zeroes.
        unsafe { core::ptr::write_bytes(self.ptr, 0, self.len) };
    }

    /// Overwrite every element with `value`.
    pub fn fill(&mut self, value: T) {
        self.as_mut_slice().fill(value);
    }
}

/// View a slice of one plain-old-data type as another (a byte buffer as
/// `i16` or `f32` lanes, an `i32` one as `f32`).
///
/// # Panics
///
/// Panics if `src` is not aligned for `B` or its byte length is not a
/// multiple of `B`'s size.
pub fn cast_slice_mut<A: Pod, B: Pod>(src: &mut [A]) -> &mut [B] {
    let bytes = core::mem::size_of_val(src);
    assert!(src.as_ptr().cast::<B>().is_aligned(), "misaligned cast");
    assert!(bytes.is_multiple_of(core::mem::size_of::<B>()), "ragged cast");
    // SAFETY: same allocation and byte length, aligned for `B` (asserted),
    // and every bit pattern is a valid `B` (the `Pod` contract); the borrow
    // of `src` carries over.
    unsafe { core::slice::from_raw_parts_mut(src.as_mut_ptr().cast::<B>(), bytes / core::mem::size_of::<B>()) }
}

impl<T: Pod> Drop for AlignedBuf<T> {
    fn drop(&mut self) {
        if self.len != 0 {
            // SAFETY: ptr was allocated in `zeroed` with exactly this layout.
            unsafe { dealloc(self.ptr as *mut u8, Self::layout(self.len)) };
        }
    }
}

impl<T: Pod> Clone for AlignedBuf<T> {
    fn clone(&self) -> Self {
        Self::from_slice(self.as_slice())
    }
}

impl<T: Pod + fmt::Debug> fmt::Debug for AlignedBuf<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AlignedBuf(len={})", self.len)
    }
}

impl<T: Pod> core::ops::Index<usize> for AlignedBuf<T> {
    type Output = T;
    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.as_slice()[i]
    }
}

impl<T: Pod> core::ops::IndexMut<usize> for AlignedBuf<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.as_mut_slice()[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_is_64_bytes() {
        for len in [1usize, 3, 64, 65, 1000] {
            let b = AlignedBuf::<f32>::zeroed(len);
            assert_eq!(b.as_ptr() as usize % CACHE_LINE, 0, "len={len}");
            let b = AlignedBuf::<u8>::zeroed(len);
            assert_eq!(b.as_ptr() as usize % CACHE_LINE, 0, "len={len}");
            let b = AlignedBuf::<i32>::zeroed(len);
            assert_eq!(b.as_ptr() as usize % CACHE_LINE, 0, "len={len}");
        }
    }

    #[test]
    fn zeroed_contents() {
        let b = AlignedBuf::<i32>::zeroed(129);
        assert!(b.as_slice().iter().all(|&x| x == 0));
        assert_eq!(b.len(), 129);
        assert!(!b.is_empty());
    }

    #[test]
    fn zero_length_buffer() {
        let b = AlignedBuf::<f32>::zeroed(0);
        assert!(b.is_empty());
        assert_eq!(b.as_slice(), &[] as &[f32]);
    }

    #[test]
    fn from_slice_round_trip() {
        let data: Vec<i16> = (0..100).map(|i| i as i16 - 50).collect();
        let b = AlignedBuf::from_slice(&data);
        assert_eq!(b.as_slice(), data.as_slice());
    }

    #[test]
    fn clone_is_deep() {
        let mut a = AlignedBuf::<u8>::zeroed(16);
        a.fill(7);
        let b = a.clone();
        a.fill(9);
        assert!(b.as_slice().iter().all(|&x| x == 7));
        assert!(a.as_slice().iter().all(|&x| x == 9));
    }

    #[test]
    fn fill_and_zero_fill() {
        let mut b = AlignedBuf::<f32>::zeroed(10);
        b.fill(1.5);
        assert!(b.as_slice().iter().all(|&x| x == 1.5));
        b.zero_fill();
        assert!(b.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn index_access() {
        let mut b = AlignedBuf::<i32>::zeroed(4);
        b[2] = 42;
        assert_eq!(b[2], 42);
        assert_eq!(b[0], 0);
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AlignedBuf<f32>>();
        assert_send_sync::<AlignedBuf<i8>>();
    }
}
