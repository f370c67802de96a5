//! Thread-local, grow-only scratch arenas for the hot compute path.
//!
//! Every kernel that used to allocate a temporary `Vec<f32>` per call
//! (packed GEMM panels, im2col column matrices, conv gradient lowering
//! buffers) instead borrows a purpose-keyed buffer from the current
//! thread's arena and returns it on drop. Buffers only ever grow, so a
//! steady-state training round performs zero hot-loop allocations after
//! the first round warms each worker's arena.
//!
//! Arenas are generic over the [`Element`] type: `f32` for compute
//! buffers, [`crate::quant::F16`] / `i8` for quantized-transport staging
//! (one independent arena array per concrete element type, so mixed-type
//! checkouts of the same [`Purpose`] never alias).
//!
//! # Ownership rules (DESIGN.md §4b)
//!
//! - Buffers are **thread-local**: a [`ScratchBuf`] never crosses threads,
//!   so arenas need no locks and cannot introduce cross-thread
//!   nondeterminism.
//! - Each [`Purpose`] is a distinct slot; taking a buffer *removes* it
//!   from the arena, so nested same-purpose takes yield an independent
//!   (freshly grown) buffer instead of aliasing — correct, just unpooled.
//!   Kernels therefore keep purposes disjoint along any call chain.
//! - [`scratch_f32`] hands back **unspecified contents** (stale data from
//!   earlier uses on this thread). Callers must fully overwrite every
//!   element they later read — `im2col` and GEMM panel packing qualify.
//!   Accumulation targets (`+=` kernels) must use [`scratch_zeroed`].
//! - Determinism: buffer *contents* a kernel reads are always either
//!   freshly written or freshly zeroed, so results cannot depend on what
//!   previously ran on the thread; only capacity (a non-observable) is
//!   reused.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// What a scratch buffer is for. One arena slot per variant (per element
/// type).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Purpose {
    /// Packed GEMM `b`-panel (`matmul` cache blocking).
    PackedPanel = 0,
    /// im2col column matrix whose every element is overwritten
    /// (conv-transpose backward lowering).
    Im2col = 1,
    /// conv backward `grad_col` accumulator (zeroed: col2im accumulates).
    GradCol = 2,
    /// conv-transpose forward column accumulator (zeroed: col2im
    /// accumulates the result into the output image).
    ConvCol = 3,
    /// Per-coordinate sort column for `vecops::median_into` /
    /// `vecops::trimmed_mean_into` (one client value per slot).
    SortColumn = 4,
    /// Coordinate-wise mean staging for `vecops::std_dev_into`.
    CoordMean = 5,
    /// Per-client squared-distance row for `aggregation` Krum scoring.
    KrumRow = 6,
    /// Bulyan stage-2 column workspace (gather + sort + closeness).
    BulyanCols = 7,
    /// Pairwise distance/similarity tile for the blocked O(n²) kernels
    /// (`vecops::sq_distance_tile_into` and `vecops::pairwise_tile_into`
    /// callers).
    DistTile = 8,
    /// Quantized-transport encode staging (`quant::roundtrip_in_place`).
    QuantEncode = 9,
}

/// Number of [`Purpose`] variants — the arena array length.
#[doc(hidden)]
pub const PURPOSES: usize = 10;

/// An element type that scratch arenas can pool.
///
/// Implementations exist for `f32`, `i8`, and [`crate::quant::F16`]; each
/// concrete type owns an independent `thread_local!` arena array (Rust has
/// no generic statics), reached through [`Element::with_arena`].
pub trait Element: Copy + Send + 'static {
    /// The value [`scratch_zeroed_of`] fills with (the additive identity).
    const ZERO: Self;

    /// Widens this element to `f32` — the identity for `f32` itself, so
    /// the generic vecops entry kernels monomorphize to exactly the
    /// historical f32 float-op sequence (bitwise-identity guarantee).
    fn to_f32(self) -> f32;

    /// Runs `f` against this type's thread-local arena array. Returns
    /// `None` only during thread teardown, when the arena is gone.
    #[doc(hidden)]
    fn with_arena<R>(f: impl FnOnce(&RefCell<[Vec<Self>; PURPOSES]>) -> R) -> Option<R>;
}

/// Implements [`Element`] for a concrete type by declaring its private
/// per-thread arena array. `$to_f32` is the widening closure.
macro_rules! impl_element {
    ($t:ty, $zero:expr, $to_f32:expr, $tls:ident) => {
        ::std::thread_local! {
            static $tls: ::std::cell::RefCell<[::std::vec::Vec<$t>; $crate::scratch::PURPOSES]> =
                ::std::cell::RefCell::new(::std::default::Default::default());
        }
        impl $crate::scratch::Element for $t {
            const ZERO: Self = $zero;
            #[inline(always)]
            fn to_f32(self) -> f32 {
                ($to_f32)(self)
            }
            fn with_arena<R>(
                f: impl FnOnce(
                    &::std::cell::RefCell<[::std::vec::Vec<Self>; $crate::scratch::PURPOSES]>,
                ) -> R,
            ) -> ::std::option::Option<R> {
                $tls.try_with(f).ok()
            }
        }
    };
}
pub(crate) use impl_element;

impl_element!(f32, 0.0, |v: f32| v, ARENA_F32);
impl_element!(i8, 0, |v: i8| f32::from(v), ARENA_I8);

fn take<T: Element>(purpose: Purpose) -> Vec<T> {
    T::with_arena(|a| std::mem::take(&mut a.borrow_mut()[purpose as usize])).unwrap_or_default()
}

/// A scratch buffer checked out of the current thread's arena. Derefs to
/// `[T]` of exactly the requested length; the backing allocation is
/// returned to the arena on drop.
#[derive(Debug)]
pub struct ScratchBuf<T: Element = f32> {
    purpose: Purpose,
    buf: Vec<T>,
    len: usize,
}

impl<T: Element> Deref for ScratchBuf<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.buf[..self.len]
    }
}

impl<T: Element> DerefMut for ScratchBuf<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf[..self.len]
    }
}

impl<T: Element> Drop for ScratchBuf<T> {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        // `with_arena` is `None` during thread teardown (arena gone); a
        // guard dropped then just frees its buffer instead of panicking.
        let _ = T::with_arena(|a| {
            let slot = &mut a.borrow_mut()[self.purpose as usize];
            // Keep whichever allocation is larger (grow-only pooling;
            // also resolves nested same-purpose guards racing to return).
            if buf.capacity() > slot.capacity() {
                *slot = buf;
            }
        });
    }
}

/// Borrows a `len`-element scratch buffer with **unspecified contents**.
/// Only for uses that fully overwrite every element they later read.
pub fn scratch_of<T: Element>(purpose: Purpose, len: usize) -> ScratchBuf<T> {
    let mut buf = take::<T>(purpose);
    if buf.len() < len {
        // fabcheck::allow(alloc_on_hot_path): grow-only arena fill — zero
        // steady-state allocations, witnessed by tensor/tests/alloc_guard.rs.
        buf.resize(len, T::ZERO);
    }
    ScratchBuf { purpose, buf, len }
}

/// Borrows a `len`-element scratch buffer guaranteed to be all
/// [`Element::ZERO`]. Required for accumulation targets (`+=` kernels).
pub fn scratch_zeroed_of<T: Element>(purpose: Purpose, len: usize) -> ScratchBuf<T> {
    let mut buf = take::<T>(purpose);
    buf.clear();
    // fabcheck::allow(alloc_on_hot_path): grow-only arena fill — the clear
    // keeps capacity, so a warm arena re-zeroes without allocating.
    buf.resize(len, T::ZERO);
    ScratchBuf { purpose, buf, len }
}

/// Borrows a `len`-element `f32` scratch buffer with **unspecified
/// contents**. Only for uses that fully overwrite every element they later
/// read.
pub fn scratch_f32(purpose: Purpose, len: usize) -> ScratchBuf {
    scratch_of::<f32>(purpose, len)
}

/// Borrows a `len`-element `f32` scratch buffer guaranteed to be all
/// zeros. Required for accumulation targets (`+=` kernels).
pub fn scratch_zeroed(purpose: Purpose, len: usize) -> ScratchBuf {
    scratch_zeroed_of::<f32>(purpose, len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f32_capacity(purpose: Purpose) -> usize {
        f32::with_arena(|a| a.borrow()[purpose as usize].capacity()).unwrap()
    }

    #[test]
    fn zeroed_is_zero_after_dirty_use() {
        {
            let mut s = scratch_zeroed(Purpose::GradCol, 128);
            for v in s.iter_mut() {
                *v = 7.5;
            }
        }
        let s = scratch_zeroed(Purpose::GradCol, 64);
        assert!(s.iter().all(|&v| v == 0.0));
        assert_eq!(s.len(), 64);
    }

    #[test]
    fn allocation_is_reused_across_checkouts() {
        let p1 = {
            let s = scratch_f32(Purpose::PackedPanel, 256);
            s.as_ptr() as usize
        };
        let p2 = {
            let s = scratch_f32(Purpose::PackedPanel, 100);
            s.as_ptr() as usize
        };
        assert_eq!(p1, p2, "smaller request must reuse the same allocation");
    }

    #[test]
    fn arena_grows_monotonically() {
        {
            let _ = scratch_f32(Purpose::Im2col, 10);
        }
        let cap_small = f32_capacity(Purpose::Im2col);
        {
            let _ = scratch_f32(Purpose::Im2col, 10_000);
        }
        let cap_big = f32_capacity(Purpose::Im2col);
        assert!(cap_small >= 10 && cap_big >= 10_000);
        {
            let _ = scratch_f32(Purpose::Im2col, 5);
        }
        let cap_after = f32_capacity(Purpose::Im2col);
        assert!(cap_after >= cap_big, "arena must never shrink");
    }

    #[test]
    fn distinct_purposes_are_independent() {
        let mut a = scratch_zeroed(Purpose::GradCol, 16);
        let mut b = scratch_zeroed(Purpose::ConvCol, 16);
        a[0] = 1.0;
        b[0] = 2.0;
        assert_eq!(a[0], 1.0);
        assert_eq!(b[0], 2.0);
    }

    #[test]
    fn nested_same_purpose_takes_are_disjoint() {
        let mut outer = scratch_zeroed(Purpose::Im2col, 32);
        outer[0] = 3.0;
        {
            let inner = scratch_zeroed(Purpose::Im2col, 32);
            assert_eq!(inner[0], 0.0);
            assert_ne!(outer.as_ptr(), inner.as_ptr());
        }
        assert_eq!(outer[0], 3.0);
    }

    #[test]
    fn typed_arenas_are_independent_per_element_type() {
        let mut qf = scratch_zeroed_of::<f32>(Purpose::QuantEncode, 8);
        let mut qi = scratch_zeroed_of::<i8>(Purpose::QuantEncode, 8);
        qf[0] = 1.5;
        qi[0] = -7;
        assert_eq!(qf[0], 1.5);
        assert_eq!(qi[0], -7);
        drop(qi);
        let qi2 = scratch_zeroed_of::<i8>(Purpose::QuantEncode, 4);
        assert!(qi2.iter().all(|&v| v == 0));
    }
}
