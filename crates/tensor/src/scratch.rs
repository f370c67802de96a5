//! Thread-local, grow-only scratch arenas for the hot compute path.
//!
//! Every kernel that used to allocate a temporary `Vec<f32>` per call
//! (im2col column matrices, conv gradient lowering buffers, aggregation
//! columns) instead borrows a purpose-keyed buffer from the current
//! thread's arena and returns it on drop. Buffers only ever grow, so a
//! steady-state training round performs zero hot-loop allocations after
//! the first round warms each worker's arena.
//!
//! Every buffer is `f32`: the parameter vectors that training, ZKA
//! synthesis and robust aggregation work on are all `f32`, so one
//! `thread_local!` arena array (one slot per [`Purpose`]) serves them all.
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
//!   element they later read — `im2col` qualifies.
//!   Accumulation targets (`+=` kernels) must use [`scratch_zeroed`].
//! - Determinism: buffer *contents* a kernel reads are always either
//!   freshly written or freshly zeroed, so results cannot depend on what
//!   previously ran on the thread; only capacity (a non-observable) is
//!   reused.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// What a scratch buffer is for. One arena slot per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Purpose {
    /// im2col column matrix whose every element is overwritten
    /// (conv-transpose backward lowering).
    Im2col = 0,
    /// conv backward `grad_col` accumulator (zeroed: col2im accumulates).
    GradCol = 1,
    /// conv-transpose forward column accumulator (zeroed: col2im
    /// accumulates the result into the output image).
    ConvCol = 2,
    /// Per-coordinate sort column for `vecops::median_into` /
    /// `vecops::trimmed_mean_into` (one client value per slot).
    SortColumn = 3,
    /// Coordinate-wise mean staging for `vecops::std_dev_into`.
    CoordMean = 4,
    /// Per-client squared-distance row for `aggregation` Krum scoring.
    KrumRow = 5,
    /// Bulyan stage-2 column workspace (gather + sort + closeness).
    BulyanCols = 6,
    /// Pairwise distance/similarity tile for the blocked O(n²) kernels
    /// (`vecops::sq_distance_tile_into` and `vecops::pairwise_tile_into`
    /// callers).
    DistTile = 7,
}

/// Number of [`Purpose`] variants — the arena array length.
const PURPOSES: usize = 8;

std::thread_local! {
    static ARENA: RefCell<[Vec<f32>; PURPOSES]> = RefCell::new(Default::default());
}

fn take(purpose: Purpose) -> Vec<f32> {
    ARENA
        .try_with(|a| std::mem::take(&mut a.borrow_mut()[purpose as usize]))
        .unwrap_or_default()
}

/// A scratch buffer checked out of the current thread's arena. Derefs to
/// `[f32]` of exactly the requested length; the backing allocation is
/// returned to the arena on drop.
#[derive(Debug)]
pub struct ScratchBuf {
    purpose: Purpose,
    buf: Vec<f32>,
    len: usize,
}

impl Deref for ScratchBuf {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.buf[..self.len]
    }
}

impl DerefMut for ScratchBuf {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf[..self.len]
    }
}

impl Drop for ScratchBuf {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        // `try_with` fails during thread teardown (arena gone); a guard
        // dropped then just frees its buffer instead of panicking.
        let _ = ARENA.try_with(|a| {
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
pub fn scratch_f32(purpose: Purpose, len: usize) -> ScratchBuf {
    let mut buf = take(purpose);
    if buf.len() < len {
        // fabcheck::allow(alloc_on_hot_path): grow-only arena fill — zero
        // steady-state allocations, witnessed by tensor/tests/alloc_guard.rs.
        buf.resize(len, 0.0);
    }
    ScratchBuf { purpose, buf, len }
}

/// Borrows a `len`-element scratch buffer guaranteed to be all zeros.
/// Required for accumulation targets (`+=` kernels).
pub fn scratch_zeroed(purpose: Purpose, len: usize) -> ScratchBuf {
    let mut buf = take(purpose);
    buf.clear();
    // fabcheck::allow(alloc_on_hot_path): grow-only arena fill — the clear
    // keeps capacity, so a warm arena re-zeroes without allocating.
    buf.resize(len, 0.0);
    ScratchBuf { purpose, buf, len }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f32_capacity(purpose: Purpose) -> usize {
        ARENA.with(|a| a.borrow()[purpose as usize].capacity())
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
            let s = scratch_f32(Purpose::Im2col, 256);
            s.as_ptr() as usize
        };
        let p2 = {
            let s = scratch_f32(Purpose::Im2col, 100);
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
}
