//! Deliberately bad fixture for the unsafe rule's ISA check: a free
//! function calls an avx512f-gated kernel without proving the ISA (it is
//! neither `#[target_feature]` itself nor a backend `impl` method), so
//! executing it on a host without AVX-512 would be undefined behavior.
//! Never compiled — only scanned.

use super::CpuBackend;

#[target_feature(enable = "avx512f")]
fn wide_dot(a: &[f32], b: &[f32]) -> f32 {
    // SAFETY(bound: 0 < a.len() == b.len()): first-element loads only.
    unsafe { *a.as_ptr() * *b.as_ptr() }
}

pub fn fast_dot(a: &[f32], b: &[f32]) -> f32 {
    // SAFETY(feature: avx512f): claimed, but this call site never ran
    // feature detection — the ISA check must reject it.
    unsafe { wide_dot(a, b) }
}

pub struct Avx512;

impl CpuBackend for Avx512 {
    fn name(&self) -> &'static str {
        "avx512f"
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        let mut s = 0.0;
        for (x, y) in a.iter().zip(b) {
            s += x * y;
        }
        s
    }

    fn axpy(&self, out: &mut [f32], alpha: f32, src: &[f32]) {
        for (o, x) in out.iter_mut().zip(src) {
            *o += alpha * x;
        }
    }
}
