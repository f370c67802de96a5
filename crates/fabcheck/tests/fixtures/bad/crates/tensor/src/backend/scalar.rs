//! Deliberately bad fixture: this backend inherits `CpuBackend::axpy`'s
//! default body, which `backend-parity` flags (anchored at the trait
//! declaration in mod.rs). Never compiled — only scanned.

use super::CpuBackend;

pub struct Scalar;

impl CpuBackend for Scalar {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        let mut s = 0.0;
        for (x, y) in a.iter().zip(b) {
            s += x * y;
        }
        s
    }
}
