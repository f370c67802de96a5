//! Deliberately bad fixture for the workspace `backend-parity` pass: the
//! trait gives `axpy` a default body, so the scalar backend (scalar.rs)
//! skips it without tripping rustc's E0046 — the default body is
//! reported here, at the method's declaration. Never compiled — scanned.

mod avx2;
mod avx512;
mod scalar;

pub trait CpuBackend: Send + Sync {
    fn name(&self) -> &'static str;
    fn dot(&self, a: &[f32], b: &[f32]) -> f32;
    fn axpy(&self, out: &mut [f32], alpha: f32, src: &[f32]) {
        for (o, x) in out.iter_mut().zip(src) {
            *o += alpha * x;
        }
    }
}
