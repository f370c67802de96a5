//! Runtime-dispatched CPU microkernel backends (DESIGN.md §4f).
//!
//! The hot inner loops of [`crate::matmul`] and [`crate::vecops`] whose
//! operation order or register tiling must be pinned — the GEMM register
//! tile, the 16-lane dot kernel and its 4×4 block, the Krum/Bulyan
//! squared-distance rows and the striped `dot`/`dot_delta` reductions —
//! live behind the [`CpuBackend`] trait with three implementations:
//!
//! * **scalar** — portable kernels on every host, the reference every
//!   other backend is pinned to.
//! * **avx2** — AVX2 + FMA `std::arch` intrinsics (256-bit lanes).
//! * **avx512** — AVX-512F intrinsics (512-bit lanes).
//!
//! Element-wise maps (mean/variance accumulation, `axpy`) are not backend
//! kernels but plain loops in [`crate::vecops`]: they have no order or
//! tile to pin (DESIGN.md §4f).
//!
//! The active backend is chosen once, on first use, by
//! `is_x86_feature_detected!` and cached in a [`OnceLock`]. The
//! `FABFLIP_BACKEND` environment variable (`scalar` | `avx2` | `avx512`)
//! overrides detection, but a request for an ISA the host does not support
//! (or an unrecognized value) falls back to the detected best — the
//! override selects among safe options, it can never make the process
//! execute unsupported instructions. On non-x86-64 targets only the scalar
//! backend exists.
//!
//! # Determinism contract (§4b across backends)
//!
//! Every kernel fixes its floating-point operation order as a function of
//! input positions and dimensions alone, and that order is the same on
//! every backend: each method returns the same bits under scalar, AVX2
//! and AVX-512, so the §4b guarantees (serial ≡ parallel bitwise, replay
//! stability) extend across CPUs. A backend only chooses how many of the
//! fixed chains run side by side:
//!
//! * [`CpuBackend::gemm_tile`] — each output element is an independent
//!   zero-initialized ascending-`p` correctly-rounded FMA chain plus one
//!   flush add; lane regrouping never reorders a per-element chain.
//! * [`CpuBackend::dot_lanes`] — the [`DOT_LANES`]-lane accumulator array
//!   and its binary combining tree map exactly onto one 512-bit or two
//!   256-bit registers; [`CpuBackend::dot_lanes_4x4`] runs sixteen such
//!   chains side by side, each entry bitwise the per-pair call.
//! * [`CpuBackend::dot`] and [`CpuBackend::dot_delta`] — four
//!   [`DOT_LANES`]-lane FMA accumulators striped over 16-float blocks
//!   (`block q → acc[q & 3]`), folded `(0+1) + (2+3)`, then the
//!   `dot_lanes` halving tree and a scalar FMA tail: one `zmm` register
//!   per accumulator, two `ymm` halves, or a `[[f32; 16]; 4]` array.
//!   `dot_delta(a, b, r)` runs the same structure on the on-the-fly
//!   deltas, so the §4e identity `dot_delta(a, b, r) ≡ dot(a−r, b−r)` is
//!   bitwise (a subtraction rounds identically whether or not the result
//!   is materialized); the norms are `dot(a, a)` and `dot_delta(a, a, r)`.
//! * [`CpuBackend::sq_distance_rows`] — each entry keeps
//!   `vecops::sq_distance`'s four lane chains of separate sub/mul/add and
//!   its fixed fold; the wide backends hold one pair's four lanes per
//!   128-bit quarter of a register.
//!
//! The SIMD impls size every loop over several slices from the shortest
//! slice it loads, so even a length mismatch the callers should have
//! ruled out (debug builds assert it) never reads or writes out of
//! bounds in a release build.
//!
//! # fabcheck blessing
//!
//! `crates/tensor/src/backend/` is, with `par.rs`, the one blessed home
//! for `unsafe` in product code — SIMD intrinsics and raw-pointer loads.
//! Every `unsafe` block carries a machine-parsed `// SAFETY(bound: …)` /
//! `// SAFETY(feature: …)` claim naming the bounds or ISA invariant it
//! relies on. `unsafe-without-safety-comment` enforces the confinement,
//! the claim's presence, grammar and *kind*, and that a call into a
//! `#[target_feature]` kernel whose features the caller does not enable
//! sits in a backend `impl` method (the only detection-proven call
//! sites; rustc's E0133 only demands `unsafe` there). `backend-parity`
//! checks that no [`CpuBackend`] method has a default body, so rustc's
//! E0046 makes all three backends implement every method, and that every
//! method is exercised by the cross-backend goldens/proptests. This file
//! is additionally blessed for `env-var-outside-config` (the single
//! `FABFLIP_BACKEND` read below).

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;
mod scalar;

/// Rows processed together by the GEMM micro-kernels (register-tile
/// height). Shared by every backend so row partitioning — and therefore
/// the §4b fixed-work-unit argument — is backend-independent.
pub const MR: usize = 4;

/// Register-tile width of the scalar GEMM kernel: one `MR×WR` accumulator
/// block stays in SIMD registers for a whole `k` panel. The wide backends
/// sub-tile `WR` to fit their register files; per-element op order is
/// unaffected (each output element keeps its own accumulator chain).
pub const WR: usize = 64;

/// Number of independent accumulator lanes in [`CpuBackend::dot_lanes`].
/// Exactly one 512-bit register (or two 256-bit registers), which is what
/// makes the lane structure — and the results — identical across
/// backends.
pub const DOT_LANES: usize = 16;

/// Rows and columns of one [`CpuBackend::dot_lanes_4x4`] block.
pub const DOT_BLOCK: usize = 4;

/// Rows of one [`CpuBackend::sq_distance_rows`] call: the group of
/// distance rows every backend fills together, and the parallel unit of
/// the Krum/Bulyan distance tiles. Shared by every backend so the tiles'
/// partition into work units never depends on the ISA.
pub const DIST_ROWS: usize = 4;

/// One CPU microkernel implementation. All methods are safe to call on
/// any host *through the handles this module hands out* — an instance for
/// an ISA is only ever constructed after feature detection succeeds.
///
/// Implementations are zero-sized; the dispatcher returns `&'static dyn
/// CpuBackend`, so selection costs one vtable indirection per kernel
/// entry, never per inner-loop iteration.
pub trait CpuBackend: Send + Sync {
    /// Static name for logs, benches and golden keys: `"scalar"`,
    /// `"avx2"` or `"avx512"`.
    fn name(&self) -> &'static str;

    /// One `rows × width` GEMM register-tile update for a single `k`
    /// panel: `c[c_base + r*c_stride + j] += Σ_p a(r, p) · b(p, j)` with
    /// `a(r, p) = a[a_base + r*a_row_stride + p*a_p_stride]`,
    /// `b(p, j) = bp[b_base + p*b_stride + j]`, `p ∈ 0..kc`,
    /// `j ∈ 0..width`, `r ∈ 0..rows` (`rows ≤ MR`).
    ///
    /// Per output element: zeroed accumulator, ascending-`p` fused
    /// multiply-add chain, one flush add into `c` — bitwise identical
    /// across backends.
    #[allow(clippy::too_many_arguments)]
    fn gemm_tile(
        &self,
        a: &[f32],
        a_base: usize,
        a_row_stride: usize,
        a_p_stride: usize,
        rows: usize,
        kc: usize,
        bp: &[f32],
        b_base: usize,
        b_stride: usize,
        width: usize,
        c: &mut [f32],
        c_base: usize,
        c_stride: usize,
    );

    /// Dot product over [`DOT_LANES`] independent FMA lanes with a fixed
    /// binary halving tree and a scalar FMA tail — bitwise identical
    /// across backends (the row-dot kernel of `matmul_transpose_b`'s
    /// leftover rows and columns).
    fn dot_lanes(&self, a: &[f32], b: &[f32]) -> f32;

    /// A [`DOT_BLOCK`]×[`DOT_BLOCK`] block of [`CpuBackend::dot_lanes`]:
    /// `out[r][s] = dot_lanes(a[r], b[s])`, every entry bitwise equal to
    /// the per-pair call. Sixteen independent accumulators, each keeping
    /// `dot_lanes`' exact lane chain, halving tree and FMA tail, so the
    /// block is throughput-bound where one pair is latency-bound (the
    /// register tile of `matmul_transpose_b`). All eight slices have the
    /// same length.
    fn dot_lanes_4x4(
        &self,
        a: [&[f32]; DOT_BLOCK],
        b: [&[f32]; DOT_BLOCK],
    ) -> [[f32; DOT_BLOCK]; DOT_BLOCK];

    /// Squared-distance rows: `out[r][c] = sq_distance(rows[r], cols[c])`
    /// for every `c < cols.len()`, each entry bitwise equal to the
    /// per-pair `vecops::sq_distance` on every backend. Every pair keeps
    /// that function's four lane chains (separate `sub`, `mul`, `add` per
    /// element, never a fused multiply-add) and its fold
    /// `((s0+s1)+(s2+s3))+tail`; a backend only chooses how many pairs run
    /// side by side. All row and column slices have the same length and
    /// every `out[r]` holds at least `cols.len()` entries; entries past
    /// `cols.len()` are left untouched.
    fn sq_distance_rows(
        &self,
        rows: [&[f32]; DIST_ROWS],
        cols: &[&[f32]],
        out: [&mut [f32]; DIST_ROWS],
    );

    /// Dot product `Σ xᵢ·yᵢ` in the striped order of the module docs:
    /// four [`DOT_LANES`]-lane FMA accumulators, `block q → acc[q & 3]`,
    /// folded `(0+1) + (2+3)`, halving tree, FMA tail — bitwise identical
    /// across backends. `dot(a, a)` is the squared norm.
    fn dot(&self, a: &[f32], b: &[f32]) -> f32;

    /// `Σ (aᵢ−rᵢ)·(bᵢ−rᵢ)` without materializing the deltas; bitwise
    /// equal to `self.dot(a−r, b−r)`, and across backends.
    fn dot_delta(&self, a: &[f32], b: &[f32], r: &[f32]) -> f32;
}

/// Identifies one backend implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Portable scalar kernels (every host).
    Scalar,
    /// AVX2 + FMA (x86-64 with both features).
    Avx2,
    /// AVX-512F (x86-64 with the feature).
    Avx512,
}

impl Kind {
    /// Name as accepted by `FABFLIP_BACKEND` and reported by
    /// [`CpuBackend::name`].
    pub fn name(self) -> &'static str {
        match self {
            Kind::Scalar => "scalar",
            Kind::Avx2 => "avx2",
            Kind::Avx512 => "avx512",
        }
    }

    /// Whether the running host can execute this backend.
    pub fn supported(self) -> bool {
        match self {
            Kind::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Kind::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            Kind::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// All backend kinds, best-first. Test helper for "run this proptest
/// against every backend the host supports".
pub const ALL_KINDS: [Kind; 3] = [Kind::Avx512, Kind::Avx2, Kind::Scalar];

/// Returns the backend instance for `kind`.
///
/// # Panics
///
/// Panics if the host does not support `kind` — constructing a handle for
/// an undetected ISA would make every later method call undefined
/// behavior, so this is checked eagerly. Gate calls with
/// [`Kind::supported`].
pub fn instance(kind: Kind) -> &'static dyn CpuBackend {
    assert!(
        kind.supported(),
        "backend {} not supported on this host",
        kind.name()
    );
    instance_unchecked(kind)
}

/// `kind` → static instance; caller has already established support.
fn instance_unchecked(kind: Kind) -> &'static dyn CpuBackend {
    match kind {
        Kind::Scalar => &scalar::Scalar,
        #[cfg(target_arch = "x86_64")]
        Kind::Avx2 => &avx2::Avx2,
        #[cfg(target_arch = "x86_64")]
        Kind::Avx512 => &avx512::Avx512,
        #[cfg(not(target_arch = "x86_64"))]
        _ => &scalar::Scalar,
    }
}

/// Best backend the host supports, by feature detection alone.
fn detected() -> Kind {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Kind::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Kind::Avx2;
        }
    }
    Kind::Scalar
}

/// Parses `FABFLIP_BACKEND`. Unset, unrecognized, or unsupported values
/// yield `None` (→ fall back to [`detected`]).
fn env_override() -> Option<Kind> {
    let v = std::env::var("FABFLIP_BACKEND").ok()?;
    let kind = if v.eq_ignore_ascii_case("scalar") {
        Kind::Scalar
    } else if v.eq_ignore_ascii_case("avx2") {
        Kind::Avx2
    } else if v.eq_ignore_ascii_case("avx512") {
        Kind::Avx512
    } else {
        return None;
    };
    kind.supported().then_some(kind)
}

/// Startup choice, resolved once and cached for the process lifetime.
static STARTUP: OnceLock<Kind> = OnceLock::new();

/// Test/bench-only override; `0` = none, else `Kind as u8 + 1`. An atomic
/// (not a lock) because [`active`] sits on every kernel entry path.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// The backend kind [`active`] currently resolves to.
pub fn active_kind() -> Kind {
    match FORCED.load(Ordering::Relaxed) {
        1 => Kind::Scalar,
        2 => Kind::Avx2,
        3 => Kind::Avx512,
        _ => *STARTUP.get_or_init(|| env_override().unwrap_or_else(detected)),
    }
}

/// The active [`CpuBackend`]: the forced override if set, else the cached
/// startup choice (`FABFLIP_BACKEND`, falling back to detection).
pub fn active() -> &'static dyn CpuBackend {
    instance_unchecked(active_kind())
}

/// Forces the active backend for this process (benches and per-backend
/// test sweeps; production code never calls this). `None` restores the
/// startup choice. Takes effect on the *next* kernel entry — callers that
/// need a consistent backend across a region must not race this with
/// concurrent kernel calls (the in-tree users are single-threaded benches
/// and lock-guarded tests).
///
/// # Panics
///
/// Panics if `Some(kind)` is not supported on this host.
pub fn force(kind: Option<Kind>) {
    let code = match kind {
        None => 0,
        Some(k) => {
            assert!(
                k.supported(),
                "cannot force unsupported backend {}",
                k.name()
            );
            match k {
                Kind::Scalar => 1,
                Kind::Avx2 => 2,
                Kind::Avx512 => 3,
            }
        }
    };
    FORCED.store(code, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_supported() {
        assert!(Kind::Scalar.supported());
        assert_eq!(instance(Kind::Scalar).name(), "scalar");
    }

    #[test]
    fn active_matches_reported_kind() {
        assert_eq!(active().name(), active_kind().name());
    }

    #[test]
    fn supported_kinds_instantiate_with_matching_names() {
        for kind in ALL_KINDS {
            if kind.supported() {
                assert_eq!(instance(kind).name(), kind.name());
            }
        }
    }
}
