//! Quantized client→server update transport (DESIGN.md §4e).
//!
//! Clients may encode their parameter-delta payloads as IEEE-754 binary16
//! ([`Codec::F16`]) or symmetric per-tensor `i8` ([`Codec::I8`]) before
//! upload; the server dequantizes deterministically before validation and
//! aggregation. Both codecs are pure element-wise functions of the input
//! bits — no RNG, no data-dependent branching on accumulated state — so a
//! quantized round transcript is bitwise identical at any thread count and
//! across checkpoint/resume, exactly like the f32 path.
//!
//! Rounding contracts (pinned by proptests and DESIGN.md §4e):
//!
//! - **f16**: round-to-nearest-even on the 13 dropped mantissa bits;
//!   values above the binary16 range become ±∞ (which the PR-5 server
//!   validator then quarantines as non-finite); subnormal halves are
//!   produced exactly; NaN payloads stay NaN (quieted to a single
//!   mantissa bit).
//! - **i8**: symmetric per-tensor scale `max_abs/127`, round half away
//!   from zero ([`f32::round`]), clamp to ±127 (−128 unused, keeping the
//!   code symmetric). Non-finite or all-zero inputs encode as the zero
//!   buffer with scale 0 — the server's dead-buffer sentinel rejects it.

use serde::{Deserialize, Serialize};

/// Wire codec for client→server update payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Codec {
    /// Full-precision passthrough: the wire value is the client value.
    #[default]
    F32,
    /// IEEE-754 binary16, round-to-nearest-even.
    F16,
    /// Symmetric per-tensor `i8`, scale `max_abs/127`, round half away
    /// from zero.
    I8,
}

impl Codec {
    /// `true` for the full-precision passthrough codec (the default).
    /// Used as a serde `skip_serializing_if` so configs that never opt
    /// into quantization serialize byte-identically to pre-transport
    /// configs (cache-key stability).
    pub fn is_f32(&self) -> bool {
        matches!(self, Codec::F32)
    }

    /// Stable lowercase label for reports and bench JSON.
    pub fn label(&self) -> &'static str {
        match self {
            Codec::F32 => "f32",
            Codec::F16 => "f16",
            Codec::I8 => "i8",
        }
    }
}

/// An IEEE-754 binary16 value stored as raw bits. A transparent newtype
/// so wire buffers can hold it without pulling in a half-float arithmetic
/// dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(transparent)]
pub struct F16(pub u16);

/// Converts an `f32` to binary16 bits with round-to-nearest-even.
#[inline]
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let b = x.to_bits();
    let sign = ((b >> 16) & 0x8000) as u16;
    let exp = ((b >> 23) & 0xff) as i32;
    let man = b & 0x007f_ffff;
    if exp == 0xff {
        // Inf stays inf; NaN is quieted to a single mantissa bit so the
        // result is a pure function of "was NaN", not of the payload.
        return sign | 0x7c00 | if man != 0 { 0x0200 } else { 0 };
    }
    let e = exp - 127 + 15;
    if e >= 0x1f {
        // Overflows binary16 → ±inf (quarantined downstream as non-finite).
        return sign | 0x7c00;
    }
    if e >= 1 {
        // Normal: drop 13 mantissa bits, round-to-nearest-even. A mantissa
        // carry overflows cleanly into the exponent (and into ±inf at the
        // top), which is exactly the correctly rounded result.
        let lsb = (man >> 13) & 1;
        let rounded = man + 0x0fff + lsb;
        return sign + (((e as u32) << 10) + (rounded >> 13)) as u16;
    }
    if e < -10 {
        // Below the smallest subnormal half → signed zero.
        return sign;
    }
    // Subnormal half: shift out `14 - e` bits of the 24-bit significand
    // (implicit bit restored), round-to-nearest-even; a round-up to 2^10
    // lands on the smallest normal encoding, which is again correct.
    let man = man | 0x0080_0000;
    let shift = (14 - e) as u32;
    let lsb = (man >> shift) & 1;
    let half = (1u32 << (shift - 1)) - 1 + lsb;
    sign | ((man + half) >> shift) as u16
}

/// Converts binary16 bits to the exactly-representable `f32` value.
#[inline]
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = u32::from(h & 0x8000) << 16;
    let e = u32::from(h >> 10) & 0x1f;
    let m = u32::from(h & 0x03ff);
    let bits = if e == 0x1f {
        sign | 0x7f80_0000 | (m << 13)
    } else if e != 0 {
        sign | ((e + 127 - 15) << 23) | (m << 13)
    } else if m == 0 {
        sign
    } else {
        // Subnormal half: renormalize (every subnormal half is a normal
        // f32, so this is exact).
        let shift = m.leading_zeros() - 21;
        let man = (m << shift) & 0x03ff;
        sign | ((113 - shift) << 23) | (man << 13)
    };
    f32::from_bits(bits)
}

/// Symmetric per-tensor `i8` scale: `max_abs/127`, or `0.0` when the
/// input has no finite nonzero magnitude (the all-zero encoding).
#[inline]
pub fn i8_scale(v: &[f32]) -> f32 {
    // `f32::max` drops NaN operands, so NaN coordinates do not poison the
    // scale; ±inf forces the 0-scale (all-zero) encoding below.
    // fabcheck::allow(unordered_float_reduction): running max of |x|, serial left-to-right
    let max_abs = v.iter().fold(0.0f32, |acc, &x| acc.max(x.abs()));
    if max_abs > 0.0 && max_abs.is_finite() {
        max_abs / 127.0
    } else {
        0.0
    }
}

/// Encodes `v` as binary16 into `out` (`out.len() == v.len()`).
pub fn f16_encode_into(v: &[f32], out: &mut [F16]) {
    debug_assert_eq!(v.len(), out.len());
    for (o, &x) in out.iter_mut().zip(v) {
        *o = F16(f32_to_f16_bits(x));
    }
}

/// Decodes binary16 `enc` into `out` (`out.len() == enc.len()`).
/// Allocation-free: a fabcheck hot entry.
pub fn f16_decode_into(enc: &[F16], out: &mut [f32]) {
    debug_assert_eq!(enc.len(), out.len());
    for (o, &F16(h)) in out.iter_mut().zip(enc) {
        *o = f16_bits_to_f32(h);
    }
}

/// Encodes `v` as symmetric `i8` into `out`, returning the scale.
/// With scale 0 (non-finite or all-zero input) every element encodes as 0.
pub fn i8_encode_into(v: &[f32], out: &mut [i8]) -> f32 {
    debug_assert_eq!(v.len(), out.len());
    let scale = i8_scale(v);
    if scale == 0.0 {
        for o in out.iter_mut() {
            *o = 0;
        }
        return 0.0;
    }
    for (o, &x) in out.iter_mut().zip(v) {
        *o = i8_code(x, scale);
    }
    scale
}

/// The `i8` code of `x` at a nonzero `scale`.
#[inline]
fn i8_code(x: f32, scale: f32) -> i8 {
    // `as i8` saturates and maps NaN→0, both deterministically; the clamp
    // keeps the code symmetric in ±127.
    (x / scale).round().clamp(-127.0, 127.0) as i8
}

/// Decodes symmetric `i8` `enc` at `scale` into `out`.
/// Allocation-free: a fabcheck hot entry.
pub fn i8_decode_into(enc: &[i8], scale: f32, out: &mut [f32]) {
    debug_assert_eq!(enc.len(), out.len());
    for (o, &q) in out.iter_mut().zip(enc) {
        *o = f32::from(q) * scale;
    }
}

/// An encoded update payload as it crosses the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Encoded {
    /// Full-precision passthrough.
    F32(Vec<f32>),
    /// binary16 bits.
    F16(Vec<F16>),
    /// Symmetric `i8` with its per-tensor scale.
    I8 {
        /// Dequantization scale (`max_abs/127`, or 0 for the zero buffer).
        scale: f32,
        /// Quantized elements.
        data: Vec<i8>,
    },
}

impl Encoded {
    /// Element count of the decoded payload.
    pub fn len(&self) -> usize {
        match self {
            Encoded::F32(v) => v.len(),
            Encoded::F16(v) => v.len(),
            Encoded::I8 { data, .. } => data.len(),
        }
    }

    /// `true` when the payload has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload bytes on the wire (scale overhead excluded).
    pub fn wire_bytes(&self) -> usize {
        match self {
            Encoded::F32(v) => v.len() * 4,
            Encoded::F16(v) => v.len() * 2,
            Encoded::I8 { data, .. } => data.len(),
        }
    }
}

/// Encodes `v` under `codec` into a fresh wire payload.
pub fn encode(codec: Codec, v: &[f32]) -> Encoded {
    match codec {
        Codec::F32 => Encoded::F32(v.to_vec()),
        Codec::F16 => {
            let mut out = vec![F16(0); v.len()];
            f16_encode_into(v, &mut out);
            Encoded::F16(out)
        }
        Codec::I8 => {
            let mut data = vec![0i8; v.len()];
            let scale = i8_encode_into(v, &mut data);
            Encoded::I8 { scale, data }
        }
    }
}

/// Decodes a wire payload into `out` (`out.len() == enc.len()`).
/// Allocation-free: a caller that reuses `out` decodes each submission
/// without allocating.
pub fn decode_into(enc: &Encoded, out: &mut [f32]) {
    match enc {
        Encoded::F32(v) => {
            debug_assert_eq!(v.len(), out.len());
            out.copy_from_slice(v);
        }
        Encoded::F16(v) => f16_decode_into(v, out),
        Encoded::I8 { scale, data } => i8_decode_into(data, *scale, out),
    }
}

/// Decodes a wire payload into a fresh vector.
pub fn decode(enc: &Encoded) -> Vec<f32> {
    let mut out = vec![0.0f32; enc.len()];
    decode_into(enc, &mut out);
    out
}

/// Applies the encode→decode roundtrip to `v` in place — what the
/// simulator's transport stage does to every staged payload when a
/// non-f32 codec is configured. [`Codec::F32`] is an exact no-op (the
/// pre-transport bitwise-identity guarantee); the quantized paths map each
/// value through its wire form with the same float ops as
/// `decode(encode(..))`, so they allocate nothing and stage nothing.
pub fn roundtrip_in_place(codec: Codec, v: &mut [f32]) {
    match codec {
        Codec::F32 => {}
        Codec::F16 => {
            for x in v.iter_mut() {
                *x = f16_bits_to_f32(f32_to_f16_bits(*x));
            }
        }
        Codec::I8 => {
            let scale = i8_scale(v);
            if scale == 0.0 {
                // The all-zero encoding (non-finite or all-zero input).
                v.fill(0.0);
            } else {
                for x in v.iter_mut() {
                    *x = f32::from(i8_code(*x, scale)) * scale;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_roundtrips_exactly_representable_values() {
        for &x in &[
            0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0, 0.25, 1024.0,
        ] {
            let h = f32_to_f16_bits(x);
            assert_eq!(f16_bits_to_f32(h).to_bits(), x.to_bits(), "x={x}");
        }
    }

    #[test]
    fn f16_rounds_to_nearest_even() {
        // 1 + 2^-11 sits exactly between 1.0 and the next half (1 + 2^-10):
        // ties go to the even mantissa, i.e. 1.0.
        let tie = 1.0f32 + f32::powi(2.0, -11);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(tie)), 1.0);
        // Just above the tie rounds up.
        let above = 1.0f32 + f32::powi(2.0, -11) + f32::powi(2.0, -20);
        assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(above)),
            1.0 + f32::powi(2.0, -10)
        );
        // The next tie (1 + 3·2^-11) is between two halves whose lower has
        // an odd mantissa: ties-to-even rounds *up*.
        let tie2 = 1.0f32 + 3.0 * f32::powi(2.0, -11);
        assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(tie2)),
            1.0 + 2.0 * f32::powi(2.0, -10)
        );
    }

    #[test]
    fn f16_overflow_is_inf_and_nan_stays_nan() {
        assert_eq!(f32_to_f16_bits(1.0e6), 0x7c00);
        assert_eq!(f32_to_f16_bits(-1.0e6), 0xfc00);
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        // Largest value that rounds into range vs. first that overflows.
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(65519.0)), 65504.0);
        assert_eq!(f32_to_f16_bits(65520.0), 0x7c00);
    }

    #[test]
    fn f16_subnormals_are_exact() {
        let smallest = f32::powi(2.0, -24);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(smallest)), smallest);
        assert_eq!(f32_to_f16_bits(smallest), 0x0001);
        // Half of the smallest subnormal ties to even → zero.
        assert_eq!(f32_to_f16_bits(f32::powi(2.0, -25)), 0x0000);
        // Largest subnormal.
        let sub_max = 1023.0 * f32::powi(2.0, -24);
        assert_eq!(f32_to_f16_bits(sub_max), 0x03ff);
        assert_eq!(f16_bits_to_f32(0x03ff), sub_max);
        // Round-up across the subnormal/normal boundary.
        let norm_min = f32::powi(2.0, -14);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(norm_min)), norm_min);
    }

    #[test]
    fn i8_codec_is_symmetric_and_bounded() {
        let v = [1.0f32, -2.0, 0.5, 127.0, -127.0, 0.0];
        let mut q = vec![0i8; v.len()];
        let scale = i8_encode_into(&v, &mut q);
        assert_eq!(scale, 1.0);
        assert_eq!(q, vec![1, -2, 1, 127, -127, 0]);
        let mut back = vec![0.0f32; v.len()];
        i8_decode_into(&q, scale, &mut back);
        assert_eq!(back, vec![1.0, -2.0, 1.0, 127.0, -127.0, 0.0]);
    }

    #[test]
    fn i8_degenerate_inputs_encode_as_zero_buffer() {
        for v in [
            vec![0.0f32; 4],
            vec![f32::INFINITY, 1.0, 2.0, 3.0],
            vec![f32::NAN; 4],
        ] {
            let mut q = vec![7i8; v.len()];
            let scale = i8_encode_into(&v, &mut q);
            assert_eq!(scale, 0.0);
            assert!(q.iter().all(|&x| x == 0));
        }
    }

    #[test]
    fn i8_nan_coordinate_maps_to_zero() {
        let v = [1.0f32, f32::NAN, -1.0];
        let mut q = vec![0i8; 3];
        let scale = i8_encode_into(&v, &mut q);
        assert!(scale > 0.0);
        assert_eq!(q[1], 0);
    }

    #[test]
    fn encode_decode_roundtrip_matches_in_place() {
        let smooth: Vec<f32> = (0..257).map(|i| ((i as f32) * 0.37).sin() * 3.0).collect();
        let sub = f32::from_bits(1); // smallest f32 subnormal
        let sub_max = f32::from_bits(0x007f_ffff); // largest f32 subnormal
        let edges = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            sub,
            -sub,
            sub_max,
            -sub_max,
            65504.0,
            -65504.0,
            65520.0,
            -65520.0,
            3.4e38,
            -3.4e38,
            1.0,
        ];
        // Each edge value also heads its own vector, so it sets the i8 scale.
        let mut inputs: Vec<Vec<f32>> = edges.iter().map(|&x| vec![x, 0.5 * x]).collect();
        inputs.extend([
            smooth,
            edges.to_vec(),
            // Finite edges only: the i8 scale comes from ±3.4e38.
            edges.iter().copied().filter(|x| x.is_finite()).collect(),
            // Subnormals and ±0 only: a subnormal max_abs scale.
            vec![sub, -sub_max, 0.0, -0.0, sub_max],
            vec![0.0; 9],
            vec![f32::NAN; 9],
            vec![1.0, f32::NAN, -1.0],
        ]);
        for v in &inputs {
            for codec in [Codec::F32, Codec::F16, Codec::I8] {
                let enc = encode(codec, v);
                assert_eq!(enc.len(), v.len());
                let via_enum = decode(&enc);
                let mut in_place = v.clone();
                roundtrip_in_place(codec, &mut in_place);
                assert_eq!(
                    via_enum.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    in_place.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "codec={} v={v:?}",
                    codec.label()
                );
                if codec == Codec::F32 {
                    assert_eq!(
                        in_place.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                    );
                }
            }
        }
    }

    #[test]
    fn quantization_is_idempotent() {
        // Dequantized values are exactly representable under the same
        // codec, so transporting twice equals transporting once (f16);
        // i8 is idempotent because the scale is preserved by roundtrip.
        let v: Vec<f32> = (0..64).map(|i| ((i as f32) * 1.7).cos() * 9.0).collect();
        for codec in [Codec::F16, Codec::I8] {
            let mut once = v.clone();
            roundtrip_in_place(codec, &mut once);
            let mut twice = once.clone();
            roundtrip_in_place(codec, &mut twice);
            assert_eq!(
                once.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                twice.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "codec={}",
                codec.label()
            );
        }
    }

    #[test]
    fn codec_serde_labels_are_stable() {
        assert_eq!(serde_json::to_string(&Codec::F32).unwrap(), "\"F32\"");
        assert_eq!(serde_json::to_string(&Codec::F16).unwrap(), "\"F16\"");
        assert_eq!(serde_json::to_string(&Codec::I8).unwrap(), "\"I8\"");
        let c: Codec = serde_json::from_str("\"F16\"").unwrap();
        assert_eq!(c, Codec::F16);
    }

    #[test]
    fn wire_bytes_shrink_with_codec() {
        let v = vec![1.0f32; 100];
        assert_eq!(encode(Codec::F32, &v).wire_bytes(), 400);
        assert_eq!(encode(Codec::F16, &v).wire_bytes(), 200);
        assert_eq!(encode(Codec::I8, &v).wire_bytes(), 100);
    }
}
