//! Element types and the [`Scalar`] trait.
//!
//! FlashInfer kernels are generic over storage precision: queries and outputs
//! are typically f16, KV-caches may be f16 or fp8 (Appendix F), and all
//! accumulation happens in f32. The [`Scalar`] trait captures exactly that
//! contract: an element type is anything that can round-trip through `f32`.

use crate::fp8::{F8E4M3, F8E5M2};
use crate::half::F16;

/// Runtime tag for an element type.
///
/// Used by the JIT layer (`fi-core::jit`) to render kernel source and by the
/// GPU simulator to compute memory traffic (bytes per element).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum DType {
    /// IEEE 754 binary32.
    F32,
    /// IEEE 754 binary16 (software-emulated by [`F16`]).
    F16,
    /// 8-bit float, 4 exponent / 3 mantissa bits (OCP E4M3).
    F8E4M3,
    /// 8-bit float, 5 exponent / 2 mantissa bits (OCP E5M2).
    F8E5M2,
}

impl DType {
    /// Storage size of one element in bytes.
    pub fn size_bytes(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::F16 => 2,
            DType::F8E4M3 | DType::F8E5M2 => 1,
        }
    }

    /// The CUDA type name the real FlashInfer JIT would emit for this dtype.
    pub fn cuda_name(self) -> &'static str {
        match self {
            DType::F32 => "float",
            DType::F16 => "half",
            DType::F8E4M3 => "__nv_fp8_e4m3",
            DType::F8E5M2 => "__nv_fp8_e5m2",
        }
    }
}

impl std::fmt::Display for DType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DType::F32 => "f32",
            DType::F16 => "f16",
            DType::F8E4M3 => "f8e4m3",
            DType::F8E5M2 => "f8e5m2",
        };
        f.write_str(s)
    }
}

/// Storage precision of the runtime KV arena — the subset of [`DType`]
/// the serving path supports as an end-to-end execution mode (f32
/// reference, f16 halving staged bytes, e4m3 quartering them; Appendix F
/// of the paper). Queries, outputs, and all accumulation stay f32
/// regardless.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum KvDtype {
    /// Full-precision KV rows (the bit-exact reference mode).
    #[default]
    F32,
    /// binary16 KV rows, widened on stage.
    F16,
    /// OCP e4m3 KV rows with per-KV-head dequant scales, widened on stage.
    Fp8E4M3,
}

impl KvDtype {
    /// The element-level dtype tag.
    pub fn as_dtype(self) -> DType {
        match self {
            KvDtype::F32 => DType::F32,
            KvDtype::F16 => DType::F16,
            KvDtype::Fp8E4M3 => DType::F8E4M3,
        }
    }

    /// Storage size of one KV element in bytes.
    pub fn size_bytes(self) -> usize {
        self.as_dtype().size_bytes()
    }
}

impl std::fmt::Display for KvDtype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_dtype().fmt(f)
    }
}

/// An element type usable as tensor storage.
///
/// The contract is lossy-narrowing on [`Scalar::from_f32`] (round to nearest
/// representable) and exact widening on [`Scalar::to_f32`]. All arithmetic in
/// the kernels is performed on the widened `f32` values, mirroring fp32
/// accumulation on tensor cores.
///
/// This trait is sealed-by-convention: the workspace only implements it for
/// `f32`, [`F16`], [`F8E4M3`], and [`F8E5M2`].
pub trait Scalar:
    Copy + Clone + Send + Sync + std::fmt::Debug + Default + PartialEq + 'static
{
    /// Runtime tag for this type.
    const DTYPE: DType;

    /// Widen to f32 (exact).
    fn to_f32(self) -> f32;

    /// Narrow from f32, rounding to the nearest representable value.
    fn from_f32(x: f32) -> Self;

    /// Bulk widen-on-stage: `dst[i] = f32::from(src[i]) * scale`, routed
    /// through the runtime-dispatched conversion kernels where the type
    /// has one. Exact widening followed by one multiply (no rounding at
    /// all for `f32` with `scale == 1.0`, which is a straight copy).
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    fn widen_scaled_into(dst: &mut [f32], src: &[Self], scale: f32) {
        assert_eq!(dst.len(), src.len(), "length mismatch in widen_scaled_into");
        for (d, s) in dst.iter_mut().zip(src) {
            *d = s.to_f32() * scale;
        }
    }

    /// The same elements as an f32 slice when the storage type *is*
    /// f32, so a kernel can read them in place instead of widening a
    /// copy; `None` for every narrower type.
    fn as_f32_slice(src: &[Self]) -> Option<&[f32]> {
        let _ = src;
        None
    }
}

impl Scalar for f32 {
    const DTYPE: DType = DType::F32;

    #[inline]
    fn to_f32(self) -> f32 {
        self
    }

    #[inline]
    fn from_f32(x: f32) -> Self {
        x
    }

    #[inline]
    fn widen_scaled_into(dst: &mut [f32], src: &[Self], scale: f32) {
        assert_eq!(dst.len(), src.len(), "length mismatch in widen_scaled_into");
        if scale == 1.0 {
            // The f32 staging fast path is a straight memcpy.
            dst.copy_from_slice(src);
        } else {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = s * scale;
            }
        }
    }

    #[inline]
    fn as_f32_slice(src: &[Self]) -> Option<&[f32]> {
        Some(src)
    }
}

impl Scalar for F16 {
    const DTYPE: DType = DType::F16;

    #[inline]
    fn to_f32(self) -> f32 {
        F16::to_f32(self)
    }

    #[inline]
    fn from_f32(x: f32) -> Self {
        F16::from_f32(x)
    }

    #[inline]
    fn widen_scaled_into(dst: &mut [f32], src: &[Self], scale: f32) {
        crate::numerics::widen_f16_into(dst, src, scale);
    }
}

impl Scalar for F8E4M3 {
    const DTYPE: DType = DType::F8E4M3;

    #[inline]
    fn to_f32(self) -> f32 {
        F8E4M3::to_f32(self)
    }

    #[inline]
    fn from_f32(x: f32) -> Self {
        F8E4M3::from_f32(x)
    }

    #[inline]
    fn widen_scaled_into(dst: &mut [f32], src: &[Self], scale: f32) {
        crate::numerics::widen_e4m3_into(dst, src, scale);
    }
}

impl Scalar for F8E5M2 {
    const DTYPE: DType = DType::F8E5M2;

    #[inline]
    fn to_f32(self) -> f32 {
        F8E5M2::to_f32(self)
    }

    #[inline]
    fn from_f32(x: f32) -> Self {
        F8E5M2::from_f32(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_bytes_matches_storage() {
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::F16.size_bytes(), 2);
        assert_eq!(DType::F8E4M3.size_bytes(), 1);
        assert_eq!(DType::F8E5M2.size_bytes(), 1);
    }

    #[test]
    fn cuda_names() {
        assert_eq!(DType::F16.cuda_name(), "half");
        assert_eq!(DType::F8E4M3.cuda_name(), "__nv_fp8_e4m3");
    }

    #[test]
    fn f32_roundtrip_is_identity() {
        for x in [-1.5f32, 0.0, 3.25, f32::MAX] {
            assert_eq!(f32::from_f32(x).to_f32(), x);
        }
    }

    #[test]
    fn display_tags() {
        assert_eq!(DType::F8E5M2.to_string(), "f8e5m2");
        assert_eq!(DType::F32.to_string(), "f32");
    }

    #[test]
    fn kv_dtype_maps_to_dtype_and_bytes() {
        assert_eq!(KvDtype::default(), KvDtype::F32);
        assert_eq!(KvDtype::F32.size_bytes(), 4);
        assert_eq!(KvDtype::F16.size_bytes(), 2);
        assert_eq!(KvDtype::Fp8E4M3.size_bytes(), 1);
        assert_eq!(KvDtype::F16.as_dtype(), DType::F16);
        assert_eq!(KvDtype::Fp8E4M3.to_string(), "f8e4m3");
    }

    #[test]
    fn only_f32_storage_reads_in_place() {
        let xs = [1.5f32, -2.0];
        assert_eq!(f32::as_f32_slice(&xs), Some(&xs[..]));
        assert_eq!(F16::as_f32_slice(&[F16::from_f32(1.5)]), None);
        assert_eq!(F8E4M3::as_f32_slice(&[F8E4M3::from_f32(1.5)]), None);
    }

    #[test]
    fn widen_scaled_into_matches_per_element_conversion() {
        let xs: Vec<f32> = (0..13).map(|i| 0.21 * i as f32 - 1.1).collect();
        // f32: straight copy at scale 1.0, one multiply otherwise.
        let mut dst = vec![0.0f32; xs.len()];
        f32::widen_scaled_into(&mut dst, &xs, 1.0);
        assert_eq!(dst, xs);
        f32::widen_scaled_into(&mut dst, &xs, 0.5);
        for (d, x) in dst.iter().zip(&xs) {
            assert_eq!(d.to_bits(), (x * 0.5).to_bits());
        }
        // f16 and e4m3 route through the dispatched widen kernels.
        let h: Vec<F16> = xs.iter().map(|&x| F16::from_f32(x)).collect();
        let mut dst = vec![0.0f32; h.len()];
        F16::widen_scaled_into(&mut dst, &h, 2.0);
        for (d, x) in dst.iter().zip(&h) {
            assert_eq!(d.to_bits(), (x.to_f32() * 2.0).to_bits());
        }
        let q: Vec<F8E4M3> = xs.iter().map(|&x| F8E4M3::from_f32(x)).collect();
        let mut dst = vec![0.0f32; q.len()];
        F8E4M3::widen_scaled_into(&mut dst, &q, 3.0);
        for (d, x) in dst.iter().zip(&q) {
            assert_eq!(d.to_bits(), (x.to_f32() * 3.0).to_bits());
        }
    }
}
