//! Property tests pinning every SIMD arm to the portable microkernels:
//! remainder lengths 0..16 (and beyond one full vector), subnormals,
//! ±inf/NaN propagation, exact equality for the elementwise ops
//! (axpy/scale/scale_add never use FMA, by contract), and a summation
//! tolerance for the FMA'd dot.
//!
//! Two layers are exercised: the dispatched `numerics::*` entry points
//! against `numerics::portable::*` (holds at whatever arm is active,
//! including a forced-scalar run), and — on x86 hardware with AVX2 —
//! the `simd_x86` kernels called directly, so real vector coverage
//! survives an `FI_FORCE_SCALAR=1` test pass.

use fi_tensor::numerics::{self, portable};
use fi_tensor::{F16, F8E4M3};
use proptest::prelude::*;

/// f32s with teeth: ordinary magnitudes, tiny/huge values, subnormals,
/// signed zeros, infinities, and NaN. Magnitudes stay below 2^63 so
/// products never overflow-round to infinity (which would let FMA and
/// mul+add legitimately disagree on NaN-ness in `dot`).
fn spicy_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        -1e3f32..1e3f32,
        -1.0f32..1.0f32,
        -1e18f32..1e18f32,
        Just(0.0f32),
        Just(-0.0f32),
        Just(1.0e-41f32),  // subnormal
        Just(-7.5e-42f32), // subnormal
        Just(f32::MIN_POSITIVE),
        Just(f32::INFINITY),
        Just(f32::NEG_INFINITY),
        Just(f32::NAN),
    ]
}

/// Bitwise equality with NaNs compared by class (payloads may differ
/// across instruction sets; quietness and everything else must not).
fn bits_eq(a: f32, b: f32) -> bool {
    (a.is_nan() && b.is_nan()) || a.to_bits() == b.to_bits()
}

fn assert_rows_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what} length");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert!(
            bits_eq(g, w),
            "{what}[{i}]: {g:?} ({:#x}) vs {w:?} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// |slow - fast| for two summation orders of the same products is
/// bounded by a few ulps of the total *magnitude* sum, not of the
/// (possibly cancelled) result.
fn assert_dot_close(slow: f32, fast: f32, a: &[f32], b: &[f32]) {
    if slow.is_nan() || fast.is_nan() {
        assert_eq!(
            slow.is_nan(),
            fast.is_nan(),
            "NaN-ness must agree: {slow} vs {fast}"
        );
        return;
    }
    if slow.is_infinite() || fast.is_infinite() {
        assert_eq!(slow, fast, "infinities must agree exactly");
        return;
    }
    let mag: f64 = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| (x as f64 * y as f64).abs())
        .sum();
    let tol = 1e-5 * (1.0 + mag);
    assert!(
        ((slow as f64) - (fast as f64)).abs() <= tol,
        "dot {slow} vs {fast}, tol {tol}"
    );
}

/// Pairs of equal-length vectors covering every remainder 0..16 and a
/// couple of full 8-lane blocks beyond.
fn vec_pair() -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    (0usize..=40).prop_flat_map(|n| {
        (
            prop::collection::vec(spicy_f32(), n..=n),
            prop::collection::vec(spicy_f32(), n..=n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The dispatched entry points agree with portable at whatever arm
    /// is active — bitwise for the elementwise ops, bounded for dot.
    #[test]
    fn dispatch_matches_portable((xs, ys) in vec_pair(), a in spicy_f32(), s in spicy_f32()) {
        assert_dot_close(portable::dot(&xs, &ys), numerics::dot(&xs, &ys), &xs, &ys);

        let mut got = ys.clone();
        let mut want = ys.clone();
        numerics::axpy(a, &xs, &mut got);
        portable::axpy(a, &xs, &mut want);
        assert_rows_bits_eq(&got, &want, "axpy");

        let mut got = ys.clone();
        let mut want = ys.clone();
        numerics::scale(&mut got, s);
        portable::scale(&mut want, s);
        assert_rows_bits_eq(&got, &want, "scale");

        let mut got = ys.clone();
        let mut want = ys;
        numerics::scale_add(s, a, &xs, &mut got);
        portable::scale_add(s, a, &xs, &mut want);
        assert_rows_bits_eq(&got, &want, "scale_add");
    }

    /// The AVX2 kernels themselves (not the dispatcher) — real vector
    /// coverage even when the dispatcher is forced to scalar.
    #[test]
    fn avx2_matches_portable((xs, ys) in vec_pair(), a in spicy_f32(), s in spicy_f32()) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
            use fi_tensor::simd_x86;

            assert_dot_close(portable::dot(&xs, &ys), simd_x86::dot(&xs, &ys), &xs, &ys);

            let mut got = ys.clone();
            let mut want = ys.clone();
            simd_x86::axpy(a, &xs, &mut got);
            portable::axpy(a, &xs, &mut want);
            assert_rows_bits_eq(&got, &want, "axpy");

            let mut got = ys.clone();
            let mut want = ys.clone();
            simd_x86::scale(&mut got, s);
            portable::scale(&mut want, s);
            assert_rows_bits_eq(&got, &want, "scale");

            let mut got = ys.clone();
            let mut want = ys.clone();
            simd_x86::scale_add(s, a, &xs, &mut got);
            portable::scale_add(s, a, &xs, &mut want);
            assert_rows_bits_eq(&got, &want, "scale_add");
        }
        let _ = (&xs, &ys, a, s);
    }

    /// Vectorized f16 widening agrees bitwise with the software
    /// conversion for arbitrary bit patterns (subnormals, infs, NaNs)
    /// at every remainder length and scale.
    #[test]
    fn widen_f16_matches_software(
        bits in prop::collection::vec(0u16..=u16::MAX, 0..17),
        pick in 0usize..3,
    ) {
        let scale = [1.0f32, 0.5, 3.0][pick];
        let src: Vec<F16> = bits.iter().map(|&b| F16(b)).collect();
        let mut got = vec![0.0f32; src.len()];
        numerics::widen_f16_into(&mut got, &src, scale);
        let want: Vec<f32> = src.iter().map(|h| h.to_f32() * scale).collect();
        assert_rows_bits_eq(&got, &want, "widen_f16");
    }

    /// Vectorized e4m3 widening agrees bitwise with the per-element
    /// conversion for all byte patterns, remainders, and scales.
    #[test]
    fn widen_e4m3_matches_software(
        bytes in prop::collection::vec(0u8..=u8::MAX, 0..17),
        pick in 0usize..3,
    ) {
        let scale = [1.0f32, 0.125, 3.5][pick];
        let src: Vec<F8E4M3> = bytes.iter().map(|&b| F8E4M3(b)).collect();
        let mut got = vec![0.0f32; src.len()];
        numerics::widen_e4m3_into(&mut got, &src, scale);
        let want: Vec<f32> = src.iter().map(|q| q.to_f32() * scale).collect();
        assert_rows_bits_eq(&got, &want, "widen_e4m3");
    }
}

/// Deterministic values with the awkward ones mixed in: a NaN, both
/// infinities, subnormals and signed zeros among ordinary magnitudes.
fn awkward(i: usize, salt: u64) -> f32 {
    let x = (i as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xD1B5_4A32_D192_ED03));
    match x >> 59 {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => 1.0e-41,
        4 => -0.0,
        _ => ((x >> 33) as f32 / (1u64 << 31) as f32 - 0.5) * 6.0,
    }
}

type DotBlockFn = fn(numerics::RowView<'_>, numerics::RowView<'_>, &mut [f32], usize);
type AxpyBlockFn = fn(numerics::RowView<'_>, numerics::RowView<'_>, &mut [f32], usize);

/// One arm's single-row kernels and the block kernels built over them.
struct Arm {
    name: &'static str,
    dot: fn(&[f32], &[f32]) -> f32,
    axpy: fn(f32, &[f32], &mut [f32]),
    dot_block: DotBlockFn,
    row_max: fn(&[f32]) -> f32,
    axpy_block: AxpyBlockFn,
}

/// The dispatched entry points (whatever arm is active, so the portable
/// loops under `FI_FORCE_SCALAR=1`) and, where the hardware has it, the
/// AVX2 kernels called directly.
fn arms() -> Vec<Arm> {
    let mut arms = vec![Arm {
        name: "dispatched",
        dot: numerics::dot,
        axpy: numerics::axpy,
        dot_block: numerics::dot_block,
        row_max: numerics::row_max,
        axpy_block: numerics::axpy_block,
    }];
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        use fi_tensor::simd_x86;
        arms.push(Arm {
            name: "avx2",
            dot: simd_x86::dot,
            axpy: simd_x86::axpy,
            dot_block: simd_x86::dot_block,
            row_max: simd_x86::row_max,
            axpy_block: simd_x86::axpy_block,
        });
    }
    arms
}

/// Odd and even row counts, a single row, and more rows than a block.
const BLOCK_SHAPES: [(usize, usize); 6] = [(1, 1), (2, 2), (3, 5), (4, 16), (5, 3), (1, 7)];

/// Every entry of a QKᵀ block carries the bits the arm's own `dot`
/// returns for that pair: all widths 0..=80 (every vector tail), padded
/// strides, odd state and key counts.
#[test]
fn dot_block_is_a_loop_of_the_arms_dot() {
    for arm in arms() {
        for width in 0..=80usize {
            for (shape, &(nq, nk)) in BLOCK_SHAPES.iter().enumerate() {
                let (qs, ks, os) = (width + shape % 3, width + 2 * (shape % 2), nk + shape % 4);
                let q: Vec<f32> = (0..nq * qs + 1)
                    .map(|i| awkward(i, 1 + width as u64))
                    .collect();
                let k: Vec<f32> = (0..nk * ks + 1)
                    .map(|i| awkward(i, 90 + width as u64))
                    .collect();
                let qv = numerics::RowView::new(&q, qs, nq, width);
                let kv = numerics::RowView::new(&k, ks, nk, width);
                let mut got = vec![7.0f32; nq * os];
                (arm.dot_block)(qv, kv, &mut got, os);
                for s in 0..nq {
                    for j in 0..nk {
                        let want = (arm.dot)(qv.row(s), kv.row(j));
                        assert!(
                            bits_eq(got[s * os + j], want),
                            "{} width {width} {nq}x{nk} at ({s},{j}): {:?} vs {want:?}",
                            arm.name,
                            got[s * os + j]
                        );
                    }
                    // Padding between output rows is left alone.
                    assert!(got[s * os + nk..(s + 1) * os].iter().all(|&x| x == 7.0));
                }
            }
        }
    }
}

/// `row_max` is the NaN-skipping `f32::max` fold at every length.
#[test]
fn row_max_is_the_f32_max_fold() {
    for arm in arms() {
        for n in 0..=80usize {
            for salt in 0..4u64 {
                // No signed zeros: their order under `max` is unspecified.
                let xs: Vec<f32> = (0..n)
                    .map(|i| awkward(i, salt * 100 + n as u64))
                    .map(|x| if x == 0.0 { 0.25 } else { x })
                    .map(|x| {
                        if salt == 3 && x == f32::INFINITY {
                            f32::NAN
                        } else {
                            x
                        }
                    })
                    .collect();
                let want = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let got = (arm.row_max)(&xs);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{} n {n} salt {salt}",
                    arm.name
                );
            }
        }
    }
    for arm in arms() {
        assert_eq!(
            (arm.row_max)(&[f32::NAN; 9]),
            f32::NEG_INFINITY,
            "{}",
            arm.name
        );
    }
}

/// A PV block is `axpy` per (state, unmasked key) in key order — bit
/// for bit, for every width 0..=80, padded strides, odd state and key
/// counts, and every mask pattern that matters (none, leading,
/// interior, trailing, all).
#[test]
fn axpy_block_is_a_loop_of_the_arms_axpy() {
    for arm in arms() {
        for width in 0..=80usize {
            for (shape, &(ns, nk)) in BLOCK_SHAPES.iter().enumerate() {
                let (xs, ws, ys) = (width + shape % 3, nk + shape % 2, width + 2 * (shape % 2));
                let x: Vec<f32> = (0..nk * xs + 1)
                    .map(|i| awkward(i, 7 + width as u64))
                    .collect();
                let xv = numerics::RowView::new(&x, xs, nk, width);
                let y0: Vec<f32> = (0..ns * ys + 1)
                    .map(|i| awkward(i, 300 + shape as u64))
                    .collect();
                let w: Vec<f32> = (0..ns * ws + 1)
                    .map(|i| {
                        let (s, j) = (i / ws, i % ws);
                        let masked = match (s + shape) % 5 {
                            0 => false,
                            1 => j == 0,
                            2 => j % 3 == 1,
                            3 => j + 1 == nk,
                            _ => true,
                        };
                        if masked {
                            f32::NEG_INFINITY
                        } else {
                            // exp() results: non-negative, zero included.
                            awkward(i, 11).abs().min(3.0) * (j % 4) as f32
                        }
                    })
                    .collect();
                let wv = numerics::RowView::new(&w, ws, ns, nk);

                let mut got = y0.clone();
                (arm.axpy_block)(wv, xv, &mut got, ys);

                let mut want = y0.clone();
                for s in 0..ns {
                    for (j, &wj) in wv.row(s).iter().enumerate() {
                        if wj != f32::NEG_INFINITY {
                            (arm.axpy)(wj, xv.row(j), &mut want[s * ys..][..width]);
                        }
                    }
                }
                // Padding between the rows of `y` included: left alone.
                let what = format!("{} width {width} {ns}x{nk}", arm.name);
                assert_rows_bits_eq(&got, &want, &what);
            }
        }
    }
}
