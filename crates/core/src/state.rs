//! Attention states and the ⊕ composition operator (§2.2).
//!
//! For a query `q` and an index set `I` of KV positions, the *attention
//! state* is the pair `(O(I), LSE(I))` of attention output and attention
//! scale (Eq. 1–2 of the paper). States over disjoint index sets compose
//! with the associative, commutative operator ⊕:
//!
//! ```text
//! O(I ∪ J)   = (e^{LSE(I)} O(I) + e^{LSE(J)} O(J)) / (e^{LSE(I)} + e^{LSE(J)})
//! LSE(I ∪ J) = log(e^{LSE(I)} + e^{LSE(J)})
//! ```
//!
//! FlashInfer treats the state as *the* canonical output of an attention
//! kernel — the analog of a partial sum in GEMM split-K — which is what
//! makes load-balanced KV chunking (§3.3.1) and composable formats (§3.1.2)
//! deterministic and order-flexible.
//!
//! On every execution path a state is a flat `(o, lse)` slice pair — the
//! kernel scratch's outputs, a workspace slot, the cascade accumulator —
//! and ⊕ is [`merge_into`], in place on the left operand. Variants that
//! disable softmax (e.g. FlashSigmoid) compose with plain summation
//! instead: [`merge_sum_into`]. [`AttentionState`] is the owned-value form
//! for callers that merge by hand; its methods go through the same two
//! functions, so each formula exists once.

/// ⊕ in place (softmax semantics): fold the state `(o, lse)` into
/// `(acc_o, acc_lse)`. The scale-aware formulation never exponentiates
/// anything positive, so it is stable for large `lse`. An identity
/// accumulator (`acc_lse == -inf`) takes the right operand whole, its LSE
/// included; an identity right operand changes nothing.
///
/// # Panics
///
/// Panics if dimensions differ.
pub fn merge_into(acc_o: &mut [f32], acc_lse: &mut f32, o: &[f32], lse: f32) {
    assert_eq!(acc_o.len(), o.len(), "state dimension mismatch");
    if *acc_lse == f32::NEG_INFINITY {
        acc_o.copy_from_slice(o);
        *acc_lse = lse;
        return;
    }
    if lse == f32::NEG_INFINITY {
        return;
    }
    let m = acc_lse.max(lse);
    let wa = (*acc_lse - m).exp();
    let wb = (lse - m).exp();
    let denom = wa + wb;
    for (a, &b) in acc_o.iter_mut().zip(o) {
        *a = (wa * *a + wb * b) / denom;
    }
    *acc_lse = m + denom.ln();
}

/// ⊕ in place with summation semantics (non-softmax variants): outputs
/// add; such states carry no scale (their LSE stays `-inf`).
///
/// # Panics
///
/// Panics if dimensions differ.
pub fn merge_sum_into(acc_o: &mut [f32], o: &[f32]) {
    assert_eq!(acc_o.len(), o.len(), "state dimension mismatch");
    for (a, &b) in acc_o.iter_mut().zip(o) {
        *a += b;
    }
}

/// The attention state of one (query row, head): output vector + log-sum-exp
/// scale.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AttentionState {
    /// Attention output `O(I)`, length = head dimension.
    pub o: Vec<f32>,
    /// Attention scale `LSE(I)` in natural log units.
    pub lse: f32,
}

impl AttentionState {
    /// The identity of ⊕: the state of the empty index set
    /// (`O = 0`, `LSE = -inf`).
    pub fn identity(dim: usize) -> AttentionState {
        AttentionState {
            o: vec![0.0; dim],
            lse: f32::NEG_INFINITY,
        }
    }

    /// True if this is (numerically) the empty-set state.
    pub fn is_identity(&self) -> bool {
        self.lse == f32::NEG_INFINITY
    }

    /// Compose with another state over a disjoint index set (softmax
    /// semantics): [`merge_into`] on a copy of `self`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn merge(&self, other: &AttentionState) -> AttentionState {
        let mut acc = self.clone();
        merge_into(&mut acc.o, &mut acc.lse, &other.o, other.lse);
        acc
    }

    /// Compose with summation semantics (non-softmax variants):
    /// [`merge_sum_into`] on a copy of `self`; the scale field is ignored
    /// and kept at `-inf`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn merge_sum(&self, other: &AttentionState) -> AttentionState {
        let mut o = self.o.clone();
        merge_sum_into(&mut o, &other.o);
        AttentionState {
            o,
            lse: f32::NEG_INFINITY,
        }
    }

    /// Merge a sequence of states (softmax semantics) as a left fold in
    /// the given order. Because ⊕ is associative and commutative the
    /// result is order-independent up to floating-point rounding.
    pub fn merge_all<'a>(
        dim: usize,
        states: impl IntoIterator<Item = &'a AttentionState>,
    ) -> AttentionState {
        let mut acc = AttentionState::identity(dim);
        for s in states {
            merge_into(&mut acc.o, &mut acc.lse, &s.o, s.lse);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_tensor::numerics::allclose;

    fn state(o: &[f32], lse: f32) -> AttentionState {
        AttentionState { o: o.to_vec(), lse }
    }

    /// Compute a state directly from logits and values.
    fn from_logits(logits: &[f32], values: &[Vec<f32>]) -> AttentionState {
        let dim = values[0].len();
        let lse = fi_tensor::numerics::log_sum_exp(logits);
        let mut o = vec![0.0; dim];
        for (l, v) in logits.iter().zip(values) {
            let w = (l - lse).exp();
            for (oo, &vv) in o.iter_mut().zip(v) {
                *oo += w * vv;
            }
        }
        AttentionState { o, lse }
    }

    #[test]
    fn merge_equals_direct_computation() {
        let logits = [0.3f32, -1.2, 2.5, 0.9];
        let values: Vec<Vec<f32>> = vec![
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![2.0, -1.0],
            vec![0.5, 0.5],
        ];
        let whole = from_logits(&logits, &values);
        let a = from_logits(&logits[..2], &values[..2]);
        let b = from_logits(&logits[2..], &values[2..]);
        let merged = a.merge(&b);
        assert!(allclose(&merged.o, &whole.o, 1e-5, 1e-6));
        assert!((merged.lse - whole.lse).abs() < 1e-5);
    }

    #[test]
    fn identity_laws() {
        let id = AttentionState::identity(3);
        let s = state(&[1.0, 2.0, 3.0], 0.7);
        assert_eq!(id.merge(&s), s);
        assert_eq!(s.merge(&id), s);
        assert!(id.merge(&id).is_identity());
    }

    #[test]
    fn commutativity() {
        let a = state(&[1.0, -2.0], 1.3);
        let b = state(&[0.5, 4.0], -0.2);
        let ab = a.merge(&b);
        let ba = b.merge(&a);
        assert!(allclose(&ab.o, &ba.o, 1e-6, 1e-7));
        assert!((ab.lse - ba.lse).abs() < 1e-6);
    }

    #[test]
    fn associativity() {
        let a = state(&[1.0], 0.0);
        let b = state(&[2.0], 1.0);
        let c = state(&[3.0], -1.0);
        let l = a.merge(&b).merge(&c);
        let r = a.merge(&b.merge(&c));
        assert!(allclose(&l.o, &r.o, 1e-5, 1e-6));
        assert!((l.lse - r.lse).abs() < 1e-5);
    }

    #[test]
    fn stability_for_huge_scales() {
        // Naive exp(lse) would overflow.
        let a = state(&[1.0], 10_000.0);
        let b = state(&[3.0], 10_000.0);
        let m = a.merge(&b);
        assert!((m.o[0] - 2.0).abs() < 1e-6);
        assert!((m.lse - (10_000.0 + 2f32.ln())).abs() < 1e-2);
    }

    #[test]
    fn merge_sum_semantics() {
        let a = state(&[1.0, 2.0], f32::NEG_INFINITY);
        let b = state(&[0.5, -1.0], f32::NEG_INFINITY);
        let s = a.merge_sum(&b);
        assert_eq!(s.o, vec![1.5, 1.0]);
        assert!(s.is_identity());
    }

    /// ⊕ written out here, independently of the code under test.
    fn formula(a: &AttentionState, b: &AttentionState) -> AttentionState {
        if a.lse == f32::NEG_INFINITY {
            return b.clone();
        }
        if b.lse == f32::NEG_INFINITY {
            return a.clone();
        }
        let m = a.lse.max(b.lse);
        let (wa, wb) = ((a.lse - m).exp(), (b.lse - m).exp());
        AttentionState {
            o: (a.o.iter().zip(&b.o))
                .map(|(&x, &y)| (wa * x + wb * y) / (wa + wb))
                .collect(),
            lse: m + (wa + wb).ln(),
        }
    }

    /// Bit equality, any NaN equal to any NaN.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    fn all_same(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| same(x, y))
    }

    #[test]
    fn slice_merge_is_the_formula_bit_for_bit() {
        let id = AttentionState::identity(2);
        let cases = [
            state(&[1.0, -2.0], 1.3),
            state(&[0.5, 4.0], -0.2),
            state(&[0.3, 0.7], 1.3), // equal LSEs
            state(&[1.0, 3.0], 10_000.0),
            state(&[-2.5, 0.1], 10_000.0),
            state(&[f32::NAN, 1.0], 0.4),
            state(&[1.0, 2.0], f32::NAN),
            state(&[9.0, 9.0], f32::NEG_INFINITY), // an identity with stale outputs
            id.clone(),
        ];
        for a in &cases {
            for b in &cases {
                let want = formula(a, b);
                let (mut o, mut lse) = (a.o.clone(), a.lse);
                merge_into(&mut o, &mut lse, &b.o, b.lse);
                let owned = a.merge(b);
                assert!(same(lse, want.lse) && same(owned.lse, want.lse));
                assert!(all_same(&o, &want.o) && all_same(&owned.o, &want.o));

                let want = [a.o[0] + b.o[0], a.o[1] + b.o[1]];
                let mut sum = a.o.clone();
                merge_sum_into(&mut sum, &b.o);
                let owned = a.merge_sum(b);
                assert!(owned.is_identity());
                assert!(all_same(&sum, &want) && all_same(&owned.o, &want));
            }
        }
        // −inf ⊕ −inf stays the identity, and the right operand's outputs win.
        assert!(formula(&id, &cases[7]).is_identity());
        assert_eq!(id.merge(&cases[7]).o, vec![9.0, 9.0]);
    }

    #[test]
    fn merge_all_matches_pairwise() {
        let states: Vec<AttentionState> = (0..5)
            .map(|i| state(&[i as f32, 1.0], i as f32 * 0.3 - 1.0))
            .collect();
        let all = AttentionState::merge_all(2, &states);
        let mut acc = AttentionState::identity(2);
        for s in &states {
            acc = acc.merge(s);
        }
        assert!(allclose(&all.o, &acc.o, 1e-6, 1e-7));
    }
}
