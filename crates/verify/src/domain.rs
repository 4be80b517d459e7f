//! Abstract domain of the verifier: strided intervals and the abstract
//! values tracked per register.
//!
//! The domain is tuned to the code the in-tree generators emit — masked
//! indices (`andi x, y, 2^k-1`), up-counting `blt` loops, down-counting
//! `bne` loops, and straight-line `addi sp/tp` frame arithmetic — so
//! those idioms stay *bounded* through the analysis. Everything the
//! domain cannot bound collapses to an unbounded interval or
//! [`AbsVal::Top`], and the lint passes only ever report findings on
//! bounded facts, keeping the suite free of false positives on the
//! workload corpus.

use std::fmt;

/// A strided interval `{lo, lo+stride, …, hi}`.
///
/// `None` bounds mean unbounded on that side. `stride == 0` iff the
/// interval is a singleton; unbounded intervals drop stride information
/// (`stride == 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SInt {
    /// Lower bound (`None` = −∞).
    pub lo: Option<i64>,
    /// Upper bound (`None` = +∞).
    pub hi: Option<i64>,
    /// Distance between member values (0 = singleton, 1 = dense).
    pub stride: u64,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl SInt {
    /// The full interval (no information).
    pub fn top() -> SInt {
        SInt {
            lo: None,
            hi: None,
            stride: 1,
        }
    }

    /// The singleton `{c}`.
    pub fn val(c: i64) -> SInt {
        SInt {
            lo: Some(c),
            hi: Some(c),
            stride: 0,
        }
    }

    /// A dense interval `[lo, hi]`.
    pub fn range(lo: i64, hi: i64) -> SInt {
        SInt {
            lo: Some(lo),
            hi: Some(hi),
            stride: if lo == hi { 0 } else { 1 },
        }
    }

    fn normalized(mut self) -> SInt {
        match (self.lo, self.hi) {
            (Some(l), Some(h)) => {
                debug_assert!(l <= h);
                if l == h {
                    self.stride = 0;
                } else if self.stride == 0 {
                    self.stride = 1;
                }
            }
            // A known lower bound anchors the residue class, so the
            // stride stays meaningful on half-bounded intervals (the
            // shape widening gives an up-counting loop variable).
            (Some(_), None) => {
                if self.stride == 0 {
                    self.stride = 1;
                }
            }
            _ => self.stride = 1,
        }
        self
    }

    /// The single member value, if this is a singleton.
    pub fn singleton(&self) -> Option<i64> {
        match (self.lo, self.hi) {
            (Some(l), Some(h)) if l == h => Some(l),
            _ => None,
        }
    }

    /// Both bounds known.
    pub fn is_bounded(&self) -> bool {
        self.lo.is_some() && self.hi.is_some()
    }

    /// Whether `v` may be a member.
    pub fn contains(&self, v: i64) -> bool {
        if self.lo.is_some_and(|l| v < l) || self.hi.is_some_and(|h| v > h) {
            return false;
        }
        match (self.lo, self.stride) {
            // i128 keeps the residue test exact when `v - l` would
            // overflow i64 (e.g. lo near i64::MIN, v near i64::MAX).
            (Some(l), s) if s > 1 => (v as i128 - l as i128) % s as i128 == 0,
            (Some(l), 0) => v == l,
            _ => true,
        }
    }

    /// Least upper bound of two intervals.
    pub fn join(&self, other: &SInt) -> SInt {
        let lo = match (self.lo, other.lo) {
            (Some(a), Some(b)) => Some(a.min(b)),
            _ => None,
        };
        let hi = match (self.hi, other.hi) {
            (Some(a), Some(b)) => Some(a.max(b)),
            _ => None,
        };
        let stride = match (self.lo, other.lo) {
            (Some(a), Some(b)) => gcd(gcd(self.stride, other.stride), a.abs_diff(b)),
            _ => 1,
        };
        SInt { lo, hi, stride }.normalized()
    }

    /// Widening: bounds that grew since `prev` go to ±∞.
    pub fn widen_from(&self, prev: &SInt) -> SInt {
        let lo = match (prev.lo, self.lo) {
            (Some(p), Some(n)) if n >= p => Some(n),
            _ => None,
        };
        let hi = match (prev.hi, self.hi) {
            (Some(p), Some(n)) if n <= p => Some(n),
            _ => None,
        };
        SInt {
            lo,
            hi,
            stride: if lo.is_some() {
                gcd(self.stride, prev.stride)
            } else {
                1
            },
        }
        .normalized()
    }

    fn map2(&self, other: &SInt, f: impl Fn(i64, i64) -> Option<i64>) -> SInt {
        // Interval arithmetic over the bound pairs; any overflow → Top.
        let combos = |a: Option<i64>, b: Option<i64>| -> Option<i64> {
            match (a, b) {
                (Some(a), Some(b)) => f(a, b),
                _ => None,
            }
        };
        let c = [
            combos(self.lo, other.lo),
            combos(self.lo, other.hi),
            combos(self.hi, other.lo),
            combos(self.hi, other.hi),
        ];
        if self.is_bounded() && other.is_bounded() && c.iter().all(|v| v.is_some()) {
            let vals: Vec<i64> = c.iter().map(|v| v.unwrap()).collect();
            SInt {
                lo: vals.iter().min().copied(),
                hi: vals.iter().max().copied(),
                stride: 1,
            }
            .normalized()
        } else {
            SInt::top()
        }
    }

    /// Abstract addition.
    pub fn add(&self, other: &SInt) -> SInt {
        let lo = match (self.lo, other.lo) {
            (Some(a), Some(b)) => a.checked_add(b),
            _ => None,
        };
        let hi = match (self.hi, other.hi) {
            (Some(a), Some(b)) => a.checked_add(b),
            _ => None,
        };
        if (self.lo.is_some() && other.lo.is_some()) != lo.is_some()
            || (self.hi.is_some() && other.hi.is_some()) != hi.is_some()
        {
            return SInt::top(); // overflow
        }
        SInt {
            lo,
            hi,
            stride: if lo.is_some() {
                gcd(self.stride, other.stride)
            } else {
                1
            },
        }
        .normalized()
    }

    /// Abstract subtraction.
    pub fn sub(&self, other: &SInt) -> SInt {
        self.add(&other.neg())
    }

    /// Abstract negation.
    pub fn neg(&self) -> SInt {
        SInt {
            lo: self.hi.and_then(|h| h.checked_neg()),
            hi: self.lo.and_then(|l| l.checked_neg()),
            stride: self.stride,
        }
        .normalized()
    }

    /// Abstract multiplication (precise scaling by a constant; interval
    /// product otherwise).
    pub fn mul(&self, other: &SInt) -> SInt {
        if let Some(c) = other.singleton() {
            return self.scale(c);
        }
        if let Some(c) = self.singleton() {
            return other.scale(c);
        }
        self.map2(other, |a, b| a.checked_mul(b))
    }

    fn scale(&self, c: i64) -> SInt {
        if c == 0 {
            return SInt::val(0);
        }
        let a = self.lo.and_then(|l| l.checked_mul(c));
        let b = self.hi.and_then(|h| h.checked_mul(c));
        let (lo, hi) = if c > 0 { (a, b) } else { (b, a) };
        if (self.lo.is_some() != a.is_some()) || (self.hi.is_some() != b.is_some()) {
            return SInt::top();
        }
        SInt {
            lo,
            hi,
            stride: if lo.is_some() {
                self.stride.saturating_mul(c.unsigned_abs())
            } else {
                1
            },
        }
        .normalized()
    }

    /// Abstract left shift by a singleton amount.
    pub fn shl(&self, amount: &SInt) -> SInt {
        match amount.singleton() {
            Some(s) if (0..63).contains(&s) => self.scale(1i64 << s),
            _ => SInt::top(),
        }
    }

    /// Abstract logical right shift by a singleton amount
    /// (non-negative intervals only — the generators never shift
    /// negative values right).
    pub fn lshr(&self, amount: &SInt) -> SInt {
        let s = match amount.singleton() {
            Some(s) if (0..63).contains(&s) => s as u32,
            _ => return SInt::top(),
        };
        match (self.lo, self.hi) {
            (Some(l), Some(h)) if l >= 0 => {
                let stride = if self.stride.is_multiple_of(1u64 << s) {
                    self.stride >> s
                } else {
                    1
                };
                SInt {
                    lo: Some(l >> s),
                    hi: Some(h >> s),
                    stride,
                }
                .normalized()
            }
            _ => SInt::top(),
        }
    }

    /// Abstract bitwise AND with a singleton mask.
    ///
    /// * non-negative mask `m` (the index idiom `andi x, y, 2^k-1`):
    ///   the result lies in `[0, m]`,
    /// * negative mask `!(g-1)` with `g` a power of two (the align-down
    ///   idiom): non-negative inputs round down to a multiple of `g`.
    pub fn and_mask(&self, mask: i64) -> SInt {
        if mask >= 0 {
            if let Some(c) = self.singleton() {
                return SInt::val(c & mask);
            }
            // Result ⊆ [0, mask] regardless of the input.
            match (self.lo, self.hi) {
                // If already within [0, mask], the AND is the identity.
                (Some(l), Some(h)) if l >= 0 && h <= mask => *self,
                // A power-of-two mask is a modulo: when the stride
                // divides the modulus, the residue class survives the
                // AND, so a known lower bound pins the phase and the
                // stride carries over (e.g. a byte cursor advancing by
                // 8 stays a multiple of 8 after `& (SIZE-1)`).
                (Some(l), _)
                    if self.stride > 1
                        && (mask as u64 + 1).is_power_of_two()
                        && (mask as u64 + 1).is_multiple_of(self.stride) =>
                {
                    let s = self.stride as i64;
                    let r = l.rem_euclid(s);
                    SInt {
                        lo: Some(r),
                        hi: Some(r + (mask - r) / s * s),
                        stride: self.stride,
                    }
                    .normalized()
                }
                _ => SInt::range(0, mask),
            }
        } else {
            let g = mask.wrapping_neg() as u64; // !(g-1) == -g
            if !g.is_power_of_two() {
                return SInt::top();
            }
            match (self.lo, self.hi) {
                // mask == i64::MIN gives g == 2^63, which doesn't fit
                // i64 — but every non-negative i64 is < 2^63, so the
                // align-down collapses to zero exactly.
                (Some(l), Some(_)) if l >= 0 && g > i64::MAX as u64 => SInt::val(0),
                (Some(l), Some(h)) if l >= 0 => {
                    let gi = g as i64;
                    SInt {
                        lo: Some(l / gi * gi),
                        hi: Some(h / gi * gi),
                        stride: g,
                    }
                    .normalized()
                }
                _ => SInt::top(),
            }
        }
    }

    /// Intersects with `[min, max]` (either side optional), snapping the
    /// new bounds onto the stride lattice anchored at the old `lo`.
    /// Returns `None` when the refinement is empty (infeasible edge).
    pub fn clamp(&self, min: Option<i64>, max: Option<i64>) -> Option<SInt> {
        let mut lo = match (self.lo, min) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        let mut hi = match (self.hi, max) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        // Snap onto the stride lattice (values ≡ old lo mod stride).
        // All snap arithmetic runs in i128: `l - anchor` overflows i64
        // when the bounds straddle the extremes, and the snapped bound
        // itself can land outside i64 — in which case no member of the
        // residue class exists on that side and the edge is infeasible.
        if let (Some(anchor), s) = (self.lo, self.stride) {
            if s > 1 {
                let s = s as i128;
                if let Some(l) = lo {
                    let rem = (l as i128 - anchor as i128).rem_euclid(s);
                    if rem != 0 {
                        match i64::try_from(l as i128 + (s - rem)) {
                            Ok(snapped) => lo = Some(snapped),
                            Err(_) => return None,
                        }
                    }
                }
                if let Some(h) = hi {
                    let rem = (h as i128 - anchor as i128).rem_euclid(s);
                    match i64::try_from(h as i128 - rem) {
                        Ok(snapped) => hi = Some(snapped),
                        Err(_) => return None,
                    }
                }
            }
        }
        if let (Some(l), Some(h)) = (lo, hi) {
            if l > h {
                return None;
            }
        }
        Some(
            SInt {
                lo,
                hi,
                stride: self.stride.max(if self.is_bounded() { 0 } else { 1 }),
            }
            .normalized(),
        )
    }
}

impl fmt::Display for SInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(c) = self.singleton() {
            return write!(f, "{c}");
        }
        match self.lo {
            Some(l) => write!(f, "[{l}, ")?,
            None => write!(f, "[-inf, ")?,
        }
        match self.hi {
            Some(h) => write!(f, "{h}]")?,
            None => write!(f, "+inf]")?,
        }
        if self.stride > 1 {
            write!(f, "/{}", self.stride)?;
        }
        Ok(())
    }
}

/// Identifier of a static allocation site (one per `ecall` PC that
/// allocates).
pub type SiteId = usize;

/// Abstract value of one register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsVal {
    /// Never written on any path (program-entry registers only).
    Undef,
    /// A number; `delta` taints differences of pointers into distinct
    /// allocations (the §V-C "jump over the redzone" stride idiom).
    Num {
        /// Value interval.
        val: SInt,
        /// Cross-allocation pointer-difference taint.
        delta: bool,
    },
    /// A pointer into allocation `site` at byte offset `off`.
    Ptr {
        /// The allocation site the pointer derives from.
        site: SiteId,
        /// Byte-offset interval from the allocation base.
        off: SInt,
        /// Offset was derived from a cross-allocation difference.
        delta: bool,
    },
    /// Function-entry `sp` plus a byte offset.
    SpRel {
        /// Byte-offset interval from the frame anchor.
        off: SInt,
    },
    /// No information.
    Top,
}

impl AbsVal {
    /// A plain (untainted) numeric value.
    pub fn num(val: SInt) -> AbsVal {
        AbsVal::Num { val, delta: false }
    }

    /// The singleton number `c`.
    pub fn val(c: i64) -> AbsVal {
        AbsVal::num(SInt::val(c))
    }

    /// Whether this value carries the cross-allocation taint.
    pub fn is_delta(&self) -> bool {
        matches!(
            self,
            AbsVal::Num { delta: true, .. } | AbsVal::Ptr { delta: true, .. }
        )
    }

    /// Least upper bound.
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        use AbsVal::*;
        match (self, other) {
            (a, b) if a == b => *a,
            (Undef, Undef) => Undef,
            // Undef joined with anything defined: the register may be
            // read uninitialised — keep Undef so the lint sees it.
            (Undef, _) | (_, Undef) => Undef,
            (Num { val: a, delta: d1 }, Num { val: b, delta: d2 }) => Num {
                val: a.join(b),
                delta: *d1 || *d2,
            },
            (
                Ptr {
                    site: s1,
                    off: o1,
                    delta: d1,
                },
                Ptr {
                    site: s2,
                    off: o2,
                    delta: d2,
                },
            ) if s1 == s2 => Ptr {
                site: *s1,
                off: o1.join(o2),
                delta: *d1 || *d2,
            },
            (SpRel { off: a }, SpRel { off: b }) => SpRel { off: a.join(b) },
            _ => Top,
        }
    }

    /// Widening against the previous fixpoint iterate.
    pub fn widen_from(&self, prev: &AbsVal) -> AbsVal {
        use AbsVal::*;
        match (self, prev) {
            (Num { val: n, delta }, Num { val: p, .. }) => Num {
                val: n.widen_from(p),
                delta: *delta,
            },
            (
                Ptr {
                    site,
                    off: n,
                    delta,
                    ..
                },
                Ptr {
                    site: ps, off: p, ..
                },
            ) if site == ps => Ptr {
                site: *site,
                off: n.widen_from(p),
                delta: *delta,
            },
            (SpRel { off: n }, SpRel { off: p }) => SpRel {
                off: n.widen_from(p),
            },
            _ => *self,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_tracks_strides() {
        // The heap-sweep idiom: {0} ⊔ [8, 504]/8 = [0, 504]/8.
        let head = SInt::val(0).join(&SInt {
            lo: Some(8),
            hi: Some(504),
            stride: 8,
        });
        assert_eq!(head.lo, Some(0));
        assert_eq!(head.hi, Some(504));
        assert_eq!(head.stride, 8);
        assert!(head.contains(64));
        assert!(!head.contains(65));
    }

    #[test]
    fn widening_drops_growing_bounds() {
        let prev = SInt::range(0, 10);
        let grown = SInt::range(0, 20);
        let w = grown.widen_from(&prev);
        assert_eq!(w.lo, Some(0));
        assert_eq!(w.hi, None);
        // Stable bounds survive widening.
        let same = SInt::range(0, 10).widen_from(&prev);
        assert_eq!(same, SInt::range(0, 10));
    }

    #[test]
    fn and_mask_bounds_indices() {
        // andi x, y, 8191 on an unknown value → [0, 8191].
        let masked = SInt::top().and_mask(8191);
        assert_eq!(masked, SInt::range(0, 8191));
        // Align-down of [0, 1023] by 64 → [0, 960]/64.
        let aligned = SInt::range(0, 1023).and_mask(!63);
        assert_eq!(aligned.lo, Some(0));
        assert_eq!(aligned.hi, Some(960));
        assert_eq!(aligned.stride, 64);
        // Singleton align-up tail: 63 & !63 == 0.
        assert_eq!(SInt::val(63).and_mask(!63), SInt::val(0));
    }

    #[test]
    fn clamp_refines_and_detects_infeasible_edges() {
        // blt t0, 512 taken on [-inf, +inf] → [-inf, 511].
        let taken = SInt::top().clamp(None, Some(511)).unwrap();
        assert_eq!(taken.hi, Some(511));
        // Stride-snapping: [0, 504]/8 clamped to ≥ 3 starts at 8.
        let s = SInt::val(0).join(&SInt {
            lo: Some(8),
            hi: Some(504),
            stride: 8,
        });
        let c = s.clamp(Some(3), None).unwrap();
        assert_eq!(c.lo, Some(8));
        // Infeasible: {5} clamped to ≤ 4.
        assert!(SInt::val(5).clamp(None, Some(4)).is_none());
    }

    #[test]
    fn arithmetic_scales_strides() {
        let idx = SInt::range(0, 2047); // row*8 + k
        let byte = idx.shl(&SInt::val(3));
        assert_eq!(byte.lo, Some(0));
        assert_eq!(byte.hi, Some(16376));
        assert_eq!(byte.stride, 8);
        let sum = byte.add(&SInt::val(16));
        assert_eq!(sum.lo, Some(16));
        assert_eq!(sum.hi, Some(16392));
    }

    #[test]
    fn clamp_survives_the_i64_extremes() {
        // Bounds straddling the extremes: `l - anchor` would overflow
        // i64 inside the stride snap.
        let wide = SInt {
            lo: Some(i64::MIN),
            hi: Some(i64::MAX),
            stride: 8,
        };
        // Members are ≡ i64::MIN ≡ 0 (mod 8); the next one at or above
        // i64::MAX - 10 is i64::MAX - 7.
        let c = wide.clamp(Some(i64::MAX - 10), None).unwrap();
        assert_eq!(c.lo, Some(i64::MAX - 7));
        // And above i64::MAX - 3 no member exists at all: the snapped
        // bound would pass i64::MAX, so the edge is infeasible.
        assert!(wide.clamp(Some(i64::MAX - 3), None).is_none());
        // Snapping the lower bound up past i64::MAX: no member exists.
        let high = SInt {
            lo: Some(i64::MAX - 9),
            hi: Some(i64::MAX),
            stride: 16,
        };
        assert!(high.clamp(Some(i64::MAX - 5), None).is_none());
        // Snapping the upper bound down past i64::MIN: no member either.
        let low = SInt {
            lo: Some(i64::MIN + 7),
            hi: Some(i64::MIN + 7),
            stride: 0,
        };
        assert!(low.clamp(None, Some(i64::MIN + 3)).is_none());
    }

    #[test]
    fn contains_is_exact_across_the_full_range() {
        let wide = SInt {
            lo: Some(i64::MIN),
            hi: Some(i64::MAX),
            stride: 2,
        };
        // i64::MIN is even and i64::MAX is odd: membership must not
        // wrap. (A raw `v - l` here overflows and flips the answer.)
        assert!(wide.contains(i64::MIN));
        assert!(!wide.contains(i64::MAX));
        assert!(wide.contains(0));
    }

    #[test]
    fn and_mask_handles_the_sign_bit_mask() {
        // mask == i64::MIN is align-down by 2^63: every non-negative
        // value collapses to 0.
        let v = SInt::range(0, 123_456);
        assert_eq!(v.and_mask(i64::MIN), SInt::val(0));
        // Negative inputs stay Top (the idiom only covers align-down of
        // non-negative cursors).
        assert_eq!(SInt::range(-5, 5).and_mask(i64::MIN), SInt::top());
    }

    #[test]
    fn arithmetic_saturates_to_top_at_the_extremes() {
        let max = SInt::val(i64::MAX);
        assert_eq!(max.add(&SInt::val(1)), SInt::top());
        // Negating i64::MIN has no i64 representation: the bound is
        // dropped rather than wrapped.
        let min = SInt {
            lo: Some(i64::MIN),
            hi: Some(0),
            stride: 1,
        };
        let n = min.neg();
        assert_eq!(n.lo, Some(0));
        assert_eq!(n.hi, None);
        assert_eq!(SInt::val(i64::MIN).mul(&SInt::val(-1)), SInt::top());
    }

    #[test]
    fn joins_of_values_respect_sites_and_taint() {
        let p1 = AbsVal::Ptr {
            site: 0,
            off: SInt::val(0),
            delta: false,
        };
        let p2 = AbsVal::Ptr {
            site: 0,
            off: SInt::val(8),
            delta: true,
        };
        match p1.join(&p2) {
            AbsVal::Ptr { site, off, delta } => {
                assert_eq!(site, 0);
                assert!(delta);
                assert_eq!(off.lo, Some(0));
                assert_eq!(off.hi, Some(8));
            }
            other => panic!("{other:?}"),
        }
        let p3 = AbsVal::Ptr {
            site: 1,
            off: SInt::val(0),
            delta: false,
        };
        assert_eq!(p1.join(&p3), AbsVal::Top);
        assert_eq!(p1.join(&AbsVal::Undef), AbsVal::Undef);
    }
}
