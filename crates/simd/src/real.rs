//! Scalar floating-point abstraction.
//!
//! The paper runs Airfoil in both single and double precision from one
//! source; OP2 threads the element type through its code generator as the
//! `"typ"` string of each `op_arg_dat`. The [`Real`] trait plays that role
//! here: kernels and loop drivers are generic over `R: Real`, and the SIMD
//! lane count adapts to `R::BYTES` (4 doubles vs 8 floats per AVX register).

use std::cell::Cell;
use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A scalar floating-point element type (`f32` or `f64`).
///
/// Everything an unstructured-mesh kernel needs from its element type:
/// arithmetic, a square root (the paper's `adt_calc`/`compute_flux`
/// transcendental), min/max (CFL time-step reductions), fused
/// multiply-add, and conversions for setting constants from `f64` literals.
pub trait Real:
    Copy
    + PartialOrd
    + Default
    + Debug
    + Display
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// One half.
    const HALF: Self;
    /// Positive infinity (identity of the `min` reduction).
    const INFINITY: Self;
    /// Size of the element in bytes (4 or 8); drives SIMD lane counts and
    /// the per-kernel byte accounting of paper Tables II/III.
    const BYTES: usize;
    /// OP2-style type name (`"float"` / `"double"`), used in diagnostics.
    const NAME: &'static str;

    /// Lossy conversion from an `f64` literal (used for physics constants).
    fn from_f64(x: f64) -> Self;
    /// Widening conversion to `f64` (used for diagnostics and residuals).
    fn to_f64(self) -> f64;
    /// Conversion from a usize (e.g. for averaging by element count).
    fn from_usize(n: usize) -> Self {
        Self::from_f64(n as f64)
    }
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Lane-wise minimum (IEEE `min`).
    fn min(self, other: Self) -> Self;
    /// Lane-wise maximum (IEEE `max`).
    fn max(self, other: Self) -> Self;
    /// Fused multiply-add `self * b + c`.
    fn mul_add(self, b: Self, c: Self) -> Self;
    /// `true` when the value is finite (not NaN/∞) — used by validators.
    fn is_finite(self) -> bool;
    /// Run `f` on the first `len` values of this thread's reusable
    /// scratch buffer (contents unspecified). The buffer grows to the
    /// largest `len` seen on the thread and is then reused, so callers
    /// past warm-up allocate nothing; it backs the in-place layout
    /// conversion of `OpDat::set_layout`. A nested call gets a fresh
    /// buffer instead of aliasing the outer one.
    fn with_scratch<T>(len: usize, f: impl FnOnce(&mut [Self]) -> T) -> T;
}

macro_rules! impl_real {
    ($t:ty, $bytes:expr, $name:expr) => {
        impl Real for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const HALF: Self = 0.5;
            const INFINITY: Self = <$t>::INFINITY;
            const BYTES: usize = $bytes;
            const NAME: &'static str = $name;

            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline(always)]
            fn mul_add(self, b: Self, c: Self) -> Self {
                <$t>::mul_add(self, b, c)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            fn with_scratch<T>(len: usize, f: impl FnOnce(&mut [Self]) -> T) -> T {
                thread_local! {
                    static SCRATCH: Cell<Vec<$t>> = const { Cell::new(Vec::new()) };
                }
                SCRATCH.with(|cell| {
                    let mut buf = cell.take();
                    if buf.len() < len {
                        buf = vec![0.0; len];
                    }
                    let out = f(&mut buf[..len]);
                    cell.set(buf);
                    out
                })
            }
        }
    };
}

impl_real!(f32, 4, "float");
impl_real!(f64, 8, "double");

#[cfg(test)]
mod tests {
    use super::*;

    fn generic_roundtrip<R: Real>() {
        let x = R::from_f64(2.25);
        assert_eq!(x.to_f64(), 2.25);
        assert_eq!((x * x).sqrt().to_f64(), 2.25);
        assert_eq!(R::ZERO + R::ONE, R::ONE);
        assert!(R::INFINITY.min(x) == x);
        assert!((-x).abs() == x);
        assert!(x.is_finite());
        assert!(!R::INFINITY.is_finite());
    }

    #[test]
    fn f32_ops() {
        generic_roundtrip::<f32>();
        assert_eq!(f32::BYTES, 4);
        assert_eq!(f32::NAME, "float");
    }

    #[test]
    fn f64_ops() {
        generic_roundtrip::<f64>();
        assert_eq!(f64::BYTES, 8);
        assert_eq!(f64::NAME, "double");
    }

    #[test]
    fn fma_matches_expanded_form_exactly_on_powers_of_two() {
        // With power-of-two operands FMA and mul+add round identically.
        assert_eq!(2.0f64.mul_add(4.0, 1.0), 9.0);
        assert_eq!(2.0f32.mul_add(4.0, 1.0), 9.0);
    }

    #[test]
    fn from_usize_is_exact_for_small_counts() {
        assert_eq!(f64::from_usize(1_000_000), 1.0e6);
        assert_eq!(f32::from_usize(4096), 4096.0);
    }
}
