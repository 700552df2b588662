//! Virtual time represented as integer nanoseconds.
//!
//! Integer nanoseconds keep clock arithmetic exact and `Ord`-comparable;
//! cost models compute in `f64` seconds and round to the nearest nanosecond
//! on conversion.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or span of) virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The zero instant (simulation start).
    pub const ZERO: Time = Time(0);

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Time {
        Time(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Time {
        Time(us * 1_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Time {
        Time(ms * 1_000_000)
    }

    /// Construct from seconds expressed as `f64`.
    ///
    /// Negative or non-finite inputs are clamped to zero: cost models must
    /// never move a clock backwards. Rounds half away from zero, exactly as
    /// `(secs * 1e9).round() as u64`, without the libm call: below 2^53 the
    /// truncation and the fraction are exact, from 2^52 up every double is
    /// an integer, and from 2^64 up both forms saturate.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Time {
        if !secs.is_finite() || secs <= 0.0 {
            return Time(0);
        }
        Time(round_ns(secs * 1e9))
    }

    /// The raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This time as `f64` seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction (`self - other`, floored at zero).
    #[inline]
    pub fn saturating_sub(self, other: Time) -> Time {
        Time(self.0.saturating_sub(other.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

/// `ns.round() as u64` for a positive `ns`, without the libm call.
#[inline]
fn round_ns(ns: f64) -> u64 {
    let whole = ns as u64;
    whole.saturating_add(u64::from(ns - whole as f64 >= 0.5))
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0.checked_add(rhs.0).expect("virtual time overflow"))
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        *self = *self + rhs;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0.checked_sub(rhs.0).expect("virtual time underflow"))
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 1.0 {
            write!(f, "{s:.3}s")
        } else if s >= 1e-3 {
            write!(f, "{:.3}ms", s * 1e3)
        } else {
            write!(f, "{:.3}us", s * 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(Time::from_micros(5).as_nanos(), 5_000);
        assert_eq!(Time::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(Time::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert!((Time::from_nanos(250).as_secs_f64() - 2.5e-7).abs() < 1e-15);
    }

    #[test]
    fn negative_and_nan_seconds_clamp_to_zero() {
        assert_eq!(Time::from_secs_f64(-3.0), Time::ZERO);
        assert_eq!(Time::from_secs_f64(f64::NAN), Time::ZERO);
        assert_eq!(Time::from_secs_f64(f64::NEG_INFINITY), Time::ZERO);
        assert_eq!(Time::from_secs_f64(f64::INFINITY), Time::ZERO);
        assert_eq!(Time::from_secs_f64(-0.4e-9), Time::ZERO);
    }

    #[test]
    fn rounding_is_exact() {
        let two = |e: i32| 2f64.powi(e);
        assert_eq!(round_ns(0.5), 1);
        assert_eq!(round_ns(1.5), 2);
        assert_eq!(round_ns(0.49999999999999994), 0);
        assert_eq!(round_ns(two(52) - 0.5), 1 << 52);
        assert_eq!(round_ns(two(53) + 2.0), (1 << 53) + 2);
        assert_eq!(round_ns(two(64)), u64::MAX);
        assert_eq!(Time::from_secs_f64(1e30).as_nanos(), u64::MAX);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        #[test]
        fn rounding_matches_libm(bits in any::<u64>(), half in 0u64..1 << 54) {
            // Any bit pattern; one whose seconds lie in 2^-40..2^40, where
            // the nanoseconds straddle 1 and 2^64; a half nanosecond.
            let near = (bits & ((1 << 52) - 1)) | ((1023 - 40 + (bits >> 52) % 80) << 52);
            for secs in [f64::from_bits(bits), f64::from_bits(near), (half as f64 + 0.5) / 1e9] {
                let want = if secs.is_finite() { (secs * 1e9).round() as u64 } else { 0 };
                prop_assert_eq!(Time::from_secs_f64(secs).as_nanos(), want, "{}", secs);
            }
        }
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_nanos(10);
        let b = Time::from_nanos(4);
        assert_eq!(a + b, Time::from_nanos(14));
        assert_eq!(a - b, Time::from_nanos(6));
        assert_eq!(b.saturating_sub(a), Time::ZERO);
        assert_eq!(a.max(b), a);
        let total: Time = [a, b, b].into_iter().sum();
        assert_eq!(total, Time::from_nanos(18));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = Time::from_nanos(1) - Time::from_nanos(2);
    }

    #[test]
    fn display_chooses_unit() {
        assert_eq!(format!("{}", Time::from_secs_f64(2.0)), "2.000s");
        assert_eq!(format!("{}", Time::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", Time::from_micros(7)), "7.000us");
    }
}
