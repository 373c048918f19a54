//! Saturating fixed-point helpers shared by the software golden model and
//! the bit-accurate RAE datapath.
//!
//! Everything here rounds **half away from zero**, matching `f32::round`, so
//! the float fake-quant path used in QAT and the integer shift path used in
//! hardware agree bit-for-bit.

use crate::bitwidth::QRange;

/// Arithmetic right shift by `sh` with round-half-away-from-zero.
///
/// `rounding_shift_right(x, sh)` equals `round(x / 2^sh)` computed without
/// leaving the integer domain. `sh == 0` returns `x` unchanged.
///
/// The intermediate sum is formed in `i64`, so no input can overflow.
///
/// # Examples
///
/// ```
/// use apsq_quant::rounding_shift_right;
///
/// assert_eq!(rounding_shift_right(5, 1), 3);   // 2.5 → 3
/// assert_eq!(rounding_shift_right(-5, 1), -3); // −2.5 → −3
/// assert_eq!(rounding_shift_right(4, 1), 2);
/// ```
pub fn rounding_shift_right(x: i32, sh: u32) -> i32 {
    if sh == 0 {
        return x;
    }
    debug_assert!(sh < 63, "shift {sh} out of range");
    let add = 1i64 << (sh - 1);
    let wide = x as i64;
    let r = if wide >= 0 {
        (wide + add) >> sh
    } else {
        -((-wide + add) >> sh)
    };
    r as i32
}

/// Left shift (`x · 2^sh`) saturating at the `i32` limits.
pub fn saturating_shift_left(x: i32, sh: u32) -> i32 {
    if sh == 0 {
        return x;
    }
    let wide = (x as i64) << sh.min(62);
    wide.clamp(i32::MIN as i64, i32::MAX as i64) as i32
}

/// Saturating addition clamped into an arbitrary code range.
///
/// This is the RAE accumulator behaviour: adders saturate at the PSUM
/// precision rather than wrapping.
pub fn saturating_add_in_range(a: i32, b: i32, range: QRange) -> i32 {
    let wide = a as i64 + b as i64;
    wide.clamp(range.qn as i64, range.qp as i64) as i32
}

/// `round(x / 2^sh)` followed by clamping into `range` — the complete
/// shift-quantize step performed by the RAE quantization shifter.
pub fn shift_quantize(x: i32, sh: u32, range: QRange) -> i32 {
    range.clamp_i32(rounding_shift_right(x, sh))
}

/// `code · 2^sh` — the RAE dequantization shifter. Saturates at `i32`.
pub fn shift_dequantize(code: i32, sh: u32) -> i32 {
    saturating_shift_left(code, sh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitwidth::Bitwidth;

    #[test]
    fn rounding_matches_f64_round() {
        for sh in 0u32..8 {
            for x in -1000i32..1000 {
                let expect = ((x as f64) / f64::from(1u32 << sh)).round() as i32;
                assert_eq!(rounding_shift_right(x, sh), expect, "x={x}, sh={sh}");
            }
        }
    }

    #[test]
    fn rounding_extremes() {
        assert_eq!(rounding_shift_right(i32::MAX, 31), 1);
        assert_eq!(rounding_shift_right(i32::MIN, 31), -1);
        assert_eq!(rounding_shift_right(i32::MIN, 0), i32::MIN);
    }

    #[test]
    fn saturating_left_shift() {
        assert_eq!(saturating_shift_left(1, 3), 8);
        assert_eq!(saturating_shift_left(i32::MAX, 1), i32::MAX);
        assert_eq!(saturating_shift_left(i32::MIN, 1), i32::MIN);
        assert_eq!(saturating_shift_left(-3, 2), -12);
    }

    #[test]
    fn saturating_add() {
        let r = Bitwidth::INT8.signed_range();
        assert_eq!(saturating_add_in_range(100, 100, r), 127);
        assert_eq!(saturating_add_in_range(-100, -100, r), -128);
        assert_eq!(saturating_add_in_range(3, 4, r), 7);
    }

    #[test]
    fn shift_quant_dequant_round_trip_small_codes() {
        let r = Bitwidth::INT8.signed_range();
        for code in -128i32..=127 {
            let x = shift_dequantize(code, 4); // exact: code * 16
            assert_eq!(shift_quantize(x, 4, r), code);
        }
    }
}
