//! The six external types of netCDF classic, and conversion to/from native
//! Rust values.
//!
//! External data is big-endian; the library converts between the in-memory
//! type the application uses and the external type of the variable, with
//! `NC_ERANGE` on overflow — the same semantics as netCDF-3's type layer.

use crate::error::{FormatError, FormatResult};
use crate::swap::swap_copy;

/// External (on-disk) data types (`nc_type`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NcType {
    /// 8-bit signed integer (`NC_BYTE` = 1).
    Byte,
    /// 8-bit character (`NC_CHAR` = 2).
    Char,
    /// 16-bit signed integer (`NC_SHORT` = 3).
    Short,
    /// 32-bit signed integer (`NC_INT` = 4).
    Int,
    /// 32-bit IEEE float (`NC_FLOAT` = 5).
    Float,
    /// 64-bit IEEE float (`NC_DOUBLE` = 6).
    Double,
}

impl NcType {
    /// On-disk tag value.
    pub fn code(self) -> u32 {
        match self {
            NcType::Byte => 1,
            NcType::Char => 2,
            NcType::Short => 3,
            NcType::Int => 4,
            NcType::Float => 5,
            NcType::Double => 6,
        }
    }

    /// Parse an on-disk tag.
    pub fn from_code(c: u32) -> FormatResult<NcType> {
        Ok(match c {
            1 => NcType::Byte,
            2 => NcType::Char,
            3 => NcType::Short,
            4 => NcType::Int,
            5 => NcType::Float,
            6 => NcType::Double,
            _ => return Err(FormatError::Corrupt(format!("unknown nc_type {c}"))),
        })
    }

    /// Element size in bytes.
    pub fn size(self) -> u64 {
        match self {
            NcType::Byte | NcType::Char => 1,
            NcType::Short => 2,
            NcType::Int | NcType::Float => 4,
            NcType::Double => 8,
        }
    }

    /// Canonical name (for dumps).
    pub fn name(self) -> &'static str {
        match self {
            NcType::Byte => "byte",
            NcType::Char => "char",
            NcType::Short => "short",
            NcType::Int => "int",
            NcType::Float => "float",
            NcType::Double => "double",
        }
    }
}

/// A native Rust type usable as in-memory data for netCDF I/O.
///
/// `to_external` / `from_external` convert one element between the native
/// representation and the big-endian external representation of `ext`,
/// returning `NC_ERANGE` errors when a value cannot be represented.
pub trait NcValue: Copy + PartialEq + std::fmt::Debug + Send + Sync + 'static {
    /// The natural external type of this native type.
    const NATURAL: NcType;

    /// Convert to a double for range-checked cross-type conversion.
    fn as_f64(self) -> f64;
    /// Convert from a double, which is exact for every external type.
    fn from_f64(v: f64) -> FormatResult<Self>;

    /// The all-zero-bytes value: `vec![T::ZERO; n]` comes zeroed from the
    /// allocator, ready to be filled through [`NcValue::as_bytes_mut`].
    const ZERO: Self;

    /// The values' own memory as bytes, in host byte order: what a same-type
    /// put lends to the I/O layers instead of an external copy.
    fn as_bytes(vals: &[Self]) -> &[u8];

    /// The values' own memory as writable bytes: a same-type get has its
    /// external bytes delivered here and swaps them in place.
    fn as_bytes_mut(vals: &mut [Self]) -> &mut [u8];
}

/// Generates the byte views and the zero of a primitive numeric type. The
/// views are emitted inside each of the six impls rather than provided by
/// the trait, so an impl for any other type cannot inherit them.
macro_rules! byte_views {
    ($ty:ty) => {
        const ZERO: $ty = 0 as $ty;
        fn as_bytes(vals: &[$ty]) -> &[u8] {
            // SAFETY: `$ty` is a primitive numeric type — no padding, so
            // all `size_of_val(vals)` bytes behind the pointer are
            // initialized, within one allocation and no more than
            // `isize::MAX` (they are a slice already); `align_of::<u8>()
            // == 1`, so any address is aligned for the view; the view
            // borrows `vals` for its whole lifetime and is read-only, like
            // the slice it came from.
            unsafe { std::slice::from_raw_parts(vals.as_ptr().cast(), size_of_val(vals)) }
        }
        fn as_bytes_mut(vals: &mut [$ty]) -> &mut [u8] {
            // SAFETY: as for `as_bytes`, and every bit pattern is a valid
            // `$ty`, so no write through the view can leave an invalid
            // value behind; the view holds the exclusive borrow of `vals`,
            // so nothing else reads or writes the memory meanwhile.
            unsafe { std::slice::from_raw_parts_mut(vals.as_mut_ptr().cast(), size_of_val(vals)) }
        }
    };
}

fn range_err<T>(v: f64) -> FormatResult<T> {
    Err(FormatError::Range(format!("{v} does not fit target type")))
}

impl NcValue for i8 {
    const NATURAL: NcType = NcType::Byte;
    fn as_f64(self) -> f64 {
        self as f64
    }
    fn from_f64(v: f64) -> FormatResult<i8> {
        if !v.is_finite() || v < i8::MIN as f64 || v > i8::MAX as f64 {
            return range_err(v);
        }
        Ok(v as i8)
    }
    byte_views!(i8);
}

impl NcValue for u8 {
    const NATURAL: NcType = NcType::Char;
    fn as_f64(self) -> f64 {
        self as f64
    }
    fn from_f64(v: f64) -> FormatResult<u8> {
        if !v.is_finite() || v < 0.0 || v > u8::MAX as f64 {
            return range_err(v);
        }
        Ok(v as u8)
    }
    byte_views!(u8);
}

impl NcValue for i16 {
    const NATURAL: NcType = NcType::Short;
    fn as_f64(self) -> f64 {
        self as f64
    }
    fn from_f64(v: f64) -> FormatResult<i16> {
        if !v.is_finite() || v < i16::MIN as f64 || v > i16::MAX as f64 {
            return range_err(v);
        }
        Ok(v as i16)
    }
    byte_views!(i16);
}

impl NcValue for i32 {
    const NATURAL: NcType = NcType::Int;
    fn as_f64(self) -> f64 {
        self as f64
    }
    fn from_f64(v: f64) -> FormatResult<i32> {
        if !v.is_finite() || v < i32::MIN as f64 || v > i32::MAX as f64 {
            return range_err(v);
        }
        Ok(v as i32)
    }
    byte_views!(i32);
}

impl NcValue for f32 {
    const NATURAL: NcType = NcType::Float;
    fn as_f64(self) -> f64 {
        self as f64
    }
    fn from_f64(v: f64) -> FormatResult<f32> {
        // netCDF converts double->float without an ERANGE check for
        // overflow-to-infinity; we mirror that (it clamps to +-inf).
        Ok(v as f32)
    }
    byte_views!(f32);
}

impl NcValue for f64 {
    const NATURAL: NcType = NcType::Double;
    fn as_f64(self) -> f64 {
        self
    }
    fn from_f64(v: f64) -> FormatResult<f64> {
        Ok(v)
    }
    byte_views!(f64);
}

/// Encode one external element (big-endian) from a double.
fn encode_one(ext: NcType, v: f64, out: &mut Vec<u8>) -> FormatResult<()> {
    match ext {
        NcType::Byte => out.push(i8::from_f64(v)? as u8),
        NcType::Char => out.push(u8::from_f64(v)?),
        NcType::Short => out.extend_from_slice(&i16::from_f64(v)?.to_be_bytes()),
        NcType::Int => out.extend_from_slice(&i32::from_f64(v)?.to_be_bytes()),
        NcType::Float => out.extend_from_slice(&(v as f32).to_be_bytes()),
        NcType::Double => out.extend_from_slice(&v.to_be_bytes()),
    }
    Ok(())
}

/// Decode one external element at `bytes` to a double.
fn decode_one(ext: NcType, bytes: &[u8]) -> f64 {
    match ext {
        NcType::Byte => bytes[0] as i8 as f64,
        NcType::Char => bytes[0] as f64,
        NcType::Short => i16::from_be_bytes([bytes[0], bytes[1]]) as f64,
        NcType::Int => i32::from_be_bytes(bytes[..4].try_into().unwrap()) as f64,
        NcType::Float => f32::from_be_bytes(bytes[..4].try_into().unwrap()) as f64,
        NcType::Double => f64::from_be_bytes(bytes[..8].try_into().unwrap()),
    }
}

/// NetCDF default fill values (`NC_FILL_*`), written into unwritten parts
/// of variables when fill mode is on.
pub fn default_fill_f64(t: NcType) -> f64 {
    match t {
        NcType::Byte => -127.0,
        NcType::Char => 0.0,
        NcType::Short => -32767.0,
        NcType::Int => -2147483647.0,
        NcType::Float => 9.969_21e36_f32 as f64,
        NcType::Double => 9.969209968386869e36,
    }
}

/// The big-endian external bytes of one fill element of type `t`, using
/// `value` (normally [`default_fill_f64`], or a `_FillValue` override).
pub fn fill_element_bytes(t: NcType, value: f64) -> Vec<u8> {
    let mut out = Vec::with_capacity(t.size() as usize);
    encode_one(t, value, &mut out).expect("fill values are representable");
    out
}

/// Convert native values to the external representation of `ext`.
///
/// When `ext` is the natural type of `T` this is one bulk byteswap pass
/// ([`swap_copy`] of the values' bytes); cross-type conversion falls back
/// to the per-element trip through `f64` with range checks (netCDF-3
/// semantics).
pub fn to_external<T: NcValue>(vals: &[T], ext: NcType) -> FormatResult<Vec<u8>> {
    let mut out = Vec::new();
    to_external_into(vals, ext, &mut out)?;
    Ok(out)
}

/// [`to_external`] into caller storage: `out` is refilled, so a buffer
/// that is passed again keeps its capacity and the conversion allocates
/// nothing once it has grown to the largest access. A same-type
/// conversion into a buffer already of its length (a pooled one)
/// overwrites it where it is, without zeroing it first.
pub fn to_external_into<T: NcValue>(
    vals: &[T],
    ext: NcType,
    out: &mut Vec<u8>,
) -> FormatResult<()> {
    if ext == T::NATURAL {
        let src = T::as_bytes(vals);
        if out.len() != src.len() {
            out.clear();
            out.resize(src.len(), 0);
        }
        swap_copy(src, out, ext.size() as usize);
        return Ok(());
    }
    out.clear();
    out.reserve(vals.len() * ext.size() as usize);
    for &v in vals {
        encode_one(ext, v.as_f64(), out)?;
    }
    Ok(())
}

/// The pre-kernel per-element encode path: every value goes through `f64`
/// and [`encode_one`], even for same-type conversion. Kept public as the
/// reference of the byte-identity property tests; [`to_external`] only uses
/// it for cross-type conversion.
pub fn to_external_by_element<T: NcValue>(vals: &[T], ext: NcType) -> FormatResult<Vec<u8>> {
    let mut out = Vec::with_capacity(vals.len() * ext.size() as usize);
    for &v in vals {
        encode_one(ext, v.as_f64(), &mut out)?;
    }
    Ok(out)
}

/// Convert external bytes of type `ext` into native values.
///
/// Same-type decode is one bulk byteswap pass ([`swap_copy`] into the
/// values' bytes); cross-type falls back to the per-element `f64` path.
pub fn from_external<T: NcValue>(bytes: &[u8], ext: NcType) -> FormatResult<Vec<T>> {
    let esz = ext.size() as usize;
    if bytes.len() % esz != 0 {
        return Err(FormatError::Corrupt(format!(
            "external buffer length {} is not a multiple of element size {esz}",
            bytes.len()
        )));
    }
    if ext == T::NATURAL {
        let mut vals = vec![T::ZERO; bytes.len() / esz];
        swap_copy(bytes, T::as_bytes_mut(&mut vals), esz);
        return Ok(vals);
    }
    from_external_by_element(bytes, ext)
}

/// The pre-kernel per-element decode path (see [`to_external_by_element`]).
pub fn from_external_by_element<T: NcValue>(bytes: &[u8], ext: NcType) -> FormatResult<Vec<T>> {
    let esz = ext.size() as usize;
    if bytes.len() % esz != 0 {
        return Err(FormatError::Corrupt(format!(
            "external buffer length {} is not a multiple of element size {esz}",
            bytes.len()
        )));
    }
    bytes
        .chunks_exact(esz)
        .map(|c| T::from_f64(decode_one(ext, c)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_and_sizes() {
        for (t, c, s) in [
            (NcType::Byte, 1, 1),
            (NcType::Char, 2, 1),
            (NcType::Short, 3, 2),
            (NcType::Int, 4, 4),
            (NcType::Float, 5, 4),
            (NcType::Double, 6, 8),
        ] {
            assert_eq!(t.code(), c);
            assert_eq!(t.size(), s);
            assert_eq!(NcType::from_code(c).unwrap(), t);
        }
        assert!(NcType::from_code(99).is_err());
    }

    #[test]
    fn same_type_roundtrip() {
        let vals: Vec<i32> = vec![0, -1, i32::MIN, i32::MAX, 42];
        let ext = to_external(&vals, NcType::Int).unwrap();
        assert_eq!(ext.len(), 20);
        // Big-endian check on 42.
        assert_eq!(&ext[16..], &[0, 0, 0, 42]);
        let back: Vec<i32> = from_external(&ext, NcType::Int).unwrap();
        assert_eq!(back, vals);
    }

    #[test]
    fn double_roundtrip_exact() {
        let vals = vec![0.0f64, -1.5, 1e300, f64::MIN_POSITIVE];
        let ext = to_external(&vals, NcType::Double).unwrap();
        let back: Vec<f64> = from_external(&ext, NcType::Double).unwrap();
        assert_eq!(back, vals);
    }

    #[test]
    fn widening_conversion() {
        // i16 values written into an NC_INT variable.
        let vals: Vec<i16> = vec![-300, 0, 300];
        let ext = to_external(&vals, NcType::Int).unwrap();
        let back: Vec<i32> = from_external(&ext, NcType::Int).unwrap();
        assert_eq!(back, vec![-300, 0, 300]);
    }

    #[test]
    fn narrowing_conversion_range_checked() {
        let ok: Vec<i32> = vec![-128, 127];
        assert!(to_external(&ok, NcType::Byte).is_ok());
        let bad: Vec<i32> = vec![128];
        assert!(matches!(
            to_external(&bad, NcType::Byte),
            Err(FormatError::Range(_))
        ));
    }

    #[test]
    fn float_overflow_becomes_infinity() {
        // netCDF semantics: double -> float overflow clamps, no ERANGE.
        let vals = vec![1e300f64];
        let ext = to_external(&vals, NcType::Float).unwrap();
        let back: Vec<f32> = from_external(&ext, NcType::Float).unwrap();
        assert!(back[0].is_infinite());
    }

    #[test]
    fn read_int_as_double() {
        let vals: Vec<i32> = vec![7, -9];
        let ext = to_external(&vals, NcType::Int).unwrap();
        let back: Vec<f64> = from_external(&ext, NcType::Int).unwrap();
        assert_eq!(back, vec![7.0, -9.0]);
    }

    #[test]
    fn misaligned_external_buffer_errors() {
        assert!(from_external::<i32>(&[0, 1, 2], NcType::Int).is_err());
    }

    #[test]
    fn byte_views_are_the_values_in_host_order() {
        fn check<T: NcValue, const W: usize>(vals: &[T], ne: fn(T) -> [u8; W]) {
            let want: Vec<u8> = vals.iter().flat_map(|&v| ne(v)).collect();
            assert_eq!(T::as_bytes(vals), want);
            // Written through the mutable view, the same bytes are the
            // same values again.
            let mut back = vec![T::ZERO; vals.len()];
            assert!(T::as_bytes(&back).iter().all(|&b| b == 0));
            T::as_bytes_mut(&mut back).copy_from_slice(&want);
            assert_eq!(back, vals);
            assert!(T::as_bytes(&vals[..0]).is_empty());
            assert!(T::as_bytes_mut(&mut back[..0]).is_empty());
        }
        check::<i8, 1>(&[-128, -1, 0, 1, 127], i8::to_ne_bytes);
        check::<u8, 1>(&[0, 1, 255], u8::to_ne_bytes);
        check::<i16, 2>(&[i16::MIN, -1, 0, 0x0102, i16::MAX], i16::to_ne_bytes);
        check::<i32, 4>(&[i32::MIN, -1, 0, 0x0102_0304, i32::MAX], i32::to_ne_bytes);
        check::<f32, 4>(&[-1.5, 0.0, f32::MAX, f32::MIN_POSITIVE], f32::to_ne_bytes);
        check::<f64, 8>(&[-1.5, 0.0, 1e300, f64::MIN_POSITIVE], f64::to_ne_bytes);
    }

    #[test]
    fn bulk_fast_path_matches_element_path() {
        fn check<T: NcValue>(vals: &[T]) {
            let fast = to_external(vals, T::NATURAL).unwrap();
            let slow = to_external_by_element(vals, T::NATURAL).unwrap();
            assert_eq!(fast, slow);
            let back: Vec<T> = from_external(&fast, T::NATURAL).unwrap();
            let back_slow: Vec<T> = from_external_by_element(&fast, T::NATURAL).unwrap();
            assert_eq!(back, vals);
            assert_eq!(back_slow, vals);
        }
        check::<i8>(&[-128, -1, 0, 1, 127]);
        check::<u8>(&[0, 1, 255]);
        check::<i16>(&[i16::MIN, -1, 0, 1, i16::MAX]);
        check::<i32>(&[i32::MIN, -1, 0, 1, i32::MAX]);
        check::<f32>(&[-1.5, 0.0, f32::MAX, f32::MIN_POSITIVE]);
        check::<f64>(&[-1.5, 0.0, 1e300, f64::MIN_POSITIVE]);
    }
}
