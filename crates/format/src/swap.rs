//! Chunked, width-specialized byteswap kernels for the XDR byte path.
//!
//! External netCDF data is big-endian; on a little-endian host every access
//! pays an endianness conversion over the whole payload. Converting
//! element-by-element (`chunks.iter().rev()`) defeats the autovectorizer,
//! so this module provides width-specialized kernels that process a slice
//! at a time as `u16`/`u32`/`u64` lane swaps — straight-line loops LLVM
//! turns into `pshufb`/`rev`-style vector code — making the conversion
//! memory-bandwidth-bound instead of shuffle-bound.
//!
//! Three shapes cover every caller on the put and get chains:
//!
//! * [`swap_inplace`] — convert a buffer that is already staged;
//! * [`swap_copy`] — convert *while* copying between two buffers (the
//!   fused gather/scatter passes use this so a byte is touched once);
//! * [`swap_to_vec`] — convert into a fresh allocation.
//!
//! Width 1 (`NC_BYTE`/`NC_CHAR`) is a no-op / plain memcpy fast path. On a
//! big-endian host every kernel degenerates to a copy.
//!
//! [`swap_bytewise`] keeps the old element-by-element loop as the oracle:
//! the unit and property tests assert the kernels' output bit-identical to
//! it.

macro_rules! swap_lane_inplace {
    ($buf:expr, $ty:ty) => {{
        const W: usize = std::mem::size_of::<$ty>();
        for chunk in $buf.chunks_exact_mut(W) {
            let v = <$ty>::from_ne_bytes(chunk.try_into().unwrap()).swap_bytes();
            chunk.copy_from_slice(&v.to_ne_bytes());
        }
    }};
}

macro_rules! swap_lane_copy {
    ($src:expr, $dst:expr, $ty:ty) => {{
        const W: usize = std::mem::size_of::<$ty>();
        for (s, d) in $src.chunks_exact(W).zip($dst.chunks_exact_mut(W)) {
            let v = <$ty>::from_ne_bytes(s.try_into().unwrap()).swap_bytes();
            d.copy_from_slice(&v.to_ne_bytes());
        }
    }};
}

/// Swap element endianness in place. `width` must divide `buf.len()` and be
/// one of the external element widths (1, 2, 4, 8).
pub fn swap_inplace(buf: &mut [u8], width: usize) {
    debug_assert!(
        buf.len() % width.max(1) == 0,
        "buffer length {} is not a multiple of element width {width}",
        buf.len()
    );
    if cfg!(target_endian = "big") || width <= 1 || buf.is_empty() {
        return;
    }
    match width {
        2 => swap_lane_inplace!(buf, u16),
        4 => swap_lane_inplace!(buf, u32),
        8 => swap_lane_inplace!(buf, u64),
        _ => {
            for chunk in buf.chunks_exact_mut(width) {
                chunk.reverse();
            }
        }
    }
}

/// Copy `src` into `dst` (equal lengths), swapping element endianness on
/// the way — the fused convert-while-copying primitive of the gather and
/// scatter passes.
pub fn swap_copy(src: &[u8], dst: &mut [u8], width: usize) {
    debug_assert_eq!(src.len(), dst.len());
    debug_assert!(
        src.len() % width.max(1) == 0,
        "buffer length {} is not a multiple of element width {width}",
        src.len()
    );
    if cfg!(target_endian = "big") || width <= 1 {
        dst.copy_from_slice(src);
        return;
    }
    match width {
        2 => swap_lane_copy!(src, dst, u16),
        4 => swap_lane_copy!(src, dst, u32),
        8 => swap_lane_copy!(src, dst, u64),
        _ => {
            for (s, d) in src.chunks_exact(width).zip(dst.chunks_exact_mut(width)) {
                for (i, b) in s.iter().rev().enumerate() {
                    d[i] = *b;
                }
            }
        }
    }
}

/// Swap element endianness into a fresh buffer.
pub fn swap_to_vec(src: &[u8], width: usize) -> Vec<u8> {
    let mut out = vec![0u8; src.len()];
    swap_copy(src, &mut out, width);
    out
}

/// The pre-kernel reference: element-by-element byte reversal, exactly the
/// loop the byte path used before the chunked kernels. Kept (not dead
/// code) as the oracle of the unit tests below and of the byte-identity
/// property tests.
pub fn swap_bytewise(src: &[u8], width: usize) -> Vec<u8> {
    assert!(
        src.len() % width.max(1) == 0,
        "buffer length {} is not a multiple of element width {width}",
        src.len()
    );
    if cfg!(target_endian = "big") || width <= 1 {
        return src.to_vec();
    }
    let mut out = Vec::with_capacity(src.len());
    for chunk in src.chunks_exact(width) {
        out.extend(chunk.iter().rev());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_match_bytewise_reference() {
        let src: Vec<u8> = (0..64u8).collect();
        for width in [1usize, 2, 4, 8] {
            let reference = swap_bytewise(&src, width);
            assert_eq!(swap_to_vec(&src, width), reference, "width {width}");
            let mut inplace = src.clone();
            swap_inplace(&mut inplace, width);
            assert_eq!(inplace, reference, "width {width} in place");
            let mut copied = vec![0u8; src.len()];
            swap_copy(&src, &mut copied, width);
            assert_eq!(copied, reference, "width {width} copy");
        }
    }

    #[test]
    fn swap_is_an_involution() {
        let src: Vec<u8> = (0..32u8).map(|i| i.wrapping_mul(37)).collect();
        for width in [2usize, 4, 8] {
            let mut buf = src.clone();
            swap_inplace(&mut buf, width);
            swap_inplace(&mut buf, width);
            assert_eq!(buf, src);
        }
    }

    #[test]
    fn width_one_is_identity() {
        let src = vec![1u8, 2, 3];
        assert_eq!(swap_to_vec(&src, 1), src);
    }

    #[test]
    fn matches_primitive_to_be_bytes() {
        let vals = [0x0102_0304u32, 0xdead_beef];
        let mut native = Vec::new();
        let mut expect = Vec::new();
        for v in vals {
            native.extend_from_slice(&v.to_ne_bytes());
            expect.extend_from_slice(&v.to_be_bytes());
        }
        assert_eq!(swap_to_vec(&native, 4), expect);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn misaligned_bytewise_panics() {
        let _ = swap_bytewise(&[1, 2, 3], 4);
    }
}
