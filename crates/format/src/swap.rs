//! Chunked, width-specialized byteswap kernels for the XDR byte path.
//!
//! External netCDF data is big-endian; on a little-endian host every access
//! pays an endianness conversion over the whole payload. Converting
//! element-by-element (`chunks.iter().rev()`) defeats the autovectorizer,
//! so this module provides width-specialized kernels that process a slice
//! at a time as `u16`/`u32`/`u64` lane swaps: straight-line loops LLVM
//! vectorizes for whatever instruction set it compiles them for.
//!
//! On the default `x86_64` target that set is SSE2, which has no byte
//! shuffle: widths 4 and 8 become `punpcklbw`/`pshuflw`/`pshufhw`/
//! `packuswb` sequences at about a third of memcpy's rate in cache. So on
//! `x86_64` the same loops are compiled a second time under
//! `#[target_feature(enable = "avx2")]`, where they become `vpshufb`, and
//! [`swap_inplace`] / [`swap_copy`] call that arm when the CPU has AVX2
//! (`is_x86_feature_detected!`, a cached atomic load). Width 2 copies stay
//! portable: SSE2 swaps them with shifts, and from L2 the AVX2 arm copies
//! them slower. The choice is made at run time, not by a build flag, so
//! one binary runs on every `x86_64` CPU and nothing is left to configure.
//! Other targets compile the portable loops only.
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
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, detected on the line above.
        return unsafe { inplace_avx2(buf, width) };
    }
    inplace_portable(buf, width);
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
    // Width 2 stays portable: its AVX2 copy runs 8–16 % slower from L2
    // (DESIGN.md §16).
    #[cfg(target_arch = "x86_64")]
    if width > 2 && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, detected on the line above.
        return unsafe { copy_avx2(src, dst, width) };
    }
    copy_portable(src, dst, width);
}

/// The one swap-in-place algorithm, inlined into each arm so that every arm
/// compiles it for its own instruction set.
#[inline(always)]
fn inplace_portable(buf: &mut [u8], width: usize) {
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

/// The one swap-while-copying algorithm, inlined as [`inplace_portable`] is.
#[inline(always)]
fn copy_portable(src: &[u8], dst: &mut [u8], width: usize) {
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

/// [`inplace_portable`] compiled for AVX2, where the lane swaps become
/// `vpshufb`.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn inplace_avx2(buf: &mut [u8], width: usize) {
    inplace_portable(buf, width);
}

/// [`copy_portable`] compiled for AVX2.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn copy_avx2(src: &[u8], dst: &mut [u8], width: usize) {
    copy_portable(src, dst, width);
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

    /// Every length from 0 to 1 KiB in whole elements, at every start offset
    /// 0–31 inside a larger buffer: `inplace` and `copy` must write the
    /// oracle's bytes there and leave every byte around them alone.
    fn check_arm(inplace: impl Fn(&mut [u8], usize), copy: impl Fn(&[u8], &mut [u8], usize)) {
        let pattern: Vec<u8> = (0..1024 + 64u32).map(|i| (i * 131 + 7) as u8).collect();
        let mut buf = pattern.clone();
        let mut dst = vec![0u8; pattern.len()];
        for width in [1usize, 2, 4, 8] {
            for len in (0..=1024).step_by(width) {
                for at in 0..32 {
                    let (src, end) = (&pattern[at..at + len], at + len);
                    let expect = swap_bytewise(src, width);
                    buf.copy_from_slice(&pattern);
                    inplace(&mut buf[at..end], width);
                    assert_eq!(
                        buf[at..end],
                        expect,
                        "in place: width {width}, {len} B at {at}"
                    );
                    assert!(buf[..at] == pattern[..at] && buf[end..] == pattern[end..]);
                    dst.fill(0);
                    copy(src, &mut dst[at..end], width);
                    assert_eq!(dst[at..end], expect, "copy: width {width}, {len} B at {at}");
                    assert!(dst[..at].iter().chain(&dst[end..]).all(|&b| b == 0));
                }
            }
        }
    }

    #[test]
    fn kernels_match_bytewise_reference() {
        check_arm(swap_inplace, swap_copy);
        let src: Vec<u8> = (0..64u8).collect();
        for width in [1usize, 2, 4, 8] {
            assert_eq!(swap_to_vec(&src, width), swap_bytewise(&src, width));
        }
    }

    #[test]
    #[cfg(target_endian = "little")]
    fn portable_arm_matches_bytewise() {
        check_arm(inplace_portable, copy_portable);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx2_arm_matches_bytewise() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("avx2_arm_matches_bytewise: skipped, this CPU has no AVX2");
            return;
        }
        check_arm(
            // SAFETY: the CPU supports AVX2, detected above.
            |buf, width| unsafe { inplace_avx2(buf, width) },
            // SAFETY: as for `inplace_avx2`.
            |src, dst, width| unsafe { copy_avx2(src, dst, width) },
        );
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
