//! Byte-level conversion between native and external representations for
//! the flexible API.
//!
//! The flexible (`*_flexible`) calls describe memory with an MPI datatype,
//! so the library sees raw native bytes rather than a typed slice. When the
//! memory elements have the same width as the variable's external type, the
//! conversion is an endianness swap (XDR is big-endian) performed by the
//! chunked kernels in [`pnetcdf_format::swap`]. The fused entry points
//! ([`pack_to_external_into`] / [`unpack_from_external`]) run the
//! datatype gather/scatter and the swap as a single pass, so each byte is
//! touched once between the user buffer and the staging buffer instead of
//! being copied and then swapped.

use pnetcdf_format::swap;
use pnetcdf_format::NcType;
use pnetcdf_mpi::pack::{pack_with_into, unpack_with};
use pnetcdf_mpi::{Datatype, MpiResult};

/// Swap native-endian element bytes to big-endian external order.
pub fn native_to_external(bytes: &[u8], t: NcType) -> Vec<u8> {
    let width = t.size() as usize;
    assert!(
        bytes.len() % width == 0,
        "buffer length {} is not a multiple of element width {width}",
        bytes.len()
    );
    swap::swap_to_vec(bytes, width)
}

/// Swap big-endian external element bytes to native order (the swap is its
/// own inverse).
pub fn external_to_native(bytes: &[u8], t: NcType) -> Vec<u8> {
    native_to_external(bytes, t)
}

/// Gather `count` instances of `memtype` from `buf` and convert to the
/// big-endian external order of `t` in one fused pass (pack + swap, one
/// byte touch), replacing the old pack-then-`native_to_external` pair.
pub fn pack_to_external(
    buf: &[u8],
    count: usize,
    memtype: &Datatype,
    t: NcType,
) -> MpiResult<Vec<u8>> {
    let mut out = Vec::new();
    pack_to_external_into(buf, count, memtype, t, &mut out)?;
    Ok(out)
}

/// [`pack_to_external`] into caller storage: `out` ends up holding exactly
/// the external bytes and keeps its capacity from call to call.
pub fn pack_to_external_into(
    buf: &[u8],
    count: usize,
    memtype: &Datatype,
    t: NcType,
    out: &mut Vec<u8>,
) -> MpiResult<()> {
    let width = t.size() as usize;
    let swap = |src: &[u8], dst: &mut [u8]| swap::swap_copy(src, dst, width);
    pack_with_into(buf, count, memtype, width, swap, out)
}

/// Convert big-endian external `data` to native order and scatter it into
/// `count` instances of `memtype` inside `buf` in one fused pass
/// (swap + unpack), replacing the old `external_to_native`-then-unpack
/// pair. Returns the bytes consumed from `data`.
pub fn unpack_from_external(
    data: &[u8],
    buf: &mut [u8],
    count: usize,
    memtype: &Datatype,
    t: NcType,
) -> MpiResult<usize> {
    let width = t.size() as usize;
    unpack_with(data, buf, count, memtype, width, |src, dst| {
        swap::swap_copy(src, dst, width)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_swap_roundtrip() {
        let native = 0x01020304i32.to_ne_bytes().to_vec();
        let ext = native_to_external(&native, NcType::Int);
        assert_eq!(ext, vec![1, 2, 3, 4]);
        assert_eq!(external_to_native(&ext, NcType::Int), native);
    }

    #[test]
    fn double_swap_roundtrip() {
        let native = 1.5f64.to_ne_bytes().to_vec();
        let ext = native_to_external(&native, NcType::Double);
        assert_eq!(ext, 1.5f64.to_be_bytes().to_vec());
        assert_eq!(external_to_native(&ext, NcType::Double), native);
    }

    #[test]
    fn byte_types_are_identity() {
        let b = vec![1u8, 2, 3];
        assert_eq!(native_to_external(&b, NcType::Byte), b);
        assert_eq!(native_to_external(&b, NcType::Char), b);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn misaligned_buffer_panics() {
        let _ = native_to_external(&[1, 2, 3], NcType::Int);
    }

    #[test]
    fn fused_pack_matches_staged_path() {
        let vals = [0x01020304i32, -7, 0x7fff_0001];
        let mut native = Vec::new();
        for v in vals {
            native.extend_from_slice(&v.to_ne_bytes());
        }
        // Noncontiguous memory: every other element of a 6-int buffer.
        let mut buf = vec![0u8; 24];
        for (i, v) in vals.iter().enumerate() {
            buf[i * 8..i * 8 + 4].copy_from_slice(&v.to_ne_bytes());
        }
        let memtype = Datatype::vector(3, 4, 8, Datatype::byte());

        let fused = pack_to_external(&buf, 1, &memtype, NcType::Int).unwrap();
        let staged = native_to_external(
            &pnetcdf_mpi::pack::pack(&buf, 1, &memtype).unwrap(),
            NcType::Int,
        );
        assert_eq!(fused, staged);

        // And back: fused scatter restores the original buffer.
        let mut back = vec![0u8; 24];
        let used = unpack_from_external(&fused, &mut back, 1, &memtype, NcType::Int).unwrap();
        assert_eq!(used, 12);
        assert_eq!(back, buf);
    }
}
