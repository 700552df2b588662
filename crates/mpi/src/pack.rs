//! Packing and unpacking buffers through datatypes (`MPI_Pack`/`MPI_Unpack`).
//!
//! The flexible PnetCDF API lets the user describe a noncontiguous memory
//! region with an MPI datatype; before the bytes can be handed to the I/O
//! layer they are gathered ("packed") into a contiguous staging buffer, and
//! scattered back ("unpacked") on the read path. Packing is driven by the
//! flattened segment list, so it costs one `copy_from_slice` per run.

use crate::datatype::Datatype;
use crate::error::{MpiError, MpiResult};
use crate::flatten::{flatten_n, Segment};

/// Gather `count` instances of `dtype` from `buf` into a new contiguous
/// buffer, in typemap order.
///
/// `buf` is addressed from the datatype origin; all flattened offsets must
/// fall within it (negative offsets are rejected — callers pass a slice that
/// starts at the lowest addressed byte).
pub fn pack(buf: &[u8], count: usize, dtype: &Datatype) -> MpiResult<Vec<u8>> {
    pack_with(buf, count, dtype, 1, |src, dst| dst.copy_from_slice(src))
}

/// [`pack_with_into`] a new buffer.
pub fn pack_with(
    buf: &[u8],
    count: usize,
    dtype: &Datatype,
    elem_width: usize,
    copy: impl Fn(&[u8], &mut [u8]),
) -> MpiResult<Vec<u8>> {
    let mut out = Vec::new();
    pack_with_into(buf, count, dtype, elem_width, copy, &mut out)?;
    Ok(out)
}

/// Gather like [`pack`], but apply `copy` (a streaming byte transformer,
/// e.g. an endianness swap) while copying, so the gather and the conversion
/// are one fused pass — the byte is touched once between the user buffer
/// and the staging buffer. `out` ends up holding exactly the packed bytes;
/// a buffer that is passed again keeps its capacity.
///
/// `copy` must be position-independent over any `elem_width`-aligned prefix
/// split (converting the stream in chunks must equal converting it whole).
/// When some flattened segment is not a multiple of `elem_width` — an
/// element straddles a segment boundary — the fusion would corrupt that
/// element, so this falls back to gather-then-convert over the whole
/// staging buffer.
pub fn pack_with_into(
    buf: &[u8],
    count: usize,
    dtype: &Datatype,
    elem_width: usize,
    copy: impl Fn(&[u8], &mut [u8]),
    out: &mut Vec<u8>,
) -> MpiResult<()> {
    let segs = flatten_n(dtype, count);
    let total = segs.iter().map(|s| s.len).sum::<u64>() as usize;
    if out.capacity() < total {
        // Zeroed pages from the allocator; every byte is overwritten below.
        *out = vec![0u8; total];
    } else {
        out.resize(total, 0);
    }
    if !segs_elem_aligned(&segs, elem_width) {
        copy(&pack(buf, count, dtype)?, out);
        return Ok(());
    }
    let mut pos = 0usize;
    for s in &segs {
        let (lo, hi) = seg_range(s, buf.len())?;
        copy(&buf[lo..hi], &mut out[pos..pos + s.len as usize]);
        pos += s.len as usize;
    }
    Ok(())
}

/// Scatter `data` into `count` instances of `dtype` inside `buf`.
///
/// Returns the number of bytes consumed from `data`. Errors if `data` is
/// shorter than the type signature requires.
pub fn unpack(data: &[u8], buf: &mut [u8], count: usize, dtype: &Datatype) -> MpiResult<usize> {
    unpack_with(data, buf, count, dtype, 1, |src, dst| {
        dst.copy_from_slice(src)
    })
}

/// Scatter like [`unpack`], but apply `copy` while scattering (see
/// [`pack_with_into`] for the fusion contract and the misaligned-segment
/// fallback).
pub fn unpack_with(
    data: &[u8],
    buf: &mut [u8],
    count: usize,
    dtype: &Datatype,
    elem_width: usize,
    copy: impl Fn(&[u8], &mut [u8]),
) -> MpiResult<usize> {
    let segs = flatten_n(dtype, count);
    let total = segs.iter().map(|s| s.len).sum::<u64>() as usize;
    if data.len() < total {
        return Err(MpiError::Truncated {
            needed: total,
            available: data.len(),
        });
    }
    if !segs_elem_aligned(&segs, elem_width) {
        let mut converted = vec![0u8; total];
        copy(&data[..total], &mut converted);
        return unpack(&converted, buf, count, dtype);
    }
    let mut pos = 0usize;
    for s in &segs {
        let (lo, hi) = seg_range(s, buf.len())?;
        copy(&data[pos..pos + s.len as usize], &mut buf[lo..hi]);
        pos += s.len as usize;
    }
    Ok(pos)
}

/// True when every flattened segment holds a whole number of
/// `elem_width`-byte elements, i.e. no element straddles a segment
/// boundary and per-segment conversion is safe.
fn segs_elem_aligned(segs: &[Segment], elem_width: usize) -> bool {
    elem_width <= 1 || segs.iter().all(|s| s.len % elem_width as u64 == 0)
}

fn seg_range(s: &Segment, buf_len: usize) -> MpiResult<(usize, usize)> {
    if s.offset < 0 {
        return Err(MpiError::InvalidDatatype(format!(
            "segment at negative offset {} cannot address a slice",
            s.offset
        )));
    }
    let lo = s.offset as usize;
    let hi = lo + s.len as usize;
    if hi > buf_len {
        return Err(MpiError::Truncated {
            needed: hi,
            available: buf_len,
        });
    }
    Ok((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_contiguous_is_copy() {
        let buf = [1u8, 2, 3, 4, 5, 6];
        let t = Datatype::contiguous(6, Datatype::byte());
        assert_eq!(pack(&buf, 1, &t).unwrap(), buf.to_vec());
    }

    #[test]
    fn pack_vector_gathers() {
        let buf = [0u8, 1, 2, 3, 4, 5, 6, 7];
        // 2 blocks of 2 bytes, stride 4: picks 0,1,4,5.
        let t = Datatype::vector(2, 2, 4, Datatype::byte());
        assert_eq!(pack(&buf, 1, &t).unwrap(), vec![0, 1, 4, 5]);
    }

    #[test]
    fn unpack_is_inverse_of_pack() {
        let src: Vec<u8> = (0..32).collect();
        let t = Datatype::subarray(&[4, 8], &[2, 3], &[1, 2], Datatype::byte()).unwrap();
        let packed = pack(&src, 1, &t).unwrap();
        assert_eq!(packed.len(), 6);
        let mut dst = vec![0u8; 32];
        let used = unpack(&packed, &mut dst, 1, &t).unwrap();
        assert_eq!(used, 6);
        // The selected region matches, everything else is zero.
        for (i, &v) in dst.iter().enumerate() {
            let row = i / 8;
            let col = i % 8;
            if (1..3).contains(&row) && (2..5).contains(&col) {
                assert_eq!(v, src[i], "selected byte {i}");
            } else {
                assert_eq!(v, 0, "unselected byte {i}");
            }
        }
    }

    #[test]
    fn pack_out_of_bounds_errors() {
        let buf = [0u8; 4];
        let t = Datatype::contiguous(8, Datatype::byte());
        assert!(matches!(
            pack(&buf, 1, &t),
            Err(MpiError::Truncated {
                needed: 8,
                available: 4
            })
        ));
    }

    #[test]
    fn unpack_short_data_errors() {
        let mut buf = [0u8; 8];
        let t = Datatype::contiguous(8, Datatype::byte());
        assert!(unpack(&[1, 2, 3], &mut buf, 1, &t).is_err());
    }

    #[test]
    fn pack_repeated_instances() {
        let buf = [9u8, 0, 8, 0, 7, 0, 6, 0];
        // One byte then a hole; extent 2; 4 instances pick 9,8,7,6.
        let t = Datatype::resized(0, 2, Datatype::byte());
        assert_eq!(pack(&buf, 4, &t).unwrap(), vec![9, 8, 7, 6]);
    }

    #[test]
    fn zero_count_packs_nothing() {
        let t = Datatype::double();
        assert!(pack(&[], 0, &t).unwrap().is_empty());
        let mut buf = [];
        assert_eq!(unpack(&[], &mut buf, 0, &t).unwrap(), 0);
    }

    /// A 2-byte lane swap usable as the fused copy hook in tests.
    fn swap2(src: &[u8], dst: &mut [u8]) {
        for (s, d) in src.chunks_exact(2).zip(dst.chunks_exact_mut(2)) {
            d[0] = s[1];
            d[1] = s[0];
        }
    }

    #[test]
    fn pack_with_fuses_conversion() {
        let buf = [0u8, 1, 2, 3, 4, 5, 6, 7];
        // 2 blocks of 2 bytes, stride 4: picks 0,1,4,5 — aligned for width 2.
        let t = Datatype::vector(2, 2, 4, Datatype::byte());
        let fused = pack_with(&buf, 1, &t, 2, swap2).unwrap();
        let mut staged = vec![0u8; 4];
        swap2(&pack(&buf, 1, &t).unwrap(), &mut staged);
        assert_eq!(fused, staged);
        assert_eq!(fused, vec![1, 0, 5, 4]);
    }

    #[test]
    fn pack_with_misaligned_segments_fall_back() {
        let buf = [0u8, 1, 2, 3, 4, 5, 6, 7];
        // 4 blocks of 1 byte, stride 2: segment length 1 < element width 2,
        // so an element spans two segments and fusion must degrade to
        // gather-then-convert.
        let t = Datatype::vector(4, 1, 2, Datatype::byte());
        let fused = pack_with(&buf, 1, &t, 2, swap2).unwrap();
        let mut staged = vec![0u8; 4];
        swap2(&pack(&buf, 1, &t).unwrap(), &mut staged);
        assert_eq!(fused, staged);
        assert_eq!(fused, vec![2, 0, 6, 4]);
    }

    #[test]
    fn unpack_with_is_inverse_of_pack_with() {
        let src: Vec<u8> = (0..32).collect();
        let t = Datatype::subarray(&[4, 8], &[2, 4], &[1, 2], Datatype::byte()).unwrap();
        let packed = pack_with(&src, 1, &t, 2, swap2).unwrap();
        let mut dst = vec![0u8; 32];
        let used = unpack_with(&packed, &mut dst, 1, &t, 2, swap2).unwrap();
        assert_eq!(used, 8);
        let mut plain = vec![0u8; 32];
        unpack(&pack(&src, 1, &t).unwrap(), &mut plain, 1, &t).unwrap();
        assert_eq!(dst, plain, "swap twice restores the original bytes");
    }
}
