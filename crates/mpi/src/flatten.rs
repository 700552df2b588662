//! Datatype flattening: typemap → offset/length segment list.
//!
//! ROMIO-style MPI-IO implementations "flatten" a derived datatype into a
//! list of `(byte offset, byte length)` segments; everything downstream
//! (file views, data sieving, two-phase I/O) operates on these lists. We
//! coalesce adjacent segments during emission. A subarray is walked by
//! `pnetcdf_format::layout::walk`, the one walker of a strided box: with a
//! contiguous inner type each of its runs — a row, or several whole rows —
//! is one segment; any other inner type is emitted element by element, in
//! the same row-major order.

use pnetcdf_format::layout;

use crate::datatype::Datatype;

/// One contiguous run of bytes: `offset` relative to the datatype origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Byte offset (may be negative for types with a negative lower bound).
    pub offset: i64,
    /// Length in bytes; always nonzero in a flattened list.
    pub len: u64,
}

impl Segment {
    /// Exclusive end offset.
    pub fn end(&self) -> i64 {
        self.offset + self.len as i64
    }
}

/// Accumulates segments, merging runs that touch.
#[derive(Default)]
pub struct Coalescer {
    out: Vec<Segment>,
}

impl Coalescer {
    /// New empty coalescer.
    pub fn new() -> Coalescer {
        Coalescer::default()
    }

    /// Append a run, merging with the previous one when adjacent.
    pub fn push(&mut self, offset: i64, len: u64) {
        if len == 0 {
            return;
        }
        if let Some(last) = self.out.last_mut() {
            if last.end() == offset {
                last.len += len;
                return;
            }
        }
        self.out.push(Segment { offset, len });
    }

    /// Finish, returning the segment list in emission order.
    pub fn finish(self) -> Vec<Segment> {
        self.out
    }
}

/// Flatten one instance of `dtype` into coalesced segments, in typemap order.
pub fn flatten(dtype: &Datatype) -> Vec<Segment> {
    let mut c = Coalescer::new();
    emit(dtype, 0, &mut c);
    c.finish()
}

/// Flatten `count` repeated instances (each shifted by the type's extent).
pub fn flatten_n(dtype: &Datatype, count: usize) -> Vec<Segment> {
    let mut c = Coalescer::new();
    let ext = dtype.extent() as i64;
    for r in 0..count {
        emit(dtype, r as i64 * ext, &mut c);
    }
    c.finish()
}

/// Total data bytes in a segment list.
pub fn total_len(segs: &[Segment]) -> u64 {
    segs.iter().map(|s| s.len).sum()
}

fn emit(dtype: &Datatype, base: i64, c: &mut Coalescer) {
    match dtype {
        Datatype::Base(b) => c.push(base, b.size() as u64),
        Datatype::Contiguous { count, inner } => {
            if inner.is_contiguous() {
                c.push(base + inner.lb(), *count as u64 * inner.size());
            } else {
                let e = inner.extent() as i64;
                for i in 0..*count {
                    emit(inner, base + i as i64 * e, c);
                }
            }
        }
        Datatype::Vector {
            count,
            blocklen,
            stride,
            inner,
        } => {
            let e = inner.extent() as i64;
            emit_strided(inner, base, *count, *blocklen, *stride * e, e, c);
        }
        Datatype::Hvector {
            count,
            blocklen,
            stride_bytes,
            inner,
        } => {
            let e = inner.extent() as i64;
            emit_strided(inner, base, *count, *blocklen, *stride_bytes, e, c);
        }
        Datatype::Indexed { blocks, inner } => {
            let e = inner.extent() as i64;
            for &(d, l) in blocks {
                emit_block(inner, base + d * e, l, e, c);
            }
        }
        Datatype::Hindexed { blocks, inner } => {
            let e = inner.extent() as i64;
            for &(d, l) in blocks {
                emit_block(inner, base + d, l, e, c);
            }
        }
        Datatype::Struct { fields } => {
            for (off, count, t) in fields {
                let e = t.extent() as i64;
                for i in 0..*count {
                    emit(t, base + off + i as i64 * e, c);
                }
            }
        }
        Datatype::Subarray {
            sizes,
            subsizes,
            starts,
            inner,
        } => {
            let ext = inner.extent();
            // Bytes between consecutive indices of dimension `d`, row-major.
            let pitch = |d: usize| sizes[d + 1..].iter().product::<u64>() * ext;
            let dim = |d: usize| (starts[d] * pitch(d), subsizes[d], pitch(d));
            let contiguous = inner.is_contiguous();
            layout::walk(sizes.len(), dim, ext, 0, &mut |off, n| {
                let at = base + off as i64;
                if contiguous {
                    c.push(at + inner.lb(), n * inner.size());
                } else {
                    for j in 0..n {
                        emit(inner, at + (j * ext) as i64, c);
                    }
                }
            });
        }
        Datatype::Resized { inner, .. } => emit(inner, base, c),
    }
}

fn emit_block(inner: &Datatype, base: i64, len: usize, inner_extent: i64, c: &mut Coalescer) {
    if inner.is_contiguous() {
        c.push(base + inner.lb(), len as u64 * inner.size());
    } else {
        for j in 0..len {
            emit(inner, base + j as i64 * inner_extent, c);
        }
    }
}

fn emit_strided(
    inner: &Datatype,
    base: i64,
    count: usize,
    blocklen: usize,
    stride_bytes: i64,
    inner_extent: i64,
    c: &mut Coalescer,
) {
    for i in 0..count {
        emit_block(
            inner,
            base + i as i64 * stride_bytes,
            blocklen,
            inner_extent,
            c,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::Datatype;

    fn segs(d: &Datatype) -> Vec<(i64, u64)> {
        flatten(d).into_iter().map(|s| (s.offset, s.len)).collect()
    }

    #[test]
    fn base_and_contiguous() {
        assert_eq!(segs(&Datatype::double()), vec![(0, 8)]);
        assert_eq!(
            segs(&Datatype::contiguous(3, Datatype::int())),
            vec![(0, 12)]
        );
    }

    #[test]
    fn vector_flattens_to_blocks() {
        let t = Datatype::vector(3, 2, 4, Datatype::int());
        assert_eq!(segs(&t), vec![(0, 8), (16, 8), (32, 8)]);
    }

    #[test]
    fn vector_with_stride_equal_blocklen_coalesces() {
        let t = Datatype::vector(3, 4, 4, Datatype::int());
        assert_eq!(segs(&t), vec![(0, 48)]);
    }

    #[test]
    fn indexed_blocks() {
        let t = Datatype::indexed(vec![(0, 1), (2, 2)], Datatype::int());
        assert_eq!(segs(&t), vec![(0, 4), (8, 8)]);
    }

    #[test]
    fn hindexed_blocks_in_bytes() {
        let t = Datatype::hindexed(
            vec![(0, 1), (6, 1)],
            Datatype::Base(crate::datatype::BaseType::I16),
        );
        assert_eq!(segs(&t), vec![(0, 2), (6, 2)]);
    }

    #[test]
    fn struct_fields() {
        let t = Datatype::structure(vec![(0, 1, Datatype::int()), (8, 2, Datatype::double())]);
        assert_eq!(segs(&t), vec![(0, 4), (8, 16)]);
    }

    #[test]
    fn subarray_2d_interior() {
        // 4x4 array of bytes, 2x2 subarray at (1,1):
        // rows 1..3, cols 1..3 -> offsets 5..7 and 9..11.
        let t = Datatype::subarray(&[4, 4], &[2, 2], &[1, 1], Datatype::byte()).unwrap();
        assert_eq!(segs(&t), vec![(5, 2), (9, 2)]);
    }

    #[test]
    fn subarray_full_rows_collapse() {
        // 4x4, select rows 1..3 fully: one run of 8 bytes at offset 4.
        let t = Datatype::subarray(&[4, 4], &[2, 4], &[1, 0], Datatype::byte()).unwrap();
        assert_eq!(segs(&t), vec![(4, 8)]);
    }

    #[test]
    fn subarray_whole_array_is_one_run() {
        let t = Datatype::subarray(&[3, 5], &[3, 5], &[0, 0], Datatype::int()).unwrap();
        assert_eq!(segs(&t), vec![(0, 60)]);
    }

    #[test]
    fn subarray_3d_partition_x() {
        // 2x2x4 array, select all z,y but x in 2..4 (an "X partition").
        let t = Datatype::subarray(&[2, 2, 4], &[2, 2, 2], &[0, 0, 2], Datatype::byte()).unwrap();
        assert_eq!(segs(&t), vec![(2, 2), (6, 2), (10, 2), (14, 2)]);
    }

    #[test]
    fn subarray_zero_subsize_is_empty() {
        let t = Datatype::subarray(&[4, 4], &[0, 2], &[0, 0], Datatype::byte()).unwrap();
        assert!(flatten(&t).is_empty());
    }

    #[test]
    fn flatten_n_tiles_by_extent() {
        let t = Datatype::vector(2, 1, 2, Datatype::byte());
        // One instance: (0,1), (2,1); extent = 3. Instance 2 starts at 3, so
        // its first byte coalesces with the previous instance's last run.
        assert_eq!(
            flatten_n(&t, 2)
                .iter()
                .map(|s| (s.offset, s.len))
                .collect::<Vec<_>>(),
            vec![(0, 1), (2, 2), (5, 1)]
        );
    }

    #[test]
    fn flatten_n_contiguous_coalesces_across_instances() {
        let t = Datatype::contiguous(2, Datatype::byte());
        assert_eq!(
            flatten_n(&t, 3)
                .iter()
                .map(|s| (s.offset, s.len))
                .collect::<Vec<_>>(),
            vec![(0, 6)]
        );
    }

    #[test]
    fn total_len_matches_size() {
        let t = Datatype::subarray(&[8, 8], &[3, 5], &[2, 1], Datatype::double()).unwrap();
        assert_eq!(total_len(&flatten(&t)), t.size());
    }

    #[test]
    fn resized_flattens_like_inner() {
        let t = Datatype::resized(0, 64, Datatype::int());
        assert_eq!(segs(&t), vec![(0, 4)]);
        // But repetition respects the new extent.
        assert_eq!(
            flatten_n(&t, 2)
                .iter()
                .map(|s| (s.offset, s.len))
                .collect::<Vec<_>>(),
            vec![(0, 4), (64, 4)]
        );
    }
}
