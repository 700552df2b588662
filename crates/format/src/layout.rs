//! Data layout: where each variable's bytes live (paper Figure 1).
//!
//! Fixed-size variables are stored contiguously in definition order after
//! the header; record variables are stored interleaved, one record slab per
//! variable per record, the slabs repeating every `recsize` bytes along the
//! unlimited dimension. This module computes `vsize`/`begin` for every
//! variable and translates `(start, count, stride)` accesses into absolute
//! file byte runs — the same math PnetCDF uses to construct MPI file views.

use crate::error::{FormatError, FormatResult};
use crate::header::Header;
use crate::Version;

/// Computed file layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    /// Offset where array data begins (header end, aligned).
    pub data_start: u64,
    /// Offset where the record section begins.
    pub record_start: u64,
    /// Bytes of one full record (all record variables' slabs).
    pub recsize: u64,
}

/// Compute one variable's `vsize`: the product of its non-record dimension
/// lengths times the element size, padded to 4 bytes — except that the
/// padding is skipped when the file has exactly one record variable (the
/// spec's special case, which lets a lone byte/short record variable pack
/// tightly).
fn vsize_of(h: &Header, varid: usize, skip_padding: bool) -> FormatResult<u64> {
    // Checked arithmetic throughout: a corrupt header can carry dimension
    // lengths whose product overflows u64, and that must surface as an
    // error, not wraparound (or a debug-build panic).
    let mut elems: u64 = 1;
    for len in h.record_shape(varid) {
        elems = elems.checked_mul(len).ok_or_else(|| too_large(h, varid))?;
    }
    let raw = elems
        .checked_mul(h.vars[varid].nctype.size())
        .ok_or_else(|| too_large(h, varid))?;
    if skip_padding {
        Ok(raw)
    } else {
        raw.checked_add(3)
            .map(|r| r & !3)
            .ok_or_else(|| too_large(h, varid))
    }
}

fn too_large(h: &Header, varid: usize) -> FormatError {
    FormatError::TooLarge(format!(
        "variable '{}' is larger than the file format can address",
        h.vars[varid].name
    ))
}

/// Assign `vsize` and `begin` to every variable and return the [`Layout`].
///
/// `align` is the alignment of the data section start (netCDF's
/// `v_align`, normally 4).
pub fn compute(h: &mut Header, align: u64) -> FormatResult<Layout> {
    let align = align.max(4);
    let record_vars: Vec<usize> = (0..h.vars.len()).filter(|&v| h.is_record_var(v)).collect();
    let single_record_var = record_vars.len() == 1;

    // vsize for every variable.
    for v in 0..h.vars.len() {
        let skip_pad = single_record_var && h.is_record_var(v);
        h.vars[v].vsize = vsize_of(h, v, skip_pad)?;
    }

    // The header length is independent of the begin values (fixed-width
    // encodings), so one encode gives the final size.
    let header_len = h.encoded_len();
    let data_start = header_len.div_ceil(align) * align;

    // Fixed variables first, in definition order.
    let mut cur = data_start;
    for v in 0..h.vars.len() {
        if !h.is_record_var(v) {
            h.vars[v].begin = cur;
            cur = cur
                .checked_add(h.vars[v].vsize)
                .ok_or_else(|| too_large(h, v))?;
        }
    }
    // Then the record section.
    let record_start = cur;
    let mut recsize = 0u64;
    for &v in &record_vars {
        h.vars[v].begin = cur;
        cur = cur
            .checked_add(h.vars[v].vsize)
            .ok_or_else(|| too_large(h, v))?;
        recsize = recsize
            .checked_add(h.vars[v].vsize)
            .ok_or_else(|| too_large(h, v))?;
    }

    if h.version == Version::Cdf1 {
        for v in &h.vars {
            if v.begin > u32::MAX as u64 {
                return Err(FormatError::TooLarge(format!(
                    "variable '{}' begins at {} which does not fit CDF-1 32-bit offsets; \
                     use CDF-2 (64-bit offset) format",
                    v.name, v.begin
                )));
            }
        }
    }

    Ok(Layout {
        data_start,
        record_start,
        recsize,
    })
}

/// Validate a `(start, count, stride)` access against a variable's shape.
/// For record variables the record dimension is validated against
/// `numrecs_limit` (reads) or not at all (`None`, writes may extend).
pub fn check_access(
    h: &Header,
    varid: usize,
    start: &[u64],
    count: &[u64],
    stride: Option<&[u64]>,
    numrecs_limit: Option<u64>,
) -> FormatResult<()> {
    let v = h
        .vars
        .get(varid)
        .ok_or_else(|| FormatError::InvalidDefinition(format!("bad variable id {varid}")))?;
    let ndims = v.ndims();
    if start.len() != ndims || count.len() != ndims {
        return Err(FormatError::InvalidDefinition(format!(
            "variable '{}' has {ndims} dims; start/count have {}/{}",
            v.name,
            start.len(),
            count.len()
        )));
    }
    if let Some(st) = stride {
        if st.len() != ndims {
            return Err(FormatError::InvalidDefinition(format!(
                "stride has {} entries, expected {ndims}",
                st.len()
            )));
        }
        if st.contains(&0) {
            return Err(FormatError::InvalidDefinition("zero stride".into()));
        }
    }
    let is_rec = h.is_record_var(varid);
    for d in 0..ndims {
        let limit = if d == 0 && is_rec {
            numrecs_limit.unwrap_or(u64::MAX)
        } else {
            h.dims[v.dimids[d]].len
        };
        if count[d] == 0 {
            continue;
        }
        let step = stride.map_or(1, |s| s[d]);
        let last = (count[d] - 1)
            .checked_mul(step)
            .and_then(|span| start[d].checked_add(span))
            .ok_or_else(|| {
                FormatError::InvalidDefinition(format!(
                    "access to variable '{}' dim {d}: index arithmetic overflows",
                    v.name
                ))
            })?;
        if last >= limit && limit != u64::MAX {
            return Err(FormatError::InvalidDefinition(format!(
                "access to variable '{}' dim {d}: last index {last} >= limit {limit}",
                v.name
            )));
        }
    }
    Ok(())
}

/// Translate a `(start, count, stride)` access on `varid` into absolute
/// file byte runs, coalesced and increasing. `recsize` must come from
/// [`compute`] (it is also derivable from the header, but callers always
/// have a [`Layout`]).
pub fn access_runs(
    h: &Header,
    recsize: u64,
    varid: usize,
    start: &[u64],
    count: &[u64],
    stride: Option<&[u64]>,
) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    access_runs_into(h, recsize, varid, start, count, stride, &mut out);
    out
}

/// [`access_runs`] into caller storage: `out` is cleared and refilled, and
/// nothing else is allocated, so a run list that is passed again keeps its
/// capacity and lowering an access costs no heap traffic.
pub fn access_runs_into(
    h: &Header,
    recsize: u64,
    varid: usize,
    start: &[u64],
    count: &[u64],
    stride: Option<&[u64]>,
    out: &mut Vec<(u64, u64)>,
) {
    out.clear();
    if count.contains(&0) {
        return;
    }
    let v = &h.vars[varid];
    let is_rec = h.is_record_var(varid);
    let inner = Inner::new(h, varid, start, count, stride);
    // Iterate the record dimension (or a single pass for fixed vars).
    let (rec_start, rec_count, rec_stride) = if is_rec {
        (start[0], count[0], stride.map_or(1, |s| s[0]))
    } else {
        (0, 1, 1)
    };
    for r in 0..rec_count {
        inner.walk(0, v.begin + (rec_start + r * rec_stride) * recsize, out);
    }
}

/// Append `[off, off + len)`, extending the last run when it is adjacent.
fn push_run(out: &mut Vec<(u64, u64)>, off: u64, len: u64) {
    if let Some(last) = out.last_mut() {
        if last.0 + last.1 == off {
            last.1 += len;
            return;
        }
    }
    out.push((off, len));
}

/// The non-record dimensions of one access down to its last partial one
/// (every count non-zero), walked outermost first; `esize` spans the whole
/// dimensions folded below them. The walk keeps its position in the call
/// stack, one frame per dimension, instead of in an index vector.
struct Inner<'a> {
    dims: &'a [crate::Dim],
    dimids: &'a [usize],
    start: &'a [u64],
    count: &'a [u64],
    stride: Option<&'a [u64]>,
    esize: u64,
}

impl<'a> Inner<'a> {
    /// The walk of `(start, count, stride)` on `varid`. Trailing dimensions
    /// selected whole (start 0, every index, unit stride) are one contiguous
    /// piece of the file, so they are folded into the element and the walk
    /// stops at the last partial dimension. These are the rows `push_run`
    /// would merge back into one run, so no run list changes. The record
    /// dimension is never folded.
    fn new(
        h: &'a Header,
        varid: usize,
        start: &'a [u64],
        count: &'a [u64],
        stride: Option<&'a [u64]>,
    ) -> Inner<'a> {
        let v = &h.vars[varid];
        let skip = usize::from(h.is_record_var(varid));
        let (mut keep, mut esize) = (v.dimids.len(), v.nctype.size());
        while keep > skip {
            let (d, len) = (keep - 1, h.dims[v.dimids[keep - 1]].len);
            if start[d] != 0 || count[d] != len || stride.is_some_and(|s| s[d] != 1) {
                break;
            }
            (keep, esize) = (d, esize * len);
        }
        Inner {
            dims: &h.dims,
            dimids: &v.dimids[skip..keep],
            start: &start[skip..keep],
            count: &count[skip..keep],
            stride: stride.map(|s| &s[skip..keep]),
            esize,
        }
    }

    fn step(&self, d: usize) -> u64 {
        self.stride.map_or(1, |s| s[d])
    }

    /// Emit the runs of dimensions `d..` whose enclosing indices put them
    /// at byte `base`: one element when every dimension was folded.
    fn walk(&self, d: usize, base: u64, out: &mut Vec<(u64, u64)>) {
        let Some(last) = self.dimids.len().checked_sub(1) else {
            return push_run(out, base, self.esize);
        };
        if d == last {
            return self.row(base, out);
        }
        // Bytes between consecutive indices of dimension `d`.
        let pitch = self.dimids[d + 1..]
            .iter()
            .fold(self.esize, |p, &id| p * self.dims[id].len);
        for i in 0..self.count[d] {
            let at = base + (self.start[d] + i * self.step(d)) * pitch;
            if d + 1 == last {
                self.row(at, out);
            } else {
                self.walk(d + 1, at, out);
            }
        }
    }

    /// The innermost dimension: one run, or one per element when strided.
    #[inline]
    fn row(&self, base: u64, out: &mut Vec<(u64, u64)>) {
        let d = self.dimids.len() - 1;
        let step = self.step(d);
        if step == 1 {
            let off = base + self.start[d] * self.esize;
            push_run(out, off, self.count[d] * self.esize);
        } else {
            for k in 0..self.count[d] {
                let off = base + (self.start[d] + k * step) * self.esize;
                push_run(out, off, self.esize);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::NcType;

    /// The lowering as it was before `access_runs_into`: an index-vector
    /// odometer over temporary shape and stride vectors. Kept as the oracle
    /// of the identity proptest below.
    fn access_runs_oracle(
        h: &Header,
        recsize: u64,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
    ) -> Vec<(u64, u64)> {
        let v = &h.vars[varid];
        let esize = v.nctype.size();
        let is_rec = h.is_record_var(varid);
        let mut out: Vec<(u64, u64)> = Vec::new();

        // Inner (non-record) shape and element strides.
        let skip = usize::from(is_rec);
        let inner_shape = h.record_shape(varid);
        let nd = inner_shape.len();
        let mut elem_strides = vec![1u64; nd];
        for d in (0..nd.saturating_sub(1)).rev() {
            elem_strides[d] = elem_strides[d + 1] * inner_shape[d + 1];
        }

        let push = |out: &mut Vec<(u64, u64)>, off: u64, len: u64| {
            if len == 0 {
                return;
            }
            if let Some(last) = out.last_mut() {
                if last.0 + last.1 == off {
                    last.1 += len;
                    return;
                }
            }
            out.push((off, len));
        };

        // Iterate the record dimension (or a single pass for fixed vars).
        let (rec_start, rec_count, rec_stride) = if is_rec {
            (start[0], count[0], stride.map_or(1, |s| s[0]))
        } else {
            (0, 1, 1)
        };

        let inner_start = &start[skip..];
        let inner_count = &count[skip..];
        let inner_stride: Option<&[u64]> = stride.map(|s| &s[skip..]);
        if inner_count.contains(&0) || rec_count == 0 {
            return out;
        }

        for r in 0..rec_count {
            let base = if is_rec {
                v.begin + (rec_start + r * rec_stride) * recsize
            } else {
                v.begin
            };
            if nd == 0 {
                push(&mut out, base, esize);
                continue;
            }
            // Odometer over all inner dims except the innermost.
            let mut idx = vec![0u64; nd - 1];
            loop {
                let mut elem_off: u64 = 0;
                for d in 0..nd - 1 {
                    let step = inner_stride.map_or(1, |s| s[d]);
                    elem_off += (inner_start[d] + idx[d] * step) * elem_strides[d];
                }
                let last_step = inner_stride.map_or(1, |s| s[nd - 1]);
                if last_step == 1 {
                    let off = elem_off + inner_start[nd - 1];
                    push(&mut out, base + off * esize, inner_count[nd - 1] * esize);
                } else {
                    for k in 0..inner_count[nd - 1] {
                        let off = elem_off + inner_start[nd - 1] + k * last_step;
                        push(&mut out, base + off * esize, esize);
                    }
                }
                // Increment the odometer.
                let mut d = nd - 1;
                loop {
                    if d == 0 {
                        break;
                    }
                    d -= 1;
                    idx[d] += 1;
                    if idx[d] < inner_count[d] {
                        break;
                    }
                    idx[d] = 0;
                    if d == 0 {
                        d = usize::MAX;
                        break;
                    }
                }
                if d == usize::MAX || nd == 1 {
                    break;
                }
            }
        }
        out
    }

    fn sample() -> (Header, Layout) {
        let mut h = Header::new(Version::Cdf1);
        let t = h.add_dim("time", 0).unwrap();
        let z = h.add_dim("z", 2).unwrap();
        let y = h.add_dim("y", 3).unwrap();
        let x = h.add_dim("x", 4).unwrap();
        h.add_var("fixed_a", NcType::Int, &[z, y, x]).unwrap(); // 96 bytes
        h.add_var("fixed_b", NcType::Short, &[y]).unwrap(); // 6 -> pad 8
        h.add_var("rec_a", NcType::Float, &[t, y, x]).unwrap(); // 48/rec
        h.add_var("rec_b", NcType::Byte, &[t, x]).unwrap(); // 4/rec
        let l = compute(&mut h, 4).unwrap();
        (h, l)
    }

    #[test]
    fn layout_assigns_begins_in_order() {
        let (h, l) = sample();
        assert_eq!(l.data_start % 4, 0);
        assert!(l.data_start >= h.encoded_len());
        let a = &h.vars[0];
        let b = &h.vars[1];
        assert_eq!(a.begin, l.data_start);
        assert_eq!(a.vsize, 96);
        assert_eq!(b.begin, a.begin + 96);
        assert_eq!(b.vsize, 8, "6 bytes padded to 8");
        // Record section follows the fixed section.
        assert_eq!(l.record_start, b.begin + 8);
        assert_eq!(h.vars[2].begin, l.record_start);
        assert_eq!(h.vars[2].vsize, 48);
        assert_eq!(h.vars[3].begin, l.record_start + 48);
        assert_eq!(h.vars[3].vsize, 4);
        assert_eq!(l.recsize, 52);
    }

    #[test]
    fn single_record_var_skips_padding() {
        let mut h = Header::new(Version::Cdf1);
        let t = h.add_dim("time", 0).unwrap();
        let x = h.add_dim("x", 3).unwrap();
        h.add_var("r", NcType::Byte, &[t, x]).unwrap(); // 3 bytes/record
        let l = compute(&mut h, 4).unwrap();
        assert_eq!(h.vars[0].vsize, 3, "no padding with a single record var");
        assert_eq!(l.recsize, 3);
    }

    #[test]
    fn cdf1_rejects_huge_offsets() {
        let mut h = Header::new(Version::Cdf1);
        let x = h.add_dim("x", 1 << 30).unwrap();
        h.add_var("a", NcType::Double, &[x]).unwrap(); // 8 GiB
        h.add_var("b", NcType::Byte, &[x]).unwrap(); // begins past 4 GiB
        assert!(matches!(compute(&mut h, 4), Err(FormatError::TooLarge(_))));
        h.version = Version::Cdf2;
        assert!(compute(&mut h, 4).is_ok());
    }

    #[test]
    fn access_runs_whole_fixed_var_is_one_run() {
        let (h, l) = sample();
        let runs = access_runs(&h, l.recsize, 0, &[0, 0, 0], &[2, 3, 4], None);
        assert_eq!(runs, vec![(h.vars[0].begin, 96)]);
    }

    #[test]
    fn access_runs_subarray() {
        let (h, l) = sample();
        // fixed_a[0..2][1][1..3]: rows of 2 ints in each z plane.
        let runs = access_runs(&h, l.recsize, 0, &[0, 1, 1], &[2, 1, 2], None);
        let b = h.vars[0].begin;
        assert_eq!(runs, vec![(b + 5 * 4, 8), (b + 17 * 4, 8)]);
    }

    #[test]
    fn access_runs_strided() {
        let (h, l) = sample();
        // fixed_a[0][0][0..4:2] -> elements 0 and 2.
        let runs = access_runs(&h, l.recsize, 0, &[0, 0, 0], &[1, 1, 2], Some(&[1, 1, 2]));
        let b = h.vars[0].begin;
        assert_eq!(runs, vec![(b, 4), (b + 8, 4)]);
    }

    #[test]
    fn access_runs_record_var_spans_records() {
        let (h, l) = sample();
        // rec_a records 1..3, whole record each: two runs recsize apart.
        let runs = access_runs(&h, l.recsize, 2, &[1, 0, 0], &[2, 3, 4], None);
        let b = h.vars[2].begin;
        assert_eq!(runs, vec![(b + l.recsize, 48), (b + 2 * l.recsize, 48)]);
    }

    /// FLASH's `(blocks, z, y, x)` unknowns at a small size: `n` is fixed,
    /// `r` a record variable whose records are not adjacent.
    fn blocks() -> (Header, Layout) {
        let mut h = Header::new(Version::Cdf2);
        let t = h.add_dim("time", 0).unwrap();
        let b = h.add_dim("blocks", 6).unwrap();
        let zyx: Vec<usize> = ["z", "y", "x"]
            .iter()
            .map(|n| h.add_dim(n, 3).unwrap())
            .collect();
        h.add_var("n", NcType::Double, &[b, zyx[0], zyx[1], zyx[2]])
            .unwrap();
        h.add_var("r", NcType::Float, &[t, zyx[0], zyx[1], zyx[2]])
            .unwrap();
        h.add_var("r2", NcType::Int, &[t, zyx[2]]).unwrap();
        let l = compute(&mut h, 4).unwrap();
        (h, l)
    }

    /// Dimensions the walk keeps, and its element size after the fold.
    fn fold(h: &Header, varid: usize, sel: [&[u64]; 2], stride: Option<&[u64]>) -> (usize, u64) {
        let inner = Inner::new(h, varid, sel[0], sel[1], stride);
        (inner.dimids.len(), inner.esize)
    }

    #[test]
    fn a_block_slab_of_a_fixed_var_is_one_run() {
        let (h, l) = blocks();
        let b = h.vars[0].begin;
        // This rank's `[bpp, s, s, s]`: the blocks are walked, nothing below.
        let (start, count) = ([2, 0, 0, 0], [3, 3, 3, 3]);
        assert_eq!(fold(&h, 0, [&start, &count], None), (1, 27 * 8));
        let runs = access_runs(&h, l.recsize, 0, &start, &count, None);
        assert_eq!(runs, vec![(b + 2 * 27 * 8, 3 * 27 * 8)]);
        // Every block, with a unit stride argument: nothing left to walk.
        let (all, unit) = ([0; 4], [1; 4]);
        assert_eq!(
            fold(&h, 0, [&all, &[6, 3, 3, 3]], Some(&unit)),
            (0, 6 * 27 * 8)
        );
        let runs = access_runs(&h, l.recsize, 0, &all, &[6, 3, 3, 3], Some(&unit));
        assert_eq!(runs, vec![(b, 6 * 27 * 8)]);
    }

    #[test]
    fn a_record_with_whole_inner_dims_is_one_run_per_record() {
        let (h, l) = blocks();
        let (start, count) = ([1, 0, 0, 0], [3, 3, 3, 3]);
        assert_eq!(fold(&h, 1, [&start, &count], None), (0, 27 * 4));
        assert!(l.recsize > 27 * 4, "records are not adjacent");
        let b = h.vars[1].begin;
        let want: Vec<_> = (1..4).map(|r| (b + r * l.recsize, 27 * 4)).collect();
        assert_eq!(access_runs(&h, l.recsize, 1, &start, &count, None), want);
    }

    #[test]
    fn a_partial_middle_dimension_stops_the_fold() {
        let (h, l) = blocks();
        // n[2..4][0..3][1..3][0..3]: x folds, y is partial and walked.
        let (start, count) = ([2, 0, 1, 0], [2, 3, 2, 3]);
        assert_eq!(fold(&h, 0, [&start, &count], None), (3, 3 * 8));
        let b = h.vars[0].begin;
        let want: Vec<_> = (2..4)
            .flat_map(|blk| (0..3).map(move |z| (b + ((blk * 3 + z) * 3 + 1) * 24, 48)))
            .collect();
        assert_eq!(access_runs(&h, l.recsize, 0, &start, &count, None), want);
    }

    #[test]
    fn a_strided_last_dimension_is_never_folded() {
        let (h, _) = blocks();
        let (all, count) = ([0; 4], [6, 3, 3, 2]);
        assert_eq!(fold(&h, 0, [&all, &count], Some(&[1, 1, 1, 2])), (4, 8));
        // A length-1 dimension is selected whole by any stride; only a unit
        // stride folds it.
        let mut h = Header::new(Version::Cdf1);
        let y = h.add_dim("y", 3).unwrap();
        let x = h.add_dim("x", 1).unwrap();
        h.add_var("v", NcType::Int, &[y, x]).unwrap();
        let l = compute(&mut h, 4).unwrap();
        let (start, count) = ([0, 0], [3, 1]);
        assert_eq!(fold(&h, 0, [&start, &count], Some(&[1, 2])), (2, 4));
        assert_eq!(fold(&h, 0, [&start, &count], Some(&[1, 1])), (0, 12));
        for stride in [[1, 2], [1, 1]] {
            let runs = access_runs(&h, l.recsize, 0, &start, &count, Some(&stride));
            assert_eq!(runs, vec![(h.vars[0].begin, 12)]);
        }
    }

    #[test]
    fn access_runs_scalar_var() {
        let mut h = Header::new(Version::Cdf1);
        h.add_var("s", NcType::Double, &[]).unwrap();
        let l = compute(&mut h, 4).unwrap();
        let runs = access_runs(&h, l.recsize, 0, &[], &[], None);
        assert_eq!(runs, vec![(h.vars[0].begin, 8)]);
    }

    #[test]
    fn check_access_bounds() {
        let (h, _) = sample();
        assert!(check_access(&h, 0, &[0, 0, 0], &[2, 3, 4], None, None).is_ok());
        assert!(check_access(&h, 0, &[0, 0, 1], &[2, 3, 4], None, None).is_err());
        assert!(
            check_access(&h, 0, &[0, 0], &[2, 3], None, None).is_err(),
            "rank mismatch"
        );
        // Strided: count 2 stride 2 reaches index 2 < 4 (ok); count 3
        // stride 2 reaches index 4 (overrun).
        assert!(check_access(&h, 0, &[0, 0, 0], &[2, 3, 2], Some(&[1, 1, 2]), None).is_ok());
        assert!(check_access(&h, 0, &[0, 0, 0], &[2, 3, 3], Some(&[1, 1, 2]), None).is_err());
        // Record dim: limited for reads, unlimited for writes.
        assert!(check_access(&h, 2, &[5, 0, 0], &[1, 3, 4], None, Some(3)).is_err());
        assert!(check_access(&h, 2, &[5, 0, 0], &[1, 3, 4], None, None).is_ok());
        // Zero stride rejected.
        assert!(check_access(&h, 0, &[0, 0, 0], &[1, 1, 1], Some(&[1, 1, 0]), None).is_err());
        // Zero count is always fine.
        assert!(check_access(&h, 0, &[2, 3, 4], &[0, 0, 0], None, None).is_ok());
    }

    #[test]
    fn empty_count_yields_no_runs() {
        let (h, l) = sample();
        assert!(access_runs(&h, l.recsize, 0, &[0, 0, 0], &[2, 0, 4], None).is_empty());
    }

    #[test]
    fn runs_total_matches_request() {
        let (h, l) = sample();
        let runs = access_runs(&h, l.recsize, 2, &[0, 1, 1], &[3, 2, 2], None);
        let total: u64 = runs.iter().map(|r| r.1).sum();
        assert_eq!(total, 3 * 2 * 2 * 4);
    }

    /// Up to five dimensions, each `(len, start, count, stride)` with the
    /// strided selection inside `len`; counts may be zero. Half of them are
    /// selected whole, so runs of whole trailing dimensions, which the
    /// lowering folds, are common.
    fn arb_dims() -> impl proptest::prelude::Strategy<Value = Vec<(u64, u64, u64, u64)>> {
        use proptest::prelude::*;
        let part = (1u64..7, 1u64..4).prop_flat_map(|(len, stride)| {
            (0..len).prop_flat_map(move |start| {
                let fit = (len - 1 - start) / stride + 1;
                (Just(len), Just(start), 0..fit + 1, Just(stride))
            })
        });
        let whole = (1u64..7).prop_map(|len| (len, 0, len, 1));
        proptest::collection::vec(proptest::prop_oneof![whole, part], 0..6)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The allocation-free lowering yields exactly the runs of the
        /// odometer it replaced — fixed and record variables, with and
        /// without a stride argument, into a run list that is not empty.
        #[test]
        fn access_runs_into_matches_the_oracle(
            dims in arb_dims(),
            record in proptest::prelude::any::<bool>(),
            esize in 0usize..4,
        ) {
            let nctype = [NcType::Byte, NcType::Short, NcType::Float, NcType::Double][esize];
            let mut h = Header::new(Version::Cdf2);
            let dimids: Vec<usize> = dims
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    // The first dimension of a record variable is unlimited;
                    // its generated length only bounds the selection.
                    let len = if record && i == 0 { 0 } else { d.0 };
                    h.add_dim(&format!("d{i}"), len).unwrap()
                })
                .collect();
            // Neighbours on both sides, so `begin` and `recsize` are not trivial.
            h.add_var("before", NcType::Short, &dimids).unwrap();
            let v = h.add_var("v", nctype, &dimids).unwrap();
            h.add_var("after", NcType::Int, &dimids).unwrap();
            let l = compute(&mut h, 4).unwrap();
            let start: Vec<u64> = dims.iter().map(|d| d.1).collect();
            let count: Vec<u64> = dims.iter().map(|d| d.2).collect();
            let stride: Vec<u64> = dims.iter().map(|d| d.3).collect();
            let mut recycled = vec![(7, 7); 3];
            for stride in [Some(&stride[..]), None] {
                check_access(&h, v, &start, &count, stride, None).unwrap();
                let want = access_runs_oracle(&h, l.recsize, v, &start, &count, stride);
                proptest::prop_assert_eq!(
                    &access_runs(&h, l.recsize, v, &start, &count, stride), &want);
                access_runs_into(&h, l.recsize, v, &start, &count, stride, &mut recycled);
                proptest::prop_assert_eq!(&recycled, &want);
            }
        }
    }
}
