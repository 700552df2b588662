//! `imap` gather/scatter for the mapped (`varm`) access methods.
//!
//! `imap[d]` is the distance in elements between successive indices of
//! dimension `d` in the caller's memory; the file side is always canonical
//! row-major order. Both directions walk the map with
//! [`layout::walk`], the one walker of a strided box, counting in elements:
//! each of its runs is a stretch the map lays out back to back, copied in
//! one slice. The map is outside input, so its arithmetic is checked.

use pnetcdf_format::{layout, NcValue};

use crate::error::{NcmpiError, NcmpiResult};

/// One past the highest memory index a map of `count` through `imap`
/// reaches, 0 when it selects nothing. A rank mismatch, or an index past
/// `u64`, is an `InvalidArgument`.
pub(crate) fn imap_reach(count: &[u64], imap: &[u64]) -> NcmpiResult<u64> {
    if imap.len() != count.len() {
        return Err(NcmpiError::InvalidArgument(format!(
            "imap has {} entries, expected {}",
            imap.len(),
            count.len()
        )));
    }
    if count.contains(&0) {
        return Ok(0);
    }
    let reach = count.iter().zip(imap).try_fold(1u64, |end, (&c, &m)| {
        (c - 1)
            .checked_mul(m)
            .and_then(|span| end.checked_add(span))
    });
    reach.ok_or_else(|| too_large(count, imap))
}

fn too_large(count: &[u64], imap: &[u64]) -> NcmpiError {
    NcmpiError::InvalidArgument(format!(
        "imap {imap:?} of count {count:?} maps more values than memory can hold"
    ))
}

/// An empty vector with room for `n` values, or an `InvalidArgument` when
/// the allocator has none.
fn room<T>(n: u64, count: &[u64], imap: &[u64]) -> NcmpiResult<Vec<T>> {
    let mut out = Vec::new();
    let n = usize::try_from(n).map_err(|_| too_large(count, imap))?;
    out.try_reserve_exact(n)
        .map_err(|_| too_large(count, imap))?;
    Ok(out)
}

/// The runs of the map, in elements, in canonical order.
fn walk_map(count: &[u64], imap: &[u64], emit: &mut impl FnMut(usize, usize)) {
    let dim = |d: usize| (0, count[d], imap[d]);
    layout::walk(count.len(), dim, 1, 0, &mut |at, n| {
        emit(at as usize, n as usize)
    });
}

/// Gather values from an `imap` layout into canonical order.
pub fn gather_by_imap<T: NcValue>(count: &[u64], imap: &[u64], vals: &[T]) -> NcmpiResult<Vec<T>> {
    let reach = imap_reach(count, imap)?;
    if reach > vals.len() as u64 {
        return Err(NcmpiError::InvalidArgument(format!(
            "imap index {} outside value buffer of {}",
            reach - 1,
            vals.len()
        )));
    }
    let selected = count.iter().try_fold(1u64, |n, &c| n.checked_mul(c));
    let mut out = room(selected.ok_or_else(|| too_large(count, imap))?, count, imap)?;
    walk_map(count, imap, &mut |at, n| {
        out.extend_from_slice(&vals[at..at + n])
    });
    Ok(out)
}

/// Scatter canonical-order values into an `imap` layout. The result buffer
/// ends at the highest index the map reaches; values it skips are zero.
pub fn scatter_by_imap<T: NcValue>(
    count: &[u64],
    imap: &[u64],
    canonical: &[T],
) -> NcmpiResult<Vec<T>> {
    let reach = imap_reach(count, imap)?;
    let mut out = room(reach, count, imap)?;
    out.resize(reach as usize, T::ZERO);
    let mut pos = 0;
    walk_map(count, imap, &mut |at, n| {
        out[at..at + n].copy_from_slice(&canonical[pos..pos + n]);
        pos += n;
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_transpose() {
        // Memory is column-major 2x3 (imap = [1, 2]); canonical is row-major.
        let mem: Vec<i32> = vec![0, 10, 1, 11, 2, 12]; // [(0,0),(1,0),(0,1),(1,1),(0,2),(1,2)]
        let canonical = gather_by_imap(&[2, 3], &[1, 2], &mem).unwrap();
        assert_eq!(canonical, vec![0, 1, 2, 10, 11, 12]);
    }

    #[test]
    fn scatter_is_inverse_of_gather() {
        let canonical: Vec<i32> = (0..6).collect();
        let mem = scatter_by_imap(&[2, 3], &[1, 2], &canonical).unwrap();
        let back = gather_by_imap(&[2, 3], &[1, 2], &mem).unwrap();
        assert_eq!(back, canonical);
    }

    #[test]
    fn identity_imap_is_noop() {
        let vals: Vec<f64> = (0..12).map(|i| i as f64).collect();
        // Row-major 3x4: imap = [4, 1].
        let canonical = gather_by_imap(&[3, 4], &[4, 1], &vals).unwrap();
        assert_eq!(canonical, vals);
    }

    #[test]
    fn bad_imap_rank_rejected() {
        assert!(gather_by_imap::<i32>(&[2, 2], &[1], &[0; 4]).is_err());
        assert!(scatter_by_imap::<i32>(&[2, 2], &[1], &[0; 4]).is_err());
    }

    #[test]
    fn out_of_bounds_imap_rejected() {
        assert!(gather_by_imap::<i32>(&[2, 2], &[10, 1], &[0; 4]).is_err());
    }

    #[test]
    fn overflowing_imap_is_rejected() {
        let err = scatter_by_imap::<i32>(&[2], &[u64::MAX], &[0; 2]).unwrap_err();
        assert!(matches!(err, NcmpiError::InvalidArgument(_)), "{err:?}");
        assert!(gather_by_imap::<i32>(&[2], &[u64::MAX], &[0; 2]).is_err());
        // No overflow, but a buffer no allocator can give.
        assert!(scatter_by_imap::<f64>(&[2], &[u64::MAX / 2], &[0.0; 2]).is_err());
    }

    #[test]
    fn zero_count_is_empty() {
        assert!(gather_by_imap::<i32>(&[0, 2], &[1, 1], &[])
            .unwrap()
            .is_empty());
        assert!(scatter_by_imap::<i32>(&[0, 2], &[1, 1], &[])
            .unwrap()
            .is_empty());
    }
}
