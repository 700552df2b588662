//! Dataspace hyperslab selections.
//!
//! A hyperslab `(start, count)` on an n-dimensional dataspace selects a
//! regular block. Real HDF5 packs selections into contiguous buffers with a
//! recursive descent over the dataspace ("recursive handling of the
//! hyperslab ... makes the packing of the hyperslabs into contiguous
//! buffers take a relatively long time" — paper §5.2); we reproduce the
//! offsets it produces and charge its CPU cost with
//! [`PACK_COST_MULTIPLIER`] relative to a flat memcpy.

use pnetcdf_mpio::runs::push_run;

use crate::error::{H5Error, H5Result};

/// CPU cost multiplier of recursive hyperslab packing versus a flat copy.
pub const PACK_COST_MULTIPLIER: f64 = 2.5;

/// Validate a hyperslab against a dataspace.
pub fn check(dims: &[u64], start: &[u64], count: &[u64]) -> H5Result<()> {
    if start.len() != dims.len() || count.len() != dims.len() {
        return Err(H5Error::InvalidArgument(format!(
            "hyperslab rank {}/{} does not match dataspace rank {}",
            start.len(),
            count.len(),
            dims.len()
        )));
    }
    for d in 0..dims.len() {
        if start[d] + count[d] > dims[d] {
            return Err(H5Error::InvalidArgument(format!(
                "hyperslab dim {d}: start {} + count {} exceeds extent {}",
                start[d], count[d], dims[d]
            )));
        }
    }
    Ok(())
}

/// Translate a hyperslab into absolute file byte runs for a contiguous
/// dataset whose data block begins at `base`.
pub fn runs(
    dims: &[u64],
    start: &[u64],
    count: &[u64],
    esize: u64,
    base: u64,
) -> H5Result<Vec<(u64, u64)>> {
    check(dims, start, count)?;
    let nd = dims.len();
    let mut out: Vec<(u64, u64)> = Vec::new();
    if nd == 0 {
        out.push((base, esize));
        return Ok(out);
    }
    if count.contains(&0) {
        return Ok(out);
    }
    let mut strides = vec![1u64; nd];
    for d in (0..nd - 1).rev() {
        strides[d] = strides[d + 1] * dims[d + 1];
    }
    let mut idx = vec![0u64; nd - 1];
    loop {
        let mut elem: u64 = 0;
        for d in 0..nd - 1 {
            elem += (start[d] + idx[d]) * strides[d];
        }
        elem += start[nd - 1];
        push_run(&mut out, base + elem * esize, count[nd - 1] * esize);
        // Odometer.
        let mut d = nd - 1;
        loop {
            if d == 0 {
                return Ok(out);
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < count[d] {
                break;
            }
            idx[d] = 0;
            if d == 0 {
                return Ok(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_space_is_one_run() {
        let r = runs(&[4, 4], &[0, 0], &[4, 4], 4, 100).unwrap();
        assert_eq!(r, vec![(100, 64)]);
    }

    #[test]
    fn interior_block() {
        let r = runs(&[4, 4], &[1, 1], &[2, 2], 1, 0).unwrap();
        assert_eq!(r, vec![(5, 2), (9, 2)]);
    }

    #[test]
    fn full_rows_coalesce() {
        let r = runs(&[4, 4], &[1, 0], &[2, 4], 1, 0).unwrap();
        assert_eq!(r, vec![(4, 8)]);
    }

    #[test]
    fn scalar_space() {
        let r = runs(&[], &[], &[], 8, 64).unwrap();
        assert_eq!(r, vec![(64, 8)]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        assert!(runs(&[4], &[3], &[2], 1, 0).is_err());
        assert!(runs(&[4, 4], &[0], &[4], 1, 0).is_err());
    }

    #[test]
    fn zero_count_is_empty() {
        assert!(runs(&[4, 4], &[0, 0], &[0, 4], 1, 0).unwrap().is_empty());
    }

    #[test]
    fn total_matches_selection() {
        let r = runs(&[8, 8, 8], &[2, 1, 3], &[3, 5, 4], 8, 0).unwrap();
        let total: u64 = r.iter().map(|x| x.1).sum();
        assert_eq!(total, 3 * 5 * 4 * 8);
    }
}
