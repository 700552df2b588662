//! The walks that lowered MPI subarray datatypes, HDF5 hyperslabs and
//! `varm` maps before all of them went through `pnetcdf_format::layout`'s
//! one walker of a strided box, kept here as oracles: through the walker,
//! each of those lowerings must produce exactly the segments, runs and
//! values its own loop did. (The netCDF access lowering has its oracle in
//! `layout`'s unit tests.)

use hdf5_sim::hyperslab;
use pnetcdf::access::map::{gather_by_imap, scatter_by_imap};
use pnetcdf_format::NcValue;
use pnetcdf_mpi::flatten::{flatten, flatten_n, Coalescer, Segment};
use pnetcdf_mpi::{BaseType, Datatype};
use proptest::prelude::*;

/// The subarray arm of `flatten`'s emitter as it was: fold the trailing
/// dimensions selected whole into one run for a contiguous inner type,
/// then an index-vector odometer over the others; a non-contiguous inner
/// type is emitted element by element (here by splicing in its own
/// flattening, which is what emitting it in place pushes).
fn subarray_oracle(
    sizes: &[u64],
    subsizes: &[u64],
    starts: &[u64],
    inner: &Datatype,
    base: i64,
    c: &mut Coalescer,
) {
    let emit_inner = |at: i64, c: &mut Coalescer| {
        for s in flatten(inner) {
            c.push(at + s.offset, s.len);
        }
    };
    let ndims = sizes.len();
    if ndims == 0 {
        return emit_inner(base, c);
    }
    if subsizes.contains(&0) {
        return;
    }
    let esize = inner.extent() as i64;
    let mut strides = vec![1i64; ndims];
    for d in (0..ndims - 1).rev() {
        strides[d] = strides[d + 1] * sizes[d + 1] as i64;
    }
    let contiguous_inner = inner.is_contiguous();
    let mut run_elems = subsizes[ndims - 1] as i64;
    let mut outer_dims = ndims - 1;
    if contiguous_inner {
        while outer_dims > 0 && subsizes[outer_dims] == sizes[outer_dims] && starts[outer_dims] == 0
        {
            run_elems *= subsizes[outer_dims - 1] as i64;
            outer_dims -= 1;
        }
        if outer_dims == 0 {
            let off: i64 = (0..ndims).map(|d| starts[d] as i64 * strides[d]).sum();
            c.push(
                base + off * esize + inner.lb(),
                run_elems as u64 * inner.size(),
            );
            return;
        }
    } else {
        run_elems = 1;
        outer_dims = ndims;
    }
    let mut idx = vec![0u64; outer_dims];
    loop {
        let mut off: i64 = 0;
        for d in 0..outer_dims {
            off += (starts[d] + idx[d]) as i64 * strides[d];
        }
        for d in outer_dims..ndims {
            off += starts[d] as i64 * strides[d];
        }
        if contiguous_inner {
            c.push(
                base + off * esize + inner.lb(),
                run_elems as u64 * inner.size(),
            );
        } else {
            for j in 0..run_elems {
                emit_inner(base + (off + j) * esize, c);
            }
        }
        let mut d = outer_dims;
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < subsizes[d] {
                break;
            }
            idx[d] = 0;
        }
    }
}

/// `flatten_n` of a subarray through [`subarray_oracle`].
fn flatten_n_oracle(t: &Datatype, n: usize) -> Vec<Segment> {
    let Datatype::Subarray {
        sizes,
        subsizes,
        starts,
        inner,
    } = t
    else {
        unreachable!("the oracle flattens subarrays")
    };
    let mut c = Coalescer::new();
    for r in 0..n {
        subarray_oracle(
            sizes,
            subsizes,
            starts,
            inner,
            r as i64 * t.extent() as i64,
            &mut c,
        );
    }
    c.finish()
}

/// `hyperslab::runs` as it was: a row odometer, one run per innermost row,
/// merged when adjacent.
fn hyperslab_oracle(
    dims: &[u64],
    start: &[u64],
    count: &[u64],
    esize: u64,
    base: u64,
) -> Vec<(u64, u64)> {
    let push = |out: &mut Vec<(u64, u64)>, off: u64, len: u64| match out.last_mut() {
        Some(last) if last.0 + last.1 == off => last.1 += len,
        _ => out.push((off, len)),
    };
    let nd = dims.len();
    let mut out = Vec::new();
    if nd == 0 {
        out.push((base, esize));
        return out;
    }
    if count.contains(&0) {
        return out;
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
        push(&mut out, base + elem * esize, count[nd - 1] * esize);
        let mut d = nd - 1;
        loop {
            if d == 0 {
                return out;
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < count[d] {
                break;
            }
            idx[d] = 0;
        }
    }
}

/// Every memory index of an `imap` walk, in canonical order: the
/// odometer both `varm` directions ran.
fn imap_indices(count: &[u64], imap: &[u64]) -> Vec<usize> {
    let nd = count.len();
    let mut out = Vec::new();
    if count.contains(&0) {
        return out;
    }
    let mut idx = vec![0u64; nd];
    loop {
        out.push((0..nd).map(|d| idx[d] * imap[d]).sum::<u64>() as usize);
        let mut d = nd;
        loop {
            if d == 0 {
                return out;
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < count[d] {
                break;
            }
            idx[d] = 0;
        }
    }
}

/// Gather and scatter of `T` values against the odometer.
fn check_varm<T: NcValue + std::fmt::Debug>(
    count: &[u64],
    imap: &[u64],
    value: impl Fn(usize) -> T,
) {
    let at = imap_indices(count, imap);
    let reach = at.iter().max().map_or(0, |&m| m + 1);
    let vals: Vec<T> = (0..reach + 3).map(&value).collect();
    let want: Vec<T> = at.iter().map(|&i| vals[i]).collect();
    prop_assert_eq!(&gather_by_imap(count, imap, &vals).unwrap(), &want);
    if reach > 0 {
        prop_assert!(gather_by_imap(count, imap, &vals[..reach - 1]).is_err());
    }
    let canonical: Vec<T> = (0..at.len()).map(&value).collect();
    let mut mem = vec![T::ZERO; reach];
    for (&i, &v) in at.iter().zip(&canonical) {
        mem[i] = v;
    }
    prop_assert_eq!(scatter_by_imap(count, imap, &canonical).unwrap(), mem);
}

/// One to four dimensions, each `(size, start, count, imap entry)` with the
/// selection inside the size; counts may be zero, and half the dimensions
/// are selected whole, so folds are common. The map entry is often the
/// row-major pitch (contiguous memory), sometimes anything, 0 included.
fn arb_box() -> impl Strategy<Value = Vec<(u64, u64, u64, u64)>> {
    let part = (1u64..6).prop_flat_map(|size| {
        (0..size).prop_flat_map(move |start| (Just(size), Just(start), 0..size - start + 1))
    });
    let whole = (1u64..6).prop_map(|size| (size, 0, size));
    let dim = prop_oneof![whole, part];
    proptest::collection::vec((dim, 0u64..12), 1..5).prop_map(|dims| {
        dims.into_iter()
            .map(|((size, start, count), m)| (size, start, count, m))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_box_walk_matches_its_oracle(
        dims in arb_box(),
        elem in 0usize..4,
        pad in 0u64..5,
        tiles in 1usize..3,
        pitch_map in any::<bool>(),
        base in 0u64..100,
    ) {
        let sizes: Vec<u64> = dims.iter().map(|d| d.0).collect();
        let start: Vec<u64> = dims.iter().map(|d| d.1).collect();
        let count: Vec<u64> = dims.iter().map(|d| d.2).collect();
        let width = [1u64, 2, 4, 8][elem];

        // MPI subarray: a contiguous inner type, and the same type resized
        // with a tail (emitted element by element).
        let base_type = [BaseType::U8, BaseType::I16, BaseType::I32, BaseType::F64][elem];
        for inner in [
            Datatype::Base(base_type),
            Datatype::resized(0, width + pad + 1, Datatype::Base(base_type)),
        ] {
            let t = Datatype::subarray(&sizes, &count, &start, inner).unwrap();
            prop_assert_eq!(flatten_n(&t, tiles), flatten_n_oracle(&t, tiles));
        }

        // HDF5 hyperslab, elements of any width from 1 to 8 bytes.
        let esize = 1 + (pad + elem as u64 * 2) % 8;
        prop_assert_eq!(
            hyperslab::runs(&sizes, &start, &count, esize, base).unwrap(),
            hyperslab_oracle(&sizes, &start, &count, esize, base)
        );

        // `varm`: the row-major map of the selection, or a drawn one.
        let imap: Vec<u64> = if pitch_map {
            (0..count.len()).map(|d| count[d + 1..].iter().product()).collect()
        } else {
            dims.iter().map(|d| d.3).collect()
        };
        match elem {
            0 => check_varm(&count, &imap, |i| i as u8),
            1 => check_varm(&count, &imap, |i| i as i16),
            2 => check_varm(&count, &imap, |i| i as i32),
            _ => check_varm(&count, &imap, |i| i as f64),
        }
    }
}
