//! MPI derived datatypes.
//!
//! PnetCDF's "flexible" API describes noncontiguous memory with MPI
//! datatypes, and its file views are MPI datatypes constructed from the
//! variable's shape plus the user's `start/count/stride/imap` arguments
//! (Section 4.2.2 of the paper). This module implements the constructors of
//! MPI-1/MPI-2 that those paths need: contiguous, vector, hvector, indexed,
//! hindexed, struct, subarray, and resized types.
//!
//! A datatype is a *typemap*: a sequence of `(offset, base-type)` pairs. We
//! keep the constructor tree and derive everything else (size, extent,
//! flattened offset/length segments) from it; see [`mod@crate::flatten`].

use crate::error::{MpiError, MpiResult};

/// The primitive (leaf) types.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BaseType {
    U8,
    I8,
    I16,
    U16,
    I32,
    U32,
    I64,
    U64,
    F32,
    F64,
}

impl BaseType {
    /// Size in bytes.
    pub const fn size(self) -> usize {
        match self {
            BaseType::U8 | BaseType::I8 => 1,
            BaseType::I16 | BaseType::U16 => 2,
            BaseType::I32 | BaseType::U32 | BaseType::F32 => 4,
            BaseType::I64 | BaseType::U64 | BaseType::F64 => 8,
        }
    }
}

/// Array storage order for [`Datatype::subarray`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Order {
    /// C order: the last dimension varies fastest (netCDF's order).
    RowMajor,
}

/// An MPI derived datatype.
#[derive(Clone, Debug, PartialEq)]
pub enum Datatype {
    /// A primitive type.
    Base(BaseType),
    /// `count` copies of `inner`, back to back (`MPI_Type_contiguous`).
    Contiguous { count: usize, inner: Box<Datatype> },
    /// `count` blocks of `blocklen` elements, block starts `stride` elements
    /// apart (`MPI_Type_vector`). `stride` may be negative.
    Vector {
        count: usize,
        blocklen: usize,
        stride: i64,
        inner: Box<Datatype>,
    },
    /// Like `Vector` but `stride` is in bytes (`MPI_Type_create_hvector`).
    Hvector {
        count: usize,
        blocklen: usize,
        stride_bytes: i64,
        inner: Box<Datatype>,
    },
    /// Explicit blocks of `(displacement-in-elements, length)` pairs
    /// (`MPI_Type_indexed`).
    Indexed {
        blocks: Vec<(i64, usize)>,
        inner: Box<Datatype>,
    },
    /// Explicit blocks of `(displacement-in-bytes, length)` pairs
    /// (`MPI_Type_create_hindexed`).
    Hindexed {
        blocks: Vec<(i64, usize)>,
        inner: Box<Datatype>,
    },
    /// Heterogeneous fields of `(byte offset, count, type)`
    /// (`MPI_Type_create_struct`).
    Struct { fields: Vec<(i64, usize, Datatype)> },
    /// An n-dimensional subarray of an n-dimensional array
    /// (`MPI_Type_create_subarray`), row-major.
    Subarray {
        sizes: Vec<u64>,
        subsizes: Vec<u64>,
        starts: Vec<u64>,
        inner: Box<Datatype>,
    },
    /// `inner` with its lower bound / extent overridden
    /// (`MPI_Type_create_resized`).
    Resized {
        lb: i64,
        extent: u64,
        inner: Box<Datatype>,
    },
}

impl From<BaseType> for Datatype {
    fn from(b: BaseType) -> Datatype {
        Datatype::Base(b)
    }
}

impl Datatype {
    // ---- constructors (validated) ----------------------------------------

    /// `MPI_BYTE`.
    pub fn byte() -> Datatype {
        Datatype::Base(BaseType::U8)
    }

    /// `MPI_DOUBLE`.
    pub fn double() -> Datatype {
        Datatype::Base(BaseType::F64)
    }

    /// `MPI_FLOAT`.
    pub fn float() -> Datatype {
        Datatype::Base(BaseType::F32)
    }

    /// `MPI_INT`.
    pub fn int() -> Datatype {
        Datatype::Base(BaseType::I32)
    }

    /// `MPI_Type_contiguous`.
    pub fn contiguous(count: usize, inner: Datatype) -> Datatype {
        Datatype::Contiguous {
            count,
            inner: Box::new(inner),
        }
    }

    /// `MPI_Type_vector`.
    pub fn vector(count: usize, blocklen: usize, stride: i64, inner: Datatype) -> Datatype {
        Datatype::Vector {
            count,
            blocklen,
            stride,
            inner: Box::new(inner),
        }
    }

    /// `MPI_Type_create_hvector`.
    pub fn hvector(count: usize, blocklen: usize, stride_bytes: i64, inner: Datatype) -> Datatype {
        Datatype::Hvector {
            count,
            blocklen,
            stride_bytes,
            inner: Box::new(inner),
        }
    }

    /// `MPI_Type_indexed`.
    pub fn indexed(blocks: Vec<(i64, usize)>, inner: Datatype) -> Datatype {
        Datatype::Indexed {
            blocks,
            inner: Box::new(inner),
        }
    }

    /// `MPI_Type_create_hindexed`.
    pub fn hindexed(blocks: Vec<(i64, usize)>, inner: Datatype) -> Datatype {
        Datatype::Hindexed {
            blocks,
            inner: Box::new(inner),
        }
    }

    /// `MPI_Type_create_struct`.
    pub fn structure(fields: Vec<(i64, usize, Datatype)>) -> Datatype {
        Datatype::Struct { fields }
    }

    /// `MPI_Type_create_subarray` (row-major). Errors if the subarray does
    /// not fit inside the full array.
    pub fn subarray(
        sizes: &[u64],
        subsizes: &[u64],
        starts: &[u64],
        inner: Datatype,
    ) -> MpiResult<Datatype> {
        if sizes.len() != subsizes.len() || sizes.len() != starts.len() {
            return Err(MpiError::InvalidDatatype(format!(
                "subarray rank mismatch: sizes={} subsizes={} starts={}",
                sizes.len(),
                subsizes.len(),
                starts.len()
            )));
        }
        for i in 0..sizes.len() {
            if starts[i]
                .checked_add(subsizes[i])
                .is_none_or(|end| end > sizes[i])
            {
                return Err(MpiError::InvalidDatatype(format!(
                    "subarray dim {i}: start {} + subsize {} exceeds size {}",
                    starts[i], subsizes[i], sizes[i]
                )));
            }
        }
        Ok(Datatype::Subarray {
            sizes: sizes.to_vec(),
            subsizes: subsizes.to_vec(),
            starts: starts.to_vec(),
            inner: Box::new(inner),
        })
    }

    /// `MPI_Type_create_resized`.
    pub fn resized(lb: i64, extent: u64, inner: Datatype) -> Datatype {
        Datatype::Resized {
            lb,
            extent,
            inner: Box::new(inner),
        }
    }

    // ---- derived quantities ----------------------------------------------

    /// Total bytes of *data* described by one instance of this type
    /// (`MPI_Type_size`).
    pub fn size(&self) -> u64 {
        match self {
            Datatype::Base(b) => b.size() as u64,
            Datatype::Contiguous { count, inner } => *count as u64 * inner.size(),
            Datatype::Vector {
                count,
                blocklen,
                inner,
                ..
            }
            | Datatype::Hvector {
                count,
                blocklen,
                inner,
                ..
            } => *count as u64 * *blocklen as u64 * inner.size(),
            Datatype::Indexed { blocks, inner } | Datatype::Hindexed { blocks, inner } => {
                blocks.iter().map(|&(_, l)| l as u64).sum::<u64>() * inner.size()
            }
            Datatype::Struct { fields } => {
                fields.iter().map(|(_, c, t)| *c as u64 * t.size()).sum()
            }
            Datatype::Subarray {
                subsizes, inner, ..
            } => subsizes.iter().product::<u64>() * inner.size(),
            Datatype::Resized { inner, .. } => inner.size(),
        }
    }

    /// Lower bound in bytes (`MPI_Type_get_extent`'s `lb`).
    pub fn lb(&self) -> i64 {
        self.bounds().0
    }

    /// Extent in bytes: `ub - lb` (`MPI_Type_get_extent`).
    pub fn extent(&self) -> u64 {
        let (lb, ub) = self.bounds();
        (ub - lb) as u64
    }

    /// `(lb, ub)` byte bounds of the typemap.
    pub fn bounds(&self) -> (i64, i64) {
        match self {
            Datatype::Base(b) => (0, b.size() as i64),
            Datatype::Contiguous { count, inner } => {
                let (lb, _ub) = inner.bounds();
                let e = inner.extent() as i64;
                if *count == 0 {
                    (0, 0)
                } else {
                    (lb, lb + e * *count as i64)
                }
            }
            Datatype::Vector {
                count,
                blocklen,
                stride,
                inner,
            } => {
                let e = inner.extent() as i64;
                Self::strided_bounds(*count, *blocklen, *stride * e, e, inner.bounds())
            }
            Datatype::Hvector {
                count,
                blocklen,
                stride_bytes,
                inner,
            } => {
                let e = inner.extent() as i64;
                Self::strided_bounds(*count, *blocklen, *stride_bytes, e, inner.bounds())
            }
            Datatype::Indexed { blocks, inner } => {
                let e = inner.extent() as i64;
                Self::blocks_bounds(blocks.iter().map(|&(d, l)| (d * e, l)), e, inner.bounds())
            }
            Datatype::Hindexed { blocks, inner } => {
                let e = inner.extent() as i64;
                Self::blocks_bounds(blocks.iter().copied(), e, inner.bounds())
            }
            Datatype::Struct { fields } => {
                let mut lb = i64::MAX;
                let mut ub = i64::MIN;
                for (off, count, t) in fields {
                    if *count == 0 {
                        continue;
                    }
                    let (tlb, tub) = t.bounds();
                    let e = t.extent() as i64;
                    lb = lb.min(off + tlb);
                    ub = ub.max(off + tlb + e * *count as i64 + (tub - tlb - e).max(0));
                }
                if lb == i64::MAX {
                    (0, 0)
                } else {
                    (lb, ub)
                }
            }
            Datatype::Subarray { sizes, inner, .. } => {
                // A subarray's extent is the full array: element p occupies
                // [p*ext + inner.lb, p*ext + inner.ub), so for the usual
                // inner types (lb 0, ub = ext) this is (0, total*ext). An
                // inner type with displaced bounds shifts both ends.
                let total: u64 = sizes.iter().product();
                if total == 0 {
                    return (0, 0);
                }
                let (ilb, iub) = inner.bounds();
                let ext = inner.extent() as i64;
                (ilb, (total as i64 - 1) * ext + iub)
            }
            Datatype::Resized { lb, extent, .. } => (*lb, *lb + *extent as i64),
        }
    }

    /// `(true_lb, true_ub)`: the tight bounds of the typemap itself,
    /// ignoring `Resized` adjustments (`MPI_Type_get_true_extent`). A
    /// buffer addressed from offset 0 must extend to at least
    /// `(count-1) * extent() + true_ub` to hold `count` instances.
    pub fn true_bounds(&self) -> (i64, i64) {
        match self {
            Datatype::Base(b) => (0, b.size() as i64),
            Datatype::Contiguous { count, inner } => {
                if *count == 0 {
                    return (0, 0);
                }
                let (tlb, tub) = inner.true_bounds();
                let e = inner.extent() as i64;
                (tlb, (*count as i64 - 1) * e + tub)
            }
            Datatype::Vector {
                count,
                blocklen,
                stride,
                inner,
            } => {
                let e = inner.extent() as i64;
                Self::strided_true_bounds(*count, *blocklen, *stride * e, e, inner.true_bounds())
            }
            Datatype::Hvector {
                count,
                blocklen,
                stride_bytes,
                inner,
            } => {
                let e = inner.extent() as i64;
                Self::strided_true_bounds(*count, *blocklen, *stride_bytes, e, inner.true_bounds())
            }
            Datatype::Indexed { blocks, inner } => {
                let e = inner.extent() as i64;
                Self::blocks_true_bounds(
                    blocks.iter().map(|&(d, l)| (d * e, l)),
                    e,
                    inner.true_bounds(),
                )
            }
            Datatype::Hindexed { blocks, inner } => {
                let e = inner.extent() as i64;
                Self::blocks_true_bounds(blocks.iter().copied(), e, inner.true_bounds())
            }
            Datatype::Struct { fields } => {
                let mut lb = i64::MAX;
                let mut ub = i64::MIN;
                for (off, count, t) in fields {
                    if *count == 0 {
                        continue;
                    }
                    let (tlb, tub) = t.true_bounds();
                    let e = t.extent() as i64;
                    lb = lb.min(off + tlb);
                    ub = ub.max(off + (*count as i64 - 1) * e + tub);
                }
                if lb == i64::MAX {
                    (0, 0)
                } else {
                    (lb, ub)
                }
            }
            Datatype::Subarray {
                sizes,
                subsizes,
                starts,
                inner,
            } => {
                let total: u64 = subsizes.iter().product();
                if total == 0 {
                    return (0, 0);
                }
                let (tlb, tub) = inner.true_bounds();
                let e = inner.extent() as i64;
                // First and last selected element in row-major order.
                let ndims = sizes.len();
                let mut strides = vec![1i64; ndims];
                for d in (0..ndims.saturating_sub(1)).rev() {
                    strides[d] = strides[d + 1] * sizes[d + 1] as i64;
                }
                let first: i64 = (0..ndims).map(|d| starts[d] as i64 * strides[d]).sum();
                let last: i64 = (0..ndims)
                    .map(|d| (starts[d] + subsizes[d] - 1) as i64 * strides[d])
                    .sum();
                (first * e + tlb, last * e + tub)
            }
            Datatype::Resized { inner, .. } => inner.true_bounds(),
        }
    }

    fn strided_true_bounds(
        count: usize,
        blocklen: usize,
        stride_bytes: i64,
        inner_extent: i64,
        (tlb, tub): (i64, i64),
    ) -> (i64, i64) {
        if count == 0 || blocklen == 0 {
            return (0, 0);
        }
        let mut lb = i64::MAX;
        let mut ub = i64::MIN;
        for i in [0i64, count as i64 - 1] {
            for j in [0i64, blocklen as i64 - 1] {
                let base = i * stride_bytes + j * inner_extent;
                lb = lb.min(base + tlb);
                ub = ub.max(base + tub);
            }
        }
        (lb, ub)
    }

    fn blocks_true_bounds(
        blocks: impl Iterator<Item = (i64, usize)>,
        inner_extent: i64,
        (tlb, tub): (i64, i64),
    ) -> (i64, i64) {
        let mut lb = i64::MAX;
        let mut ub = i64::MIN;
        let mut any = false;
        for (d, l) in blocks {
            if l == 0 {
                continue;
            }
            any = true;
            lb = lb.min(d + tlb);
            ub = ub.max(d + (l as i64 - 1) * inner_extent + tub);
        }
        if any {
            (lb, ub)
        } else {
            (0, 0)
        }
    }

    fn strided_bounds(
        count: usize,
        blocklen: usize,
        stride_bytes: i64,
        inner_extent: i64,
        inner_bounds: (i64, i64),
    ) -> (i64, i64) {
        if count == 0 || blocklen == 0 {
            return (0, 0);
        }
        let (ilb, _) = inner_bounds;
        let block_span = inner_extent * blocklen as i64;
        let mut lb = i64::MAX;
        let mut ub = i64::MIN;
        for i in [0i64, count as i64 - 1] {
            let start = i * stride_bytes;
            lb = lb.min(start + ilb);
            ub = ub.max(start + ilb + block_span);
        }
        (lb, ub)
    }

    fn blocks_bounds(
        blocks: impl Iterator<Item = (i64, usize)>,
        inner_extent: i64,
        inner_bounds: (i64, i64),
    ) -> (i64, i64) {
        let (ilb, _) = inner_bounds;
        let mut lb = i64::MAX;
        let mut ub = i64::MIN;
        let mut any = false;
        for (d, l) in blocks {
            if l == 0 {
                continue;
            }
            any = true;
            lb = lb.min(d + ilb);
            ub = ub.max(d + ilb + inner_extent * l as i64);
        }
        if any {
            (lb, ub)
        } else {
            (0, 0)
        }
    }

    /// True if the data described is one contiguous run starting at `lb` with
    /// no holes (so pack/unpack can be a single memcpy).
    pub fn is_contiguous(&self) -> bool {
        self.size() == self.extent()
    }

    /// True if the data is contiguous from lower bound 0: one instance after
    /// another of the type is simply the packed bytes, so a caller can use
    /// the described memory in place of a packed copy.
    pub fn is_packed(&self) -> bool {
        self.is_contiguous() && self.lb() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_sizes() {
        assert_eq!(BaseType::U8.size(), 1);
        assert_eq!(BaseType::I16.size(), 2);
        assert_eq!(BaseType::F32.size(), 4);
        assert_eq!(BaseType::F64.size(), 8);
    }

    #[test]
    fn contiguous_size_extent() {
        let t = Datatype::contiguous(10, Datatype::double());
        assert_eq!(t.size(), 80);
        assert_eq!(t.extent(), 80);
        assert!(t.is_contiguous());
    }

    #[test]
    fn vector_size_and_extent() {
        // 3 blocks of 2 ints, stride 4 ints: |XX..|XX..|XX| -> extent 40 bytes
        let t = Datatype::vector(3, 2, 4, Datatype::int());
        assert_eq!(t.size(), 24);
        assert_eq!(t.extent(), (2 * 4 + 2 * 4 + 2 * 4 + 2 * 4 * 2) as u64);
        assert_eq!(t.extent(), 40);
        assert!(!t.is_contiguous());
    }

    #[test]
    fn hvector_matches_vector() {
        let v = Datatype::vector(3, 2, 4, Datatype::int());
        let h = Datatype::hvector(3, 2, 16, Datatype::int());
        assert_eq!(v.size(), h.size());
        assert_eq!(v.extent(), h.extent());
    }

    #[test]
    fn subarray_validation() {
        assert!(Datatype::subarray(&[4, 4], &[2, 2], &[3, 0], Datatype::byte()).is_err());
        assert!(Datatype::subarray(&[4], &[2, 2], &[0, 0], Datatype::byte()).is_err());
        let t = Datatype::subarray(&[4, 4], &[2, 2], &[1, 1], Datatype::byte()).unwrap();
        assert_eq!(t.size(), 4);
        assert_eq!(t.extent(), 16); // full array extent
    }

    #[test]
    fn indexed_bounds() {
        let t = Datatype::indexed(vec![(4, 2), (0, 1)], Datatype::int());
        assert_eq!(t.size(), 12);
        assert_eq!(t.bounds(), (0, 24));
    }

    #[test]
    fn struct_bounds() {
        let t = Datatype::structure(vec![(0, 1, Datatype::int()), (8, 2, Datatype::double())]);
        assert_eq!(t.size(), 4 + 16);
        assert_eq!(t.bounds(), (0, 24));
    }

    #[test]
    fn resized_overrides_extent() {
        let t = Datatype::resized(0, 32, Datatype::int());
        assert_eq!(t.size(), 4);
        assert_eq!(t.extent(), 32);
        assert!(!t.is_contiguous());
    }

    #[test]
    fn packed_is_contiguous_from_lower_bound_zero() {
        assert!(Datatype::contiguous(3, Datatype::int()).is_packed());
        assert!(!Datatype::vector(2, 1, 2, Datatype::int()).is_packed());
        // Contiguous, but the bytes start 4 past the buffer origin.
        let shifted = Datatype::resized(4, 4, Datatype::indexed(vec![(1, 1)], Datatype::int()));
        assert!(shifted.is_contiguous() && !shifted.is_packed());
    }

    #[test]
    fn zero_count_types_are_empty() {
        let t = Datatype::contiguous(0, Datatype::double());
        assert_eq!(t.size(), 0);
        assert_eq!(t.extent(), 0);
        let v = Datatype::vector(0, 3, 5, Datatype::int());
        assert_eq!(v.extent(), 0);
    }

    #[test]
    fn negative_stride_vector_bounds() {
        // 2 blocks of 1 int, stride -2 ints: block 1 at byte -8.
        let t = Datatype::vector(2, 1, -2, Datatype::int());
        assert_eq!(t.bounds(), (-8, 4));
        assert_eq!(t.extent(), 12);
    }
}
