//! The seven 3-D partitioning strategies of the paper's Figure 5.
//!
//! The LBNL test code partitions `tt(Z,Y,X)` along Z, Y, X, ZY, ZX, YX and
//! ZYX. A partition assigns each rank an axis-aligned block; remainders are
//! distributed to the leading ranks along each axis so the blocks tile the
//! array exactly.

/// One of the seven partitioning strategies; `{:?}` is the paper's legend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Partition {
    Z,
    Y,
    X,
    ZY,
    ZX,
    YX,
    ZYX,
}

/// All seven, in the paper's order.
pub const PARTITIONS: [Partition; 7] = [
    Partition::Z,
    Partition::Y,
    Partition::X,
    Partition::ZY,
    Partition::ZX,
    Partition::YX,
    Partition::ZYX,
];

impl Partition {
    /// Which axes are split (z, y, x).
    pub fn mask(self) -> (bool, bool, bool) {
        match self {
            Partition::Z => (true, false, false),
            Partition::Y => (false, true, false),
            Partition::X => (false, false, true),
            Partition::ZY => (true, true, false),
            Partition::ZX => (true, false, true),
            Partition::YX => (false, true, true),
            Partition::ZYX => (true, true, true),
        }
    }
}

/// Near-equal factorization of `n` over `k` axes (largest factor first).
fn factorize(n: u64, k: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(k);
    let mut rem = n;
    for i in 0..k {
        let left = k - i;
        let mut f = (rem as f64).powf(1.0 / left as f64).round() as u64;
        while f > 1 && rem % f != 0 {
            f -= 1;
        }
        out.push(f.max(1));
        rem /= *out.last().unwrap();
    }
    let last = out.len() - 1;
    out[last] *= rem;
    out.sort_unstable_by(|a, b| b.cmp(a));
    out
}

/// Process grid `(pz, py, px)` for `nprocs` ranks under `partition`.
pub fn grid_for(partition: Partition, nprocs: usize) -> (u64, u64, u64) {
    let (mz, my, mx) = partition.mask();
    let k = [mz, my, mx].iter().filter(|&&m| m).count();
    let fs = factorize(nprocs as u64, k);
    let mut grid = [1u64; 3];
    let mut i = 0;
    for (d, m) in [mz, my, mx].into_iter().enumerate() {
        if m {
            grid[d] = fs[i];
            i += 1;
        }
    }
    (grid[0], grid[1], grid[2])
}

/// Remainder-aware 1-D decomposition: rank `i` of `p` over `n` elements.
fn decomp(n: u64, p: u64, i: u64) -> (u64, u64) {
    let base = n / p;
    let rem = n % p;
    (i * base + i.min(rem), base + u64::from(i < rem))
}

/// This rank's `(start, count)` block of an `(nz, ny, nx)` array under the
/// process grid `(pz, py, px)`.
pub fn block_of(
    rank: usize,
    (pz, py, px): (u64, u64, u64),
    (nz, ny, nx): (u64, u64, u64),
) -> ([u64; 3], [u64; 3]) {
    let r = rank as u64;
    let (iz, iy, ix) = (r / (py * px), (r / px) % py, r % px);
    let (sz, cz) = decomp(nz, pz, iz);
    let (sy, cy) = decomp(ny, py, iy);
    let (sx, cx) = decomp(nx, px, ix);
    ([sz, sy, sx], [cz, cy, cx])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn grids_multiply_to_nprocs() {
        for p in PARTITIONS {
            for n in [1usize, 2, 3, 4, 6, 8, 12, 16, 32] {
                let (a, b, c) = grid_for(p, n);
                assert_eq!(a * b * c, n as u64, "{p:?} x {n}");
            }
        }
    }

    #[test]
    fn z_partition_splits_only_z() {
        let g = grid_for(Partition::Z, 8);
        assert_eq!(g, (8, 1, 1));
        let g = grid_for(Partition::YX, 8);
        assert_eq!(g.0, 1);
        assert!(g.1 > 1 && g.2 > 1);
    }

    #[test]
    fn blocks_tile_exactly() {
        let dims = (7u64, 9, 13); // awkward sizes with remainders
        for p in PARTITIONS {
            for n in [2usize, 4, 6, 8] {
                let grid = grid_for(p, n);
                let mut seen: HashSet<(u64, u64, u64)> = HashSet::new();
                let mut total = 0u64;
                for r in 0..n {
                    let (s, c) = block_of(r, grid, dims);
                    total += c[0] * c[1] * c[2];
                    for z in s[0]..s[0] + c[0] {
                        for y in s[1]..s[1] + c[1] {
                            for x in s[2]..s[2] + c[2] {
                                assert!(
                                    seen.insert((z, y, x)),
                                    "{p:?}x{n}: cell ({z},{y},{x}) covered twice"
                                );
                            }
                        }
                    }
                }
                assert_eq!(total, dims.0 * dims.1 * dims.2, "{p:?} x {n}");
            }
        }
    }

    #[test]
    fn single_rank_owns_everything() {
        for p in PARTITIONS {
            let grid = grid_for(p, 1);
            let (s, c) = block_of(0, grid, (4, 5, 6));
            assert_eq!(s, [0, 0, 0]);
            assert_eq!(c, [4, 5, 6]);
        }
    }
}
