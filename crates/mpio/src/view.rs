//! File views (`MPI_File_set_view`).
//!
//! A view is `(displacement, etype, filetype)`: the filetype tiles the file
//! starting at the displacement, and only the bytes covered by the
//! filetype's typemap are visible. PnetCDF constructs one view per variable
//! access from the variable's shape and the user's start/count/stride
//! arguments (paper §4.2.2); this module maps logical (view-relative)
//! positions to absolute file runs.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use pnetcdf_mpi::{flatten, Datatype};

use crate::error::{MpioError, MpioResult};

/// An absolute byte run in the file: `(offset, len)`.
pub type Run = (u64, u64);

/// Append a run, coalescing with the previous one when adjacent.
pub fn push_run(out: &mut Vec<Run>, off: u64, len: u64) {
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
}

/// Total bytes in a run list.
pub fn runs_total(runs: &[Run]) -> u64 {
    runs.iter().map(|r| r.1).sum()
}

/// A file view: displacement + etype + flattened filetype.
#[derive(Clone, Debug)]
pub struct FileView {
    disp: u64,
    etype_size: u64,
    /// Filetype segments within one tile: non-negative, strictly increasing.
    segs: Vec<(u64, u64)>,
    /// Data bytes per tile (sum of segment lengths).
    tile_data: u64,
    /// Tile stride (the filetype's extent).
    tile_extent: u64,
    /// Structural fingerprint, computed once at construction so
    /// [`FlattenCache`] can key memoized run lists without comparing the
    /// whole segment list.
    signature: u64,
}

fn view_signature(disp: u64, etype_size: u64, segs: &[(u64, u64)], tile_extent: u64) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    disp.hash(&mut h);
    etype_size.hash(&mut h);
    segs.hash(&mut h);
    tile_extent.hash(&mut h);
    h.finish()
}

impl FileView {
    /// The default view: the whole file as a byte stream from offset 0.
    pub fn contiguous() -> FileView {
        let segs = vec![(0, u64::MAX)];
        let signature = view_signature(0, 1, &segs, u64::MAX);
        FileView {
            disp: 0,
            etype_size: 1,
            segs,
            tile_data: u64::MAX,
            tile_extent: u64::MAX,
            signature,
        }
    }

    /// Build a view. The filetype's flattened offsets must be monotonically
    /// increasing and non-negative (the MPI standard requires this of file
    /// views), and the filetype size must be a multiple of the etype size.
    pub fn new(disp: u64, etype: &Datatype, filetype: &Datatype) -> MpioResult<FileView> {
        let etype_size = etype.size();
        if etype_size == 0 {
            return Err(MpioError::InvalidArgument("etype has zero size".into()));
        }
        let flat = flatten(filetype);
        let mut segs = Vec::with_capacity(flat.len());
        let mut prev_end: i64 = -1;
        for s in &flat {
            if s.offset < 0 {
                return Err(MpioError::InvalidArgument(
                    "filetype addresses negative offsets".into(),
                ));
            }
            if s.offset < prev_end {
                return Err(MpioError::InvalidArgument(
                    "filetype offsets must be monotonically increasing".into(),
                ));
            }
            prev_end = s.end();
            segs.push((s.offset as u64, s.len));
        }
        let tile_data: u64 = segs.iter().map(|s| s.1).sum();
        if tile_data % etype_size != 0 {
            return Err(MpioError::InvalidArgument(format!(
                "filetype size {tile_data} is not a multiple of etype size {etype_size}"
            )));
        }
        let tile_extent = filetype.extent();
        let signature = view_signature(disp, etype_size, &segs, tile_extent);
        Ok(FileView {
            disp,
            etype_size,
            segs,
            tile_data,
            tile_extent,
            signature,
        })
    }

    /// Structural fingerprint of this view (displacement, etype, segments,
    /// extent). Two views with equal signatures flatten identically.
    pub fn signature(&self) -> u64 {
        self.signature
    }

    /// Bytes of data visible per filetype tile.
    pub fn tile_data(&self) -> u64 {
        self.tile_data
    }

    /// Size of the etype in bytes.
    pub fn etype_size(&self) -> u64 {
        self.etype_size
    }

    /// Map a logical access of `len` bytes starting at `offset` *etypes*
    /// into absolute file runs (coalesced, increasing).
    pub fn map(&self, offset_etypes: u64, len: u64) -> MpioResult<Vec<Run>> {
        let mut out = Vec::new();
        if len == 0 {
            return Ok(out);
        }
        if self.tile_data == 0 {
            return Err(MpioError::InvalidArgument(
                "view has an empty filetype but a nonzero access".into(),
            ));
        }
        let logical = offset_etypes
            .checked_mul(self.etype_size)
            .ok_or_else(|| MpioError::InvalidArgument("view offset overflow".into()))?;

        let mut tile = logical / self.tile_data;
        let mut skip = logical % self.tile_data; // data bytes to skip inside tile
        let mut remaining = len;

        'tiles: loop {
            let base = self.disp + tile * self.tile_extent;
            for &(soff, slen) in &self.segs {
                if skip >= slen {
                    skip -= slen;
                    continue;
                }
                let start_in_seg = skip;
                skip = 0;
                let take = (slen - start_in_seg).min(remaining);
                push_run(&mut out, base + soff + start_in_seg, take);
                remaining -= take;
                if remaining == 0 {
                    break 'tiles;
                }
            }
            tile += 1;
        }
        Ok(out)
    }
}

/// Memoizes [`FileView::map`] results keyed by `(view signature, offset,
/// len)`.
///
/// PnetCDF record-variable access patterns flatten the same view at the
/// same offsets over and over (one call per record per timestep); the run
/// list depends only on the view structure and the access window, so the
/// walk over tiles and segments can be reused. Results are shared as
/// `Arc<Vec<Run>>` so a hit costs one hash lookup and a refcount bump.
#[derive(Debug, Default)]
pub struct FlattenCache {
    map: HashMap<(u64, u64, u64), Arc<Vec<Run>>>,
}

impl FlattenCache {
    /// Bound on cached entries; the map is cleared wholesale when full
    /// (flatten results are cheap to recompute, so eviction bookkeeping
    /// would cost more than it saves).
    const MAX_ENTRIES: usize = 1024;

    pub fn new() -> FlattenCache {
        FlattenCache::default()
    }

    /// Map a logical access through `view`, reusing a memoized run list
    /// when the same `(view, offset, len)` was flattened before. The flag
    /// says which it was: `true` for a hit.
    pub fn map(
        &mut self,
        view: &FileView,
        offset_etypes: u64,
        len: u64,
    ) -> MpioResult<(Arc<Vec<Run>>, bool)> {
        let key = (view.signature, offset_etypes, len);
        if let Some(runs) = self.map.get(&key) {
            return Ok((Arc::clone(runs), true));
        }
        let runs = Arc::new(view.map(offset_etypes, len)?);
        if self.map.len() >= Self::MAX_ENTRIES {
            self.map.clear();
        }
        self.map.insert(key, Arc::clone(&runs));
        Ok((runs, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnetcdf_mpi::Datatype;

    #[test]
    fn contiguous_view_is_identity() {
        let v = FileView::contiguous();
        assert_eq!(v.map(100, 50).unwrap(), vec![(100, 50)]);
        assert_eq!(v.map(0, 0).unwrap(), vec![]);
    }

    #[test]
    fn displacement_shifts_everything() {
        let v = FileView::new(
            1000,
            &Datatype::byte(),
            &Datatype::contiguous(8, Datatype::byte()),
        )
        .unwrap();
        assert_eq!(v.map(4, 10).unwrap(), vec![(1004, 10)]);
    }

    #[test]
    fn strided_filetype_tiles() {
        // Filetype: 2 bytes data, 2 bytes hole (vector 1 block of 2, resized
        // to extent 4).
        let ft = Datatype::resized(0, 4, Datatype::contiguous(2, Datatype::byte()));
        let v = FileView::new(0, &Datatype::byte(), &ft).unwrap();
        // 6 logical bytes -> (0,2), (4,2), (8,2)
        assert_eq!(v.map(0, 6).unwrap(), vec![(0, 2), (4, 2), (8, 2)]);
        // Offset into the middle of a tile.
        assert_eq!(v.map(1, 3).unwrap(), vec![(1, 1), (4, 2)]);
        // Skipping whole tiles.
        assert_eq!(v.map(4, 2).unwrap(), vec![(8, 2)]);
    }

    #[test]
    fn subarray_view_maps_partition() {
        // 4x4 int array; this rank sees rows 2..4 (a "Z partition").
        let ft = Datatype::subarray(&[4, 4], &[2, 4], &[2, 0], Datatype::int()).unwrap();
        let v = FileView::new(0, &Datatype::int(), &ft).unwrap();
        // The whole sub-block is one contiguous run of 32 bytes at byte 32.
        assert_eq!(v.map(0, 32).unwrap(), vec![(32, 32)]);
    }

    #[test]
    fn subarray_view_noncontiguous_partition() {
        // 4x4 int array; this rank sees columns 1..3 (an "X partition").
        let ft = Datatype::subarray(&[4, 4], &[4, 2], &[0, 1], Datatype::int()).unwrap();
        let v = FileView::new(0, &Datatype::int(), &ft).unwrap();
        assert_eq!(
            v.map(0, 32).unwrap(),
            vec![(4, 8), (20, 8), (36, 8), (52, 8)]
        );
        // Partial access stops mid-run.
        assert_eq!(v.map(0, 3).unwrap(), vec![(4, 3)]);
    }

    #[test]
    fn etype_scales_offsets() {
        let ft = Datatype::contiguous(100, Datatype::double());
        let v = FileView::new(0, &Datatype::double(), &ft).unwrap();
        assert_eq!(v.map(3, 16).unwrap(), vec![(24, 16)]);
        assert_eq!(v.etype_size(), 8);
    }

    #[test]
    fn rejects_decreasing_filetype() {
        // Struct with fields out of order addresses backwards.
        let ft = Datatype::structure(vec![(8, 1, Datatype::int()), (0, 1, Datatype::int())]);
        assert!(FileView::new(0, &Datatype::byte(), &ft).is_err());
    }

    #[test]
    fn rejects_etype_mismatch() {
        let ft = Datatype::contiguous(3, Datatype::byte());
        assert!(FileView::new(0, &Datatype::int(), &ft).is_err());
    }

    #[test]
    fn flatten_cache_hits_and_distinguishes_views() {
        let ft = Datatype::resized(0, 4, Datatype::contiguous(2, Datatype::byte()));
        let strided = FileView::new(0, &Datatype::byte(), &ft).unwrap();
        let contig = FileView::contiguous();
        assert_ne!(strided.signature(), contig.signature());

        let mut cache = FlattenCache::new();
        let (a, hit) = cache.map(&strided, 0, 6).unwrap();
        assert_eq!(*a, vec![(0, 2), (4, 2), (8, 2)]);
        assert!(!hit);
        // Same view+access: served from the cache, same result.
        let (b, hit) = cache.map(&strided, 0, 6).unwrap();
        assert_eq!(a, b);
        assert!(hit);
        // Same access through a different view must not collide.
        let (c, hit) = cache.map(&contig, 0, 6).unwrap();
        assert_eq!(*c, vec![(0, 6)]);
        assert!(!hit);
        // A rebuilt identical view shares the signature and therefore hits.
        let ft2 = Datatype::resized(0, 4, Datatype::contiguous(2, Datatype::byte()));
        let strided2 = FileView::new(0, &Datatype::byte(), &ft2).unwrap();
        assert_eq!(strided.signature(), strided2.signature());
        assert!(cache.map(&strided2, 0, 6).unwrap().1);
    }

    #[test]
    fn push_run_coalesces() {
        let mut runs = Vec::new();
        push_run(&mut runs, 0, 4);
        push_run(&mut runs, 4, 4);
        push_run(&mut runs, 10, 2);
        push_run(&mut runs, 12, 0);
        assert_eq!(runs, vec![(0, 8), (10, 2)]);
        assert_eq!(runs_total(&runs), 10);
    }
}
