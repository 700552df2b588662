//! Run lists: the one vocabulary of this crate's data calls.
//!
//! A caller resolves its access to absolute byte runs `(offset, len)` of
//! the file — sorted, non-overlapping, adjacent pieces coalesced — and
//! hands them over with the bytes packed in run order. That is the
//! flattened offset–length list ROMIO reduces every file view to before it
//! sieves or runs two-phase I/O (Thakur, Gropp & Lusk, "Optimizing
//! Noncontiguous Accesses in MPI-IO"); PnetCDF builds it from the
//! variable's shape and the `start/count/stride` arguments (the paper's
//! §4.2.2 builds an MPI file view from the same information) and merges
//! the lists of many variables into one, which a view cannot express.
//! The lists are built by `pnetcdf_format::layout`'s walker and
//! `push_run`.

/// An absolute byte run in the file: `(offset, len)`.
pub type Run = (u64, u64);

/// Sort `runs` and merge those that overlap or touch: what is left are the
/// maximal contiguous intervals they cover, sorted.
pub fn coalesce(runs: &mut Vec<Run>) {
    runs.sort_unstable();
    runs.dedup_by(|next, kept| {
        let end = kept.0 + kept.1;
        let touches = next.0 <= end;
        if touches {
            kept.1 = end.max(next.0 + next.1) - kept.0;
        }
        touches
    });
}

/// Total bytes in a run list.
pub fn runs_total(runs: &[Run]) -> u64 {
    runs.iter().map(|r| r.1).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnetcdf_format::layout::push_run;

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

    #[test]
    fn coalesce_merges_touching_and_overlapping_runs() {
        let merged = |runs: &[Run]| {
            let mut runs = runs.to_vec();
            coalesce(&mut runs);
            runs
        };
        assert_eq!(merged(&[(0, 4), (4, 4)]), vec![(0, 8)]);
        assert_eq!(merged(&[(10, 2), (0, 4)]), vec![(0, 4), (10, 2)]);
        // Overlaps merge too, also when one run holds the next.
        assert_eq!(merged(&[(0, 6), (4, 4)]), vec![(0, 8)]);
        assert_eq!(merged(&[(0, 4), (10, 2), (2, 4)]), vec![(0, 6), (10, 2)]);
        assert_eq!(merged(&[(0, 10), (2, 3), (12, 1)]), vec![(0, 10), (12, 1)]);
        assert_eq!(merged(&[]), vec![]);
    }
}
