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

#[cfg(test)]
mod tests {
    use super::*;

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
