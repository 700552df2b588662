//! The experiments a debug build finishes in seconds, run through the
//! library and compared with the same golden files `repro check --quick`
//! reads. (The figures and the FLASH extensions take minutes in a debug
//! build; `ci.sh` checks those with the release binary.)

use pnetcdf_bench::driver::{compare, experiment};
use pnetcdf_bench::Size;

fn check(name: &str) {
    let e = experiment(name).expect("a row of the registry");
    let diffs = compare(e, Size::Quick, &(e.run)(Size::Quick));
    assert!(diffs.is_empty(), "{}", diffs.join("\n"));
}

macro_rules! golden_tests {
    ($($name:ident)*) => {$(
        #[test]
        fn $name() {
            check(stringify!($name));
        }
    )*};
}

golden_tests! {
    ablation_access_strategy
    ablation_alignment
    ablation_collective
    ablation_hdf5_overheads
    ablation_header
    ablation_hints
    ext_prefetch
    service
}
