//! `repro`: the experiment driver. See `pnetcdf_bench::driver`.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    pnetcdf_bench::driver::main(&args)
}
