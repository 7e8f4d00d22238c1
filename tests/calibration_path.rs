//! `DYNASPARSE_CALIBRATION` reads only `off` / `regions`: a path to a fit
//! file, which earlier releases loaded instead of measuring, is reported on
//! stderr and ignored, and the host is measured.
//!
//! Its **own test binary**: the shared calibration is a process-wide
//! `OnceLock` read from the environment once, so the variable must be set
//! before anything in the process asks for it.

use dynasparse_matrix::HostCalibration;

#[test]
fn a_former_fit_path_is_ignored_and_the_host_is_measured() {
    std::env::set_var("DYNASPARSE_CALIBRATION", "host_fit.json");
    let shared = HostCalibration::shared().expect("a path does not disable calibration");
    assert!(shared.is_valid(), "{shared:?}");
    // A curve fitted to no timing rests on the smallest positive work term;
    // both curves must come from timings of the grid.
    for fit in [&shared.spdmm, &shared.spmm] {
        assert!(fit.work > f64::MIN_POSITIVE, "{shared:?}");
    }
}
