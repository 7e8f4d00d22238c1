//! A persisted calibration of an older schema is refused, not half-read.
//!
//! Version 2 of the calibration file carries a fourth curve (the right-sparse
//! SpDMM).  A version-1 file cannot price that kernel, so
//! `DYNASPARSE_CALIBRATION=<version-1 file>` takes the path every unreadable
//! file takes: a warning on stderr ("… measuring the host instead") and a
//! fresh measurement.
//!
//! Its **own test binary**, like `telemetry_drift.rs`: the shared calibration
//! is a process-wide `OnceLock` read from the environment once.

use dynasparse_matrix::calibrate::CALIBRATION_VERSION;
use dynasparse_matrix::{CalibrationConfig, HostCalibration};

#[test]
fn a_version_1_calibration_file_is_ignored_and_the_host_is_measured() {
    // What the three-curve schema wrote (`HostCalibration::reference()` of
    // its day).
    let v1 = r#"{
  "version": 1,
  "gemm": { "work": 0.000001, "output": 0.0000001, "per_row": 0 },
  "spdmm": { "work": 0.000004, "output": 0.0000002, "per_row": 0 },
  "spmm": { "work": 0.00004, "output": 0.0000004, "per_row": 0.0001 },
  "samples": 0,
  "measure_ms": 0
}"#;
    let path = std::env::temp_dir().join("dynasparse_v1_calibration.json");
    let path = path.to_str().expect("utf-8 temp path");
    std::fs::write(path, v1).expect("persist the version-1 fit");
    let err = HostCalibration::load(path).unwrap_err();
    assert!(err.contains("version 1 unsupported"), "{err}");

    std::env::set_var("DYNASPARSE_CALIBRATION", path);
    let shared =
        HostCalibration::shared().expect("an unreadable file does not disable calibration");
    let grid = CalibrationConfig::default();
    assert_eq!(shared.version, CALIBRATION_VERSION);
    assert_eq!(
        shared.samples,
        grid.shapes.len() * grid.densities.len(),
        "the fit must come from a measurement of the default grid"
    );
    assert!(shared.is_valid(), "{shared:?}");
    let _ = std::fs::remove_file(path);
}
