//! The `device.soa_dict_columns` gauge counts the dictionary-coded
//! columns of every sample staged while telemetry is on. A test binary of
//! its own: the gauge is process-global, so no other test may stage
//! while this one reads it.

use kdesel_device::{Backend, Device};
use kdesel_telemetry::{prometheus_text, registry};

#[test]
fn dict_column_gauge_follows_staging_writes_and_drops() {
    let gauge = registry().gauge("device.soa_dict_columns");
    kdesel_telemetry::set_enabled(true);
    let d = Device::new(Backend::CpuSeq);
    // 64 rows, so at most 4 distinct values per coded column: columns 0
    // and 1 are coded, column 2 is not.
    let host: Vec<f64> = (0..64)
        .flat_map(|r| [f64::from(r % 2), f64::from(r % 3), f64::from(r)])
        .collect();
    let mut soa = d.stage_rows_soa(&host, 3);
    assert_eq!(gauge.get(), 2.0);
    let exposition = prometheus_text(registry());
    assert!(
        exposition.contains("soa_dict_columns 2"),
        "gauge missing from the exposition:\n{exposition}"
    );
    let other = d.stage_rows_soa(&host, 3);
    assert_eq!(gauge.get(), 4.0);
    drop(other);
    assert_eq!(gauge.get(), 2.0);
    // Passing column 0's cap drops its dictionary and its count.
    for (row, v) in (10..13).enumerate() {
        d.write_row_soa(&mut soa, row, &[f64::from(v), 0.0, 0.0]);
    }
    assert_eq!(soa.dict_columns(), 1);
    assert_eq!(gauge.get(), 1.0);
    drop(soa);
    assert_eq!(gauge.get(), 0.0);
    kdesel_telemetry::set_enabled(false);
}
