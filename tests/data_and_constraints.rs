//! Integration tests across the data/constraints/datagen substrates:
//! CSV round-trips of generated datasets, violation accounting against
//! ground truth, and FD discovery on clean vs dirty copies.

use holodetect_repro::constraints::discovery::fd_satisfaction;
use holodetect_repro::constraints::ViolationEngine;
use holodetect_repro::data::csv::{parse_csv, write_csv};
use holodetect_repro::datagen::{generate, DatasetKind};

#[test]
fn generated_datasets_roundtrip_through_csv() {
    for kind in DatasetKind::ALL {
        let g = generate(kind, 120, 5);
        let text = write_csv(&g.dirty);
        let back = parse_csv(&text).unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert_eq!(back.n_tuples(), g.dirty.n_tuples(), "{kind}");
        assert_eq!(back.n_attrs(), g.dirty.n_attrs(), "{kind}");
        for t in (0..back.n_tuples()).step_by(17) {
            assert_eq!(
                back.tuple_values(t),
                g.dirty.tuple_values(t),
                "{kind} row {t}"
            );
        }
    }
}

#[test]
fn clean_copies_satisfy_all_constraints_dirty_do_not() {
    let mut any_dirty_violation = false;
    for kind in DatasetKind::ALL {
        let g = generate(kind, 600, 23);
        let clean_engine = ViolationEngine::build(&g.clean, &g.constraints);
        for ix in clean_engine.indexes() {
            assert_eq!(
                ix.n_violating_tuples(),
                0,
                "{kind}: clean data violates {}",
                ix.constraint().name
            );
        }
        let dirty_engine = ViolationEngine::build(&g.dirty, &g.constraints);
        if dirty_engine
            .indexes()
            .iter()
            .any(|ix| ix.n_violating_tuples() > 0)
        {
            any_dirty_violation = true;
        }
    }
    assert!(
        any_dirty_violation,
        "no dataset produced violations from injected errors"
    );
}

#[test]
fn fd_satisfaction_degrades_from_clean_to_dirty() {
    let g = generate(DatasetKind::Hospital, 800, 3);
    let zip = g.clean.schema().expect_attr("ZipCode");
    let city = g.clean.schema().expect_attr("City");
    let clean_alpha = fd_satisfaction(&g.clean, &[zip], city);
    let dirty_alpha = fd_satisfaction(&g.dirty, &[zip], city);
    assert_eq!(clean_alpha, 1.0);
    assert!(dirty_alpha < 1.0, "errors should break the Zip→City FD");
    assert!(
        dirty_alpha > 0.5,
        "errors are sparse; alpha should stay high"
    );
}

#[test]
fn violation_overrides_agree_with_truth_repairs() {
    // The hypothetical-value query must agree with rebuilding the engine
    // on a copy of the dataset where that one cell is actually repaired
    // (note: a repair can legitimately *increase* violations when other
    // tuples in the restored FD group are themselves dirty).
    let g = generate(DatasetKind::Hospital, 400, 9);
    let engine = ViolationEngine::build(&g.dirty, &g.constraints);
    let mut checked = 0;
    for (cell, truth_value) in g.truth.error_cells() {
        let mut repaired = g.dirty.clone();
        repaired.set_value(cell.t(), cell.a(), truth_value);
        let rebuilt = ViolationEngine::build(&repaired, &g.constraints);
        let mut values = g.dirty.tuple_values(cell.t());
        values[cell.a()] = truth_value;
        for (ix, rix) in engine.indexes().iter().zip(rebuilt.indexes()) {
            let hypothetical = ix.violations(&g.dirty, &values, Some(cell.t()));
            assert_eq!(
                hypothetical,
                rix.tuple_violations(cell.t()),
                "override query disagrees with rebuild for {cell} on {}",
                ix.constraint().name
            );
        }
        checked += 1;
        if checked >= 15 {
            break;
        }
    }
    assert!(checked > 5);
}

#[test]
fn ground_truth_error_counts_are_consistent() {
    for kind in DatasetKind::ALL {
        let g = generate(kind, 300, 41);
        let recount = g
            .dirty
            .cell_ids()
            .filter(|&c| g.truth.label(c).is_error())
            .count();
        assert_eq!(recount, g.truth.n_errors(), "{kind}");
        for (cell, truth_value) in g.truth.error_cells() {
            assert_ne!(g.dirty.cell_value(cell), truth_value, "{kind}: {cell}");
            assert_eq!(g.clean.cell_value(cell), truth_value, "{kind}: {cell}");
        }
    }
}
