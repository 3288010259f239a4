//! Integration tests for the representation model's *discriminativeness*
//! — the property the paper's model `Q` depends on: "the likelihood of
//! correct cells given Q will be high, while the likelihood of erroneous
//! cells given Q is low" (§3.2).

use holodetect_repro::data::CellId;
use holodetect_repro::datagen::{generate, DatasetKind};
use holodetect_repro::features::{FeatureConfig, Featurizer};

/// Mean of feature `idx` over (erroneous, correct) cells.
fn feature_means(kind: DatasetKind, rows: usize, name: &str) -> (f32, f32) {
    let g = generate(kind, rows, 13);
    let f = Featurizer::fit(&g.dirty, &g.constraints, FeatureConfig::fast());
    let idx = f
        .layout()
        .wide_names
        .iter()
        .position(|n| n == name)
        .unwrap_or_else(|| panic!("no feature {name}"));
    let mut err = (0.0f64, 0usize);
    let mut ok = (0.0f64, 0usize);
    for t in 0..g.dirty.n_tuples() {
        for a in 0..g.dirty.n_attrs() {
            let cell = CellId::new(t, a);
            let v = f.features(f.reference(), cell)[idx] as f64;
            if g.truth.label(cell).is_error() {
                err = (err.0 + v, err.1 + 1);
            } else if (t + a) % 7 == 0 {
                // sample correct cells to keep the test fast
                ok = (ok.0 + v, ok.1 + 1);
            }
        }
    }
    assert!(err.1 > 0 && ok.1 > 0);
    ((err.0 / err.1 as f64) as f32, (ok.0 / ok.1 as f64) as f32)
}

#[test]
fn erroneous_cells_have_lower_empirical_frequency() {
    let (err, ok) = feature_means(DatasetKind::Hospital, 400, "empirical:freq");
    assert!(
        err < ok * 0.5,
        "errors should be rare values: err {err:.4} vs ok {ok:.4}"
    );
}

#[test]
fn erroneous_cells_are_format_outliers() {
    // Hospital errors are x-typos: their least-probable 3-gram is rarer,
    // i.e. the (−ln p)-style format feature is larger.
    let (err, ok) = feature_means(DatasetKind::Hospital, 400, "format:3gram");
    assert!(
        err > ok,
        "errors should have rarer n-grams: err {err:.4} vs ok {ok:.4}"
    );
}

#[test]
fn erroneous_cells_have_weaker_cooccurrence_support() {
    let (err, ok) = feature_means(DatasetKind::Soccer, 500, "cooc:0");
    assert!(
        err < ok,
        "errors should co-occur less: err {err:.4} vs ok {ok:.4}"
    );
}

#[test]
fn violation_features_fire_on_erroneous_cells() {
    let (err, ok) = feature_means(DatasetKind::Hospital, 400, "violations:dc0");
    // dc0 is ZipCode -> City: errors on those attrs spike it, correct
    // cells should mostly read zero.
    assert!(
        err >= ok,
        "violations should mark errors: err {err:.4} vs ok {ok:.4}"
    );
}

#[test]
fn feature_vectors_distinguish_dirty_from_repaired() {
    // For a majority of erroneous cells, the dirty feature vector must
    // differ from the hypothetically-repaired one — otherwise the model
    // has no signal at all for those cells.
    let g = generate(DatasetKind::Food, 600, 29);
    let f = Featurizer::fit(&g.dirty, &g.constraints, FeatureConfig::fast());
    let mut differs = 0usize;
    let mut total = 0usize;
    for (cell, truth_value) in g.truth.error_cells().take(60) {
        let dirty = f.features(f.reference(), cell);
        let fixed = f.features_with_value(f.reference(), cell, truth_value);
        total += 1;
        if dirty.iter().zip(&fixed).any(|(a, b)| (a - b).abs() > 1e-6) {
            differs += 1;
        }
    }
    assert!(
        differs * 10 >= total * 9,
        "only {differs}/{total} erroneous cells are distinguishable"
    );
}
