//! Using the representation model `Q` directly: fit the featurizer,
//! inspect a cell's features (observed vs hypothetical value), and run a
//! single-component ablation — the building blocks for extending
//! HoloDetect with custom detectors.
//!
//! ```text
//! cargo run --release --example custom_features
//! ```

use holodetect_repro::data::CellId;
use holodetect_repro::datagen::{generate, DatasetKind};
use holodetect_repro::features::{Component, FeatureConfig, Featurizer};

fn main() {
    let g = generate(DatasetKind::Hospital, 400, 21);
    let f = Featurizer::fit(&g.dirty, &g.constraints, FeatureConfig::fast());
    let layout = f.layout();
    println!(
        "representation Q on {}: {} wide features + {} learnable branches = {} dims",
        g.kind.name(),
        layout.wide_dim(),
        layout.n_branches(),
        layout.total_dim()
    );
    println!("wide features: {}", layout.wide_names.join(", "));
    println!("branches: {}\n", layout.branch_names.join(", "));

    // Pick an actually-erroneous cell and compare its features against
    // the hypothetical repaired value.
    let (cell, truth_value) = g
        .truth
        .error_cells()
        .next()
        .map(|(c, v)| (c, v.to_owned()))
        .expect("dataset has errors");
    // The featurizer's owned reference holds the fitted rows as
    // reference cells: the hypothetical repair is not counted against
    // the cell's own observed row.
    let dirty_vec = f.features(f.reference(), cell);
    let fixed_vec = f.features_with_value(f.reference(), cell, &truth_value);
    println!(
        "cell t{}.{}: observed {:?} vs truth {:?}",
        cell.t(),
        g.dirty.schema().name(cell.a()),
        g.dirty.cell_value(cell),
        truth_value
    );
    println!("feature deltas (dirty − repaired) on the wide block:");
    for (i, name) in layout.wide_names.iter().enumerate() {
        let delta = dirty_vec[i] - fixed_vec[i];
        if delta.abs() > 1e-6 {
            println!("  {name:<18} {:+.4}", delta);
        }
    }

    // Ablate one component and watch the layout shrink.
    let ablated = Featurizer::fit(
        &g.dirty,
        &g.constraints,
        FeatureConfig::fast().without(Component::Neighborhood),
    );
    println!(
        "\nwithout the neighborhood model: {} dims (was {})",
        ablated.layout().total_dim(),
        layout.total_dim()
    );

    // Features support batch extraction for custom models.
    let cells: Vec<(CellId, Option<String>)> =
        g.dirty.cell_ids().take(8).map(|c| (c, None)).collect();
    let batch = f.features_batch(f.reference(), &cells, 2);
    println!(
        "batch featurized {} cells x {} dims",
        batch.len(),
        batch[0].len()
    );
}
