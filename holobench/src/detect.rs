//! detect-hospital: the paper's own setting, in-process through the
//! library. Fit once on a Hospital world with 10% of tuples labeled, then
//! score every cell in fixed-size `score_batch` calls until the run's time
//! is up.

use crate::hospital::{self, World};
use crate::layers::{self, FitInputs, Layers};
use crate::spans::Tracer;
use crate::stats::{median, percentile, TAIL_LEVEL};
use crate::world::derive_seed;
use crate::{metric, server, Args, Outcome};
use holo_eval::pr_auc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 25;
/// Fits per run; `fit_s` is their median and the last one is scored.
const FITS: usize = 3;
/// Scoring passes per run, at least (more if time allows). The median
/// latency is per pass, reported as the median over passes; the tail
/// percentile needs the calls of all passes.
const MIN_PASSES: usize = 3;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let seed = derive_seed(args.seed, 1);
    let mut out = Outcome::default();

    let mut setup_s = Vec::new();
    let mut w = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        w = Some(hospital::world(seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let w: World = w.expect("at least one set-up");

    let t0 = Instant::now();
    let mut fit_s = Vec::new();
    let mut thresholds = Vec::new();
    let mut model = None;
    for _ in 0..FITS {
        let t = Instant::now();
        let m = hospital::fit(&w, seed);
        fit_s.push(t.elapsed().as_secs_f64());
        thresholds.push(m.threshold());
        model = Some(m);
    }
    let model = model.expect("at least one fit");
    out.check(thresholds.iter().all(|&t| t == model.threshold()), || {
        format!("fits of the same inputs tuned thresholds {thresholds:?}")
    });
    let cache_before = model.nn_cache_stats();
    let allocs_before = holo_prof::alloc_totals().allocs;
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || t0.elapsed() < args.seconds {
        passes.push(hospital::score_pass(&model, &w));
    }
    let allocs_advanced = holo_prof::alloc_totals().allocs > allocs_before;
    let cache_after = model.nn_cache_stats();

    let first = &passes[0];
    let sum = hospital::checksum(&first.scores);
    let call_ms: Vec<f64> = passes.iter().flat_map(|p| p.call_ms.clone()).collect();
    let calls = call_ms.len();
    let failed = passes.iter().map(|p| p.failed_calls).sum();
    out.phase("score_batch", calls, failed);
    out.check(first.scores.len() == w.cells.len(), || {
        format!("{} scores for {} cells", first.scores.len(), w.cells.len())
    });
    out.check(first.scores.iter().all(|s| (0.0..=1.0).contains(s)), || {
        "a score outside [0, 1]".into()
    });
    out.check(
        passes.iter().all(|p| hospital::checksum(&p.scores) == sum),
        || "scoring passes disagree".into(),
    );
    let scored: Vec<(f64, bool)> = first
        .scores
        .iter()
        .zip(&w.cells)
        .map(|(&s, &c)| (s, w.g.truth.label(c).is_error()))
        .collect();
    let auc = pr_auc(&scored);
    out.check(auc > 0.0 && auc <= 1.0, || format!("pr_auc {auc}"));
    let per_pass = |f: &dyn Fn(&hospital::Pass) -> Result<f64, String>| {
        passes
            .iter()
            .map(f)
            .collect::<Result<Vec<f64>, String>>()
            .map(|v| median(&v))
    };
    let cells_per_s = per_pass(&|p| Ok(p.scores.len() as f64 / p.secs))?;
    eprintln!(
        "holobench: detect-hospital: fits {fit_s:.2?} s, {} passes of {} cells in {calls} calls, pr_auc {auc:.4}",
        passes.len(),
        w.cells.len()
    );
    out.metrics = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("fit_s", median(&fit_s), "s"),
        metric("score_cells_per_s", cells_per_s, "cells/s"),
        metric(
            "score_p50_ms",
            per_pass(&|p| percentile(&p.call_ms, 0.5))?,
            "ms",
        ),
        metric("score_p97_ms", percentile(&call_ms, TAIL_LEVEL)?, "ms"),
        metric("pr_auc", auc, "ratio"),
        metric(
            "peak_rss_mb",
            server::vm_hwm_mb("/proc/self/status")?,
            "MiB",
        ),
    ];
    if !args.trace {
        return Ok(out);
    }

    let mut tr = Tracer::new();
    let mut layers = Layers::default();
    let inputs = FitInputs {
        dirty: &w.g.dirty,
        constraints: &w.g.constraints,
        train: &w.train,
        seed,
    };
    let threshold = layers::replay_fit(&mut tr, &hospital::config(), &inputs, &mut layers);
    out.check(threshold == model.threshold(), || {
        format!(
            "replayed fit tuned {threshold}, fit_model {}",
            model.threshold()
        )
    });
    tr.next_op();
    let root = tr.enter(layers::REPLAY);
    layers::replay_artifact(&mut tr, &model, &mut layers)?;
    tr.exit(root);
    let totals = layers::replay_cells(&mut tr, &model, &w.g.dirty, &w.cells, hospital::chunk(&w))?;
    totals.report(&mut layers, "features.us_per_cell.reference");
    layers.set(
        "features.nn_cache_hit_ratio",
        layers::hit_ratio(cache_before, cache_after),
    );

    // The allocator A/B: the same loop in the probe, on System.
    let probe = server::fresh_binary("holobench-probe")?;
    let probe_bytes = std::fs::read(&probe).map_err(|e| format!("{}: {e}", probe.display()))?;
    let own = std::env::current_exe()
        .and_then(std::fs::read)
        .map_err(|e| format!("reading own binary: {e}"))?;
    // holo-prof's symbols carry its crate name. The needle is assembled at
    // run time so this binary's own constants cannot match it.
    let needle = [b"holo".as_slice(), b"_prof"].concat();
    let links_prof = |bin: &[u8]| bin.windows(needle.len()).any(|w| w == needle);
    out.check(links_prof(&own) && allocs_advanced, || {
        "the shipping side does not run the counting allocator".into()
    });
    out.check(!links_prof(&probe_bytes), || {
        "the probe links holo-prof: it is not a System-allocator build".into()
    });
    let output = std::process::Command::new(&probe)
        .args([
            "--seed",
            &seed.to_string(),
            "--passes",
            &MIN_PASSES.to_string(),
        ])
        .output()
        .map_err(|e| format!("running {}: {e}", probe.display()))?;
    let line = String::from_utf8_lossy(&output.stdout).to_string();
    let fields: Vec<&str> = line.split_whitespace().collect();
    let (Some(probe_us), Some(probe_sum)) = (
        fields.get(1).and_then(|v| v.parse::<f64>().ok()),
        fields.get(3).and_then(|v| u64::from_str_radix(v, 16).ok()),
    ) else {
        return Err(format!(
            "probe failed: {line}{}",
            String::from_utf8_lossy(&output.stderr)
        ));
    };
    out.check(probe_sum == sum, || {
        "the probe's scores differ from the shipping side's".into()
    });
    let shipping_us = 1e6 / cells_per_s;
    eprintln!(
        "holobench: allocator A/B: shipping {shipping_us:.2} us/cell, System {probe_us:.2} us/cell"
    );
    layers.set("prof.alloc_tax_x", shipping_us / probe_us);
    layers.finish(&tr, &args.workload, args.seed, &mut out);
    Ok(out)
}
