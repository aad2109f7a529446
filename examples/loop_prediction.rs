//! Loop prediction (§6): run the fine-grained spatial study around a
//! loop-prone site, train the S1E3 probability model, and predict the loop
//! likelihood at unseen locations.
//!
//! ```text
//! cargo run --release --example loop_prediction
//! ```

use fiveg_onoff::predict::{error_stats, train_s1e3};
use onoff_analysis::spearman;
use onoff_campaign::areas::area_a1;
use onoff_campaign::fine::{fine_grained_study, location_features};
use onoff_campaign::run_location;
use onoff_policy::{op_t_policy, PhoneModel};

fn main() {
    let area = area_a1(0x050FF);

    // Pick a loop-prone site by quick probing.
    let mut probe = (0usize, 0usize);
    for loc in 0..area.locations.len() {
        let mut hits = 0;
        for s in 0..2u64 {
            let (rec, ..) = run_location(&area, loc, PhoneModel::OnePlus12R, 900 + s, 120_000);
            if rec.has_loop && rec.loop_type == Some(onoff_detect::LoopType::S1E3) {
                hits += 1;
            }
        }
        if hits > probe.1 {
            probe = (loc, hits);
        }
    }
    let center = area.locations[probe.0];
    println!("fine-grained study around location P{} …", probe.0 + 1);

    // The §6 dense grid: 5×5 points, a few runs each.
    let study = fine_grained_study(&area, center, 120.0, 5, 4, 1234);
    println!("grid observed S1E3 probabilities:");
    for row in study.observed.chunks(5) {
        let cells: Vec<String> = row.iter().map(|p| format!("{:>4.0}%", p * 100.0)).collect();
        println!("  {}", cells.join(" "));
    }
    if let Some(rho) = spearman(&study.scell_gaps, &study.observed) {
        println!("Spearman(SCell gap, probability) = {rho:.2} (paper: −0.65)");
    }

    // Train and evaluate at the sparse locations.
    let model = train_s1e3(&study.samples);
    println!(
        "\ntrained model: u = 1/(1+e^(-{:.2}·Δp)), p = max(1-Δs/{:.1}, 0)^{:.2}",
        model.k, model.t, model.n
    );

    let policy = op_t_policy();
    let mut pairs = Vec::new();
    println!("\npredictions at the sparse A1 locations:");
    for (loc, &p) in area.locations.iter().enumerate() {
        let combos = location_features(&area.env, &policy, p);
        let predicted = model.predict(&combos);
        // Ground truth from a few fresh runs.
        let mut loops = 0;
        const RUNS: usize = 3;
        for s in 0..RUNS as u64 {
            let (rec, ..) = run_location(&area, loc, PhoneModel::OnePlus12R, 7000 + s, 180_000);
            if rec.has_loop && rec.loop_type == Some(onoff_detect::LoopType::S1E3) {
                loops += 1;
            }
        }
        let observed = loops as f64 / RUNS as f64;
        pairs.push((predicted, observed));
        println!(
            "  P{:<3} predicted {:>5.1}%  observed {:>5.1}%",
            loc + 1,
            predicted * 100.0,
            observed * 100.0
        );
    }
    let stats = error_stats(&pairs);
    println!(
        "\naccuracy: MAE {:.3}, within ±10%: {:.0}%, within ±25%: {:.0}%",
        stats.mae,
        stats.within_10 * 100.0,
        stats.within_25 * 100.0
    );
}
