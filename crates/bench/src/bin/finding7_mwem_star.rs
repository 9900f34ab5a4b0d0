//! Finding 7: the improved MWEM★. Ratio of MWEM error to MWEM★ error,
//! averaged over the 1-D datasets, at scales 10³…10⁸. The paper reports
//! 1.799, 0.951, 1.063, 5.166, 12.000, 27.875 — the tuned round count
//! pays off dramatically at large scales.
//!
//! Exits with status 1 unless the ratio rises strictly across 10⁶ → 10⁷ →
//! 10⁸ and reaches at least 5 at 10⁸, so CI catches a change that loses
//! the finding.

use dpbench_bench::common;
use dpbench_harness::results::render_table;

fn main() {
    common::banner(
        "Finding 7 (MWEM vs MWEM*, error ratio by scale)",
        "Hay et al., SIGMOD 2016, Section 7.3, Finding 7 table",
    );
    let scales = vec![1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000];
    let store = common::run(common::config_1d(&["MWEM", "MWEM*"], scales.clone()));

    let mut rows = Vec::new();
    let mut ratio_at = Vec::new();
    for &scale in &scales {
        let mut ratios = Vec::new();
        for setting in store.settings() {
            if setting.scale != scale {
                continue;
            }
            let mwem = store.mean_error("MWEM", setting);
            let star = store.mean_error("MWEM*", setting);
            if mwem.is_finite() && star.is_finite() && star > 0.0 {
                ratios.push(mwem / star);
            }
        }
        if !ratios.is_empty() {
            let ratio = dpbench_stats::mean(&ratios);
            rows.push(vec![format!("{scale}"), format!("{ratio:.3}")]);
            ratio_at.push((scale, ratio));
        }
    }
    println!(
        "{}",
        render_table(&["scale", "error ratio MWEM / MWEM*"], &rows)
    );
    println!("Paper values: 1.799, 0.951, 1.063, 5.166, 12.000, 27.875.");
    println!("Shape check: ratio near 1 at small scales, growing strongly with");
    println!("scale as the tuned T exploits the stronger signal.");

    let large: Vec<f64> = [1_000_000, 10_000_000, 100_000_000]
        .iter()
        .filter_map(|s| ratio_at.iter().find(|(scale, _)| scale == s))
        .map(|&(_, ratio)| ratio)
        .collect();
    let rising = large.len() == 3 && large[0] < large[1] && large[1] < large[2];
    if !rising || large[2] < 5.0 {
        eprintln!(
            "FAILED shape check: the ratio must rise strictly across 10^6, 10^7, 10^8 \
             and reach 5 at 10^8; got {large:?}"
        );
        std::process::exit(1);
    }
    println!("Shape check passed: ratio rises across 10^6, 10^7, 10^8 and is >= 5 at 10^8.");
}
