//! Ablation study for DAWA's design choices: how much of DAWA's error
//! comes from (a) the partition stage budget ρ, (b) the partition itself
//! (vs. no partition = GREEDY_H directly), and (c) the workload-aware
//! second stage (vs. a uniform hierarchy)? Compared against HB as the
//! data-independent reference.

use dpbench_bench::common;
use dpbench_core::rng::rng_for;
use dpbench_core::{scaled_per_query_error, Loss, Mechanism, Workload};
use dpbench_datasets::{catalog, DataGenerator};
use dpbench_harness::results::render_table;

fn mean_error(mech: &dyn Mechanism, dataset: &str, scale: u64, trials: usize) -> f64 {
    let d = catalog::by_name(dataset).expect("dataset");
    let domain = common::domain_1d();
    let w = Workload::prefix_1d(domain.n_cells());
    let mut total = 0.0;
    for t in 0..trials {
        let mut rng = rng_for(
            "ablate",
            &[dpbench_core::rng::hash_str(dataset), scale, t as u64],
        );
        let x = DataGenerator::new().generate(&d, domain, scale, &mut rng);
        let y = w.evaluate(&x);
        let est = mech.run_eps(&x, &w, 0.1, &mut rng).expect("run");
        total += scaled_per_query_error(&y, &w.evaluate_cells(&est), x.scale(), Loss::L2);
    }
    total / trials as f64
}

fn main() {
    common::banner(
        "DAWA ablation (partition budget, partition benefit, stage-2 choice)",
        "Li et al. PVLDB 2014 via Hay et al. SIGMOD 2016",
    );
    let trials = dpbench_bench::common::Fidelity::from_env().trials.max(3);
    let variants: Vec<(&str, Box<dyn Mechanism>)> = vec![
        (
            "DAWA(rho=0.10)",
            Box::new(dpbench_algorithms::dawa::Dawa::with_rho(0.10)),
        ),
        (
            "DAWA(rho=0.25)",
            Box::new(dpbench_algorithms::dawa::Dawa::new()),
        ),
        (
            "DAWA(rho=0.50)",
            Box::new(dpbench_algorithms::dawa::Dawa::with_rho(0.50)),
        ),
        (
            "GREEDY_H (no partition)",
            Box::new(dpbench_algorithms::greedy_h::GreedyH::new()),
        ),
        (
            "HB (reference)",
            Box::new(dpbench_algorithms::hier::Hb::new()),
        ),
        (
            "H b=2 (uniform levels)",
            Box::new(dpbench_algorithms::hier::H::new()),
        ),
    ];

    for dataset in ["MD-SAL", "TRACE", "BIDS-ALL"] {
        println!("## {dataset}");
        let mut rows = Vec::new();
        for (name, mech) in &variants {
            let mut row = vec![name.to_string()];
            for scale in [1_000_u64, 100_000, 10_000_000] {
                let err = mean_error(mech.as_ref(), dataset, scale, trials);
                row.push(format!("{err:.3e}"));
            }
            rows.push(row);
        }
        println!(
            "{}",
            render_table(
                &["variant", "scale 10^3", "scale 10^5", "scale 10^7"],
                &rows
            )
        );
    }
    println!("Reading: the partition helps exactly when the data has wide");
    println!("near-uniform regions (MD-SAL, TRACE) and at low signal; the");
    println!("workload-tuned level budgets matter most at high signal.");
}
