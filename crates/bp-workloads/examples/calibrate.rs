//! Prints measured TAGE-SC-L accuracy per benchmark vs the calibrated target.
use bp_predictors::codec::IdentityCodec;
use bp_predictors::tage_scl::TageScL;
use bp_workloads::{SpecBenchmark, WorkloadGenerator};

fn main() {
    println!(
        "{:<14} {:>8} {:>8} {:>7}",
        "benchmark", "measured", "target", "delta"
    );
    for bench in SpecBenchmark::ALL {
        let p = bench.profile();
        let mut g = WorkloadGenerator::new(p, 13);
        let mut t = TageScL::paper_default();
        let mut c = IdentityCodec::new();
        let (mut ok, mut total) = (0u64, 0u64);
        let mut step = 0u64;
        let mut warmup = 40_000i64;
        while total < 80_000 {
            let r = g.next_branch();
            step += 1;
            if !r.kind.is_conditional() {
                continue;
            }
            let pred = t.predict_slot(r.pc, 0, &mut c, step);
            t.update_slot(r.pc, 0, r.taken, &mut c, step);
            if warmup > 0 {
                warmup -= 1;
                continue;
            }
            if pred == r.taken {
                ok += 1;
            }
            total += 1;
        }
        let acc = ok as f64 / total as f64;
        println!(
            "{:<14} {:>8.4} {:>8.4} {:>+7.4}",
            p.benchmark.name(),
            acc,
            p.target_accuracy,
            acc - p.target_accuracy
        );
    }
}
