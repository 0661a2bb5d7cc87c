//! Regenerates **Fig. 6** through the campaign scheduler: the full FaaS
//! heatmap matrix submitted as one `CampaignSpec` per platform, executed
//! cold and then resubmitted to measure the content-addressed result
//! cache's wall-clock savings.
//!
//! Usage: `campaign_fig6 [--quick] [--seed N]`

use confbench_bench::{campaign, ExperimentConfig};
use confbench_types::TeePlatform;

fn main() {
    let cfg = ExperimentConfig::from_cli(13);
    for platform in [TeePlatform::Tdx, TeePlatform::SevSnp] {
        println!("=== Fig. 6 via confbench-sched ({platform}) ===\n");
        let hm = campaign::run(cfg, platform, None);
        let rows: Vec<String> = hm.languages.iter().map(|l| l.to_string()).collect();
        println!("{}", confbench_stats::heatmap(&rows, &hm.workloads, &hm.ratios));
        println!(
            "cold pass      : {:>10.1} ms wall ({} cells executed)",
            hm.cold_wall_ms, hm.memo_status.total_jobs
        );
        println!(
            "memoized pass  : {:>10.1} ms wall ({} cache hits)",
            hm.memo_wall_ms, hm.memo_status.cache_hits
        );
        println!("speedup        : {:>10.1}x\n", hm.speedup());
    }
    println!(
        "paper shape preserved: the scheduler-driven matrix measures the same\n\
         cells as the loop-driven Fig. 6, seeded per cell from the SHA-256 of\n\
         the cell identity rather than fig6_heatmap's FNV label mix, so single\n\
         ratios can differ by a few hundredths; the identical resubmission\n\
         never touches a VM."
    );
}
