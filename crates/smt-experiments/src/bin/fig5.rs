//! Regenerates paper Figure 5 (DCRA vs ICOUNT/DG/FLUSH++).

use smt_experiments::{fig5, Runner};
fn main() {
    let runner = Runner::new();
    let result = fig5::run(&runner).unwrap_or_else(|e| {
        eprintln!("figure 5 sweep failed: {e}");
        std::process::exit(1);
    });
    println!("Figure 5(a) — IPC throughput per workload class\n");
    println!("{}", fig5::report_throughput(&result));
    println!("\nFigure 5(b) — Hmean improvement of DCRA\n");
    println!("{}", fig5::report_hmean(&result));
    println!(
        "\navg throughput improvement: vs ICOUNT {:+.1}%  vs DG {:+.1}%  vs FLUSH++ {:+.1}%",
        result.avg_throughput_improvement(&result.icount),
        result.avg_throughput_improvement(&result.dg),
        result.avg_throughput_improvement(&result.flushpp),
    );
}
