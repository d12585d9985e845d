//! Run one workload through every evaluation mode of the paper and print
//! its full bar chart — a single-benchmark slice of Figures 2, 8, 9 and 10.
//!
//! ```sh
//! cargo run --release --example benchmark_tour [workload]
//! ```

use tls_repro::experiments::{Harness, Mode, Scale};

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "parser".to_string());
    let Some(workload) = tls_repro::workloads::by_name(&name) else {
        eprintln!(
            "unknown workload `{name}`; available: {}",
            tls_repro::workloads::all()
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(1);
    };
    println!(
        "{} ({}): {}\n",
        workload.name, workload.paper_name, workload.pattern
    );
    let h = Harness::new(workload, Scale::Quick).expect("harness builds");

    println!("bar  time   busy   fail   sync  other  violations   (sequential = 100)");
    for mode in [
        Mode::Unsync,
        Mode::OracleAll,
        Mode::Threshold(25),
        Mode::Threshold(15),
        Mode::Threshold(5),
        Mode::CompilerTrain,
        Mode::CompilerRef,
        Mode::PerfectSync,
        Mode::LateSync,
        Mode::HwPredict,
        Mode::HwSync,
        Mode::Hybrid,
        Mode::HybridFiltered,
    ] {
        let r = h.run(mode).expect("runs");
        let b = h.bar(mode, &r);
        println!(
            "{:>5} {:6.1} {:6.1} {:6.1} {:6.1} {:6.1}  {:>6}",
            b.label, b.norm_time, b.busy, b.fail, b.sync, b.other, b.violations
        );
    }

    let c = h.run(Mode::CompilerRef).expect("runs");
    let s = h.program_stats(Mode::CompilerRef, &c);
    println!(
        "\nprogram level (C): coverage {:.1}%, region speedup {:.2}x, program speedup {:.2}x",
        s.coverage * 100.0,
        s.region_speedup,
        s.program_speedup
    );
}
