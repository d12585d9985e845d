//! The paper's Figure 4 walk-through: a free list accessed through
//! procedure calls, synchronized after procedure cloning.
//!
//! ```sh
//! cargo run --example free_list
//! ```
//!
//! Prints the dependence profile of the parallelized loop, the compiler's
//! transformation report (including the clones of `free_element` /
//! `use_element`), the transformed IR of the cloned producer, and the
//! resulting execution statistics — reproducing the paper's §2.3 narrative
//! end to end on the `parser` workload.

use tls_repro::experiments::{Harness, Mode, Scale};

fn main() {
    let workload = tls_repro::workloads::by_name("parser").expect("parser exists");
    println!(
        "workload: {} (stands in for {})",
        workload.name, workload.paper_name
    );
    println!("pattern:  {}\n", workload.pattern);

    let h = Harness::new(workload, Scale::Quick).expect("harness builds");

    // The dependence profile of the parallelized loop (§2.3 "Profiling
    // dependences"): store → load edges with frequencies and distances.
    for summary in &h.set_c.regions {
        let lp = &h.set_c.dep_profile.loops[&summary.loop_key];
        println!(
            "region {:?}: coverage {:.1}%, {:.1} epochs/instance, {:.1} instrs/epoch",
            summary.id,
            summary.coverage * 100.0,
            summary.avg_trip,
            summary.avg_epoch_size
        );
        let mut edges: Vec<_> = lp.edges.iter().collect();
        edges.sort_by_key(|(_, e)| std::cmp::Reverse(e.epochs));
        for ((store, load), e) in edges.iter().take(6) {
            println!(
                "  store {}(ctx {}) -> load {}(ctx {}): {:.0}% of epochs, distance-1 share {:.0}%",
                store.sid,
                store.ctx,
                load.sid,
                load.ctx,
                e.epochs as f64 / lp.total_iters as f64 * 100.0,
                e.dist_hist[0] as f64 / e.dist_hist.iter().sum::<u64>().max(1) as f64 * 100.0,
            );
        }
    }

    println!("\ncompiler report: {:?}", h.set_c.report);

    // Show a cloned procedure: the paper's free_element_cloned (Fig. 4b).
    for func in &h.set_c.synced.funcs {
        if func.name.contains("__tls") {
            println!("\ncloned procedure `{}`:\n{func}", func.name);
        }
    }

    // Execute under the paper's main modes.
    println!("\nregion bars (normalized to sequential = 100):");
    for mode in [Mode::Unsync, Mode::CompilerRef, Mode::HwSync, Mode::Hybrid] {
        let r = h.run(mode).expect("runs");
        let b = h.bar(mode, &r);
        println!(
            "  {:>2}: time {:6.1}  busy {:5.1}  fail {:5.1}  sync {:5.1}  other {:5.1}  ({} violations)",
            b.label, b.norm_time, b.busy, b.fail, b.sync, b.other, b.violations
        );
    }
    println!(
        "\nsignal address buffer high water: {} entries (paper: 10 always suffice)",
        h.run(Mode::CompilerRef).expect("runs").max_signal_buffer
    );
}
