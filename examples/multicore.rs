//! Four cores, four workloads, one memory: consolidation is where bank
//! subdivision pays most, because several private instruction windows
//! generate far more concurrent misses than any single program.
//!
//! ```text
//! cargo run -p fgnvm-sim --release --example multicore
//! ```

use fgnvm_cpu::{fairness, weighted_speedup, Core, CoreConfig};
use fgnvm_mem::MemorySystem;
use fgnvm_types::config::SystemConfig;
use fgnvm_types::geometry::Geometry;
use fgnvm_workloads::profile;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let names = ["mcf_like", "lbm_like", "milc_like", "omnetpp_like"];
    let traces: Vec<_> = names
        .iter()
        .map(|n| {
            profile(n)
                .expect("known profile")
                .generate(Geometry::default(), 7, 4000)
        })
        .collect();
    let cfg = CoreConfig::nehalem_like();
    let core = Core::new(cfg)?;

    println!("{} cores sharing one memory channel:\n", traces.len());
    for (label, config) in [
        ("baseline NVM", SystemConfig::baseline()),
        ("FgNVM 8x8", SystemConfig::fgnvm(8, 8)?),
    ] {
        // Solo runs establish each workload's unshared IPC on this design.
        let solo: Vec<_> = traces
            .iter()
            .map(|t| {
                let mut mem = MemorySystem::new(config)?;
                Ok::<_, fgnvm_types::ConfigError>(core.run(t, &mut mem))
            })
            .collect::<Result<_, _>>()?;
        let mut mem = MemorySystem::new(config)?;
        let shared = core.run_shared(&traces, &mut mem);
        println!("--- {label} ---");
        for ((name, s), alone) in names.iter().zip(&shared.per_core).zip(&solo) {
            println!(
                "  {name:<14} solo IPC {:.3} → shared {:.3} ({:.0}% of solo)",
                alone.ipc(),
                s.ipc(),
                s.ipc() / alone.ipc() * 100.0
            );
        }
        println!(
            "  throughput {:.3} ΣIPC   weighted speedup {:.2}/{}   fairness {:.2}\n",
            shared.throughput(),
            weighted_speedup(&shared.per_core, &solo),
            traces.len(),
            fairness(&shared.per_core, &solo),
        );
    }
    println!(
        "Each core keeps its own window and prefetcher; only the memory is\n\
         shared — so the gap between the designs is pure bank-level contention,\n\
         exactly what two-dimensional subdivision removes."
    );
    Ok(())
}
