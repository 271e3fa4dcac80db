//! The complete Fig. 1 loop: fluorescence image -> atom detection ->
//! QRM scheduling (FPGA model) -> AWG tone program -> physical execution
//! with transport loss -> re-imaging rounds until defect-free.
//!
//! Run with: `cargo run --example full_pipeline`

use atom_rearrange::prelude::*;

fn main() -> Result<(), qrm_core::Error> {
    let mut rng = qrm_core::loading::seeded_rng(2025);

    // True occupancy the camera will see.
    let truth = LoadModel::new(0.55).load_at_least(30, 30, 420, 32, &mut rng)?;
    let target = Rect::centered(30, 30, 18, 18)?;
    println!(
        "loaded {} atoms; target {} needs {} atoms",
        truth.atom_count(),
        target,
        target.area()
    );

    let pipeline = Pipeline::new(PipelineConfig {
        loss_prob: 0.01, // 1% per-move transport loss
        max_rounds: 4,
        ..PipelineConfig::default()
    });
    let planner = QrmAccelerator::new(AcceleratorConfig::balanced());
    let run = pipeline.run(&planner, &[Shot::new(truth, target)], 2025)?;
    let report = &run.reports[0];

    for (i, round) in report.rounds.iter().enumerate() {
        println!(
            "round {}: detection fidelity {:.4}, {} moves, {} atoms lost, {:.0} us of motion, filled = {}",
            i + 1,
            round.detection_fidelity,
            round.moves,
            round.atoms_lost,
            round.motion_us,
            round.filled
        );
    }
    println!(
        "\nfinal: filled = {}, total motion {:.0} us, total losses {}",
        report.filled,
        report.total_motion_us(),
        report.total_lost()
    );

    // The control-system view (paper Fig. 2): what the same cycle costs
    // in the host-loop vs the integrated architecture.
    let model = SystemModel::typical().with_scheduling_us(100.0, 1.2);
    println!("\nhost-in-the-loop budget (Fig. 2a):");
    println!("{}", model.budget(Architecture::HostLoop, (200, 200), 150));
    println!("fully integrated budget (Fig. 2b):");
    println!("{}", model.budget(Architecture::OnFpga, (200, 200), 150));
    Ok(())
}
