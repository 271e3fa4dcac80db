//! Inspect the FPGA accelerator at cycle granularity: the pipelined
//! shift unit's stage-by-stage trace for the first rows and one
//! quadrant processor's pass timing (the cycle-accurate simulator),
//! then the accelerator's cycle breakdown, which its closed form gives
//! without simulating.
//!
//! Run with: `cargo run --example fpga_trace`

use atom_rearrange::prelude::*;
use qrm_core::geometry::Axis;
use qrm_core::kernel::plan_row_windows;
use qrm_core::kernel::KernelStrategy;
use qrm_core::quadrant::QuadrantMap;
use qrm_fpga::qpm::{QpmConfig, QuadrantProcessor};
use qrm_fpga::shift_unit::{LineJob, ShiftUnit};

fn main() -> Result<(), qrm_core::Error> {
    let mut rng = qrm_core::loading::seeded_rng(3);
    let grid = AtomGrid::random(16, 16, 0.5, &mut rng);
    let target = Rect::centered(16, 16, 10, 10)?;

    // --- Shift-unit trace on the NW quadrant's first row pass.
    let map = QuadrantMap::new(16, 16)?;
    let quads = map.split(&grid)?;
    let nw = &quads[0];
    println!("NW quadrant (canonical orientation):\n{nw}\n");

    let windows = plan_row_windows(nw, KernelStrategy::Greedy, 5, 5);
    let jobs: Vec<LineJob> = (0..nw.height())
        .map(|l| LineJob {
            line: l,
            bits: nw.row_bits(l).to_vec(),
            window: windows[l],
            enabled: true,
        })
        .collect();
    let trace = ShiftUnit::new(nw.width())
        .with_trace(true)
        .run(Axis::Row, &jobs);
    println!(
        "row pass: {} lines x {} stages = {} cycles, {} shift commands",
        jobs.len(),
        trace.depth(),
        trace.cycles(),
        trace.shift_count()
    );
    println!("first pipeline events (cycle, line, stage, fired):");
    for e in trace.events().iter().take(12) {
        println!(
            "  cycle {:>3}  line {:>2}  stage {:>2}  fired={} col_bit={}",
            e.cycle, e.line, e.stage, e.fired, e.column_bit
        );
    }

    // --- QPM pass schedule.
    let qpm = QuadrantProcessor::new(QpmConfig::paper(5, 5));
    let report = qpm.process(nw)?;
    println!("\nQPM pass timing (static schedule):");
    for (i, t) in report.passes.iter().enumerate() {
        println!(
            "  pass {:>2} ({:?}): start {:>4}, finish {:>4}, planning {:>2}",
            i, t.axis, t.start, t.finish, t.planning
        );
    }
    println!("  total: {} cycles", report.total_cycles);

    // --- Full accelerator breakdown.
    let accel = QrmAccelerator::new(AcceleratorConfig::paper());
    let run = accel.run(&grid, &target)?;
    let c = run.cycles;
    println!("\naccelerator cycle breakdown (16x16 array):");
    println!("  control   {:>5}", c.control);
    println!("  input DMA {:>5}", c.input);
    println!(
        "  compute   {:>5}  (each of the four QPMs; the simulated NW QPM took {})",
        c.compute, report.total_cycles
    );
    println!("  combine   {:>5}", c.combine);
    println!("  writeback {:>5}  (off the analysis path)", c.writeback);
    println!(
        "  analysis = {} cycles = {:.3} us @ 250 MHz",
        c.analysis(),
        run.time_us
    );
    Ok(())
}
