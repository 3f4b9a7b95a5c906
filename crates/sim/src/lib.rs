//! # spark-sim — cycle-accurate systolic-array simulator and accelerator
//! models
//!
//! This crate reproduces Section IV and the performance/energy/area
//! evaluation of the SPARK paper (Figs 11, 12, 14, 15; Tables VI, VII).
//!
//! ## What is simulated vs modelled
//!
//! - **SPARK's mixed-precision array is simulated cycle by cycle**
//!   ([`systolic`]): every PE follows the Fig 9(c) protocol — INT4 MACs at
//!   full speed, 2 cycles when one operand is a long code, 4 when both are,
//!   with stalls propagating through the activation-forwarding and
//!   partial-sum dependencies. The critical-path recurrence the simulator
//!   evaluates is exactly the timing a lockstep systolic pipeline with
//!   variable per-PE service times exhibits.
//! - **Baseline accelerators are modelled** ([`arch`]): published PE counts
//!   and data widths (Table VII) with utilization factors calibrated to each
//!   design's reported relative throughput. The paper itself takes baseline
//!   numbers "as reported in their paper" — we do the analogous thing.
//! - **Energy** ([`energy`]) uses documented 28 nm per-operation constants;
//!   **area** ([`area`]) uses the paper's own component areas from
//!   Tables VI/VII.
//!
//! ## Example
//!
//! ```
//! use spark_nn::ModelWorkload;
//! use spark_sim::{Accelerator, AcceleratorKind, PrecisionProfile, SimConfig};
//!
//! let spark = Accelerator::new(AcceleratorKind::Spark);
//! let eyeriss = Accelerator::new(AcceleratorKind::Eyeriss);
//! let workload = ModelWorkload::resnet50();
//! let prof = PrecisionProfile::from_short_fractions(0.5, 0.5);
//! let cfg = SimConfig::default();
//! let a = spark.run(&workload, &prof, &cfg);
//! let b = eyeriss.run(&workload, &prof, &cfg);
//! assert!(a.total_cycles < b.total_cycles); // SPARK is faster
//! assert!(a.energy.total() < b.energy.total()); // and more efficient
//! ```

#![warn(missing_docs)]

pub mod area;
pub mod arch;
pub mod bandwidth;
pub mod buffer;
pub mod cost;
pub mod energy;
pub mod fault;
pub mod functional;
pub mod isa;
pub mod pages;
pub mod pe;
pub mod perf;
pub mod systolic;

pub use arch::{Accelerator, AcceleratorKind};
pub use cost::{mac_cycles, OperandKind, TileCosts};
pub use bandwidth::{analyze as analyze_bandwidth, BandwidthReport};
pub use buffer::{plan_workload, BufferConfig, BufferReport, TilePlan};
pub use fault::{MacFaultHook, NoFaults};
pub use functional::{run_layer, FunctionalArray};
pub use isa::{Instruction, Program};
pub use pages::{scaling_sweep, simulate_pages, PageReport};
pub use pe::{MacSchedule, Mpe, SignMag};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use perf::{LayerReport, PrecisionProfile, SimConfig, WorkloadReport};
pub use systolic::{StallBreakdown, SystolicSim, TileResult};
