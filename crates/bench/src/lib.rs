//! # lowino-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§5). See DESIGN.md for the experiment index.
//!
//! Binaries (all accept `--help`):
//!
//! * `fig8_layers` — Fig. 8: normalized execution time of INT8 direct,
//!   oneDNN-style Winograd `F(2,3)`, LoWino `F(2,3)`/`F(4,3)` over the
//!   Table 2 layers, plus the §5.1 FP32 comparison;
//! * `fig10_breakdown` — Fig. 10: transformation-vs-multiplication time
//!   split for VGG16_b / ResNet-50_c / YOLOv3_c / U-Net_b;
//! * `fig9_distribution` — Fig. 9: INT8-value distributions of the
//!   transformed input under down-scaling vs LoWino;
//! * `table3_accuracy` — Table 3: FP32 vs INT8 top-1 accuracy of
//!   MiniVGG/MiniResNet under every quantization scheme;
//! * `tune_gemm` — §4.3.4: blocking auto-tuning and the wisdom file.
//!
//! Criterion benches: `kernels` (vpdpbusd tiers, transforms), `layers`
//! (per-layer wall time), `ablations` (tile size, blocking, threads).

pub mod layers;
pub mod report;
pub mod runner;

pub use layers::{paper_layers, LayerSpec};
pub use report::Table;
pub use runner::{build_executor, label, run_timed, synth_input, synth_weights};
