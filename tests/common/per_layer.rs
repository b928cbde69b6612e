//! The per-layer test oracle for the graph engine: a stage-per-layer
//! interpreter that quantizes a model the way paper §3 describes and runs
//! it one layer at a time, each conv through its own planned
//! [`lowino::Layer`], with the glue (bias, ReLU, max-pool, GAP, linear,
//! residual) in plain NCHW f32.
//!
//! The calibration walk is the graph compiler's: each conv is calibrated
//! on the FP32 reference activations at its input, re-batched to the
//! planned batch. The glue's arithmetic order is the graph's contract, and
//! the ReLUs are spelled `if v > 0.0 { v } else { 0.0 }` like every ReLU in
//! the graph — so [`lowino_nn::CompiledGraph`] must reproduce this
//! oracle's logits bit for bit (`graph_identity.rs`). The glue stays lean
//! on purpose: it is also the timing baseline of `graph_overhead.rs`.

use lowino::prelude::*;
use lowino_nn::{Conv2dLayer, Layer, Model, QuantizedSpec};

enum Stage {
    Conv { layer: lowino::Layer, bias: Vec<f32> },
    ReLU,
    MaxPool,
    Gap,
    Linear { weights: Vec<f32>, bias: Vec<f32>, in_c: usize, out_c: usize },
    Residual(Vec<Stage>),
}

/// A model quantized layer by layer.
pub struct PerLayer {
    stages: Vec<Stage>,
    engine: Engine,
    batch: usize,
}

impl PerLayer {
    /// Quantize `model` with every conv pinned to `qspec.algorithm`,
    /// calibrating on `calib_x` (NCHW).
    pub fn quantize(
        model: &mut Model,
        calib_x: &Tensor4,
        qspec: &QuantizedSpec,
    ) -> Result<Self, ConvError> {
        let engine = Engine::new(qspec.threads);
        let mut act = calib_x.clone();
        let stages = convert(&mut model.layers, &mut act, qspec, &engine)?;
        Ok(Self { stages, engine, batch: qspec.batch })
    }

    /// Logits `(batch, classes, 1, 1)` of exactly one planned batch.
    pub fn logits(&mut self, x: &Tensor4) -> Tensor4 {
        assert_eq!(x.dims().0, self.batch, "logits() takes exactly the planned batch");
        forward(&mut self.stages, x, &mut self.engine)
    }
}

fn convert(
    layers: &mut [Layer],
    act: &mut Tensor4,
    qspec: &QuantizedSpec,
    engine: &Engine,
) -> Result<Vec<Stage>, ConvError> {
    let mut stages = Vec::with_capacity(layers.len());
    for layer in layers.iter_mut() {
        stages.push(match layer {
            Layer::Conv(conv) => convert_conv(conv, act, qspec, engine)?,
            Layer::Residual(block) => {
                let mut inner_act = act.clone();
                Stage::Residual(convert(&mut block.body, &mut inner_act, qspec, engine)?)
            }
            Layer::ReLU(_) => Stage::ReLU,
            Layer::MaxPool(_) => Stage::MaxPool,
            Layer::Gap(_) => Stage::Gap,
            Layer::Linear(lin) => Stage::Linear {
                weights: lin.weights.clone(),
                bias: lin.bias.clone(),
                in_c: lin.weights.len() / lin.bias.len(),
                out_c: lin.bias.len(),
            },
        });
        // FP32 reference activations flow forward: quantization error must
        // not contaminate downstream calibration.
        *act = layer.forward(act);
    }
    Ok(stages)
}

fn convert_conv(
    conv: &Conv2dLayer,
    act: &Tensor4,
    qspec: &QuantizedSpec,
    engine: &Engine,
) -> Result<Stage, ConvError> {
    let (_, _, h, w) = act.dims();
    let spec = ConvShape {
        batch: qspec.batch,
        in_c: conv.in_channels(),
        out_c: conv.out_channels(),
        h,
        w,
        r: conv.filter(),
        stride: 1,
        pad: (conv.filter() - 1) / 2,
    };
    let layer = LayerBuilder::new(spec, &conv.weights)
        .algorithm(AlgoChoice::Fixed(qspec.algorithm))
        .calibration_samples(rebatch(act, qspec.batch))
        .per_position_scales(qspec.per_position)
        .build(engine)?;
    Ok(Stage::Conv { layer, bias: conv.bias.clone() })
}

/// `act` split into zero-padded chunks of `batch` images.
fn rebatch(act: &Tensor4, batch: usize) -> Vec<BlockedImage> {
    let (n, c, h, w) = act.dims();
    (0..n)
        .step_by(batch)
        .map(|i| {
            let chunk = Tensor4::from_fn(batch, c, h, w, |b, cc, y, x| {
                if i + b < n { act.at(i + b, cc, y, x) } else { 0.0 }
            });
            BlockedImage::from_nchw(&chunk)
        })
        .collect()
}

fn relu(v: f32) -> f32 {
    if v > 0.0 { v } else { 0.0 }
}

fn forward(stages: &mut [Stage], x: &Tensor4, engine: &mut Engine) -> Tensor4 {
    let mut h = x.clone();
    for stage in stages.iter_mut() {
        h = match stage {
            Stage::Conv { layer, bias } => {
                let img = BlockedImage::from_nchw(&h);
                let mut out = engine.alloc_output(layer.spec());
                engine.execute(layer, &img, &mut out).expect("per-layer conv");
                let mut t = out.to_nchw();
                let (b_n, k_n, hh, ww) = t.dims();
                for b in 0..b_n {
                    for k in 0..k_n {
                        for y in 0..hh {
                            for xx in 0..ww {
                                *t.at_mut(b, k, y, xx) += bias[k];
                            }
                        }
                    }
                }
                t
            }
            Stage::ReLU => {
                let mut t = h.clone();
                for v in t.data_mut() {
                    *v = relu(*v);
                }
                t
            }
            Stage::MaxPool => maxpool2(&h),
            Stage::Gap => gap(&h),
            Stage::Linear { weights, bias, in_c, out_c } => {
                let (b_n, _, _, _) = h.dims();
                let mut out = Tensor4::zeros(b_n, *out_c, 1, 1);
                for b in 0..b_n {
                    for k in 0..*out_c {
                        let mut s = bias[k];
                        for c in 0..*in_c {
                            s += weights[k * *in_c + c] * h.at(b, c, 0, 0);
                        }
                        *out.at_mut(b, k, 0, 0) = s;
                    }
                }
                out
            }
            Stage::Residual(inner) => {
                let body = forward(inner, &h, engine);
                let mut t = h.clone();
                for (o, &b) in t.data_mut().iter_mut().zip(body.data()) {
                    *o = relu(*o + b);
                }
                t
            }
        };
    }
    h
}

fn maxpool2(x: &Tensor4) -> Tensor4 {
    let (b_n, c_n, h, w) = x.dims();
    let mut out = Tensor4::zeros(b_n, c_n, h / 2, w / 2);
    for b in 0..b_n {
        for c in 0..c_n {
            for y in 0..h / 2 {
                for xx in 0..w / 2 {
                    *out.at_mut(b, c, y, xx) = x
                        .at(b, c, 2 * y, 2 * xx)
                        .max(x.at(b, c, 2 * y, 2 * xx + 1))
                        .max(x.at(b, c, 2 * y + 1, 2 * xx))
                        .max(x.at(b, c, 2 * y + 1, 2 * xx + 1));
                }
            }
        }
    }
    out
}

fn gap(x: &Tensor4) -> Tensor4 {
    let (b_n, c_n, h, w) = x.dims();
    let inv = 1.0 / (h * w) as f32;
    let mut out = Tensor4::zeros(b_n, c_n, 1, 1);
    for b in 0..b_n {
        for c in 0..c_n {
            let mut s = 0f32;
            for y in 0..h {
                for xx in 0..w {
                    s += x.at(b, c, y, xx);
                }
            }
            *out.at_mut(b, c, 0, 0) = s * inv;
        }
    }
    out
}
