//! Whole-model graph engine — the one model runtime: compile a [`Model`]
//! into a [`CompiledGraph`] that runs end-to-end out of one
//! liveness-planned activation arena.
//!
//! Compilation is the paper's §3 post-training-quantization pipeline: it
//! replays the FP32 forward pass over the calibration batch, so each
//! convolution is calibrated on uncontaminated reference activations, and
//! lowers the network into a flat, topologically scheduled op list. The
//! two entry points differ only in how a conv is planned:
//! [`CompiledGraph::compile`] gives every conv the LoWino-topped demotion
//! ladder, [`CompiledGraph::quantize`] pins every conv to one algorithm
//! (the Table 3 rows).
//!
//! * every convolution becomes a [`lowino::ResilientConv`] with its
//!   **pre-transformed filter panels built once here, at compile time**;
//! * a ReLU following a conv, the conv's bias, and a residual block's
//!   skip-add are all folded into the conv's tape epilogue as
//!   [`lowino::ConvPostOps`] — at inference they cost one fused pass over
//!   each output tile while it is still in registers;
//! * every activation tensor gets an inclusive live range and an offset in
//!   **one** arena from the first-fit interval planner ([`crate::plan`]);
//!   windows are handed to the executors as arena-backed
//!   [`BlockedImage`]s, so steady-state execution performs **zero heap
//!   allocations** (asserted by the counting-allocator test
//!   `tests/graph_alloc.rs`).
//!
//! The glue ops that stay in f32 (max-pool, global average pooling, the
//! linear head, the unfused ReLU and residual) fix their arithmetic
//! **order** element for element, and every ReLU is spelled
//! `if v > 0.0 { v } else { 0.0 }` like the fused epilogue — which is what
//! makes the whole graph bitwise identical to a layer-at-a-time forward
//! (the per-layer oracle of `tests/graph_identity.rs`), not merely close.
//!
//! Tracing: compilation emits the `graph/plan_bytes` counter; execution
//! wraps each op in a `graph/layer` span (arg = op index) inside a
//! `graph/execute` span.

use lowino::prelude::*;
use lowino::{AlignedBuf, ConvPostOps, LANES};

use crate::layers::{Conv2dLayer, Layer};
use crate::model::Model;
use crate::plan::{plan_slots, ArenaPlan, SlotReq, PLAN_ALIGN};

/// How to compile the graph.
#[derive(Debug, Clone, Copy)]
pub struct GraphSpec {
    /// Winograd tile size `m` for the LoWino rung of every conv ladder.
    pub m: usize,
    /// Inference batch size (the arena and executors are planned for it).
    pub batch: usize,
    /// Thread count for the engine.
    pub threads: usize,
}

/// How [`CompiledGraph::quantize`] pins the convolutions.
#[derive(Debug, Clone, Copy)]
pub struct QuantizedSpec {
    /// The convolution algorithm for every conv layer.
    pub algorithm: Algorithm,
    /// Use per-tile-position scales (LoWino only).
    pub per_position: bool,
    /// Inference batch size (the arena and executors are planned for it).
    pub batch: usize,
    /// Thread count for the engine.
    pub threads: usize,
}

/// Shape of one activation slot (a blocked image in the arena).
#[derive(Debug, Clone, Copy)]
struct SlotInfo {
    batch: usize,
    channels: usize,
    h: usize,
    w: usize,
}

impl SlotInfo {
    fn len(&self) -> usize {
        BlockedImage::storage_len(self.batch, self.channels, self.h, self.w)
    }
}

/// One scheduled op over arena slots.
enum GraphOp {
    /// Convolution with fused post-ops (bias always; ReLU and residual
    /// skip-add when folded in by the compiler).
    Conv {
        /// Boxed: `ResilientConv` dwarfs every other variant, and one
        /// pointer chase per conv per forward is free next to the conv.
        conv: Box<ResilientConv>,
        /// Per-output-channel bias, zero-padded to `k_blocks · LANES`.
        bias: Vec<f32>,
        relu: bool,
        /// Skip-tensor slot added into the output (fused residual).
        residual: Option<usize>,
        src: usize,
        dst: usize,
    },
    /// Standalone ReLU in place (only when not fused into a conv).
    Relu { slot: usize },
    /// 2×2 stride-2 max pooling.
    MaxPool { src: usize, dst: usize },
    /// Global average pooling to `1×1`.
    Gap { src: usize, dst: usize },
    /// Fully connected head over `(B, C, 1, 1)` activations.
    Linear {
        weights: Vec<f32>,
        bias: Vec<f32>,
        in_c: usize,
        out_c: usize,
        src: usize,
        dst: usize,
    },
    /// Unfused residual fallback: `dst = relu(skip + body)`.
    ResidualAdd { skip: usize, body: usize, dst: usize },
}

impl GraphOp {
    /// Slots this op reads / writes (for liveness).
    fn reads(&self) -> [Option<usize>; 2] {
        match self {
            GraphOp::Conv { src, residual, .. } => [Some(*src), *residual],
            GraphOp::Relu { slot } => [Some(*slot), None],
            GraphOp::MaxPool { src, .. }
            | GraphOp::Gap { src, .. }
            | GraphOp::Linear { src, .. } => [Some(*src), None],
            GraphOp::ResidualAdd { skip, body, .. } => [Some(*skip), Some(*body)],
        }
    }

    fn writes(&self) -> usize {
        match self {
            GraphOp::Conv { dst, .. }
            | GraphOp::MaxPool { dst, .. }
            | GraphOp::Gap { dst, .. }
            | GraphOp::Linear { dst, .. }
            | GraphOp::ResidualAdd { dst, .. } => *dst,
            GraphOp::Relu { slot } => *slot,
        }
    }
}

/// A model compiled for arena execution.
pub struct CompiledGraph {
    engine: Engine,
    ops: Vec<GraphOp>,
    slots: Vec<SlotInfo>,
    plan: ArenaPlan,
    arena: AlignedBuf<f32>,
    classes: usize,
    batch: usize,
    in_dims: (usize, usize, usize),
    input_slot: usize,
    output_slot: usize,
}

/// Intermediate compile state: ops + slot table under construction. Every
/// conv is planned by `plan_conv` from its shape, weights and calibration
/// samples — the only thing the graph's entry points supply differently.
struct GraphBuilder<F> {
    batch: usize,
    plan_conv: F,
    ops: Vec<GraphOp>,
    slots: Vec<SlotInfo>,
}

impl<F> GraphBuilder<F>
where
    F: FnMut(ConvShape, &Tensor4, Vec<BlockedImage>) -> Result<ResilientConv, ConvError>,
{
    fn add_slot(&mut self, channels: usize, h: usize, w: usize) -> usize {
        self.slots.push(SlotInfo {
            batch: self.batch,
            channels,
            h,
            w,
        });
        self.slots.len() - 1
    }

    /// Lower a layer list. `act` carries the FP32 reference activations of
    /// the *calibration* batch forward (quantization error must not
    /// contaminate downstream calibration); `cur` is the arena slot holding
    /// the corresponding inference activation. Returns the output slot.
    fn lower(
        &mut self,
        layers: &mut [Layer],
        act: &mut Tensor4,
        input: usize,
    ) -> Result<usize, ConvError> {
        let mut cur = input;
        let mut i = 0;
        while i < layers.len() {
            match &layers[i] {
                Layer::Conv(_) => {
                    // A directly following ReLU folds into the epilogue.
                    let fuse_relu = matches!(layers.get(i + 1), Some(Layer::ReLU(_)));
                    let dst = {
                        let Layer::Conv(conv) = &layers[i] else { unreachable!() };
                        self.lower_conv(conv, act, cur, fuse_relu)?
                    };
                    cur = dst;
                    *act = layers[i].forward(act);
                    if fuse_relu {
                        i += 1;
                        *act = layers[i].forward(act);
                    }
                }
                Layer::ReLU(_) => {
                    self.ops.push(GraphOp::Relu { slot: cur });
                    *act = layers[i].forward(act);
                }
                Layer::MaxPool(_) => {
                    let s = self.slots[cur];
                    let dst = self.add_slot(s.channels, s.h / 2, s.w / 2);
                    self.ops.push(GraphOp::MaxPool { src: cur, dst });
                    cur = dst;
                    *act = layers[i].forward(act);
                }
                Layer::Gap(_) => {
                    let s = self.slots[cur];
                    let dst = self.add_slot(s.channels, 1, 1);
                    self.ops.push(GraphOp::Gap { src: cur, dst });
                    cur = dst;
                    *act = layers[i].forward(act);
                }
                Layer::Linear(lin) => {
                    let out_c = lin.bias.len();
                    let in_c = lin.weights.len() / out_c;
                    let dst = self.add_slot(out_c, 1, 1);
                    self.ops.push(GraphOp::Linear {
                        weights: lin.weights.clone(),
                        bias: lin.bias.clone(),
                        in_c,
                        out_c,
                        src: cur,
                        dst,
                    });
                    cur = dst;
                    *act = layers[i].forward(act);
                }
                Layer::Residual(_) => {
                    let skip = cur;
                    let mut inner_act = act.clone();
                    let body_out = {
                        let Layer::Residual(block) = &mut layers[i] else { unreachable!() };
                        // Lower the body against the cloned reference
                        // activations; the skip slot doubles as its input.
                        self.lower(&mut block.body, &mut inner_act, skip)?
                    };
                    // The block's skip-add + ReLU folds into the body's
                    // last conv when that conv is still epilogue-free.
                    let fused = matches!(
                        self.ops.last(),
                        Some(GraphOp::Conv { relu: false, residual: None, dst, .. })
                            if *dst == body_out && body_out != skip
                    );
                    if fused {
                        let Some(GraphOp::Conv { relu, residual, .. }) = self.ops.last_mut()
                        else {
                            unreachable!()
                        };
                        *relu = true;
                        *residual = Some(skip);
                        cur = body_out;
                    } else {
                        let s = self.slots[skip];
                        let dst = self.add_slot(s.channels, s.h, s.w);
                        self.ops.push(GraphOp::ResidualAdd {
                            skip,
                            body: body_out,
                            dst,
                        });
                        cur = dst;
                    }
                    *act = layers[i].forward(act);
                }
            }
            i += 1;
        }
        Ok(cur)
    }

    /// Plan one convolution on the FP32 reference activations — which
    /// packs the pre-transformed filter panels right here, once.
    fn lower_conv(
        &mut self,
        conv: &Conv2dLayer,
        act: &Tensor4,
        src: usize,
        relu: bool,
    ) -> Result<usize, ConvError> {
        let (_, c, h, w) = act.dims();
        debug_assert_eq!(c, conv.in_channels());
        let shape = ConvShape {
            batch: self.batch,
            in_c: conv.in_channels(),
            out_c: conv.out_channels(),
            h,
            w,
            r: conv.filter(),
            stride: 1,
            pad: (conv.filter() - 1) / 2,
        };
        let samples = rebatch_for_calibration(act, self.batch);
        let resilient = (self.plan_conv)(shape, &conv.weights, samples)?;
        let k_blocks = conv.out_channels().div_ceil(LANES);
        let mut bias = vec![0.0f32; k_blocks * LANES];
        bias[..conv.out_channels()].copy_from_slice(&conv.bias);
        let dst = self.add_slot(conv.out_channels(), h, w);
        self.ops.push(GraphOp::Conv {
            conv: Box::new(resilient),
            bias,
            relu,
            residual: None,
            src,
            dst,
        });
        Ok(dst)
    }

    /// Inclusive live ranges for every slot: defined at its writer,
    /// dead after its last reader.
    fn liveness(&self, input: usize, output: usize) -> Vec<SlotReq> {
        let n_ops = self.ops.len().max(1);
        let mut first = vec![usize::MAX; self.slots.len()];
        let mut last = vec![0usize; self.slots.len()];
        // The input is written before op 0 and the output read after the
        // final op; both pins are inside the [0, n_ops) range.
        first[input] = 0;
        last[output] = n_ops - 1;
        for (i, op) in self.ops.iter().enumerate() {
            for r in op.reads().into_iter().flatten() {
                debug_assert_ne!(first[r], usize::MAX, "read of undefined slot {r}");
                last[r] = last[r].max(i);
            }
            let w = op.writes();
            first[w] = first[w].min(i);
            last[w] = last[w].max(i);
        }
        self.slots
            .iter()
            .zip(first.iter().zip(&last))
            .map(|(s, (&f, &l))| SlotReq {
                len: s.len(),
                first: f,
                last: l.max(f),
            })
            .collect()
    }
}

impl CompiledGraph {
    /// Compile `model` for arena execution, calibrating every conv on
    /// `calib_x` (a batch of NCHW images) and giving it the demotion
    /// ladder topped by LoWino `F(spec.m, 3)`.
    pub fn compile(
        model: &mut Model,
        calib_x: &Tensor4,
        spec: &GraphSpec,
    ) -> Result<Self, ConvError> {
        Self::compile_with_engine(Engine::new(spec.threads), model, calib_x, spec)
    }

    /// [`Self::compile`] onto a caller-built [`Engine`] — a caller
    /// configures its engine first (a pinned tier via [`Engine::with_tier`],
    /// another wisdom file via [`Engine::context_mut`]) and hands it over.
    /// The graph takes ownership; `spec.threads` is ignored (the engine
    /// already owns its pool).
    pub fn compile_with_engine(
        engine: Engine,
        model: &mut Model,
        calib_x: &Tensor4,
        spec: &GraphSpec,
    ) -> Result<Self, ConvError> {
        let m = spec.m;
        Self::build(engine, model, calib_x, spec.batch, |shape, weights, samples| {
            ResilientConv::new(shape, m, weights, samples)
        })
    }

    /// Post-training-quantize `model` (the Table 3 pipeline): every conv
    /// is pinned to `qspec.algorithm`, calibrated on `calib_x` — per tile
    /// position when `qspec.per_position` is set — and never demotes. A
    /// conv the algorithm cannot plan fails the whole model with that
    /// conv's error.
    pub fn quantize(
        model: &mut Model,
        calib_x: &Tensor4,
        qspec: &QuantizedSpec,
    ) -> Result<Self, ConvError> {
        let QuantizedSpec { algorithm, per_position, batch, threads } = *qspec;
        Self::build(Engine::new(threads), model, calib_x, batch, |shape, weights, samples| {
            ResilientConv::pinned(shape, algorithm, per_position, weights, samples)
        })
    }

    /// Lower, seed and arena-plan `model` for `batch`, planning each conv
    /// with `plan_conv`.
    fn build<F>(
        engine: Engine,
        model: &mut Model,
        calib_x: &Tensor4,
        batch: usize,
        plan_conv: F,
    ) -> Result<Self, ConvError>
    where
        F: FnMut(ConvShape, &Tensor4, Vec<BlockedImage>) -> Result<ResilientConv, ConvError>,
    {
        let _sp = lowino_trace::span("graph/compile");
        let (_, c, h, w) = calib_x.dims();
        let mut builder = GraphBuilder {
            batch,
            plan_conv,
            ops: Vec::new(),
            slots: Vec::new(),
        };
        let input_slot = builder.add_slot(c, h, w);
        let mut act = calib_x.clone();
        let output_slot = builder.lower(&mut model.layers, &mut act, input_slot)?;
        // Seed every conv's GEMM blocking at compile time (exact wisdom →
        // shape class → cost model) — the graph's first forward never
        // stalls on a measurement sweep.
        for op in &mut builder.ops {
            if let GraphOp::Conv { conv, .. } = op {
                conv.seed_blocking(engine.context());
            }
        }
        let reqs = builder.liveness(input_slot, output_slot);
        let plan = plan_slots(&reqs, PLAN_ALIGN);
        lowino_trace::counter("graph/plan_bytes", plan.bytes() as u64);
        let arena = AlignedBuf::zeroed(plan.total_len.max(PLAN_ALIGN));
        Ok(Self {
            engine,
            ops: builder.ops,
            slots: builder.slots,
            plan,
            arena,
            classes: model.classes(),
            batch,
            in_dims: (c, h, w),
            input_slot,
            output_slot,
        })
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The planned inference batch size.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Input image dims `(C, H, W)` the graph was compiled for.
    pub fn input_dims(&self) -> (usize, usize, usize) {
        self.in_dims
    }

    /// Borrow the engine (tier/wisdom inspection).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The **currently active** algorithm of every conv ladder, in op
    /// order — after demotions this reflects the rung actually executing,
    /// which is what a serving `/stats` endpoint reports per shard.
    pub fn conv_algorithms(&self) -> Vec<Algorithm> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                GraphOp::Conv { conv, .. } => Some(conv.algorithm()),
                _ => None,
            })
            .collect()
    }

    /// Arena size in bytes (what `graph/plan_bytes` reported at compile).
    pub fn plan_bytes(&self) -> usize {
        self.plan.bytes()
    }

    /// Did the `graph/plan` fault degrade the layout to no-reuse?
    pub fn plan_degraded(&self) -> bool {
        self.plan.degraded
    }

    /// Total demotions taken across every conv ladder in the graph.
    pub fn demotion_count(&self) -> usize {
        self.ops
            .iter()
            .filter_map(|op| match op {
                GraphOp::Conv { conv, .. } => Some(conv.demotions().len()),
                _ => None,
            })
            .sum()
    }

    /// Run one planned batch: `input` is `(batch, C, H, W)` NCHW, `logits`
    /// a caller-allocated `(batch, classes, 1, 1)` tensor. Steady state
    /// (after one warm-up call has grown the executors' scratch arenas)
    /// this performs zero heap allocations.
    pub fn execute(&mut self, input: &Tensor4, logits: &mut Tensor4) -> Result<(), ConvError> {
        let _sp = lowino_trace::span("graph/execute");
        let (b, c, h, w) = input.dims();
        assert_eq!(b, self.batch, "input batch");
        assert_eq!((c, h, w), self.in_dims, "input dims");
        assert_eq!(
            logits.dims(),
            (self.batch, self.classes, 1, 1),
            "logits dims"
        );
        let (input_slot, output_slot) = (self.input_slot, self.output_slot);
        let (batch, classes) = (self.batch, self.classes);
        let Self {
            engine,
            ops,
            slots,
            plan,
            arena,
            ..
        } = self;
        let base = arena.as_mut_ptr();
        // SAFETY (for every `slot_image` below): the planner guarantees
        // that simultaneously-live slots occupy disjoint arena windows and
        // the ops only materialise images for slots live at that op, so no
        // two coexisting images alias; offsets are PLAN_ALIGN-aligned.
        unsafe {
            let mut in_img = slot_image(base, plan, slots, input_slot);
            in_img.fill_from_nchw(input);
        }
        for (idx, op) in ops.iter_mut().enumerate() {
            let _lsp = lowino_trace::span_arg("graph/layer", idx as u64);
            match op {
                GraphOp::Conv {
                    conv,
                    bias,
                    relu,
                    residual,
                    src,
                    dst,
                } => {
                    let (src_img, mut dst_img, res_img) = unsafe {
                        (
                            slot_image(base, plan, slots, *src),
                            slot_image(base, plan, slots, *dst),
                            residual.map(|r| slot_image(base, plan, slots, r)),
                        )
                    };
                    let post = ConvPostOps {
                        bias: Some(&bias[..]),
                        residual: res_img.as_ref(),
                        relu: *relu,
                    };
                    conv.execute_post(&src_img, &mut dst_img, &post, engine.context_mut())?;
                }
                GraphOp::Relu { slot } => {
                    let mut img = unsafe { slot_image(base, plan, slots, *slot) };
                    for v in img.data_mut() {
                        *v = if *v > 0.0 { *v } else { 0.0 };
                    }
                }
                GraphOp::MaxPool { src, dst } => unsafe {
                    let s = slot_image(base, plan, slots, *src);
                    let mut d = slot_image(base, plan, slots, *dst);
                    maxpool2_blocked(&s, &mut d);
                },
                GraphOp::Gap { src, dst } => unsafe {
                    let s = slot_image(base, plan, slots, *src);
                    let mut d = slot_image(base, plan, slots, *dst);
                    gap_blocked(&s, &mut d);
                },
                GraphOp::Linear {
                    weights,
                    bias,
                    in_c,
                    out_c,
                    src,
                    dst,
                } => unsafe {
                    let s = slot_image(base, plan, slots, *src);
                    let mut d = slot_image(base, plan, slots, *dst);
                    linear_blocked(&s, &mut d, weights, bias, *in_c, *out_c);
                },
                GraphOp::ResidualAdd { skip, body, dst } => unsafe {
                    let sk = slot_image(base, plan, slots, *skip);
                    let bd = slot_image(base, plan, slots, *body);
                    let mut d = slot_image(base, plan, slots, *dst);
                    residual_add_blocked(&sk, &bd, &mut d);
                },
            }
        }
        let out_img = unsafe { slot_image(base, plan, slots, output_slot) };
        for bi in 0..batch {
            for k in 0..classes {
                *logits.at_mut(bi, k, 0, 0) = out_img.lanes(bi, k / LANES, 0, 0)[k % LANES];
            }
        }
        Ok(())
    }

    /// Convenience: allocate and return the logits for one planned batch.
    pub fn logits(&mut self, x: &Tensor4) -> Tensor4 {
        let mut out = Tensor4::zeros(self.batch, self.classes, 1, 1);
        self.execute(x, &mut out).expect("graph execute");
        out
    }

    /// Predict classes for any number of images (processed in
    /// planning-sized chunks, the tail zero-padded).
    pub fn predict(&mut self, x: &Tensor4) -> Vec<usize> {
        let (n, c, h, w) = x.dims();
        assert_eq!((c, h, w), self.in_dims, "input dims");
        let mut preds = Vec::with_capacity(n);
        let mut chunk = Tensor4::zeros(self.batch, c, h, w);
        let mut logits = Tensor4::zeros(self.batch, self.classes, 1, 1);
        let mut i = 0;
        while i < n {
            let take = (n - i).min(self.batch);
            chunk.data_mut().fill(0.0);
            for b in 0..take {
                for cc in 0..c {
                    for y in 0..h {
                        for xx in 0..w {
                            *chunk.at_mut(b, cc, y, xx) = x.at(i + b, cc, y, xx);
                        }
                    }
                }
            }
            self.execute(&chunk, &mut logits).expect("graph execute");
            for b in 0..take {
                let best = (0..self.classes)
                    .max_by(|&a, &b2| {
                        logits.at(b, a, 0, 0).total_cmp(&logits.at(b, b2, 0, 0))
                    })
                    .unwrap_or(0);
                preds.push(best);
            }
            i += take;
        }
        preds
    }

    /// Top-1 accuracy on a labelled set.
    pub fn evaluate_top1(&mut self, x: &Tensor4, y: &[usize]) -> f64 {
        let preds = self.predict(x);
        preds.iter().zip(y).filter(|(p, t)| p == t).count() as f64 / y.len() as f64
    }
}

/// Materialise the arena window of one slot as a [`BlockedImage`]
/// (allocation-free).
///
/// # Safety
///
/// Caller must ensure no other live image aliases this slot's window —
/// upheld op-by-op by the planner's disjointness guarantee.
unsafe fn slot_image(
    base: *mut f32,
    plan: &ArenaPlan,
    slots: &[SlotInfo],
    idx: usize,
) -> BlockedImage {
    let s = &slots[idx];
    unsafe {
        BlockedImage::from_arena_ptr(base.add(plan.offsets[idx]), s.batch, s.channels, s.h, s.w)
    }
}

/// 2×2 stride-2 max pool over blocked images. The per-element max chain is
/// `((a ⊔ b) ⊔ c) ⊔ d` in row-major window order (bitwise contract).
fn maxpool2_blocked(src: &BlockedImage, dst: &mut BlockedImage) {
    let (b_n, _, h, w) = src.dims();
    let (db, _, oh, ow) = dst.dims();
    debug_assert_eq!((db, oh, ow), (b_n, h / 2, w / 2));
    for b in 0..b_n {
        for cb in 0..src.c_blocks() {
            for y in 0..oh {
                for x in 0..ow {
                    let a = src.lanes(b, cb, 2 * y, 2 * x);
                    let bq = src.lanes(b, cb, 2 * y, 2 * x + 1);
                    let cq = src.lanes(b, cb, 2 * y + 1, 2 * x);
                    let dq = src.lanes(b, cb, 2 * y + 1, 2 * x + 1);
                    let out = dst.lanes_mut(b, cb, y, x);
                    for l in 0..LANES {
                        out[l] = a[l].max(bq[l]).max(cq[l]).max(dq[l]);
                    }
                }
            }
        }
    }
}

/// Global average pooling over blocked images (y-major accumulation, then
/// one multiply by `1/(h·w)` — the order is part of the bitwise contract).
fn gap_blocked(src: &BlockedImage, dst: &mut BlockedImage) {
    let (b_n, _, h, w) = src.dims();
    let inv = 1.0 / (h * w) as f32;
    for b in 0..b_n {
        for cb in 0..src.c_blocks() {
            let out = dst.lanes_mut(b, cb, 0, 0);
            out.fill(0.0);
            for y in 0..h {
                for x in 0..w {
                    let lanes = src.lanes(b, cb, y, x);
                    for l in 0..LANES {
                        out[l] += lanes[l];
                    }
                }
            }
            for v in out.iter_mut() {
                *v *= inv;
            }
        }
    }
}

/// Fully connected head over `(B, C, 1, 1)` blocked activations. Writes
/// every lane of the destination (padding lanes zeroed: the slot may be a
/// reused window holding stale bits, and downstream consumers assume
/// padding reads as zero).
fn linear_blocked(
    src: &BlockedImage,
    dst: &mut BlockedImage,
    weights: &[f32],
    bias: &[f32],
    in_c: usize,
    out_c: usize,
) {
    let (b_n, c_n, _, _) = src.dims();
    debug_assert_eq!(c_n, in_c);
    for b in 0..b_n {
        for kb in 0..dst.c_blocks() {
            let out = dst.lanes_mut(b, kb, 0, 0);
            for (l, o) in out.iter_mut().enumerate() {
                let k = kb * LANES + l;
                *o = if k < out_c {
                    let mut s = bias[k];
                    for c in 0..in_c {
                        s += weights[k * in_c + c] * src.lanes(b, c / LANES, 0, 0)[c % LANES];
                    }
                    s
                } else {
                    0.0
                };
            }
        }
    }
}

/// Unfused residual: `dst = relu(skip + body)` element-wise (operand order
/// and ReLU spelling are part of the bitwise contract).
fn residual_add_blocked(skip: &BlockedImage, body: &BlockedImage, dst: &mut BlockedImage) {
    debug_assert_eq!(skip.dims(), dst.dims());
    debug_assert_eq!(body.dims(), dst.dims());
    for ((o, &s), &bv) in dst
        .data_mut()
        .iter_mut()
        .zip(skip.data())
        .zip(body.data())
    {
        let v = s + bv;
        *o = if v > 0.0 { v } else { 0.0 };
    }
}

/// Split a calibration activation batch into `BlockedImage`s whose batch
/// dimension matches the planned shape (the calibrators accept any number
/// of samples, but each sample's dims must equal the shape's).
fn rebatch_for_calibration(act: &Tensor4, batch: usize) -> Vec<BlockedImage> {
    let (n, c, h, w) = act.dims();
    let mut out = Vec::new();
    let mut i = 0;
    while i < n {
        let take = (n - i).min(batch);
        let mut chunk = Tensor4::zeros(batch, c, h, w);
        for b in 0..take {
            for cc in 0..c {
                for y in 0..h {
                    for xx in 0..w {
                        *chunk.at_mut(b, cc, y, xx) = act.at(i + b, cc, y, xx);
                    }
                }
            }
        }
        out.push(BlockedImage::from_nchw(&chunk));
        i += take;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Dataset, SyntheticSpec};
    use crate::model::{mini_resnet, mini_vgg};
    use crate::train::{evaluate_top1, train, TrainConfig};
    use lowino_testkit::Rng;

    /// Give every conv/linear a non-trivial bias so the fused epilogue
    /// path is exercised (fresh layers initialise biases to zero).
    fn inject_biases(layers: &mut [Layer], rng: &mut Rng) {
        for l in layers {
            match l {
                Layer::Conv(c) => {
                    for b in &mut c.bias {
                        *b = rng.f32_range(-0.3, 0.3);
                    }
                }
                Layer::Linear(lin) => {
                    for b in &mut lin.bias {
                        *b = rng.f32_range(-0.3, 0.3);
                    }
                }
                Layer::Residual(r) => inject_biases(&mut r.body, rng),
                _ => {}
            }
        }
    }

    fn calib(batch: usize, c: usize, s: usize) -> Tensor4 {
        Tensor4::from_fn(batch, c, s, s, |b, cc, y, x| {
            ((b * 37 + cc * 11 + y * 5 + x * 3) as f32 * 0.41).sin()
        })
    }

    #[test]
    fn compiles_and_classifies_both_models() {
        let mut rng = Rng::seed_from_u64(41);
        for resnet in [false, true] {
            let mut model = if resnet {
                mini_resnet(3, 8, 3, 21)
            } else {
                mini_vgg(3, 8, 3, 21)
            };
            inject_biases(&mut model.layers, &mut rng);
            let x = calib(4, 3, 8);
            let spec = GraphSpec { m: 2, batch: 2, threads: 1 };
            let mut g = CompiledGraph::compile(&mut model, &x, &spec).unwrap();
            assert_eq!(g.classes(), 3);
            assert_eq!(g.batch(), 2);
            assert_eq!(g.demotion_count(), 0);
            assert!(!g.plan_degraded());
            let preds = g.predict(&x);
            assert_eq!(preds.len(), 4);
            assert!(preds.iter().all(|&p| p < 3));
            // Deterministic across runs (the arena is fully re-written).
            assert_eq!(preds, g.predict(&x));
        }
    }

    #[test]
    fn arena_is_smaller_than_disjoint_layout() {
        // Liveness planning must actually reuse windows: the arena of a
        // deep model is strictly smaller than the sum of all tensors.
        let mut model = mini_vgg(3, 8, 3, 5);
        let x = calib(2, 3, 8);
        let spec = GraphSpec { m: 2, batch: 2, threads: 1 };
        let g = CompiledGraph::compile(&mut model, &x, &spec).unwrap();
        let disjoint: usize = g
            .slots
            .iter()
            .map(|s| s.len() * core::mem::size_of::<f32>())
            .sum();
        assert!(
            g.plan_bytes() < disjoint,
            "plan {} >= disjoint {}",
            g.plan_bytes(),
            disjoint
        );
    }

    #[test]
    fn residual_skip_add_is_fused_into_the_body_conv() {
        let mut model = mini_resnet(3, 8, 3, 9);
        let x = calib(2, 3, 8);
        let spec = GraphSpec { m: 2, batch: 2, threads: 1 };
        let g = CompiledGraph::compile(&mut model, &x, &spec).unwrap();
        let fused = g
            .ops
            .iter()
            .filter(|op| matches!(op, GraphOp::Conv { residual: Some(_), relu: true, .. }))
            .count();
        assert_eq!(fused, 3, "every residual block fuses into its last conv");
        assert!(
            !g.ops.iter().any(|op| matches!(op, GraphOp::ResidualAdd { .. })),
            "no unfused residual op should remain"
        );
        assert!(
            !g.ops.iter().any(|op| matches!(op, GraphOp::Relu { .. })),
            "every ReLU folds into a conv epilogue in MiniResNet"
        );
    }

    fn trained_setup(resnet: bool) -> (Model, Dataset) {
        let data = Dataset::generate(&SyntheticSpec {
            classes: 3,
            channels: 3,
            size: 8,
            train_per_class: 30,
            test_per_class: 10,
            noise: 0.1,
            seed: 13,
        });
        let mut model = if resnet {
            mini_resnet(3, 8, 3, 77)
        } else {
            mini_vgg(3, 8, 3, 77)
        };
        train(
            &mut model,
            &data,
            &TrainConfig {
                epochs: 6,
                batch_size: 10,
                lr: 0.05,
                momentum: 0.9,
                seed: 5,
            },
        );
        (model, data)
    }

    #[test]
    fn directf32_passthrough_matches_fp32_model() {
        let (mut model, data) = trained_setup(false);
        let fp32_acc = evaluate_top1(&mut model, data.test_x(), data.test_y());
        let calib = data.gather_batch(&(0..20).collect::<Vec<_>>()).0;
        let mut q = CompiledGraph::quantize(
            &mut model,
            &calib,
            &QuantizedSpec {
                algorithm: Algorithm::DirectF32,
                per_position: false,
                batch: 8,
                threads: 1,
            },
        )
        .unwrap();
        let q_acc = q.evaluate_top1(data.test_x(), data.test_y());
        assert!(
            (q_acc - fp32_acc).abs() < 1e-9,
            "fp32 {fp32_acc} vs passthrough {q_acc}"
        );
    }

    #[test]
    fn lowino_f2_preserves_accuracy() {
        let (mut model, data) = trained_setup(false);
        let fp32_acc = evaluate_top1(&mut model, data.test_x(), data.test_y());
        let calib = data.gather_batch(&(0..20).collect::<Vec<_>>()).0;
        let mut q = CompiledGraph::quantize(
            &mut model,
            &calib,
            &QuantizedSpec {
                algorithm: Algorithm::LoWino { m: 2 },
                per_position: false,
                batch: 8,
                threads: 1,
            },
        )
        .unwrap();
        let q_acc = q.evaluate_top1(data.test_x(), data.test_y());
        assert!(
            q_acc >= fp32_acc - 0.15,
            "fp32 {fp32_acc} vs lowino {q_acc}"
        );
    }

    #[test]
    fn residual_model_quantizes() {
        let (mut model, data) = trained_setup(true);
        let calib = data.gather_batch(&(0..12).collect::<Vec<_>>()).0;
        let mut q = CompiledGraph::quantize(
            &mut model,
            &calib,
            &QuantizedSpec {
                algorithm: Algorithm::LoWino { m: 2 },
                per_position: false,
                batch: 6,
                threads: 1,
            },
        )
        .unwrap();
        let acc = q.evaluate_top1(data.test_x(), data.test_y());
        assert!(acc > 1.0 / 3.0, "acc {acc} at chance level");
        assert_eq!(q.classes(), 3);
    }

    #[test]
    fn predict_handles_ragged_tail() {
        let (mut model, data) = trained_setup(false);
        let calib = data.gather_batch(&(0..8).collect::<Vec<_>>()).0;
        let mut q = CompiledGraph::quantize(
            &mut model,
            &calib,
            &QuantizedSpec {
                algorithm: Algorithm::DirectInt8,
                per_position: false,
                batch: 7, // deliberately not dividing the test-set size
                threads: 1,
            },
        )
        .unwrap();
        let preds = q.predict(data.test_x());
        assert_eq!(preds.len(), data.test_y().len());
    }
}
