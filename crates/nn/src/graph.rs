//! Whole-model graph engine: compile a [`Model`] into a [`CompiledGraph`]
//! that runs end-to-end out of one liveness-planned activation arena.
//!
//! [`CompiledGraph::compile`] walks the FP32 model exactly like the
//! per-layer PTQ pipeline ([`crate::quantized`]) — replaying the FP32
//! forward pass over the calibration batch so each convolution is
//! calibrated on uncontaminated reference activations — but lowers the
//! network into a flat, topologically scheduled op list instead of a
//! stage-per-layer interpreter:
//!
//! * every convolution becomes a [`lowino::ResilientConv`] (the
//!   LoWino-topped demotion ladder) with its **pre-transformed filter
//!   panels built once here, at compile time**;
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
//! linear head, the unfused residual fallback) mirror the per-layer
//! interpreter's arithmetic **order** exactly, element for element — which
//! is what makes the whole graph bitwise identical to the per-layer path
//! (`tests/graph_identity.rs`), not merely close.
//!
//! Tracing: compilation emits the `graph/plan_bytes` counter; execution
//! wraps each op in a `graph/layer` span (arg = op index) inside a
//! `graph/execute` span.

use lowino::prelude::*;
use lowino::{AlignedBuf, ConvPostOps, LANES};

use crate::layers::{Conv2dLayer, Layer};
use crate::model::Model;
use crate::plan::{plan_slots, ArenaPlan, SlotReq, PLAN_ALIGN};
use crate::quantized::rebatch_for_calibration;

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
    /// Standalone `max(v, 0)` in place (only when not fused into a conv).
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
    /// Unfused residual fallback: `dst = max(skip + body, 0)`.
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

/// Intermediate compile state: ops + slot table under construction.
struct GraphBuilder {
    spec: GraphSpec,
    health: HealthPolicy,
    ops: Vec<GraphOp>,
    slots: Vec<SlotInfo>,
}

impl GraphBuilder {
    fn add_slot(&mut self, channels: usize, h: usize, w: usize) -> usize {
        self.slots.push(SlotInfo {
            batch: self.spec.batch,
            channels,
            h,
            w,
        });
        self.slots.len() - 1
    }

    /// Lower a layer list. `act` carries the FP32 reference activations of
    /// the *calibration* batch forward (exactly like the per-layer
    /// converter: quantization error must not contaminate downstream
    /// calibration); `cur` is the arena slot holding the corresponding
    /// inference activation. Returns the output slot.
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

    /// Plan one convolution: calibrate on the FP32 reference activations
    /// (identically to the per-layer path) and build the resilient ladder
    /// — which packs the pre-transformed filter panels right here, once.
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
            batch: self.spec.batch,
            in_c: conv.in_channels(),
            out_c: conv.out_channels(),
            h,
            w,
            r: conv.filter(),
            stride: 1,
            pad: (conv.filter() - 1) / 2,
        };
        let samples = rebatch_for_calibration(act, self.spec.batch);
        let resilient =
            ResilientConv::with_policy(shape, self.spec.m, &conv.weights, samples, self.health)?;
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
    /// `calib_x` (a batch of NCHW images) exactly like
    /// [`crate::QuantizedModel::from_model`] does.
    pub fn compile(
        model: &mut Model,
        calib_x: &Tensor4,
        spec: &GraphSpec,
    ) -> Result<Self, ConvError> {
        Self::compile_with_health(model, calib_x, spec, HealthPolicy::default())
    }

    /// [`Self::compile`] with an explicit per-conv [`HealthPolicy`] —
    /// ablation benches disable the post-execute health scans with it to
    /// isolate their cost (see `EXPERIMENTS.md`, PR 8).
    pub fn compile_with_health(
        model: &mut Model,
        calib_x: &Tensor4,
        spec: &GraphSpec,
        health: HealthPolicy,
    ) -> Result<Self, ConvError> {
        Self::compile_with_engine(Engine::new(spec.threads), model, calib_x, spec, health)
    }

    /// [`Self::compile_with_health`] onto a caller-built [`Engine`] — a
    /// serving shard configures its engine first (pinned tier, wisdom
    /// file via [`Engine::builder`]) and hands it over; the
    /// graph takes ownership. `spec.threads` is ignored in this variant
    /// (the engine already owns its pool).
    pub fn compile_with_engine(
        engine: Engine,
        model: &mut Model,
        calib_x: &Tensor4,
        spec: &GraphSpec,
        health: HealthPolicy,
    ) -> Result<Self, ConvError> {
        let _sp = lowino_trace::span("graph/compile");
        let (_, c, h, w) = calib_x.dims();
        let mut builder = GraphBuilder {
            spec: *spec,
            health,
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
            batch: spec.batch,
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

    /// Mutably borrow the engine (wisdom persistence, context access).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
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

    /// Swap every conv ladder's [`HealthPolicy`] live. The serving
    /// brownout controller uses this to relax the post-execute health
    /// scans under overload (`HealthPolicy::relaxed()`) and restore the
    /// compile-time policy when pressure clears; demotions already taken
    /// are sticky and unaffected.
    pub fn set_health_policy(&mut self, policy: HealthPolicy) {
        for op in &mut self.ops {
            if let GraphOp::Conv { conv, .. } = op {
                conv.set_policy(policy);
            }
        }
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
            load_nchw(&mut in_img, input);
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
                        *v = v.max(0.0);
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
    /// planning-sized chunks, tail zero-padded — same contract as
    /// [`crate::QuantizedModel::predict`]).
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

/// Copy an NCHW tensor into a blocked slot, fully overwriting the window
/// (padding lanes zeroed — the slot may hold a dead tensor's bits).
fn load_nchw(img: &mut BlockedImage, t: &Tensor4) {
    let (b_n, c_n, h, w) = img.dims();
    debug_assert_eq!(t.dims(), (b_n, c_n, h, w));
    let c_blocks = img.c_blocks();
    for b in 0..b_n {
        for cb in 0..c_blocks {
            for y in 0..h {
                for x in 0..w {
                    let lanes = img.lanes_mut(b, cb, y, x);
                    for (l, v) in lanes.iter_mut().enumerate() {
                        let c = cb * LANES + l;
                        *v = if c < c_n { t.at(b, c, y, x) } else { 0.0 };
                    }
                }
            }
        }
    }
}

/// 2×2 stride-2 max pool over blocked images. The per-element max chain
/// follows the per-layer interpreter's order exactly (bitwise contract).
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
/// one multiply by `1/(h·w)` — the per-layer interpreter's order).
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

/// Unfused residual: `dst = max(skip + body, 0)` element-wise, in the
/// per-layer interpreter's operand order.
fn residual_add_blocked(skip: &BlockedImage, body: &BlockedImage, dst: &mut BlockedImage) {
    debug_assert_eq!(skip.dims(), dst.dims());
    debug_assert_eq!(body.dims(), dst.dims());
    for ((o, &s), &bv) in dst
        .data_mut()
        .iter_mut()
        .zip(skip.data())
        .zip(body.data())
    {
        *o = (s + bv).max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{mini_resnet, mini_vgg};
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
}
