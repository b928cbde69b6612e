//! Codelet **lowering and execution**: flatten a generated [`Codelet`] to a
//! `(dst, src, coeff)` term list and run it over explicit SIMD vectors.
//!
//! The paper emits its transform codelets as compiled code (§4.2.4); the
//! interpreted executor in [`codelet`](crate::codelet) walks
//! `Vec<(Source, f32)>` term lists per lane group. A [`Tape`] is the
//! lowered term list — one dense `dst += coeff · src` triple per term over
//! a register file `[inputs | temps | outputs]` — and it runs in one of
//! two ways:
//!
//! * the production tile sizes `F(2,3)`, `F(4,3)`, `F(6,3)` resolve, by
//!   matching the term list itself, to a **generated straight-line kernel**
//!   in [`kernels`](crate::kernels) (the paper's "emit code" step: the same
//!   terms in the same order, printed as Rust and compiled);
//! * every other size runs the **generic driver** below, which walks the
//!   term list at run time over a stack-resident register file.
//!
//! Both load each input slot once per lane chunk and hand every finished
//! output vector to an epilogue while it is still in a register:
//!
//! * [`Tape::execute_f32`] — plain f32-in/f32-out, the twin of
//!   [`Codelet::execute_f32`];
//! * [`Tape::execute_f32_post`] — bias / residual / ReLU before the store;
//! * [`Tape::execute_quant_u8`] — the fused **quantize epilogue** (paper
//!   Eq. 4 + the §4.2.1 `+128` compensation): output slots are quantized
//!   in-register and emitted as `u8` lanes, so the input-transform row
//!   pass writes `V` directly in its low-precision GEMM layout;
//! * [`Tape::execute_dequant_f32`] — the fused **dequantize prologue**
//!   (Eq. 6): input slots are raw `i32` GEMM accumulators, converted and
//!   scaled by `1/(α_V·α_U)` at load time, so the output-transform column
//!   pass consumes `Z` without a separate dequantization pass.
//!
//! Every path is bitwise identical to the interpreted executor composed
//! with the scalar `lowino-simd` conversions (for finite values — see
//! `lowino_simd::vecf32`): each destination accumulates its terms from
//! zero, in expression order, with a separate multiply and add (never an
//! FMA). The interpreter stays as the reference oracle and the equivalence
//! is property-tested per tier.

use crate::codelet::{Codelet, Source};
use crate::kernels::{self, KernelId};
use core::marker::PhantomData;
use lowino_simd::vecf32::{F32Vector, F32x1, VecTier};

/// Register-file capacity of the generic driver. One register per input
/// slot, CSE temporary and output slot; the lowering asserts the program
/// fits. `F(6,3)` needs 8 + temps + 8; 32 leaves headroom for every
/// supported tile size.
pub const MAX_REGS: usize = 32;

/// One lowered statement: `regs[dst] += coeff · regs[src]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TapeInstr {
    /// Destination register (a temp or output slot).
    pub dst: u8,
    /// Source register (an input slot or earlier temp).
    pub src: u8,
    /// The f32-rendered matrix coefficient.
    pub coeff: f32,
}

/// Per-destination post-ops fused into a tape's output stores (the graph
/// engine's bias / residual-add / ReLU, PR-3-style: applied while the
/// finished output vector is still in a register, before its one store).
///
/// `None` everywhere (`TapePostOps::default()`) makes
/// [`Tape::execute_f32_post`] behave exactly like [`Tape::execute_f32`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TapePostOps<'a> {
    /// Per-lane addend shared by all output slots (lanes are channels in
    /// the blocked layout): lane `l` of every slot gains `bias[l]`. Must
    /// hold at least `lanes` values.
    pub bias: Option<&'a [f32]>,
    /// Per-slot addend laid out like the output: `(buf, base, stride)` —
    /// slot `i`, lane `l` gains `buf[base + i·stride + l]`. The
    /// skip-connection tile of a residual block.
    pub residual: Option<(&'a [f32], usize, usize)>,
    /// Apply `max(·, 0.0)` last ([`F32Vector::max`] semantics).
    pub relu: bool,
}

/// A generated straight-line codelet: `NI` input vectors to `NO` output
/// vectors, temporaries in locals. Implemented only by the unit structs of
/// [`kernels`](crate::kernels).
pub(crate) trait Kernel<const NI: usize, const NO: usize> {
    /// # Safety
    ///
    /// `V`'s tier features must be available (see [`F32Vector`]).
    unsafe fn apply<V: F32Vector>(x: [V; NI]) -> [V; NO];
}

/// Receiver of [`kernels::dispatch`]: called with the kernel type a
/// [`KernelId`] names.
pub(crate) trait KernelVisitor {
    /// # Safety
    ///
    /// Whatever the implementor's driver requires of its pointers.
    unsafe fn visit<K: Kernel<NI, NO>, const NI: usize, const NO: usize>(self);
}

/// A lowered codelet: a flat multiply-accumulate term list over a register
/// file laid out `[inputs | temps | outputs]`, plus the generated kernel
/// that term list resolves to, if any.
#[derive(Debug, Clone)]
pub struct Tape {
    n_in: usize,
    n_temps: usize,
    n_out: usize,
    instrs: Vec<TapeInstr>,
    kernel: Option<KernelId>,
}

impl Tape {
    /// Lower `code` to its term list and resolve it against the generated
    /// kernel tables. Term order follows the interpreter exactly —
    /// temporaries in definition order, then outputs, each accumulating its
    /// terms in expression order from zero — which is what makes every
    /// executor bitwise identical. A kernel is chosen only when the whole
    /// term list (register numbers and coefficient bits) equals the one it
    /// was generated from, never by `(m, r)`: matrices for the same tile
    /// size from another construction simply take the generic driver.
    ///
    /// # Panics
    ///
    /// Panics if the program needs more than [`MAX_REGS`] registers.
    pub fn lower(code: &Codelet) -> Self {
        let mut tape = Self::lower_generic(code);
        tape.kernel = kernels::TABLE
            .iter()
            .find(|k| {
                (k.n_in, k.n_temps, k.n_out) == (tape.n_in, tape.n_temps, tape.n_out)
                    && k.terms.len() == tape.instrs.len()
                    && k.terms
                        .iter()
                        .zip(&tape.instrs)
                        .all(|(&(dst, src, bits), ins)| {
                            (dst, src, bits) == (ins.dst, ins.src, ins.coeff.to_bits())
                        })
            })
            .map(|k| k.id);
        tape
    }

    /// [`Self::lower`] without resolving a generated kernel: the tape always
    /// runs the generic driver. The kernel generator's input, and the
    /// baseline the equivalence tests and the `transforms` bench hold the
    /// generated kernels against.
    pub fn lower_generic(code: &Codelet) -> Self {
        let (n_in, n_temps, n_out) = (code.n_in(), code.n_temps(), code.n_out());
        let regs = n_in + n_temps + n_out;
        assert!(
            regs <= MAX_REGS,
            "codelet needs {regs} registers (max {MAX_REGS})"
        );
        let mut instrs = Vec::new();
        let exprs = code.temps_f32().iter().chain(code.outs_f32());
        for (d, expr) in exprs.enumerate() {
            for &(src, coeff) in expr {
                let src = match src {
                    Source::In(j) => j,
                    Source::Temp(t) => n_in + t,
                };
                instrs.push(TapeInstr {
                    dst: (n_in + d) as u8,
                    src: src as u8,
                    coeff,
                });
            }
        }
        Tape {
            n_in,
            n_temps,
            n_out,
            instrs,
            kernel: None,
        }
    }

    /// Number of input slots.
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// Number of output slots.
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// Number of CSE temporaries (register-resident; no scratch needed).
    pub fn n_temps(&self) -> usize {
        self.n_temps
    }

    /// Multiply-accumulate term count (equals the codelet's
    /// [`op_count`](Codelet::op_count)).
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True when the tape has no terms.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The term list, in execution order.
    pub(crate) fn instrs(&self) -> &[TapeInstr] {
        &self.instrs
    }

    /// The generated kernel this tape runs on; `None` means the generic
    /// driver.
    pub fn kernel(&self) -> Option<KernelId> {
        self.kernel
    }

    /// Twin of [`Codelet::execute_f32`]: slot `j` of the input starts at
    /// `input[in_base + j·in_stride]`, slot `i` of the output at
    /// `output[out_base + i·out_stride]`, each slot `lanes` consecutive
    /// values. No scratch — temporaries live in registers.
    #[inline]
    pub fn execute_f32(
        &self,
        vt: VecTier,
        lanes: usize,
        input: &[f32],
        in_base: usize,
        in_stride: usize,
        output: &mut [f32],
        out_base: usize,
        out_stride: usize,
    ) {
        self.check_spans(vt, lanes, input.len(), in_base, in_stride, output.len(), out_base, out_stride);
        let load = LoadF32 {
            ip: input[in_base..].as_ptr(),
            stride: in_stride,
        };
        let emit = StoreF32 {
            op: output[out_base..].as_mut_ptr(),
            stride: out_stride,
        };
        // SAFETY: `check_spans` proved every slot of both operands holds
        // `lanes` values inside its slice and that the host executes `vt`.
        unsafe { self.run(vt, lanes, load, emit) }
    }

    /// [`Self::execute_f32`] with a fused **post-op epilogue** applied to
    /// every output slot before its store, in this fixed order:
    ///
    /// 1. `bias` — per-lane addend (lanes are channels in the blocked
    ///    layout), the same `bias[l..l+W]` vector added to every slot;
    /// 2. `residual` — per-slot addend laid out like the output (slot `i`
    ///    at `res[res_base + i·res_stride]`), the skip-connection tile;
    /// 3. `relu` — `max(·, 0.0)` with `maxps` semantics (see
    ///    [`F32Vector::max`]).
    ///
    /// Bitwise identical to [`Self::execute_f32`] followed by the scalar
    /// spelling `((y + bias) + res).max(0.0)` per element, on every tier —
    /// `add` is plain IEEE and never contracted, `max` matches
    /// `f32::max(v, 0.0)` for all finite-or-NaN inputs.
    #[inline]
    pub fn execute_f32_post(
        &self,
        vt: VecTier,
        lanes: usize,
        input: &[f32],
        in_base: usize,
        in_stride: usize,
        post: TapePostOps<'_>,
        output: &mut [f32],
        out_base: usize,
        out_stride: usize,
    ) {
        if post.bias.is_none() && post.residual.is_none() && !post.relu {
            return self.execute_f32(vt, lanes, input, in_base, in_stride, output, out_base, out_stride);
        }
        self.check_spans(vt, lanes, input.len(), in_base, in_stride, output.len(), out_base, out_stride);
        let bias = post.bias.map_or(core::ptr::null(), |b| {
            assert!(b.len() >= lanes, "bias shorter than the lane group");
            b.as_ptr()
        });
        let (res, res_stride) = post.residual.map_or((core::ptr::null(), 0), |(r, base, stride)| {
            assert!(r.len() >= base + (self.n_out - 1) * stride + lanes);
            (r[base..].as_ptr(), stride)
        });
        let load = LoadF32 {
            ip: input[in_base..].as_ptr(),
            stride: in_stride,
        };
        let emit = StorePost {
            bias,
            res,
            res_stride,
            relu: post.relu,
            op: output[out_base..].as_mut_ptr(),
            stride: out_stride,
        };
        // SAFETY: as in `execute_f32`; the bias and residual spans were
        // checked just above (null marks an absent operand).
        unsafe { self.run(vt, lanes, load, emit) }
    }

    /// Fused quantize epilogue: run the tape, then per output slot `i`
    /// quantize with `alphas[alpha_base + i·alpha_stride]` (one scale per
    /// Winograd-domain element, shared by all lanes of the slot), add the
    /// `+128` compensation when `compensate`, and store the slot as `u8`
    /// lanes at `output[out_base + i·out_stride]`.
    ///
    /// Bitwise identical (finite values) to [`Self::execute_f32`] followed
    /// by [`lowino_simd::quantize_f32_lanes_i8`] per slot.
    #[inline]
    pub fn execute_quant_u8(
        &self,
        vt: VecTier,
        lanes: usize,
        input: &[f32],
        in_base: usize,
        in_stride: usize,
        alphas: &[f32],
        alpha_base: usize,
        alpha_stride: usize,
        compensate: bool,
        output: &mut [u8],
        out_base: usize,
        out_stride: usize,
    ) {
        self.check_spans(vt, lanes, input.len(), in_base, in_stride, output.len(), out_base, out_stride);
        assert!(alphas.len() > alpha_base + (self.n_out - 1) * alpha_stride);
        let load = LoadF32 {
            ip: input[in_base..].as_ptr(),
            stride: in_stride,
        };
        let emit = StoreQuant {
            ap: alphas[alpha_base..].as_ptr(),
            alpha_stride,
            offset: if compensate { 128 } else { 0 },
            op: output[out_base..].as_mut_ptr(),
            stride: out_stride,
        };
        // SAFETY: as in `execute_f32`; one alpha per output slot was
        // asserted above.
        unsafe { self.run(vt, lanes, load, emit) }
    }

    /// Fused dequantize prologue: input slots are raw `i32` GEMM
    /// accumulators; slot `j` is loaded as
    /// `z as f32 · scales[scale_base + j·scale_stride]` (Eq. 6 folded into
    /// the load; `scale_stride = 0` broadcasts one scale). The tape then
    /// runs as usual and stores f32 outputs.
    ///
    /// Bitwise identical to [`lowino_simd::dequantize_i32_lanes`] per slot
    /// followed by [`Self::execute_f32`].
    #[inline]
    pub fn execute_dequant_f32(
        &self,
        vt: VecTier,
        lanes: usize,
        input: &[i32],
        in_base: usize,
        in_stride: usize,
        scales: &[f32],
        scale_base: usize,
        scale_stride: usize,
        output: &mut [f32],
        out_base: usize,
        out_stride: usize,
    ) {
        self.check_spans(vt, lanes, input.len(), in_base, in_stride, output.len(), out_base, out_stride);
        assert!(scales.len() > scale_base + (self.n_in - 1) * scale_stride);
        let load = LoadDequant {
            ip: input[in_base..].as_ptr(),
            stride: in_stride,
            sp: scales[scale_base..].as_ptr(),
            scale_stride,
        };
        let emit = StoreF32 {
            op: output[out_base..].as_mut_ptr(),
            stride: out_stride,
        };
        // SAFETY: as in `execute_f32`; one scale per input slot was
        // asserted above.
        unsafe { self.run(vt, lanes, load, emit) }
    }

    /// Common bounds/capability checks for the execute entry points.
    #[inline]
    fn check_spans(
        &self,
        vt: VecTier,
        lanes: usize,
        in_len: usize,
        in_base: usize,
        in_stride: usize,
        out_len: usize,
        out_base: usize,
        out_stride: usize,
    ) {
        assert!(in_len >= in_base + (self.n_in - 1) * in_stride + lanes);
        assert!(out_len >= out_base + (self.n_out - 1) * out_stride + lanes);
        assert!(vt <= VecTier::detect(), "vec tier {vt} not supported");
    }

    /// Tier dispatch into the per-tier `#[target_feature]` wrappers.
    ///
    /// # Safety
    ///
    /// The host must execute `vt`, and `load` / `emit` must be valid for
    /// every slot of this tape at every lane offset below `lanes`.
    #[inline]
    unsafe fn run<L: Load, E: Emit>(&self, vt: VecTier, lanes: usize, load: L, emit: E) {
        match vt {
            #[cfg(target_arch = "x86_64")]
            VecTier::F32x16 => x86::run_avx512(self, lanes, load, emit),
            #[cfg(target_arch = "x86_64")]
            VecTier::F32x8 => x86::run_avx2(self, lanes, load, emit),
            _ => run_scalar(self, lanes, load, emit),
        }
    }
}

// -- loads and epilogues -------------------------------------------------
//
// A driver is one lane loop, generic over how input slot `j` is read at
// lane offset `l` and what happens to finished output slot `i` there.
// All bodies are `#[inline(always)]` generics instantiated inside the
// per-tier `#[target_feature]` wrappers — the same codegen pattern as
// `lowino_simd::dpbusd`.

/// How a driver reads input slot `j` at lane offset `l`.
trait Load: Copy {
    /// # Safety
    ///
    /// `V`'s tier features must be available and slot `j` must hold
    /// `l + V::WIDTH` readable lanes.
    unsafe fn load<V: F32Vector>(self, j: usize, l: usize) -> V;
}

/// What a driver does with finished output slot `i` at lane offset `l`.
trait Emit: Copy {
    /// # Safety
    ///
    /// `V`'s tier features must be available and slot `i` of every operand
    /// the epilogue touches must hold `l + V::WIDTH` lanes.
    unsafe fn emit<V: F32Vector>(self, v: V, i: usize, l: usize);
}

#[derive(Clone, Copy)]
struct LoadF32 {
    ip: *const f32,
    stride: usize,
}

impl Load for LoadF32 {
    #[inline(always)]
    unsafe fn load<V: F32Vector>(self, j: usize, l: usize) -> V {
        V::load(self.ip.add(j * self.stride + l))
    }
}

/// `i32` slots dequantized at load time (Eq. 6).
#[derive(Clone, Copy)]
struct LoadDequant {
    ip: *const i32,
    stride: usize,
    sp: *const f32,
    scale_stride: usize,
}

impl Load for LoadDequant {
    #[inline(always)]
    unsafe fn load<V: F32Vector>(self, j: usize, l: usize) -> V {
        V::load_i32_scaled(self.ip.add(j * self.stride + l), *self.sp.add(j * self.scale_stride))
    }
}

#[derive(Clone, Copy)]
struct StoreF32 {
    op: *mut f32,
    stride: usize,
}

impl Emit for StoreF32 {
    #[inline(always)]
    unsafe fn emit<V: F32Vector>(self, v: V, i: usize, l: usize) {
        v.store(self.op.add(i * self.stride + l));
    }
}

/// [`TapePostOps`] lowered to raw pointers (null ⇒ absent): bias, then
/// residual slot tile, then ReLU — the register-resident fusion point.
#[derive(Clone, Copy)]
struct StorePost {
    bias: *const f32,
    res: *const f32,
    res_stride: usize,
    relu: bool,
    op: *mut f32,
    stride: usize,
}

impl Emit for StorePost {
    #[inline(always)]
    unsafe fn emit<V: F32Vector>(self, mut v: V, i: usize, l: usize) {
        if !self.bias.is_null() {
            v = v.add(V::load(self.bias.add(l)));
        }
        if !self.res.is_null() {
            v = v.add(V::load(self.res.add(i * self.res_stride + l)));
        }
        if self.relu {
            v = v.max(V::zero());
        }
        v.store(self.op.add(i * self.stride + l));
    }
}

/// Eq. 4 + the `+128` compensation, one scale per output slot.
#[derive(Clone, Copy)]
struct StoreQuant {
    ap: *const f32,
    alpha_stride: usize,
    offset: i32,
    op: *mut u8,
    stride: usize,
}

impl Emit for StoreQuant {
    #[inline(always)]
    unsafe fn emit<V: F32Vector>(self, v: V, i: usize, l: usize) {
        v.quantize_u8(*self.ap.add(i * self.alpha_stride), self.offset, self.op.add(i * self.stride + l));
    }
}

// -- drivers -------------------------------------------------------------

/// One lane chunk of a tape: load the inputs, evaluate, emit the outputs.
trait Program {
    /// # Safety
    ///
    /// [`Load::load`] / [`Emit::emit`] must be sound for every slot of the
    /// program at lane offset `l`.
    unsafe fn step<V: F32Vector, L: Load, E: Emit>(&self, load: L, emit: E, l: usize);
}

/// A generated kernel: straight-line code, everything in registers.
struct Generated<K, const NI: usize, const NO: usize>(PhantomData<K>);

impl<K: Kernel<NI, NO>, const NI: usize, const NO: usize> Program for Generated<K, NI, NO> {
    #[inline(always)]
    unsafe fn step<V: F32Vector, L: Load, E: Emit>(&self, load: L, emit: E, l: usize) {
        let mut x = [V::zero(); NI];
        for j in 0..NI {
            x[j] = load.load(j, l);
        }
        let y = K::apply(x);
        for i in 0..NO {
            emit.emit(y[i], i, l);
        }
    }
}

/// The generic driver: walks the term list at run time. The file holds
/// inputs and temporaries only (sources are never outputs); its dynamic
/// source indices keep it on the stack, which is what the generated
/// kernels exist to avoid. The lowering emits terms grouped by destination
/// (temporaries in definition order, then outputs in order), so each
/// destination is one contiguous run accumulated from zero.
impl Program for Tape {
    #[inline(always)]
    unsafe fn step<V: F32Vector, L: Load, E: Emit>(&self, load: L, emit: E, l: usize) {
        let mut file = [V::zero(); MAX_REGS];
        for j in 0..self.n_in {
            file[j] = load.load(j, l);
        }
        let mut k = 0;
        for d in self.n_in..self.n_in + self.n_temps + self.n_out {
            let mut acc = V::zero();
            while k < self.instrs.len() && self.instrs[k].dst as usize == d {
                let ins = self.instrs[k];
                acc = acc.add(V::splat(ins.coeff).mul(file[ins.src as usize]));
                k += 1;
            }
            match d.checked_sub(self.n_in + self.n_temps) {
                Some(i) => emit.emit(acc, i, l),
                None => file[d] = acc,
            }
        }
    }
}

/// The lane loop: `V`-wide chunks, then a scalar tail.
///
/// # Safety
///
/// As [`Tape::run`]: `V`'s features available, `load` / `emit` valid for
/// every slot of `p` at every lane offset below `lanes`.
#[inline(always)]
unsafe fn drive<V: F32Vector, P: Program, L: Load, E: Emit>(p: &P, lanes: usize, load: L, emit: E) {
    let main = lanes - lanes % V::WIDTH;
    let mut l = 0;
    while l < main {
        p.step::<V, L, E>(load, emit, l);
        l += V::WIDTH;
    }
    while l < lanes {
        p.step::<F32x1, L, E>(load, emit, l);
        l += 1;
    }
}

struct Run<V, L, E> {
    lanes: usize,
    load: L,
    emit: E,
    _tier: PhantomData<V>,
}

impl<V: F32Vector, L: Load, E: Emit> KernelVisitor for Run<V, L, E> {
    #[inline(always)]
    unsafe fn visit<K: Kernel<NI, NO>, const NI: usize, const NO: usize>(self) {
        drive::<V, _, L, E>(&Generated::<K, NI, NO>(PhantomData), self.lanes, self.load, self.emit);
    }
}

/// Run `tape` at vector type `V`: its generated kernel when it resolved
/// one, the generic driver otherwise.
///
/// # Safety
///
/// As [`drive`]. A resolved kernel has the tape's slot counts (`lower`
/// matched the whole term list), so the same spans cover both paths.
#[inline(always)]
unsafe fn run_tier<V: F32Vector, L: Load, E: Emit>(tape: &Tape, lanes: usize, load: L, emit: E) {
    match tape.kernel {
        Some(id) => kernels::dispatch(
            id,
            Run {
                lanes,
                load,
                emit,
                _tier: PhantomData::<V>,
            },
        ),
        None => drive::<V, _, L, E>(tape, lanes, load, emit),
    }
}

/// The scalar tier, out of line like the x86 wrappers so the `#[inline]`
/// entry points do not each carry a copy of every kernel.
///
/// # Safety
///
/// As [`run_tier`] (the scalar model has no feature requirement).
#[inline(never)]
unsafe fn run_scalar<L: Load, E: Emit>(tape: &Tape, lanes: usize, load: L, emit: E) {
    run_tier::<F32x1, L, E>(tape, lanes, load, emit);
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use lowino_simd::vecf32::{F32x16, F32x8};

    /// # Safety
    ///
    /// `avx512f` must be available; otherwise as [`run_tier`].
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn run_avx512<L: Load, E: Emit>(tape: &Tape, lanes: usize, load: L, emit: E) {
        run_tier::<F32x16, L, E>(tape, lanes, load, emit);
    }

    /// # Safety
    ///
    /// `avx2` must be available; otherwise as [`run_tier`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn run_avx2<L: Load, E: Emit>(tape: &Tape, lanes: usize, load: L, emit: E) {
        run_tier::<F32x8, L, E>(tape, lanes, load, emit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrices::WinogradMatrices;

    #[test]
    fn all_supported_codelets_fit_the_register_file() {
        for (m, r) in [(2usize, 3usize), (4, 3), (6, 3), (3, 3), (3, 5)] {
            let w = WinogradMatrices::for_tile(m, r).unwrap();
            for mat in [&w.bt, &w.g, &w.at] {
                let code = Codelet::generate(mat);
                let tape = Tape::lower(&code);
                assert!(tape.n_in() + tape.n_temps() + tape.n_out() <= MAX_REGS);
                assert_eq!(tape.len(), code.op_count());
            }
        }
    }

    #[test]
    fn post_epilogue_matches_unfused_scalar_smoke() {
        // Full per-tier coverage lives in tests/post_epilogue.rs; this is
        // the in-crate smoke check of the fused bias/residual/ReLU order.
        let w = WinogradMatrices::lavin_f4_3();
        let code = Codelet::generate(&w.at);
        let tape = Tape::lower(&code);
        let (n_out, lanes) = (tape.n_out(), 5);
        let input: Vec<f32> = (0..tape.n_in() * lanes)
            .map(|i| (i as f32 * 0.31).cos() * 2.0)
            .collect();
        let bias: Vec<f32> = (0..lanes).map(|l| l as f32 * 0.25 - 0.5).collect();
        let res: Vec<f32> = (0..n_out * lanes).map(|i| (i as f32 * 0.11).sin()).collect();
        let mut plain = vec![0.0f32; n_out * lanes];
        tape.execute_f32(VecTier::Scalar, lanes, &input, 0, lanes, &mut plain, 0, lanes);
        let want: Vec<u32> = (0..n_out * lanes)
            .map(|i| ((plain[i] + bias[i % lanes] + res[i]).max(0.0)).to_bits())
            .collect();
        let mut got = vec![0.0f32; n_out * lanes];
        let post = TapePostOps {
            bias: Some(&bias),
            residual: Some((&res, 0, lanes)),
            relu: true,
        };
        tape.execute_f32_post(VecTier::Scalar, lanes, &input, 0, lanes, post, &mut got, 0, lanes);
        assert_eq!(got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), want);
        // Default post-ops degenerate to the plain executor.
        let mut ident = vec![0.0f32; n_out * lanes];
        tape.execute_f32_post(
            VecTier::Scalar, lanes, &input, 0, lanes,
            TapePostOps::default(), &mut ident, 0, lanes,
        );
        assert_eq!(
            ident.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            plain.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn tape_matches_interpreter_bitwise_scalar_smoke() {
        // Full per-tier property coverage lives in tests/tape_equivalence.rs;
        // this is the in-crate smoke check.
        let w = WinogradMatrices::lavin_f4_3();
        let code = Codelet::generate(&w.bt);
        let tape = Tape::lower(&code);
        let lanes = 5;
        let input: Vec<f32> = (0..6 * lanes).map(|i| (i as f32 * 0.7).sin() * 3.0).collect();
        let mut want = vec![0.0f32; 6 * lanes];
        let mut scratch = vec![0.0f32; code.n_temps().max(1) * lanes];
        code.execute_f32(lanes, &input, 0, lanes, &mut want, 0, lanes, &mut scratch);
        let mut got = vec![0.0f32; 6 * lanes];
        tape.execute_f32(VecTier::Scalar, lanes, &input, 0, lanes, &mut got, 0, lanes);
        assert_eq!(
            got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }
}
