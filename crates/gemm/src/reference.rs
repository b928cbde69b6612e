//! Naive reference GEMM used to validate the optimised drivers.

use crate::driver::GemmShape;
use crate::panels::{UPanel, UPanelOf, VPanel, VPanelOf, F32, I16};

/// Naive `Z[t] = V̄[t]×U[t] + Z̄[t]` over the padded operands, returned as a
/// `[t][n][k]` (logical `k`) row-major vector.
pub fn reference_gemm(v: &VPanel, u: &UPanel, shape: &GemmShape) -> Vec<i32> {
    let (_, _, _, cp) = v.dims();
    let mut out = vec![0i32; shape.t * shape.n * shape.k];
    for t in 0..shape.t {
        let zbar = u.zbar(t);
        for n in 0..shape.n {
            for k in 0..shape.k {
                let mut acc = zbar[k];
                for c in 0..cp {
                    acc += i32::from(v.get(t, n, c)) * i32::from(u.get(t, c, k));
                }
                out[(t * shape.n + n) * shape.k + k] = acc;
            }
        }
    }
    out
}

/// Naive f32 reference.
pub fn reference_gemm_f32(v: &VPanelOf<F32>, u: &UPanelOf<F32>, shape: &GemmShape) -> Vec<f32> {
    let (_, _, _, cp) = v.dims();
    let mut out = vec![0f32; shape.t * shape.n * shape.k];
    for t in 0..shape.t {
        for n in 0..shape.n {
            let row = v.row(t, n);
            for k in 0..shape.k {
                let mut acc = 0f32;
                for (c, &vv) in row.iter().enumerate().take(cp) {
                    acc += vv * u.get(t, c, k);
                }
                out[(t * shape.n + n) * shape.k + k] = acc;
            }
        }
    }
    out
}

/// Naive i16 reference (exact in i32).
pub fn reference_gemm_i16(v: &VPanelOf<I16>, u: &UPanelOf<I16>, shape: &GemmShape) -> Vec<i32> {
    let (_, _, _, cp) = v.dims();
    let mut out = vec![0i32; shape.t * shape.n * shape.k];
    for t in 0..shape.t {
        for n in 0..shape.n {
            let row = v.row(t, n);
            for k in 0..shape.k {
                let mut acc = 0i32;
                for (c, &vv) in row.iter().enumerate().take(cp) {
                    acc += i32::from(vv) * i32::from(u.get(t, c, k));
                }
                out[(t * shape.n + n) * shape.k + k] = acc;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_includes_compensation() {
        let shape = GemmShape { t: 1, n: 1, c: 4, k: 16 };
        let mut v = VPanel::new(1, 1, 4);
        let mut u = UPanel::new(1, 4, 16);
        for c in 0..4 {
            v.set(0, 0, c, 128); // logical zero after compensation
            u.set(0, c, 0, 1);
        }
        u.finalize_compensation();
        let out = reference_gemm(&v, &u, &shape);
        // (0+128)·1·4 − 128·4 = 0.
        assert_eq!(out[0], 0);
    }
}
