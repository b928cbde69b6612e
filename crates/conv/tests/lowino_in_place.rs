//! LoWino's in-place transform phases against the gather path.
//!
//! `LoWinoConv::execute` transforms interior input tiles straight off the
//! blocked image and stores full output tiles straight into the output
//! image; tiles that touch the zero-padding halo or the ragged edge still
//! go through `gather_patch` / `scatter_output_tile`. The retained
//! `execute_three_fork_join` gathers and scatters *every* tile (and runs
//! the interpreted codelets), so it is the reference: outputs must be
//! bitwise equal on shapes where all, none, or some tiles take the in-place
//! path, at one and two threads, with and without fused post-ops.

use lowino_conv::calibrate::calibrate_winograd_domain_per_position;
use lowino_conv::{apply_post_ops, ConvContext, ConvExecutor, ConvPostOps, LoWinoConv};
use lowino_tensor::{BlockedImage, ConvShape, Tensor4, LANES};
use lowino_testkit::Rng;

fn bits(img: &BlockedImage) -> Vec<u32> {
    img.data().iter().map(|v| v.to_bits()).collect()
}

fn random_image(rng: &mut Rng, b: usize, c: usize, h: usize, w: usize, amp: f32) -> BlockedImage {
    let mut t = Tensor4::zeros(b, c, h, w);
    rng.fill_f32(t.data_mut(), -amp, amp);
    BlockedImage::from_nchw(&t)
}

/// `(what, spec, m)`. With `pad = 0` and `H = k·m + r − 1` every input tile
/// is interior and every output tile full; with `H' < m` the single tile is
/// both padded and clipped.
fn shapes() -> Vec<(&'static str, ConvShape, usize)> {
    let unpadded = |b, c, k, hw| ConvShape { batch: b, in_c: c, out_c: k, h: hw, w: hw, r: 3, stride: 1, pad: 0 };
    vec![
        ("all interior (pad 0, H' = 2m)", unpadded(2, 8, 16, 10), 4),
        ("all interior, F(2,3)", unpadded(1, 8, 8, 8), 2),
        ("all border (H' < m)", ConvShape::same(2, 8, 8, 3, 3), 4),
        ("padded, H' = 3m: interior core, halo ring", ConvShape::same(1, 16, 8, 12, 3), 4),
        ("ragged (H' mod m = 3)", ConvShape::same(2, 8, 16, 11, 3), 4),
        ("pad 0 and ragged", unpadded(1, 8, 8, 13), 4),
        ("C and K off the 64-lane grid", ConvShape::same(1, 70, 66, 13, 3), 4),
        ("F(6,3), ragged", ConvShape::same(1, 8, 8, 15, 3), 6),
    ]
}

#[test]
fn in_place_phases_match_the_gather_path_bitwise() {
    let mut rng = Rng::seed_from_u64(0x1A_CE);
    for (what, spec, m) in shapes() {
        let spec = spec.validate().unwrap();
        let (oh, ow) = (spec.out_h(), spec.out_w());
        let img = random_image(&mut rng, spec.batch, spec.in_c, spec.h, spec.w, 2.0);
        let mut weights = Tensor4::zeros(spec.out_c, spec.in_c, 3, 3);
        rng.fill_f32(weights.data_mut(), -0.3, 0.3);
        let cal = calibrate_winograd_domain_per_position(&spec, m, std::slice::from_ref(&img)).unwrap();
        let res = random_image(&mut rng, spec.batch, spec.out_c, oh, ow, 1.0);
        let mut bias = vec![0.0f32; res.c_blocks() * LANES];
        rng.fill_f32(&mut bias[..spec.out_c], -0.5, 0.5);

        // Reference: gather → interpreted transforms → scatter, then the
        // elementwise post-op pass.
        let mut ctx = ConvContext::new(1);
        let mut reference = LoWinoConv::new_per_position(spec, m, &weights, &cal).unwrap();
        let mut want_plain = BlockedImage::zeros(spec.batch, spec.out_c, oh, ow);
        reference.execute_three_fork_join(&img, &mut want_plain, &mut ctx);

        for (use_bias, use_res, relu) in [(false, false, false), (true, true, true), (false, true, false)] {
            let post = ConvPostOps {
                bias: use_bias.then_some(bias.as_slice()),
                residual: use_res.then_some(&res),
                relu,
            };
            let mut want = want_plain.clone();
            apply_post_ops(&mut want, &post);
            for threads in [1, 2] {
                let mut ctx = ConvContext::new(threads);
                let mut conv = LoWinoConv::new_per_position(spec, m, &weights, &cal).unwrap();
                // Stale contents: every output element must be overwritten.
                let mut got = random_image(&mut rng, spec.batch, spec.out_c, oh, ow, 9.0);
                conv.execute_post(&img, &mut got, &post, &mut ctx).unwrap();
                assert!(
                    bits(&got) == bits(&want),
                    "{what}: m={m} threads={threads} bias={use_bias} res={use_res} relu={relu}"
                );
            }
        }
    }
}
