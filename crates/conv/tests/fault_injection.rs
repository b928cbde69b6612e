//! Fault-injection tests for the executors' recoverable error paths.
//!
//! These live in their own integration binary (their own process) because
//! the fault sites are process-global: arming `scratch/grow` here cannot
//! race with the library unit tests, which run in a different process.
//! Within the binary every test calibrates and executes, so an armed site
//! would fire in whichever sibling probes it first: the tests take turns.

use lowino_conv::{
    calibrate_spatial, calibrate_winograd_domain, ConvContext, ConvError, ConvExecutor, ExecError,
    LoWinoConv,
};
use lowino_tensor::{BlockedImage, ConvShape, Tensor4};
use lowino_testkit::faults::{CALIBRATE_SAMPLES, SCRATCH_GROW};

static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn turn() -> std::sync::MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn test_image(spec: &ConvShape) -> BlockedImage {
    let input = Tensor4::from_fn(spec.batch, spec.in_c, spec.h, spec.w, |b, c, y, x| {
        ((b * 41 + c * 17 + y * 5 + x * 3) as f32 * 0.23).sin()
    });
    BlockedImage::from_nchw(&input)
}

fn test_weights(spec: &ConvShape) -> Tensor4 {
    Tensor4::from_fn(spec.out_c, spec.in_c, spec.r, spec.r, |k, c, y, x| {
        ((k * 11 + c * 7 + y * 3 + x) as f32 * 0.37).cos() * 0.3
    })
}

/// A scratch-growth failure during the first execute on a shape surfaces
/// as a recoverable [`ExecError::WorkerPanic`]; the same executor, pool
/// and arena then complete the retry and match a clean run bitwise.
#[test]
fn scratch_grow_fault_is_recoverable() {
    let _turn = turn();
    let spec = ConvShape::same(1, 8, 8, 10, 3).validate().unwrap();
    let img = test_image(&spec);
    let weights = test_weights(&spec);
    let cal = calibrate_winograd_domain(&spec, 2, std::slice::from_ref(&img)).unwrap();

    // Clean run for the expected output.
    let mut clean = LoWinoConv::new(spec, 2, &weights, cal).unwrap();
    let mut ctx_clean = ConvContext::new(2);
    let mut want = BlockedImage::zeros(1, 8, 10, 10);
    clean.execute(&img, &mut want, &mut ctx_clean).unwrap();

    // Faulted run: a fresh context means the first execute must grow the
    // scratch arena, where the armed fault panics inside a phase body.
    let mut conv = LoWinoConv::new(spec, 2, &weights, cal).unwrap();
    let mut ctx = ConvContext::new(2);
    let mut out = BlockedImage::zeros(1, 8, 10, 10);
    SCRATCH_GROW.arm();
    let err = conv.execute(&img, &mut out, &mut ctx).unwrap_err();
    match &err {
        ExecError::WorkerPanic { message } => {
            assert!(
                message.contains("injected fault: scratch/grow"),
                "unexpected panic message: {message}"
            );
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    assert!(!SCRATCH_GROW.is_armed(), "fault is one-shot");
    assert_eq!(SCRATCH_GROW.hits(), 1);

    // Recovery: same executor, same pool, same arena.
    conv.execute(&img, &mut out, &mut ctx).unwrap();
    assert_eq!(
        out.to_nchw().max_abs_diff(&want.to_nchw()),
        0.0,
        "retry after a scratch fault must match a clean run bitwise"
    );
}

/// The `calibrate/samples` site lets CI exercise the calibration error
/// path with healthy data; disarmed, the same samples calibrate fine.
#[test]
fn calibrate_fault_yields_calibration_error() {
    let _turn = turn();
    let spec = ConvShape::same(1, 8, 8, 10, 3).validate().unwrap();
    let img = test_image(&spec);
    CALIBRATE_SAMPLES.arm();
    let err = calibrate_spatial(std::slice::from_ref(&img)).unwrap_err();
    match &err {
        ConvError::Calibration(msg) => {
            assert!(msg.contains("injected fault: calibrate/samples"), "{msg}");
        }
        other => panic!("expected Calibration, got {other:?}"),
    }
    assert!(!CALIBRATE_SAMPLES.is_armed(), "fault is one-shot");
    assert!(calibrate_spatial(std::slice::from_ref(&img)).is_ok());
}

/// Mismatched tensors are rejected before any work starts — no fault
/// arming needed; this is the always-on shape guard.
#[test]
fn io_shape_mismatch_is_an_error_not_a_panic() {
    let _turn = turn();
    let spec = ConvShape::same(1, 8, 8, 10, 3).validate().unwrap();
    let img = test_image(&spec);
    let weights = test_weights(&spec);
    let cal = calibrate_winograd_domain(&spec, 2, std::slice::from_ref(&img)).unwrap();
    let mut conv = LoWinoConv::new(spec, 2, &weights, cal).unwrap();
    let mut ctx = ConvContext::new(1);

    let mut wrong_out = BlockedImage::zeros(1, 8, 11, 11);
    let err = conv.execute(&img, &mut wrong_out, &mut ctx).unwrap_err();
    assert!(matches!(err, ExecError::IoShape { which: "output", .. }), "{err:?}");

    let wrong_in = BlockedImage::zeros(1, 4, 10, 10);
    let mut out = BlockedImage::zeros(1, 8, 10, 10);
    let err = conv.execute(&wrong_in, &mut out, &mut ctx).unwrap_err();
    assert!(matches!(err, ExecError::IoShape { which: "input", .. }), "{err:?}");

    // The executor is still usable after rejected calls.
    conv.execute(&img, &mut out, &mut ctx).unwrap();
}
