//! Steady-state audit for the graph engine: once one warm-up execute has
//! grown the executors' per-worker scratch arenas, running a whole model
//! through [`CompiledGraph::execute`] performs **zero heap allocations**
//! — every activation lives in the compile-time liveness-planned arena,
//! and the per-op `BlockedImage` windows are raw views into it. That holds
//! whichever schedule the LoWino layers run: depth-first over per-worker
//! tile blocks (any real host's L2 holds these layers) or staged.
//!
//! Same `lowino_testkit::alloc` audit as the conv crate's
//! `steady_state_alloc` test: the counter is armed only around the audited
//! region, and both tests hold the binary's `audit()` guard so neither can
//! allocate inside the other's armed window.

use lowino::{CacheModel, Engine, HealthPolicy, Tensor4};
use lowino_nn::{mini_resnet, mini_vgg, CompiledGraph, GraphSpec};
use lowino_testkit::alloc::{audit, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn input(batch: usize) -> Tensor4 {
    Tensor4::from_fn(batch, 3, 8, 8, |b, c, y, x| {
        ((b * 29 + c * 13 + y * 5 + x * 3) as f32 * 0.31).sin()
    })
}

#[test]
fn miniresnet_graph_execute_is_allocation_free_in_steady_state() {
    let audit = audit();
    let x = input(2);
    let spec = GraphSpec { m: 2, batch: 2, threads: 2 };
    // A vast L2 chains every conv, none keeps them all staged.
    for (schedule, l2_bytes) in [("chained", 1 << 30), ("staged", 0)] {
        let mut model = mini_resnet(3, 8, 3, 17);
        let mut engine = Engine::new(spec.threads);
        let cache = &mut engine.context_mut().cache;
        *cache = CacheModel { l2_bytes, ..*cache };
        let mut g =
            CompiledGraph::compile_with_engine(engine, &mut model, &x, &spec, HealthPolicy::default())
                .unwrap();
        let mut logits = Tensor4::zeros(2, 3, 1, 1);
        // Warm-up: the first execute grows the per-worker scratch arenas.
        g.execute(&x, &mut logits).unwrap();
        let warm = logits.clone();

        let allocs = audit.count(|| {
            for _ in 0..3 {
                g.execute(&x, &mut logits).unwrap();
            }
        });
        assert_eq!(allocs, 0, "steady-state {schedule} graph execute must not allocate");
        assert_eq!(g.demotion_count(), 0);
        // And the steady-state runs reproduce the warm-up output bitwise.
        let same = warm
            .data()
            .iter()
            .zip(logits.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "steady-state {schedule} output drifted from warm-up");
    }
}

#[test]
fn minivgg_graph_execute_is_allocation_free_in_steady_state() {
    let audit = audit();
    let mut model = mini_vgg(3, 8, 3, 23);
    let x = input(2);
    let spec = GraphSpec { m: 2, batch: 2, threads: 1 };
    let mut g = CompiledGraph::compile(&mut model, &x, &spec).unwrap();
    let mut logits = Tensor4::zeros(2, 3, 1, 1);
    g.execute(&x, &mut logits).unwrap();

    let allocs = audit.count(|| {
        g.execute(&x, &mut logits).unwrap();
    });
    assert_eq!(allocs, 0, "steady-state graph execute must not allocate");
}
