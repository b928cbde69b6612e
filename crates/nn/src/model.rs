//! Model composition and the two Mini architectures.

use lowino::Tensor4;
use lowino_testkit::Rng;

use crate::layers::{
    Conv2dLayer, GapLayer, Layer, LinearLayer, MaxPoolLayer, ReluLayer, ResidualBlock,
};

/// A sequential model.
pub struct Model {
    /// Layers in execution order.
    pub layers: Vec<Layer>,
    classes: usize,
}

impl Model {
    /// Wrap layers.
    pub fn new(layers: Vec<Layer>, classes: usize) -> Self {
        Self { layers, classes }
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Full forward pass to logits `(B, classes, 1, 1)`.
    pub fn forward(&mut self, x: &Tensor4) -> Tensor4 {
        let mut h = x.clone();
        for l in self.layers.iter_mut() {
            h = l.forward(&h);
        }
        h
    }

    /// Backward pass from logit gradients.
    pub fn backward(&mut self, g: &Tensor4) {
        let mut g = g.clone();
        for l in self.layers.iter_mut().rev() {
            g = l.backward(&g);
        }
    }

    /// SGD step over all parameters.
    pub fn step(&mut self, lr: f32, momentum: f32) {
        for l in self.layers.iter_mut() {
            l.step(lr, momentum);
        }
    }

    /// Predicted class per sample from logits.
    pub fn predict(&mut self, x: &Tensor4) -> Vec<usize> {
        let logits = self.forward(x);
        let (b, k, _, _) = logits.dims();
        (0..b)
            .map(|bi| {
                (0..k)
                    .max_by(|&a, &b2| logits.at(bi, a, 0, 0).total_cmp(&logits.at(bi, b2, 0, 0)))
                    .unwrap_or(0)
            })
            .collect()
    }
}

/// MiniVGG: plain 3×3 stacks with max-pooling — the small-scale analogue of
/// the paper's VGG16 row in Table 3.
///
/// `size` is the (even) input resolution; two pools reduce it 4×.
pub fn mini_vgg(in_c: usize, width: usize, classes: usize, seed: u64) -> Model {
    let mut rng = Rng::seed_from_u64(seed);
    let layers = vec![
        Layer::Conv(Conv2dLayer::new(in_c, width, 3, &mut rng)),
        Layer::ReLU(ReluLayer::new()),
        Layer::Conv(Conv2dLayer::new(width, width, 3, &mut rng)),
        Layer::ReLU(ReluLayer::new()),
        Layer::MaxPool(MaxPoolLayer::new()),
        Layer::Conv(Conv2dLayer::new(width, width, 3, &mut rng)),
        Layer::ReLU(ReluLayer::new()),
        Layer::Conv(Conv2dLayer::new(width, width, 3, &mut rng)),
        Layer::ReLU(ReluLayer::new()),
        Layer::MaxPool(MaxPoolLayer::new()),
        Layer::Gap(GapLayer::new()),
        Layer::Linear(LinearLayer::new(width, classes, &mut rng)),
    ];
    Model::new(layers, classes)
}

/// MiniResNet: a stem conv plus three identity residual blocks, the first
/// two each followed by a max-pool — the small-scale analogue of the
/// paper's ResNet-50 row in Table 3.
pub fn mini_resnet(in_c: usize, width: usize, classes: usize, seed: u64) -> Model {
    let mut rng = Rng::seed_from_u64(seed);
    let block = |rng: &mut Rng| {
        Layer::Residual(ResidualBlock::new(vec![
            Layer::Conv(Conv2dLayer::new(width, width, 3, rng)),
            Layer::ReLU(ReluLayer::new()),
            Layer::Conv(Conv2dLayer::new(width, width, 3, rng)),
        ]))
    };
    let layers = vec![
        Layer::Conv(Conv2dLayer::new(in_c, width, 3, &mut rng)),
        Layer::ReLU(ReluLayer::new()),
        block(&mut rng),
        Layer::MaxPool(MaxPoolLayer::new()),
        block(&mut rng),
        Layer::MaxPool(MaxPoolLayer::new()),
        block(&mut rng),
        Layer::Gap(GapLayer::new()),
        Layer::Linear(LinearLayer::new(width, classes, &mut rng)),
    ];
    Model::new(layers, classes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minivgg_shapes() {
        let mut m = mini_vgg(3, 16, 5, 1);
        let x = Tensor4::zeros(2, 3, 8, 8);
        let logits = m.forward(&x);
        assert_eq!(logits.dims(), (2, 5, 1, 1));
        assert_eq!(m.classes(), 5);
    }

    #[test]
    fn miniresnet_shapes() {
        let mut m = mini_resnet(3, 16, 4, 2);
        let x = Tensor4::zeros(1, 3, 8, 8);
        let logits = m.forward(&x);
        assert_eq!(logits.dims(), (1, 4, 1, 1));
    }

    #[test]
    fn predict_returns_argmax() {
        let mut m = mini_vgg(2, 8, 3, 5);
        let x = Tensor4::from_fn(4, 2, 8, 8, |b, c, y, xx| ((b + c + y + xx) as f32 * 0.3).sin());
        let preds = m.predict(&x);
        assert_eq!(preds.len(), 4);
        assert!(preds.iter().all(|&p| p < 3));
        // Deterministic.
        assert_eq!(preds, m.predict(&x));
    }

    #[test]
    fn backward_and_step_change_output() {
        let mut m = mini_vgg(2, 8, 2, 3);
        let x = Tensor4::from_fn(2, 2, 8, 8, |b, c, y, xx| ((b + c + y + xx) as f32 * 0.5).cos());
        let l0 = m.forward(&x);
        m.backward(&l0); // gradient = logits (arbitrary non-zero)
        m.step(0.05, 0.0);
        let l1 = m.forward(&x);
        assert!(l1.max_abs_diff(&l0) > 0.0);
    }
}
