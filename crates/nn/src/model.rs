//! Sequential model container with softmax cross-entropy loss.

use spark_tensor::{ops, Tensor};

use crate::layers::Layer;

/// A stack of layers trained with softmax cross-entropy.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    name: String,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("name", &self.name)
            .field("layers", &self.layers.len())
            .field("params", &self.param_count())
            .finish()
    }
}

impl Sequential {
    /// Creates an empty model.
    pub fn new(name: &str) -> Self {
        Self {
            layers: Vec::new(),
            name: name.to_string(),
        }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Forward pass to logits. The final layer's output is interpreted as a
    /// `(1, classes)` (or `(rows, classes)`, pooled by the caller) logit
    /// row.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = layer.forward(&h);
        }
        h
    }

    /// Forward pass with a hook applied to every intermediate activation
    /// (after each layer except the final logits). Used to simulate
    /// activation quantization/encoding on the datapath: pass a hook that
    /// round-trips the tensor through a codec.
    pub fn forward_with_activation_hook(
        &mut self,
        x: &Tensor,
        hook: &dyn Fn(&Tensor) -> Tensor,
    ) -> Tensor {
        let mut h = x.clone();
        let last = self.layers.len().saturating_sub(1);
        for (i, layer) in self.layers.iter_mut().enumerate() {
            h = layer.forward(&h);
            if i < last {
                h = hook(&h);
            }
        }
        h
    }

    /// Predicted class with an activation hook (see
    /// [`Sequential::forward_with_activation_hook`]).
    pub fn predict_with_activation_hook(
        &mut self,
        x: &Tensor,
        hook: &dyn Fn(&Tensor) -> Tensor,
    ) -> usize {
        let logits = self.forward_with_activation_hook(x, hook);
        let l = logits.as_slice();
        l.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Forward + softmax cross-entropy against `label`; returns the loss and
    /// leaves gradients accumulated in every layer.
    pub fn train_example(&mut self, x: &Tensor, label: usize) -> f32 {
        let logits = self.forward(x);
        let probs = ops::softmax_rows(&logits).expect("logits are rank 2");
        let n = probs.len();
        let p = probs.as_slice();
        let loss = -(p[label.min(n - 1)].max(1e-12)).ln();
        // dL/dlogits = p - onehot(label)
        let mut grad: Vec<f32> = p.to_vec();
        grad[label.min(n - 1)] -= 1.0;
        let mut g = Tensor::from_vec(grad, logits.dims()).expect("same length");
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        loss
    }

    /// Applies accumulated gradients across all layers.
    pub fn step(&mut self, lr: f32, batch: usize) {
        for layer in &mut self.layers {
            layer.step(lr, batch);
        }
    }

    /// Predicted class for one example.
    pub fn predict(&mut self, x: &Tensor) -> usize {
        let logits = self.forward(x);
        let l = logits.as_slice();
        l.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Mutable access to every weight tensor across layers.
    pub fn weights_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.weights_mut())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};

    fn xor_like_model() -> Sequential {
        Sequential::new("test")
            .push(Dense::new(2, 8, 1))
            .push(Relu::new())
            .push(Dense::new(8, 2, 2))
    }

    #[test]
    fn forward_produces_logits() {
        let mut m = xor_like_model();
        let x = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]).unwrap();
        let y = m.forward(&x);
        assert_eq!(y.dims(), &[1, 2]);
    }

    #[test]
    fn training_reduces_loss() {
        let mut m = xor_like_model();
        // Tiny dataset: class = x0 > x1.
        let examples = [
            (vec![1.0f32, 0.0], 0usize),
            (vec![0.0, 1.0], 1),
            (vec![0.9, 0.1], 0),
            (vec![0.2, 0.8], 1),
        ];
        let loss_of = |m: &mut Sequential| -> f32 {
            examples
                .iter()
                .map(|(x, l)| {
                    let t = Tensor::from_vec(x.clone(), &[1, 2]).unwrap();
                    let logits = m.forward(&t);
                    let p = ops::softmax_rows(&logits).unwrap();
                    -p.as_slice()[*l].max(1e-12).ln()
                })
                .sum()
        };
        let before = loss_of(&mut m);
        for _ in 0..50 {
            for (x, l) in &examples {
                let t = Tensor::from_vec(x.clone(), &[1, 2]).unwrap();
                m.train_example(&t, *l);
            }
            m.step(0.5, examples.len());
        }
        let after = loss_of(&mut m);
        assert!(after < before * 0.5, "loss {before} -> {after}");
    }

    #[test]
    fn predict_returns_argmax() {
        let mut m = xor_like_model();
        let x = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]).unwrap();
        let p = m.predict(&x);
        assert!(p < 2);
    }

    #[test]
    fn weights_mut_exposes_all_dense_weights() {
        let mut m = xor_like_model();
        assert_eq!(m.weights_mut().len(), 2);
    }

    #[test]
    fn param_count_sums_layers() {
        let m = xor_like_model();
        assert_eq!(m.param_count(), (2 * 8 + 8) + (8 * 2 + 2));
    }
}
