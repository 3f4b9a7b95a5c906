//! Trainable layers with manual backpropagation.
//!
//! Each layer processes one example at a time (a matrix whose rows are
//! spatial positions or sequence tokens), caches what its backward pass
//! needs, and accumulates parameter gradients until [`Layer::step`] applies
//! them. Small and explicit beats general here: these layers exist to give
//! the accuracy experiments a real trained network, not to be a framework.

use spark_util::dist::Normal;
use spark_util::Rng;
use spark_tensor::im2col::{col2im, im2col, Conv2dSpec};
use spark_tensor::{ops, Tensor};

/// A trainable layer (single-example forward/backward).
pub trait Layer {
    /// Forward pass; caches activations for backward.
    fn forward(&mut self, x: &Tensor) -> Tensor;

    /// Backward pass: consumes the gradient w.r.t. this layer's output,
    /// accumulates parameter gradients, returns the gradient w.r.t. the
    /// input.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Applies accumulated gradients (scaled by `lr / batch`) and clears
    /// them.
    fn step(&mut self, lr: f32, batch: usize);

    /// Mutable access to the layer's weight tensors (for compression).
    fn weights_mut(&mut self) -> Vec<&mut Tensor>;

    /// Number of trainable parameters.
    fn param_count(&self) -> usize;
}

fn glorot(rows: usize, cols: usize, seed: u64) -> Tensor {
    let std = (2.0 / (rows + cols) as f32).sqrt();
    let normal = Normal::new(0.0, f64::from(std)).expect("positive std");
    let mut rng = Rng::seed_from_u64(seed);
    Tensor::from_fn(&[rows, cols], |_| normal.sample_f32(&mut rng))
}

/// Fully connected layer `y = x W + b` over row-vectors.
#[derive(Debug, Clone)]
pub struct Dense {
    w: Tensor,
    b: Vec<f32>,
    grad_w: Tensor,
    grad_b: Vec<f32>,
    cached_x: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with Glorot-initialized weights.
    pub fn new(inputs: usize, outputs: usize, seed: u64) -> Self {
        Self {
            w: glorot(inputs, outputs, seed),
            b: vec![0.0; outputs],
            grad_w: Tensor::zeros(&[inputs, outputs]),
            grad_b: vec![0.0; outputs],
            cached_x: None,
        }
    }

    /// The weight matrix (read-only).
    pub fn weight(&self) -> &Tensor {
        &self.w
    }
}

impl Layer for Dense {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        // Fused bias epilogue — bit-identical to matmul + add_bias.
        let y = ops::matmul_bias(x, &self.w, &self.b).expect("dense dims");
        self.cached_x = Some(x.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cached_x.as_ref().expect("forward before backward");
        // dW = Xᵀ G and dX = G Wᵀ via the transpose-free layouts.
        let gw = ops::matmul_tn(x, grad_out).expect("grad dims");
        self.grad_w = ops::add(&self.grad_w, &gw).expect("same shape");
        let (m, n) = grad_out.shape().as_matrix().expect("rank 2");
        let g = grad_out.as_slice();
        for i in 0..m {
            for j in 0..n {
                self.grad_b[j] += g[i * n + j];
            }
        }
        ops::matmul_nt(grad_out, &self.w).expect("grad dims")
    }

    fn step(&mut self, lr: f32, batch: usize) {
        let scale = lr / batch.max(1) as f32;
        let update = ops::scale(&self.grad_w, scale);
        self.w = ops::sub(&self.w, &update).expect("same shape");
        for (b, g) in self.b.iter_mut().zip(&self.grad_b) {
            *b -= scale * g;
        }
        self.grad_w = Tensor::zeros(self.w.dims());
        self.grad_b.iter_mut().for_each(|g| *g = 0.0);
    }

    fn weights_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.w]
    }

    fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

/// ReLU activation.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cached_x: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.cached_x = Some(x.clone());
        ops::relu(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cached_x.as_ref().expect("forward before backward");
        ops::zip_with(grad_out, x, |g, xi| if xi > 0.0 { g } else { 0.0 })
            .expect("same shape")
    }

    fn step(&mut self, _lr: f32, _batch: usize) {}

    fn weights_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn param_count(&self) -> usize {
        0
    }
}

/// Mean-pool over rows: `(m x n) -> (1 x n)`.
#[derive(Debug, Clone, Default)]
pub struct MeanPoolRows {
    cached_rows: usize,
}

impl MeanPoolRows {
    /// Creates a row mean-pooling layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for MeanPoolRows {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let (m, n) = x.shape().as_matrix().expect("rank 2");
        self.cached_rows = m;
        let xs = x.as_slice();
        let mut out = vec![0.0f32; n];
        for i in 0..m {
            for j in 0..n {
                out[j] += xs[i * n + j];
            }
        }
        for v in &mut out {
            *v /= m.max(1) as f32;
        }
        Tensor::from_vec(out, &[1, n]).expect("length matches")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (_, n) = grad_out.shape().as_matrix().expect("rank 2");
        let m = self.cached_rows.max(1);
        let g = grad_out.as_slice();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[i * n + j] = g[j] / m as f32;
            }
        }
        Tensor::from_vec(out, &[m, n]).expect("length matches")
    }

    fn step(&mut self, _lr: f32, _batch: usize) {}

    fn weights_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn param_count(&self) -> usize {
        0
    }
}

/// First-layer 2-D convolution via im2col.
///
/// Input: flattened `C x H x W` image as a `(1, C*H*W)` row; output: the
/// `(out_h*out_w, out_channels)` patch-response matrix. As the first layer
/// it does not propagate gradients to its input.
#[derive(Debug, Clone)]
pub struct ConvFirst {
    spec: Conv2dSpec,
    h: usize,
    w: usize,
    /// Flattened filters: `(C*k*k, out_channels)`.
    filters: Tensor,
    grad_f: Tensor,
    cached_patches: Option<Tensor>,
}

impl ConvFirst {
    /// Creates a first-layer convolution.
    pub fn new(spec: Conv2dSpec, h: usize, w: usize, seed: u64) -> Self {
        let k = spec.in_channels * spec.kernel * spec.kernel;
        Self {
            spec,
            h,
            w,
            filters: glorot(k, spec.out_channels, seed),
            grad_f: Tensor::zeros(&[k, spec.out_channels]),
            cached_patches: None,
        }
    }
}

impl Layer for ConvFirst {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let img = x
            .reshape(&[self.spec.in_channels, self.h, self.w])
            .expect("input matches conv geometry");
        let patches = im2col(&img, &self.spec).expect("valid conv");
        let y = ops::matmul(&patches, &self.filters).expect("conv dims");
        self.cached_patches = Some(patches);
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let patches = self
            .cached_patches
            .as_ref()
            .expect("forward before backward");
        let gf = ops::matmul_tn(patches, grad_out).expect("grad dims");
        self.grad_f = ops::add(&self.grad_f, &gf).expect("same shape");
        // First layer: input gradient unused.
        Tensor::zeros(&[1, self.spec.in_channels * self.h * self.w])
    }

    fn step(&mut self, lr: f32, batch: usize) {
        let scale = lr / batch.max(1) as f32;
        let update = ops::scale(&self.grad_f, scale);
        self.filters = ops::sub(&self.filters, &update).expect("same shape");
        self.grad_f = Tensor::zeros(self.filters.dims());
    }

    fn weights_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.filters]
    }

    fn param_count(&self) -> usize {
        self.filters.len()
    }
}

/// A full 2-D convolution layer usable anywhere in the network: propagates
/// gradients to its input via `col2im` (the adjoint of the im2col
/// lowering), so conv layers can be stacked.
///
/// Input/output convention: the activation tensor is the `(positions,
/// channels)` matrix a previous conv produced (or a `(1, C*H*W)` row for
/// the network input) — the layer reinterprets it as `C x H x W`.
#[derive(Debug, Clone)]
pub struct Conv2d {
    spec: Conv2dSpec,
    h: usize,
    w: usize,
    /// Flattened filters: `(C*k*k, out_channels)`.
    filters: Tensor,
    grad_f: Tensor,
    cached_patches: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution over `h x w` inputs.
    pub fn new(spec: Conv2dSpec, h: usize, w: usize, seed: u64) -> Self {
        let k = spec.in_channels * spec.kernel * spec.kernel;
        Self {
            spec,
            h,
            w,
            filters: glorot(k, spec.out_channels, seed),
            grad_f: Tensor::zeros(&[k, spec.out_channels]),
            cached_patches: None,
        }
    }

    /// Output spatial size.
    pub fn output_hw(&self) -> (usize, usize) {
        self.spec
            .output_hw(self.h, self.w)
            .expect("constructor geometry is valid")
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        // Accept either (1, C*H*W) rows or (H*W, C) matrices from an
        // upstream conv; both flatten to C*H*W elements. Upstream convs
        // produce (positions, channels) which must be transposed to
        // channel-major before the reshape.
        let img = if x.dims().len() == 2 && x.dims()[0] == self.h * self.w {
            ops::transpose(x)
                .expect("rank 2")
                .reshape(&[self.spec.in_channels, self.h, self.w])
                .expect("geometry matches")
        } else {
            x.reshape(&[self.spec.in_channels, self.h, self.w])
                .expect("geometry matches")
        };
        let patches = im2col(&img, &self.spec).expect("valid conv");
        let y = ops::matmul(&patches, &self.filters).expect("conv dims");
        self.cached_patches = Some(patches);
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let patches = self
            .cached_patches
            .as_ref()
            .expect("forward before backward");
        let gf = ops::matmul_tn(patches, grad_out).expect("grad dims");
        self.grad_f = ops::add(&self.grad_f, &gf).expect("same shape");
        // Input gradient: dPatches = dY . F^T, scattered back by col2im,
        // then re-expressed in the (positions, channels) layout upstream
        // layers produced.
        let d_patches = ops::matmul_nt(grad_out, &self.filters).expect("grad dims");
        let d_img = col2im(&d_patches, &self.spec, self.h, self.w).expect("geometry");
        let chw = d_img
            .reshape(&[self.spec.in_channels, self.h * self.w])
            .expect("flatten");
        ops::transpose(&chw).expect("rank 2")
    }

    fn step(&mut self, lr: f32, batch: usize) {
        let scale = lr / batch.max(1) as f32;
        let update = ops::scale(&self.grad_f, scale);
        self.filters = ops::sub(&self.filters, &update).expect("same shape");
        self.grad_f = Tensor::zeros(self.filters.dims());
    }

    fn weights_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.filters]
    }

    fn param_count(&self) -> usize {
        self.filters.len()
    }
}

/// Reshape `(m x n)` to `(1, m*n)` (flatten between conv and dense).
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cached_dims: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.cached_dims = x.dims().to_vec();
        x.reshape(&[1, x.len()]).expect("flatten")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.reshape(&self.cached_dims).expect("unflatten")
    }

    fn step(&mut self, _lr: f32, _batch: usize) {}

    fn weights_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn param_count(&self) -> usize {
        0
    }
}

/// Adds a fixed sinusoidal positional encoding to a `(seq, d)` matrix.
///
/// Required by the attention proxy: the `token_patterns` task addresses by
/// position, which content-only attention cannot express.
#[derive(Debug, Clone)]
pub struct PositionalEncoding {
    table: Tensor,
}

impl PositionalEncoding {
    /// Creates the encoding table for `seq` positions of width `d`.
    pub fn new(seq: usize, d: usize) -> Self {
        let mut data = vec![0.0f32; seq * d];
        for pos in 0..seq {
            for i in 0..d {
                let angle = pos as f32 / (10_000f32).powf((2 * (i / 2)) as f32 / d as f32);
                data[pos * d + i] = if i % 2 == 0 { angle.sin() } else { angle.cos() };
            }
        }
        Self {
            table: Tensor::from_vec(data, &[seq, d]).expect("length matches"),
        }
    }
}

impl Layer for PositionalEncoding {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        ops::add(x, &self.table).expect("input matches table shape")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.clone()
    }

    fn step(&mut self, _lr: f32, _batch: usize) {}

    fn weights_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn param_count(&self) -> usize {
        0
    }
}

/// Single-head self-attention: `softmax(QK^T / sqrt(d)) V`, then an output
/// projection. Input and output are `(seq, d)` matrices.
#[derive(Debug, Clone)]
pub struct SelfAttention {
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    wo: Tensor,
    grads: [Tensor; 4],
    cache: Option<AttnCache>,
    d: usize,
}

#[derive(Debug, Clone)]
struct AttnCache {
    x: Tensor,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    a: Tensor,
    y: Tensor,
}

impl SelfAttention {
    /// Creates a single-head self-attention layer of width `d`.
    pub fn new(d: usize, seed: u64) -> Self {
        Self {
            wq: glorot(d, d, seed),
            wk: glorot(d, d, seed.wrapping_add(1)),
            wv: glorot(d, d, seed.wrapping_add(2)),
            wo: glorot(d, d, seed.wrapping_add(3)),
            grads: [
                Tensor::zeros(&[d, d]),
                Tensor::zeros(&[d, d]),
                Tensor::zeros(&[d, d]),
                Tensor::zeros(&[d, d]),
            ],
            cache: None,
            d,
        }
    }
}

impl Layer for SelfAttention {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let q = ops::matmul(x, &self.wq).expect("attn dims");
        let k = ops::matmul(x, &self.wk).expect("attn dims");
        let v = ops::matmul(x, &self.wv).expect("attn dims");
        let scores = ops::scale(
            &ops::matmul_nt(&q, &k).expect("attn dims"),
            1.0 / (self.d as f32).sqrt(),
        );
        let a = ops::softmax_rows(&scores).expect("rank 2");
        let y = ops::matmul(&a, &v).expect("attn dims");
        let out = ops::matmul(&y, &self.wo).expect("attn dims");
        self.cache = Some(AttnCache {
            x: x.clone(),
            q,
            k,
            v,
            a,
            y,
        });
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let c = self.cache.as_ref().expect("forward before backward");
        let scale = 1.0 / (self.d as f32).sqrt();
        // out = Y Wo
        let g_wo = ops::matmul_tn(&c.y, grad_out).expect("dims");
        let d_y = ops::matmul_nt(grad_out, &self.wo).expect("dims");
        // Y = A V
        let d_a = ops::matmul_nt(&d_y, &c.v).expect("dims");
        let d_v = ops::matmul_tn(&c.a, &d_y).expect("dims");
        // A = softmax(S): dS = A ⊙ (dA - rowsum(dA ⊙ A))
        let (m, n) = c.a.shape().as_matrix().expect("rank 2");
        let av = c.a.as_slice();
        let dav = d_a.as_slice();
        let mut ds = vec![0.0f32; m * n];
        for i in 0..m {
            let row = i * n;
            let dot: f32 = (0..n).map(|j| dav[row + j] * av[row + j]).sum();
            for j in 0..n {
                ds[row + j] = av[row + j] * (dav[row + j] - dot);
            }
        }
        let d_s = ops::scale(
            &Tensor::from_vec(ds, &[m, n]).expect("length"),
            scale,
        );
        // S = Q K^T
        let d_q = ops::matmul(&d_s, &c.k).expect("dims");
        let d_k = ops::matmul_tn(&d_s, &c.q).expect("dims");
        // Projections.
        let g_wq = ops::matmul_tn(&c.x, &d_q).expect("dims");
        let g_wk = ops::matmul_tn(&c.x, &d_k).expect("dims");
        let g_wv = ops::matmul_tn(&c.x, &d_v).expect("dims");
        for (g, new) in self.grads.iter_mut().zip([g_wq, g_wk, g_wv, g_wo]) {
            *g = ops::add(g, &new).expect("same shape");
        }
        // dX = dQ Wq^T + dK Wk^T + dV Wv^T
        let mut dx = ops::matmul_nt(&d_q, &self.wq).expect("dims");
        dx = ops::add(&dx, &ops::matmul_nt(&d_k, &self.wk).expect("dims")).expect("same shape");
        ops::add(&dx, &ops::matmul_nt(&d_v, &self.wv).expect("dims")).expect("same shape")
    }

    fn step(&mut self, lr: f32, batch: usize) {
        let scale = lr / batch.max(1) as f32;
        for (w, g) in [&mut self.wq, &mut self.wk, &mut self.wv, &mut self.wo]
            .into_iter()
            .zip(self.grads.iter_mut())
        {
            let update = ops::scale(g, scale);
            *w = ops::sub(w, &update).expect("same shape");
            *g = Tensor::zeros(w.dims());
        }
    }

    fn weights_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.wq, &mut self.wk, &mut self.wv, &mut self.wo]
    }

    fn param_count(&self) -> usize {
        4 * self.d * self.d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_difference_check<L: Layer>(layer: &mut L, x: &Tensor, eps: f32) -> (f32, f32) {
        // Loss = sum of outputs. Analytic input grad vs finite difference on
        // one input coordinate.
        let y = layer.forward(x);
        let ones = Tensor::full(y.dims(), 1.0);
        let gx = layer.backward(&ones);
        // perturb coordinate 0
        let mut xp = x.clone();
        xp.as_mut_slice()[0] += eps;
        let yp = layer.forward(&xp);
        let f0: f32 = y.as_slice().iter().sum();
        let f1: f32 = yp.as_slice().iter().sum();
        ((f1 - f0) / eps, gx.as_slice()[0])
    }

    #[test]
    fn dense_forward_shape_and_bias() {
        let mut d = Dense::new(3, 2, 1);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let y = d.forward(&x);
        assert_eq!(y.dims(), &[1, 2]);
    }

    #[test]
    fn dense_gradient_matches_finite_difference() {
        let mut d = Dense::new(4, 3, 2);
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.1], &[1, 4]).unwrap();
        let (fd, an) = finite_difference_check(&mut d, &x, 1e-3);
        assert!((fd - an).abs() < 1e-2, "fd {fd} vs analytic {an}");
    }

    #[test]
    fn dense_step_reduces_loss() {
        // One step of gradient descent on loss = sum(y) must reduce sum(y).
        let mut d = Dense::new(2, 2, 3);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y0: f32 = d.forward(&x).as_slice().iter().sum();
        let ones = Tensor::full(&[1, 2], 1.0);
        d.backward(&ones);
        d.step(0.1, 1);
        let y1: f32 = d.forward(&x).as_slice().iter().sum();
        assert!(y1 < y0);
    }

    #[test]
    fn relu_gradient_masks() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]).unwrap();
        let _ = r.forward(&x);
        let g = r.backward(&Tensor::full(&[1, 2], 1.0));
        assert_eq!(g.as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn meanpool_gradient_spreads() {
        let mut p = MeanPoolRows::new();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let y = p.forward(&x);
        assert_eq!(y.as_slice(), &[2.0, 3.0]);
        let g = p.backward(&Tensor::full(&[1, 2], 1.0));
        assert_eq!(g.as_slice(), &[0.5, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn conv_first_shapes() {
        let spec = Conv2dSpec {
            in_channels: 1,
            out_channels: 4,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let mut c = ConvFirst::new(spec, 8, 8, 5);
        let x = Tensor::zeros(&[1, 64]);
        let y = c.forward(&x);
        assert_eq!(y.dims(), &[64, 4]);
        assert_eq!(c.param_count(), 9 * 4);
    }

    #[test]
    fn conv_filters_receive_gradient() {
        let spec = Conv2dSpec {
            in_channels: 1,
            out_channels: 2,
            kernel: 2,
            stride: 1,
            padding: 0,
        };
        let mut c = ConvFirst::new(spec, 3, 3, 6);
        let x = Tensor::from_fn(&[1, 9], |i| i as f32);
        let y = c.forward(&x);
        let before = c.filters.clone();
        c.backward(&Tensor::full(y.dims(), 1.0));
        c.step(0.01, 1);
        assert_ne!(c.filters, before);
    }

    #[test]
    fn flatten_round_trip() {
        let mut f = Flatten::new();
        let x = Tensor::from_fn(&[3, 4], |i| i as f32);
        let y = f.forward(&x);
        assert_eq!(y.dims(), &[1, 12]);
        let g = f.backward(&y);
        assert_eq!(g.dims(), &[3, 4]);
    }

    #[test]
    fn conv2d_stacks_and_propagates_gradients() {
        // Two stacked convs: the first must receive gradient through the
        // second's col2im path.
        let spec1 = Conv2dSpec {
            in_channels: 1,
            out_channels: 3,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let spec2 = Conv2dSpec {
            in_channels: 3,
            out_channels: 2,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let mut c1 = Conv2d::new(spec1, 6, 6, 11);
        let mut c2 = Conv2d::new(spec2, 6, 6, 12);
        let x = Tensor::from_fn(&[1, 36], |i| (i as f32 * 0.1).sin());
        let h = c1.forward(&x);
        assert_eq!(h.dims(), &[36, 3]);
        let y = c2.forward(&h);
        assert_eq!(y.dims(), &[36, 2]);
        let g = c2.backward(&Tensor::full(y.dims(), 1.0));
        assert_eq!(g.dims(), &[36, 3]);
        let f1_before = c1.filters.clone();
        c1.backward(&g);
        c1.step(0.1, 1);
        assert_ne!(c1.filters, f1_before, "first conv got gradient");
    }

    #[test]
    fn conv2d_input_gradient_matches_finite_difference() {
        let spec = Conv2dSpec {
            in_channels: 1,
            out_channels: 2,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let mut c = Conv2d::new(spec, 4, 4, 13);
        let x = Tensor::from_fn(&[1, 16], |i| (i as f32 * 0.37).cos() * 0.5);
        let (fd, an) = finite_difference_check(&mut c, &x, 1e-3);
        assert!((fd - an).abs() < 0.05 * fd.abs().max(1.0), "fd {fd} vs an {an}");
    }

    #[test]
    fn attention_forward_shapes() {
        let mut a = SelfAttention::new(8, 7);
        let x = Tensor::from_fn(&[5, 8], |i| (i as f32 * 0.1).sin());
        let y = a.forward(&x);
        assert_eq!(y.dims(), &[5, 8]);
    }

    #[test]
    fn attention_gradient_matches_finite_difference() {
        let mut a = SelfAttention::new(4, 8);
        let x = Tensor::from_fn(&[3, 4], |i| (i as f32 * 0.3).cos() * 0.5);
        let (fd, an) = finite_difference_check(&mut a, &x, 1e-3);
        assert!(
            (fd - an).abs() < 0.05 * fd.abs().max(1.0),
            "fd {fd} vs analytic {an}"
        );
    }

    #[test]
    fn attention_step_changes_all_projections() {
        let mut a = SelfAttention::new(4, 9);
        let x = Tensor::from_fn(&[3, 4], |i| (i as f32 * 0.3).sin());
        let before: Vec<Tensor> = vec![a.wq.clone(), a.wk.clone(), a.wv.clone(), a.wo.clone()];
        let y = a.forward(&x);
        a.backward(&Tensor::full(y.dims(), 1.0));
        a.step(0.5, 1);
        let after = [&a.wq, &a.wk, &a.wv, &a.wo];
        for (b, &aft) in before.iter().zip(after.iter()) {
            assert_ne!(b, aft);
        }
    }

    #[test]
    fn param_counts() {
        assert_eq!(Dense::new(3, 4, 0).param_count(), 16);
        assert_eq!(SelfAttention::new(8, 0).param_count(), 256);
        assert_eq!(Relu::new().param_count(), 0);
    }
}
