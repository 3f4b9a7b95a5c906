//! Elementwise and linear-algebra operations on [`Tensor`].

use crate::encoded::{EncodedError, EncodedMatrix};
use crate::gemm::{self, Epilogue, Layout};
use crate::{Tensor, ShapeError};

fn matmul_dims(a: &Tensor, b: &Tensor) -> Result<(usize, usize, usize), ShapeError> {
    let (m, ka) = a.shape().as_matrix()?;
    let (kb, n) = b.shape().as_matrix()?;
    if ka != kb {
        return Err(ShapeError::new(format!(
            "matmul inner dims differ: {ka} vs {kb}"
        )));
    }
    Ok((m, ka, n))
}

/// Matrix multiplication `A (m x k) * B (k x n) -> C (m x n)`.
///
/// Higher-rank inputs are interpreted as matrices by collapsing leading
/// dimensions (see [`crate::Shape::as_matrix`]).
///
/// Executed by the blocked, SIMD-dispatched [`crate::gemm`] backend; the
/// result is bit-identical to [`matmul_reference`].
///
/// # Errors
///
/// Returns [`ShapeError`] when the inner dimensions differ or either input is
/// a scalar.
///
/// ```
/// use spark_tensor::{Tensor, ops};
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2])?;
/// let c = ops::matmul(&a, &b)?;
/// assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
/// # Ok::<(), spark_tensor::ShapeError>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    let (m, k, n) = matmul_dims(a, b)?;
    let out = gemm::gemm_auto(Layout::Nn, a.as_slice(), b.as_slice(), m, k, n, Epilogue::None);
    Tensor::from_vec(out, &[m, n])
}

/// The original scalar `matmul` kernel, retained verbatim as the oracle the
/// turbo backend is proven bit-identical against (and as the baseline the
/// GEMM benchmark reports speedup over).
///
/// # Errors
///
/// Returns [`ShapeError`] under the same conditions as [`matmul`].
pub fn matmul_reference(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    let (m, k, n) = matmul_dims(a, b)?;
    let out = gemm::reference(Layout::Nn, a.as_slice(), b.as_slice(), m, k, n, Epilogue::None);
    Tensor::from_vec(out, &[m, n])
}

/// Transpose-free `A · Bᵀ`: `A` is `m x k`, `B` is `n x k`, the result is
/// `m x n` — bit-identical to `matmul(a, &transpose(b))` without
/// materializing the transpose (the backend packs `B` straight into
/// column panels).
///
/// # Errors
///
/// Returns [`ShapeError`] when the `k` dimensions differ or either input is
/// a scalar.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    let (m, ka) = a.shape().as_matrix()?;
    let (n, kb) = b.shape().as_matrix()?;
    if ka != kb {
        return Err(ShapeError::new(format!(
            "matmul_nt inner dims differ: {ka} vs {kb}"
        )));
    }
    let out = gemm::gemm_auto(Layout::Nt, a.as_slice(), b.as_slice(), m, ka, n, Epilogue::None);
    Tensor::from_vec(out, &[m, n])
}

/// Transpose-free `Aᵀ · B`: `A` is `k x m`, `B` is `k x n`, the result is
/// `m x n` — bit-identical to `matmul(&transpose(a), b)` without
/// materializing the transpose (the kernels read `A` down its columns).
///
/// # Errors
///
/// Returns [`ShapeError`] when the `k` dimensions differ or either input is
/// a scalar.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    let (ka, m) = a.shape().as_matrix()?;
    let (kb, n) = b.shape().as_matrix()?;
    if ka != kb {
        return Err(ShapeError::new(format!(
            "matmul_tn inner dims differ: {ka} vs {kb}"
        )));
    }
    let out = gemm::gemm_auto(Layout::Tn, a.as_slice(), b.as_slice(), m, ka, n, Epilogue::None);
    Tensor::from_vec(out, &[m, n])
}

/// `matmul` with the bias row added in the output epilogue — bit-identical
/// to `add_bias(&matmul(a, b)?, bias)` in one pass.
///
/// # Errors
///
/// Returns [`ShapeError`] on a dimension mismatch or when `bias.len()`
/// differs from the column count.
pub fn matmul_bias(a: &Tensor, b: &Tensor, bias: &[f32]) -> Result<Tensor, ShapeError> {
    let (m, k, n) = matmul_dims(a, b)?;
    if bias.len() != n {
        return Err(ShapeError::element_count(n, bias.len()));
    }
    let out = gemm::gemm_auto(
        Layout::Nn,
        a.as_slice(),
        b.as_slice(),
        m,
        k,
        n,
        Epilogue::Bias(bias),
    );
    Tensor::from_vec(out, &[m, n])
}

/// `matmul` with bias and ReLU fused into the output epilogue —
/// bit-identical to `relu(&add_bias(&matmul(a, b)?, bias)?)` in one pass.
///
/// # Errors
///
/// Returns [`ShapeError`] on a dimension mismatch or when `bias.len()`
/// differs from the column count.
pub fn matmul_bias_relu(a: &Tensor, b: &Tensor, bias: &[f32]) -> Result<Tensor, ShapeError> {
    let (m, k, n) = matmul_dims(a, b)?;
    if bias.len() != n {
        return Err(ShapeError::element_count(n, bias.len()));
    }
    let out = gemm::gemm_auto(
        Layout::Nn,
        a.as_slice(),
        b.as_slice(),
        m,
        k,
        n,
        Epilogue::BiasRelu(bias),
    );
    Tensor::from_vec(out, &[m, n])
}

fn matmul_encoded_dims(a: &Tensor, b: &EncodedMatrix) -> Result<usize, EncodedError> {
    let (m, ka) = a.shape().as_matrix()?;
    if ka != b.k() {
        return Err(EncodedError::Shape(ShapeError::new(format!(
            "matmul inner dims differ: {ka} vs encoded {}",
            b.k()
        ))));
    }
    Ok(m)
}

/// [`matmul`] over a SPARK-encoded `B`: `A (m x k) * B (k x n) -> C
/// (m x n)` where `B` stays resident as nibble streams and is decoded
/// panel-by-panel inside the GEMM loop.
///
/// Below [`gemm::MR`] rows (a GEMV, every `/v1/infer` call) the result is
/// bit-identical to `matmul(a, &b.decode()?)` — and therefore to
/// [`matmul_reference`] over the decoded matrix. At `m >= MR` it may take
/// the integer-domain path (see [`crate::gemm`]): within a relative L2
/// error of `1e-3` per row of [`gemm::gemm_encoded_with`], the `f32` path
/// that stays bit-identical at every `m`. A non-finite `A` always takes
/// the `f32` path.
///
/// # Errors
///
/// Returns [`EncodedError`] on a dimension mismatch. The panels were
/// validated when `b` was built.
pub fn matmul_encoded(a: &Tensor, b: &EncodedMatrix) -> Result<Tensor, EncodedError> {
    let m = matmul_encoded_dims(a, b)?;
    let out = gemm::gemm_encoded_auto(a.as_slice(), b, m, Epilogue::None)?;
    Tensor::from_vec(out, &[m, b.n()]).map_err(EncodedError::Shape)
}

/// [`matmul_nt`] over a SPARK-encoded weight: multiplies `A (m x k)` by
/// the transpose of the `n x k` matrix the operand was built from with
/// [`EncodedMatrix::encode_transposed`].
///
/// The blocked transpose already happened at encode time (the panels hold
/// the logical `k x n` operand), so this *is* the same fused walk as
/// [`matmul_encoded`] — the distinct name documents intent at call sites
/// that mirror a dense `matmul_nt`. Below [`gemm::MR`] rows it is
/// bit-identical to `matmul_nt(a, &source)` when the source round-trips
/// losslessly, and to `matmul(a, &b.decode()?)` always; at `m >= MR` the
/// bounded error of [`matmul_encoded`] applies.
///
/// # Errors
///
/// Returns [`EncodedError`] on a dimension mismatch. The panels were
/// validated when `b` was built.
pub fn matmul_nt_encoded(a: &Tensor, b: &EncodedMatrix) -> Result<Tensor, EncodedError> {
    matmul_encoded(a, b)
}

/// [`matmul_bias`] over a SPARK-encoded `B` — bias fused into the output
/// epilogue of the decode-fused GEMM. Bit-identical to `matmul_bias(a,
/// &b.decode()?, bias)` below [`gemm::MR`] rows, within the bounded error
/// of [`matmul_encoded`] at `m >= MR`.
///
/// # Errors
///
/// Returns [`EncodedError`] on a dimension mismatch or a wrong bias
/// length.
pub fn matmul_bias_encoded(
    a: &Tensor,
    b: &EncodedMatrix,
    bias: &[f32],
) -> Result<Tensor, EncodedError> {
    let m = matmul_encoded_dims(a, b)?;
    if bias.len() != b.n() {
        return Err(EncodedError::Shape(ShapeError::element_count(
            b.n(),
            bias.len(),
        )));
    }
    let out = gemm::gemm_encoded_auto(a.as_slice(), b, m, Epilogue::Bias(bias))?;
    Tensor::from_vec(out, &[m, b.n()]).map_err(EncodedError::Shape)
}

/// [`matmul_bias_relu`] over a SPARK-encoded `B` — bias and ReLU fused
/// into the output epilogue of the decode-fused GEMM. Bit-identical to
/// `matmul_bias_relu(a, &b.decode()?, bias)` below [`gemm::MR`] rows,
/// within the bounded error of [`matmul_encoded`] at `m >= MR`.
///
/// # Errors
///
/// Returns [`EncodedError`] on a dimension mismatch or a wrong bias
/// length.
pub fn matmul_bias_relu_encoded(
    a: &Tensor,
    b: &EncodedMatrix,
    bias: &[f32],
) -> Result<Tensor, EncodedError> {
    let m = matmul_encoded_dims(a, b)?;
    if bias.len() != b.n() {
        return Err(EncodedError::Shape(ShapeError::element_count(
            b.n(),
            bias.len(),
        )));
    }
    let out = gemm::gemm_encoded_auto(a.as_slice(), b, m, Epilogue::BiasRelu(bias))?;
    Tensor::from_vec(out, &[m, b.n()]).map_err(EncodedError::Shape)
}

/// Applies a fused [`Epilogue`] to one accumulated element of column `j` —
/// the same rounded operations, in the same order, as the separate
/// [`add_bias`] / [`relu`] passes.
#[inline(always)]
pub(crate) fn apply_epilogue(v: f32, j: usize, epi: Epilogue<'_>) -> f32 {
    match epi {
        Epilogue::None => v,
        Epilogue::Bias(bias) => v + bias[j],
        Epilogue::BiasRelu(bias) => (v + bias[j]).max(0.0),
    }
}

/// Transposes a matrix (rank-2 interpretation).
///
/// Walks `TB x TB` tiles so reads and writes both stay cache-resident
/// (the naive scatter touches a fresh output cache line per element once
/// `m` exceeds a few hundred).
///
/// # Errors
///
/// Returns [`ShapeError`] for scalars.
pub fn transpose(a: &Tensor) -> Result<Tensor, ShapeError> {
    const TB: usize = 32;
    let (m, n) = a.shape().as_matrix()?;
    let av = a.as_slice();
    let mut out = vec![0.0f32; m * n];
    for ib in (0..m).step_by(TB) {
        let ie = (ib + TB).min(m);
        for jb in (0..n).step_by(TB) {
            let je = (jb + TB).min(n);
            for i in ib..ie {
                for j in jb..je {
                    out[j * m + i] = av[i * n + j];
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, m])
}

/// Elementwise addition.
///
/// # Errors
///
/// Returns [`ShapeError`] when shapes differ.
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    zip_with(a, b, |x, y| x + y)
}

/// Elementwise subtraction `a - b`.
///
/// # Errors
///
/// Returns [`ShapeError`] when shapes differ.
pub fn sub(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    zip_with(a, b, |x, y| x - y)
}

/// Elementwise multiplication.
///
/// # Errors
///
/// Returns [`ShapeError`] when shapes differ.
pub fn mul(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    zip_with(a, b, |x, y| x * y)
}

/// Combines two same-shaped tensors elementwise with `f`.
///
/// # Errors
///
/// Returns [`ShapeError`] when shapes differ.
pub fn zip_with(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor, ShapeError> {
    if a.shape() != b.shape() {
        return Err(ShapeError::new(format!(
            "elementwise op on mismatched shapes {} vs {}",
            a.shape(),
            b.shape()
        )));
    }
    let data = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| f(x, y))
        .collect();
    Tensor::from_vec(data, a.dims())
}

/// Scales every element by a constant.
pub fn scale(a: &Tensor, s: f32) -> Tensor {
    a.map(|x| x * s)
}

/// Adds a row vector `bias` (length n) to every row of an `m x n` matrix.
///
/// # Errors
///
/// Returns [`ShapeError`] when `bias.len()` differs from the column count.
pub fn add_bias(a: &Tensor, bias: &[f32]) -> Result<Tensor, ShapeError> {
    let (m, n) = a.shape().as_matrix()?;
    if bias.len() != n {
        return Err(ShapeError::element_count(n, bias.len()));
    }
    let av = a.as_slice();
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            out.push(av[i * n + j] + bias[j]);
        }
    }
    Tensor::from_vec(out, a.dims())
}

/// ReLU activation.
pub fn relu(a: &Tensor) -> Tensor {
    a.map(|x| x.max(0.0))
}

/// Row-wise softmax over the last dimension (matrix interpretation).
///
/// # Errors
///
/// Returns [`ShapeError`] for scalars.
pub fn softmax_rows(a: &Tensor) -> Result<Tensor, ShapeError> {
    let (m, n) = a.shape().as_matrix()?;
    let av = a.as_slice();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let row = &av[i * n..(i + 1) * n];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for (o, &x) in out[i * n..(i + 1) * n].iter_mut().zip(row) {
            let e = (x - max).exp();
            *o = e;
            sum += e;
        }
        for o in &mut out[i * n..(i + 1) * n] {
            *o /= sum;
        }
    }
    Tensor::from_vec(out, a.dims())
}

/// Row-wise layer normalization (zero mean, unit variance, then affine).
///
/// # Errors
///
/// Returns [`ShapeError`] for scalars or when `gamma`/`beta` lengths differ
/// from the column count.
pub fn layer_norm_rows(
    a: &Tensor,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
) -> Result<Tensor, ShapeError> {
    let (m, n) = a.shape().as_matrix()?;
    if gamma.len() != n || beta.len() != n {
        return Err(ShapeError::new("layer_norm affine params wrong length"));
    }
    let av = a.as_slice();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let row = &av[i * n..(i + 1) * n];
        let mean = row.iter().sum::<f32>() / n as f32;
        let var = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        let inv = 1.0 / (var + eps).sqrt();
        for j in 0..n {
            out[i * n + j] = (row[j] - mean) * inv * gamma[j] + beta[j];
        }
    }
    Tensor::from_vec(out, a.dims())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).unwrap()
    }

    #[test]
    fn matmul_identity() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let c = matmul(&a, &Tensor::eye(2)).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn matmul_rectangular() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_dim_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_vector_as_row() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = Tensor::eye(2);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[1, 2]);
        assert_eq!(c.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let at = transpose(&a).unwrap();
        assert_eq!(at.dims(), &[3, 2]);
        assert_eq!(transpose(&at).unwrap(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[3.0, 5.0], &[2]);
        assert_eq!(add(&a, &b).unwrap().as_slice(), &[4.0, 7.0]);
        assert_eq!(sub(&b, &a).unwrap().as_slice(), &[2.0, 3.0]);
        assert_eq!(mul(&a, &b).unwrap().as_slice(), &[3.0, 10.0]);
        assert!(add(&a, &Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn add_bias_per_column() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let c = add_bias(&a, &[10.0, 20.0]).unwrap();
        assert_eq!(c.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
        assert!(add_bias(&a, &[1.0]).is_err());
    }

    #[test]
    fn relu_clamps_negatives() {
        let a = t(&[-1.0, 0.0, 2.0], &[3]);
        assert_eq!(relu(&a).as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = t(&[1.0, 2.0, 3.0, 1.0, 1.0, 1.0], &[2, 3]);
        let s = softmax_rows(&a).unwrap();
        for i in 0..2 {
            let sum: f32 = s.as_slice()[i * 3..(i + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // uniform row softmaxes to uniform
        assert!((s.get(&[1, 0]).unwrap() - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let a = t(&[1000.0, 1001.0], &[1, 2]);
        let s = softmax_rows(&a).unwrap();
        assert!(s.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn layer_norm_normalizes() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[1, 4]);
        let g = vec![1.0; 4];
        let b = vec![0.0; 4];
        let n = layer_norm_rows(&a, &g, &b, 1e-5).unwrap();
        let mean: f32 = n.as_slice().iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        let var: f32 = n.as_slice().iter().map(|x| x * x).sum::<f32>() / 4.0;
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn scale_multiplies() {
        let a = t(&[1.0, -2.0], &[2]);
        assert_eq!(scale(&a, 3.0).as_slice(), &[3.0, -6.0]);
    }

    /// The `f32` oracle of the encoded ops (see [`gemm::gemm_encoded_with`]).
    fn oracle(a: &Tensor, em: &EncodedMatrix) -> Vec<f32> {
        let m = a.dims()[0];
        gemm::gemm_encoded_with(
            gemm::GemmVariant::detect(),
            a.as_slice(),
            em,
            m,
            Epilogue::None,
        )
        .unwrap()
    }

    /// Relative L2 distance of `got` from `want`.
    fn rel_l2(got: &[f32], want: &[f32]) -> f64 {
        let err: f64 = got
            .iter()
            .zip(want)
            .map(|(&g, &w)| (f64::from(g) - f64::from(w)).powi(2))
            .sum();
        let norm: f64 = want.iter().map(|&w| f64::from(w).powi(2)).sum();
        (err / norm).sqrt()
    }

    #[test]
    fn matmul_encoded_matches_decode_then_matmul() {
        let a = Tensor::from_fn(&[5, 24], |i| ((i * 7) % 13) as f32 - 6.0);
        let b = Tensor::from_fn(&[24, 18], |i| ((i * 11) % 17) as f32 / 8.5 - 1.0);
        let em = EncodedMatrix::encode(&b).unwrap();
        let want = matmul(&a, &em.decode().unwrap()).unwrap();
        for (g, w) in oracle(&a, &em).iter().zip(want.as_slice()) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
        // m = 5 >= MR: the auto path is within the integer path's bound.
        let got = matmul_encoded(&a, &em).unwrap();
        assert_eq!(got.dims(), &[5, 18]);
        assert!(rel_l2(got.as_slice(), want.as_slice()) <= 1e-3);
        // Dimension mismatch is typed.
        assert!(matmul_encoded(&Tensor::zeros(&[2, 3]), &em).is_err());
    }

    #[test]
    fn matmul_nt_encoded_uses_encode_time_transpose() {
        let a = Tensor::from_fn(&[4, 10], |i| (i % 5) as f32 - 2.0);
        let bt = Tensor::from_fn(&[9, 10], |i| ((i * 3) % 7) as f32 / 3.5 - 1.0);
        let em = EncodedMatrix::encode_transposed(&bt).unwrap();
        let want = matmul(&a, &em.decode().unwrap()).unwrap();
        for (g, w) in oracle(&a, &em).iter().zip(want.as_slice()) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
        let got = matmul_nt_encoded(&a, &em).unwrap();
        assert_eq!(got.dims(), &[4, 9]);
        assert!(rel_l2(got.as_slice(), want.as_slice()) <= 1e-3);
    }

    #[test]
    fn matmul_bias_encoded_epilogues_match_dense() {
        let a = Tensor::from_fn(&[3, 12], |i| (i % 7) as f32 - 3.0);
        let b = Tensor::from_fn(&[12, 20], |i| ((i * 5) % 9) as f32 / 4.5 - 1.0);
        let em = EncodedMatrix::encode(&b).unwrap();
        let dec = em.decode().unwrap();
        let bias: Vec<f32> = (0..20).map(|j| j as f32 * 0.5 - 4.0).collect();
        let want = matmul_bias(&a, &dec, &bias).unwrap();
        let got = matmul_bias_encoded(&a, &em, &bias).unwrap();
        assert_eq!(got.as_slice(), want.as_slice());
        let want = matmul_bias_relu(&a, &dec, &bias).unwrap();
        let got = matmul_bias_relu_encoded(&a, &em, &bias).unwrap();
        assert_eq!(got.as_slice(), want.as_slice());
        // Wrong bias length is typed.
        assert!(matmul_bias_encoded(&a, &em, &[0.0]).is_err());
        assert!(matmul_bias_relu_encoded(&a, &em, &[0.0]).is_err());
    }
}
