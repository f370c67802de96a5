use crate::TensorError;
use rand::Rng;
use std::fmt;

/// An owned, dense, row-major `f32` tensor.
///
/// `Tensor` is the single data container used throughout the `fabflip`
/// stack: images are `[N, C, H, W]`, dense activations `[N, F]`, convolution
/// kernels `[OC, IC, KH, KW]`. The representation (shape + flat `Vec<f32>`)
/// is deliberately simple; all heavy lifting happens in [`crate::matmul`]
/// and [`crate::im2col`].
///
/// # Examples
///
/// ```
/// use fabflip_tensor::Tensor;
///
/// let t = Tensor::zeros(vec![1, 2, 3]);
/// assert_eq!(t.len(), 6);
/// assert_eq!(t.shape(), &[1, 2, 3]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let preview: Vec<f32> = self.data.iter().take(8).copied().collect();
        write!(
            f,
            "Tensor {{ shape: {:?}, len: {}, data[..{}]: {:?}{} }}",
            self.shape,
            self.data.len(),
            preview.len(),
            preview,
            if self.data.len() > 8 { ", …" } else { "" }
        )
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor {
            shape: vec![0],
            data: Vec::new(),
        }
    }
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    ///
    /// ```
    /// # use fabflip_tensor::Tensor;
    /// let t = Tensor::zeros(vec![2, 3]);
    /// assert!(t.data().iter().all(|&x| x == 0.0));
    /// ```
    pub fn zeros(shape: Vec<usize>) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: Vec<usize>, value: f32) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates a tensor from a flat buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the product of `shape`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Tensor, TensorError> {
        let n: usize = shape.iter().product();
        if n != data.len() {
            return Err(TensorError::LengthMismatch {
                expected: n,
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor with elements drawn i.i.d. from `U[lo, hi)`.
    pub fn uniform<R: Rng + ?Sized>(shape: Vec<usize>, lo: f32, hi: f32, rng: &mut R) -> Tensor {
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor { shape, data }
    }

    /// Creates a tensor with elements drawn i.i.d. from `N(mean, std^2)`
    /// using the Box–Muller transform (no external distribution crate).
    pub fn normal<R: Rng + ?Sized>(shape: Vec<usize>, mean: f32, std: f32, rng: &mut R) -> Tensor {
        let n: usize = shape.iter().product();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let (a, b) = box_muller(rng);
            data.push(mean + std * a);
            if data.len() < n {
                data.push(mean + std * b);
            }
        }
        Tensor { shape, data }
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Immutable view of the flat data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns a copy with a new shape of equal element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: Vec<usize>) -> Result<Tensor, TensorError> {
        let n: usize = shape.iter().product();
        if n != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: n,
                actual: self.data.len(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    fn check_same_shape(&self, other: &Tensor, op: &'static str) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        Ok(())
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.check_same_shape(other, "add")?;
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Element-wise subtraction (`self - other`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.check_same_shape(other, "sub")?;
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Element-wise multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.check_same_shape(other, "mul")?;
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<(), TensorError> {
        self.check_same_shape(other, "axpy")?;
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Returns a copy scaled by `alpha`.
    pub fn scale(&self, alpha: f32) -> Tensor {
        let data = self.data.iter().map(|a| a * alpha).collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Scales in place by `alpha`.
    pub fn scale_in_place(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Applies `f` element-wise, returning a new tensor.
    ///
    /// Not a hot-path kernel: fabcheck's call graph only reaches it through
    /// the iterator adapter `.map(...)` inside real kernels (a method-name
    /// over-approximation), hence the allow markers below.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        // fabcheck::allow(alloc_on_hot_path): returns a fresh tensor by design.
        let data = self.data.iter().map(|&a| f(a)).collect();
        Tensor {
            // fabcheck::allow(alloc_on_hot_path): fresh tensor's shape copy.
            shape: self.shape.clone(),
            data,
        }
    }

    /// Fills every element with zero (reuses the allocation).
    pub fn zero_(&mut self) {
        for a in &mut self.data {
            *a = 0.0;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Population variance of all elements (0 for empty tensors).
    pub fn variance(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let m = self.mean();
        // fabcheck::allow(unordered_float_reduction): serial sum in slice order (this IS a fixed-order kernel)
        self.data.iter().map(|a| (a - m) * (a - m)).sum::<f32>() / self.data.len() as f32
    }

    /// Index of the maximum element of a 1-D slice interpretation.
    ///
    /// Returns 0 for empty tensors. NaN elements are never selected unless
    /// all elements are NaN.
    pub fn argmax(&self) -> usize {
        let mut best = 0usize;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in self.data.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Extracts sample `i` of a batched tensor whose first axis is the batch.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for rank-0 tensors and
    /// [`TensorError::InvalidGeometry`] if `i` is out of range.
    pub fn slice_batch(&self, i: usize) -> Result<Tensor, TensorError> {
        if self.shape.is_empty() {
            return Err(TensorError::RankMismatch {
                op: "slice_batch",
                expected: 1,
                actual: 0,
            });
        }
        let n = self.shape[0];
        if i >= n {
            return Err(TensorError::InvalidGeometry(format!(
                "batch index {i} out of range for batch size {n}"
            )));
        }
        let stride: usize = self.shape[1..].iter().product();
        let mut shape = self.shape.clone();
        shape[0] = 1;
        let data = self.data[i * stride..(i + 1) * stride].to_vec();
        Ok(Tensor { shape, data })
    }

    /// Stacks tensors of identical per-sample shape along a new batch axis.
    ///
    /// Inputs may themselves be batches (first axis is concatenated).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the trailing dimensions of
    /// any input differ from the first, or [`TensorError::InvalidGeometry`]
    /// when `parts` is empty.
    pub fn concat_batch(parts: &[Tensor]) -> Result<Tensor, TensorError> {
        let first = parts
            .first()
            .ok_or_else(|| TensorError::InvalidGeometry("concat_batch of zero tensors".into()))?;
        let tail = &first.shape[1..];
        let mut total = 0usize;
        for p in parts {
            if &p.shape[1..] != tail {
                return Err(TensorError::ShapeMismatch {
                    op: "concat_batch",
                    lhs: first.shape.clone(),
                    rhs: p.shape.clone(),
                });
            }
            total += p.shape[0];
        }
        let mut shape = first.shape.clone();
        shape[0] = total;
        let mut data = Vec::with_capacity(shape.iter().product());
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Ok(Tensor { shape, data })
    }
}

/// One Box–Muller draw: two independent standard normal samples.
fn box_muller<R: Rng + ?Sized>(rng: &mut R) -> (f32, f32) {
    // Avoid u1 == 0, which would make ln(0) = -inf.
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f32::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(vec![2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert_eq!(t.rank(), 3);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![2, 2], vec![1.0; 4]).is_ok());
        let err = Tensor::from_vec(vec![2, 2], vec![1.0; 3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::LengthMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec(vec![3], vec![4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let a = Tensor::zeros(vec![2]);
        let b = Tensor::zeros(vec![3]);
        match a.add(&b) {
            Err(TensorError::ShapeMismatch { op, .. }) => assert_eq!(op, "add"),
            other => panic!("expected shape mismatch, got {other:?}"),
        }
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_vec(vec![2], vec![1.0, 1.0]).unwrap();
        let b = Tensor::from_vec(vec![2], vec![2.0, 4.0]).unwrap();
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.data(), &[2.0, 3.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert!((t.variance() - 1.25).abs() < 1e-6);
        assert!((crate::vecops::l2_norm(t.data()) - 30.0_f32.sqrt()).abs() < 1e-6);
        assert_eq!(t.argmax(), 3);
    }

    #[test]
    fn argmax_ignores_nan() {
        let t = Tensor::from_vec(vec![3], vec![f32::NAN, 2.0, 1.0]).unwrap();
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::normal(vec![20_000], 1.5, 2.0, &mut rng);
        assert!((t.mean() - 1.5).abs() < 0.1, "mean {} off", t.mean());
        assert!((t.variance().sqrt() - 2.0).abs() < 0.1);
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Tensor::uniform(vec![1000], -1.0, 1.0, &mut rng);
        assert!(t.data().iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn reshape_roundtrip() {
        let t = Tensor::from_vec(vec![2, 3], (0..6).map(|i| i as f32).collect()).unwrap();
        let r = t.reshape(vec![3, 2]).unwrap();
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(vec![4, 2]).is_err());
    }

    #[test]
    fn slice_and_concat_batch() {
        let t = Tensor::from_vec(vec![2, 3], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let s0 = t.slice_batch(0).unwrap();
        let s1 = t.slice_batch(1).unwrap();
        assert_eq!(s0.data(), &[0.0, 1.0, 2.0]);
        assert_eq!(s1.data(), &[3.0, 4.0, 5.0]);
        assert!(t.slice_batch(2).is_err());
        let back = Tensor::concat_batch(&[s0, s1]).unwrap();
        assert_eq!(back, t);
        assert!(Tensor::concat_batch(&[]).is_err());
    }

    #[test]
    fn debug_is_nonempty() {
        let t = Tensor::zeros(vec![2]);
        assert!(!format!("{t:?}").is_empty());
    }
}
