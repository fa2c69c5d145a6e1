//! Dense row-major `f32` tensors.
//!
//! [`Tensor`] is the single numeric container used by every layer, loss and
//! optimizer in the reproduction. It is intentionally small: federated
//! aggregation and DDPG only need 1-D/2-D dense arrays with a handful of
//! BLAS-1/BLAS-3 style kernels.
//!
//! # The product kernels and their contract
//!
//! [`Tensor::matmul`], [`Tensor::t_matmul`] and [`Tensor::matmul_t`] share
//! one row kernel: `out_row = a_row × B`, 32 output columns at a time, the
//! block held in registers across the whole `k` loop so the output row is
//! neither loaded nor stored per `k`. Every column goes through that block:
//! `B` is read in place while it fits the L2 cache and one packed 32-column
//! panel at a time beyond, and the `n % 32` tail columns run through a
//! panel zero-padded to whole eight-lane vectors, whose padded lanes are
//! dropped. The AVX2 copy runs every block — in place, packed or tail —
//! two rows at a time, each load of `B` feeding both rows' accumulators
//! (an odd last row runs alone); the baseline copy keeps one row.
//! `t_matmul` is the transposed row product — `matmul` of its left
//! operand's transpose — and `matmul_t` the row product over its right
//! operand's transpose. The loops live in [`simd`], which
//! compiles each of them twice — for the build's baseline target and for
//! AVX2 — and picks at run time. What callers — and the golden fixtures,
//! which pin every bit of a training run — may rely on:
//!
//! * **Summation order.** Every output element starts at `+0.0` and adds its
//!   products `a[r,0]·b[0,c]`, `a[r,1]·b[1,c]`, … in increasing `k`, one
//!   rounded multiply and one rounded add each. No reassociation, no
//!   pairwise or blocked-`k` sums.
//! * **Zero skip.** `matmul` and `t_matmul` skip a term whose *left* factor
//!   compares equal to zero (`0.0` or `-0.0`): structured-dropout masks
//!   make those common. The skipped term would
//!   have added `±0.0`, so a finite right factor gives the same bits — but
//!   a non-finite one does not (`0·∞ = NaN` is skipped too). Each row
//!   decides for itself: in a row pair, one row's skipped term is the
//!   other's `NaN`. `matmul_t` has no skip: there `0·∞` stays `NaN`.
//! * **Order and rounding are pinned; width and tile height are not.**
//!   The kernels vectorise across *independent output columns*, and a row
//!   pair only adds a second row's independent sums, so an eight-lane
//!   `vmulps`/`vaddps` performs, per element, the same rounded multiply and
//!   the same rounded add in the same `k` order as a four-lane
//!   `mulps`/`addps` or a scalar loop: the AVX2 and the baseline
//!   instantiation agree bit for bit, and a CPU without AVX2 (or another
//!   architecture) runs the baseline one. What would change bits is
//!   *fusing*: a fused multiply-add rounds once where these kernels round
//!   twice. No build flag does that behind the source's back — `rustc`
//!   emits no `contract` fast-math flag, so LLVM may not turn `a * b + c`
//!   into an FMA even where the target has one — but `f32`'s explicit
//!   fused method asks for it and stays forbidden here (CI's "No fused
//!   multiply-add" step finds any call). Rates per
//!   instantiation: docs/REPRODUCING.md, "Cost model of a local round".
//! * **Threads.** Row bands of the output go to scoped threads only above
//!   `PAR_MATMUL_FLOPS` (2²² multiply-adds) and never from inside a
//!   [`parallel`](crate::parallel) worker. Rows are independent, so the
//!   threaded and the serial result are the same bits.

use crate::rng::Rng64;
use crate::simd;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense row-major tensor of `f32` values.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

/// Minimum number of multiply-adds before a product is split over threads.
///
/// Spawning and joining two scoped threads costs 25–50 µs. Measured against
/// the AVX2 row kernel on the 2-vCPU reference box (serial / two threads,
/// µs, best of 10–400 calls, range over three runs made while the second
/// vCPU was there to be had; in an hour when it was not, two threads cost
/// the serial time plus the spawn at every size — 24 / 47, 73 / 94,
/// 161 / 187, 335 / 350, 650 / 700 for the first five rows):
///
/// | multiply-adds | shape | serial | two threads |
/// |---|---|---|---|
/// | 0.5 M | 64×64 · 64×128 | 21 | 37–45 |
/// | 2.1 M | 256×64 · 64×128 | 73–85 | 71–80 |
/// | 4.2 M | 512×64 · 64×128 | 146–170 | 112–132 |
/// | 8.4 M | 1024×64 · 64×128 | 323–379 | 221–246 |
/// | 16.4 M | 2000×64 · 64×128 | 576–647 | 358–416 |
/// | 16.8 M | 256×256 · 256×256 | 807–1 220 | 461–705 |
/// | 64 M | 400×400 · 400×400 | 4 052–5 403 | 2 141–3 002 |
/// | 67 M | 32×2048 · 2048×1024 | 9 337–10 609 | 5 340–5 713 |
///
/// The serial kernel is 1.5–2× faster than the SSE2 one this table was
/// first drawn for (36–57, 146–190, 295–516 µs for the first three rows),
/// and the crossover did not move: 2²¹ is a tie, 2²² is the first size
/// where two threads win (1.2–1.4×; 1.5–1.9× from 2²³ up), and when the
/// second vCPU is away they lose the spawn there, ≤ 16 %.
///
/// Re-measured against the AVX2 row-pair kernel (serial / two threads, µs,
/// median of 25, range over three runs), in an hour when two threads won
/// only 1.2–1.4× at 16 M and up, so the second vCPU was there part of the
/// time:
///
/// | multiply-adds | shape | serial | two threads |
/// |---|---|---|---|
/// | 0.5 M | 64×64 · 64×128 | 27–41 | 91–126 |
/// | 2.1 M | 256×64 · 64×128 | 107–146 | 164–203 |
/// | 4.2 M | 512×64 · 64×128 | 224–321 | 238–349 |
/// | 4.2 M | 64×256 · 256×256 (DDPG hidden layer) | 335–362 | 382–478 |
/// | 8.4 M | 1024×64 · 64×128 | 445–663 | 464–523 |
/// | 16.4 M | 2000×64 · 64×128 | 896–1 332 | 749–923 |
/// | 64 M | 400×400 · 400×400 | 4 736–5 780 | 4 188–4 944 |
/// | 67 M | 32×2048 · 2048×1024 | 7 246–7 800 | 4 913–5 536 |
///
/// 2²² is a tie or a loss there, 2²³ a tie, 2²⁴ the first win. A moved
/// crossover and a missing vCPU both predict that, and one hour of one box
/// does not tell them apart. With the vCPU present both sides gain the
/// kernel's speed-up and only the spawn does not, which at 2²² (≈ 200 µs
/// serial) leaves two threads ahead. No workload measurement asks for a
/// move, so the constant stays.
const PAR_MATMUL_FLOPS: usize = 1 << 22;

/// `[m, k] × [k, n]` over flat row-major buffers, output rows split into
/// `threads` bands.
fn product<const SKIP_ZERO: bool>(
    a: &[f32],
    b: &[f32],
    (m, k, n): (usize, usize, usize),
    threads: usize,
) -> Tensor {
    let mut out = Tensor::zeros(&[m, n]);
    if m == 0 || k == 0 || n == 0 {
        return out;
    }
    let band = |a_rows: &[f32], out_rows: &mut [f32]| {
        simd::product_rows::<SKIP_ZERO>(a_rows, b, k, n, out_rows)
    };
    if threads > 1 {
        // Bands are whole rows, so each worker owns a disjoint slice.
        let rows_per_band = m.div_ceil(threads);
        std::thread::scope(|scope| {
            let bands = a
                .chunks(rows_per_band * k)
                .zip(out.data.chunks_mut(rows_per_band * n));
            for (a_rows, out_rows) in bands {
                let band = &band;
                scope.spawn(move || band(a_rows, out_rows));
            }
        });
    } else {
        band(a, &mut out.data);
    }
    out
}

/// Threads a product of `m` rows and `flops` multiply-adds is split over.
fn product_threads(m: usize, flops: usize) -> usize {
    if flops < PAR_MATMUL_FLOPS || crate::parallel::in_worker() {
        1
    } else {
        crate::parallel::max_threads().min(m)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, …, {:.4}]",
                self.data[0],
                self.data[1],
                self.data[self.data.len() - 1]
            )
        }
    }
}

impl Tensor {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// All-zeros tensor with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let numel = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; numel],
        }
    }

    /// Tensor filled with a constant.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let numel = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![value; numel],
        }
    }

    /// Build from an existing buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            numel,
            data.len(),
            "shape {shape:?} wants {numel} elements, got {}",
            data.len()
        );
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// 1-D tensor from a slice (test fixtures).
    #[cfg(test)]
    pub(crate) fn from_slice(data: &[f32]) -> Self {
        Self {
            shape: vec![data.len()],
            data: data.to_vec(),
        }
    }

    /// I.i.d. normal entries `N(mean, std²)`.
    pub fn randn(shape: &[usize], mean: f32, std: f32, rng: &mut Rng64) -> Self {
        let mut t = Self::zeros(shape);
        rng.fill_normal(&mut t.data, mean, std);
        t
    }

    /// I.i.d. uniform entries from `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut Rng64) -> Self {
        let mut t = Self::zeros(shape);
        rng.fill_uniform(&mut t.data, lo, hi);
        t
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Shape as a slice.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Number of rows; 2-D tensors only.
    #[inline]
    pub fn rows(&self) -> usize {
        debug_assert_eq!(self.ndim(), 2, "rows() requires a 2-D tensor");
        self.shape[0]
    }

    /// Number of columns; 2-D tensors only.
    #[inline]
    pub fn cols(&self) -> usize {
        debug_assert_eq!(self.ndim(), 2, "cols() requires a 2-D tensor");
        self.shape[1]
    }

    /// Flat data slice.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at `(r, c)` of a 2-D tensor.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.ndim(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Mutable element at `(r, c)` of a 2-D tensor.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert_eq!(self.ndim(), 2);
        let cols = self.shape[1];
        &mut self.data[r * cols + c]
    }

    /// Row `r` of a 2-D tensor as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        let cols = self.shape[self.ndim() - 1];
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Mutable row `r` of a 2-D tensor.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let cols = self.shape[self.ndim() - 1];
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Reinterpret with a new shape (same element count; test fixtures).
    ///
    /// # Panics
    /// Panics if the element counts differ.
    #[cfg(test)]
    pub(crate) fn reshape(mut self, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            numel,
            self.data.len(),
            "reshape to {shape:?} incompatible with {} elements",
            self.data.len()
        );
        self.shape = shape.to_vec();
        self
    }

    /// `true` if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    // ------------------------------------------------------------------
    // Element-wise arithmetic
    // ------------------------------------------------------------------

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        debug_assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        simd::add_assign(&mut self.data, &other.data);
    }

    /// In-place `self -= other`.
    pub fn sub_assign(&mut self, other: &Tensor) {
        debug_assert_eq!(self.shape, other.shape, "sub_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a -= b;
        }
    }

    /// In-place scalar multiply.
    pub fn scale(&mut self, s: f32) {
        for a in self.data.iter_mut() {
            *a *= s;
        }
    }

    /// In-place `self += alpha * other` (BLAS axpy).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        debug_assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Out-of-place `self + other`.
    pub fn add(&self, other: &Tensor) -> Tensor {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// Out-of-place `self - other`.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        let mut out = self.clone();
        out.sub_assign(other);
        out
    }

    /// Apply `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Apply `f` to every element in place (test fixtures).
    #[cfg(test)]
    pub(crate) fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data.iter_mut() {
            *v = f(*v);
        }
    }

    /// Reset every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Squared L2 norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// L2 norm.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Index of the maximum element of each row (2-D tensors).
    pub fn argmax_rows(&self) -> Vec<usize> {
        debug_assert_eq!(self.ndim(), 2);
        (0..self.rows())
            .map(|r| {
                let row = self.row(r);
                let mut best = 0;
                let mut best_v = row[0];
                for (i, &v) in row.iter().enumerate().skip(1) {
                    if v > best_v {
                        best_v = v;
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix product `self × other` for 2-D tensors (kernel contract in
    /// the module doc), split over row bands for large problems.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dims mismatch: {k} vs {k2}");
        let threads = product_threads(m, m * n * k);
        product::<true>(&self.data, &other.data, (m, k, n), threads)
    }

    /// `selfᵀ × other`: [`Tensor::matmul`] of `self`'s transpose, copied
    /// once — `O(k·m)` against the product's `O(m·n·k)` — so the row
    /// kernel, its zero skip and its row bands run over contiguous rows.
    /// Every weight gradient (`xᵀ·dY`) is this product. The `k`-outer loop
    /// it replaced added a whole output row per term; µs, AVX2, median of
    /// 25, range of three alternating runs:
    ///
    /// | product | `k`-outer loop | transposed row product |
    /// |---|---|---|
    /// | `10×64ᵀ · 10×128` (client `dW₁`) | 7.8–8.4 | 5.0–5.1 |
    /// | `10×128ᵀ · 10×100` (client `dW₂`) | 11.9–12.1 | 9.4–9.5 |
    /// | `64×80ᵀ · 64×256` (critic `dW₁`, K = 16) | 143–145 | 78 |
    /// | `64×256ᵀ · 64×256` (hidden `dW`, threaded) | 460–463 | 221–238 |
    /// | `64×256ᵀ · 64×32` (actor `dW₃`, K = 16) | 47.6–47.7 | 30.6–31.2 |
    /// | `64×256ᵀ · 64×1` (critic `dW₃`) | 20.6–22.1 | 19.2–19.5 |
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2);
        assert_eq!(other.ndim(), 2);
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "t_matmul inner dims mismatch: {k} vs {k2}");
        let self_t = self.transpose();
        let threads = product_threads(m, m * n * k);
        product::<true>(&self_t.data, &other.data, (m, k, n), threads)
    }

    /// `self × otherᵀ`. Copies `other` transposed once — `O(n·k)` against
    /// the product's `O(m·n·k)` — so the shared row kernel can run over
    /// contiguous rows; unlike [`Tensor::matmul`] no zero term is skipped.
    ///
    /// When `m` fills whole 32-column blocks and `self` plus the output are
    /// fewer elements than `other`, it computes `(other × selfᵀ)ᵀ` instead:
    /// each output is the same products (`a·b` and `b·a` round alike) added
    /// in the same `k` order, so the same bits, over a right-hand matrix of
    /// `m` columns. That is the DDPG networks' hidden layer, `dY·Wᵀ` with
    /// `W` 256×256, at batch 64: 300–520 → 190–310 µs (two threads, three
    /// alternating runs), and 160 → 103 µs at batch 32. Every other shape
    /// the workloads run keeps the first orientation, which the second
    /// loses to at a narrow `m` (`10×64 · (32×64)ᵀ`: 1.9 → 2.5 µs) or a
    /// narrow `other` (`64×256 · (80×256)ᵀ`: 109 → 117 µs).
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2);
        assert_eq!(other.ndim(), 2);
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul_t inner dims mismatch: {k} vs {k2}");
        if m % simd::COL_BLOCK == 0 && m * (k + n) < n * k {
            let self_t = self.transpose();
            let threads = product_threads(n, m * n * k);
            return product::<false>(&other.data, &self_t.data, (n, k, m), threads).transpose();
        }
        let other_t = other.transpose();
        let threads = product_threads(m, m * n * k);
        product::<false>(&self.data, &other_t.data, (m, k, n), threads)
    }

    /// Explicit 2-D transpose. Eight source rows at a time become one
    /// eight-element run in every output row: the source is read along its
    /// rows, the output written in runs, and a full run has a length the
    /// compiler knows (128×100: 4–5 µs; 10–11 one bounds-checked element at
    /// a time in 8×8 tiles).
    pub fn transpose(&self) -> Tensor {
        const ROWS: usize = 8;
        assert_eq!(self.ndim(), 2);
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = Tensor::zeros(&[n, m]);
        if m == 0 || n == 0 {
            return out;
        }
        for (band, src) in self.data.chunks(ROWS * n).enumerate() {
            let r0 = band * ROWS;
            let rows = src.len() / n;
            for (c, out_row) in out.data.chunks_exact_mut(m).enumerate() {
                let gather = |run: &mut [f32]| {
                    for (i, o) in run.iter_mut().enumerate() {
                        *o = src[i * n + c];
                    }
                };
                let run = &mut out_row[r0..r0 + rows];
                match <&mut [f32; ROWS]>::try_from(&mut *run) {
                    Ok(full) => gather(full),
                    Err(_) => gather(run),
                }
            }
        }
        out
    }

    /// Broadcast-add a length-`cols` bias vector to every row of a 2-D
    /// tensor.
    pub fn add_row_vec(&mut self, bias: &Tensor) {
        debug_assert_eq!(self.ndim(), 2);
        debug_assert_eq!(bias.numel(), self.cols(), "bias length mismatch");
        let n = self.cols();
        for row in self.data.chunks_exact_mut(n) {
            for (v, &b) in row.iter_mut().zip(bias.data.iter()) {
                *v += b;
            }
        }
    }

    /// Column-wise sum of a 2-D tensor (gradient of a broadcast bias).
    pub fn sum_rows(&self) -> Tensor {
        debug_assert_eq!(self.ndim(), 2);
        let n = self.cols();
        let mut out = Tensor::zeros(&[n]);
        for row in self.data.chunks_exact(n) {
            for (o, &v) in out.data.iter_mut().zip(row.iter()) {
                *o += v;
            }
        }
        out
    }

    /// Dot product of two same-shape tensors viewed as flat vectors.
    pub fn dot(&self, other: &Tensor) -> f32 {
        debug_assert_eq!(self.numel(), other.numel(), "dot length mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Softmax over the last axis of a 2-D tensor (numerically stable).
    pub fn softmax_rows(&self) -> Tensor {
        debug_assert_eq!(self.ndim(), 2);
        let mut out = self.clone();
        let n = out.cols();
        for row in out.data.chunks_exact_mut(n) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            let inv = 1.0 / sum;
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
        out
    }
}

/// Numerically-stable softmax of a flat slice, written into a new vector.
pub fn softmax(xs: &[f32]) -> Vec<f32> {
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut out: Vec<f32> = xs.iter().map(|&x| (x - max).exp()).collect();
    let sum: f32 = out.iter().sum();
    let inv = 1.0 / sum;
    for v in out.iter_mut() {
        *v *= inv;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let out = scalar_product(|r, kk| a.at(r, kk), |kk, c| b.at(kk, c), (m, k, n), false);
        Tensor::from_vec(&[m, n], out)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn construction_and_shape() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        let u = Tensor::full(&[4], 2.5);
        assert!(u.data().iter().all(|&x| x == 2.5));
    }

    #[test]
    #[should_panic(expected = "wants")]
    fn from_vec_rejects_bad_length() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0; 3]);
    }

    #[test]
    fn matmul_matches_naive_small() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_matches_naive_random_and_parallel_path() {
        let mut rng = Rng64::new(1);
        // Large enough to cross PAR_MATMUL_FLOPS.
        const { assert!(160 * 168 * 160 >= PAR_MATMUL_FLOPS) };
        let a = Tensor::randn(&[160, 168], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(&[168, 160], 0.0, 1.0, &mut rng);
        let fast = a.matmul(&b);
        let slow = naive_matmul(&a, &b);
        assert_close(&fast, &slow, 1e-3);
    }

    #[test]
    fn rhs_beyond_the_cache_budget_packs_panels_to_the_same_bits() {
        // Every shape is past MAX_BLOCKED_RHS, so each full column block
        // runs over a packed panel; the narrow ones leave a tail of one,
        // ten or four columns for the zero-padded tail panel. The inputs
        // hold no zeros, so the naive sum is the kernel's sum term for term.
        let mut rng = Rng64::new(7);
        for (k, n) in [
            (600, 448),
            (600, 458),
            (26_215, 10),
            (2_700, 100),
            (262_145, 1),
        ] {
            assert!(k * n > simd::MAX_BLOCKED_RHS);
            let a = Tensor::randn(&[3, k], 0.0, 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 0.0, 1.0, &mut rng);
            let want = bits(&naive_matmul(&a, &b));
            simd::for_each_instantiation(|which| {
                assert_eq!(bits(&a.matmul(&b)), want, "{which} {k}×{n}");
                assert_eq!(bits(&a.matmul_t(&b.transpose())), want, "{which} {k}×{n}");
            });
        }
    }

    #[test]
    fn threaded_bands_are_bit_identical_to_serial() {
        // Thread counts passed explicitly: neither the machine's core count
        // nor the process-wide override decides which path runs. 7 rows
        // over 3 threads gives bands of 3, 3 and 1; 40 columns cover one
        // register block and a tail.
        let mut rng = Rng64::new(6);
        let dims = (7, 19, 40);
        let mut a = Tensor::randn(&[7, 19], 0.0, 1.0, &mut rng);
        a.data_mut()[5] = 0.0;
        let b = Tensor::randn(&[19, 40], 0.0, 1.0, &mut rng);
        let serial = bits(&product::<true>(a.data(), b.data(), dims, 1));
        // The pin reaches the band threads: it is process-wide.
        simd::for_each_instantiation(|which| {
            for threads in [1, 2, 3, 7] {
                let threaded = bits(&product::<true>(a.data(), b.data(), dims, threads));
                assert_eq!(threaded, serial, "{which}, {threads} threads");
            }
        });
        assert_eq!(bits(&a.matmul(&b)), serial);
    }

    /// Bits with every `NaN` made one: a payload is not part of the
    /// contract.
    fn bits_nan_as_one(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
            .collect()
    }

    /// Normal entries with `0.0`, `-0.0`, `∞` and `NaN` planted in `a`.
    fn planted_left(shape: &[usize], rng: &mut Rng64) -> Tensor {
        let mut t = Tensor::randn(shape, 0.0, 1.0, rng);
        for v in t.data_mut() {
            match rng.below(16) {
                0..=2 => *v = 0.0,
                3..=4 => *v = -0.0,
                5 => *v = f32::INFINITY,
                6 => *v = f32::NAN,
                _ => {}
            }
        }
        t
    }

    /// Every output of `[m, k] × [k, n]` from `+0.0`, in `k` order, the
    /// terms with a zero left factor dropped if `skip_zero`.
    fn scalar_product(
        a: impl Fn(usize, usize) -> f32,
        b: impl Fn(usize, usize) -> f32,
        (m, k, n): (usize, usize, usize),
        skip_zero: bool,
    ) -> Vec<f32> {
        let mut out = Vec::with_capacity(m * n);
        for r in 0..m {
            for c in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    let a_v = a(r, kk);
                    if !(skip_zero && a_v == 0.0) {
                        acc += a_v * b(kk, c);
                    }
                }
                out.push(acc);
            }
        }
        out
    }

    /// The transposed products are their scalar statements bit for bit, in
    /// both instantiations and on 1, 2, 3 and 7 threads: `t_matmul` with the
    /// zero skip — its left factor carries `±0.0` and non-finite values, and
    /// the right one an `∞` that a skipped zero never meets — and
    /// `matmul_t` without it. The shapes cover a block and a tail; the last
    /// crosses `PAR_MATMUL_FLOPS`, so the public calls thread too.
    #[test]
    fn t_matmul_equals_explicit_transpose() {
        let mut rng = Rng64::new(2);
        for (k, m, n) in [(7, 5, 4), (10, 64, 128), (10, 128, 100), (64, 256, 256)] {
            let a = planted_left(&[k, m], &mut rng);
            let mut b = Tensor::randn(&[k, n], 0.0, 1.0, &mut rng);
            b.data_mut()[n / 2] = f32::INFINITY;
            let want = scalar_product(|r, kk| a.at(kk, r), |kk, c| b.at(kk, c), (m, k, n), true);
            let want = bits_nan_as_one(&want);
            let a_t = a.transpose();
            simd::for_each_instantiation(|which| {
                assert_eq!(
                    bits_nan_as_one(a.t_matmul(&b).data()),
                    want,
                    "{which} {k}×{m}ᵀ·{k}×{n}"
                );
                for threads in [1, 2, 3, 7] {
                    let got = product::<true>(a_t.data(), b.data(), (m, k, n), threads);
                    assert_eq!(
                        bits_nan_as_one(got.data()),
                        want,
                        "{which}, {threads} threads"
                    );
                }
            });
        }
    }

    #[test]
    fn matmul_t_equals_explicit_transpose() {
        let mut rng = Rng64::new(3);
        // The last two take the transposed orientation.
        for (m, k, n) in [
            (6, 5, 8),
            (10, 128, 64),
            (64, 256, 80),
            (32, 100, 128),
            (64, 256, 256),
        ] {
            let a = planted_left(&[m, k], &mut rng);
            let mut b = Tensor::randn(&[n, k], 0.0, 1.0, &mut rng);
            b.data_mut()[k / 2] = f32::INFINITY;
            let want = scalar_product(|r, kk| a.at(r, kk), |kk, c| b.at(c, kk), (m, k, n), false);
            let want = bits_nan_as_one(&want);
            let b_t = b.transpose();
            simd::for_each_instantiation(|which| {
                assert_eq!(
                    bits_nan_as_one(a.matmul_t(&b).data()),
                    want,
                    "{which} {m}×{k}·({n}×{k})ᵀ"
                );
                for threads in [1, 2, 3, 7] {
                    let got = product::<false>(a.data(), b_t.data(), (m, k, n), threads);
                    assert_eq!(
                        bits_nan_as_one(got.data()),
                        want,
                        "{which}, {threads} threads"
                    );
                }
            });
        }
    }

    #[test]
    #[should_panic(expected = "inner dims mismatch")]
    fn matmul_rejects_mismatched_dims() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn elementwise_ops() {
        let mut a = Tensor::from_slice(&[1., 2., 3.]);
        let b = Tensor::from_slice(&[4., 5., 6.]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[5., 7., 9.]);
        a.sub_assign(&b);
        assert_eq!(a.data(), &[1., 2., 3.]);
        a.scale(0.5);
        assert_eq!(a.data(), &[0.5, 1., 1.5]);
        a.axpy(2.0, &b);
        assert_eq!(a.data(), &[8.5, 11., 13.5]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_slice(&[1., -2., 3., 0.]);
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.mean(), 0.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.norm_sq(), 14.0);
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let t = Tensor::from_vec(&[2, 3], vec![0.1, 0.9, 0.5, 2.0, 2.0, -1.0]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn bias_broadcast_and_sum_rows_are_adjoint() {
        let mut x = Tensor::zeros(&[3, 2]);
        let b = Tensor::from_slice(&[1.0, -1.0]);
        x.add_row_vec(&b);
        assert_eq!(x.data(), &[1., -1., 1., -1., 1., -1.]);
        let s = x.sum_rows();
        assert_eq!(s.data(), &[3.0, -3.0]);
    }

    #[test]
    fn softmax_rows_on_simplex() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 1000., 1000., 1000.]);
        let s = t.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(s.row(r).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
        // Row of equal logits → uniform.
        for &p in s.row(1) {
            assert!((p - 1.0 / 3.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_flat_handles_extremes() {
        let s = softmax(&[-1e30, 0.0, 1e30]);
        assert!((s.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(s[2] > 0.999);
    }

    #[test]
    fn reshape_roundtrip() {
        let t = Tensor::from_slice(&[1., 2., 3., 4., 5., 6.]).reshape(&[2, 3]);
        assert_eq!(t.at(1, 2), 6.0);
        let back = t.reshape(&[6]);
        assert_eq!(back.shape(), &[6]);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut t = Tensor::zeros(&[4]);
        assert!(t.is_finite());
        t.data_mut()[2] = f32::NAN;
        assert!(!t.is_finite());
    }

    #[test]
    fn serde_roundtrip() {
        let mut rng = Rng64::new(4);
        let t = Tensor::randn(&[3, 3], 0.0, 1.0, &mut rng);
        let json = serde_json::to_string(&t).unwrap();
        let back: Tensor = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng64::new(5);
        let t = Tensor::randn(&[4, 7], 0.0, 1.0, &mut rng);
        assert_eq!(t.transpose().transpose(), t);
    }

    #[test]
    fn dot_matches_manual() {
        let a = Tensor::from_slice(&[1., 2., 3.]);
        let b = Tensor::from_slice(&[4., 5., 6.]);
        assert_eq!(a.dot(&b), 32.0);
    }
}
